//! The CuckooGraph module for the key-value store (§ V-F).
//!
//! Mirrors the paper's Redis integration: the module registers a new value
//! type backed by [`cuckoograph::WeightedCuckooGraph`] (the extended version,
//! because the datasets used in the experiment — CAIDA and StackOverflow —
//! contain duplicate edges) and the extended commands `graph.insert`,
//! `graph.del`, `graph.query` and `graph.getneighbors`, plus the persistence
//! callbacks `save_rdb`, `load_rdb` and `aof_rewrite`.

use crate::keyspace::Keyspace;
use crate::module::{Module, ModuleValue, Reply};
use cuckoograph::WeightedCuckooGraph;
use graph_api::{
    DynamicGraph, EdgeExport, EdgeImport, MemoryFootprint, NodeId, WeightedDynamicGraph,
};
use graph_durability::{decode_records, encode_records};

/// The module value type: one CuckooGraph per key.
#[derive(Debug)]
pub struct GraphValue {
    /// The underlying weighted CuckooGraph.
    pub graph: WeightedCuckooGraph,
}

impl GraphValue {
    /// Creates an empty graph value.
    pub fn new() -> Self {
        Self {
            graph: WeightedCuckooGraph::new(),
        }
    }
}

impl Default for GraphValue {
    fn default() -> Self {
        Self::new()
    }
}

impl ModuleValue for GraphValue {
    fn type_name(&self) -> &'static str {
        "cuckoograph"
    }

    fn save_rdb(&self) -> Vec<u8> {
        // Varint edge-record section (the durability snapshot codec), sorted
        // by (u, v) so reload bulk-inserts each adjacency run contiguously.
        let mut records = self.graph.edge_records();
        records.sort_unstable_by_key(|r| (r.source, r.target));
        encode_records(&records)
    }

    fn aof_rewrite(&self, key: &str) -> Vec<Vec<String>> {
        let mut records = self.graph.edge_records();
        records.sort_unstable_by_key(|r| (r.source, r.target));
        records
            .into_iter()
            .map(|r| {
                vec![
                    "graph.insert".to_string(),
                    key.to_string(),
                    r.source.to_string(),
                    r.target.to_string(),
                    r.weight.to_string(),
                ]
            })
            .collect()
    }

    fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The loadable CuckooGraph module.
#[derive(Debug, Default, Clone)]
pub struct CuckooGraphModule;

impl CuckooGraphModule {
    /// Creates the module (ready to pass to [`crate::Server::load_module`]).
    pub fn new() -> Self {
        Self
    }

    fn parse_node(arg: Option<&String>) -> Result<NodeId, Reply> {
        arg.and_then(|s| s.parse().ok())
            .ok_or_else(|| Reply::Error("ERR node ids must be unsigned integers".into()))
    }
}

impl Module for CuckooGraphModule {
    fn name(&self) -> &'static str {
        "cuckoograph"
    }

    fn commands(&self) -> Vec<&'static str> {
        vec![
            "graph.insert",
            "graph.del",
            "graph.query",
            "graph.getneighbors",
        ]
    }

    fn dispatch(&self, keyspace: &mut Keyspace, command: &str, args: &[String]) -> Reply {
        let Some(key) = args.first() else {
            return Reply::Error("ERR missing graph key".into());
        };
        match command {
            "graph.insert" => {
                let u = match Self::parse_node(args.get(1)) {
                    Ok(u) => u,
                    Err(e) => return e,
                };
                let v = match Self::parse_node(args.get(2)) {
                    Ok(v) => v,
                    Err(e) => return e,
                };
                let delta: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1);
                let Some(value) = keyspace.module_entry(key, GraphValue::new) else {
                    return Reply::Error("WRONGTYPE key holds a non-graph value".into());
                };
                let weight = value.graph.insert_weighted(u, v, delta);
                Reply::Integer(weight as i64)
            }
            "graph.del" => {
                let u = match Self::parse_node(args.get(1)) {
                    Ok(u) => u,
                    Err(e) => return e,
                };
                let v = match Self::parse_node(args.get(2)) {
                    Ok(v) => v,
                    Err(e) => return e,
                };
                let Some(value) = keyspace.module_entry(key, GraphValue::new) else {
                    return Reply::Error("WRONGTYPE key holds a non-graph value".into());
                };
                if value.graph.weight(u, v) == 0 {
                    return Reply::Integer(0);
                }
                let remaining = value.graph.delete_weighted(u, v, 1);
                Reply::Integer(remaining as i64)
            }
            "graph.query" => {
                let u = match Self::parse_node(args.get(1)) {
                    Ok(u) => u,
                    Err(e) => return e,
                };
                let v = match Self::parse_node(args.get(2)) {
                    Ok(v) => v,
                    Err(e) => return e,
                };
                match keyspace.module_get::<GraphValue>(key) {
                    None => Reply::Nil,
                    Some(value) => Reply::Integer(value.graph.weight(u, v) as i64),
                }
            }
            "graph.getneighbors" => {
                let u = match Self::parse_node(args.get(1)) {
                    Ok(u) => u,
                    Err(e) => return e,
                };
                match keyspace.module_get::<GraphValue>(key) {
                    None => Reply::Array(Vec::new()),
                    Some(value) => {
                        let mut neighbors = Vec::with_capacity(value.graph.out_degree(u));
                        value
                            .graph
                            .for_each_successor(u, &mut |v| neighbors.push(v));
                        neighbors.sort_unstable();
                        Reply::Array(
                            neighbors
                                .into_iter()
                                .map(|n| Reply::Bulk(n.to_string()))
                                .collect(),
                        )
                    }
                }
            }
            other => Reply::Error(format!("ERR unknown graph command '{other}'")),
        }
    }

    fn load_rdb(&self, bytes: &[u8]) -> Result<Box<dyn ModuleValue>, String> {
        let records =
            decode_records(bytes).ok_or_else(|| "malformed cuckoograph payload".to_string())?;
        let mut value = GraphValue::new();
        value.graph.import_edge_records(&records);
        Ok(Box::new(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;

    fn cmd(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn server_with_module() -> Server {
        let mut s = Server::new();
        s.load_module(Box::new(CuckooGraphModule::new()));
        s
    }

    #[test]
    fn insert_query_del_through_commands() {
        let mut s = server_with_module();
        assert_eq!(
            s.execute(&cmd(&["graph.insert", "g", "1", "2"])),
            Reply::Integer(1)
        );
        assert_eq!(
            s.execute(&cmd(&["graph.insert", "g", "1", "2"])),
            Reply::Integer(2)
        );
        assert_eq!(
            s.execute(&cmd(&["graph.query", "g", "1", "2"])),
            Reply::Integer(2)
        );
        assert_eq!(
            s.execute(&cmd(&["graph.query", "g", "1", "9"])),
            Reply::Integer(0)
        );
        assert_eq!(
            s.execute(&cmd(&["graph.del", "g", "1", "2"])),
            Reply::Integer(1)
        );
        assert_eq!(
            s.execute(&cmd(&["graph.del", "g", "1", "2"])),
            Reply::Integer(0)
        );
        assert_eq!(
            s.execute(&cmd(&["graph.del", "g", "1", "2"])),
            Reply::Integer(0)
        );
    }

    #[test]
    fn getneighbors_returns_sorted_ids() {
        let mut s = server_with_module();
        for v in [5u64, 3, 9] {
            s.execute(&cmd(&["graph.insert", "g", "1", &v.to_string()]));
        }
        assert_eq!(
            s.execute(&cmd(&["graph.getneighbors", "g", "1"])),
            Reply::Array(vec![
                Reply::Bulk("3".into()),
                Reply::Bulk("5".into()),
                Reply::Bulk("9".into())
            ])
        );
        assert_eq!(
            s.execute(&cmd(&["graph.getneighbors", "missing", "1"])),
            Reply::Array(Vec::new())
        );
    }

    #[test]
    fn module_commands_reject_bad_arguments_and_wrong_types() {
        let mut s = server_with_module();
        assert!(matches!(
            s.execute(&cmd(&["graph.insert", "g", "x", "2"])),
            Reply::Error(_)
        ));
        assert!(matches!(
            s.execute(&cmd(&["graph.insert"])),
            Reply::Error(_)
        ));
        s.execute(&cmd(&["SET", "plain", "1"]));
        assert!(matches!(
            s.execute(&cmd(&["graph.insert", "plain", "1", "2"])),
            Reply::Error(_)
        ));
    }

    #[test]
    fn rdb_persistence_roundtrips_the_graph() {
        let mut s = server_with_module();
        for (u, v) in [(1u64, 2u64), (1, 3), (4, 5)] {
            s.execute(&cmd(&["graph.insert", "g", &u.to_string(), &v.to_string()]));
        }
        s.execute(&cmd(&["graph.insert", "g", "1", "2"])); // weight 2
        let snapshot = s.save_rdb();

        let mut restored = Server::new();
        restored.load_module(Box::new(CuckooGraphModule::new()));
        restored.load_rdb(&snapshot).unwrap();
        assert_eq!(
            restored.execute(&cmd(&["graph.query", "g", "1", "2"])),
            Reply::Integer(2)
        );
        assert_eq!(
            restored.execute(&cmd(&["graph.query", "g", "4", "5"])),
            Reply::Integer(1)
        );
    }

    #[test]
    fn snapshot_without_module_fails_to_load() {
        let mut s = server_with_module();
        s.execute(&cmd(&["graph.insert", "g", "1", "2"]));
        let snapshot = s.save_rdb();
        let mut bare = Server::new();
        let err = bare.load_rdb(&snapshot).unwrap_err();
        assert!(err.contains("cuckoograph"));
    }

    #[test]
    fn aof_rewrite_rebuilds_the_graph_from_minimal_commands() {
        let mut s = server_with_module();
        for _ in 0..3 {
            s.execute(&cmd(&["graph.insert", "g", "7", "8"]));
        }
        s.execute(&cmd(&["graph.insert", "g", "7", "9"]));
        s.execute(&cmd(&["graph.del", "g", "7", "9"]));
        let mut log = Vec::new();
        s.aof_rewrite(|command| log.push(command));
        // Only one edge remains: one rebuild command.
        assert_eq!(log.len(), 1);

        let mut replayed = server_with_module();
        for command in &log {
            replayed.execute(command);
        }
        assert_eq!(
            replayed.execute(&cmd(&["graph.query", "g", "7", "8"])),
            Reply::Integer(3)
        );
        assert_eq!(
            replayed.execute(&cmd(&["graph.query", "g", "7", "9"])),
            Reply::Integer(0)
        );
    }

    #[test]
    fn module_value_reports_memory_and_type() {
        let mut v = GraphValue::new();
        v.graph.insert_weighted(1, 2, 1);
        assert_eq!(v.type_name(), "cuckoograph");
        assert!(v.memory_bytes() > 0);
        assert!(v.graph.has_edge(1, 2));
    }

    #[test]
    fn corrupt_module_payload_is_rejected() {
        let module = CuckooGraphModule::new();
        assert!(module.load_rdb(&[1, 2, 3]).is_err());
        let mut payload = 5u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0u8; 10]);
        assert!(module.load_rdb(&payload).is_err());
    }
}
