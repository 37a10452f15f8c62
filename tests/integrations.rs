//! End-to-end tests of the two database integrations (§ V-F and § V-G):
//! the Redis-like store with the CuckooGraph module, and the Neo4j-like
//! property graph with the CuckooGraph edge index, driven by generated
//! datasets rather than hand-picked edges.

use cuckoograph_repro::graph_datasets::{generate, parse_snap_edge_list, DatasetKind};
use cuckoograph_repro::graphdb::PropertyGraph;
use cuckoograph_repro::kvstore::{CuckooGraphModule, Reply, RespValue, Server};
use std::collections::HashSet;

fn cmd(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn kvstore_module_ingests_a_caida_like_trace_and_survives_persistence() {
    let trace = generate(DatasetKind::Caida, 0.0006, 31);
    let mut server = Server::new();
    server.load_module(Box::new(CuckooGraphModule::new()));

    for &(u, v) in &trace.raw_edges {
        let reply = server.execute(&cmd(&[
            "graph.insert",
            "flows",
            &u.to_string(),
            &v.to_string(),
        ]));
        assert!(matches!(reply, Reply::Integer(w) if w >= 1));
    }

    // Every distinct edge is queryable, with a weight equal to its
    // multiplicity in the raw stream.
    let mut multiplicity: std::collections::HashMap<(u64, u64), i64> =
        std::collections::HashMap::new();
    for &e in &trace.raw_edges {
        *multiplicity.entry(e).or_insert(0) += 1;
    }
    for (&(u, v), &count) in multiplicity.iter().take(500) {
        let reply = server.execute(&cmd(&[
            "graph.query",
            "flows",
            &u.to_string(),
            &v.to_string(),
        ]));
        assert_eq!(reply, Reply::Integer(count), "weight of ({u}, {v})");
    }

    // RDB round trip preserves weights.
    let snapshot = server.save_rdb();
    let mut restored = Server::new();
    restored.load_module(Box::new(CuckooGraphModule::new()));
    restored.load_rdb(&snapshot).expect("snapshot loads");
    for (&(u, v), &count) in multiplicity.iter().take(200) {
        let reply = restored.execute(&cmd(&[
            "graph.query",
            "flows",
            &u.to_string(),
            &v.to_string(),
        ]));
        assert_eq!(
            reply,
            Reply::Integer(count),
            "restored weight of ({u}, {v})"
        );
    }

    // AOF rewrite emits exactly one rebuild command per distinct edge.
    let mut rebuild_commands = 0usize;
    restored.aof_rewrite(|_| rebuild_commands += 1);
    assert_eq!(rebuild_commands, multiplicity.len());
}

#[test]
fn kvstore_resp_wire_protocol_round_trips_module_commands() {
    let mut server = Server::new();
    server.load_module(Box::new(CuckooGraphModule::new()));
    let insert = RespValue::command(&["graph.insert", "g", "10", "20"]).encode();
    let reply = server.execute_resp(&insert);
    assert_eq!(&reply[..], b":1\r\n");
    let query = RespValue::command(&["graph.query", "g", "10", "20"]).encode();
    assert_eq!(&server.execute_resp(&query)[..], b":1\r\n");
    let neighbors = RespValue::command(&["graph.getneighbors", "g", "10"]).encode();
    assert_eq!(&server.execute_resp(&neighbors)[..], b"*1\r\n$2\r\n20\r\n");
}

#[test]
fn graphdb_index_and_scan_agree_on_a_generated_trace() {
    let trace = generate(DatasetKind::Caida, 0.0004, 32);
    let mut db = PropertyGraph::with_cuckoo_index();
    for &(u, v) in &trace.raw_edges {
        db.create_relationship(u, v, "FLOW");
    }
    assert_eq!(db.relationship_count(), trace.raw_edges.len());

    let distinct: HashSet<(u64, u64)> = trace.raw_edges.iter().copied().collect();
    for &(u, v) in distinct.iter().take(800) {
        let (via_index, _) = db.relationships_between(u, v);
        let (via_scan, cost) = db.relationships_between_scan(u, v);
        let a: HashSet<_> = via_index.iter().copied().collect();
        let b: HashSet<_> = via_scan.iter().copied().collect();
        assert_eq!(a, b, "index and scan disagree for ({u}, {v})");
        assert!(
            cost.relationships_scanned >= via_scan.len(),
            "scan cost must cover at least the matches"
        );
    }
}

#[test]
fn graphdb_relationship_deletion_keeps_index_and_chains_in_sync() {
    let trace = generate(DatasetKind::SparseGraph, 0.0002, 33);
    let mut db = PropertyGraph::with_cuckoo_index();
    let mut created = Vec::new();
    for &(u, v) in &trace.raw_edges {
        created.push((u, v, db.create_relationship(u, v, "LINK")));
    }
    // Delete half of the relationships.
    for &(_, _, rel) in created.iter().step_by(2) {
        assert!(db.delete_relationship(rel));
    }
    for (i, &(u, v, rel)) in created.iter().enumerate() {
        let (matches, _) = db.relationships_between(u, v);
        let should_exist = i % 2 == 1;
        assert_eq!(
            matches.contains(&rel),
            should_exist,
            "relationship {rel} existence mismatch"
        );
    }
}

#[test]
fn snap_loader_feeds_the_whole_pipeline() {
    // A small edge list in SNAP format goes through the loader, into
    // CuckooGraph, and out through the kvstore module — exercising the same
    // path a user with a real downloaded dataset would take.
    let text = "# toy web graph\n1 2\n2 3\n3 1\n3 4\n";
    let edges = parse_snap_edge_list(text.as_bytes()).unwrap();
    assert_eq!(edges.len(), 4);

    let mut server = Server::new();
    server.load_module(Box::new(CuckooGraphModule::new()));
    for &(u, v) in &edges {
        server.execute(&cmd(&[
            "graph.insert",
            "web",
            &u.to_string(),
            &v.to_string(),
        ]));
    }
    let reply = server.execute(&cmd(&["graph.getneighbors", "web", "3"]));
    assert_eq!(
        reply,
        Reply::Array(vec![Reply::Bulk("1".into()), Reply::Bulk("4".into())])
    );
}
