//! The store front-end: command dispatch, module loading, RDB snapshots and
//! the append-only file (AOF) with rewrite — the pieces of Redis the § V-F
//! experiment exercises.
//!
//! Since PR 10 the server also owns a **shared served graph**: an
//! [`Arc<ShardedWeightedCuckooGraph>`] behind the `GRAPH.*` command family.
//! Unlike the keyspace-scoped `graph.insert` module values, this graph is
//! reachable *outside* the server (via [`Server::shared_graph`]), which is
//! what lets the serving reactor answer `GRAPH.SUCCESSORS` / `GRAPH.DEGREE` /
//! `GRAPH.HASEDGE` from a [`read_view`](cuckoograph::Sharded::read_view) under
//! per-shard read locks while writes serialize through the durable writer.
//! Every command still has a serial path through [`Server::execute`], which
//! is what log replay runs.

use crate::keyspace::{Keyspace, Value};
use crate::module::{Module, Reply};
use crate::resp::RespValue;
use bytes::{Bytes, BytesMut};
use cuckoograph::ShardedWeightedCuckooGraph;
use graph_api::{DynamicGraph, EdgeExport, GraphReadSnapshot, NodeId, WeightedDynamicGraph};
use std::collections::HashMap;
use std::sync::Arc;

/// Default shard count of the served graph — small enough that a fresh
/// `Server::new()` stays cheap, large enough that concurrent readers spread.
pub const DEFAULT_GRAPH_SHARDS: usize = 4;

/// How the dispatch layer must route a command — decided *before* execution,
/// from the command name alone, so a pipelined front end can fan reads out
/// without consulting the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandClass {
    /// Answerable from a [`GraphReadSnapshot`] of the shared served graph:
    /// safe to execute concurrently with the writer, never logged.
    GraphRead,
    /// Mutates state: serialized through the single writer and recorded in
    /// the AOF before execution.
    Write,
    /// Reads server-held state (keyspace, modules, introspection):
    /// serialized with writes for ordering, but never logged.
    Read,
}

/// A single-threaded Redis-like server instance.
pub struct Server {
    keyspace: Keyspace,
    modules: Vec<Box<dyn Module>>,
    /// Maps a module command name to the index of the owning module.
    command_index: HashMap<String, usize>,
    /// The served graph behind `GRAPH.*` — shared so the reactor's readers
    /// can hold it without holding the server.
    graph: Arc<ShardedWeightedCuckooGraph>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("keys", &self.keyspace.len())
            .field("modules", &self.modules.len())
            .field("commands", &self.command_index.len())
            .field("graph_edges", &self.graph.edge_count())
            .finish()
    }
}

impl Default for Server {
    fn default() -> Self {
        Self::new()
    }
}

impl Server {
    /// Creates a server with an empty keyspace and no modules.
    pub fn new() -> Self {
        Self::with_graph_shards(DEFAULT_GRAPH_SHARDS)
    }

    /// Creates a server whose served graph has `shards` shards.
    pub fn with_graph_shards(shards: usize) -> Self {
        Self {
            keyspace: Keyspace::new(),
            modules: Vec::new(),
            command_index: HashMap::new(),
            graph: Arc::new(ShardedWeightedCuckooGraph::new(shards.max(1))),
        }
    }

    /// A shared handle on the served graph. Readers clone this once and then
    /// answer `GRAPH.*` read commands through
    /// [`read_view`](cuckoograph::Sharded::read_view) without ever touching
    /// the server again. [`Server::load_rdb`] replaces the handle (snapshot
    /// restore rebuilds the graph), so serving layers acquire it *after*
    /// recovery completes.
    pub fn shared_graph(&self) -> Arc<ShardedWeightedCuckooGraph> {
        Arc::clone(&self.graph)
    }

    /// Borrow of the served graph (the batched-apply path in `persist` goes
    /// through this).
    pub fn graph(&self) -> &ShardedWeightedCuckooGraph {
        &self.graph
    }

    /// Loads a module (the `--loadmodule` moment): its commands become
    /// dispatchable and its value type becomes loadable from snapshots.
    pub fn load_module(&mut self, module: Box<dyn Module>) {
        let idx = self.modules.len();
        for command in module.commands() {
            self.command_index.insert(command.to_ascii_lowercase(), idx);
        }
        self.modules.push(module);
    }

    /// Direct access to the keyspace (used by tests and benches).
    pub fn keyspace(&self) -> &Keyspace {
        &self.keyspace
    }

    /// Executes a command given as words and returns the reply.
    pub fn execute(&mut self, parts: &[String]) -> Reply {
        if parts.is_empty() {
            return Reply::Error("ERR empty command".into());
        }
        let command = parts[0].to_ascii_lowercase();
        let args = &parts[1..];
        match command.as_str() {
            "ping" => Reply::Simple("PONG".into()),
            "set" => self.cmd_set(args),
            "get" => self.cmd_get(args),
            "del" => self.cmd_del(args),
            "exists" => self.cmd_exists(args),
            "dbsize" => Reply::Integer(self.keyspace.len() as i64),
            "lpush" => self.cmd_lpush(args),
            "lrange" => self.cmd_lrange(args),
            "hset" => self.cmd_hset(args),
            "hget" => self.cmd_hget(args),
            "memory" => self.cmd_memory(args),
            "module" => self.cmd_module(args),
            "graph.addedge" => self.cmd_graph_addedge(args),
            "graph.deledge" => self.cmd_graph_deledge(args),
            "graph.successors" | "graph.degree" | "graph.hasedge" | "graph.edgecount"
            | "graph.nodecount" => {
                // The serial path to the same answers the reactor serves from
                // its own read view — one-shot view per command.
                Self::graph_read_reply(&self.graph.read_view(), &command, args)
            }
            _ => match self.command_index.get(&command) {
                Some(&idx) => self.modules[idx].dispatch(&mut self.keyspace, &command, args),
                None => Reply::Error(format!("ERR unknown command '{command}'")),
            },
        }
    }

    /// Executes a RESP-encoded command buffer and returns the RESP reply.
    pub fn execute_resp(&mut self, wire: &[u8]) -> Bytes {
        let mut buf = BytesMut::from(wire);
        let reply = match RespValue::decode(&mut buf) {
            Err(e) => Reply::Error(format!("ERR protocol error: {e}")),
            Ok(None) => Reply::Error("ERR incomplete command".into()),
            Ok(Some(value)) => match value.into_command() {
                Err(e) => Reply::Error(format!("ERR {e}")),
                Ok(parts) => self.execute(&parts),
            },
        };
        Self::reply_to_resp(&reply).encode()
    }

    /// Routes a (lowercased) command name: graph reads fan out to snapshot
    /// readers, writes serialize through the logged writer, everything else
    /// is a serialized-but-unlogged read. Commands a pipelined dispatcher has
    /// never heard of classify as writes when they look like module mutations
    /// (the historical dotted-name rule), otherwise as reads — misrouting an
    /// unknown command to the writer is safe, the reverse is not.
    pub fn classify_command(command: &str) -> CommandClass {
        match command {
            "graph.successors" | "graph.degree" | "graph.hasedge" | "graph.edgecount"
            | "graph.nodecount" => CommandClass::GraphRead,
            "graph.addedge" | "graph.deledge" | "set" | "del" | "lpush" | "hset" => {
                CommandClass::Write
            }
            _ if command.contains('.')
                && !command.ends_with(".query")
                && !command.ends_with(".getneighbors") =>
            {
                CommandClass::Write
            }
            _ => CommandClass::Read,
        }
    }

    /// Whether a (lowercased) command name mutates state — these are the
    /// commands the durable log records.
    pub fn is_write_command(command: &str) -> bool {
        Self::classify_command(command) == CommandClass::Write
    }

    /// Answers one of the `GRAPH.*` read commands from any
    /// [`GraphReadSnapshot`] — the server's serial path and the reactor's
    /// concurrent read fan-out share this single implementation, so the two
    /// dispatch modes cannot drift apart.
    pub fn graph_read_reply(snap: &dyn GraphReadSnapshot, command: &str, args: &[String]) -> Reply {
        match command {
            "graph.successors" => match parse_node_args::<1>(command, args) {
                Ok([u]) => {
                    let mut succ = snap.successors(u);
                    succ.sort_unstable();
                    Reply::Array(succ.iter().map(|v| Reply::Bulk(v.to_string())).collect())
                }
                Err(e) => e,
            },
            "graph.degree" => match parse_node_args::<1>(command, args) {
                Ok([u]) => Reply::Integer(snap.out_degree(u) as i64),
                Err(e) => e,
            },
            "graph.hasedge" => match parse_node_args::<2>(command, args) {
                Ok([u, v]) => Reply::Integer(i64::from(snap.has_edge(u, v))),
                Err(e) => e,
            },
            "graph.edgecount" => match parse_node_args::<0>(command, args) {
                Ok([]) => Reply::Integer(snap.edge_count() as i64),
                Err(e) => e,
            },
            "graph.nodecount" => match parse_node_args::<0>(command, args) {
                Ok([]) => Reply::Integer(snap.node_count() as i64),
                Err(e) => e,
            },
            other => Reply::Error(format!("ERR '{other}' is not a graph read command")),
        }
    }

    /// Parses a `GRAPH.ADDEDGE` / `GRAPH.DELEDGE` argument list into the
    /// `(u, v, weight)` triple the batched writer ingests. Both commands
    /// reply `+OK`, which is what lets the writer fold a pipelined run of
    /// them into one `ingest_weighted_batch` call without tracking per-edge
    /// return values.
    pub fn parse_graph_write(
        command: &str,
        args: &[String],
    ) -> Result<(NodeId, NodeId, u64), Reply> {
        let (lo, hi) = if command == "graph.addedge" {
            (2, 3)
        } else {
            (2, 2)
        };
        if args.len() < lo || args.len() > hi {
            return Err(Reply::Error(format!(
                "ERR wrong number of arguments for '{command}'"
            )));
        }
        let u = parse_node(&args[0])?;
        let v = parse_node(&args[1])?;
        let w = match args.get(2) {
            Some(raw) => match raw.parse::<u64>() {
                Ok(0) | Err(_) => {
                    return Err(Reply::Error("ERR weight must be a positive integer".into()))
                }
                Ok(w) => w,
            },
            None => 1,
        };
        Ok((u, v, w))
    }

    fn cmd_graph_addedge(&mut self, args: &[String]) -> Reply {
        match Self::parse_graph_write("graph.addedge", args) {
            Ok((u, v, w)) => {
                self.graph.update_shard(u, |g| g.insert_weighted(u, v, w));
                Reply::Ok
            }
            Err(e) => e,
        }
    }

    fn cmd_graph_deledge(&mut self, args: &[String]) -> Reply {
        match Self::parse_graph_write("graph.deledge", args) {
            Ok((u, v, _)) => {
                self.graph.update_shard(u, |g| g.delete_edge(u, v));
                Reply::Ok
            }
            Err(e) => e,
        }
    }

    /// Encodes a handler reply straight onto a reusable output buffer — the
    /// serving path's replacement for `reply_to_resp(..).encode()`, which
    /// built an intermediate [`RespValue`] (cloning every string) and then a
    /// fresh [`Bytes`] per command.
    pub fn encode_reply_into(reply: &Reply, out: &mut Vec<u8>) {
        match reply {
            Reply::Ok => out.extend_from_slice(b"+OK\r\n"),
            Reply::Simple(s) => {
                out.push(b'+');
                out.extend_from_slice(s.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            Reply::Error(e) => {
                out.push(b'-');
                out.extend_from_slice(e.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            Reply::Integer(i) => {
                let mut digits = [0u8; 20];
                out.push(b':');
                out.extend_from_slice(format_i64(*i, &mut digits));
                out.extend_from_slice(b"\r\n");
            }
            Reply::Bulk(s) => {
                let mut digits = [0u8; 20];
                out.push(b'$');
                out.extend_from_slice(format_i64(s.len() as i64, &mut digits));
                out.extend_from_slice(b"\r\n");
                out.extend_from_slice(s.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            Reply::Nil => out.extend_from_slice(b"$-1\r\n"),
            Reply::Array(items) => {
                let mut digits = [0u8; 20];
                out.push(b'*');
                out.extend_from_slice(format_i64(items.len() as i64, &mut digits));
                out.extend_from_slice(b"\r\n");
                for item in items {
                    Self::encode_reply_into(item, out);
                }
            }
        }
    }

    /// Converts a handler reply into the wire representation.
    pub fn reply_to_resp(reply: &Reply) -> RespValue {
        match reply {
            Reply::Ok => RespValue::Simple("OK".into()),
            Reply::Simple(s) => RespValue::Simple(s.clone()),
            Reply::Integer(i) => RespValue::Integer(*i),
            Reply::Bulk(s) => RespValue::bulk(s.clone()),
            Reply::Array(items) => {
                RespValue::Array(items.iter().map(Self::reply_to_resp).collect())
            }
            Reply::Nil => RespValue::Null,
            Reply::Error(e) => RespValue::Error(e.clone()),
        }
    }

    // ---- built-in commands -------------------------------------------------

    fn cmd_set(&mut self, args: &[String]) -> Reply {
        if args.len() != 2 {
            return Reply::Error("ERR wrong number of arguments for 'set'".into());
        }
        self.keyspace
            .set(args[0].clone(), Value::Str(args[1].clone()));
        Reply::Ok
    }

    fn cmd_get(&self, args: &[String]) -> Reply {
        if args.len() != 1 {
            return Reply::Error("ERR wrong number of arguments for 'get'".into());
        }
        match self.keyspace.get(&args[0]) {
            Some(Value::Str(s)) => Reply::Bulk(s.clone()),
            Some(_) => Reply::Error("WRONGTYPE key holds a non-string value".into()),
            None => Reply::Nil,
        }
    }

    fn cmd_del(&mut self, args: &[String]) -> Reply {
        let removed = args.iter().filter(|k| self.keyspace.delete(k)).count();
        Reply::Integer(removed as i64)
    }

    fn cmd_exists(&self, args: &[String]) -> Reply {
        let found = args.iter().filter(|k| self.keyspace.contains(k)).count();
        Reply::Integer(found as i64)
    }

    fn cmd_lpush(&mut self, args: &[String]) -> Reply {
        if args.len() < 2 {
            return Reply::Error("ERR wrong number of arguments for 'lpush'".into());
        }
        if !self.keyspace.contains(&args[0]) {
            self.keyspace.set(args[0].clone(), Value::List(Vec::new()));
        }
        match self.keyspace.get_mut(&args[0]) {
            Some(Value::List(list)) => {
                for item in &args[1..] {
                    list.insert(0, item.clone());
                }
                Reply::Integer(list.len() as i64)
            }
            _ => Reply::Error("WRONGTYPE key holds a non-list value".into()),
        }
    }

    fn cmd_lrange(&self, args: &[String]) -> Reply {
        if args.len() != 3 {
            return Reply::Error("ERR wrong number of arguments for 'lrange'".into());
        }
        let (Ok(start), Ok(stop)) = (args[1].parse::<i64>(), args[2].parse::<i64>()) else {
            return Reply::Error("ERR value is not an integer".into());
        };
        match self.keyspace.get(&args[0]) {
            Some(Value::List(list)) => {
                let n = list.len() as i64;
                let fix = |i: i64| if i < 0 { (n + i).max(0) } else { i.min(n) } as usize;
                let (start, stop) = (fix(start), fix(stop).min(list.len().saturating_sub(1)));
                if start > stop {
                    return Reply::Array(Vec::new());
                }
                Reply::Array(
                    list[start..=stop]
                        .iter()
                        .map(|s| Reply::Bulk(s.clone()))
                        .collect(),
                )
            }
            Some(_) => Reply::Error("WRONGTYPE key holds a non-list value".into()),
            None => Reply::Array(Vec::new()),
        }
    }

    fn cmd_hset(&mut self, args: &[String]) -> Reply {
        if args.len() != 3 {
            return Reply::Error("ERR wrong number of arguments for 'hset'".into());
        }
        if !self.keyspace.contains(&args[0]) {
            self.keyspace
                .set(args[0].clone(), Value::Hash(HashMap::new()));
        }
        match self.keyspace.get_mut(&args[0]) {
            Some(Value::Hash(map)) => {
                let created = map.insert(args[1].clone(), args[2].clone()).is_none();
                Reply::Integer(i64::from(created))
            }
            _ => Reply::Error("WRONGTYPE key holds a non-hash value".into()),
        }
    }

    fn cmd_hget(&self, args: &[String]) -> Reply {
        if args.len() != 2 {
            return Reply::Error("ERR wrong number of arguments for 'hget'".into());
        }
        match self.keyspace.get(&args[0]) {
            Some(Value::Hash(map)) => map
                .get(&args[1])
                .map_or(Reply::Nil, |v| Reply::Bulk(v.clone())),
            Some(_) => Reply::Error("WRONGTYPE key holds a non-hash value".into()),
            None => Reply::Nil,
        }
    }

    fn cmd_memory(&self, args: &[String]) -> Reply {
        match args.first().map(|s| s.to_ascii_lowercase()).as_deref() {
            Some("usage") => match args.get(1) {
                Some(key) => self
                    .keyspace
                    .get(key)
                    .map_or(Reply::Nil, |v| Reply::Integer(v.memory_bytes() as i64)),
                None => Reply::Error("ERR missing key".into()),
            },
            _ => Reply::Error("ERR unknown MEMORY subcommand".into()),
        }
    }

    fn cmd_module(&self, args: &[String]) -> Reply {
        match args.first().map(|s| s.to_ascii_lowercase()).as_deref() {
            Some("list") => Reply::Array(
                self.modules
                    .iter()
                    .map(|m| Reply::Bulk(m.name().to_string()))
                    .collect(),
            ),
            _ => Reply::Error("ERR unknown MODULE subcommand".into()),
        }
    }

    // ---- persistence -------------------------------------------------------

    /// Serialises the whole keyspace into an RDB-style snapshot.
    pub fn save_rdb(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut keys: Vec<&String> = self.keyspace.keys();
        keys.sort();
        write_u64(&mut out, keys.len() as u64);
        for key in keys {
            let value = self.keyspace.get(key).expect("key listed");
            write_bytes(&mut out, key.as_bytes());
            match value {
                Value::Str(s) => {
                    out.push(0);
                    write_bytes(&mut out, s.as_bytes());
                }
                Value::List(items) => {
                    out.push(1);
                    write_u64(&mut out, items.len() as u64);
                    for item in items {
                        write_bytes(&mut out, item.as_bytes());
                    }
                }
                Value::Hash(map) => {
                    out.push(2);
                    let mut entries: Vec<_> = map.iter().collect();
                    entries.sort();
                    write_u64(&mut out, entries.len() as u64);
                    for (k, v) in entries {
                        write_bytes(&mut out, k.as_bytes());
                        write_bytes(&mut out, v.as_bytes());
                    }
                }
                Value::Module(m) => {
                    out.push(3);
                    write_bytes(&mut out, m.type_name().as_bytes());
                    write_bytes(&mut out, &m.save_rdb());
                }
            }
        }
        // Served-graph section, appended only when non-empty so snapshots
        // from before the GRAPH.* family stay byte-identical: record count,
        // then sorted `(u, v, weight)` triples.
        let records = self.graph_records_sorted();
        if !records.is_empty() {
            write_u64(&mut out, records.len() as u64);
            for r in &records {
                write_u64(&mut out, r.source);
                write_u64(&mut out, r.target);
                write_u64(&mut out, r.weight);
            }
        }
        out
    }

    /// Every served-graph edge record, sorted for deterministic output.
    fn graph_records_sorted(&self) -> Vec<graph_api::EdgeRecord> {
        let mut records = Vec::with_capacity(self.graph.edge_record_count());
        self.graph.for_each_edge_record(&mut |r| records.push(r));
        records.sort_unstable();
        records
    }

    /// Restores the keyspace from an RDB-style snapshot. Module values require
    /// the owning module to be loaded first, exactly like Redis.
    pub fn load_rdb(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut cursor = 0usize;
        let count = read_u64(bytes, &mut cursor)?;
        let mut keyspace = Keyspace::new();
        for _ in 0..count {
            let key = String::from_utf8(read_bytes(bytes, &mut cursor)?.to_vec())
                .map_err(|_| "non-UTF-8 key".to_string())?;
            let tag = *bytes.get(cursor).ok_or("truncated snapshot")?;
            cursor += 1;
            let value = match tag {
                0 => Value::Str(
                    String::from_utf8(read_bytes(bytes, &mut cursor)?.to_vec())
                        .map_err(|_| "non-UTF-8 string value".to_string())?,
                ),
                1 => {
                    let n = read_u64(bytes, &mut cursor)?;
                    let mut items = Vec::with_capacity(clamp_count(n, bytes, cursor));
                    for _ in 0..n {
                        items.push(
                            String::from_utf8(read_bytes(bytes, &mut cursor)?.to_vec())
                                .map_err(|_| "non-UTF-8 list item".to_string())?,
                        );
                    }
                    Value::List(items)
                }
                2 => {
                    let n = read_u64(bytes, &mut cursor)?;
                    let mut map = HashMap::with_capacity(clamp_count(n, bytes, cursor));
                    for _ in 0..n {
                        let k = String::from_utf8(read_bytes(bytes, &mut cursor)?.to_vec())
                            .map_err(|_| "non-UTF-8 hash key".to_string())?;
                        let v = String::from_utf8(read_bytes(bytes, &mut cursor)?.to_vec())
                            .map_err(|_| "non-UTF-8 hash value".to_string())?;
                        map.insert(k, v);
                    }
                    Value::Hash(map)
                }
                3 => {
                    let type_name = String::from_utf8(read_bytes(bytes, &mut cursor)?.to_vec())
                        .map_err(|_| "non-UTF-8 module type".to_string())?;
                    let payload = read_bytes(bytes, &mut cursor)?;
                    let module = self
                        .modules
                        .iter()
                        .find(|m| m.name() == type_name)
                        .ok_or(format!("module '{type_name}' not loaded"))?;
                    Value::Module(module.load_rdb(payload)?)
                }
                other => return Err(format!("unknown value tag {other}")),
            };
            keyspace.set(key, value);
        }
        // Optional served-graph section (absent in pre-GRAPH.* snapshots and
        // when the graph was empty at save time).
        let mut graph = ShardedWeightedCuckooGraph::new(self.graph.shard_count());
        if cursor < bytes.len() {
            let n = read_u64(bytes, &mut cursor)?;
            let mut triples = Vec::with_capacity(clamp_count(n, bytes, cursor));
            for _ in 0..n {
                let u = read_u64(bytes, &mut cursor)?;
                let v = read_u64(bytes, &mut cursor)?;
                let w = read_u64(bytes, &mut cursor)?;
                triples.push((u, v, w));
            }
            if cursor != bytes.len() {
                return Err("trailing bytes after graph section".into());
            }
            graph.insert_weighted_edges(&triples);
        }
        self.keyspace = keyspace;
        // Replace the shared handle: a snapshot restore is a rebuild, and the
        // serving layer (re)acquires the handle only after recovery.
        self.graph = Arc::new(graph);
        Ok(())
    }

    /// The log-rewrite walk: calls `emit` with the minimal command sequence
    /// that rebuilds the current state — keyspace values (module values
    /// through their `aof_rewrite` callback), then one weighted
    /// `GRAPH.ADDEDGE` per stored edge of the served graph. Read-only; the
    /// caller decides where the commands go.
    pub fn aof_rewrite(&self, mut emit: impl FnMut(Vec<String>)) {
        let mut keys: Vec<&String> = self.keyspace.keys();
        keys.sort();
        for key in keys {
            match self.keyspace.get(key).expect("key listed") {
                Value::Str(s) => emit(vec!["set".into(), key.clone(), s.clone()]),
                Value::List(items) => {
                    for item in items.iter().rev() {
                        emit(vec!["lpush".into(), key.clone(), item.clone()]);
                    }
                }
                Value::Hash(map) => {
                    let mut entries: Vec<_> = map.iter().collect();
                    entries.sort();
                    for (k, v) in entries {
                        emit(vec!["hset".into(), key.clone(), k.clone(), v.clone()]);
                    }
                }
                Value::Module(m) => m.aof_rewrite(key).into_iter().for_each(&mut emit),
            }
        }
        for r in self.graph_records_sorted() {
            emit(vec![
                "graph.addedge".into(),
                r.source.to_string(),
                r.target.to_string(),
                r.weight.to_string(),
            ]);
        }
    }
}

/// Formats `value` into `buf` without allocating, returning the used slice.
fn format_i64(value: i64, buf: &mut [u8; 20]) -> &[u8] {
    let mut n = value.unsigned_abs();
    let mut pos = buf.len();
    loop {
        pos -= 1;
        buf[pos] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if value < 0 {
        pos -= 1;
        buf[pos] = b'-';
    }
    &buf[pos..]
}

fn parse_node(raw: &str) -> Result<NodeId, Reply> {
    raw.parse::<NodeId>()
        .map_err(|_| Reply::Error(format!("ERR node id '{raw}' is not an unsigned integer")))
}

fn parse_node_args<const N: usize>(command: &str, args: &[String]) -> Result<[NodeId; N], Reply> {
    if args.len() != N {
        return Err(Reply::Error(format!(
            "ERR wrong number of arguments for '{command}'"
        )));
    }
    let mut out = [0u64; N];
    for (slot, raw) in out.iter_mut().zip(args) {
        *slot = parse_node(raw)?;
    }
    Ok(out)
}

fn write_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Bounds an element count read from a snapshot by the bytes left to parse
/// (every element takes at least one), so a crafted count cannot size an
/// allocation.
fn clamp_count(n: u64, bytes: &[u8], cursor: usize) -> usize {
    usize::try_from(n)
        .unwrap_or(usize::MAX)
        .min(bytes.len() - cursor)
}

fn read_u64(bytes: &[u8], cursor: &mut usize) -> Result<u64, String> {
    let end = cursor.checked_add(8).ok_or("truncated snapshot")?;
    let slice = bytes.get(*cursor..end).ok_or("truncated snapshot")?;
    *cursor = end;
    Ok(u64::from_le_bytes(slice.try_into().expect("8 bytes")))
}

fn read_bytes<'a>(bytes: &'a [u8], cursor: &mut usize) -> Result<&'a [u8], String> {
    let len = usize::try_from(read_u64(bytes, cursor)?).map_err(|_| "truncated snapshot")?;
    let end = cursor.checked_add(len).ok_or("truncated snapshot")?;
    let slice = bytes.get(*cursor..end).ok_or("truncated snapshot")?;
    *cursor = end;
    Ok(slice)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn string_commands_roundtrip() {
        let mut s = Server::new();
        assert_eq!(s.execute(&cmd(&["PING"])), Reply::Simple("PONG".into()));
        assert_eq!(s.execute(&cmd(&["SET", "k", "v"])), Reply::Ok);
        assert_eq!(s.execute(&cmd(&["GET", "k"])), Reply::Bulk("v".into()));
        assert_eq!(
            s.execute(&cmd(&["EXISTS", "k", "missing"])),
            Reply::Integer(1)
        );
        assert_eq!(s.execute(&cmd(&["DEL", "k"])), Reply::Integer(1));
        assert_eq!(s.execute(&cmd(&["GET", "k"])), Reply::Nil);
        assert_eq!(s.execute(&cmd(&["DBSIZE"])), Reply::Integer(0));
    }

    #[test]
    fn list_and_hash_commands() {
        let mut s = Server::new();
        assert_eq!(
            s.execute(&cmd(&["LPUSH", "l", "a", "b"])),
            Reply::Integer(2)
        );
        assert_eq!(
            s.execute(&cmd(&["LRANGE", "l", "0", "-1"])),
            Reply::Array(vec![Reply::Bulk("b".into()), Reply::Bulk("a".into())])
        );
        assert_eq!(s.execute(&cmd(&["HSET", "h", "f", "1"])), Reply::Integer(1));
        assert_eq!(s.execute(&cmd(&["HSET", "h", "f", "2"])), Reply::Integer(0));
        assert_eq!(
            s.execute(&cmd(&["HGET", "h", "f"])),
            Reply::Bulk("2".into())
        );
        assert_eq!(s.execute(&cmd(&["HGET", "h", "missing"])), Reply::Nil);
    }

    #[test]
    fn unknown_commands_and_wrongtype_are_errors() {
        let mut s = Server::new();
        assert!(matches!(s.execute(&cmd(&["NOPE"])), Reply::Error(_)));
        s.execute(&cmd(&["SET", "k", "v"]));
        assert!(matches!(
            s.execute(&cmd(&["LRANGE", "k", "0", "1"])),
            Reply::Error(_)
        ));
        assert!(matches!(
            s.execute(&cmd(&["HGET", "k", "f"])),
            Reply::Error(_)
        ));
    }

    #[test]
    fn resp_pipeline_end_to_end() {
        let mut s = Server::new();
        let wire = RespValue::command(&["SET", "hello", "world"]).encode();
        let reply = s.execute_resp(&wire);
        assert_eq!(&reply[..], b"+OK\r\n");
        let wire = RespValue::command(&["GET", "hello"]).encode();
        let reply = s.execute_resp(&wire);
        assert_eq!(&reply[..], b"$5\r\nworld\r\n");
    }

    #[test]
    fn rdb_snapshot_roundtrips_builtin_values() {
        let mut s = Server::new();
        s.execute(&cmd(&["SET", "s", "x"]));
        s.execute(&cmd(&["LPUSH", "l", "1", "2"]));
        s.execute(&cmd(&["HSET", "h", "a", "b"]));
        let snapshot = s.save_rdb();

        let mut restored = Server::new();
        restored.load_rdb(&snapshot).unwrap();
        assert_eq!(
            restored.execute(&cmd(&["GET", "s"])),
            Reply::Bulk("x".into())
        );
        assert_eq!(
            restored.execute(&cmd(&["HGET", "h", "a"])),
            Reply::Bulk("b".into())
        );
        assert_eq!(restored.keyspace().len(), 3);
    }

    /// Runs the rewrite walk of `s` and executes its output on a fresh
    /// server, returning that server and the number of commands emitted.
    fn rebuild_from_rewrite(s: &Server) -> (Server, usize) {
        let mut log = Vec::new();
        s.aof_rewrite(|command| log.push(command));
        let mut rebuilt = Server::new();
        for command in &log {
            assert!(!matches!(rebuilt.execute(command), Reply::Error(_)));
        }
        (rebuilt, log.len())
    }

    #[test]
    fn aof_rewrite_folds_superseded_writes() {
        let mut s = Server::new();
        s.execute(&cmd(&["SET", "k", "1"]));
        s.execute(&cmd(&["SET", "k", "2"]));
        s.execute(&cmd(&["GET", "k"]));
        let (mut replayed, emitted) = rebuild_from_rewrite(&s);
        assert_eq!(emitted, 1, "rewrite folds superseded writes");
        assert_eq!(
            replayed.execute(&cmd(&["GET", "k"])),
            Reply::Bulk("2".into())
        );
    }

    #[test]
    fn graph_commands_execute_against_the_shared_graph() {
        let mut s = Server::new();
        assert_eq!(s.execute(&cmd(&["GRAPH.ADDEDGE", "1", "2"])), Reply::Ok);
        assert_eq!(
            s.execute(&cmd(&["GRAPH.ADDEDGE", "1", "3", "5"])),
            Reply::Ok
        );
        assert_eq!(s.execute(&cmd(&["GRAPH.DEGREE", "1"])), Reply::Integer(2));
        assert_eq!(
            s.execute(&cmd(&["GRAPH.HASEDGE", "1", "2"])),
            Reply::Integer(1)
        );
        assert_eq!(
            s.execute(&cmd(&["GRAPH.SUCCESSORS", "1"])),
            Reply::Array(vec![Reply::Bulk("2".into()), Reply::Bulk("3".into())])
        );
        assert_eq!(s.execute(&cmd(&["GRAPH.EDGECOUNT"])), Reply::Integer(2));
        assert_eq!(s.execute(&cmd(&["GRAPH.NODECOUNT"])), Reply::Integer(1));
        assert_eq!(s.execute(&cmd(&["GRAPH.DELEDGE", "1", "2"])), Reply::Ok);
        assert_eq!(
            s.execute(&cmd(&["GRAPH.HASEDGE", "1", "2"])),
            Reply::Integer(0)
        );
        // Bad arguments are refused before they reach the graph.
        assert!(matches!(
            s.execute(&cmd(&["GRAPH.ADDEDGE", "x", "2"])),
            Reply::Error(_)
        ));
        assert!(matches!(
            s.execute(&cmd(&["GRAPH.ADDEDGE", "1", "2", "0"])),
            Reply::Error(_)
        ));
        assert_eq!(s.execute(&cmd(&["GRAPH.EDGECOUNT"])), Reply::Integer(1));
    }

    #[test]
    fn command_classification_routes_graph_reads_off_the_writer() {
        assert_eq!(
            Server::classify_command("graph.successors"),
            CommandClass::GraphRead
        );
        assert_eq!(
            Server::classify_command("graph.hasedge"),
            CommandClass::GraphRead
        );
        assert_eq!(
            Server::classify_command("graph.addedge"),
            CommandClass::Write
        );
        assert_eq!(Server::classify_command("set"), CommandClass::Write);
        assert_eq!(
            Server::classify_command("graph.insert"),
            CommandClass::Write
        );
        assert_eq!(Server::classify_command("graph.query"), CommandClass::Read);
        assert_eq!(Server::classify_command("get"), CommandClass::Read);
        assert_eq!(Server::classify_command("save"), CommandClass::Read);
        // The log predicate must agree with the classification.
        assert!(Server::is_write_command("graph.addedge"));
        assert!(!Server::is_write_command("graph.successors"));
    }

    #[test]
    fn shared_graph_survives_snapshot_and_rewrite() {
        let mut s = Server::new();
        s.execute(&cmd(&["GRAPH.ADDEDGE", "1", "2", "3"]));
        s.execute(&cmd(&["GRAPH.ADDEDGE", "7", "8"]));
        s.execute(&cmd(&["SET", "k", "v"]));
        let snapshot = s.save_rdb();

        let mut restored = Server::new();
        restored.load_rdb(&snapshot).unwrap();
        assert_eq!(
            restored.execute(&cmd(&["GRAPH.HASEDGE", "1", "2"])),
            Reply::Integer(1)
        );
        assert_eq!(
            restored.execute(&cmd(&["GRAPH.EDGECOUNT"])),
            Reply::Integer(2)
        );
        assert_eq!(
            restored.execute(&cmd(&["GET", "k"])),
            Reply::Bulk("v".into())
        );

        // The rewrite walk emits rebuild commands that replay to the same
        // graph.
        let (mut replayed, _) = rebuild_from_rewrite(&s);
        assert_eq!(
            replayed.execute(&cmd(&["GRAPH.SUCCESSORS", "1"])),
            Reply::Array(vec![Reply::Bulk("2".into())])
        );
        assert_eq!(
            replayed.execute(&cmd(&["GRAPH.EDGECOUNT"])),
            Reply::Integer(2)
        );
    }

    #[test]
    fn encode_reply_into_matches_the_resp_value_encoding() {
        let replies = [
            Reply::Ok,
            Reply::Simple("PONG".into()),
            Reply::Integer(-42),
            Reply::Integer(i64::MIN),
            Reply::Bulk("hello".into()),
            Reply::Nil,
            Reply::Error("ERR nope".into()),
            Reply::Array(vec![Reply::Integer(0), Reply::Bulk("x".into())]),
        ];
        for reply in &replies {
            let mut direct = Vec::new();
            Server::encode_reply_into(reply, &mut direct);
            let via_value = Server::reply_to_resp(reply).encode();
            assert_eq!(direct, via_value.to_vec(), "{reply:?}");
        }
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let mut s = Server::new();
        assert!(s.load_rdb(&[1, 2, 3]).is_err());
        let mut snapshot = {
            let mut donor = Server::new();
            donor.execute(&cmd(&["SET", "a", "b"]));
            donor.save_rdb()
        };
        snapshot.truncate(snapshot.len() - 2);
        assert!(s.load_rdb(&snapshot).is_err());

        // Crafted lengths: one key "a" whose list count, hash count or byte
        // length claims far more than the file holds. Each must be an `Err`,
        // never an overflow or capacity panic.
        let key_a = |tag: u8| {
            let mut image = Vec::new();
            write_u64(&mut image, 1);
            write_bytes(&mut image, b"a");
            image.push(tag);
            image
        };
        for huge in [u64::MAX, u64::MAX / 2, 1 << 40] {
            for tag in [0u8, 1, 2] {
                let mut image = key_a(tag);
                write_u64(&mut image, huge);
                assert!(s.load_rdb(&image).is_err(), "tag {tag}, length {huge}");
            }
        }
    }
}
