//! Network security and monitoring — the third motivating application of § I,
//! and a tour of the Redis-like integration (§ V-F).
//!
//! IP flows arrive as a CAIDA-like stream of (source, destination) pairs with
//! heavy duplication. The stream is ingested through the key-value store's
//! CuckooGraph module commands (each write logged before it executes), queried
//! for suspicious fan-out (scanners), persisted/restored through the RDB
//! snapshot path, and its command log compacted with `BGREWRITEAOF`.
//!
//! ```text
//! cargo run --release --example network_monitoring
//! ```

use cuckoograph_repro::graph_datasets::{generate, DatasetKind};
use cuckoograph_repro::graph_durability::{DurabilityConfig, SimVfs};
use cuckoograph_repro::kvstore::{CuckooGraphModule, DurableServer, Reply, Server};

fn cmd(parts: &[String]) -> Vec<String> {
    parts.to_vec()
}

fn main() {
    // Boot the store over an in-memory disk and load the CuckooGraph module
    // (--loadmodule moment).
    let (mut server, _) =
        DurableServer::open(SimVfs::new(), DurabilityConfig::new("flows"), || {
            let mut server = Server::new();
            server.load_module(Box::new(CuckooGraphModule::new()));
            server
        })
        .expect("fresh store opens");

    // A CAIDA-like trace at 1/500 of the published size.
    let trace = generate(DatasetKind::Caida, 0.002, 99);
    println!("flow records in trace : {}", trace.raw_edges.len());

    // Ingest every flow through the command path, exactly as a collector
    // pushing to Redis would.
    for &(src, dst) in &trace.raw_edges {
        let reply = server.execute(&cmd(&[
            "graph.insert".into(),
            "flows".into(),
            src.to_string(),
            dst.to_string(),
        ]));
        debug_assert!(matches!(reply, Reply::Integer(_)));
    }
    println!("distinct talker pairs  : {}", trace.distinct_edges().len());

    // Fan-out check: hosts contacting unusually many distinct destinations.
    let mut scanners = Vec::new();
    let mut seen_sources = std::collections::HashSet::new();
    for &(src, _) in &trace.raw_edges {
        if !seen_sources.insert(src) {
            continue;
        }
        let reply = server.execute(&cmd(&[
            "graph.getneighbors".into(),
            "flows".into(),
            src.to_string(),
        ]));
        if let Reply::Array(neighbors) = reply {
            if neighbors.len() > 100 {
                scanners.push((src, neighbors.len()));
            }
        }
    }
    scanners.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("\nhosts with > 100 distinct destinations (possible scanners):");
    for (host, fanout) in scanners.iter().take(5) {
        println!("  host {host:>10}  {fanout} destinations");
    }

    // Point queries: has A ever talked to B?
    if let Some(&(src, dst)) = trace.raw_edges.first() {
        let reply = server.execute(&cmd(&[
            "graph.query".into(),
            "flows".into(),
            src.to_string(),
            dst.to_string(),
        ]));
        println!("\nflow count {src} → {dst}: {reply:?}");
    }

    // Persistence: snapshot, restart, restore — the module's save_rdb /
    // load_rdb callbacks at work.
    let snapshot = server.server().save_rdb();
    println!("\nRDB snapshot size      : {} bytes", snapshot.len());
    let mut restarted = Server::new();
    restarted.load_module(Box::new(CuckooGraphModule::new()));
    restarted.load_rdb(&snapshot).expect("snapshot loads");
    if let Some(&(src, dst)) = trace.raw_edges.first() {
        let reply = restarted.execute(&cmd(&[
            "graph.query".into(),
            "flows".into(),
            src.to_string(),
            dst.to_string(),
        ]));
        println!("after restore, same query: {reply:?}");
    }

    // AOF rewrite folds the whole ingest history into the minimal command
    // sequence that rebuilds the graph.
    println!("\nAOF bytes before rewrite: {}", server.aof_offset());
    server.execute(&cmd(&["BGREWRITEAOF".into()]));
    println!("AOF bytes after rewrite : {}", server.aof_offset());
}
