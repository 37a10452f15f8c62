//! Loopback load generator for the pipelined serving reactor.
//!
//! Drives real TCP connections against a [`Reactor`] (the kvstore's
//! non-blocking serving front end) with a configurable connections ×
//! pipeline-depth sweep: graph reads answered inline on the workers from
//! sharded read views, writes group-committed in batches by the single
//! durable writer.
//!
//! Each client thread sends bursts of `depth` commands in one write and reads
//! the `depth` replies back before the next burst, so a depth-1 sweep point
//! measures strict request/response ping-pong and deeper points measure true
//! pipelining. Latency percentiles are per *burst* round-trip.
//!
//! The durable layer runs on a [`SimVfs`] so the sweep measures the serving
//! path, not the host filesystem.

use crate::HARNESS_SEED;
use bytes::BytesMut;
use graph_durability::{DurabilityConfig, SimVfs, SyncPolicy};
use kvstore::graph_module::CuckooGraphModule;
use kvstore::reactor::{Reactor, ServerConfig};
use kvstore::{DurableServer, RespValue, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// Client connections driving load concurrently.
    pub connections: usize,
    /// Commands per burst on each connection.
    pub depth: usize,
    /// Total commands acknowledged across all connections.
    pub ops: usize,
    /// Aggregate throughput in thousands of commands per second.
    pub kops: f64,
    /// Median burst round-trip in microseconds.
    pub p50_us: f64,
    /// 99th-percentile burst round-trip in microseconds.
    pub p99_us: f64,
}

/// Sweep shape. `ops_per_conn` is rounded down to whole bursts per depth.
#[derive(Debug, Clone)]
pub struct ServeSweep {
    /// Edges preloaded into the served graph before any client connects.
    pub preload_edges: usize,
    /// Commands each connection issues per sweep point.
    pub ops_per_conn: usize,
    /// Connection counts to sweep.
    pub connections: Vec<usize>,
    /// Pipeline depths to sweep.
    pub depths: Vec<usize>,
    /// Percentage of commands that are `GRAPH.ADDEDGE` (the rest are reads).
    pub write_pct: u64,
    /// Reactor worker threads.
    pub workers: usize,
}

impl ServeSweep {
    /// A sweep sized from the harness scale factor (the `reproduce` default).
    pub fn at_scale(scale: f64) -> Self {
        let ops = ((40_000.0 * (scale / 0.002)) as usize).clamp(2_000, 400_000);
        Self {
            preload_edges: (ops / 4).max(500),
            ops_per_conn: ops,
            connections: vec![1, 4],
            depths: vec![1, 8, 32],
            write_pct: 10,
            workers: 2,
        }
    }
}

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// The command mix: read-heavy graph traffic over a bounded node universe,
/// deterministic per (connection, op index).
fn command_wire(rng: &mut Xorshift, nodes: u64, write_pct: u64) -> Vec<u8> {
    let roll = rng.next() % 100;
    let u = (rng.next() % nodes).to_string();
    let v = (rng.next() % nodes).to_string();
    let parts: Vec<&str> = if roll < write_pct {
        vec!["GRAPH.ADDEDGE", &u, &v]
    } else if roll < write_pct + 30 {
        vec!["GRAPH.DEGREE", &u]
    } else if roll < write_pct + 60 {
        vec!["GRAPH.HASEDGE", &u, &v]
    } else {
        vec!["GRAPH.SUCCESSORS", &u]
    };
    RespValue::command(&parts).encode().to_vec()
}

fn spawn_loaded_reactor(sweep: &ServeSweep) -> Reactor {
    let cfg = DurabilityConfig::new("kv-serve").with_sync_policy(SyncPolicy::Never);
    let (durable, _) = DurableServer::open(SimVfs::new(), cfg, || {
        let mut s = Server::new();
        s.load_module(Box::new(CuckooGraphModule::new()));
        s
    })
    .expect("open durable server on SimVfs");
    let nodes = node_universe(sweep);
    let mut rng = Xorshift(HARNESS_SEED | 1);
    let preload: Vec<(u64, u64, u64)> = (0..sweep.preload_edges)
        .map(|_| (rng.next() % nodes, rng.next() % nodes, 1))
        .collect();
    durable.server().graph().ingest_weighted_batch(&preload);
    Reactor::spawn(durable, ServerConfig::new().with_workers(sweep.workers)).expect("spawn reactor")
}

fn node_universe(sweep: &ServeSweep) -> u64 {
    (sweep.preload_edges as u64 / 4).max(64)
}

/// Runs one sweep point: `connections` client threads, each issuing
/// `ops_per_conn` commands in bursts of `depth`, against a fresh reactor.
pub fn run_serve_point(sweep: &ServeSweep, connections: usize, depth: usize) -> ServePoint {
    let reactor = spawn_loaded_reactor(sweep);
    let addr = reactor.addr();
    let nodes = node_universe(sweep);
    let bursts = (sweep.ops_per_conn / depth).max(1);
    let barrier = Arc::new(Barrier::new(connections + 1));

    let clients: Vec<_> = (0..connections)
        .map(|conn_idx| {
            let barrier = Arc::clone(&barrier);
            let write_pct = sweep.write_pct;
            // Connect on this thread: a spawned thread that dies before its
            // `barrier.wait()` would deadlock the whole point.
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            std::thread::spawn(move || {
                let stripe = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(conn_idx as u64 + 1);
                // `| 1` keeps the xorshift state nonzero for every stripe.
                let mut rng = Xorshift((HARNESS_SEED ^ stripe) | 1);
                let mut latencies_us = Vec::with_capacity(bursts);
                let mut buf = BytesMut::new();
                let mut chunk = vec![0u8; 64 * 1024];
                barrier.wait();
                for _ in 0..bursts {
                    let mut wire = Vec::with_capacity(depth * 32);
                    for _ in 0..depth {
                        wire.extend_from_slice(&command_wire(&mut rng, nodes, write_pct));
                    }
                    let start = Instant::now();
                    stream.write_all(&wire).expect("burst write");
                    let mut replies = 0usize;
                    while replies < depth {
                        match RespValue::decode(&mut buf).expect("well-formed reply") {
                            Some(_) => replies += 1,
                            None => {
                                let n = stream.read(&mut chunk).expect("burst read");
                                assert!(n > 0, "server closed mid-burst");
                                buf.extend_from_slice(&chunk[..n]);
                            }
                        }
                    }
                    latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
                }
                latencies_us
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    let mut latencies: Vec<f64> = Vec::with_capacity(connections * bursts);
    for client in clients {
        latencies.extend(client.join().expect("client thread"));
    }
    let secs = start.elapsed().as_secs_f64();
    reactor.shutdown();

    latencies.sort_by(|a, b| a.total_cmp(b));
    let percentile = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    let ops = connections * bursts * depth;
    ServePoint {
        connections,
        depth,
        ops,
        kops: ops as f64 / secs / 1e3,
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
    }
}

/// The full connections × depth sweep. Each point gets a fresh reactor, a
/// fresh preloaded graph and a fresh simulated disk, so no point warms up
/// another.
pub fn run_serve_sweep(sweep: &ServeSweep) -> Vec<ServePoint> {
    let mut points = Vec::new();
    for &connections in &sweep.connections {
        for &depth in &sweep.depths {
            points.push(run_serve_point(sweep, connections, depth));
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_point_acknowledges_every_command() {
        let sweep = ServeSweep {
            preload_edges: 200,
            ops_per_conn: 64,
            connections: vec![2],
            depths: vec![8],
            write_pct: 25,
            workers: 2,
        };
        let point = run_serve_point(&sweep, 2, 8);
        assert_eq!(point.ops, 2 * 8 * 8);
        assert!(point.kops > 0.0);
        assert!(point.p99_us >= point.p50_us);
    }
}
