//! The traced run's layer replays. The serve section's command stream is
//! replayed single-threaded through nested boundaries on fresh state:
//!
//! ```text
//! WeightedCuckooGraph            core      (engine alone)
//!  └ ShardedWeightedCuckooGraph  shard     (256-edge batches, views per burst)
//!     └ Server::execute          server    (command parse, reply build)
//!        └ DurableServer::execute_batch   persist (log append, group commit)
//! RespValue::decode / encode_reply_into   resp
//! DurableGraphStore::apply                store + oplog (the other stack)
//! ```
//!
//! Each boundary is timed from outside by calling its public functions; a
//! layer's self time is its total minus the next-inner layer's. What the
//! reactor's sockets, queues and wake-ups cost is the residual: process CPU
//! per command in the real run minus the layers replayed here.
//!
//! Every replay makes a write pass (all `ADDEDGE`s in stream order) and then
//! a read pass (all reads in stream order): reads change nothing, so the end
//! state equals the served one, and each command class gets one clock pair
//! per chunk instead of one per command.

use crate::catalogue::{BURST, WRITER_BATCH};
use crate::gen::Edge;
use crate::serve::{add_command, batch_execute, dir_bytes, Cmd, Kind, PhaseInput, ServeInputs};
use crate::trace::Tracer;
use bytes::BytesMut;
use cuckoograph::{ShardedWeightedCuckooGraph, WeightedCuckooGraph};
use graph_api::{DynamicGraph, NodeId, WeightedDynamicGraph};
use graph_durability::{DurabilityConfig, DurableGraphStore, GraphOp, StdVfs};
use kvstore::server::DEFAULT_GRAPH_SHARDS;
use kvstore::{DurableServer, Reply, RespValue, Server};
use std::hint::black_box;
use std::time::Instant;

/// Commands per replay span.
const REPLAY_CHUNK: usize = 4_096;
/// The reactor reads sockets in chunks of at most this size (its
/// `READ_CHUNK`). The `bytes` shim's `advance` is O(buffer), so decode cost
/// depends on how much is buffered at once.
const READ_CHUNK: usize = 16 * 1024;

/// Nanoseconds per command at each boundary, plus what the logs counted.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    pub core_write_ns: f64,
    pub core_read_ns: f64,
    pub shard_ingest_ns: f64,
    pub shard_read_ns: f64,
    pub server_write_ns: f64,
    pub server_read_ns: f64,
    pub persist_batch_ns: f64,
    pub persist_log_bytes_per_cmd: f64,
    pub persist_syncs: f64,
    pub persist_recover_ns_per_op: f64,
    pub store_apply_ns: f64,
    pub store_recover_ns_per_op: f64,
    pub oplog_bytes_per_op: f64,
    pub oplog_frames: f64,
    pub oplog_syncs: f64,
    /// Decode per command over the ingest wire and over the mix wire.
    pub decode_ingest_ns: f64,
    pub decode_mix_ns: f64,
    /// Encode per reply: `+OK`, and the read replies of the stream.
    pub encode_ok_ns: f64,
    pub encode_read_ns: f64,
    /// Replies that were not what the command called for.
    pub failed: u64,
    pub attempted: u64,
}

/// The served command stream split by class.
struct Replay<'a> {
    preload: &'a [Edge],
    writes: Vec<Edge>,
    reads: Vec<Cmd>,
}

impl<'a> Replay<'a> {
    fn new(inputs: &'a ServeInputs) -> Self {
        let mut writes = Vec::new();
        let mut reads = Vec::new();
        for (phase, burst) in [
            (&inputs.ingest, BURST),
            (&inputs.mix, BURST),
            (&inputs.rtt, 1),
        ] {
            for cmd in ServeInputs::interleaved(phase, burst) {
                if cmd.is_write() {
                    writes.push((cmd.u, cmd.v));
                } else {
                    reads.push(cmd);
                }
            }
        }
        Self {
            preload: &inputs.preload,
            writes,
            reads,
        }
    }
}

/// Times `run` over `items` chunk by chunk under one span and returns
/// nanoseconds per item. `run` does its own untimed preparation and returns
/// the seconds its timed part took.
fn replay_pass<T>(
    tracer: &mut Tracer,
    root: u64,
    name: &'static str,
    items: &[T],
    chunk: usize,
    mut run: impl FnMut(&[T]) -> f64,
) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let span = tracer.open(name, Some(root));
    let mut total = 0.0;
    for part in items.chunks(chunk) {
        let secs = run(part);
        tracer.record_ended("chunk", Some(span), secs, 0.0, part.len() as u64);
        total += secs;
    }
    tracer.close(span, items.len() as u64);
    total * 1e9 / items.len() as f64
}

fn timed(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

fn node(id: u32) -> NodeId {
    NodeId::from(id)
}

/// One read against anything with the three read operations.
fn read_op(
    cmd: &Cmd,
    has: impl Fn(NodeId, NodeId) -> bool,
    degree: impl Fn(NodeId) -> usize,
    scan: impl Fn(NodeId, &mut dyn FnMut(NodeId)),
) -> bool {
    match cmd.kind {
        Kind::Has => has(node(cmd.u), node(cmd.v)) == cmd.present,
        Kind::Deg => degree(node(cmd.u)) >= 1,
        Kind::Succ => {
            let mut visited = 0usize;
            scan(node(cmd.u), &mut |v| {
                visited += usize::from(black_box(v) != NodeId::MAX)
            });
            visited >= 1
        }
        Kind::Add => unreachable!("the read pass holds no writes"),
    }
}

fn reply_matches(cmd: &Cmd, reply: &Reply) -> bool {
    match (cmd.kind, reply) {
        (Kind::Add, Reply::Ok) => true,
        (Kind::Has, Reply::Integer(found)) => *found == i64::from(cmd.present),
        (Kind::Deg, Reply::Integer(degree)) => *degree >= 1,
        (Kind::Succ, Reply::Array(items)) => !items.is_empty(),
        _ => false,
    }
}

/// Decodes what one phase's clients send, the way a reactor worker does:
/// each burst arrives as one read, is pushed onto the connection's buffer,
/// and every complete command is decoded and turned into words. Returns
/// nanoseconds per command and how many commands failed to decode.
fn decode_phase(
    tracer: &mut Tracer,
    root: u64,
    name: &'static str,
    phase: &PhaseInput,
) -> (f64, u64) {
    let span = tracer.open(name, Some(root));
    let (mut secs, mut cmds, mut decoded) = (0.0, 0usize, 0usize);
    for conn in phase {
        let mut buf = BytesMut::new();
        let conn_secs = timed(|| {
            let mut from = 0usize;
            for burst_end in conn
                .ends
                .chunks(BURST)
                .map(|ends| ends[ends.len() - 1] as usize)
            {
                for chunk in conn.wire[from..burst_end].chunks(READ_CHUNK) {
                    buf.extend_from_slice(chunk);
                    while let Ok(Some(value)) = RespValue::decode(&mut buf) {
                        decoded += usize::from(black_box(value.into_command()).is_ok());
                    }
                }
                from = burst_end;
            }
        });
        tracer.record_ended("chunk", Some(span), conn_secs, 0.0, conn.cmds.len() as u64);
        secs += conn_secs;
        cmds += conn.cmds.len();
    }
    tracer.close(span, cmds as u64);
    (secs * 1e9 / cmds.max(1) as f64, (cmds - decoded) as u64)
}

/// Replays the served stream through every boundary. `dir` is a scratch
/// directory this function creates and removes.
pub fn replay(inputs: &ServeInputs, dir: &str, tracer: &mut Tracer) -> LayerCosts {
    let stream = Replay::new(inputs);
    let root = tracer.open("replay", None);
    let mut c = LayerCosts::default();
    let weighted = |edges: &[Edge]| -> Vec<(NodeId, NodeId, u64)> {
        edges.iter().map(|&(u, v)| (node(u), node(v), 1)).collect()
    };

    // core: the engine alone.
    let mut g = WeightedCuckooGraph::new();
    for &(u, v) in stream.preload {
        g.insert_weighted(node(u), node(v), 1);
    }
    c.core_write_ns = replay_pass(
        tracer,
        root,
        "core.write",
        &stream.writes,
        REPLAY_CHUNK,
        |part| {
            timed(|| {
                for &(u, v) in part {
                    black_box(g.insert_weighted(node(u), node(v), 1));
                }
            })
        },
    );
    c.core_read_ns = replay_pass(
        tracer,
        root,
        "core.read",
        &stream.reads,
        REPLAY_CHUNK,
        |part| {
            timed(|| {
                for cmd in part {
                    c.failed += u64::from(!read_op(
                        cmd,
                        |u, v| g.has_edge(u, v),
                        |u| g.out_degree(u),
                        |u, f| g.for_each_successor(u, f),
                    ));
                }
            })
        },
    );
    drop(g);

    // shard: writer-sized batches in, one read view per burst out.
    let sharded = ShardedWeightedCuckooGraph::new(DEFAULT_GRAPH_SHARDS);
    for batch in stream.preload.chunks(WRITER_BATCH) {
        sharded.ingest_weighted_batch(&weighted(batch));
    }
    c.shard_ingest_ns = replay_pass(
        tracer,
        root,
        "shard.ingest",
        &stream.writes,
        REPLAY_CHUNK,
        |part| {
            let batches: Vec<_> = part.chunks(WRITER_BATCH).map(weighted).collect();
            timed(|| {
                for batch in &batches {
                    black_box(sharded.ingest_weighted_batch(batch));
                }
            })
        },
    );
    c.shard_read_ns = replay_pass(
        tracer,
        root,
        "shard.read",
        &stream.reads,
        REPLAY_CHUNK,
        |part| {
            timed(|| {
                for burst in part.chunks(BURST) {
                    let view = sharded.read_view();
                    for cmd in burst {
                        c.failed += u64::from(!read_op(
                            cmd,
                            |u, v| view.has_edge(u, v),
                            |u| view.out_degree(u),
                            |u, f| view.for_each_successor(u, f),
                        ));
                    }
                }
            })
        },
    );
    drop(sharded);

    // server: one command at a time, as recovery replays them; the read
    // replies feed the encoder.
    let mut server = Server::new();
    for &e in stream.preload {
        server.execute(&add_command(e));
    }
    c.server_write_ns = replay_pass(
        tracer,
        root,
        "server.write",
        &stream.writes,
        REPLAY_CHUNK,
        |part| {
            let commands: Vec<_> = part.iter().map(|&e| add_command(e)).collect();
            timed(|| {
                for parts in &commands {
                    c.failed += u64::from(server.execute(parts) != Reply::Ok);
                }
            })
        },
    );
    let mut encode_secs = 0.0;
    c.server_read_ns = replay_pass(
        tracer,
        root,
        "server.read",
        &stream.reads,
        REPLAY_CHUNK,
        |part| {
            let commands: Vec<_> = part.iter().map(Cmd::parts).collect();
            let mut replies = Vec::with_capacity(part.len());
            let secs = timed(|| replies.extend(commands.iter().map(|parts| server.execute(parts))));
            for (cmd, reply) in part.iter().zip(&replies) {
                c.failed += u64::from(!reply_matches(cmd, reply));
            }
            let mut out = Vec::new();
            encode_secs += timed(|| {
                for burst in replies.chunks(BURST) {
                    out.clear();
                    for reply in burst {
                        Server::encode_reply_into(reply, &mut out);
                    }
                    black_box(&out);
                }
            });
            secs
        },
    );
    tracer.record_ended(
        "resp.encode",
        Some(root),
        encode_secs,
        0.0,
        stream.reads.len() as u64,
    );
    c.encode_read_ns = encode_secs * 1e9 / stream.reads.len().max(1) as f64;
    let oks = vec![Reply::Ok; 1 << 16];
    let mut out = Vec::new();
    let ok_secs = timed(|| {
        for burst in oks.chunks(BURST) {
            out.clear();
            for reply in burst {
                Server::encode_reply_into(reply, &mut out);
            }
            black_box(&out);
        }
    });
    c.encode_ok_ns = ok_secs * 1e9 / oks.len() as f64;
    drop(server);

    // resp: decode what the clients send.
    let (ingest_ns, ingest_failed) =
        decode_phase(tracer, root, "resp.decode.ingest", &inputs.ingest);
    let (mix_ns, mix_failed) = decode_phase(tracer, root, "resp.decode.mix", &inputs.mix);
    (c.decode_ingest_ns, c.decode_mix_ns) = (ingest_ns, mix_ns);
    c.failed += ingest_failed + mix_failed;

    // persist: the stack the reactor's writer drives, on real files.
    let persist_dir = format!("{dir}/persist");
    let _ = std::fs::remove_dir_all(&persist_dir);
    let open = |dir: &str| {
        DurableServer::open(StdVfs, DurabilityConfig::new(dir), Server::new)
            .expect("open the replay's durable server")
    };
    let (mut durable, _) = open(&persist_dir);
    let preload: Vec<_> = stream.preload.iter().map(|&e| add_command(e)).collect();
    c.failed += batch_execute(&mut durable, &preload, |r| *r == Reply::Ok);
    c.persist_batch_ns = replay_pass(
        tracer,
        root,
        "persist.batch",
        &stream.writes,
        REPLAY_CHUNK,
        |part| {
            let commands: Vec<_> = part.iter().map(|&e| add_command(e)).collect();
            timed(|| c.failed += batch_execute(&mut durable, &commands, |r| *r == Reply::Ok))
        },
    );
    c.persist_syncs = durable.stats().aof_syncs as f64;
    drop(durable);
    let logged = (stream.preload.len() + stream.writes.len()).max(1) as f64;
    c.persist_log_bytes_per_cmd = dir_bytes(&persist_dir) as f64 / logged;
    let start = Instant::now();
    let (durable, report) = open(&persist_dir);
    let secs = start.elapsed().as_secs_f64();
    tracer.record_ended(
        "persist.recover",
        Some(root),
        secs,
        0.0,
        report.ops_replayed,
    );
    c.persist_recover_ns_per_op = secs * 1e9 / report.ops_replayed.max(1) as f64;
    c.failed += u64::from(report.ops_replayed != logged as u64);
    drop(durable);

    // store + oplog: the varint op log under the same sharded engine.
    let store_dir = format!("{dir}/store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let open = |dir: &str| {
        DurableGraphStore::open(StdVfs, DurabilityConfig::new(dir), || {
            ShardedWeightedCuckooGraph::new(DEFAULT_GRAPH_SHARDS)
        })
        .expect("open the replay's graph store")
    };
    let ops = |edges: &[Edge]| -> Vec<GraphOp> {
        edges
            .iter()
            .map(|&(u, v)| GraphOp::Insert {
                u: node(u),
                v: node(v),
                w: 1,
            })
            .collect()
    };
    let (mut store, _) = open(&store_dir);
    for batch in stream.preload.chunks(WRITER_BATCH) {
        c.failed += u64::from(store.apply(&ops(batch)).is_err());
    }
    c.store_apply_ns = replay_pass(
        tracer,
        root,
        "store.apply",
        &stream.writes,
        REPLAY_CHUNK,
        |part| {
            let batches: Vec<_> = part.chunks(WRITER_BATCH).map(ops).collect();
            timed(|| {
                for batch in &batches {
                    c.failed += u64::from(store.apply(batch).is_err());
                }
            })
        },
    );
    let stats = store.stats();
    c.oplog_frames = stats.aof_frames_appended as f64;
    c.oplog_syncs = stats.aof_syncs as f64;
    c.oplog_bytes_per_op = stats.aof_bytes_appended as f64 / stats.aof_ops_appended.max(1) as f64;
    drop(store);
    let start = Instant::now();
    let (store, report) = open(&store_dir);
    let secs = start.elapsed().as_secs_f64();
    tracer.record_ended("store.recover", Some(root), secs, 0.0, report.ops_replayed);
    c.store_recover_ns_per_op = secs * 1e9 / report.ops_replayed.max(1) as f64;
    c.failed += u64::from(report.ops_replayed != logged as u64);
    drop(store);

    let _ = std::fs::remove_dir_all(dir);
    c.attempted = 5 * (stream.writes.len() + stream.reads.len()) as u64;
    tracer.close(root, c.attempted);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::WORKLOADS;
    use crate::gen::{edge_stream, SplitMix64};

    #[test]
    fn every_boundary_replays_the_stream_without_a_wrong_answer() {
        let w = WORKLOADS[3].sized(12, true);
        let mut rng = SplitMix64::new(31);
        let stream = edge_stream(w.shape, w.stream_edges, &mut rng);
        let inputs = ServeInputs::new(&w, &stream, &mut rng);
        let mut tracer = Tracer::default();
        let c = replay(&inputs, &crate::scratch_dir("layers-test"), &mut tracer);
        assert_eq!(c.failed, 0);
        for ns in [
            c.core_write_ns,
            c.core_read_ns,
            c.shard_ingest_ns,
            c.shard_read_ns,
            c.server_write_ns,
            c.server_read_ns,
            c.persist_batch_ns,
            c.store_apply_ns,
            c.decode_ingest_ns,
            c.decode_mix_ns,
            c.encode_ok_ns,
            c.encode_read_ns,
            c.persist_recover_ns_per_op,
            c.store_recover_ns_per_op,
        ] {
            assert!(ns > 0.0);
        }
        // The text log costs more bytes per edge than the varint one.
        assert!(c.persist_log_bytes_per_cmd > c.oplog_bytes_per_op && c.oplog_bytes_per_op > 0.0);
        assert!(c.oplog_frames > 0.0);
        let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
        for name in [
            "replay",
            "core.write",
            "shard.read",
            "persist.batch",
            "store.recover",
        ] {
            assert!(names.contains(&name), "{name} span missing");
        }
    }
}
