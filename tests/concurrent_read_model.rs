//! Property tests for the concurrency layer: lock-free reads under ingest.
//!
//! The drained reader/writer handshake changes *when* a query runs relative
//! to a shard's writer (between mutation windows instead of after the whole
//! batch), never *what* either side computes — so three equivalences must
//! hold under randomized insert/delete/expand/contract interleavings:
//!
//! 1. **Safety under races**: readers running concurrently with a writer see
//!    only committed states — every never-deleted edge on every pass, no
//!    never-inserted edge ever, and successor sets drawn entirely from the
//!    values some batch actually wrote.
//! 2. **Result equivalence**: once the writer finishes, the concurrently
//!    mutated graph is identical to a serially driven oracle fed the same
//!    batches in the same order.
//! 3. **Exclusive-path pinning**: the shared (`&self`) surface and the
//!    classic `&mut` surface both produce exactly the edge set a `BTreeSet`
//!    model driven by the same batches holds, with identical structural
//!    stats.
//!
//! Underneath all three sits the exclusion itself — no reader is inside a
//! shard while a mutation window is open, and vice versa — which is what
//! lets a window free the tables and segments it replaces on the spot;
//! `writers_and_readers_exclude_each_other` pins it on a probe engine.
//!
//! Plus honest accounting: epoch advances equal the number of mutation
//! windows the batches mathematically must open, and reader pins equal the
//! reads issued.

use cuckoograph::{CuckooGraph, CuckooGraphConfig, NodeId, Sharded, ShardedCuckooGraph};
use graph_api::DynamicGraph;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Churn batch sizes stay well past one ingest chunk (512) so every run
/// opens several mutation windows per batch.
#[cfg(debug_assertions)]
const CHURN_EDGES: u64 = 1_500;
#[cfg(not(debug_assertions))]
const CHURN_EDGES: u64 = 4_000;

#[cfg(debug_assertions)]
const CASES: u32 = 8;
#[cfg(not(debug_assertions))]
const CASES: u32 = 24;

/// Sources are split into three disjoint bands so reader assertions are
/// exact no matter where the writer is mid-batch: stable sources are never
/// mutated after setup, churn sources flap, phantom sources never exist.
const STABLE_BASE: u64 = 0;
const CHURN_BASE: u64 = 1_000_000;
const PHANTOM_BASE: u64 = 2_000_000;

fn stable_edges(seed: u64) -> Vec<(NodeId, NodeId)> {
    (0..CHURN_EDGES / 2)
        .map(|i| {
            (
                STABLE_BASE + (i.wrapping_mul(seed | 1)) % 61,
                (i.wrapping_mul(31)) % 500,
            )
        })
        .collect()
}

fn churn_edges(seed: u64) -> Vec<(NodeId, NodeId)> {
    (0..CHURN_EDGES)
        .map(|i| {
            (
                CHURN_BASE + (i.wrapping_mul(seed | 1)) % 37,
                (i.wrapping_mul(17)) % 800,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Readers racing a churning writer observe only committed states, and
    /// the final graph matches a serial oracle fed the same batches.
    #[test]
    fn concurrent_readers_agree_with_the_locked_oracle(
        seed in 1u64..500,
        shards in 1usize..5,
        waves in 2usize..5,
    ) {
        let g = ShardedCuckooGraph::with_config(
            shards,
            CuckooGraphConfig::default().with_seed(seed),
        );
        let stable = stable_edges(seed);
        let churn = churn_edges(seed);
        g.ingest_batch(&stable);

        let churn_targets: BTreeSet<NodeId> = churn.iter().map(|&(_, v)| v).collect();
        let writer_done = AtomicBool::new(false);
        let reads = AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..waves {
                    g.ingest_batch(&churn);
                    g.remove_batch(&churn);
                }
                g.ingest_batch(&churn);
                writer_done.store(true, Ordering::SeqCst);
            });
            scope.spawn(|| {
                let view = g.read_view();
                let mut first_pass = true;
                while first_pass || !writer_done.load(Ordering::SeqCst) {
                    first_pass = false;
                    // Stable edges are never deleted: visible on every pass.
                    for &(u, v) in stable.iter().step_by(97) {
                        assert!(view.has_edge(u, v), "lost committed edge ({u}, {v})");
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                    // Phantom sources are never inserted: invisible forever.
                    for p in 0..4u64 {
                        assert!(
                            !view.has_edge(PHANTOM_BASE + p, p),
                            "phantom edge materialised"
                        );
                        assert_eq!(view.out_degree(PHANTOM_BASE + p), 0);
                    }
                    // A churn source's successors may be any committed subset
                    // of its batch, but never values no batch ever wrote.
                    let u = CHURN_BASE + (seed % 37);
                    view.for_each_successor(u, &mut |v| {
                        assert!(
                            churn_targets.contains(&v),
                            "successor {v} of churn source {u} was never written"
                        );
                    });
                }
            });
        });
        prop_assert!(reads.load(Ordering::Relaxed) > 0);

        // Result equivalence: the same batches, driven serially through the
        // exclusive surface, give the identical graph.
        let mut oracle = ShardedCuckooGraph::with_config(
            shards,
            CuckooGraphConfig::default().with_seed(seed),
        );
        oracle.insert_edges(&stable);
        for _ in 0..waves {
            oracle.insert_edges(&churn);
            oracle.remove_edges(&churn);
        }
        oracle.insert_edges(&churn);
        prop_assert_eq!(g.edge_count(), oracle.edge_count());
        prop_assert_eq!(g.node_count(), oracle.node_count());
        let mut ours: Vec<(NodeId, NodeId)> = Vec::new();
        g.for_each_edge(|u, v| ours.push((u, v)));
        let mut theirs: Vec<(NodeId, NodeId)> = Vec::new();
        oracle.for_each_edge(|u, v| theirs.push((u, v)));
        ours.sort_unstable();
        theirs.sort_unstable();
        prop_assert_eq!(ours, theirs);
    }

    /// The shared (`&self`) surface and the classic `&mut` surface both
    /// produce exactly the edge set of a `BTreeSet` model fed the same
    /// batches, with the same op return values and (modulo the read/window
    /// counter block) identical stats.
    #[test]
    fn shared_surface_is_pinned_to_the_exclusive_path(
        seed in 1u64..500,
        shards in 1usize..5,
    ) {
        let config = CuckooGraphConfig::default().with_seed(seed);
        let stable = stable_edges(seed);
        let churn = churn_edges(seed);

        // The model: inserts count newly created edges, removals count edges
        // that were present — the batch return values both surfaces report.
        let mut model: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let created_stable = stable.iter().filter(|&&e| model.insert(e)).count();
        let created_churn = churn.iter().filter(|&&e| model.insert(e)).count();
        let removed_churn = churn.iter().filter(|e| model.remove(e)).count();

        let concurrent = ShardedCuckooGraph::with_config(shards, config.clone());
        let mut exclusive = ShardedCuckooGraph::with_config(shards, config.clone());
        prop_assert_eq!(concurrent.ingest_batch(&stable), created_stable);
        prop_assert_eq!(concurrent.ingest_batch(&churn), created_churn);
        prop_assert_eq!(concurrent.remove_batch(&churn), removed_churn);
        prop_assert_eq!(exclusive.insert_edges(&stable), created_stable);
        prop_assert_eq!(exclusive.insert_edges(&churn), created_churn);
        prop_assert_eq!(exclusive.remove_edges(&churn), removed_churn);

        let want: Vec<(NodeId, NodeId)> = model.iter().copied().collect();
        for (name, g) in [("concurrent", &concurrent), ("exclusive", &exclusive)] {
            prop_assert_eq!(g.edge_count(), want.len(), "{}", name);
            let mut ours: Vec<(NodeId, NodeId)> = Vec::new();
            g.for_each_edge(|u, v| ours.push((u, v)));
            ours.sort_unstable();
            prop_assert_eq!(&ours, &want, "{} edge set diverged from the model", name);
        }

        // Structural stats agree in every field but the read/window counter
        // block: a window frees what it replaces exactly as the exclusive
        // path does, so memory and segment accounting match to the byte.
        let mut a = concurrent.stats();
        let mut c = exclusive.stats();
        for s in [&mut a, &mut c] {
            s.reader_retries = 0;
            s.read_pins = 0;
            s.epoch_advances = 0;
        }
        prop_assert_eq!(&a, &c, "concurrent vs exclusive stats");
    }
}

/// Window and pin accounting is exact, not advisory: a single-shard graph
/// opens precisely `ceil(batch / 512)` mutation windows per shared-surface
/// batch, and every view read pins exactly once.
#[test]
fn epoch_and_pin_accounting_is_exact() {
    let g = ShardedCuckooGraph::new(1);
    let edges: Vec<(NodeId, NodeId)> = (0..1_300u64).map(|i| (i % 7, i)).collect();

    g.ingest_batch(&edges); // 1300 edges -> windows of 512/512/276 = 3
    assert_eq!(g.read_counters().epoch_advances, 3);
    g.remove_batch(&edges[..512]); // exactly one full window
    assert_eq!(g.read_counters().epoch_advances, 4);
    g.ingest_batch(&[]); // empty batch opens no window
    assert_eq!(g.read_counters().epoch_advances, 4);

    let before = g.read_counters().read_pins;
    let view = g.read_view();
    for i in 0..50u64 {
        view.has_edge(i % 7, i);
    }
    drop(view);
    assert_eq!(g.read_counters().read_pins, before + 50);
    assert_eq!(
        g.read_counters().reader_retries,
        0,
        "uncontended reads never retry"
    );
}

/// The serial engine is untouched by the protocol: its stats expose the new
/// counter block as zeros.
#[test]
fn serial_engine_reports_zero_concurrency_counters() {
    let mut g = CuckooGraph::new();
    g.insert_edges(&(0..2_000u64).map(|i| (i % 19, i)).collect::<Vec<_>>());
    let s = g.stats();
    assert_eq!(s.read_pins, 0);
    assert_eq!(s.reader_retries, 0);
    assert_eq!(s.epoch_advances, 0);
}

/// A shard "engine" that only records who is inside it.
#[derive(Default)]
struct Probe {
    inside_read: AtomicUsize,
    inside_write: AtomicBool,
}

/// The property every on-the-spot free stands on: a reader never runs while
/// a mutation window is open, and a window never opens over a pinned reader.
/// Both sides yield inside their section so the other side gets scheduled
/// there even on a single core.
#[test]
fn writers_and_readers_exclude_each_other() {
    const ROUNDS: usize = 4_000;
    let g = Sharded::from_shards(vec![Probe::default()]);
    let start = std::sync::Barrier::new(3);
    let writer_done = AtomicBool::new(false);
    let reader_saw_writer = AtomicUsize::new(0);
    let writer_saw_reader = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let view = g.read_view();
                start.wait();
                let mut rounds = 0;
                while rounds < ROUNDS || !writer_done.load(Ordering::SeqCst) {
                    view.with_shard(0, |p| {
                        p.inside_read.fetch_add(1, Ordering::SeqCst);
                        std::thread::yield_now();
                        if p.inside_write.load(Ordering::SeqCst) {
                            reader_saw_writer.fetch_add(1, Ordering::SeqCst);
                        }
                        p.inside_read.fetch_sub(1, Ordering::SeqCst);
                    });
                    rounds += 1;
                }
            });
        }
        scope.spawn(|| {
            start.wait();
            for _ in 0..ROUNDS {
                g.update_shard(0, |p| {
                    p.inside_write.store(true, Ordering::SeqCst);
                    std::thread::yield_now();
                    if p.inside_read.load(Ordering::SeqCst) > 0 {
                        writer_saw_reader.fetch_add(1, Ordering::SeqCst);
                    }
                    p.inside_write.store(false, Ordering::SeqCst);
                });
            }
            writer_done.store(true, Ordering::SeqCst);
        });
    });

    assert_eq!(
        reader_saw_writer.load(Ordering::SeqCst),
        0,
        "a reader ran inside an open mutation window"
    );
    assert_eq!(
        writer_saw_reader.load(Ordering::SeqCst),
        0,
        "a mutation window opened over a pinned reader"
    );
    assert_eq!(g.read_counters().epoch_advances, ROUNDS as u64);
}
