//! Property tests for the PR-7 concurrency layer: lock-free reads under
//! ingest.
//!
//! The seqlock/epoch protocol changes *when* a query runs relative to a
//! shard's writer (between mutation windows instead of after the whole
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
//! Plus honest accounting: epoch advances equal the number of mutation
//! windows the batches mathematically must open, and reader pins equal the
//! reads issued.

use cuckoograph::{CuckooGraph, CuckooGraphConfig, NodeId, ShardedCuckooGraph};
use graph_api::DynamicGraph;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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
    /// batches, with the same op return values and (modulo the read/epoch
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

        // Structural stats agree too, once the counters that legitimately
        // differ are neutralised: the read/epoch block, the deferral
        // routing, and the pool hit/miss split (a quarantined buffer is not
        // reusable until its window closes, so the concurrent path may miss
        // where the direct path hits — `pool_retired` still counts the same
        // TRANSFORMATION events either way).
        let mut a = concurrent.stats();
        let mut c = exclusive.stats();
        for s in [&mut a, &mut c] {
            s.reader_retries = 0;
            s.read_pins = 0;
            s.epoch_advances = 0;
            s.pool_deferred = 0;
            s.pool_reclaimed = 0;
            s.pool_deferred_pending = 0;
            s.pool_hits = 0;
            s.pool_misses = 0;
            s.pool_retained_bytes = 0;
            // The scan arena's private pool quarantines under concurrent
            // writes too, so its retained bytes differ the same way; the
            // segment tombstone/compaction counters stay compared.
            s.segment_bytes = 0;
        }
        prop_assert_eq!(&a, &c, "concurrent vs exclusive stats");
    }
}

/// Epoch and pin accounting is exact, not advisory: a single-shard graph
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
    assert_eq!(s.pool_deferred, 0);
    assert_eq!(s.pool_deferred_pending, 0);
}
