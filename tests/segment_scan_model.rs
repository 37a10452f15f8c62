//! Property tests for the PR-8 contiguous scan segments.
//!
//! A scan segment is a pure acceleration structure: a dense, append-ordered
//! mirror of a transformed cell's successor ids, maintained incrementally
//! alongside the S-CHT chain. It must never change *what* a successor scan
//! returns — only the memory layout it reads. So the central property is
//! equivalence with a `BTreeSet` model driven by the same operations *and*
//! with the table walk production still runs on the same graph (edge export
//! and the weighted scans read the chain's tables, never the segments),
//! under randomized insert/delete churn that drives TRANSFORMATIONs,
//! expansions, contractions, collapses, tombstone punches, and threshold
//! compactions:
//!
//! 1. **Serial equivalence**: every return value, every successor set and
//!    every count agrees with the model, op by op, and the segment scan
//!    agrees with the table walk of the same cell.
//! 2. **Sharded and weighted equivalence**: the same holds through the
//!    sharded fan-out and for the weighted graph's unweighted scan surface.
//! 3. **Compaction round-trip**: punching tombstones past the waste
//!    threshold compacts in place without losing survivors, and freed
//!    segments are recycled for re-insertions.
//! 4. **Safety under races**: readers pinned across a writer's segment
//!    compactions see no phantom successors and lose no committed edges.

use cuckoograph::{
    CuckooGraph, CuckooGraphConfig, NodeId, ShardedCuckooGraph, WeightedCuckooGraph,
};
use graph_api::{DynamicGraph, MemoryFootprint, WeightedDynamicGraph};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[cfg(debug_assertions)]
const CASES: u32 = 12;
#[cfg(not(debug_assertions))]
const CASES: u32 = 32;

/// Small source band + degree-sized target band: most sources cross the
/// TRANSFORMATION threshold (2R = 6), so the churn exercises segments, not
/// just inline slots.
const SOURCES: u64 = 10;
const TARGETS: u64 = 400;

/// One operation of the randomized churn workload, applied identically to
/// the graph and the set model.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Delete(u64, u64),
    /// Append a contiguous run of successors — forces TRANSFORMATION and
    /// S-CHT expansions (and segment growth) on one source.
    Flood(u64),
    /// Delete a stride of the target band — mass tombstones, contractions,
    /// and collapses back to inline slots (which release segments).
    Drain(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..SOURCES, 0..TARGETS).prop_map(|(u, v)| Op::Insert(u, v)),
        4 => (0..SOURCES, 0..TARGETS).prop_map(|(u, v)| Op::Delete(u, v)),
        1 => (0..SOURCES).prop_map(Op::Flood),
        1 => (0..SOURCES).prop_map(Op::Drain),
    ]
}

fn successors_sorted(g: &dyn DynamicGraph, u: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    g.for_each_successor(u, &mut |v| out.push(v));
    out.sort_unstable();
    out
}

/// The edge batch an op acts on, and whether it inserts.
fn edges_of(op: &Op) -> (bool, Vec<(NodeId, NodeId)>) {
    match *op {
        Op::Insert(u, v) => (true, vec![(u, v)]),
        Op::Delete(u, v) => (false, vec![(u, v)]),
        Op::Flood(u) => (true, (0..64).map(|i| (u, TARGETS + i)).collect()),
        Op::Drain(u) => (
            false,
            (0..TARGETS + 64).step_by(2).map(|v| (u, v)).collect(),
        ),
    }
}

fn apply(g: &mut dyn DynamicGraph, op: &Op) -> usize {
    let (insert, batch) = edges_of(op);
    match *op {
        Op::Insert(u, v) => g.insert_edge(u, v) as usize,
        Op::Delete(u, v) => g.delete_edge(u, v) as usize,
        _ if insert => g.insert_edges(&batch),
        _ => g.remove_edges(&batch),
    }
}

/// The set model: exact edge set plus every source that ever received an
/// insert (cells persist once created, so that is the node count).
#[derive(Debug, Default)]
struct Model {
    edges: BTreeSet<(NodeId, NodeId)>,
    sources: BTreeSet<NodeId>,
}

impl Model {
    /// Applies `op`, returning what the graph's op must return: edges newly
    /// created by an insert, edges actually present for a delete.
    fn apply(&mut self, op: &Op) -> usize {
        let (insert, batch) = edges_of(op);
        if insert {
            self.insert(&batch)
        } else {
            self.remove(&batch)
        }
    }

    fn insert(&mut self, batch: &[(NodeId, NodeId)]) -> usize {
        let mut created = 0;
        for &(u, v) in batch {
            self.sources.insert(u);
            created += usize::from(self.edges.insert((u, v)));
        }
        created
    }

    fn remove(&mut self, batch: &[(NodeId, NodeId)]) -> usize {
        batch.iter().filter(|e| self.edges.remove(e)).count()
    }

    fn successors(&self, u: NodeId) -> Vec<NodeId> {
        self.edges
            .range((u, 0)..=(u, NodeId::MAX))
            .map(|&(_, v)| v)
            .collect()
    }
}

/// Asserts the graph is indistinguishable from the model through the whole
/// query surface.
fn assert_matches_model(g: &dyn DynamicGraph, model: &Model) {
    assert_eq!(g.edge_count(), model.edges.len());
    assert_eq!(g.node_count(), model.sources.len());
    for u in 0..SOURCES {
        let want = model.successors(u);
        assert_eq!(
            successors_sorted(g, u),
            want,
            "successor sets diverged at {u}"
        );
        assert_eq!(g.out_degree(u), want.len(), "degree diverged at {u}");
        for v in (0..TARGETS).step_by(41) {
            assert_eq!(g.has_edge(u, v), model.edges.contains(&(u, v)));
        }
    }
}

/// The successors of `u` as the table walk reports them: edge export reads
/// every cell's chain tables and never consults a scan segment.
fn table_walk_sorted(g: &CuckooGraph, u: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    g.for_each_edge(|s, v| {
        if s == u {
            out.push(v);
        }
    });
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Serial graph: segment scan ≡ model ≡ table walk through arbitrary
    /// churn, op by op — every insert/delete return value agrees with the
    /// model, and the scan surface is checked at every step so a transiently
    /// corrupt segment (stale tombstone, lost append, bad compaction slide)
    /// cannot hide behind a later op that repairs the set.
    #[test]
    fn serial_segments_match_table_walk_oracle(
        seed in 1u64..500,
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let mut g = CuckooGraph::with_config(CuckooGraphConfig::default().with_seed(seed));
        let mut model = Model::default();
        for (i, op) in ops.iter().enumerate() {
            let a = apply(&mut g, op);
            let b = model.apply(op);
            prop_assert_eq!(a, b, "op {} returned differently: {:?}", i, op);
            let (Op::Insert(u, _) | Op::Delete(u, _) | Op::Flood(u) | Op::Drain(u)) = *op;
            let scan = successors_sorted(&g, u);
            prop_assert_eq!(
                &scan,
                &model.successors(u),
                "scan diverged from the model after op {} ({:?})",
                i, op
            );
            prop_assert_eq!(
                &scan,
                &table_walk_sorted(&g, u),
                "scan diverged from the table walk after op {} ({:?})",
                i, op
            );
        }
        assert_matches_model(&g, &model);
        let stats = g.stats();
        prop_assert_eq!(stats.edges, model.edges.len());
        prop_assert_eq!(stats.nodes, model.sources.len());
    }

    /// The sharded fan-out preserves the equivalence: per-shard engines own
    /// independent scan arenas, and the shared ingest surface (segments
    /// grown and freed inside mutation windows) lands on the model's graph
    /// too.
    #[test]
    fn sharded_segments_match_table_walk_oracle(
        seed in 1u64..500,
        shards in 1usize..5,
        ops in prop::collection::vec(op_strategy(), 1..80),
    ) {
        let config = CuckooGraphConfig::default().with_seed(seed);
        let mut g = ShardedCuckooGraph::with_config(shards, config);
        let mut model = Model::default();
        for op in &ops {
            prop_assert_eq!(apply(&mut g, op), model.apply(op), "{:?}", op);
        }
        // Push one batch through the shared (windowed) surface too, so
        // segment growth under a concurrent write section is exercised.
        let wave: Vec<(NodeId, NodeId)> = (0..900u64).map(|i| (i % SOURCES, i % TARGETS)).collect();
        prop_assert_eq!(g.ingest_batch(&wave), model.insert(&wave));
        prop_assert_eq!(g.remove_batch(&wave[..600]), model.remove(&wave[..600]));
        assert_matches_model(&g, &model);

        // The table walk of the same shards exports exactly the model's
        // edges, source by source what the segment scans returned.
        let mut walked: Vec<(NodeId, NodeId)> = Vec::new();
        g.for_each_edge(|u, v| walked.push((u, v)));
        walked.sort_unstable();
        let want: Vec<(NodeId, NodeId)> = model.edges.iter().copied().collect();
        prop_assert_eq!(walked, want, "edge sets diverged");
    }

    /// The weighted graph's unweighted scan surface rides the segments while
    /// the weighted scan keeps the table walk (weights live only in payload
    /// slots) — both must agree with a weight-map model, including after
    /// in-place weight mutations, which the id-only segments are immune to.
    #[test]
    fn weighted_segments_match_table_walk_oracle(
        seed in 1u64..500,
        ops in prop::collection::vec(
            (0..SOURCES, 0u64..80, 0u64..4, 1u64..4),
            1..200,
        ),
    ) {
        let config = CuckooGraphConfig::default().with_seed(seed);
        let mut g = WeightedCuckooGraph::with_config(config);
        let mut weights: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
        let mut model = Model::default();
        for &(u, v, kind, delta) in &ops {
            if kind == 0 {
                let left = weights.get(&(u, v)).map_or(0, |w| w.saturating_sub(delta));
                if left == 0 {
                    weights.remove(&(u, v));
                    model.remove(&[(u, v)]);
                } else {
                    weights.insert((u, v), left);
                }
                prop_assert_eq!(g.delete_weighted(u, v, delta), left);
            } else {
                let w = weights.entry((u, v)).or_insert(0);
                *w += delta;
                model.insert(&[(u, v)]);
                prop_assert_eq!(g.insert_weighted(u, v, delta), *w);
            }
        }
        assert_matches_model(&g, &model);
        for u in 0..SOURCES {
            // The weighted scan is the table walk of the same cell.
            let mut walked = Vec::new();
            g.for_each_weighted_successor(u, &mut |v, w| walked.push((v, w)));
            walked.sort_unstable();
            let want: Vec<(NodeId, u64)> = weights
                .range((u, 0)..=(u, NodeId::MAX))
                .map(|(&(_, v), &w)| (v, w))
                .collect();
            prop_assert_eq!(&walked, &want, "weighted scan diverged at {}", u);
            let ids: Vec<NodeId> = walked.iter().map(|&(v, _)| v).collect();
            prop_assert_eq!(successors_sorted(&g, u), ids, "segment scan diverged at {}", u);
        }
    }
}

/// Tombstone-compaction round-trip, pinned deterministically: punch waste
/// past the 1/4 threshold, verify the in-place slide kept exactly the
/// survivors (in append order — compaction is order-preserving), then refill
/// and check the segment serves the full set again.
#[test]
fn tombstone_compaction_round_trips() {
    let mut g = CuckooGraph::new();
    for v in 0..600u64 {
        g.insert_edge(7, v);
    }
    let grown = g.stats();
    assert!(grown.segment_bytes > 0, "no segment was built");
    assert_eq!(grown.segment_tombstones, 0);

    // Delete two of every three successors: far past the waste threshold,
    // so compactions must fire while deletions stream in.
    for v in 0..600u64 {
        if v % 3 != 0 {
            assert!(g.delete_edge(7, v));
        }
    }
    let punched = g.stats();
    assert_eq!(punched.segment_tombstones, 400);
    assert!(
        punched.segment_compactions > 0,
        "threshold compaction never fired"
    );

    let mut seen = Vec::new();
    g.for_each_successor(7, &mut |v| seen.push(v));
    let expected: BTreeSet<u64> = (0..600).filter(|v| v % 3 == 0).collect();
    assert_eq!(seen.len(), expected.len(), "compaction lost or duplicated");
    assert!(seen.iter().all(|v| expected.contains(v)));

    // Refill: the segment grows back and serves the full range again.
    for v in 0..600u64 {
        g.insert_edge(7, v);
    }
    let mut refilled = Vec::new();
    g.for_each_successor(7, &mut |v| refilled.push(v));
    refilled.sort_unstable();
    assert_eq!(refilled, (0..600u64).collect::<Vec<_>>());
    assert!(g.memory_bytes() > 0);
}

/// Collapsing a node back to inline slots releases its segment, and mass
/// deletion still shrinks overall memory with the scan arena in the sum.
#[test]
fn collapse_releases_segments_and_memory_shrinks() {
    let mut g = CuckooGraph::new();
    for u in 0..40u64 {
        for v in 0..200u64 {
            g.insert_edge(u, v);
        }
    }
    let peak_bytes = g.memory_bytes();
    let peak = g.stats();
    assert!(peak.segment_bytes > 0);

    // Delete everything except 3 successors per node: every cell collapses
    // to inline slots, releasing its segment back to the arena.
    for u in 0..40u64 {
        for v in 3..200u64 {
            assert!(g.delete_edge(u, v));
        }
    }
    let shrunk = g.stats();
    assert!(
        shrunk.segment_bytes < peak.segment_bytes,
        "segment bytes did not shrink: {} -> {}",
        peak.segment_bytes,
        shrunk.segment_bytes
    );
    assert!(g.memory_bytes() < peak_bytes);
    for u in 0..40u64 {
        assert_eq!(successors_sorted(&g, u), vec![0, 1, 2]);
    }
}

/// Readers pinned across a writer's segment compactions observe only
/// committed states: stable successors on every pass, no phantom values.
/// The churn waves delete-and-reinsert past the waste threshold, so the
/// writer compacts segments in place while readers are scanning.
#[test]
fn readers_race_segment_compactions_without_phantoms() {
    let g = ShardedCuckooGraph::new(2);
    let stable: Vec<(NodeId, NodeId)> = (0..50u64).flat_map(|v| [(1, v), (2, v)]).collect();
    let churn: Vec<(NodeId, NodeId)> = (0..900u64).map(|i| (1_000 + i % 3, i % 300)).collect();
    let churn_targets: BTreeSet<NodeId> = churn.iter().map(|&(_, v)| v).collect();
    g.ingest_batch(&stable);

    let writer_done = AtomicBool::new(false);
    let scans = AtomicU64::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..6 {
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
                for u in [1u64, 2] {
                    let mut seen = BTreeSet::new();
                    view.for_each_successor(u, &mut |v| {
                        assert!(v < 50, "phantom successor {v} of stable source {u}");
                        seen.insert(v);
                    });
                    assert_eq!(seen.len(), 50, "lost committed successors of {u}");
                }
                for u in 1_000..1_003u64 {
                    view.for_each_successor(u, &mut |v| {
                        assert!(
                            churn_targets.contains(&v),
                            "successor {v} of churn source {u} was never written"
                        );
                    });
                    scans.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    });
    assert!(scans.load(Ordering::Relaxed) > 0);
    let s = g.stats();
    assert!(
        s.segment_compactions > 0,
        "churn waves never compacted a segment"
    );
    assert!(s.segment_tombstones > 0);

    // Final state is exactly the set the batches leave behind: every wave
    // removes what it inserted, then the last insert stays.
    let want: BTreeSet<(NodeId, NodeId)> = stable.iter().chain(&churn).copied().collect();
    assert_eq!(g.edge_count(), want.len());
    let mut ours: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    g.for_each_edge(|u, v| assert!(ours.insert((u, v)), "edge ({u}, {v}) exported twice"));
    assert_eq!(ours, want);
    for u in (1..3u64).chain(1_000..1_003) {
        let scan: BTreeSet<NodeId> = successors_sorted(&g, u).into_iter().collect();
        let model: BTreeSet<NodeId> = want.range((u, 0)..=(u, NodeId::MAX)).map(|e| e.1).collect();
        assert_eq!(scan, model, "segment scan of {u} diverged");
    }
}
