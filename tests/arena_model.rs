//! Property tests for the memory layer: exact-size tables and the slot
//! arena.
//!
//! A graph driven through an operation sequence must hold exactly what a
//! `BTreeSet`/`BTreeMap` model driven by the same sequence holds: same op
//! return values, edge set, successor sets and counts, with capacity and
//! memory inside what the model's size allows. The tests pin that under
//! random insert/delete churn, serially and sharded, and additionally pin
//! that loading-rate aggregates reflect live tables only, that every inline
//! cell sits in a size class that holds its degree and no larger than the
//! inline capacity, and that arena compaction is a pure relayout (same graph
//! before and after, free lists drained, remap applied to every cell
//! including parked L-DL cells).

use cuckoograph::{
    CuckooGraph, CuckooGraphConfig, MemoryFootprint, NodeId, ShardedCuckooGraph, StructureStats,
    WeightedCuckooGraph,
};
use graph_api::{DynamicGraph, WeightedDynamicGraph};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// One operation of the randomised churn workload. Weighted towards inserts
/// so graphs grow through expansion thresholds, with enough deletes to drive
/// contractions and chain collapses (the paths that replace tables).
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Delete(u64, u64),
    BatchInsert(u64),
    BatchRemove(u64),
}

fn op_strategy(nodes: u64, fanout: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..nodes, 0..fanout).prop_map(|(u, v)| Op::Insert(u, v)),
        3 => (0..nodes, 0..fanout).prop_map(|(u, v)| Op::Delete(u, v)),
        1 => (0..nodes).prop_map(Op::BatchInsert),
        1 => (0..nodes).prop_map(Op::BatchRemove),
    ]
}

/// Expands an op into the concrete edge list it acts on. Batch ops touch a
/// whole adjacency run so chains expand/contract in bulk — the heaviest
/// TRANSFORMATION traffic.
fn edges_of(op: &Op, fanout: u64) -> (bool, Vec<(NodeId, NodeId)>) {
    match *op {
        Op::Insert(u, v) => (true, vec![(u, v)]),
        Op::Delete(u, v) => (false, vec![(u, v)]),
        Op::BatchInsert(u) => (true, (0..4 * fanout).map(|v| (u, v)).collect()),
        Op::BatchRemove(u) => (false, (0..4 * fanout).map(|v| (u, v)).collect()),
    }
}

/// The reference the engine is checked against: the exact edge set, every
/// source that ever received an insert (cells persist once created), and the
/// high-water edge count (the slot arena's slab is sized by past peaks).
#[derive(Debug, Default)]
struct Model {
    edges: BTreeSet<(NodeId, NodeId)>,
    sources: BTreeSet<NodeId>,
    peak_edges: usize,
}

impl Model {
    /// Applies a batch insert, returning how many edges were newly created —
    /// the value `insert_edges` must report.
    fn insert(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        let mut created = 0;
        for &(u, v) in edges {
            self.sources.insert(u);
            created += usize::from(self.edges.insert((u, v)));
        }
        self.peak_edges = self.peak_edges.max(self.edges.len());
        created
    }

    /// Applies a batch removal, returning how many edges were present — the
    /// value `remove_edges` must report.
    fn remove(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        edges.iter().filter(|e| self.edges.remove(e)).count()
    }

    fn successors(&self, u: NodeId) -> Vec<NodeId> {
        self.edges
            .range((u, 0)..=(u, NodeId::MAX))
            .map(|&(_, v)| v)
            .collect()
    }

    fn sorted_edges(&self) -> Vec<(NodeId, NodeId)> {
        self.edges.iter().copied().collect()
    }
}

/// Cells of one base-geometry table under the tests' config
/// (`base_len = 4`, `d = 8`, bucket arrays 2:1).
const BASE_TABLE_SLOTS: usize = 4 * 8 * 3 / 2;

/// Checks the capacity-derived aggregates against the model. The stats
/// count **live** geometry, so the slot counts stay within what the TRANSFORMATION
/// rule can reach from the model's node and edge counts: a chain past its
/// base geometry never sits below a quarter full (expansion fires at `G`,
/// contraction at `Λ`; a fresh merge lands at `2G/3`).
fn check_shape_against_model(s: &StructureStats, model: &Model, shards: usize) {
    assert_eq!(s.edges, model.edges.len(), "edge count diverges");
    assert_eq!(s.nodes, model.sources.len(), "node count diverges");
    assert!(
        s.lcht_cells <= (shards * BASE_TABLE_SLOTS).max(4 * s.nodes),
        "L-CHT capacity {} inflated past the model's {} nodes",
        s.lcht_cells,
        s.nodes
    );
    // Only cells past the inline capacity (2R = 6) own S-CHT tables.
    let mut chained_bound = 0usize;
    for &u in &model.sources {
        let degree = model.successors(u).len();
        if degree > 6 {
            chained_bound += BASE_TABLE_SLOTS.max(4 * degree);
        }
    }
    assert!(
        s.scht_slots <= chained_bound,
        "S-CHT capacity {} inflated past the model's bound {}",
        s.scht_slots,
        chained_bound
    );
    let rate = s.lcht_loading_rate();
    if s.nodes > 0 {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "loading rate out of range: {rate}"
        );
        assert!(
            (rate - s.nodes as f64 / s.lcht_cells as f64).abs() < 1e-12,
            "loading rate not nodes/cells"
        );
    }
}

/// The size-class invariant, for every inline cell: degree ≤ block capacity
/// ≤ `small_slots`, and a cell holds a block exactly when it has a neighbour.
fn check_inline_blocks(g: &CuckooGraph) {
    let small_slots = g.config().basic_small_slots();
    g.for_each_inline_block(|degree, capacity| {
        assert!(
            degree <= capacity && capacity <= small_slots,
            "inline cell of degree {degree} in a {capacity}-slot block (small_slots {small_slots})"
        );
        assert_eq!(degree == 0, capacity == 0, "block held by an empty cell");
    });
}

fn sorted_edges(g: &CuckooGraph) -> Vec<(NodeId, NodeId)> {
    let mut e = g.edges();
    e.sort_unstable();
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An engine driven through a churn sequence is indistinguishable from
    /// the set model: identical op return values, edge set, successor sets,
    /// degrees, and counts. Memory stays within what the model's high-water
    /// mark can account for.
    #[test]
    fn graph_matches_the_set_model_under_churn(
        ops in prop::collection::vec(op_strategy(24, 40), 1..120),
        seed in 0u64..1_000
    ) {
        let config = CuckooGraphConfig::default()
            .with_lcht_base_len(4)
            .with_scht_base_len(4)
            .with_seed(seed);
        let mut graph = CuckooGraph::with_config(config);
        let mut model = Model::default();
        let empty_bytes = graph.memory_bytes();

        for op in &ops {
            let (insert, edges) = edges_of(op, 40);
            if insert {
                prop_assert_eq!(graph.insert_edges(&edges), model.insert(&edges));
            } else {
                prop_assert_eq!(graph.remove_edges(&edges), model.remove(&edges));
            }
        }

        prop_assert_eq!(sorted_edges(&graph), model.sorted_edges());
        for u in 0..24u64 {
            let want = model.successors(u);
            let mut a = graph.successors(u);
            a.sort_unstable();
            prop_assert_eq!(&a, &want, "successors of {} diverge", u);
            prop_assert_eq!(graph.out_degree(u), want.len());
            for &v in &want {
                prop_assert!(graph.has_edge(u, v), "lost edge ({}, {})", u, v);
            }
        }

        check_shape_against_model(&graph.stats(), &model, 1);
        check_inline_blocks(&graph);

        // Tables and segments are allocated at exact size and freed when
        // replaced, so memory is live geometry plus the slot arena's slab
        // (sized by the high-water mark). Per source: its share of the L-CHT
        // (≤ 4 cells of 25 B), one 48 B arena block and, once chained, the
        // chain header, a base table (48 slots of 9 B) and a minimal segment.
        // Per edge past that: ≤ 4 S-CHT slots of 9 B and ~10 B of segment.
        let budget = empty_bytes + 512 * model.sources.len() + 64 * model.peak_edges;
        prop_assert!(
            graph.memory_bytes() <= budget,
            "memory {} exceeds the model's budget {} ({} cells, peak {} edges)",
            graph.memory_bytes(), budget, model.sources.len(), model.peak_edges
        );
    }

    /// The same equivalence holds across the sharded fan-out: N shards
    /// together still hold exactly the model's edges.
    #[test]
    fn sharded_graph_matches_the_set_model(
        ops in prop::collection::vec(op_strategy(48, 30), 1..60),
        shards in 1usize..5
    ) {
        let config = CuckooGraphConfig::default()
            .with_lcht_base_len(4)
            .with_scht_base_len(4);
        let mut graph = ShardedCuckooGraph::with_config(shards, config);
        let mut model = Model::default();

        for op in &ops {
            let (insert, edges) = edges_of(op, 30);
            if insert {
                prop_assert_eq!(graph.insert_edges(&edges), model.insert(&edges));
            } else {
                prop_assert_eq!(graph.remove_edges(&edges), model.remove(&edges));
            }
        }

        let a: BTreeSet<(NodeId, NodeId)> = graph.par_edges().into_iter().collect();
        prop_assert_eq!(&a, &model.edges);
        check_shape_against_model(&graph.stats(), &model, shards);
    }

    /// Capacity-derived aggregates count **live** tables only. After
    /// arbitrary churn the cell and slot counts must stay within the geometry
    /// the model's node and edge counts allow, and the loading rate must be
    /// exactly nodes / cells.
    #[test]
    fn loading_rate_reflects_live_tables_after_churn(
        ops in prop::collection::vec(op_strategy(32, 24), 1..100)
    ) {
        let config = CuckooGraphConfig::default()
            .with_lcht_base_len(4)
            .with_scht_base_len(4);
        let mut graph = CuckooGraph::with_config(config);
        let mut model = Model::default();
        for op in &ops {
            let (insert, edges) = edges_of(op, 24);
            if insert {
                graph.insert_edges(&edges);
                model.insert(&edges);
            } else {
                graph.remove_edges(&edges);
                model.remove(&edges);
            }
        }
        check_shape_against_model(&graph.stats(), &model, 1);
    }

    /// Arena compaction is a pure relayout: after random churn (which frees
    /// blocks through TRANSFORMATIONS and collapses), `compact_arena` must
    /// drain the free list, reclaim slab memory, and leave every query
    /// answer — including post-compaction mutations — unchanged.
    #[test]
    fn arena_compaction_round_trips_under_churn(
        ops in prop::collection::vec(op_strategy(32, 24), 1..100)
    ) {
        let config = CuckooGraphConfig::default()
            .with_lcht_base_len(4)
            .with_scht_base_len(4);
        let mut g = CuckooGraph::with_config(config);
        for op in &ops {
            let (insert, edges) = edges_of(op, 24);
            if insert {
                g.insert_edges(&edges);
            } else {
                g.remove_edges(&edges);
            }
        }

        let before_edges = sorted_edges(&g);
        let before = g.stats();
        let freed = g.compact_arena();
        prop_assert_eq!(freed, before.arena_free_blocks, "compaction miscounted");
        let after = g.stats();
        prop_assert_eq!(after.arena_free_blocks, 0, "free list survived compaction");
        prop_assert_eq!(
            after.arena_blocks,
            before.arena_blocks - before.arena_free_blocks
        );
        prop_assert_eq!(sorted_edges(&g), before_edges, "compaction changed the graph");
        check_inline_blocks(&g);

        // The compacted graph keeps working: mutate through every remapped
        // block and re-verify.
        for u in 0..32u64 {
            let mut s = g.successors(u);
            s.sort_unstable();
            s.dedup();
            prop_assert_eq!(s.len(), g.out_degree(u), "degree diverges after compaction");
            g.insert_edge(u, 1_000_000);
            prop_assert!(g.has_edge(u, 1_000_000));
            g.delete_edge(u, 1_000_000);
            prop_assert!(!g.has_edge(u, 1_000_000));
        }
        prop_assert_eq!(sorted_edges(&g), before_edges);
    }
}

/// A cell whose last neighbour is deleted gives its block back: after every
/// edge of a sparse, mostly low-degree graph is deleted, compaction leaves no
/// arena block behind.
#[test]
fn deleting_every_edge_releases_every_arena_block() {
    let mut g = CuckooGraph::new();
    let edges: Vec<(NodeId, NodeId)> = (0..20_000u64)
        .map(|i| (i % 7_919, i.wrapping_mul(0x9e37_79b9) % 50_000))
        .collect();
    let created = g.insert_edges(&edges);
    assert!(g.stats().arena_blocks > 0);
    let full = g.memory_bytes();
    assert_eq!(g.remove_edges(&edges), created);
    assert_eq!(g.edge_count(), 0);
    check_inline_blocks(&g);
    g.compact_arena();
    let s = g.stats();
    assert_eq!(
        (s.arena_blocks, s.arena_free_blocks),
        (0, 0),
        "empty cells kept their blocks"
    );
    assert!(
        g.memory_bytes() < full / 2,
        "deleting everything freed little"
    );
}

/// The weighted variant shares the engine, but its payloads carry state the
/// equivalence must also cover (weights survive rebuilds bit-exactly).
#[test]
fn weighted_graph_matches_the_map_model() {
    let config = CuckooGraphConfig::default()
        .with_lcht_base_len(4)
        .with_scht_base_len(4);
    let mut graph = WeightedCuckooGraph::with_config(config);
    let mut model: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
    let items: Vec<(NodeId, NodeId, u64)> = (0..6_000u64)
        .map(|i| (i % 40, (i * 7) % 90, i % 3 + 1))
        .collect();
    // Several grow/shrink cycles: every round's contractions free tables
    // that the next round's expansions allocate again.
    for _ in 0..3 {
        let mut created = 0;
        for &(u, v, w) in &items {
            let slot = model.entry((u, v)).or_insert_with(|| {
                created += 1;
                0
            });
            *slot += w;
        }
        assert_eq!(graph.insert_weighted_edges(&items), created);
        for u in 0..40u64 {
            for v in (0..90u64).step_by(2) {
                model.remove(&(u, v));
                assert_eq!(graph.delete_weighted(u, v, u64::MAX), 0);
                assert_eq!(graph.weight(u, v), 0);
            }
        }
    }
    assert_eq!(graph.total_weight(), model.values().sum::<u64>());
    assert_eq!(graph.distinct_edge_count(), model.len());
    for u in 0..40u64 {
        let mut a = graph.weighted_successors(u);
        a.sort_unstable();
        let want: Vec<(NodeId, u64)> = model
            .range((u, 0)..=(u, NodeId::MAX))
            .map(|(&(_, v), &w)| (v, w))
            .collect();
        assert_eq!(a, want, "weighted successors of {u} diverge");
    }
    assert_eq!(graph.stats().edges, model.len());
}
