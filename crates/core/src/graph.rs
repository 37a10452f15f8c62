//! The basic version of CuckooGraph (§ III-A): distinct directed edges.

use crate::config::CuckooGraphConfig;
use crate::engine::Engine;
use crate::stats::StructureStats;
use graph_api::{
    DynamicGraph, EdgeExport, EdgeImport, EdgeRecord, GraphScheme, MemoryFootprint, NodeId,
};

/// CuckooGraph, basic version: stores each directed edge `⟨u, v⟩` at most once.
///
/// ```
/// use cuckoograph::CuckooGraph;
/// use graph_api::DynamicGraph;
///
/// let mut g = CuckooGraph::new();
/// assert!(g.insert_edge(1, 2));
/// assert!(!g.insert_edge(1, 2)); // duplicates are ignored (§ III-A3, Step 1)
/// assert!(g.has_edge(1, 2));
/// assert_eq!(g.successors(1), vec![2]);
/// assert!(g.delete_edge(1, 2));
/// assert!(!g.has_edge(1, 2));
/// ```
#[derive(Debug, Clone)]
pub struct CuckooGraph {
    engine: Engine<NodeId>,
}

impl CuckooGraph {
    /// Creates a graph with the paper's default parameters
    /// (`d = 8`, `R = 3`, `G = 0.9`, `T = 250`).
    pub fn new() -> Self {
        Self::with_config(CuckooGraphConfig::default())
    }

    /// Creates a graph with a custom configuration (used by the parameter
    /// studies of Figures 2–4 and the ablation of Figure 5).
    pub fn with_config(config: CuckooGraphConfig) -> Self {
        let small_slots = config.basic_small_slots();
        Self {
            engine: Engine::new(config, small_slots),
        }
    }

    /// The configuration this graph runs with.
    pub fn config(&self) -> &CuckooGraphConfig {
        self.engine.config()
    }

    /// Structural statistics and instrumentation counters (Theorem 1 and
    /// Figure 9 reproductions).
    pub fn stats(&self) -> StructureStats {
        self.engine.stats()
    }

    /// Calls `f` for every stored edge `⟨u, v⟩`.
    pub fn for_each_edge(&self, mut f: impl FnMut(NodeId, NodeId)) {
        self.engine.for_each_edge(|u, v| f(u, *v));
    }

    /// Collects every stored edge. Order is unspecified.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.engine.edge_count());
        self.for_each_edge(|u, v| out.push((u, v)));
        out
    }

    /// Compacts the engine's slot arena, reclaiming blocks freed by node
    /// TRANSFORMATIONS (see [`crate::engine::Engine::compact_arena`]).
    /// Returns the number of freed blocks reclaimed.
    pub fn compact_arena(&mut self) -> usize {
        self.engine.compact_arena()
    }

    /// Calls `f(degree, block capacity)` for every inline cell — see
    /// [`crate::engine::Engine::for_each_inline_block`].
    #[doc(hidden)]
    pub fn for_each_inline_block(&self, f: impl FnMut(usize, usize)) {
        self.engine.for_each_inline_block(f);
    }
}

impl Default for CuckooGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryFootprint for CuckooGraph {
    fn memory_bytes(&self) -> usize {
        self.engine.memory_bytes()
    }
}

impl EdgeExport for CuckooGraph {
    fn for_each_edge_record(&self, f: &mut dyn FnMut(EdgeRecord)) {
        self.engine
            .for_each_edge(|u, &v| f(EdgeRecord::unweighted(u, v)));
    }

    fn edge_record_count(&self) -> usize {
        self.engine.edge_count()
    }
}

impl EdgeImport for CuckooGraph {
    fn import_edge_records(&mut self, records: &[EdgeRecord]) {
        // Weight and multiplicity collapse to edge existence here; the batch
        // path keeps a restore as fast as a native bulk load.
        self.engine
            .insert_batch(records, |r| (r.source, r.target), |r| r.target, |_, _| {});
    }
}

impl DynamicGraph for CuckooGraph {
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        // Step 1 of the insertion procedure: query first; an existing edge is
        // not inserted again. `upsert` folds the query and the insert into a
        // single resolution of the `u` cell, hashing `u` once and `v` at most
        // once (not at all when the cell is still inline).
        self.engine.upsert(u, v, || v, |_| {})
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.engine.contains(u, v)
    }

    fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.engine.remove(u, v).is_some()
    }

    fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        // Transformed cells walk their contiguous scan segment (one dense,
        // append-ordered run) instead of the chain's scattered buckets.
        self.engine.for_each_successor_id(u, f);
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId)) {
        self.engine.for_each_node(f);
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.engine.out_degree(u)
    }

    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        self.engine
            .insert_batch(edges, |&e| e, |&(_, v)| v, |_, _| {})
    }

    fn remove_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        self.engine.remove_batch(edges)
    }

    fn edge_count(&self) -> usize {
        self.engine.edge_count()
    }

    fn node_count(&self) -> usize {
        self.engine.node_count()
    }

    fn scheme(&self) -> GraphScheme {
        GraphScheme::CuckooGraph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_insertions_are_ignored() {
        let mut g = CuckooGraph::new();
        assert!(g.insert_edge(1, 2));
        assert!(!g.insert_edge(1, 2));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn scheme_and_defaults() {
        let g = CuckooGraph::new();
        assert_eq!(g.scheme(), GraphScheme::CuckooGraph);
        assert_eq!(g.config().cells_per_bucket, 8);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 0);
        assert!(g.nodes().is_empty());
    }

    #[test]
    fn power_law_like_workload_round_trips() {
        // A few hub nodes with large degree plus many low-degree nodes, the
        // shape § I calls out for real graphs.
        let mut g = CuckooGraph::new();
        let mut expected = Vec::new();
        for hub in 0..3u64 {
            for v in 0..500u64 {
                g.insert_edge(hub, 10_000 + v);
                expected.push((hub, 10_000 + v));
            }
        }
        for u in 100..1_100u64 {
            g.insert_edge(u, u + 1);
            expected.push((u, u + 1));
        }
        assert_eq!(g.edge_count(), expected.len());
        for &(u, v) in &expected {
            assert!(g.has_edge(u, v), "missing edge ({u}, {v})");
        }
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.out_degree(0), 500);
        assert_eq!(g.out_degree(100), 1);
        let mut edges = g.edges();
        edges.sort_unstable();
        expected.sort_unstable();
        assert_eq!(edges, expected);
    }

    #[test]
    fn deletion_then_reinsertion_works() {
        let mut g = CuckooGraph::new();
        for v in 0..100u64 {
            g.insert_edge(5, v);
        }
        for v in 0..100u64 {
            assert!(g.delete_edge(5, v));
        }
        assert!(!g.delete_edge(5, 0));
        assert_eq!(g.edge_count(), 0);
        for v in 0..100u64 {
            assert!(g.insert_edge(5, v));
        }
        assert_eq!(g.out_degree(5), 100);
    }

    #[test]
    fn for_each_successor_matches_successors() {
        let mut g = CuckooGraph::new();
        for v in 0..50u64 {
            g.insert_edge(1, v * 2);
        }
        let mut via_callback = Vec::new();
        g.for_each_successor(1, &mut |v| via_callback.push(v));
        via_callback.sort_unstable();
        let mut via_vec = g.successors(1);
        via_vec.sort_unstable();
        assert_eq!(via_callback, via_vec);
    }

    #[test]
    fn batched_deletion_shrinks_scht_and_keeps_lookups_exact() {
        // Public-API version of the deletion → S-CHT shrink path: grow a node
        // past several expansion thresholds, batch-delete back down, and check
        // the reverse TRANSFORMATION plus exact membership of what remains.
        let mut g = CuckooGraph::new();
        let keep: Vec<(NodeId, NodeId)> = (0..5u64).map(|v| (1, v)).collect();
        let drop: Vec<(NodeId, NodeId)> = (5..1_200u64).map(|v| (1, v)).collect();
        g.insert_edges(&keep);
        g.insert_edges(&drop);
        let grown = g.stats();
        assert!(grown.scht_slots >= 1_000, "expansions never happened");

        assert_eq!(g.remove_edges(&drop), drop.len());
        let shrunk = g.stats();
        assert!(shrunk.contractions > grown.contractions);
        assert_eq!(shrunk.scht_slots, 0, "chain did not collapse");
        assert_eq!(g.out_degree(1), keep.len());
        for &(u, v) in &keep {
            assert!(g.has_edge(u, v));
        }
        assert!(!g.has_edge(1, 5));
        // Removed edges can be re-inserted cleanly after the collapse.
        assert_eq!(g.insert_edges(&drop), drop.len());
        assert_eq!(g.edge_count(), keep.len() + drop.len());
    }

    #[test]
    fn memory_reporting_is_monotone_under_growth() {
        let mut g = CuckooGraph::new();
        let start = g.memory_bytes();
        for u in 0..200u64 {
            for v in 0..20u64 {
                g.insert_edge(u, v);
            }
        }
        assert!(g.memory_bytes() > start);
        assert!(g.memory_mb() > 0.0);
    }

    #[test]
    fn stats_reflect_graph_shape() {
        let mut g = CuckooGraph::new();
        for u in 0..100u64 {
            for v in 0..10u64 {
                g.insert_edge(u, v);
            }
        }
        let s = g.stats();
        assert_eq!(s.nodes, 100);
        assert_eq!(s.edges, 1_000);
        // Degree 10 > 2R = 6, so every cell transformed into an S-CHT chain.
        assert!(s.scht_tables >= 100);
    }
}
