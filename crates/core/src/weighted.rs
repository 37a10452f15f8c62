//! The extended version of CuckooGraph (§ III-B): duplicate edges folded into
//! per-edge weights, designed for streaming scenarios (CAIDA, StackOverflow,
//! WikiTalk all contain repeated edges).

use crate::config::CuckooGraphConfig;
use crate::engine::Engine;
use crate::payload::WeightedSlot;
use crate::stats::StructureStats;
use graph_api::{
    DynamicGraph, EdgeExport, EdgeImport, EdgeRecord, GraphScheme, MemoryFootprint, NodeId,
    WeightedDynamicGraph, WeightedEdge,
};

/// CuckooGraph, extended (weighted) version.
///
/// Each small slot stores `⟨v, w⟩` instead of just `v`, so the inline capacity
/// of Part 2 is `R` slots rather than `2R` (§ III-B). Re-inserting an existing
/// edge increments its weight; deleting decrements and removes at zero.
///
/// ```
/// use cuckoograph::WeightedCuckooGraph;
/// use graph_api::WeightedDynamicGraph;
///
/// let mut g = WeightedCuckooGraph::new();
/// assert_eq!(g.insert_weighted(1, 2, 1), 1);
/// assert_eq!(g.insert_weighted(1, 2, 1), 2); // duplicate edge: weight bump
/// assert_eq!(g.weight(1, 2), 2);
/// assert_eq!(g.delete_weighted(1, 2, 2), 0); // weight hits zero: edge removed
/// assert_eq!(g.weight(1, 2), 0);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedCuckooGraph {
    engine: Engine<WeightedSlot>,
}

impl WeightedCuckooGraph {
    /// Creates a weighted graph with the paper's default parameters.
    pub fn new() -> Self {
        Self::with_config(CuckooGraphConfig::default())
    }

    /// Creates a weighted graph with a custom configuration.
    pub fn with_config(config: CuckooGraphConfig) -> Self {
        let small_slots = config.weighted_small_slots();
        Self {
            engine: Engine::new(config, small_slots),
        }
    }

    /// The configuration this graph runs with.
    pub fn config(&self) -> &CuckooGraphConfig {
        self.engine.config()
    }

    /// Structural statistics and instrumentation counters.
    pub fn stats(&self) -> StructureStats {
        self.engine.stats()
    }

    /// Collects every stored weighted edge. Order is unspecified.
    pub fn weighted_edges(&self) -> Vec<WeightedEdge> {
        let mut out = Vec::with_capacity(self.engine.edge_count());
        self.engine
            .for_each_edge(|u, slot| out.push(WeightedEdge::new(u, slot.v, slot.w)));
        out
    }

    /// Total weight across all edges (the number of raw stream items absorbed,
    /// when every insertion uses `delta = 1`).
    pub fn total_weight(&self) -> u64 {
        let mut sum = 0;
        self.engine.for_each_edge(|_, slot| sum += slot.w);
        sum
    }

    /// Compacts the engine's slot arena — see
    /// [`CuckooGraph::compact_arena`](crate::CuckooGraph::compact_arena).
    pub fn compact_arena(&mut self) -> usize {
        self.engine.compact_arena()
    }
}

impl Default for WeightedCuckooGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryFootprint for WeightedCuckooGraph {
    fn memory_bytes(&self) -> usize {
        self.engine.memory_bytes()
    }
}

impl EdgeExport for WeightedCuckooGraph {
    fn for_each_edge_record(&self, f: &mut dyn FnMut(EdgeRecord)) {
        self.engine
            .for_each_edge(|u, slot| f(EdgeRecord::weighted(u, slot.v, slot.w)));
    }

    fn edge_record_count(&self) -> usize {
        self.engine.edge_count()
    }
}

impl EdgeImport for WeightedCuckooGraph {
    fn import_edge_records(&mut self, records: &[EdgeRecord]) {
        self.engine.insert_batch(
            records,
            |r| (r.source, r.target),
            |r| WeightedSlot {
                v: r.target,
                w: r.weight,
            },
            |r, slot| slot.w += r.weight,
        );
    }
}

impl WeightedDynamicGraph for WeightedCuckooGraph {
    fn insert_weighted(&mut self, u: NodeId, v: NodeId, delta: u64) -> u64 {
        // § III-B insertion: an existing item bumps its weight and returns.
        // `upsert` resolves the `u` cell once for the probe and the insert.
        let mut new_weight = delta;
        self.engine.upsert(
            u,
            v,
            || WeightedSlot { v, w: delta },
            |slot| {
                slot.w += delta;
                new_weight = slot.w;
            },
        );
        new_weight
    }

    fn weight(&self, u: NodeId, v: NodeId) -> u64 {
        self.engine.get(u, v).map_or(0, |slot| slot.w)
    }

    fn delete_weighted(&mut self, u: NodeId, v: NodeId, delta: u64) -> u64 {
        let remaining = match self.engine.get_mut(u, v) {
            None => return 0,
            Some(slot) => {
                slot.w = slot.w.saturating_sub(delta);
                slot.w
            }
        };
        if remaining == 0 {
            self.engine.remove(u, v);
        }
        remaining
    }

    fn for_each_weighted_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, u64)) {
        self.engine.for_each_payload(u, |slot| f(slot.v, slot.w));
    }

    fn insert_weighted_edges(&mut self, edges: &[(NodeId, NodeId, u64)]) -> usize {
        self.engine.insert_batch(
            edges,
            |&(u, v, _)| (u, v),
            |&(_, v, w)| WeightedSlot { v, w },
            |&(_, _, w), slot| slot.w += w,
        )
    }

    fn distinct_edge_count(&self) -> usize {
        self.engine.edge_count()
    }
}

/// The weighted graph also exposes the unweighted [`DynamicGraph`] surface so
/// the analytics algorithms and the benchmark driver can run on it directly
/// (an edge exists when its weight is non-zero).
impl DynamicGraph for WeightedCuckooGraph {
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if self.engine.contains(u, v) {
            self.insert_weighted(u, v, 1);
            false
        } else {
            self.insert_weighted(u, v, 1);
            true
        }
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.engine.contains(u, v)
    }

    fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.engine.remove(u, v).is_some()
    }

    fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        // Successor ids are exactly what the scan segments mirror, so the
        // weighted graph's unweighted scan surface rides the contiguous run
        // too; the weighted scan keeps the table walk (weights live in the
        // payload slots only).
        self.engine.for_each_successor_id(u, f);
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId)) {
        self.engine.for_each_node(f);
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.engine.out_degree(u)
    }

    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        // Mirrors `insert_edge`: a duplicate bumps the weight instead of
        // being ignored, but only newly created distinct edges are counted.
        self.engine.insert_batch(
            edges,
            |&e| e,
            |&(_, v)| WeightedSlot { v, w: 1 },
            |_, slot| slot.w += 1,
        )
    }

    fn remove_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        // Mirrors `delete_edge`: the whole edge goes regardless of its weight.
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
    fn duplicate_edges_accumulate_weight() {
        let mut g = WeightedCuckooGraph::new();
        for _ in 0..5 {
            g.insert_weighted(1, 2, 1);
        }
        assert_eq!(g.weight(1, 2), 5);
        assert_eq!(g.distinct_edge_count(), 1);
        assert_eq!(g.total_weight(), 5);
    }

    #[test]
    fn delete_decrements_and_removes_at_zero() {
        let mut g = WeightedCuckooGraph::new();
        g.insert_weighted(1, 2, 3);
        assert_eq!(g.delete_weighted(1, 2, 1), 2);
        assert_eq!(g.delete_weighted(1, 2, 1), 1);
        assert_eq!(g.delete_weighted(1, 2, 1), 0);
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.delete_weighted(1, 2, 1), 0);
        assert_eq!(g.distinct_edge_count(), 0);
    }

    #[test]
    fn custom_delta_and_saturation() {
        let mut g = WeightedCuckooGraph::new();
        g.insert_weighted(4, 5, 10);
        assert_eq!(g.weight(4, 5), 10);
        // Over-deleting saturates at zero and removes the edge.
        assert_eq!(g.delete_weighted(4, 5, 100), 0);
        assert!(!g.has_edge(4, 5));
    }

    #[test]
    fn streaming_workload_with_many_duplicates() {
        // CAIDA-like: 27M raw items dedup to 0.85M edges; here a small version
        // with a 10:1 duplication ratio.
        let mut g = WeightedCuckooGraph::new();
        for round in 0..10u64 {
            for k in 0..2_000u64 {
                let (u, v) = (k % 200, k / 200 + round % 2);
                g.insert_weighted(u, v, 1);
            }
        }
        assert!(g.distinct_edge_count() <= 2_200);
        assert_eq!(g.total_weight(), 20_000);
        // Weights are consistent with the number of repetitions.
        let edges = g.weighted_edges();
        assert_eq!(edges.iter().map(|e| e.weight).sum::<u64>(), 20_000);
    }

    #[test]
    fn dynamic_graph_view_matches_weighted_state() {
        let mut g = WeightedCuckooGraph::new();
        assert!(g.insert_edge(1, 2));
        assert!(!g.insert_edge(1, 2));
        assert_eq!(g.weight(1, 2), 2);
        assert_eq!(g.successors(1), vec![2]);
        assert_eq!(g.out_degree(1), 1);
        assert!(g.delete_edge(1, 2));
        assert_eq!(g.weight(1, 2), 0);
        assert_eq!(g.scheme(), GraphScheme::CuckooGraph);
    }

    #[test]
    fn high_degree_weighted_node_round_trips() {
        let mut g = WeightedCuckooGraph::new();
        for v in 0..800u64 {
            g.insert_weighted(9, v, v + 1);
        }
        for v in (0..800u64).step_by(53) {
            assert_eq!(g.weight(9, v), v + 1);
        }
        assert_eq!(g.out_degree(9), 800);
        assert!(g.memory_bytes() > 0);
        assert_eq!(g.stats().edges, 800);
    }
}
