//! The multi-edge adaptation of CuckooGraph used by the Neo4j integration
//! (§ V-G): property-graph databases allow several parallel edges between the
//! same node pair, so the per-pair weight counter is replaced by a list of
//! edge identifiers and the query interface returns an iterator over them.

use crate::config::CuckooGraphConfig;
use crate::engine::Engine;
use crate::payload::MultiSlot;
use graph_api::{
    DynamicGraph, EdgeExport, EdgeImport, EdgeRecord, GraphScheme, MemoryFootprint, NodeId,
};

/// Identifier of a concrete (parallel) edge, assigned by the caller — the
/// graph database hands its relationship ids straight through.
pub type EdgeId = u64;

/// CuckooGraph adapted for multi-edges (parallel relationships).
///
/// ```
/// use cuckoograph::MultiEdgeCuckooGraph;
///
/// let mut g = MultiEdgeCuckooGraph::new();
/// g.add_edge(1, 2, 100);
/// g.add_edge(1, 2, 101); // a second, parallel relationship
/// let ids: Vec<_> = g.edges_between(1, 2).collect();
/// assert_eq!(ids, vec![100, 101]);
/// assert!(g.remove_edge(1, 2, 100));
/// assert_eq!(g.edge_multiplicity(1, 2), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MultiEdgeCuckooGraph {
    engine: Engine<MultiSlot>,
    total_edges: usize,
    /// Next identifier handed out by the [`DynamicGraph`] view. Auto ids
    /// descend from `EdgeId::MAX` while callers (e.g. the graph database
    /// handing relationship ids through) conventionally count up from 0, so
    /// the two styles stay disjoint in practice; an exact hit on the next
    /// auto id is additionally skipped in [`MultiEdgeCuckooGraph::add_edge`].
    next_auto_id: EdgeId,
}

impl MultiEdgeCuckooGraph {
    /// Creates a multi-edge graph with the paper's default parameters.
    pub fn new() -> Self {
        Self::with_config(CuckooGraphConfig::default())
    }

    /// Creates a multi-edge graph with a custom configuration.
    pub fn with_config(config: CuckooGraphConfig) -> Self {
        // Like the weighted version, each slot carries extra information, so
        // the inline capacity is R rather than 2R.
        let small_slots = config.weighted_small_slots();
        Self {
            engine: Engine::new(config, small_slots),
            total_edges: 0,
            next_auto_id: EdgeId::MAX,
        }
    }

    /// Registers the parallel edge `edge_id` between `u` and `v`. Duplicate
    /// registrations of the same id are ignored.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, edge_id: EdgeId) -> bool {
        if edge_id == self.next_auto_id {
            self.next_auto_id = self.next_auto_id.saturating_sub(1);
        }
        // `upsert` resolves the `u` cell once for the append probe and the
        // insert that follows a miss.
        let mut added = true;
        self.engine.upsert(
            u,
            v,
            || MultiSlot {
                v,
                edges: vec![edge_id],
            },
            |slot| {
                if slot.edges.contains(&edge_id) {
                    added = false;
                } else {
                    slot.edges.push(edge_id);
                }
            },
        );
        if added {
            self.total_edges += 1;
        }
        added
    }

    /// Registers a batch of parallel edges `(u, v, edge_id)`, hoisting the
    /// node-cell resolution out of the loop for runs of same-source edges —
    /// the bulk-load path the graph-database import uses. Duplicate ids on a
    /// pair are ignored, as in [`MultiEdgeCuckooGraph::add_edge`]. Returns the
    /// number of edges actually registered.
    pub fn add_edges(&mut self, edges: &[(NodeId, NodeId, EdgeId)]) -> usize {
        for &(_, _, edge_id) in edges {
            if edge_id == self.next_auto_id {
                self.next_auto_id = self.next_auto_id.saturating_sub(1);
            }
        }
        let mut appended = 0usize;
        let created = self.engine.insert_batch(
            edges,
            |&(u, v, _)| (u, v),
            |&(_, v, id)| MultiSlot { v, edges: vec![id] },
            |&(_, _, id), slot| {
                if !slot.edges.contains(&id) {
                    slot.edges.push(id);
                    appended += 1;
                }
            },
        );
        self.total_edges += created + appended;
        created + appended
    }

    /// True if at least one edge connects `u` to `v`.
    pub fn has_any_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.engine.contains(u, v)
    }

    /// Number of parallel edges between `u` and `v`.
    pub fn edge_multiplicity(&self, u: NodeId, v: NodeId) -> usize {
        self.engine.get(u, v).map_or(0, |slot| slot.edges.len())
    }

    /// Iterates over the identifiers of every parallel edge `u → v` — the O(1)
    /// lookup the Neo4j integration exposes instead of scanning `u`'s whole
    /// adjacency list.
    pub fn edges_between(&self, u: NodeId, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.engine
            .get(u, v)
            .map(|slot| slot.edges.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// Removes the concrete edge `edge_id` between `u` and `v`; when it was
    /// the last parallel edge the pair entry is removed entirely.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId, edge_id: EdgeId) -> bool {
        let now_empty = match self.engine.get_mut(u, v) {
            None => return false,
            Some(slot) => {
                let Some(idx) = slot.edges.iter().position(|&e| e == edge_id) else {
                    return false;
                };
                slot.edges.swap_remove(idx);
                slot.edges.is_empty()
            }
        };
        self.total_edges -= 1;
        if now_empty {
            self.engine.remove(u, v);
        }
        true
    }

    /// Total number of concrete (parallel) edges stored.
    pub fn total_edge_count(&self) -> usize {
        self.total_edges
    }

    /// Number of distinct `⟨u, v⟩` pairs stored.
    pub fn pair_count(&self) -> usize {
        self.engine.edge_count()
    }

    /// Number of distinct source nodes.
    pub fn node_count(&self) -> usize {
        self.engine.node_count()
    }

    /// Compacts the engine's slot arena — see
    /// [`CuckooGraph::compact_arena`](crate::CuckooGraph::compact_arena).
    pub fn compact_arena(&mut self) -> usize {
        self.engine.compact_arena()
    }
}

impl Default for MultiEdgeCuckooGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryFootprint for MultiEdgeCuckooGraph {
    fn memory_bytes(&self) -> usize {
        self.engine.memory_bytes()
    }
}

impl EdgeExport for MultiEdgeCuckooGraph {
    fn for_each_edge_record(&self, f: &mut dyn FnMut(EdgeRecord)) {
        self.engine.for_each_edge(|u, slot| {
            f(EdgeRecord {
                source: u,
                target: slot.v,
                weight: 1,
                multiplicity: slot.edges.len() as u32,
            })
        });
    }

    fn edge_record_count(&self) -> usize {
        // One record per distinct pair; parallel edges fold into multiplicity.
        self.engine.edge_count()
    }
}

impl EdgeImport for MultiEdgeCuckooGraph {
    fn import_edge_records(&mut self, records: &[EdgeRecord]) {
        // Identifiers are not part of the stable record, so every parallel
        // edge materialises under a fresh auto id.
        let total: usize = records.iter().map(|r| r.multiplicity.max(1) as usize).sum();
        let mut batch = Vec::with_capacity(total);
        for r in records {
            for _ in 0..r.multiplicity.max(1) {
                let id = self.next_auto_id;
                self.next_auto_id = self.next_auto_id.saturating_sub(1);
                batch.push((r.source, r.target, id));
            }
        }
        self.add_edges(&batch);
    }
}

/// The distinct-pair view: each `⟨u, v⟩` pair counts as one edge regardless of
/// how many parallel relationships it holds. Trait-level inserts allocate
/// fresh edge identifiers descending from `EdgeId::MAX` (disjoint from the
/// 0-counting ids callers conventionally assign); deleting removes the pair
/// with all its parallel edges.
impl DynamicGraph for MultiEdgeCuckooGraph {
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let next_auto_id = &mut self.next_auto_id;
        let created = self.engine.upsert(
            u,
            v,
            || {
                let id = *next_auto_id;
                *next_auto_id = next_auto_id.saturating_sub(1);
                MultiSlot { v, edges: vec![id] }
            },
            |_| {},
        );
        if created {
            self.total_edges += 1;
        }
        created
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.has_any_edge(u, v)
    }

    fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        match self.engine.remove(u, v) {
            Some(slot) => {
                self.total_edges -= slot.edges.len();
                true
            }
            None => false,
        }
    }

    fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        // Distinct destinations are exactly what the scan segments mirror, so
        // the multi-edge scan surface rides the contiguous run too.
        self.engine.for_each_successor_id(u, f);
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId)) {
        self.engine.for_each_node(f);
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.engine.out_degree(u)
    }

    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        let next_auto_id = &mut self.next_auto_id;
        let created = self.engine.insert_batch(
            edges,
            |&e| e,
            |&(_, v)| {
                let id = *next_auto_id;
                *next_auto_id = next_auto_id.saturating_sub(1);
                MultiSlot { v, edges: vec![id] }
            },
            |_, _| {},
        );
        self.total_edges += created;
        created
    }

    fn edge_count(&self) -> usize {
        self.pair_count()
    }

    fn node_count(&self) -> usize {
        MultiEdgeCuckooGraph::node_count(self)
    }

    fn scheme(&self) -> GraphScheme {
        GraphScheme::CuckooGraph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_edges_are_kept_separately() {
        let mut g = MultiEdgeCuckooGraph::new();
        assert!(g.add_edge(1, 2, 10));
        assert!(g.add_edge(1, 2, 11));
        assert!(g.add_edge(1, 2, 12));
        assert!(!g.add_edge(1, 2, 10), "duplicate id must be ignored");
        assert_eq!(g.edge_multiplicity(1, 2), 3);
        assert_eq!(g.total_edge_count(), 3);
        assert_eq!(g.pair_count(), 1);
        let ids: Vec<_> = g.edges_between(1, 2).collect();
        assert_eq!(ids, vec![10, 11, 12]);
    }

    #[test]
    fn removing_last_parallel_edge_clears_the_pair() {
        let mut g = MultiEdgeCuckooGraph::new();
        g.add_edge(1, 2, 10);
        g.add_edge(1, 2, 11);
        assert!(g.remove_edge(1, 2, 10));
        assert!(g.has_any_edge(1, 2));
        assert!(g.remove_edge(1, 2, 11));
        assert!(!g.has_any_edge(1, 2));
        assert!(!g.remove_edge(1, 2, 11));
        assert_eq!(g.total_edge_count(), 0);
        assert_eq!(g.pair_count(), 0);
    }

    #[test]
    fn auto_ids_do_not_swallow_caller_ids() {
        use graph_api::DynamicGraph;
        let mut g = MultiEdgeCuckooGraph::new();
        // Trait-level insert hands out an auto id at the top of the id space…
        assert!(g.insert_edge(1, 2));
        // …so a caller registering its own 0-based relationship ids on the
        // same pair (or any other) is never treated as a duplicate.
        assert!(g.add_edge(1, 2, 0));
        assert_eq!(g.edge_multiplicity(1, 2), 2);
        assert!(g.add_edge(3, 4, 0));
        assert_eq!(g.total_edge_count(), 3);
        // Even an exact hit on the next auto id is skipped, not reused.
        let next = g.next_auto_id;
        assert!(g.add_edge(5, 6, next));
        assert!(g.insert_edge(5, 7));
        let auto: Vec<_> = g.edges_between(5, 7).collect();
        assert_ne!(auto[0], next, "auto allocator reused a caller id");
    }

    #[test]
    fn iterator_is_empty_for_unknown_pairs() {
        let g = MultiEdgeCuckooGraph::new();
        assert_eq!(g.edges_between(5, 6).count(), 0);
        assert_eq!(g.edge_multiplicity(5, 6), 0);
    }

    #[test]
    fn many_pairs_and_parallel_edges_round_trip() {
        let mut g = MultiEdgeCuckooGraph::new();
        let mut next_id = 0u64;
        for u in 0..100u64 {
            for v in 0..20u64 {
                for _ in 0..3 {
                    g.add_edge(u, v, next_id);
                    next_id += 1;
                }
            }
        }
        assert_eq!(g.total_edge_count(), 100 * 20 * 3);
        assert_eq!(g.pair_count(), 100 * 20);
        assert_eq!(g.node_count(), 100);
        assert_eq!(g.edge_multiplicity(42, 7), 3);
        assert_eq!(g.successors(3).len(), 20);
        assert!(g.memory_bytes() > 0);
    }
}
