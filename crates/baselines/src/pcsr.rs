//! PCSR-like baseline: a mutable CSR whose neighbour storage is a Packed
//! Memory Array.
//!
//! PCSR \[26\] replaces the static neighbour array of CSR with a PMA so edges
//! can be inserted and deleted without rebuilding the whole structure. Each
//! edge is stored in the PMA as a single sorted 128-bit-conceptual key
//! `(source, destination)` packed into 64 bits via a per-source interval; the
//! vertex index maps a node to its interval. To keep the substrate simple and
//! exercise the same code path, this implementation gives every source node
//! its own PMA (the "per-vertex PMA region" view of VCSR), which preserves the
//! properties the comparison cares about: sorted, gap-padded neighbour
//! storage with amortised-bounded shifting on update.

use crate::pma::PackedMemoryArray;
use graph_api::{for_each_source_run, DynamicGraph, GraphScheme, MemoryFootprint, NodeId};
use std::collections::HashMap;

/// PCSR-like dynamic graph.
#[derive(Debug, Clone, Default)]
pub struct PcsrGraph {
    vertex_index: HashMap<NodeId, PackedMemoryArray>,
    edges: usize,
}

impl PcsrGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of PMA slots allocated (occupied + gaps) — the space
    /// overhead CSR-family structures pay for updatability.
    pub fn total_slots(&self) -> usize {
        self.vertex_index
            .values()
            .map(PackedMemoryArray::capacity)
            .sum()
    }
}

impl MemoryFootprint for PcsrGraph {
    fn memory_bytes(&self) -> usize {
        let index_bytes = self.vertex_index.capacity()
            * (std::mem::size_of::<NodeId>() + std::mem::size_of::<PackedMemoryArray>() + 8);
        let pma_bytes: usize = self.vertex_index.values().map(|p| p.memory_bytes()).sum();
        std::mem::size_of::<Self>() + index_bytes + pma_bytes
    }
}

impl DynamicGraph for PcsrGraph {
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let inserted = self.vertex_index.entry(u).or_default().insert(v);
        if inserted {
            self.edges += 1;
        }
        inserted
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.vertex_index.get(&u).is_some_and(|p| p.contains(v))
    }

    fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let Some(pma) = self.vertex_index.get_mut(&u) else {
            return false;
        };
        let removed = pma.remove(v);
        if removed {
            self.edges -= 1;
        }
        removed
    }

    fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        if let Some(pma) = self.vertex_index.get(&u) {
            for v in pma.iter() {
                f(v);
            }
        }
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId)) {
        for &u in self.vertex_index.keys() {
            f(u);
        }
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.vertex_index.get(&u).map_or(0, PackedMemoryArray::len)
    }

    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        // One vertex-index lookup per run of same-source edges; the PMA does
        // its usual gap-shifting insert per destination.
        let mut created = 0usize;
        for_each_source_run(
            edges,
            |e| e.0,
            |u, run| {
                let pma = self.vertex_index.entry(u).or_default();
                for &(_, v) in run {
                    if pma.insert(v) {
                        created += 1;
                    }
                }
            },
        );
        self.edges += created;
        created
    }

    fn edge_count(&self) -> usize {
        self.edges
    }

    fn node_count(&self) -> usize {
        self.vertex_index.len()
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.vertex_index.keys().copied().collect()
    }

    fn scheme(&self) -> GraphScheme {
        GraphScheme::Pcsr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_delete_roundtrip() {
        let mut g = PcsrGraph::new();
        assert!(g.insert_edge(1, 2));
        assert!(!g.insert_edge(1, 2));
        assert!(g.has_edge(1, 2));
        assert!(g.delete_edge(1, 2));
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.scheme(), GraphScheme::Pcsr);
    }

    #[test]
    fn neighbours_are_sorted_like_csr() {
        let mut g = PcsrGraph::new();
        for v in [9u64, 2, 7, 4, 1] {
            g.insert_edge(5, v);
        }
        assert_eq!(g.successors(5), vec![1, 2, 4, 7, 9]);
        assert_eq!(g.out_degree(5), 5);
    }

    #[test]
    fn gap_padding_costs_extra_slots() {
        let mut g = PcsrGraph::new();
        for v in 0..1_000u64 {
            g.insert_edge(1, v);
        }
        assert!(g.total_slots() > 1_000, "PMA keeps gaps for future inserts");
        assert!(g.memory_bytes() > 1_000 * 8);
        for v in (0..1_000u64).step_by(113) {
            assert!(g.has_edge(1, v));
        }
    }

    #[test]
    fn many_sources_round_trip() {
        let mut g = PcsrGraph::new();
        for u in 0..100u64 {
            for v in 0..30u64 {
                g.insert_edge(u, v * 2);
            }
        }
        assert_eq!(g.edge_count(), 3_000);
        assert_eq!(g.node_count(), 100);
        for u in (0..100u64).step_by(17) {
            assert_eq!(g.out_degree(u), 30);
            assert!(g.has_edge(u, 58));
            assert!(!g.has_edge(u, 59));
        }
        let mut nodes = g.nodes();
        nodes.sort_unstable();
        assert_eq!(nodes.len(), 100);
    }
}
