//! Sortledton-like baseline: adjacency index + sorted, blocked adjacency sets.
//!
//! Sortledton \[34\] keeps a *vertex index* mapping each vertex to its
//! *adjacency set*, stored as a sequence of fixed-capacity sorted blocks
//! (an unrolled sorted list). Small neighbourhoods live in a single block;
//! larger ones are split so that insertions only shift within one block and
//! scans remain mostly sequential. Edge queries binary-search the block
//! directory and then the block, giving the `O(log |E|)` bound in Table III.

use graph_api::{for_each_source_run, DynamicGraph, GraphScheme, MemoryFootprint, NodeId};
use std::collections::HashMap;

/// Capacity of one adjacency block (Sortledton uses cache-line-sized blocks
/// for small sets and larger leaf blocks for big sets; 64 ids ≈ 512 B).
const BLOCK_CAPACITY: usize = 64;

/// A sorted, blocked adjacency set.
#[derive(Debug, Clone, Default)]
struct AdjacencySet {
    /// Blocks in ascending order; each block is internally sorted and
    /// non-empty (except when the whole set is empty).
    blocks: Vec<Vec<NodeId>>,
    len: usize,
}

impl AdjacencySet {
    /// Index of the block that could contain `v`.
    fn block_for(&self, v: NodeId) -> usize {
        // Binary search over block maxima.
        let mut lo = 0usize;
        let mut hi = self.blocks.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            let max = *self.blocks[mid].last().expect("blocks are non-empty");
            if max < v {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.min(self.blocks.len().saturating_sub(1))
    }

    fn contains(&self, v: NodeId) -> bool {
        if self.blocks.is_empty() {
            return false;
        }
        let b = self.block_for(v);
        self.blocks[b].binary_search(&v).is_ok()
    }

    fn insert(&mut self, v: NodeId) -> bool {
        if self.blocks.is_empty() {
            self.blocks.push(vec![v]);
            self.len = 1;
            return true;
        }
        let b = self.block_for(v);
        match self.blocks[b].binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.blocks[b].insert(pos, v);
                self.len += 1;
                if self.blocks[b].len() > BLOCK_CAPACITY {
                    // Split the block in half, keeping the directory sorted.
                    let tail = self.blocks[b].split_off(BLOCK_CAPACITY / 2);
                    self.blocks.insert(b + 1, tail);
                }
                true
            }
        }
    }

    fn remove(&mut self, v: NodeId) -> bool {
        if self.blocks.is_empty() {
            return false;
        }
        let b = self.block_for(v);
        match self.blocks[b].binary_search(&v) {
            Err(_) => false,
            Ok(pos) => {
                self.blocks[b].remove(pos);
                self.len -= 1;
                if self.blocks[b].is_empty() {
                    self.blocks.remove(b);
                }
                true
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.blocks.iter().flatten().copied()
    }

    fn bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<Vec<NodeId>>()
            + self
                .blocks
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<NodeId>())
                .sum::<usize>()
    }
}

/// Sortledton-like dynamic graph store.
#[derive(Debug, Clone, Default)]
pub struct SortledtonGraph {
    index: HashMap<NodeId, AdjacencySet>,
    edges: usize,
}

impl SortledtonGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of adjacency blocks allocated across all vertices (test hook for
    /// the blocked layout).
    pub fn block_count(&self) -> usize {
        self.index.values().map(|s| s.blocks.len()).sum()
    }
}

impl MemoryFootprint for SortledtonGraph {
    fn memory_bytes(&self) -> usize {
        let index_bytes = self.index.capacity()
            * (std::mem::size_of::<NodeId>() + std::mem::size_of::<AdjacencySet>() + 8);
        let set_bytes: usize = self.index.values().map(AdjacencySet::bytes).sum();
        std::mem::size_of::<Self>() + index_bytes + set_bytes
    }
}

impl DynamicGraph for SortledtonGraph {
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let inserted = self.index.entry(u).or_default().insert(v);
        if inserted {
            self.edges += 1;
        }
        inserted
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.index.get(&u).is_some_and(|s| s.contains(v))
    }

    fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let Some(set) = self.index.get_mut(&u) else {
            return false;
        };
        let removed = set.remove(v);
        if removed {
            self.edges -= 1;
        }
        removed
    }

    fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        if let Some(set) = self.index.get(&u) {
            for v in set.iter() {
                f(v);
            }
        }
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId)) {
        for &u in self.index.keys() {
            f(u);
        }
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.index.get(&u).map_or(0, |s| s.len)
    }

    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        // One vertex-index lookup per run of same-source edges; the blocked
        // set still binary-searches per destination.
        let mut created = 0usize;
        for_each_source_run(
            edges,
            |e| e.0,
            |u, run| {
                let set = self.index.entry(u).or_default();
                for &(_, v) in run {
                    if set.insert(v) {
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
        self.index.len()
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.index.keys().copied().collect()
    }

    fn scheme(&self) -> GraphScheme {
        GraphScheme::Sortledton
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_delete_roundtrip() {
        let mut g = SortledtonGraph::new();
        assert!(g.insert_edge(1, 5));
        assert!(g.insert_edge(1, 3));
        assert!(!g.insert_edge(1, 5));
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(1, 4));
        assert!(g.delete_edge(1, 3));
        assert!(!g.delete_edge(1, 3));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn successors_are_returned_sorted() {
        let mut g = SortledtonGraph::new();
        for v in [9u64, 1, 7, 3, 5] {
            g.insert_edge(2, v);
        }
        assert_eq!(g.successors(2), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn blocks_split_for_large_neighbourhoods() {
        let mut g = SortledtonGraph::new();
        for v in 0..1_000u64 {
            g.insert_edge(1, v);
        }
        assert_eq!(g.out_degree(1), 1_000);
        assert!(g.block_count() > 1, "adjacency set never split into blocks");
        // Sorted order must survive block splits.
        let s = g.successors(1);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s.len(), 1_000);
        for v in (0..1_000u64).step_by(83) {
            assert!(g.has_edge(1, v));
        }
    }

    #[test]
    fn deletion_drains_blocks() {
        let mut g = SortledtonGraph::new();
        for v in 0..300u64 {
            g.insert_edge(4, v);
        }
        for v in 0..300u64 {
            assert!(g.delete_edge(4, v));
        }
        assert_eq!(g.out_degree(4), 0);
        assert_eq!(g.block_count(), 0);
        assert!(g.successors(4).is_empty());
        assert_eq!(g.scheme(), GraphScheme::Sortledton);
    }

    #[test]
    fn interleaved_sources_stay_independent() {
        let mut g = SortledtonGraph::new();
        for i in 0..500u64 {
            g.insert_edge(i % 5, i);
        }
        for u in 0..5u64 {
            assert_eq!(g.out_degree(u), 100);
        }
        assert_eq!(g.node_count(), 5);
        assert!(g.memory_bytes() > 0);
    }
}
