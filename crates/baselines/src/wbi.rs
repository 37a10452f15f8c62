//! Wind-Bell Index (WBI) baseline: adjacency matrix + hanging adjacency lists.
//!
//! WBI \[35\] hashes both endpoints of an edge into a `K × K` matrix of buckets;
//! each bucket carries a pointer to a "hanging" adjacency list that stores the
//! edges mapped to it. To mitigate the skew caused by high-degree nodes, every
//! edge has several candidate buckets (one per hash function) and insertion
//! appends to the *shortest* hanging list; queries therefore have to look at
//! every candidate bucket. Successor queries must scan an entire matrix row
//! per hash function, touching many unrelated edges — the reason WBI performs
//! worst on traversal-heavy tasks in the paper's Figures 10–16.

use graph_api::{for_each_source_run, DynamicGraph, GraphScheme, MemoryFootprint, NodeId};
use std::collections::HashSet;

/// Default matrix side length `K` (the paper treats `K` as a WBI parameter;
/// its space complexity is `O(K² + |E|)`).
pub const DEFAULT_K: usize = 64;

/// Number of hash functions / candidate buckets per edge.
const HASH_CHOICES: usize = 2;

#[derive(Debug, Clone, Default)]
struct Bucket {
    edges: Vec<(NodeId, NodeId)>,
}

/// Wind-Bell Index graph store.
#[derive(Debug, Clone)]
pub struct WindBellIndex {
    k: usize,
    /// Row-major `K × K` bucket matrix.
    matrix: Vec<Bucket>,
    /// Known source nodes (WBI itself has no vertex table; the evaluation
    /// driver needs node listings, so we track sources separately).
    sources: HashSet<NodeId>,
    edges: usize,
}

impl Default for WindBellIndex {
    fn default() -> Self {
        Self::with_k(DEFAULT_K)
    }
}

impl WindBellIndex {
    /// Creates a WBI with the default matrix size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a WBI with a `k × k` matrix.
    pub fn with_k(k: usize) -> Self {
        let k = k.max(1);
        Self {
            k,
            matrix: vec![Bucket::default(); k * k],
            sources: HashSet::new(),
            edges: 0,
        }
    }

    /// The matrix side length.
    pub fn k(&self) -> usize {
        self.k
    }

    #[inline]
    fn hash_node(node: NodeId, which: usize) -> u64 {
        // Two cheap independent mixers standing in for the paper's multiple
        // hash functions.
        let seed = [0x9e37_79b9_7f4a_7c15u64, 0xc2b2_ae3d_27d4_eb4fu64][which];
        let mut x = node ^ seed;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x
    }

    /// Candidate matrix cells of edge `⟨u, v⟩`, one per hash function.
    fn candidate_cells(&self, u: NodeId, v: NodeId) -> [usize; HASH_CHOICES] {
        let mut cells = [0usize; HASH_CHOICES];
        for (i, cell) in cells.iter_mut().enumerate() {
            let row = (Self::hash_node(u, i) as usize) % self.k;
            let col = (Self::hash_node(v, i) as usize) % self.k;
            *cell = row * self.k + col;
        }
        cells
    }

    /// Candidate rows of source `u`, one per hash function.
    fn candidate_rows(&self, u: NodeId) -> [usize; HASH_CHOICES] {
        let mut rows = [0usize; HASH_CHOICES];
        for (i, row) in rows.iter_mut().enumerate() {
            *row = (Self::hash_node(u, i) as usize) % self.k;
        }
        rows
    }

    /// Average hanging-list length (test hook for the load-balancing claim).
    pub fn average_list_length(&self) -> f64 {
        let non_empty = self.matrix.iter().filter(|b| !b.edges.is_empty()).count();
        if non_empty == 0 {
            0.0
        } else {
            self.edges as f64 / non_empty as f64
        }
    }
}

impl MemoryFootprint for WindBellIndex {
    fn memory_bytes(&self) -> usize {
        let matrix_bytes = self.matrix.capacity() * std::mem::size_of::<Bucket>();
        let list_bytes: usize = self
            .matrix
            .iter()
            .map(|b| b.edges.capacity() * std::mem::size_of::<(NodeId, NodeId)>())
            .sum();
        let source_bytes = self.sources.capacity() * (std::mem::size_of::<NodeId>() + 8);
        std::mem::size_of::<Self>() + matrix_bytes + list_bytes + source_bytes
    }
}

impl DynamicGraph for WindBellIndex {
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if self.has_edge(u, v) {
            return false;
        }
        // Multi-hash choice: append to the shortest candidate hanging list.
        let cells = self.candidate_cells(u, v);
        let shortest = cells
            .into_iter()
            .min_by_key(|&c| self.matrix[c].edges.len())
            .expect("at least one candidate cell");
        self.matrix[shortest].edges.push((u, v));
        self.sources.insert(u);
        self.edges += 1;
        true
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.candidate_cells(u, v)
            .into_iter()
            .any(|c| self.matrix[c].edges.iter().any(|&(a, b)| a == u && b == v))
    }

    fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        for c in self.candidate_cells(u, v) {
            let bucket = &mut self.matrix[c];
            if let Some(idx) = bucket.edges.iter().position(|&(a, b)| a == u && b == v) {
                bucket.edges.swap_remove(idx);
                self.edges -= 1;
                return true;
            }
        }
        false
    }

    fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        // A successor query must scan the candidate rows of `u` in full,
        // touching every edge hanging off those rows (including edges of other
        // sources that happen to share the rows) — WBI's structural weakness.
        // Each stored edge lives in exactly one bucket and the duplicate row
        // guard skips coinciding candidate rows, so every successor is
        // reported exactly once.
        let mut seen_rows = [usize::MAX; HASH_CHOICES];
        for (i, row) in self.candidate_rows(u).into_iter().enumerate() {
            if seen_rows[..i].contains(&row) {
                continue;
            }
            seen_rows[i] = row;
            for col in 0..self.k {
                for &(a, b) in &self.matrix[row * self.k + col].edges {
                    if a == u {
                        f(b);
                    }
                }
            }
        }
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId)) {
        for &u in &self.sources {
            f(u);
        }
    }

    fn successors(&self, u: NodeId) -> Vec<NodeId> {
        // Sorted for deterministic output (the visitor reports matrix order).
        let mut out = Vec::new();
        self.for_each_successor(u, &mut |v| out.push(v));
        out.sort_unstable();
        out.dedup();
        out
    }

    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        // Every edge still hashes into the matrix individually; the only
        // hoistable setup is the source registration, done once per run.
        let mut created = 0usize;
        for_each_source_run(
            edges,
            |e| e.0,
            |u, run| {
                let mut any = false;
                for &(_, v) in run {
                    if self.has_edge(u, v) {
                        continue;
                    }
                    let cells = self.candidate_cells(u, v);
                    let shortest = cells
                        .into_iter()
                        .min_by_key(|&c| self.matrix[c].edges.len())
                        .expect("at least one candidate cell");
                    self.matrix[shortest].edges.push((u, v));
                    created += 1;
                    any = true;
                }
                if any {
                    self.sources.insert(u);
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
        self.sources.len()
    }

    fn scheme(&self) -> GraphScheme {
        GraphScheme::WindBellIndex
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_delete_roundtrip() {
        let mut g = WindBellIndex::new();
        assert!(g.insert_edge(1, 2));
        assert!(!g.insert_edge(1, 2));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(2, 1));
        assert!(g.delete_edge(1, 2));
        assert!(!g.delete_edge(1, 2));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn successors_filter_out_other_sources_sharing_rows() {
        // A small matrix forces many sources to share rows; successor queries
        // must still only report the queried source's neighbours.
        let mut g = WindBellIndex::with_k(4);
        for u in 0..20u64 {
            for v in 0..5u64 {
                g.insert_edge(u, 100 + v);
            }
        }
        for u in 0..20u64 {
            assert_eq!(g.successors(u), vec![100, 101, 102, 103, 104]);
            assert_eq!(g.out_degree(u), 5);
        }
        assert_eq!(g.edge_count(), 100);
        assert_eq!(g.node_count(), 20);
    }

    #[test]
    fn shortest_list_insertion_balances_buckets() {
        let mut g = WindBellIndex::with_k(8);
        for v in 0..2_000u64 {
            g.insert_edge(1, v);
        }
        // With 2 hash choices per edge the hanging lists stay reasonably even:
        // the longest list must not dominate the total.
        let longest = g.matrix.iter().map(|b| b.edges.len()).max().unwrap();
        assert!(
            longest < 2_000 / 4,
            "one hanging list holds {longest} of 2000 edges"
        );
        assert!(g.average_list_length() > 0.0);
    }

    #[test]
    fn small_k_still_correct_under_churn() {
        let mut g = WindBellIndex::with_k(2);
        for i in 0..300u64 {
            g.insert_edge(i % 10, i);
        }
        for i in (0..300u64).step_by(2) {
            assert!(g.delete_edge(i % 10, i));
        }
        for i in 0..300u64 {
            assert_eq!(g.has_edge(i % 10, i), i % 2 == 1, "edge ({}, {i})", i % 10);
        }
        assert_eq!(g.edge_count(), 150);
        assert_eq!(g.scheme(), GraphScheme::WindBellIndex);
        assert!(g.memory_bytes() > 0);
    }
}
