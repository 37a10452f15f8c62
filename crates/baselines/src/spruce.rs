//! Spruce-like baseline — the paper's most competitive comparison point.
//!
//! Spruce \[36\] splits the 8-byte vertex identifier into 4 + 2 + 2 bytes:
//! the top 4 bytes select an entry of a hash-based node index shared by all
//! vertices with the same prefix, the middle 2 bytes select a bit in a bit
//! vector that records which vertex groups exist, and the low 2 bytes identify
//! the vertex inside its group. Each existing vertex points to an edge-storage
//! part based on adjacency arrays (sorted once they grow past a threshold).
//! This keeps memory low but still "needs to record quite a few pointers".
//!
//! The re-implementation keeps that decomposition (prefix hash map → bit
//! vector → per-vertex adjacency storage) and the two-tier adjacency layout
//! (small unsorted buffer that graduates into a sorted array), which is what
//! drives its behaviour in the paper's measurements.

use graph_api::{for_each_source_run, DynamicGraph, GraphScheme, MemoryFootprint, NodeId};
use std::collections::HashMap;

/// Neighbour buffers smaller than this stay unsorted; larger ones graduate to
/// the sorted representation (mirrors Spruce's small-vector optimisation).
const SORT_THRESHOLD: usize = 16;

/// Per-vertex edge storage: a small unsorted insertion buffer plus a sorted
/// main array.
#[derive(Debug, Clone, Default)]
struct EdgeStorage {
    buffer: Vec<NodeId>,
    sorted: Vec<NodeId>,
}

impl EdgeStorage {
    fn len(&self) -> usize {
        self.buffer.len() + self.sorted.len()
    }

    fn contains(&self, v: NodeId) -> bool {
        self.buffer.contains(&v) || self.sorted.binary_search(&v).is_ok()
    }

    fn insert(&mut self, v: NodeId) -> bool {
        if self.contains(v) {
            return false;
        }
        self.buffer.push(v);
        if self.buffer.len() >= SORT_THRESHOLD {
            self.merge();
        }
        true
    }

    /// Merges the insertion buffer into the sorted array.
    fn merge(&mut self) {
        self.sorted.append(&mut self.buffer);
        self.sorted.sort_unstable();
    }

    fn remove(&mut self, v: NodeId) -> bool {
        if let Some(idx) = self.buffer.iter().position(|&x| x == v) {
            self.buffer.swap_remove(idx);
            return true;
        }
        if let Ok(idx) = self.sorted.binary_search(&v) {
            self.sorted.remove(idx);
            return true;
        }
        false
    }

    fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.sorted.iter().chain(self.buffer.iter()).copied()
    }

    fn bytes(&self) -> usize {
        (self.buffer.capacity() + self.sorted.capacity()) * std::mem::size_of::<NodeId>()
    }
}

/// A group of up to 2¹⁶ vertices sharing the same 48-bit prefix: a bit vector
/// marking which members exist plus their edge storages.
#[derive(Debug, Clone)]
struct VertexGroup {
    /// One bit per possible low-16-bit suffix.
    bitmap: Vec<u64>,
    /// Edge storage of each existing member, keyed by the low 16 bits.
    members: HashMap<u16, EdgeStorage>,
}

impl VertexGroup {
    fn new() -> Self {
        Self {
            bitmap: vec![0u64; 1 << 10],
            members: HashMap::new(),
        }
    }

    #[inline]
    fn bit(&self, low: u16) -> bool {
        (self.bitmap[(low >> 6) as usize] >> (low & 63)) & 1 == 1
    }

    #[inline]
    fn set_bit(&mut self, low: u16) {
        self.bitmap[(low >> 6) as usize] |= 1 << (low & 63);
    }

    fn bytes(&self) -> usize {
        self.bitmap.capacity() * 8
            + self.members.capacity()
                * (std::mem::size_of::<u16>() + std::mem::size_of::<EdgeStorage>() + 8)
            + self.members.values().map(EdgeStorage::bytes).sum::<usize>()
    }
}

/// Spruce-like dynamic graph store.
#[derive(Debug, Clone, Default)]
pub struct SpruceGraph {
    /// Node-indexing part: 48-bit prefix → vertex group.
    groups: HashMap<u64, VertexGroup>,
    edges: usize,
    nodes: usize,
}

impl SpruceGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn split(u: NodeId) -> (u64, u16) {
        (u >> 16, (u & 0xffff) as u16)
    }

    fn storage(&self, u: NodeId) -> Option<&EdgeStorage> {
        let (prefix, low) = Self::split(u);
        let group = self.groups.get(&prefix)?;
        if !group.bit(low) {
            return None;
        }
        group.members.get(&low)
    }

    /// Number of vertex groups currently allocated (test hook).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

impl MemoryFootprint for SpruceGraph {
    fn memory_bytes(&self) -> usize {
        let index_bytes = self.groups.capacity()
            * (std::mem::size_of::<u64>() + std::mem::size_of::<VertexGroup>() + 8);
        let group_bytes: usize = self.groups.values().map(VertexGroup::bytes).sum();
        std::mem::size_of::<Self>() + index_bytes + group_bytes
    }
}

impl DynamicGraph for SpruceGraph {
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let (prefix, low) = Self::split(u);
        let group = self.groups.entry(prefix).or_insert_with(VertexGroup::new);
        if !group.bit(low) {
            group.set_bit(low);
            self.nodes += 1;
        }
        let inserted = group.members.entry(low).or_default().insert(v);
        if inserted {
            self.edges += 1;
        }
        inserted
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.storage(u).is_some_and(|s| s.contains(v))
    }

    fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let (prefix, low) = Self::split(u);
        let Some(group) = self.groups.get_mut(&prefix) else {
            return false;
        };
        let Some(storage) = group.members.get_mut(&low) else {
            return false;
        };
        let removed = storage.remove(v);
        if removed {
            self.edges -= 1;
        }
        removed
    }

    fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        if let Some(s) = self.storage(u) {
            for v in s.iter() {
                f(v);
            }
        }
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId)) {
        for (&prefix, group) in &self.groups {
            for &low in group.members.keys() {
                f((prefix << 16) | u64::from(low));
            }
        }
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.storage(u).map_or(0, EdgeStorage::len)
    }

    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        // Resolve the prefix group and the member's edge storage once per run
        // of same-source edges instead of once per edge.
        let mut created = 0usize;
        let groups = &mut self.groups;
        let nodes = &mut self.nodes;
        for_each_source_run(
            edges,
            |e| e.0,
            |u, run| {
                let (prefix, low) = Self::split(u);
                let group = groups.entry(prefix).or_insert_with(VertexGroup::new);
                if !group.bit(low) {
                    group.set_bit(low);
                    *nodes += 1;
                }
                let storage = group.members.entry(low).or_default();
                for &(_, v) in run {
                    if storage.insert(v) {
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
        self.nodes
    }

    fn scheme(&self) -> GraphScheme {
        GraphScheme::Spruce
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_delete_roundtrip() {
        let mut g = SpruceGraph::new();
        assert!(g.insert_edge(1, 2));
        assert!(!g.insert_edge(1, 2));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(1, 3));
        assert!(g.delete_edge(1, 2));
        assert!(!g.delete_edge(1, 2));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn identifier_split_groups_vertices_by_prefix() {
        let mut g = SpruceGraph::new();
        // Same 48-bit prefix, different low 16 bits → one group, two members.
        g.insert_edge(0x1234_0001, 7);
        g.insert_edge(0x1234_0002, 8);
        // Different prefix → second group.
        g.insert_edge(0xffff_0001_0001, 9);
        assert_eq!(g.group_count(), 2);
        assert_eq!(g.node_count(), 3);
        let mut nodes = g.nodes();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0x1234_0001, 0x1234_0002, 0xffff_0001_0001]);
    }

    #[test]
    fn large_neighbourhood_graduates_to_sorted_storage() {
        let mut g = SpruceGraph::new();
        for v in (0..1_000u64).rev() {
            g.insert_edge(5, v);
        }
        assert_eq!(g.out_degree(5), 1_000);
        for v in (0..1_000u64).step_by(71) {
            assert!(g.has_edge(5, v));
        }
        let mut s = g.successors(5);
        s.sort_unstable();
        assert_eq!(s, (0..1_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn deletion_works_in_both_tiers() {
        let mut g = SpruceGraph::new();
        for v in 0..40u64 {
            g.insert_edge(3, v);
        }
        // 0..32 are in the sorted tier by now, the rest in the buffer.
        assert!(g.delete_edge(3, 1));
        assert!(g.delete_edge(3, 38));
        assert!(!g.has_edge(3, 1));
        assert!(!g.has_edge(3, 38));
        assert_eq!(g.out_degree(3), 38);
        assert_eq!(g.scheme(), GraphScheme::Spruce);
        assert!(g.memory_bytes() > 0);
    }
}
