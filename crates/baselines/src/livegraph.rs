//! LiveGraph-like baseline: Vertex Blocks + Transactional Edge Log (TEL).
//!
//! LiveGraph \[30\] stores the edges of each vertex in a *Transactional Edge
//! Log*: an append-only sequence of log entries (insertions and deletions,
//! each stamped with a sequence number) held in a per-vertex block. Reads scan
//! the log sequentially ("purely sequential adjacency list scans"); when a
//! block fills up it is copied into a block of twice the size, and a
//! compaction rewrites the log without superseded entries. Vertex Blocks are
//! located through a vertex index.
//!
//! The paper's evaluation is single-threaded, so the MVCC timestamps reduce to
//! a monotone sequence number here; everything else (log layout, sequential
//! scans, copy-on-full growth, compaction) follows the published design.

use graph_api::{for_each_source_run, DynamicGraph, GraphScheme, MemoryFootprint, NodeId};
use std::collections::HashMap;

/// One entry of a Transactional Edge Log.
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    dst: NodeId,
    /// Sequence number of the operation that wrote this entry.
    seq: u64,
    /// `true` for an insertion entry, `false` for a deletion entry.
    is_insert: bool,
}

/// The per-vertex block holding the vertex's edge log.
#[derive(Debug, Clone, Default)]
struct VertexBlock {
    log: Vec<LogEntry>,
    /// Number of *live* edges (insertions not superseded by deletions).
    live: usize,
    /// True once the log contains a deletion entry. While false, every log
    /// entry is a live insertion with a distinct destination (insertions are
    /// deduplicated up front), so reads can scan the log sequentially without
    /// rebuilding a latest-entry map — the common no-churn case.
    has_deletes: bool,
}

impl VertexBlock {
    /// Scans the log backwards to find the latest entry for `dst`; the edge
    /// exists iff that entry is an insertion.
    fn has_edge(&self, dst: NodeId) -> bool {
        for entry in self.log.iter().rev() {
            if entry.dst == dst {
                return entry.is_insert;
            }
        }
        false
    }

    /// Appends an entry, growing (and opportunistically compacting) the block
    /// when its capacity is exhausted — the TEL copy-on-full behaviour.
    fn append(&mut self, entry: LogEntry) {
        if self.log.len() == self.log.capacity() && self.log.len() >= 8 {
            self.compact();
        }
        self.log.push(entry);
    }

    /// Rewrites the log keeping only the latest entry per destination, and
    /// only if that entry is an insertion. A compacted log holds only live
    /// insertions, so the sequential-scan fast path applies again afterwards.
    fn compact(&mut self) {
        if !self.has_deletes {
            return; // already only live insertions — nothing to rewrite
        }
        let mut latest: HashMap<NodeId, LogEntry> = HashMap::with_capacity(self.log.len());
        for &entry in &self.log {
            latest.insert(entry.dst, entry);
        }
        let mut compacted: Vec<LogEntry> = latest.into_values().filter(|e| e.is_insert).collect();
        compacted.sort_by_key(|e| e.seq);
        self.log = compacted;
        self.has_deletes = false;
    }

    /// Calls `f` for every live destination. Without deletions this is a pure
    /// sequential log scan; with deletions it reconstructs the latest entry
    /// per destination as `successors()` always did.
    fn for_each_successor(&self, f: &mut dyn FnMut(NodeId)) {
        if !self.has_deletes {
            for entry in &self.log {
                f(entry.dst);
            }
            return;
        }
        let mut latest: HashMap<NodeId, bool> = HashMap::with_capacity(self.log.len());
        for entry in &self.log {
            latest.insert(entry.dst, entry.is_insert);
        }
        for (dst, alive) in latest {
            if alive {
                f(dst);
            }
        }
    }

    fn bytes(&self) -> usize {
        self.log.capacity() * std::mem::size_of::<LogEntry>()
    }
}

/// LiveGraph-like dynamic graph store.
#[derive(Debug, Clone, Default)]
pub struct LiveGraphStore {
    /// Vertex index: maps a vertex to its block.
    blocks: HashMap<NodeId, VertexBlock>,
    /// Global operation sequence number (stands in for the MVCC timestamp).
    seq: u64,
    edges: usize,
}

impl LiveGraphStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compacts every vertex block (normally triggered per block when full).
    pub fn compact_all(&mut self) {
        for block in self.blocks.values_mut() {
            block.compact();
        }
    }

    /// Total number of log entries currently held (live + superseded); used by
    /// tests to observe the log-structured behaviour.
    pub fn log_entries(&self) -> usize {
        self.blocks.values().map(|b| b.log.len()).sum()
    }
}

impl MemoryFootprint for LiveGraphStore {
    fn memory_bytes(&self) -> usize {
        let index_bytes = self.blocks.capacity()
            * (std::mem::size_of::<NodeId>() + std::mem::size_of::<VertexBlock>() + 8);
        let block_bytes: usize = self.blocks.values().map(VertexBlock::bytes).sum();
        std::mem::size_of::<Self>() + index_bytes + block_bytes
    }
}

impl DynamicGraph for LiveGraphStore {
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.seq += 1;
        let seq = self.seq;
        let block = self.blocks.entry(u).or_default();
        if block.has_edge(v) {
            return false;
        }
        block.append(LogEntry {
            dst: v,
            seq,
            is_insert: true,
        });
        block.live += 1;
        self.edges += 1;
        true
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.blocks.get(&u).is_some_and(|b| b.has_edge(v))
    }

    fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.seq += 1;
        let seq = self.seq;
        let Some(block) = self.blocks.get_mut(&u) else {
            return false;
        };
        if !block.has_edge(v) {
            return false;
        }
        block.append(LogEntry {
            dst: v,
            seq,
            is_insert: false,
        });
        block.has_deletes = true;
        block.live -= 1;
        self.edges -= 1;
        true
    }

    fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        if let Some(block) = self.blocks.get(&u) {
            block.for_each_successor(f);
        }
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId)) {
        for &u in self.blocks.keys() {
            f(u);
        }
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.blocks.get(&u).map_or(0, |b| b.live)
    }

    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        // One vertex-index lookup per run of same-source edges.
        let mut created = 0usize;
        let seq = &mut self.seq;
        let blocks = &mut self.blocks;
        for_each_source_run(
            edges,
            |e| e.0,
            |u, run| {
                let block = blocks.entry(u).or_default();
                for &(_, v) in run {
                    *seq += 1;
                    if block.has_edge(v) {
                        continue;
                    }
                    block.append(LogEntry {
                        dst: v,
                        seq: *seq,
                        is_insert: true,
                    });
                    block.live += 1;
                    created += 1;
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
        self.blocks.len()
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.blocks.keys().copied().collect()
    }

    fn scheme(&self) -> GraphScheme {
        GraphScheme::LiveGraph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_delete_roundtrip() {
        let mut g = LiveGraphStore::new();
        assert!(g.insert_edge(1, 2));
        assert!(!g.insert_edge(1, 2));
        assert!(g.has_edge(1, 2));
        assert!(g.delete_edge(1, 2));
        assert!(!g.has_edge(1, 2));
        assert!(!g.delete_edge(1, 2));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn deletion_is_a_log_entry_until_compaction() {
        let mut g = LiveGraphStore::new();
        g.insert_edge(1, 2);
        g.insert_edge(1, 3);
        g.delete_edge(1, 2);
        // Three operations → three log entries (insert, insert, delete).
        assert_eq!(g.log_entries(), 3);
        assert_eq!(g.out_degree(1), 1);
        g.compact_all();
        assert_eq!(g.log_entries(), 1);
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn reinsert_after_delete_is_visible() {
        let mut g = LiveGraphStore::new();
        g.insert_edge(5, 6);
        g.delete_edge(5, 6);
        assert!(g.insert_edge(5, 6));
        assert!(g.has_edge(5, 6));
        assert_eq!(g.out_degree(5), 1);
        assert_eq!(g.successors(5), vec![6]);
    }

    #[test]
    fn high_degree_vertex_round_trips() {
        let mut g = LiveGraphStore::new();
        for v in 0..500u64 {
            g.insert_edge(1, v);
        }
        assert_eq!(g.out_degree(1), 500);
        let mut s = g.successors(1);
        s.sort_unstable();
        assert_eq!(s, (0..500u64).collect::<Vec<_>>());
        assert!(g.memory_bytes() > 500 * std::mem::size_of::<LogEntry>());
        assert_eq!(g.scheme(), GraphScheme::LiveGraph);
    }

    #[test]
    fn delete_free_blocks_scan_the_log_directly() {
        let mut g = LiveGraphStore::new();
        for v in 0..100u64 {
            g.insert_edge(3, v);
        }
        assert!(!g.blocks[&3].has_deletes);
        // Fast path: the visitor sees exactly the inserted destinations.
        let mut seen = Vec::new();
        g.for_each_successor(3, &mut |v| seen.push(v));
        seen.sort_unstable();
        assert_eq!(seen, (0..100u64).collect::<Vec<_>>());
        // A deletion flips the block to the slow path…
        g.delete_edge(3, 7);
        assert!(g.blocks[&3].has_deletes);
        let mut after = g.successors(3);
        after.sort_unstable();
        assert_eq!(after.len(), 99);
        assert!(!after.contains(&7));
        // …and compaction restores the fast path with the same live set.
        g.compact_all();
        assert!(!g.blocks[&3].has_deletes);
        let mut compacted = g.successors(3);
        compacted.sort_unstable();
        assert_eq!(compacted, after);
    }

    #[test]
    fn batched_insert_matches_per_edge_inserts() {
        let edges: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 6, i / 2)).collect();
        let mut batched = LiveGraphStore::new();
        let mut looped = LiveGraphStore::new();
        let created = batched.insert_edges(&edges);
        let mut expected = 0;
        for &(u, v) in &edges {
            if looped.insert_edge(u, v) {
                expected += 1;
            }
        }
        assert_eq!(created, expected);
        assert_eq!(batched.edge_count(), looped.edge_count());
        for u in 0..6u64 {
            let mut a = batched.successors(u);
            let mut b = looped.successors(u);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn compaction_preserves_live_set_under_churn() {
        let mut g = LiveGraphStore::new();
        for round in 0..20u64 {
            for v in 0..50u64 {
                if round % 2 == 0 {
                    g.insert_edge(7, v);
                } else if v % 3 == 0 {
                    g.delete_edge(7, v);
                }
            }
        }
        let before: std::collections::BTreeSet<_> = g.successors(7).into_iter().collect();
        g.compact_all();
        let after: std::collections::BTreeSet<_> = g.successors(7).into_iter().collect();
        assert_eq!(before, after);
        assert_eq!(g.out_degree(7), after.len());
    }
}
