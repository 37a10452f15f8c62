//! The [`DynamicGraph`] trait: the operation surface the paper benchmarks.
//!
//! The trait is **visitor-first**: implementations provide zero-allocation
//! traversal primitives ([`DynamicGraph::for_each_successor`],
//! [`DynamicGraph::for_each_node`]) and the collecting conveniences
//! ([`DynamicGraph::successors`], [`DynamicGraph::nodes`]) are derived from
//! them. This keeps the analytics kernels and the benchmark inner loops on the
//! probe paths of each storage scheme instead of measuring allocator churn —
//! the distinction the paper's successor-query evaluation (Figures 10–16) is
//! actually about.

use crate::edge::NodeId;
use crate::footprint::MemoryFootprint;

/// Identifies a storage scheme in benchmark output (Figures 6-16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphScheme {
    /// CuckooGraph (this paper).
    CuckooGraph,
    /// LiveGraph-like baseline (vertex blocks + transactional edge log).
    LiveGraph,
    /// Sortledton-like baseline (adjacency index + sorted blocked sets).
    Sortledton,
    /// Wind-Bell Index baseline (adjacency matrix + hanging lists).
    WindBellIndex,
    /// Spruce-like baseline (hash node index + adjacency edge storage).
    Spruce,
    /// Plain adjacency list (reference point, not in the paper's figures).
    AdjacencyList,
    /// Packed-CSR baseline (PMA-backed CSR).
    Pcsr,
}

impl GraphScheme {
    /// Human-readable label used by the benchmark harness.
    pub fn label(self) -> &'static str {
        match self {
            GraphScheme::CuckooGraph => "CuckooGraph",
            GraphScheme::LiveGraph => "LiveGraph",
            GraphScheme::Sortledton => "Sortledton",
            GraphScheme::WindBellIndex => "WBI",
            GraphScheme::Spruce => "Spruce",
            GraphScheme::AdjacencyList => "AdjList",
            GraphScheme::Pcsr => "PCSR",
        }
    }
}

/// Calls `f` once per maximal run of consecutive items sharing a source node,
/// with the source and the run subslice. The run-grouping step every batched
/// [`DynamicGraph::insert_edges`] implementation shares: resolve per-source
/// state once per run, then process the run's edges.
///
/// ```
/// let edges = [(1u64, 2u64), (1, 3), (2, 4), (1, 5)];
/// let mut runs = Vec::new();
/// graph_api::for_each_source_run(&edges, |e| e.0, |u, run| runs.push((u, run.len())));
/// assert_eq!(runs, vec![(1, 2), (2, 1), (1, 1)]);
/// ```
pub fn for_each_source_run<E>(
    items: &[E],
    key: impl Fn(&E) -> NodeId,
    mut f: impl FnMut(NodeId, &[E]),
) {
    let mut idx = 0usize;
    while idx < items.len() {
        let u = key(&items[idx]);
        let start = idx;
        while idx < items.len() && key(&items[idx]) == u {
            idx += 1;
        }
        f(u, &items[start..idx]);
    }
}

/// A dynamic directed graph supporting the operations measured in the paper.
///
/// All implementations store *distinct* directed edges (the basic version of
/// CuckooGraph deduplicates on insert); multiplicity is handled by
/// [`WeightedDynamicGraph`].
///
/// Implementations provide the borrowing visitors; `successors()` and
/// `nodes()` are provided methods that collect through them, so existing
/// callers keep working while hot loops migrate to the visitors.
pub trait DynamicGraph: MemoryFootprint {
    /// Inserts the directed edge `⟨u, v⟩`. Returns `true` if the edge was not
    /// present before (i.e. the graph changed), `false` if it already existed.
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool;

    /// Returns `true` if the directed edge `⟨u, v⟩` is stored.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool;

    /// Removes the directed edge `⟨u, v⟩`. Returns `true` if it was present.
    fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool;

    /// Calls `f` for every successor of `u`, in unspecified order, without
    /// allocating — the hot traversal primitive every analytics kernel and
    /// bench inner loop goes through.
    ///
    /// ```
    /// use graph_api::DynamicGraph;
    ///
    /// let mut g = cuckoograph::CuckooGraph::new();
    /// g.insert_edges(&[(1, 2), (1, 3)]);
    /// let mut sum = 0;
    /// g.for_each_successor(1, &mut |v| sum += v);
    /// assert_eq!(sum, 5);
    /// ```
    fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId));

    /// Calls `f` for every node currently known to the structure (sources;
    /// schemes that also track destinations may include them), in unspecified
    /// order, without allocating.
    ///
    /// ```
    /// use graph_api::DynamicGraph;
    ///
    /// let mut g = cuckoograph::CuckooGraph::new();
    /// g.insert_edges(&[(1, 2), (4, 5)]);
    /// let mut count = 0;
    /// g.for_each_node(&mut |_| count += 1);
    /// assert_eq!(count, g.node_count());
    /// ```
    fn for_each_node(&self, f: &mut dyn FnMut(NodeId));

    /// Out-degree of `u` (0 if the node is unknown). The default counts via
    /// [`DynamicGraph::for_each_successor`]; implementations override it when
    /// they track degrees explicitly.
    ///
    /// ```
    /// use graph_api::DynamicGraph;
    ///
    /// let mut g = cuckoograph::CuckooGraph::new();
    /// g.insert_edges(&[(1, 2), (1, 3), (2, 3)]);
    /// assert_eq!(g.out_degree(1), 2);
    /// assert_eq!(g.out_degree(99), 0);
    /// ```
    fn out_degree(&self, u: NodeId) -> usize {
        let mut n = 0usize;
        self.for_each_successor(u, &mut |_| n += 1);
        n
    }

    /// Inserts a batch of edges, returning how many were newly created
    /// (duplicates within the batch or against the stored graph count once).
    /// The default loops over [`DynamicGraph::insert_edge`]; implementations
    /// override it to hoist per-edge setup (node-cell resolution, config
    /// reads) out of the loop, which pays off most when the batch groups
    /// edges by source node.
    ///
    /// ```
    /// use graph_api::DynamicGraph;
    ///
    /// let mut g = cuckoograph::CuckooGraph::new();
    /// let created = g.insert_edges(&[(1, 2), (1, 3), (1, 2)]);
    /// assert_eq!(created, 2);
    /// assert_eq!(g.edge_count(), 2);
    /// ```
    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        edges
            .iter()
            .filter(|&&(u, v)| self.insert_edge(u, v))
            .count()
    }

    /// Removes a batch of edges, returning how many were present (and thus
    /// actually removed). The default loops over
    /// [`DynamicGraph::delete_edge`]; implementations override it to hoist
    /// per-edge setup out of the loop — mirroring
    /// [`DynamicGraph::insert_edges`], a batch grouped by source node resolves
    /// each node's storage once per run instead of once per edge.
    ///
    /// ```
    /// use graph_api::DynamicGraph;
    ///
    /// let mut g = cuckoograph::CuckooGraph::new();
    /// g.insert_edges(&[(1, 2), (1, 3), (2, 4)]);
    /// let removed = g.remove_edges(&[(1, 2), (1, 3), (9, 9)]);
    /// assert_eq!(removed, 2);
    /// assert_eq!(g.edge_count(), 1);
    /// ```
    fn remove_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        edges
            .iter()
            .filter(|&&(u, v)| self.delete_edge(u, v))
            .count()
    }

    /// Returns the out-neighbours (successors) of `u`. Order is unspecified.
    /// Collects through [`DynamicGraph::for_each_successor`]; hot paths use
    /// the visitor directly to avoid the allocation.
    fn successors(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.out_degree(u));
        self.for_each_successor(u, &mut |v| out.push(v));
        out
    }

    /// Number of distinct directed edges stored.
    fn edge_count(&self) -> usize;

    /// Number of distinct source nodes stored (nodes that have, or have had,
    /// at least one outgoing edge). Isolated destination-only nodes may not be
    /// tracked by every scheme, matching the paper's storage model where the
    /// structure is keyed by the source endpoint.
    fn node_count(&self) -> usize;

    /// Every node currently known to the structure. Collects through
    /// [`DynamicGraph::for_each_node`]; hot paths use the visitor directly.
    fn nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.node_count());
        self.for_each_node(&mut |u| out.push(u));
        out
    }

    /// Scheme identifier for reporting.
    fn scheme(&self) -> GraphScheme;
}

/// A dynamic graph partitioned into independent shards by source node — the
/// contract parallel analytics passes drive.
///
/// Every edge `⟨u, v⟩` lives entirely inside the shard that owns `u`
/// ([`ShardedGraph::shard_of`]), so the shards partition the source-node space:
/// per-shard traversals visit disjoint node sets, and merging the per-shard
/// results reconstructs the whole-graph answer. Shard views are `Sync`, so a
/// caller may scan all shards from scoped threads at once.
///
/// The view is scoped to a closure rather than returned as a bare reference:
/// implementations with concurrent writers hold a read lock for the whole
/// closure, which a `&dyn` escaping the call could not honour.
///
/// ```
/// use graph_api::{DynamicGraph, ShardedGraph};
///
/// let mut g = cuckoograph::ShardedCuckooGraph::new(4);
/// g.insert_edges(&[(1, 2), (2, 3), (3, 4)]);
/// assert_eq!(g.shard_count(), 4);
/// let mut nodes = 0;
/// for shard in 0..g.shard_count() {
///     g.with_shard_view(shard, &mut |view| view.for_each_node(&mut |_| nodes += 1));
/// }
/// assert_eq!(nodes, g.node_count());
/// ```
pub trait ShardedGraph: DynamicGraph + Sync {
    /// Number of shards the graph is partitioned into (at least 1).
    fn shard_count(&self) -> usize;

    /// The shard that owns source node `u` (and every edge leaving it).
    fn shard_of(&self, u: NodeId) -> usize;

    /// Runs `f` with a read view of one shard, under the implementation's
    /// read protocol. The views of distinct shards cover disjoint source-node
    /// sets and their union is the whole graph.
    fn with_shard_view(&self, shard: usize, f: &mut dyn FnMut(&(dyn DynamicGraph + Sync)));
}

/// The read-only operation set a serving layer may answer from a concurrent
/// read snapshot — the classification surface behind read/write command
/// routing: a command expressible against this trait is safe to dispatch on a
/// reader handle while a writer mutates the same graph, everything else must
/// serialize through the write path.
///
/// Implementors are snapshot *handles* (e.g. a registered read view over a
/// sharded graph), not necessarily the graph type itself, so the methods take
/// `&self` and promise internally consistent answers per call — concurrent
/// writers may land between two calls.
pub trait GraphReadSnapshot {
    /// Whether edge `⟨u, v⟩` is currently stored.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool;

    /// Current out-degree of `u`.
    fn out_degree(&self, u: NodeId) -> usize;

    /// Calls `f` with every current successor of `u`.
    fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId));

    /// Collects the current successors of `u` (order unspecified).
    fn successors(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_successor(u, &mut |v| out.push(v));
        out
    }

    /// Total stored edges.
    fn edge_count(&self) -> usize;

    /// Total stored source nodes.
    fn node_count(&self) -> usize;
}

/// A dynamic graph that also tracks edge multiplicities, matching the extended
/// version of CuckooGraph (§ III-B) used for streaming datasets with duplicate
/// edges (CAIDA, StackOverflow, WikiTalk).
pub trait WeightedDynamicGraph: MemoryFootprint {
    /// Inserts one occurrence of `⟨u, v⟩`, adding `delta` to its weight.
    /// Returns the new weight.
    fn insert_weighted(&mut self, u: NodeId, v: NodeId, delta: u64) -> u64;

    /// Returns the weight of `⟨u, v⟩` (0 if absent).
    fn weight(&self, u: NodeId, v: NodeId) -> u64;

    /// Decrements the weight of `⟨u, v⟩` by `delta`, removing the edge when it
    /// reaches zero. Returns the remaining weight.
    fn delete_weighted(&mut self, u: NodeId, v: NodeId, delta: u64) -> u64;

    /// Calls `f` with `(v, weight)` for every successor of `u`, in
    /// unspecified order, without allocating — the weighted analogue of
    /// [`DynamicGraph::for_each_successor`].
    ///
    /// ```
    /// use graph_api::WeightedDynamicGraph;
    ///
    /// let mut g = cuckoograph::WeightedCuckooGraph::new();
    /// g.insert_weighted_edges(&[(1, 2, 3), (1, 5, 1)]);
    /// let mut total = 0;
    /// g.for_each_weighted_successor(1, &mut |_, w| total += w);
    /// assert_eq!(total, 4);
    /// ```
    fn for_each_weighted_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, u64));

    /// The `(successor, weight)` pairs of `u`. Order is unspecified; collects
    /// through [`WeightedDynamicGraph::for_each_weighted_successor`].
    fn weighted_successors(&self, u: NodeId) -> Vec<(NodeId, u64)> {
        let mut out = Vec::new();
        self.for_each_weighted_successor(u, &mut |v, w| out.push((v, w)));
        out
    }

    /// Inserts a batch of `(u, v, delta)` occurrences, returning how many
    /// *distinct* edges were newly created (weight bumps of existing edges do
    /// not count). The default loops over
    /// [`WeightedDynamicGraph::insert_weighted`]; implementations override it
    /// to hoist per-edge setup out of the loop.
    ///
    /// ```
    /// use graph_api::WeightedDynamicGraph;
    ///
    /// let mut g = cuckoograph::WeightedCuckooGraph::new();
    /// let created = g.insert_weighted_edges(&[(1, 2, 1), (1, 2, 1), (3, 4, 5)]);
    /// assert_eq!(created, 2);
    /// assert_eq!(g.weight(1, 2), 2);
    /// ```
    fn insert_weighted_edges(&mut self, edges: &[(NodeId, NodeId, u64)]) -> usize {
        let mut created = 0usize;
        for &(u, v, delta) in edges {
            let existed = self.weight(u, v) > 0;
            self.insert_weighted(u, v, delta);
            if !existed {
                created += 1;
            }
        }
        created
    }

    /// Distinct edge count.
    fn distinct_edge_count(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn scheme_labels_are_stable() {
        assert_eq!(GraphScheme::CuckooGraph.label(), "CuckooGraph");
        assert_eq!(GraphScheme::Spruce.label(), "Spruce");
        assert_eq!(GraphScheme::WindBellIndex.label(), "WBI");
    }

    /// A minimal trait implementation exercising every provided method
    /// through the visitor primitives alone.
    #[derive(Debug, Default)]
    struct MapGraph {
        adj: BTreeMap<NodeId, Vec<NodeId>>,
        edges: usize,
    }

    impl MemoryFootprint for MapGraph {
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    impl DynamicGraph for MapGraph {
        fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
            let list = self.adj.entry(u).or_default();
            if list.contains(&v) {
                return false;
            }
            list.push(v);
            self.edges += 1;
            true
        }

        fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
            self.adj.get(&u).is_some_and(|l| l.contains(&v))
        }

        fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
            let Some(list) = self.adj.get_mut(&u) else {
                return false;
            };
            let Some(i) = list.iter().position(|&x| x == v) else {
                return false;
            };
            list.swap_remove(i);
            self.edges -= 1;
            true
        }

        fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
            if let Some(list) = self.adj.get(&u) {
                for &v in list {
                    f(v);
                }
            }
        }

        fn for_each_node(&self, f: &mut dyn FnMut(NodeId)) {
            for &u in self.adj.keys() {
                f(u);
            }
        }

        fn edge_count(&self) -> usize {
            self.edges
        }

        fn node_count(&self) -> usize {
            self.adj.len()
        }

        fn scheme(&self) -> GraphScheme {
            GraphScheme::AdjacencyList
        }
    }

    #[test]
    fn provided_methods_derive_from_the_visitors() {
        let mut g = MapGraph::default();
        assert_eq!(g.insert_edges(&[(1, 2), (1, 3), (1, 2), (4, 5)]), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(1), 2);
        assert_eq!(g.out_degree(9), 0);
        let mut succ = g.successors(1);
        succ.sort_unstable();
        assert_eq!(succ, vec![2, 3]);
        let mut nodes = g.nodes();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![1, 4]);
    }

    #[test]
    fn default_batch_insert_matches_the_per_edge_loop() {
        let edges = [(1u64, 2u64), (2, 3), (1, 2), (3, 1), (2, 3)];
        let mut batched = MapGraph::default();
        let mut looped = MapGraph::default();
        let created = batched.insert_edges(&edges);
        let mut expected = 0;
        for &(u, v) in &edges {
            if looped.insert_edge(u, v) {
                expected += 1;
            }
        }
        assert_eq!(created, expected);
        assert_eq!(batched.edge_count(), looped.edge_count());
    }
}
