//! Parallel analytics passes over sharded graphs.
//!
//! A [`ShardedGraph`] partitions its source-node space across shards whose
//! read views are `Sync`, so whole-graph passes split into independent
//! per-shard passes that run on [`std::thread::scope`] threads and merge at
//! the end. The merge is cheap (hash-map sums, list concatenation) while the
//! per-shard scans carry the traversal work — the same shape as the sharded
//! batched inserts on the mutation side.
//!
//! Every function here is result-equivalent to its serial counterpart in the
//! sibling modules; the property tests in `tests/shard_equivalence.rs` and the
//! unit tests below pin that down.

use crate::cc::{connected_components, ComponentSummary};
use crate::subgraph::{rank_by_degree, total_degrees};
use graph_api::{DynamicGraph, NodeId, ShardedGraph};
use std::collections::HashMap;

/// Runs `f` over every shard view concurrently (one scoped thread per shard)
/// and collects the per-shard results in shard order.
fn map_shards<G, R, F>(graph: &G, f: F) -> Vec<R>
where
    G: ShardedGraph + ?Sized,
    R: Send,
    F: Fn(&(dyn DynamicGraph + Sync)) -> R + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..graph.shard_count())
            .map(|shard| {
                let f = &f;
                scope.spawn(move || {
                    // The view is scoped to the closure so the shard's read
                    // guard (held against concurrent ingest) brackets the
                    // pass.
                    let mut out = None;
                    graph.with_shard_view(shard, &mut |view| out = Some(f(view)));
                    out.expect("with_shard_view skipped the pass closure")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard pass panicked"))
            .collect()
    })
}

/// Total degree (out + in) of every node, computed as one degree pass per
/// shard merged at the end. Result-equivalent to
/// [`crate::subgraph::total_degrees`]: each shard owns its source nodes'
/// out-edges outright, and the in-degree contributions that cross shards are
/// summed during the merge.
pub fn par_total_degrees<G: ShardedGraph + ?Sized>(graph: &G) -> HashMap<NodeId, usize> {
    let locals = map_shards(graph, |view| total_degrees(view));
    let mut locals = locals.into_iter();
    let mut merged = locals.next().unwrap_or_default();
    for local in locals {
        for (node, d) in local {
            *merged.entry(node).or_insert(0) += d;
        }
    }
    merged
}

/// The `k` nodes with the largest total degree, from per-shard degree passes.
/// Result-equivalent to [`crate::subgraph::top_degree_nodes`] (same
/// deterministic tie-breaking).
pub fn par_top_degree_nodes<G: ShardedGraph + ?Sized>(graph: &G, k: usize) -> Vec<NodeId> {
    rank_by_degree(par_total_degrees(graph), k)
}

/// Distinct edge count summed from parallel per-shard passes.
pub fn par_edge_count<G: ShardedGraph + ?Sized>(graph: &G) -> usize {
    map_shards(graph, |view| view.edge_count())
        .into_iter()
        .sum()
}

/// Every node of the graph, merged from parallel per-shard visitor passes.
/// Shards partition the source space, so each node appears exactly once;
/// order is unspecified.
pub fn par_nodes<G: ShardedGraph + ?Sized>(graph: &G) -> Vec<NodeId> {
    let chunks = map_shards(graph, |view| view.nodes());
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Connected components over the whole sharded graph: the node set is
/// gathered with parallel per-shard passes, then Tarjan runs over the merged
/// view (the traversal itself crosses shards, so it stays serial). The node
/// list is sorted before the run so the component numbering is deterministic.
pub fn par_connected_components<G: ShardedGraph + ?Sized>(graph: &G) -> ComponentSummary {
    let mut nodes = par_nodes(graph);
    nodes.sort_unstable();
    connected_components(graph, &nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph::{top_degree_nodes, total_degrees};
    use cuckoograph::ShardedCuckooGraph;
    use graph_api::DynamicGraph;
    use std::collections::BTreeSet;

    fn populated(shards: usize) -> ShardedCuckooGraph {
        let mut g = ShardedCuckooGraph::new(shards);
        let edges: Vec<(u64, u64)> = (0..4_000u64)
            .map(|i| (i % 61, (i * 7) % 500))
            .chain((0..200u64).map(|i| (i + 100, i + 101)))
            .collect();
        g.insert_edges(&edges);
        g
    }

    #[test]
    fn par_total_degrees_matches_serial() {
        for shards in [1usize, 3, 8] {
            let g = populated(shards);
            assert_eq!(par_total_degrees(&g), total_degrees(&g), "{shards} shards");
        }
    }

    #[test]
    fn par_top_degree_nodes_matches_serial_order() {
        let g = populated(4);
        assert_eq!(par_top_degree_nodes(&g, 25), top_degree_nodes(&g, 25));
        assert_eq!(
            par_top_degree_nodes(&g, usize::MAX).len(),
            total_degrees(&g).len()
        );
    }

    #[test]
    fn par_counts_and_nodes_match_the_trait_surface() {
        let g = populated(5);
        assert_eq!(par_edge_count(&g), g.edge_count());
        let merged: BTreeSet<u64> = par_nodes(&g).into_iter().collect();
        let serial: BTreeSet<u64> = g.nodes().into_iter().collect();
        assert_eq!(merged.len(), g.node_count(), "a node appeared twice");
        assert_eq!(merged, serial);
    }

    #[test]
    fn par_connected_components_matches_serial_run() {
        let g = populated(4);
        let mut nodes = g.nodes();
        nodes.sort_unstable();
        let serial = connected_components(&g, &nodes);
        let parallel = par_connected_components(&g);
        assert_eq!(parallel.count, serial.count);
        assert_eq!(parallel.largest(), serial.largest());
        assert_eq!(parallel.assignment, serial.assignment);
    }
}
