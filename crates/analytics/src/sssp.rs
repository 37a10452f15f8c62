//! Single-Source Shortest Paths with Dijkstra's algorithm (Figure 11).
//!
//! The paper runs Dijkstra from the 10 highest-total-degree nodes of the
//! original graph over a subgraph of top-degree nodes. The datasets are
//! unweighted, so every edge has length 1 (Dijkstra still runs with a binary
//! heap exactly as cited \[54\]; it simply degenerates to a BFS frontier).

use crate::subgraph::top_degree_nodes;
use graph_api::{DynamicGraph, NodeId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Dijkstra from `source` with unit edge weights. Returns the distance of
/// every reachable node (the source has distance 0).
pub fn dijkstra<G: DynamicGraph + ?Sized>(graph: &G, source: NodeId) -> HashMap<NodeId, u64> {
    let mut dist: HashMap<NodeId, u64> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
    dist.insert(source, 0);
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if dist.get(&u).copied().unwrap_or(u64::MAX) < d {
            continue; // stale heap entry
        }
        graph.for_each_successor(u, &mut |v| {
            let candidate = d + 1;
            let best = dist.entry(v).or_insert(u64::MAX);
            if candidate < *best {
                *best = candidate;
                heap.push(Reverse((candidate, v)));
            }
        });
    }
    dist
}

/// The Figure 11 workload: Dijkstra from each of the `sources`
/// highest-total-degree nodes; returns the number of reachable nodes per run.
pub fn sssp_from_top_degree<G: DynamicGraph + ?Sized>(graph: &G, sources: usize) -> Vec<usize> {
    top_degree_nodes(graph, sources)
        .into_iter()
        .map(|s| dijkstra(graph, s).len())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_baselines::AdjacencyListGraph;

    fn diamond() -> AdjacencyListGraph {
        // 0 → 1 → 3, 0 → 2 → 3 → 4; all unit weights.
        let mut g = AdjacencyListGraph::new();
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)] {
            g.insert_edge(u, v);
        }
        g
    }

    #[test]
    fn distances_follow_shortest_paths() {
        let d = dijkstra(&diamond(), 0);
        assert_eq!(d[&0], 0);
        assert_eq!(d[&1], 1);
        assert_eq!(d[&2], 1);
        assert_eq!(d[&3], 2);
        assert_eq!(d[&4], 3);
    }

    #[test]
    fn unreachable_nodes_are_absent() {
        let mut g = diamond();
        g.insert_edge(10, 11);
        let d = dijkstra(&g, 0);
        assert!(!d.contains_key(&10));
        assert!(!d.contains_key(&11));
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn cycles_do_not_loop_forever() {
        let mut g = AdjacencyListGraph::new();
        g.insert_edge(1, 2);
        g.insert_edge(2, 1);
        g.insert_edge(2, 3);
        let d = dijkstra(&g, 1);
        assert_eq!(d[&3], 2);
    }

    #[test]
    fn top_degree_driver_runs_requested_sources() {
        let g = diamond();
        let counts = sssp_from_top_degree(&g, 3);
        assert_eq!(counts.len(), 3);
        assert!(counts.iter().all(|&c| c >= 1));
    }
}
