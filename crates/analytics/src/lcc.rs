//! Local Clustering Coefficient (Figure 16).
//!
//! Following the paper's methodology (and the LDBC Graphalytics definition it
//! cites \[57\]): pre-compute the neighbourhood of every node (treating the
//! graph as undirected for the purpose of neighbourhood membership), then for
//! each node count how many ordered pairs of its neighbours are connected by a
//! stored directed edge, divided by `deg · (deg − 1)`.

use graph_api::{DynamicGraph, NodeId};
use std::collections::{HashMap, HashSet};

/// Local clustering coefficient of every node in the subgraph induced by
/// `nodes`.
pub fn local_clustering_coefficients<G: DynamicGraph + ?Sized>(
    graph: &G,
    nodes: &[NodeId],
) -> HashMap<NodeId, f64> {
    let selected: Vec<NodeId> = {
        let mut v = nodes.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    };
    let in_set: HashSet<NodeId> = selected.iter().copied().collect();

    // Pre-compute undirected neighbourhoods restricted to the subgraph, as the
    // paper does ("we pre-compute all neighbors of each node").
    let mut neighbourhood: HashMap<NodeId, HashSet<NodeId>> =
        selected.iter().map(|&u| (u, HashSet::new())).collect();
    for &u in &selected {
        graph.for_each_successor(u, &mut |v| {
            if v != u && in_set.contains(&v) {
                neighbourhood.get_mut(&u).expect("u selected").insert(v);
                neighbourhood.get_mut(&v).expect("v selected").insert(u);
            }
        });
    }

    let mut lcc = HashMap::with_capacity(selected.len());
    for &u in &selected {
        let neighbours: Vec<NodeId> = neighbourhood[&u].iter().copied().collect();
        let k = neighbours.len();
        if k < 2 {
            lcc.insert(u, 0.0);
            continue;
        }
        let mut links = 0usize;
        for &a in &neighbours {
            for &b in &neighbours {
                if a != b && graph.has_edge(a, b) {
                    links += 1;
                }
            }
        }
        lcc.insert(u, links as f64 / (k * (k - 1)) as f64);
    }
    lcc
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_baselines::AdjacencyListGraph;

    #[test]
    fn bidirectional_clique_has_coefficient_one() {
        let mut g = AdjacencyListGraph::new();
        for u in 1..=4u64 {
            for v in 1..=4u64 {
                if u != v {
                    g.insert_edge(u, v);
                }
            }
        }
        let lcc = local_clustering_coefficients(&g, &[1, 2, 3, 4]);
        for u in 1..=4u64 {
            assert!((lcc[&u] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn star_centre_has_zero_coefficient() {
        let mut g = AdjacencyListGraph::new();
        for v in 2..=5u64 {
            g.insert_edge(1, v);
        }
        let lcc = local_clustering_coefficients(&g, &[1, 2, 3, 4, 5]);
        assert_eq!(lcc[&1], 0.0, "no edges among the leaves");
        assert_eq!(lcc[&2], 0.0, "leaves have a single neighbour");
    }

    #[test]
    fn half_connected_neighbourhood() {
        // Node 1's neighbours are {2, 3}; only the directed edge 2→3 exists,
        // so 1 of 2 ordered pairs is connected.
        let mut g = AdjacencyListGraph::new();
        g.insert_edge(1, 2);
        g.insert_edge(1, 3);
        g.insert_edge(2, 3);
        let lcc = local_clustering_coefficients(&g, &[1, 2, 3]);
        assert!((lcc[&1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn neighbourhood_is_restricted_to_the_subgraph() {
        let mut g = AdjacencyListGraph::new();
        g.insert_edge(1, 2);
        g.insert_edge(1, 99);
        g.insert_edge(2, 99);
        // With 99 excluded, node 1 has a single neighbour → coefficient 0.
        let lcc = local_clustering_coefficients(&g, &[1, 2]);
        assert_eq!(lcc[&1], 0.0);
        assert!(!lcc.contains_key(&99));
    }

    #[test]
    fn in_neighbours_count_for_the_neighbourhood() {
        // 2 → 1 and 3 → 1; neighbourhood of 1 is {2, 3} even though 1 has no
        // out-edges; the closing edge 2 → 3 yields coefficient 0.5.
        let mut g = AdjacencyListGraph::new();
        g.insert_edge(2, 1);
        g.insert_edge(3, 1);
        g.insert_edge(2, 3);
        let lcc = local_clustering_coefficients(&g, &[1, 2, 3]);
        assert!((lcc[&1] - 0.5).abs() < 1e-12);
    }
}
