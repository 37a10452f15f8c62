//! Betweenness Centrality via Brandes' algorithm (Figure 15).
//!
//! The paper runs the Brandes algorithm \[56\] on the subgraph extracted from
//! the top-degree nodes. Brandes computes, for every source, a BFS shortest-
//! path DAG and accumulates pair dependencies on the way back — `O(|V|·|E|)`
//! for unweighted graphs.

use graph_api::{DynamicGraph, NodeId};
use std::collections::{HashMap, HashSet, VecDeque};

/// Betweenness centrality of every node in the subgraph induced by `nodes`
/// (directed variant, no normalisation — the relative ordering is what the
/// evaluation compares).
pub fn betweenness_centrality<G: DynamicGraph + ?Sized>(
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
    let mut centrality: HashMap<NodeId, f64> = selected.iter().map(|&u| (u, 0.0)).collect();

    for &source in &selected {
        // Brandes' single-source phase (unweighted → BFS).
        let mut stack: Vec<NodeId> = Vec::new();
        let mut predecessors: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        let mut sigma: HashMap<NodeId, f64> = HashMap::new();
        let mut distance: HashMap<NodeId, i64> = HashMap::new();
        sigma.insert(source, 1.0);
        distance.insert(source, 0);
        let mut queue = VecDeque::new();
        queue.push_back(source);

        while let Some(u) = queue.pop_front() {
            stack.push(u);
            let du = distance[&u];
            let sigma_u = sigma[&u];
            graph.for_each_successor(u, &mut |v| {
                if !in_set.contains(&v) {
                    return;
                }
                let dv = distance.entry(v).or_insert_with(|| {
                    queue.push_back(v);
                    du + 1
                });
                if *dv == du + 1 {
                    *sigma.entry(v).or_insert(0.0) += sigma_u;
                    predecessors.entry(v).or_default().push(u);
                }
            });
        }

        // Dependency accumulation in reverse BFS order.
        let mut delta: HashMap<NodeId, f64> = HashMap::new();
        while let Some(w) = stack.pop() {
            let coefficient = (1.0 + delta.get(&w).copied().unwrap_or(0.0)) / sigma[&w];
            if let Some(preds) = predecessors.get(&w) {
                for &p in preds {
                    *delta.entry(p).or_insert(0.0) += sigma[&p] * coefficient;
                }
            }
            if w != source {
                *centrality.get_mut(&w).expect("w is selected") +=
                    delta.get(&w).copied().unwrap_or(0.0);
            }
        }
    }

    centrality
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_baselines::AdjacencyListGraph;

    #[test]
    fn middle_of_a_path_has_the_highest_centrality() {
        let mut g = AdjacencyListGraph::new();
        for (u, v) in [(1, 2), (2, 3), (3, 4), (4, 5)] {
            g.insert_edge(u, v);
        }
        let bc = betweenness_centrality(&g, &[1, 2, 3, 4, 5]);
        assert!(bc[&3] > bc[&2]);
        assert!(bc[&3] > bc[&4] || (bc[&3] - bc[&4]).abs() < 1e-12);
        assert_eq!(bc[&1], 0.0);
        assert_eq!(bc[&5], 0.0);
    }

    #[test]
    fn path_centrality_matches_hand_computation() {
        // Directed path 1→2→3: only pair (1,3) routes through 2.
        let mut g = AdjacencyListGraph::new();
        g.insert_edge(1, 2);
        g.insert_edge(2, 3);
        let bc = betweenness_centrality(&g, &[1, 2, 3]);
        assert!((bc[&2] - 1.0).abs() < 1e-12);
        assert_eq!(bc[&1], 0.0);
        assert_eq!(bc[&3], 0.0);
    }

    #[test]
    fn parallel_shortest_paths_split_the_dependency() {
        // 1→2→4 and 1→3→4: nodes 2 and 3 each carry half of pair (1,4).
        let mut g = AdjacencyListGraph::new();
        for (u, v) in [(1, 2), (1, 3), (2, 4), (3, 4)] {
            g.insert_edge(u, v);
        }
        let bc = betweenness_centrality(&g, &[1, 2, 3, 4]);
        assert!((bc[&2] - 0.5).abs() < 1e-12);
        assert!((bc[&3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nodes_outside_the_selection_are_ignored() {
        let mut g = AdjacencyListGraph::new();
        g.insert_edge(1, 2);
        g.insert_edge(2, 3);
        g.insert_edge(2, 99);
        let bc = betweenness_centrality(&g, &[1, 2, 3]);
        assert!(!bc.contains_key(&99));
        assert!((bc[&2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_selection_is_empty() {
        let g = AdjacencyListGraph::new();
        assert!(betweenness_centrality(&g, &[]).is_empty());
    }
}
