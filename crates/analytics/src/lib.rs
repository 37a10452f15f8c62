//! Graph analytics tasks from the paper's evaluation (§ V-E), implemented
//! generically over [`graph_api::DynamicGraph`] so each storage scheme is
//! exercised exactly through its own successor-query / edge-query functions —
//! which is what the paper measures.
//!
//! | Module | Task | Figure |
//! |--------|------|--------|
//! | [`mod@bfs`] | Breadth-First Search from top-degree sources | Fig. 10 |
//! | [`sssp`] | Single-Source Shortest Paths (Dijkstra) | Fig. 11 |
//! | [`triangle`] | Triangle Counting around a node | Fig. 12 |
//! | [`cc`] | Connected Components (Tarjan SCC) | Fig. 13 |
//! | [`mod@pagerank`] | PageRank, 100 iterations | Fig. 14 |
//! | [`betweenness`] | Betweenness Centrality (Brandes) | Fig. 15 |
//! | [`lcc`] | Local Clustering Coefficient | Fig. 16 |
//! | [`subgraph`] | top-degree node selection and subgraph extraction | § V-E methodology |
//! | [`parallel`] | per-shard parallel passes over [`graph_api::ShardedGraph`] | — |

pub mod betweenness;
pub mod bfs;
pub mod cc;
pub mod lcc;
pub mod pagerank;
pub mod parallel;
pub mod sssp;
pub mod subgraph;
pub mod triangle;

pub use betweenness::betweenness_centrality;
pub use bfs::{bfs, bfs_from_top_degree};
pub use cc::{connected_components, ComponentSummary};
pub use lcc::local_clustering_coefficients;
pub use pagerank::{pagerank, PageRankConfig};
pub use parallel::{
    par_connected_components, par_edge_count, par_nodes, par_top_degree_nodes, par_total_degrees,
};
pub use sssp::{dijkstra, sssp_from_top_degree};
pub use subgraph::{extract_subgraph, rank_by_degree, top_degree_nodes, total_degrees};
pub use triangle::triangles_containing;

#[cfg(test)]
mod tests {
    use super::*;
    use graph_api::DynamicGraph;

    /// A small deterministic graph reused by the cross-task smoke test:
    /// a 4-clique (0-3) plus a path 3 → 4 → 5.
    fn sample() -> cuckoograph::CuckooGraph {
        let mut g = cuckoograph::CuckooGraph::new();
        for u in 0..4u64 {
            for v in 0..4u64 {
                if u != v {
                    g.insert_edge(u, v);
                }
            }
        }
        g.insert_edge(3, 4);
        g.insert_edge(4, 5);
        g
    }

    #[test]
    fn all_tasks_run_on_the_same_graph() {
        let g = sample();
        let order = bfs(&g, 0);
        assert_eq!(order.len(), 6);

        let dist = dijkstra(&g, 0);
        assert_eq!(dist.get(&5), Some(&3));

        // In the bidirectional 4-clique there are 3·2 = 6 directed 2-hop paths
        // 0 → a → b (a, b ∈ {1,2,3}, a ≠ b) and every closing edge b → 0 exists.
        assert_eq!(triangles_containing(&g, 0), 6);

        // The storage schemes only list source nodes; node 5 is a sink, so the
        // analysed node set is given explicitly (as the paper's driver does
        // when it extracts subgraphs).
        let nodes: Vec<u64> = (0..=5).collect();
        let comps = connected_components(&g, &nodes);
        assert!(comps.count >= 1);

        let pr = pagerank(&g, &nodes, &PageRankConfig::default());
        assert!((pr.values().sum::<f64>() - 1.0).abs() < 1e-6);

        let bc = betweenness_centrality(&g, &nodes);
        assert!(bc[&3] > bc[&1], "node 3 bridges the clique and the tail");

        let lcc = local_clustering_coefficients(&g, &nodes);
        assert!(lcc[&0] > 0.9, "clique members are fully clustered");
        assert_eq!(lcc[&5], 0.0);
    }
}
