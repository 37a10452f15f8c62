//! Timing drivers for the basic-task experiments: batch insertion, batch
//! query, and batch deletion, reported as Million operations per second
//! (Mops), plus memory-usage sampling for Figure 9 and the expand/contract
//! churn driver behind the `resize_churn` measurements.

use graph_api::{DynamicGraph, NodeId};
use std::time::Instant;

/// Throughput in million operations per second — the unit of Figures 6–8.
pub type Mops = f64;

/// Inserts every edge of `edges` into `graph` and returns the throughput.
pub fn run_inserts(graph: &mut dyn DynamicGraph, edges: &[(NodeId, NodeId)]) -> Mops {
    let start = Instant::now();
    for &(u, v) in edges {
        graph.insert_edge(u, v);
    }
    to_mops(edges.len(), start.elapsed().as_secs_f64())
}

/// Queries every edge of `edges` and returns the throughput. The number of
/// hits is folded into a black-box sum so the loop cannot be optimised away.
pub fn run_queries(graph: &dyn DynamicGraph, edges: &[(NodeId, NodeId)]) -> (Mops, usize) {
    let start = Instant::now();
    let mut hits = 0usize;
    for &(u, v) in edges {
        if graph.has_edge(u, v) {
            hits += 1;
        }
    }
    (to_mops(edges.len(), start.elapsed().as_secs_f64()), hits)
}

/// Deletes every edge of `edges` and returns the throughput.
pub fn run_deletes(graph: &mut dyn DynamicGraph, edges: &[(NodeId, NodeId)]) -> Mops {
    let start = Instant::now();
    for &(u, v) in edges {
        graph.delete_edge(u, v);
    }
    to_mops(edges.len(), start.elapsed().as_secs_f64())
}

/// Inserts every edge through the batched [`DynamicGraph::insert_edges`] path
/// and returns the throughput. Callers sort the batch by source so the
/// schemes' run-grouped fast paths apply (one node resolution per adjacency).
pub fn run_batched_inserts(graph: &mut dyn DynamicGraph, edges: &[(NodeId, NodeId)]) -> Mops {
    let start = Instant::now();
    let created = graph.insert_edges(edges);
    std::hint::black_box(created);
    to_mops(edges.len(), start.elapsed().as_secs_f64())
}

/// Scans the successor set of every node in `sources` through the
/// zero-allocation visitor. Returns the throughput in million *visited edges*
/// per second plus the number of visits (folded into a black-box sum so the
/// loop cannot be optimised away).
pub fn run_successor_scans(
    graph: &dyn DynamicGraph,
    sources: &[NodeId],
    rounds: usize,
) -> (Mops, u64) {
    let start = Instant::now();
    let mut visited = 0u64;
    let mut sum = 0u64;
    for _ in 0..rounds.max(1) {
        for &u in sources {
            graph.for_each_successor(u, &mut |v| {
                visited += 1;
                sum = sum.wrapping_add(v);
            });
        }
    }
    std::hint::black_box(sum);
    (
        to_mops(visited as usize, start.elapsed().as_secs_f64()),
        visited,
    )
}

/// Drives `waves` rounds of bulk insert + bulk delete of the whole edge set —
/// the expand/contract-heavy shape where resize cost dominates: every wave
/// grows each hot node's S-CHT chain through its transformation thresholds
/// and then shrinks it back to inline slots. Returns throughput over all
/// mutation operations (`2 × waves × edges`).
pub fn run_churn_waves(
    graph: &mut dyn DynamicGraph,
    edges: &[(NodeId, NodeId)],
    waves: usize,
) -> Mops {
    let start = Instant::now();
    let mut ops = 0usize;
    for _ in 0..waves.max(1) {
        let created = graph.insert_edges(edges);
        let removed = graph.remove_edges(edges);
        std::hint::black_box((created, removed));
        ops += 2 * edges.len();
    }
    to_mops(ops, start.elapsed().as_secs_f64())
}

/// Inserts the deduplicated `edges` one by one and samples the memory usage at
/// `samples` evenly spaced points — the Figure 9 curve.
pub fn memory_curve(
    graph: &mut dyn DynamicGraph,
    edges: &[(NodeId, NodeId)],
    samples: usize,
) -> Vec<(usize, f64)> {
    let step = (edges.len() / samples.max(1)).max(1);
    let mut curve = Vec::with_capacity(samples + 1);
    for (i, &(u, v)) in edges.iter().enumerate() {
        graph.insert_edge(u, v);
        if (i + 1) % step == 0 || i + 1 == edges.len() {
            curve.push((i + 1, graph.memory_mb()));
        }
    }
    curve
}

fn to_mops(operations: usize, seconds: f64) -> Mops {
    if seconds <= 0.0 {
        return f64::INFINITY;
    }
    operations as f64 / seconds / 1.0e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_baselines::AdjacencyListGraph;

    fn edges(n: u64) -> Vec<(NodeId, NodeId)> {
        (0..n).map(|i| (i % 50, i)).collect()
    }

    #[test]
    fn insert_query_delete_report_positive_throughput() {
        let workload = edges(5_000);
        let mut g = AdjacencyListGraph::new();
        let ins = run_inserts(&mut g, &workload);
        assert!(ins > 0.0);
        let (qry, hits) = run_queries(&g, &workload);
        assert!(qry > 0.0);
        assert_eq!(hits, workload.len());
        let del = run_deletes(&mut g, &workload);
        assert!(del > 0.0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn successor_scans_visit_every_edge_per_round() {
        let workload = edges(3_000);
        let mut g = AdjacencyListGraph::new();
        let inserted = g.insert_edges(&workload);
        let mut sources = Vec::new();
        g.for_each_node(&mut |u| sources.push(u));
        let (mops, visited) = run_successor_scans(&g, &sources, 2);
        assert!(mops > 0.0);
        assert_eq!(visited as usize, 2 * inserted);
    }

    #[test]
    fn batched_inserts_build_the_same_graph() {
        let workload = edges(2_000);
        let mut batched = AdjacencyListGraph::new();
        let mut looped = AdjacencyListGraph::new();
        assert!(run_batched_inserts(&mut batched, &workload) > 0.0);
        run_inserts(&mut looped, &workload);
        assert_eq!(batched.edge_count(), looped.edge_count());
    }

    #[test]
    fn churn_waves_leave_the_graph_empty() {
        let workload = edges(1_500);
        let mut g = AdjacencyListGraph::new();
        let mops = run_churn_waves(&mut g, &workload, 3);
        assert!(mops > 0.0);
        assert_eq!(g.edge_count(), 0, "churn waves must drain the graph");
        let mut cuckoo = cuckoograph::CuckooGraph::new();
        assert!(run_churn_waves(&mut cuckoo, &workload, 2) > 0.0);
        assert_eq!(cuckoo.edge_count(), 0);
        assert!(
            cuckoo.stats().contractions > 0,
            "churn never exercised the contraction path"
        );
    }

    #[test]
    fn memory_curve_is_monotone_and_sampled() {
        let workload = edges(2_000);
        let mut g = AdjacencyListGraph::new();
        let curve = memory_curve(&mut g, &workload, 10);
        assert!(curve.len() >= 10);
        assert_eq!(curve.last().unwrap().0, workload.len());
        assert!(curve.windows(2).all(|w| w[1].0 > w[0].0));
        assert!(curve.last().unwrap().1 > 0.0);
    }

    #[test]
    fn to_mops_handles_zero_elapsed() {
        assert!(to_mops(10, 0.0).is_infinite());
        assert!((to_mops(2_000_000, 1.0) - 2.0).abs() < 1e-12);
    }
}
