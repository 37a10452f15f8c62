//! Criterion micro-benchmarks for the basic tasks (Figures 6–9): insertion,
//! query and deletion throughput of every scheme, plus a memory-per-edge
//! measurement, on CAIDA-like and NotreDame-like workloads.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use graph_bench::SchemeKind;
use graph_datasets::{generate, DatasetKind};

const SCALE: f64 = 0.0003;
const SEED: u64 = 0x1CDE_2025;

fn schemes() -> [SchemeKind; 5] {
    SchemeKind::paper_lineup()
}

fn bench_insert(c: &mut Criterion) {
    for kind in [DatasetKind::Caida, DatasetKind::NotreDame] {
        let edges = generate(kind, SCALE, SEED).distinct_edges();
        let mut group = c.benchmark_group(format!("fig6_insert_{}", kind.name()));
        group.throughput(criterion::Throughput::Elements(edges.len() as u64));
        for scheme in schemes() {
            group.bench_with_input(
                BenchmarkId::from_parameter(scheme.label()),
                &scheme,
                |b, &scheme| {
                    b.iter_batched(
                        || scheme.build(),
                        |mut graph| {
                            for &(u, v) in &edges {
                                graph.insert_edge(u, v);
                            }
                            graph
                        },
                        BatchSize::SmallInput,
                    );
                },
            );
        }
        group.finish();
    }
}

fn bench_query(c: &mut Criterion) {
    for kind in [DatasetKind::Caida, DatasetKind::NotreDame] {
        let edges = generate(kind, SCALE, SEED).distinct_edges();
        let mut group = c.benchmark_group(format!("fig7_query_{}", kind.name()));
        group.throughput(criterion::Throughput::Elements(edges.len() as u64));
        for scheme in schemes() {
            let mut graph = scheme.build();
            for &(u, v) in &edges {
                graph.insert_edge(u, v);
            }
            group.bench_with_input(
                BenchmarkId::from_parameter(scheme.label()),
                &scheme,
                |b, _| {
                    b.iter(|| {
                        let mut hits = 0usize;
                        for &(u, v) in &edges {
                            if graph.has_edge(u, v) {
                                hits += 1;
                            }
                        }
                        hits
                    });
                },
            );
        }
        group.finish();
    }
}

/// Point queries on the PR-4 tagged/memoized probe path: per scheme, a hit
/// series (stored edges) and a miss series (absent edges over the same
/// sources — the case the tag bytes win outright, no payload is ever
/// touched).
fn bench_point_query(c: &mut Criterion) {
    let edges = generate(DatasetKind::Caida, SCALE, SEED).distinct_edges();
    // Misses reuse real sources with destinations shifted out of the id space,
    // so the probe walks real, loaded buckets and fails only at the last step.
    let misses: Vec<(u64, u64)> = edges.iter().map(|&(u, v)| (u, v + (1 << 40))).collect();
    let mut group = c.benchmark_group("point_query_CAIDA");
    group.throughput(criterion::Throughput::Elements(edges.len() as u64));
    for scheme in schemes() {
        let mut graph = scheme.build();
        for &(u, v) in &edges {
            graph.insert_edge(u, v);
        }
        group.bench_with_input(BenchmarkId::new("hit", scheme.label()), &scheme, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for &(u, v) in &edges {
                    if graph.has_edge(u, v) {
                        hits += 1;
                    }
                }
                hits
            });
        });
        group.bench_with_input(BenchmarkId::new("miss", scheme.label()), &scheme, |b, _| {
            b.iter(|| {
                let mut hits = 0usize;
                for &(u, v) in &misses {
                    if graph.has_edge(u, v) {
                        hits += 1;
                    }
                }
                hits
            });
        });
    }
    group.finish();
}

fn bench_delete(c: &mut Criterion) {
    let edges = generate(DatasetKind::Caida, SCALE, SEED).distinct_edges();
    let mut group = c.benchmark_group("fig8_delete_CAIDA");
    group.throughput(criterion::Throughput::Elements(edges.len() as u64));
    for scheme in schemes() {
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.label()),
            &scheme,
            |b, &scheme| {
                b.iter_batched(
                    || {
                        let mut graph = scheme.build();
                        for &(u, v) in &edges {
                            graph.insert_edge(u, v);
                        }
                        graph
                    },
                    |mut graph| {
                        for &(u, v) in &edges {
                            graph.delete_edge(u, v);
                        }
                        graph
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// Successor scans through the zero-allocation visitor.
fn bench_successor_scan(c: &mut Criterion) {
    let edges = generate(DatasetKind::NotreDame, SCALE, SEED).distinct_edges();
    let mut group = c.benchmark_group("scan_successors_NotreDame");
    group.throughput(criterion::Throughput::Elements(edges.len() as u64));
    for scheme in schemes() {
        let mut graph = scheme.build();
        graph.insert_edges(&edges);
        let mut sources = Vec::new();
        graph.for_each_node(&mut |u| sources.push(u));
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.label()),
            &scheme,
            |b, _| {
                b.iter(|| {
                    let mut sum = 0u64;
                    for &u in &sources {
                        graph.for_each_successor(u, &mut |v| sum = sum.wrapping_add(v));
                    }
                    sum
                });
            },
        );
    }
    group.finish();
}

/// Batched `insert_edges` vs the per-edge loop on a source-sorted batch.
fn bench_batched_insert(c: &mut Criterion) {
    let mut edges = generate(DatasetKind::Caida, SCALE, SEED).distinct_edges();
    edges.sort_unstable();
    let mut group = c.benchmark_group("insert_batched_CAIDA");
    group.throughput(criterion::Throughput::Elements(edges.len() as u64));
    for scheme in schemes() {
        group.bench_with_input(
            BenchmarkId::new("batch", scheme.label()),
            &scheme,
            |b, &scheme| {
                b.iter_batched(
                    || scheme.build(),
                    |mut graph| {
                        graph.insert_edges(&edges);
                        graph
                    },
                    BatchSize::SmallInput,
                );
            },
        );
        group.bench_with_input(
            BenchmarkId::new("loop", scheme.label()),
            &scheme,
            |b, &scheme| {
                b.iter_batched(
                    || scheme.build(),
                    |mut graph| {
                        for &(u, v) in &edges {
                            graph.insert_edge(u, v);
                        }
                        graph
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// Expand/contract-heavy churn (PR 5): interleaved bulk insert/delete waves
/// drive every hot node's S-CHT chain up through its transformation
/// thresholds and back down to inline slots, so resize cost dominates.
fn bench_resize_churn(c: &mut Criterion) {
    const WAVES: usize = 2;
    let mut edges = generate(DatasetKind::Caida, SCALE, SEED).distinct_edges();
    edges.sort_unstable();
    let mut group = c.benchmark_group("resize_churn_CAIDA");
    group.throughput(criterion::Throughput::Elements(
        (2 * WAVES * edges.len()) as u64,
    ));
    for scheme in schemes() {
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.label()),
            &scheme,
            |b, &scheme| {
                b.iter_batched(
                    || scheme.build(),
                    |mut graph| {
                        for _ in 0..WAVES {
                            graph.insert_edges(&edges);
                            graph.remove_edges(&edges);
                        }
                        graph
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// Figure 9 companion: not a timing benchmark but a quick per-scheme memory
/// report printed once so `cargo bench` output carries the space comparison.
fn bench_memory_report(c: &mut Criterion) {
    let edges = generate(DatasetKind::Caida, SCALE, SEED).distinct_edges();
    let mut group = c.benchmark_group("fig9_memory_per_edge_bytes");
    for scheme in schemes() {
        let mut graph = scheme.build();
        for &(u, v) in &edges {
            graph.insert_edge(u, v);
        }
        let per_edge = graph.memory_bytes() as f64 / edges.len() as f64;
        println!(
            "fig9 memory: {:12} {:8.1} bytes/edge",
            scheme.label(),
            per_edge
        );
        // Keep Criterion happy with a trivial measured closure.
        group.bench_function(BenchmarkId::from_parameter(scheme.label()), |b| {
            b.iter(|| graph.memory_bytes())
        });
    }
    group.finish();
}

criterion_group! {
    name = operations;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_insert, bench_query, bench_point_query, bench_delete,
        bench_successor_scan, bench_batched_insert, bench_resize_churn,
        bench_memory_report
}
criterion_main!(operations);
