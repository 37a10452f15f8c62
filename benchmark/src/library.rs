//! The library section: insert → probe → scan → delete rounds on a fresh
//! graph, and the sawtooth (churn) rounds, all through `DynamicGraph` so the
//! same code times `CuckooGraph` and the Spruce yardstick.

use crate::gen::{Edge, Fingerprint, SplitMix64};
use crate::trace::Tracer;
use cuckoograph::StructureStats;
use graph_api::{DynamicGraph, NodeId};
use std::hint::black_box;
use std::time::Instant;

/// Point operations per timed chunk: about a millisecond of work, short
/// enough that some reading of every chunk falls between two interruptions.
pub const CHUNK: usize = 4_096;
/// Timed chunks per traced span (65,536 point operations): reading the
/// structure counters walks every cell, so spans are coarser than timings.
pub const SPAN_CHUNKS: usize = 16;

/// Everything a library round reads besides the edges themselves (a prefix
/// of the run's stream, in arrival order), laid out so the timed loops walk
/// plain arrays front to back: an index array would add a cache miss of the
/// generator's own to every probe.
#[derive(Debug)]
pub struct LibInputs {
    /// The edges, shuffled: every probe must hit.
    pub hits: Vec<Edge>,
    /// As many absent edges: the first half keep a present source and take a
    /// target outside the id space, the second half an absent source.
    pub misses: Vec<Edge>,
    /// Distinct sources, shuffled.
    pub sources: Vec<u32>,
    /// The same edges in deletion order.
    pub deletes: Vec<Edge>,
    /// Wrapping sum of every target: what one scan pass must add up to.
    pub target_sum: u64,
}

impl LibInputs {
    pub fn new(edges: &[Edge], ids: u32, rng: &mut SplitMix64) -> Self {
        let mut hits = edges.to_vec();
        rng.shuffle(&mut hits);
        let mut deletes = edges.to_vec();
        rng.shuffle(&mut deletes);
        let half = edges.len() / 2;
        let mut misses: Vec<Edge> = hits
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| if i < half { (u, v + ids) } else { (u + ids, v) })
            .collect();
        rng.shuffle(&mut misses);
        let mut sources: Vec<u32> = edges.iter().map(|e| e.0).collect();
        sources.sort_unstable();
        sources.dedup();
        rng.shuffle(&mut sources);
        let target_sum = edges
            .iter()
            .fold(0u64, |acc, e| acc.wrapping_add(u64::from(e.1)));
        Self {
            hits,
            misses,
            sources,
            deletes,
            target_sum,
        }
    }

    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.edges(&self.hits);
        fp.edges(&self.misses);
        fp.edges(&self.deletes);
        for &s in &self.sources {
            fp.word(u64::from(s));
        }
    }
}

/// Sources per timed chunk of a scan pass.
pub const SCAN_CHUNK: usize = 256;

/// Seconds each chunk of each phase of one library round took, and what the
/// round checked. Rounds repeat the same work on a fresh graph, so chunk `k`
/// of one round is comparable with chunk `k` of every other.
#[derive(Debug, Clone, Default)]
pub struct LibRound {
    pub insert: Vec<f64>,
    pub hit: Vec<f64>,
    pub miss: Vec<f64>,
    pub scan: Vec<f64>,
    pub delete: Vec<f64>,
    pub memory_bytes: usize,
    pub attempted: u64,
    pub failed: u64,
}

/// What a traced round hands the caller once every edge is in: the moment
/// the structure counters and BFS are read.
pub type HighWater<'a, G> = &'a mut dyn FnMut(&G);

fn ids(e: Edge) -> (NodeId, NodeId) {
    (NodeId::from(e.0), NodeId::from(e.1))
}

/// The tracer a traced round writes to, and the round's span.
pub type RoundTrace<'a> = Option<(&'a mut Tracer, u64)>;

/// Runs `op` over `items` and returns the seconds each chunk of `chunk`
/// items took. With a tracer every [`SPAN_CHUNKS`] chunks also become a span
/// under `phase` carrying the structure-counter deltas `stats` reports.
fn timed_phase<G, T: Copy>(
    g: &mut G,
    items: &[T],
    chunk: usize,
    phase: &'static str,
    tracer: &mut RoundTrace<'_>,
    stats: &dyn Fn(&G) -> Option<StructureStats>,
    mut op: impl FnMut(&mut G, T),
) -> Vec<f64> {
    let span = tracer
        .as_mut()
        .map(|(t, round)| t.open(phase, Some(*round)));
    let mut secs = Vec::with_capacity(items.len().div_ceil(chunk));
    for group in items.chunks(chunk * SPAN_CHUNKS) {
        let traced = match (tracer.as_mut(), span) {
            (Some((t, _)), Some(span)) => Some((stats(g), t.open("chunk", Some(span)))),
            _ => None,
        };
        for part in group.chunks(chunk) {
            let start = Instant::now();
            for &item in part {
                op(g, item);
            }
            secs.push(start.elapsed().as_secs_f64());
        }
        if let (Some((t, _)), Some((before, chunk_span))) = (tracer.as_mut(), traced) {
            t.close(chunk_span, group.len() as u64);
            if let (Some(b), Some(a)) = (before, stats(g)) {
                t.attrs(
                    chunk_span,
                    &[
                        ("expansions", (a.expansions - b.expansions) as f64),
                        ("contractions", (a.contractions - b.contractions) as f64),
                        (
                            "lcht_placements",
                            (a.lcht_placements - b.lcht_placements) as f64,
                        ),
                        (
                            "scht_placements",
                            (a.scht_placements - b.scht_placements) as f64,
                        ),
                        (
                            "insertion_failures",
                            (a.insertion_failures - b.insertion_failures) as f64,
                        ),
                    ],
                );
            }
        }
    }
    if let (Some((t, _)), Some(span)) = (tracer.as_mut(), span) {
        t.close(span, items.len() as u64);
    }
    secs
}

/// One round on a fresh `g`: insert all of `edges`, probe hits then misses,
/// scan every source `passes` times, delete all. Every return value is
/// checked. `inp` must have been made from `edges`.
pub fn lib_round<G: DynamicGraph>(
    g: &mut G,
    edges: &[Edge],
    inp: &LibInputs,
    passes: usize,
    mut tracer: RoundTrace<'_>,
    stats: &dyn Fn(&G) -> Option<StructureStats>,
    high_water: HighWater<'_, G>,
) -> LibRound {
    let n = edges.len() as u64;
    let mut r = LibRound::default();

    let mut created = 0u64;
    r.insert = timed_phase(
        g,
        edges,
        CHUNK,
        "phase.insert",
        &mut tracer,
        stats,
        |g, e| {
            let (u, v) = ids(e);
            created += u64::from(g.insert_edge(u, v));
        },
    );
    r.failed += n - created;
    r.failed += u64::from(g.edge_count() as u64 != n);
    r.memory_bytes = g.memory_bytes();
    high_water(g);

    let mut found = 0u64;
    r.hit = timed_phase(
        g,
        &inp.hits,
        CHUNK,
        "phase.query_hit",
        &mut tracer,
        stats,
        |g, e| {
            let (u, v) = ids(e);
            found += u64::from(g.has_edge(u, v));
        },
    );
    r.failed += n - found;

    let mut phantom = 0u64;
    r.miss = timed_phase(
        g,
        &inp.misses,
        CHUNK,
        "phase.query_miss",
        &mut tracer,
        stats,
        |g, e| {
            let (u, v) = ids(e);
            phantom += u64::from(g.has_edge(u, v));
        },
    );
    r.failed += phantom;

    let (mut visited, mut sum) = (0u64, 0u64);
    for _ in 0..passes {
        r.scan.extend(timed_phase(
            g,
            &inp.sources,
            SCAN_CHUNK,
            "phase.scan",
            &mut tracer,
            // Scans change no counter; do not pay for reading them.
            &|_| None,
            |g, u| {
                g.for_each_successor(NodeId::from(u), &mut |v| {
                    visited += 1;
                    sum = sum.wrapping_add(v);
                });
            },
        ));
    }
    let passes = passes as u64;
    r.failed +=
        u64::from(visited != passes * n) + u64::from(sum != inp.target_sum.wrapping_mul(passes));

    let mut removed = 0u64;
    r.delete = timed_phase(
        g,
        &inp.deletes,
        CHUNK,
        "phase.delete",
        &mut tracer,
        stats,
        |g, e| {
            let (u, v) = ids(e);
            removed += u64::from(g.delete_edge(u, v));
        },
    );
    r.failed += n - removed;
    r.failed += u64::from(g.edge_count() != 0);

    r.attempted = 4 * n + passes * inp.sources.len() as u64;
    black_box(&r);
    r
}

/// Seconds each chunk of [`CHUNK`] mutations of a sawtooth round took.
#[derive(Debug, Clone, Default)]
pub struct ChurnRound {
    pub chunks: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
}

/// One sawtooth round on a fresh `g`: the live set grows to `hi` edges,
/// FIFO-shrinks to `lo`, and repeats for `mutations` mutations; each is
/// followed by a probe of a random live edge (must hit) and of an absent
/// edge on the same source (must miss). `stream` is cycled, which is safe
/// because it is longer than `hi`: an edge is long deleted before its turn
/// comes again.
pub fn churn_round<G: DynamicGraph>(
    g: &mut G,
    stream: &[Edge],
    ids_in_space: u32,
    (hi, lo): (usize, usize),
    mutations: usize,
    rng: &mut SplitMix64,
) -> ChurnRound {
    assert!(stream.len() > hi && hi > lo && lo >= 1);
    let n = stream.len();
    let (mut head, mut tail) = (0usize, 0usize);
    let mut growing = true;
    let mut good = 0u64;
    let mut chunks = Vec::with_capacity(mutations.div_ceil(CHUNK));
    let mut left = mutations;
    while left > 0 {
        let start = Instant::now();
        for _ in 0..left.min(CHUNK) {
            if growing {
                let (u, v) = ids(stream[head % n]);
                good += u64::from(g.insert_edge(u, v));
                head += 1;
                growing = head - tail < hi;
            } else {
                let (u, v) = ids(stream[tail % n]);
                good += u64::from(g.delete_edge(u, v));
                tail += 1;
                growing = head - tail <= lo;
            }
            let live = (head - tail) as u64;
            let (u, v) = ids(stream[(tail + rng.below(live) as usize) % n]);
            good += u64::from(g.has_edge(u, v));
            good += u64::from(!g.has_edge(u, v + NodeId::from(ids_in_space)));
        }
        chunks.push(start.elapsed().as_secs_f64());
        left -= left.min(CHUNK);
    }
    let ops = 3 * mutations as u64;
    ChurnRound {
        chunks,
        ops,
        failed: ops - good + u64::from(g.edge_count() != head - tail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{edge_stream, Shape};
    use cuckoograph::CuckooGraph;

    /// A 6,000-edge stream and the library inputs over its first 4,000.
    fn inputs() -> (Vec<Edge>, LibInputs) {
        let mut rng = SplitMix64::new(5);
        let stream = edge_stream(Shape::Zipf { ids: 500 }, 6_000, &mut rng);
        let inp = LibInputs::new(&stream[..4_000], 500, &mut rng);
        (stream, inp)
    }

    #[test]
    fn inputs_are_permutations_and_misses_are_absent() {
        let (stream, inp) = inputs();
        let edges = &stream[..4_000];
        let sorted = |v: &[Edge]| {
            let mut v = v.to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&inp.hits), sorted(edges));
        assert_eq!(sorted(&inp.deletes), sorted(edges));
        assert_eq!(inp.misses.len(), edges.len());
        assert!(inp.misses.iter().all(|&(u, v)| u >= 500 || v >= 500));
        let absent_source = inp.misses.iter().filter(|m| m.0 >= 500).count();
        assert_eq!(absent_source, edges.len() - edges.len() / 2);
    }

    #[test]
    fn a_round_on_the_real_graph_passes_every_check() {
        let (stream, inp) = inputs();
        let mut seen_edges = 0;
        let r = lib_round(
            &mut CuckooGraph::new(),
            &stream[..4_000],
            &inp,
            3,
            None,
            &|_| None,
            &mut |g| {
                seen_edges = g.edge_count();
            },
        );
        assert_eq!(r.failed, 0);
        assert_eq!(seen_edges, 4_000);
        assert_eq!(r.attempted, 4 * 4_000 + 3 * inp.sources.len() as u64);
        assert!(r.memory_bytes > 0);
    }

    #[test]
    fn a_wrong_expectation_is_counted_as_failed() {
        let (stream, mut inp) = inputs();
        inp.target_sum += 1;
        inp.misses[0] = stream[0];
        let r = lib_round(
            &mut CuckooGraph::new(),
            &stream[..4_000],
            &inp,
            1,
            None,
            &|_| None,
            &mut |_| {},
        );
        assert_eq!(r.failed, 2);
    }

    #[test]
    fn sawtooth_keeps_the_window_and_checks_every_op() {
        let (stream, _) = inputs();
        let mut g = CuckooGraph::new();
        let r = churn_round(
            &mut g,
            &stream,
            500,
            (600, 80),
            20_000,
            &mut SplitMix64::new(9),
        );
        assert_eq!((r.ops, r.failed), (60_000, 0));
        assert!((80..=600).contains(&g.edge_count()));
        assert!(g.stats().contractions > 0, "the window must shrink tables");
    }
}
