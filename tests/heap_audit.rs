//! Heap audit: how much of the real heap `memory_bytes()` accounts for.
//!
//! A counting global allocator — in this test binary only — tracks the live
//! heap. For four input shapes (Zipf(0.8), hubs, a small Zipf window and
//! uniform, each at a tenth of the matching cgbench workload) the test
//! builds a `CuckooGraph` edge by edge, as cgbench does, and compares the
//! live-heap growth the graph causes with what `memory_bytes()` reports. The
//! count must never exceed the real heap, and it may miss at most
//! [`MAX_GAP`] of it: what it leaves out (per-chain table headers, the
//! engine's S-CHT rebuild scratch, fixed descriptors) has to stay small.
//!
//! Run with `cargo test --release --test heap_audit -- --nocapture` to see
//! the per-shape table of counted and real bytes per edge.

use cuckoograph::{CuckooGraph, MemoryFootprint, NodeId};
use graph_api::DynamicGraph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Largest share of the graph's real heap `memory_bytes()` may leave out.
const MAX_GAP: f64 = 0.10;

/// Live heap bytes, as requested by callers (allocator overhead excluded).
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus a live-byte counter.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result, so `System`'s guarantees are this allocator's.
// The counter is bookkeeping only and never influences an allocation.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// SplitMix64: a whole generator in one `u64`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    /// A Zipf(0.8) rank in `[0, n)` by the continuous inverse CDF, scrambled
    /// over the id space so hot ids are not `0, 1, 2, …`.
    fn zipf(&mut self, n: u64) -> u64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        let span = ((n + 1) as f64).powf(0.2) - 1.0;
        let rank = ((1.0 + u * span).powi(5) as u64).clamp(1, n) - 1;
        rank.wrapping_mul(0x9E37_79B9_7F4A_7C55) % n
    }
}

/// `count` distinct edges drawn by `draw`, in arrival order.
fn distinct(count: usize, mut draw: impl FnMut() -> (NodeId, NodeId)) -> Vec<(NodeId, NodeId)> {
    let mut seen = HashSet::with_capacity(count);
    let mut edges = Vec::with_capacity(count);
    while edges.len() < count {
        let e = draw();
        if seen.insert(e) {
            edges.push(e);
        }
    }
    edges
}

/// `sources × per_source` edges, each source's targets distinct, shuffled.
fn hubs(sources: u64, per_source: usize, ids: u64, rng: &mut Rng) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::with_capacity(sources as usize * per_source);
    for s in 0..sources {
        let u = s.wrapping_mul(0x9E37_79B9_7F4A_7C55) % ids;
        let mut targets = HashSet::with_capacity(per_source);
        while targets.len() < per_source {
            let v = rng.below(ids);
            if targets.insert(v) {
                edges.push((u, v));
            }
        }
    }
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.below(i as u64 + 1) as usize);
    }
    edges
}

/// One shape's figures: counted and real bytes of the built graph.
struct Audit {
    edges: usize,
    counted: usize,
    heap: usize,
}

impl Audit {
    fn gap(&self) -> f64 {
        1.0 - self.counted as f64 / self.heap as f64
    }
}

/// Builds a graph from `edges` one insert at a time and measures it.
fn audit(edges: &[(NodeId, NodeId)]) -> Audit {
    let before = LIVE.load(Relaxed);
    // Boxed, so the engine's own struct is heap too, as `memory_bytes` has it.
    let mut g = Box::new(CuckooGraph::new());
    for &(u, v) in edges {
        assert!(g.insert_edge(u, v), "duplicate edge in the input");
    }
    let heap = LIVE.load(Relaxed) - before;
    let counted = g.memory_bytes();
    assert_eq!(g.edge_count(), edges.len());
    Audit {
        edges: edges.len(),
        counted,
        heap,
    }
}

#[test]
fn memory_bytes_accounts_for_the_real_heap() {
    let mut rng = Rng(1);
    let shapes: Vec<(&str, Vec<(NodeId, NodeId)>)> = vec![
        ("zipf 100k/25k", {
            let r = &mut rng;
            distinct(100_000, || (r.zipf(25_000), r.zipf(25_000)))
        }),
        ("hubs 100x1000", hubs(100, 1_000, 8_000, &mut rng)),
        ("zipf window 3.3k/819", {
            let r = &mut rng;
            distinct(3_277, || (r.zipf(819), r.zipf(819)))
        }),
        ("uniform 13k/5k", {
            let r = &mut rng;
            distinct(13_107, || (r.below(5_000), r.below(5_000)))
        }),
    ];

    println!(
        "{:<22} {:>8} {:>12} {:>12} {:>7}",
        "shape", "edges", "counted B/e", "heap B/e", "gap"
    );
    let mut failures = Vec::new();
    for (name, edges) in &shapes {
        let a = audit(edges);
        println!(
            "{:<22} {:>8} {:>12.2} {:>12.2} {:>6.1}%",
            name,
            a.edges,
            a.counted as f64 / a.edges as f64,
            a.heap as f64 / a.edges as f64,
            100.0 * a.gap()
        );
        if a.counted > a.heap {
            failures.push(format!(
                "{name}: counts {} B but the heap grew by {} B",
                a.counted, a.heap
            ));
        } else if a.gap() > MAX_GAP {
            failures.push(format!(
                "{name}: memory_bytes misses {:.1}% of the heap (limit {:.0}%)",
                100.0 * a.gap(),
                100.0 * MAX_GAP
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("; "));
}
