//! Property tests for the concurrency layer: reads under ingest, through one
//! reader/writer lock per shard.
//!
//! The shard lock changes *when* a query runs relative to a shard's writer
//! (between write chunks instead of after the whole batch), never *what*
//! either side computes — so three equivalences must hold under randomized
//! insert/delete/expand/contract interleavings:
//!
//! 1. **Safety under races**: readers running concurrently with a writer see
//!    only committed states — every never-deleted edge on every pass, no
//!    never-inserted edge ever, and successor sets drawn entirely from the
//!    values some batch actually wrote.
//! 2. **Result equivalence**: once the writer finishes, the concurrently
//!    mutated graph is identical to a serially driven oracle fed the same
//!    batches in the same order.
//! 3. **Exclusive-path pinning**: the shared (`&self`) surface and the
//!    classic `&mut` surface both produce exactly the edge set a `BTreeSet`
//!    model driven by the same batches holds, with identical structural
//!    stats.
//!
//! Underneath all three sits the exclusion itself — no reader is inside a
//! shard while a writer is, and vice versa — which is what lets a write chunk
//! free the tables and segments it replaces on the spot;
//! `writers_and_readers_exclude_each_other` pins it on a probe engine.
//!
//! Plus honest accounting: epoch advances equal the number of write chunks
//! the batches mathematically must take, and reader pins equal the reads
//! issued; aggregate counts read one cut of all shards
//! (`aggregate_counts_read_one_cut`); and the number of readers is not
//! capped (`readers_are_not_capped`).

use cuckoograph::{CuckooGraph, CuckooGraphConfig, NodeId, Sharded, ShardedCuckooGraph};
use graph_api::{DynamicGraph, GraphScheme, MemoryFootprint};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

/// Churn batch sizes stay well past one ingest chunk (512) so every run
/// takes several write guards per batch.
#[cfg(debug_assertions)]
const CHURN_EDGES: u64 = 1_500;
#[cfg(not(debug_assertions))]
const CHURN_EDGES: u64 = 4_000;

#[cfg(debug_assertions)]
const CASES: u32 = 8;
#[cfg(not(debug_assertions))]
const CASES: u32 = 24;

/// Sources are split into three disjoint bands so reader assertions are
/// exact no matter where the writer is mid-batch: stable sources are never
/// mutated after setup, churn sources flap, phantom sources never exist.
const STABLE_BASE: u64 = 0;
const CHURN_BASE: u64 = 1_000_000;
const PHANTOM_BASE: u64 = 2_000_000;

fn stable_edges(seed: u64) -> Vec<(NodeId, NodeId)> {
    (0..CHURN_EDGES / 2)
        .map(|i| {
            (
                STABLE_BASE + (i.wrapping_mul(seed | 1)) % 61,
                (i.wrapping_mul(31)) % 500,
            )
        })
        .collect()
}

fn churn_edges(seed: u64) -> Vec<(NodeId, NodeId)> {
    (0..CHURN_EDGES)
        .map(|i| {
            (
                CHURN_BASE + (i.wrapping_mul(seed | 1)) % 37,
                (i.wrapping_mul(17)) % 800,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Readers racing a churning writer observe only committed states, and
    /// the final graph matches a serial oracle fed the same batches.
    #[test]
    fn concurrent_readers_agree_with_the_locked_oracle(
        seed in 1u64..500,
        shards in 1usize..5,
        waves in 2usize..5,
    ) {
        let g = ShardedCuckooGraph::with_config(
            shards,
            CuckooGraphConfig::default().with_seed(seed),
        );
        let stable = stable_edges(seed);
        let churn = churn_edges(seed);
        g.ingest_batch(&stable);

        let churn_targets: BTreeSet<NodeId> = churn.iter().map(|&(_, v)| v).collect();
        let writer_done = AtomicBool::new(false);
        let reads = AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..waves {
                    g.ingest_batch(&churn);
                    g.remove_batch(&churn);
                }
                g.ingest_batch(&churn);
                writer_done.store(true, Ordering::SeqCst);
            });
            scope.spawn(|| {
                let view = g.read_view();
                let mut first_pass = true;
                while first_pass || !writer_done.load(Ordering::SeqCst) {
                    first_pass = false;
                    // Stable edges are never deleted: visible on every pass.
                    for &(u, v) in stable.iter().step_by(97) {
                        assert!(view.has_edge(u, v), "lost committed edge ({u}, {v})");
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                    // Phantom sources are never inserted: invisible forever.
                    for p in 0..4u64 {
                        assert!(
                            !view.has_edge(PHANTOM_BASE + p, p),
                            "phantom edge materialised"
                        );
                        assert_eq!(view.out_degree(PHANTOM_BASE + p), 0);
                    }
                    // A churn source's successors may be any committed subset
                    // of its batch, but never values no batch ever wrote.
                    let u = CHURN_BASE + (seed % 37);
                    view.for_each_successor(u, &mut |v| {
                        assert!(
                            churn_targets.contains(&v),
                            "successor {v} of churn source {u} was never written"
                        );
                    });
                }
            });
        });
        prop_assert!(reads.load(Ordering::Relaxed) > 0);

        // Result equivalence: the same batches, driven serially through the
        // exclusive surface, give the identical graph.
        let mut oracle = ShardedCuckooGraph::with_config(
            shards,
            CuckooGraphConfig::default().with_seed(seed),
        );
        oracle.insert_edges(&stable);
        for _ in 0..waves {
            oracle.insert_edges(&churn);
            oracle.remove_edges(&churn);
        }
        oracle.insert_edges(&churn);
        prop_assert_eq!(g.edge_count(), oracle.edge_count());
        prop_assert_eq!(g.node_count(), oracle.node_count());
        let mut ours: Vec<(NodeId, NodeId)> = Vec::new();
        g.for_each_edge(|u, v| ours.push((u, v)));
        let mut theirs: Vec<(NodeId, NodeId)> = Vec::new();
        oracle.for_each_edge(|u, v| theirs.push((u, v)));
        ours.sort_unstable();
        theirs.sort_unstable();
        prop_assert_eq!(ours, theirs);
    }

    /// The shared (`&self`) surface and the classic `&mut` surface both
    /// produce exactly the edge set of a `BTreeSet` model fed the same
    /// batches, with the same op return values and (modulo the read/window
    /// counter block) identical stats.
    #[test]
    fn shared_surface_is_pinned_to_the_exclusive_path(
        seed in 1u64..500,
        shards in 1usize..5,
    ) {
        let config = CuckooGraphConfig::default().with_seed(seed);
        let stable = stable_edges(seed);
        let churn = churn_edges(seed);

        // The model: inserts count newly created edges, removals count edges
        // that were present — the batch return values both surfaces report.
        let mut model: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let created_stable = stable.iter().filter(|&&e| model.insert(e)).count();
        let created_churn = churn.iter().filter(|&&e| model.insert(e)).count();
        let removed_churn = churn.iter().filter(|e| model.remove(e)).count();

        let concurrent = ShardedCuckooGraph::with_config(shards, config.clone());
        let mut exclusive = ShardedCuckooGraph::with_config(shards, config.clone());
        prop_assert_eq!(concurrent.ingest_batch(&stable), created_stable);
        prop_assert_eq!(concurrent.ingest_batch(&churn), created_churn);
        prop_assert_eq!(concurrent.remove_batch(&churn), removed_churn);
        prop_assert_eq!(exclusive.insert_edges(&stable), created_stable);
        prop_assert_eq!(exclusive.insert_edges(&churn), created_churn);
        prop_assert_eq!(exclusive.remove_edges(&churn), removed_churn);

        let want: Vec<(NodeId, NodeId)> = model.iter().copied().collect();
        for (name, g) in [("concurrent", &concurrent), ("exclusive", &exclusive)] {
            prop_assert_eq!(g.edge_count(), want.len(), "{}", name);
            let mut ours: Vec<(NodeId, NodeId)> = Vec::new();
            g.for_each_edge(|u, v| ours.push((u, v)));
            ours.sort_unstable();
            prop_assert_eq!(&ours, &want, "{} edge set diverged from the model", name);
        }

        // Structural stats agree in every field but the read/window counter
        // block: a window frees what it replaces exactly as the exclusive
        // path does, so memory and segment accounting match to the byte.
        let mut a = concurrent.stats();
        let mut c = exclusive.stats();
        for s in [&mut a, &mut c] {
            s.reader_retries = 0;
            s.read_pins = 0;
            s.epoch_advances = 0;
        }
        prop_assert_eq!(&a, &c, "concurrent vs exclusive stats");
    }
}

/// Window and pin accounting is exact, not advisory: a single-shard graph
/// takes precisely `ceil(batch / 512)` write guards per shared-surface
/// batch, and every view read takes exactly one read guard.
#[test]
fn epoch_and_pin_accounting_is_exact() {
    let g = ShardedCuckooGraph::new(1);
    let edges: Vec<(NodeId, NodeId)> = (0..1_300u64).map(|i| (i % 7, i)).collect();

    g.ingest_batch(&edges); // 1300 edges -> windows of 512/512/276 = 3
    assert_eq!(g.read_counters().epoch_advances, 3);
    g.remove_batch(&edges[..512]); // exactly one full window
    assert_eq!(g.read_counters().epoch_advances, 4);
    g.ingest_batch(&[]); // empty batch opens no window
    assert_eq!(g.read_counters().epoch_advances, 4);

    let before = g.read_counters().read_pins;
    let view = g.read_view();
    for i in 0..50u64 {
        view.has_edge(i % 7, i);
    }
    assert_eq!(g.read_counters().read_pins, before + 50);
    assert_eq!(
        g.read_counters().reader_retries,
        0,
        "uncontended reads never retry"
    );
}

/// The serial engine is untouched by the protocol: its stats expose the new
/// counter block as zeros.
#[test]
fn serial_engine_reports_zero_concurrency_counters() {
    let mut g = CuckooGraph::new();
    g.insert_edges(&(0..2_000u64).map(|i| (i % 19, i)).collect::<Vec<_>>());
    let s = g.stats();
    assert_eq!(s.read_pins, 0);
    assert_eq!(s.reader_retries, 0);
    assert_eq!(s.epoch_advances, 0);
}

/// A shard "engine" that only records who is inside it.
#[derive(Default)]
struct Probe {
    inside_read: AtomicUsize,
    inside_write: AtomicBool,
}

/// The property every on-the-spot free stands on: a reader never runs while
/// a writer holds the shard (a "mutation window"), and a writer never enters
/// over a reader.
/// Both sides yield inside their section so the other side gets scheduled
/// there even on a single core.
#[test]
fn writers_and_readers_exclude_each_other() {
    const ROUNDS: usize = 4_000;
    let g = Sharded::from_shards(vec![Probe::default()]);
    let start = std::sync::Barrier::new(3);
    let writer_done = AtomicBool::new(false);
    let reader_saw_writer = AtomicUsize::new(0);
    let writer_saw_reader = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let view = g.read_view();
                start.wait();
                let mut rounds = 0;
                while rounds < ROUNDS || !writer_done.load(Ordering::SeqCst) {
                    view.with_shard(0, |p| {
                        p.inside_read.fetch_add(1, Ordering::SeqCst);
                        std::thread::yield_now();
                        if p.inside_write.load(Ordering::SeqCst) {
                            reader_saw_writer.fetch_add(1, Ordering::SeqCst);
                        }
                        p.inside_read.fetch_sub(1, Ordering::SeqCst);
                    });
                    rounds += 1;
                }
            });
        }
        scope.spawn(|| {
            start.wait();
            for _ in 0..ROUNDS {
                g.update_shard(0, |p| {
                    p.inside_write.store(true, Ordering::SeqCst);
                    std::thread::yield_now();
                    if p.inside_read.load(Ordering::SeqCst) > 0 {
                        writer_saw_reader.fetch_add(1, Ordering::SeqCst);
                    }
                    p.inside_write.store(false, Ordering::SeqCst);
                });
            }
            writer_done.store(true, Ordering::SeqCst);
        });
    });

    assert_eq!(
        reader_saw_writer.load(Ordering::SeqCst),
        0,
        "a reader ran inside an open mutation window"
    );
    assert_eq!(
        writer_saw_reader.load(Ordering::SeqCst),
        0,
        "a mutation window opened over a pinned reader"
    );
    assert_eq!(g.read_counters().epoch_advances, ROUNDS as u64);
}

/// A real engine whose `edge_count` parks once, when armed: it meets the
/// test thread on `barrier` on entry, then waits there to be let go.
struct Parking {
    graph: CuckooGraph,
    barrier: Arc<Barrier>,
    armed: AtomicBool,
}

impl MemoryFootprint for Parking {
    fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
    }
}

impl DynamicGraph for Parking {
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.graph.insert_edge(u, v)
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.graph.has_edge(u, v)
    }

    fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.graph.delete_edge(u, v)
    }

    fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        self.graph.for_each_successor(u, f);
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId)) {
        self.graph.for_each_node(f);
    }

    fn edge_count(&self) -> usize {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.barrier.wait();
            self.barrier.wait();
        }
        self.graph.edge_count()
    }

    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn scheme(&self) -> GraphScheme {
        self.graph.scheme()
    }
}

/// One run of the ROADMAP item 13 anomaly against `aggregate`. Three shards
/// hold one edge each on shards 0 and 2 (N = 2). The aggregate parks inside
/// shard 1's count, after its turn at shard 0 and before its turn at shard 2.
/// A writer then adds an edge on shard 0 (W1) and, once W1 is acknowledged,
/// deletes the edge on shard 2 (W3). Real time orders W1 before W3, so the
/// only counts a linearizable read may return are N and N + 1. A sum of
/// per-shard reads returns N − 1: it misses W1 and sees W3. A cut holds every
/// shard before reading any, so both writes wait for the aggregate and it
/// returns N whatever the timeout below.
fn aggregate_sees_a_linearizable_count(aggregate: fn(&Sharded<Parking>) -> usize) {
    let barrier = Arc::new(Barrier::new(2));
    let g = Sharded::from_fn(3, |_| Parking {
        graph: CuckooGraph::new(),
        barrier: Arc::clone(&barrier),
        armed: AtomicBool::new(false),
    });
    let source_on = |shard| (0..).find(|&u| g.shard_index(u) == shard).unwrap();
    let (u0, u2) = (source_on(0), source_on(2));
    g.update_shard(u0, |p| p.insert_edge(u0, 1));
    g.update_shard(u2, |p| p.insert_edge(u2, 1));
    g.with_shard(1, |p| p.armed.store(true, Ordering::SeqCst));

    let (acks, acked) = mpsc::channel();
    let (count, final_count) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| aggregate(&g));
        barrier.wait(); // the aggregate is parked inside shard 1's count
        let writer = scope.spawn(|| {
            g.update_shard(u0, |p| p.insert_edge(u0, 2)); // W1
            g.update_shard(u2, |p| p.delete_edge(u2, 1)); // W3
            acks.send(()).ok();
        });
        let w3_landed_inside = acked.recv_timeout(Duration::from_millis(300)).is_ok();
        barrier.wait(); // let the aggregate go on
        let count = reader.join().unwrap();
        writer.join().unwrap();
        assert!(
            !w3_landed_inside,
            "W1 and W3 were acknowledged while an aggregate was in flight \
             (it returned {count})"
        );
        (count, aggregate(&g))
    });
    assert_eq!(count, 2, "the aggregate did not read one cut");
    assert_eq!(final_count, 2);
}

/// `EDGECOUNT`-style aggregates, through the view and through the graph,
/// read every shard at one instant (ROADMAP item 13(b)).
#[test]
fn aggregate_counts_read_one_cut() {
    aggregate_sees_a_linearizable_count(|g| g.read_view().edge_count());
    aggregate_sees_a_linearizable_count(DynamicGraph::edge_count);
}

/// Takes `depth` one-shot reads of `shard`, each inside the one before, and
/// counts the reads that saw edge `(1, 2)`. Nesting reads of one shard is
/// only safe with no writer about, as here.
fn nested_reads(g: &ShardedCuckooGraph, shard: usize, depth: usize) -> usize {
    if depth == 0 {
        return 0;
    }
    g.with_shard(shard, |engine| {
        usize::from(engine.has_edge(1, 2)) + nested_reads(g, shard, depth - 1)
    })
}

/// Any number of readers may hold a view or sit inside a read at once: 65
/// live views and 65 nested one-shot reads on one thread each get an answer.
/// A helper thread keeps a regression from hanging the suite.
#[test]
fn readers_are_not_capped() {
    const READERS: usize = 65;
    let g = Arc::new(ShardedCuckooGraph::new(2));
    g.ingest_batch(&[(1, 2)]);
    let (tx, rx) = mpsc::channel();
    let reader = Arc::clone(&g);
    std::thread::spawn(move || {
        let views: Vec<_> = (0..READERS).map(|_| reader.read_view()).collect();
        let answered = views.iter().filter(|view| view.has_edge(1, 2)).count();
        let nested = nested_reads(&reader, reader.shard_index(1), READERS);
        tx.send((answered, nested)).ok();
    });
    let (answered, nested) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a reader past the 64th never got in");
    assert_eq!(answered, READERS);
    assert_eq!(nested, READERS);
}
