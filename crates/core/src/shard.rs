//! Sharded CuckooGraph: N independent L-CHT/S-CHT engines partitioned by
//! source-node hash, with batched mutations fanned out to the shards on
//! [`std::thread::scope`] — and queries that proceed **concurrently with an
//! ingesting writer** through a per-shard [`RwLock`].
//!
//! Every edge `⟨u, v⟩` lives entirely inside the shard that owns `u`, so the
//! shards partition the source-node space and never share mutable state: a
//! batched insert groups the batch per shard and moves each group to its
//! shard's thread. Single-edge operations route to the owning shard and cost
//! one extra hash over the serial engine.
//!
//! ## Concurrent reads under ingest
//!
//! Each shard is a `ShardSlot`: the engine in a [`RwLock`] plus three
//! [`ReadCounters`] atomics. Two access disciplines share it:
//!
//! * **Exclusive (`&mut self`)** — the classic surface. The borrow checker
//!   proves exclusivity, so [`DynamicGraph::insert_edges`] and friends reach
//!   the engine through [`RwLock::get_mut`] without locking; the fan-out
//!   spawns one scoped thread per non-empty group.
//! * **Shared (`&self`)** — [`Sharded::ingest_batch`] /
//!   [`Sharded::remove_batch`] / [`Sharded::update_shard`] mutate through
//!   `&self` while [`Sharded::read_view`] (or one-shot [`Sharded::with_shard`])
//!   reads query the same shards. A writer takes the shard's write guard once
//!   per `INGEST_CHUNK` edges, so reads flow between chunks instead of
//!   waiting out the whole batch. No reader is inside a shard while its write
//!   guard is held, so tables and segments a TRANSFORMATION replaces are
//!   simply freed.
//!
//! A writer holds at most one shard's guard at a time, so an aggregate read
//! may take every shard's read guard, in index order, before reading any
//! (`edge_count`, `node_count`, `distinct_edge_count`): the counts it sums are
//! one cut of the graph. A closure run under a read guard must not take a
//! second read of the same shard: std's lock lets a waiting writer go first,
//! and the second read would wait on that writer, which waits on the first.
//!
//! The per-shard engines inherit the tagged probe path wholesale: every batched
//! group a shard thread settles runs the tagged-bucket scan, per-run hash
//! memoization, and next-key prefetching of [`crate::engine::Engine`]'s batch
//! drivers — the fan-out multiplies that per-shard speedup rather than
//! replacing it. (Shard routing itself hashes `u` with [`splitmix64`] +
//! `SHARD_SALT`, deliberately decorrelated from the engines' internal
//! bucket hashing, so nothing is shared across the boundary to memoize.)

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

use crate::config::CuckooGraphConfig;
use crate::graph::CuckooGraph;
use crate::hash::splitmix64;
use crate::stats::StructureStats;
use crate::weighted::WeightedCuckooGraph;
use graph_api::{
    DynamicGraph, EdgeExport, EdgeImport, EdgeRecord, GraphReadSnapshot, GraphScheme,
    MemoryFootprint, NodeId, ShardedGraph, WeightedDynamicGraph,
};

/// Salt folded into the shard hash so shard routing is independent of the
/// engines' internal Bob-Hash seeds.
const SHARD_SALT: u64 = 0x0005_eade_dc0c_0a75;

/// Edges a concurrent writer settles per write guard. Small enough that a
/// reader arriving mid-batch waits one chunk, not one batch; large enough
/// that taking and releasing the lock amortizes to noise.
const INGEST_CHUNK: usize = 512;

/// The panic message of every access to a shard whose writer panicked
/// mid-mutation.
const POISONED: &str = "shard lock poisoned by a panicking writer";

/// Shared-surface activity of a [`Sharded`] graph, summed over its shards and
/// merged into [`crate::StructureStats`] by the sharded stats path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCounters {
    /// Reads that found the shard write-locked (or a writer waiting for it)
    /// and parked until the writer was done.
    pub reader_retries: u64,
    /// Read guards taken: one per shared read of one shard.
    pub read_pins: u64,
    /// Write guards taken: one per `INGEST_CHUNK` of a shared-surface batch,
    /// one per [`Sharded::update_shard`].
    pub epoch_advances: u64,
}

/// One shard: the engine behind its reader/writer lock, plus the counters of
/// the shared surface.
struct ShardSlot<G> {
    engine: RwLock<G>,
    reader_retries: AtomicU64,
    read_pins: AtomicU64,
    epoch_advances: AtomicU64,
}

impl<G> ShardSlot<G> {
    fn new(engine: G) -> Self {
        Self {
            engine: RwLock::new(engine),
            reader_retries: AtomicU64::new(0),
            read_pins: AtomicU64::new(0),
            epoch_advances: AtomicU64::new(0),
        }
    }

    /// Exclusive access through an exclusive borrow — no locking needed.
    fn engine_mut(&mut self) -> &mut G {
        self.engine.get_mut().expect(POISONED)
    }

    /// A read guard on the engine. Tries first, so a read that has to wait
    /// for a writer is counted as a retry before it parks.
    fn read(&self) -> RwLockReadGuard<'_, G> {
        let guard = match self.engine.try_read() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.reader_retries.fetch_add(1, Ordering::Relaxed);
                self.engine.read().expect(POISONED)
            }
            Err(TryLockError::Poisoned(_)) => panic!("{POISONED}"),
        };
        self.read_pins.fetch_add(1, Ordering::Relaxed);
        guard
    }

    /// A write guard on the engine through a shared borrow. A write closure
    /// that panics while holding it poisons the shard.
    fn write(&self) -> RwLockWriteGuard<'_, G> {
        let guard = self.engine.write().expect(POISONED);
        self.epoch_advances.fetch_add(1, Ordering::Relaxed);
        guard
    }
}

/// A graph partitioned into independent shards by source-node hash.
///
/// The concrete CuckooGraph instantiations are [`ShardedCuckooGraph`] and
/// [`ShardedWeightedCuckooGraph`]; the struct itself only asks its shard type
/// for the [`DynamicGraph`] surface (plus [`Send`] to fan batches out across
/// scoped threads, and [`Sync`] for the shared reads and parallel scans).
pub struct Sharded<G> {
    slots: Vec<ShardSlot<G>>,
}

/// CuckooGraph, sharded: N independent basic engines.
///
/// ```
/// use cuckoograph::ShardedCuckooGraph;
/// use graph_api::DynamicGraph;
///
/// let mut g = ShardedCuckooGraph::new(4);
/// assert_eq!(g.insert_edges(&[(1, 2), (1, 3), (2, 3), (1, 2)]), 3);
/// assert!(g.has_edge(1, 2));
/// assert_eq!(g.out_degree(1), 2);
/// assert_eq!(g.remove_edges(&[(1, 2), (9, 9)]), 1);
/// assert_eq!(g.edge_count(), 2);
///
/// // Shared-surface ingest + a concurrent read view of the same graph.
/// let view = g.read_view();
/// g.ingest_batch(&[(7, 8)]);
/// assert!(view.has_edge(7, 8));
/// ```
pub type ShardedCuckooGraph = Sharded<CuckooGraph>;

/// WeightedCuckooGraph, sharded: N independent weighted engines.
///
/// ```
/// use cuckoograph::ShardedWeightedCuckooGraph;
/// use graph_api::WeightedDynamicGraph;
///
/// let mut g = ShardedWeightedCuckooGraph::new(2);
/// g.insert_weighted_edges(&[(1, 2, 3), (1, 2, 1)]);
/// assert_eq!(g.weight(1, 2), 4);
/// ```
pub type ShardedWeightedCuckooGraph = Sharded<WeightedCuckooGraph>;

impl<G> Sharded<G> {
    /// Wraps pre-built shard engines. Panics if `shards` is empty.
    pub fn from_shards(shards: Vec<G>) -> Self {
        assert!(!shards.is_empty(), "a sharded graph needs at least 1 shard");
        Self {
            slots: shards.into_iter().map(ShardSlot::new).collect(),
        }
    }

    /// Builds `shards` engines with `build(shard_index)`.
    pub fn from_fn(shards: usize, build: impl FnMut(usize) -> G) -> Self {
        Self::from_shards((0..shards.max(1)).map(build).collect())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Index of the shard that owns source node `u`.
    #[inline]
    pub fn shard_index(&self, u: NodeId) -> usize {
        if self.slots.len() == 1 {
            return 0;
        }
        (splitmix64(u ^ SHARD_SALT) as usize) % self.slots.len()
    }

    /// Runs `f` on shard `shard`'s engine under one read guard, held for the
    /// whole call. `f` must not read the same shard again (see the module
    /// docs).
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&G) -> R) -> R {
        f(&self.slots[shard].read())
    }

    /// Sums `count` over one cut of the graph: every shard's read guard is
    /// taken, in index order, before any shard is read. A writer holds at
    /// most one shard at a time, so this cannot deadlock with one, and the
    /// sum is a state of the graph that no acknowledged write contradicts.
    fn sum_over_cut(&self, count: impl Fn(&G) -> usize) -> usize {
        let cut: Vec<_> = self.slots.iter().map(ShardSlot::read).collect();
        cut.iter().map(|shard| count(shard)).sum()
    }

    /// Mutable access to the shard engine owning source node `u` (exclusive
    /// surface; no coordination needed).
    #[inline]
    fn engine_for_mut(&mut self, u: NodeId) -> &mut G {
        let idx = self.shard_index(u);
        self.slots[idx].engine_mut()
    }

    /// The shared read surface of the graph. A view holds no lock: each
    /// query through it takes its read guards and drops them before it
    /// returns, so holding a view never blocks `&self` writers, and any
    /// number of views may be live.
    pub fn read_view(&self) -> ShardReadView<'_, G> {
        ShardReadView { graph: self }
    }

    /// Shared-surface counters summed across all shards (always readable
    /// concurrently; all zero before any shared access).
    pub fn read_counters(&self) -> ReadCounters {
        let mut total = ReadCounters::default();
        for slot in &self.slots {
            total.reader_retries += slot.reader_retries.load(Ordering::Relaxed);
            total.read_pins += slot.read_pins.load(Ordering::Relaxed);
            total.epoch_advances += slot.epoch_advances.load(Ordering::Relaxed);
        }
        total
    }

    /// Groups `items` per owning shard, preserving the within-shard order (so
    /// source-sorted batches keep their runs). Two passes: count, then scatter
    /// into exactly-sized buffers.
    fn group_by_shard<T: Copy>(&self, items: &[T], key: impl Fn(&T) -> NodeId) -> Vec<Vec<T>> {
        let mut counts = vec![0usize; self.slots.len()];
        for item in items {
            counts[self.shard_index(key(item))] += 1;
        }
        let mut groups: Vec<Vec<T>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for item in items {
            groups[self.shard_index(key(item))].push(*item);
        }
        groups
    }

    /// Runs `apply(shard, group)` for every non-empty group on its shard's
    /// thread and sums the returned counts. The groups are disjoint and each
    /// thread owns exactly one `&mut` shard, so the fan-out needs no locks.
    fn fan_out_mut<T: Sync>(
        &mut self,
        groups: &[Vec<T>],
        apply: impl Fn(&mut G, &[T]) -> usize + Sync,
    ) -> usize
    where
        G: Send,
    {
        let mut counts = vec![0usize; self.slots.len()];
        std::thread::scope(|scope| {
            for ((slot, group), count) in self.slots.iter_mut().zip(groups).zip(counts.iter_mut()) {
                if group.is_empty() {
                    continue;
                }
                let apply = &apply;
                let engine = slot.engine_mut();
                scope.spawn(move || *count = apply(engine, group));
            }
        });
        counts.iter().sum()
    }

    /// The shared-surface fan-out: groups `items` per shard and runs
    /// `apply(engine, chunk)` under one write guard per chunk of at most
    /// `INGEST_CHUNK` (512) items, one scoped thread per non-empty group.
    /// Concurrent readers flow between the chunks.
    pub fn concurrent_fan_out<T: Copy + Sync>(
        &self,
        items: &[T],
        key: impl Fn(&T) -> NodeId,
        apply: impl Fn(&mut G, &[T]) -> usize + Sync,
    ) -> usize
    where
        G: Send + Sync,
    {
        let groups = self.group_by_shard(items, &key);
        let apply = &apply;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .slots
                .iter()
                .zip(&groups)
                .filter(|(_, group)| !group.is_empty())
                .map(|(slot, group)| {
                    scope.spawn(move || {
                        let mut done = 0usize;
                        for chunk in group.chunks(INGEST_CHUNK) {
                            done += apply(&mut slot.write(), chunk);
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard ingest panicked"))
                .sum()
        })
    }

    /// Runs `f` under one write guard on the shard owning source node `u`,
    /// through `&self` — the per-command counterpart of the batched
    /// [`Sharded::ingest_batch`] fan-out, safe to run while
    /// [`Sharded::read_view`] queries read the same shards. No threads are
    /// spawned, so a serving loop can apply individual commands without
    /// batch-sized latency.
    pub fn update_shard<R>(&self, u: NodeId, f: impl FnOnce(&mut G) -> R) -> R {
        let idx = self.shard_index(u);
        f(&mut self.slots[idx].write())
    }

    /// Runs `f` on every shard concurrently (one scoped thread per shard,
    /// each under one read guard) and returns the per-shard results in shard
    /// order — the building block for whole-graph parallel scans. Each
    /// result is read at its own instant: a concurrent writer may land on one
    /// shard between two others' passes, so the results are not one cut.
    pub fn par_map_shards<R: Send>(&self, f: impl Fn(&G) -> R + Sync) -> Vec<R>
    where
        G: Send + Sync,
    {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .slots
                .iter()
                .map(|slot| {
                    let f = &f;
                    scope.spawn(move || f(&slot.read()))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard scan panicked"))
                .collect()
        })
    }
}

impl<G: DynamicGraph + Send + Sync> Sharded<G> {
    /// Batched insert through `&self`: the concurrent counterpart of
    /// [`DynamicGraph::insert_edges`], safe to run while
    /// [`Sharded::read_view`] guards query the same shards. Returns the
    /// number of edges newly created.
    pub fn ingest_batch(&self, edges: &[(NodeId, NodeId)]) -> usize {
        self.concurrent_fan_out(edges, |&(u, _)| u, |g, chunk| g.insert_edges(chunk))
    }

    /// Batched delete through `&self`: the concurrent counterpart of
    /// [`DynamicGraph::remove_edges`]. Returns the number of edges removed.
    pub fn remove_batch(&self, edges: &[(NodeId, NodeId)]) -> usize {
        self.concurrent_fan_out(edges, |&(u, _)| u, |g, chunk| g.remove_edges(chunk))
    }
}

impl<G: WeightedDynamicGraph + DynamicGraph + Send + Sync> Sharded<G> {
    /// Batched weighted insert through `&self`: the concurrent counterpart of
    /// [`WeightedDynamicGraph::insert_weighted_edges`]. Returns the number of
    /// distinct edges newly created.
    pub fn ingest_weighted_batch(&self, edges: &[(NodeId, NodeId, u64)]) -> usize {
        self.concurrent_fan_out(
            edges,
            |&(u, _, _)| u,
            |g, chunk| g.insert_weighted_edges(chunk),
        )
    }
}

impl<G: EdgeExport> EdgeExport for Sharded<G> {
    fn for_each_edge_record(&self, f: &mut dyn FnMut(EdgeRecord)) {
        for shard in 0..self.slots.len() {
            self.with_shard(shard, |g| g.for_each_edge_record(f));
        }
    }

    fn edge_record_count(&self) -> usize {
        (0..self.slots.len())
            .map(|shard| self.with_shard(shard, |g| g.edge_record_count()))
            .sum()
    }
}

impl<G: EdgeImport + Send> EdgeImport for Sharded<G> {
    fn import_edge_records(&mut self, records: &[EdgeRecord]) {
        // Same shape as the batched mutation paths: group per owning shard,
        // fan each group out to its shard's thread.
        let groups = self.group_by_shard(records, |r| r.source);
        self.fan_out_mut(&groups, |g, group| {
            g.import_edge_records(group);
            group.len()
        });
    }
}

/// The shared read surface of a [`Sharded`] graph. Queries through the view
/// are safe while `&self` writers ([`Sharded::ingest_batch`] etc.) mutate the
/// same shards: each one takes the owning shard's read guard, so it runs
/// wholly before or wholly after any write chunk and never observes torn
/// state. The counts take one cut across all shards.
#[derive(Debug)]
pub struct ShardReadView<'a, G> {
    graph: &'a Sharded<G>,
}

impl<G> ShardReadView<'_, G> {
    /// Runs `f` on shard `shard`'s engine under one read guard (see
    /// [`Sharded::with_shard`]).
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&G) -> R) -> R {
        self.graph.with_shard(shard, f)
    }
}

impl<G: DynamicGraph> ShardReadView<'_, G> {
    /// Whether edge `⟨u, v⟩` is currently stored.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.with_shard(self.graph.shard_index(u), |g| g.has_edge(u, v))
    }

    /// Calls `f` with every current successor of `u`.
    pub fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        self.with_shard(self.graph.shard_index(u), |g| g.for_each_successor(u, f));
    }

    /// Collects the current successors of `u`.
    pub fn successors(&self, u: NodeId) -> Vec<NodeId> {
        self.with_shard(self.graph.shard_index(u), |g| g.successors(u))
    }

    /// Current out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.with_shard(self.graph.shard_index(u), |g| g.out_degree(u))
    }

    /// Total stored edges, read from one cut: every shard's read guard is
    /// taken before any shard is counted.
    pub fn edge_count(&self) -> usize {
        self.graph.sum_over_cut(DynamicGraph::edge_count)
    }

    /// Total stored source nodes, read from one cut like
    /// [`ShardReadView::edge_count`].
    pub fn node_count(&self) -> usize {
        self.graph.sum_over_cut(DynamicGraph::node_count)
    }
}

/// The serving layer's read-classification surface: every operation a RESP
/// graph *read* command needs, answered under read guards — never by the
/// writer.
impl<G: DynamicGraph> GraphReadSnapshot for ShardReadView<'_, G> {
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        ShardReadView::has_edge(self, u, v)
    }

    fn out_degree(&self, u: NodeId) -> usize {
        ShardReadView::out_degree(self, u)
    }

    fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        ShardReadView::for_each_successor(self, u, f);
    }

    fn edge_count(&self) -> usize {
        ShardReadView::edge_count(self)
    }

    fn node_count(&self) -> usize {
        ShardReadView::node_count(self)
    }
}

impl<G: Clone> Clone for Sharded<G> {
    /// Clones the shard engines, each through a read guard (an in-flight
    /// `&self` batch on the source finishes its current chunk first). The
    /// clone's read counters start at zero.
    fn clone(&self) -> Self {
        Self {
            slots: self
                .slots
                .iter()
                .map(|slot| ShardSlot::new(G::clone(&slot.read())))
                .collect(),
        }
    }
}

impl<G> std::fmt::Debug for Sharded<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sharded")
            .field("shards", &self.slots.len())
            .finish()
    }
}

impl Sharded<CuckooGraph> {
    /// Creates a sharded basic graph with the paper's default parameters in
    /// every shard (seeds decorrelated per shard).
    pub fn new(shards: usize) -> Self {
        Self::with_config(shards, CuckooGraphConfig::default())
    }

    /// Creates a sharded basic graph from a shared configuration; each shard
    /// derives its own hash seeds so kick-out behaviour is independent.
    pub fn with_config(shards: usize, config: CuckooGraphConfig) -> Self {
        Self::from_fn(shards, |i| {
            CuckooGraph::with_config(config.clone().with_seed(shard_seed(config.seed, i)))
        })
    }

    /// Calls `f` for every stored edge `⟨u, v⟩` across all shards.
    pub fn for_each_edge(&self, mut f: impl FnMut(NodeId, NodeId)) {
        for i in 0..self.slots.len() {
            self.with_shard(i, |shard| shard.for_each_edge(&mut f));
        }
    }

    /// Collects every stored edge, scanning the shards in parallel and
    /// concatenating the per-shard lists. Order is unspecified.
    pub fn par_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for chunk in self.par_map_shards(CuckooGraph::edges) {
            out.extend(chunk);
        }
        out
    }

    /// Merged structural statistics across all shards (counter sums), taken
    /// under read guards — callable while `&self` writers ingest — and
    /// topped with the shared-surface counters.
    pub fn stats(&self) -> StructureStats {
        let mut merged = StructureStats::default();
        for stats in self.par_map_shards(CuckooGraph::stats) {
            merged.merge(&stats);
        }
        let reads = self.read_counters();
        merged.reader_retries = reads.reader_retries;
        merged.read_pins = reads.read_pins;
        merged.epoch_advances = reads.epoch_advances;
        merged
    }

    /// Compacts every shard's slot arena in parallel (see
    /// [`CuckooGraph::compact_arena`]); returns the total number of freed
    /// blocks reclaimed.
    pub fn compact_arenas(&mut self) -> usize {
        std::thread::scope(|scope| {
            self.slots
                .iter_mut()
                .map(|slot| {
                    let engine = slot.engine_mut();
                    scope.spawn(move || engine.compact_arena())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("shard compaction panicked"))
                .sum()
        })
    }
}

impl Sharded<WeightedCuckooGraph> {
    /// Creates a sharded weighted graph with the paper's default parameters in
    /// every shard (seeds decorrelated per shard).
    pub fn new(shards: usize) -> Self {
        Self::with_config(shards, CuckooGraphConfig::default())
    }

    /// Creates a sharded weighted graph from a shared configuration (seeds
    /// decorrelated per shard).
    pub fn with_config(shards: usize, config: CuckooGraphConfig) -> Self {
        Self::from_fn(shards, |i| {
            WeightedCuckooGraph::with_config(config.clone().with_seed(shard_seed(config.seed, i)))
        })
    }

    /// Total weight across all shards.
    pub fn total_weight(&self) -> u64 {
        self.par_map_shards(WeightedCuckooGraph::total_weight)
            .into_iter()
            .sum()
    }
}

/// Per-shard hash seed derived from the configured base seed.
fn shard_seed(base: u64, shard: usize) -> u64 {
    splitmix64(base ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

impl<G: DynamicGraph + Send + Sync> Sharded<G> {
    /// Calls `f` for every node, scanning the shards concurrently (shards
    /// partition the source space, so each node is reported exactly once, but
    /// `f` must tolerate concurrent calls — hence `Fn + Sync`). Sequential
    /// callers use the trait's [`DynamicGraph::for_each_node`].
    pub fn par_for_each_node(&self, f: impl Fn(NodeId) + Sync) {
        std::thread::scope(|scope| {
            for slot in &self.slots {
                let f = &f;
                scope.spawn(move || slot.read().for_each_node(&mut |u| f(u)));
            }
        });
    }

    /// Collects every node by merging per-shard visitor passes that run in
    /// parallel. Order is unspecified.
    pub fn par_nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.node_count());
        for chunk in self.par_map_shards(|shard| shard.nodes()) {
            out.extend(chunk);
        }
        out
    }
}

impl<G: MemoryFootprint> MemoryFootprint for Sharded<G> {
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (0..self.slots.len())
                .map(|i| self.with_shard(i, MemoryFootprint::memory_bytes))
                .sum::<usize>()
    }
}

impl<G: DynamicGraph + Send + Sync> DynamicGraph for Sharded<G> {
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.engine_for_mut(u).insert_edge(u, v)
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.with_shard(self.shard_index(u), |shard| shard.has_edge(u, v))
    }

    fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.engine_for_mut(u).delete_edge(u, v)
    }

    fn for_each_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId)) {
        self.with_shard(self.shard_index(u), |shard| shard.for_each_successor(u, f));
    }

    fn for_each_node(&self, f: &mut dyn FnMut(NodeId)) {
        for i in 0..self.slots.len() {
            self.with_shard(i, |shard| shard.for_each_node(&mut *f));
        }
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.with_shard(self.shard_index(u), |shard| shard.out_degree(u))
    }

    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        if self.slots.len() == 1 {
            return self.slots[0].engine_mut().insert_edges(edges);
        }
        let groups = self.group_by_shard(edges, |&(u, _)| u);
        self.fan_out_mut(&groups, |shard, group| shard.insert_edges(group))
    }

    fn remove_edges(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        if self.slots.len() == 1 {
            return self.slots[0].engine_mut().remove_edges(edges);
        }
        let groups = self.group_by_shard(edges, |&(u, _)| u);
        self.fan_out_mut(&groups, |shard, group| shard.remove_edges(group))
    }

    fn edge_count(&self) -> usize {
        self.sum_over_cut(DynamicGraph::edge_count)
    }

    fn node_count(&self) -> usize {
        self.sum_over_cut(DynamicGraph::node_count)
    }

    fn scheme(&self) -> GraphScheme {
        self.with_shard(0, DynamicGraph::scheme)
    }
}

impl<G: DynamicGraph + Send + Sync> ShardedGraph for Sharded<G> {
    fn shard_count(&self) -> usize {
        self.slots.len()
    }

    fn shard_of(&self, u: NodeId) -> usize {
        self.shard_index(u)
    }

    fn with_shard_view(&self, shard: usize, f: &mut dyn FnMut(&(dyn DynamicGraph + Sync))) {
        self.with_shard(shard, |engine| f(engine as &(dyn DynamicGraph + Sync)));
    }
}

impl<G: WeightedDynamicGraph + DynamicGraph + Send + Sync> WeightedDynamicGraph for Sharded<G> {
    fn insert_weighted(&mut self, u: NodeId, v: NodeId, delta: u64) -> u64 {
        self.engine_for_mut(u).insert_weighted(u, v, delta)
    }

    fn weight(&self, u: NodeId, v: NodeId) -> u64 {
        self.with_shard(self.shard_index(u), |shard| shard.weight(u, v))
    }

    fn delete_weighted(&mut self, u: NodeId, v: NodeId, delta: u64) -> u64 {
        self.engine_for_mut(u).delete_weighted(u, v, delta)
    }

    fn for_each_weighted_successor(&self, u: NodeId, f: &mut dyn FnMut(NodeId, u64)) {
        self.with_shard(self.shard_index(u), |shard| {
            shard.for_each_weighted_successor(u, f)
        });
    }

    fn insert_weighted_edges(&mut self, edges: &[(NodeId, NodeId, u64)]) -> usize {
        if self.slots.len() == 1 {
            return self.slots[0].engine_mut().insert_weighted_edges(edges);
        }
        let groups = self.group_by_shard(edges, |&(u, _, _)| u);
        self.fan_out_mut(&groups, |shard, group| shard.insert_weighted_edges(group))
    }

    fn distinct_edge_count(&self) -> usize {
        self.sum_over_cut(WeightedDynamicGraph::distinct_edge_count)
    }
}

/// Compile-time proof that the sharded types can cross thread boundaries.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedCuckooGraph>();
    assert_send_sync::<ShardedWeightedCuckooGraph>();
    assert_send_sync::<ShardReadView<'_, CuckooGraph>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn workload(n: u64) -> Vec<(NodeId, NodeId)> {
        // Deterministic mixed-degree workload: hubs and a long sparse tail.
        (0..n)
            .map(|i| (splitmix64(i) % 97, splitmix64(i ^ 0xabc) % 1_000))
            .collect()
    }

    #[test]
    fn single_edge_operations_route_to_the_owning_shard() {
        let mut g = ShardedCuckooGraph::new(4);
        assert!(g.insert_edge(1, 2));
        assert!(!g.insert_edge(1, 2));
        assert!(g.has_edge(1, 2));
        assert_eq!(g.out_degree(1), 1);
        assert!(g.delete_edge(1, 2));
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.scheme(), GraphScheme::CuckooGraph);
    }

    #[test]
    fn update_shard_applies_single_writes_visible_to_live_views() {
        let g = ShardedWeightedCuckooGraph::new(4);
        let view = g.read_view();
        let w1 = g.update_shard(1, |shard| shard.insert_weighted(1, 2, 3));
        let w2 = g.update_shard(1, |shard| shard.insert_weighted(1, 2, 2));
        assert_eq!((w1, w2), (3, 5));
        assert!(view.has_edge(1, 2));
        assert_eq!(view.out_degree(1), 1);
        // The trait-object surface answers the same questions.
        let snap: &dyn GraphReadSnapshot = &view;
        assert_eq!(snap.successors(1), vec![2]);
        assert_eq!((snap.edge_count(), snap.node_count()), (1, 1));
        g.update_shard(1, |shard| shard.delete_edge(1, 2));
        assert!(!view.has_edge(1, 2));
    }

    #[test]
    fn every_edge_lives_in_the_shard_of_its_source() {
        let mut g = ShardedCuckooGraph::new(8);
        let edges = workload(5_000);
        g.insert_edges(&edges);
        for shard_idx in 0..g.shard_count() {
            g.with_shard(shard_idx, |shard| {
                shard.for_each_edge(|u, _| assert_eq!(g.shard_index(u), shard_idx));
            });
        }
    }

    #[test]
    fn batched_insert_matches_serial_graph() {
        let edges = workload(20_000);
        for shards in [1usize, 2, 3, 8] {
            let mut sharded = ShardedCuckooGraph::new(shards);
            let created = sharded.insert_edges(&edges);

            let mut serial = CuckooGraph::new();
            let expected = serial.insert_edges(&edges);

            assert_eq!(created, expected, "{shards} shards: created count");
            assert_eq!(sharded.edge_count(), serial.edge_count());
            assert_eq!(sharded.node_count(), serial.node_count());
            for u in 0..97u64 {
                let a: BTreeSet<NodeId> = sharded.successors(u).into_iter().collect();
                let b: BTreeSet<NodeId> = serial.successors(u).into_iter().collect();
                assert_eq!(a, b, "{shards} shards: successors of {u}");
            }
        }
    }

    #[test]
    fn shared_surface_ingest_matches_exclusive_ingest() {
        let edges = workload(20_000);
        let removals: Vec<(NodeId, NodeId)> = edges.iter().step_by(3).copied().collect();
        // The set model the shared and the exclusive surface must both match.
        let mut model: BTreeSet<(NodeId, NodeId)> = edges.iter().copied().collect();
        let created = model.len();
        let removed = removals.iter().filter(|e| model.remove(e)).count();
        let shared = ShardedCuckooGraph::new(4);
        let mut exclusive = ShardedCuckooGraph::new(4);
        assert_eq!(shared.ingest_batch(&edges), created);
        assert_eq!(exclusive.insert_edges(&edges), created);
        assert_eq!(shared.remove_batch(&removals), removed);
        assert_eq!(exclusive.remove_edges(&removals), removed);
        assert_eq!(shared.edge_count(), model.len());
        assert_eq!(exclusive.edge_count(), model.len());
        for u in 0..97u64 {
            let want: BTreeSet<NodeId> = model
                .range((u, 0)..=(u, NodeId::MAX))
                .map(|e| e.1)
                .collect();
            let a: BTreeSet<NodeId> = shared.successors(u).into_iter().collect();
            let b: BTreeSet<NodeId> = exclusive.successors(u).into_iter().collect();
            assert_eq!(a, want, "shared surface: successors of {u}");
            assert_eq!(b, want, "exclusive surface: successors of {u}");
        }
    }

    #[test]
    fn weighted_shared_surface_ingest_matches_exclusive() {
        let items: Vec<(NodeId, NodeId, u64)> = (0..8_000u64)
            .map(|i| (splitmix64(i) % 50, splitmix64(i ^ 7) % 200, i % 5 + 1))
            .collect();
        let shared = ShardedWeightedCuckooGraph::new(4);
        let mut exclusive = ShardedWeightedCuckooGraph::new(4);
        assert_eq!(
            shared.ingest_weighted_batch(&items),
            exclusive.insert_weighted_edges(&items)
        );
        assert_eq!(shared.total_weight(), exclusive.total_weight());
        assert_eq!(
            shared.distinct_edge_count(),
            exclusive.distinct_edge_count()
        );
    }

    #[test]
    fn read_view_observes_batches_and_never_torn_state() {
        let g = ShardedCuckooGraph::new(4);
        let view = g.read_view();
        assert_eq!(view.edge_count(), 0);
        let edges = workload(5_000);
        g.ingest_batch(&edges);
        // The view sees everything the completed batch inserted.
        for &(u, v) in edges.iter().step_by(17) {
            assert!(view.has_edge(u, v), "view missed committed edge ({u}, {v})");
        }
        assert_eq!(view.edge_count(), g.edge_count());
        assert_eq!(view.node_count(), g.node_count());
        let mut degree = 0usize;
        view.for_each_successor(edges[0].0, &mut |_| degree += 1);
        assert_eq!(degree, view.out_degree(edges[0].0));
        assert!(g.read_counters().read_pins > 0);
    }

    #[test]
    fn readers_make_progress_while_a_writer_ingests() {
        let g = ShardedCuckooGraph::new(2);
        g.ingest_batch(&workload(2_000));
        let stable: Vec<(NodeId, NodeId)> = {
            let mut edges = Vec::new();
            g.for_each_edge(|u, v| edges.push((u, v)));
            edges
        };
        let churn: Vec<(NodeId, NodeId)> = (0..4_000u64)
            .map(|i| (1_000_000 + splitmix64(i) % 97, splitmix64(i ^ 0x5) % 1_000))
            .collect();
        let writer_done = AtomicBool::new(false);
        let reads = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..10 {
                    g.ingest_batch(&churn);
                    g.remove_batch(&churn);
                }
                writer_done.store(true, Ordering::SeqCst);
            });
            scope.spawn(|| {
                let view = g.read_view();
                let mut first_pass = true;
                // At least one full pass even if the writer wins the whole
                // race on a single-core scheduler.
                while first_pass || !writer_done.load(Ordering::SeqCst) {
                    first_pass = false;
                    for &(u, v) in stable.iter().take(64) {
                        // The stable prefix is never deleted: a reader must
                        // see every one of these edges on every pass.
                        assert!(view.has_edge(u, v), "lost committed edge ({u}, {v})");
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        });
        assert!(reads.load(Ordering::Relaxed) > 0);
        // The churn touched shards under the concurrent protocol: windows
        // opened and closed, so epochs advanced.
        assert!(g.read_counters().epoch_advances > 0);
        // And the churn batches are fully applied or fully removed.
        for &(u, v) in churn.iter().step_by(13) {
            assert!(!g.has_edge(u, v));
        }
    }

    #[test]
    fn batched_remove_matches_serial_graph() {
        let edges = workload(10_000);
        let removals: Vec<(NodeId, NodeId)> = edges.iter().step_by(3).copied().collect();
        let mut sharded = ShardedCuckooGraph::new(4);
        let mut serial = CuckooGraph::new();
        sharded.insert_edges(&edges);
        serial.insert_edges(&edges);

        let removed = sharded.remove_edges(&removals);
        let expected = serial.remove_edges(&removals);
        assert_eq!(removed, expected);
        assert_eq!(sharded.edge_count(), serial.edge_count());
        for &(u, v) in &removals {
            assert!(!sharded.has_edge(u, v), "edge ({u}, {v}) survived removal");
        }
    }

    #[test]
    fn parallel_node_scans_agree_with_the_sequential_visitor() {
        let mut g = ShardedCuckooGraph::new(4);
        g.insert_edges(&workload(3_000));

        let mut sequential = Vec::new();
        g.for_each_node(&mut |u| sequential.push(u));
        let seq_set: BTreeSet<NodeId> = sequential.iter().copied().collect();
        assert_eq!(sequential.len(), seq_set.len(), "a node was visited twice");

        let merged: BTreeSet<NodeId> = g.par_nodes().into_iter().collect();
        assert_eq!(merged, seq_set);

        let concurrent = Mutex::new(Vec::new());
        g.par_for_each_node(|u| concurrent.lock().unwrap().push(u));
        let conc_set: BTreeSet<NodeId> = concurrent.into_inner().unwrap().into_iter().collect();
        assert_eq!(conc_set, seq_set);

        let counted = AtomicUsize::new(0);
        g.par_for_each_node(|_| {
            counted.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counted.into_inner(), g.node_count());
    }

    #[test]
    fn par_map_shards_and_par_edges_cover_the_whole_graph() {
        let mut g = ShardedCuckooGraph::new(3);
        let edges = workload(4_000);
        g.insert_edges(&edges);

        let per_shard_edges = g.par_map_shards(CuckooGraph::edge_count);
        assert_eq!(per_shard_edges.len(), 3);
        assert_eq!(per_shard_edges.iter().sum::<usize>(), g.edge_count());

        let collected: BTreeSet<(NodeId, NodeId)> = g.par_edges().into_iter().collect();
        let expected: BTreeSet<(NodeId, NodeId)> = edges.into_iter().collect();
        assert_eq!(collected, expected);
    }

    #[test]
    fn sharded_graph_trait_partitions_the_node_space() {
        let mut g = ShardedCuckooGraph::new(4);
        g.insert_edges(&workload(2_000));
        let trait_obj: &dyn ShardedGraph = &g;
        assert_eq!(trait_obj.shard_count(), 4);
        let mut total = 0usize;
        for shard in 0..trait_obj.shard_count() {
            trait_obj.with_shard_view(shard, &mut |view| {
                view.for_each_node(&mut |u| {
                    assert_eq!(trait_obj.shard_of(u), shard, "node {u} in wrong shard");
                });
                total += view.node_count();
            });
        }
        assert_eq!(total, g.node_count());
    }

    #[test]
    fn weighted_sharded_matches_weighted_serial() {
        let items: Vec<(NodeId, NodeId, u64)> = (0..5_000u64)
            .map(|i| (splitmix64(i) % 50, splitmix64(i ^ 7) % 200, i % 5 + 1))
            .collect();
        let mut sharded = ShardedWeightedCuckooGraph::new(4);
        let mut serial = WeightedCuckooGraph::new();
        let created = sharded.insert_weighted_edges(&items);
        let expected = serial.insert_weighted_edges(&items);
        assert_eq!(created, expected);
        assert_eq!(sharded.distinct_edge_count(), serial.distinct_edge_count());
        assert_eq!(sharded.total_weight(), serial.total_weight());
        for u in 0..50u64 {
            let mut a = sharded.weighted_successors(u);
            let mut b = serial.weighted_successors(u);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "weighted successors of {u}");
        }
        assert_eq!(sharded.delete_weighted(items[0].0, items[0].1, u64::MAX), 0);
    }

    #[test]
    fn merged_stats_and_memory_cover_all_shards() {
        let g = ShardedCuckooGraph::new(4);
        let before = g.memory_bytes();
        g.ingest_batch(&workload(8_000));
        assert!(g.memory_bytes() > before);
        let stats = g.stats();
        assert_eq!(stats.edges, g.edge_count());
        assert_eq!(stats.nodes, g.node_count());
        assert!(stats.lcht_cells > 0);
        // The shared-surface batch ran under the concurrent protocol, so the
        // read/epoch counter block is live.
        assert!(stats.epoch_advances > 0, "no mutation window was counted");
        assert!(stats.read_pins > 0, "stats reads were not pinned");
    }

    #[test]
    fn panicking_write_closes_its_window_and_poisons_later_reads() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let g = std::sync::Arc::new(ShardedCuckooGraph::new(1));
        g.ingest_batch(&[(1, 2)]);
        let died = catch_unwind(AssertUnwindSafe(|| {
            g.update_shard(1, |shard| {
                shard.insert_edge(1, 3);
                panic!("write closure died mid-mutation");
            })
        }));
        assert!(died.is_err());
        assert_eq!(g.read_counters().epoch_advances, 2, "window left open");

        // Readers must fail loudly, not wait on a dead writer or serve the
        // half-mutated engine — every one of them (65 one-shot reads, one
        // more than the old reader cap). A helper thread keeps a regression
        // from hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::sync::Arc::clone(&g);
        std::thread::spawn(move || {
            let one_shot = (0..65)
                .all(|_| catch_unwind(AssertUnwindSafe(|| reader.with_shard(0, |_| ()))).is_err());
            let view = reader.read_view();
            let pinned = catch_unwind(AssertUnwindSafe(|| view.has_edge(1, 2))).is_err();
            tx.send((one_shot, pinned)).ok();
        });
        let (one_shot, pinned) = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("reader hung behind a window that never closed");
        assert!(one_shot, "one-shot read served a half-mutated shard");
        assert!(pinned, "view read served a half-mutated shard");
        let writer = catch_unwind(AssertUnwindSafe(|| g.ingest_batch(&[(1, 4)])));
        assert!(writer.is_err(), "writer entered a poisoned gate");
    }

    #[test]
    fn clone_copies_engines_but_not_coordinators() {
        let g = ShardedCuckooGraph::new(2);
        g.ingest_batch(&workload(1_000));
        assert!(g.read_counters().epoch_advances > 0);
        let copy = g.clone();
        assert_eq!(copy.edge_count(), g.edge_count());
        let fresh = copy.read_counters();
        assert_eq!(fresh.epoch_advances, 0, "coordinator state leaked to clone");
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let g = Sharded::from_fn(0, |_| CuckooGraph::new());
        assert_eq!(g.shard_count(), 1);
        assert_eq!(g.shard_index(42), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1 shard")]
    fn empty_shard_vec_is_rejected() {
        let _ = Sharded::<CuckooGraph>::from_shards(Vec::new());
    }
}
