//! The generic storage engine shared by all three CuckooGraph variants.
//!
//! [`Engine`] wires together the pieces built in the other modules:
//!
//! * a [`NodeTable`] (the L-CHT chain + L-DL) keyed by source nodes `u`;
//! * per-cell Part 2 storage (inline small slots or an S-CHT chain);
//! * the S-DL absorbing neighbour-level insertion failures;
//! * the configuration, the kick RNG, and the instrumentation counters that
//!   back [`crate::StructureStats`].
//!
//! The basic, weighted, and multi-edge graphs are thin wrappers that pick the
//! payload type (`NodeId`, [`crate::payload::WeightedSlot`],
//! [`crate::payload::MultiSlot`]) and the per-variant edge semantics.

use crate::arena::{SlotArena, NO_BLOCK};
use crate::cell::{Cell, CellCtx, NeighborInsert};
use crate::chain::ChainParams;
use crate::config::CuckooGraphConfig;
use crate::denylist::SmallDenylist;
use crate::hash::KeyHash;
use crate::lcht::NodeTable;
use crate::payload::Payload;
use crate::rng::KickRng;
use crate::scratch::RebuildScratch;
use crate::segment::{ScanArena, NO_SEG};
use crate::stats::StructureStats;
use graph_api::{for_each_source_run, NodeId};

/// Instrumentation counters for the neighbour (S-CHT) level, bundled so the
/// insert helpers can borrow them alongside a cell without touching the rest
/// of the engine.
#[derive(Debug, Clone, Copy, Default)]
struct SchtCounters {
    placements: u64,
    items: u64,
    expansions: u64,
    contractions: u64,
    failures: u64,
}

/// The payload-generic CuckooGraph engine.
#[derive(Debug, Clone)]
pub struct Engine<P> {
    nodes: NodeTable<P>,
    s_dl: SmallDenylist<P>,
    config: CuckooGraphConfig,
    cell_ctx: CellCtx,
    rng: KickRng,
    edges: usize,
    scht: SchtCounters,
    /// Engine-level rebuild buffers shared by every S-CHT chain: expansions,
    /// contractions and merges drain into (and re-place out of) this scratch
    /// instead of allocating per event. (The L-CHT takes a fresh one per
    /// rebuild; see [`NodeTable`].)
    scratch: RebuildScratch<P>,
    /// Reusable buffer for S-DL drains on expansion events.
    dl_buf: Vec<P>,
    /// Engine-level size-classed slabs holding every inline cell's small
    /// slots (see [`crate::arena`]).
    arena: SlotArena<P>,
    /// Engine-level arena of contiguous scan segments mirroring every
    /// transformed cell's chain membership (see [`crate::segment`]): the
    /// successor-scan fast path walks one dense run per cell instead of the
    /// chain's scattered buckets.
    scan: ScanArena,
}

/// Places `payload` into `cell`, routing kick-out failures to the S-DL (or
/// forcing chain expansions when it is full or disabled) and draining matching
/// S-DL entries back in after an expansion — the whole per-payload insertion
/// machinery of § III-A3, expressed over disjoint borrows of the engine's
/// fields so batch drivers can hold the cell across a run of edges.
#[allow(clippy::too_many_arguments)] // split borrows of the engine's fields, by design
fn settle_payload<P: Payload>(
    cell: &mut Cell<P>,
    s_dl: &mut SmallDenylist<P>,
    ctx: &CellCtx,
    use_denylist: bool,
    arena: &mut SlotArena<P>,
    rng: &mut KickRng,
    counters: &mut SchtCounters,
    payload: P,
    kh: KeyHash,
    scratch: &mut RebuildScratch<P>,
    dl_buf: &mut Vec<P>,
    scan: &mut ScanArena,
) {
    if cell.is_transformed() {
        counters.items += 1;
    }
    let u = cell.node();
    match cell.insert(
        payload,
        kh,
        ctx,
        arena,
        rng,
        &mut counters.placements,
        scratch,
        scan,
    ) {
        NeighborInsert::Stored { expanded } => {
            if expanded {
                counters.expansions += 1;
                // § III-A2 step 3: on every S-CHT expansion, the S-DL
                // entries whose source matches move into the new table.
                // The drain runs through the engine's reusable buffer.
                debug_assert!(dl_buf.is_empty(), "S-DL drain buffer in use");
                s_dl.drain_for_into(u, dl_buf);
                if !dl_buf.is_empty() {
                    let rejected = cell.reinsert_from(
                        dl_buf,
                        ctx,
                        arena,
                        rng,
                        &mut counters.placements,
                        scratch,
                        scan,
                    );
                    for p in rejected {
                        s_dl.push_forced(u, p);
                    }
                }
            }
        }
        NeighborInsert::Failed(p) => {
            counters.failures += 1;
            if use_denylist {
                if let Err(p) = s_dl.push(u, p) {
                    force_store_into(cell, s_dl, ctx, arena, rng, counters, p, scratch, scan);
                }
            } else {
                force_store_into(cell, s_dl, ctx, arena, rng, counters, p, scratch, scan);
            }
        }
    }
}

/// Last-resort storage path: expand the cell's chain until the payload
/// settles. Used when the S-DL is full or disabled (the Figure 5 ablation
/// expands on every failure instead of denylisting).
#[allow(clippy::too_many_arguments)] // split borrows of the engine's fields, by design
fn force_store_into<P: Payload>(
    cell: &mut Cell<P>,
    s_dl: &mut SmallDenylist<P>,
    ctx: &CellCtx,
    arena: &mut SlotArena<P>,
    rng: &mut KickRng,
    counters: &mut SchtCounters,
    payload: P,
    scratch: &mut RebuildScratch<P>,
    scan: &mut ScanArena,
) {
    let u = cell.node();
    let mut pending = payload;
    let mut pending_kh = pending.key_hash();
    loop {
        let displaced = cell.force_expand(ctx, arena, rng, &mut counters.placements, scratch, scan);
        counters.expansions += 1;
        for p in displaced {
            s_dl.push_forced(u, p);
        }
        match cell.insert(
            pending,
            pending_kh,
            ctx,
            arena,
            rng,
            &mut counters.placements,
            scratch,
            scan,
        ) {
            NeighborInsert::Stored { expanded } => {
                if expanded {
                    counters.expansions += 1;
                }
                break;
            }
            NeighborInsert::Failed(p) => {
                // The homeless payload may be a kick-walk victim rather than
                // the one we started with — re-derive its hash material.
                pending_kh = p.key_hash();
                pending = p;
            }
        }
    }
}

impl<P: Payload> Engine<P> {
    /// Creates an engine with `small_slots` inline neighbour slots per cell
    /// (`2R` for the basic variant, `R` for the weighted/multi variants).
    pub fn new(config: CuckooGraphConfig, small_slots: usize) -> Self {
        config
            .validate()
            .expect("invalid CuckooGraph configuration");
        let chain_params = ChainParams {
            cells_per_bucket: config.cells_per_bucket,
            r: config.r,
            expand_threshold: config.expand_threshold,
            contract_threshold: config.contract_threshold,
            max_kicks: config.max_kicks,
            base_len: config.scht_base_len,
        };
        let lcht_params = ChainParams {
            base_len: config.lcht_base_len,
            ..chain_params
        };
        let cell_ctx = CellCtx {
            small_slots,
            chain: chain_params,
            seed: config.seed,
        };
        Self {
            nodes: NodeTable::new(
                lcht_params,
                config.seed,
                config.denylist_capacity,
                config.use_denylist,
            ),
            s_dl: SmallDenylist::new(if config.use_denylist {
                config.denylist_capacity
            } else {
                0
            }),
            rng: KickRng::new(config.seed ^ 0x4b1c_4b1c_4b1c_4b1c),
            cell_ctx,
            scratch: RebuildScratch::new(),
            dl_buf: Vec::new(),
            arena: SlotArena::new(small_slots),
            scan: ScanArena::new(),
            config,
            edges: 0,
            scht: SchtCounters::default(),
        }
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &CuckooGraphConfig {
        &self.config
    }

    /// Number of distinct stored edges (payloads).
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Number of distinct source nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.node_count()
    }

    /// Calls `f` for every known source node without allocating.
    pub fn for_each_node(&self, mut f: impl FnMut(NodeId)) {
        self.nodes.for_each(|cell| f(cell.node()));
    }

    /// True if node `u` has a cell (it has, or has had, outgoing edges).
    pub fn contains_node(&self, u: NodeId) -> bool {
        self.nodes.contains(KeyHash::new(u))
    }

    /// Looks up the payload stored for edge `⟨u, v⟩`. Follows the paper's
    /// query order: L-CHT cell (or L-DL cell) first, then the S-DL. `u` is
    /// hashed once; `v` is hashed **lazily** — only when the cell has
    /// transformed into an S-CHT chain (an inline cell compares keys
    /// directly, so low-degree lookups pay a single Bob pass total).
    pub fn get(&self, u: NodeId, v: NodeId) -> Option<&P> {
        if let Some(cell) = self.nodes.get(KeyHash::new(u)) {
            if let Some(p) = cell.get_lazy(v, &self.arena) {
                return Some(p);
            }
        }
        self.s_dl.get(u, v)
    }

    /// Mutable lookup of the payload stored for edge `⟨u, v⟩` (`v` hashed
    /// lazily, like [`Engine::get`]). Resolves the node cell once
    /// (coordinates + O(1) re-borrow), instead of the probe-twice shape the
    /// borrow checker used to force here.
    pub fn get_mut(&mut self, u: NodeId, v: NodeId) -> Option<&mut P> {
        if let Some(pos) = self.nodes.find(KeyHash::new(u)) {
            let cell = self.nodes.cell_at_mut(pos);
            if let Some(p) = cell.get_mut_lazy(v, &mut self.arena) {
                return Some(p);
            }
        }
        self.s_dl.get_mut(u, v)
    }

    /// True if edge `⟨u, v⟩` is stored.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.get(u, v).is_some()
    }

    /// Inserts a payload for an edge that is **not** currently stored
    /// (callers check with [`Engine::contains`] / update via
    /// [`Engine::get_mut`] first, as the paper's insertion Step 1 does).
    /// The operation always succeeds: failures cascade to the S-DL and, when
    /// that is full or disabled, to a forced expansion.
    pub fn insert_new(&mut self, u: NodeId, payload: P) {
        debug_assert!(!self.contains(u, payload.key()), "insert of existing edge");
        let hu = KeyHash::new(u);
        let hv = payload.key_hash();
        let ctx = self.cell_ctx;
        let use_denylist = self.config.use_denylist;
        let cell = self.nodes.ensure(hu, &mut self.rng);
        settle_payload(
            cell,
            &mut self.s_dl,
            &ctx,
            use_denylist,
            &mut self.arena,
            &mut self.rng,
            &mut self.scht,
            payload,
            hv,
            &mut self.scratch,
            &mut self.dl_buf,
            &mut self.scan,
        );
        self.edges += 1;
    }

    /// Single-edge insert-or-update: resolves the `u` cell exactly once (one
    /// Bob pass for `u`), probes for `v` lazily (hash-free on inline cells,
    /// one memoized pass on transformed ones), and either updates the stored
    /// payload in place or settles the payload built by `make`. Returns
    /// `true` when a new edge was created.
    ///
    /// This is the single-item sibling of [`Engine::insert_batch`] and the
    /// backing of every public `insert_edge`-style operation — the pre-PR-4
    /// shape resolved `u` twice (query then insert) and re-hashed both
    /// endpoints per table along the way.
    pub fn upsert(
        &mut self,
        u: NodeId,
        v: NodeId,
        make: impl FnOnce() -> P,
        update: impl FnOnce(&mut P),
    ) -> bool {
        let ctx = self.cell_ctx;
        let use_denylist = self.config.use_denylist;
        let hu = KeyHash::new(u);
        let cell = self.nodes.ensure(hu, &mut self.rng);
        let hv = if cell.is_transformed() {
            let hv = KeyHash::new(v);
            if let Some(slot) = cell.find_slot(hv, &self.arena) {
                update(cell.payload_at_mut(slot, &mut self.arena));
                return false;
            }
            Some(hv)
        } else {
            if let Some(p) = cell.get_mut_lazy(v, &mut self.arena) {
                update(p);
                return false;
            }
            None
        };
        if let Some(p) = self.s_dl.get_mut(u, v) {
            update(p);
            return false;
        }
        let payload = make();
        debug_assert_eq!(
            payload.key(),
            v,
            "make() built a payload for a different key"
        );
        settle_payload(
            cell,
            &mut self.s_dl,
            &ctx,
            use_denylist,
            &mut self.arena,
            &mut self.rng,
            &mut self.scht,
            payload,
            hv.unwrap_or_else(|| KeyHash::new(v)),
            &mut self.scratch,
            &mut self.dl_buf,
            &mut self.scan,
        );
        self.edges += 1;
        true
    }

    /// Batched insert-or-update over `items`, driving the same per-payload
    /// machinery as [`Engine::insert_new`] but hoisting the per-edge setup out
    /// of the loop: the configuration reads happen once, and the node cell is
    /// resolved once per run of consecutive same-source items instead of once
    /// per edge (bulk loads are typically grouped by source, so a run covers
    /// the whole adjacency of a node).
    ///
    /// For each item, `endpoints` names the edge `⟨u, v⟩`; when the edge is
    /// already stored `update` mutates the payload in place, otherwise `make`
    /// builds the payload to insert. Returns the number of newly created
    /// edges.
    ///
    /// The probe path is batch-aware: each run's keys are pre-hashed into a
    /// reused scratch buffer (`u` once per run, every `v` once), and while
    /// item `i` settles, the candidate tag lines of item `i + 1` are software
    /// prefetched so the next probe's cache lines are already in flight.
    pub fn insert_batch<E>(
        &mut self,
        items: &[E],
        endpoints: impl Fn(&E) -> (NodeId, NodeId),
        mut make: impl FnMut(&E) -> P,
        mut update: impl FnMut(&E, &mut P),
    ) -> usize {
        let ctx = self.cell_ctx;
        let use_denylist = self.config.use_denylist;
        let nodes = &mut self.nodes;
        let s_dl = &mut self.s_dl;
        let rng = &mut self.rng;
        let scht = &mut self.scht;
        let edges = &mut self.edges;
        let scratch = &mut self.scratch;
        let dl_buf = &mut self.dl_buf;
        let arena = &mut self.arena;
        let scan = &mut self.scan;
        let mut created = 0usize;
        // Scratch buffer of memoized hashes for the current run, reused across
        // runs so the batch path stays allocation-free in the steady state.
        // Runs against *inline* cells never fill it (their probes are raw key
        // compares, no hashing); once a run's cell is transformed, the whole
        // run is pre-hashed in one pass and the next key's candidate tag
        // lines are prefetched while the current key settles.
        let mut run_hashes: Vec<KeyHash> = Vec::new();
        for_each_source_run(
            items,
            |e| endpoints(e).0,
            |u, run| {
                let hu = KeyHash::new(u);
                let cell = nodes.ensure(hu, rng);
                let mut hashed = false;
                for (i, item) in run.iter().enumerate() {
                    let (_, v) = endpoints(item);
                    let hv = if cell.is_transformed() {
                        if !hashed {
                            // The cell is (or just became) chained: pre-hash
                            // the run once so every probe below reuses lanes.
                            run_hashes.clear();
                            run_hashes
                                .extend(run.iter().map(|item| KeyHash::new(endpoints(item).1)));
                            hashed = true;
                        }
                        if let Some(&next) = run_hashes.get(i + 1) {
                            cell.prefetch(next);
                        }
                        let hv = run_hashes[i];
                        if let Some(slot) = cell.find_slot(hv, arena) {
                            update(item, cell.payload_at_mut(slot, arena));
                            continue;
                        }
                        Some(hv)
                    } else {
                        if let Some(p) = cell.get_mut_lazy(v, arena) {
                            update(item, p);
                            continue;
                        }
                        None
                    };
                    if let Some(p) = s_dl.get_mut(u, v) {
                        update(item, p);
                        continue;
                    }
                    let hv = hv.unwrap_or_else(|| KeyHash::new(v));
                    settle_payload(
                        cell,
                        s_dl,
                        &ctx,
                        use_denylist,
                        arena,
                        rng,
                        scht,
                        make(item),
                        hv,
                        scratch,
                        dl_buf,
                        scan,
                    );
                    *edges += 1;
                    created += 1;
                }
            },
        );
        created
    }

    /// Batched removal over `edges`, the deletion mirror of
    /// [`Engine::insert_batch`]: the node cell is resolved once per run of
    /// consecutive same-source edges instead of once per edge, while the
    /// per-edge contraction bookkeeping matches [`Engine::remove`] exactly
    /// (S-CHT chains shrink below `Λ`, displaced payloads park in the S-DL).
    /// Returns how many edges were present and removed.
    pub fn remove_batch(&mut self, edges: &[(NodeId, NodeId)]) -> usize {
        let ctx = self.cell_ctx;
        let nodes = &mut self.nodes;
        let s_dl = &mut self.s_dl;
        let rng = &mut self.rng;
        let scht = &mut self.scht;
        let edge_total = &mut self.edges;
        let scratch = &mut self.scratch;
        let arena = &mut self.arena;
        let scan = &mut self.scan;
        let mut removed = 0usize;
        // Pre-hashed keys of the current run, mirroring `insert_batch`: runs
        // against inline cells stay hash-free, runs against transformed cells
        // pre-hash once and prefetch the next key's tag lines.
        let mut run_hashes: Vec<KeyHash> = Vec::new();
        for_each_source_run(
            edges,
            |&(u, _)| u,
            |u, run| {
                let hu = KeyHash::new(u);
                let mut cell = nodes.get_mut(hu);
                let mut hashed = false;
                for (i, &(_, v)) in run.iter().enumerate() {
                    let in_cell = match cell.as_mut() {
                        Some(cell) => {
                            let res = if cell.is_transformed() {
                                if !hashed {
                                    run_hashes.clear();
                                    run_hashes.extend(run.iter().map(|&(_, v)| KeyHash::new(v)));
                                    hashed = true;
                                }
                                if let Some(&next) = run_hashes.get(i + 1) {
                                    cell.prefetch(next);
                                }
                                cell.remove(
                                    run_hashes[i],
                                    &ctx,
                                    arena,
                                    rng,
                                    &mut scht.placements,
                                    scratch,
                                    scan,
                                )
                            } else {
                                cell.remove_lazy(
                                    v,
                                    &ctx,
                                    arena,
                                    rng,
                                    &mut scht.placements,
                                    scratch,
                                    scan,
                                )
                            };
                            if res.contracted {
                                scht.contractions += 1;
                            }
                            for p in res.displaced {
                                s_dl.push_forced(u, p);
                            }
                            res.removed.is_some()
                        }
                        None => false,
                    };
                    if in_cell || s_dl.remove(u, v).is_some() {
                        *edge_total -= 1;
                        removed += 1;
                    }
                }
            },
        );
        removed
    }

    /// Removes the payload for edge `⟨u, v⟩`, applying the reverse
    /// TRANSFORMATION to the cell's chain when its loading rate drops below
    /// `Λ`. `v` is hashed lazily, like [`Engine::get`].
    pub fn remove(&mut self, u: NodeId, v: NodeId) -> Option<P> {
        let ctx = self.cell_ctx;
        if let Some(cell) = self.nodes.get_mut(KeyHash::new(u)) {
            let res = cell.remove_lazy(
                v,
                &ctx,
                &mut self.arena,
                &mut self.rng,
                &mut self.scht.placements,
                &mut self.scratch,
                &mut self.scan,
            );
            if res.contracted {
                self.scht.contractions += 1;
            }
            for p in res.displaced {
                self.s_dl.push_forced(u, p);
            }
            if let Some(p) = res.removed {
                self.edges -= 1;
                return Some(p);
            }
        }
        if let Some(p) = self.s_dl.remove(u, v) {
            self.edges -= 1;
            return Some(p);
        }
        None
    }

    /// Out-degree of `u`, including S-DL entries.
    pub fn out_degree(&self, u: NodeId) -> usize {
        let in_cell = self.nodes.get(KeyHash::new(u)).map_or(0, |c| c.degree());
        in_cell + self.s_dl.count_for(u)
    }

    /// Calls `f` for every neighbour payload of `u` (cell then S-DL). The
    /// cell pass runs the SWAR occupancy scan on transformed cells — the
    /// successor-scan fast path.
    pub fn for_each_payload(&self, u: NodeId, mut f: impl FnMut(&P)) {
        if let Some(cell) = self.nodes.get(KeyHash::new(u)) {
            cell.for_each(&self.arena, &mut f);
        }
        self.s_dl.for_each_of(u, f);
    }

    /// Calls `f` for every successor id of `u` — the successor-scan fast
    /// path. A transformed cell walks its scan segment: one contiguous,
    /// append-ordered run (a dense slice when tombstone-free, the SWAR
    /// occupancy kernel over the tag bytes otherwise) instead of the chain's
    /// scattered buckets; inline cells read their dense arena block. S-DL
    /// entries follow, as on every query path.
    ///
    /// The segment stores successor ids, not payloads: variants that scan
    /// payload contents (weights, edge lists) keep using
    /// [`Engine::for_each_payload`].
    pub fn for_each_successor_id(&self, u: NodeId, mut f: impl FnMut(NodeId)) {
        if let Some(cell) = self.nodes.get(KeyHash::new(u)) {
            let seg = cell.seg_id();
            if seg != NO_SEG {
                self.scan.for_each(seg, &mut f);
            } else {
                cell.for_each(&self.arena, |p| f(p.key()));
            }
        }
        self.s_dl.for_each_of(u, |p| f(p.key()));
    }

    /// Calls `f` for every stored `(u, payload)` pair.
    pub fn for_each_edge(&self, mut f: impl FnMut(NodeId, &P)) {
        self.nodes.for_each(|cell| {
            let u = cell.node();
            cell.for_each(&self.arena, |p| f(u, p));
        });
        for (u, p) in self.s_dl.iter() {
            f(*u, p);
        }
    }

    /// Compacts the engine's slot arena (see [`SlotArena::compact`]): in
    /// every size class live blocks slide down over freed ones and the slab's
    /// excess capacity is released, and every cell's block handle — in the
    /// L-CHT *and* parked in the L-DL — is rewritten through the remap
    /// tables. Returns the number of freed blocks reclaimed.
    ///
    /// Deletion-heavy histories are the only way the free list grows, so this
    /// is a maintenance operation the caller invokes at quiescent points; no
    /// hot path pays for it.
    pub fn compact_arena(&mut self) -> usize {
        let freed = self.arena.free_count();
        if freed == 0 {
            return 0;
        }
        let remap = self.arena.compact();
        self.nodes
            .for_each_cell_mut(|cell| cell.remap_block(&remap));
        freed
    }

    /// Calls `f(degree, block capacity)` for every inline cell (capacity 0
    /// without a block): the size-class invariant the arena tests check.
    #[doc(hidden)]
    pub fn for_each_inline_block(&self, mut f: impl FnMut(usize, usize)) {
        self.nodes.for_each(|cell| match cell.inline_block() {
            Some(NO_BLOCK) => f(cell.degree(), 0),
            Some(block) => f(cell.degree(), self.arena.capacity(block)),
            None => {}
        });
    }

    /// Bytes currently held by the structure, including the payload arena and
    /// the scan segments.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.nodes.memory_bytes()
            + self.s_dl.memory_bytes()
            + self.arena.memory_bytes()
            + self.scan.memory_bytes()
    }

    /// Snapshot of the instrumentation counters and structural shape.
    pub fn stats(&self) -> StructureStats {
        let counters = self.nodes.counters();
        let mut scht_tables = 0;
        let mut scht_slots = 0;
        self.nodes.for_each(|cell| {
            scht_tables += cell.scht_tables();
            scht_slots += cell.scht_slots();
        });
        StructureStats {
            nodes: self.node_count(),
            edges: self.edges,
            lcht_tables: self.nodes.table_count(),
            lcht_cells: self.nodes.cell_capacity(),
            scht_tables,
            scht_slots,
            l_denylist_len: self.nodes.denylist_len(),
            s_denylist_len: self.s_dl.len(),
            lcht_placements: counters.placements,
            lcht_items: counters.items,
            scht_placements: self.scht.placements,
            scht_items: self.scht.items,
            insertion_failures: counters.failures + self.scht.failures,
            expansions: self.nodes.expansions() + self.scht.expansions,
            contractions: self.nodes.contractions() + self.scht.contractions,
            pool_hits: 0,
            pool_misses: 0,
            pool_retained_bytes: 0,
            // Reader-side counters live in the shard layer; a bare engine has
            // no readers to count.
            reader_retries: 0,
            read_pins: 0,
            epoch_advances: 0,
            segment_compactions: self.scan.compactions(),
            segment_tombstones: self.scan.tombstones(),
            segment_bytes: self.scan.memory_bytes(),
            arena_blocks: self.arena.block_count(),
            arena_free_blocks: self.arena.free_count(),
        }
    }
}

/// Compile-time proof that the whole engine stack is `Send + Sync` for every
/// payload variant — the contract [`crate::shard::Sharded`] relies on to move
/// per-shard engines across [`std::thread::scope`] threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine<NodeId>>();
    assert_send_sync::<Engine<crate::payload::WeightedSlot>>();
    assert_send_sync::<Engine<crate::payload::MultiSlot>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine<NodeId> {
        Engine::new(CuckooGraphConfig::default(), 6)
    }

    fn sorted_successors(e: &Engine<NodeId>, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        e.for_each_successor_id(u, |v| out.push(v));
        out.sort_unstable();
        out
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut e = engine();
        e.insert_new(1, 2);
        e.insert_new(1, 3);
        e.insert_new(4, 5);
        assert_eq!(e.edge_count(), 3);
        assert_eq!(e.node_count(), 2);
        assert!(e.contains(1, 2));
        assert!(e.contains(4, 5));
        assert!(!e.contains(2, 1));
        assert_eq!(e.remove(1, 2), Some(2));
        assert!(!e.contains(1, 2));
        assert_eq!(e.edge_count(), 2);
        assert_eq!(e.remove(1, 2), None);
    }

    #[test]
    fn successors_include_high_degree_nodes() {
        let mut e = engine();
        for v in 0..1_000u64 {
            e.insert_new(7, v);
        }
        assert_eq!(e.out_degree(7), 1_000);
        assert_eq!(sorted_successors(&e, 7), (0..1_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn many_nodes_and_edges_stay_consistent() {
        let mut e = engine();
        for u in 0..500u64 {
            for v in 0..10u64 {
                e.insert_new(u, u * 1_000 + v);
            }
        }
        assert_eq!(e.node_count(), 500);
        assert_eq!(e.edge_count(), 5_000);
        for u in (0..500u64).step_by(37) {
            assert_eq!(e.out_degree(u), 10);
            for v in 0..10u64 {
                assert!(e.contains(u, u * 1_000 + v));
            }
        }
        let stats = e.stats();
        assert_eq!(stats.nodes, 500);
        assert_eq!(stats.edges, 5_000);
        assert!(stats.lcht_cells >= 500);
    }

    #[test]
    fn get_mut_updates_payload_in_place() {
        let mut e: Engine<crate::payload::WeightedSlot> =
            Engine::new(CuckooGraphConfig::default(), 3);
        e.insert_new(1, crate::payload::WeightedSlot { v: 2, w: 1 });
        e.get_mut(1, 2).unwrap().w += 9;
        assert_eq!(e.get(1, 2).unwrap().w, 10);
    }

    #[test]
    fn denylist_disabled_still_stores_everything() {
        let config = CuckooGraphConfig::default()
            .with_denylist(false)
            .with_max_kicks(2);
        let mut e: Engine<NodeId> = Engine::new(config, 6);
        for u in 0..200u64 {
            for v in 0..20u64 {
                e.insert_new(u, v);
            }
        }
        assert_eq!(e.edge_count(), 4_000);
        for u in (0..200u64).step_by(11) {
            assert_eq!(e.out_degree(u), 20);
        }
        assert_eq!(e.stats().s_denylist_len, 0);
    }

    #[test]
    fn tiny_kick_budget_exercises_denylists_without_loss() {
        let config = CuckooGraphConfig::default().with_max_kicks(1).with_seed(9);
        let mut e: Engine<NodeId> = Engine::new(config, 6);
        for u in 0..300u64 {
            for v in 0..30u64 {
                e.insert_new(u, v);
            }
        }
        assert_eq!(e.edge_count(), 9_000);
        for u in (0..300u64).step_by(13) {
            for v in 0..30u64 {
                assert!(e.contains(u, v), "lost edge ({u}, {v})");
            }
        }
    }

    #[test]
    fn deleting_everything_empties_the_graph() {
        let mut e = engine();
        for u in 0..50u64 {
            for v in 0..40u64 {
                e.insert_new(u, v);
            }
        }
        for u in 0..50u64 {
            for v in 0..40u64 {
                assert!(e.remove(u, v).is_some(), "missing edge ({u}, {v})");
            }
        }
        assert_eq!(e.edge_count(), 0);
        for u in 0..50u64 {
            assert_eq!(e.out_degree(u), 0);
        }
        let stats = e.stats();
        assert!(stats.contractions > 0, "no contraction ever happened");
    }

    #[test]
    fn memory_shrinks_after_mass_deletion() {
        let mut e = engine();
        for v in 0..2_000u64 {
            e.insert_new(1, v);
        }
        let peak = e.memory_bytes();
        for v in 0..2_000u64 {
            e.remove(1, v);
        }
        assert!(
            e.memory_bytes() < peak,
            "memory did not shrink: peak={peak}, now={}",
            e.memory_bytes()
        );
    }

    #[test]
    fn insert_batch_matches_per_edge_inserts() {
        // Same workload via the batch path and the per-edge path; the stored
        // edge sets (and the duplicate handling) must be identical.
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for u in 0..40u64 {
            for v in 0..25u64 {
                edges.push((u, v * 3));
            }
        }
        edges.push((7, 0)); // duplicate against the stored graph
        edges.push((7, 0)); // duplicate within the batch tail

        let mut batched = engine();
        let created = batched.insert_batch(&edges, |&e| e, |&(_, v)| v, |_, _| {});
        assert_eq!(created, 40 * 25);
        assert_eq!(batched.edge_count(), 40 * 25);

        let mut looped = engine();
        for &(u, v) in &edges {
            if !looped.contains(u, v) {
                looped.insert_new(u, v);
            }
        }
        assert_eq!(batched.edge_count(), looped.edge_count());
        assert_eq!(batched.node_count(), looped.node_count());
        for u in 0..40u64 {
            let a = sorted_successors(&batched, u);
            let b = sorted_successors(&looped, u);
            assert_eq!(a, b, "successors of {u} differ");
        }
    }

    #[test]
    fn remove_batch_matches_per_edge_removes() {
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for u in 0..30u64 {
            for v in 0..20u64 {
                edges.push((u, v * 7));
            }
        }
        // Remove a same-source-grouped subset, plus misses (absent edges) and
        // a duplicate removal within the batch.
        let mut removals: Vec<(NodeId, NodeId)> =
            edges.iter().copied().filter(|&(_, v)| v % 2 == 1).collect();
        removals.push((5, 999)); // never stored
        removals.push(removals[0]); // already removed by the batch head

        let mut batched = engine();
        let mut looped = engine();
        for &(u, v) in &edges {
            batched.insert_new(u, v);
            looped.insert_new(u, v);
        }
        let removed = batched.remove_batch(&removals);
        let mut expected = 0usize;
        for &(u, v) in &removals {
            if looped.remove(u, v).is_some() {
                expected += 1;
            }
        }
        assert_eq!(removed, expected);
        assert_eq!(batched.edge_count(), looped.edge_count());
        for u in 0..30u64 {
            let a = sorted_successors(&batched, u);
            let b = sorted_successors(&looped, u);
            assert_eq!(a, b, "successors of {u} differ after batch removal");
        }
    }

    #[test]
    fn remove_batch_shrinks_schts_and_keeps_lookups_exact() {
        // Drive one node far past the transformation and several expansion
        // thresholds, then delete back down through the batch path: the S-CHT
        // chain must contract (ultimately collapsing to inline slots) and the
        // surviving edges must remain exactly queryable.
        let mut e = engine();
        let survivors: Vec<(NodeId, NodeId)> = (0..4u64).map(|v| (9, v)).collect();
        let doomed: Vec<(NodeId, NodeId)> = (4..2_000u64).map(|v| (9, v)).collect();
        for &(u, v) in survivors.iter().chain(&doomed) {
            e.insert_new(u, v);
        }
        let grown = e.stats();
        assert!(grown.scht_slots > 0, "node never transformed");
        let peak_memory = e.memory_bytes();

        assert_eq!(e.remove_batch(&doomed), doomed.len());
        let shrunk = e.stats();
        assert!(shrunk.contractions > grown.contractions, "no contraction");
        assert_eq!(
            shrunk.scht_slots, 0,
            "chain should collapse back to inline slots"
        );
        assert!(e.memory_bytes() < peak_memory, "memory did not shrink");
        assert_eq!(e.out_degree(9), survivors.len());
        for &(u, v) in &survivors {
            assert!(e.contains(u, v), "survivor ({u}, {v}) lost");
        }
        for &(u, v) in doomed.iter().step_by(131) {
            assert!(!e.contains(u, v), "deleted ({u}, {v}) still found");
        }
    }

    #[test]
    fn insert_batch_updates_existing_payloads() {
        let mut e: Engine<crate::payload::WeightedSlot> =
            Engine::new(CuckooGraphConfig::default(), 3);
        let items = [(1u64, 2u64, 5u64), (1, 2, 4), (1, 3, 1)];
        let created = e.insert_batch(
            &items,
            |&(u, v, _)| (u, v),
            |&(_, v, w)| crate::payload::WeightedSlot { v, w },
            |&(_, _, w), slot| slot.w += w,
        );
        assert_eq!(created, 2);
        assert_eq!(e.get(1, 2).unwrap().w, 9);
        assert_eq!(e.get(1, 3).unwrap().w, 1);
    }

    #[test]
    fn for_each_node_visits_every_source_once() {
        let mut e = engine();
        for u in [3u64, 9, 12, 500] {
            e.insert_new(u, 1);
        }
        let mut seen = Vec::new();
        e.for_each_node(|u| seen.push(u));
        seen.sort_unstable();
        assert_eq!(seen, vec![3, 9, 12, 500]);
    }

    /// The segment-backed successor scan agrees exactly with a set model
    /// and with the table walk of the same engine through transformation,
    /// growth, deletion (tombstones + compaction).
    #[test]
    fn segment_scan_matches_table_walk_under_churn() {
        let mut e = engine();
        let mut model = std::collections::BTreeSet::new();
        for v in 0..1_500u64 {
            e.insert_new(2, v);
            model.insert(v);
        }
        for v in (0..1_500u64).step_by(3) {
            assert_eq!(e.remove(2, v), Some(v));
            model.remove(&v);
        }
        let a = sorted_successors(&e, 2);
        let want: Vec<NodeId> = model.into_iter().collect();
        assert_eq!(a, want, "segment scan diverged from the set model");
        let mut walk = Vec::new();
        e.for_each_payload(2, |p| walk.push(*p));
        walk.sort_unstable();
        assert_eq!(walk, want, "table walk diverged from the set model");
        let s = e.stats();
        assert!(s.segment_tombstones > 0, "deletions never tombstoned");
        assert!(s.segment_bytes > 0);
    }

    #[test]
    fn stats_track_placement_averages_near_one() {
        let mut e = engine();
        for u in 0..2_000u64 {
            for v in 0..4u64 {
                e.insert_new(u, v);
            }
        }
        let stats = e.stats();
        // Theorem 1 / Theorem 2: the per-item placement work (including every
        // kick-out and every expansion re-insertion) is a small constant, far
        // below the kick budget T = 250. The paper measures ≈1.017 on the much
        // larger NotreDame dataset where expansions are amortised over more
        // items; this small workload tolerates a looser bound.
        let avg = stats.avg_lcht_placements_per_item();
        assert!(avg < 8.0, "avg L-CHT placements per item too high: {avg}");
        assert!(avg >= 1.0);
        assert!(stats.lcht_items == 2_000);
    }
}
