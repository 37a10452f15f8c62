//! L-CHT cells: Part 1 (the source node `u`) plus the transformable Part 2.
//!
//! Part 2 starts as up to `2R` inline **small slots** (or `R` for the weighted
//! variant) that hold neighbour payloads directly. Once the degree exceeds the
//! inline capacity the slots "merge in pairs" into pointer slots: concretely,
//! the payloads move into an S-CHT chain ([`TableChain`]) owned by the cell,
//! which then grows and shrinks per the TRANSFORMATION rule. A chain that
//! shrinks back to the inline capacity collapses into small slots again.
//!
//! The small slots are not a per-cell `Vec` but a block inside the engine's
//! size-classed [`SlotArena`]: the cell stores a `u32` block handle and a
//! length byte, and every small-slot operation takes the arena as a
//! parameter. This removes one heap allocation + `Vec` header per low-degree
//! node and packs neighbour slots densely for the successor-scan hot path
//! (see [`crate::arena`]). A cell's block is as small as its degree allows:
//! an insert into a full block promotes the cell one size class up, the last
//! neighbour's removal frees the block, and a collapse lands in the smallest
//! class that fits. A transformation allocates its chain's first table at the
//! base length; a collapse dismantles the chain and frees its tables.

use crate::arena::{remapped, SlotArena, NO_BLOCK};
use crate::chain::{ChainInsert, ChainParams, TableChain};
use crate::hash::{splitmix64, KeyHash};
use crate::payload::Payload;
use crate::rng::KickRng;
use crate::scratch::RebuildScratch;
use crate::segment::{ScanArena, NO_SEG};
use graph_api::NodeId;

/// Everything a cell needs to know to manage its Part 2. Borrowed from the
/// engine on every call so cells stay small.
#[derive(Debug, Clone, Copy)]
pub struct CellCtx {
    /// Inline capacity of Part 2 before it transforms (`2R` basic, `R` weighted).
    /// Also the block size of the slot arena's largest size class.
    pub small_slots: usize,
    /// Parameters of the S-CHT chain the cell transforms into.
    pub chain: ChainParams,
    /// Base seed; per-cell chains derive their hash seeds from it and `u`.
    pub seed: u64,
}

/// Result of placing a neighbour payload into a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NeighborInsert<P> {
    /// The payload found a home. `expanded` reports whether the S-CHT chain
    /// changed shape while absorbing it, which tells the engine to drain the
    /// matching S-DL entries back in (§ III-A2, step 3).
    Stored {
        /// True if the chain enabled a table or merged during this insertion.
        expanded: bool,
    },
    /// The kick-out budget was exhausted; the payload is handed back so the
    /// engine can park it in the S-DL or force an expansion.
    Failed(P),
}

/// Result of removing a neighbour payload from a cell.
#[derive(Debug)]
pub struct NeighborRemove<P> {
    /// The removed payload, if the neighbour was present.
    pub removed: Option<P>,
    /// Payloads that lost their slot while the chain contracted and could not
    /// be re-placed; the engine parks them in the S-DL so nothing is lost.
    pub displaced: Vec<P>,
    /// True if the chain contracted or collapsed back to small slots.
    pub contracted: bool,
}

/// Opaque coordinates of a payload inside a cell's Part 2, produced by
/// [`Cell::find_slot`] and consumed by [`Cell::payload_at_mut`]. Valid only
/// until the next mutation of the cell.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CellSlot {
    /// Index into the inline small slots (within the cell's arena block).
    Small(usize),
    /// Chain coordinates (table, (array, flat slot)).
    Chain((usize, (usize, usize))),
}

/// Part 2 of a cell: inline small slots or an S-CHT chain.
#[derive(Debug, Clone)]
enum Part2<P> {
    /// Inline neighbour storage (degree ≤ `2R`): a block in the engine's
    /// [`SlotArena`] ([`NO_BLOCK`] while the cell has no neighbour) plus the
    /// live length. `Part2` is 16 bytes and the whole `Cell` 24.
    Small {
        /// Arena block handle holding the slots, or [`NO_BLOCK`].
        block: u32,
        /// Number of live slots at the front of the block; the tail holds
        /// [`Payload::filler`].
        len: u8,
    },
    /// Degree outgrew the inline slots: neighbours live in an S-CHT chain,
    /// mirrored by a contiguous scan segment for the successor-scan fast
    /// path.
    Chain {
        /// The S-CHT chain holding the neighbour payloads.
        chain: Box<TableChain<P>>,
        /// The cell's scan segment in the engine's
        /// [`ScanArena`]. Kept in lockstep with chain membership by the
        /// mutation hooks below; ids travel with the cell through L-CHT
        /// kicks and resizes.
        seg: u32,
    },
}

/// One L-CHT cell: the node `u` plus its transformable neighbour storage.
#[derive(Debug, Clone)]
pub struct Cell<P> {
    u: NodeId,
    part2: Part2<P>,
}

impl<P: Payload> Cell<P> {
    /// Creates an empty cell for node `u`. No arena block is reserved until
    /// the first neighbour arrives.
    pub fn new(u: NodeId) -> Self {
        Self {
            u,
            part2: Part2::Small {
                block: NO_BLOCK,
                len: 0,
            },
        }
    }

    /// The node stored in Part 1.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.u
    }

    /// The live small slots of an inline cell — empty for a block-less cell,
    /// so the arena is only consulted when a block exists.
    #[inline]
    fn live_slots(block: u32, len: u8, arena: &SlotArena<P>) -> &[P] {
        if len == 0 {
            &[]
        } else {
            &arena.slots(block)[..len as usize]
        }
    }

    /// Current degree (neighbours stored in this cell; S-DL entries for `u`
    /// are tracked by the engine). Read from the inline length byte — no
    /// arena access.
    pub fn degree(&self) -> usize {
        match &self.part2 {
            Part2::Small { len, .. } => *len as usize,
            Part2::Chain { chain, .. } => chain.count(),
        }
    }

    /// True if Part 2 has transformed into an S-CHT chain.
    pub fn is_transformed(&self) -> bool {
        matches!(self.part2, Part2::Chain { .. })
    }

    /// Number of S-CHT tables hanging off this cell (0 while inline).
    pub fn scht_tables(&self) -> usize {
        match &self.part2 {
            Part2::Small { .. } => 0,
            Part2::Chain { chain, .. } => chain.table_count(),
        }
    }

    /// Total S-CHT slot capacity of this cell (0 while inline).
    pub fn scht_slots(&self) -> usize {
        match &self.part2 {
            Part2::Small { .. } => 0,
            Part2::Chain { chain, .. } => chain.capacity(),
        }
    }

    /// Looks up the payload stored for neighbour `kh.key()`.
    pub fn get<'a>(&'a self, kh: KeyHash, arena: &'a SlotArena<P>) -> Option<&'a P> {
        match &self.part2 {
            Part2::Small { block, len } => {
                let v = kh.key();
                Self::live_slots(*block, *len, arena)
                    .iter()
                    .find(|p| p.key() == v)
            }
            Part2::Chain { chain, .. } => chain.get(kh),
        }
    }

    /// Mutable lookup of the payload stored for neighbour `kh.key()`.
    pub fn get_mut<'a>(
        &'a mut self,
        kh: KeyHash,
        arena: &'a mut SlotArena<P>,
    ) -> Option<&'a mut P> {
        match &mut self.part2 {
            Part2::Small { block, len } => {
                if *len == 0 {
                    return None;
                }
                let v = kh.key();
                arena.slots_mut(*block)[..*len as usize]
                    .iter_mut()
                    .find(|p| p.key() == v)
            }
            Part2::Chain { chain, .. } => chain.get_mut(kh),
        }
    }

    /// True if neighbour `kh.key()` is stored in this cell.
    pub fn contains(&self, kh: KeyHash, arena: &SlotArena<P>) -> bool {
        self.find_slot(kh, arena).is_some()
    }

    /// Locates neighbour `kh.key()` in Part 2, returning opaque coordinates
    /// for [`Cell::payload_at_mut`] — one probe resolves "update or insert"
    /// flows that previously probed twice.
    pub(crate) fn find_slot(&self, kh: KeyHash, arena: &SlotArena<P>) -> Option<CellSlot> {
        match &self.part2 {
            Part2::Small { block, len } => {
                let v = kh.key();
                Self::live_slots(*block, *len, arena)
                    .iter()
                    .position(|p| p.key() == v)
                    .map(CellSlot::Small)
            }
            Part2::Chain { chain, .. } => chain.find_index(kh).map(CellSlot::Chain),
        }
    }

    /// Direct access to a payload located by [`Cell::find_slot`].
    pub(crate) fn payload_at_mut<'a>(
        &'a mut self,
        slot: CellSlot,
        arena: &'a mut SlotArena<P>,
    ) -> &'a mut P {
        match (&mut self.part2, slot) {
            (Part2::Small { block, .. }, CellSlot::Small(i)) => &mut arena.slots_mut(*block)[i],
            (Part2::Chain { chain, .. }, CellSlot::Chain(pos)) => chain.item_at_mut(pos),
            _ => unreachable!("cell slot coordinates from a different Part 2 shape"),
        }
    }

    /// Lazy probe by raw key: an inline cell compares keys directly — **no
    /// hashing at all**, matching the pre-PR-4 cost of the (very common)
    /// low-degree case — while a transformed cell pays the one memoized Bob
    /// pass. Callers that already hold a [`KeyHash`] use [`Cell::get`].
    pub fn get_lazy<'a>(&'a self, v: NodeId, arena: &'a SlotArena<P>) -> Option<&'a P> {
        match &self.part2 {
            Part2::Small { block, len } => Self::live_slots(*block, *len, arena)
                .iter()
                .find(|p| p.key() == v),
            Part2::Chain { chain, .. } => chain.get(KeyHash::new(v)),
        }
    }

    /// Mutable counterpart of [`Cell::get_lazy`].
    pub fn get_mut_lazy<'a>(
        &'a mut self,
        v: NodeId,
        arena: &'a mut SlotArena<P>,
    ) -> Option<&'a mut P> {
        match &mut self.part2 {
            Part2::Small { block, len } => {
                if *len == 0 {
                    return None;
                }
                arena.slots_mut(*block)[..*len as usize]
                    .iter_mut()
                    .find(|p| p.key() == v)
            }
            Part2::Chain { chain, .. } => chain.get_mut(KeyHash::new(v)),
        }
    }

    /// Removes neighbour `v` from the inline small slots: the victim is
    /// swapped out for a [`Payload::filler`] which then swaps to the end of
    /// the live prefix, keeping the block dense. Removing the last neighbour
    /// returns the block to its class's free list.
    fn remove_small(
        block: &mut u32,
        len: &mut u8,
        v: NodeId,
        arena: &mut SlotArena<P>,
    ) -> Option<P> {
        let i = Self::live_slots(*block, *len, arena)
            .iter()
            .position(|p| p.key() == v)?;
        let slots = arena.slots_mut(*block);
        let removed = std::mem::replace(&mut slots[i], P::filler());
        let last = *len as usize - 1;
        if i != last {
            slots.swap(i, last);
        }
        *len -= 1;
        if *len == 0 {
            arena.free_block(*block);
            *block = NO_BLOCK;
        }
        Some(removed)
    }

    /// Lazy counterpart of [`Cell::remove`]: hash-free on inline cells, one
    /// memoized Bob pass on transformed ones.
    #[allow(clippy::too_many_arguments)] // disjoint borrows of the engine's fields
    pub fn remove_lazy(
        &mut self,
        v: NodeId,
        ctx: &CellCtx,
        arena: &mut SlotArena<P>,
        rng: &mut KickRng,
        placements: &mut u64,
        scratch: &mut RebuildScratch<P>,
        scan: &mut ScanArena,
    ) -> NeighborRemove<P> {
        if let Part2::Small { block, len } = &mut self.part2 {
            let removed = Self::remove_small(block, len, v, arena);
            return NeighborRemove {
                removed,
                displaced: Vec::new(),
                contracted: false,
            };
        }
        self.remove(KeyHash::new(v), ctx, arena, rng, placements, scratch, scan)
    }

    /// Prefetches the candidate tag lines a probe for `kh` would read. Inline
    /// small slots need no prefetch (their block is one contiguous line the
    /// probe reads immediately).
    #[inline]
    pub fn prefetch(&self, kh: KeyHash) {
        if let Part2::Chain { chain, .. } = &self.part2 {
            chain.prefetch(kh);
        }
    }

    /// Calls `f` for every neighbour payload in this cell. Chained cells walk
    /// their tables' tag words (SWAR occupancy scan); inline cells scan their
    /// dense arena block directly.
    pub fn for_each(&self, arena: &SlotArena<P>, mut f: impl FnMut(&P)) {
        match &self.part2 {
            Part2::Small { block, len } => {
                for p in Self::live_slots(*block, *len, arena) {
                    f(p);
                }
            }
            Part2::Chain { chain, .. } => chain.for_each(f),
        }
    }

    /// The neighbour ids stored in this cell.
    pub fn neighbors(&self, arena: &SlotArena<P>) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.degree());
        self.for_each(arena, |p| out.push(p.key()));
        out
    }

    /// The cell's scan-segment id: [`NO_SEG`] while inline (low-degree scans
    /// read the dense arena block directly).
    #[inline]
    pub(crate) fn seg_id(&self) -> u32 {
        match &self.part2 {
            Part2::Small { .. } => NO_SEG,
            Part2::Chain { seg, .. } => *seg,
        }
    }

    /// Creates and fills the scan segment mirroring a freshly built chain:
    /// one append per stored neighbour. Runs at TRANSFORMATION time, so the
    /// per-item Bob pass covers at most the inline capacity plus one.
    fn build_segment(chain: &TableChain<P>, scan: &mut ScanArena) -> u32 {
        let seg = scan.create(chain.count());
        chain.for_each(|p| {
            let kh = p.key_hash();
            scan.append(seg, kh.key());
        });
        seg
    }

    fn chain_seed(ctx: &CellCtx, u: NodeId) -> u64 {
        splitmix64(ctx.seed ^ u.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// TRANSFORMATION: the inline slots merge into pointer slots — every
    /// stored payload moves out of the arena block (which is freed) into a
    /// freshly enabled 1st S-CHT.
    /// Already-stored neighbours must never be lost, so they are placed with
    /// the forced path (which expands the chain as needed).
    #[allow(clippy::too_many_arguments)] // disjoint borrows of the engine's fields
    fn transform(
        block: u32,
        len: u8,
        u: NodeId,
        ctx: &CellCtx,
        arena: &mut SlotArena<P>,
        rng: &mut KickRng,
        placements: &mut u64,
        scratch: &mut RebuildScratch<P>,
    ) -> TableChain<P> {
        let mut chain = TableChain::new(ctx.chain, Self::chain_seed(ctx, u));
        if block != NO_BLOCK {
            for slot in arena.slots_mut(block)[..len as usize].iter_mut() {
                let existing = std::mem::replace(slot, P::filler());
                chain.insert_forced(existing, rng, placements, scratch);
            }
            arena.free_block(block);
        }
        chain
    }

    /// Inserts a neighbour payload (memoized hash `kh`) whose key is **not**
    /// already present (callers use [`Cell::get_mut`] for updates). Handles
    /// the small-slot → chain TRANSFORMATION and chain growth; any resize the
    /// insertion triggers rebuilds through the caller's `scratch`.
    #[allow(clippy::too_many_arguments)] // disjoint borrows of the engine's fields
    pub fn insert(
        &mut self,
        payload: P,
        kh: KeyHash,
        ctx: &CellCtx,
        arena: &mut SlotArena<P>,
        rng: &mut KickRng,
        placements: &mut u64,
        scratch: &mut RebuildScratch<P>,
        scan: &mut ScanArena,
    ) -> NeighborInsert<P> {
        debug_assert_eq!(
            payload.key(),
            kh.key(),
            "payload inserted under foreign hash"
        );
        debug_assert!(!self.contains(kh, arena), "insert of duplicate neighbour");
        debug_assert_eq!(arena.small_slots(), ctx.small_slots, "arena/ctx mismatch");
        match &mut self.part2 {
            Part2::Small { block, len } => {
                let n = *len as usize;
                if n < ctx.small_slots {
                    if *block == NO_BLOCK {
                        *block = arena.alloc_block(0);
                    } else if n == arena.capacity(*block) {
                        // The block is full: move one size class up.
                        *block = arena.promote(*block, n);
                    }
                    arena.slots_mut(*block)[n] = payload;
                    *len += 1;
                    return NeighborInsert::Stored { expanded: false };
                }
                let mut chain =
                    Self::transform(*block, *len, self.u, ctx, arena, rng, placements, scratch);
                let result = match chain.insert(payload, kh, rng, placements, scratch) {
                    ChainInsert::Stored => NeighborInsert::Stored { expanded: true },
                    ChainInsert::Failed(p) => NeighborInsert::Failed(p),
                };
                // The segment mirrors whatever membership the chain settled
                // on (the incoming payload included iff it stored).
                let seg = Self::build_segment(&chain, scan);
                self.part2 = Part2::Chain {
                    chain: Box::new(chain),
                    seg,
                };
                result
            }
            Part2::Chain { chain, seg } => {
                let before = chain.expansions();
                let v = kh.key();
                match chain.insert(payload, kh, rng, placements, scratch) {
                    ChainInsert::Stored => {
                        scan.append(*seg, v);
                        NeighborInsert::Stored {
                            expanded: chain.expansions() > before,
                        }
                    }
                    ChainInsert::Failed(p) => {
                        // Exactly one item ends up outside the chain. If it
                        // is not the incoming payload, the new edge settled
                        // and `p` is a kick victim evicted from the chain —
                        // swap their segment entries.
                        if p.key() != v {
                            scan.append(*seg, v);
                            scan.tombstone(*seg, p.key());
                        }
                        NeighborInsert::Failed(p)
                    }
                }
            }
        }
    }

    /// Forces one expansion step of Part 2: an inline cell transforms into a
    /// chain immediately, a chained cell grows its chain by one step. Returns
    /// payloads displaced by a merge that could not be re-placed. Used by the
    /// engine when the S-DL is full or disabled.
    #[allow(clippy::too_many_arguments)] // disjoint borrows of the engine's fields
    pub fn force_expand(
        &mut self,
        ctx: &CellCtx,
        arena: &mut SlotArena<P>,
        rng: &mut KickRng,
        placements: &mut u64,
        scratch: &mut RebuildScratch<P>,
        scan: &mut ScanArena,
    ) -> Vec<P> {
        match &mut self.part2 {
            Part2::Small { block, len } => {
                let chain =
                    Self::transform(*block, *len, self.u, ctx, arena, rng, placements, scratch);
                let seg = Self::build_segment(&chain, scan);
                self.part2 = Part2::Chain {
                    chain: Box::new(chain),
                    seg,
                };
                Vec::new()
            }
            Part2::Chain { chain, seg } => {
                let displaced = chain.expand(rng, placements, scratch);
                // Displaced payloads leave the cell (the engine parks them in
                // the S-DL); the segment must forget them now.
                for p in &displaced {
                    scan.tombstone(*seg, p.key());
                }
                displaced
            }
        }
    }

    /// Re-inserts payloads drained from the S-DL after an expansion, consuming
    /// `items` in place (the engine hands its reusable drain buffer, which
    /// comes back empty). Payloads that still cannot be placed are handed back
    /// (the engine re-parks them).
    #[allow(clippy::too_many_arguments)] // disjoint borrows of the engine's fields
    pub fn reinsert_from(
        &mut self,
        items: &mut Vec<P>,
        ctx: &CellCtx,
        arena: &mut SlotArena<P>,
        rng: &mut KickRng,
        placements: &mut u64,
        scratch: &mut RebuildScratch<P>,
        scan: &mut ScanArena,
    ) -> Vec<P> {
        let mut rejected = Vec::new();
        while let Some(item) = items.pop() {
            let kh = item.key_hash();
            if self.contains(kh, arena) {
                // Should not happen (the engine checks before parking), but a
                // duplicate must never corrupt the cuckoo invariant.
                continue;
            }
            match self.insert(item, kh, ctx, arena, rng, placements, scratch, scan) {
                NeighborInsert::Stored { .. } => {}
                NeighborInsert::Failed(p) => rejected.push(p),
            }
        }
        rejected
    }

    /// Removes neighbour `kh.key()`, applying the reverse TRANSFORMATION when
    /// the chain's loading rate drops below `Λ` and collapsing back to inline
    /// small slots when everything fits again.
    #[allow(clippy::too_many_arguments)] // disjoint borrows of the engine's fields
    pub fn remove(
        &mut self,
        kh: KeyHash,
        ctx: &CellCtx,
        arena: &mut SlotArena<P>,
        rng: &mut KickRng,
        placements: &mut u64,
        scratch: &mut RebuildScratch<P>,
        scan: &mut ScanArena,
    ) -> NeighborRemove<P> {
        match &mut self.part2 {
            Part2::Small { block, len } => {
                let removed = Self::remove_small(block, len, kh.key(), arena);
                NeighborRemove {
                    removed,
                    displaced: Vec::new(),
                    contracted: false,
                }
            }
            Part2::Chain { chain, seg } => {
                let seg_id = *seg;
                let removed = chain.remove(kh);
                if removed.is_none() {
                    return NeighborRemove {
                        removed,
                        displaced: Vec::new(),
                        contracted: false,
                    };
                }
                scan.tombstone(seg_id, kh.key());
                let contracted;
                let mut displaced = Vec::new();
                // Collapse back to inline slots once everything fits again —
                // the end state of the reverse transformation. The chain is
                // dismantled (items into the scratch, tables freed) and the
                // survivors land in the smallest size class that holds them.
                if chain.count() <= ctx.small_slots {
                    debug_assert!(scratch.is_empty(), "scratch busy during collapse");
                    // The survivors move back inline: the segment is freed.
                    scan.release(seg_id);
                    chain.dismantle(&mut scratch.items);
                    let n = scratch.items.len();
                    let block = if n == 0 {
                        NO_BLOCK
                    } else {
                        arena.alloc_block(arena.class_for(n))
                    };
                    if block != NO_BLOCK {
                        let slots = arena.slots_mut(block);
                        for (i, item) in scratch.items.drain(..).enumerate() {
                            slots[i] = item;
                        }
                    }
                    self.part2 = Part2::Small {
                        block,
                        len: n as u8,
                    };
                    contracted = true;
                } else {
                    let before = chain.contractions();
                    displaced = chain.maybe_contract(rng, placements, scratch);
                    // Contraction leftovers leave for the S-DL: forget them.
                    for p in &displaced {
                        scan.tombstone(seg_id, p.key());
                    }
                    contracted = chain.contractions() > before;
                }
                NeighborRemove {
                    removed,
                    displaced,
                    contracted,
                }
            }
        }
    }

    /// The arena block handle of an inline cell ([`NO_BLOCK`] if it has no
    /// neighbour); `None` once transformed.
    pub(crate) fn inline_block(&self) -> Option<u32> {
        match self.part2 {
            Part2::Small { block, .. } => Some(block),
            Part2::Chain { .. } => None,
        }
    }

    /// Rewrites the cell's arena block handle through the compaction remap
    /// tables (see [`SlotArena::compact`]). Chained cells store nothing in
    /// the arena and are untouched.
    pub(crate) fn remap_block(&mut self, remap: &[Vec<u32>]) {
        if let Part2::Small { block, .. } = &mut self.part2 {
            if *block != NO_BLOCK {
                let new = remapped(remap, *block);
                debug_assert_ne!(new, NO_BLOCK, "live cell's block freed by compaction");
                *block = new;
            }
        }
    }

    /// Heap bytes owned by Part 2 *beyond the engine-level arena* (which the
    /// engine accounts once, globally): 0 for inline cells, the chain for
    /// transformed ones.
    pub fn part2_bytes(&self) -> usize {
        match &self.part2 {
            Part2::Small { .. } => 0,
            Part2::Chain { chain, .. } => {
                std::mem::size_of::<TableChain<P>>() + chain.memory_bytes()
            }
        }
    }
}

impl<P: Payload> Payload for Cell<P> {
    #[inline]
    fn key(&self) -> NodeId {
        self.u
    }

    fn heap_bytes(&self) -> usize {
        self.part2_bytes()
    }

    /// A vacant L-CHT slot: node 0, no block, no chain. Owns nothing — the
    /// arena block field is [`NO_BLOCK`], so a filler can be cloned freely
    /// without aliasing any live block.
    #[inline]
    fn filler() -> Self {
        Cell::new(0)
    }
}

/// Compile-time proof that cells (and their transformable Part 2) are
/// `Send + Sync`, as the sharded engine's thread fan-out requires.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Cell<NodeId>>();
    assert_send_sync::<Cell<crate::payload::WeightedSlot>>();
    assert_send_sync::<Cell<crate::payload::MultiSlot>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::KeyHash;
    use crate::payload::WeightedSlot;

    fn ctx() -> CellCtx {
        CellCtx {
            small_slots: 6, // 2R with R = 3
            chain: ChainParams {
                cells_per_bucket: 4,
                r: 3,
                expand_threshold: 0.9,
                contract_threshold: 0.5,
                max_kicks: 100,
                base_len: 8,
            },
            seed: 0xfeed,
        }
    }

    fn kh(v: NodeId) -> KeyHash {
        KeyHash::new(v)
    }

    fn scratch() -> RebuildScratch<NodeId> {
        RebuildScratch::new()
    }

    fn arena() -> SlotArena<NodeId> {
        SlotArena::new(ctx().small_slots)
    }

    fn scan() -> ScanArena {
        ScanArena::new()
    }

    /// Blocks in use: carved out of the slabs and not on a free list.
    fn live_blocks(arena: &SlotArena<NodeId>) -> usize {
        arena.block_count() - arena.free_count()
    }

    #[test]
    fn small_slots_hold_up_to_capacity_inline() {
        let ctx = ctx();
        let mut arena = arena();
        let mut cell: Cell<NodeId> = Cell::new(42);
        let mut rng = KickRng::new(1);
        let mut p = 0;
        let mut s = scratch();
        let mut sc = scan();
        for v in 0..6u64 {
            assert_eq!(
                cell.insert(
                    v,
                    kh(v),
                    &ctx,
                    &mut arena,
                    &mut rng,
                    &mut p,
                    &mut s,
                    &mut sc
                ),
                NeighborInsert::Stored { expanded: false }
            );
        }
        assert_eq!(cell.degree(), 6);
        assert!(!cell.is_transformed());
        assert_eq!(cell.scht_tables(), 0);
        assert_eq!(live_blocks(&arena), 1, "one live block per inline cell");
        let block = cell.inline_block().expect("inline cell");
        assert_eq!(
            arena.capacity(block),
            6,
            "a full cell sits in the top class"
        );
        for v in 0..6u64 {
            assert!(cell.contains(kh(v), &arena));
        }
    }

    #[test]
    fn seventh_neighbor_triggers_transformation() {
        let ctx = ctx();
        let mut arena = arena();
        let mut cell: Cell<NodeId> = Cell::new(42);
        let mut rng = KickRng::new(2);
        let mut p = 0;
        let mut s = scratch();
        let mut sc = scan();
        for v in 0..6u64 {
            cell.insert(
                v,
                kh(v),
                &ctx,
                &mut arena,
                &mut rng,
                &mut p,
                &mut s,
                &mut sc,
            );
        }
        // The 7th neighbour exceeds 2R = 6: all v move into the 1st S-CHT.
        let res = cell.insert(
            6,
            kh(6),
            &ctx,
            &mut arena,
            &mut rng,
            &mut p,
            &mut s,
            &mut sc,
        );
        assert_eq!(res, NeighborInsert::Stored { expanded: true });
        assert!(cell.is_transformed());
        assert_eq!(cell.scht_tables(), 1);
        assert_eq!(cell.degree(), 7);
        assert_eq!(cell.inline_block(), None);
        assert_eq!(live_blocks(&arena), 0, "transformation frees the block");
        for v in 0..7u64 {
            assert!(
                cell.contains(kh(v), &arena),
                "lost {v} during transformation"
            );
        }
    }

    /// Mimics the engine's fallback when an insertion exceeds the kick budget
    /// and no denylist is available: force an expansion and retry.
    #[allow(clippy::too_many_arguments)]
    fn insert_with_fallback(
        cell: &mut Cell<NodeId>,
        v: NodeId,
        ctx: &CellCtx,
        arena: &mut SlotArena<NodeId>,
        rng: &mut KickRng,
        p: &mut u64,
        s: &mut RebuildScratch<NodeId>,
        sc: &mut ScanArena,
    ) -> bool {
        let mut pending = v;
        let mut expanded_any = false;
        loop {
            match cell.insert(pending, kh(pending), ctx, arena, rng, p, s, sc) {
                NeighborInsert::Stored { expanded } => return expanded_any || expanded,
                NeighborInsert::Failed(back) => {
                    let displaced = cell.force_expand(ctx, arena, rng, p, s, sc);
                    assert!(displaced.is_empty(), "forced expansion displaced items");
                    expanded_any = true;
                    pending = back;
                }
            }
        }
    }

    #[test]
    fn large_degree_grows_the_chain() {
        let ctx = ctx();
        let mut arena = arena();
        let mut cell: Cell<NodeId> = Cell::new(1);
        let mut rng = KickRng::new(3);
        let mut p = 0;
        let mut s = scratch();
        let mut sc = scan();
        let mut expansions = 0;
        for v in 0..500u64 {
            if insert_with_fallback(
                &mut cell, v, &ctx, &mut arena, &mut rng, &mut p, &mut s, &mut sc,
            ) {
                expansions += 1;
            }
        }
        assert!(expansions > 1, "chain never grew");
        assert_eq!(cell.degree(), 500);
        assert!(cell.scht_slots() >= 500);
        let mut neighbors = cell.neighbors(&arena);
        neighbors.sort_unstable();
        assert_eq!(neighbors, (0..500u64).collect::<Vec<_>>());
    }

    #[test]
    fn remove_from_small_slots() {
        let ctx = ctx();
        let mut arena = arena();
        let mut cell: Cell<NodeId> = Cell::new(1);
        let mut rng = KickRng::new(4);
        let mut p = 0;
        let mut s = scratch();
        let mut sc = scan();
        for v in 0..4u64 {
            cell.insert(
                v,
                kh(v),
                &ctx,
                &mut arena,
                &mut rng,
                &mut p,
                &mut s,
                &mut sc,
            );
        }
        let r = cell.remove(kh(2), &ctx, &mut arena, &mut rng, &mut p, &mut s, &mut sc);
        assert_eq!(r.removed, Some(2));
        assert!(!r.contracted);
        assert!(!cell.contains(kh(2), &arena));
        assert_eq!(cell.degree(), 3);
        let missing = cell.remove(kh(99), &ctx, &mut arena, &mut rng, &mut p, &mut s, &mut sc);
        assert_eq!(missing.removed, None);
        // The vacated tail of the live prefix is re-fillered, not stale.
        let block = cell.inline_block().expect("inline cell");
        assert_eq!(live_blocks(&arena), 1);
        assert_eq!(arena.slots(block)[3], NodeId::filler());
        arena.assert_free_blocks_clean();
    }

    #[test]
    fn removing_the_last_neighbor_frees_the_block() {
        let ctx = ctx();
        let mut arena = arena();
        let mut cell: Cell<NodeId> = Cell::new(1);
        let mut rng = KickRng::new(4);
        let mut p = 0;
        let mut s = scratch();
        let mut sc = scan();
        for v in 0..3u64 {
            cell.insert(
                v,
                kh(v),
                &ctx,
                &mut arena,
                &mut rng,
                &mut p,
                &mut s,
                &mut sc,
            );
        }
        for v in 0..3u64 {
            let r = cell.remove_lazy(v, &ctx, &mut arena, &mut rng, &mut p, &mut s, &mut sc);
            assert_eq!(r.removed, Some(v));
        }
        assert_eq!(cell.inline_block(), Some(NO_BLOCK));
        assert_eq!(live_blocks(&arena), 0, "an empty cell still holds a block");
        arena.assert_free_blocks_clean();
        // The next neighbour starts over in the smallest class.
        cell.insert(
            7,
            kh(7),
            &ctx,
            &mut arena,
            &mut rng,
            &mut p,
            &mut s,
            &mut sc,
        );
        assert_eq!(arena.capacity(cell.inline_block().unwrap()), 1);
        assert_eq!(cell.neighbors(&arena), vec![7]);
    }

    #[test]
    fn deletions_collapse_chain_back_to_small_slots() {
        let ctx = ctx();
        let mut arena = arena();
        let mut cell: Cell<NodeId> = Cell::new(1);
        let mut rng = KickRng::new(5);
        let mut p = 0;
        let mut s = scratch();
        let mut sc = scan();
        for v in 0..60u64 {
            insert_with_fallback(
                &mut cell, v, &ctx, &mut arena, &mut rng, &mut p, &mut s, &mut sc,
            );
        }
        assert!(cell.is_transformed());
        for v in 0..56u64 {
            let r = cell.remove(kh(v), &ctx, &mut arena, &mut rng, &mut p, &mut s, &mut sc);
            assert_eq!(r.removed, Some(v));
            // Displaced payloads must be re-offered to the cell so nothing is lost.
            let mut displaced = r.displaced;
            let rejected = cell.reinsert_from(
                &mut displaced,
                &ctx,
                &mut arena,
                &mut rng,
                &mut p,
                &mut s,
                &mut sc,
            );
            assert!(rejected.is_empty());
            assert!(
                displaced.is_empty(),
                "reinsert_from must consume the buffer"
            );
        }
        assert!(
            !cell.is_transformed(),
            "chain should collapse back to inline slots"
        );
        assert_eq!(cell.degree(), 4);
        for v in 56..60u64 {
            assert!(cell.contains(kh(v), &arena));
        }
    }

    #[test]
    fn weighted_payloads_update_in_place() {
        let ctx = CellCtx {
            small_slots: 3,
            ..ctx()
        };
        let mut arena: SlotArena<WeightedSlot> = SlotArena::new(ctx.small_slots);
        let mut cell: Cell<WeightedSlot> = Cell::new(9);
        let mut rng = KickRng::new(6);
        let mut p = 0;
        let mut s: RebuildScratch<WeightedSlot> = RebuildScratch::new();
        let mut sc = scan();
        cell.insert(
            WeightedSlot { v: 5, w: 1 },
            kh(5),
            &ctx,
            &mut arena,
            &mut rng,
            &mut p,
            &mut s,
            &mut sc,
        );
        cell.get_mut(kh(5), &mut arena).unwrap().w += 4;
        assert_eq!(cell.get(kh(5), &arena).unwrap().w, 5);
    }

    #[test]
    fn cell_reports_heap_bytes() {
        let ctx = ctx();
        let mut arena = arena();
        let mut cell: Cell<NodeId> = Cell::new(1);
        let mut rng = KickRng::new(7);
        let mut p = 0;
        let mut s = scratch();
        let mut sc = scan();
        assert_eq!(cell.part2_bytes(), 0, "inline storage lives in the arena");
        for v in 0..100u64 {
            insert_with_fallback(
                &mut cell, v, &ctx, &mut arena, &mut rng, &mut p, &mut s, &mut sc,
            );
        }
        assert!(cell.part2_bytes() > 0, "chain bytes are cell-owned");
        // Payload trait implementation mirrors part2_bytes.
        assert_eq!(cell.heap_bytes(), cell.part2_bytes());
        assert_eq!(cell.key(), 1);
        // And the filler cell owns nothing, as the flat table layout requires.
        let f: Cell<NodeId> = Cell::filler();
        assert_eq!(f.heap_bytes(), 0);
        assert_eq!(f.degree(), 0);
    }

    #[test]
    fn reinsert_from_skips_duplicates() {
        let ctx = ctx();
        let mut arena = arena();
        let mut cell: Cell<NodeId> = Cell::new(1);
        let mut rng = KickRng::new(8);
        let mut p = 0;
        let mut s = scratch();
        let mut sc = scan();
        cell.insert(
            10,
            kh(10),
            &ctx,
            &mut arena,
            &mut rng,
            &mut p,
            &mut s,
            &mut sc,
        );
        let mut parked = vec![10, 11, 12];
        let rejected = cell.reinsert_from(
            &mut parked,
            &ctx,
            &mut arena,
            &mut rng,
            &mut p,
            &mut s,
            &mut sc,
        );
        assert!(rejected.is_empty());
        assert!(parked.is_empty());
        assert_eq!(cell.degree(), 3);
    }

    /// The scan segment tracks chain membership exactly through the whole
    /// lifecycle: transformation builds it, inserts append, removes
    /// tombstone (compacting past the 1/4-waste threshold), and the collapse
    /// back to inline slots releases it.
    #[test]
    fn scan_segment_mirrors_chain_membership() {
        let ctx = ctx();
        let mut arena = arena();
        let mut cell: Cell<NodeId> = Cell::new(3);
        let mut rng = KickRng::new(11);
        let mut p = 0;
        let mut s = scratch();
        let mut sc = scan();
        assert_eq!(cell.seg_id(), NO_SEG, "inline cells carry no segment");
        for v in 0..40u64 {
            insert_with_fallback(
                &mut cell, v, &ctx, &mut arena, &mut rng, &mut p, &mut s, &mut sc,
            );
            let seg = cell.seg_id();
            if cell.is_transformed() {
                let mut from_seg = Vec::new();
                sc.for_each(seg, |x| from_seg.push(x));
                from_seg.sort_unstable();
                let mut from_chain = cell.neighbors(&arena);
                from_chain.sort_unstable();
                assert_eq!(from_seg, from_chain, "after inserting {v}");
            } else {
                assert_eq!(seg, NO_SEG);
            }
        }
        for v in 0..37u64 {
            let r = cell.remove(kh(v), &ctx, &mut arena, &mut rng, &mut p, &mut s, &mut sc);
            assert_eq!(r.removed, Some(v));
            let mut displaced = r.displaced;
            cell.reinsert_from(
                &mut displaced,
                &ctx,
                &mut arena,
                &mut rng,
                &mut p,
                &mut s,
                &mut sc,
            );
            if cell.is_transformed() {
                let mut from_seg = Vec::new();
                sc.for_each(cell.seg_id(), |x| from_seg.push(x));
                from_seg.sort_unstable();
                let mut from_chain = cell.neighbors(&arena);
                from_chain.sort_unstable();
                assert_eq!(from_seg, from_chain, "after removing {v}");
            }
        }
        assert!(!cell.is_transformed(), "cell should have collapsed");
        assert_eq!(cell.seg_id(), NO_SEG, "collapse must release the segment");
        assert!(sc.tombstones() > 0, "removals never tombstoned");
        assert!(
            sc.compactions() > 0,
            "sustained deletions never crossed the compaction threshold"
        );
    }

    /// Collapse round-trips through the arena: chain → block → chain → block,
    /// with compaction remaps in between keeping the cell's index valid.
    #[test]
    fn collapse_allocates_a_fresh_block_and_remap_tracks_compaction() {
        let ctx = ctx();
        let mut arena = arena();
        let mut cell: Cell<NodeId> = Cell::new(7);
        let mut rng = KickRng::new(10);
        let mut p = 0;
        let mut s = scratch();
        let mut sc = scan();
        // Grow past the threshold, then shrink back under it.
        for v in 0..40u64 {
            insert_with_fallback(
                &mut cell, v, &ctx, &mut arena, &mut rng, &mut p, &mut s, &mut sc,
            );
        }
        for v in 0..37u64 {
            let r = cell.remove(kh(v), &ctx, &mut arena, &mut rng, &mut p, &mut s, &mut sc);
            assert_eq!(r.removed, Some(v));
            let mut displaced = r.displaced;
            cell.reinsert_from(
                &mut displaced,
                &ctx,
                &mut arena,
                &mut rng,
                &mut p,
                &mut s,
                &mut sc,
            );
        }
        assert!(!cell.is_transformed());
        assert_eq!(cell.degree(), 3);

        // Compact and remap: the cell must still see its three survivors.
        let remap = arena.compact();
        cell.remap_block(&remap);
        let mut n = cell.neighbors(&arena);
        n.sort_unstable();
        assert_eq!(n, vec![37, 38, 39]);
        assert_eq!(arena.free_count(), 0);
    }
}
