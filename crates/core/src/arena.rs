//! Size-classed slab arena for the cells' inline neighbour storage.
//!
//! Every L-CHT cell below the TRANSFORMATION threshold keeps its
//! up-to-`small_slots` neighbours in a block of the engine's [`SlotArena`]
//! instead of a private `Vec<P>`. The cell stores a `u32` block handle and a
//! length byte (its `Part2` is 16 bytes, the whole `Cell` 24), so
//!
//! * a low-degree node costs no heap allocation, `Vec` header or allocator
//!   bookkeeping of its own,
//! * neighbour slots of different nodes are densely packed, giving successor
//!   scans locality the general-purpose allocator never guarantees, and
//! * freeing a cell's storage is pushing an index on a free list — no
//!   allocator round-trip on the insert/delete churn path.
//!
//! Blocks come in **size classes**: the powers of two below `small_slots`
//! plus `small_slots` itself — {1, 2, 4, 6} for the basic graph, {1, 2, 3}
//! for the weighted and multi-edge graphs. Each class is its own slab with
//! its own LIFO free list and its own bounded exact-chunk growth. A cell's
//! first neighbour takes a block of the smallest class, and an insert that
//! finds the block full [promotes](SlotArena::promote) the cell one class up,
//! so a degree-1 node pays for one slot, not `small_slots`. The class sits in
//! the top `CLASS_BITS` bits of the handle and the block index in the rest.
//!
//! Vacant arena slots (freed blocks, and the tail of a partially filled
//! block) hold [`Payload::filler`], mirroring the `Option`-free cuckoo table
//! layout: the cell's length byte is the only discriminant, fillers own no
//! heap, and slots are written before they are read.
//!
//! Deletion-heavy histories can leave the slabs fragmented (long free lists,
//! high-water slab lengths). [`SlotArena::compact`] rebuilds density in one
//! pass per class: live blocks slide down over freed ones and the caller
//! patches each cell's handle through the returned remap tables (the
//! engine's `compact_arena`, which walks every cell via `for_each_cell_mut`).

use crate::payload::Payload;
use std::ops::Range;

/// Block handle marking "no block" — the block field of an empty cell. Its
/// class bits name a class no arena has, so it never aliases a real block.
pub const NO_BLOCK: u32 = u32::MAX;

/// High bits of a block handle that name its size class; the remaining
/// `32 - CLASS_BITS` bits index the block within that class's slab.
const CLASS_BITS: u32 = 4;
const INDEX_BITS: u32 = 32 - CLASS_BITS;

/// Packs a `(class, index)` pair into a block handle.
fn handle(class: usize, index: usize) -> u32 {
    assert!(index < 1 << INDEX_BITS, "slot arena block index overflow");
    ((class as u32) << INDEX_BITS) | index as u32
}

/// Splits a block handle into its `(class, index)` pair.
#[inline]
fn split(block: u32) -> (usize, usize) {
    let block = block as usize;
    (block >> INDEX_BITS, block & ((1 << INDEX_BITS) - 1))
}

/// The handle a block moved to in a [`SlotArena::compact`] pass
/// ([`NO_BLOCK`] if it was on a free list).
pub fn remapped(remap: &[Vec<u32>], block: u32) -> u32 {
    let (class, index) = split(block);
    remap[class][index]
}

/// One size class: a slab of `slots`-payload blocks plus its free list.
#[derive(Debug, Clone)]
struct SizeClass<P> {
    /// Slab storage: `slots` consecutive payloads per block.
    data: Vec<P>,
    /// Slots per block of this class.
    slots: usize,
    /// Indices of freed blocks, reused LIFO before the slab grows.
    free: Vec<u32>,
}

impl<P> SizeClass<P> {
    fn block_count(&self) -> usize {
        self.data.len() / self.slots
    }

    #[inline]
    fn range(&self, index: usize) -> Range<usize> {
        index * self.slots..(index + 1) * self.slots
    }
}

/// A size-classed slab allocator for neighbour payload storage.
#[derive(Debug, Clone)]
pub struct SlotArena<P> {
    /// The size classes, smallest first; the last one holds `small_slots`.
    classes: Box<[SizeClass<P>]>,
}

impl<P: Payload> SlotArena<P> {
    /// An empty arena whose largest class holds `small_slots` payloads.
    pub fn new(small_slots: usize) -> Self {
        let small = small_slots.max(1);
        let powers = (0..usize::BITS).map(|k| 1 << k).take_while(|&s| s < small);
        let classes: Box<[SizeClass<P>]> = powers
            .chain([small])
            .map(|slots| SizeClass {
                data: Vec::new(),
                slots,
                free: Vec::new(),
            })
            .collect();
        assert!(classes.len() < 1 << CLASS_BITS, "too many size classes");
        Self { classes }
    }

    /// Slots per block of the largest class (= the engine's `small_slots`).
    pub fn small_slots(&self) -> usize {
        self.classes[self.classes.len() - 1].slots
    }

    /// The smallest class whose blocks hold `n` payloads.
    pub fn class_for(&self, n: usize) -> usize {
        self.classes
            .iter()
            .position(|c| c.slots >= n)
            .expect("more payloads than the largest size class holds")
    }

    /// Slots of `block` (the block size of its class).
    #[inline]
    pub fn capacity(&self, block: u32) -> usize {
        self.classes[split(block).0].slots
    }

    /// Number of blocks carved out of the slabs (live + freed, every class).
    pub fn block_count(&self) -> usize {
        self.classes.iter().map(SizeClass::block_count).sum()
    }

    /// Number of blocks sitting on the free lists.
    pub fn free_count(&self) -> usize {
        self.classes.iter().map(|c| c.free.len()).sum()
    }

    /// Hands out a filler-initialised block of size class `class`, reusing a
    /// freed block of that class when one exists (freed blocks are already
    /// re-fillered) and growing the class's slab otherwise.
    pub fn alloc_block(&mut self, class: usize) -> u32 {
        let c = &mut self.classes[class];
        if let Some(index) = c.free.pop() {
            debug_assert!(
                c.data[c.range(index as usize)]
                    .iter()
                    .all(|s| s.heap_bytes() == 0),
                "freed block owns heap"
            );
            return handle(class, index as usize);
        }
        let block = handle(class, c.block_count());
        if c.data.len() + c.slots > c.data.capacity() {
            // Grow in bounded exact chunks instead of `Vec`'s doubling: the
            // slab's capacity is charged to `memory_bytes`, and a freshly
            // doubled slab would report up to 2× its live size. Chunks of
            // len/8 (at least 16 blocks) keep the worst-case slack at 12.5%
            // while still amortising the grow-copy over many allocations.
            let chunk = (c.data.len() / 8).max(16 * c.slots);
            c.data.reserve_exact(chunk);
        }
        c.data.resize(c.data.len() + c.slots, P::filler());
        block
    }

    /// Returns a block to its class's free list, overwriting its slots with
    /// fillers so any payload heap data (e.g. multi-edge lists) is released
    /// now and the block is handed out clean next time.
    pub fn free_block(&mut self, block: u32) {
        let (class, index) = split(block);
        let c = &mut self.classes[class];
        let range = c.range(index);
        c.data[range].fill_with(P::filler);
        debug_assert!(
            !c.free.contains(&(index as u32)),
            "double free of arena block"
        );
        c.free.push(index as u32);
    }

    /// Moves the first `len` payloads of the full `block` into a fresh block
    /// of the next size class, frees `block` (re-fillered) and returns the
    /// new handle.
    pub fn promote(&mut self, block: u32, len: usize) -> u32 {
        let new = self.alloc_block(split(block).0 + 1);
        for i in 0..len {
            let moved = std::mem::replace(&mut self.slots_mut(block)[i], P::filler());
            self.slots_mut(new)[i] = moved;
        }
        self.free_block(block);
        new
    }

    /// The slots of `block`.
    #[inline]
    pub fn slots(&self, block: u32) -> &[P] {
        let (class, index) = split(block);
        let c = &self.classes[class];
        &c.data[c.range(index)]
    }

    /// Mutable view of the slots of `block`.
    #[inline]
    pub fn slots_mut(&mut self, block: u32) -> &mut [P] {
        let (class, index) = split(block);
        let c = &mut self.classes[class];
        let range = c.range(index);
        &mut c.data[range]
    }

    /// Compacts every class: live blocks slide down over freed ones, each
    /// slab truncates to exactly its live block count, and the free lists
    /// empty. Returns one remap table per class, `old block index → new
    /// handle` ([`NO_BLOCK`] for blocks that were on a free list), read
    /// through [`remapped`]; the caller must rewrite every cell's handle
    /// through it before touching the arena again.
    pub fn compact(&mut self) -> Vec<Vec<u32>> {
        let mut tables = Vec::with_capacity(self.classes.len());
        for (class, c) in self.classes.iter_mut().enumerate() {
            let mut remap = vec![0u32; c.block_count()];
            for &f in &c.free {
                remap[f as usize] = NO_BLOCK;
            }
            let mut next = 0usize;
            for (old, entry) in remap.iter_mut().enumerate() {
                if *entry == NO_BLOCK {
                    continue;
                }
                *entry = handle(class, next);
                if old != next {
                    for i in 0..c.slots {
                        let moved = std::mem::replace(&mut c.data[old * c.slots + i], P::filler());
                        c.data[next * c.slots + i] = moved;
                    }
                }
                next += 1;
            }
            c.data.truncate(next * c.slots);
            c.data.shrink_to_fit();
            c.free = Vec::new();
            tables.push(remap);
        }
        tables
    }

    /// Bytes occupied by the slabs and free lists plus heap data owned by
    /// stored payloads. Fillers own no heap by contract, so summing over the
    /// whole slabs counts live payloads exactly while still reporting their
    /// real footprint (including freed blocks until the next
    /// [`SlotArena::compact`]).
    pub fn memory_bytes(&self) -> usize {
        self.classes
            .iter()
            .map(|c| {
                c.data.capacity() * std::mem::size_of::<P>()
                    + c.free.capacity() * std::mem::size_of::<u32>()
                    + c.data.iter().map(Payload::heap_bytes).sum::<usize>()
            })
            .sum()
    }

    /// Internal consistency check for the property tests: free-listed blocks
    /// must be fully fillered and in range.
    #[doc(hidden)]
    pub fn assert_free_blocks_clean(&self) {
        for (class, c) in self.classes.iter().enumerate() {
            for &f in &c.free {
                assert!((f as usize) < c.block_count(), "free index out of range");
                for slot in self.slots(handle(class, f as usize)) {
                    assert_eq!(slot.heap_bytes(), 0, "freed block owns heap");
                }
            }
        }
    }
}

/// Compile-time proof the arena can cross the sharded fan-out's thread
/// boundaries inside an engine.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SlotArena<graph_api::NodeId>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use graph_api::NodeId;

    #[test]
    fn alloc_write_free_reuse_roundtrip() {
        let mut a: SlotArena<NodeId> = SlotArena::new(4);
        let b0 = a.alloc_block(2);
        let b1 = a.alloc_block(2);
        assert_ne!(b0, b1);
        assert_eq!(a.block_count(), 2);
        a.slots_mut(b0).copy_from_slice(&[1, 2, 3, 4]);
        a.slots_mut(b1)[0] = 9;
        assert_eq!(a.slots(b0), &[1, 2, 3, 4]);

        a.free_block(b0);
        assert_eq!(a.free_count(), 1);
        let b2 = a.alloc_block(2);
        assert_eq!(b2, b0, "free list is reused before the slab grows");
        assert_eq!(a.slots(b2), &[0, 0, 0, 0], "reused block arrives clean");
        assert_eq!(a.slots(b1)[0], 9, "unrelated block untouched");
        a.assert_free_blocks_clean();
    }

    fn sizes(a: &SlotArena<NodeId>) -> Vec<usize> {
        a.classes.iter().map(|c| c.slots).collect()
    }

    #[test]
    fn size_classes_are_derived_from_small_slots() {
        let basic: SlotArena<NodeId> = SlotArena::new(6);
        assert_eq!(sizes(&basic), vec![1, 2, 4, 6]);
        assert_eq!(basic.small_slots(), 6);
        let weighted: SlotArena<NodeId> = SlotArena::new(3);
        assert_eq!(sizes(&weighted), vec![1, 2, 3]);
        assert_eq!(sizes(&SlotArena::<NodeId>::new(8)), vec![1, 2, 4, 8]);
        assert_eq!(sizes(&SlotArena::<NodeId>::new(1)), vec![1]);
        // `class_for` picks the smallest class that fits.
        let fits: Vec<usize> = (1..=6).map(|n| basic.class_for(n)).collect();
        assert_eq!(fits, vec![0, 1, 2, 2, 3, 3]);
        // Every handle reports its own class's capacity.
        let mut a: SlotArena<NodeId> = SlotArena::new(6);
        let blocks: Vec<u32> = (0..4).map(|c| a.alloc_block(c)).collect();
        let caps: Vec<usize> = blocks.iter().map(|&b| a.capacity(b)).collect();
        assert_eq!(caps, vec![1, 2, 4, 6]);
    }

    #[test]
    fn promotion_keeps_payloads_and_refillers_the_old_block() {
        use crate::payload::MultiSlot;
        let mut a: SlotArena<MultiSlot> = SlotArena::new(6);
        let mut block = a.alloc_block(0);
        let mut capacities = vec![a.capacity(block)];
        for len in 0..6 {
            if len == a.capacity(block) {
                let old = block;
                block = a.promote(block, len);
                capacities.push(a.capacity(block));
                assert!(a.slots(old).iter().all(|s| s.heap_bytes() == 0));
            }
            let v = len as u64;
            a.slots_mut(block)[len] = MultiSlot {
                v,
                edges: vec![v, v + 100],
            };
        }
        assert_eq!(capacities, vec![1, 2, 4, 6], "one class up per full block");
        let kept: Vec<(u64, Vec<u64>)> = a
            .slots(block)
            .iter()
            .map(|s| (s.v, s.edges.clone()))
            .collect();
        assert_eq!(
            kept,
            (0..6u64).map(|v| (v, vec![v, v + 100])).collect::<Vec<_>>()
        );
        // Classes 1, 2 and 4 each gave up their block; only the 6-block lives.
        assert_eq!(a.block_count(), 4);
        assert_eq!(a.free_count(), 3);
        a.assert_free_blocks_clean();
    }

    #[test]
    fn each_class_reuses_its_own_free_list_lifo() {
        let mut a: SlotArena<NodeId> = SlotArena::new(6);
        let small: Vec<u32> = (0..3).map(|_| a.alloc_block(0)).collect();
        let large: Vec<u32> = (0..3).map(|_| a.alloc_block(3)).collect();
        a.free_block(small[0]);
        a.free_block(small[2]);
        a.free_block(large[1]);
        // A class-2 request grows its own slab instead of taking another
        // class's freed block.
        let fresh = a.alloc_block(2);
        assert!(!small.contains(&fresh) && !large.contains(&fresh));
        assert_eq!(a.alloc_block(0), small[2], "last freed comes back first");
        assert_eq!(a.alloc_block(0), small[0]);
        assert_eq!(a.alloc_block(3), large[1]);
        assert_eq!(a.free_count(), 0);
        assert_eq!(a.block_count(), 7);
    }

    #[test]
    fn compact_slides_live_blocks_down() {
        let mut a: SlotArena<NodeId> = SlotArena::new(2);
        let blocks: Vec<u32> = (0..5).map(|_| a.alloc_block(1)).collect();
        for (i, &b) in blocks.iter().enumerate() {
            a.slots_mut(b)
                .copy_from_slice(&[i as u64 * 10, i as u64 * 10 + 1]);
        }
        a.free_block(blocks[1]);
        a.free_block(blocks[3]);

        let remap = a.compact();
        assert_eq!(remap[1].len(), 5);
        assert_eq!(remapped(&remap, blocks[1]), NO_BLOCK);
        assert_eq!(remapped(&remap, blocks[3]), NO_BLOCK);
        assert_eq!(a.block_count(), 3);
        assert_eq!(a.free_count(), 0);
        for (i, &b) in blocks.iter().enumerate() {
            if i == 1 || i == 3 {
                continue;
            }
            let new = remapped(&remap, b);
            assert_eq!(a.slots(new), &[i as u64 * 10, i as u64 * 10 + 1]);
        }
        // Relative order of survivors is preserved and indices are dense.
        assert_eq!(remap[1][0], handle(1, 0));
        assert_eq!(remap[1][2], handle(1, 1));
        assert_eq!(remap[1][4], handle(1, 2));
    }

    #[test]
    fn compaction_remaps_every_class_independently() {
        let mut a: SlotArena<NodeId> = SlotArena::new(6);
        let mut live = Vec::new();
        for class in 0..4 {
            let blocks: Vec<u32> = (0..4).map(|_| a.alloc_block(class)).collect();
            for (i, &b) in blocks.iter().enumerate() {
                let tag = (class * 10 + i) as u64 + 1;
                a.slots_mut(b).fill(tag);
                if i % 2 == 0 {
                    a.free_block(b);
                } else {
                    live.push((b, tag));
                }
            }
        }
        let remap = a.compact();
        assert_eq!(remap.len(), 4);
        assert_eq!((a.block_count(), a.free_count()), (8, 0));
        for (b, tag) in live {
            let new = remapped(&remap, b);
            assert_eq!(split(new).0, split(b).0, "compaction kept the class");
            assert!(split(new).1 < 2, "survivors are dense");
            assert!(a.slots(new).iter().all(|&s| s == tag));
        }
        // The remapped arena keeps allocating after the survivors.
        assert_eq!(split(a.alloc_block(2)), (2, 2));
    }

    #[test]
    #[should_panic(expected = "slot arena block index overflow")]
    fn handle_index_overflow_is_caught() {
        handle(0, 1 << INDEX_BITS);
    }

    #[test]
    fn no_block_never_aliases_a_real_handle() {
        let last_class = (1 << CLASS_BITS) - 2;
        assert!(handle(last_class, (1 << INDEX_BITS) - 1) < NO_BLOCK);
        assert_eq!(split(handle(3, 77)), (3, 77));
    }

    #[test]
    fn compact_of_empty_and_all_free_arenas() {
        let mut a: SlotArena<NodeId> = SlotArena::new(3);
        assert!(a.compact().iter().all(Vec::is_empty));
        let b = a.alloc_block(2);
        a.free_block(b);
        let remap = a.compact();
        assert_eq!(remap[2], vec![NO_BLOCK]);
        assert_eq!(a.block_count(), 0);
        assert_eq!(a.memory_bytes(), 0);
    }

    #[test]
    fn memory_bytes_shrinks_after_compaction() {
        let mut a: SlotArena<NodeId> = SlotArena::new(8);
        let blocks: Vec<u32> = (0..16).map(|_| a.alloc_block(3)).collect();
        let full = a.memory_bytes();
        for &b in &blocks[..12] {
            a.free_block(b);
        }
        assert!(a.memory_bytes() >= full, "freeing alone releases nothing");
        a.compact();
        assert!(a.memory_bytes() < full, "compaction must shrink the slab");
        assert_eq!(a.block_count(), 4);
    }

    #[test]
    fn free_block_releases_payload_heap() {
        use crate::payload::MultiSlot;
        let mut a: SlotArena<MultiSlot> = SlotArena::new(2);
        let b = a.alloc_block(1);
        a.slots_mut(b)[0] = MultiSlot {
            v: 1,
            edges: vec![10, 11, 12],
        };
        assert!(a.memory_bytes() > 2 * std::mem::size_of::<MultiSlot>());
        a.free_block(b);
        a.assert_free_blocks_clean();
        let c = &a.classes[1];
        let base = c.data.capacity() * std::mem::size_of::<MultiSlot>()
            + c.free.capacity() * std::mem::size_of::<u32>();
        assert_eq!(a.memory_bytes(), base, "freed heap still counted");
    }
}
