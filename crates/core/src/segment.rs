//! Contiguous successor scan segments: the degree-adaptive flat layout behind
//! the scan fast path.
//!
//! Above-threshold cells store their neighbours in an S-CHT chain — great for
//! point probes (tag-word candidate scans, § III-A), but a successor *scan*
//! walks every bucket of every table in the chain: scattered cache lines and
//! mostly-empty tag words at the paper's `G = 0.9` load ceiling. Sortledton
//! and LiveGraph win the scan benchmarks precisely because their adjacency is
//! contiguous. A [`ScanArena`] closes that gap without touching the probe
//! path: every transformed cell additionally owns one **scan segment** — a
//! dense, append-ordered array of successor ids with a parallel tombstone
//! bitmap — and `for_each_successor` walks that one contiguous run instead of
//! the chain.
//!
//! A segment is a *single* buffer: `cap` successor ids followed by
//! `⌈cap/64⌉` tombstone bitmap words (bit set ⇒ the entry at that index is
//! dead). Packing the bitmap into the id buffer keeps the whole segment one
//! allocation — 8.125 bytes per entry instead of the 9 a parallel tag-byte
//! array costs — and the bookkeeping struct at 32 bytes. The scan skips dead
//! slots whole-word: each 64-entry block folds its bitmap word once and walks
//! the survivors by `trailing_zeros`, the same SWAR discipline the tag-word
//! probes use.
//!
//! The segment is maintained incrementally alongside the chain by the cell's
//! mutation hooks (see [`crate::cell`]):
//!
//! * **insert** appends the successor id at the tail;
//! * **delete** punches a tombstone (bitmap bit set) found by an id scan that
//!   consults the bitmap on match — a dead entry keeps its id, and the same
//!   successor may have been re-inserted behind it;
//! * a per-segment tombstone counter triggers **in-place compaction** (live
//!   entries slide down, append order preserved) once the dead fraction
//!   exceeds 1/4 of the appended length;
//! * a full tail **grows** the buffer by an exact chunk — no doubling — which
//!   doubles as a compaction since only live entries are copied.
//!
//! The segment stores successor **ids**, not payload clones: a stored edge's
//! key never changes (in-place payload updates through `get_mut`/upsert touch
//! weights and edge lists, never `v`), so the segment can only go stale
//! through the membership hooks above — there is no write-back problem and no
//! per-update sync cost for any payload variant.
//!
//! Like its sibling [`crate::arena::SlotArena`], the arena hands out `u32`
//! indices and recycles freed segment *ids* through a LIFO free list. The
//! buffers themselves are allocated at exactly `total_for(cap)` words and
//! freed when a segment grows or its cell collapses. Freeing on the spot is
//! safe under the shard lock (see [`crate::shard`]): a writer holds its
//! shard's write guard, so no scan can be in flight on a buffer it replaces.

use crate::scht::prefetch_read;
use graph_api::NodeId;

/// "No segment attached": the id an inline cell reports. Sibling of
/// [`crate::arena::NO_BLOCK`].
pub const NO_SEG: u32 = u32::MAX;

/// Minimum capacity of a freshly created segment. Creation happens at
/// TRANSFORMATION time with `2R + 1` (basic) or `R + 1` (weighted) live
/// entries, so one small chunk of headroom avoids an immediate grow.
const MIN_CAP: usize = 8;

/// Smallest growth chunk. Growth is *exact-chunk* — `cap/4` rounded up to at
/// least this — rather than doubling, keeping the per-segment overshoot
/// bounded at 25% so the scan layout stays inside the memory budget the
/// Figure 9 experiments track.
const GROW_MIN: usize = 4;

/// Exact-chunk growth step of the `segs` bookkeeping vector. Segment counts
/// track the transformed-cell population — hundreds at most on the benchmark
/// scales — so `Vec`'s doubling would routinely strand a near-2× slack of
/// 32-byte structs; reserving in small exact chunks keeps that slack bounded.
const SEGS_CHUNK: usize = 8;

/// Tombstone bitmap words needed for `cap` entries.
#[inline]
const fn words_for(cap: usize) -> usize {
    cap.div_ceil(64)
}

/// Buffer length (in `NodeId` words) of a segment with `cap` entries: the ids
/// plus the trailing tombstone bitmap.
#[inline]
const fn total_for(cap: usize) -> usize {
    cap + words_for(cap)
}

/// Inverse of [`total_for`]: the largest capacity whose buffer fits in
/// `total` words. Buffers are always allocated at exactly `total_for(cap)`,
/// so on every live segment this recovers `cap` precisely (the roundtrip is
/// pinned exhaustively by a test); the two correction loops run at most one
/// step each.
#[inline]
fn cap_for(total: usize) -> usize {
    let mut cap = total * 64 / 65;
    while total_for(cap + 1) <= total {
        cap += 1;
    }
    while total_for(cap) > total {
        cap -= 1;
    }
    cap
}

/// One cell's scan segment: `len` appended entries at the front of the
/// buffer, `dead` of them tombstoned in the trailing bitmap. The capacity is
/// recovered from the buffer length via [`cap_for`] — nothing else is stored.
#[derive(Debug, Clone, Default)]
struct ScanSegment {
    /// Successor ids in `0..cap` (append order; tombstoned entries keep their
    /// slot and id until a compaction slides the live tail down), tombstone
    /// bitmap words in `cap..`.
    buf: Vec<NodeId>,
    /// Appended entries (live + tombstoned).
    len: u32,
    /// Tombstoned entries within `..len`.
    dead: u32,
}

impl ScanSegment {
    #[inline]
    fn capacity(&self) -> usize {
        cap_for(self.buf.len())
    }

    /// The id slice and bitmap slice, mutably split at the capacity boundary.
    #[inline]
    fn split_mut(&mut self) -> (&mut [NodeId], &mut [u64]) {
        let cap = self.capacity();
        let (ids, bm) = self.buf.split_at_mut(cap);
        // `NodeId` is a plain 64-bit integer; reading the bitmap words
        // through it directly avoids any reinterpretation.
        (ids, bm)
    }

    #[inline]
    fn is_dead(bm: &[u64], i: usize) -> bool {
        bm[i / 64] & (1u64 << (i % 64)) != 0
    }
}

/// Arena of per-cell scan segments: `u32` segment ids, LIFO free list. One
/// per engine.
#[derive(Debug, Clone, Default)]
pub struct ScanArena {
    segs: Vec<ScanSegment>,
    /// Freed segment ids, reused LIFO so hot churn re-touches warm slots.
    free: Vec<u32>,
    /// Cumulative threshold-triggered in-place compactions.
    compactions: u64,
    /// Cumulative tombstones punched.
    tombstones: u64,
}

impl ScanArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty segment sized for `hint` entries (plus chunk
    /// rounding), returning its id.
    pub fn create(&mut self, hint: usize) -> u32 {
        let cap = hint.max(MIN_CAP);
        let seg = ScanSegment {
            buf: vec![0; total_for(cap)],
            len: 0,
            dead: 0,
        };
        match self.free.pop() {
            Some(id) => {
                self.segs[id as usize] = seg;
                id
            }
            None => {
                let id = u32::try_from(self.segs.len()).expect("scan arena overflow");
                assert_ne!(id, NO_SEG, "scan arena overflow");
                if self.segs.len() == self.segs.capacity() {
                    self.segs.reserve_exact(SEGS_CHUNK);
                }
                self.segs.push(seg);
                id
            }
        }
    }

    /// Appends a live entry for successor `v`. Grows the buffer by an exact
    /// chunk — copying only live entries, so growth doubles as a compaction —
    /// when the tail is full.
    pub fn append(&mut self, seg: u32, v: NodeId) {
        let idx = seg as usize;
        if self.segs[idx].len as usize == self.segs[idx].capacity() {
            self.grow(idx);
        }
        let s = &mut self.segs[idx];
        let at = s.len as usize;
        s.buf[at] = v;
        s.len += 1;
    }

    /// Tombstones the entry for successor `v` (located by an id scan that
    /// consults the bitmap on match — a dead slot keeps its id, and `v` may
    /// have been re-inserted behind an earlier tombstone of itself),
    /// compacting in place once the dead fraction exceeds 1/4. Returns
    /// whether an entry was found.
    pub fn tombstone(&mut self, seg: u32, v: NodeId) -> bool {
        let s = &mut self.segs[seg as usize];
        let n = s.len as usize;
        let dense = s.dead == 0;
        let (ids, bm) = s.split_mut();
        let mut hit = None;
        for (i, &id) in ids[..n].iter().enumerate() {
            if id == v && (dense || !ScanSegment::is_dead(bm, i)) {
                hit = Some(i);
                break;
            }
        }
        let Some(i) = hit else {
            debug_assert!(false, "tombstone for a successor the segment never saw");
            return false;
        };
        bm[i / 64] |= 1u64 << (i % 64);
        s.dead += 1;
        self.tombstones += 1;
        if s.dead * 4 > s.len {
            self.compact(seg as usize);
            self.compactions += 1;
        }
        true
    }

    /// Returns a freed cell's segment: the buffer is dropped and the id
    /// re-enters the LIFO free list.
    pub fn release(&mut self, seg: u32) {
        self.segs[seg as usize] = ScanSegment::default();
        self.free.push(seg);
    }

    /// Walks the live entries of `seg` in append order. Tombstone-free
    /// segments (the common case under insert-mostly load) take a dense slice
    /// walk the hardware prefetcher streams; segments carrying tombstones
    /// fold one bitmap word per 64-entry block and walk the survivors by
    /// `trailing_zeros`, skipping dead slots whole-word. The first lines of
    /// the ids and the bitmap are software-prefetched up front so the reads
    /// do not stall on the pointer chase from the cell.
    #[inline]
    pub fn for_each(&self, seg: u32, mut f: impl FnMut(NodeId)) {
        let s = &self.segs[seg as usize];
        let n = s.len as usize;
        if n == 0 {
            return;
        }
        let ids = &s.buf[..n];
        prefetch_read(ids.as_ptr().cast());
        if s.dead == 0 {
            for &v in ids {
                f(v);
            }
        } else {
            let bm = &s.buf[s.capacity()..];
            prefetch_read(bm.as_ptr().cast());
            for (word, base) in (0..n).step_by(64).enumerate() {
                let lim = (n - base).min(64);
                let mask = if lim == 64 { !0u64 } else { (1u64 << lim) - 1 };
                let mut live = !bm[word] & mask;
                while live != 0 {
                    f(ids[base + live.trailing_zeros() as usize]);
                    live &= live - 1;
                }
            }
        }
    }

    /// Live entries of `seg`.
    pub fn live_len(&self, seg: u32) -> usize {
        let s = &self.segs[seg as usize];
        (s.len - s.dead) as usize
    }

    /// Slides the live entries of `segs[idx]` down over its tombstones,
    /// preserving append order, and clears the bitmap. Safe under the shard
    /// lock: a writer holds the write guard, so no scan can observe the slide
    /// mid-flight.
    fn compact(&mut self, idx: usize) {
        let s = &mut self.segs[idx];
        let n = s.len as usize;
        let (ids, bm) = s.split_mut();
        let mut live = 0usize;
        for i in 0..n {
            if !ScanSegment::is_dead(bm, i) {
                if live != i {
                    ids[live] = ids[i];
                }
                live += 1;
            }
        }
        for w in bm.iter_mut() {
            *w = 0;
        }
        s.len = live as u32;
        s.dead = 0;
    }

    /// Grows `segs[idx]` by one exact chunk (`cap/4`, at least [`GROW_MIN`]):
    /// the new buffer is built once — live ids first, then zeroes for the
    /// unused tail and the bitmap, so no word is written twice — and the old
    /// one is dropped.
    fn grow(&mut self, idx: usize) {
        let s = &mut self.segs[idx];
        let old_cap = s.capacity();
        let new_cap = old_cap + (old_cap / 4).max(GROW_MIN);
        let n = s.len as usize;
        let mut buf = Vec::with_capacity(total_for(new_cap));
        let (ids, bm) = s.buf.split_at(old_cap);
        buf.extend(
            ids[..n]
                .iter()
                .enumerate()
                .filter(|&(i, _)| !ScanSegment::is_dead(bm, i))
                .map(|(_, &id)| id),
        );
        s.len = buf.len() as u32;
        s.dead = 0;
        buf.resize(total_for(new_cap), 0);
        s.buf = buf;
    }

    /// Cumulative threshold-triggered compactions.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Cumulative tombstones punched.
    pub fn tombstones(&self) -> u64 {
        self.tombstones
    }

    /// Bytes held by the arena: segment buffers (capacity, not length) and
    /// bookkeeping.
    pub fn memory_bytes(&self) -> usize {
        let buffers: usize = self
            .segs
            .iter()
            .map(|s| s.buf.capacity() * std::mem::size_of::<NodeId>())
            .sum();
        buffers
            + self.segs.capacity() * std::mem::size_of::<ScanSegment>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

/// Compile-time proof the arena crosses the shard fan-out's thread
/// boundaries inside an engine.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ScanArena>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(arena: &ScanArena, seg: u32) -> Vec<NodeId> {
        let mut out = Vec::new();
        arena.for_each(seg, |v| out.push(v));
        out
    }

    #[test]
    fn capacity_roundtrips_through_the_packed_buffer_length() {
        // The capacity is recovered from the buffer length alone, so the
        // total_for/cap_for pair must roundtrip exactly for every capacity a
        // segment can reach.
        for cap in 0..100_000usize {
            assert_eq!(cap_for(total_for(cap)), cap, "roundtrip broke at cap {cap}");
        }
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
    }

    #[test]
    fn append_preserves_insertion_order() {
        let mut a = ScanArena::new();
        let seg = a.create(4);
        for v in [9u64, 3, 77, 3_000_000] {
            a.append(seg, v);
        }
        assert_eq!(collect(&a, seg), vec![9, 3, 77, 3_000_000]);
        assert_eq!(a.live_len(seg), 4);
    }

    #[test]
    fn growth_is_exact_chunk_and_keeps_entries() {
        let mut a = ScanArena::new();
        let seg = a.create(1); // rounds up to MIN_CAP
        for v in 0..100u64 {
            a.append(seg, v);
        }
        assert_eq!(collect(&a, seg), (0..100u64).collect::<Vec<_>>());
        // Exact-chunk growth: capacity never jumps by more than 25% (or the
        // minimum chunk), so the overshoot past 100 entries stays small.
        let cap = a.segs[seg as usize].capacity();
        assert!(cap >= 100);
        assert!(cap < 100 + (100 / 4).max(GROW_MIN) + GROW_MIN, "cap {cap}");
    }

    #[test]
    fn tombstones_skip_dead_entries_and_trigger_compaction() {
        let mut a = ScanArena::new();
        let seg = a.create(32);
        for v in 0..20u64 {
            a.append(seg, v);
        }
        // 4 tombstones in 20 appended: 16 live, dead*4 = 16 <= len 20 — no
        // compaction yet.
        for v in [1u64, 5, 9, 13] {
            assert!(a.tombstone(seg, v));
        }
        assert_eq!(a.compactions(), 0);
        assert_eq!(a.tombstones(), 4);
        let survivors: Vec<NodeId> = (0..20u64).filter(|v| ![1, 5, 9, 13].contains(v)).collect();
        assert_eq!(collect(&a, seg), survivors);

        // The 6th tombstone crosses dead*4 > len (6*4 > 20): in-place
        // compaction, order preserved, dead counter reset.
        assert!(a.tombstone(seg, 17));
        assert_eq!(a.compactions(), 0, "5*4 = 20 is not > 20");
        assert!(a.tombstone(seg, 2));
        assert_eq!(a.compactions(), 1);
        let survivors: Vec<NodeId> = (0..20u64)
            .filter(|v| ![1, 5, 9, 13, 17, 2].contains(v))
            .collect();
        assert_eq!(collect(&a, seg), survivors);
        assert_eq!(a.segs[seg as usize].dead, 0);
        assert_eq!(a.live_len(seg), survivors.len());
    }

    #[test]
    fn tombstone_then_reinsert_of_the_same_id_kills_the_live_copy() {
        // A dead slot keeps its id; a delete after a re-insert of the same
        // successor must tombstone the *live* copy, not re-find the corpse.
        let mut a = ScanArena::new();
        let seg = a.create(8);
        a.append(seg, 5);
        a.append(seg, 6);
        assert!(a.tombstone(seg, 5));
        a.append(seg, 5); // re-insert behind its own tombstone
        assert_eq!(collect(&a, seg), vec![6, 5]);
        assert!(a.tombstone(seg, 5));
        assert_eq!(collect(&a, seg), vec![6]);
        assert_eq!(a.live_len(seg), 1);
    }

    #[test]
    fn sparse_scan_skips_whole_words_across_block_boundaries() {
        // Spread entries across three bitmap words and tombstone a scattering
        // (below the compaction threshold) to exercise the word-folding walk.
        let mut a = ScanArena::new();
        let seg = a.create(200);
        for v in 0..150u64 {
            a.append(seg, v);
        }
        let doomed: Vec<u64> = (0..150).filter(|v| v % 5 == 0).collect();
        for &v in &doomed {
            assert!(a.tombstone(seg, v));
        }
        assert!(a.segs[seg as usize].dead > 0, "stayed dense");
        let expect: Vec<NodeId> = (0..150u64).filter(|v| v % 5 != 0).collect();
        assert_eq!(collect(&a, seg), expect);
    }

    #[test]
    fn growth_drops_tombstones() {
        let mut a = ScanArena::new();
        let seg = a.create(8);
        for v in 0..8u64 {
            a.append(seg, v);
        }
        assert!(a.tombstone(seg, 0));
        // Tail full: the next append grows and copies only live entries.
        a.append(seg, 100);
        let s = &a.segs[seg as usize];
        assert_eq!(s.dead, 0);
        assert_eq!(collect(&a, seg), vec![1, 2, 3, 4, 5, 6, 7, 100]);
    }

    #[test]
    fn release_recycles_segment_ids_lifo() {
        let mut a = ScanArena::new();
        let s0 = a.create(8);
        let s1 = a.create(8);
        a.append(s1, 4);
        a.release(s1);
        assert_eq!(a.live_len(s1), 0);
        // LIFO id reuse, on a fresh buffer.
        let s2 = a.create(8);
        assert_eq!(s2, s1);
        assert_eq!(collect(&a, s2), Vec::<NodeId>::new());
        a.append(s2, 5);
        assert_eq!(collect(&a, s2), vec![5]);
        assert_ne!(s0, s2);
    }

    #[test]
    fn recycled_ids_start_with_a_clean_bitmap() {
        // A re-created segment under a recycled id must carry no stale
        // tombstones from the id's previous life.
        let mut a = ScanArena::new();
        let seg = a.create(8);
        for v in 0..8u64 {
            a.append(seg, v);
        }
        assert!(a.tombstone(seg, 3));
        a.release(seg);
        let seg = a.create(8);
        for v in 10..18u64 {
            a.append(seg, v);
        }
        assert_eq!(collect(&a, seg), (10..18u64).collect::<Vec<_>>());
    }

    #[test]
    fn memory_is_reported_and_shrinks_on_release_reuse() {
        let mut a = ScanArena::new();
        let seg = a.create(64);
        let with_seg = a.memory_bytes();
        assert!(with_seg >= total_for(64) * std::mem::size_of::<NodeId>());
        a.release(seg);
        // The released buffer is freed, not parked.
        let freed = total_for(64) * std::mem::size_of::<NodeId>();
        let free_list = a.free.capacity() * std::mem::size_of::<u32>();
        assert_eq!(a.memory_bytes(), with_seg - freed + free_list);
    }
}
