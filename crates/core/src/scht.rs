//! The cuckoo hash table underlying both the S-CHTs and the L-CHTs.
//!
//! A [`CuckooTable`] follows the structure described in § II-C and § III-A1 of
//! the paper: two bucket arrays with a 2:1 bucket-count ratio, each associated
//! with an independently seeded Bob Hash function, and `d` cells (slots) per
//! bucket. Insertions use the classic random-walk kick-out procedure bounded
//! by `T` loops; a loss is reported back to the caller, which routes the item
//! to a DENYLIST or triggers a TRANSFORMATION.
//!
//! The same generic table stores either neighbour payloads (S-CHT: keyed by
//! `v`) or whole L-CHT cells (keyed by `u`), because both implement
//! [`Payload`].
//!
//! # The tagged probe path
//!
//! Since PR 4 the table keeps, next to each payload slot, one **tag byte**:
//! bit 7 marks occupancy and bits 0–6 hold the key's 7-bit fingerprint
//! ([`KeyHash::fingerprint`]). A probe scans the `d` tag bytes of a candidate
//! bucket — one cache line, no payload traffic — and dereferences a payload
//! only on a tag hit, where the full key is still compared so lookups stay
//! exact. Bucket indices are derived from memoized [`KeyHash`] lanes
//! ([`HashPair::bucket_of`]), so the caller hashes a key once per operation
//! regardless of how many tables a chain probes.
//!
//! # The SWAR scan path
//!
//! Since PR 5 every tag access runs word-at-a-time through [`crate::swar`]:
//! probes answer "which slots carry this fingerprint" and "where is the first
//! empty slot" with one broadcast-XOR zero-byte search over up to eight tags
//! at once, and iteration ([`CuckooTable::for_each`], [`CuckooTable::drain`])
//! walks the occupancy bitmap `word & 0x8080…`, touching only occupied
//! payload slots and skipping empty regions in whole-word jumps. The scalar
//! byte loops survive as `*_scalar` methods — the correctness oracle for the
//! property tests.
//!
//! # The flat layout
//!
//! The table is **`Option`-free and two-buffer flat**: one slot
//! vector and one tag vector hold both bucket arrays back to back (array 1
//! starts at flat offset `buckets0 * d`), and the tag occupancy bit is the
//! *only* empty/occupied discriminant — a vacant slot physically holds
//! [`Payload::filler`], written on removal and never observable because every
//! read is guarded by the tags. This halves the slot footprint of plain
//! payloads (`Option<NodeId>` was 16 bytes, `NodeId` is 8) and cuts a fresh
//! table from four heap allocations to two. Both are allocated at exactly
//! the table's geometric size and freed when the table is dropped, so a
//! TRANSFORMATION leaves no capacity behind.

use crate::hash::{HashPair, KeyHash};
use crate::payload::Payload;
use crate::rng::KickRng;
use crate::swar;
use graph_api::NodeId;

/// The "length" of a table is the number of buckets in its larger array
/// (footnote 3 in the paper). The smaller array holds half as many buckets.
#[inline]
fn secondary_buckets(len: usize) -> usize {
    (len / 2).max(1)
}

/// Tag byte for an occupied slot: occupancy bit plus the 7-bit fingerprint.
/// An empty slot's tag is 0 (the occupancy bit guarantees occupied ≠ 0).
#[inline(always)]
fn tag_of(kh: KeyHash) -> u8 {
    0x80 | kh.fingerprint()
}

/// Software prefetch of the cache line holding `p`, used by the batch drivers
/// to pull the next key's candidate tag bytes in while the current key
/// settles. A no-op on architectures without a stable prefetch intrinsic.
///
/// `_mm_prefetch` is purely a cache hint — it performs no load, cannot fault
/// even on an invalid address, and has no observable semantic effect, so it
/// is sound for any pointer value. It is the only `unsafe` in this crate.
#[allow(unsafe_code)]
#[inline(always)]
pub(crate) fn prefetch_read(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// A two-array, multi-slot cuckoo hash table with tagged buckets.
#[derive(Debug, Clone)]
pub struct CuckooTable<T> {
    /// Flat slot storage for both arrays: `buckets0 * d` entries of array 0
    /// followed by `buckets1 * d` entries of array 1. Vacant slots hold
    /// [`Payload::filler`]; the parallel tag bytes are the only discriminant.
    slots: Vec<T>,
    /// Tag bytes parallel to `slots`: 0 = empty, `0x80 | fingerprint` else.
    tags: Vec<u8>,
    buckets0: usize,
    buckets1: usize,
    d: usize,
    hashes: HashPair,
    count: usize,
}

impl<T: Payload> CuckooTable<T> {
    /// Creates an empty table of the given length (`len` buckets in array 0,
    /// `len/2` in array 1) with `d` slots per bucket, hashing with the seeds
    /// derived from `seed`.
    pub fn new(len: usize, d: usize, seed: u64) -> Self {
        let len = len.max(1);
        let buckets1 = secondary_buckets(len);
        let total = (len + buckets1) * d;
        Self {
            slots: vec![T::filler(); total],
            tags: vec![0u8; total],
            buckets0: len,
            buckets1,
            d,
            hashes: HashPair::from_seed(seed),
            count: 0,
        }
    }

    /// Length of the table (buckets in the larger array).
    pub fn len_buckets(&self) -> usize {
        self.buckets0
    }

    /// Slots per bucket (`d`).
    pub fn cells_per_bucket(&self) -> usize {
        self.d
    }

    /// Total number of slots across both arrays
    /// (`(buckets0 + buckets1) · d`).
    pub fn capacity(&self) -> usize {
        (self.buckets0 + self.buckets1) * self.d
    }

    /// Number of stored items.
    pub fn count(&self) -> usize {
        self.count
    }

    /// True when no items are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Loading rate `LR = count / capacity`.
    pub fn loading_rate(&self) -> f64 {
        self.count as f64 / self.capacity() as f64
    }

    #[inline]
    fn bucket_index(&self, kh: KeyHash, array: usize) -> usize {
        let buckets = if array == 0 {
            self.buckets0
        } else {
            self.buckets1
        };
        self.hashes.bucket_of(kh, array, buckets)
    }

    /// Flat offset at which the given array's slots begin.
    #[inline]
    fn array_base(&self, array: usize) -> usize {
        if array == 0 {
            0
        } else {
            self.buckets0 * self.d
        }
    }

    /// Flat offset of the first slot of `kh`'s candidate bucket in `array`.
    #[inline]
    fn bucket_base(&self, kh: KeyHash, array: usize) -> usize {
        self.array_base(array) + self.bucket_index(kh, array) * self.d
    }

    /// Returns the `(array, flat_index)` coordinates of the item keyed by
    /// `kh.key()` if present. Scans the `d` tag bytes of each candidate bucket
    /// as SWAR words and touches a payload only on a fingerprint hit.
    pub(crate) fn locate(&self, kh: KeyHash) -> Option<(usize, usize)> {
        let key = kh.key();
        let tag = tag_of(kh);
        for array in 0..2 {
            let base = self.bucket_base(kh, array);
            let mut found = None;
            swar::scan_eq(&self.tags[base..base + self.d], tag, |offset| {
                // Tag hit: confirm with the full key so collisions between
                // different keys sharing a fingerprint stay exact.
                if self.slots[base + offset].key() == key {
                    found = Some((array, base + offset));
                    return true;
                }
                false
            });
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// Pre-SWAR byte-at-a-time counterpart of [`CuckooTable::locate`], kept as
    /// the scalar oracle for the property tests.
    pub(crate) fn locate_scalar(&self, kh: KeyHash) -> Option<(usize, usize)> {
        let key = kh.key();
        let tag = tag_of(kh);
        for array in 0..2 {
            let base = self.bucket_base(kh, array);
            for (offset, &t) in self.tags[base..base + self.d].iter().enumerate() {
                if t == tag && self.slots[base + offset].key() == key {
                    return Some((array, base + offset));
                }
            }
        }
        None
    }

    /// Direct access to a slot located by [`CuckooTable::locate`].
    #[inline]
    pub(crate) fn slot_at_mut(&mut self, pos: (usize, usize)) -> &mut T {
        debug_assert!(self.tags[pos.1] & 0x80 != 0, "located slot is occupied");
        &mut self.slots[pos.1]
    }

    /// Returns a reference to the item with the given key, if stored.
    pub fn get(&self, kh: KeyHash) -> Option<&T> {
        let (_, i) = self.locate(kh)?;
        Some(&self.slots[i])
    }

    /// [`CuckooTable::get`] through the scalar probe ([`CuckooTable::locate_scalar`]) —
    /// the SWAR-vs-scalar oracle used by `tests/swar_scan_model.rs`.
    #[doc(hidden)]
    pub fn get_scalar(&self, kh: KeyHash) -> Option<&T> {
        let (_, i) = self.locate_scalar(kh)?;
        Some(&self.slots[i])
    }

    /// Returns a mutable reference to the item with the given key, if stored.
    pub fn get_mut(&mut self, kh: KeyHash) -> Option<&mut T> {
        let pos = self.locate(kh)?;
        Some(self.slot_at_mut(pos))
    }

    /// True if an item with the given key is stored.
    pub fn contains(&self, kh: KeyHash) -> bool {
        self.locate(kh).is_some()
    }

    /// Removes and returns the item with the given key. The vacated slot is
    /// overwritten with [`Payload::filler`] and its tag zeroed.
    pub fn remove(&mut self, kh: KeyHash) -> Option<T> {
        let (_, i) = self.locate(kh)?;
        let item = std::mem::replace(&mut self.slots[i], T::filler());
        self.tags[i] = 0;
        self.count -= 1;
        Some(item)
    }

    /// Pre-change reference probe, kept as the correctness oracle for the
    /// property tests: recomputes the full hash material per bucket array
    /// (two Bob passes per table, the cost `HashPair::bucket` paid before
    /// memoization)
    /// and compares full payload keys, consulting only the occupancy bit of
    /// the tags (the pre-tag layout's `Option` discriminant), never the
    /// fingerprints. The bucket *indices* still come from
    /// [`HashPair::bucket_of`] — items live where the tagged path put them,
    /// so the oracle reproduces the old probe's cost shape, not its (now
    /// unused) bucket function.
    pub fn contains_unmemoized(&self, key: NodeId) -> bool {
        self.get_unmemoized(key).is_some()
    }

    /// Reference counterpart of [`CuckooTable::get`] with the pre-change cost
    /// shape (see [`CuckooTable::contains_unmemoized`]).
    pub fn get_unmemoized(&self, key: NodeId) -> Option<&T> {
        for array in 0..2 {
            // One full Bob pass per array — the pre-memoization cost shape.
            // black_box keeps the optimizer from hoisting the second pass.
            let kh = KeyHash::new(std::hint::black_box(key));
            let base = self.bucket_base(kh, array);
            for offset in 0..self.d {
                if self.tags[base + offset] & 0x80 != 0 {
                    let item = &self.slots[base + offset];
                    if item.key() == key {
                        return Some(item);
                    }
                }
            }
        }
        None
    }

    /// Prefetches the tag bytes of both candidate buckets of `kh` — the cache
    /// lines a subsequent probe for the same key will read.
    #[inline]
    pub fn prefetch(&self, kh: KeyHash) {
        let b0 = self.bucket_base(kh, 0);
        prefetch_read(self.tags[b0..].as_ptr());
        let b1 = self.bucket_base(kh, 1);
        prefetch_read(self.tags[b1..].as_ptr());
    }

    /// Tries to place `item` in an empty slot of one of its two candidate
    /// buckets, without evicting anything. Returns the item back on failure.
    /// The first-empty-slot search is a SWAR zero-byte scan over the bucket's
    /// tag word(s).
    fn try_place_direct(&mut self, item: T, kh: KeyHash, placements: &mut u64) -> Result<(), T> {
        let tag = tag_of(kh);
        for array in 0..2 {
            let base = self.bucket_base(kh, array);
            if let Some(offset) = swar::find_eq(&self.tags[base..base + self.d], 0) {
                self.slots[base + offset] = item;
                self.tags[base + offset] = tag;
                self.count += 1;
                *placements += 1;
                return Ok(());
            }
        }
        Err(item)
    }

    /// Inserts `item` (whose memoized hash is `kh`), assuming its key is not
    /// already present (callers use [`CuckooTable::get_mut`] for updates).
    /// Performs up to `max_kicks` random-walk evictions. On failure the
    /// currently homeless item is returned so the caller can route it to a
    /// denylist.
    ///
    /// `placements` is incremented once per slot write, feeding the
    /// Theorem 1 validation counters (§ IV-A).
    pub fn insert(
        &mut self,
        item: T,
        kh: KeyHash,
        rng: &mut KickRng,
        max_kicks: usize,
        placements: &mut u64,
    ) -> Result<(), T> {
        debug_assert_eq!(item.key(), kh.key(), "item inserted under foreign hash");
        debug_assert!(!self.contains(kh), "insert of duplicate key");
        let mut cur = match self.try_place_direct(item, kh, placements) {
            Ok(()) => return Ok(()),
            Err(item) => item,
        };
        let mut cur_kh = kh;

        // Both candidate buckets are full: start the kick-out walk. We evict a
        // random resident of one candidate bucket, settle the newcomer there,
        // and continue with the evictee in its *other* candidate bucket.
        let mut array = if rng.next_bool() { 1 } else { 0 };
        for _ in 0..max_kicks {
            let base = self.bucket_base(cur_kh, array);
            let d = self.d;
            let cur_tag = tag_of(cur_kh);

            // If an empty slot opened up (possible after earlier evictions),
            // settle immediately.
            if let Some(offset) = swar::find_eq(&self.tags[base..base + d], 0) {
                self.slots[base + offset] = cur;
                self.tags[base + offset] = cur_tag;
                self.count += 1;
                *placements += 1;
                return Ok(());
            }

            // Evict a random resident and take its place.
            let victim_slot = base + rng.next_below(d);
            debug_assert!(self.tags[victim_slot] & 0x80 != 0, "victim slot occupied");
            let victim = std::mem::replace(&mut self.slots[victim_slot], cur);
            self.tags[victim_slot] = cur_tag;
            *placements += 1;
            cur = victim;
            // The victim is re-hashed once per eviction — still cheaper than
            // the pre-memoization path, which re-hashed once per *bucket*.
            cur_kh = cur.key_hash();

            // The victim's alternative bucket lives in the other array.
            array = 1 - array;
        }
        // The walk exceeded T loops: report the homeless item. Note `count` is
        // unchanged for it (it never found a slot); all swapped residents are
        // still stored.
        Err(cur)
    }

    /// Calls `f` for every stored item, walking the tag array eight slots at
    /// a time: the occupancy bitmap (`word & 0x8080…`) names exactly the
    /// occupied slots, so empty regions cost one word test and no payload
    /// traffic at all — the successor-scan fast path. With the flat layout
    /// both bucket arrays are covered by one pass.
    ///
    /// The walk pairs each tag word with its 8-slot payload chunk
    /// (`chunks_exact`), so the per-item slot access needs no bounds check:
    /// `trailing_zeros >> 3` of a non-zero `u64` is provably `< 8`.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        let mut slot_chunks = self.slots.chunks_exact(8);
        let mut tag_chunks = self.tags.chunks_exact(8);
        for (chunk, tag_chunk) in slot_chunks.by_ref().zip(tag_chunks.by_ref()) {
            let word = u64::from_le_bytes(tag_chunk.try_into().expect("chunks_exact(8)"));
            let mut mask = swar::occupied_mask(word);
            while mask != 0 {
                f(&chunk[swar::first_index(mask)]);
                mask &= mask - 1;
            }
        }
        for (slot, &tag) in slot_chunks.remainder().iter().zip(tag_chunks.remainder()) {
            if tag & 0x80 != 0 {
                f(slot);
            }
        }
    }

    /// Pre-SWAR iteration (walks the tag bytes one at a time — the scalar
    /// discriminant walk the `Option` layout used to do), kept as the scalar
    /// oracle for the property tests.
    pub fn for_each_scalar(&self, mut f: impl FnMut(&T)) {
        for (slot, &tag) in self.slots.iter().zip(self.tags.iter()) {
            if tag & 0x80 != 0 {
                f(slot);
            }
        }
    }

    /// Mutable scalar walk over every stored item. Callers must not change an
    /// item's key (that would desynchronise the tags); used by the arena
    /// compaction remap, which rewrites cell block indices only.
    pub(crate) fn for_each_mut(&mut self, mut f: impl FnMut(&mut T)) {
        for (slot, &tag) in self.slots.iter_mut().zip(self.tags.iter()) {
            if tag & 0x80 != 0 {
                f(slot);
            }
        }
    }

    /// Iterates over stored items. Scalar tag walk — the rare cold callers
    /// (memory accounting, tests) double as the oracle for
    /// [`CuckooTable::for_each`].
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots
            .iter()
            .zip(self.tags.iter())
            .filter_map(|(slot, &tag)| (tag & 0x80 != 0).then_some(slot))
    }

    /// Moves every stored item into `out`, leaving the table empty. The
    /// occupied slots are located by tag-word scan, so a drain touches only
    /// the slots that actually hold items (each is swapped out for a
    /// [`Payload::filler`]); the tag array is wiped with one `fill`. This is
    /// the allocation-free feeder of the rebuild scratch.
    pub fn drain_into(&mut self, out: &mut Vec<T>) {
        out.reserve(self.count);
        let slots = &mut self.slots;
        swar::scan_occupied(&self.tags, |i| {
            out.push(std::mem::replace(&mut slots[i], T::filler()));
        });
        self.tags.fill(0);
        self.count = 0;
    }

    /// Removes and returns all stored items, leaving the table empty.
    /// Allocating convenience wrapper around [`CuckooTable::drain_into`].
    pub fn drain(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.count);
        self.drain_into(&mut out);
        out
    }

    /// Bytes occupied by the slot array, its tag bytes, plus the heap data
    /// owned by the stored items (fillers own none, by contract).
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.slots.capacity() * std::mem::size_of::<T>() + self.tags.capacity();
        for item in self.iter() {
            bytes += item.heap_bytes();
        }
        bytes
    }

    /// Internal consistency check used by the property tests: every occupied
    /// slot carries its key's tag, every empty slot a zero tag and no heap
    /// bytes (the filler contract), and the cached count matches the tags.
    #[doc(hidden)]
    pub fn assert_tags_consistent(&self) {
        assert_eq!(self.slots.len(), self.tags.len());
        assert_eq!(self.slots.len(), self.capacity(), "flat layout geometry");
        let mut stored = 0usize;
        for (slot, &tag) in self.slots.iter().zip(self.tags.iter()) {
            if tag & 0x80 != 0 {
                stored += 1;
                assert_eq!(tag, tag_of(slot.key_hash()), "stale tag byte");
            } else {
                assert_eq!(tag, 0, "ghost tag on empty slot");
                assert_eq!(slot.heap_bytes(), 0, "vacant slot owns heap");
            }
        }
        assert_eq!(stored, self.count, "cached count out of sync");
    }
}

/// Compile-time proof that the cuckoo table is `Send + Sync`, as the sharded
/// engine's thread fan-out requires.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CuckooTable<NodeId>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn table(len: usize, d: usize) -> CuckooTable<NodeId> {
        CuckooTable::new(len, d, 0x1234)
    }

    fn kh(v: NodeId) -> KeyHash {
        KeyHash::new(v)
    }

    #[test]
    fn geometry_follows_two_to_one_ratio() {
        let t = table(8, 4);
        assert_eq!(t.len_buckets(), 8);
        assert_eq!(t.capacity(), (8 + 4) * 4);
        assert_eq!(t.cells_per_bucket(), 4);
        // A length-1 table still has one bucket in each array.
        let t1 = table(1, 2);
        assert_eq!(t1.capacity(), 4);
    }

    #[test]
    fn insert_then_get_roundtrip() {
        let mut t = table(8, 4);
        let mut rng = KickRng::new(1);
        let mut placements = 0;
        for v in 1..=20u64 {
            t.insert(v, kh(v), &mut rng, 50, &mut placements).unwrap();
        }
        assert_eq!(t.count(), 20);
        for v in 1..=20u64 {
            assert_eq!(t.get(kh(v)), Some(&v));
            assert!(t.contains(kh(v)));
            assert!(t.contains_unmemoized(v));
        }
        assert!(!t.contains(kh(99)));
        assert!(!t.contains_unmemoized(99));
        assert!(placements >= 20);
        t.assert_tags_consistent();
    }

    /// The filler value (0 for `NodeId`) is a perfectly ordinary key: vacant
    /// slots holding fillers must never alias a stored key 0.
    #[test]
    fn filler_key_is_storable_and_distinct_from_vacancy() {
        let mut t = table(8, 4);
        let mut rng = KickRng::new(12);
        let mut p = 0;
        assert!(!t.contains(kh(0)), "empty table must not report key 0");
        assert!(!t.contains_unmemoized(0));
        t.insert(0, kh(0), &mut rng, 50, &mut p).unwrap();
        assert_eq!(t.get(kh(0)), Some(&0));
        assert_eq!(t.count(), 1);
        assert_eq!(t.remove(kh(0)), Some(0));
        assert!(!t.contains(kh(0)));
        t.assert_tags_consistent();
    }

    #[test]
    fn remove_frees_slots() {
        let mut t = table(4, 4);
        let mut rng = KickRng::new(2);
        let mut p = 0;
        for v in 0..10u64 {
            t.insert(v, kh(v), &mut rng, 50, &mut p).unwrap();
        }
        assert_eq!(t.remove(kh(3)), Some(3));
        assert_eq!(t.remove(kh(3)), None);
        assert!(!t.contains(kh(3)));
        assert_eq!(t.count(), 9);
        // The freed slot is reusable.
        t.insert(100, kh(100), &mut rng, 50, &mut p).unwrap();
        assert!(t.contains(kh(100)));
        t.assert_tags_consistent();
    }

    #[test]
    fn loading_rate_tracks_count() {
        let mut t = table(4, 2);
        let mut rng = KickRng::new(3);
        let mut p = 0;
        assert_eq!(t.loading_rate(), 0.0);
        t.insert(1, kh(1), &mut rng, 50, &mut p).unwrap();
        assert!((t.loading_rate() - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn insertion_failure_returns_homeless_item() {
        // Tiny table (len=1, d=1 => capacity 2) filled beyond capacity must
        // eventually fail and hand an item back.
        let mut t = table(1, 1);
        let mut rng = KickRng::new(4);
        let mut p = 0;
        let mut failed = Vec::new();
        for v in 0..10u64 {
            if let Err(item) = t.insert(v, kh(v), &mut rng, 8, &mut p) {
                failed.push(item);
            }
        }
        assert_eq!(t.count() + failed.len(), 10);
        assert!(!failed.is_empty());
        // Everything that did not fail is still retrievable.
        let stored: Vec<_> = t.iter().copied().collect();
        for v in stored {
            assert!(t.contains(kh(v)));
        }
        t.assert_tags_consistent();
    }

    #[test]
    fn kick_out_preserves_all_settled_items() {
        // Fill to a high load factor; every successfully inserted key must
        // remain findable even after many evictions.
        let mut t = table(16, 4);
        let mut rng = KickRng::new(5);
        let mut p = 0;
        let mut ok = Vec::new();
        for v in 0..90u64 {
            if t.insert(v, kh(v), &mut rng, 200, &mut p).is_ok() {
                ok.push(v);
            }
        }
        for v in &ok {
            assert!(t.contains(kh(*v)), "lost key {v} after kick-outs");
        }
        assert_eq!(t.count(), ok.len());
        t.assert_tags_consistent();
    }

    #[test]
    fn drain_empties_the_table() {
        let mut t = table(8, 4);
        let mut rng = KickRng::new(6);
        let mut p = 0;
        for v in 0..30u64 {
            t.insert(v, kh(v), &mut rng, 100, &mut p).unwrap();
        }
        let mut items = t.drain();
        items.sort_unstable();
        assert_eq!(items, (0..30u64).collect::<Vec<_>>());
        assert_eq!(t.count(), 0);
        assert!(t.is_empty());
        assert!(!t.contains(kh(5)));
        t.assert_tags_consistent();
    }

    #[test]
    fn memory_bytes_reflects_capacity() {
        // Option-free layout: one payload byte-for-byte per slot, one tag.
        let t = table(8, 4);
        let slots = 8 * 4 + 4 * 4;
        let expected = slots * std::mem::size_of::<NodeId>() + slots;
        assert_eq!(t.memory_bytes(), expected);
    }

    #[test]
    fn for_each_visits_every_item() {
        let mut t = table(8, 4);
        let mut rng = KickRng::new(7);
        let mut p = 0;
        for v in 0..25u64 {
            t.insert(v, kh(v), &mut rng, 100, &mut p).unwrap();
        }
        let mut sum = 0u64;
        let mut n = 0;
        t.for_each(|&v| {
            sum += v;
            n += 1;
        });
        assert_eq!(n, 25);
        assert_eq!(sum, (0..25).sum());
        // The scalar walk and the mutable walk agree with the SWAR pass.
        let mut scalar = 0u64;
        t.for_each_scalar(|&v| scalar += v);
        assert_eq!(scalar, sum);
        let mut muts = 0u64;
        t.for_each_mut(|v| muts += *v);
        assert_eq!(muts, sum);
    }

    #[test]
    fn high_load_factor_is_achievable_with_d8() {
        // With d = 8 (the paper's default) a cuckoo table sustains > 90% load.
        let mut t = table(16, 8);
        let mut rng = KickRng::new(8);
        let mut p = 0;
        let capacity = t.capacity();
        let target = (capacity as f64 * 0.95) as u64;
        let mut inserted = 0;
        for v in 0..target {
            if t.insert(v, kh(v), &mut rng, 250, &mut p).is_ok() {
                inserted += 1;
            }
        }
        assert!(
            inserted as f64 >= capacity as f64 * 0.9,
            "only reached {} of {capacity}",
            inserted
        );
        t.assert_tags_consistent();
    }

    #[test]
    fn prefetch_is_a_safe_no_op_semantically() {
        let mut t = table(8, 4);
        let mut rng = KickRng::new(9);
        let mut p = 0;
        for v in 0..10u64 {
            t.insert(v, kh(v), &mut rng, 50, &mut p).unwrap();
        }
        // Prefetching present and absent keys must not disturb anything.
        for v in 0..20u64 {
            t.prefetch(kh(v));
        }
        assert_eq!(t.count(), 10);
        for v in 0..10u64 {
            assert!(t.contains(kh(v)));
        }
    }
}
