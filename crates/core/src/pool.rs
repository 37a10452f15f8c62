//! Shard-local table pooling: recycled slot/tag buffers for cuckoo tables.
//!
//! Every TRANSFORMATION event (chain expansion merge, contraction, collapse
//! back to small slots) drops one or more [`crate::scht::CuckooTable`]s and
//! allocates fresh ones. Before this module, each fresh table cost two heap
//! allocations (one slot array, one tag array — already down from four since
//! the arrays were merged per table); under churn-heavy workloads those
//! resize events fire thousands of times, and the allocator traffic shows up
//! directly in the `resize_churn` benchmarks.
//!
//! A [`TablePool`] is the follow-on to [`crate::scratch::RebuildScratch`]:
//! where the scratch recycles the *drain buffers* of a rebuild, the pool
//! recycles the *table buffers* themselves. A retiring table hands its slot
//! and tag vectors to the pool — already drained back to all-filler /
//! all-zero by the rebuild paths — and the next table allocation takes a
//! pooled pair back, adjusting only its length (no re-`memset`, no `malloc`),
//! falling back to the allocator on a pool miss.
//!
//! The pool is engine-local (one per [`RebuildScratch`], so one per engine
//! level and one per shard) — no locks, no cross-shard sharing. It is capped
//! at a small number of retained buffer pairs so the recycled capacity cannot
//! silently dominate the memory the structure reports; what it does retain is
//! counted honestly via [`TablePool::retained_bytes`].

use crate::payload::Payload;

/// Maximum number of retired buffer pairs a pool holds. A chain has at most
/// `R` tables and rebuild events retire tables one event at a time, so a
/// handful of entries already captures the steady state; the cap keeps the
/// retained capacity bounded and honestly small.
const MAX_POOLED: usize = 8;

/// Counter snapshot of a pool's activity, summed across an engine's pools for
/// [`crate::StructureStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Table allocations served from a recycled buffer pair.
    pub hits: u64,
    /// Table allocations that fell through to the allocator.
    pub misses: u64,
    /// Tables retired into the pool (or dropped, when it is full).
    pub retired: u64,
    /// Retirements quarantined behind an epoch stamp instead of entering the
    /// free list directly (cumulative; see [`TablePool::begin_deferred`]).
    pub deferred: u64,
    /// Quarantined buffers released back into circulation after their epoch
    /// cleared the reclaim bound (cumulative).
    pub reclaimed: u64,
    /// Buffers currently parked in the quarantine, awaiting an epoch advance.
    pub deferred_pending: usize,
    /// Bytes currently held by pooled (idle) buffer pairs, including the
    /// quarantine.
    pub retained_bytes: usize,
}

impl PoolStats {
    /// Accumulates another snapshot into this one (sharded stats merge).
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.retired += other.retired;
        self.deferred += other.deferred;
        self.reclaimed += other.reclaimed;
        self.deferred_pending += other.deferred_pending;
        self.retained_bytes += other.retained_bytes;
    }
}

/// A bounded free-list of retired `(slots, tags)` buffer pairs, with an
/// epoch-stamped quarantine for retirements that happen inside a concurrent
/// mutation window (see [`crate::epoch`]): those buffers only re-enter
/// circulation once [`TablePool::reclaim`] is called with a bound proving no
/// reader epoch can still reference them.
#[derive(Debug, Clone)]
pub struct TablePool<T> {
    entries: Vec<(Vec<T>, Vec<u8>)>,
    /// Epoch-stamped quarantined retirements (`(stamp, slots, tags)`),
    /// oldest first. Never served by [`TablePool::acquire`].
    quarantine: Vec<(u64, Vec<T>, Vec<u8>)>,
    /// When true, retirements are stamped with `epoch` and parked in the
    /// quarantine instead of entering the free list.
    defer: bool,
    /// Stamp applied to deferred retirements (the open window's epoch).
    epoch: u64,
    hits: u64,
    misses: u64,
    retired: u64,
    deferred: u64,
    reclaimed: u64,
}

impl<T: Payload> TablePool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            quarantine: Vec::new(),
            defer: false,
            epoch: 0,
            hits: 0,
            misses: 0,
            retired: 0,
            deferred: 0,
            reclaimed: 0,
        }
    }

    /// Enters deferred-retire mode: until [`TablePool::end_deferred`], every
    /// retirement is stamped with `epoch` (the shard's open mutation-window
    /// epoch) and parked in the quarantine instead of the free list, so a
    /// buffer retired by a TRANSFORMATION cannot be rewritten while a reader
    /// pinned at an older epoch might still scan it.
    pub fn begin_deferred(&mut self, epoch: u64) {
        self.defer = true;
        self.epoch = epoch;
    }

    /// Releases every quarantined buffer whose stamp is strictly below
    /// `safe_epoch` (the coordinator's reclaim bound: no active reader pin can
    /// observe an epoch below it) into the free list, subject to the usual
    /// [`MAX_POOLED`] cap. Returns the number of buffers released.
    pub fn reclaim(&mut self, safe_epoch: u64) -> usize {
        let mut released = 0;
        // Oldest stamps sit at the front; stop at the first survivor.
        while self
            .quarantine
            .first()
            .is_some_and(|(stamp, _, _)| *stamp < safe_epoch)
        {
            let (_, slots, tags) = self.quarantine.remove(0);
            released += 1;
            self.reclaimed += 1;
            if self.entries.len() < MAX_POOLED {
                self.entries.push((slots, tags));
            }
        }
        released
    }

    /// Leaves deferred-retire mode, running a final [`TablePool::reclaim`] at
    /// `safe_epoch`. Buffers whose stamp has not yet cleared the bound stay
    /// quarantined for the next window. Returns the number released.
    pub fn end_deferred(&mut self, safe_epoch: u64) -> usize {
        self.defer = false;
        self.reclaim(safe_epoch)
    }

    /// Hands out a `(slots, tags)` pair of exactly `total` entries, with every
    /// slot set to [`Payload::filler`] and every tag zeroed. Reuses a pooled
    /// pair when one is available (resize-in-place, no allocation when the
    /// recycled capacity suffices), otherwise allocates fresh.
    ///
    /// A hit renormalises only the *length*: retirees arrive drained —
    /// all-filler slots, all-zero tags, the [`drain_into`] contract every
    /// table retire path runs — so truncating drops trailing fillers and
    /// growing writes just the missing suffix. (An earlier version re-cleared
    /// the whole pair defensively, which made every hit pay the same `memset`
    /// a miss gets from `calloc` — pooling could only lose to the allocator's
    /// own free-list. The invariant is debug-asserted instead.) Callers that
    /// retire *dirty* buffers must pair with [`TablePool::acquire_raw`] on a
    /// pool of their own, as the scan-segment arena does.
    ///
    /// [`drain_into`]: crate::scht::CuckooTable::drain_into
    pub fn acquire(&mut self, total: usize) -> (Vec<T>, Vec<u8>) {
        let (slots, tags) = self.acquire_raw(total);
        debug_assert!(
            tags.iter().all(|&t| t == 0),
            "pooled buffers must be retired drained (all-zero tags)"
        );
        (slots, tags)
    }

    /// Like [`TablePool::acquire`], but entry contents are unspecified beyond
    /// what the retiree left behind: only the length (`total`) and, for any
    /// grown suffix, filler/zero initialisation are guaranteed. For callers
    /// that track their own fill level and write every entry before reading
    /// it — the scan segments — so their retirees skip draining entirely.
    ///
    /// Selection is best-fit, not LIFO: the pair with the smallest capacity
    /// that still holds `total` without reallocating, falling back to the
    /// largest pair when none suffices. A chain churns tables of several
    /// sizes through one pool, and blindly popping the most recent retiree
    /// made mismatches routine — an undersized pair pays a grow-`realloc`
    /// (allocate + free, strictly worse than a pool miss) and an oversized
    /// one trips the 4× capacity cap below into a shrink-`realloc`. Scanning
    /// the at-most-[`MAX_POOLED`] entries costs a few compares.
    pub fn acquire_raw(&mut self, total: usize) -> (Vec<T>, Vec<u8>) {
        if let Some((mut slots, mut tags)) = self.take_best_fit(total) {
            self.hits += 1;
            debug_assert_eq!(slots.len(), tags.len(), "pooled pair length skew");
            if slots.len() > total {
                slots.truncate(total);
                tags.truncate(total);
            } else {
                slots.resize(total, T::filler());
                tags.resize(total, 0);
            }
            // A small table born from a much larger retired buffer would pin
            // that capacity for its whole lifetime (tables report capacity,
            // not length, to the memory experiments). Cap the ride-along at
            // 4× the request; pathological mismatches pay one shrink.
            if slots.capacity() > 4 * total.max(1) {
                slots.shrink_to(total);
                tags.shrink_to(total);
            }
            (slots, tags)
        } else {
            self.misses += 1;
            (vec![T::filler(); total], vec![0u8; total])
        }
    }

    /// Removes and returns the best-fitting pooled pair for a `total`-entry
    /// request: the smallest capacity that already holds `total`, else the
    /// largest available (which minimises the grow-`realloc`).
    fn take_best_fit(&mut self, total: usize) -> Option<(Vec<T>, Vec<u8>)> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, (s, _))| {
                let cap = s.capacity();
                if cap >= total {
                    (0, cap)
                } else {
                    (1, usize::MAX - cap)
                }
            })
            .map(|(i, _)| i);
        best.map(|i| self.entries.swap_remove(i))
    }

    /// Single-buffer variant of [`TablePool::acquire_raw`] for callers whose
    /// storage is one `Vec<T>` (the scan segments pack ids and tombstone
    /// bitmap into a single buffer). Pooled pairs acquired this way carry an
    /// empty tags vector, so recycling through this entry point never touches
    /// a byte of tag storage.
    ///
    /// The ride-along capacity cap is 2× here, tighter than `acquire_raw`'s
    /// 4×: segments live for the whole life of a high-degree cell and their
    /// *capacity* is what the memory experiments charge, so a small segment
    /// born from a big retiree would carry the slack indefinitely — across a
    /// population of segments that slack dominated the arena's footprint.
    /// Tables are shorter-lived (every TRANSFORMATION replaces them), so the
    /// looser bound is the better trade there.
    pub fn acquire_ids(&mut self, total: usize) -> Vec<T> {
        if let Some((mut slots, _tags)) = self.take_best_fit(total) {
            self.hits += 1;
            if slots.len() > total {
                slots.truncate(total);
            } else {
                slots.resize(total, T::filler());
            }
            if slots.capacity() > 2 * total.max(1) {
                slots.shrink_to(total);
            }
            slots
        } else {
            self.misses += 1;
            vec![T::filler(); total]
        }
    }

    /// Retires a single buffer (see [`TablePool::acquire_ids`]); stored as a
    /// pair with an empty, allocation-free tags vector so the free list and
    /// quarantine machinery are shared with the two-buffer path.
    pub fn retire_ids(&mut self, ids: Vec<T>) {
        self.retire(ids, Vec::new());
    }

    /// Takes ownership of a retiring table's buffers. A full pool drops
    /// them; otherwise they wait for the next
    /// [`TablePool::acquire`] — or, in deferred mode, sit stamped in the
    /// quarantine until an epoch advance proves no concurrent reader can
    /// still be scanning them.
    pub fn retire(&mut self, slots: Vec<T>, tags: Vec<u8>) {
        self.retired += 1;
        if self.defer {
            // The quarantine shares the free list's bound: together they hold
            // at most 2×MAX_POOLED pairs, so deferral cannot turn the pool
            // into an unbounded memory sink under pathological churn. The
            // buffers themselves are dropped when over cap — dropping is
            // always safe (the table already published its replacement; only
            // *recycling into a new table* must wait for the epoch).
            if self.quarantine.len() < MAX_POOLED {
                self.deferred += 1;
                self.quarantine.push((self.epoch, slots, tags));
            }
        } else if self.entries.len() < MAX_POOLED {
            self.entries.push((slots, tags));
        }
    }

    /// Number of idle buffer pairs currently pooled.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of quarantined buffer pairs still awaiting an epoch advance.
    pub fn deferred_pending(&self) -> usize {
        self.quarantine.len()
    }

    /// Bytes held by the idle pooled buffers — free list *and* quarantine —
    /// counted into the engine's memory reporting so pooling cannot hide
    /// capacity from Figure 9.
    pub fn retained_bytes(&self) -> usize {
        let free: usize = self
            .entries
            .iter()
            .map(|(s, t)| s.capacity() * std::mem::size_of::<T>() + t.capacity())
            .sum();
        let parked: usize = self
            .quarantine
            .iter()
            .map(|(_, s, t)| s.capacity() * std::mem::size_of::<T>() + t.capacity())
            .sum();
        free + parked
    }

    /// Counter snapshot for stats reporting.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
            retired: self.retired,
            deferred: self.deferred,
            reclaimed: self.reclaimed,
            deferred_pending: self.quarantine.len(),
            retained_bytes: self.retained_bytes(),
        }
    }
}

impl<T: Payload> Default for TablePool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Compile-time proof the pool can cross the sharded fan-out's thread
/// boundaries inside an engine.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TablePool<graph_api::NodeId>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use graph_api::NodeId;

    #[test]
    fn acquire_miss_then_hit_recycles_capacity() {
        let mut pool: TablePool<NodeId> = TablePool::new();
        let (slots, tags) = pool.acquire(64);
        assert_eq!(slots.len(), 64);
        assert_eq!(tags.len(), 64);
        assert!(slots.iter().all(|&s| s == NodeId::filler()));
        assert!(tags.iter().all(|&t| t == 0));
        assert_eq!(pool.stats().misses, 1);

        pool.retire(slots, tags);
        assert_eq!(pool.len(), 1);
        assert!(pool.retained_bytes() >= 64 * std::mem::size_of::<NodeId>() + 64);

        // Differently sized re-acquire still reuses the buffers.
        let (slots, tags) = pool.acquire(32);
        assert_eq!(slots.len(), 32);
        assert_eq!(tags.len(), 32);
        assert!(slots.capacity() >= 64, "recycled capacity was released");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.retired), (1, 1, 1));
        assert!(pool.is_empty());
    }

    #[test]
    fn acquire_reuses_drained_buffers_without_reclearing() {
        let mut pool: TablePool<NodeId> = TablePool::new();
        // A drained retiree (all-filler / all-zero, the drain_into contract).
        pool.retire(vec![NodeId::filler(); 16], vec![0; 16]);
        // Shrinking reuse truncates; the survivors are still clean.
        let (slots, tags) = pool.acquire(8);
        assert_eq!((slots.len(), tags.len()), (8, 8));
        assert!(slots.iter().all(|&s| s == NodeId::filler()));
        assert!(tags.iter().all(|&t| t == 0));
        // Growing reuse writes just the missing suffix.
        pool.retire(slots, tags);
        let (slots, tags) = pool.acquire(12);
        assert_eq!((slots.len(), tags.len()), (12, 12));
        assert!(slots.iter().all(|&s| s == NodeId::filler()));
        assert!(tags.iter().all(|&t| t == 0));
    }

    #[test]
    fn raw_acquire_keeps_retiree_contents_but_normalises_length() {
        let mut pool: TablePool<NodeId> = TablePool::new();
        // Raw pools (the scan-segment arena) retire dirty buffers; the raw
        // acquire only guarantees the length and initialised memory.
        pool.retire(vec![7; 16], vec![0xAA; 16]);
        let (slots, tags) = pool.acquire_raw(10);
        assert_eq!((slots.len(), tags.len()), (10, 10));
        pool.retire(slots, tags);
        let (slots, tags) = pool.acquire_raw(14);
        assert_eq!((slots.len(), tags.len()), (14, 14));
        // The grown suffix past the retiree's length is filler/zero.
        assert!(slots[10..].iter().all(|&s| s == NodeId::filler()));
        assert!(tags[10..].iter().all(|&t| t == 0));
    }

    #[test]
    fn ids_only_path_recycles_without_tag_storage() {
        let mut pool: TablePool<NodeId> = TablePool::new();
        let ids = pool.acquire_ids(32);
        assert_eq!(ids.len(), 32);
        assert_eq!(pool.stats().misses, 1);
        pool.retire_ids(ids);
        assert_eq!(pool.len(), 1);
        // Only the id buffer's bytes are retained — no tag allocation rides
        // along on this path.
        assert_eq!(pool.retained_bytes(), 32 * std::mem::size_of::<NodeId>());
        let ids = pool.acquire_ids(16);
        assert_eq!(ids.len(), 16);
        assert!(ids.capacity() >= 32, "recycled capacity was released");
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn pool_is_capped() {
        let mut pool: TablePool<NodeId> = TablePool::new();
        for _ in 0..2 * MAX_POOLED {
            pool.retire(vec![0; 8], vec![0; 8]);
        }
        assert_eq!(pool.len(), MAX_POOLED);
        assert_eq!(pool.stats().retired, 2 * MAX_POOLED as u64);
    }

    #[test]
    fn deferred_retires_are_quarantined_until_the_epoch_clears() {
        let mut pool: TablePool<NodeId> = TablePool::new();
        pool.begin_deferred(5);
        pool.retire(vec![0; 16], vec![0; 16]);
        // Quarantined, counted in memory, but never served to acquire.
        assert_eq!(pool.deferred_pending(), 1);
        assert!(pool.is_empty());
        assert!(pool.retained_bytes() >= 16 * std::mem::size_of::<NodeId>() + 16);
        let (slots, _) = pool.acquire(16);
        assert!(
            pool.stats().hits == 0,
            "acquire must not raid the quarantine"
        );
        drop(slots);

        // A reclaim bound equal to the stamp does NOT release (a reader pinned
        // at epoch 5 may still be scanning); the bound must move past it.
        assert_eq!(pool.reclaim(5), 0);
        assert_eq!(pool.deferred_pending(), 1);
        assert_eq!(pool.reclaim(6), 1);
        assert_eq!(pool.deferred_pending(), 0);
        assert_eq!(pool.len(), 1, "reclaimed buffer re-enters the free list");
        let s = pool.stats();
        assert_eq!((s.deferred, s.reclaimed, s.deferred_pending), (1, 1, 0));
    }

    #[test]
    fn end_deferred_restores_direct_retires_and_keeps_survivors_parked() {
        let mut pool: TablePool<NodeId> = TablePool::new();
        pool.begin_deferred(1);
        pool.retire(vec![0; 8], vec![0; 8]); // stamp 1
        pool.begin_deferred(2);
        pool.retire(vec![0; 8], vec![0; 8]); // stamp 2
                                             // Bound 2 clears stamp 1 only; stamp 2 survives across the window.
        assert_eq!(pool.end_deferred(2), 1);
        assert_eq!(pool.deferred_pending(), 1);
        // Back in direct mode: retires hit the free list immediately.
        pool.retire(vec![0; 8], vec![0; 8]);
        assert_eq!(pool.len(), 2);
        // The straggler clears once the bound finally advances.
        assert_eq!(pool.reclaim(3), 1);
        assert_eq!(pool.deferred_pending(), 0);
        assert_eq!(pool.stats().reclaimed, 2);
    }

    #[test]
    fn quarantine_is_capped_independently_of_the_free_list() {
        let mut pool: TablePool<NodeId> = TablePool::new();
        pool.begin_deferred(1);
        for _ in 0..2 * MAX_POOLED {
            pool.retire(vec![0; 8], vec![0; 8]);
        }
        assert_eq!(pool.deferred_pending(), MAX_POOLED);
        assert_eq!(pool.stats().deferred, MAX_POOLED as u64);
    }
}
