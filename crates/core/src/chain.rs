//! Table chains implementing the TRANSFORMATION rule (Table II).
//!
//! A [`TableChain`] is an ordered group of cuckoo hash tables that expands and
//! contracts following the rule illustrated by Table II of the paper:
//!
//! * the chain starts with a single table of length `n`;
//! * whenever the loading rate of the most recently enabled table reaches the
//!   threshold `G` and fewer than `R` tables exist, an **extra** table is
//!   enabled (length `n/2` in round 0, `2^(k-1)·n` in round `k`);
//! * when the `R`-th table also reaches `G`, all tables are **merged** into a
//!   new first table of length `2^(k+1)·n` and a fresh second table of length
//!   `2^k·n` is enabled;
//! * after a deletion that drops the chain's **overall** loading rate below
//!   `Λ`, the chain removes its last table (redistributing its contents) or,
//!   when only one table is left, halves that table.
//!
//! The same chain type backs both the S-CHT chains hanging off an L-CHT cell
//! and the L-CHT chain itself (whose payloads are whole cells), as described
//! in § III-A1: "such rules can also be applied to L-CHT".
//!
//! Every key-addressed operation takes the caller's memoized [`KeyHash`], so
//! probing all `R` tables of a chain costs one Bob pass total (each table
//! derives its buckets from the lanes with its own cheap seed mix). The chain
//! also caches its aggregate `count` and `capacity` — maintained incrementally
//! at every mutation — so `overall_loading_rate`, consulted after every single
//! deletion, no longer sums over all tables.
//!
//! Every transformation (expansion merge, contraction, and any insert that
//! may trigger one) runs through a caller-supplied [`RebuildScratch`]: tables
//! drain into the scratch via the tag-word scan, the displaced items' hashes
//! are cached in one pass, and the re-place loop pops `(item, hash)` pairs —
//! so the only allocations a resize makes are the new tables themselves,
//! sized exactly to the new shape; the tables it replaces are drained and
//! dropped (see [`crate::scratch`]).

use crate::hash::KeyHash;
use crate::payload::Payload;
use crate::rng::KickRng;
use crate::scht::CuckooTable;
use crate::scratch::RebuildScratch;

/// Parameters a chain needs to drive the transformation rule. A borrowed view
/// of [`crate::CuckooGraphConfig`] so the chain does not own a config copy.
#[derive(Debug, Clone, Copy)]
pub struct ChainParams {
    /// `d` — cells per bucket in every table of the chain.
    pub cells_per_bucket: usize,
    /// `R` — maximum number of tables in the chain.
    pub r: usize,
    /// `G` — per-table loading-rate threshold that enables the next table.
    pub expand_threshold: f64,
    /// `Λ` — overall loading-rate threshold that triggers contraction.
    pub contract_threshold: f64,
    /// `T` — kick-out budget per insertion.
    pub max_kicks: usize,
    /// `n` — length of the first table in round 0.
    pub base_len: usize,
}

/// What happened while placing an item into the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainInsert<T> {
    /// The item found a slot.
    Stored,
    /// The kick-out walk exceeded `T`; the homeless item is handed back so the
    /// caller can park it in a denylist or force an expansion.
    Failed(T),
}

/// An expandable/contractible group of cuckoo tables (an "S-CHT chain", or the
/// L-CHT chain when `T` is a cell type).
#[derive(Debug, Clone)]
pub struct TableChain<T> {
    tables: Vec<CuckooTable<T>>,
    /// Number of merges performed so far (the `k` in `2^k · n`).
    round: u32,
    params: ChainParams,
    /// Seed stream for newly created tables, advanced on every allocation so
    /// re-built tables pick fresh hash functions.
    seed: u64,
    /// Cumulative expansions (extra tables enabled or merges performed).
    expansions: u64,
    /// Cumulative contractions (tables removed or halved).
    contractions: u64,
    /// Cached total item count across the chain, maintained incrementally.
    count: usize,
    /// Cached total slot capacity, refreshed on every shape change.
    capacity: usize,
}

impl<T: Payload> TableChain<T> {
    /// Creates a chain with a single table of length `params.base_len`.
    pub fn new(params: ChainParams, seed: u64) -> Self {
        let mut chain = Self {
            tables: Vec::with_capacity(1),
            round: 0,
            params,
            seed,
            expansions: 0,
            contractions: 0,
            count: 0,
            capacity: 0,
        };
        let t = chain.alloc_table(params.base_len.max(1));
        chain.tables.push(t);
        chain.refresh_capacity();
        chain
    }

    fn alloc_table(&mut self, len: usize) -> CuckooTable<T> {
        self.seed = crate::hash::splitmix64(self.seed ^ 0xa5a5_5a5a_dead_beef);
        CuckooTable::new(len, self.params.cells_per_bucket, self.seed)
    }

    /// Re-derives the cached capacity after a shape change (O(R), only run
    /// when tables are added, removed, or resized).
    fn refresh_capacity(&mut self) {
        self.capacity = self.tables.iter().map(CuckooTable::capacity).sum();
    }

    /// Length the first table has in the current round.
    fn first_len(&self) -> usize {
        self.params.base_len.max(1) << self.round
    }

    /// Length a newly enabled extra table has in the current round
    /// (`n/2` in round 0, `2^(k-1)·n` afterwards).
    fn extra_len(&self) -> usize {
        if self.round == 0 {
            (self.params.base_len / 2).max(1)
        } else {
            (self.params.base_len << (self.round - 1)).max(1)
        }
    }

    /// Number of tables currently enabled.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Lengths (bucket counts of the larger array) of every enabled table, in
    /// chain order — used by the Table II reproduction test and harness.
    pub fn table_lengths(&self) -> Vec<usize> {
        self.tables.iter().map(|t| t.len_buckets()).collect()
    }

    /// Total number of stored items across the chain (cached).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Total slot capacity across the chain (cached).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if the chain stores nothing.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Overall loading rate of the chain. Reads the two cached aggregates —
    /// no per-table summation, although the engine consults this after every
    /// deletion.
    pub fn overall_loading_rate(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.count as f64 / self.capacity as f64
        }
    }

    /// Loading rate of the most recently enabled table — the quantity the
    /// expansion rule watches.
    pub fn last_loading_rate(&self) -> f64 {
        self.tables
            .last()
            .map(CuckooTable::loading_rate)
            .unwrap_or(0.0)
    }

    /// Number of expansions performed (extra tables enabled plus merges).
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// Number of contractions performed.
    pub fn contractions(&self) -> u64 {
        self.contractions
    }

    /// Looks up the item keyed by `kh.key()` anywhere in the chain.
    pub fn get(&self, kh: KeyHash) -> Option<&T> {
        self.tables.iter().find_map(|t| t.get(kh))
    }

    /// Mutable lookup across the chain.
    pub fn get_mut(&mut self, kh: KeyHash) -> Option<&mut T> {
        self.tables.iter_mut().find_map(|t| t.get_mut(kh))
    }

    /// True if an item keyed by `kh.key()` is stored in any table.
    pub fn contains(&self, kh: KeyHash) -> bool {
        self.tables.iter().any(|t| t.contains(kh))
    }

    /// Locates the item keyed by `kh.key()`, returning opaque coordinates for
    /// [`TableChain::item_at_mut`]. Lets callers resolve a key once and then
    /// take a mutable borrow in O(1), avoiding the probe-twice shape the
    /// borrow checker otherwise forces on "find or insert" flows.
    pub(crate) fn find_index(&self, kh: KeyHash) -> Option<(usize, (usize, usize))> {
        self.tables
            .iter()
            .enumerate()
            .find_map(|(i, t)| t.locate(kh).map(|pos| (i, pos)))
    }

    /// Direct access to an item located by [`TableChain::find_index`].
    #[inline]
    pub(crate) fn item_at_mut(&mut self, pos: (usize, (usize, usize))) -> &mut T {
        self.tables[pos.0].slot_at_mut(pos.1)
    }

    /// Pre-change reference probe (full re-hash per table and array, payload
    /// key compares, no tags) — the property-test reference for
    /// [`TableChain::contains`].
    pub fn contains_unmemoized(&self, key: graph_api::NodeId) -> bool {
        self.tables.iter().any(|t| t.contains_unmemoized(key))
    }

    /// Reference counterpart of [`TableChain::get`] with the pre-change cost
    /// shape (two Bob passes per table, payload key compares, no tags).
    pub fn get_unmemoized(&self, key: graph_api::NodeId) -> Option<&T> {
        self.tables.iter().find_map(|t| t.get_unmemoized(key))
    }

    /// Prefetches the candidate tag lines for `kh` in every enabled table.
    #[inline]
    pub fn prefetch(&self, kh: KeyHash) {
        for t in &self.tables {
            t.prefetch(kh);
        }
    }

    /// Removes and returns the item keyed by `kh.key()`.
    pub fn remove(&mut self, kh: KeyHash) -> Option<T> {
        let removed = self.tables.iter_mut().find_map(|t| t.remove(kh));
        if removed.is_some() {
            self.count -= 1;
        }
        removed
    }

    /// Calls `f` for every stored item (tag-word scan per table).
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        for t in &self.tables {
            t.for_each(&mut f);
        }
    }

    /// Pre-SWAR iteration over every stored item — the scalar reference the
    /// property tests compare [`TableChain::for_each`] against.
    pub fn for_each_scalar(&self, mut f: impl FnMut(&T)) {
        for t in &self.tables {
            t.for_each_scalar(&mut f);
        }
    }

    /// Iterates over every stored item.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.tables.iter().flat_map(|t| t.iter())
    }

    /// Mutable walk over every stored item. Callers must not change an item's
    /// key; used by the arena compaction remap.
    pub(crate) fn for_each_mut(&mut self, mut f: impl FnMut(&mut T)) {
        for t in &mut self.tables {
            t.for_each_mut(&mut f);
        }
    }

    /// Tears the chain down: drains every stored item into `out` (tag-word
    /// scans) and frees every table. Afterwards the chain holds zero tables
    /// and zero capacity — callers drop it right away (the cell collapse
    /// path, where the items become the cell's inline storage).
    pub fn dismantle(&mut self, out: &mut Vec<T>) {
        out.reserve(self.count);
        for mut t in self.tables.drain(..) {
            t.drain_into(out);
        }
        self.round = 0;
        self.count = 0;
        self.capacity = 0;
    }

    /// Bytes occupied by every table of the chain (slot arrays, tag bytes,
    /// plus stored items' heap data).
    pub fn memory_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.memory_bytes()).sum()
    }

    /// Applies the expansion rule if the most recently enabled table has
    /// reached the threshold `G`. Returns `true` if the chain changed shape.
    ///
    /// `placements` counts slot writes performed while re-distributing items
    /// during a merge (feeding the Theorem 1 counters).
    pub fn maybe_expand(
        &mut self,
        rng: &mut KickRng,
        placements: &mut u64,
        scratch: &mut RebuildScratch<T>,
    ) -> bool {
        if self.last_loading_rate() < self.params.expand_threshold {
            return false;
        }
        self.expand(rng, placements, scratch);
        true
    }

    /// Unconditionally performs one expansion step: enable an extra table, or
    /// merge everything into the next round when `R` tables already exist.
    /// Returns items that could not be re-placed during a merge (extremely
    /// rare; the caller parks them in a denylist).
    ///
    /// A merge drains every table into `scratch` (tag-word scans), caches the
    /// displaced items' hashes in one pass, and re-places from the scratch —
    /// no allocation once the scratch is warm.
    pub fn expand(
        &mut self,
        rng: &mut KickRng,
        placements: &mut u64,
        scratch: &mut RebuildScratch<T>,
    ) -> Vec<T> {
        self.expansions += 1;
        if self.tables.len() < self.params.r {
            let len = self.extra_len();
            let t = self.alloc_table(len);
            // Exact growth: an unused `CuckooTable` header costs 104 bytes.
            self.tables.reserve_exact(1);
            self.tables.push(t);
            self.refresh_capacity();
            return Vec::new();
        }

        // Merge: gather everything, free the old tables, rebuild as round
        // k+1 with two fresh tables.
        debug_assert!(scratch.is_empty(), "scratch carried items into a merge");
        for mut t in self.tables.drain(..) {
            t.drain_into(&mut scratch.items);
        }
        self.count = 0;
        self.round += 1;
        let first = self.alloc_table(self.first_len());
        let second = self.alloc_table(self.extra_len());
        self.tables.reserve_exact(2);
        self.tables.push(first);
        self.tables.push(second);
        self.refresh_capacity();
        self.replace_from_scratch(rng, placements, scratch)
    }

    /// Applies the reverse-transformation rule after a deletion: when the
    /// overall loading rate of the chain drops below `Λ`, the last table is
    /// removed (its items redistributed) or — if it is the only one — halved.
    /// Returns items that could not be re-placed (parked by the caller).
    pub fn maybe_contract(
        &mut self,
        rng: &mut KickRng,
        placements: &mut u64,
        scratch: &mut RebuildScratch<T>,
    ) -> Vec<T> {
        if self.overall_loading_rate() >= self.params.contract_threshold {
            return Vec::new();
        }
        // Never shrink below the base geometry.
        if self.tables.len() == 1 && self.tables[0].len_buckets() <= self.params.base_len.max(1) {
            return Vec::new();
        }
        self.contract(rng, placements, scratch)
    }

    /// Unconditionally performs one contraction step.
    pub fn contract(
        &mut self,
        rng: &mut KickRng,
        placements: &mut u64,
        scratch: &mut RebuildScratch<T>,
    ) -> Vec<T> {
        self.contractions += 1;
        debug_assert!(scratch.is_empty(), "scratch carried items into a contract");
        if self.tables.len() >= 2 {
            // Delete the last table and move its residents into the others.
            let mut removed = self.tables.pop().expect("len >= 2");
            self.count -= removed.count();
            self.refresh_capacity();
            // Dropping back to a single table from round k means the chain
            // re-enters the "k, no extras" row of Table II; the round value is
            // unchanged because the first table keeps its length.
            removed.drain_into(&mut scratch.items);
        } else {
            // Single table: compress towards half of the current length, but
            // never below the base geometry. (`base > old_len` cannot arise
            // through normal operation — tables are born at base length and
            // only ever halve back towards it — but the clamp keeps a
            // hand-built chain safe and is pinned by a regression test.)
            let old_len = self.tables[0].len_buckets();
            let base = self.params.base_len.max(1);
            let new_len = (old_len / 2).max(base);
            if new_len >= old_len {
                return Vec::new();
            }
            if self.round > 0 {
                self.round -= 1;
            }
            self.tables[0].drain_into(&mut scratch.items);
            self.count = 0;
            self.tables[0] = self.alloc_table(new_len);
            self.refresh_capacity();
        }
        self.replace_from_scratch(rng, placements, scratch)
    }

    /// Shared tail of the rebuild paths: hash everything buffered in `scratch`
    /// in one pass, re-place each `(item, hash)` pair across the tables, and
    /// close the scratch event. Items that exceed the kick budget everywhere
    /// come back as the (almost always empty) homeless `Vec`.
    fn replace_from_scratch(
        &mut self,
        rng: &mut KickRng,
        placements: &mut u64,
        scratch: &mut RebuildScratch<T>,
    ) -> Vec<T> {
        scratch.cache_hashes();
        let mut homeless = Vec::new();
        while let Some((item, kh)) = scratch.pop_pair() {
            if let ChainInsert::Failed(item) = self.insert_rebuild(item, kh, rng, placements) {
                homeless.push(item);
            }
        }
        scratch.finish_event();
        homeless
    }

    /// Inserts `item` (whose memoized hash is `kh`), expanding beforehand if
    /// the most recently enabled table has reached `G` (the paper checks the
    /// threshold "before the current v arrives"). On kick-out failure the
    /// homeless item is handed back.
    pub fn insert(
        &mut self,
        item: T,
        kh: KeyHash,
        rng: &mut KickRng,
        placements: &mut u64,
        scratch: &mut RebuildScratch<T>,
    ) -> ChainInsert<T> {
        // The expansion rule is checked first, so a table is never pushed past
        // its threshold by the incoming item.
        if self.last_loading_rate() >= self.params.expand_threshold {
            let mut leftovers = self.expand(rng, placements, scratch);
            // Items displaced by a merge must never be lost. With realistic
            // parameters the freshly merged tables absorb them immediately;
            // under adversarial settings (tiny d, tiny kick budget) keep
            // expanding until every displaced item finds a slot — capacity
            // grows on every round, so this terminates.
            while !leftovers.is_empty() {
                let mut still_homeless = Vec::new();
                for left in leftovers {
                    let left_kh = left.key_hash();
                    if let ChainInsert::Failed(l) =
                        self.insert_rebuild(left, left_kh, rng, placements)
                    {
                        still_homeless.push(l);
                    }
                }
                if still_homeless.is_empty() {
                    break;
                }
                leftovers = self.expand(rng, placements, scratch);
                leftovers.append(&mut still_homeless);
            }
        }
        self.insert_no_expand(item, kh, rng, placements)
    }

    /// Inserts without consulting the expansion rule. Following the paper's
    /// Example 2, new items are placed in the **most recently enabled** table
    /// only (older tables sit at their threshold and are not disturbed). When
    /// the kick-out walk fails there, the homeless item is retried — full
    /// kick-out walk — in each older table before the failure is reported.
    /// The placement policy governs where items go while the chain is
    /// healthy; once the newest table rejects an item, salvaging it anywhere
    /// in the chain always beats parking it in a denylist, whose entries tax
    /// every subsequent probe with a linear scan.
    pub fn insert_no_expand(
        &mut self,
        item: T,
        kh: KeyHash,
        rng: &mut KickRng,
        placements: &mut u64,
    ) -> ChainInsert<T> {
        let max_kicks = self.params.max_kicks;
        let last = self.tables.len() - 1;
        match self.tables[last].insert(item, kh, rng, max_kicks, placements) {
            Ok(()) => {
                self.count += 1;
                ChainInsert::Stored
            }
            Err(mut bounced) => {
                for t in &mut self.tables[..last] {
                    // Each walk may hand back a *displaced resident*, not the
                    // item it was given — the hash material must be its own.
                    let bkh = bounced.key_hash();
                    match t.insert(bounced, bkh, rng, max_kicks, placements) {
                        Ok(()) => {
                            self.count += 1;
                            return ChainInsert::Stored;
                        }
                        Err(b) => bounced = b,
                    }
                }
                ChainInsert::Failed(bounced)
            }
        }
    }

    /// Stores `item` unconditionally, expanding the chain as many times as it
    /// takes (each round strictly grows capacity, so the loop terminates).
    /// Used on internal redistribution paths where losing an item is not an
    /// option and no denylist is available.
    pub fn insert_forced(
        &mut self,
        item: T,
        rng: &mut KickRng,
        placements: &mut u64,
        scratch: &mut RebuildScratch<T>,
    ) {
        let kh = item.key_hash();
        // The hot path (transformation re-homing its inline slots) settles
        // here without touching the heap at all.
        let mut pending = match self.insert_rebuild(item, kh, rng, placements) {
            ChainInsert::Stored => return,
            ChainInsert::Failed(f) => vec![f],
        };
        // Kick budget exhausted in every table: grow until the homeless item
        // (and anything a merge displaces) settles. Reached only under
        // adversarial geometry, so the Vec above is cold.
        loop {
            let mut displaced = self.expand(rng, placements, scratch);
            pending.append(&mut displaced);
            let mut still_homeless = Vec::new();
            for it in pending {
                let kh = it.key_hash();
                if let ChainInsert::Failed(f) = self.insert_rebuild(it, kh, rng, placements) {
                    still_homeless.push(f);
                }
            }
            if still_homeless.is_empty() {
                return;
            }
            pending = still_homeless;
        }
    }

    /// Insertion path used while redistributing items during a merge or a
    /// contraction: the largest (first) table is tried first so the bulk of
    /// the items land there, then the later tables. The memoized `kh` is
    /// reused across every table; only kick-walk victims are re-hashed (the
    /// homeless item handed back may be such a victim, so its hash is
    /// re-derived by the caller when needed).
    fn insert_rebuild(
        &mut self,
        item: T,
        kh: KeyHash,
        rng: &mut KickRng,
        placements: &mut u64,
    ) -> ChainInsert<T> {
        let max_kicks = self.params.max_kicks;
        let mut pending = item;
        let mut pending_kh = kh;
        for idx in 0..self.tables.len() {
            match self.tables[idx].insert(pending, pending_kh, rng, max_kicks, placements) {
                Ok(()) => {
                    self.count += 1;
                    return ChainInsert::Stored;
                }
                Err(bounced) => {
                    pending_kh = bounced.key_hash();
                    pending = bounced;
                }
            }
        }
        ChainInsert::Failed(pending)
    }

    /// Internal consistency check for the property tests: the cached
    /// aggregates must match a full recomputation, and every table's tag
    /// bytes must match its slots.
    #[doc(hidden)]
    pub fn assert_cached_consistent(&self) {
        let count: usize = self.tables.iter().map(CuckooTable::count).sum();
        let capacity: usize = self.tables.iter().map(CuckooTable::capacity).sum();
        assert_eq!(self.count, count, "cached chain count out of sync");
        assert_eq!(self.capacity, capacity, "cached chain capacity out of sync");
        for t in &self.tables {
            t.assert_tags_consistent();
        }
    }
}

/// Compile-time proof that table chains are `Send + Sync`, as the sharded
/// engine's thread fan-out requires.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TableChain<graph_api::NodeId>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use graph_api::NodeId;

    fn params() -> ChainParams {
        ChainParams {
            cells_per_bucket: 4,
            r: 3,
            expand_threshold: 0.9,
            contract_threshold: 0.5,
            max_kicks: 100,
            base_len: 8,
        }
    }

    fn chain() -> TableChain<NodeId> {
        TableChain::new(params(), 0x1111)
    }

    fn kh(v: NodeId) -> KeyHash {
        KeyHash::new(v)
    }

    fn scratch() -> RebuildScratch<NodeId> {
        RebuildScratch::new()
    }

    #[test]
    fn starts_with_single_base_table() {
        let c = chain();
        assert_eq!(c.table_count(), 1);
        assert_eq!(c.table_lengths(), vec![8]);
        assert!(c.is_empty());
        assert_eq!(c.overall_loading_rate(), 0.0);
        c.assert_cached_consistent();
    }

    /// Reproduces the length sequence of Table II for R = 3: the lengths of
    /// the enabled tables after each expansion follow
    /// `[n] → [n, n/2] → [n, n/2, n/2] → [2n, n] → [2n, n, n] → [4n, 2n] → ...`
    #[test]
    fn table_ii_rule() {
        let mut c = chain();
        let mut rng = KickRng::new(1);
        let mut p = 0;
        let n = 8usize;
        let expected: Vec<Vec<usize>> = vec![
            vec![n],
            vec![n, n / 2],
            vec![n, n / 2, n / 2],
            vec![2 * n, n],
            vec![2 * n, n, n],
            vec![4 * n, 2 * n],
            vec![4 * n, 2 * n, 2 * n],
            vec![8 * n, 4 * n],
        ];
        assert_eq!(c.table_lengths(), expected[0]);
        let mut s = scratch();
        for (step, lengths) in expected.iter().enumerate().skip(1) {
            c.expand(&mut rng, &mut p, &mut s);
            assert_eq!(&c.table_lengths(), lengths, "after {step} expansions");
            c.assert_cached_consistent();
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut c = chain();
        let mut rng = KickRng::new(2);
        let mut p = 0;
        let mut s = scratch();
        for v in 0..200u64 {
            assert_eq!(
                c.insert(v, kh(v), &mut rng, &mut p, &mut s),
                ChainInsert::Stored
            );
        }
        assert_eq!(c.count(), 200);
        for v in 0..200u64 {
            assert!(c.contains(kh(v)));
            assert_eq!(c.get(kh(v)), Some(&v));
            assert!(c.contains_unmemoized(v));
        }
        assert!(!c.contains(kh(999)));
        assert_eq!(c.remove(kh(13)), Some(13));
        assert_eq!(c.remove(kh(13)), None);
        assert_eq!(c.count(), 199);
        c.assert_cached_consistent();
    }

    #[test]
    fn expansion_is_triggered_by_loading_rate() {
        let mut c = chain();
        let mut rng = KickRng::new(3);
        let mut p = 0;
        let mut s = scratch();
        // Insert far more items than one base table holds; the chain must have
        // expanded at least once and kept everything reachable.
        for v in 0..1000u64 {
            assert_eq!(
                c.insert(v, kh(v), &mut rng, &mut p, &mut s),
                ChainInsert::Stored
            );
        }
        assert!(c.expansions() > 0);
        assert!(c.table_count() >= 1);
        for v in 0..1000u64 {
            assert!(c.contains(kh(v)), "lost {v} across expansions");
        }
        // No table is loaded beyond the threshold by more than one item's
        // worth of slack (the incoming item itself).
        assert!(c.last_loading_rate() <= 0.95);
        c.assert_cached_consistent();
    }

    #[test]
    fn contraction_removes_or_halves_tables() {
        let mut c = chain();
        let mut rng = KickRng::new(4);
        let mut p = 0;
        let mut s = scratch();
        for v in 0..1000u64 {
            c.insert(v, kh(v), &mut rng, &mut p, &mut s);
        }
        let grown_capacity = c.capacity();
        // Delete most items, invoking the reverse-transformation rule after
        // each deletion as the engine does.
        for v in 0..950u64 {
            assert!(c.remove(kh(v)).is_some());
            let homeless = c.maybe_contract(&mut rng, &mut p, &mut s);
            for item in homeless {
                // Re-inserting leftovers must succeed eventually.
                let item_kh = kh(item);
                assert_eq!(
                    c.insert(item, item_kh, &mut rng, &mut p, &mut s),
                    ChainInsert::Stored
                );
            }
        }
        assert!(c.contractions() > 0, "chain never contracted");
        assert!(c.capacity() < grown_capacity, "capacity did not shrink");
        for v in 950..1000u64 {
            assert!(c.contains(kh(v)), "lost survivor {v} during contraction");
        }
        c.assert_cached_consistent();
    }

    #[test]
    fn contraction_stops_at_base_geometry() {
        let mut c = chain();
        let mut rng = KickRng::new(5);
        let mut p = 0;
        let mut s = scratch();
        // Empty chain: repeated contraction attempts must be no-ops once the
        // base geometry is reached.
        for _ in 0..10 {
            let homeless = c.maybe_contract(&mut rng, &mut p, &mut s);
            assert!(homeless.is_empty());
        }
        assert_eq!(c.table_lengths(), vec![8]);
    }

    /// Regression pin for the single-table contract clamp: a base length
    /// *larger* than the current table (impossible through the public API,
    /// where tables are born at base length, but the clamp defends against
    /// hand-built geometry) must make the contraction a structural no-op.
    #[test]
    fn contract_never_shrinks_below_an_oversized_base_len() {
        let mut c = chain();
        let mut rng = KickRng::new(51);
        let mut p = 0;
        let mut s = scratch();
        for v in 0..20u64 {
            c.insert(v, kh(v), &mut rng, &mut p, &mut s);
        }
        // Force the pathological geometry directly (same-module access).
        c.params.base_len = 1000;
        assert!(c.table_count() == 1 && c.tables[0].len_buckets() < 1000);
        let before = c.table_lengths();
        let homeless = c.contract(&mut rng, &mut p, &mut s);
        assert!(homeless.is_empty());
        assert_eq!(c.table_lengths(), before, "oversized base must be a no-op");
        for v in 0..20u64 {
            assert!(c.contains(kh(v)), "no-op contract lost item {v}");
        }
        c.assert_cached_consistent();

        // And the regular direction still halves down towards the base
        // geometry (thin the load first so the halved table absorbs it).
        for v in 10..20u64 {
            assert!(c.remove(kh(v)).is_some());
        }
        c.params.base_len = 2;
        let homeless = c.contract(&mut rng, &mut p, &mut s);
        assert!(homeless.is_empty(), "halved table rejected items");
        assert_eq!(c.table_lengths(), vec![4]);
        for v in 0..10u64 {
            assert!(c.contains(kh(v)), "halving contract lost item {v}");
        }
        c.assert_cached_consistent();
    }

    #[test]
    fn dismantle_returns_everything_and_retires_tables() {
        let mut c = chain();
        let mut rng = KickRng::new(6);
        let mut p = 0;
        let mut s = scratch();
        for v in 0..500u64 {
            c.insert(v, kh(v), &mut rng, &mut p, &mut s);
        }
        let mut items = Vec::new();
        c.dismantle(&mut items);
        items.sort_unstable();
        assert_eq!(items, (0..500u64).collect::<Vec<_>>());
        assert_eq!(c.table_count(), 0);
        assert_eq!(c.capacity(), 0);
        assert_eq!(c.memory_bytes(), 0, "every table freed");
        assert!(c.is_empty());
        c.assert_cached_consistent();
    }

    #[test]
    fn failed_insert_hands_back_item() {
        // A chain with r = 1 and a minuscule kick budget cannot absorb many
        // colliding items without expanding; insert_no_expand must hand the
        // homeless item back instead of losing it.
        let p = ChainParams {
            r: 1,
            max_kicks: 1,
            base_len: 1,
            ..params()
        };
        let mut c: TableChain<NodeId> = TableChain::new(p, 7);
        let mut rng = KickRng::new(7);
        let mut pl = 0;
        let mut failed = 0;
        for v in 0..64u64 {
            if let ChainInsert::Failed(_homeless) = c.insert_no_expand(v, kh(v), &mut rng, &mut pl)
            {
                // The homeless item is not necessarily `v` itself: a resident
                // evicted during the walk can end up without a slot instead.
                failed += 1;
            }
        }
        assert!(failed > 0);
        assert_eq!(c.count() + failed, 64);
        c.assert_cached_consistent();
    }

    #[test]
    fn memory_grows_with_expansion() {
        let mut c = chain();
        let mut rng = KickRng::new(8);
        let mut p = 0;
        let mut s = scratch();
        let before = c.memory_bytes();
        for v in 0..500u64 {
            c.insert(v, kh(v), &mut rng, &mut p, &mut s);
        }
        assert!(c.memory_bytes() > before);
    }

    #[test]
    fn iter_for_each_and_scalar_for_each_agree() {
        let mut c = chain();
        let mut rng = KickRng::new(9);
        let mut p = 0;
        let mut s = scratch();
        for v in 0..100u64 {
            c.insert(v, kh(v), &mut rng, &mut p, &mut s);
        }
        let from_iter: u64 = c.iter().copied().sum();
        let mut from_each = 0u64;
        c.for_each(|&v| from_each += v);
        let mut from_scalar = 0u64;
        c.for_each_scalar(|&v| from_scalar += v);
        assert_eq!(from_iter, from_each);
        assert_eq!(from_iter, from_scalar);
        assert_eq!(from_iter, (0..100u64).sum());
    }

    /// The scratch must end every rebuild empty and keep its
    /// buffer capacity across events — the allocation-free steady state.
    #[test]
    fn rebuild_scratch_is_reused_across_resizes() {
        let mut c = chain();
        let mut rng = KickRng::new(11);
        let mut p = 0;
        let mut s = scratch();
        for v in 0..2_000u64 {
            c.insert(v, kh(v), &mut rng, &mut p, &mut s);
        }
        assert!(c.expansions() > 0);
        assert!(s.is_empty(), "scratch must be empty between events");
        let warm = s.retained_capacity();
        assert!(warm > 0, "merges never warmed the scratch");
        for v in 0..1_950u64 {
            c.remove(kh(v));
            for item in c.maybe_contract(&mut rng, &mut p, &mut s) {
                c.insert_forced(item, &mut rng, &mut p, &mut s);
            }
        }
        assert!(c.contractions() > 0);
        assert!(s.is_empty());
        assert!(
            s.retained_capacity() >= warm.min(1),
            "scratch dropped its buffers"
        );
        c.assert_cached_consistent();
    }

    #[test]
    fn find_index_resolves_once_and_allows_in_place_mutation() {
        use crate::payload::WeightedSlot;
        let mut c: TableChain<WeightedSlot> = TableChain::new(params(), 0x2222);
        let mut rng = KickRng::new(10);
        let mut p = 0;
        let mut s: RebuildScratch<WeightedSlot> = RebuildScratch::new();
        for v in 0..50u64 {
            c.insert(WeightedSlot { v, w: 1 }, kh(v), &mut rng, &mut p, &mut s);
        }
        let pos = c.find_index(kh(17)).expect("key 17 stored");
        c.item_at_mut(pos).w += 9;
        assert_eq!(c.get(kh(17)).unwrap().w, 10);
        assert!(c.find_index(kh(9999)).is_none());
    }
}
