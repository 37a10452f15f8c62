//! Reusable rebuild buffers for the TRANSFORMATION machinery.
//!
//! A [`RebuildScratch`] is an engine-level pair of buffers (displaced items
//! plus their memoized [`KeyHash`]es) threaded through `TableChain::expand` /
//! `contract` and every engine rebuild path. Every resize event drains the
//! affected tables into it before re-inserting, so steady-state S-CHT resizes
//! reuse the same drain capacity and the drain → hash → re-place pipeline
//! allocates nothing but the new tables themselves. (The L-CHT takes a fresh
//! scratch per rebuild, so its whole-table drain buffer is not kept.)
//!
//! The hash cache matters independently of the allocations: the drain pass
//! fills `items`, a second tight pass computes every item's Bob hash into
//! `hashes`, and the re-place loop then pops `(item, hash)` pairs — keeping
//! the hashing out of the cuckoo placement loop (whose kick-walk has its own
//! re-hash discipline) and touching each drained item's bytes exactly once
//! per rebuild.

use crate::hash::KeyHash;
use crate::payload::Payload;

/// Reusable drain/re-place buffers for one chain's rebuild events.
///
/// One scratch serves every S-CHT chain of an engine (they share the engine's
/// payload scratch): rebuild events are strictly sequential within an
/// engine, and each event leaves the buffers empty again.
#[derive(Debug, Clone)]
pub struct RebuildScratch<T> {
    /// Items drained out of the tables being rebuilt.
    pub(crate) items: Vec<T>,
    /// Memoized hash material parallel to `items` (filled by
    /// [`RebuildScratch::cache_hashes`], popped in lock-step).
    pub(crate) hashes: Vec<KeyHash>,
}

impl<T: Payload> RebuildScratch<T> {
    /// An empty scratch: the buffers grow to the high-water mark of the
    /// largest rebuild and are reused from then on.
    pub fn new() -> Self {
        Self {
            items: Vec::new(),
            hashes: Vec::new(),
        }
    }

    /// Number of items currently buffered (non-zero only mid-rebuild).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True outside of a rebuild event.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Item capacity currently retained — what the scratch carries from one
    /// rebuild to the next (observable in tests).
    pub fn retained_capacity(&self) -> usize {
        self.items.capacity()
    }

    /// Computes the memoized hash of every buffered item into the parallel
    /// hash cache — one tight pass, so the re-place loop never hashes.
    pub(crate) fn cache_hashes(&mut self) {
        self.hashes.clear();
        self.hashes.extend(self.items.iter().map(Payload::key_hash));
    }

    /// Pops the next `(item, memoized hash)` pair, in reverse drain order
    /// (order is irrelevant to cuckoo placement).
    pub(crate) fn pop_pair(&mut self) -> Option<(T, KeyHash)> {
        let item = self.items.pop()?;
        let kh = self.hashes.pop().expect("hash cache tracks items");
        Some((item, kh))
    }

    /// Ends a rebuild event; the buffers keep their capacity.
    pub(crate) fn finish_event(&mut self) {
        debug_assert!(self.items.is_empty(), "rebuild left items in the scratch");
        self.hashes.clear();
    }
}

impl<T: Payload> Default for RebuildScratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Compile-time proof the scratch can cross the sharded fan-out's thread
/// boundaries inside an engine.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RebuildScratch<graph_api::NodeId>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use graph_api::NodeId;

    #[test]
    fn scratch_retains_capacity_across_events() {
        let mut s: RebuildScratch<NodeId> = RebuildScratch::new();
        s.items.extend(0..100u64);
        s.cache_hashes();
        while let Some((item, kh)) = s.pop_pair() {
            assert_eq!(kh, KeyHash::new(item));
        }
        s.finish_event();
        assert!(s.is_empty());
        assert!(s.retained_capacity() >= 100, "capacity was released");
    }

    #[test]
    fn hash_cache_is_parallel_to_items() {
        let mut s: RebuildScratch<NodeId> = RebuildScratch::default();
        s.items.extend([9u64, 4, 7]);
        s.cache_hashes();
        assert_eq!(s.len(), 3);
        let (item, kh) = s.pop_pair().unwrap();
        assert_eq!(item, 7);
        assert_eq!(kh, KeyHash::new(7));
    }
}
