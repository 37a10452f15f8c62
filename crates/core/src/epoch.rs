//! Intra-shard read/write coordination: a drained reader/writer handshake.
//!
//! A [`ReadCoordinator`] lets queries proceed on a shard **without taking the
//! writer's ownership**: readers announce themselves in a lock-free slot
//! registry and check a seqlock-style sequence word before their scan, while
//! the shard's writer opens short exclusive *mutation windows* (one per
//! ingest chunk) that first drain the announced readers. The tag-word scans
//! therefore never race with a mutation — a reader that loses the race at
//! entry retries (counted in [`ReadCounters::reader_retries`]) instead of
//! traversing torn state.
//!
//! ## The protocol
//!
//! The coordinator keeps one sequence word (`seq`: even = quiescent, odd =
//! mutation window open) and [`MAX_READERS`] per-reader activity words.
//!
//! *Reader* (see [`ReadCoordinator::pin`]): store `ACTIVE` into your slot,
//! then load `seq`. Both accesses are `SeqCst`, so they cannot be reordered
//! against the writer's `seq`-bump/slot-scan pair (the classic Dekker
//! store-then-load handshake). If `seq` is even the pin holds: any writer
//! arriving later sees the slot and waits. If `seq` is odd a window is open —
//! withdraw the slot, count a retry, and spin-wait for the window to close.
//!
//! *Writer* (see [`ReadCoordinator::begin_write`]): flip `seq` to odd
//! (`SeqCst`), then scan every slot until none is `ACTIVE`. After the drain
//! the writer holds exclusivity: readers pinned earlier have finished, and
//! new pins wait on the odd `seq`. [`ReadCoordinator::end_write`] flips `seq`
//! back to even.
//!
//! ## Why nothing is reclaimed later
//!
//! No reader is pinned while a window is open, so memory a window replaces
//! (a table dropped by a TRANSFORMATION, a grown scan segment, a slot-arena
//! reallocation) has no reader left to outlive it and is freed on the spot.
//! `tests/concurrent_read_model.rs` pins the exclusion this rests on.

use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of simultaneously registered readers per shard. A `u64`
/// bitmap tracks slot ownership, so the registry is lock-free; a 65th reader
/// spins until a slot frees (reader registrations are short-lived — one
/// [`crate::shard::ShardReadView`] holds one slot per shard).
pub const MAX_READERS: usize = 64;

/// A reader slot word while the reader is inside a pinned read (`0` idle).
const ACTIVE: u64 = 1;

/// One reader's activity word, padded to its own cache line so reader pins on
/// neighbouring slots do not false-share.
#[repr(align(64))]
#[derive(Debug)]
struct ReaderSlot(AtomicU64);

/// Counter snapshot of a coordinator's activity, merged into
/// [`crate::StructureStats`] by the sharded stats path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCounters {
    /// Pins that found a mutation window open and had to withdraw and retry.
    pub reader_retries: u64,
    /// Successful reader pins (each pinned read counts once).
    pub read_pins: u64,
    /// Mutation windows closed.
    pub epoch_advances: u64,
}

/// Reader registry + seqlock word for one shard. See the module docs for the
/// protocol.
#[derive(Debug)]
pub struct ReadCoordinator {
    /// Even = quiescent, odd = a mutation window is open.
    seq: AtomicU64,
    /// Ownership bitmap for `slots` (bit i set = slot i registered).
    slot_bitmap: AtomicU64,
    /// Per-reader activity words: `0` idle, `ACTIVE` pinned.
    slots: [ReaderSlot; MAX_READERS],
    reader_retries: AtomicU64,
    read_pins: AtomicU64,
    epoch_advances: AtomicU64,
}

impl Default for ReadCoordinator {
    fn default() -> Self {
        Self::new()
    }
}

impl ReadCoordinator {
    /// A quiescent coordinator with an empty registry.
    pub fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            slot_bitmap: AtomicU64::new(0),
            slots: std::array::from_fn(|_| ReaderSlot(AtomicU64::new(0))),
            reader_retries: AtomicU64::new(0),
            read_pins: AtomicU64::new(0),
            epoch_advances: AtomicU64::new(0),
        }
    }

    /// Registers a reader, returning its slot index. Lock-free CAS on the
    /// ownership bitmap; spins (with escalating backoff) when all
    /// [`MAX_READERS`] slots are taken.
    pub fn acquire_slot(&self) -> usize {
        let mut backoff = Backoff::new();
        loop {
            let map = self.slot_bitmap.load(Ordering::SeqCst);
            if map == u64::MAX {
                backoff.snooze();
                continue;
            }
            let idx = (!map).trailing_zeros() as usize;
            if self
                .slot_bitmap
                .compare_exchange(map, map | (1 << idx), Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return idx;
            }
        }
    }

    /// Unregisters a reader slot obtained from
    /// [`ReadCoordinator::acquire_slot`]. The slot must be unpinned.
    pub fn release_slot(&self, idx: usize) {
        debug_assert_eq!(
            self.slots[idx].0.load(Ordering::SeqCst),
            0,
            "released a slot that is still pinned"
        );
        self.slot_bitmap.fetch_and(!(1 << idx), Ordering::SeqCst);
    }

    /// Pins `idx` for a read: on return, no mutation window is open and any
    /// writer opening one will drain this slot first. Spins through open
    /// windows, counting each withdrawal as a retry.
    pub fn pin(&self, idx: usize) {
        let mut backoff = Backoff::new();
        loop {
            self.slots[idx].0.store(ACTIVE, Ordering::SeqCst);
            if self.seq.load(Ordering::SeqCst) & 1 == 0 {
                self.read_pins.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // A mutation window is open (or opened concurrently with our
            // announcement). Withdraw so the writer's drain is not blocked by
            // a reader that never validated, then wait the window out.
            self.slots[idx].0.store(0, Ordering::SeqCst);
            self.reader_retries.fetch_add(1, Ordering::Relaxed);
            while self.seq.load(Ordering::Acquire) & 1 == 1 {
                backoff.snooze();
            }
        }
    }

    /// Ends a pinned read. No exit validation is needed: the slot was
    /// continuously advertised, so a writer that flipped the sequence word
    /// odd in the meantime is still parked in its drain loop waiting for this
    /// very store — it cannot have mutated anything the read observed.
    pub fn unpin(&self, idx: usize) {
        self.slots[idx].0.store(0, Ordering::Release);
    }

    /// Opens a mutation window: flips the sequence word to odd and drains
    /// every advertised reader. Callers serialize windows externally (the
    /// shard's write gate); nesting is a protocol violation.
    pub fn begin_write(&self) {
        let prev = self.seq.fetch_add(1, Ordering::SeqCst);
        debug_assert_eq!(prev & 1, 0, "nested mutation window");
        let mut backoff = Backoff::new();
        for slot in &self.slots {
            while slot.0.load(Ordering::SeqCst) != 0 {
                backoff.snooze();
            }
        }
    }

    /// Closes the current mutation window: flips the sequence word back to
    /// even, releasing the readers waiting in [`ReadCoordinator::pin`].
    pub fn end_write(&self) {
        self.epoch_advances.fetch_add(1, Ordering::Relaxed);
        let prev = self.seq.fetch_add(1, Ordering::SeqCst);
        debug_assert_eq!(prev & 1, 1, "end_write without begin_write");
    }

    /// Snapshot of the activity counters (concurrently readable).
    pub fn counters(&self) -> ReadCounters {
        ReadCounters {
            reader_retries: self.reader_retries.load(Ordering::Relaxed),
            read_pins: self.read_pins.load(Ordering::Relaxed),
            epoch_advances: self.epoch_advances.load(Ordering::Relaxed),
        }
    }
}

/// Escalating wait loop: brief `spin_loop` bursts, then OS yields. The yield
/// matters on machines with fewer cores than threads (including the 1-core CI
/// container), where pure spinning would burn the waited-on thread's quantum.
struct Backoff(u32);

impl Backoff {
    fn new() -> Self {
        Self(0)
    }

    fn snooze(&mut self) {
        if self.0 < 6 {
            for _ in 0..(1u32 << self.0) {
                std::hint::spin_loop();
            }
            self.0 += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

/// Compile-time proof the coordinator crosses thread boundaries.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ReadCoordinator>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn slots_register_and_release() {
        let c = ReadCoordinator::new();
        let a = c.acquire_slot();
        let b = c.acquire_slot();
        assert_ne!(a, b);
        c.release_slot(a);
        let again = c.acquire_slot();
        assert_eq!(again, a, "freed slot is reused first");
        c.release_slot(b);
        c.release_slot(again);
    }

    #[test]
    fn all_slots_can_be_held_at_once() {
        let c = ReadCoordinator::new();
        let held: Vec<usize> = (0..MAX_READERS).map(|_| c.acquire_slot()).collect();
        let mut sorted = held.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), MAX_READERS, "slot handed out twice");
        for idx in held {
            c.release_slot(idx);
        }
    }

    #[test]
    fn pins_and_closed_windows_are_counted() {
        let c = ReadCoordinator::new();
        let idx = c.acquire_slot();
        c.pin(idx);
        c.unpin(idx);
        for _ in 0..2 {
            c.begin_write();
            c.end_write();
        }
        c.pin(idx);
        c.unpin(idx);
        c.release_slot(idx);

        let counters = c.counters();
        assert_eq!(counters.read_pins, 2);
        assert_eq!(counters.epoch_advances, 2);
        assert_eq!(counters.reader_retries, 0);
    }

    #[test]
    fn writer_drains_an_active_reader_before_proceeding() {
        let c = ReadCoordinator::new();
        let idx = c.acquire_slot();
        c.pin(idx);
        let entered = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                c.begin_write();
                entered.store(true, Ordering::SeqCst);
                c.end_write();
            });
            // The writer must stay parked in its drain while the pin holds.
            std::thread::sleep(Duration::from_millis(50));
            assert!(
                !entered.load(Ordering::SeqCst),
                "writer entered its window over an active reader pin"
            );
            c.unpin(idx);
        });
        assert!(entered.load(Ordering::SeqCst));
        c.release_slot(idx);
        assert_eq!(c.counters().epoch_advances, 1);
    }

    #[test]
    fn reader_pin_waits_out_an_open_window_and_counts_the_retry() {
        let c = ReadCoordinator::new();
        c.begin_write();
        let finished = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let idx = c.acquire_slot();
                c.pin(idx); // spins: the window is open
                c.unpin(idx);
                c.release_slot(idx);
                finished.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(50));
            assert!(
                !finished.load(Ordering::SeqCst),
                "reader pinned through an open mutation window"
            );
            c.end_write();
        });
        assert!(finished.load(Ordering::SeqCst));
        let counters = c.counters();
        assert!(counters.reader_retries >= 1, "losing pin was not counted");
        assert_eq!(counters.read_pins, 1);
    }
}
