//! Packed Memory Array (PMA) — the substrate PCSR and VCSR build on.
//!
//! A PMA \[44\] keeps a sorted sequence in an array with interspersed empty
//! slots so that insertions and deletions only shift a bounded neighbourhood.
//! The array is divided into segments of `Θ(log n)` slots forming an implicit
//! binary tree; when a segment's density leaves the allowed window the items
//! are rebalanced over the smallest enclosing window whose density is back in
//! range, doubling (or halving) the array when even the root is out of range.

use graph_api::MemoryFootprint;

/// Density bounds at the leaves; the window widens towards the root as in the
/// adaptive PMA literature.
const LEAF_MAX_DENSITY: f64 = 0.92;
const LEAF_MIN_DENSITY: f64 = 0.08;
const ROOT_MAX_DENSITY: f64 = 0.7;
const ROOT_MIN_DENSITY: f64 = 0.3;
const MIN_CAPACITY: usize = 8;

/// A packed memory array of `u64` keys (the only key type the graph
/// structures need).
#[derive(Debug, Clone)]
pub struct PackedMemoryArray {
    slots: Vec<Option<u64>>,
    segment_size: usize,
    len: usize,
}

impl Default for PackedMemoryArray {
    fn default() -> Self {
        Self::new()
    }
}

impl PackedMemoryArray {
    /// Creates an empty PMA.
    pub fn new() -> Self {
        Self {
            slots: vec![None; MIN_CAPACITY],
            segment_size: MIN_CAPACITY,
            len: 0,
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of slots (occupied plus gaps).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current overall density.
    pub fn density(&self) -> f64 {
        self.len as f64 / self.slots.len() as f64
    }

    /// True if `key` is stored.
    pub fn contains(&self, key: u64) -> bool {
        self.position_of(key).is_some()
    }

    /// Index of the slot holding `key`, if any. Occupied slots are sorted left
    /// to right, so the scan stops at the first larger value.
    fn position_of(&self, key: u64) -> Option<usize> {
        for (i, slot) in self.slots.iter().enumerate() {
            match slot {
                Some(k) if *k == key => return Some(i),
                Some(k) if *k > key => return None,
                _ => continue,
            }
        }
        None
    }

    /// Index of the first occupied slot whose value is greater than `key`
    /// (the ordered insertion point), or `slots.len()` if no such slot exists.
    fn insertion_point(&self, key: u64) -> usize {
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(k) = slot {
                if *k > key {
                    return i;
                }
            }
        }
        self.slots.len()
    }

    /// Inserts `key`, keeping the sequence sorted. Returns `false` if the key
    /// was already present.
    pub fn insert(&mut self, key: u64) -> bool {
        if self.contains(key) {
            return false;
        }
        let insert_at = self.insertion_point(key);
        // Absorb the shift into the nearest gap: prefer the right side (the
        // classic PMA shift), fall back to the left, extend as a last resort.
        if let Some(gap) = (insert_at..self.slots.len()).find(|&i| self.slots[i].is_none()) {
            for i in (insert_at..gap).rev() {
                self.slots[i + 1] = self.slots[i].take();
            }
            self.slots[insert_at] = Some(key);
        } else if let Some(gap) = (0..insert_at).rev().find(|&i| self.slots[i].is_none()) {
            for i in gap..insert_at - 1 {
                self.slots[i] = self.slots[i + 1].take();
            }
            self.slots[insert_at - 1] = Some(key);
        } else {
            self.slots.insert(insert_at, Some(key));
        }
        self.len += 1;
        let pos = insert_at.min(self.slots.len() - 1);
        self.rebalance_around(pos);
        true
    }

    /// Removes `key`. Returns `false` if it was absent.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(pos) = self.position_of(key) else {
            return false;
        };
        self.slots[pos] = None;
        self.len -= 1;
        self.rebalance_around(pos);
        true
    }

    /// Iterates over the stored keys in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().flatten().copied()
    }

    /// Collects the stored keys in ascending order.
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }

    /// Rebalances after a structural change near `pos`: if the overall density
    /// leaves the root window the array is resized; if only the local segment
    /// left its window the items are spread evenly over the whole array (the
    /// windowed rebalance collapsed to the root window for simplicity — the
    /// amortised asymptotics the graph structures rely on are kept).
    fn rebalance_around(&mut self, pos: usize) {
        let density = self.density();
        if density > ROOT_MAX_DENSITY {
            self.resize(self.slots.len() * 2);
            return;
        }
        if density < ROOT_MIN_DENSITY && self.slots.len() > MIN_CAPACITY {
            self.resize((self.slots.len() / 2).max(MIN_CAPACITY));
            return;
        }
        let seg_start = (pos / self.segment_size) * self.segment_size;
        let seg_end = (seg_start + self.segment_size).min(self.slots.len());
        let occupied = self.slots[seg_start..seg_end].iter().flatten().count();
        let seg_len = seg_end - seg_start;
        let seg_density = occupied as f64 / seg_len as f64;
        if seg_density > LEAF_MAX_DENSITY || (seg_density < LEAF_MIN_DENSITY && self.len > 0) {
            self.spread();
        }
    }

    fn resize(&mut self, new_capacity: usize) {
        let items: Vec<u64> = self.iter().collect();
        let new_capacity = new_capacity
            .max(items.len().next_power_of_two())
            .max(MIN_CAPACITY);
        self.slots = vec![None; new_capacity];
        self.segment_size = (new_capacity.ilog2() as usize).next_power_of_two().max(4);
        self.place_evenly(&items);
    }

    fn spread(&mut self) {
        let items: Vec<u64> = self.iter().collect();
        for slot in &mut self.slots {
            *slot = None;
        }
        self.place_evenly(&items);
    }

    fn place_evenly(&mut self, items: &[u64]) {
        if items.is_empty() {
            return;
        }
        let stride = self.slots.len() as f64 / items.len() as f64;
        for (i, &item) in items.iter().enumerate() {
            let idx = ((i as f64) * stride) as usize;
            // Find the next free slot at or after idx (always exists because
            // stride >= 1).
            let mut j = idx.min(self.slots.len() - 1);
            while self.slots[j].is_some() {
                j += 1;
            }
            self.slots[j] = Some(item);
        }
    }
}

impl MemoryFootprint for PackedMemoryArray {
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.slots.capacity() * std::mem::size_of::<Option<u64>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_items_sorted_under_random_insertions() {
        let mut pma = PackedMemoryArray::new();
        let keys = [50u64, 10, 90, 30, 70, 20, 80, 40, 60, 0, 100];
        for &k in &keys {
            assert!(pma.insert(k));
        }
        assert!(!pma.insert(50));
        assert_eq!(pma.len(), keys.len());
        let stored = pma.to_vec();
        let mut expected = keys.to_vec();
        expected.sort_unstable();
        assert_eq!(stored, expected);
    }

    #[test]
    fn contains_and_remove() {
        let mut pma = PackedMemoryArray::new();
        for k in 0..100u64 {
            pma.insert(k * 3);
        }
        assert!(pma.contains(33));
        assert!(!pma.contains(34));
        assert!(pma.remove(33));
        assert!(!pma.remove(33));
        assert!(!pma.contains(33));
        assert_eq!(pma.len(), 99);
    }

    #[test]
    fn density_stays_in_bounds_during_growth() {
        let mut pma = PackedMemoryArray::new();
        for k in 0..5_000u64 {
            pma.insert(k);
            assert!(pma.density() <= LEAF_MAX_DENSITY + 1e-9);
        }
        assert_eq!(pma.len(), 5_000);
        assert_eq!(pma.to_vec(), (0..5_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn shrinks_after_mass_deletion() {
        let mut pma = PackedMemoryArray::new();
        for k in 0..2_000u64 {
            pma.insert(k);
        }
        let grown = pma.capacity();
        for k in 0..1_990u64 {
            pma.remove(k);
        }
        assert!(pma.capacity() < grown);
        assert_eq!(pma.to_vec(), (1_990..2_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_inserts_and_removes_stay_sorted() {
        let mut pma = PackedMemoryArray::new();
        for k in (0..1_000u64).step_by(2) {
            pma.insert(k);
        }
        for k in (0..1_000u64).step_by(4) {
            pma.remove(k);
        }
        for k in (1..1_000u64).step_by(2) {
            pma.insert(k);
        }
        let v = pma.to_vec();
        assert!(v.windows(2).all(|w| w[0] < w[1]), "not sorted");
        assert!(pma.memory_bytes() > 0);
        assert!(!pma.is_empty());
    }
}
