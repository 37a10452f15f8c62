//! Structural statistics and instrumentation counters.
//!
//! Besides memory accounting (Figure 9), the paper validates Theorem 1 by
//! measuring the *average number of placements per inserted item* — about
//! 1.017 for the L-CHT and 1.006 for S-CHTs on the NotreDame dataset (§ IV-A).
//! [`StructureStats`] collects exactly those counters so the `reproduce
//! theorem1` harness can regenerate the experiment.

/// Counters describing the work done and the space occupied by a CuckooGraph
/// instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StructureStats {
    /// Distinct source nodes currently stored (cells in the L-CHT chain plus
    /// cells parked in the L-DL).
    pub nodes: usize,
    /// Distinct edges currently stored.
    pub edges: usize,
    /// Number of L-CHT tables currently in the chain.
    pub lcht_tables: usize,
    /// Total number of cells allocated across all L-CHT tables.
    pub lcht_cells: usize,
    /// Number of S-CHT tables across all cells.
    pub scht_tables: usize,
    /// Total number of slots allocated across all S-CHTs.
    pub scht_slots: usize,
    /// Entries currently parked in the L-DL.
    pub l_denylist_len: usize,
    /// Entries currently parked in the S-DL.
    pub s_denylist_len: usize,
    /// Cumulative number of cell placements performed in L-CHTs (initial
    /// placements, kick-out re-placements, and expansion re-insertions).
    pub lcht_placements: u64,
    /// Cumulative number of node insertions requested (distinct `u` arrivals).
    pub lcht_items: u64,
    /// Cumulative number of slot placements performed in S-CHTs.
    pub scht_placements: u64,
    /// Cumulative number of neighbour insertions that went through an S-CHT.
    pub scht_items: u64,
    /// Number of insertions that exhausted the kick budget and fell back to a
    /// denylist (or forced an expansion when denylists are disabled).
    pub insertion_failures: u64,
    /// Number of chain/table expansions performed.
    pub expansions: u64,
    /// Number of chain/table contractions performed.
    pub contractions: u64,
    /// Always 0: tables are allocated at exact size and freed on retirement,
    /// there is no recycling pool. The field stays because `benchmark/` names
    /// it; it goes when the benchmark drops its catalogue row.
    pub pool_hits: u64,
    /// Always 0, kept for `benchmark/` (see [`StructureStats::pool_hits`]).
    pub pool_misses: u64,
    /// Always 0, kept for `benchmark/` (see [`StructureStats::pool_hits`]).
    pub pool_retained_bytes: usize,
    /// Shared reads that found a shard write-locked (or a writer waiting for
    /// it) and parked until the writer was done. Counted by the shard layer;
    /// always 0 for a serial engine.
    pub reader_retries: u64,
    /// Read guards the shard layer's shared reads took, one per shard read;
    /// always 0 for a serial engine.
    pub read_pins: u64,
    /// Write guards the shard layer's shared writes took, one per ingest
    /// chunk or single-command update; always 0 for a serial engine.
    pub epoch_advances: u64,
    /// Threshold-triggered in-place compactions of scan segments (cumulative;
    /// tombstone waste exceeded 1/4 of a segment's appended length).
    pub segment_compactions: u64,
    /// Tombstones punched into scan segments by edge deletions (cumulative).
    pub segment_tombstones: u64,
    /// Bytes currently held by the scan-segment arena: segment buffers and
    /// bookkeeping.
    pub segment_bytes: usize,
    /// Blocks carved out of the slot arena (live + freed).
    pub arena_blocks: usize,
    /// Arena blocks currently on the free list (reclaimable by
    /// `compact_arena`).
    pub arena_free_blocks: usize,
}

impl StructureStats {
    /// Accumulates another snapshot into this one. Every field is additive
    /// across disjoint structures, so [`crate::Sharded`] merges per-shard
    /// snapshots — each taken under that shard's own read guard — without
    /// ever needing exclusive access to the whole graph.
    pub fn merge(&mut self, o: &StructureStats) {
        self.nodes += o.nodes;
        self.edges += o.edges;
        self.lcht_tables += o.lcht_tables;
        self.lcht_cells += o.lcht_cells;
        self.scht_tables += o.scht_tables;
        self.scht_slots += o.scht_slots;
        self.l_denylist_len += o.l_denylist_len;
        self.s_denylist_len += o.s_denylist_len;
        self.lcht_placements += o.lcht_placements;
        self.lcht_items += o.lcht_items;
        self.scht_placements += o.scht_placements;
        self.scht_items += o.scht_items;
        self.insertion_failures += o.insertion_failures;
        self.expansions += o.expansions;
        self.contractions += o.contractions;
        self.reader_retries += o.reader_retries;
        self.read_pins += o.read_pins;
        self.epoch_advances += o.epoch_advances;
        self.segment_compactions += o.segment_compactions;
        self.segment_tombstones += o.segment_tombstones;
        self.segment_bytes += o.segment_bytes;
        self.arena_blocks += o.arena_blocks;
        self.arena_free_blocks += o.arena_free_blocks;
    }

    /// Average number of L-CHT placements per inserted node — the paper
    /// reports ≈1.017 on NotreDame, far below the kick budget `T`.
    pub fn avg_lcht_placements_per_item(&self) -> f64 {
        if self.lcht_items == 0 {
            0.0
        } else {
            self.lcht_placements as f64 / self.lcht_items as f64
        }
    }

    /// Average number of S-CHT placements per neighbour routed to an S-CHT —
    /// the paper reports ≈1.006.
    pub fn avg_scht_placements_per_item(&self) -> f64 {
        if self.scht_items == 0 {
            0.0
        } else {
            self.scht_placements as f64 / self.scht_items as f64
        }
    }

    /// Overall loading rate of the L-CHT chain (stored nodes over allocated
    /// cells).
    pub fn lcht_loading_rate(&self) -> f64 {
        if self.lcht_cells == 0 {
            0.0
        } else {
            self.nodes as f64 / self.lcht_cells as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_zero_items() {
        let s = StructureStats::default();
        assert_eq!(s.avg_lcht_placements_per_item(), 0.0);
        assert_eq!(s.avg_scht_placements_per_item(), 0.0);
        assert_eq!(s.lcht_loading_rate(), 0.0);
    }

    #[test]
    fn averages_divide_counters() {
        let s = StructureStats {
            lcht_placements: 1017,
            lcht_items: 1000,
            scht_placements: 1006,
            scht_items: 1000,
            nodes: 90,
            lcht_cells: 100,
            ..Default::default()
        };
        assert!((s.avg_lcht_placements_per_item() - 1.017).abs() < 1e-9);
        assert!((s.avg_scht_placements_per_item() - 1.006).abs() < 1e-9);
        assert!((s.lcht_loading_rate() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn merge_is_field_wise_addition() {
        let a = StructureStats {
            nodes: 3,
            edges: 5,
            segment_bytes: 2,
            reader_retries: 7,
            read_pins: 11,
            epoch_advances: 1,
            ..Default::default()
        };
        let b = StructureStats {
            nodes: 4,
            edges: 6,
            segment_bytes: 1,
            reader_retries: 3,
            read_pins: 9,
            epoch_advances: 2,
            ..Default::default()
        };
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.nodes, 7);
        assert_eq!(m.edges, 11);
        assert_eq!(m.segment_bytes, 3);
        assert_eq!(m.reader_retries, 10);
        assert_eq!(m.read_pins, 20);
        assert_eq!(m.epoch_advances, 3);
    }
}
