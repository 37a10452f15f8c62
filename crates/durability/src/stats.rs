//! Durability instrumentation counters, in the style of the engine's
//! `StructureStats` block: plain monotone `u64`s, read by tests and the
//! benchmark's layer ledger, never consulted by hot-path logic.

/// Counters over one durability stack (AOF writer + snapshot machinery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Frames appended to the op log.
    pub aof_frames_appended: u64,
    /// Individual ops inside those frames.
    pub aof_ops_appended: u64,
    /// Bytes appended to the op log (frame overhead included).
    pub aof_bytes_appended: u64,
    /// Successful fsyncs of the op log.
    pub aof_syncs: u64,
    /// Fsyncs that failed. The writer degrades per its sync policy and
    /// counts, rather than panicking.
    pub aof_sync_failures: u64,
    /// Snapshots written (temp-file + rename commits).
    pub snapshots_written: u64,
    /// Bytes of the most recent snapshot file.
    pub last_snapshot_bytes: u64,
    /// Background AOF rewrites completed.
    pub aof_rewrites: u64,
}
