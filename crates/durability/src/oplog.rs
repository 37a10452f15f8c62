//! The graph op log: edge mutations as varint-coded records inside checksummed
//! frames, appended by [`AofWriter`] under a configurable [`SyncPolicy`].

use std::time::{Duration, Instant};

use crate::frame::encode_frame;
use crate::io::{DurabilityError, DurableFile, Result};
use crate::stats::DurabilityStats;

/// One durable graph mutation.
///
/// `w` carries the weighted delta; unweighted graphs log `w = 1` on insert
/// and ignore it. `Delete { w: 0 }` removes the edge outright (any weight),
/// matching `DynamicGraph::delete_edge`; a non-zero `w` is the weighted
/// decrement of `delete_weighted`. Replay applies ops in order, so weighted
/// streams (which are not idempotent) recover exactly when replay resumes at
/// the manifest-recorded offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphOp {
    /// Insert `⟨u, v⟩` (weighted: add `w` to the edge weight).
    Insert {
        /// Source node.
        u: u64,
        /// Target node.
        v: u64,
        /// Weight delta (1 for unweighted inserts).
        w: u64,
    },
    /// Delete from `⟨u, v⟩`: the whole edge when `w == 0`, else a weighted
    /// decrement by `w` (removing the edge when the weight reaches zero).
    Delete {
        /// Source node.
        u: u64,
        /// Target node.
        v: u64,
        /// Weight decrement, or 0 for unconditional removal.
        w: u64,
    },
}

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;

/// Appends `x` LEB128-style (7 bits per byte, high bit = continuation).
pub fn write_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7F) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a varint at `*pos`, advancing it. `None` on truncation or a value
/// that overflows 64 bits.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow u64
        }
        x |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

impl GraphOp {
    /// Appends the op's record bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let (tag, u, v, w) = match *self {
            Self::Insert { u, v, w } => (TAG_INSERT, u, v, w),
            Self::Delete { u, v, w } => (TAG_DELETE, u, v, w),
        };
        out.push(tag);
        write_varint(out, u);
        write_varint(out, v);
        write_varint(out, w);
    }

    /// Decodes one op at `*pos`, advancing it. `None` on malformed bytes.
    pub fn decode(bytes: &[u8], pos: &mut usize) -> Option<Self> {
        let &tag = bytes.get(*pos)?;
        *pos += 1;
        let u = read_varint(bytes, pos)?;
        let v = read_varint(bytes, pos)?;
        let w = read_varint(bytes, pos)?;
        match tag {
            TAG_INSERT => Some(Self::Insert { u, v, w }),
            TAG_DELETE => Some(Self::Delete { u, v, w }),
            _ => None,
        }
    }
}

/// Packs a batch of ops into one frame payload: varint count, then records.
pub fn encode_ops(ops: &[GraphOp]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + ops.len() * 8);
    write_varint(&mut payload, ops.len() as u64);
    for op in ops {
        op.encode(&mut payload);
    }
    payload
}

/// Decodes a frame payload produced by [`encode_ops`], appending onto `out`.
/// `None` if the payload is malformed (a checksummed frame should never be —
/// this guards against logic bugs, not disk corruption).
pub fn decode_ops(payload: &[u8], out: &mut Vec<GraphOp>) -> Option<usize> {
    let mut pos = 0usize;
    let count = read_varint(payload, &mut pos)?;
    let count = usize::try_from(count).ok()?;
    out.reserve(count);
    for _ in 0..count {
        out.push(GraphOp::decode(payload, &mut pos)?);
    }
    if pos == payload.len() {
        Some(count)
    } else {
        None // trailing garbage inside a valid frame
    }
}

/// When the op log reaches stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every appended frame. Slowest, loses nothing on a crash;
    /// a sync failure surfaces to the caller as
    /// [`DurabilityError::SyncFailed`].
    Always,
    /// fsync at most once per second (checked on append). The Redis
    /// `everysec` tradeoff: a crash loses at most the last second of frames;
    /// sync failures are absorbed into the
    /// [`DurabilityStats::aof_sync_failures`] counter.
    #[default]
    EverySecond,
    /// Never fsync from the append path — the OS decides. Fastest; an
    /// explicit [`AofWriter::sync`] is still available.
    Never,
}

/// Appends checksummed frames to an op log file under a [`SyncPolicy`].
///
/// The writer is format-agnostic at the frame level
/// ([`AofWriter::append_payloads`]); [`AofWriter::append_ops`] is the
/// graph-op convenience. It never panics on I/O failure: write errors
/// propagate typed, sync failures follow the policy (surface on `Always`,
/// count-and-continue otherwise).
#[derive(Debug)]
pub struct AofWriter<F> {
    file: F,
    policy: SyncPolicy,
    /// Logical end offset: bytes successfully handed to the file so far
    /// (header included). This is the offset snapshots record for replay.
    offset: u64,
    last_sync: Instant,
    dirty_since_sync: bool,
    stats: DurabilityStats,
}

impl<F: DurableFile> AofWriter<F> {
    /// Wraps an open append handle whose current length is `offset`.
    pub fn new(file: F, policy: SyncPolicy, offset: u64) -> Self {
        Self {
            file,
            policy,
            offset,
            last_sync: Instant::now(),
            dirty_since_sync: false,
            stats: DurabilityStats::default(),
        }
    }

    /// Current logical end offset of the log.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> &DurabilityStats {
        &self.stats
    }

    /// Mutable counters (the store layer adds its snapshot/rewrite counts).
    pub fn stats_mut(&mut self) -> &mut DurabilityStats {
        &mut self.stats
    }

    /// Appends framed payloads as one group commit: every frame is encoded
    /// into a single buffered write and the sync policy is applied once for
    /// the whole group instead of per frame — under [`SyncPolicy::Always`] a
    /// batch of N commands costs one fsync, not N.
    /// Returns the new end offset (unchanged for an empty batch).
    pub fn append_payloads<'a>(
        &mut self,
        payloads: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<u64> {
        let mut batch = Vec::new();
        let mut frames = 0u64;
        for payload in payloads {
            encode_frame(payload, &mut batch);
            frames += 1;
        }
        if frames == 0 {
            return Ok(self.offset);
        }
        self.file.write_all(&batch)?;
        self.offset += batch.len() as u64;
        self.stats.aof_frames_appended += frames;
        self.stats.aof_bytes_appended += batch.len() as u64;
        self.dirty_since_sync = true;
        self.apply_sync_policy()?;
        Ok(self.offset)
    }

    /// Appends a batch of graph ops as one frame. Returns the new end offset.
    pub fn append_ops(&mut self, ops: &[GraphOp]) -> Result<u64> {
        let offset = self.append_payloads([encode_ops(ops).as_slice()])?;
        self.stats.aof_ops_appended += ops.len() as u64;
        Ok(offset)
    }

    /// Clock-driven flush for [`SyncPolicy::EverySecond`]: syncs if the log
    /// has been dirty for at least the policy interval. The append path only
    /// checks the interval when a command happens to arrive, so an
    /// idle-then-burst workload could leave its burst unsynced indefinitely —
    /// a serving loop calls this from its own timer to close that hole. Sync
    /// failures degrade exactly like the append path (counted, retried next
    /// interval). No-op under `Always` (nothing is ever dirty) and `Never`
    /// (the OS decides).
    pub fn tick(&mut self) -> Result<()> {
        match self.policy {
            SyncPolicy::EverySecond => self.apply_sync_policy(),
            SyncPolicy::Always | SyncPolicy::Never => Ok(()),
        }
    }

    /// Explicit fsync. Failures always surface (and are counted).
    pub fn sync(&mut self) -> Result<()> {
        match self.file.sync() {
            Ok(()) => {
                self.stats.aof_syncs += 1;
                self.last_sync = Instant::now();
                self.dirty_since_sync = false;
                Ok(())
            }
            Err(e) => {
                self.stats.aof_sync_failures += 1;
                Err(e)
            }
        }
    }

    fn apply_sync_policy(&mut self) -> Result<()> {
        match self.policy {
            SyncPolicy::Always => self.sync(),
            SyncPolicy::EverySecond => {
                if self.dirty_since_sync && self.last_sync.elapsed() >= Duration::from_secs(1) {
                    match self.sync() {
                        Ok(()) => {}
                        // Degrade on fsync failure: the counter records it,
                        // appends continue, the next second retries.
                        Err(DurabilityError::SyncFailed { .. }) => {
                            self.last_sync = Instant::now();
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            }
            SyncPolicy::Never => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{scan_frames, RecoveryMode};
    use crate::io::Vfs;
    use crate::sim::SimVfs;

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        // Truncated and overflowing inputs fail cleanly.
        assert_eq!(read_varint(&[0x80], &mut 0), None);
        assert_eq!(read_varint(&[0xFF; 11], &mut 0), None);
    }

    #[test]
    fn ops_round_trip_through_a_frame_payload() {
        let ops = [
            GraphOp::Insert { u: 1, v: 2, w: 1 },
            GraphOp::Insert {
                u: u64::MAX,
                v: 0,
                w: 300,
            },
            GraphOp::Delete { u: 1, v: 2, w: 0 },
            GraphOp::Delete { u: 9, v: 9, w: 5 },
        ];
        let payload = encode_ops(&ops);
        let mut back = Vec::new();
        assert_eq!(decode_ops(&payload, &mut back), Some(ops.len()));
        assert_eq!(back, ops);
        // Malformed payloads decode to None, not garbage.
        assert_eq!(
            decode_ops(&payload[..payload.len() - 1], &mut Vec::new()),
            None
        );
        let mut trailing = payload.clone();
        trailing.push(7);
        assert_eq!(decode_ops(&trailing, &mut Vec::new()), None);
        assert_eq!(decode_ops(&[42], &mut Vec::new()), None);
    }

    #[test]
    fn writer_appends_scannable_frames_and_tracks_offsets() {
        let vfs = SimVfs::new();
        let file = vfs.create("aof").unwrap();
        let mut w = AofWriter::new(file, SyncPolicy::Never, 0);
        let end1 = w
            .append_ops(&[GraphOp::Insert { u: 1, v: 2, w: 1 }])
            .unwrap();
        let end2 = w
            .append_ops(&[
                GraphOp::Insert { u: 3, v: 4, w: 1 },
                GraphOp::Delete { u: 1, v: 2, w: 0 },
            ])
            .unwrap();
        assert!(end2 > end1);
        assert_eq!(w.offset(), end2);
        assert_eq!(w.stats().aof_frames_appended, 2);
        assert_eq!(w.stats().aof_ops_appended, 3);

        let bytes = vfs.read("aof").unwrap();
        assert_eq!(bytes.len() as u64, end2);
        let mut ops = Vec::new();
        let outcome = scan_frames(&bytes, 0, RecoveryMode::Strict, "aof", |p| {
            decode_ops(p, &mut ops).unwrap();
        })
        .unwrap();
        assert_eq!(outcome.frames, 2);
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn always_policy_surfaces_sync_failure_as_typed_error_and_counts_it() {
        let vfs = SimVfs::new();
        let file = vfs.create("aof").unwrap();
        let mut w = AofWriter::new(file, SyncPolicy::Always, 0);
        w.append_ops(&[GraphOp::Insert { u: 1, v: 2, w: 1 }])
            .unwrap();
        assert_eq!(w.stats().aof_syncs, 1);

        vfs.fail_next_syncs(1);
        let err = w
            .append_ops(&[GraphOp::Insert { u: 3, v: 4, w: 1 }])
            .unwrap_err();
        assert!(matches!(err, DurabilityError::SyncFailed { .. }));
        assert_eq!(w.stats().aof_sync_failures, 1);
        // The frame itself was appended and the writer keeps working.
        assert_eq!(w.stats().aof_frames_appended, 2);
        w.append_ops(&[GraphOp::Insert { u: 5, v: 6, w: 1 }])
            .unwrap();
        assert_eq!(w.stats().aof_syncs, 2);
    }

    #[test]
    fn group_commit_appends_many_frames_under_one_sync() {
        let vfs = SimVfs::new();
        let file = vfs.create("aof").unwrap();
        let mut w = AofWriter::new(file, SyncPolicy::Always, 0);
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 4]).collect();
        let end = w
            .append_payloads(payloads.iter().map(Vec::as_slice))
            .unwrap();
        assert_eq!(w.stats().aof_frames_appended, 10);
        assert_eq!(vfs.total_syncs(), 1, "one fsync for the whole group");
        assert_eq!(w.offset(), end);

        // The empty group is a no-op, and the frames scan back individually.
        assert_eq!(w.append_payloads(std::iter::empty()).unwrap(), end);
        assert_eq!(vfs.total_syncs(), 1);
        let bytes = vfs.read("aof").unwrap();
        let mut seen = Vec::new();
        scan_frames(&bytes, 0, RecoveryMode::Strict, "aof", |p| {
            seen.push(p.to_vec());
        })
        .unwrap();
        assert_eq!(seen, payloads);
    }

    #[test]
    fn every_second_tick_flushes_an_idle_burst_from_the_loop_clock() {
        let vfs = SimVfs::new();
        let file = vfs.create("aof").unwrap();
        let mut w = AofWriter::new(file, SyncPolicy::EverySecond, 0);
        // A burst shortly after start-up: the per-append interval check has
        // not elapsed, so nothing syncs — this is the hole tick() closes.
        w.append_ops(&[GraphOp::Insert { u: 1, v: 2, w: 1 }])
            .unwrap();
        assert_eq!(vfs.total_syncs(), 0, "append within the interval");
        w.tick().unwrap();
        assert_eq!(vfs.total_syncs(), 0, "interval still not elapsed");

        // The serving loop keeps ticking while the connection goes idle; once
        // the interval passes, the dirty burst reaches disk with no further
        // append required.
        w.last_sync = Instant::now() - Duration::from_secs(2);
        w.tick().unwrap();
        assert_eq!(vfs.total_syncs(), 1, "loop clock drove the flush");
        assert_eq!(w.stats().aof_syncs, 1);
        w.tick().unwrap();
        assert_eq!(vfs.total_syncs(), 1, "clean log: tick is a no-op");

        // Failures degrade like the append path: counted, retried later.
        w.append_ops(&[GraphOp::Insert { u: 3, v: 4, w: 1 }])
            .unwrap();
        w.last_sync = Instant::now() - Duration::from_secs(2);
        vfs.fail_next_syncs(1);
        w.tick().unwrap();
        assert_eq!(w.stats().aof_sync_failures, 1);
        w.last_sync = Instant::now() - Duration::from_secs(2);
        w.tick().unwrap();
        assert_eq!(vfs.total_syncs(), 2, "next interval retried and synced");
    }

    #[test]
    fn never_policy_does_not_sync_but_explicit_sync_works() {
        let vfs = SimVfs::new();
        let file = vfs.create("aof").unwrap();
        let mut w = AofWriter::new(file, SyncPolicy::Never, 0);
        for i in 0..10 {
            w.append_ops(&[GraphOp::Insert {
                u: i,
                v: i + 1,
                w: 1,
            }])
            .unwrap();
        }
        assert_eq!(vfs.total_syncs(), 0);
        w.sync().unwrap();
        assert_eq!(vfs.total_syncs(), 1);
    }
}
