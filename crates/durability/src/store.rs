//! [`DurableGraphStore`]: the one crash-recovery lifecycle in the workspace,
//! tying the log, snapshots, and the manifest into one crash-recoverable
//! state.
//!
//! The store owns everything about *when* bytes move — recovery-open,
//! write-ahead append, snapshot generations, log rewrite — and a
//! [`DurableState`] impl owns *what* they mean: file names and log magic,
//! replaying one frame, the snapshot sections, the frames of a rewrite. The
//! graph engines implement it through [`DurableGraph`] (varint [`GraphOp`]
//! batches); the kvstore's server implements it with its command codec.
//!
//! # Correctness invariant
//!
//! The AOF is **complete on its own**: it is only ever replaced wholesale by
//! [`DurableGraphStore::rewrite_aof`] (which clears the manifest first), and
//! its tail is only truncated at recovery to drop bytes no append ever
//! acknowledged. Snapshots therefore merely *accelerate* recovery — losing
//! every snapshot and the manifest degrades to a full AOF replay that
//! rebuilds the same state. A snapshot generation is used only when its
//! manifest checksums and its own checksums validate; anything questionable
//! falls back to the next older generation, and finally to full replay.
//! Nothing in recovery panics on bad bytes.
//!
//! Because weighted deltas are not idempotent, snapshot-based recovery always
//! resumes replay at the manifest-recorded offset — never before it.
//!
//! A failed append is cut back off the log before anything else is written,
//! so no later frame ever lands behind a torn one (where recovery's
//! truncate-at-the-first-bad-frame would drop it); when even that cut fails,
//! the store refuses every append until it is reopened.

use graph_api::{DynamicGraph, EdgeExport, EdgeImport, WeightedDynamicGraph};

use cuckoograph::{CuckooGraph, Sharded, WeightedCuckooGraph};

use crate::frame::{
    check_header, encode_frame, scan_frames, HeaderState, RecoveryMode, AOF_MAGIC, FRAME_HEADER_LEN,
};
use crate::io::{DurabilityError, DurableFile, Result, Vfs};
use crate::manifest::{Generation, Manifest};
use crate::oplog::{decode_ops, encode_ops, AofWriter, GraphOp, SyncPolicy};
use crate::snapshot::{decode_records, encode_records, read_snapshot, write_snapshot};
use crate::stats::DurabilityStats;

/// Graph op log file name inside the durability directory.
pub const AOF_FILE: &str = "graph.aof";
/// Manifest file name.
pub const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
/// Ops per frame when a rewrite serialises live graph state back into the log.
const REWRITE_FRAME_OPS: usize = 4096;

/// The codec half of a durable state: everything [`DurableGraphStore`] needs
/// to know about what it logs, snapshots, and recovers.
pub trait DurableState {
    /// Log file name inside the durability directory.
    const LOG_FILE: &'static str;
    /// Magic header of the log file.
    const LOG_MAGIC: &'static [u8; 8];

    /// Snapshot file name of generation `epoch`.
    fn snapshot_file(epoch: u64) -> String;

    /// Applies one checksummed log frame (the replay path). Returns the ops
    /// it held, or `None` if the payload does not decode — corruption the
    /// checksum could not see, which recovery treats like a torn frame.
    fn replay_frame(&mut self, payload: &[u8]) -> Option<u64>;

    /// The live state as snapshot section payloads.
    fn save_sections(&self) -> Vec<Vec<u8>>;

    /// Restores the state from snapshot sections, all-or-nothing: on `false`
    /// the state is untouched and recovery tries an older generation.
    fn load_sections(&mut self, sections: &[Vec<u8>]) -> bool;

    /// Emits, in order, the frame payloads of a log that rebuilds the live
    /// state from empty (the rewrite path).
    fn rewrite_frames(&self, emit: &mut dyn FnMut(&[u8]));
}

/// A graph the durability layer can log, snapshot, and recover: its log
/// frames are [`GraphOp`] batches and its snapshot sections edge records.
///
/// Implementations exist for the serial and sharded basic/weighted engines.
/// (The multi-edge graph exports/imports records but has no op-level durable
/// form yet: parallel-edge identifiers are owned by the database layer above,
/// which logs its own commands — see the kvstore command log.)
pub trait DurableGraph: EdgeExport + EdgeImport {
    /// Applies one logged op (the replay path).
    fn apply_op(&mut self, op: &GraphOp);

    /// Encoded snapshot sections. The default is one section of every record;
    /// sharded graphs override to encode per-shard sections in parallel.
    fn snapshot_sections(&self) -> Vec<Vec<u8>> {
        vec![encode_records(&self.edge_records())]
    }
}

impl<G: DurableGraph> DurableState for G {
    const LOG_FILE: &'static str = AOF_FILE;
    const LOG_MAGIC: &'static [u8; 8] = AOF_MAGIC;

    fn snapshot_file(epoch: u64) -> String {
        format!("snap-{epoch:06}.ckg")
    }

    fn replay_frame(&mut self, payload: &[u8]) -> Option<u64> {
        let mut ops = Vec::new();
        let count = decode_ops(payload, &mut ops)?;
        for op in &ops {
            self.apply_op(op);
        }
        Some(count as u64)
    }

    fn save_sections(&self) -> Vec<Vec<u8>> {
        self.snapshot_sections()
    }

    fn load_sections(&mut self, sections: &[Vec<u8>]) -> bool {
        let Some(decoded) = sections
            .iter()
            .map(|s| decode_records(s))
            .collect::<Option<Vec<_>>>()
        else {
            return false;
        };
        for records in &decoded {
            self.import_edge_records(records);
        }
        true
    }

    fn rewrite_frames(&self, emit: &mut dyn FnMut(&[u8])) {
        let records = self.edge_records();
        let mut ops = Vec::with_capacity(REWRITE_FRAME_OPS);
        for chunk in records.chunks(REWRITE_FRAME_OPS) {
            ops.clear();
            ops.extend(chunk.iter().map(|r| GraphOp::Insert {
                u: r.source,
                v: r.target,
                w: r.weight.max(1),
            }));
            emit(&encode_ops(&ops));
        }
    }
}

fn apply_unweighted<G: DynamicGraph>(g: &mut G, op: &GraphOp) {
    match *op {
        GraphOp::Insert { u, v, .. } => {
            g.insert_edge(u, v);
        }
        GraphOp::Delete { u, v, .. } => {
            g.delete_edge(u, v);
        }
    }
}

fn apply_weighted<G: WeightedDynamicGraph + DynamicGraph>(g: &mut G, op: &GraphOp) {
    match *op {
        GraphOp::Insert { u, v, w } => {
            g.insert_weighted(u, v, w.max(1));
        }
        GraphOp::Delete { u, v, w: 0 } => {
            g.delete_edge(u, v);
        }
        GraphOp::Delete { u, v, w } => {
            g.delete_weighted(u, v, w);
        }
    }
}

impl DurableGraph for CuckooGraph {
    fn apply_op(&mut self, op: &GraphOp) {
        apply_unweighted(self, op);
    }
}

impl DurableGraph for WeightedCuckooGraph {
    fn apply_op(&mut self, op: &GraphOp) {
        apply_weighted(self, op);
    }
}

impl DurableGraph for Sharded<CuckooGraph> {
    fn apply_op(&mut self, op: &GraphOp) {
        apply_unweighted(self, op);
    }

    fn snapshot_sections(&self) -> Vec<Vec<u8>> {
        self.par_map_shards(|g| encode_records(&g.edge_records()))
    }
}

impl DurableGraph for Sharded<WeightedCuckooGraph> {
    fn apply_op(&mut self, op: &GraphOp) {
        apply_weighted(self, op);
    }

    fn snapshot_sections(&self) -> Vec<Vec<u8>> {
        self.par_map_shards(|g| encode_records(&g.edge_records()))
    }
}

/// Tuning and placement knobs for a [`DurableGraphStore`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the AOF, snapshots, and manifest.
    pub dir: String,
    /// When appended frames reach stable storage.
    pub sync_policy: SyncPolicy,
    /// How replay treats a torn or corrupt log tail.
    pub recovery_mode: RecoveryMode,
    /// Snapshot generations to retain (older ones are fallbacks when the
    /// newest fails validation). Minimum 1.
    pub snapshot_generations: usize,
    /// [`DurableGraphStore::maybe_rewrite_aof`] triggers once the log is this
    /// many times its size after the last rewrite/recovery…
    pub rewrite_growth: u64,
    /// …and at least this many bytes.
    pub rewrite_min_bytes: u64,
}

impl DurabilityConfig {
    /// Defaults: `EverySecond` sync, torn tails tolerated, 2 generations,
    /// rewrite at 4× growth past 1 MiB.
    pub fn new(dir: impl Into<String>) -> Self {
        Self {
            dir: dir.into(),
            sync_policy: SyncPolicy::default(),
            recovery_mode: RecoveryMode::default(),
            snapshot_generations: 2,
            rewrite_growth: 4,
            rewrite_min_bytes: 1 << 20,
        }
    }

    /// Builder-style sync policy override.
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Builder-style recovery mode override.
    pub fn with_recovery_mode(mut self, mode: RecoveryMode) -> Self {
        self.recovery_mode = mode;
        self
    }

    /// Builder-style generation retention override.
    pub fn with_snapshot_generations(mut self, n: usize) -> Self {
        self.snapshot_generations = n.max(1);
        self
    }

    /// Builder-style rewrite thresholds override.
    pub fn with_rewrite_thresholds(mut self, growth: u64, min_bytes: u64) -> Self {
        self.rewrite_growth = growth.max(2);
        self.rewrite_min_bytes = min_bytes;
        self
    }

    fn path(&self, name: &str) -> String {
        format!("{}/{name}", self.dir.trim_end_matches('/'))
    }
}

/// Where the recovered state came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// No log existed: a brand-new store.
    Fresh,
    /// No usable snapshot: the whole log was replayed.
    AofReplay,
    /// This snapshot generation plus the log suffix past its offset.
    Snapshot {
        /// Epoch of the generation that validated.
        epoch: u64,
    },
}

/// What [`DurableGraphStore::open`] did to bring the graph back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Where the base state came from.
    pub source: RecoverySource,
    /// Newer snapshot generations that failed validation and were skipped.
    pub generations_skipped: u32,
    /// Valid frames replayed from the log.
    pub frames_replayed: u64,
    /// Ops inside those frames.
    pub ops_replayed: u64,
    /// Torn/corrupt tail bytes dropped (truncated) by recovery.
    pub dropped_bytes: u64,
    /// Log offset appends resume from.
    pub resume_offset: u64,
}

/// A state paired with its durability machinery: every mutation goes through
/// the log first, snapshots and rewrites compact recovery, and
/// [`DurableGraphStore::open`] brings the pair back after any crash.
#[derive(Debug)]
pub struct DurableGraphStore<S, V: Vfs> {
    graph: S,
    vfs: V,
    cfg: DurabilityConfig,
    aof: AofWriter<V::File>,
    /// A failed append left bytes past the writer's offset that could not be
    /// cut off: a frame appended behind them would be invisible to recovery,
    /// so every append is refused until reopen (or a rewrite replaces the
    /// log).
    torn_tail: bool,
    manifest: Manifest,
    next_epoch: u64,
    /// Log size right after the last rewrite or recovery — the growth base
    /// [`DurableGraphStore::maybe_rewrite_aof`] compares against.
    rewrite_base: u64,
}

impl<S: DurableState, V: Vfs> DurableGraphStore<S, V> {
    /// Opens (and if needed recovers) the store in `cfg.dir`. `make_graph`
    /// builds the empty state recovery fills.
    pub fn open(
        vfs: V,
        cfg: DurabilityConfig,
        make_graph: impl FnOnce() -> S,
    ) -> Result<(Self, RecoveryReport)> {
        vfs.create_dir_all(&cfg.dir)?;
        // A crash can strand temp files mid-commit; they are dead weight.
        for tmp in [&log_tmp::<S>(), MANIFEST_TMP, SNAPSHOT_TMP] {
            let _ = vfs.remove(&cfg.path(tmp));
        }

        let aof_path = cfg.path(S::LOG_FILE);
        let existed = vfs.exists(&aof_path);
        let mut aof_bytes = if existed {
            vfs.read(&aof_path)?
        } else {
            Vec::new()
        };
        let mut fresh = !existed;
        match check_header(&aof_bytes, S::LOG_MAGIC, cfg.recovery_mode, &aof_path)? {
            HeaderState::Valid => {}
            HeaderState::Empty => fresh = true,
            HeaderState::TornHeader => {
                // The very first write tore: nothing was ever durable.
                vfs.truncate(&aof_path, 0)?;
                aof_bytes.clear();
                fresh = true;
            }
        }

        let mut graph = make_graph();
        let manifest = Manifest::load(&vfs, &cfg.path(MANIFEST_FILE)).unwrap_or_default();
        let next_epoch = manifest
            .generations
            .iter()
            .map(|g| g.epoch + 1)
            .max()
            .unwrap_or(1);

        // Newest usable snapshot generation: offset plausible, file
        // checksums, and the state accepts its sections (a kvstore module
        // missing from `make_graph` skips the generation and degrades to log
        // replay).
        let mut generations_skipped = 0u32;
        let mut base: Option<(u64, u64)> = None; // (epoch, resume offset)
        if !fresh {
            for gen in &manifest.generations {
                let offset_plausible =
                    gen.aof_offset >= 8 && gen.aof_offset <= aof_bytes.len() as u64;
                let restored = offset_plausible
                    && read_snapshot(&vfs, &cfg.path(&gen.snapshot))
                        .is_ok_and(|sections| graph.load_sections(&sections));
                if restored {
                    base = Some((gen.epoch, gen.aof_offset));
                    break;
                }
                generations_skipped += 1;
            }
        }

        // Replay the log (suffix) on top.
        let start = base.map_or(8, |(_, offset)| offset);
        let mut ops_replayed = 0u64;
        let mut frames_replayed = 0u64;
        let mut valid_len = start;
        let mut dropped = 0u64;
        if !fresh {
            // A frame whose checksum passes but whose payload does not decode
            // is corruption the CRC cannot see; everything from that frame on
            // is untrusted.
            let mut decode_bad_at = None;
            let mut cursor = start;
            let outcome =
                scan_frames(&aof_bytes, start, cfg.recovery_mode, &aof_path, |payload| {
                    let frame_start = cursor;
                    cursor += (FRAME_HEADER_LEN + payload.len()) as u64;
                    if decode_bad_at.is_some() {
                        return;
                    }
                    match graph.replay_frame(payload) {
                        Some(count) => {
                            ops_replayed += count;
                            frames_replayed += 1;
                        }
                        None => decode_bad_at = Some(frame_start),
                    }
                })?;
            valid_len = match decode_bad_at {
                None => outcome.valid_len,
                Some(bad_at) if cfg.recovery_mode == RecoveryMode::Strict => {
                    return Err(DurabilityError::Corrupt {
                        path: aof_path,
                        offset: bad_at,
                        detail: "undecodable payload in checksummed frame".to_string(),
                    });
                }
                Some(bad_at) => bad_at,
            };
            dropped = aof_bytes.len() as u64 - valid_len;
            if dropped > 0 {
                vfs.truncate(&aof_path, valid_len)?;
            }
        }

        // Resume appending: a fresh log starts with the magic header.
        let mut file = vfs.open_append(&aof_path)?;
        let resume_offset = if fresh {
            file.write_all(S::LOG_MAGIC)?;
            8
        } else {
            valid_len
        };
        let aof = AofWriter::new(file, cfg.sync_policy, resume_offset);

        let source = match (base, fresh) {
            (Some((epoch, _)), _) => RecoverySource::Snapshot { epoch },
            (None, true) => RecoverySource::Fresh,
            (None, false) => RecoverySource::AofReplay,
        };
        let report = RecoveryReport {
            source,
            generations_skipped,
            frames_replayed,
            ops_replayed,
            dropped_bytes: dropped,
            resume_offset,
        };
        Ok((
            Self {
                graph,
                vfs,
                cfg,
                aof,
                torn_tail: false,
                manifest,
                next_epoch,
                rewrite_base: resume_offset,
            },
            report,
        ))
    }

    /// The recovered/live state.
    pub fn graph(&self) -> &S {
        &self.graph
    }

    /// Mutable state for a caller that logs its own frames: a change made
    /// here is durable only if [`DurableGraphStore::append`] logged it first
    /// (write-ahead order is the caller's contract).
    pub fn graph_mut(&mut self) -> &mut S {
        &mut self.graph
    }

    /// Consumes the store, returning the graph (the log handle is dropped
    /// unsynced — call [`DurableGraphStore::sync`] first if that matters).
    pub fn into_graph(self) -> S {
        self.graph
    }

    /// The store's configuration.
    pub fn config(&self) -> &DurabilityConfig {
        &self.cfg
    }

    /// Current log end offset.
    pub fn aof_offset(&self) -> u64 {
        self.aof.offset()
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> DurabilityStats {
        *self.aof.stats()
    }

    /// Appends `payloads` as one group-committed write (one sync under
    /// [`SyncPolicy::Always`]) — the write-ahead half of a mutation the
    /// caller then applies through [`DurableGraphStore::graph_mut`]. Returns
    /// the new log end.
    pub fn append<'a>(&mut self, payloads: impl IntoIterator<Item = &'a [u8]>) -> Result<u64> {
        self.append_with(|aof| aof.append_payloads(payloads))
    }

    /// Runs one writer append, repairing the log if its write failed.
    fn append_with(
        &mut self,
        append: impl FnOnce(&mut AofWriter<V::File>) -> Result<u64>,
    ) -> Result<u64> {
        if self.torn_tail {
            return Err(DurabilityError::Io {
                op: "append",
                path: self.cfg.path(S::LOG_FILE),
                message: "a failed write could not be cut off the log; reopen to recover"
                    .to_string(),
            });
        }
        let end = self.aof.offset();
        let appended = append(&mut self.aof);
        // The writer advances its offset only past a completed write, so an
        // error at an unmoved offset is a failed write — which may have left
        // a torn prefix that the next frame must not land behind.
        if appended.is_err() && self.aof.offset() == end {
            self.torn_tail = self.vfs.truncate(&self.cfg.path(S::LOG_FILE), end).is_err();
        }
        appended
    }

    /// Clock-driven [`SyncPolicy::EverySecond`] flush for a serving loop
    /// (see [`AofWriter::tick`]).
    pub fn tick(&mut self) -> Result<()> {
        self.aof.tick()
    }

    /// Explicitly fsyncs the log.
    pub fn sync(&mut self) -> Result<()> {
        self.aof.sync()
    }

    /// Writes a point-in-time snapshot (temp file + atomic rename), commits a
    /// new manifest generation tying it to the current log offset, and prunes
    /// generations beyond the retention limit. Returns the snapshot size.
    pub fn save_snapshot(&mut self) -> Result<u64> {
        // Make the recorded offset durable. A sync failure is survivable —
        // if the tail below the offset is later lost, the generation's offset
        // exceeds the valid log length and recovery skips it.
        let _ = self.aof.sync();
        let offset = self.aof.offset();
        let sections = self.graph.save_sections();
        let epoch = self.next_epoch;
        let name = S::snapshot_file(epoch);
        let bytes = write_snapshot(
            &self.vfs,
            &self.cfg.path(&name),
            &self.cfg.path(SNAPSHOT_TMP),
            &sections,
        )?;
        self.next_epoch += 1;

        self.manifest.generations.insert(
            0,
            Generation {
                epoch,
                snapshot: name,
                aof_offset: offset,
            },
        );
        let dropped = if self.manifest.generations.len() > self.cfg.snapshot_generations {
            self.manifest
                .generations
                .split_off(self.cfg.snapshot_generations)
        } else {
            Vec::new()
        };
        self.manifest.store(
            &self.vfs,
            &self.cfg.path(MANIFEST_FILE),
            &self.cfg.path(MANIFEST_TMP),
        )?;
        for gen in dropped {
            let _ = self.vfs.remove(&self.cfg.path(&gen.snapshot));
        }

        let stats = self.aof.stats_mut();
        stats.snapshots_written += 1;
        stats.last_snapshot_bytes = bytes;
        Ok(bytes)
    }

    /// Compacts the log by rewriting it from live state (the BGREWRITEAOF
    /// dance): new log to a temp file, manifest cleared (its generations
    /// reference offsets in the log being replaced), atomic rename, append
    /// handle reopened. Every crash window leaves a recoverable pair — old
    /// log + old manifest, old log + empty manifest, or new log + empty
    /// manifest. Returns the new log size.
    pub fn rewrite_aof(&mut self) -> Result<u64> {
        let mut image = S::LOG_MAGIC.to_vec();
        self.graph
            .rewrite_frames(&mut |payload| encode_frame(payload, &mut image));

        let tmp = self.cfg.path(&log_tmp::<S>());
        let mut file = self.vfs.create(&tmp)?;
        file.write_all(&image)?;
        file.sync()?;
        drop(file);

        // Clear the manifest before the log swap: its offsets would be
        // meaningless (and dangerous) against the rewritten log.
        let dropped = std::mem::take(&mut self.manifest.generations);
        self.manifest.store(
            &self.vfs,
            &self.cfg.path(MANIFEST_FILE),
            &self.cfg.path(MANIFEST_TMP),
        )?;
        for gen in dropped {
            let _ = self.vfs.remove(&self.cfg.path(&gen.snapshot));
        }

        let aof_path = self.cfg.path(S::LOG_FILE);
        self.vfs.rename(&tmp, &aof_path)?;

        let file = self.vfs.open_append(&aof_path)?;
        let mut stats = *self.aof.stats();
        stats.aof_rewrites += 1;
        self.aof = AofWriter::new(file, self.cfg.sync_policy, image.len() as u64);
        *self.aof.stats_mut() = stats;
        self.torn_tail = false;
        self.rewrite_base = image.len() as u64;
        Ok(image.len() as u64)
    }

    /// Rewrites when the log has outgrown its post-rewrite base per the
    /// configured thresholds. Returns whether a rewrite ran.
    pub fn maybe_rewrite_aof(&mut self) -> Result<bool> {
        let len = self.aof.offset();
        let threshold = self
            .rewrite_base
            .saturating_mul(self.cfg.rewrite_growth)
            .max(self.cfg.rewrite_min_bytes);
        if len >= threshold {
            self.rewrite_aof()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }
}

impl<G: DurableGraph, V: Vfs> DurableGraphStore<G, V> {
    /// Logs `ops` as one frame, then applies them to the graph (write-ahead
    /// order). Memory follows the file: the ops apply exactly when their
    /// frame reached it, so a refused write changes nothing, while a sync
    /// failure under [`SyncPolicy::Always`] returns its error with the ops
    /// applied — they are in the file image, only their durability is in
    /// question.
    pub fn apply(&mut self, ops: &[GraphOp]) -> Result<u64> {
        let end = self.aof.offset();
        let appended = self.append_with(|aof| aof.append_ops(ops));
        if self.aof.offset() > end {
            for op in ops {
                self.graph.apply_op(op);
            }
        }
        appended
    }
}

/// Temp name a log rewrite is staged under before its atomic rename.
fn log_tmp<S: DurableState>() -> String {
    format!("{}.tmp", S::LOG_FILE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimVfs;
    use graph_api::DynamicGraph;

    fn cfg() -> DurabilityConfig {
        DurabilityConfig::new("db").with_sync_policy(SyncPolicy::Never)
    }

    fn insert(u: u64, v: u64) -> GraphOp {
        GraphOp::Insert { u, v, w: 1 }
    }

    #[test]
    fn fresh_store_reopens_with_full_state_from_aof_alone() {
        let vfs = SimVfs::new();
        let (mut store, report) =
            DurableGraphStore::open(vfs.clone(), cfg(), CuckooGraph::new).unwrap();
        assert_eq!(report.source, RecoverySource::Fresh);
        store
            .apply(&(0..50u64).map(|i| insert(i, i + 1)).collect::<Vec<_>>())
            .unwrap();
        store
            .apply(&[GraphOp::Delete { u: 0, v: 1, w: 0 }])
            .unwrap();
        drop(store);

        let (store, report) = DurableGraphStore::open(vfs, cfg(), CuckooGraph::new).unwrap();
        assert_eq!(report.source, RecoverySource::AofReplay);
        assert_eq!(report.ops_replayed, 51);
        assert_eq!(report.dropped_bytes, 0);
        assert_eq!(store.graph().edge_count(), 49);
        assert!(!store.graph().has_edge(0, 1));
        assert!(store.graph().has_edge(7, 8));
    }

    #[test]
    fn snapshot_accelerates_recovery_and_replays_only_the_suffix() {
        let vfs = SimVfs::new();
        let (mut store, _) = DurableGraphStore::open(vfs.clone(), cfg(), CuckooGraph::new).unwrap();
        store
            .apply(&(0..40u64).map(|i| insert(i, 1)).collect::<Vec<_>>())
            .unwrap();
        store.save_snapshot().unwrap();
        store
            .apply(&(0..10u64).map(|i| insert(100 + i, 2)).collect::<Vec<_>>())
            .unwrap();
        drop(store);

        let (store, report) = DurableGraphStore::open(vfs, cfg(), CuckooGraph::new).unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot { epoch: 1 });
        assert_eq!(
            report.ops_replayed, 10,
            "only the post-snapshot suffix replays"
        );
        assert_eq!(store.graph().edge_count(), 50);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older_generation_then_full_replay() {
        let vfs = SimVfs::new();
        let (mut store, _) = DurableGraphStore::open(vfs.clone(), cfg(), CuckooGraph::new).unwrap();
        store
            .apply(&(0..20u64).map(|i| insert(i, 1)).collect::<Vec<_>>())
            .unwrap();
        store.save_snapshot().unwrap(); // epoch 1
        store
            .apply(&(0..20u64).map(|i| insert(i, 2)).collect::<Vec<_>>())
            .unwrap();
        store.save_snapshot().unwrap(); // epoch 2
        store.apply(&[insert(999, 1)]).unwrap();
        drop(store);

        // Corrupt the newest snapshot: recovery degrades to epoch 1 and
        // replays everything past its offset.
        vfs.corrupt_byte("db/snap-000002.ckg", 20);
        let (store, report) =
            DurableGraphStore::open(vfs.clone(), cfg(), CuckooGraph::new).unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot { epoch: 1 });
        assert_eq!(report.generations_skipped, 1);
        assert_eq!(store.graph().edge_count(), 41);
        drop(store);

        // Corrupt the older one too: full replay, still no error.
        vfs.corrupt_byte("db/snap-000001.ckg", 20);
        let (store, report) = DurableGraphStore::open(vfs, cfg(), CuckooGraph::new).unwrap();
        assert_eq!(report.source, RecoverySource::AofReplay);
        assert_eq!(report.generations_skipped, 2);
        assert_eq!(store.graph().edge_count(), 41);
    }

    #[test]
    fn lost_manifest_degrades_to_full_replay() {
        let vfs = SimVfs::new();
        let (mut store, _) = DurableGraphStore::open(vfs.clone(), cfg(), CuckooGraph::new).unwrap();
        store
            .apply(&(0..30u64).map(|i| insert(i, 1)).collect::<Vec<_>>())
            .unwrap();
        store.save_snapshot().unwrap();
        drop(store);
        vfs.set_file("db/MANIFEST", b"garbage".to_vec());

        let (store, report) = DurableGraphStore::open(vfs, cfg(), CuckooGraph::new).unwrap();
        assert_eq!(report.source, RecoverySource::AofReplay);
        assert_eq!(store.graph().edge_count(), 30);
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let vfs = SimVfs::new();
        let (mut store, _) = DurableGraphStore::open(vfs.clone(), cfg(), CuckooGraph::new).unwrap();
        store.apply(&[insert(1, 2)]).unwrap();
        let keep = store.aof_offset();
        store.apply(&[insert(3, 4)]).unwrap();
        drop(store);

        // Tear the last frame mid-body.
        let full = vfs.file_bytes("db/graph.aof").unwrap();
        vfs.set_file("db/graph.aof", full[..full.len() - 3].to_vec());

        let (mut store, report) =
            DurableGraphStore::open(vfs.clone(), cfg(), CuckooGraph::new).unwrap();
        assert_eq!(report.resume_offset, keep);
        assert!(report.dropped_bytes > 0);
        assert!(store.graph().has_edge(1, 2));
        assert!(!store.graph().has_edge(3, 4), "torn frame must not apply");
        assert_eq!(vfs.len("db/graph.aof").unwrap(), keep, "tail truncated");

        // Appends continue cleanly after the truncation point.
        store.apply(&[insert(5, 6)]).unwrap();
        drop(store);
        let (store, _) = DurableGraphStore::open(vfs, cfg(), CuckooGraph::new).unwrap();
        assert!(store.graph().has_edge(5, 6));
    }

    #[test]
    fn failed_append_never_hides_later_acknowledged_writes() {
        let frame_len = crate::frame::FRAME_HEADER_LEN + encode_ops(&[insert(3, 4)]).len();
        for k in 0..frame_len {
            // A short write tears the frame; the next append is acked.
            let vfs = SimVfs::new();
            let (mut store, _) =
                DurableGraphStore::open(vfs.clone(), cfg(), CuckooGraph::new).unwrap();
            store.apply(&[insert(1, 2)]).unwrap();
            vfs.short_write_next(k);
            assert!(store.apply(&[insert(3, 4)]).is_err(), "k={k}");
            assert!(!store.graph().has_edge(3, 4), "k={k}: refused op applied");
            store.apply(&[insert(5, 6)]).unwrap();
            drop(store);
            let (store, _) = DurableGraphStore::open(vfs, cfg(), CuckooGraph::new).unwrap();
            assert!(store.graph().has_edge(1, 2), "k={k}");
            assert!(!store.graph().has_edge(3, 4), "k={k}: refused op recovered");
            assert!(store.graph().has_edge(5, 6), "k={k}: acked op lost");

            // A kill mid-write also defeats the repair: every later append is
            // refused until reopen, even once the disk is back.
            let vfs = SimVfs::new();
            let (mut store, _) =
                DurableGraphStore::open(vfs.clone(), cfg(), CuckooGraph::new).unwrap();
            store.apply(&[insert(1, 2)]).unwrap();
            vfs.crash_after_bytes(k as u64);
            assert!(store.apply(&[insert(3, 4)]).is_err(), "k={k}");
            vfs.revive();
            assert!(
                store.apply(&[insert(5, 6)]).is_err(),
                "k={k}: append behind a torn frame"
            );
            drop(store);
            let (store, _) = DurableGraphStore::open(vfs, cfg(), CuckooGraph::new).unwrap();
            assert_eq!(store.graph().edge_count(), 1, "k={k}");
        }
    }

    #[test]
    fn strict_mode_refuses_a_torn_tail() {
        let vfs = SimVfs::new();
        let (mut store, _) = DurableGraphStore::open(vfs.clone(), cfg(), CuckooGraph::new).unwrap();
        store.apply(&[insert(1, 2)]).unwrap();
        drop(store);
        let full = vfs.file_bytes("db/graph.aof").unwrap();
        vfs.set_file("db/graph.aof", full[..full.len() - 1].to_vec());

        let strict = cfg().with_recovery_mode(RecoveryMode::Strict);
        let err = DurableGraphStore::open(vfs, strict, CuckooGraph::new).unwrap_err();
        assert!(matches!(err, DurabilityError::Corrupt { .. }));
    }

    #[test]
    fn rewrite_compacts_the_log_and_preserves_state() {
        let vfs = SimVfs::new();
        let (mut store, _) = DurableGraphStore::open(vfs.clone(), cfg(), CuckooGraph::new).unwrap();
        // Lots of churn: inserts later deleted bloat the log.
        for round in 0..20u64 {
            store
                .apply(
                    &(0..20u64)
                        .map(|i| insert(i, round * 100 + i))
                        .collect::<Vec<_>>(),
                )
                .unwrap();
        }
        for round in 0..19u64 {
            store
                .apply(
                    &(0..20u64)
                        .map(|i| GraphOp::Delete {
                            u: i,
                            v: round * 100 + i,
                            w: 0,
                        })
                        .collect::<Vec<_>>(),
                )
                .unwrap();
        }
        store.save_snapshot().unwrap();
        let before = store.aof_offset();
        let after = store.rewrite_aof().unwrap();
        assert!(after < before, "rewrite must shrink a churned log");
        assert_eq!(store.stats().aof_rewrites, 1);
        let live = store.graph().edge_count();
        drop(store);

        let (store, report) = DurableGraphStore::open(vfs, cfg(), CuckooGraph::new).unwrap();
        // The rewrite cleared the manifest, so this is a pure AOF replay of
        // the compacted log.
        assert_eq!(report.source, RecoverySource::AofReplay);
        assert_eq!(store.graph().edge_count(), live);
    }

    #[test]
    fn maybe_rewrite_respects_thresholds() {
        let vfs = SimVfs::new();
        let small = cfg().with_rewrite_thresholds(2, 256);
        let (mut store, _) = DurableGraphStore::open(vfs, small, CuckooGraph::new).unwrap();
        assert!(
            !store.maybe_rewrite_aof().unwrap(),
            "empty log must not rewrite"
        );
        store
            .apply(&(0..200u64).map(|i| insert(i, i + 1)).collect::<Vec<_>>())
            .unwrap();
        assert!(store.maybe_rewrite_aof().unwrap());
        let base = store.aof_offset();
        assert!(!store.maybe_rewrite_aof().unwrap(), "just rewritten");
        assert_eq!(store.aof_offset(), base);
    }

    #[test]
    fn weighted_store_recovers_exact_weights_via_offset_resume() {
        let vfs = SimVfs::new();
        let (mut store, _) =
            DurableGraphStore::open(vfs.clone(), cfg(), WeightedCuckooGraph::new).unwrap();
        // Non-idempotent stream: the same edge keeps accumulating weight.
        for _ in 0..5 {
            store
                .apply(&[GraphOp::Insert { u: 1, v: 2, w: 3 }])
                .unwrap();
        }
        store.save_snapshot().unwrap();
        store
            .apply(&[GraphOp::Insert { u: 1, v: 2, w: 1 }])
            .unwrap();
        store
            .apply(&[GraphOp::Delete { u: 1, v: 2, w: 4 }])
            .unwrap();
        drop(store);

        let (store, report) =
            DurableGraphStore::open(vfs, cfg(), WeightedCuckooGraph::new).unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot { epoch: 1 });
        assert_eq!(report.ops_replayed, 2, "pre-snapshot ops must not re-apply");
        assert_eq!(store.graph().weight(1, 2), 12);
    }

    #[test]
    fn sharded_store_snapshots_per_shard_and_recovers() {
        let vfs = SimVfs::new();
        let make = || Sharded::from_fn(4, |_| CuckooGraph::new());
        let (mut store, _) = DurableGraphStore::open(vfs.clone(), cfg(), make).unwrap();
        store
            .apply(&(0..500u64).map(|i| insert(i, i % 37)).collect::<Vec<_>>())
            .unwrap();
        assert!(store.graph().snapshot_sections().len() == 4);
        store.save_snapshot().unwrap();
        store.apply(&[insert(9_999, 1)]).unwrap();
        let expect = store.graph().edge_count();
        drop(store);

        // Recover into a *different* shard count: sections route by source.
        let make2 = || Sharded::from_fn(2, |_| CuckooGraph::new());
        let (store, report) = DurableGraphStore::open(vfs, cfg(), make2).unwrap();
        assert!(matches!(report.source, RecoverySource::Snapshot { .. }));
        assert_eq!(store.graph().edge_count(), expect);
        assert!(store.graph().has_edge(9_999, 1));
    }
}
