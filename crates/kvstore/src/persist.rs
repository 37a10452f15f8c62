//! Durable persistence for the kvstore: a framed command AOF plus RDB
//! snapshots, built on the `graph-durability` machinery.
//!
//! [`DurableServer`] wraps a [`Server`] and gives its command stream the same
//! crash-safety contract the graph stores have:
//!
//! * every write command is appended to a checksummed command log **before**
//!   it executes (write-ahead order), under a
//!   [`SyncPolicy`](graph_durability::SyncPolicy);
//! * `SAVE` writes an RDB snapshot (temp file + atomic rename) and a manifest
//!   generation tying it to the log offset replay resumes from;
//! * `BGREWRITEAOF` rewrites the log from live state, clearing the manifest
//!   first so no stale offset can point into the replaced file;
//! * [`DurableServer::open`] recovers from the newest valid snapshot (older
//!   generations on checksum failure, full replay as the final fallback) and
//!   truncates a torn log tail instead of panicking.
//!
//! The command log shares the durability layer's invariant: it is complete on
//! its own, so losing every snapshot degrades to a full replay of the same
//! state.

use crate::module::Reply;
use crate::server::Server;
use graph_durability::frame::FRAME_HEADER_LEN;
use graph_durability::oplog::{read_varint, write_varint};
use graph_durability::store::{DurabilityConfig, RecoveryReport, RecoverySource};
use graph_durability::{
    check_header, encode_frame, scan_frames, AofWriter, DurabilityError, DurabilityStats,
    DurableFile, Generation, HeaderState, Manifest, RecoveryMode, Result, Vfs, KV_AOF_MAGIC,
};

/// Command log file name inside the durability directory.
pub const KV_AOF_FILE: &str = "commands.aof";
const KV_AOF_TMP: &str = "commands.aof.tmp";
/// Manifest file name.
pub const KV_MANIFEST_FILE: &str = "MANIFEST";
const KV_MANIFEST_TMP: &str = "MANIFEST.tmp";
const KV_SNAPSHOT_TMP: &str = "dump.tmp";
/// Magic header of a framed RDB snapshot file.
pub const KV_RDB_MAGIC: &[u8; 8] = b"CKKVRDB1";

fn snapshot_file(epoch: u64) -> String {
    format!("dump-{epoch:06}.rdb")
}

fn path(cfg: &DurabilityConfig, name: &str) -> String {
    format!("{}/{name}", cfg.dir.trim_end_matches('/'))
}

/// Encodes one command word list as a log frame payload: varint argc, then
/// varint-length-prefixed UTF-8 words.
pub fn encode_command(parts: &[String]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + parts.iter().map(|p| p.len() + 2).sum::<usize>());
    write_varint(&mut out, parts.len() as u64);
    for part in parts {
        write_varint(&mut out, part.len() as u64);
        out.extend_from_slice(part.as_bytes());
    }
    out
}

/// Decodes a command frame payload. `None` on malformed bytes (replay treats
/// the frame as corruption the checksum could not see).
pub fn decode_command(payload: &[u8]) -> Option<Vec<String>> {
    let mut pos = 0usize;
    let argc = usize::try_from(read_varint(payload, &mut pos)?).ok()?;
    let mut parts = Vec::with_capacity(argc.min(payload.len()));
    for _ in 0..argc {
        let len = usize::try_from(read_varint(payload, &mut pos)?).ok()?;
        let end = pos.checked_add(len)?;
        let bytes = payload.get(pos..end)?;
        parts.push(String::from_utf8(bytes.to_vec()).ok()?);
        pos = end;
    }
    (pos == payload.len()).then_some(parts)
}

/// Writes the RDB image as a framed snapshot file (temp + fsync + rename).
fn write_kv_snapshot<V: Vfs>(vfs: &V, dst: &str, tmp: &str, rdb: &[u8]) -> Result<u64> {
    let mut image = KV_RDB_MAGIC.to_vec();
    encode_frame(rdb, &mut image);
    let mut file = vfs.create(tmp)?;
    file.write_all(&image)?;
    file.sync()?;
    drop(file);
    vfs.rename(tmp, dst)?;
    Ok(image.len() as u64)
}

/// Reads and fully validates a framed RDB snapshot, returning the RDB bytes.
fn read_kv_snapshot<V: Vfs>(vfs: &V, src: &str) -> Result<Vec<u8>> {
    let bytes = vfs.read(src)?;
    match check_header(&bytes, KV_RDB_MAGIC, RecoveryMode::Strict, src)? {
        HeaderState::Valid => {}
        HeaderState::Empty | HeaderState::TornHeader => {
            return Err(DurabilityError::Corrupt {
                path: src.to_string(),
                offset: 0,
                detail: "empty snapshot file".to_string(),
            });
        }
    }
    let mut rdb = None;
    scan_frames(&bytes, 8, RecoveryMode::Strict, src, |payload| {
        if rdb.is_none() {
            rdb = Some(payload.to_vec());
        }
    })?;
    rdb.ok_or_else(|| DurabilityError::Corrupt {
        path: src.to_string(),
        offset: 8,
        detail: "snapshot holds no frame".to_string(),
    })
}

/// A [`Server`] paired with a durable command log and snapshot lifecycle.
#[derive(Debug)]
pub struct DurableServer<V: Vfs> {
    server: Server,
    vfs: V,
    cfg: DurabilityConfig,
    aof: AofWriter<V::File>,
    manifest: Manifest,
    next_epoch: u64,
    rewrite_base: u64,
}

impl<V: Vfs> DurableServer<V> {
    /// Opens (and if needed recovers) a durable server in `cfg.dir`.
    /// `make_server` builds the empty server — with every module the log or
    /// snapshots may reference already loaded, exactly like Redis requires
    /// `--loadmodule` before it replays module commands.
    pub fn open(
        vfs: V,
        cfg: DurabilityConfig,
        make_server: impl FnOnce() -> Server,
    ) -> Result<(Self, RecoveryReport)> {
        vfs.create_dir_all(&cfg.dir)?;
        for tmp in [KV_AOF_TMP, KV_MANIFEST_TMP, KV_SNAPSHOT_TMP] {
            let _ = vfs.remove(&path(&cfg, tmp));
        }

        let aof_path = path(&cfg, KV_AOF_FILE);
        let existed = vfs.exists(&aof_path);
        let mut aof_bytes = if existed {
            vfs.read(&aof_path)?
        } else {
            Vec::new()
        };
        let mut fresh = !existed;
        match check_header(&aof_bytes, KV_AOF_MAGIC, cfg.recovery_mode, &aof_path)? {
            HeaderState::Valid => {}
            HeaderState::Empty => fresh = true,
            HeaderState::TornHeader => {
                vfs.truncate(&aof_path, 0)?;
                aof_bytes.clear();
                fresh = true;
            }
        }

        let mut server = make_server();
        let manifest = Manifest::load(&vfs, &path(&cfg, KV_MANIFEST_FILE)).unwrap_or_default();
        let next_epoch = manifest
            .generations
            .iter()
            .map(|g| g.epoch + 1)
            .max()
            .unwrap_or(1);

        // Newest usable snapshot generation: manifest offset plausible, file
        // checksums, and the RDB image loads (a module missing from
        // `make_server` skips the generation and degrades to log replay).
        let mut generations_skipped = 0u32;
        let mut base: Option<(u64, u64)> = None;
        if !fresh {
            for gen in &manifest.generations {
                let offset_plausible =
                    gen.aof_offset >= 8 && gen.aof_offset <= aof_bytes.len() as u64;
                if !offset_plausible {
                    generations_skipped += 1;
                    continue;
                }
                let loaded = read_kv_snapshot(&vfs, &path(&cfg, &gen.snapshot))
                    .ok()
                    .and_then(|rdb| server.load_rdb(&rdb).ok());
                match loaded {
                    Some(()) => {
                        base = Some((gen.epoch, gen.aof_offset));
                        break;
                    }
                    None => generations_skipped += 1,
                }
            }
        }

        // Replay the command log (suffix) on top.
        let start = base.map_or(8, |(_, offset)| offset);
        let mut frames_replayed = 0u64;
        let mut commands_replayed = 0u64;
        let mut valid_len = start;
        let mut dropped = 0u64;
        if !fresh {
            let mut decode_bad_at = None;
            let mut cursor = start;
            let outcome =
                scan_frames(&aof_bytes, start, cfg.recovery_mode, &aof_path, |payload| {
                    let frame_start = cursor;
                    cursor += (FRAME_HEADER_LEN + payload.len()) as u64;
                    if decode_bad_at.is_some() {
                        return;
                    }
                    match decode_command(payload) {
                        Some(parts) => {
                            server.execute(&parts);
                            frames_replayed += 1;
                            commands_replayed += 1;
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
                        detail: "undecodable command in checksummed frame".to_string(),
                    });
                }
                Some(bad_at) => bad_at,
            };
            dropped = aof_bytes.len() as u64 - valid_len;
            if dropped > 0 {
                vfs.truncate(&aof_path, valid_len)?;
            }
        }

        let mut file = vfs.open_append(&aof_path)?;
        let resume_offset = if fresh {
            file.write_all(KV_AOF_MAGIC)?;
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
            ops_replayed: commands_replayed,
            dropped_bytes: dropped,
            resume_offset,
        };
        Ok((
            Self {
                server,
                vfs,
                cfg,
                aof,
                manifest,
                next_epoch,
                rewrite_base: resume_offset,
            },
            report,
        ))
    }

    /// Executes a command with write-ahead logging. `SAVE` and `BGREWRITEAOF`
    /// are intercepted here — the persistence lifecycle lives outside the
    /// in-memory server core.
    pub fn execute(&mut self, parts: &[String]) -> Reply {
        let Some(first) = parts.first() else {
            return self.server.execute(parts);
        };
        let command = first.to_ascii_lowercase();
        match command.as_str() {
            "save" => match self.save_snapshot() {
                Ok(_) => Reply::Ok,
                Err(e) => Reply::Error(format!("ERR save failed: {e}")),
            },
            "bgrewriteaof" => match self.rewrite_aof() {
                Ok(_) => Reply::Simple("Append only file rewriting completed".into()),
                Err(e) => Reply::Error(format!("ERR rewrite failed: {e}")),
            },
            _ => {
                if Server::is_write_command(&command) {
                    // Log first: if the append fails the command is refused,
                    // so memory never runs ahead of what replay can rebuild.
                    if let Err(e) = self.aof.append_payload(&encode_command(parts)) {
                        return Reply::Error(format!("ERR aof append failed: {e}"));
                    }
                }
                self.server.execute(parts)
            }
        }
    }

    /// Executes a batch of commands with **one group-committed log append**:
    /// every write in the batch is framed into a single buffered write and
    /// the sync policy is applied once (under `Always`, N commands cost one
    /// fsync instead of N) — the drain path of the serving layer's queued
    /// writer. The write-ahead invariant is preserved batch-wide: all frames
    /// reach the log before any command executes, and if the append fails
    /// every logged command in the batch is refused unexecuted.
    ///
    /// Replies match per-command [`DurableServer::execute`]; runs of
    /// consecutive valid `GRAPH.ADDEDGE` / `GRAPH.DELEDGE` commands apply
    /// through the sharded batch-ingest path (identical final state, and the
    /// reason those commands reply `+OK` rather than per-edge values).
    pub fn execute_batch(&mut self, batch: &[Vec<String>]) -> Vec<Reply> {
        enum Plan {
            /// Pre-validated graph write: `(insert?, u, v, w)`.
            Graph(bool, u64, u64, u64),
            /// Logged non-graph write: execute on the inner server.
            LoggedWrite,
            /// Unlogged command (reads, SAVE/BGREWRITEAOF): route through
            /// the per-command path, which never appends for these.
            Unlogged,
            /// Refused before logging (parse error) or by append failure.
            Refused(Reply),
        }

        // Phase 1: classify + pre-validate, collecting the log payloads.
        let mut plans: Vec<Plan> = Vec::with_capacity(batch.len());
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        for parts in batch {
            let command = parts.first().map(|p| p.to_ascii_lowercase());
            let plan = match command.as_deref() {
                Some(cmd @ ("graph.addedge" | "graph.deledge")) => {
                    match Server::parse_graph_write(cmd, &parts[1..]) {
                        Ok((u, v, w)) => {
                            payloads.push(encode_command(parts));
                            Plan::Graph(cmd == "graph.addedge", u, v, w)
                        }
                        // Malformed graph writes are refused *before* the
                        // log sees them — replay never meets them.
                        Err(reply) => Plan::Refused(reply),
                    }
                }
                Some(cmd) if Server::is_write_command(cmd) => {
                    payloads.push(encode_command(parts));
                    Plan::LoggedWrite
                }
                _ => Plan::Unlogged,
            };
            plans.push(plan);
        }

        // Phase 2: group commit. Failure refuses every logged command.
        if let Err(e) = self.aof.append_payloads(payloads.iter().map(Vec::as_slice)) {
            let refusal = format!("ERR aof append failed: {e}");
            for plan in &mut plans {
                if matches!(plan, Plan::Graph(..) | Plan::LoggedWrite) {
                    *plan = Plan::Refused(Reply::Error(refusal.clone()));
                }
            }
        }

        // Phase 3: apply in order, folding consecutive graph writes of the
        // same kind into one sharded batch-ingest call.
        let mut replies: Vec<Reply> = Vec::with_capacity(batch.len());
        let mut run: Vec<(u64, u64, u64)> = Vec::new();
        let mut run_insert = true;
        let flush_run = |server: &Server, run: &mut Vec<(u64, u64, u64)>, insert: bool| {
            if run.is_empty() {
                return;
            }
            if insert {
                server.graph().ingest_weighted_batch(run);
            } else {
                let pairs: Vec<(u64, u64)> = run.iter().map(|&(u, v, _)| (u, v)).collect();
                server.graph().remove_batch(&pairs);
            }
            run.clear();
        };
        for (parts, plan) in batch.iter().zip(plans) {
            match plan {
                Plan::Graph(insert, u, v, w) => {
                    if insert != run_insert {
                        flush_run(&self.server, &mut run, run_insert);
                        run_insert = insert;
                    }
                    run.push((u, v, w));
                    replies.push(Reply::Ok);
                }
                other => {
                    flush_run(&self.server, &mut run, run_insert);
                    replies.push(match other {
                        Plan::LoggedWrite => self.server.execute(parts),
                        Plan::Unlogged => self.execute(parts),
                        Plan::Refused(reply) => reply,
                        Plan::Graph(..) => unreachable!("handled above"),
                    });
                }
            }
        }
        flush_run(&self.server, &mut run, run_insert);
        replies
    }

    /// Clock-driven [`SyncPolicy`](graph_durability::SyncPolicy) flush: the
    /// serving writer loop calls this on its own timer so an `EverySecond`
    /// log still syncs within ~1 s of a burst even when no further command
    /// arrives (see `AofWriter::tick`).
    pub fn tick(&mut self) -> Result<()> {
        self.aof.tick()
    }

    /// The wrapped server (read-only: mutations must go through
    /// [`DurableServer::execute`] to hit the log).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// The store's configuration.
    pub fn config(&self) -> &DurabilityConfig {
        &self.cfg
    }

    /// Current command log end offset.
    pub fn aof_offset(&self) -> u64 {
        self.aof.offset()
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> DurabilityStats {
        *self.aof.stats()
    }

    /// Explicitly fsyncs the command log.
    pub fn sync(&mut self) -> Result<()> {
        self.aof.sync()
    }

    /// Writes an RDB snapshot plus a manifest generation tying it to the
    /// current log offset (the `SAVE` path). Returns the snapshot size.
    pub fn save_snapshot(&mut self) -> Result<u64> {
        // Best-effort sync: if the tail below the recorded offset is later
        // lost, the offset exceeds the valid log length and recovery skips
        // this generation.
        let _ = self.aof.sync();
        let offset = self.aof.offset();
        let rdb = self.server.save_rdb();
        let epoch = self.next_epoch;
        let name = snapshot_file(epoch);
        let bytes = write_kv_snapshot(
            &self.vfs,
            &path(&self.cfg, &name),
            &path(&self.cfg, KV_SNAPSHOT_TMP),
            &rdb,
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
            &path(&self.cfg, KV_MANIFEST_FILE),
            &path(&self.cfg, KV_MANIFEST_TMP),
        )?;
        for gen in dropped {
            let _ = self.vfs.remove(&path(&self.cfg, &gen.snapshot));
        }

        let stats = self.aof.stats_mut();
        stats.snapshots_written += 1;
        stats.last_snapshot_bytes = bytes;
        Ok(bytes)
    }

    /// Rewrites the command log from live state (the `BGREWRITEAOF` dance):
    /// minimal rebuild commands to a temp file, manifest cleared first, atomic
    /// rename, append handle reopened. Returns the new log size.
    pub fn rewrite_aof(&mut self) -> Result<u64> {
        let mut image = KV_AOF_MAGIC.to_vec();
        self.server
            .aof_rewrite(|command| encode_frame(&encode_command(&command), &mut image));

        let tmp = path(&self.cfg, KV_AOF_TMP);
        let mut file = self.vfs.create(&tmp)?;
        file.write_all(&image)?;
        file.sync()?;
        drop(file);

        // Clear the manifest before the log swap: its offsets would be
        // meaningless against the rewritten log.
        let dropped = std::mem::take(&mut self.manifest.generations);
        self.manifest.store(
            &self.vfs,
            &path(&self.cfg, KV_MANIFEST_FILE),
            &path(&self.cfg, KV_MANIFEST_TMP),
        )?;
        for gen in dropped {
            let _ = self.vfs.remove(&path(&self.cfg, &gen.snapshot));
        }

        let aof_path = path(&self.cfg, KV_AOF_FILE);
        self.vfs.rename(&tmp, &aof_path)?;

        let file = self.vfs.open_append(&aof_path)?;
        let mut stats = *self.aof.stats();
        stats.aof_rewrites += 1;
        self.aof = AofWriter::new(file, self.cfg.sync_policy, image.len() as u64);
        *self.aof.stats_mut() = stats;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_module::CuckooGraphModule;
    use graph_durability::{SimVfs, SyncPolicy};

    fn cmd(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn cfg() -> DurabilityConfig {
        DurabilityConfig::new("kv").with_sync_policy(SyncPolicy::Never)
    }

    fn make_server() -> Server {
        let mut s = Server::new();
        s.load_module(Box::new(CuckooGraphModule::new()));
        s
    }

    #[test]
    fn command_codec_round_trips_and_rejects_garbage() {
        let parts = cmd(&["graph.insert", "g", "1", "2"]);
        let payload = encode_command(&parts);
        assert_eq!(decode_command(&payload), Some(parts));
        assert_eq!(decode_command(&encode_command(&[])), Some(Vec::new()));
        assert_eq!(decode_command(&[7]), None, "argc without args");
        let mut torn = encode_command(&cmd(&["set", "k", "v"]));
        torn.truncate(torn.len() - 1);
        assert_eq!(decode_command(&torn), None);
    }

    #[test]
    fn fresh_store_replays_its_log_after_restart() {
        let vfs = SimVfs::new();
        let (mut store, report) = DurableServer::open(vfs.clone(), cfg(), make_server).unwrap();
        assert_eq!(report.source, RecoverySource::Fresh);
        assert_eq!(store.execute(&cmd(&["SET", "k", "v1"])), Reply::Ok);
        assert_eq!(store.execute(&cmd(&["SET", "k", "v2"])), Reply::Ok);
        store.execute(&cmd(&["graph.insert", "g", "1", "2"]));
        store.execute(&cmd(&["graph.insert", "g", "1", "2"]));
        drop(store);

        let (mut back, report) = DurableServer::open(vfs, cfg(), make_server).unwrap();
        assert_eq!(report.source, RecoverySource::AofReplay);
        assert_eq!(report.ops_replayed, 4);
        assert_eq!(back.execute(&cmd(&["GET", "k"])), Reply::Bulk("v2".into()));
        assert_eq!(
            back.execute(&cmd(&["graph.query", "g", "1", "2"])),
            Reply::Integer(2)
        );
    }

    #[test]
    fn snapshot_shortens_replay_to_the_suffix() {
        let vfs = SimVfs::new();
        let (mut store, _) = DurableServer::open(vfs.clone(), cfg(), make_server).unwrap();
        for i in 0..10 {
            store.execute(&cmd(&["SET", &format!("k{i}"), "x"]));
        }
        assert_eq!(store.execute(&cmd(&["SAVE"])), Reply::Ok);
        store.execute(&cmd(&["SET", "late", "1"]));
        drop(store);

        let (mut back, report) = DurableServer::open(vfs, cfg(), make_server).unwrap();
        assert_eq!(report.source, RecoverySource::Snapshot { epoch: 1 });
        assert_eq!(report.ops_replayed, 1, "only the post-snapshot suffix");
        assert_eq!(back.execute(&cmd(&["DBSIZE"])), Reply::Integer(11));
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_full_replay() {
        let vfs = SimVfs::new();
        let (mut store, _) = DurableServer::open(vfs.clone(), cfg(), make_server).unwrap();
        store.execute(&cmd(&["SET", "a", "1"]));
        store.execute(&cmd(&["SAVE"]));
        store.execute(&cmd(&["SET", "b", "2"]));
        drop(store);
        vfs.corrupt_byte("kv/dump-000001.rdb", 20);

        let (mut back, report) = DurableServer::open(vfs, cfg(), make_server).unwrap();
        assert_eq!(report.source, RecoverySource::AofReplay);
        assert_eq!(report.generations_skipped, 1);
        assert_eq!(back.execute(&cmd(&["GET", "a"])), Reply::Bulk("1".into()));
        assert_eq!(back.execute(&cmd(&["GET", "b"])), Reply::Bulk("2".into()));
    }

    #[test]
    fn snapshot_without_its_module_degrades_to_log_replay() {
        let vfs = SimVfs::new();
        let (mut store, _) = DurableServer::open(vfs.clone(), cfg(), make_server).unwrap();
        store.execute(&cmd(&["graph.insert", "g", "1", "2"]));
        store.execute(&cmd(&["SAVE"]));
        drop(store);

        // Reopen without the module: the snapshot cannot load, but the log
        // replays (module commands simply error) — no panic, no data loss for
        // the parts the server can still interpret.
        let (back, report) = DurableServer::open(vfs, cfg(), Server::new).unwrap();
        assert_eq!(report.source, RecoverySource::AofReplay);
        assert_eq!(report.generations_skipped, 1);
        assert_eq!(back.server().keyspace().len(), 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let vfs = SimVfs::new();
        let (mut store, _) = DurableServer::open(vfs.clone(), cfg(), make_server).unwrap();
        store.execute(&cmd(&["SET", "a", "1"]));
        store.execute(&cmd(&["SET", "b", "2"]));
        drop(store);
        let full = vfs.file_bytes("kv/commands.aof").unwrap();
        vfs.set_file("kv/commands.aof", full[..full.len() - 3].to_vec());

        let (mut back, report) = DurableServer::open(vfs.clone(), cfg(), make_server).unwrap();
        assert_eq!(report.ops_replayed, 1, "torn second command dropped");
        assert!(report.dropped_bytes > 0);
        assert_eq!(back.execute(&cmd(&["GET", "b"])), Reply::Nil);
        back.execute(&cmd(&["SET", "c", "3"]));
        drop(back);

        let (mut again, report) = DurableServer::open(vfs, cfg(), make_server).unwrap();
        assert_eq!(report.ops_replayed, 2);
        assert_eq!(again.execute(&cmd(&["GET", "c"])), Reply::Bulk("3".into()));
    }

    #[test]
    fn strict_mode_surfaces_the_torn_tail() {
        let vfs = SimVfs::new();
        let (mut store, _) = DurableServer::open(vfs.clone(), cfg(), make_server).unwrap();
        store.execute(&cmd(&["SET", "a", "1"]));
        drop(store);
        let full = vfs.file_bytes("kv/commands.aof").unwrap();
        vfs.set_file("kv/commands.aof", full[..full.len() - 2].to_vec());

        let strict = cfg().with_recovery_mode(RecoveryMode::Strict);
        let err = DurableServer::open(vfs, strict, make_server).unwrap_err();
        assert!(matches!(err, DurabilityError::Corrupt { .. }));
    }

    #[test]
    fn crash_mid_append_recovers_the_acknowledged_prefix() {
        let vfs = SimVfs::new();
        let always = cfg().with_sync_policy(SyncPolicy::Always);
        let (mut store, _) = DurableServer::open(vfs.clone(), always.clone(), make_server).unwrap();
        vfs.crash_after_bytes(160);
        let mut acked = Vec::new();
        for i in 0..50 {
            let parts = cmd(&["SET", &format!("k{i}"), "v"]);
            match store.execute(&parts) {
                Reply::Ok => acked.push(i),
                Reply::Error(_) => break,
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert!(acked.len() < 50, "the crash must have hit");
        drop(store);
        vfs.revive();

        let (mut back, _) = DurableServer::open(vfs, always, make_server).unwrap();
        for i in &acked {
            assert_eq!(
                back.execute(&cmd(&["GET", &format!("k{i}")])),
                Reply::Bulk("v".into()),
                "acknowledged write k{i} must survive"
            );
        }
        assert_eq!(
            back.execute(&cmd(&["DBSIZE"])),
            Reply::Integer(acked.len() as i64),
            "nothing beyond the acknowledged prefix may appear"
        );
    }

    #[test]
    fn execute_batch_group_commits_writes_and_replays_them() {
        let vfs = SimVfs::new();
        let always = cfg().with_sync_policy(SyncPolicy::Always);
        let (mut store, _) = DurableServer::open(vfs.clone(), always.clone(), make_server).unwrap();
        let syncs_before = vfs.total_syncs();
        let batch: Vec<Vec<String>> = vec![
            cmd(&["SET", "k", "v"]),
            cmd(&["GRAPH.ADDEDGE", "1", "2"]),
            cmd(&["GRAPH.ADDEDGE", "1", "3", "4"]),
            cmd(&["GRAPH.DELEDGE", "1", "3"]),
            cmd(&["GRAPH.ADDEDGE", "bad", "2"]),
            cmd(&["GRAPH.SUCCESSORS", "1"]),
            cmd(&["GET", "k"]),
        ];
        let replies = store.execute_batch(&batch);
        assert_eq!(&replies[..4], &[Reply::Ok, Reply::Ok, Reply::Ok, Reply::Ok]);
        assert!(matches!(replies[4], Reply::Error(_)), "bad id refused");
        assert_eq!(
            replies[5],
            Reply::Array(vec![Reply::Bulk("2".into())]),
            "reads see the batch's earlier writes, in order"
        );
        assert_eq!(replies[6], Reply::Bulk("v".into()));
        assert_eq!(
            vfs.total_syncs() - syncs_before,
            1,
            "four write frames, one group-committed fsync"
        );

        drop(store);
        let (mut back, report) = DurableServer::open(vfs, always, make_server).unwrap();
        assert_eq!(report.ops_replayed, 4, "refused + read commands not logged");
        assert_eq!(
            back.execute(&cmd(&["GRAPH.SUCCESSORS", "1"])),
            Reply::Array(vec![Reply::Bulk("2".into())])
        );
        assert_eq!(back.execute(&cmd(&["GET", "k"])), Reply::Bulk("v".into()));
    }

    #[test]
    fn execute_batch_matches_per_command_execution() {
        let vfs_a = SimVfs::new();
        let vfs_b = SimVfs::new();
        let (mut batched, _) = DurableServer::open(vfs_a, cfg(), make_server).unwrap();
        let (mut serial, _) = DurableServer::open(vfs_b, cfg(), make_server).unwrap();
        let commands: Vec<Vec<String>> = (0..200)
            .map(|i| match i % 5 {
                0 => cmd(&["GRAPH.ADDEDGE", &(i % 7).to_string(), &i.to_string()]),
                1 => cmd(&["GRAPH.ADDEDGE", &(i % 3).to_string(), "9", "2"]),
                2 => cmd(&[
                    "GRAPH.DELEDGE",
                    &((i + 2) % 7).to_string(),
                    &(i - 2).to_string(),
                ]),
                3 => cmd(&["SET", &format!("k{}", i % 10), &i.to_string()]),
                _ => cmd(&["GRAPH.HASEDGE", &(i % 7).to_string(), "9"]),
            })
            .collect();
        let batch_replies = batched.execute_batch(&commands);
        let serial_replies: Vec<Reply> = commands.iter().map(|c| serial.execute(c)).collect();
        assert_eq!(batch_replies, serial_replies);
        for u in 0..10u64 {
            assert_eq!(
                batched.execute(&cmd(&["GRAPH.SUCCESSORS", &u.to_string()])),
                serial.execute(&cmd(&["GRAPH.SUCCESSORS", &u.to_string()])),
                "successors of {u} diverged"
            );
        }
        assert_eq!(
            batched.execute(&cmd(&["GRAPH.EDGECOUNT"])),
            serial.execute(&cmd(&["GRAPH.EDGECOUNT"]))
        );
    }

    #[test]
    fn tick_drives_the_every_second_flush_from_the_loop_clock() {
        let vfs = SimVfs::new();
        let everysec = cfg().with_sync_policy(SyncPolicy::EverySecond);
        let (mut store, _) = DurableServer::open(vfs.clone(), everysec, make_server).unwrap();
        store.execute(&cmd(&["SET", "k", "v"]));
        store.tick().unwrap();
        assert_eq!(vfs.total_syncs(), 0, "interval not yet elapsed");
        std::thread::sleep(std::time::Duration::from_millis(1100));
        store.tick().unwrap();
        assert_eq!(
            vfs.total_syncs(),
            1,
            "idle-then-wait burst reached disk from the tick clock alone"
        );
    }

    #[test]
    fn bgrewriteaof_compacts_the_log() {
        let vfs = SimVfs::new();
        let (mut store, _) = DurableServer::open(vfs.clone(), cfg(), make_server).unwrap();
        for _ in 0..100 {
            store.execute(&cmd(&["SET", "hot", "x"]));
        }
        // Graph writes through the grouped-apply path: the rewrite must find
        // them in live state (nothing else remembers them).
        let batch: Vec<Vec<String>> = (0..50u64)
            .map(|v| cmd(&["GRAPH.ADDEDGE", "1", &v.to_string(), "2"]))
            .chain((1..50u64).map(|v| cmd(&["GRAPH.DELEDGE", "1", &v.to_string()])))
            .collect();
        assert!(store.execute_batch(&batch).iter().all(|r| *r == Reply::Ok));
        let before = store.aof_offset();
        assert!(matches!(
            store.execute(&cmd(&["BGREWRITEAOF"])),
            Reply::Simple(_)
        ));
        assert!(store.aof_offset() < before, "rewrite must shrink the log");
        assert_eq!(store.stats().aof_rewrites, 1);
        drop(store);

        let (mut back, report) = DurableServer::open(vfs, cfg(), make_server).unwrap();
        assert_eq!(
            report.ops_replayed, 2,
            "one rebuild command per live key and per live edge remains"
        );
        assert_eq!(back.execute(&cmd(&["GET", "hot"])), Reply::Bulk("x".into()));
        assert_eq!(
            back.execute(&cmd(&["GRAPH.SUCCESSORS", "1"])),
            Reply::Array(vec![Reply::Bulk("0".into())])
        );
        assert_eq!(back.execute(&cmd(&["GRAPH.EDGECOUNT"])), Reply::Integer(1));
    }

    #[test]
    fn maybe_rewrite_honours_thresholds() {
        let vfs = SimVfs::new();
        let small = cfg().with_rewrite_thresholds(2, 64);
        let (mut store, _) = DurableServer::open(vfs, small, make_server).unwrap();
        assert!(!store.maybe_rewrite_aof().unwrap(), "log still tiny");
        for _ in 0..20 {
            store.execute(&cmd(&["SET", "hot", "x"]));
        }
        assert!(store.maybe_rewrite_aof().unwrap());
        assert_eq!(store.stats().aof_rewrites, 1);
    }
}
