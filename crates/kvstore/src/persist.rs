//! Durable persistence for the kvstore: the command codec that puts a
//! [`Server`] behind the `graph-durability` store.
//!
//! The crash lifecycle — write-ahead append under a
//! [`SyncPolicy`](graph_durability::SyncPolicy), recovery from the newest
//! valid snapshot generation with full log replay as the final fallback,
//! torn-tail truncation, snapshot commit, log rewrite — is
//! [`DurableGraphStore`]'s, the same code the graph engines run. This module
//! supplies only what differs, as the [`DurableState`] impl for [`Server`]:
//!
//! * the log is `commands.aof` (magic `CKKVAOF1`), one frame per write
//!   command ([`encode_command`] / [`decode_command`]), replayed through
//!   [`Server::execute`];
//! * a snapshot (`dump-NNNNNN.rdb`) is the shared section container holding
//!   one section, the [`Server::save_rdb`] image;
//! * a rewrite emits the [`Server::aof_rewrite`] rebuild commands.
//!
//! [`DurableServer`] adds the command-level write path: write commands are
//! logged before they execute (singly or as one group commit per batch),
//! and `SAVE` / `BGREWRITEAOF` are intercepted as the store's snapshot and
//! rewrite.

use crate::module::Reply;
use crate::server::Server;
use graph_durability::oplog::{read_varint, write_varint};
use graph_durability::{
    DurabilityConfig, DurabilityStats, DurableGraphStore, DurableState, RecoveryReport, Result, Vfs,
};

/// Command log file name inside the durability directory.
pub const KV_AOF_FILE: &str = "commands.aof";
/// Magic header of the command log.
pub const KV_AOF_MAGIC: &[u8; 8] = b"CKKVAOF1";

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

impl DurableState for Server {
    const LOG_FILE: &'static str = KV_AOF_FILE;
    const LOG_MAGIC: &'static [u8; 8] = KV_AOF_MAGIC;

    fn snapshot_file(epoch: u64) -> String {
        format!("dump-{epoch:06}.rdb")
    }

    fn replay_frame(&mut self, payload: &[u8]) -> Option<u64> {
        self.execute(&decode_command(payload)?);
        Some(1)
    }

    fn save_sections(&self) -> Vec<Vec<u8>> {
        vec![self.save_rdb()]
    }

    fn load_sections(&mut self, sections: &[Vec<u8>]) -> bool {
        // `load_rdb` swaps the keyspace and graph in only once the whole
        // image has decoded, so a rejected image leaves the server untouched.
        matches!(sections, [rdb] if self.load_rdb(rdb).is_ok())
    }

    fn rewrite_frames(&self, emit: &mut dyn FnMut(&[u8])) {
        self.aof_rewrite(|command| emit(&encode_command(&command)));
    }
}

/// A [`Server`] behind the durable store: write commands are logged before
/// they execute, and `SAVE` / `BGREWRITEAOF` run the store's snapshot and
/// rewrite.
#[derive(Debug)]
pub struct DurableServer<V: Vfs> {
    store: DurableGraphStore<Server, V>,
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
        let (store, report) = DurableGraphStore::open(vfs, cfg, make_server)?;
        Ok((Self { store }, report))
    }

    /// Executes a command with write-ahead logging. `SAVE` and `BGREWRITEAOF`
    /// are intercepted here — the persistence lifecycle lives outside the
    /// in-memory server core.
    pub fn execute(&mut self, parts: &[String]) -> Reply {
        let Some(first) = parts.first() else {
            return self.store.graph_mut().execute(parts);
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
                    if let Err(e) = self.store.append([encode_command(parts).as_slice()]) {
                        return Reply::Error(format!("ERR aof append failed: {e}"));
                    }
                }
                self.store.graph_mut().execute(parts)
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
        if let Err(e) = self.store.append(payloads.iter().map(Vec::as_slice)) {
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
                        flush_run(self.store.graph(), &mut run, run_insert);
                        run_insert = insert;
                    }
                    run.push((u, v, w));
                    replies.push(Reply::Ok);
                }
                other => {
                    flush_run(self.store.graph(), &mut run, run_insert);
                    replies.push(match other {
                        Plan::LoggedWrite => self.store.graph_mut().execute(parts),
                        Plan::Unlogged => self.execute(parts),
                        Plan::Refused(reply) => reply,
                        Plan::Graph(..) => unreachable!("handled above"),
                    });
                }
            }
        }
        flush_run(self.store.graph(), &mut run, run_insert);
        replies
    }

    /// Clock-driven [`SyncPolicy`](graph_durability::SyncPolicy) flush: the
    /// serving writer loop calls this on its own timer so an `EverySecond`
    /// log still syncs within ~1 s of a burst even when no further command
    /// arrives (see [`DurableGraphStore::tick`]).
    pub fn tick(&mut self) -> Result<()> {
        self.store.tick()
    }

    /// The wrapped server (read-only: mutations must go through
    /// [`DurableServer::execute`] to hit the log).
    pub fn server(&self) -> &Server {
        self.store.graph()
    }

    /// The store's configuration.
    pub fn config(&self) -> &DurabilityConfig {
        self.store.config()
    }

    /// Current command log end offset.
    pub fn aof_offset(&self) -> u64 {
        self.store.aof_offset()
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> DurabilityStats {
        self.store.stats()
    }

    /// Explicitly fsyncs the command log.
    pub fn sync(&mut self) -> Result<()> {
        self.store.sync()
    }

    /// The `SAVE` path: [`DurableGraphStore::save_snapshot`].
    pub fn save_snapshot(&mut self) -> Result<u64> {
        self.store.save_snapshot()
    }

    /// The `BGREWRITEAOF` path: [`DurableGraphStore::rewrite_aof`].
    pub fn rewrite_aof(&mut self) -> Result<u64> {
        self.store.rewrite_aof()
    }

    /// [`DurableGraphStore::maybe_rewrite_aof`].
    pub fn maybe_rewrite_aof(&mut self) -> Result<bool> {
        self.store.maybe_rewrite_aof()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_module::CuckooGraphModule;
    use graph_durability::{DurabilityError, RecoveryMode, RecoverySource, SimVfs, SyncPolicy};

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
    fn failed_append_never_hides_later_acknowledged_writes() {
        let frame_len = graph_durability::frame::FRAME_HEADER_LEN
            + encode_command(&cmd(&["SET", "b", "2"])).len();
        for k in 0..frame_len {
            // A short write tears the frame; the next command is acked.
            let vfs = SimVfs::new();
            let (mut store, _) = DurableServer::open(vfs.clone(), cfg(), make_server).unwrap();
            assert_eq!(store.execute(&cmd(&["SET", "a", "1"])), Reply::Ok);
            vfs.short_write_next(k);
            let refused = store.execute(&cmd(&["SET", "b", "2"]));
            assert!(matches!(refused, Reply::Error(_)), "k={k}");
            assert_eq!(store.execute(&cmd(&["SET", "c", "3"])), Reply::Ok);
            drop(store);
            let (mut back, _) = DurableServer::open(vfs, cfg(), make_server).unwrap();
            assert_eq!(back.execute(&cmd(&["GET", "a"])), Reply::Bulk("1".into()));
            assert_eq!(back.execute(&cmd(&["GET", "b"])), Reply::Nil, "k={k}");
            assert_eq!(
                back.execute(&cmd(&["GET", "c"])),
                Reply::Bulk("3".into()),
                "k={k}: acked write lost"
            );

            // A kill mid-write also defeats the repair: every later command
            // is refused until reopen, even once the disk is back.
            let vfs = SimVfs::new();
            let (mut store, _) = DurableServer::open(vfs.clone(), cfg(), make_server).unwrap();
            store.execute(&cmd(&["SET", "a", "1"]));
            vfs.crash_after_bytes(k as u64);
            assert!(matches!(
                store.execute(&cmd(&["SET", "b", "2"])),
                Reply::Error(_)
            ));
            vfs.revive();
            let late = store.execute_batch(&[cmd(&["SET", "c", "3"])]);
            assert!(
                matches!(late[0], Reply::Error(_)),
                "k={k}: appended behind a torn frame"
            );
            drop(store);
            let (mut back, _) = DurableServer::open(vfs, cfg(), make_server).unwrap();
            assert_eq!(back.execute(&cmd(&["DBSIZE"])), Reply::Integer(1), "k={k}");
        }
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
        // Served write batches mixing keyspace and graph writes (plus a read),
        // each one group-committed frame run under `Always`.
        let batches: Vec<Vec<Vec<String>>> = vec![
            vec![cmd(&["SET", "a", "1"]), cmd(&["GRAPH.ADDEDGE", "1", "2"])],
            vec![
                cmd(&["GRAPH.ADDEDGE", "1", "3", "4"]),
                cmd(&["SET", "b", "2"]),
                cmd(&["GRAPH.DELEDGE", "1", "2"]),
            ],
            vec![cmd(&["GRAPH.ADDEDGE", "2", "5"])],
            vec![
                cmd(&["SET", "a", "3"]),
                cmd(&["GRAPH.DELEDGE", "1", "3"]),
                cmd(&["GRAPH.ADDEDGE", "5", "1", "2"]),
            ],
            vec![cmd(&["GRAPH.HASEDGE", "2", "5"]), cmd(&["SET", "c", "4"])],
        ];
        let always = cfg().with_sync_policy(SyncPolicy::Always);
        let vfs = SimVfs::new();
        let (mut store, _) = DurableServer::open(vfs, always.clone(), make_server).unwrap();
        for batch in &batches {
            store.execute_batch(batch);
        }
        let total = store.aof_offset() - 8;
        drop(store);

        // Kill at every byte of the stream: recovery holds exactly the
        // acknowledged batches, as a serial oracle, plus at most an in-order
        // prefix of the batch the kill interrupted — its commands were never
        // acknowledged (the process died before replying), yet each frame of
        // the group that reached the disk whole is a valid frame.
        for cut in 0..=total {
            let vfs = SimVfs::new();
            let (mut store, _) =
                DurableServer::open(vfs.clone(), always.clone(), make_server).unwrap();
            vfs.crash_after_bytes(cut);
            let mut acked = 0;
            for batch in &batches {
                let replies = store.execute_batch(batch);
                if replies.iter().any(|r| matches!(r, Reply::Error(_))) {
                    break;
                }
                acked += 1;
            }
            if cut < total {
                assert!(
                    acked < batches.len(),
                    "cut {cut} of {total} must lose writes"
                );
            }
            drop(store);
            vfs.revive();

            let (back, _) = DurableServer::open(vfs, always.clone(), make_server).unwrap();
            let recovered = back.server().save_rdb();
            let mut oracle = make_server();
            for parts in batches[..acked].iter().flatten() {
                oracle.execute(parts);
            }
            let mut matched = recovered == oracle.save_rdb();
            for parts in batches.get(acked).into_iter().flatten() {
                if matched {
                    break;
                }
                oracle.execute(parts);
                matched = recovered == oracle.save_rdb();
            }
            assert!(
                matched,
                "cut at byte {cut}: recovered state must equal the {acked}-batch oracle"
            );
        }
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
