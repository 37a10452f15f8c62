//! Durability for the CuckooGraph engines and the kvstore: an append-only log
//! plus point-in-time snapshots, with crash recovery that never panics on bad
//! bytes.
//!
//! The layer follows the Redis persistence shape (AOF + RDB) and has one
//! lifecycle with two codecs: [`DurableGraphStore`] runs it for any
//! [`DurableState`] — the graph engines (through [`DurableGraph`], logging
//! [`GraphOp`] batches) and the kvstore's server (logging commands).
//!
//! * [`oplog`] — edge mutations ([`GraphOp`]) varint-coded into checksummed
//!   batch frames, appended by [`AofWriter`] under a [`SyncPolicy`]
//!   (`Always` / `EverySecond` / `Never`).
//! * [`snapshot`] — the section container every snapshot uses (a graph
//!   writes one section of edge records per shard, encoded in parallel for
//!   `Sharded<G>`), committed via temp-file + atomic rename.
//! * [`manifest`] — checksummed text file tying each snapshot generation to
//!   the log offset replay resumes from.
//! * [`store`] — [`DurableGraphStore`] orchestrates recovery (newest valid
//!   snapshot, older generations on checksum failure, full replay as the
//!   final fallback), torn-tail truncation, failed-append repair, and log
//!   rewrite.
//! * [`io`] / [`sim`] — the injectable [`Vfs`]/[`DurableFile`] layer:
//!   [`StdVfs`] for real files, [`SimVfs`] for deterministic fault injection
//!   (short writes, fsync failures, kill-at-arbitrary-byte).
//!
//! The load-bearing invariant: **the log is complete on its own.** It is
//! only replaced wholesale by a rewrite (which clears the manifest first), so
//! snapshots and the manifest only ever accelerate recovery — corrupting or
//! deleting all of them degrades to a full replay of the same state.

pub mod crc;
pub mod frame;
pub mod io;
pub mod manifest;
pub mod oplog;
pub mod sim;
pub mod snapshot;
pub mod stats;
pub mod store;

pub use crc::crc32;
pub use frame::{
    check_header, encode_frame, scan_frames, HeaderState, RecoveryMode, ScanOutcome, AOF_MAGIC,
    SNAPSHOT_MAGIC,
};
pub use io::{DurabilityError, DurableFile, Result, StdVfs, Vfs};
pub use manifest::{Generation, Manifest};
pub use oplog::{decode_ops, encode_ops, AofWriter, GraphOp, SyncPolicy};
pub use sim::SimVfs;
pub use snapshot::{decode_records, encode_records, read_snapshot, write_snapshot};
pub use stats::DurabilityStats;
pub use store::{
    DurabilityConfig, DurableGraph, DurableGraphStore, DurableState, RecoveryReport, RecoverySource,
};
