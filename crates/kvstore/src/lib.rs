//! A Redis-like in-memory key-value store substrate.
//!
//! The paper (§ V-F) registers CuckooGraph as a Redis *module*: the module
//! adds a new value type and the commands `insert`, `del`, `query` and
//! `getneighbors`, implements the module API callbacks (`save_rdb`,
//! `load_rdb`, `aof_rewrite`) for persistence, and is loaded into the server
//! at start-up. Re-running that experiment does not need all of Redis — it
//! needs the integration surfaces the experiment touches. This crate builds
//! exactly those:
//!
//! * [`resp`] — a RESP-style wire protocol codec (commands in, replies out);
//! * [`keyspace`] — the keyed value store with string/list/hash and
//!   module-defined value types;
//! * [`module`] — the module API: command registration plus the persistence
//!   callbacks;
//! * [`server`] — command dispatch, RDB-style snapshots and the log-rewrite
//!   walk of live state;
//! * [`net`] — per-connection RESP sessions (a malformed frame or a
//!   mid-command EOF costs one connection, never the server);
//! * [`reactor`] — the pipelined concurrent serving front end: acceptor +
//!   worker pool + single durable writer, with graph reads dispatched off the
//!   write path onto sharded read views;
//! * [`persist`] — [`DurableServer`]: the command codec that runs the
//!   server through the `graph-durability` store's crash lifecycle (command
//!   log, RDB image snapshots, recovery, rewrite);
//! * [`graph_module`] — the CuckooGraph module itself (§ V-F).
//!
//! The performance phenomenon the paper reports — module throughput being
//! limited by command dispatch rather than by CuckooGraph — is reproduced by
//! the `fig17` benchmark, which drives the same workload once through the
//! in-process API and once through the command path.

pub mod graph_module;
pub mod keyspace;
pub mod module;
pub mod net;
pub mod persist;
pub mod reactor;
pub mod resp;
pub mod server;

pub use graph_module::CuckooGraphModule;
pub use keyspace::{Keyspace, Value};
pub use module::{Module, ModuleValue, Reply};
pub use net::{Session, SessionStatus};
pub use persist::DurableServer;
pub use reactor::{Reactor, ServerConfig};
pub use resp::RespValue;
pub use server::{CommandClass, Server};
