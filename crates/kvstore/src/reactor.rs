//! Pipelined concurrent serving: a non-blocking event loop with a sharded
//! read path.
//!
//! The serving front end over [`crate::net`]'s RESP sessions:
//!
//! * **No per-connection thread.** One acceptor thread hands sockets to a
//!   small fixed worker pool; each worker multiplexes many non-blocking
//!   connections with an escalating `park_timeout` idle backoff (never a
//!   busy-spin).
//! * **True pipelining.** Every complete RESP command buffered on a readable
//!   connection is decoded and dispatched in one pass; replies land in
//!   per-command sequence slots and the in-order completed prefix is flushed
//!   with **one vectored write per wakeup**.
//! * **Reads bypass the writer.** Dispatch classifies commands via
//!   [`Server::classify_command`]: graph reads execute inline on the worker
//!   through [`Sharded::read_view`], under the owning shards' read locks —
//!   no queue, no hand-off. Workers never even hold a reference to the
//!   [`DurableServer`], so the exclusion is structural, not a discipline.
//! * **Writes funnel to one writer.** All mutating commands cross a bounded
//!   MPSC queue to a single writer thread that owns the [`DurableServer`]
//!   outright. The writer drains the queue in batches and feeds
//!   [`DurableServer::execute_batch`], which group-commits the whole batch to
//!   the AOF **before** any command executes — memory never runs ahead of the
//!   log, exactly the per-command write-ahead invariant, amortized.
//! * **Per-connection causality is preserved.** A pipelined read that follows
//!   a still-in-flight write from the *same* connection is routed through the
//!   writer queue behind it, so a client always reads its own writes; reads
//!   with no write in flight take the concurrent path.
//!
//! [`Sharded::read_view`]: cuckoograph::Sharded::read_view

use crate::module::Reply;
use crate::net::Session;
use crate::persist::DurableServer;
use crate::server::{CommandClass, Server};
use cuckoograph::{ReadCounters, ShardedWeightedCuckooGraph};
use graph_durability::Vfs;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Idle backoff bounds for acceptor and worker loops: start fast, escalate to
/// a modest ceiling. The loops *sleep* between polls — never busy-spin — and
/// are unparked the moment a peer thread hands them work.
const BACKOFF_MIN: Duration = Duration::from_micros(50);
const BACKOFF_MAX: Duration = Duration::from_millis(2);

/// Per-read scratch size. Large enough that a deep pipelined burst usually
/// arrives in one syscall.
const READ_CHUNK: usize = 16 * 1024;

/// Tuning for [`Reactor::spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    workers: usize,
    queue_depth: usize,
    batch_max: usize,
    tick_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 1024,
            batch_max: 256,
            tick_interval: Duration::from_millis(100),
        }
    }
}

impl ServerConfig {
    /// Default configuration: two workers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of connection-handling worker threads (minimum 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Bound of the write queue (minimum 1). A full queue back-pressures the
    /// submitting worker instead of buffering unboundedly.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Most commands the writer folds into one group-committed batch.
    pub fn with_batch_max(mut self, max: usize) -> Self {
        self.batch_max = max.max(1);
        self
    }

    /// Interval of the writer's housekeeping clock, which drives
    /// [`DurableServer::tick`] (the `EverySecond` sync policy's flush).
    pub fn with_tick_interval(mut self, interval: Duration) -> Self {
        self.tick_interval = interval.max(Duration::from_millis(1));
        self
    }
}

/// A write (or writer-routed read) command in flight to the writer thread.
struct WriteReq {
    worker: usize,
    conn: u64,
    seq: u64,
    parts: Vec<String>,
}

/// A finished writer command: the encoded reply for one sequence slot.
struct Completion {
    conn: u64,
    seq: u64,
    bytes: Vec<u8>,
}

/// One multiplexed connection owned by a worker.
struct Conn {
    stream: TcpStream,
    session: Session,
    /// Replies for sequences `flushed_seq ..`; `None` = still in flight.
    slots: VecDeque<Option<Vec<u8>>>,
    /// First sequence not yet handed to the kernel.
    flushed_seq: u64,
    /// Next sequence to assign to a decoded command.
    next_seq: u64,
    /// Bytes accepted by a previous partial write, retried first.
    pending_out: Vec<u8>,
    /// Commands sent to the writer whose completions have not returned.
    writes_in_flight: usize,
    /// Stop reading; close once every slot is flushed.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            session: Session::new(),
            slots: VecDeque::new(),
            flushed_seq: 0,
            next_seq: 0,
            pending_out: Vec::new(),
            writes_in_flight: 0,
            closing: false,
        }
    }

    /// Fills the reply slot for `seq` (a no-op if the slot was already
    /// dropped by an earlier close).
    fn fill(&mut self, seq: u64, bytes: Vec<u8>) {
        let Some(idx) = seq.checked_sub(self.flushed_seq) else {
            return;
        };
        if let Some(slot) = self.slots.get_mut(idx as usize) {
            *slot = Some(bytes);
        }
    }

    fn done(&self) -> bool {
        self.closing && self.slots.iter().all(Option::is_some) && self.writes_in_flight == 0
    }
}

/// The serving front end: acceptor + worker pool + single durable writer.
///
/// Dropping the handle leaves the threads running (they hold everything they
/// need); call [`Reactor::shutdown`] for an orderly stop that drains the
/// write queue and syncs the log.
#[derive(Debug)]
pub struct Reactor {
    addr: SocketAddr,
    graph: Arc<ShardedWeightedCuckooGraph>,
    running: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

impl Reactor {
    /// Binds an ephemeral loopback listener and spawns the serving threads
    /// around `durable`. The [`DurableServer`] moves into the writer thread
    /// wholesale — after this call the only shared state is the graph's
    /// lock-guarded read surface.
    pub fn spawn<V>(durable: DurableServer<V>, cfg: ServerConfig) -> io::Result<Reactor>
    where
        V: Vfs + Send + 'static,
        V::File: Send,
    {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let graph = durable.server().shared_graph();
        let running = Arc::new(AtomicBool::new(true));

        let (write_tx, write_rx) = mpsc::sync_channel::<WriteReq>(cfg.queue_depth);
        let mut conn_txs = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        let mut completion_txs = Vec::with_capacity(cfg.workers);
        let mut worker_threads: Vec<Thread> = Vec::with_capacity(cfg.workers);

        for index in 0..cfg.workers {
            let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
            let (completion_tx, completion_rx) = mpsc::channel::<Completion>();
            conn_txs.push(conn_tx);
            completion_txs.push(completion_tx);
            let handle = thread::Builder::new()
                .name(format!("kv-worker-{index}"))
                .spawn({
                    let graph = Arc::clone(&graph);
                    let running = Arc::clone(&running);
                    let write_tx = write_tx.clone();
                    move || {
                        worker_loop(index, &graph, &running, &conn_rx, &completion_rx, &write_tx)
                    }
                })?;
            worker_threads.push(handle.thread().clone());
            workers.push(handle);
        }
        // The workers hold the only long-lived clones; dropping the original
        // lets the writer observe disconnect once every worker exits.
        drop(write_tx);

        let acceptor = thread::Builder::new().name("kv-acceptor".into()).spawn({
            let running = Arc::clone(&running);
            let worker_threads = worker_threads.clone();
            move || accept_loop(&listener, &running, &conn_txs, &worker_threads)
        })?;

        let writer = thread::Builder::new().name("kv-writer".into()).spawn({
            let cfg = cfg.clone();
            move || writer_loop(durable, &cfg, &write_rx, &completion_txs, &worker_threads)
        })?;

        Ok(Reactor {
            addr,
            graph,
            running,
            workers,
            acceptor: Some(acceptor),
            writer: Some(writer),
        })
    }

    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served graph's shared handle (benchmarks preload through it).
    pub fn graph(&self) -> Arc<ShardedWeightedCuckooGraph> {
        Arc::clone(&self.graph)
    }

    /// Aggregated read-path instrumentation — `read_pins` rises iff readers
    /// actually took the concurrent snapshot path.
    pub fn read_counters(&self) -> ReadCounters {
        self.graph.read_counters()
    }

    /// Orderly stop: accepts no new connections, lets the workers drain their
    /// buffered commands into the write queue, and joins the writer after it
    /// has group-committed everything submitted, with a final sync.
    pub fn shutdown(mut self) {
        self.running.store(false, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.thread().unpark();
            let _ = acceptor.join();
        }
        for worker in &self.workers {
            worker.thread().unpark();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(writer) = self.writer.take() {
            writer.thread().unpark();
            let _ = writer.join();
        }
    }
}

fn transient(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted)
}

/// Accepts connections on the non-blocking listener and deals them to the
/// workers round-robin, unparking the chosen worker. WouldBlock escalates the
/// park backoff; per-connection accept failures (ECONNABORTED) never stop the
/// loop.
fn accept_loop(
    listener: &TcpListener,
    running: &AtomicBool,
    conn_txs: &[Sender<TcpStream>],
    worker_threads: &[Thread],
) {
    let mut next = 0usize;
    let mut backoff = BACKOFF_MIN;
    while running.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                backoff = BACKOFF_MIN;
                // Pipelined bursts of small replies must not wait out Nagle.
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let target = next % conn_txs.len();
                next = next.wrapping_add(1);
                if conn_txs[target].send(stream).is_ok() {
                    worker_threads[target].unpark();
                }
            }
            Err(e) if transient(e.kind()) => {
                thread::park_timeout(backoff);
                backoff = (backoff * 2).min(BACKOFF_MAX);
            }
            // ECONNABORTED and friends cost one connection, not the listener.
            Err(_) => continue,
        }
    }
}

/// One worker: multiplexes its connections, decoding every buffered command
/// per readable event, dispatching reads inline and writes to the queue, and
/// flushing each connection's in-order completed replies with one vectored
/// write per wakeup.
fn worker_loop(
    index: usize,
    graph: &ShardedWeightedCuckooGraph,
    running: &AtomicBool,
    conn_rx: &Receiver<TcpStream>,
    completion_rx: &Receiver<Completion>,
    write_tx: &SyncSender<WriteReq>,
) {
    let mut conns: Vec<(u64, Conn)> = Vec::new();
    let mut next_id = 0u64;
    let mut backoff = BACKOFF_MIN;
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        let mut progressed = false;

        while let Ok(stream) = conn_rx.try_recv() {
            conns.push((next_id, Conn::new(stream)));
            next_id += 1;
            progressed = true;
        }

        while let Ok(completion) = completion_rx.try_recv() {
            if let Some((_, conn)) = conns.iter_mut().find(|(id, _)| *id == completion.conn) {
                conn.fill(completion.seq, completion.bytes);
                conn.writes_in_flight -= 1;
            }
            progressed = true;
        }

        let mut dead: Vec<u64> = Vec::new();
        for (id, conn) in &mut conns {
            let mut io_ok = true;
            while !conn.closing {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        // EOF — clean close even mid-command; flush what the
                        // peer already pipelined.
                        conn.closing = true;
                        progressed = true;
                    }
                    Ok(n) => {
                        conn.session.push_bytes(&chunk[..n]);
                        progressed = true;
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        io_ok = false;
                        break;
                    }
                }
            }
            if io_ok {
                dispatch_buffered(index, *id, conn, graph, write_tx);
                if flush(conn).is_err() {
                    io_ok = false;
                }
            }
            if !io_ok || conn.done() {
                dead.push(*id);
            }
        }
        conns.retain(|(id, _)| !dead.contains(id));

        if !running.load(Ordering::SeqCst) && conns.iter().all(|(_, c)| c.writes_in_flight == 0) {
            return;
        }
        if progressed {
            backoff = BACKOFF_MIN;
        } else {
            thread::park_timeout(backoff);
            backoff = (backoff * 2).min(BACKOFF_MAX);
        }
    }
}

/// Decodes every complete command buffered on `conn` and routes each one:
/// graph reads execute inline against the graph's read view (when no
/// same-connection write is in flight); everything else crosses the write
/// queue. Each command claims the next sequence slot, so replies flush in
/// submission order no matter which path answered first. Each read takes and
/// drops its own shard read guards.
fn dispatch_buffered(
    worker: usize,
    conn_id: u64,
    conn: &mut Conn,
    graph: &ShardedWeightedCuckooGraph,
    write_tx: &SyncSender<WriteReq>,
) {
    let view = graph.read_view();
    while !conn.closing {
        match conn.session.next_value() {
            Ok(None) => return,
            Ok(Some(value)) => {
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.slots.push_back(None);
                match value.into_command() {
                    Err(e) => {
                        let mut bytes = Vec::new();
                        Server::encode_reply_into(&Reply::Error(format!("ERR {e}")), &mut bytes);
                        conn.fill(seq, bytes);
                    }
                    Ok(parts) if parts.is_empty() => {
                        let mut bytes = Vec::new();
                        Server::encode_reply_into(
                            &Reply::Error("ERR empty command".into()),
                            &mut bytes,
                        );
                        conn.fill(seq, bytes);
                    }
                    Ok(parts) => {
                        let command = parts[0].to_ascii_lowercase();
                        let inline_read = conn.writes_in_flight == 0
                            && Server::classify_command(&command) == CommandClass::GraphRead;
                        if inline_read {
                            let reply = Server::graph_read_reply(&view, &command, &parts[1..]);
                            let mut bytes = Vec::new();
                            Server::encode_reply_into(&reply, &mut bytes);
                            conn.fill(seq, bytes);
                        } else {
                            conn.writes_in_flight += 1;
                            // A full queue blocks here: bounded back-pressure.
                            if write_tx
                                .send(WriteReq {
                                    worker,
                                    conn: conn_id,
                                    seq,
                                    parts,
                                })
                                .is_err()
                            {
                                // Writer is gone (shutdown); close out.
                                conn.writes_in_flight -= 1;
                                conn.fill(seq, b"-ERR server shutting down\r\n".to_vec());
                                conn.closing = true;
                            }
                        }
                    }
                }
            }
            Err(e) => {
                // Framing lost: error reply, then close this connection only.
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.slots.push_back(None);
                let mut bytes = Vec::new();
                Server::encode_reply_into(
                    &Reply::Error(format!("ERR protocol error: {e}")),
                    &mut bytes,
                );
                conn.fill(seq, bytes);
                conn.closing = true;
            }
        }
    }
}

/// Flushes the in-order completed reply prefix with a single vectored write.
/// A short write parks the remainder in `pending_out`, retried first next
/// wakeup; `WouldBlock` parks everything. Only hard I/O errors are returned.
fn flush(conn: &mut Conn) -> io::Result<()> {
    let mut ready: Vec<Vec<u8>> = Vec::new();
    while matches!(conn.slots.front(), Some(Some(_))) {
        if let Some(Some(bytes)) = conn.slots.pop_front() {
            conn.flushed_seq += 1;
            ready.push(bytes);
        }
    }
    if conn.pending_out.is_empty() && ready.is_empty() {
        return Ok(());
    }
    let mut slices = Vec::with_capacity(1 + ready.len());
    if !conn.pending_out.is_empty() {
        slices.push(IoSlice::new(&conn.pending_out));
    }
    slices.extend(ready.iter().map(|b| IoSlice::new(b)));
    match conn.stream.write_vectored(&slices) {
        Ok(mut written) => {
            if !conn.pending_out.is_empty() {
                let consumed = written.min(conn.pending_out.len());
                conn.pending_out.drain(..consumed);
                written -= consumed;
            }
            for bytes in &ready {
                if written >= bytes.len() {
                    written -= bytes.len();
                } else {
                    conn.pending_out.extend_from_slice(&bytes[written..]);
                    written = 0;
                }
            }
            Ok(())
        }
        Err(e) if transient(e.kind()) => {
            for bytes in &ready {
                conn.pending_out.extend_from_slice(bytes);
            }
            Ok(())
        }
        Err(e) => Err(e),
    }
}

/// The single writer: drains the bounded queue in batches, group-commits each
/// batch through [`DurableServer::execute_batch`] (log first, execute
/// second), routes the encoded replies back to the owning workers, and drives
/// the durable layer's housekeeping clock ([`DurableServer::tick`]) so the
/// `EverySecond` sync policy flushes even when no commands arrive.
fn writer_loop<V: Vfs>(
    mut durable: DurableServer<V>,
    cfg: &ServerConfig,
    write_rx: &Receiver<WriteReq>,
    completion_txs: &[Sender<Completion>],
    worker_threads: &[Thread],
) {
    let mut last_tick = Instant::now();
    let mut batch: Vec<WriteReq> = Vec::with_capacity(cfg.batch_max);
    loop {
        batch.clear();
        match write_rx.recv_timeout(cfg.tick_interval) {
            Ok(first) => {
                batch.push(first);
                while batch.len() < cfg.batch_max {
                    match write_rx.try_recv() {
                        Ok(req) => batch.push(req),
                        Err(_) => break,
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if !batch.is_empty() {
            let commands: Vec<Vec<String>> = batch
                .iter_mut()
                .map(|req| std::mem::take(&mut req.parts))
                .collect();
            let replies = durable.execute_batch(&commands);
            let mut touched = vec![false; completion_txs.len()];
            for (req, reply) in batch.iter().zip(&replies) {
                let mut bytes = Vec::new();
                Server::encode_reply_into(reply, &mut bytes);
                let _ = completion_txs[req.worker].send(Completion {
                    conn: req.conn,
                    seq: req.seq,
                    bytes,
                });
                touched[req.worker] = true;
            }
            for (worker, touched) in worker_threads.iter().zip(touched) {
                if touched {
                    worker.unpark();
                }
            }
        }
        if last_tick.elapsed() >= cfg.tick_interval {
            let _ = durable.tick();
            last_tick = Instant::now();
        }
    }
    // Queue disconnected: every worker has exited. Leave the log synced.
    let _ = durable.sync();
}
