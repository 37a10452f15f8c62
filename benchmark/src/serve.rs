//! The serve section: a real `Reactor` over a real directory with every
//! default (`EverySecond` sync, two workers, default shards), driven over
//! loopback by two closed-loop client connections, then shut down and
//! reopened to time recovery.
//!
//! Closed loop because graph clients are application back-ends that wait for
//! their replies; two connections because the box has two cores and the load
//! generator shares them with the server.

use crate::catalogue::{slice_share, Mix, Workload, BURST, CONNECTIONS, WRITER_BATCH};
use crate::gen::{Edge, Fingerprint, SplitMix64};
use crate::stats::quantile_sorted;
use cuckoograph::ReadCounters;
use graph_durability::{DurabilityConfig, StdVfs};
use kvstore::reactor::{Reactor, ServerConfig};
use kvstore::{DurableServer, Reply, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Open-loop rate of the paced phase over both connections, commands/s.
pub const PACED_RATE: u64 = 2_000;
/// Edges re-checked with `GRAPH.HASEDGE` after the last recovery.
const RECOVERY_SAMPLE: usize = 10_000;
/// Clean restarts timed per run.
pub const REOPENS: usize = 5;
/// A reply that has not arrived after this long is a failed operation.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Add,
    Has,
    Deg,
    Succ,
}

/// One generated command. For `Has`, `present` says which answer is right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cmd {
    pub kind: Kind,
    pub present: bool,
    pub u: u32,
    pub v: u32,
}

impl Cmd {
    pub fn parts(&self) -> Vec<String> {
        let name = match self.kind {
            Kind::Add => "GRAPH.ADDEDGE",
            Kind::Has => "GRAPH.HASEDGE",
            Kind::Deg => "GRAPH.DEGREE",
            Kind::Succ => "GRAPH.SUCCESSORS",
        };
        let mut parts = vec![name.to_string(), self.u.to_string()];
        if matches!(self.kind, Kind::Add | Kind::Has) {
            parts.push(self.v.to_string());
        }
        parts
    }

    pub fn is_write(&self) -> bool {
        self.kind == Kind::Add
    }
}

/// Appends the RESP array-of-bulk-strings encoding of `parts`.
pub fn encode_command(wire: &mut Vec<u8>, parts: &[String]) {
    wire.extend_from_slice(format!("*{}\r\n", parts.len()).as_bytes());
    for part in parts {
        wire.extend_from_slice(format!("${}\r\n", part.len()).as_bytes());
        wire.extend_from_slice(part.as_bytes());
        wire.extend_from_slice(b"\r\n");
    }
}

/// What one connection sends in one phase, pre-encoded so the timed loop
/// only writes and reads.
#[derive(Debug, Default)]
pub struct ConnInput {
    pub cmds: Vec<Cmd>,
    pub wire: Vec<u8>,
    /// Offset in `wire` just past each command.
    pub ends: Vec<u32>,
}

impl ConnInput {
    fn push(&mut self, cmd: Cmd) {
        encode_command(&mut self.wire, &cmd.parts());
        self.ends.push(self.wire.len() as u32);
        self.cmds.push(cmd);
    }
}

pub type PhaseInput = [ConnInput; CONNECTIONS];

/// Everything the serve section sends, generated in set-up.
#[derive(Debug)]
pub struct ServeInputs {
    pub preload: Vec<Edge>,
    pub ingest: PhaseInput,
    pub mix: PhaseInput,
    pub rtt: PhaseInput,
    /// Open-loop phase; generated always so both kinds of run see the same
    /// inputs, sent by the traced run only.
    pub paced: PhaseInput,
    /// `GRAPH.EDGECOUNT` once every phase has been acknowledged, without and
    /// with the paced phase.
    pub distinct_edges: u64,
    pub distinct_edges_paced: u64,
    /// Loaded edges to look up again after recovery.
    pub sample: Vec<Edge>,
}

impl ServeInputs {
    /// Writes take stream edges in order (cycling if a long run outlasts the
    /// stream; re-adding an edge only bumps its weight). Reads pick among
    /// the edges loaded before the first mix round, so their answers are
    /// known: a present edge must be found, an edge whose target lies outside
    /// the id space must not, and a loaded source has at least one successor.
    pub fn new(w: &Workload, stream: &[Edge], rng: &mut SplitMix64) -> Self {
        let ids = w.shape.ids();
        let mut cursor = 0usize;
        let next_edge = |cursor: &mut usize| {
            let e = stream[*cursor % stream.len()];
            *cursor += 1;
            e
        };
        let preload: Vec<Edge> = (0..w.preload).map(|_| next_edge(&mut cursor)).collect();

        let add = |e: Edge| Cmd {
            kind: Kind::Add,
            present: true,
            u: e.0,
            v: e.1,
        };
        let mut ingest = PhaseInput::default();
        for burst in 0..w.ingest_rounds * w.bursts_per_round * CONNECTIONS {
            for _ in 0..BURST {
                ingest[burst % CONNECTIONS].push(add(next_edge(&mut cursor)));
            }
        }
        let loaded = cursor.min(stream.len());
        // Mix rounds start in the first slice, right after its share of the
        // ingest rounds: only what is in by then has a known answer.
        let first_ingest =
            slice_share(w.ingest_rounds, 0) * w.bursts_per_round * CONNECTIONS * BURST;
        let known = (w.preload + first_ingest).min(stream.len());

        let mixed = |count: usize, burst: usize, cursor: &mut usize, rng: &mut SplitMix64| {
            let mut phase = PhaseInput::default();
            for i in 0..count {
                let roll = rng.below(100);
                let known = stream[rng.below(known as u64) as usize];
                let Mix {
                    add: a, has, deg, ..
                } = w.mix;
                let cmd = if roll < a {
                    add(next_edge(cursor))
                } else if roll < a + has {
                    let present = rng.below(2) == 0;
                    Cmd {
                        kind: Kind::Has,
                        present,
                        u: known.0,
                        v: if present { known.1 } else { known.1 + ids },
                    }
                } else {
                    Cmd {
                        kind: if roll < a + has + deg {
                            Kind::Deg
                        } else {
                            Kind::Succ
                        },
                        present: true,
                        u: known.0,
                        v: 0,
                    }
                };
                phase[(i / burst) % CONNECTIONS].push(cmd);
            }
            phase
        };
        let mix = mixed(
            w.mix_rounds * w.bursts_per_round * CONNECTIONS * BURST,
            BURST,
            &mut cursor,
            rng,
        );
        let rtt = mixed(w.rtt_trips * CONNECTIONS, 1, &mut cursor, rng);
        let distinct_edges = cursor.min(stream.len()) as u64;
        let paced = mixed(w.paced_cmds, 1, &mut cursor, rng);

        let sample = (0..RECOVERY_SAMPLE.min(loaded))
            .map(|_| stream[rng.below(loaded as u64) as usize])
            .collect();
        Self {
            preload,
            ingest,
            mix,
            rtt,
            paced,
            distinct_edges,
            distinct_edges_paced: cursor.min(stream.len()) as u64,
            sample,
        }
    }

    pub fn phases(&self) -> impl Iterator<Item = &PhaseInput> {
        [&self.ingest, &self.mix, &self.rtt, &self.paced].into_iter()
    }

    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.edges(&self.preload);
        for phase in self.phases() {
            for conn in phase {
                fp.bytes(&conn.wire);
            }
        }
        fp.edges(&self.sample);
    }

    /// The commands of a phase in the order a single thread replays them:
    /// bursts alternate between the connections, as the clients issue them.
    pub fn interleaved(phase: &PhaseInput, burst: usize) -> Vec<Cmd> {
        let mut out = Vec::with_capacity(phase.iter().map(|c| c.cmds.len()).sum());
        let bursts = phase[0].cmds.len().div_ceil(burst);
        for b in 0..bursts {
            for conn in phase {
                let lo = (b * burst).min(conn.cmds.len());
                let hi = ((b + 1) * burst).min(conn.cmds.len());
                out.extend_from_slice(&conn.cmds[lo..hi]);
            }
        }
        out
    }
}

/// The first token of one RESP reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    Ok,
    Simple,
    Error,
    Int(i64),
    Bulk,
    Null,
    Array(usize),
}

fn line(buf: &[u8]) -> Option<(&[u8], usize)> {
    let end = buf.windows(2).position(|w| w == b"\r\n")?;
    Some((&buf[..end], end + 2))
}

fn number(text: &[u8]) -> Option<i64> {
    std::str::from_utf8(text).ok()?.parse().ok()
}

/// Scans one complete reply at the front of `buf`: its head and its length
/// in bytes. `None` means more bytes are needed; a malformed reply scans as
/// [`Head::Error`] so it is counted, not waited for.
pub fn scan_reply(buf: &[u8]) -> Option<(Head, usize)> {
    let (&tag, rest) = buf.split_first()?;
    let (text, used) = line(rest)?;
    let used = used + 1;
    match tag {
        b'+' => Some((
            if text == b"OK" {
                Head::Ok
            } else {
                Head::Simple
            },
            used,
        )),
        b':' => Some((number(text).map_or(Head::Error, Head::Int), used)),
        b'$' => match number(text) {
            Some(-1) => Some((Head::Null, used)),
            Some(len) if len >= 0 => {
                let total = used + len as usize + 2;
                (buf.len() >= total).then_some((Head::Bulk, total))
            }
            _ => Some((Head::Error, used)),
        },
        b'*' => match number(text) {
            Some(count) if count >= 0 => {
                let mut total = used;
                for _ in 0..count {
                    total += scan_reply(&buf[total..])?.1;
                }
                Some((Head::Array(count as usize), total))
            }
            _ => Some((Head::Error, used)),
        },
        _ => Some((Head::Error, used)),
    }
}

/// Whether `head` is a right answer to `cmd`.
pub fn reply_ok(cmd: &Cmd, head: Head) -> bool {
    match (cmd.kind, head) {
        (Kind::Add, Head::Ok) => true,
        (Kind::Has, Head::Int(found)) => found == i64::from(cmd.present),
        (Kind::Deg, Head::Int(degree)) => degree >= 1,
        (Kind::Succ, Head::Array(len)) => len >= 1,
        _ => false,
    }
}

/// One client connection with its receive buffer.
#[derive(Debug)]
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Set on the first I/O error; the rest of the run counts as failed.
    dead: bool,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Self {
            stream,
            buf: vec![0; 256 * 1024],
            start: 0,
            end: 0,
            dead: false,
        })
    }

    /// Sends `wire` and reads `replies` replies, each judged by `ok` with its
    /// position; returns how many were wrong or never came.
    fn exchange(&mut self, wire: &[u8], replies: usize, ok: impl Fn(usize, Head) -> bool) -> u64 {
        if self.dead || self.stream.write_all(wire).is_err() {
            self.dead = true;
            return replies as u64;
        }
        let mut failed = 0u64;
        let mut answered = 0usize;
        while answered < replies {
            match scan_reply(&self.buf[self.start..self.end]) {
                Some((head, used)) => {
                    failed += u64::from(!ok(answered, head));
                    self.start += used;
                    answered += 1;
                }
                None => {
                    if self.start == self.end {
                        (self.start, self.end) = (0, 0);
                    } else if self.end == self.buf.len() {
                        self.buf.copy_within(self.start..self.end, 0);
                        (self.start, self.end) = (0, self.end - self.start);
                        if self.end == self.buf.len() {
                            self.buf.resize(self.buf.len() * 2, 0);
                        }
                    }
                    match self.stream.read(&mut self.buf[self.end..]) {
                        Ok(n) if n > 0 => self.end += n,
                        _ => {
                            self.dead = true;
                            return failed + (replies - answered) as u64;
                        }
                    }
                }
            }
        }
        failed
    }
}

/// What one phase measured, accumulated over every slice of the run.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// Wall seconds of each round, both connections included.
    pub round_secs: Vec<f64>,
    /// Round trip of every burst, microseconds; for the paced phase, from the
    /// moment the burst was due.
    pub latency_us: Vec<f64>,
    /// Median and third quartile of each round's burst round trips.
    pub round_p50_us: Vec<f64>,
    pub round_p75_us: Vec<f64>,
    /// Paced phase: how long after its due time each send went out.
    pub late_us: Vec<f64>,
    pub cmds_per_round: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Wall and process-CPU seconds over the phase's slices.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Bursts each connection has sent so far.
    sent: usize,
}

impl PhaseResult {
    pub fn round_kops(&self) -> Vec<f64> {
        self.round_secs
            .iter()
            .map(|&s| self.cmds_per_round as f64 / s / 1e3)
            .collect()
    }
}

/// What one connection's thread brings back from a call to [`drive`]: round
/// seconds, burst latencies, paced lateness, failed operations.
type ConnMeasured = (Vec<f64>, Vec<f64>, Vec<f64>, u64);

/// Sends the next `rounds` rounds of `bursts_per_round` bursts of `burst`
/// commands per connection from `input`, adding what they measured to
/// `result`. The clients meet at a barrier between rounds, so a round's time
/// covers the slower connection. With `pace`, burst `i` of a connection is
/// due `i × pace` after the call starts and is sent then, whether or not the
/// server has caught up: an open loop. Returns the call's wall seconds and
/// commands, for the tracer.
fn drive(
    clients: &mut [Client],
    input: &PhaseInput,
    result: &mut PhaseResult,
    burst: usize,
    rounds: usize,
    bursts_per_round: usize,
    pace: Option<Duration>,
) -> (f64, u64) {
    if rounds * bursts_per_round == 0 {
        return (0.0, 0);
    }
    let first = result.sent;
    let barrier = Barrier::new(clients.len());
    let cpu_before = crate::procfs::process_cpu_secs();
    let wall = Instant::now();
    let per_conn: Vec<ConnMeasured> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(input)
            .map(|(client, conn)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut round_secs = Vec::with_capacity(rounds);
                    let mut latency = Vec::with_capacity(rounds * bursts_per_round);
                    let mut late = Vec::new();
                    let mut failed = 0u64;
                    let mut sent = first;
                    barrier.wait();
                    let call_start = Instant::now();
                    for _ in 0..rounds {
                        let round_start = Instant::now();
                        for _ in 0..bursts_per_round {
                            let lo = sent * burst;
                            let hi = lo + burst;
                            let from = if lo == 0 {
                                0
                            } else {
                                conn.ends[lo - 1] as usize
                            };
                            let wire = &conn.wire[from..conn.ends[hi - 1] as usize];
                            let start = match pace {
                                None => Instant::now(),
                                Some(period) => {
                                    let due = call_start + period * (sent - first) as u32;
                                    while let Some(wait) =
                                        due.checked_duration_since(Instant::now())
                                    {
                                        if wait > Duration::from_micros(200) {
                                            std::thread::sleep(wait - Duration::from_micros(100));
                                        } else {
                                            std::hint::spin_loop();
                                        }
                                    }
                                    late.push((Instant::now() - due).as_secs_f64() * 1e6);
                                    due
                                }
                            };
                            let cmds = &conn.cmds[lo..hi];
                            failed +=
                                client.exchange(wire, burst, |i, head| reply_ok(&cmds[i], head));
                            latency.push(start.elapsed().as_secs_f64() * 1e6);
                            sent += 1;
                        }
                        barrier.wait();
                        round_secs.push(round_start.elapsed().as_secs_f64());
                    }
                    (round_secs, latency, late, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = wall.elapsed().as_secs_f64();
    result.wall_s += wall_s;
    result.cpu_s += crate::procfs::process_cpu_secs() - cpu_before;
    result.cmds_per_round = (clients.len() * bursts_per_round * burst) as u64;
    let cmds = result.cmds_per_round * rounds as u64;
    result.attempted += cmds;
    result.sent += rounds * bursts_per_round;
    for round in 0..rounds {
        let of_round = round * bursts_per_round..(round + 1) * bursts_per_round;
        let mut both: Vec<f64> = per_conn
            .iter()
            .flat_map(|conn| conn.1[of_round.clone()].iter().copied())
            .collect();
        both.sort_by(f64::total_cmp);
        result.round_p50_us.push(quantile_sorted(&both, 0.5));
        result.round_p75_us.push(quantile_sorted(&both, 0.75));
    }
    for (i, (round_secs, latency, late, failed)) in per_conn.into_iter().enumerate() {
        if i == 0 {
            result.round_secs.extend(round_secs);
        }
        result.latency_us.extend(latency);
        result.late_us.extend(late);
        result.failed += failed;
    }
    (wall_s, cmds)
}

/// What the serve section measured.
#[derive(Debug, Default)]
pub struct ServeResult {
    /// Open, preload and spawn: the serve part of set-up.
    pub setup_s: f64,
    pub ingest: PhaseResult,
    pub mix: PhaseResult,
    pub rtt: PhaseResult,
    pub paced: PhaseResult,
    pub recover_secs: Vec<f64>,
    pub dir_bytes: u64,
    pub distinct_edges: u64,
    /// Commands the recovered server replayed from its log.
    pub ops_replayed: u64,
    pub read_counters: ReadCounters,
    pub attempted: u64,
    pub failed: u64,
}

fn open_durable(dir: &str) -> (DurableServer<StdVfs>, u64) {
    let (durable, report) = DurableServer::open(StdVfs, DurabilityConfig::new(dir), Server::new)
        .expect("open the durable server in the benchmark's scratch directory");
    (durable, report.ops_replayed)
}

/// Sends `commands` through `execute_batch` in writer-sized batches and
/// returns how many replies `ok` rejected.
pub fn batch_execute<V: graph_durability::Vfs>(
    durable: &mut DurableServer<V>,
    commands: &[Vec<String>],
    ok: impl Fn(&Reply) -> bool,
) -> u64 {
    commands
        .chunks(WRITER_BATCH)
        .flat_map(|batch| durable.execute_batch(batch))
        .filter(|reply| !ok(reply))
        .count() as u64
}

pub fn add_command(e: Edge) -> Vec<String> {
    vec!["GRAPH.ADDEDGE".into(), e.0.to_string(), e.1.to_string()]
}

/// Bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A served reactor with its two client connections. The run calls
/// `ingest`, `mix` and `rtt` slice by slice, then `finish`.
#[derive(Debug)]
pub struct Session<'a> {
    w: &'a Workload,
    inputs: &'a ServeInputs,
    dir: String,
    reactor: Reactor,
    clients: Vec<Client>,
    result: ServeResult,
    sent_paced: bool,
}

impl<'a> Session<'a> {
    /// Opens a fresh directory (removed by `finish`), preloads through
    /// `execute_batch`, spawns the reactor and connects.
    pub fn start(w: &'a Workload, inputs: &'a ServeInputs, dir: &str) -> Self {
        let _ = std::fs::remove_dir_all(dir);
        let mut result = ServeResult::default();
        let setup = Instant::now();
        let (mut durable, _) = open_durable(dir);
        let preload: Vec<Vec<String>> = inputs.preload.iter().map(|&e| add_command(e)).collect();
        result.failed += batch_execute(&mut durable, &preload, |reply| *reply == Reply::Ok);
        result.attempted += preload.len() as u64;
        drop(preload);
        let reactor = Reactor::spawn(durable, ServerConfig::new()).expect("spawn the reactor");
        let clients = (0..CONNECTIONS)
            .map(|_| Client::connect(reactor.addr()).expect("connect to the reactor"))
            .collect();
        result.setup_s = setup.elapsed().as_secs_f64();
        Self {
            w,
            inputs,
            dir: dir.to_string(),
            reactor,
            clients,
            result,
            sent_paced: false,
        }
    }

    /// Stops the reactor and removes the directory without measuring
    /// anything more: set-up is timed several times and all but the last
    /// session are discarded.
    pub fn discard(self) {
        drop(self.clients);
        self.reactor.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Seconds `start` took: open, preload, spawn, connect.
    pub fn setup_secs(&self) -> f64 {
        self.result.setup_s
    }

    /// The next `rounds` rounds of pure `ADDEDGE` bursts. Like `mix`, `rtt`
    /// and `paced`, returns the call's wall seconds and commands.
    pub fn ingest(&mut self, rounds: usize) -> (f64, u64) {
        let per_round = self.w.bursts_per_round;
        drive(
            &mut self.clients,
            &self.inputs.ingest,
            &mut self.result.ingest,
            BURST,
            rounds,
            per_round,
            None,
        )
    }

    /// The next `rounds` rounds of the workload's command mix.
    pub fn mix(&mut self, rounds: usize) -> (f64, u64) {
        let per_round = self.w.bursts_per_round;
        drive(
            &mut self.clients,
            &self.inputs.mix,
            &mut self.result.mix,
            BURST,
            rounds,
            per_round,
            None,
        )
    }

    /// The next `trips` depth-1 round trips on each connection.
    pub fn rtt(&mut self, trips: usize) -> (f64, u64) {
        drive(
            &mut self.clients,
            &self.inputs.rtt,
            &mut self.result.rtt,
            1,
            1,
            trips,
            None,
        )
    }

    /// The open-loop phase: every paced command at its due time.
    pub fn paced(&mut self) -> (f64, u64) {
        self.sent_paced = true;
        let period = Duration::from_nanos(1_000_000_000 * CONNECTIONS as u64 / PACED_RATE);
        let trips = self.inputs.paced[0].cmds.len();
        drive(
            &mut self.clients,
            &self.inputs.paced,
            &mut self.result.paced,
            1,
            1,
            trips,
            Some(period),
        )
    }

    /// Checks the live edge count, shuts the reactor down, and times clean
    /// restarts of the directory. `sabotage` expects one edge more than was
    /// written, which a correct run must report as failures.
    pub fn finish(mut self, sabotage: bool) -> ServeResult {
        let mut r = std::mem::take(&mut self.result);
        r.distinct_edges = if self.sent_paced {
            self.inputs.distinct_edges_paced
        } else {
            self.inputs.distinct_edges
        };
        let expected = r.distinct_edges as i64 + i64::from(sabotage);

        // Every write was acknowledged, so the count is exact by now.
        let mut wire = Vec::new();
        encode_command(&mut wire, &["GRAPH.EDGECOUNT".to_string()]);
        r.failed += self.clients[0].exchange(&wire, 1, |_, head| head == Head::Int(expected));
        r.attempted += 1;
        r.read_counters = self.reactor.read_counters();
        drop(self.clients);
        self.reactor.shutdown();

        // Clean restart: the log must rebuild exactly what was acknowledged.
        r.dir_bytes = dir_bytes(&self.dir);
        for reopen in 0..REOPENS {
            let start = Instant::now();
            let (mut durable, replayed) = open_durable(&self.dir);
            r.recover_secs.push(start.elapsed().as_secs_f64());
            r.ops_replayed = replayed;
            let count = durable.execute_batch(&[vec!["GRAPH.EDGECOUNT".to_string()]]);
            r.attempted += 1;
            r.failed += u64::from(count != [Reply::Integer(expected)]);
            if reopen + 1 == REOPENS {
                let lookups: Vec<Vec<String>> = self
                    .inputs
                    .sample
                    .iter()
                    .map(|e| vec!["GRAPH.HASEDGE".into(), e.0.to_string(), e.1.to_string()])
                    .collect();
                r.failed +=
                    batch_execute(&mut durable, &lookups, |reply| *reply == Reply::Integer(1));
                r.attempted += lookups.len() as u64;
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);

        for phase in [&r.ingest, &r.mix, &r.rtt, &r.paced] {
            r.attempted += phase.attempted;
            r.failed += phase.failed;
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::WORKLOADS;
    use crate::gen::edge_stream;
    use kvstore::RespValue;

    #[test]
    fn command_encoding_matches_the_servers_codec() {
        for cmd in [
            Cmd {
                kind: Kind::Add,
                present: true,
                u: 17,
                v: 4_000_000_000,
            },
            Cmd {
                kind: Kind::Has,
                present: false,
                u: 0,
                v: 9,
            },
            Cmd {
                kind: Kind::Deg,
                present: true,
                u: 123_456,
                v: 0,
            },
            Cmd {
                kind: Kind::Succ,
                present: true,
                u: 7,
                v: 0,
            },
        ] {
            let parts = cmd.parts();
            let mut wire = Vec::new();
            encode_command(&mut wire, &parts);
            let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
            assert_eq!(wire, RespValue::command(&refs).encode().to_vec());
        }
    }

    #[test]
    fn replies_scan_whole_or_not_at_all() {
        let cases: [(&[u8], Head); 7] = [
            (b"+OK\r\n", Head::Ok),
            (b"+PONG\r\n", Head::Simple),
            (b"-ERR no\r\n", Head::Error),
            (b":-12\r\n", Head::Int(-12)),
            (b"$3\r\nabc\r\n", Head::Bulk),
            (b"$-1\r\n", Head::Null),
            (b"*2\r\n$1\r\n7\r\n$2\r\n42\r\n", Head::Array(2)),
        ];
        for (bytes, head) in cases {
            assert_eq!(scan_reply(bytes), Some((head, bytes.len())));
            for cut in 0..bytes.len() {
                assert_eq!(scan_reply(&bytes[..cut]), None, "cut at {cut}");
            }
            let mut two = bytes.to_vec();
            two.extend_from_slice(b":1\r\n");
            assert_eq!(scan_reply(&two), Some((head, bytes.len())));
        }
        assert_eq!(scan_reply(b"*0\r\n"), Some((Head::Array(0), 4)));
        assert_eq!(scan_reply(b"?what\r\n").unwrap().0, Head::Error);
        assert_eq!(scan_reply(b":x\r\n").unwrap().0, Head::Error);
    }

    #[test]
    fn replies_are_judged_against_the_command() {
        let has = |present| Cmd {
            kind: Kind::Has,
            present,
            u: 1,
            v: 2,
        };
        assert!(reply_ok(&has(true), Head::Int(1)) && !reply_ok(&has(true), Head::Int(0)));
        assert!(reply_ok(&has(false), Head::Int(0)) && !reply_ok(&has(false), Head::Error));
        let succ = Cmd {
            kind: Kind::Succ,
            present: true,
            u: 1,
            v: 0,
        };
        assert!(reply_ok(&succ, Head::Array(3)) && !reply_ok(&succ, Head::Array(0)));
        let add = Cmd {
            kind: Kind::Add,
            present: true,
            u: 1,
            v: 2,
        };
        assert!(reply_ok(&add, Head::Ok) && !reply_ok(&add, Head::Simple));
    }

    #[test]
    fn inputs_follow_the_mix_and_count_their_writes() {
        let w = WORKLOADS[4].sized(12, true);
        let mut rng = SplitMix64::new(21);
        let stream = edge_stream(w.shape, w.stream_edges, &mut rng);
        let inputs = ServeInputs::new(&w, &stream, &mut rng);
        let all: Vec<Cmd> = inputs
            .phases()
            .flat_map(|p| p.iter().flat_map(|c| c.cmds.iter().copied()))
            .collect();
        let writes = all.iter().filter(|c| c.is_write()).count() + inputs.preload.len();
        assert_eq!(
            inputs.paced.iter().map(|c| c.cmds.len()).sum::<usize>(),
            w.paced_cmds
        );
        assert_eq!(inputs.distinct_edges_paced, writes as u64);
        let paced_writes = inputs
            .paced
            .iter()
            .flat_map(|c| &c.cmds)
            .filter(|c| c.is_write())
            .count();
        assert_eq!(inputs.distinct_edges, (writes - paced_writes) as u64);
        assert!(inputs
            .ingest
            .iter()
            .all(|c| c.cmds.iter().all(Cmd::is_write)));
        let mix: Vec<&Cmd> = inputs.mix.iter().flat_map(|c| &c.cmds).collect();
        let share = mix.iter().filter(|c| c.is_write()).count() as f64 / mix.len() as f64;
        assert!((share - 0.5).abs() < 0.1, "write share {share}");
        assert_eq!(inputs.mix[0].cmds.len(), inputs.mix[1].cmds.len());
        assert_eq!(inputs.mix[0].ends.len(), inputs.mix[0].cmds.len());
        let replay = ServeInputs::interleaved(&inputs.mix, BURST);
        assert_eq!(replay.len(), mix.len());
        assert_eq!(replay[BURST], inputs.mix[1].cmds[0]);
    }

    #[test]
    fn a_smoke_sized_section_serves_recovers_and_checks_itself() {
        let w = WORKLOADS[3].sized(12, true);
        let mut rng = SplitMix64::new(22);
        let stream = edge_stream(w.shape, w.stream_edges, &mut rng);
        let inputs = ServeInputs::new(&w, &stream, &mut rng);
        let dir = crate::scratch_dir("serve-test");
        let section = |paced: bool, sabotage: bool| {
            let mut session = Session::start(&w, &inputs, &dir);
            for slice in 0..crate::catalogue::SLICES {
                session.ingest(slice_share(w.ingest_rounds, slice));
                session.mix(slice_share(w.mix_rounds, slice));
                session.rtt(slice_share(w.rtt_trips, slice));
            }
            if paced {
                session.paced();
            }
            session.finish(sabotage)
        };
        let good = section(true, false);
        assert_eq!(good.failed, 0);
        assert_eq!(good.recover_secs.len(), REOPENS);
        assert_eq!(good.ops_replayed, inputs.distinct_edges_paced);
        assert_eq!(good.mix.round_secs.len(), w.mix_rounds);
        assert_eq!(good.mix.round_p50_us.len(), w.mix_rounds);
        assert_eq!(good.rtt.round_p75_us.len(), crate::catalogue::SLICES);
        assert_eq!(
            good.mix.latency_us.len(),
            w.mix_rounds * w.bursts_per_round * CONNECTIONS
        );
        assert_eq!(good.paced.late_us.len(), w.paced_cmds);
        assert_eq!(good.rtt.latency_us.len(), w.rtt_trips * CONNECTIONS);
        assert!(good.dir_bytes > 0 && good.read_counters.read_pins > 0);
        // One failure from the live count, one from each reopen.
        let bad = section(false, true);
        assert_eq!(bad.failed, 1 + REOPENS as u64);
    }
}
