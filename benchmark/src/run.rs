//! One run of one workload: set-up, the library section, the serve section
//! and, for a traced run, the layer replays; then the metrics.
//!
//! A run does a fixed amount of work for its `(workload, seed, seconds)`:
//! no clock decides how many rounds run, so operation counts, memory and log
//! sizes repeat exactly and only the timings vary.

use crate::catalogue::{slice_share, Workload, END_TO_END, NOMINAL_SECONDS, PER_LAYER, SLICES};
use crate::gen::{edge_stream, Edge, Fingerprint, SplitMix64};
use crate::json::Json;
use crate::layers::{self, LayerCosts};
use crate::library::{churn_round, lib_round, ChurnRound, LibInputs, LibRound};
use crate::procfs::{self, CpuTimes};
use crate::serve::{PhaseResult, ServeInputs, ServeResult, Session};
use crate::stats::{median, quantile_sorted, sorted, tail_percentile, undisturbed_secs, Summary};
use crate::trace::Tracer;
use cuckoograph::{CuckooGraph, StructureStats};
use graph_baselines::SpruceGraph;
use std::time::Instant;

/// Rounds whose share of stolen CPU time is above this are flagged.
pub const STEAL_FLAG_PCT: f64 = 5.0;
/// Steal is counted in 10 ms ticks, so shorter intervals are merged.
const STEAL_MIN_SECS: f64 = 0.25;
/// Times each half of set-up is repeated per run.
const SETUPS: usize = 3;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    pub trace: bool,
    /// Test hook: expect one edge more than the run writes.
    pub sabotage: bool,
}

/// The seed `cgbench all` and `benchmark/run.sh` use when none is given, and
/// the one `fingerprints.json` was recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// The stream fingerprint recorded for `workload` at the default seed and
/// the nominal `--seconds`, full size or smoke size.
pub fn recorded_fingerprint(workload: &str, smoke: bool) -> Option<String> {
    let recorded = Json::parse(include_str!("../fingerprints.json")).ok()?;
    let size = if smoke { "smoke" } else { "full" };
    Some(recorded.get(size)?.get(workload)?.as_str()?.to_string())
}

/// Everything a run feeds the program under test.
#[derive(Debug)]
pub struct Inputs {
    pub stream: Vec<Edge>,
    pub lib: LibInputs,
    pub serve: ServeInputs,
    pub fingerprint: u64,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let stream = edge_stream(w.shape, w.stream_edges, &mut rng);
        let lib = LibInputs::new(&stream[..w.lib_edges], w.shape.ids(), &mut rng);
        let serve = ServeInputs::new(w, &stream, &mut rng);
        let mut fp = Fingerprint::default();
        fp.edges(&stream);
        lib.fingerprint(&mut fp);
        serve.fingerprint(&mut fp);
        Self {
            stream,
            lib,
            serve,
            fingerprint: fp.finish(),
        }
    }
}

/// One reported number with the samples it was taken from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Per-round or per-sample summary, where the value is a statistic.
    pub samples: Option<Summary>,
    /// The highest percentile with at least ten samples beyond it.
    pub tail: Option<(&'static str, f64)>,
}

#[derive(Debug, Clone)]
pub struct StealSample {
    pub section: String,
    pub secs: f64,
    pub pct: f64,
}

/// Samples machine-wide steal between section boundaries.
#[derive(Debug)]
struct StealLog {
    last: (Instant, CpuTimes),
    samples: Vec<StealSample>,
}

impl StealLog {
    fn new() -> Self {
        Self {
            last: (Instant::now(), procfs::machine_cpu()),
            samples: Vec::new(),
        }
    }

    /// Closes the interval since the last mark under `section`, unless it is
    /// too short to read steal from; then it runs on into the next one.
    fn mark(&mut self, section: impl Into<String>) {
        let secs = self.last.0.elapsed().as_secs_f64();
        if secs < STEAL_MIN_SECS {
            return;
        }
        let now = procfs::machine_cpu();
        self.samples.push(StealSample {
            section: section.into(),
            secs,
            pct: procfs::steal_pct(self.last.1, now),
        });
        self.last = (Instant::now(), now);
    }
}

#[derive(Debug)]
pub struct Outcome {
    pub options: Options,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub steal: Vec<StealSample>,
    pub cores: usize,
    pub wall_s: f64,
    pub fingerprint: u64,
    /// Traced run: the cost ledger, one line per served phase.
    pub ledger: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The line the driver reads.
    pub fn contract_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The record `all` merges into `results.json`.
    pub fn to_json(&self) -> Json {
        let o = &self.options;
        Json::obj([
            ("workload", Json::str(o.workload.name)),
            ("seed", Json::Num(o.seed as f64)),
            ("seconds", Json::Num(o.seconds as f64)),
            ("smoke", Json::Bool(o.smoke)),
            ("trace", Json::Bool(o.trace)),
            ("correct", Json::Bool(self.correct())),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            ("wall_s", Json::Num(self.wall_s)),
            ("cores", Json::Num(self.cores as f64)),
            (
                "stream_fingerprint",
                Json::str(format!("{:016x}", self.fingerprint)),
            ),
            (
                "metrics",
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let mut fields = vec![
                                ("name", Json::str(m.name)),
                                ("unit", Json::str(m.unit)),
                                ("value", Json::Num(m.value)),
                            ];
                            if let Some(s) = &m.samples {
                                fields.push((
                                    "samples",
                                    Json::obj([
                                        ("n", Json::Num(s.n as f64)),
                                        ("min", Json::Num(s.min)),
                                        ("q1", Json::Num(s.q1)),
                                        ("median", Json::Num(s.median)),
                                        ("q3", Json::Num(s.q3)),
                                        ("max", Json::Num(s.max)),
                                    ]),
                                ));
                            }
                            if let Some((label, value)) = m.tail {
                                fields.push(("tail", Json::obj([(label, Json::Num(value))])));
                            }
                            Json::obj(fields)
                        })
                        .collect(),
                ),
            ),
            (
                "steal",
                Json::Arr(
                    self.steal
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("section", Json::str(s.section.clone())),
                                ("secs", Json::Num(s.secs)),
                                ("pct", Json::Num(s.pct)),
                                ("flagged", Json::Bool(s.pct > STEAL_FLAG_PCT)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "ledger",
                Json::Arr(self.ledger.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// The library section: rounds and sawtooth rounds run one at a time as the
/// run's slices call for them, and what they measured.
#[derive(Debug)]
struct Library<'a> {
    w: &'a Workload,
    inputs: &'a Inputs,
    opts: &'a Options,
    plain: Vec<LibRound>,
    traced: Vec<LibRound>,
    churn: Vec<ChurnRound>,
    /// Structure counters with every library edge in, and at the end of a
    /// sawtooth round.
    high_water: StructureStats,
    after_churn: StructureStats,
    bfs_ms: f64,
    spruce: Option<LibRound>,
}

impl<'a> Library<'a> {
    fn new(w: &'a Workload, inputs: &'a Inputs, opts: &'a Options) -> Self {
        Self {
            w,
            inputs,
            opts,
            plain: Vec::new(),
            traced: Vec::new(),
            churn: Vec::new(),
            high_water: StructureStats::default(),
            after_churn: StructureStats::default(),
            bfs_ms: 0.0,
            spruce: None,
        }
    }

    /// The stream prefix the library rounds run on.
    fn edges(&self) -> &'a [Edge] {
        &self.inputs.stream[..self.w.lib_edges]
    }

    /// One insert/probe/scan/delete round on a fresh graph. A traced run
    /// traces every other round, so the tracing overhead compares
    /// neighbours in one process.
    fn round(&mut self, tracer: Option<&mut Tracer>) {
        let mut g = CuckooGraph::new();
        let edges = self.edges();
        let stats = |g: &CuckooGraph| Some(g.stats());
        let index = self.plain.len() + self.traced.len();
        match tracer {
            Some(tracer) if index % 2 == 1 => {
                tracer.round = index as u32;
                let span = tracer.open("round", None);
                let first = self.traced.is_empty();
                let (high_water, bfs_ms) = (&mut self.high_water, &mut self.bfs_ms);
                let r = lib_round(
                    &mut g,
                    edges,
                    &self.inputs.lib,
                    self.w.scan_passes,
                    Some((tracer, span)),
                    &stats,
                    &mut |g| {
                        if first {
                            *high_water = g.stats();
                            let start = Instant::now();
                            std::hint::black_box(graph_analytics::bfs_from_top_degree(g, 1));
                            *bfs_ms = start.elapsed().as_secs_f64() * 1e3;
                        }
                    },
                );
                tracer.close(span, r.attempted);
                self.traced.push(r);
            }
            _ => self.plain.push(lib_round(
                &mut g,
                edges,
                &self.inputs.lib,
                self.w.scan_passes,
                None,
                &stats,
                &mut |_| {},
            )),
        }
    }

    /// One sawtooth round on a fresh graph.
    fn churn_round(&mut self, tracer: Option<&mut Tracer>) {
        let mut g = CuckooGraph::new();
        // The same probes every round: rounds repeat the same work exactly.
        let mut rng = SplitMix64::new(self.opts.seed ^ 0x5A17_7007);
        let start = Instant::now();
        let r = churn_round(
            &mut g,
            &self.inputs.stream,
            self.w.shape.ids(),
            self.w.churn_window(self.opts.smoke),
            self.w.churn_mutations,
            &mut rng,
        );
        if let Some(t) = tracer {
            t.round = self.churn.len() as u32;
            t.record_ended("churn", None, start.elapsed().as_secs_f64(), 0.0, r.ops);
        }
        self.after_churn = g.stats();
        self.churn.push(r);
    }

    /// The Spruce yardstick: one round of the same inputs.
    fn spruce_round(&mut self) {
        self.spruce = Some(lib_round(
            &mut SpruceGraph::new(),
            self.edges(),
            &self.inputs.lib,
            self.w.scan_passes,
            None,
            &|_| None,
            &mut |_| {},
        ));
    }
}

fn mops(ops: f64, secs: f64) -> f64 {
    ops / secs / 1e6
}

fn summarised(name: &'static str, value_of: impl Fn(&Summary) -> f64, samples: &[f64]) -> Metric {
    let summary = Summary::of(samples);
    Metric {
        name,
        unit: unit_of(name),
        value: value_of(&summary),
        samples: Some(summary),
        tail: None,
    }
}

fn plain(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit: unit_of(name),
        value,
        samples: None,
        tail: None,
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

/// Picks one phase's chunk times out of a library round.
type Phase<'a> = &'a dyn Fn(&LibRound) -> &Vec<f64>;

fn end_to_end_metrics(
    w: &Workload,
    setup: &(Summary, Summary),
    rss_mb: f64,
    lib: &Library<'_>,
    served: &ServeResult,
) -> Vec<Metric> {
    let n = w.lib_edges as f64;
    let scanned = n * w.scan_passes as f64;
    // Library throughput: operations over the undisturbed time of a round,
    // with the per-round throughputs beside it for the spread.
    let library = |name, ops: f64, phases: &[Phase<'_>]| {
        let secs: f64 = phases
            .iter()
            .map(|phase| {
                let rounds: Vec<&[f64]> = lib.plain.iter().map(|r| phase(r).as_slice()).collect();
                undisturbed_secs(&rounds)
            })
            .sum();
        let per_round: Vec<f64> = lib
            .plain
            .iter()
            .map(|r| {
                mops(
                    ops,
                    phases
                        .iter()
                        .map(|phase| phase(r).iter().sum::<f64>())
                        .sum(),
                )
            })
            .collect();
        Metric {
            value: mops(ops, secs),
            ..summarised(name, |s| s.median, &per_round)
        }
    };
    let churn_ops = lib.churn[0].ops as f64;
    let churn_rounds: Vec<&[f64]> = lib.churn.iter().map(|r| r.chunks.as_slice()).collect();
    let churn_per_round: Vec<f64> = lib
        .churn
        .iter()
        .map(|r| mops(churn_ops, r.chunks.iter().sum()))
        .collect();
    vec![
        // Least of each half: interference only ever adds time.
        plain("setup_s", setup.0.min + setup.1.min),
        library("insert_mops", n, &[&|r| &r.insert]),
        library("query_mops", 2.0 * n, &[&|r| &r.hit, &|r| &r.miss]),
        library("delete_mops", n, &[&|r| &r.delete]),
        library("scan_medges_s", scanned, &[&|r| &r.scan]),
        Metric {
            value: mops(churn_ops, undisturbed_secs(&churn_rounds)),
            ..summarised("mixed_mops", |s| s.median, &churn_per_round)
        },
        plain("bytes_per_edge", lib.plain[0].memory_bytes as f64 / n),
        plain("rss_mb", rss_mb),
        // Served rounds are alike but not identical, so instead of the least
        // reading they report the quieter quarter: the upper quartile of
        // throughput, the lower quartile of the rounds' latency quantiles.
        summarised("serve_kops", |s| s.q3, &served.mix.round_kops()),
        summarised("ingest_kops", |s| s.q3, &served.ingest.round_kops()),
        Metric {
            tail: tail_percentile(&sorted(&served.mix.latency_us)),
            ..summarised("burst_p50_us", |s| s.q1, &served.mix.round_p50_us)
        },
        Metric {
            tail: tail_percentile(&sorted(&served.rtt.latency_us)),
            ..summarised("rtt_p75_us", |s| s.q1, &served.rtt.round_p75_us)
        },
        summarised("recover_s", |s| s.min, &served.recover_secs),
        plain(
            "log_bytes_per_edge",
            served.dir_bytes as f64 / served.distinct_edges.max(1) as f64,
        ),
    ]
}

fn cpu_us_per_op(phase: &PhaseResult) -> f64 {
    phase.cpu_s * 1e6 / phase.attempted.max(1) as f64
}

/// The per-layer metrics of a traced run, and the ledger lines.
fn per_layer_metrics(
    w: &Workload,
    inputs: &Inputs,
    lib: &Library<'_>,
    served: &ServeResult,
    costs: &LayerCosts,
    steal_pct: f64,
    cores: usize,
) -> (Vec<Metric>, Vec<String>) {
    let mut ledger = Vec::new();
    let n = w.lib_edges as f64;
    // Undisturbed seconds of one phase over a set of rounds, as in the
    // end-to-end metrics.
    let steady = |rounds: &[LibRound], phase: Phase<'_>| {
        undisturbed_secs(
            &rounds
                .iter()
                .map(|r| phase(r).as_slice())
                .collect::<Vec<_>>(),
        )
    };
    let traced_ns = |phase: Phase<'_>, ops: f64| steady(&lib.traced, phase) * 1e9 / ops;
    let hw = &lib.high_water;
    let ch = &lib.after_churn;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let scanned_nodes = (w.scan_passes * inputs.lib.sources.len()) as f64;
    let scanned_edges = n * w.scan_passes as f64;

    let point_phases: [Phase<'_>; 4] = [&|r| &r.insert, &|r| &r.hit, &|r| &r.miss, &|r| &r.delete];
    let total = |rounds: &[LibRound]| point_phases.iter().map(|p| steady(rounds, *p)).sum::<f64>();
    let (plain_total, traced_total) = (total(&lib.plain), total(&lib.traced));

    let paced = &served.paced;
    let paced_sorted = sorted(&paced.latency_us);
    let mix_sorted = sorted(&served.mix.latency_us);
    let rtt_sorted = sorted(&served.rtt.latency_us);

    // The ledger: per served phase, the layers replayed from outside plus the
    // residual (sockets, queues, wake-ups, the clients) equal the CPU the
    // process spent per command.
    let mix_cmds: Vec<_> = inputs.serve.mix.iter().flat_map(|c| &c.cmds).collect();
    let write_share =
        mix_cmds.iter().filter(|c| c.is_write()).count() as f64 / mix_cmds.len() as f64;
    let encode_mix_ns =
        write_share * costs.encode_ok_ns + (1.0 - write_share) * costs.encode_read_ns;
    let write_cpu = cpu_us_per_op(&served.ingest);
    let write_layers = [
        ("persist.batch", costs.persist_batch_ns / 1e3),
        ("resp.decode", costs.decode_ingest_ns / 1e3),
        ("resp.encode", costs.encode_ok_ns / 1e3),
    ];
    let mix_cpu = cpu_us_per_op(&served.mix);
    let mix_layers = [
        ("persist.batch", write_share * costs.persist_batch_ns / 1e3),
        (
            "server.read",
            (1.0 - write_share) * costs.server_read_ns / 1e3,
        ),
        ("resp.decode", costs.decode_mix_ns / 1e3),
        ("resp.encode", encode_mix_ns / 1e3),
    ];
    let mut residual = |phase: &str, cpu: f64, layers: &[(&str, f64)]| {
        let layered: f64 = layers.iter().map(|l| l.1).sum();
        let terms: Vec<String> = layers
            .iter()
            .map(|(name, us)| format!("{name} {us:.3}"))
            .collect();
        ledger.push(format!(
            "{phase}: {} + residual {:.3} = cpu {cpu:.3} us/cmd",
            terms.join(" + "),
            cpu - layered
        ));
        cpu - layered
    };
    let write_residual = residual("ingest", write_cpu, &write_layers);
    let mix_residual = residual("mix", mix_cpu, &mix_layers);

    let spruce = lib
        .spruce
        .as_ref()
        .expect("a traced run times the yardstick");
    let values: Vec<(&'static str, f64)> = vec![
        ("core.insert_ns", traced_ns(&|r| &r.insert, n)),
        ("core.query_hit_ns", traced_ns(&|r| &r.hit, n)),
        ("core.query_miss_ns", traced_ns(&|r| &r.miss, n)),
        ("core.delete_ns", traced_ns(&|r| &r.delete, n)),
        (
            "core.scan_ns_per_node",
            traced_ns(&|r| &r.scan, scanned_nodes),
        ),
        (
            "core.lcht_placements_per_item",
            ratio(hw.lcht_placements, hw.lcht_items),
        ),
        (
            "core.lcht_load",
            100.0 * ratio(hw.nodes as u64, hw.lcht_cells as u64),
        ),
        ("core.l_denylist_len", hw.l_denylist_len as f64),
        (
            "core.scan_ns_per_edge",
            traced_ns(&|r| &r.scan, scanned_edges),
        ),
        (
            "core.scht_placements_per_item",
            ratio(hw.scht_placements, hw.scht_items),
        ),
        (
            "core.scht_slots_per_edge",
            ratio(hw.scht_slots as u64, hw.edges as u64),
        ),
        ("core.s_denylist_len", hw.s_denylist_len as f64),
        ("core.insertion_failures", hw.insertion_failures as f64),
        ("core.segment_bytes", hw.segment_bytes as f64),
        ("core.segment_compactions", ch.segment_compactions as f64),
        ("core.expansions", ch.expansions as f64),
        ("core.contractions", ch.contractions as f64),
        ("core.pool_hits", ch.pool_hits as f64),
        ("core.pool_misses", ch.pool_misses as f64),
        ("core.pool_retained_bytes", ch.pool_retained_bytes as f64),
        ("core.arena_blocks", ch.arena_blocks as f64),
        ("shard.ingest_ns", costs.shard_ingest_ns),
        (
            "shard.gate_overhead_ns",
            costs.shard_ingest_ns - costs.core_write_ns,
        ),
        ("shard.read_ns", costs.shard_read_ns),
        (
            "shard.pin_overhead_ns",
            costs.shard_read_ns - costs.core_read_ns,
        ),
        (
            "shard.reader_retries",
            served.read_counters.reader_retries as f64,
        ),
        ("shard.read_pins", served.read_counters.read_pins as f64),
        (
            "shard.epoch_advances",
            served.read_counters.epoch_advances as f64,
        ),
        ("oplog.bytes_per_op", costs.oplog_bytes_per_op),
        ("oplog.frames", costs.oplog_frames),
        ("oplog.syncs", costs.oplog_syncs),
        ("store.apply_ns", costs.store_apply_ns),
        ("store.recover_ns_per_op", costs.store_recover_ns_per_op),
        ("resp.decode_ns", costs.decode_mix_ns),
        ("resp.encode_ns", encode_mix_ns),
        ("server.write_ns", costs.server_write_ns),
        ("server.read_ns", costs.server_read_ns),
        ("persist.batch_ns", costs.persist_batch_ns),
        (
            "persist.self_ns",
            costs.persist_batch_ns - costs.shard_ingest_ns,
        ),
        ("persist.log_bytes_per_cmd", costs.persist_log_bytes_per_cmd),
        ("persist.syncs", costs.persist_syncs),
        ("persist.recover_ns_per_op", costs.persist_recover_ns_per_op),
        ("reactor.write_cpu_us_per_op", write_cpu),
        ("reactor.write_residual_us", write_residual),
        ("reactor.mix_cpu_us_per_op", mix_cpu),
        ("reactor.mix_residual_us", mix_residual),
        (
            "reactor.serve_kops_best",
            Summary::of(&served.mix.round_kops()).max,
        ),
        (
            "reactor.ingest_kops_best",
            Summary::of(&served.ingest.round_kops()).max,
        ),
        ("reactor.rtt_p50_us", quantile_sorted(&rtt_sorted, 0.5)),
        ("reactor.burst_p99_us", quantile_sorted(&mix_sorted, 0.99)),
        ("reactor.rtt_p99_us", quantile_sorted(&rtt_sorted, 0.99)),
        ("reactor.paced_p50_us", quantile_sorted(&paced_sorted, 0.5)),
        ("reactor.paced_p99_us", quantile_sorted(&paced_sorted, 0.99)),
        ("reactor.paced_late_us", median(&paced.late_us)),
        ("analytics.bfs_ms", lib.bfs_ms),
        (
            "baselines.spruce_insert_mops",
            mops(n, spruce.insert.iter().sum::<f64>()),
        ),
        (
            "baselines.spruce_query_mops",
            mops(
                2.0 * n,
                spruce.hit.iter().sum::<f64>() + spruce.miss.iter().sum::<f64>(),
            ),
        ),
        (
            "baselines.spruce_scan_medges_s",
            mops(scanned_edges, spruce.scan.iter().sum::<f64>()),
        ),
        (
            "baselines.spruce_bytes_per_edge",
            spruce.memory_bytes as f64 / n,
        ),
        ("harness.steal_pct", steal_pct),
        ("harness.cores", cores as f64),
        (
            "harness.trace_overhead_pct",
            100.0 * (traced_total / plain_total - 1.0),
        ),
        // 48 bits: every value is exact in a JSON number.
        (
            "harness.stream_fingerprint",
            (inputs.fingerprint & 0xFFFF_FFFF_FFFF) as f64,
        ),
    ];
    let metrics = values
        .into_iter()
        .map(|(name, value)| plain(name, value))
        .collect();
    (metrics, ledger)
}

/// Runs one workload once.
pub fn run(opts: Options) -> Outcome {
    let started = Instant::now();
    let machine_before = procfs::machine_cpu();
    let w = opts.workload.sized(opts.seconds, opts.smoke);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut steal = StealLog::new();
    let mut tracer = opts.trace.then(Tracer::default);

    // Set-up, several times over, each half on its own: generating the
    // inputs, then opening, preloading and spawning the server. The last of
    // each is the one the run goes on to use.
    let mut generate_secs = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(Inputs::generate(&w, opts.seed));
        generate_secs.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("SETUPS is at least one");
    let dir = crate::scratch_dir(&format!("{}-{}", w.name, std::process::id()));
    let mut serve_secs = Vec::with_capacity(SETUPS);
    let mut session = None;
    for _ in 0..SETUPS {
        if let Some(previous) = session.take() {
            Session::discard(previous);
        }
        let started = Session::start(&w, &inputs.serve, &format!("{dir}/served"));
        serve_secs.push(started.setup_secs());
        session = Some(started);
    }
    let mut session = session.expect("SETUPS is at least one");
    let setup = (Summary::of(&generate_secs), Summary::of(&serve_secs));
    steal.mark("set-up");

    // A traced run spends its time on layers instead of repeats.
    let (lib_rounds, churn_rounds) = if opts.trace {
        (w.lib_rounds.clamp(2, 8), 2)
    } else {
        (w.lib_rounds, w.churn_rounds)
    };
    let mut lib = Library::new(&w, &inputs, &opts);
    for slice in 0..SLICES {
        for _ in 0..slice_share(lib_rounds, slice) {
            lib.round(tracer.as_mut());
        }
        for _ in 0..slice_share(churn_rounds, slice) {
            lib.churn_round(tracer.as_mut());
        }
        let served = [
            (
                "serve.ingest",
                session.ingest(slice_share(w.ingest_rounds, slice)),
            ),
            ("serve.mix", session.mix(slice_share(w.mix_rounds, slice))),
            ("serve.rtt", session.rtt(slice_share(w.rtt_trips, slice))),
        ];
        if let Some(t) = tracer.as_mut() {
            // Back to back and just ended: lay the three out end to end.
            t.round = slice as u32;
            let mut later = 0.0;
            for (name, (secs, cmds)) in served.into_iter().rev() {
                t.record_ended(name, None, secs, later, cmds);
                later += secs;
            }
        }
        steal.mark(format!("slice {slice}"));
    }
    if opts.trace {
        lib.spruce_round();
        let (secs, cmds) = session.paced();
        if let Some(t) = tracer.as_mut() {
            t.record_ended("serve.paced", None, secs, 0.0, cmds);
        }
        steal.mark("spruce round and paced phase");
    }
    let rss_mb = procfs::peak_rss_mib();
    let served = session.finish(opts.sabotage);
    steal.mark("shutdown and recovery");

    let mut attempted = served.attempted;
    let mut failed = served.failed;
    for r in lib.plain.iter().chain(&lib.traced).chain(&lib.spruce) {
        attempted += r.attempted;
        failed += r.failed;
    }
    for r in &lib.churn {
        attempted += r.ops;
        failed += r.failed;
    }
    // The footprint is a function of the inputs alone: it may not differ
    // between rounds of one run.
    let footprints = lib.plain.iter().chain(&lib.traced).map(|r| r.memory_bytes);
    failed += u64::from(footprints.clone().min() != footprints.max());
    // Input drift: at the recorded seed and length the generator must still
    // produce the recorded stream, or numbers stop being comparable.
    if opts.seed == DEFAULT_SEED && opts.seconds == NOMINAL_SECONDS {
        let got = format!("{:016x}", inputs.fingerprint);
        if let Some(want) = recorded_fingerprint(w.name, opts.smoke).filter(|want| *want != got) {
            eprintln!(
                "{}: stream fingerprint {got} differs from the recorded {want}: the inputs drifted \
                 (`cgbench fingerprints` re-records them after a deliberate change)",
                w.name
            );
            failed += 1;
        }
    }

    let (metrics, ledger) = match tracer.as_mut() {
        None => (
            end_to_end_metrics(&w, &setup, rss_mb, &lib, &served),
            Vec::new(),
        ),
        Some(t) => {
            let costs = layers::replay(&inputs.serve, &format!("{dir}/replay"), t);
            steal.mark("layer replays");
            attempted += costs.attempted;
            failed += costs.failed;
            let whole_run = procfs::steal_pct(machine_before, procfs::machine_cpu());
            per_layer_metrics(&w, &inputs, &lib, &served, &costs, whole_run, cores)
        }
    };
    let _ = std::fs::remove_dir_all(&dir);

    Outcome {
        metrics,
        attempted,
        failed,
        steal: steal.samples,
        cores,
        wall_s: started.elapsed().as_secs_f64(),
        fingerprint: inputs.fingerprint,
        ledger,
        tracer,
        options: opts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{workload, WORKLOADS};

    fn smoke(name: &str, seed: u64, trace: bool, sabotage: bool) -> Outcome {
        run(Options {
            workload: workload(name).unwrap(),
            seed,
            seconds: 12,
            smoke: true,
            trace,
            sabotage,
        })
    }

    #[test]
    fn fingerprints_repeat_with_the_seed_and_differ_across_seeds() {
        for base in &WORKLOADS {
            let w = base.sized(12, true);
            let a = Inputs::generate(&w, 1).fingerprint;
            assert_eq!(a, Inputs::generate(&w, 1).fingerprint, "{}", w.name);
            assert_ne!(a, Inputs::generate(&w, 2).fingerprint, "{}", w.name);
        }
    }

    #[test]
    fn workload_streams_have_their_declared_shape() {
        let degrees = |name: &str| {
            let w = workload(name).unwrap().sized(NOMINAL_SECONDS, true);
            let stream = edge_stream(w.shape, w.stream_edges, &mut SplitMix64::new(DEFAULT_SEED));
            let mut degree = std::collections::BTreeMap::new();
            for &(u, _) in &stream {
                *degree.entry(u).or_insert(0usize) += 1;
            }
            let mut degrees: Vec<usize> = degree.into_values().collect();
            degrees.sort_unstable_by(|a, b| b.cmp(a));
            (stream.len(), degrees)
        };
        // dense_hubs at smoke size: exactly 100 sources of exactly 200 targets.
        let (edges, hubs) = degrees("dense_hubs");
        assert_eq!((edges, hubs.len()), (20_000, 100));
        assert!(hubs.iter().all(|&d| d == 200));
        // sparse_large: Zipf sources, so a hundredth of them hold far more
        // than a hundredth of the edges, and most sources stay small.
        let (edges, zipf) = degrees("sparse_large");
        let top: usize = zipf[..zipf.len() / 100].iter().sum();
        assert!(
            top * 100 > 8 * edges,
            "top 1% of sources hold {top} of {edges} edges"
        );
        assert!(
            zipf[zipf.len() / 2] <= 4,
            "median degree {}",
            zipf[zipf.len() / 2]
        );
    }

    #[test]
    fn default_seed_fingerprints_have_not_drifted() {
        for base in &WORKLOADS {
            let w = base.sized(NOMINAL_SECONDS, true);
            let got = format!("{:016x}", Inputs::generate(&w, DEFAULT_SEED).fingerprint);
            assert_eq!(
                Some(got),
                recorded_fingerprint(w.name, true),
                "{} (smoke)",
                w.name
            );
            assert!(
                recorded_fingerprint(w.name, false).is_some(),
                "{} (full)",
                w.name
            );
        }
    }

    #[test]
    fn an_untraced_run_reports_exactly_the_end_to_end_metrics() {
        let out = smoke("churn_window", 3, false, false);
        assert!(out.correct(), "{} of {} failed", out.failed, out.attempted);
        let names: Vec<_> = out.metrics.iter().map(|m| m.name).collect();
        let want: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        assert!(out
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));
        let line = out.contract_json().compact();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            parsed.get("metrics").and_then(Json::as_obj).map(<[_]>::len),
            Some(14)
        );
        assert!(out.tracer.is_none() && out.ledger.is_empty());
    }

    #[test]
    fn a_traced_run_reports_every_layer_and_closes_the_ledger() {
        let out = smoke("dense_hubs", 4, true, false);
        assert!(out.correct(), "{} of {} failed", out.failed, out.attempted);
        let names: Vec<_> = out.metrics.iter().map(|m| m.name).collect();
        let want: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));
        let value = |name: &str| out.metric(name).unwrap().value;
        // sum(layers) + residual = cpu per command, for both phases.
        assert_eq!(out.ledger.len(), 2);
        for line in &out.ledger {
            let nums: Vec<f64> = line
                .split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
                .filter_map(|t| t.parse().ok())
                .collect();
            let (cpu, parts) = nums.split_last().unwrap();
            assert!((parts.iter().sum::<f64>() - cpu).abs() < 0.01, "{line}");
        }
        // Every transformed cell of the hubs shape keeps its edges in S-CHTs.
        assert!(value("core.scht_slots_per_edge") >= 1.0);
        assert!(value("shard.read_pins") > 0.0 && value("harness.cores") >= 1.0);
        let spans = out.tracer.as_ref().unwrap().spans();
        for name in [
            "round",
            "phase.insert",
            "chunk",
            "churn",
            "serve.mix",
            "serve.paced",
            "replay",
        ] {
            assert!(spans.iter().any(|s| s.name == name), "{name} span missing");
        }
    }

    #[test]
    fn a_wrong_expectation_fails_the_run() {
        let out = smoke("serve_ingest", 5, false, true);
        assert!(!out.correct());
        assert_eq!(out.failed, 1 + crate::serve::REOPENS as u64);
    }
}
