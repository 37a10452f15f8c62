//! The benchmark's catalogue: the five workloads, the end-to-end metrics with
//! their regression bounds, and the per-layer metrics. `BENCHMARK.json` at
//! the repo root is generated from this file (`cgbench benchmark-json`) and a
//! test keeps the two equal.

use crate::gen::Shape;
use crate::json::Json;

/// `--seconds` value the round counts below are sized for.
pub const NOMINAL_SECONDS: u64 = 12;
/// A serve round is 2 connections × 256 bursts × 16 commands.
pub const CONNECTIONS: usize = 2;
pub const BURST: usize = 16;
pub const BURSTS_PER_ROUND: usize = 256;
/// The reactor's writer folds at most this many commands into one group
/// commit (`ServerConfig::new()`'s `batch_max`); preload and the layer
/// replays batch the same way.
pub const WRITER_BATCH: usize = 256;
/// Sawtooth bounds of the churn phase's live window.
pub const CHURN_HI: usize = 32_768;
pub const CHURN_LO: usize = 4_096;
/// 1.5 s of the paced phase at its 2,000 commands/s.
pub const PACED_CMDS: usize = 3_000;
/// A run is cut into this many slices; every slice runs its share of every
/// phase, so each metric's samples span the whole run instead of one short
/// stretch of it (the machine's speed drifts over seconds).
pub const SLICES: usize = 8;
/// Every smoke size is the full size divided by this.
pub const SMOKE_DIVISOR: usize = 50;

/// Percentages of the command mix; they add up to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub add: u64,
    pub has: u64,
    pub deg: u64,
    pub succ: u64,
}

/// One workload: an input shape plus how much of each phase runs on it.
/// Every workload runs every phase, so every metric exists on every
/// workload; the sizes say where the workload puts its weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    /// Distinct edges generated; every phase takes a prefix or a window.
    pub stream_edges: usize,
    /// Library rounds: edges per fresh graph, rounds, scan passes per round.
    pub lib_edges: usize,
    pub lib_rounds: usize,
    pub scan_passes: usize,
    /// Sawtooth rounds and mutations per round (each mutation is followed by
    /// one hit probe and one miss probe, so a round is 3× this many ops).
    pub churn_rounds: usize,
    pub churn_mutations: usize,
    /// Serve section: edges preloaded through `execute_batch` before the
    /// reactor starts, then rounds of `bursts_per_round` bursts per
    /// connection in each phase, and depth-1 round trips per connection.
    pub preload: usize,
    pub bursts_per_round: usize,
    pub ingest_rounds: usize,
    pub mix_rounds: usize,
    pub rtt_trips: usize,
    /// Commands of the traced run's open-loop phase, over both connections.
    pub paced_cmds: usize,
    pub mix: Mix,
}

const READ_HEAVY: Mix = Mix {
    add: 10,
    has: 30,
    deg: 30,
    succ: 30,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sparse_large",
        why: "1M Zipf edges over 250k ids: L-CHT probes and inline slots do the work and every probe misses cache; S-CHT chains do little",
        shape: Shape::Zipf { ids: 250_000 },
        stream_edges: 1_000_000,
        lib_edges: 1_000_000,
        lib_rounds: 5,
        scan_passes: 4,
        churn_rounds: 5,
        churn_mutations: 500_000,
        preload: 0,
        bursts_per_round: BURSTS_PER_ROUND,
        ingest_rounds: 16,
        mix_rounds: 16,
        rtt_trips: 2_000,
        paced_cmds: PACED_CMDS,
        mix: READ_HEAVY,
    },
    Workload {
        name: "dense_hubs",
        why: "1,000 sources x 1,000 targets: every cell is TRANSFORMED, so S-CHT chains and scan segments do the work and the L-CHT almost none",
        shape: Shape::Hubs {
            sources: 1_000,
            per_source: 1_000,
            ids: 8_000,
        },
        stream_edges: 1_000_000,
        lib_edges: 1_000_000,
        lib_rounds: 7,
        scan_passes: 40,
        churn_rounds: 5,
        churn_mutations: 500_000,
        preload: 0,
        bursts_per_round: BURSTS_PER_ROUND,
        ingest_rounds: 16,
        mix_rounds: 16,
        rtt_trips: 2_000,
        paced_cmds: PACED_CMDS,
        mix: READ_HEAVY,
    },
    Workload {
        name: "churn_window",
        why: "sawtooth 32,768 <-> 4,096 live edges with reads beside writes: cache-resident, the only workload dominated by expansion and contraction",
        shape: Shape::Zipf { ids: 8_192 },
        stream_edges: 262_144,
        lib_edges: 32_768,
        lib_rounds: 60,
        scan_passes: 8,
        churn_rounds: 16,
        churn_mutations: 1_000_000,
        preload: 0,
        bursts_per_round: BURSTS_PER_ROUND,
        ingest_rounds: 16,
        mix_rounds: 16,
        rtt_trips: 2_000,
        paced_cmds: PACED_CMDS,
        mix: READ_HEAVY,
    },
    Workload {
        name: "serve_read_heavy",
        why: "reactor over 200k preloaded edges, 10% ADDEDGE / 90% reads: RESP decode, inline epoch-view reads and reply flush do the work; writer and log little",
        shape: Shape::Uniform { ids: 50_000 },
        stream_edges: 400_000,
        lib_edges: 131_072,
        lib_rounds: 8,
        scan_passes: 8,
        churn_rounds: 5,
        churn_mutations: 500_000,
        preload: 200_000,
        bursts_per_round: BURSTS_PER_ROUND,
        ingest_rounds: 8,
        mix_rounds: 40,
        rtt_trips: 8_000,
        paced_cmds: PACED_CMDS,
        mix: READ_HEAVY,
    },
    Workload {
        name: "serve_ingest",
        why: "empty reactor, 100% ADDEDGE then a half-write mix: write queue, group commit, log append and sync, shard gate, then recovery and log size",
        shape: Shape::Uniform { ids: 50_000 },
        stream_edges: 400_000,
        lib_edges: 131_072,
        lib_rounds: 8,
        scan_passes: 8,
        churn_rounds: 5,
        churn_mutations: 500_000,
        preload: 0,
        bursts_per_round: BURSTS_PER_ROUND,
        ingest_rounds: 30,
        mix_rounds: 10,
        rtt_trips: 2_000,
        paced_cmds: PACED_CMDS,
        mix: Mix {
            add: 50,
            has: 20,
            deg: 20,
            succ: 10,
        },
    },
];

/// How many of `total` rounds slice `slice` runs: the shares differ by at
/// most one and the first slice never gets less than any other.
pub fn slice_share(total: usize, slice: usize) -> usize {
    (total * (slice + 1)).div_ceil(SLICES) - (total * slice).div_ceil(SLICES)
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload as it runs for `seconds`: round counts scale with the
    /// time asked for, input sizes never do (they decide what is measured).
    /// `smoke` divides every size by [`SMOKE_DIVISOR`] and runs minimal
    /// rounds: all the code and all the checks in a few seconds.
    pub fn sized(&self, seconds: u64, smoke: bool) -> Workload {
        let mut w = self.clone();
        let rounds = |nominal: usize, min: usize| {
            ((nominal as u64 * seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS).max(min as u64)
                as usize
        };
        w.lib_rounds = rounds(self.lib_rounds, 3);
        w.churn_rounds = rounds(self.churn_rounds, 3);
        w.ingest_rounds = rounds(self.ingest_rounds, 2);
        w.mix_rounds = rounds(self.mix_rounds, 3);
        w.rtt_trips = rounds(self.rtt_trips, 500);
        if smoke {
            let d = SMOKE_DIVISOR;
            w.shape = match self.shape {
                Shape::Zipf { ids } => Shape::Zipf {
                    ids: ids / d as u32,
                },
                Shape::Uniform { ids } => Shape::Uniform {
                    ids: ids / d as u32,
                },
                Shape::Hubs {
                    sources,
                    per_source,
                    ids,
                } => Shape::Hubs {
                    sources: sources / 10,
                    per_source: per_source / 5,
                    ids: ids / 5,
                },
            };
            w.stream_edges = self.stream_edges / d;
            w.lib_edges = self.lib_edges / d;
            w.churn_mutations = self.churn_mutations / d;
            w.preload = self.preload / d;
            w.bursts_per_round = self.bursts_per_round / d;
            w.lib_rounds = 3;
            w.churn_rounds = 3;
            w.scan_passes = self.scan_passes.min(4);
            w.ingest_rounds = 1;
            w.mix_rounds = 3;
            w.rtt_trips = self.rtt_trips / d;
            w.paced_cmds = self.paced_cmds / d;
        }
        w
    }

    /// Sawtooth bounds, shrunk with everything else under `smoke`.
    pub fn churn_window(&self, smoke: bool) -> (usize, usize) {
        if smoke {
            (CHURN_HI / SMOKE_DIVISOR, CHURN_LO / SMOKE_DIVISOR)
        } else {
            (CHURN_HI, CHURN_LO)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// How the one reported value is taken from the run's samples.
    pub statistic: &'static str,
    /// Counted, not timed: repeats exactly for a seed, so one run decides.
    pub counted: bool,
}

use Better::{Higher, Lower};

/// Every timing metric carries the widest bound the contract allows: on the
/// 2-vCPU sandbox the run-to-run spread of a memory-bound loop is 10-20 % of
/// its median whatever the statistic (see the README's noise section), and a
/// bound inside the noise would only produce false alarms. The counted
/// metrics repeat exactly for a seed and move by a few per cent across seeds.
const TIMING_BOUND: f64 = 0.25;
const UNDISTURBED: &str =
    "ops / sum over 65,536-op chunks of the least time any round took for that chunk";

pub const END_TO_END: [EndToEnd; 14] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: TIMING_BOUND,
        statistic: "least of 3 input generations + least of 3 server open, preload and spawn",
        counted: false,
    },
    EndToEnd {
        name: "insert_mops",
        unit: "Mops/s",
        better: Higher,
        bound: TIMING_BOUND,
        statistic: UNDISTURBED,
        counted: false,
    },
    EndToEnd {
        name: "query_mops",
        unit: "Mops/s",
        better: Higher,
        bound: TIMING_BOUND,
        statistic: UNDISTURBED,
        counted: false,
    },
    EndToEnd {
        name: "delete_mops",
        unit: "Mops/s",
        better: Higher,
        bound: TIMING_BOUND,
        statistic: UNDISTURBED,
        counted: false,
    },
    EndToEnd {
        name: "scan_medges_s",
        unit: "Medges/s",
        better: Higher,
        bound: TIMING_BOUND,
        statistic: "edges visited / sum over 256-source chunks of the least time any round took",
        counted: false,
    },
    EndToEnd {
        name: "mixed_mops",
        unit: "Mops/s",
        better: Higher,
        bound: TIMING_BOUND,
        statistic: UNDISTURBED,
        counted: false,
    },
    EndToEnd {
        name: "bytes_per_edge",
        unit: "B",
        better: Lower,
        bound: 0.05,
        statistic: "memory_bytes()/edge_count() with every library edge in; exact for a seed",
        counted: true,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MiB",
        better: Lower,
        // Exact for a seed on four workloads; on `dense_hubs` the allocator
        // keeps or returns a retired table from run to run (110 or 120 MiB).
        bound: TIMING_BOUND,
        statistic: "VmHWM of the run's process just before the reactor shuts down",
        counted: true,
    },
    EndToEnd {
        name: "serve_kops",
        unit: "kcmd/s",
        better: Higher,
        bound: TIMING_BOUND,
        statistic: "upper quartile over mix-phase rounds",
        counted: false,
    },
    EndToEnd {
        name: "ingest_kops",
        unit: "kcmd/s",
        better: Higher,
        bound: TIMING_BOUND,
        statistic: "upper quartile over ingest-phase rounds",
        counted: false,
    },
    EndToEnd {
        name: "burst_p50_us",
        unit: "us",
        better: Lower,
        bound: TIMING_BOUND,
        statistic: "lower quartile over mix rounds of the round's median burst round trip",
        counted: false,
    },
    EndToEnd {
        name: "rtt_p75_us",
        unit: "us",
        better: Lower,
        bound: TIMING_BOUND,
        statistic: "lower quartile over slices of the slice's third-quartile depth-1 round trip",
        counted: false,
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: Lower,
        bound: TIMING_BOUND,
        statistic: "least of 5 reopens of the served directory",
        counted: false,
    },
    EndToEnd {
        name: "log_bytes_per_edge",
        unit: "B",
        better: Lower,
        bound: 0.01,
        statistic: "bytes in the served directory / distinct edges; exact for a seed",
        counted: true,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 63] = [
    // core: lcht, cell, hash
    layer("core.insert_ns", "ns", Lower),
    layer("core.query_hit_ns", "ns", Lower),
    layer("core.query_miss_ns", "ns", Lower),
    layer("core.delete_ns", "ns", Lower),
    layer("core.scan_ns_per_node", "ns", Lower),
    layer("core.lcht_placements_per_item", "count", Lower),
    layer("core.lcht_load", "%", Higher),
    layer("core.l_denylist_len", "count", Lower),
    // core: scht, chain, segment, denylist
    layer("core.scan_ns_per_edge", "ns", Lower),
    layer("core.scht_placements_per_item", "count", Lower),
    layer("core.scht_slots_per_edge", "count", Lower),
    layer("core.s_denylist_len", "count", Lower),
    layer("core.insertion_failures", "count", Lower),
    layer("core.segment_bytes", "B", Lower),
    layer("core.segment_compactions", "count", Lower),
    // core: pool, arena, scratch (sawtooth phase)
    layer("core.expansions", "count", Lower),
    layer("core.contractions", "count", Lower),
    layer("core.pool_hits", "count", Higher),
    layer("core.pool_misses", "count", Lower),
    layer("core.pool_retained_bytes", "B", Lower),
    layer("core.arena_blocks", "count", Lower),
    // shard, epoch
    layer("shard.ingest_ns", "ns", Lower),
    layer("shard.gate_overhead_ns", "ns", Lower),
    layer("shard.read_ns", "ns", Lower),
    layer("shard.pin_overhead_ns", "ns", Lower),
    layer("shard.reader_retries", "count", Lower),
    layer("shard.read_pins", "count", Lower),
    layer("shard.epoch_advances", "count", Lower),
    // graph-durability
    layer("oplog.bytes_per_op", "B", Lower),
    layer("oplog.frames", "count", Lower),
    layer("oplog.syncs", "count", Lower),
    layer("store.apply_ns", "ns", Lower),
    layer("store.recover_ns_per_op", "ns", Lower),
    // kvstore: resp, server, persist
    layer("resp.decode_ns", "ns", Lower),
    layer("resp.encode_ns", "ns", Lower),
    layer("server.write_ns", "ns", Lower),
    layer("server.read_ns", "ns", Lower),
    layer("persist.batch_ns", "ns", Lower),
    layer("persist.self_ns", "ns", Lower),
    layer("persist.log_bytes_per_cmd", "B", Lower),
    layer("persist.syncs", "count", Lower),
    layer("persist.recover_ns_per_op", "ns", Lower),
    // kvstore: reactor
    layer("reactor.write_cpu_us_per_op", "us", Lower),
    layer("reactor.write_residual_us", "us", Lower),
    layer("reactor.mix_cpu_us_per_op", "us", Lower),
    layer("reactor.mix_residual_us", "us", Lower),
    layer("reactor.serve_kops_best", "kcmd/s", Higher),
    layer("reactor.ingest_kops_best", "kcmd/s", Higher),
    layer("reactor.rtt_p50_us", "us", Lower),
    layer("reactor.burst_p99_us", "us", Lower),
    layer("reactor.rtt_p99_us", "us", Lower),
    layer("reactor.paced_p50_us", "us", Lower),
    layer("reactor.paced_p99_us", "us", Lower),
    layer("reactor.paced_late_us", "us", Lower),
    // analytics, baselines
    layer("analytics.bfs_ms", "ms", Lower),
    layer("baselines.spruce_insert_mops", "Mops/s", Higher),
    layer("baselines.spruce_query_mops", "Mops/s", Higher),
    layer("baselines.spruce_scan_medges_s", "Medges/s", Higher),
    layer("baselines.spruce_bytes_per_edge", "B", Lower),
    // harness
    layer("harness.steal_pct", "%", Lower),
    layer("harness.cores", "count", Higher),
    layer("harness.trace_overhead_pct", "%", Lower),
    layer("harness.stream_fingerprint", "hash48", Higher),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(NOMINAL_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_respects_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(w.mix.add + w.mix.has + w.mix.deg + w.mix.succ, 100);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().pretty().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(Json::parse(&text).unwrap(), benchmark_json());
    }

    #[test]
    fn slice_shares_add_up_and_start_with_the_largest() {
        for total in [0usize, 1, 2, 5, 8, 12, 30, 2_000] {
            let shares: Vec<usize> = (0..SLICES).map(|s| slice_share(total, s)).collect();
            assert_eq!(shares.iter().sum::<usize>(), total);
            assert_eq!(shares[0], *shares.iter().max().unwrap());
            assert!(shares.iter().max().unwrap() - shares.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn every_phase_fits_inside_its_stream() {
        for base in &WORKLOADS {
            for (seconds, smoke) in [
                (NOMINAL_SECONDS, false),
                (60, false),
                (1, false),
                (12, true),
            ] {
                let w = base.sized(seconds, smoke);
                let (hi, lo) = w.churn_window(smoke);
                assert!(w.lib_edges <= w.stream_edges, "{}", w.name);
                assert!(lo >= 1 && hi > lo && w.stream_edges > hi, "{}", w.name);
                // At the sizes the driver runs, writes never wrap around the
                // stream (twice the expected mix share leaves room for luck).
                let round = CONNECTIONS * w.bursts_per_round * BURST;
                let mixed = w.mix_rounds * round + 2 * CONNECTIONS * w.rtt_trips;
                let writes = w.preload + w.ingest_rounds * round + mixed * w.mix.add as usize / 50;
                assert!(
                    seconds != NOMINAL_SECONDS || writes <= w.stream_edges,
                    "{} needs {writes} edges",
                    w.name
                );
                if let Shape::Hubs {
                    sources,
                    per_source,
                    ids,
                } = w.shape
                {
                    assert_eq!(sources as usize * per_source as usize, w.stream_edges);
                    assert!(per_source <= ids);
                }
            }
        }
    }
}
