//! `cgbench`: the repo's benchmark. See `benchmark/README.md` for the
//! catalogue of workloads and metrics; `cgbench help` for the commands.

mod catalogue;
mod compare;
mod gen;
mod json;
mod layers;
mod library;
mod procfs;
mod run;
mod serve;
mod stats;
mod trace;

use catalogue::{NOMINAL_SECONDS, WORKLOADS};
use json::Json;
use run::{Metric, Options, Outcome, STEAL_FLAG_PCT};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

const USAGE: &str = "\
cgbench: end-to-end and per-layer benchmark of the CuckooGraph reproduction

  cgbench all [--seed N] [--seconds S] [--smoke] [--repeat K] [--out FILE]
      every workload in a fresh child process, untraced then traced;
      prints every metric and writes benchmark/out/results.json
  cgbench run <workload> [--seed N] [--seconds S] [--smoke] [--json FILE]
      one untraced run: the end-to-end metrics
  cgbench trace <workload> [--seed N] [--seconds S] [--smoke] [--json FILE]
      one traced run: the per-layer metrics, the ledger, and
      benchmark/out/trace-<workload>.json
  cgbench compare <a.json> <b.json>
      judges the second results file against the first, metric by metric;
      timed metrics need --repeat 4 or more on both sides to be resolved
  cgbench catalogue
      the workloads and every metric with its unit, statistic and bound
  cgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
      the driver's form: last line of stdout is one JSON object

Defaults: --seed 1, --seconds 12. --smoke divides every size by 50.
CGBENCH_SABOTAGE=1 plants a wrong expectation; the run must then fail.";

/// Where the benchmark writes: `benchmark/out/`, which is git-ignored.
fn out_dir() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/out").to_string()
}

/// A scratch directory under `benchmark/out/tmp/`; the caller removes it.
fn scratch_dir(tag: &str) -> String {
    format!("{}/tmp/{tag}", out_dir())
}

#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    /// `--name value` pairs and bare words; `--smoke` takes no value.
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => {
                    args.flags.insert("smoke".into(), "1".into());
                }
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.insert(name.to_string(), value.clone());
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name} takes a whole number, not `{text}`")),
        }
    }

    fn options(&self, workload: &str, trace: bool) -> Result<Options, String> {
        let workload = catalogue::workload(workload).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{workload}`; one of {}", names.join(", "))
        })?;
        let seconds = self.number("seconds", NOMINAL_SECONDS)?;
        if !(1..=60).contains(&seconds) {
            return Err(format!("--seconds must be between 1 and 60, not {seconds}"));
        }
        Ok(Options {
            workload,
            seed: self.number("seed", run::DEFAULT_SEED)?,
            seconds,
            smoke: self.flags.contains_key("smoke"),
            trace,
            sabotage: std::env::var_os("CGBENCH_SABOTAGE").is_some_and(|v| v == "1"),
        })
    }
}

fn metric_line(workload: &str, m: &Metric) -> String {
    let mut line = format!("{workload} {} {:.6} {}", m.name, m.value, m.unit);
    if let Some(s) = &m.samples {
        line.push_str(&format!(
            "  [n={} q1={:.4} median={:.4} q3={:.4} min={:.4} max={:.4}]",
            s.n, s.q1, s.median, s.q3, s.min, s.max
        ));
    }
    if let Some((label, value)) = m.tail {
        line.push_str(&format!("  {label}={value:.4}"));
    }
    line
}

/// Prints a run for people: every metric by name with its unit and sample
/// count, the flagged steal intervals, the ledger, and the verdict.
fn report(out: &Outcome, to_stderr: bool) {
    let name = out.options.workload.name;
    let mut lines: Vec<String> = out.metrics.iter().map(|m| metric_line(name, m)).collect();
    for s in out.steal.iter().filter(|s| s.pct > STEAL_FLAG_PCT) {
        lines.push(format!(
            "{name} ! steal {:.1}% over {:.2}s in {}: timings of that interval are suspect",
            s.pct, s.secs, s.section
        ));
    }
    lines.extend(out.ledger.iter().map(|l| format!("{name} ledger {l}")));
    lines.push(format!(
        "{name} ops_attempted {} ops_failed {} correct {} wall_s {:.2} cores {} fingerprint {:016x}",
        out.attempted,
        out.failed,
        out.correct(),
        out.wall_s,
        out.cores,
        out.fingerprint
    ));
    for line in lines {
        if to_stderr {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// Runs one workload in this process and writes what the mode calls for.
fn run_one(args: &Args, workload: &str, trace: bool, contract: bool) -> Result<bool, String> {
    let out = run::run(args.options(workload, trace)?);
    report(&out, contract);
    if let Some(tracer) = &out.tracer {
        let path = format!("{}/trace-{workload}.json", out_dir());
        write_file(&path, &tracer.to_json().pretty())?;
        eprintln!("{workload} spans written to {path}");
    }
    if let Some(path) = args.flags.get("json") {
        write_file(path, &out.to_json().pretty())?;
    }
    if contract {
        println!("{}", out.contract_json().compact());
    }
    Ok(out.correct())
}

fn child(exe: &std::path::Path, args: &[String]) -> Result<bool, String> {
    Command::new(exe)
        .args(args)
        .status()
        .map(|status| status.success())
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One workload per child process, so allocator state and peak memory do not
/// leak from one workload into the next.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let repeat = args.number("repeat", 1)?.max(1);
    let mut common = Vec::new();
    for flag in ["seed", "seconds"] {
        if let Some(value) = args.flags.get(flag) {
            common.extend([format!("--{flag}"), value.clone()]);
        }
    }
    if args.flags.contains_key("smoke") {
        common.push("--smoke".into());
    }
    // Validate before spawning anything.
    let probe = args.options(WORKLOADS[0].name, false)?;

    let mut all_ok = true;
    let mut merged = Vec::new();
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for rep in 0..repeat {
            let path = format!("{}/run-{}-{rep}.json", out_dir(), w.name);
            let mut cmd = vec!["run".to_string(), w.name.to_string()];
            cmd.extend(common.iter().cloned());
            cmd.extend(["--json".to_string(), path.clone()]);
            all_ok &= child(&exe, &cmd)?;
            runs.push(read_json(&path)?);
        }
        let path = format!("{}/layers-{}.json", out_dir(), w.name);
        let mut cmd = vec!["trace".to_string(), w.name.to_string()];
        cmd.extend(common.iter().cloned());
        cmd.extend(["--json".to_string(), path.clone()]);
        all_ok &= child(&exe, &cmd)?;
        merged.push(merge_workload(&runs, &read_json(&path)?));
    }
    let results = Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(probe.seed as f64)),
        ("seconds", Json::Num(probe.seconds as f64)),
        ("smoke", Json::Bool(probe.smoke)),
        ("repeat", Json::Num(repeat as f64)),
        (
            "cores",
            merged[0].get("cores").cloned().unwrap_or(Json::Null),
        ),
        ("workloads", Json::Arr(merged)),
    ]);
    let path = args
        .flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("{}/results.json", out_dir()));
    write_file(&path, &results.pretty())?;
    println!("results written to {path}");
    Ok(all_ok)
}

/// Folds the untraced runs of one workload (the first keeps its sample
/// summaries, every run contributes its value to `values`) and the traced
/// run's metrics into one record.
fn merge_workload(runs: &[Json], traced: &Json) -> Json {
    let first = &runs[0];
    let sum = |key: &str| -> f64 {
        runs.iter()
            .chain([traced])
            .filter_map(|r| r.get(key)?.as_f64())
            .sum()
    };
    let metrics: Vec<Json> = first
        .get("metrics")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| {
                    r.get("metrics")?
                        .as_arr()?
                        .iter()
                        .find(|x| x.get("name").and_then(Json::as_str) == name)?
                        .get("value")?
                        .as_f64()
                })
                .collect();
            let mut fields = m.as_obj().unwrap_or_default().to_vec();
            fields.push(("values".to_string(), Json::nums(&values)));
            Json::Obj(fields)
        })
        .collect();
    let steal: Vec<Json> = runs
        .iter()
        .chain([traced])
        .flat_map(|r| {
            r.get("steal")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .to_vec()
        })
        .collect();
    let all_correct = runs
        .iter()
        .chain([traced])
        .all(|r| r.get("correct") == Some(&Json::Bool(true)));
    let keep = |key: &str| first.get(key).cloned().unwrap_or(Json::Null);
    Json::obj([
        ("workload", keep("workload")),
        ("correct", Json::Bool(all_correct)),
        ("ops_attempted", Json::Num(sum("ops_attempted"))),
        ("ops_failed", Json::Num(sum("ops_failed"))),
        ("cores", keep("cores")),
        ("stream_fingerprint", keep("stream_fingerprint")),
        ("metrics", Json::Arr(metrics)),
        (
            "per_layer",
            traced.get("metrics").cloned().unwrap_or(Json::Null),
        ),
        (
            "ledger",
            traced.get("ledger").cloned().unwrap_or(Json::Null),
        ),
        ("steal", Json::Arr(steal)),
    ])
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let (rows, regressed) = compare::compare(&read_json(a)?, &read_json(b)?)?;
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse by", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<18} {:<20} {:>14.4} {:>14.4} {:>8.1}% {:>8} {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.worse_by,
            r.spread
                .map_or("unknown".to_string(), |s| format!("{:.1}%", 100.0 * s)),
            100.0 * r.bound,
            r.verdict.as_str()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} better, {} within bound, {} worse, {} unresolved{}",
        count(compare::Verdict::Better),
        count(compare::Verdict::Within),
        count(compare::Verdict::Worse),
        count(compare::Verdict::Unresolved),
        if regressed { ": REGRESSED" } else { "" }
    );
    Ok(!regressed)
}

/// The contents of `benchmark/fingerprints.json`: the stream fingerprint of
/// every workload at the default seed and length, full size and smoke size.
fn fingerprints() -> Json {
    let record = |smoke: bool| {
        Json::Obj(
            WORKLOADS
                .iter()
                .map(|w| {
                    let sized = w.sized(NOMINAL_SECONDS, smoke);
                    let fp = run::Inputs::generate(&sized, run::DEFAULT_SEED).fingerprint;
                    (w.name.to_string(), Json::str(format!("{fp:016x}")))
                })
                .collect(),
        )
    };
    Json::obj([("smoke", record(true)), ("full", record(false))])
}

fn print_catalogue() {
    println!("workloads (name: why)");
    for w in &WORKLOADS {
        println!("  {}: {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (name unit better bound: statistic)");
    for m in &catalogue::END_TO_END {
        println!(
            "  {} {} {} {:.0}%: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            100.0 * m.bound,
            m.statistic
        );
    }
    println!("\nper-layer metrics of the traced run (name unit better)");
    for m in &catalogue::PER_LAYER {
        println!("  {} {} {}", m.name, m.unit, m.better.as_str());
    }
}

fn dispatch(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw)?;
    let words: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match words.as_slice() {
        [] if args.flags.contains_key("workload") => {
            let trace = match args.flags.get("trace").map(String::as_str) {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
            };
            run_one(&args, &args.flags["workload"], trace, true)
        }
        ["run", workload] => run_one(&args, workload, false, false),
        ["trace", workload] => run_one(&args, workload, true, false),
        ["all"] => run_all(&args),
        ["compare", a, b] => run_compare(a, b),
        ["catalogue"] => {
            print_catalogue();
            Ok(true)
        }
        ["fingerprints"] => {
            print!("{}", fingerprints().pretty());
            Ok(true)
        }
        ["benchmark-json"] => {
            print!("{}", catalogue::benchmark_json().pretty());
            Ok(true)
        }
        ["help"] => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => Err(format!("unrecognised arguments\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("cgbench: a correctness check or a comparison failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("cgbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, String> {
        Args::parse(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let a = args(&[
            "--workload",
            "dense_hubs",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(a.positional.is_empty());
        let o = a.options(&a.flags["workload"], true).unwrap();
        assert_eq!(
            (o.workload.name, o.seed, o.seconds, o.smoke),
            ("dense_hubs", 7, 12, false)
        );
    }

    #[test]
    fn bad_arguments_are_refused_with_a_reason() {
        assert!(args(&["run", "--seed"]).is_err());
        let a = args(&["run", "nope", "--seconds", "0", "--smoke"]).unwrap();
        assert!(a
            .options("nope", false)
            .unwrap_err()
            .contains("unknown workload"));
        assert!(a
            .options("dense_hubs", false)
            .unwrap_err()
            .contains("between 1 and 60"));
        assert!(args(&["--seed", "x"])
            .unwrap()
            .options("dense_hubs", false)
            .is_err());
        assert!(dispatch(&["frobnicate".to_string()]).is_err());
    }

    #[test]
    fn merged_records_carry_every_repeat() {
        let run = |value: f64, failed: f64| {
            Json::obj([
                ("workload", Json::str("w")),
                ("correct", Json::Bool(failed == 0.0)),
                ("ops_attempted", Json::Num(10.0)),
                ("ops_failed", Json::Num(failed)),
                (
                    "metrics",
                    Json::Arr(vec![Json::obj([
                        ("name", Json::str("insert_mops")),
                        ("value", Json::Num(value)),
                    ])]),
                ),
            ])
        };
        let merged = merge_workload(&[run(4.0, 0.0), run(5.0, 0.0)], &run(9.0, 1.0));
        let metric = &merged.get("metrics").unwrap().as_arr().unwrap()[0];
        assert_eq!(metric.get("values"), Some(&Json::nums(&[4.0, 5.0])));
        assert_eq!(merged.get("ops_attempted"), Some(&Json::Num(30.0)));
        assert_eq!(merged.get("ops_failed"), Some(&Json::Num(1.0)));
        assert_eq!(merged.get("correct"), Some(&Json::Bool(false)));
    }
}
