//! `cgbench compare a.json b.json`: one row per (workload, end-to-end
//! metric), judged against the metric's bound. This is the tool for "two
//! sets of runs agree" and for "no regression".

use crate::catalogue::{Better, END_TO_END};
use crate::json::Json;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The run-to-run spread is wider than the bound, or unknown because a
    /// side has fewer than four runs of a timed metric: a difference beyond
    /// the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a`; negative = better.
    pub worse_by: f64,
    /// Run-to-run spread (IQR/median of the repeats), the wider side; `None`
    /// when a side has too few runs to know it.
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Runs per side below which the run-to-run spread of a timed metric is
/// unknown. The samples inside one run say nothing about it: on the sandbox
/// two runs of one commit differ by more than any round differs from the
/// next.
const MIN_RUNS: usize = 4;

/// One side's reading of a metric: the median over its runs, and their
/// interquartile range as a share of it when there are enough runs.
fn reading(metric: &Json) -> Option<(f64, Option<f64>)> {
    let values: Vec<f64> = match metric.get("values").and_then(Json::as_arr) {
        Some(values) => values.iter().filter_map(Json::as_f64).collect(),
        None => vec![metric.get("value")?.as_f64()?],
    };
    if values.is_empty() {
        return None;
    }
    let summary = Summary::of(&values);
    Some((
        summary.median,
        (values.len() >= MIN_RUNS).then(|| summary.spread()),
    ))
}

pub fn judge(a: f64, b: f64, spread: Option<f64>, bound: f64, better: Better) -> (f64, Verdict) {
    let worse_by = match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    };
    let verdict = if worse_by.abs() <= bound {
        Verdict::Within
    } else if spread.is_none_or(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    };
    (worse_by, verdict)
}

fn workloads(results: &Json) -> Result<&[Json], String> {
    results
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "no `workloads` array: not a cgbench results file".to_string())
}

fn failure_ratio(workload: &Json) -> f64 {
    let field = |k: &str| workload.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    field("ops_failed") / field("ops_attempted").max(1.0)
}

/// Compares two results files. Returns the rows and whether `b` regressed:
/// any `worse` row, or a higher share of failed operations on any workload.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<Row>, bool), String> {
    let mut rows = Vec::new();
    let mut regressed = false;
    for wa in workloads(a)? {
        let name = wa.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(b)?
            .iter()
            .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
        else {
            return Err(format!("workload `{name}` is missing from the second file"));
        };
        regressed |= failure_ratio(wb) > failure_ratio(wa);
        let metric = |w: &Json, metric: &str| {
            w.get("metrics")?
                .as_arr()?
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
                .and_then(reading)
        };
        for def in &END_TO_END {
            let (Some((va, sa)), Some((vb, sb))) = (metric(wa, def.name), metric(wb, def.name))
            else {
                continue;
            };
            // A counted metric repeats exactly: one run is as good as many.
            let spread = if def.counted {
                Some(0.0)
            } else {
                sa.zip(sb).map(|(sa, sb)| sa.max(sb))
            };
            let (worse_by, verdict) = judge(va, vb, spread, def.bound, def.better);
            regressed |= verdict == Verdict::Worse;
            rows.push(Row {
                workload: name.to_string(),
                metric: def.name,
                a: va,
                b: vb,
                worse_by,
                spread,
                bound: def.bound,
                verdict,
            });
        }
    }
    Ok((rows, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(insert: &[f64], bytes: f64, failed: f64) -> Json {
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("workload", Json::str("sparse_large")),
                ("ops_attempted", Json::Num(1000.0)),
                ("ops_failed", Json::Num(failed)),
                (
                    "metrics",
                    Json::Arr(vec![
                        Json::obj([
                            ("name", Json::str("insert_mops")),
                            ("value", Json::Num(insert[0])),
                            ("values", Json::nums(insert)),
                        ]),
                        Json::obj([
                            ("name", Json::str("bytes_per_edge")),
                            ("value", Json::Num(bytes)),
                        ]),
                    ]),
                ),
            ])]),
        )])
    }

    fn verdicts(a: &Json, b: &Json) -> (Vec<Verdict>, bool) {
        let (rows, regressed) = compare(a, b).unwrap();
        (rows.iter().map(|r| r.verdict).collect(), regressed)
    }

    const STEADY: [f64; 5] = [4.0, 4.1, 3.9, 4.0, 4.05];

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let base = results(&STEADY, 50.0, 0.0);
        let scaled = |k: f64| STEADY.map(|v| v * k);
        assert_eq!(
            verdicts(&base, &results(&scaled(0.9), 51.0, 0.0)),
            (vec![Verdict::Within, Verdict::Within], false)
        );
        // Throughput down 30 % and bytes up 10 %: both worse.
        assert_eq!(
            verdicts(&base, &results(&scaled(0.7), 55.0, 0.0)),
            (vec![Verdict::Worse, Verdict::Worse], true)
        );
        // Throughput up and bytes down: both better.
        assert_eq!(
            verdicts(&base, &results(&scaled(1.3), 45.0, 0.0)),
            (vec![Verdict::Better, Verdict::Better], false)
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_worse() {
        let noisy = results(&[4.0, 3.0, 5.0, 4.0, 2.5, 5.5], 50.0, 0.0);
        let lower = results(&[2.8, 2.0, 3.8, 2.8, 1.8, 4.0], 50.0, 0.0);
        let (rows, regressed) = compare(&noisy, &lower).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert!(rows[0].spread.unwrap() > rows[0].bound && !regressed);
    }

    #[test]
    fn one_run_a_side_resolves_counted_metrics_only() {
        let (rows, regressed) =
            compare(&results(&[4.0], 50.0, 0.0), &results(&[2.0], 60.0, 0.0)).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert_eq!(rows[0].spread, None);
        assert_eq!(rows[1].verdict, Verdict::Worse);
        assert!(regressed);
    }

    #[test]
    fn more_failed_operations_regress_even_with_equal_numbers() {
        let base = results(&STEADY, 50.0, 0.0);
        assert!(verdicts(&base, &results(&STEADY, 50.0, 1.0)).1);
        assert!(!verdicts(&results(&STEADY, 50.0, 1.0), &base).1);
    }

    #[test]
    fn a_missing_workload_is_an_error() {
        let base = results(&STEADY, 50.0, 0.0);
        assert!(compare(&base, &Json::obj([("workloads", Json::Arr(vec![]))])).is_err());
        assert!(compare(&base, &Json::Null).is_err());
    }
}
