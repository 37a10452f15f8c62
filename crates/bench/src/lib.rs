//! The benchmark harness: one experiment per table and figure of the paper's
//! evaluation section (§ V).
//!
//! The heavy lifting lives in this library so the same code backs both the
//! `reproduce` binary (which prints paper-style tables) and the Criterion
//! micro-benchmarks under `benches/`.
//!
//! Absolute numbers will not match the paper (different hardware, synthetic
//! stand-ins for the licensed datasets, Rust instead of C++), but the *shape*
//! of every comparison — which scheme wins, by roughly what factor, where the
//! crossovers are — is what these experiments regenerate. `EXPERIMENTS.md`
//! records the paper-vs-measured comparison for every experiment id.

pub mod experiments;
pub mod schemes;
pub mod workload;

pub use experiments::{Experiment, ExperimentReport, ReportTable, SHARD_SWEEP};
pub use schemes::SchemeKind;
pub use workload::{
    run_batched_inserts, run_churn_waves, run_deletes, run_inserts, run_queries,
    run_successor_scans, Mops,
};

/// The scale factor applied to the Table IV dataset profiles when the harness
/// synthesises its workloads. Override with the `REPRO_SCALE` environment
/// variable (e.g. `REPRO_SCALE=0.05 cargo run -p graph-bench --bin reproduce`).
pub fn default_scale() -> f64 {
    std::env::var("REPRO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.002)
}

/// Seed used everywhere so runs are reproducible.
pub const HARNESS_SEED: u64 = 0x1CDE_2025;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_positive_and_small() {
        let s = default_scale();
        assert!(s > 0.0 && s <= 1.0);
    }

    #[test]
    fn every_experiment_id_is_listed() {
        let all = Experiment::all();
        assert!(
            all.len() >= 21,
            "expected every table and figure, got {}",
            all.len()
        );
        assert!(all.iter().any(|e| e.id() == "table2"));
        assert!(all.iter().any(|e| e.id() == "fig18"));
    }
}
