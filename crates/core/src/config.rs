//! Configuration of a CuckooGraph instance.
//!
//! The defaults follow the parameter study in § V-B of the paper:
//! `d = 8`, `R = 3`, `G = 0.9`, `T = 250`, bucket-array ratio 2:1, and a
//! contraction threshold `Λ ≤ 2G/3` (we default to 0.5).

use crate::error::{CuckooGraphError, Result};

/// Tunable parameters of CuckooGraph (Table I of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct CuckooGraphConfig {
    /// `d` — number of cells per bucket in both L-CHT and S-CHT. Paper default 8.
    pub cells_per_bucket: usize,
    /// `R` — number of large (pointer) slots in Part 2 of each L-CHT cell;
    /// also the maximum number of S-CHTs in a chain and of L-CHTs overall.
    /// Paper default 3.
    pub r: usize,
    /// `G` — loading-rate threshold that triggers expansion. Paper default 0.9.
    pub expand_threshold: f64,
    /// `Λ` — overall loading-rate threshold that triggers contraction after a
    /// deletion. The analysis (§ IV-B) assumes `Λ ≤ 2G/3`; default 0.5.
    pub contract_threshold: f64,
    /// `T` — maximum number of kick-out loops before an insertion is declared
    /// failed and routed to a denylist. Paper default 250.
    pub max_kicks: usize,
    /// `n` — length (number of buckets in the larger array) of the 1st S-CHT
    /// when a cell first transforms. Default 8.
    pub scht_base_len: usize,
    /// Initial length of the 1st L-CHT. Default 16; the structure grows from
    /// there, so no prior knowledge of the graph is needed.
    pub lcht_base_len: usize,
    /// Capacity limit of each denylist (the paper describes DL as "a vector
    /// with a size limit" and measures ≈4 KB of extra memory). Default 512
    /// entries per denylist.
    pub denylist_capacity: usize,
    /// Enables the DENYLIST optimisation (§ III-A2). When disabled, every
    /// insertion failure forces an immediate expansion instead — the ablation
    /// baseline of Figure 5.
    pub use_denylist: bool,
    /// Seed for hash-function seeds and kick-victim selection. Fixed default
    /// so runs are reproducible; randomise it for adversarial workloads.
    pub seed: u64,
}

impl Default for CuckooGraphConfig {
    fn default() -> Self {
        Self {
            cells_per_bucket: 8,
            r: 3,
            expand_threshold: 0.9,
            contract_threshold: 0.5,
            max_kicks: 250,
            scht_base_len: 8,
            lcht_base_len: 16,
            denylist_capacity: 512,
            use_denylist: true,
            seed: 0x5eed_cafe_f00d_0001,
        }
    }
}

impl CuckooGraphConfig {
    /// Validates the configuration, returning an error describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<()> {
        if self.cells_per_bucket == 0 {
            return Err(CuckooGraphError::InvalidConfig(
                "cells_per_bucket must be > 0",
            ));
        }
        if self.r == 0 {
            return Err(CuckooGraphError::InvalidConfig("r must be > 0"));
        }
        if !(self.expand_threshold > 0.0 && self.expand_threshold <= 1.0) {
            return Err(CuckooGraphError::InvalidConfig(
                "expand_threshold must be in (0, 1]",
            ));
        }
        if !(self.contract_threshold >= 0.0 && self.contract_threshold < self.expand_threshold) {
            return Err(CuckooGraphError::InvalidConfig(
                "contract_threshold must be in [0, expand_threshold)",
            ));
        }
        if self.max_kicks == 0 {
            return Err(CuckooGraphError::InvalidConfig("max_kicks must be > 0"));
        }
        if self.scht_base_len == 0 || self.lcht_base_len == 0 {
            return Err(CuckooGraphError::InvalidConfig(
                "table base lengths must be > 0",
            ));
        }
        Ok(())
    }

    /// Number of inline small slots in Part 2 for the *basic* version
    /// (`2R`, § III-A1).
    pub fn basic_small_slots(&self) -> usize {
        2 * self.r
    }

    /// Number of inline small slots for the *extended* (weighted) version
    /// (`R`, § III-B: two small slots are fused to hold `⟨v, w⟩`).
    pub fn weighted_small_slots(&self) -> usize {
        self.r
    }

    /// Builder-style setter for `d`.
    pub fn with_cells_per_bucket(mut self, d: usize) -> Self {
        self.cells_per_bucket = d;
        self
    }

    /// Builder-style setter for `R`.
    pub fn with_r(mut self, r: usize) -> Self {
        self.r = r;
        self
    }

    /// Builder-style setter for `G`.
    pub fn with_expand_threshold(mut self, g: f64) -> Self {
        self.expand_threshold = g;
        self
    }

    /// Builder-style setter for `Λ`.
    pub fn with_contract_threshold(mut self, lambda: f64) -> Self {
        self.contract_threshold = lambda;
        self
    }

    /// Builder-style setter for `T`.
    pub fn with_max_kicks(mut self, t: usize) -> Self {
        self.max_kicks = t;
        self
    }

    /// Builder-style setter for the DENYLIST switch (ablation of Figure 5).
    pub fn with_denylist(mut self, enabled: bool) -> Self {
        self.use_denylist = enabled;
        self
    }

    /// Builder-style setter for the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the initial S-CHT length `n`.
    pub fn with_scht_base_len(mut self, n: usize) -> Self {
        self.scht_base_len = n;
        self
    }

    /// Builder-style setter for the initial L-CHT length.
    pub fn with_lcht_base_len(mut self, n: usize) -> Self {
        self.lcht_base_len = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = CuckooGraphConfig::default();
        assert_eq!(c.cells_per_bucket, 8);
        assert_eq!(c.r, 3);
        assert!((c.expand_threshold - 0.9).abs() < 1e-12);
        assert_eq!(c.max_kicks, 250);
        assert!(c.use_denylist);
        assert!(c.validate().is_ok());
        // Λ ≤ 2G/3 as assumed by the memory analysis.
        assert!(c.contract_threshold <= 2.0 * c.expand_threshold / 3.0);
    }

    #[test]
    fn slot_counts_follow_r() {
        let c = CuckooGraphConfig::default().with_r(4);
        assert_eq!(c.basic_small_slots(), 8);
        assert_eq!(c.weighted_small_slots(), 4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(CuckooGraphConfig::default()
            .with_cells_per_bucket(0)
            .validate()
            .is_err());
        assert!(CuckooGraphConfig::default().with_r(0).validate().is_err());
        assert!(CuckooGraphConfig::default()
            .with_expand_threshold(0.0)
            .validate()
            .is_err());
        assert!(CuckooGraphConfig::default()
            .with_expand_threshold(1.5)
            .validate()
            .is_err());
        assert!(CuckooGraphConfig::default()
            .with_contract_threshold(0.95)
            .validate()
            .is_err());
        assert!(CuckooGraphConfig::default()
            .with_max_kicks(0)
            .validate()
            .is_err());
        assert!(CuckooGraphConfig::default()
            .with_scht_base_len(0)
            .validate()
            .is_err());
        assert!(CuckooGraphConfig::default()
            .with_lcht_base_len(0)
            .validate()
            .is_err());
    }

    #[test]
    fn builders_chain() {
        let c = CuckooGraphConfig::default()
            .with_cells_per_bucket(4)
            .with_r(2)
            .with_expand_threshold(0.85)
            .with_contract_threshold(0.4)
            .with_max_kicks(50)
            .with_denylist(false)
            .with_seed(7)
            .with_scht_base_len(4)
            .with_lcht_base_len(8);
        assert_eq!(c.cells_per_bucket, 4);
        assert_eq!(c.r, 2);
        assert!(!c.use_denylist);
        assert_eq!(c.seed, 7);
        assert!(c.validate().is_ok());
    }
}
