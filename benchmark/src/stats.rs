//! Order statistics over samples: the only statistics the benchmark reports.

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// Five-number summary and sample count, as printed beside every
/// metric that is a statistic of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let s = sorted(samples);
        Self {
            n: s.len(),
            min: s[0],
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            max: s[s.len() - 1],
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Seconds one repetition of some work takes when nothing disturbs it.
/// `rounds` holds, for each repetition, the seconds each of its chunks took;
/// chunk `k` is the same work in every round, so its least reading is the one
/// least disturbed, and the sum over `k` is a round assembled from those.
///
/// On the sandbox interference only ever adds time and comes and goes within
/// tens of milliseconds, so this is far steadier than any statistic of whole
/// rounds: one quiet reading per chunk is enough, where a whole round would
/// have to be quiet from end to end.
pub fn undisturbed_secs(rounds: &[&[f64]]) -> f64 {
    let chunks = rounds.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..chunks)
        .map(|k| rounds.iter().map(|r| r[k]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// The highest of p99.9 / p99 / p90 that still has at least ten samples
/// beyond it, with its label; `None` below 100 samples.
pub fn tail_percentile(sorted: &[f64]) -> Option<(&'static str, f64)> {
    for (label, q) in [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.90)] {
        if (sorted.len() as f64 * (1.0 - q)) >= 10.0 {
            return Some((label, quantile_sorted(sorted, q)));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 0.5), 3.0);
        assert_eq!(quantile_sorted(&s, 1.0), 5.0);
        assert_eq!(quantile_sorted(&s, 0.25), 2.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn summary_orders_unsorted_input() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            s,
            Summary {
                n: 5,
                min: 1.0,
                q1: 2.0,
                median: 3.0,
                q3: 4.0,
                max: 5.0,
            }
        );
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn undisturbed_time_takes_the_least_reading_of_each_chunk() {
        let a = [1.0, 5.0, 2.0];
        let b = [3.0, 1.0, 2.5];
        let c = [2.0, 2.0, 9.0];
        assert_eq!(undisturbed_secs(&[&a, &b, &c]), 1.0 + 1.0 + 2.0);
        assert_eq!(undisturbed_secs(&[&a]), 8.0);
        assert_eq!(undisturbed_secs(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let many: Vec<f64> = (0..20_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many).unwrap().0, "p99.9");
        let some: Vec<f64> = (0..2_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&some).unwrap().0, "p99");
        let few: Vec<f64> = (0..150).map(f64::from).collect();
        assert_eq!(tail_percentile(&few).unwrap().0, "p90");
        assert!(tail_percentile(&many[..50]).is_none());
    }
}
