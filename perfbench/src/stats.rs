//! Exact order statistics over raw samples.
//!
//! Latencies are kept as every sample and sorted once; no sketch is
//! involved, so a reported p99 is the p99 of the samples, not a bound on
//! it.

/// Samples sorted ascending (NaNs are a bug in the caller).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    v
}

/// 1-based nearest rank of the `permille`-th per-mille among `n` samples
/// (integer arithmetic, so p90 of 100 samples is exactly rank 90).
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of ascending samples: the smallest sample with
/// at least `permille`/1000 of all samples at or below it.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Median of unsorted samples (mean of the two middle ones for an even
/// count).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest of the usual percentiles that still has at least ten
/// samples strictly beyond it, so the value is not set by a handful of
/// outliers.
pub fn highest_supported(n: usize) -> Option<usize> {
    [999, 990, 900, 500]
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
}

/// Exact summary of a latency sample set.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
    /// The highest percentile (per mille) with ten samples beyond it, and
    /// its value.
    pub supported: Option<(usize, f64)>,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: Vec<f64>) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let s = sorted(samples);
        let n = s.len();
        Some(Summary {
            n,
            p50: percentile(&s, 500),
            p90: percentile(&s, 900),
            p99: percentile(&s, 990),
            max: s[n - 1],
            supported: highest_supported(n).map(|p| (p, percentile(&s, p))),
        })
    }

    /// One human-readable line: count, percentiles, and which tail the
    /// sample count supports.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.supported {
            Some((p, v)) => format!(
                "p{} = {v:.1} {unit} is the highest with 10 beyond",
                p as f64 / 10.0
            ),
            None => "too few samples for any percentile with 10 beyond".to_string(),
        };
        format!(
            "n = {}, p50 = {:.1}, p90 = {:.1}, p99 = {:.1}, max = {:.1} {unit}; {tail}",
            self.n, self.p50, self.p90, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), 50.0);
        assert_eq!(percentile(&s, 900), 90.0);
        assert_eq!(percentile(&s, 990), 99.0);
        assert_eq!(percentile(&s, 1000), 100.0);
        assert_eq!(percentile(&s, 0), 1.0);
    }

    #[test]
    fn median_handles_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn supported_percentile_needs_ten_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(500));
        assert_eq!(highest_supported(100), Some(900));
        assert_eq!(highest_supported(1000), Some(990));
        assert_eq!(highest_supported(10_000), Some(999));
    }
}
