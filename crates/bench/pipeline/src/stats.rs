//! Order statistics for the benchmark's samples.

/// Median of `xs` (mean of the two middle values for even lengths);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads reported here match the ones a Python reader computes from
/// the same values. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len() as i64;
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (s[(j - 1) as usize] * (4.0 - delta) + s[j as usize] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the run-to-run
/// spread the regression bounds are judged against.
pub fn relative_iqr(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The `p`-th percentile (0–100) by linear interpolation between the
/// closest ranks; `NaN` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0) * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// The percentile across passes that the end-to-end times report.
///
/// Interference from other tenants of a shared host only ever adds
/// time, and comes in bursts of a fraction of a second up to whole
/// runs; a pass median moves with how much of the run the bursts
/// covered, while the 10th percentile tracks the undisturbed speed as
/// long as one pass in ten ran undisturbed.
pub const QUIET: f64 = 10.0;

/// The [`QUIET`] percentile of per-pass values.
pub fn quiet(xs: &[f64]) -> f64 {
    percentile(xs, QUIET)
}

/// The percentiles a tail can be reported at, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest percentile in [`TAILS`] that has at least ten samples
/// beyond it, or `None` when even the median has fewer than ten.
pub fn reportable_tail(samples: usize) -> Option<f64> {
    // The epsilon absorbs `100 - 99.9` not being exactly `0.1`.
    TAILS.into_iter().find(|&p| samples as f64 * (100.0 - p) / 100.0 + 1e-9 >= 10.0)
}

/// Latency histogram with log-spaced buckets: fixed memory however many
/// samples a run records (so the bookkeeping does not move
/// `peak_rss_mb`), quantiles within half a percent.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

/// Bucket `i` covers `[FLOOR * GROWTH^i, FLOOR * GROWTH^(i+1))`.
const FLOOR: f64 = 1e-3;
const GROWTH: f64 = 1.005;
/// Enough buckets to reach 10^9 (µs: over 15 minutes).
const BUCKETS: usize = 5_600;

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { counts: vec![0; BUCKETS], total: 0 }
    }
}

impl Histogram {
    /// Adds one sample.
    pub fn record(&mut self, x: f64) {
        let i = if x > FLOOR { ((x / FLOOR).ln() / GROWTH.ln()) as usize } else { 0 };
        self.counts[i.min(BUCKETS - 1)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `p`-th percentile (0–100), as its bucket's geometric middle;
    /// `NaN` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return FLOOR * GROWTH.powf(i as f64 + 0.5);
            }
        }
        FLOOR * GROWTH.powf(BUCKETS as f64)
    }
}

/// Geometric mean of positive values; `NaN` if any is not positive.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&xs).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[7.0, 7.0, 7.0]), Some(0.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(reportable_tail(9), None);
        assert_eq!(reportable_tail(20), Some(50.0));
        assert_eq!(reportable_tail(99), Some(50.0));
        assert_eq!(reportable_tail(100), Some(90.0));
        assert_eq!(reportable_tail(999), Some(90.0));
        assert_eq!(reportable_tail(1000), Some(99.0));
        assert_eq!(reportable_tail(10_000), Some(99.9));
    }

    #[test]
    fn histogram_quantiles_are_within_half_a_percent() {
        let mut h = Histogram::default();
        assert!(h.is_empty() && h.percentile(50.0).is_nan());
        let xs: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 0.37).collect();
        for &x in &xs {
            h.record(x);
        }
        assert_eq!(h.len(), 1000);
        for p in [1.0, 50.0, 90.0, 99.0] {
            let exact = xs[(p / 100.0 * 1000.0) as usize - 1];
            let approx = h.percentile(p);
            assert!((approx / exact - 1.0).abs() < 0.005, "p{p}: {approx} vs {exact}");
        }
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }
}
