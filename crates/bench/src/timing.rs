//! Small timing helpers: median-of-N wall-clock measurement and the
//! quartiles of a sample.

use std::time::{Duration, Instant};

/// Runs `f` once and returns its duration.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs `f` `n` times (plus one warm-up) and returns the median duration.
pub fn median_of<T>(n: usize, mut f: impl FnMut() -> T) -> Duration {
    let _ = f(); // warm-up
    let mut samples: Vec<Duration> = (0..n.max(1))
        .map(|_| {
            let start = Instant::now();
            let out = f();
            std::hint::black_box(&out);
            start.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// First quartile, median and third quartile of `xs`, cut where
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method) cuts them. Panics on fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as i64;
    let cut = |i: i64| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1) - j * 4) as f64;
        (s[j as usize - 1] * (4.0 - delta) + s[j as usize] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Formats a duration compactly (µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3} s", us as f64 / 1_000_000.0)
    }
}

/// Percentage change from `base` to `measured` (positive = slower).
pub fn overhead_pct(base: Duration, measured: Duration) -> f64 {
    if base.is_zero() {
        return 0.0;
    }
    (measured.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_stable_order_of_magnitude() {
        let d = median_of(3, || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(d > Duration::ZERO);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=7], n=4) == [2.0, 4.0, 6.0], and
        // [1, 2, 3, 4] gives [1.25, 2.5, 3.75].
        let seven = [7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0];
        assert_eq!(quartiles(&seven), [2.0, 4.0, 6.0]);
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), [1.25, 2.5, 3.75]);
    }

    #[test]
    fn formats() {
        assert_eq!(fmt_duration(Duration::from_micros(250)), "250 µs");
        assert_eq!(fmt_duration(Duration::from_micros(2_500)), "2.50 ms");
        assert_eq!(fmt_duration(Duration::from_micros(2_500_000)), "2.500 s");
    }

    #[test]
    fn overhead_math() {
        let a = Duration::from_millis(100);
        let b = Duration::from_millis(110);
        assert!((overhead_pct(a, b) - 10.0).abs() < 1e-9);
    }
}
