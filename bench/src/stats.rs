//! Order statistics for reported timings.
//!
//! Every latency the benchmark reports is a nearest-rank percentile of
//! its samples, and a percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it, so a tail figure is never the
//! reading of one or two outliers.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, by [`highest_percentile`].
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    // The small offset keeps products like 99.9 * 20_000 / 100 from
    // rounding up past an exact integer rank.
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The `p`-th percentile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let i = rank(p, sorted.len());
    (sorted.len() - 1 - i >= MIN_BEYOND || p <= 50.0).then(|| sorted[i])
}

/// A tail summary: the median and the highest ladder percentile that
/// has at least [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Samples summarised.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The highest qualifying percentile, e.g. `99.0`.
    pub p: f64,
    /// Its value.
    pub value: f64,
}

/// Summarises `samples` (any order) as a [`Tail`]; `None` when empty.
#[must_use]
pub fn highest_percentile(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 50.0)?;
    let (p, value) = LADDER
        .iter()
        .find_map(|&p| percentile(&sorted, p).map(|v| (p, v)))?;
    Some(Tail {
        count: sorted.len(),
        p50,
        p,
        value,
    })
}

/// The `p`-th percentile of a log2-bucketed histogram, in its ticks:
/// `buckets[i]` counts values of `2^(i-1) ..= 2^i - 1` ticks (bucket 0
/// the value 0), as the program's telemetry registry keeps them. The
/// value is interpolated linearly by rank inside the bucket holding
/// the nearest rank and clamped into the exact `[min, max]`, so it
/// moves with the counts rather than snapping to a bucket bound. The
/// same [`MIN_BEYOND`] rule as [`percentile`] applies.
#[must_use]
pub fn bucket_percentile(buckets: &[u64], min: u64, max: u64, p: f64) -> Option<f64> {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return None;
    }
    let r = rank(p, n as usize) as u64 + 1;
    if n - r < MIN_BEYOND as u64 && p > 50.0 {
        return None;
    }
    let mut seen = 0;
    for (i, &count) in buckets.iter().enumerate() {
        if count > 0 && seen + count >= r {
            let (lo, hi) = match i {
                0 => (0.0, 0.0),
                _ => ((1u64 << (i - 1)) as f64, ((1u64 << i) - 1) as f64),
            };
            let v = lo + (hi - lo) * (r - seen) as f64 / count as f64;
            return Some(v.clamp(min as f64, max as f64));
        }
        seen += count;
    }
    None
}

/// Median of `xs` (mean of the middle pair for even counts); `None`
/// when empty.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank 990, nine samples beyond -> refused.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // 1000 samples: rank 990, ten beyond -> reported.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    }

    #[test]
    fn median_is_always_reported() {
        assert_eq!(percentile(&ramp(1), 50.0), Some(1.0));
        assert_eq!(percentile(&ramp(4), 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_percentile_walks_down_the_ladder() {
        // 200 samples: p99.9 and p99 have too few beyond; p95 has ten.
        let t = highest_percentile(&ramp(200)).unwrap();
        assert_eq!((t.count, t.p, t.value, t.p50), (200, 95.0, 190.0, 100.0));
        // 20 000 samples qualify for p99.9.
        let t = highest_percentile(&ramp(20_000)).unwrap();
        assert_eq!((t.p, t.value), (99.9, 19_980.0));
        // Five samples: only the median qualifies.
        let t = highest_percentile(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((t.count, t.p, t.value, t.p50), (5, 50.0, 3.0, 3.0));
        assert_eq!(highest_percentile(&[]), None);
    }

    #[test]
    fn bucket_percentile_interpolates_inside_the_bucket() {
        // Bucket 3 holds 4..=7 ticks, bucket 4 holds 8..=15.
        let mut b = [0u64; 8];
        b[3] = 10;
        b[4] = 30;
        // Rank 20 of 40 is the 10th of bucket 4's 30 values.
        let p50 = bucket_percentile(&b, 4, 15, 50.0).unwrap();
        assert!((p50 - (8.0 + 7.0 * 10.0 / 30.0)).abs() < 1e-9, "{p50}");
        // Rank 10 is the last value of bucket 3: its upper bound.
        assert_eq!(bucket_percentile(&b, 4, 15, 25.0), Some(7.0));
        // Clamped into the exact envelope.
        assert_eq!(bucket_percentile(&b, 5, 9, 1.0), Some(5.0));
        assert_eq!(bucket_percentile(&b, 4, 9, 50.0), Some(9.0));
        // p99 of 40 samples has no ten samples beyond it.
        assert_eq!(bucket_percentile(&b, 4, 15, 99.0), None);
        assert_eq!(bucket_percentile(&[0; 8], 0, 0, 50.0), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
