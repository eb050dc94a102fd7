//! The ledger's statistics: window medians, quartile spread, and
//! interpolated histogram percentiles.

use pathcopy_metrics::{bucket_high, bucket_low, HistogramSnapshot};

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for an even count;
/// 0 for an empty slice, which only a window with no samples produces).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the exclusive method — the same
/// cut points as Python's `statistics.quantiles(values, n=4)`, which is
/// what the acceptance procedure computes run-to-run spread with. Fewer
/// than two values have no spread: all three are the single value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the
/// bounds in `BENCHMARK.json` are compared against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Value at percentile `pct` (0–100) of `snap`, interpolated linearly
/// inside the bucket that holds the order statistic.
///
/// `HistogramSnapshot::value_at_percentile` answers with the bucket's
/// upper edge, so a percentile that stays inside one ~3 %-wide bucket
/// reads identically run after run and then jumps a whole bucket; the
/// interpolated value moves with the samples. Returns 0 when empty.
pub fn percentile(snap: &HistogramSnapshot, pct: f64) -> f64 {
    let total = snap.count();
    if total == 0 {
        return 0.0;
    }
    let target = (pct / 100.0 * total as f64).clamp(0.0, total as f64);
    let mut cum = 0.0;
    for (i, &c) in snap.counts().iter().enumerate() {
        if c == 0 {
            continue;
        }
        let next = cum + c as f64;
        if next >= target {
            let low = bucket_low(i) as f64;
            // A bucket covers [low, high + 1) on the integer line.
            let width = (bucket_high(i) - bucket_low(i) + 1) as f64;
            return low + width * ((target - cum) / c as f64);
        }
        cum = next;
    }
    snap.max() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathcopy_metrics::LatencyHistogram;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates_within_a_bucket() {
        let h = LatencyHistogram::new();
        // 992..=1007 share one 16-wide bucket; the upper-edge percentile
        // reads 1007 for every quantile of any sample set inside it.
        for v in 1000..1008 {
            h.record(v);
        }
        assert_eq!(h.snapshot().value_at_percentile(10.0), 1007);
        let p50 = percentile(&h.snapshot(), 50.0);
        assert!(
            (p50 - 1000.0).abs() < 1e-9,
            "half way through the bucket: {p50}"
        );
        let p25 = percentile(&h.snapshot(), 25.0);
        assert!((p25 - 996.0).abs() < 1e-9, "a quarter of the way: {p25}");
        let p100 = percentile(&h.snapshot(), 100.0);
        assert!((p100 - 1008.0).abs() < 1e-9);
        assert_eq!(percentile(&LatencyHistogram::new().snapshot(), 50.0), 0.0);
    }

    #[test]
    fn percentile_walks_across_buckets() {
        let h = LatencyHistogram::new();
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        // Values below 32 have exact one-wide buckets.
        assert!((percentile(&h.snapshot(), 50.0) - 21.0).abs() < 1e-9);
        assert!((percentile(&h.snapshot(), 25.0) - 11.0).abs() < 1e-9);
    }
}
