//! Log-bucketed bounds for latency histograms, tuned for durations from one
//! microsecond to minutes.
//!
//! [`log_bucket_bounds`] is the 1–2–5 series per decade, giving a worst-case
//! relative quantile error of ~2.5× at 27 buckets over nine decades — the
//! resolution the serve latency percentiles and the multi-file `velvc trace`
//! summary need.  Record into a [`Histogram`](crate::Histogram) with these
//! bounds (a registry one, or [`Histogram::detached`](crate::Histogram::detached)
//! for offline aggregation) and pool snapshots with
//! [`HistogramSnapshot::merge`](crate::HistogramSnapshot::merge).

/// Inclusive upper bucket bounds in microseconds: the 1–2–5 series from
/// 1 µs to 600 s (ten minutes).  An implicit `+Inf` bucket follows.
pub fn log_bucket_bounds() -> &'static [u64] {
    const BOUNDS: &[u64] = &[
        1,
        2,
        5,
        10,
        20,
        50,
        100,
        200,
        500,
        1_000,
        2_000,
        5_000,
        10_000,
        20_000,
        50_000,
        100_000,
        200_000,
        500_000,
        1_000_000,
        2_000_000,
        5_000_000,
        10_000_000,
        20_000_000,
        50_000_000,
        100_000_000,
        200_000_000,
        600_000_000,
    ];
    BOUNDS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Histogram, HistogramSnapshot};

    #[test]
    fn bounds_are_strictly_increasing_and_span_micros_to_minutes() {
        let bounds = log_bucket_bounds();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(bounds[0], 1);
        assert_eq!(*bounds.last().unwrap(), 600_000_000);
    }

    /// A detached log-bucketed histogram holding `values`, as a snapshot.
    fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
        let histogram = Histogram::detached(log_bucket_bounds());
        for &v in values {
            histogram.observe(v);
        }
        histogram.snapshot()
    }

    #[test]
    fn merge_pools_samples() {
        let mut a = snapshot_of(&[3, 40, 900]);
        a.merge(&snapshot_of(&[7, 7_000_000]));
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 3 + 40 + 900 + 7 + 7_000_000);
        assert_eq!(a, snapshot_of(&[3, 40, 900, 7, 7_000_000]));
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        // 99 observations in the (10, 20] bucket, one in (200e6, 600e6],
        // recorded in two parts and merged.
        let mut h = snapshot_of(&[15; 60]);
        let mut rest = vec![15u64; 39];
        rest.push(400_000_000);
        h.merge(&snapshot_of(&rest));
        let p50 = h.quantile(0.5);
        assert!((10.0..=20.0).contains(&p50), "{p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 <= 20.0, "{p99}");
        let p100 = h.quantile(1.0);
        assert!(p100 > 200_000_000.0, "{p100}");
    }

    #[test]
    fn default_snapshot_is_the_merge_identity() {
        let values = snapshot_of(&[1, 2_000, 9_000_000]);
        let mut from_default = HistogramSnapshot::default();
        from_default.merge(&values);
        assert_eq!(from_default, values);
        let mut with_default = values.clone();
        with_default.merge(&HistogramSnapshot::default());
        assert_eq!(with_default, values);
    }
}
