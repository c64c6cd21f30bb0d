//! Property tests for quantile estimation and histogram merging: estimated
//! p50/p95/p99 must bracket the true sample quantiles within the resolution
//! of the containing bucket, and `HistogramSnapshot::merge` must be
//! associative, commutative, and equivalent to pooling the samples.

/// SplitMix64 — the workspace's seeded generator (`velv_obs` cannot depend
/// on `velv_sat`, so the mixer is restated here; equal seeds, equal streams).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A sample spread over the full micros-to-minutes range: an exponent
    /// picks the decade, the mantissa the position inside it.
    fn latency(&mut self) -> u64 {
        let decade = self.next() % 9; // 1 us .. ~1000 s
        let base = 10u64.pow(decade as u32);
        base + self.next() % (base * 9)
    }
}

/// The true `q`-quantile of the samples: the smallest value with at least
/// `ceil(q * n)` samples at or below it.
fn true_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `(lower, upper]` bucket of `bounds` containing `v` (the overflow
/// bucket is capped at the last finite bound, matching the estimator's
/// clamping contract).
fn bucket_of(bounds: &[u64], v: u64) -> (f64, f64) {
    let index = bounds.partition_point(|&bound| bound < v);
    if index >= bounds.len() {
        let last = bounds[bounds.len() - 1] as f64;
        return (last, last);
    }
    let lower = if index == 0 {
        0.0
    } else {
        bounds[index - 1] as f64
    };
    (lower, bounds[index] as f64)
}

/// The snapshot of a log-bucketed histogram holding `samples`.
fn hist(samples: &[u64]) -> velv_obs::HistogramSnapshot {
    let h = velv_obs::Histogram::detached(velv_obs::log_bucket_bounds());
    for &v in samples {
        h.observe(v);
    }
    h.snapshot()
}

#[test]
fn estimated_percentiles_bracket_true_quantiles() {
    let bounds = velv_obs::log_bucket_bounds();
    for seed in 0..20u64 {
        let mut rng = Rng(0xF422_0008 ^ seed);
        let n = 100 + (rng.next() % 4000) as usize;
        let mut samples: Vec<u64> = (0..n).map(|_| rng.latency()).collect();

        // One histogram over every sample, and the same samples recorded in
        // two halves and merged.
        let registry_hist = velv_obs::Histogram::detached(bounds);
        let (front, back) = samples.split_at(n / 2);
        let mut merged = hist(front);
        merged.merge(&hist(back));
        for &v in &samples {
            registry_hist.observe(v);
        }
        samples.sort_unstable();

        for q in [0.5, 0.95, 0.99] {
            let truth = true_quantile(&samples, q);
            let (lower, upper) = bucket_of(bounds, truth);
            for (which, estimate) in [
                ("registry", registry_hist.snapshot().quantile(q)),
                ("merged", merged.quantile(q)),
            ] {
                assert!(
                    (lower..=upper).contains(&estimate),
                    "seed {seed} {which} p{q}: estimate {estimate} outside \
                     ({lower}, {upper}] bracketing true quantile {truth} of {n} samples"
                );
            }
        }
    }
}

#[test]
fn merge_is_associative_commutative_and_pools_samples() {
    for seed in 0..10u64 {
        let mut rng = Rng(0x5EED_0088 ^ seed);
        let parts: Vec<Vec<u64>> = (0..3)
            .map(|_| {
                let n = 1 + (rng.next() % 500) as usize;
                (0..n).map(|_| rng.latency()).collect()
            })
            .collect();
        let (a, b, c) = (hist(&parts[0]), hist(&parts[1]), hist(&parts[2]));

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        // c ⊕ b ⊕ a
        let mut reversed = c.clone();
        reversed.merge(&b);
        reversed.merge(&a);
        // Pooled samples observed into one histogram.
        let pooled = hist(&parts.concat());

        assert_eq!(left, right, "seed {seed}: merge is associative");
        assert_eq!(left, reversed, "seed {seed}: merge is commutative");
        assert_eq!(left, pooled, "seed {seed}: merge equals pooling");

        // Identity element.
        let mut with_empty = pooled.clone();
        with_empty.merge(&hist(&[]));
        assert_eq!(with_empty, pooled, "seed {seed}: empty merge is identity");
    }
}
