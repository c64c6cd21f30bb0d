//! Statistics and output: the median and tail rule, the metric tables and
//! the result lines.

/// The end-to-end metrics, `(name, unit)`: printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("peak_heap_mb", "MiB"),
];

/// The per-layer metrics, `(name, unit)`: printed by every traced run.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("admit_ms", "ms"),
    ("core.translate_ms", "ms"),
    ("core.eliminate_memories_ms", "ms"),
    ("core.classify_ms", "ms"),
    ("core.eliminate_ufs_ms", "ms"),
    ("core.encode_ms", "ms"),
    ("core.cnf_ms", "ms"),
    ("sat.solve_ms", "ms"),
    ("admit_pct", "%"),
    ("translate_pct", "%"),
    ("solve_pct", "%"),
    ("proof_check_pct", "%"),
    ("serve_worker_pct", "%"),
    ("untimed_pct", "%"),
    ("obs.trace_overhead_pct", "%"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.props_per_s", "1/s"),
    ("core.translations", "count"),
    ("core.cnf_vars", "count"),
    ("core.cnf_clauses", "count"),
    ("core.eij_vars", "count"),
    ("core.triangles", "count"),
    ("proof.steps", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.dedup_joins", "count"),
    ("mem.alloc_mb", "MiB"),
    ("mem.sat_arena_alloc_mb", "MiB"),
    ("mem.sat_learnts_alloc_mb", "MiB"),
    ("mem.eufm_alloc_mb", "MiB"),
    ("mem.serve_cache_alloc_mb", "MiB"),
];

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The Harrell–Davis estimate of the `p` quantile (0 < `p` < 1): the mean
/// of all order statistics weighted by a Beta(p(n+1), (1-p)(n+1)) law.
/// Unlike a single order statistic it moves smoothly as samples trade
/// ranks, so a sample with a gap at the quantile does not make the estimate
/// jump across the gap (the `bug-sweep` median sits between the short DLX
/// jobs and the long VLIW ones).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let (a, b) = (p * (n + 1.0), (1.0 - p) * (n + 1.0));
    let mut below = 0.0;
    sorted
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let cdf = beta_cdf(a, b, (i + 1) as f64 / n);
            let weight = cdf - below;
            below = cdf;
            weight * x
        })
        .sum()
}

/// The regularized incomplete beta function I_x(a, b), by its continued
/// fraction (Numerical Recipes, §6.4).
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// Lentz's evaluation of the incomplete beta continued fraction.
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    let nonzero = |v: f64| if v.abs() < 1e-300 { 1e-300 } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=300 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        let mut step = 1.0;
        for term in [even, odd] {
            d = 1.0 / nonzero(1.0 + term * d);
            c = nonzero(1.0 + term / c);
            step = d * c;
            h *= step;
        }
        if (step - 1.0).abs() < 1e-12 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x ≥ 1/2 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const COEFFICIENTS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let series = COEFFICIENTS[1..]
        .iter()
        .enumerate()
        .fold(COEFFICIENTS[0], |sum, (i, c)| {
            sum + c / (x + i as f64 + 1.0)
        });
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// A tail percentile of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 = the maximum).
    pub percentile: u32,
    /// Its [`quantile`] estimate.
    pub value: f64,
    /// The sample count.
    pub samples: usize,
}

impl Tail {
    /// The highest whole percentile that has at least ten samples beyond
    /// it by nearest rank.  Below 20 samples no percentile from the median
    /// up has ten samples beyond it, and the maximum is reported instead.
    pub fn of(values: &[f64]) -> Tail {
        let n = values.len();
        if n < 20 {
            return Tail {
                percentile: 100,
                value: values.iter().copied().fold(0.0, f64::max),
                samples: n,
            };
        }
        let percentile = (100 * (n - 10) / n) as u32;
        Tail {
            percentile,
            value: quantile(values, f64::from(percentile) / 100.0),
            samples: n,
        }
    }

    /// `p93 of n=153`: how the value was chosen.
    pub fn describe(&self) -> String {
        if self.percentile == 100 {
            format!("max of n={}", self.samples)
        } else {
            format!("p{} of n={}", self.percentile, self.samples)
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Its name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Its value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How the value was derived, when that is not obvious from the name.
    pub note: Option<String>,
}

/// The outcome of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Jobs run, over every pass.
    pub attempted: u64,
    /// Failed jobs, each as `job: what went wrong`.
    pub failures: Vec<String>,
    /// The metrics of the run's mode, in table order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The value of a metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable lines (`name value unit`, then each failure) and,
    /// last, the one-line JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for metric in &self.metrics {
            out.push_str(&format!("{} {} {}", metric.name, metric.value, metric.unit));
            if let Some(note) = &metric.note {
                out.push_str(&format!("  # {note}"));
            }
            out.push('\n');
        }
        for failure in &self.failures {
            out.push_str(&format!("FAILED {failure}\n"));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        ));
        out
    }
}

/// A JSON number with every digit of the measurement (`{}` prints the
/// shortest text that reads back as the same `f64`).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled input: the rule must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        for (n, percentile) in [
            (20, 50),
            (32, 68),
            (100, 90),
            (153, 93),
            (219, 95),
            (1000, 99),
        ] {
            let tail = Tail::of(&ramp(n));
            assert_eq!(tail.percentile, percentile, "n={n}");
            assert_eq!(tail.samples, n);
            // The nearest-rank sample of the percentile has ten or more
            // beyond it; one percentile more would leave fewer than ten.
            let rank = (percentile as usize * n).div_ceil(100);
            assert!(n - rank >= 10, "n={n}: {} beyond", n - rank);
            let next = (((percentile + 1) as usize) * n).div_ceil(100);
            assert!(n - next < 10, "n={n}: p{} also qualifies", percentile + 1);
            // On 1..=n the estimate sits at p(n+1), between the ranks.
            let expected = f64::from(percentile) / 100.0 * (n + 1) as f64;
            assert!((tail.value - expected).abs() < 0.5, "n={n}: {}", tail.value);
        }
        assert_eq!(Tail::of(&ramp(153)).describe(), "p93 of n=153");
    }

    #[test]
    fn quantile_moves_smoothly_across_a_gap() {
        // 50 short and 51 long jobs: the median order statistic is a long
        // job; moving one job across the gap makes it a short one.
        let split = |short: usize| -> Vec<f64> {
            (0..101)
                .map(|i| if i < short { 10.0 } else { 100.0 })
                .collect()
        };
        let (before, after) = (quantile(&split(50), 0.5), quantile(&split(51), 0.5));
        assert!((median(&split(50)) - median(&split(51))).abs() == 90.0);
        assert!((before - after).abs() < 15.0, "{before} -> {after}");
        assert!((quantile(&ramp(101), 0.5) - 51.0).abs() < 1e-9);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        for x in [0.1, 0.5, 0.9] {
            assert!((beta_cdf(1.0, 1.0, x) - x).abs() < 1e-12);
            assert!((beta_cdf(2.0, 1.0, x) - x * x).abs() < 1e-12);
        }
        assert!((beta_cdf(50.5, 50.5, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn small_samples_report_the_maximum() {
        let tail = Tail::of(&ramp(5));
        assert_eq!((tail.percentile, tail.value, tail.samples), (100, 5.0, 5));
        assert_eq!(tail.describe(), "max of n=5");
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_json_line_comes_last_and_keeps_every_digit() {
        let report = Report {
            attempted: 3,
            failures: vec!["ooo:4: expected Correct, got Buggy".to_owned()],
            metrics: vec![Metric {
                name: "sweep_s",
                value: 1.234_567_890_123,
                unit: "s",
                note: None,
            }],
        };
        let text = report.render();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"sweep_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}}}"
        );
        assert!(text.contains("sweep_s 1.234567890123 s\n"));
        assert!(text.contains("FAILED ooo:4"));
    }
}
