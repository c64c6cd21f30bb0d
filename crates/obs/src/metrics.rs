//! The metrics registry: named counters, gauges and fixed-bucket histograms.
//!
//! Registration is idempotent — asking for the same `(name, labels)` twice
//! returns handles backed by the same cell, so call sites can re-register on
//! every construction (e.g. once per solver instance) without double
//! counting.  Asking for the same key with a *different metric kind* is a
//! programming error and panics.
//!
//! Handles are cheap `Arc` clones over atomics; updates are lock-free.  The
//! registry mutex is taken only at registration and snapshot time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not attached to any registry (a free-standing cell).
    pub fn detached() -> Counter {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Gauge {
        Gauge {
            cell: Arc::new(AtomicI64::new(0)),
        }
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    /// Inclusive upper bounds, strictly increasing; an implicit `+Inf`
    /// bucket follows the last bound.
    bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) observation counts; `bounds.len() + 1`
    /// cells, the last one the `+Inf` overflow bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A histogram over `u64` observations with fixed bucket bounds.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            core: Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// A histogram not attached to any registry.
    pub fn detached(bounds: &[u64]) -> Histogram {
        Histogram::new(bounds)
    }

    /// Records one observation.  A value `v` lands in the first bucket whose
    /// bound is `>= v` (bounds are inclusive upper edges, Prometheus `le`
    /// semantics), or in the overflow bucket.
    #[inline]
    pub fn observe(&self, v: u64) {
        let index = self.core.bounds.partition_point(|&bound| bound < v);
        self.core.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a pre-bucketed batch of observations into the histogram in one
    /// pass: `counts[i]` observations land in bucket `i` (the layout of
    /// [`HistogramSnapshot::counts`]: `bounds.len() + 1` cells, overflow
    /// last), `sum` is the sum of the underlying values.  This lets a hot
    /// loop accumulate into plain local counters and publish at heartbeat
    /// granularity instead of paying one atomic RMW per observation.
    pub fn observe_bucketed(&self, counts: &[u64], sum: u64) {
        debug_assert_eq!(counts.len(), self.core.buckets.len());
        let last = self.core.buckets.len() - 1;
        let mut total = 0u64;
        for (index, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            self.core.buckets[index.min(last)].fetch_add(n, Ordering::Relaxed);
            total += n;
        }
        if total == 0 {
            return;
        }
        self.core.sum.fetch_add(sum, Ordering::Relaxed);
        self.core.count.fetch_add(total, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.core.bounds.clone(),
            counts: self
                .core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.core.sum.load(Ordering::Relaxed),
            count: self.core.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) counts; one more entry than `bounds`,
    /// the last being the `+Inf` overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of the observed
    /// distribution by linear interpolation inside the bucket containing the
    /// target rank (Prometheus `histogram_quantile` semantics).  Values in
    /// the `+Inf` overflow bucket are attributed to the last finite bound —
    /// the estimate is clamped, never extrapolated.  Returns `0.0` for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (index, &bucket_count) in self.counts.iter().enumerate() {
            let previous = cumulative;
            cumulative += bucket_count;
            if (cumulative as f64) < rank || bucket_count == 0 {
                continue;
            }
            if index >= self.bounds.len() {
                // Overflow bucket: clamp to the last finite bound.
                return self.bounds[self.bounds.len() - 1] as f64;
            }
            let upper = self.bounds[index] as f64;
            let lower = if index == 0 {
                0.0
            } else {
                self.bounds[index - 1] as f64
            };
            let within = (rank - previous as f64) / bucket_count as f64;
            return lower + within.clamp(0.0, 1.0) * (upper - lower);
        }
        self.bounds[self.bounds.len() - 1] as f64
    }
}

/// The value of one metric in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram reading.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The reading as a `u64`: the counter value, a non-negative gauge
    /// value, or `None` for histograms and negative gauges.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            MetricValue::Gauge(v) => u64::try_from(*v).ok(),
            MetricValue::Histogram(_) => None,
        }
    }
}

/// One metric sample in a [`Snapshot`].
#[derive(Clone, Debug)]
pub struct MetricSample {
    /// The metric name.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The help text supplied at registration.
    pub help: String,
    /// The reading.
    pub value: MetricValue,
}

impl MetricSample {
    /// The name with labels rendered inline: `name` or `name{k="v",...}`.
    pub fn full_name(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut out = self.name.clone();
        out.push('{');
        for (index, (k, v)) in self.labels.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            crate::json::escape_into(&mut out, v);
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// A point-in-time view of every metric in a [`Registry`], ordered by name
/// then labels.  See [`Snapshot::prometheus_text`], [`Snapshot::json`] and
/// [`Snapshot::flat_fields`] for the encodings.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The samples, sorted by `(name, labels)`.
    pub metrics: Vec<MetricSample>,
}

impl Snapshot {
    /// The sample with the given name and labels, if present.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSample> {
        self.metrics.iter().find(|m| {
            m.name == name
                && m.labels.len() == labels.len()
                && m.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
    }

    /// The value of an unlabelled (or uniquely named) counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| match m.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
    }
}

enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    help: String,
    handle: Handle,
}

type Key = (String, Vec<(String, String)>);

#[derive(Default)]
struct RegistryInner {
    entries: Mutex<BTreeMap<Key, Entry>>,
}

/// A collection of named metrics; see the [module docs](self) for the
/// registration contract.  Cloning a `Registry` clones a handle to the same
/// underlying collection.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut owned: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    owned.sort();
    owned
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        build: impl FnOnce() -> Handle,
        want: &'static str,
    ) -> Handle {
        let key = (name.to_string(), owned_labels(labels));
        let mut entries = self.inner.entries.lock().expect("registry lock");
        let entry = entries.entry(key).or_insert_with(|| Entry {
            help: help.to_string(),
            handle: build(),
        });
        assert_eq!(
            entry.handle.kind(),
            want,
            "metric `{name}` is already registered as a {}, not a {want}",
            entry.handle.kind()
        );
        match &entry.handle {
            Handle::Counter(c) => Handle::Counter(c.clone()),
            Handle::Gauge(g) => Handle::Gauge(g.clone()),
            Handle::Histogram(h) => Handle::Histogram(h.clone()),
        }
    }

    /// Registers (or looks up) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Registers (or looks up) a labelled counter.
    ///
    /// # Panics
    ///
    /// Panics when `(name, labels)` is already registered as another kind.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.register(
            name,
            labels,
            help,
            || Handle::Counter(Counter::detached()),
            "counter",
        ) {
            Handle::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Registers (or looks up) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Registers (or looks up) a labelled gauge.
    ///
    /// # Panics
    ///
    /// Panics when `(name, labels)` is already registered as another kind.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.register(
            name,
            labels,
            help,
            || Handle::Gauge(Gauge::detached()),
            "gauge",
        ) {
            Handle::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers (or looks up) an unlabelled histogram with the given
    /// inclusive upper bucket bounds (strictly increasing; an implicit
    /// `+Inf` bucket is appended).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        self.histogram_with(name, &[], help, bounds)
    }

    /// Registers (or looks up) a labelled histogram.
    ///
    /// # Panics
    ///
    /// Panics when `(name, labels)` is already registered as another kind.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        bounds: &[u64],
    ) -> Histogram {
        match self.register(
            name,
            labels,
            help,
            || Handle::Histogram(Histogram::new(bounds)),
            "histogram",
        ) {
            Handle::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.inner.entries.lock().expect("registry lock");
        let metrics = entries
            .iter()
            .map(|((name, labels), entry)| MetricSample {
                name: name.clone(),
                labels: labels.clone(),
                help: entry.help.clone(),
                value: match &entry.handle {
                    Handle::Counter(c) => MetricValue::Counter(c.get()),
                    Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                    Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        Snapshot { metrics }
    }
}

/// The process-wide default registry: solver, translation and proof metrics
/// land here.  (`velv_serve` services carry their own per-instance
/// [`Registry`] instead, so concurrent services never mix counters.)
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let registry = Registry::new();
        let a = registry.counter("x_total", "X.");
        let b = registry.counter("x_total", "X.");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(registry.snapshot().counter("x_total"), Some(3));
    }

    #[test]
    fn labels_separate_series() {
        let registry = Registry::new();
        registry
            .counter_with("y_total", &[("preset", "chaff")], "Y.")
            .inc();
        registry
            .counter_with("y_total", &[("preset", "sato")], "Y.")
            .add(5);
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot
                .get("y_total", &[("preset", "chaff")])
                .map(|m| m.value.clone()),
            Some(MetricValue::Counter(1))
        );
        assert_eq!(
            snapshot
                .get("y_total", &[("preset", "sato")])
                .map(|m| m.value.clone()),
            Some(MetricValue::Counter(5))
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("z", "Z.");
        registry.gauge("z", "Z.");
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::detached();
        g.add(10);
        g.sub(25);
        assert_eq!(g.get(), -15);
        g.set(4);
        assert_eq!(g.get(), 4);
    }
}
