//! The metrics registry: counters, gauges, and log-scale histograms
//! keyed by static names plus label sets.
//!
//! Design goals, in order:
//!
//! 1. **Cheap hot path.** Incrementing a counter or recording a
//!    histogram sample is a handful of relaxed atomic operations on a
//!    handle the caller obtained once at registration time. No locks,
//!    no allocation, no formatting.
//! 2. **Observational only.** Nothing here consumes randomness or
//!    advances any clock, so enabling metrics cannot perturb a
//!    deterministic simulation.
//! 3. **Point-in-time snapshots.** [`MetricsRegistry::snapshot`]
//!    captures every registered series and renders to aligned text
//!    without stopping writers (relaxed reads; a snapshot is a
//!    consistent-enough view for reporting, not a linearization).
//!
//! Registration takes a `Mutex` (std; the tree has no `parking_lot`)
//! — acceptable because registration happens once per series, off the
//! hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A label set: sorted `(key, value)` pairs distinguishing series that
/// share a metric name, e.g. `[("path", "indirect")]`.
pub type Labels = Vec<(&'static str, String)>;

fn canonical(labels: &Labels) -> Labels {
    let mut l = labels.clone();
    l.sort();
    l
}

/// Monotonically increasing counter. Cloning shares the underlying
/// cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge holding an `f64` (stored as bits in an
/// `AtomicU64`). Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of log2 buckets. Bucket `i` (for `i >= 1`) counts values `v`
/// with `floor(log2(v)) == i - 1`; bucket 0 counts zeros. Covers the
/// full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Log-scale histogram of `u64` samples (durations in µs, byte counts,
/// …). Cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Arc<[AtomicU64; HISTOGRAM_BUCKETS]>,
    count: Arc<AtomicU64>,
    sum: Arc<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: Arc::new(AtomicU64::new(0)),
            sum: Arc::new(AtomicU64::new(0)),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or NaN when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            f64::NAN
        } else {
            self.sum() as f64 / n as f64
        }
    }

    fn snapshot_buckets(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Approximate quantile (`q` in `[0, 1]`) from bucket boundaries:
    /// returns the upper bound of the bucket holding the `q`-th sample,
    /// or NaN when empty. Log-scale accuracy: within 2x of the true
    /// value.
    pub fn quantile(&self, q: f64) -> f64 {
        let buckets = self.snapshot_buckets();
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        f64::INFINITY
    }
}

/// Upper bound of bucket `i` (inclusive), as f64.
fn bucket_upper_bound(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else if i >= 64 {
        u64::MAX as f64
    } else {
        ((1u128 << i) - 1) as f64
    }
}

#[derive(Default)]
struct Series {
    counters: BTreeMap<(&'static str, Labels), Counter>,
    gauges: BTreeMap<(&'static str, Labels), Gauge>,
    histograms: BTreeMap<(&'static str, Labels), Histogram>,
}

/// Thread-safe registry of named metric series.
#[derive(Default)]
pub struct MetricsRegistry {
    series: Mutex<Series>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) the counter `name` with `labels`. The
    /// returned handle is lock-free to update; keep it rather than
    /// re-registering per increment.
    pub fn counter(&self, name: &'static str, labels: Labels) -> Counter {
        self.series
            .lock()
            .expect("metrics poisoned")
            .counters
            .entry((name, canonical(&labels)))
            .or_default()
            .clone()
    }

    /// Registers (or retrieves) the gauge `name` with `labels`.
    pub fn gauge(&self, name: &'static str, labels: Labels) -> Gauge {
        self.series
            .lock()
            .expect("metrics poisoned")
            .gauges
            .entry((name, canonical(&labels)))
            .or_default()
            .clone()
    }

    /// Registers (or retrieves) the histogram `name` with `labels`.
    pub fn histogram(&self, name: &'static str, labels: Labels) -> Histogram {
        self.series
            .lock()
            .expect("metrics poisoned")
            .histograms
            .entry((name, canonical(&labels)))
            .or_default()
            .clone()
    }

    /// Point-in-time view of every registered series.
    pub fn snapshot(&self) -> Snapshot {
        let s = self.series.lock().expect("metrics poisoned");
        let mut rows = Vec::new();
        for ((name, labels), c) in &s.counters {
            rows.push(MetricRow {
                name,
                labels: labels.clone(),
                value: MetricValue::Counter(c.get()),
            });
        }
        for ((name, labels), g) in &s.gauges {
            rows.push(MetricRow {
                name,
                labels: labels.clone(),
                value: MetricValue::Gauge(g.get()),
            });
        }
        for ((name, labels), h) in &s.histograms {
            rows.push(MetricRow {
                name,
                labels: labels.clone(),
                value: MetricValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                    mean: h.mean(),
                    p50: h.quantile(0.50),
                    p99: h.quantile(0.99),
                },
            });
        }
        rows.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
        Snapshot { rows }
    }
}

/// Value of one series at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram summary.
    Histogram {
        /// Samples recorded.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Mean sample (NaN when empty).
        mean: f64,
        /// Approximate median.
        p50: f64,
        /// Approximate 99th percentile.
        p99: f64,
    },
}

/// One series in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Metric name.
    pub name: &'static str,
    /// Label set (sorted).
    pub labels: Labels,
    /// Reading.
    pub value: MetricValue,
}

impl MetricRow {
    fn label_string(&self) -> String {
        if self.labels.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> = self
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            format!("{{{}}}", parts.join(","))
        }
    }
}

/// Point-in-time view of a registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Rows sorted by (name, labels).
    pub rows: Vec<MetricRow>,
}

impl Snapshot {
    /// True when no series were registered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Looks up a counter reading by name and labels.
    pub fn counter(&self, name: &str, labels: &Labels) -> Option<u64> {
        let want = canonical(labels);
        self.rows.iter().find_map(|r| match r.value {
            MetricValue::Counter(v) if r.name == name && r.labels == want => Some(v),
            _ => None,
        })
    }

    /// Aligned plain-text rendering, one series per line.
    pub fn render_text(&self) -> String {
        let keys: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("{}{}", r.name, r.label_string()))
            .collect();
        let width = keys.iter().map(|k| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (key, row) in keys.iter().zip(&self.rows) {
            let value = match &row.value {
                MetricValue::Counter(v) => format!("{v}"),
                MetricValue::Gauge(v) => format!("{v:.3}"),
                MetricValue::Histogram {
                    count,
                    mean,
                    p50,
                    p99,
                    ..
                } => format!("count {count}  mean {mean:.1}  p50 ~{p50:.0}  p99 ~{p99:.0}"),
            };
            out.push_str(&format!("{key:<width$}  {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_aggregates_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("flows_started", vec![]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(
            reg.snapshot().counter("flows_started", &vec![]),
            Some(80_000)
        );
    }

    #[test]
    fn same_name_same_labels_shares_a_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x", vec![("k", "v".into())]);
        let b = reg.counter("x", vec![("k", "v".into())]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        // Different labels → different series.
        let c = reg.counter("x", vec![("k", "w".into())]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("m", vec![("a", "1".into()), ("b", "2".into())]);
        let b = reg.counter("m", vec![("b", "2".into()), ("a", "1".into())]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn gauge_last_write_wins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("queue_depth", vec![]);
        g.set(2.5);
        g.set(7.25);
        assert_eq!(g.get(), 7.25);
    }

    #[test]
    fn histogram_moments_and_quantiles() {
        let h = Histogram::default();
        assert!(h.mean().is_nan());
        assert!(h.quantile(0.5).is_nan());
        for v in [1u64, 2, 4, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1015);
        assert!((h.mean() - 203.0).abs() < 1e-9);
        // p50 lands in the bucket containing 4 (bucket upper bound 7).
        let p50 = h.quantile(0.5);
        assert!((4.0..=7.0).contains(&p50), "p50 {p50}");
        // p99 lands in 1000's bucket (upper bound 1023).
        let p99 = h.quantile(0.99);
        assert!((1000.0..=1023.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn histogram_zero_and_max() {
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), 0.0);
        assert!(h.quantile(1.0) > 1e18);
    }

    #[test]
    fn histogram_aggregates_across_threads() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("latency_us", vec![]);
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn snapshot_renders_text_aligned() {
        let reg = MetricsRegistry::new();
        reg.counter("long_counter_name", vec![]).add(5);
        reg.gauge("g", vec![("host", "a".into())]).set(1.0);
        let text = reg.snapshot().render_text();
        assert!(text.contains("long_counter_name"));
        assert!(text.contains("g{host=a}"));
        // Both value columns start at the same offset.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let col: Vec<usize> = lines
            .iter()
            .map(|l| l.find("  ").expect("two-space separator"))
            .collect();
        assert!(col[0] == col[1] || lines[0].split_whitespace().count() >= 2);
    }

    #[test]
    fn bucket_of_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }
}
