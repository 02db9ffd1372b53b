//! The metrics registry: counters, gauges and log-bucketed histograms
//! keyed by `(subsystem, name, device)`.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed
//! clones of the underlying atomic cells: a component fetches its handles
//! once at construction and updates them lock-free on the hot path. The
//! registry itself is only locked when creating/adopting metrics or taking
//! a [`RegistrySnapshot`].

use simcore::sync::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of a metric: `subsystem.name{device}`.
///
/// `device` is the raw [`u16`] device id (`iommu::DeviceId.0`); it is kept
/// as a bare integer here so `obs` sits below the `iommu` crate in the
/// dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey {
    /// Owning subsystem, e.g. `"pool"`, `"invalq"`, `"dma"`.
    pub subsystem: &'static str,
    /// Metric name within the subsystem, e.g. `"acquires"`.
    pub name: &'static str,
    /// Optional device the metric is scoped to.
    pub device: Option<u16>,
}

impl MetricKey {
    /// Builds a key.
    pub fn new(subsystem: &'static str, name: &'static str, device: Option<u16>) -> Self {
        MetricKey {
            subsystem,
            name,
            device,
        }
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.device {
            Some(d) => write!(f, "{}.{}{{dev{}}}", self.subsystem, self.name, d),
            None => write!(f, "{}.{}", self.subsystem, self.name),
        }
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Resets to zero (used when an experiment re-baselines after warmup).
    pub fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// A gauge: a signed value that can move both ways, with monotonic-max
/// support for peak tracking.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n` and returns the new value.
    ///
    /// All gauge orderings are `Relaxed`: metrics are statistics, never
    /// synchronization — readers only need eventual totals (thread joins
    /// and lock hand-offs already order the interesting snapshots).
    pub fn add(&self, n: i64) -> i64 {
        self.cell.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Subtracts `n` and returns the new value.
    pub fn sub(&self, n: i64) -> i64 {
        self.add(-n)
    }

    /// Raises the gauge to `v` if `v` is larger (peak tracking).
    pub fn set_max(&self, v: i64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i` holds
/// values whose bit length is `i`, i.e. `[2^(i-1), 2^i - 1]`.
const HIST_BUCKETS: usize = 65;

/// Bucket index for a value (log2 bucketing).
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

#[derive(Debug)]
struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistCells {
    fn default() -> Self {
        HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed (power-of-two) histogram of `u64` samples.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cells: Arc<HistCells>,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.cells.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    /// Consistent-enough snapshot of the bucket array.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.cells.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((bucket_upper_bound(i), c));
            }
        }
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// Point-in-time view of a [`Histogram`]: `(upper_bound, count)` pairs for
/// the non-empty buckets, in ascending bound order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile (`p` in `[0,1]`): the upper bound of the
    /// bucket where the cumulative count crosses `p * count`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0;
        for &(bound, c) in &self.buckets {
            cum += c;
            if cum >= target.max(1) {
                return bound;
            }
        }
        self.buckets.last().map(|&(b, _)| b).unwrap_or(0)
    }

    /// Percentile with **within-bucket linear interpolation**.
    ///
    /// [`HistogramSnapshot::percentile`] returns the containing bucket's
    /// *upper bound*, which with power-of-two buckets overstates tail
    /// percentiles by up to 2×. This variant assumes samples are spread
    /// uniformly inside each bucket and interpolates between the
    /// bucket's lower and upper bound; for distributions that fill a
    /// bucket uniformly it is exact. Returns 0.0 for an empty histogram.
    pub fn percentile_interp(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = p.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for &(upper, c) in &self.buckets {
            let next = cum + c;
            if next as f64 >= target {
                let lower = bucket_lower_bound(upper);
                let frac = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                return lower as f64 + frac * (upper - lower) as f64;
            }
            cum = next;
        }
        self.buckets.last().map(|&(b, _)| b as f64).unwrap_or(0.0)
    }
}

/// Inclusive lower bound of the bucket whose upper bound is `upper`
/// (inverse companion of [`bucket_upper_bound`]).
fn bucket_lower_bound(upper: u64) -> u64 {
    if upper == 0 {
        0
    } else {
        (upper >> 1) + 1
    }
}

#[derive(Default)]
struct Tables {
    counters: HashMap<MetricKey, Counter>,
    gauges: HashMap<MetricKey, Gauge>,
    histograms: HashMap<MetricKey, Histogram>,
}

/// The metric registry: the single authoritative store for every counter,
/// gauge and histogram in a simulation stack.
#[derive(Default)]
pub struct Registry {
    tables: RwLock<Tables>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.tables.read();
        f.debug_struct("Registry")
            .field("counters", &t.counters.len())
            .field("gauges", &t.gauges.len())
            .field("histograms", &t.histograms.len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Gets or creates the counter for `key`, returning a shared handle.
    pub fn counter(&self, key: MetricKey) -> Counter {
        if let Some(c) = self.tables.read().counters.get(&key) {
            return c.clone();
        }
        self.tables.write().counters.entry(key).or_default().clone()
    }

    /// Gets or creates the gauge for `key`.
    pub fn gauge(&self, key: MetricKey) -> Gauge {
        if let Some(g) = self.tables.read().gauges.get(&key) {
            return g.clone();
        }
        self.tables.write().gauges.entry(key).or_default().clone()
    }

    /// Gets or creates the histogram for `key`.
    pub fn histogram(&self, key: MetricKey) -> Histogram {
        if let Some(h) = self.tables.read().histograms.get(&key) {
            return h.clone();
        }
        self.tables
            .write()
            .histograms
            .entry(key)
            .or_default()
            .clone()
    }

    /// Takes a snapshot of every metric, sorted by key for deterministic
    /// rendering.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let t = self.tables.read();
        let mut counters: Vec<_> = t.counters.iter().map(|(k, c)| (*k, c.get())).collect();
        let mut gauges: Vec<_> = t.gauges.iter().map(|(k, g)| (*k, g.get())).collect();
        let mut histograms: Vec<_> = t
            .histograms
            .iter()
            .map(|(k, h)| (*k, h.snapshot()))
            .collect();
        counters.sort_by_key(|&(k, _)| k);
        gauges.sort_by_key(|&(k, _)| k);
        histograms.sort_by_key(|a| a.0);
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A point-in-time, deterministically ordered view of a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter values.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge values.
    pub gauges: Vec<(MetricKey, i64)>,
    /// Histogram snapshots.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// Looks up a counter value by key components.
    pub fn counter(&self, subsystem: &str, name: &str, device: Option<u16>) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k.subsystem == subsystem && k.name == name && k.device == device)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge value by key components.
    pub fn gauge(&self, subsystem: &str, name: &str, device: Option<u16>) -> Option<i64> {
        self.gauges
            .iter()
            .find(|(k, _)| k.subsystem == subsystem && k.name == name && k.device == device)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_display_convention() {
        assert_eq!(
            MetricKey::new("pool", "acquires", Some(3)).to_string(),
            "pool.acquires{dev3}"
        );
        assert_eq!(
            MetricKey::new("invalq", "waits", None).to_string(),
            "invalq.waits"
        );
    }

    #[test]
    fn counter_handles_share_cell() {
        let r = Registry::new();
        let k = MetricKey::new("a", "b", None);
        let c1 = r.counter(k);
        let c2 = r.counter(k);
        c1.add(2);
        c2.inc();
        assert_eq!(r.snapshot().counter("a", "b", None), Some(3));
    }

    #[test]
    fn gauge_peaks() {
        let g = Gauge::default();
        g.add(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(g.get(), 9);
        g.sub(4);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // 0 → bucket 0; 1 → bucket 1; powers of two land in a fresh bucket;
        // 2^i - 1 stays in bucket i.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        for v in [0u64, 1, 2, 255, 256, 257, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "v={v} bucket={i}");
            }
        }
    }

    #[test]
    fn histogram_stats() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (3, 2), (1023, 1)]);
        assert_eq!(snap.percentile(0.5), 3);
        assert_eq!(snap.percentile(1.0), 1023);
    }

    #[test]
    fn percentile_interp_exact_on_bucket_uniform() {
        // 256..=511 once each fills bucket 9 uniformly: interpolation is
        // exact, while the upper-bound percentile pins at 511.
        let h = Histogram::default();
        for v in 256..=511u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.percentile(0.50), 511, "upper bound overstates");
        assert!((snap.percentile_interp(0.50) - 383.5).abs() < 1e-9);
        assert!((snap.percentile_interp(0.99) - 508.45).abs() < 1e-9);
        assert!((snap.percentile_interp(0.999) - 510.745).abs() < 1e-9);
        assert!((snap.percentile_interp(1.0) - 511.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_interp_known_small_distribution() {
        // Same distribution as `histogram_stats`: buckets
        // [(0,1),(1,1),(3,2),(1023,1)], count 5.
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        // p50: target 2.5 lands in bucket [2,3] at frac 0.25 -> 2.25.
        assert!((snap.percentile_interp(0.50) - 2.25).abs() < 1e-9);
        // p99: target 4.95 lands in bucket [512,1023] at frac 0.95.
        assert!((snap.percentile_interp(0.99) - (512.0 + 0.95 * 511.0)).abs() < 1e-9);
        // p999 stays below the bare upper bound the old API returns.
        assert!(snap.percentile_interp(0.999) < snap.percentile(0.999) as f64);
        assert_eq!(snap.percentile(0.999), 1023);
    }

    #[test]
    fn percentile_interp_tail_overstatement_halved() {
        // 1..=1000 uniform: true p50 is 500.5; the upper-bound variant
        // answers 511, interpolation lands within 1%.
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.percentile(0.50), 511);
        let p50 = snap.percentile_interp(0.50);
        assert!((p50 - 500.5).abs() < 5.0, "p50 interp = {p50}");
        let p99 = snap.percentile_interp(0.99);
        assert!(p99 < 1023.0, "p99 interp = {p99} must beat the bound");
        assert!(snap.percentile_interp(0.0) >= 0.0);
        assert_eq!(HistogramSnapshot::default().percentile_interp(0.5), 0.0);
    }

    #[test]
    fn concurrent_counter_increments() {
        let r = Arc::new(Registry::new());
        let k = MetricKey::new("t", "n", None);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = r.clone();
                s.spawn(move || {
                    let c = r.counter(k);
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(r.snapshot().counter("t", "n", None), Some(80_000));
    }
}
