//! The metrics registry: counters and gauges keyed by `(subsystem, name, device)`.
//!
//! Handles ([`Counter`], [`Gauge`]) are cheap `Arc`-backed
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

#[derive(Default)]
struct Tables {
    counters: HashMap<MetricKey, Counter>,
    gauges: HashMap<MetricKey, Gauge>,
}

/// The metric registry: the single authoritative store for every counter
/// and gauge in a simulation stack.
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

    /// Takes a snapshot of every metric, sorted by key for deterministic
    /// rendering.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let t = self.tables.read();
        let mut counters: Vec<_> = t.counters.iter().map(|(k, c)| (*k, c.get())).collect();
        let mut gauges: Vec<_> = t.gauges.iter().map(|(k, g)| (*k, g.get())).collect();
        counters.sort_by_key(|&(k, _)| k);
        gauges.sort_by_key(|&(k, _)| k);
        RegistrySnapshot { counters, gauges }
    }
}

/// A point-in-time, deterministically ordered view of a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter values.
    pub counters: Vec<(MetricKey, u64)>,
    /// Gauge values.
    pub gauges: Vec<(MetricKey, i64)>,
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
