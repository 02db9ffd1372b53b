//! Bridge between [`simcore::Breakdown`] (the hot-path per-core phase
//! accumulator) and the metric [`Registry`].
//!
//! `simcore` sits below `obs` in the dependency graph, so `CoreCtx`
//! accumulates phase cycles locally; at the end of a workload run the
//! run's summed breakdown is what the run reports, and a copy of it is
//! published to the registry as `phase.<slug>{device}` counters. Those
//! counters accumulate over every run on one [`Registry`], like the
//! profiler's call trees, so [`breakdown_view`] over them is what the
//! profile's depth-1 cut is cross-checked against.

use crate::metrics::{MetricKey, Registry};
use simcore::{Breakdown, Cycles, Phase};

/// Metric-name slug for a phase (`subsystem.name` friendly).
pub fn phase_slug(p: Phase) -> &'static str {
    match p {
        Phase::CopyMgmt => "copy_mgmt",
        Phase::Spinlock => "spinlock",
        Phase::InvalidateIotlb => "invalidate_iotlb",
        Phase::IommuPageTableMgmt => "iommu_page_table_mgmt",
        Phase::Memcpy => "memcpy",
        Phase::RxParsing => "rx_parsing",
        Phase::CopyUser => "copy_user",
        Phase::Other => "other",
    }
}

/// Subsystem under which phase counters are registered.
pub const PHASE_SUBSYSTEM: &str = "phase";

/// Publishes `b` into `registry` as `phase.<slug>{device}` counters
/// (adds to whatever is already there, mirroring `Breakdown: AddAssign`).
/// All eight counters are registered, zeros included.
pub fn record_breakdown(registry: &Registry, device: Option<u16>, b: &Breakdown) {
    for p in Phase::ALL {
        registry
            .counter(MetricKey::new(PHASE_SUBSYSTEM, phase_slug(p), device))
            .add(b.get(p).0);
    }
}

/// Reconstitutes a [`Breakdown`] from the registry's phase counters: the
/// sum of every run published on this registry.
pub fn breakdown_view(registry: &Registry, device: Option<u16>) -> Breakdown {
    let mut b = Breakdown::default();
    for p in Phase::ALL {
        let c = registry.counter(MetricKey::new(PHASE_SUBSYSTEM, phase_slug(p), device));
        b.record(p, Cycles(c.get()));
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_registry() {
        let r = Registry::new();
        let mut b = Breakdown::default();
        b.record(Phase::Memcpy, Cycles(1000));
        b.record(Phase::Spinlock, Cycles(7));
        record_breakdown(&r, None, &b);
        assert_eq!(breakdown_view(&r, None), b);
        // Zero phases are registered too.
        assert_eq!(
            r.snapshot().counter(PHASE_SUBSYSTEM, "other", None),
            Some(0)
        );

        // Recording again accumulates, like AddAssign.
        record_breakdown(&r, None, &b);
        assert_eq!(breakdown_view(&r, None).get(Phase::Memcpy), Cycles(2000));
    }

    #[test]
    fn slugs_unique() {
        let mut slugs: Vec<_> = Phase::ALL.iter().map(|&p| phase_slug(p)).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), 8);
    }
}
