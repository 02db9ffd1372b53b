//! The per-layer metrics of a traced run: simulated numbers read from the
//! traced round's results and stacks, host numbers from the probes.

use crate::probes::{ProbeResults, DRIVER_PROBE_ENGINES};
use crate::report::{Metric, Value, FOCUS, NA};
use crate::round::{Ran, Readout};
use crate::workloads::{slug, Op, Workload, WORKLOADS};
use crate::{median, quartiles};
use netsim::{EngineKind, ExpConfig, ExpResult};
use simcore::Phase;

/// Everything the per-layer metrics are computed from.
pub(crate) struct Layers<'a> {
    pub(crate) w: &'a Workload,
    pub(crate) cfg: &'a ExpConfig,
    /// The traced round's runs that passed every check.
    pub(crate) traced: Vec<(EngineKind, &'a Ran)>,
    pub(crate) probes: &'a ProbeResults,
    pub(crate) host_ns_per_item: f64,
    pub(crate) walls: &'a [f64],
    pub(crate) traced_wall: f64,
    pub(crate) allocs: (u64, u64, u64),
    pub(crate) violations: u64,
    pub(crate) leaks: u64,
}

/// The entry of `kind` in a per-engine list.
fn of<T: Copy>(list: &[(EngineKind, T)], kind: EngineKind) -> Option<T> {
    list.iter().find(|(k, _)| *k == kind).map(|&(_, v)| v)
}

impl Layers<'_> {
    fn ran(&self, kind: EngineKind) -> Option<&Ran> {
        of(&self.traced, kind)
    }

    fn result(&self, kind: EngineKind) -> Option<&ExpResult> {
        self.ran(kind).map(|r| &r.result)
    }

    fn readout(&self, kind: EngineKind) -> Option<&Readout> {
        self.ran(kind).and_then(|r| r.readout.as_ref())
    }

    /// Simulated cycles per item that `kind` spent in `phases`.
    fn phase_cyc(&self, kind: EngineKind, phases: &[Phase]) -> Value {
        self.result(kind).map_or(NA, |r| {
            Value::count(phases.iter().map(|&p| r.per_item.get(p).get()).sum())
        })
    }

    /// A stack counter of `kind` per item the stack processed (warm-up
    /// included: the counters are not reset when measurement starts).
    fn per_stack_item(&self, kind: EngineKind, f: impl Fn(&Readout) -> Option<u64>) -> Value {
        let items = self.cfg.cores as u64 * (self.cfg.items_per_core + self.cfg.warmup_per_core);
        self.readout(kind)
            .and_then(f)
            .map_or(NA, |n| Value::ratio(n, items))
    }

    /// The share-of-host-time model: how much of a round's host time per
    /// item the isolated probes account for, by layer group.
    fn host_shares(&self) -> [(&'static str, f64); 6] {
        let p = self.probes;
        let ops = self.w.ops();
        let n = ops.len() as f64;
        let count = |op: Op| ops.iter().filter(|&&o| o == op).count() as f64;
        let (n_rx, n_tx) = (count(Op::Rx), count(Op::Tx));
        let dma_of = |kind: EngineKind| of(&p.dma_map_unmap, kind).map_or(0.0, |ns| ns * n);
        let running: Vec<EngineKind> = self.traced.iter().map(|&(k, _)| k).collect();
        let mean = |f: &dyn Fn(EngineKind) -> f64, over: &[EngineKind]| {
            if over.is_empty() {
                0.0
            } else {
                over.iter().map(|&k| f(k)).sum::<f64>() / over.len() as f64
            }
        };

        let sched = self.w.steps_per_item() as f64 * p.sched_step;
        let dma = mean(&dma_of, &running);
        let device = n_rx * p.nic_rx.unwrap_or(0.0) + n_tx * p.nic_tx.unwrap_or(0.0);
        // Each operation allocates and frees one skb and either writes its
        // payload (TX) or compares it (RX): half of a write+equals pair.
        let mem = n * (p.kmalloc_pair + p.mem_write_equals / 2.0);
        let one = |v: &[(EngineKind, Option<f64>)], kind| of(v, kind).flatten().unwrap_or(0.0);
        let driver_self = mean(
            &|k| n_rx * one(&p.rx_one, k) + n_tx * one(&p.tx_one, k) - dma_of(k) - device - mem,
            &DRIVER_PROBE_ENGINES,
        );
        let pct = |ns: f64| 100.0 * ns / self.host_ns_per_item;
        let parts = [sched, dma, device, mem, driver_self];
        [
            ("sched", pct(sched)),
            ("dma", pct(dma)),
            ("device", pct(device)),
            ("mem", pct(mem)),
            ("driver_self", pct(driver_self)),
            ("unattributed", 100.0 - pct(parts.iter().sum())),
        ]
    }

    pub(crate) fn metrics(&self) -> Vec<Metric> {
        use EngineKind::{Copy, EiovarStrict, IdentityPlus, LinuxDefer, LinuxStrict, NoIommu};
        let p = self.probes;
        let mut out: Vec<Metric> = Vec::new();
        let mut push = |name: String, value: Value, unit: &'static str| {
            out.push(Metric::new(name, value, unit));
        };
        let float = Value::Float;

        // simcore
        push("simcore.host_ns_per_step".into(), float(p.sched_step), "ns");
        push(
            "simcore.host_ns_per_lock_pair".into(),
            float(p.lock_pair),
            "ns",
        );
        for k in FOCUS {
            push(
                format!("simcore.sim_spin_cyc_per_item.{}", slug(k)),
                self.phase_cyc(k, &[Phase::Spinlock]),
                "cyc/item",
            );
        }

        // memsim
        push(
            "memsim.host_ns_per_kmalloc_pair".into(),
            float(p.kmalloc_pair),
            "ns",
        );
        push("memsim.host_ns_per_copy".into(), float(p.mem_copy), "ns");
        push(
            "memsim.host_ns_per_write_equals".into(),
            float(p.mem_write_equals),
            "ns",
        );
        let copy_stack = self.readout(Copy);
        push(
            "memsim.frames_peak".into(),
            copy_stack.map_or(NA, |r| Value::count(r.frames_peak)),
            "frames",
        );
        push(
            "memsim.kmalloc_cached_pages".into(),
            copy_stack.map_or(NA, |r| Value::count(r.kmalloc_cached_pages)),
            "pages",
        );

        // iommu
        push(
            "iommu.host_ns_per_map_unmap_page".into(),
            float(p.iommu_map_unmap_page),
            "ns",
        );
        push(
            "iommu.host_ns_per_translate_hit".into(),
            float(p.translate_hit),
            "ns",
        );
        push(
            "iommu.host_ns_per_translate_miss".into(),
            float(p.translate_miss),
            "ns",
        );
        for k in [IdentityPlus, LinuxStrict] {
            push(
                format!("iommu.iotlb_hit_ratio.{}", slug(k)),
                self.readout(k).map_or(NA, |r| {
                    Value::ratio(r.iotlb_hits, r.iotlb_hits + r.iotlb_misses)
                }),
                "ratio",
            );
        }
        for k in [IdentityPlus, LinuxStrict, LinuxDefer] {
            push(
                format!("iommu.invalq_waits_per_item.{}", slug(k)),
                self.per_stack_item(k, |r| Some(r.invalq_waits)),
                "1/item",
            );
        }
        for k in [IdentityPlus, LinuxStrict] {
            push(
                format!("iommu.invalq_spin_cyc_per_item.{}", slug(k)),
                self.per_stack_item(k, |r| Some(r.invalq_spin_cyc)),
                "cyc/item",
            );
        }
        for k in [IdentityPlus, LinuxStrict] {
            push(
                format!("iommu.sim_inval_cyc_per_item.{}", slug(k)),
                self.phase_cyc(k, &[Phase::InvalidateIotlb]),
                "cyc/item",
            );
        }
        for k in [IdentityPlus, LinuxStrict] {
            push(
                format!("iommu.sim_pt_cyc_per_item.{}", slug(k)),
                self.phase_cyc(k, &[Phase::IommuPageTableMgmt]),
                "cyc/item",
            );
        }

        // dma_api
        for &(k, v) in &p.dma_map_unmap {
            push(
                format!("dma_api.host_ns_per_map_unmap.{}", slug(k)),
                float(v),
                "ns",
            );
        }
        for k in FOCUS {
            push(
                format!("dma_api.sim_cyc_per_map.{}", slug(k)),
                Value::float_or_na(self.readout(k).and_then(|r| r.sim_cyc_per_map)),
                "cyc",
            );
        }
        for k in FOCUS {
            push(
                format!("dma_api.sim_cyc_per_unmap.{}", slug(k)),
                Value::float_or_na(self.readout(k).and_then(|r| r.sim_cyc_per_unmap)),
                "cyc",
            );
        }
        for k in [LinuxStrict, EiovarStrict] {
            push(
                format!("dma_api.iova_spin_cyc_per_item.{}", slug(k)),
                self.per_stack_item(k, |r| r.iova_spin_cyc),
                "cyc/item",
            );
        }
        push(
            "dma_api.maps_per_item".into(),
            self.per_stack_item(Copy, |r| Some(r.maps)),
            "1/item",
        );

        // core
        push(
            "core.host_ns_per_acquire_release".into(),
            float(p.pool_acquire_release),
            "ns",
        );
        push(
            "core.sim_memcpy_cyc_per_item.copy".into(),
            self.phase_cyc(Copy, &[Phase::Memcpy]),
            "cyc/item",
        );
        push(
            "core.sim_mgmt_cyc_per_item.copy".into(),
            self.phase_cyc(Copy, &[Phase::CopyMgmt]),
            "cyc/item",
        );
        push(
            "core.pool_fallback_ratio".into(),
            copy_stack.map_or(NA, |r| Value::ratio(r.pool_fallbacks, r.pool_acquires)),
            "ratio",
        );
        push(
            "core.pool_grows".into(),
            copy_stack.map_or(NA, |r| Value::count(r.pool_grows)),
            "count",
        );
        push(
            "core.peak_shadow_mb".into(),
            Value::float_or_na(
                self.result(Copy)
                    .and_then(|r| r.shadow_bytes_peak)
                    .map(|b| b as f64 / (1u64 << 20) as f64),
            ),
            "MB",
        );

        // devices
        push(
            "devices.host_ns_per_rx".into(),
            Value::float_or_na(p.nic_rx),
            "ns",
        );
        push(
            "devices.host_ns_per_tx".into(),
            Value::float_or_na(p.nic_tx),
            "ns",
        );
        push(
            "devices.tx_frames_per_buffer".into(),
            copy_stack.map_or(NA, |r| Value::ratio(r.tx_frames, r.tx_buffers)),
            "ratio",
        );

        // netsim
        for &(k, v) in &p.rx_one {
            push(
                format!("netsim.host_ns_per_rx_one.{}", slug(k)),
                Value::float_or_na(v),
                "ns",
            );
        }
        for &(k, v) in &p.tx_one {
            push(
                format!("netsim.host_ns_per_tx_one.{}", slug(k)),
                Value::float_or_na(v),
                "ns",
            );
        }
        push(
            "netsim.sim_stack_cyc_per_item".into(),
            self.phase_cyc(NoIommu, &[Phase::RxParsing, Phase::CopyUser, Phase::Other]),
            "cyc/item",
        );
        for k in FOCUS {
            push(
                format!("netsim.sim_rtt_us.{}", slug(k)),
                Value::float_or_na(self.result(k).and_then(|r| r.latency_us)),
                "us/txn",
            );
        }
        for k in FOCUS {
            push(
                format!("netsim.sim_mtps.{}", slug(k)),
                Value::float_or_na(
                    self.result(k)
                        .and_then(|r| r.transactions_per_sec)
                        .map(|t| t / 1e6),
                ),
                "Mt/s",
            );
        }
        // Not end-to-end because `eiovar+` cannot run on every workload.
        push(
            "netsim.sim_gbps.eiovar_plus".into(),
            Value::float_or_na(self.result(EiovarStrict).map(|r| r.gbps)),
            "Gb/s",
        );

        // obs
        push(
            "obs.host_ns_per_counter_inc".into(),
            float(p.counter_inc),
            "ns",
        );
        push(
            "obs.host_ns_per_trace_event".into(),
            float(p.trace_event),
            "ns",
        );
        push(
            "obs.host_ns_per_profile_scope".into(),
            float(p.profile_scope),
            "ns",
        );
        push(
            "obs.trace_retained_per_item".into(),
            self.per_stack_item(Copy, |r| Some(r.trace_retained)),
            "1/item",
        );
        push(
            "obs.trace_sampled_out_per_item".into(),
            self.per_stack_item(Copy, |r| Some(r.trace_sampled_out)),
            "1/item",
        );

        // dmasan
        push(
            "dmasan.violations".into(),
            Value::count(self.violations),
            "count",
        );
        push(
            "dmasan.leaks_at_teardown".into(),
            Value::count(self.leaks),
            "count",
        );

        // bench
        let (allocs, alloc_bytes, items) = self.allocs;
        push(
            "bench.allocs_per_item".into(),
            Value::ratio(allocs, items),
            "1/item",
        );
        push(
            "bench.alloc_bytes_per_item".into(),
            Value::ratio(alloc_bytes, items),
            "B/item",
        );
        let (q1, q3) = quartiles(self.walls);
        let best = self.walls.iter().copied().fold(f64::INFINITY, f64::min);
        push(
            "bench.round_s_median".into(),
            float(median(self.walls)),
            "s",
        );
        push("bench.round_s_iqr".into(), float(q3 - q1), "s");
        push(
            "bench.trace_overhead_pct".into(),
            float(100.0 * (self.traced_wall / best - 1.0)),
            "%",
        );
        for (name, pct) in self.host_shares() {
            let name = if name == "unattributed" {
                "bench.host_unattributed_pct".to_string()
            } else {
                format!("bench.host_share_pct.{name}")
            };
            push(name, float(pct), "%");
        }
        out
    }
}

/// `(name, unit)` of every per-layer metric, in printing order, without
/// running anything: the metrics of an empty traced round.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let w = &WORKLOADS[0];
    let cfg = w.config(0, 1);
    let probes = ProbeResults {
        dma_map_unmap: EngineKind::ALL.into_iter().map(|k| (k, 0.0)).collect(),
        rx_one: DRIVER_PROBE_ENGINES
            .into_iter()
            .map(|k| (k, None))
            .collect(),
        tx_one: DRIVER_PROBE_ENGINES
            .into_iter()
            .map(|k| (k, None))
            .collect(),
        ..ProbeResults::default()
    };
    Layers {
        w,
        cfg: &cfg,
        traced: Vec::new(),
        probes: &probes,
        host_ns_per_item: 1.0,
        walls: &[1.0],
        traced_wall: 1.0,
        allocs: (0, 0, 0),
        violations: 0,
        leaks: 0,
    }
    .metrics()
    .into_iter()
    .map(|m| (m.name, m.unit))
    .collect()
}
