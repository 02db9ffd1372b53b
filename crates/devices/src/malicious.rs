//! The attacker: a DMA-capable device under adversarial control (§3).
//!
//! Models the paper's threat: a compromised NIC firmware, a malicious
//! peripheral plugged into the machine, or an errant device. It issues
//! arbitrary DMAs; what those DMAs can reach is exactly what the active
//! protection scheme permits.

use dma_api::{Bus, BusError};
use dmasan::{AccessVerdict, DmaSan};
use iommu::DeviceId;
use obs::{Counter, EventKind, Obs};
use std::sync::Arc;

/// Result of scanning an address range with probe DMAs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScanReport {
    /// Addresses whose probe succeeded.
    pub accessible: Vec<u64>,
    /// Probes blocked by the IOMMU or unbacked memory.
    pub blocked: u64,
}

impl ScanReport {
    /// Whether anything was reachable.
    pub fn any_accessible(&self) -> bool {
        !self.accessible.is_empty()
    }
}

/// The malicious device.
///
/// Every DMA it issues is counted (`malicious.*{dev}` metrics). Blocked
/// accesses become [`EventKind::AttackBlocked`] trace events: accesses an
/// IOMMU rejects are traced by the IOMMU itself, into the `Obs` the device
/// shares with it (see [`MaliciousDevice::new`]), while accesses that die on
/// an unprotected bus (unbacked physical memory, reason `"unbacked"`) are
/// traced here, since no IOMMU ever saw them.
///
/// # Examples
///
/// ```
/// use devices::MaliciousDevice;
/// use dma_api::Bus;
/// use iommu::{DeviceId, Iommu};
/// use memsim::{NumaTopology, PhysMemory};
/// use std::sync::Arc;
///
/// let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
/// let mmu = Arc::new(Iommu::new());
/// let evil = MaliciousDevice::new(DeviceId(0), Bus::Iommu { mmu, mem });
/// // With nothing mapped, every probe is blocked by the IOMMU.
/// let report = evil.scan(0, 16 * 4096, 4096);
/// assert!(!report.any_accessible());
/// assert_eq!(report.blocked, 16);
/// ```
#[derive(Debug)]
pub struct MaliciousDevice {
    dev: DeviceId,
    bus: Bus,
    obs: Obs,
    san: Option<Arc<DmaSan>>,
    reads: Counter,
    writes: Counter,
    faults: Counter,
}

impl MaliciousDevice {
    /// Creates the attacker on `bus` with requester id `dev`.
    ///
    /// To model a *compromised* NIC (rather than a separate rogue device),
    /// construct it with the NIC's own `DeviceId` — it then enjoys every
    /// mapping the OS established for the NIC.
    ///
    /// If the bus is protected, the attacker reports into the IOMMU's
    /// telemetry handle (`malicious.*{dev}`), so its blocked probes land
    /// in the stack's trace; on a direct bus it reports into an isolated
    /// one.
    pub fn new(dev: DeviceId, bus: Bus) -> Self {
        fn bus_obs(bus: &Bus) -> Obs {
            match bus {
                Bus::Iommu { mmu, .. } => mmu.obs().clone(),
                Bus::Direct(_) => Obs::isolated(),
                Bus::Observed { inner, .. } => bus_obs(inner),
            }
        }
        let obs = bus_obs(&bus);
        let d = Some(dev.0);
        MaliciousDevice {
            dev,
            bus,
            san: None,
            reads: obs.counter("malicious", "reads", d),
            writes: obs.counter("malicious", "writes", d),
            faults: obs.counter("malicious", "faults", d),
            obs,
        }
    }

    /// Attaches a sanitizer so [`MaliciousDevice::attempt_read`] /
    /// [`MaliciousDevice::attempt_write`] classify each probe against the
    /// stack's live-mapping registry (share the victim stack's checker).
    pub fn with_sanitizer(mut self, san: Arc<DmaSan>) -> Self {
        self.san = Some(san);
        self
    }

    /// The sanitizer's verdict on an access the hardware resolved as
    /// `granted` / `err`. Without a sanitizer attached, only the hardware
    /// outcome is reported.
    fn classify(&self, addr: u64, len: usize, err: Option<&BusError>) -> AccessVerdict {
        match (err, &self.san) {
            (Some(BusError::Mem(_)), _) => AccessVerdict::BlockedUnbacked,
            (Some(BusError::Fault(_)), _) => AccessVerdict::BlockedByIommu,
            (None, Some(san)) => san.verdict(self.dev, addr, len, true),
            (None, None) => AccessVerdict::Permitted,
        }
    }

    /// The attacker's requester id.
    pub fn device(&self) -> DeviceId {
        self.dev
    }

    /// The telemetry handle blocked probes are traced into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Records a blocked access. IOMMU faults are traced by the IOMMU
    /// itself (sharing this handle); unprotected-bus failures are traced
    /// here so every blocked DMA appears exactly once.
    fn blocked(&self, addr: u64, access: &'static str, err: &BusError) {
        self.faults.inc();
        if let BusError::Mem(_) = err {
            self.obs.trace(
                self.obs.now_hint(),
                iommu::DEVICE_SIDE_CORE,
                Some(self.dev.0),
                EventKind::AttackBlocked {
                    iova: addr,
                    access: access.into(),
                    reason: "unbacked".into(),
                },
            );
        }
    }

    /// Attempts to read `len` bytes at `addr` (IOVA under protection, raw
    /// physical otherwise).
    pub fn try_read(&self, addr: u64, len: usize) -> Result<Vec<u8>, BusError> {
        self.reads.inc();
        let mut buf = vec![0u8; len];
        match self.bus.read(self.dev, addr, &mut buf) {
            Ok(()) => Ok(buf),
            Err(e) => {
                self.blocked(addr, "read", &e);
                Err(e)
            }
        }
    }

    /// Attempts to write `data` at `addr`.
    pub fn try_write(&self, addr: u64, data: &[u8]) -> Result<(), BusError> {
        self.writes.inc();
        self.bus.write(self.dev, addr, data).inspect_err(|e| {
            self.blocked(addr, "write", e);
        })
    }

    /// Like [`MaliciousDevice::try_read`], but also returns the
    /// sanitizer's verdict: did the hardware block the probe
    /// ([`AccessVerdict::BlockedByIommu`] / [`AccessVerdict::BlockedUnbacked`]),
    /// or did it permit an access the DMA-API contract forbids
    /// ([`AccessVerdict::SanitizerViolation`])?
    pub fn attempt_read(
        &self,
        addr: u64,
        len: usize,
    ) -> (Result<Vec<u8>, BusError>, AccessVerdict) {
        let r = self.try_read(addr, len);
        let verdict = self.classify(addr, len, r.as_ref().err());
        (r, verdict)
    }

    /// Like [`MaliciousDevice::try_write`], but also returns the
    /// sanitizer's verdict on the probe.
    pub fn attempt_write(&self, addr: u64, data: &[u8]) -> (Result<(), BusError>, AccessVerdict) {
        let r = self.try_write(addr, data);
        let verdict = self.classify(addr, data.len(), r.as_ref().err());
        (r, verdict)
    }

    /// Probes every `step` bytes in `[start, end)` with small reads,
    /// reporting which addresses are reachable — the reconnaissance phase
    /// of a DMA attack.
    pub fn scan(&self, start: u64, end: u64, step: u64) -> ScanReport {
        assert!(step > 0, "scan step must be positive");
        let mut report = ScanReport::default();
        let mut addr = start;
        while addr < end {
            match self.try_read(addr, 8) {
                Ok(_) => report.accessible.push(addr),
                Err(_) => report.blocked += 1,
            }
            addr += step;
        }
        report
    }

    /// Searches readable memory at `addr..addr+len` for `needle`,
    /// returning its offset — data exfiltration.
    pub fn hunt(&self, addr: u64, len: usize, needle: &[u8]) -> Option<usize> {
        let data = self.try_read(addr, len).ok()?;
        data.windows(needle.len()).position(|w| w == needle)
    }

    /// Total (reads, writes, faulted) DMAs issued — a view over the
    /// registry's `malicious.*` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.reads.get(), self.writes.get(), self.faults.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iommu::{Iommu, IovaPage, Perms};
    use memsim::{NumaDomain, NumaTopology, PhysMemory};
    use simcore::{CoreCtx, CoreId, CostModel};
    use std::sync::Arc;

    const DEV: DeviceId = DeviceId(7);

    #[test]
    fn without_iommu_everything_allocated_is_reachable() {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        mem.write(pfn.base().add(100), b"password=hunter2").unwrap();
        let evil = MaliciousDevice::new(DEV, Bus::Direct(mem.clone()));
        // Scan finds the allocated frame...
        let report = evil.scan(0, 16 * 4096, 4096);
        assert!(report.accessible.contains(&pfn.base().get()));
        // ...and the secret is exfiltrated.
        assert_eq!(evil.hunt(pfn.base().get(), 4096, b"hunter2"), Some(109));
        // And it can be corrupted.
        evil.try_write(pfn.base().add(100).get(), b"pwned!")
            .unwrap();
        assert_eq!(mem.read_vec(pfn.base().add(100), 6).unwrap(), b"pwned!");
    }

    #[test]
    fn with_iommu_only_mappings_are_reachable() {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
        let mmu = Arc::new(Iommu::new());
        let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        mmu.map_page(&mut ctx, DEV, IovaPage(0x40), pfn, Perms::ReadWrite)
            .unwrap();
        let evil = MaliciousDevice::new(
            DEV,
            Bus::Iommu {
                mmu: mmu.clone(),
                mem: mem.clone(),
            },
        );
        let report = evil.scan(0, 0x100 * 4096, 4096);
        assert_eq!(report.accessible, vec![0x40 * 4096]);
        assert_eq!(report.blocked, 0xff);
        // The faults were logged by the IOMMU.
        assert_eq!(mmu.fault_count(), 0xff_usize);
        let (r, w, f) = evil.stats();
        assert_eq!(r, 0x100);
        assert_eq!(w, 0);
        assert_eq!(f, 0xff);
        // Every blocked probe appears exactly once as an AttackBlocked
        // trace event — the attacker shares the IOMMU's tracer.
        let blocked = evil
            .obs()
            .tracer()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::AttackBlocked { .. }))
            .count();
        assert_eq!(blocked, 0xff);
    }

    #[test]
    fn direct_bus_blocked_probes_are_traced_here() {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(4)));
        let evil = MaliciousDevice::new(DEV, Bus::Direct(mem));
        // Nothing allocated: all probes die on unbacked memory.
        let report = evil.scan(0, 3 * 4096, 4096);
        assert_eq!(report.blocked, 3);
        let evs = evil.obs().tracer().events();
        assert_eq!(evs.len(), 3);
        assert!(evs.iter().all(|e| matches!(
            &e.kind,
            EventKind::AttackBlocked { access, reason, .. }
                if access == "read" && reason == "unbacked"
        )));
    }

    #[test]
    fn verdicts_classify_hardware_and_contract_outcomes() {
        use dma_api::{DmaBuf, DmaDirection, DmaEngine, DmaObserver, NoIommu};
        use dmasan::ViolationKind;

        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
        let mmu = Arc::new(Iommu::new());
        let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        mmu.map_page(&mut ctx, DEV, IovaPage(0x40), pfn, Perms::ReadWrite)
            .unwrap();
        // The DMA API only vouches for 100 bytes of that page.
        let san = Arc::new(DmaSan::lenient(mmu.obs().clone()));
        let iova = 0x40 * 4096u64;
        // `NoIommu` issues the handle: its IOVA is the address it is given.
        let at = DmaBuf::new(memsim::PhysAddr(iova), 100);
        let m = NoIommu::new(mem.clone(), DEV)
            .map(&mut ctx, at, DmaDirection::FromDevice)
            .unwrap();
        san.on_map(&ctx, DEV, &m, 1);
        let evil = MaliciousDevice::new(
            DEV,
            Bus::Iommu {
                mmu: mmu.clone(),
                mem: mem.clone(),
            },
        )
        .with_sanitizer(san);

        let (r, v) = evil.attempt_read(iova, 100);
        assert!(r.is_ok());
        assert_eq!(v, AccessVerdict::Permitted);
        // The IOMMU's page granularity permits the overrun; the
        // byte-granular sanitizer calls it out.
        let (r, v) = evil.attempt_read(iova + 96, 16);
        assert!(r.is_ok());
        assert_eq!(
            v,
            AccessVerdict::SanitizerViolation(ViolationKind::OobAccess)
        );
        let (r, v) = evil.attempt_read(0, 8);
        assert!(r.is_err());
        assert_eq!(v, AccessVerdict::BlockedByIommu);

        // On an unprotected bus, unbacked memory is the only defense.
        let bare = MaliciousDevice::new(
            DEV,
            Bus::Direct(Arc::new(PhysMemory::new(NumaTopology::tiny(4)))),
        );
        let (r, v) = bare.attempt_write(2 * 4096, b"x");
        assert!(r.is_err());
        assert_eq!(v, AccessVerdict::BlockedUnbacked);
    }

    #[test]
    fn hunt_fails_on_blocked_memory() {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
        let mmu = Arc::new(Iommu::new());
        let evil = MaliciousDevice::new(DEV, Bus::Iommu { mmu, mem });
        assert_eq!(evil.hunt(0x1000, 64, b"x"), None);
    }
}
