//! The device-side view of memory: how device models issue DMAs.

use crate::observe::BusObserver;
use iommu::{DeviceId, DmaFault, Iommu, IommuBurst, Iova};
use memsim::{MemError, MemLocked, PhysAddr, PhysMemory};
use std::fmt;
use std::sync::Arc;

/// Errors a device sees on a DMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusError {
    /// The IOMMU blocked the access.
    Fault(DmaFault),
    /// The access reached memory but the target is not backed (possible
    /// only with the IOMMU disabled, when devices reach raw physical
    /// addresses).
    Mem(MemError),
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::Fault(e) => write!(f, "{e}"),
            BusError::Mem(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BusError {}

/// The path from a device to memory.
///
/// With the IOMMU enabled, every device access is translated and checked;
/// with it disabled (the paper's *no-iommu* baseline) devices reach raw
/// physical memory — any allocated frame, including other processes' data.
#[derive(Debug, Clone)]
pub enum Bus {
    /// IOMMU disabled: device addresses are physical addresses.
    Direct(Arc<PhysMemory>),
    /// IOMMU enabled: device addresses are IOVAs.
    Iommu {
        /// The IOMMU performing translation.
        mmu: Arc<Iommu>,
        /// The memory behind it.
        mem: Arc<PhysMemory>,
    },
    /// A bus whose traffic is reported to a [`BusObserver`] (the DMA
    /// sanitizer). The observer sees every access *after* the inner bus
    /// decided it, so it can layer the DMA-API-contract check on top of
    /// the hardware verdict; inside a burst it runs under the burst's
    /// holds (lock order IOTLB → memory → observer).
    Observed {
        /// The bus actually performing the access.
        inner: Box<Bus>,
        /// Receives every access with the inner bus's verdict.
        observer: Arc<dyn BusObserver>,
    },
}

impl Bus {
    /// Wraps this bus so every device access is reported to `observer`.
    pub fn observed(self, observer: Arc<dyn BusObserver>) -> Bus {
        Bus::Observed {
            inner: Box::new(self),
            observer,
        }
    }

    /// The underlying physical memory.
    pub fn mem(&self) -> &Arc<PhysMemory> {
        self.path().1
    }

    /// Whether an IOMMU sits between devices and memory.
    pub fn protected(&self) -> bool {
        self.path().0.is_some()
    }

    /// The IOMMU (if any) and the memory under the observers.
    fn path(&self) -> (Option<&Iommu>, &Arc<PhysMemory>) {
        match self {
            Bus::Direct(mem) => (None, mem),
            Bus::Iommu { mmu, mem } => (Some(mmu), mem),
            Bus::Observed { inner, .. } => inner.path(),
        }
    }

    /// Runs `f` as one device burst: the IOTLB (when protected) and the
    /// memory are locked once, in that order, for every access `f` makes,
    /// and released when it returns. Each access still reaches the
    /// observer once, after it completes, with the hardware verdict; the
    /// observer runs under the burst's holds, so it must not touch this
    /// bus's memory or IOMMU.
    pub fn burst<R>(&self, f: impl FnOnce(&mut BusBurst<'_>) -> R) -> R {
        let (mmu, mem) = self.path();
        let mmu = mmu.map(Iommu::burst);
        let mut burst = BusBurst {
            bus: self,
            mmu,
            mem: mem.locked(),
        };
        f(&mut burst)
    }

    /// Device read of `len` bytes at `addr`, handed to `visit` in place: a
    /// burst of one (see [`BusBurst::read_with`]).
    pub fn read_with(
        &self,
        dev: DeviceId,
        addr: u64,
        len: usize,
        visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), BusError> {
        self.burst(|b| b.read_with(dev, addr, len, visit))
    }

    /// Device read into `buf`: the copying case of [`Bus::read_with`].
    pub fn read(&self, dev: DeviceId, addr: u64, buf: &mut [u8]) -> Result<(), BusError> {
        self.burst(|b| b.read(dev, addr, buf))
    }

    /// Device write (`addr` is an IOVA when protected, else physical).
    pub fn write(&self, dev: DeviceId, addr: u64, data: &[u8]) -> Result<(), BusError> {
        self.burst(|b| b.write(dev, addr, data))
    }

    /// Reports one access to every observer in the chain, innermost first.
    fn notify(&self, dev: DeviceId, addr: u64, len: usize, is_write: bool, granted: bool) {
        if let Bus::Observed { inner, observer } = self {
            inner.notify(dev, addr, len, is_write, granted);
            observer.on_device_access(dev, addr, len, is_write, granted);
        }
    }
}

/// A [`Bus`] inside [`Bus::burst`]: the device's accesses, under one hold
/// of the IOTLB and one of the memory.
pub struct BusBurst<'a> {
    bus: &'a Bus,
    mmu: Option<IommuBurst<'a>>,
    mem: MemLocked<'a>,
}

impl BusBurst<'_> {
    /// Device read of `len` bytes at `addr` (an IOVA when protected, else
    /// physical), handed to `visit` in place as `(offset, bytes)` pieces in
    /// order; on an error, `visit` has seen the pieces before it.
    pub fn read_with(
        &mut self,
        dev: DeviceId,
        addr: u64,
        len: usize,
        visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), BusError> {
        let r = match &mut self.mmu {
            Some(mmu) => mmu
                .dma_read_with(&mut self.mem, dev, Iova::new(addr), len, visit)
                .map_err(BusError::Fault),
            None => self
                .mem
                .read_with(PhysAddr(addr), len, visit)
                .map_err(BusError::Mem),
        };
        self.bus.notify(dev, addr, len, false, r.is_ok());
        r
    }

    /// Device read into `buf`: the copying case of [`BusBurst::read_with`].
    pub fn read(&mut self, dev: DeviceId, addr: u64, buf: &mut [u8]) -> Result<(), BusError> {
        self.read_with(dev, addr, buf.len(), |off, bytes| {
            buf[off..off + bytes.len()].copy_from_slice(bytes)
        })
    }

    /// Device write (`addr` is an IOVA when protected, else physical).
    pub fn write(&mut self, dev: DeviceId, addr: u64, data: &[u8]) -> Result<(), BusError> {
        let r = match &mut self.mmu {
            Some(mmu) => mmu
                .dma_write(&mut self.mem, dev, Iova::new(addr), data)
                .map_err(BusError::Fault),
            None => self.mem.write(PhysAddr(addr), data).map_err(BusError::Mem),
        };
        self.bus.notify(dev, addr, data.len(), true, r.is_ok());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iommu::{IovaPage, Perms};
    use memsim::{NumaDomain, NumaTopology};
    use simcore::{CoreCtx, CoreId, CostModel};

    const DEV: DeviceId = DeviceId(0);

    /// A protected bus over two mapped pages at IOVA page 0x10.
    fn iommu_bus() -> (Bus, Arc<Iommu>) {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(8)));
        let mmu = Arc::new(Iommu::new());
        let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
        let pfn = mem.alloc_frames(NumaDomain(0), 2).unwrap();
        mmu.map_range(&mut ctx, DEV, IovaPage(0x10), pfn, 2, Perms::ReadWrite)
            .unwrap();
        (
            Bus::Iommu {
                mmu: mmu.clone(),
                mem,
            },
            mmu,
        )
    }

    #[test]
    fn a_burst_holds_the_iotlb_and_the_memory_once() {
        let (bus, _) = iommu_bus();
        let at = IovaPage(0x10).base().get();
        let mut buf = [0u8; 16];
        // Warm the IOTLB, so no access below walks the page tables.
        bus.read(DEV, at, &mut [0u8; 2 * 4096]).unwrap();
        let accesses = |b: &mut BusBurst<'_>| {
            b.read(DEV, at, &mut buf).unwrap();
            b.write(DEV, at + 4000, &[7; 200]).unwrap();
            b.read_with(DEV, at + 4090, 10, |_, _| {}).unwrap();
        };
        let before = simcore::sync::holds();
        bus.burst(accesses);
        assert_eq!(simcore::sync::holds() - before, 2);
        let before = simcore::sync::holds();
        bus.read(DEV, at, &mut buf).unwrap();
        assert_eq!(simcore::sync::holds() - before, 2, "a burst of one");
        let direct = Bus::Direct(bus.mem().clone());
        let pa = bus.mem().alloc_frame(NumaDomain(0)).unwrap().base().get();
        let before = simcore::sync::holds();
        direct.burst(|b| {
            b.write(DEV, pa, b"abc").unwrap();
            b.read(DEV, pa, &mut buf[..3]).unwrap();
        });
        assert_eq!(simcore::sync::holds() - before, 1);
        assert_eq!(&buf[..3], b"abc");
    }

    /// Appends `(tag, addr, len, is_write, granted)` for every access.
    #[derive(Debug)]
    struct Log(&'static str, Arc<simcore::sync::Mutex<Vec<LogEntry>>>);
    type LogEntry = (&'static str, u64, usize, bool, bool);

    impl BusObserver for Log {
        fn on_device_access(&self, _: DeviceId, addr: u64, len: usize, w: bool, granted: bool) {
            self.1.lock().push((self.0, addr, len, w, granted));
        }
    }

    #[test]
    fn every_access_of_a_burst_reaches_each_observer_once_innermost_first() {
        let (bus, mmu) = iommu_bus();
        let log = Arc::new(simcore::sync::Mutex::new(Vec::new()));
        let bus = bus
            .observed(Arc::new(Log("inner", log.clone())))
            .observed(Arc::new(Log("outer", log.clone())));
        let at = IovaPage(0x10).base().get();
        let wild = IovaPage(0x99).base().get();
        let results = bus.burst(|b| {
            [
                b.write(DEV, at, &[1; 100]).is_ok(),
                b.write(DEV, wild, &[2; 8]).is_ok(),
                b.read(DEV, at, &mut [0; 100]).is_ok(),
            ]
        });
        assert_eq!(results, [true, false, true]);
        assert_eq!(
            *log.lock(),
            [
                ("inner", at, 100, true, true),
                ("outer", at, 100, true, true),
                ("inner", wild, 8, true, false),
                ("outer", wild, 8, true, false),
                ("inner", at, 100, false, true),
                ("outer", at, 100, false, true),
            ]
        );
        assert_eq!(mmu.fault_count(), 1);
    }

    #[test]
    fn direct_bus_reaches_any_allocated_frame() {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(8)));
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        mem.write(pfn.base(), b"secrets").unwrap();
        let bus = Bus::Direct(mem);
        assert!(!bus.protected());
        let mut buf = [0u8; 7];
        bus.read(DEV, pfn.base().get(), &mut buf).unwrap();
        assert_eq!(&buf, b"secrets");
    }

    #[test]
    fn direct_bus_unallocated_errors() {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(8)));
        let bus = Bus::Direct(mem);
        let mut buf = [0u8; 4];
        assert!(matches!(
            bus.read(DEV, 0, &mut buf),
            Err(BusError::Mem(MemError::Unallocated(_)))
        ));
    }

    #[test]
    fn iommu_bus_translates_and_blocks() {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(8)));
        let mmu = Arc::new(Iommu::new());
        let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
        let pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        mmu.map_page(&mut ctx, DEV, IovaPage(0x10), pfn, Perms::ReadWrite)
            .unwrap();
        let bus = Bus::Iommu {
            mmu,
            mem: mem.clone(),
        };
        assert!(bus.protected());
        bus.write(DEV, IovaPage(0x10).base().get(), b"via iommu")
            .unwrap();
        assert_eq!(mem.read_vec(pfn.base(), 9).unwrap(), b"via iommu");
        // Unmapped IOVA faults.
        assert!(matches!(
            bus.write(DEV, 0x9999_0000, b"x"),
            Err(BusError::Fault(_))
        ));
        // Raw physical address of the frame is NOT reachable as an IOVA.
        assert!(bus.write(DEV, pfn.base().get(), b"x").is_err());
    }
}
