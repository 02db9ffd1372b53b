//! The device-side view of memory: how device models issue DMAs.

use crate::observe::BusObserver;
use iommu::{DeviceId, DmaFault, Iommu, Iova};
use memsim::{MemError, PhysAddr, PhysMemory};
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
    /// the hardware verdict.
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
        match self {
            Bus::Direct(mem) => mem,
            Bus::Iommu { mem, .. } => mem,
            Bus::Observed { inner, .. } => inner.mem(),
        }
    }

    /// Whether an IOMMU sits between devices and memory.
    pub fn protected(&self) -> bool {
        match self {
            Bus::Direct(_) => false,
            Bus::Iommu { .. } => true,
            Bus::Observed { inner, .. } => inner.protected(),
        }
    }

    /// Device read of `len` bytes at `addr` (an IOVA when protected, else
    /// physical), handed to `visit` in place as `(offset, bytes)` pieces in
    /// order; on an error, `visit` has seen the pieces before it.
    pub fn read_with(
        &self,
        dev: DeviceId,
        addr: u64,
        len: usize,
        visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), BusError> {
        match self {
            Bus::Direct(mem) => mem
                .read_with(PhysAddr(addr), len, visit)
                .map_err(BusError::Mem),
            Bus::Iommu { mmu, mem } => mmu
                .dma_read_with(mem, dev, Iova::new(addr), len, visit)
                .map_err(BusError::Fault),
            Bus::Observed { inner, observer } => {
                let r = inner.read_with(dev, addr, len, visit);
                observer.on_device_access(dev, addr, len, false, r.is_ok());
                r
            }
        }
    }

    /// Device read into `buf`: the copying case of [`Bus::read_with`].
    pub fn read(&self, dev: DeviceId, addr: u64, buf: &mut [u8]) -> Result<(), BusError> {
        self.read_with(dev, addr, buf.len(), |off, bytes| {
            buf[off..off + bytes.len()].copy_from_slice(bytes)
        })
    }

    /// Device write (`addr` is an IOVA when protected, else physical).
    pub fn write(&self, dev: DeviceId, addr: u64, data: &[u8]) -> Result<(), BusError> {
        match self {
            Bus::Direct(mem) => mem.write(PhysAddr(addr), data).map_err(BusError::Mem),
            Bus::Iommu { mmu, mem } => mmu
                .dma_write(mem, dev, Iova::new(addr), data)
                .map_err(BusError::Fault),
            Bus::Observed { inner, observer } => {
                let r = inner.write(dev, addr, data);
                observer.on_device_access(dev, addr, data.len(), true, r.is_ok());
                r
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iommu::{IovaPage, Perms};
    use memsim::{NumaDomain, NumaTopology};
    use simcore::{CoreCtx, CoreId, CostModel};

    const DEV: DeviceId = DeviceId(0);

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
