//! The simulated 40 Gb/s NIC.

// lint: allow(panic) — descriptor-ring invariants are device-model bugs, not runtime errors

use dma_api::{Bus, BusError, CoherentBuffer};
use iommu::DeviceId;
use std::cell::RefCell;
use std::fmt;

/// Ethernet MTU payload size used throughout the evaluation.
pub const MTU: usize = 1500;

/// Bytes per descriptor: `addr(8) | len(4) | status(4)`.
pub const DESC_BYTES: usize = 16;

/// Descriptor status values (shared driver/device protocol).
/// `0` means empty/unposted; the driver sets `1` (ready) when posting and
/// the device writes back `2` (done).
const STATUS_READY: u32 = 1;
const STATUS_DONE: u32 = 2;

/// NIC configuration.
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// Maximum TSO buffer the driver may hand the NIC (64 KB, §6).
    pub tso_max: usize,
    /// Entries per descriptor ring.
    pub ring_entries: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            tso_max: 64 * 1024,
            ring_entries: 256,
        }
    }
}

/// NIC errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NicError {
    /// A DMA issued by the NIC was blocked or failed.
    Dma(BusError),
    /// The targeted ring slot holds no ready descriptor.
    NoDescriptor {
        /// Ring index.
        ring: usize,
        /// Slot index within the ring.
        slot: usize,
    },
    /// The driver posted a TX buffer above the TSO limit.
    OversizedTx(usize),
    /// The ring id is not attached.
    BadRing(usize),
}

impl fmt::Display for NicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NicError::Dma(e) => write!(f, "NIC DMA failed: {e}"),
            NicError::NoDescriptor { ring, slot } => {
                write!(f, "no ready descriptor in ring {ring} slot {slot}")
            }
            NicError::OversizedTx(n) => write!(f, "TX buffer of {n} bytes exceeds TSO limit"),
            NicError::BadRing(r) => write!(f, "no such ring {r}"),
        }
    }
}

impl std::error::Error for NicError {}

impl From<BusError> for NicError {
    fn from(e: BusError) -> Self {
        NicError::Dma(e)
    }
}

/// A completed receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxCompletion {
    /// Ring slot that completed.
    pub slot: usize,
    /// Bytes the NIC wrote into the posted buffer.
    pub len: usize,
}

/// A completed transmit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxCompletion {
    /// Ring slot that completed.
    pub slot: usize,
    /// Payload bytes fetched from the host.
    pub len: usize,
    /// Wire frames emitted (TSO segmentation: `ceil(len / MTU)`).
    pub frames: usize,
}

#[derive(Debug)]
struct Ring {
    /// Device-visible address of the descriptor array.
    iova: u64,
    entries: usize,
    /// Next slot the device will consume.
    next: usize,
}

/// The NIC model.
///
/// All memory traffic — descriptor fetches, descriptor write-backs, and
/// payload movement — goes through the device's [`Bus`], i.e. through the
/// IOMMU when protection is on. The driver side (posting descriptors) is
/// CPU work and uses direct physical access to the coherent ring memory.
#[derive(Debug)]
pub struct Nic {
    dev: DeviceId,
    bus: Bus,
    cfg: NicConfig,
    rx: Vec<RefCell<Ring>>,
    tx: Vec<RefCell<Ring>>,
}

impl Nic {
    /// Creates a NIC on `bus` with requester id `dev`.
    pub fn new(dev: DeviceId, bus: Bus, cfg: NicConfig) -> Self {
        Nic {
            dev,
            bus,
            cfg,
            rx: Vec::new(),
            tx: Vec::new(),
        }
    }

    /// The NIC's requester id.
    pub fn device(&self) -> DeviceId {
        self.dev
    }

    /// The NIC's configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Attaches an RX descriptor ring (a coherent buffer the driver
    /// allocated); returns the ring id.
    pub fn attach_rx_ring(&mut self, ring: &CoherentBuffer) -> usize {
        assert!(
            ring.len >= self.cfg.ring_entries * DESC_BYTES,
            "ring buffer too small"
        );
        self.rx.push(RefCell::new(Ring {
            iova: ring.iova.get(),
            entries: self.cfg.ring_entries,
            next: 0,
        }));
        self.rx.len() - 1
    }

    /// Attaches a TX descriptor ring; returns the ring id.
    pub fn attach_tx_ring(&mut self, ring: &CoherentBuffer) -> usize {
        assert!(
            ring.len >= self.cfg.ring_entries * DESC_BYTES,
            "ring buffer too small"
        );
        self.tx.push(RefCell::new(Ring {
            iova: ring.iova.get(),
            entries: self.cfg.ring_entries,
            next: 0,
        }));
        self.tx.len() - 1
    }

    /// Serializes a descriptor the *driver* writes into ring memory (by
    /// CPU store to the coherent buffer — see `netsim`'s driver).
    pub fn encode_descriptor(addr: u64, len: u32) -> [u8; DESC_BYTES] {
        let mut d = [0u8; DESC_BYTES];
        d[0..8].copy_from_slice(&addr.to_le_bytes());
        d[8..12].copy_from_slice(&len.to_le_bytes());
        d[12..16].copy_from_slice(&STATUS_READY.to_le_bytes());
        d
    }

    /// Decodes a descriptor's `(addr, len, status)`.
    pub fn decode_descriptor(d: &[u8]) -> (u64, u32, u32) {
        let addr = u64::from_le_bytes(d[0..8].try_into().expect("desc addr"));
        let len = u32::from_le_bytes(d[8..12].try_into().expect("desc len"));
        let status = u32::from_le_bytes(d[12..16].try_into().expect("desc status"));
        (addr, len, status)
    }

    /// Whether a decoded descriptor status means "completed by the NIC".
    pub fn is_done(status: u32) -> bool {
        status == STATUS_DONE
    }

    fn fetch_descriptor(&self, ring: &Ring, slot: usize) -> Result<(u64, u32, u32), NicError> {
        let mut raw = [0u8; DESC_BYTES];
        self.bus
            .read(self.dev, ring.iova + (slot * DESC_BYTES) as u64, &mut raw)?;
        Ok(Self::decode_descriptor(&raw))
    }

    fn write_back(&self, ring: &Ring, slot: usize, len: u32) -> Result<(), NicError> {
        let mut tail = [0u8; 8];
        tail[0..4].copy_from_slice(&len.to_le_bytes());
        tail[4..8].copy_from_slice(&STATUS_DONE.to_le_bytes());
        self.bus
            .write(self.dev, ring.iova + (slot * DESC_BYTES + 8) as u64, &tail)?;
        Ok(())
    }

    /// A frame arrives from the wire: the NIC fetches the next RX
    /// descriptor (a DMA read), DMAs the payload into the posted buffer,
    /// and writes the completion back (a DMA write).
    ///
    /// # Errors
    ///
    /// [`NicError::NoDescriptor`] if the driver hasn't replenished the
    /// ring (the frame is dropped, as on real hardware);
    /// [`NicError::Dma`] if any of the NIC's DMAs is blocked by the IOMMU.
    pub fn receive(&self, ring_id: usize, payload: &[u8]) -> Result<RxCompletion, NicError> {
        let mut ring = self
            .rx
            .get(ring_id)
            .ok_or(NicError::BadRing(ring_id))?
            .borrow_mut();
        let slot = ring.next;
        let (addr, len, status) = self.fetch_descriptor(&ring, slot)?;
        if status != STATUS_READY {
            return Err(NicError::NoDescriptor {
                ring: ring_id,
                slot,
            });
        }
        let n = payload.len().min(len as usize);
        self.bus.write(self.dev, addr, &payload[..n])?;
        self.write_back(&ring, slot, n as u32)?;
        ring.next = (slot + 1) % ring.entries;
        Ok(RxCompletion { slot, len: n })
    }

    /// The NIC processes the next TX descriptor: fetches it, DMA-reads the
    /// payload from the host, segments it into MTU-sized wire frames
    /// (TSO), and completes the descriptor — the one-descriptor case of
    /// [`Nic::transmit_gather_into`].
    ///
    /// The wire payload is gathered into a caller-owned buffer (so callers
    /// can verify what actually went on the wire, and per-packet loops
    /// reuse one allocation). The buffer is resized to the payload length
    /// and every byte of it overwritten; on any error it is left empty, so
    /// a reused buffer never shows a previous packet's bytes.
    pub fn transmit_into(
        &self,
        ring_id: usize,
        payload: &mut Vec<u8>,
    ) -> Result<TxCompletion, NicError> {
        self.transmit_gather_into(ring_id, 1, payload)
    }

    /// The NIC processes the next `n` TX descriptors as one scatter/gather
    /// chain: it fetches each descriptor, DMA-reads each fragment, and
    /// transmits the concatenation as one TSO payload (real NICs chain
    /// descriptors exactly like this for fragmented skbs). As with
    /// [`Nic::transmit_into`], the buffer ends up holding exactly the
    /// gathered payload, or nothing on any error.
    pub fn transmit_gather_into(
        &self,
        ring_id: usize,
        n: usize,
        payload: &mut Vec<u8>,
    ) -> Result<TxCompletion, NicError> {
        self.gather(ring_id, n, payload)
            .inspect_err(|_| payload.clear())
    }

    fn gather(
        &self,
        ring_id: usize,
        n: usize,
        payload: &mut Vec<u8>,
    ) -> Result<TxCompletion, NicError> {
        assert!(n > 0, "empty gather chain");
        let mut ring = self
            .tx
            .get(ring_id)
            .ok_or(NicError::BadRing(ring_id))?
            .borrow_mut();
        let first_slot = ring.next;
        // Bytes gathered so far. The buffer keeps its old length until the
        // end, so growing it zero-fills only what it never held, and the
        // DMA reads overwrite every byte that stays.
        let mut gathered = 0usize;
        for k in 0..n {
            let slot = (first_slot + k) % ring.entries;
            let (addr, len, status) = self.fetch_descriptor(&ring, slot)?;
            if status != STATUS_READY {
                return Err(NicError::NoDescriptor {
                    ring: ring_id,
                    slot,
                });
            }
            let end = gathered + len as usize;
            if end > self.cfg.tso_max {
                return Err(NicError::OversizedTx(end));
            }
            if payload.len() < end {
                payload.resize(end, 0);
            }
            self.bus.read(self.dev, addr, &mut payload[gathered..end])?;
            self.write_back(&ring, slot, len)?;
            gathered = end;
        }
        payload.truncate(gathered);
        ring.next = (first_slot + n) % ring.entries;
        let frames = gathered.div_ceil(MTU).max(1);
        Ok(TxCompletion {
            slot: first_slot,
            len: gathered,
            frames,
        })
    }

    /// The slot the device will consume next on an RX ring (for driver
    /// replenish logic).
    pub fn rx_next(&self, ring_id: usize) -> usize {
        self.rx[ring_id].borrow().next
    }

    /// The slot the device will consume next on a TX ring.
    pub fn tx_next(&self, ring_id: usize) -> usize {
        self.tx[ring_id].borrow().next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dma_api::{DmaBuf, DmaDirection, DmaEngine, NoIommu};
    use memsim::{NumaDomain, NumaTopology, PhysMemory};
    use simcore::{CoreCtx, CoreId, CostModel};
    use std::sync::Arc;

    const DEV: DeviceId = DeviceId(0);

    struct Rig {
        mem: Arc<PhysMemory>,
        eng: NoIommu,
        nic: Nic,
        ring: CoherentBuffer,
        ctx: CoreCtx,
    }

    /// An unprotected rig: NIC on a direct bus (IOMMU engines are
    /// exercised end-to-end in netsim / integration tests).
    fn rig() -> Rig {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(256)));
        let eng = NoIommu::new(mem.clone(), DEV);
        let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
        let ring = eng.alloc_coherent(&mut ctx, 256 * DESC_BYTES).unwrap();
        let nic = Nic::new(DEV, Bus::Direct(mem.clone()), NicConfig::default());
        Rig {
            mem,
            eng,
            nic,
            ring,
            ctx,
        }
    }

    fn post_rx(r: &Rig, slot: usize, addr: u64, len: u32) {
        let d = Nic::encode_descriptor(addr, len);
        r.mem
            .write(r.ring.pa.add((slot * DESC_BYTES) as u64), &d)
            .unwrap();
    }

    #[test]
    fn rx_delivers_into_posted_buffer() {
        let mut r = rig();
        let ring_id = r.nic.attach_rx_ring(&r.ring);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        let buf = DmaBuf::new(pfn.base(), MTU);
        let m = r
            .eng
            .map(&mut r.ctx, buf, DmaDirection::FromDevice)
            .unwrap();
        post_rx(&r, 0, m.iova.get(), MTU as u32);

        let pkt = vec![0xabu8; 900];
        let c = r.nic.receive(ring_id, &pkt).unwrap();
        assert_eq!(c, RxCompletion { slot: 0, len: 900 });
        assert_eq!(r.mem.read_vec(buf.pa, 900).unwrap(), pkt);

        // The completion is visible in ring memory.
        let mut d = [0u8; DESC_BYTES];
        r.mem.read(r.ring.pa, &mut d).unwrap();
        let (_, len, status) = Nic::decode_descriptor(&d);
        assert!(Nic::is_done(status));
        assert_eq!(len, 900);
    }

    #[test]
    fn rx_without_descriptor_drops() {
        let mut r = rig();
        let ring_id = r.nic.attach_rx_ring(&r.ring);
        let err = r.nic.receive(ring_id, b"frame").unwrap_err();
        assert_eq!(
            err,
            NicError::NoDescriptor {
                ring: ring_id,
                slot: 0
            }
        );
        let _ = &mut r.ctx;
    }

    #[test]
    fn rx_truncates_to_posted_length() {
        let mut r = rig();
        let ring_id = r.nic.attach_rx_ring(&r.ring);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        let buf = DmaBuf::new(pfn.base(), 100);
        let m = r
            .eng
            .map(&mut r.ctx, buf, DmaDirection::FromDevice)
            .unwrap();
        post_rx(&r, 0, m.iova.get(), 100);
        let c = r.nic.receive(ring_id, &vec![1u8; 500]).unwrap();
        assert_eq!(c.len, 100);
    }

    #[test]
    fn rx_ring_wraps() {
        let mut r = rig();
        let ring_id = r.nic.attach_rx_ring(&r.ring);
        let pfn = r.mem.alloc_frame(NumaDomain(0)).unwrap();
        let buf = DmaBuf::new(pfn.base(), 64);
        let m = r
            .eng
            .map(&mut r.ctx, buf, DmaDirection::FromDevice)
            .unwrap();
        for i in 0..(256 + 3) {
            let slot = i % 256;
            post_rx(&r, slot, m.iova.get(), 64);
            let c = r.nic.receive(ring_id, &[i as u8; 8]).unwrap();
            assert_eq!(c.slot, slot);
        }
        assert_eq!(r.nic.rx_next(ring_id), 3);
    }

    #[test]
    fn tx_fetches_and_segments() {
        let mut r = rig();
        let ring_id = r.nic.attach_tx_ring(&r.ring);
        let pfn = r.mem.alloc_frames(NumaDomain(0), 16).unwrap();
        let payload: Vec<u8> = (0..48_000).map(|i| (i % 253) as u8).collect();
        r.mem.write(pfn.base(), &payload).unwrap();
        let buf = DmaBuf::new(pfn.base(), payload.len());
        let m = r.eng.map(&mut r.ctx, buf, DmaDirection::ToDevice).unwrap();
        post_rx(&r, 0, m.iova.get(), payload.len() as u32);

        let mut wire = Vec::new();
        let c = r.nic.transmit_into(ring_id, &mut wire).unwrap();
        assert_eq!(c.len, 48_000);
        assert_eq!(c.frames, 48_000usize.div_ceil(MTU));
        assert_eq!(wire, payload, "TSO reassembles to the original payload");
    }

    #[test]
    fn tx_rejects_oversized_buffers() {
        let mut r = rig();
        let ring_id = r.nic.attach_tx_ring(&r.ring);
        let pfn = r.mem.alloc_frames(NumaDomain(0), 17).unwrap();
        let buf = DmaBuf::new(pfn.base(), 65 * 1024);
        let m = r.eng.map(&mut r.ctx, buf, DmaDirection::ToDevice).unwrap();
        post_rx(&r, 0, m.iova.get(), (65 * 1024) as u32);
        assert_eq!(
            r.nic.transmit_into(ring_id, &mut Vec::new()).unwrap_err(),
            NicError::OversizedTx(65 * 1024)
        );
    }

    #[test]
    fn failed_tx_leaves_a_reused_buffer_empty() {
        use iommu::{Iommu, IovaPage, Perms};
        use memsim::PAGE_SIZE;
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
        let mmu = Arc::new(Iommu::new());
        let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
        let ring_pfn = mem.alloc_frame(NumaDomain(0)).unwrap();
        let ring_page = IovaPage(0x10);
        mmu.map_page(&mut ctx, DEV, ring_page, ring_pfn, Perms::ReadWrite)
            .unwrap();
        let ring = CoherentBuffer {
            iova: ring_page.base(),
            pa: ring_pfn.base(),
            len: PAGE_SIZE,
            pages: 1,
        };
        let bus = Bus::Iommu {
            mmu: mmu.clone(),
            mem: mem.clone(),
        };
        let mut nic = Nic::new(DEV, bus, NicConfig::default());
        let ring_id = nic.attach_tx_ring(&ring);
        let post = |slot: usize, iova: u64, len: usize| {
            let d = Nic::encode_descriptor(iova, len as u32);
            mem.write(ring.pa.add((slot * DESC_BYTES) as u64), &d)
                .unwrap();
        };

        // A two-page TX buffer, fully mapped: the transmit fills `wire`.
        let buf = mem.alloc_frames(NumaDomain(0), 2).unwrap();
        mem.fill(buf.base(), 0x5a, 2 * PAGE_SIZE).unwrap();
        let page = IovaPage(0x20);
        mmu.map_range(&mut ctx, DEV, page, buf, 2, Perms::Read)
            .unwrap();
        let mut wire = Vec::new();
        post(0, page.base().get(), 2 * PAGE_SIZE);
        nic.transmit_into(ring_id, &mut wire).unwrap();
        assert_eq!(wire, vec![0x5a; 2 * PAGE_SIZE]);

        // Now only its first page is mapped: the fetch faults part-way,
        // and the previous packet's bytes must not survive in `wire`.
        mmu.unmap_page_nosync(&mut ctx, DEV, page.add(1)).unwrap();
        mmu.invalidate_page_sync(&mut ctx, DEV, page.add(1));
        post(1, page.base().get(), 2 * PAGE_SIZE);
        let err = nic.transmit_into(ring_id, &mut wire).unwrap_err();
        assert!(matches!(err, NicError::Dma(_)), "{err:?}");
        assert!(wire.is_empty());

        // Same for a gather chain that breaks after its first fragment.
        wire.resize(100, 0xff);
        post(1, page.base().get(), PAGE_SIZE);
        post(2, page.add(1).base().get(), PAGE_SIZE);
        let err = nic.transmit_gather_into(ring_id, 2, &mut wire).unwrap_err();
        assert!(matches!(err, NicError::Dma(_)), "{err:?}");
        assert!(wire.is_empty());
    }

    #[test]
    fn bad_ring_id_rejected() {
        let r = rig();
        assert_eq!(r.nic.receive(9, b"x").unwrap_err(), NicError::BadRing(9));
    }

    #[test]
    fn descriptor_roundtrip() {
        let d = Nic::encode_descriptor(0xdead_beef_1234, 1500);
        let (addr, len, status) = Nic::decode_descriptor(&d);
        assert_eq!(addr, 0xdead_beef_1234);
        assert_eq!(len, 1500);
        assert_eq!(status, STATUS_READY);
        assert!(!Nic::is_done(status));
    }
}
