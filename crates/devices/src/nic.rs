//! The simulated 40 Gb/s NIC.

// lint: allow(panic) — descriptor-ring invariants are device-model bugs, not runtime errors

use dma_api::{Bus, BusBurst, BusError, CoherentBuffer};
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

/// Maximum TSO buffer the driver may hand the NIC (64 KB, §6).
pub const TSO_MAX: usize = 64 * 1024;

/// Entries per descriptor ring.
pub const RING_ENTRIES: usize = 256;

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
    rx: Vec<RefCell<Ring>>,
    tx: Vec<RefCell<Ring>>,
}

impl Nic {
    /// Creates a NIC on `bus` with requester id `dev`.
    pub fn new(dev: DeviceId, bus: Bus) -> Self {
        Nic {
            dev,
            bus,
            rx: Vec::new(),
            tx: Vec::new(),
        }
    }

    /// The NIC's requester id.
    pub fn device(&self) -> DeviceId {
        self.dev
    }

    /// Attaches an RX descriptor ring (a coherent buffer the driver
    /// allocated); returns the ring id.
    pub fn attach_rx_ring(&mut self, ring: &CoherentBuffer) -> usize {
        assert!(
            ring.size() >= RING_ENTRIES * DESC_BYTES,
            "ring buffer too small"
        );
        self.rx.push(RefCell::new(Ring {
            iova: ring.iova.get(),
            next: 0,
        }));
        self.rx.len() - 1
    }

    /// Attaches a TX descriptor ring; returns the ring id.
    pub fn attach_tx_ring(&mut self, ring: &CoherentBuffer) -> usize {
        assert!(
            ring.size() >= RING_ENTRIES * DESC_BYTES,
            "ring buffer too small"
        );
        self.tx.push(RefCell::new(Ring {
            iova: ring.iova.get(),
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

    fn fetch_descriptor(
        &self,
        bus: &mut BusBurst<'_>,
        ring: &Ring,
        slot: usize,
    ) -> Result<(u64, u32, u32), NicError> {
        let mut raw = [0u8; DESC_BYTES];
        bus.read(self.dev, ring.iova + (slot * DESC_BYTES) as u64, &mut raw)?;
        Ok(Self::decode_descriptor(&raw))
    }

    fn write_back(
        &self,
        bus: &mut BusBurst<'_>,
        ring: &Ring,
        slot: usize,
        len: u32,
    ) -> Result<(), NicError> {
        let mut tail = [0u8; 8];
        tail[0..4].copy_from_slice(&len.to_le_bytes());
        tail[4..8].copy_from_slice(&STATUS_DONE.to_le_bytes());
        bus.write(self.dev, ring.iova + (slot * DESC_BYTES + 8) as u64, &tail)?;
        Ok(())
    }

    /// A frame arrives from the wire: the NIC fetches the next RX
    /// descriptor (a DMA read), DMAs the payload into the posted buffer,
    /// and writes the completion back (a DMA write) — three DMAs in one
    /// [`Bus::burst`].
    ///
    /// # Errors
    ///
    /// [`NicError::NoDescriptor`] if the driver hasn't replenished the
    /// ring (the frame is dropped, as on real hardware);
    /// [`NicError::Dma`] if any of the NIC's DMAs is blocked by the IOMMU
    /// (the DMAs after it are not issued).
    pub fn receive(&self, ring_id: usize, payload: &[u8]) -> Result<RxCompletion, NicError> {
        let mut ring = self
            .rx
            .get(ring_id)
            .ok_or(NicError::BadRing(ring_id))?
            .borrow_mut();
        let slot = ring.next;
        let n = self.bus.burst(|bus| {
            let (addr, len, status) = self.fetch_descriptor(bus, &ring, slot)?;
            if status != STATUS_READY {
                return Err(NicError::NoDescriptor {
                    ring: ring_id,
                    slot,
                });
            }
            let n = payload.len().min(len as usize);
            bus.write(self.dev, addr, &payload[..n])?;
            self.write_back(bus, &ring, slot, n as u32)?;
            Ok(n)
        })?;
        ring.next = (slot + 1) % RING_ENTRIES;
        Ok(RxCompletion { slot, len: n })
    }

    /// The NIC processes the next TX descriptor and collects the wire
    /// payload into a caller-owned buffer: the one-descriptor case of
    /// [`Nic::transmit_gather_with`], with a sink that appends.
    ///
    /// The buffer ends up holding exactly the payload (per-packet loops
    /// reuse one allocation); on any error it is left empty, so a reused
    /// buffer never shows a previous packet's bytes.
    pub fn transmit_into(
        &self,
        ring_id: usize,
        payload: &mut Vec<u8>,
    ) -> Result<TxCompletion, NicError> {
        payload.clear();
        self.transmit_gather_with(ring_id, 1, |_, bytes| payload.extend_from_slice(bytes))
            .inspect_err(|_| payload.clear())
    }

    /// The NIC processes the next `n` TX descriptors as one scatter/gather
    /// chain: it fetches each descriptor, DMA-reads each fragment,
    /// segments the concatenation into MTU-sized wire frames (TSO), and
    /// completes the descriptors (real NICs chain descriptors exactly like
    /// this for fragmented skbs). The whole chain is one [`Bus::burst`].
    ///
    /// The payload streams to `sink` straight out of memory as
    /// `(offset in the payload, bytes)` pieces, in order and without gaps,
    /// so a caller checks what went on the wire without staging it. The
    /// sink runs under the burst's lock holds, so it must not touch the
    /// NIC's memory. On an error the sink has seen only the pieces read
    /// before it.
    pub fn transmit_gather_with(
        &self,
        ring_id: usize,
        n: usize,
        mut sink: impl FnMut(usize, &[u8]),
    ) -> Result<TxCompletion, NicError> {
        assert!(n > 0, "empty gather chain");
        let mut ring = self
            .tx
            .get(ring_id)
            .ok_or(NicError::BadRing(ring_id))?
            .borrow_mut();
        let first_slot = ring.next;
        let gathered = self.bus.burst(|bus| {
            let mut gathered = 0usize;
            for k in 0..n {
                let slot = (first_slot + k) % RING_ENTRIES;
                let (addr, len, status) = self.fetch_descriptor(bus, &ring, slot)?;
                if status != STATUS_READY {
                    return Err(NicError::NoDescriptor {
                        ring: ring_id,
                        slot,
                    });
                }
                let end = gathered + len as usize;
                if end > TSO_MAX {
                    return Err(NicError::OversizedTx(end));
                }
                bus.read_with(self.dev, addr, len as usize, |off, bytes| {
                    sink(gathered + off, bytes)
                })?;
                self.write_back(bus, &ring, slot, len)?;
                gathered = end;
            }
            Ok(gathered)
        })?;
        ring.next = (first_slot + n) % RING_ENTRIES;
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
    use dma_api::{
        BusObserver, CoherentHelper, DmaBuf, DmaDirection, DmaEngine, DmaObserver, NoIommu,
    };
    use dmasan::DmaSan;
    use iommu::{Iommu, IovaPage, Perms};
    use memsim::{NumaDomain, NumaTopology, PhysMemory, PAGE_SIZE};
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
        let nic = Nic::new(DEV, Bus::Direct(mem.clone()));
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
    fn a_gather_streams_what_transmit_into_collects() {
        let mut r = rig();
        let ring_id = r.nic.attach_tx_ring(&r.ring);
        let pfn = r.mem.alloc_frames(NumaDomain(0), 4).unwrap();
        let bytes: Vec<u8> = (0..4 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        r.mem.write(pfn.base(), &bytes).unwrap();
        let buf = DmaBuf::new(pfn.base(), bytes.len());
        let m = r.eng.map(&mut r.ctx, buf, DmaDirection::ToDevice).unwrap();
        // Three fragments; the first and the last cross frame boundaries.
        let frags = [(100, 5000), (6000, 3), (7000, 9000)];
        let post = |slot: usize, (at, len): (u64, u32)| post_rx(&r, slot, m.iova.get() + at, len);

        for (slot, &frag) in frags.iter().enumerate() {
            post(slot, frag);
        }
        let mut pieces = Vec::new();
        let c = r
            .nic
            .transmit_gather_with(ring_id, 3, |off, b| pieces.push((off, b.to_vec())))
            .unwrap();

        let mut collected = Vec::new();
        for (slot, &frag) in frags.iter().enumerate() {
            post(3 + slot, frag);
            let mut wire = Vec::new();
            r.nic.transmit_into(ring_id, &mut wire).unwrap();
            collected.extend(wire);
        }
        // The pieces tile the payload in order, and hold what was collected.
        let mut end = 0;
        for (off, b) in &pieces {
            assert_eq!(*off, end, "pieces arrive in order, without gaps");
            assert_eq!(b[..], collected[end..end + b.len()]);
            end += b.len();
        }
        assert_eq!((end, c.len), (collected.len(), collected.len()));
        let sent: Vec<u8> = frags
            .iter()
            .flat_map(|&(at, len)| &bytes[at as usize..at as usize + len as usize])
            .copied()
            .collect();
        assert_eq!(collected, sent);
    }

    /// A NIC behind an IOMMU whose one ring page is attached as both its
    /// RX and its TX ring (id 0), and a two-page buffer of `0x5a` bytes
    /// mapped read-write at IOVA `page`. The bus reports to `observer`.
    struct IommuNic {
        mem: Arc<PhysMemory>,
        mmu: Arc<Iommu>,
        ctx: CoreCtx,
        bus: Bus,
        nic: Nic,
        ring_id: usize,
        ring: CoherentBuffer,
        page: IovaPage,
    }

    impl IommuNic {
        fn new() -> Self {
            Self::observed(None)
        }

        fn observed(observer: Option<Arc<dyn BusObserver>>) -> Self {
            let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(16)));
            let mmu = Arc::new(Iommu::new());
            let mut ctx = CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()));
            let ring = CoherentHelper::new(mem.clone(), mmu.clone(), DEV)
                .alloc(
                    &mut ctx,
                    PAGE_SIZE,
                    |_, _, _| Ok(IovaPage(0x10)),
                    |_, _, _| {},
                )
                .unwrap();
            let bus = Bus::Iommu {
                mmu: mmu.clone(),
                mem: mem.clone(),
            };
            let bus = match observer {
                Some(observer) => bus.observed(observer),
                None => bus,
            };
            let mut nic = Nic::new(DEV, bus.clone());
            let ring_id = nic.attach_tx_ring(&ring);
            assert_eq!(nic.attach_rx_ring(&ring), ring_id);
            let buf = mem.alloc_frames(NumaDomain(0), 2).unwrap();
            mem.fill(buf.base(), 0x5a, 2 * PAGE_SIZE).unwrap();
            let page = IovaPage(0x20);
            mmu.map_range(&mut ctx, DEV, page, buf, 2, Perms::ReadWrite)
                .unwrap();
            IommuNic {
                mem,
                mmu,
                ctx,
                bus,
                nic,
                ring_id,
                ring,
                page,
            }
        }

        /// Posts a ready descriptor for `len` bytes at `iova` in `slot`.
        fn post(&self, slot: usize, iova: u64, len: usize) {
            let d = Nic::encode_descriptor(iova, len as u32);
            self.mem
                .write(self.ring.pa.add((slot * DESC_BYTES) as u64), &d)
                .unwrap();
        }

        /// The descriptor in `slot` as ring memory holds it.
        fn descriptor(&self, slot: usize) -> (u64, u32, u32) {
            let at = self.ring.pa.add((slot * DESC_BYTES) as u64);
            Nic::decode_descriptor(&self.mem.read_vec(at, DESC_BYTES).unwrap())
        }

        /// Leaves only the buffer's first page mapped.
        fn unmap_second_page(&mut self) {
            let second = self.page.add(1);
            self.mmu
                .unmap_page_nosync(&mut self.ctx, DEV, second)
                .unwrap();
            self.mmu
                .invalidate_range_sync(&mut self.ctx, DEV, second, 1);
        }

        /// A checker that knows the ring (as a coherent buffer) and
        /// nothing else, watching this rig's bus.
        fn sanitized(strict: bool) -> (Self, Arc<DmaSan>) {
            let obs = obs::Obs::isolated();
            let san = Arc::new(if strict {
                DmaSan::new(obs)
            } else {
                DmaSan::lenient(obs)
            });
            let r = Self::observed(Some(san.clone()));
            san.on_alloc_coherent(&r.ctx, DEV, &r.ring);
            (r, san)
        }
    }

    /// Every access a bus reports: `(addr, len, is_write, granted)`.
    #[derive(Debug, Default)]
    struct Recorder(simcore::sync::Mutex<Vec<(u64, usize, bool, bool)>>);

    impl BusObserver for Recorder {
        fn on_device_access(&self, _: DeviceId, addr: u64, len: usize, w: bool, granted: bool) {
            self.0.lock().push((addr, len, w, granted));
        }
    }

    impl Recorder {
        fn calls(&self) -> Vec<(u64, usize, bool, bool)> {
            self.0.lock().clone()
        }
    }

    #[test]
    fn failed_tx_leaves_a_reused_buffer_empty() {
        let mut r = IommuNic::new();
        // Fully mapped: the transmit fills `wire`.
        let mut wire = Vec::new();
        r.post(0, r.page.base().get(), 2 * PAGE_SIZE);
        r.nic.transmit_into(r.ring_id, &mut wire).unwrap();
        assert_eq!(wire, vec![0x5a; 2 * PAGE_SIZE]);

        // Now only its first page is mapped: the fetch faults part-way,
        // and the previous packet's bytes must not survive in `wire`.
        r.unmap_second_page();
        r.post(1, r.page.base().get(), 2 * PAGE_SIZE);
        let err = r.nic.transmit_into(r.ring_id, &mut wire).unwrap_err();
        assert!(matches!(err, NicError::Dma(_)), "{err:?}");
        assert!(wire.is_empty());
    }

    #[test]
    fn a_fault_on_the_second_fragment_leaves_the_sink_with_the_first() {
        let mut r = IommuNic::new();
        r.unmap_second_page();
        r.post(0, r.page.base().get(), PAGE_SIZE);
        r.post(1, r.page.add(1).base().get(), PAGE_SIZE);
        let mut pieces = Vec::new();
        let err = r
            .nic
            .transmit_gather_with(r.ring_id, 2, |off, b| pieces.push((off, b.to_vec())))
            .unwrap_err();
        assert!(matches!(err, NicError::Dma(_)), "{err:?}");
        assert_eq!(pieces, [(0, vec![0x5a; PAGE_SIZE])]);
        assert_eq!(r.nic.tx_next(r.ring_id), 0, "the chain did not complete");
    }

    #[test]
    fn a_payload_fault_mid_burst_fetches_the_descriptor_and_writes_nothing_back() {
        let rec = Arc::new(Recorder::default());
        let mut r = IommuNic::observed(Some(rec.clone()));
        r.unmap_second_page();
        // The receive buffer starts 100 B into the mapped page and runs
        // into the unmapped one: the payload write faults part-way.
        let buf = r.page.base().get() + 100;
        r.post(0, buf, PAGE_SIZE);
        let err = r.nic.receive(r.ring_id, &[0xee; PAGE_SIZE]).unwrap_err();
        let NicError::Dma(BusError::Fault(fault)) = err else {
            panic!("{err:?}");
        };
        assert_eq!(fault.iova, r.page.add(1).base());
        assert_eq!(r.mmu.faults(), [fault], "exactly one fault logged");
        let ring = r.ring.iova.get();
        assert_eq!(
            rec.calls(),
            [
                (ring, DESC_BYTES, false, true),
                (buf, PAGE_SIZE, true, false)
            ],
            "the fetch and the faulted write reach the observer, no write-back"
        );
        assert_eq!(r.descriptor(0), (buf, PAGE_SIZE as u32, STATUS_READY));
        assert_eq!(r.nic.rx_next(r.ring_id), 0);
    }

    #[test]
    fn a_sanitizer_violation_inside_a_burst_is_recorded_as_alone() {
        // The checker knows the ring but not the buffer: the payload write
        // is a violation the IOMMU grants.
        let (burst, in_burst) = IommuNic::sanitized(false);
        let buf = burst.page.base().get();
        burst.post(0, buf, 600);
        assert!(burst.nic.receive(burst.ring_id, &[1; 600]).is_ok());
        let (single, alone) = IommuNic::sanitized(false);
        single.bus.write(DEV, buf, &[1; 600]).unwrap();
        let v = in_burst.violations();
        assert_eq!(v.len(), 1, "the ring accesses are legal: {v:?}");
        assert_eq!(v[0].kind, dmasan::ViolationKind::StaleAccess);
        assert_eq!(v, alone.violations());
    }

    #[test]
    fn a_strict_sanitizer_panic_inside_a_burst_leaves_the_bus_usable() {
        let (mut r, san) = IommuNic::sanitized(true);
        let buf = r.page.base().get();
        r.post(0, buf, 600);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.nic.receive(r.ring_id, &[1; 600])
        }))
        .unwrap_err();
        let msg = panicked.downcast_ref::<String>().unwrap();
        assert!(msg.starts_with("dmasan[stale_access]"), "{msg}");
        assert_eq!(r.nic.rx_next(r.ring_id), 0, "the receive did not complete");
        // Once the buffer is mapped as far as the checker knows, the next
        // burst on the same bus runs. (`NoIommu` issues the handle: its
        // IOVA is the address it is given.)
        let at = DmaBuf::new(memsim::PhysAddr(buf), 600);
        let m = NoIommu::new(r.mem.clone(), DEV)
            .map(&mut r.ctx, at, DmaDirection::FromDevice)
            .unwrap();
        san.on_map(&r.ctx, DEV, &m, 1);
        let c = r.nic.receive(r.ring_id, &[2; 600]).unwrap();
        assert_eq!(c, RxCompletion { slot: 0, len: 600 });
        assert_eq!(r.descriptor(0), (buf, 600, STATUS_DONE));
        assert_eq!(san.violation_count(), 1);
    }

    #[test]
    fn a_three_descriptor_chain_matches_its_accesses_one_by_one() {
        // Fragments inside the two-page buffer; the second crosses pages.
        let frags = [(100, 3000), (3100, 2000), (5100, 2000)];
        let run = |chain: bool| {
            let rec = Arc::new(Recorder::default());
            let r = IommuNic::observed(Some(rec.clone()));
            for (slot, &(at, len)) in frags.iter().enumerate() {
                r.post(slot, r.page.base().get() + at, len);
            }
            let mut pieces = Vec::new();
            if chain {
                let sink = |off, b: &[u8]| pieces.push((off, b.to_vec()));
                r.nic.transmit_gather_with(r.ring_id, 3, sink).unwrap();
            } else {
                let mut gathered = 0;
                for slot in 0..3 {
                    let desc = r.ring.iova.get() + (slot * DESC_BYTES) as u64;
                    let mut raw = [0u8; DESC_BYTES];
                    r.bus.read(DEV, desc, &mut raw).unwrap();
                    let (addr, len, _) = Nic::decode_descriptor(&raw);
                    let sink = |off, b: &[u8]| pieces.push((gathered + off, b.to_vec()));
                    r.bus.read_with(DEV, addr, len as usize, sink).unwrap();
                    let mut tail = [0u8; 8];
                    tail[0..4].copy_from_slice(&len.to_le_bytes());
                    tail[4..8].copy_from_slice(&STATUS_DONE.to_le_bytes());
                    r.bus.write(DEV, desc + 8, &tail).unwrap();
                    gathered += len as usize;
                }
            }
            let ring = r.mem.read_vec(r.ring.pa, 3 * DESC_BYTES).unwrap();
            (r.mmu.iotlb_stats(), pieces, rec.calls(), ring)
        };
        let (chain, alone) = (run(true), run(false));
        assert_eq!(chain.0, alone.0, "IOTLB hits, misses and evictions");
        assert_eq!(chain.1, alone.1, "sink pieces");
        assert_eq!(chain.2, alone.2, "observer calls");
        assert_eq!(chain.3, alone.3, "ring memory after the write-backs");
        assert_eq!(chain.2.len(), 9);
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
