//! The simulated physical memory: frames, allocator, byte access.

use crate::{NumaDomain, NumaTopology, Pfn, PhysAddr, PAGE_SIZE};
use simcore::sync::Mutex;
use std::fmt;

/// Errors from physical memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// No free frames (of the requested contiguity) in the domain.
    OutOfMemory {
        /// The domain the allocation targeted.
        domain: NumaDomain,
        /// Contiguous frames requested.
        frames: u64,
    },
    /// An access touched a frame that is not allocated.
    Unallocated(Pfn),
    /// An access fell outside the physical address space.
    OutOfBounds(PhysAddr),
    /// A free targeted a frame that was not allocated.
    BadFree(Pfn),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory { domain, frames } => {
                write!(f, "out of memory: {frames} contiguous frames on {domain}")
            }
            MemError::Unallocated(pfn) => write!(f, "access to unallocated frame {pfn}"),
            MemError::OutOfBounds(pa) => write!(f, "access beyond physical memory at {pa}"),
            MemError::BadFree(pfn) => write!(f, "free of unallocated frame {pfn}"),
        }
    }
}

impl std::error::Error for MemError {}

/// Frame-allocation and byte-movement statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Frames currently allocated.
    pub allocated_frames: u64,
    /// High-water mark of allocated frames.
    pub peak_frames: u64,
    /// Total allocation calls.
    pub allocs: u64,
    /// Total free calls.
    pub frees: u64,
    /// Bytes [`PhysMemory::copy`] has moved (every shadow-buffer copy).
    pub copied_bytes: u64,
}

#[derive(Debug, Default)]
struct DomainAllocator {
    /// Free runs as `(start pfn, length)`, sorted by start and coalesced
    /// on free. Steady-state run counts are tiny (long-lived allocations
    /// plus one hole churned by the packet loop), so a sorted vec beats a
    /// BTreeMap on every operation while keeping the identical first-fit
    /// order — which is observable through reallocated frame numbers and
    /// must not change.
    runs: Vec<(u64, u64)>,
}

impl DomainAllocator {
    fn new(start: Pfn, end: Pfn) -> Self {
        let mut runs = Vec::new();
        if end.0 > start.0 {
            runs.push((start.0, end.0 - start.0));
        }
        DomainAllocator { runs }
    }

    fn alloc(&mut self, n: u64) -> Option<Pfn> {
        let i = self.runs.iter().position(|&(_, len)| len >= n)?;
        let (start, len) = self.runs[i];
        if len > n {
            self.runs[i] = (start + n, len - n);
        } else {
            self.runs.remove(i);
        }
        Some(Pfn(start))
    }

    fn free(&mut self, pfn: Pfn, n: u64) {
        let start = pfn.0;
        let end = start + n;
        // Coalesce with the predecessor and successor runs when adjacent.
        let i = self.runs.partition_point(|&(s, _)| s < start);
        let merge_prev = i > 0 && {
            let (ps, pl) = self.runs[i - 1];
            ps + pl == start
        };
        let merge_next = i < self.runs.len() && self.runs[i].0 == end;
        match (merge_prev, merge_next) {
            (true, true) => {
                let nl = self.runs[i].1;
                self.runs[i - 1].1 += n + nl;
                self.runs.remove(i);
            }
            (true, false) => self.runs[i - 1].1 += n,
            (false, true) => self.runs[i] = (start, n + self.runs[i].1),
            (false, false) => self.runs.insert(i, (start, n)),
        }
    }
}

/// Frames per second-level chunk of the frame table.
const CHUNK_BITS: u32 = 9;
const CHUNK: usize = 1 << CHUNK_BITS;

/// One allocated frame's backing bytes plus a dirty high-water mark:
/// the largest `offset + len` any write has touched since the bytes were
/// last all-zero. Recycling zeroes only that prefix instead of the whole
/// page — an MTU-sized skb dirties ~1.5 KB of its 4 KB frame, so the
/// per-packet alloc/free cycle re-zeroes ~1.5 KB, not 4 KB.
#[derive(Debug)]
struct Frame {
    data: Box<[u8]>,
    dirty: usize,
}

impl Frame {
    fn zeroed() -> Self {
        Frame {
            data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
            dirty: 0,
        }
    }

    /// Restores the all-zero state (cheap when little was written).
    fn rezero(&mut self) {
        self.data[..self.dirty].fill(0);
        self.dirty = 0;
    }

    /// The `len` bytes at `at`, for overwriting: raises the dirty mark.
    fn dirty_mut(&mut self, at: usize, len: usize) -> &mut [u8] {
        self.dirty = self.dirty.max(at + len);
        &mut self.data[at..at + len]
    }
}

/// Backing store for allocated frames: a two-level dense table (chunks
/// of 512 frame slots, allocated on demand), so the per-byte-access
/// frame lookup is two array indexes instead of a hash. Frame numbers
/// are dense by construction (the NUMA ranges are contiguous), which a
/// hash map can't exploit.
#[derive(Debug, Default)]
struct FrameTable {
    chunks: Vec<Option<Box<[Option<Frame>]>>>,
}

impl FrameTable {
    fn get(&self, pfn: u64) -> Option<&Frame> {
        self.chunks
            .get((pfn >> CHUNK_BITS) as usize)?
            .as_ref()?
            .get(pfn as usize & (CHUNK - 1))?
            .as_ref()
    }

    fn get_mut(&mut self, pfn: u64) -> Option<&mut Frame> {
        self.chunks
            .get_mut((pfn >> CHUNK_BITS) as usize)?
            .as_mut()?
            .get_mut(pfn as usize & (CHUNK - 1))?
            .as_mut()
    }

    fn contains(&self, pfn: u64) -> bool {
        self.get(pfn).is_some()
    }

    /// Installs `frame` at `pfn`, returning the slot's previous content.
    fn insert(&mut self, pfn: u64, frame: Frame) -> Option<Frame> {
        let ci = (pfn >> CHUNK_BITS) as usize;
        if ci >= self.chunks.len() {
            self.chunks.resize_with(ci + 1, || None);
        }
        let chunk = self.chunks[ci].get_or_insert_with(|| (0..CHUNK).map(|_| None).collect());
        chunk[pfn as usize & (CHUNK - 1)].replace(frame)
    }

    fn remove(&mut self, pfn: u64) -> Option<Frame> {
        self.chunks
            .get_mut((pfn >> CHUNK_BITS) as usize)?
            .as_mut()?
            .get_mut(pfn as usize & (CHUNK - 1))?
            .take()
    }
}

/// Freed frame boxes kept for reuse (bounded at 1 MB of backing store);
/// reused frames are re-zeroed, preserving "frames start zeroed".
const RECYCLE_CAP: usize = 256;

/// All mutable state, behind [`PhysMemory`]'s one lock.
#[derive(Debug)]
struct Inner {
    /// Size of the physical address space, in frames.
    total_frames: u64,
    frames: FrameTable,
    /// Freed frames awaiting reuse (contents stale; re-zeroed on alloc).
    recycled: Vec<Frame>,
    domains: Vec<DomainAllocator>,
    stats: MemStats,
}

impl Inner {
    fn check_bounds(&self, pa: PhysAddr) -> Result<(), MemError> {
        if pa.pfn().0 >= self.total_frames {
            Err(MemError::OutOfBounds(pa))
        } else {
            Ok(())
        }
    }

    fn frame(&self, pa: PhysAddr) -> Result<&Frame, MemError> {
        self.check_bounds(pa)?;
        let pfn = pa.pfn();
        self.frames.get(pfn.0).ok_or(MemError::Unallocated(pfn))
    }

    fn frame_mut(&mut self, pa: PhysAddr) -> Result<&mut Frame, MemError> {
        self.check_bounds(pa)?;
        let pfn = pa.pfn();
        self.frames.get_mut(pfn.0).ok_or(MemError::Unallocated(pfn))
    }
}

/// Splits the `len` bytes at `pa` at frame boundaries: each piece's
/// address, its offset from `pa`, and its length.
fn pieces(pa: PhysAddr, len: usize) -> impl Iterator<Item = (PhysAddr, usize, usize)> {
    let mut off = 0usize;
    std::iter::from_fn(move || {
        (off < len).then(|| {
            let cur = pa.add(off as u64);
            let take = (PAGE_SIZE - cur.page_offset()).min(len - off);
            off += take;
            (cur, off - take, take)
        })
    })
}

/// The machine's physical memory.
///
/// Thread-safe — the frame table, the allocator and the statistics sit
/// behind one lock that every operation takes exactly once, however many
/// frames it spans — so it can be shared between the OS side and device
/// models, and used from real threads in stress tests. All byte accesses
/// require the touched frames to be allocated; devices probing
/// unallocated memory get [`MemError::Unallocated`]. An access that fails
/// part-way has already transferred the frames before the failing one.
pub struct PhysMemory {
    topology: NumaTopology,
    inner: Mutex<Inner>,
}

impl fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let allocated_frames = self.inner.lock().stats.allocated_frames;
        f.debug_struct("PhysMemory")
            .field("topology", &self.topology)
            .field("allocated_frames", &allocated_frames)
            .finish()
    }
}

impl PhysMemory {
    /// Creates physical memory with the given topology.
    pub fn new(topology: NumaTopology) -> Self {
        let domains = (0..topology.domains())
            .map(|d| {
                let (s, e) = topology.frame_range(NumaDomain(d));
                DomainAllocator::new(s, e)
            })
            .collect();
        PhysMemory {
            inner: Mutex::new(Inner {
                total_frames: topology.total_frames(),
                frames: FrameTable::default(),
                recycled: Vec::new(),
                domains,
                stats: MemStats::default(),
            }),
            topology,
        }
    }

    /// The machine topology.
    pub fn topology(&self) -> &NumaTopology {
        &self.topology
    }

    /// Allocates one zeroed frame on `domain`.
    pub fn alloc_frame(&self, domain: NumaDomain) -> Result<Pfn, MemError> {
        self.alloc_frames(domain, 1)
    }

    /// Allocates `n` physically contiguous zeroed frames on `domain`,
    /// returning the first.
    pub fn alloc_frames(&self, domain: NumaDomain, n: u64) -> Result<Pfn, MemError> {
        assert!(n > 0, "zero-frame allocation");
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let pfn = inner
            .domains
            .get_mut(domain.index())
            .unwrap_or_else(|| panic!("no such domain {domain}"))
            .alloc(n)
            .ok_or(MemError::OutOfMemory { domain, frames: n })?;
        for i in 0..n {
            let frame = match inner.recycled.pop() {
                Some(mut f) => {
                    f.rezero();
                    f
                }
                None => Frame::zeroed(),
            };
            let prev = inner.frames.insert(pfn.0 + i, frame);
            debug_assert!(prev.is_none(), "frame double-allocated");
        }
        inner.stats.allocs += 1;
        inner.stats.allocated_frames += n;
        inner.stats.peak_frames = inner.stats.peak_frames.max(inner.stats.allocated_frames);
        Ok(pfn)
    }

    /// Frees `n` contiguous frames starting at `pfn`. A bad free of a
    /// partially-allocated run reports the first unallocated frame and
    /// frees nothing at all.
    pub fn free_frames(&self, pfn: Pfn, n: u64) -> Result<(), MemError> {
        assert!(n > 0, "zero-frame free");
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let run = pfn.0..pfn.0 + n;
        if let Some(bad) = run.clone().find(|&p| !inner.frames.contains(p)) {
            return Err(MemError::BadFree(Pfn(bad)));
        }
        for p in run {
            let frame = inner.frames.remove(p);
            if inner.recycled.len() < RECYCLE_CAP {
                inner.recycled.extend(frame);
            }
        }
        let domain = self.topology.domain_of_pfn(pfn);
        inner.domains[domain.index()].free(pfn, n);
        inner.stats.frees += 1;
        inner.stats.allocated_frames -= n;
        Ok(())
    }

    /// Whether a frame is currently allocated.
    pub fn is_allocated(&self, pfn: Pfn) -> bool {
        self.inner.lock().frames.contains(pfn.0)
    }

    /// Reads `buf.len()` bytes starting at `pa` (may cross frames).
    pub fn read(&self, pa: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let inner = self.inner.lock();
        for (cur, off, take) in pieces(pa, buf.len()) {
            let at = cur.page_offset();
            buf[off..off + take].copy_from_slice(&inner.frame(cur)?.data[at..at + take]);
        }
        Ok(())
    }

    /// Writes `data` starting at `pa` (may cross frames).
    pub fn write(&self, pa: PhysAddr, data: &[u8]) -> Result<(), MemError> {
        let mut inner = self.inner.lock();
        for (cur, off, take) in pieces(pa, data.len()) {
            inner
                .frame_mut(cur)?
                .dirty_mut(cur.page_offset(), take)
                .copy_from_slice(&data[off..off + take]);
        }
        Ok(())
    }

    /// Compares the bytes at `pa` with `data` without copying them out —
    /// the allocation-free verify used on per-packet paths.
    pub fn equals(&self, pa: PhysAddr, data: &[u8]) -> Result<bool, MemError> {
        let inner = self.inner.lock();
        for (cur, off, take) in pieces(pa, data.len()) {
            let at = cur.page_offset();
            if inner.frame(cur)?.data[at..at + take] != data[off..off + take] {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Copies `len` bytes from `src` to `dst` within physical memory (the
    /// real data movement behind every shadow-buffer copy). Works
    /// frame-pair by frame-pair, moving each contiguous run with one
    /// `memcpy` — no scratch staging, no second pass over the bytes.
    /// Overlapping ranges copy in ascending address order.
    pub fn copy(&self, src: PhysAddr, dst: PhysAddr, len: usize) -> Result<(), MemError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let mut off = 0usize;
        while off < len {
            let s_pa = src.add(off as u64);
            let d_pa = dst.add(off as u64);
            inner.check_bounds(s_pa)?;
            inner.check_bounds(d_pa)?;
            let (s_pfn, d_pfn) = (s_pa.pfn(), d_pa.pfn());
            let si = s_pa.page_offset();
            let di = d_pa.page_offset();
            let take = (PAGE_SIZE - si).min(PAGE_SIZE - di).min(len - off);
            if s_pfn == d_pfn {
                let frame = inner.frame_mut(s_pa)?;
                frame.data.copy_within(si..si + take, di);
                frame.dirty = frame.dirty.max(di + take);
            } else {
                if !inner.frames.contains(s_pfn.0) {
                    return Err(MemError::Unallocated(s_pfn));
                }
                // Two frames of one table: lift the destination out (a
                // pointer move) so both can be borrowed, then put it back.
                let mut df = inner
                    .frames
                    .remove(d_pfn.0)
                    .ok_or(MemError::Unallocated(d_pfn))?;
                if let Some(sf) = inner.frames.get(s_pfn.0) {
                    df.dirty_mut(di, take)
                        .copy_from_slice(&sf.data[si..si + take]);
                }
                inner.frames.insert(d_pfn.0, df);
            }
            inner.stats.copied_bytes += take as u64;
            off += take;
        }
        Ok(())
    }

    /// Fills `len` bytes at `pa` with `byte`.
    pub fn fill(&self, pa: PhysAddr, byte: u8, len: usize) -> Result<(), MemError> {
        let mut inner = self.inner.lock();
        for (cur, _, take) in pieces(pa, len) {
            inner
                .frame_mut(cur)?
                .dirty_mut(cur.page_offset(), take)
                .fill(byte);
        }
        Ok(())
    }

    /// Reads `len` bytes at `pa` into a fresh vector.
    pub fn read_vec(&self, pa: PhysAddr, len: usize) -> Result<Vec<u8>, MemError> {
        let mut v = vec![0u8; len];
        self.read(pa, &mut v)?;
        Ok(v)
    }

    /// Allocation statistics snapshot.
    pub fn stats(&self) -> MemStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(frames: u64) -> PhysMemory {
        PhysMemory::new(NumaTopology::tiny(frames))
    }

    #[test]
    fn alloc_read_write_roundtrip() {
        let m = mem(16);
        let pfn = m.alloc_frame(NumaDomain(0)).unwrap();
        let pa = pfn.base().add(100);
        m.write(pa, b"hello world").unwrap();
        assert_eq!(m.read_vec(pa, 11).unwrap(), b"hello world");
    }

    #[test]
    fn frames_start_zeroed() {
        let m = mem(4);
        let pfn = m.alloc_frame(NumaDomain(0)).unwrap();
        assert_eq!(
            m.read_vec(pfn.base(), PAGE_SIZE).unwrap(),
            vec![0u8; PAGE_SIZE]
        );
    }

    #[test]
    fn cross_frame_access() {
        let m = mem(16);
        let pfn = m.alloc_frames(NumaDomain(0), 2).unwrap();
        let pa = pfn.base().add(PAGE_SIZE as u64 - 3);
        m.write(pa, b"abcdef").unwrap();
        assert_eq!(m.read_vec(pa, 6).unwrap(), b"abcdef");
    }

    #[test]
    fn unallocated_access_fails() {
        let m = mem(16);
        let err = m.read_vec(PhysAddr(0), 1).unwrap_err();
        assert_eq!(err, MemError::Unallocated(Pfn(0)));
        let err = m.write(PhysAddr(4096), b"x").unwrap_err();
        assert_eq!(err, MemError::Unallocated(Pfn(1)));
    }

    #[test]
    fn out_of_bounds_access_fails() {
        let m = mem(2);
        let err = m.read_vec(PhysAddr(3 * 4096), 1).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds(_)));
    }

    #[test]
    fn contiguous_allocation_is_contiguous() {
        let m = mem(32);
        let a = m.alloc_frames(NumaDomain(0), 16).unwrap();
        // The run must be fully allocated.
        for i in 0..16 {
            assert!(m.is_allocated(a.add(i)));
        }
        // Write across the whole 64 KB region.
        let data = vec![0x5au8; 16 * PAGE_SIZE];
        m.write(a.base(), &data).unwrap();
        assert_eq!(m.read_vec(a.base(), data.len()).unwrap(), data);
    }

    #[test]
    fn oom_when_no_contiguous_run() {
        let m = mem(8);
        let a = m.alloc_frames(NumaDomain(0), 3).unwrap(); // [0,3)
        let _b = m.alloc_frames(NumaDomain(0), 2).unwrap(); // [3,5)
        m.free_frames(a, 3).unwrap(); // free [0,3)
                                      // 3 + 3 free frames exist ([0,3) and [5,8)) but not 4 contiguous... wait,
                                      // [5,8) is 3 frames. Ask for 4 contiguous: must fail.
        let err = m.alloc_frames(NumaDomain(0), 4).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { frames: 4, .. }));
        // 3 contiguous still works.
        assert!(m.alloc_frames(NumaDomain(0), 3).is_ok());
    }

    #[test]
    fn free_coalesces_runs() {
        let m = mem(8);
        let a = m.alloc_frames(NumaDomain(0), 8).unwrap();
        m.free_frames(a, 4).unwrap();
        m.free_frames(a.add(4), 4).unwrap();
        // After coalescing we can allocate all 8 again.
        assert!(m.alloc_frames(NumaDomain(0), 8).is_ok());
    }

    #[test]
    fn double_free_fails() {
        let m = mem(4);
        let a = m.alloc_frame(NumaDomain(0)).unwrap();
        m.free_frames(a, 1).unwrap();
        assert_eq!(m.free_frames(a, 1).unwrap_err(), MemError::BadFree(a));
    }

    #[test]
    fn freed_frames_lose_contents() {
        let m = mem(4);
        let a = m.alloc_frame(NumaDomain(0)).unwrap();
        m.write(a.base(), b"secret").unwrap();
        m.free_frames(a, 1).unwrap();
        let b = m.alloc_frame(NumaDomain(0)).unwrap();
        assert_eq!(b, a, "allocator reuses the freed frame");
        // Reallocated frames are zeroed.
        assert_eq!(m.read_vec(b.base(), 6).unwrap(), vec![0u8; 6]);
    }

    #[test]
    fn numa_domains_are_disjoint() {
        let m = PhysMemory::new(NumaTopology::new(2, 2, 8));
        let a = m.alloc_frame(NumaDomain(0)).unwrap();
        let b = m.alloc_frame(NumaDomain(1)).unwrap();
        assert_eq!(m.topology().domain_of_pfn(a), NumaDomain(0));
        assert_eq!(m.topology().domain_of_pfn(b), NumaDomain(1));
    }

    #[test]
    fn stats_track_allocation() {
        let m = mem(8);
        let a = m.alloc_frames(NumaDomain(0), 4).unwrap();
        assert_eq!(m.stats().allocated_frames, 4);
        assert_eq!(m.stats().peak_frames, 4);
        m.free_frames(a, 4).unwrap();
        assert_eq!(m.stats().allocated_frames, 0);
        assert_eq!(m.stats().peak_frames, 4);
    }

    #[test]
    fn copy_moves_real_bytes() {
        let m = mem(8);
        let a = m.alloc_frames(NumaDomain(0), 2).unwrap();
        let b = m.alloc_frames(NumaDomain(0), 2).unwrap();
        let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        m.write(a.base(), &data).unwrap();
        m.copy(a.base(), b.base(), data.len()).unwrap();
        assert_eq!(m.read_vec(b.base(), data.len()).unwrap(), data);
        assert_eq!(m.stats().copied_bytes, 5000);
    }

    #[test]
    fn fill_works() {
        let m = mem(4);
        let a = m.alloc_frame(NumaDomain(0)).unwrap();
        m.fill(a.base().add(10), 0xee, 100).unwrap();
        assert_eq!(m.read_vec(a.base().add(10), 100).unwrap(), vec![0xee; 100]);
        assert_eq!(m.read_vec(a.base(), 10).unwrap(), vec![0u8; 10]);
    }

    #[test]
    fn bad_free_of_a_partial_run_frees_nothing() {
        let m = mem(8);
        let a = m.alloc_frames(NumaDomain(0), 4).unwrap();
        for i in 0..4 {
            m.write(a.add(i).base().add(7), &[i as u8 + 1; 9]).unwrap();
        }
        let third = a.add(2);
        m.free_frames(third, 1).unwrap();
        let before = m.stats();
        assert_eq!(m.free_frames(a, 4).unwrap_err(), MemError::BadFree(third));
        assert_eq!(m.stats(), before);
        for i in [0, 1, 3] {
            assert!(m.is_allocated(a.add(i)));
            assert_eq!(
                m.read_vec(a.add(i).base().add(7), 9).unwrap(),
                [i as u8 + 1; 9]
            );
        }
        assert!(!m.is_allocated(third));
    }

    /// The naive reference [`PhysMemory`] is checked against: whole pages
    /// in a `BTreeMap`, one byte at a time, no recycling, no fast paths.
    struct Model {
        total: u64,
        pages: std::collections::BTreeMap<u64, [u8; PAGE_SIZE]>,
        stats: MemStats,
    }

    impl Model {
        /// The page holding `addr`, or the error an access there gets.
        fn page(&mut self, addr: u64) -> Result<&mut [u8; PAGE_SIZE], MemError> {
            let pfn = addr >> crate::PAGE_SHIFT;
            if pfn >= self.total {
                return Err(MemError::OutOfBounds(PhysAddr(addr)));
            }
            self.pages
                .get_mut(&pfn)
                .ok_or(MemError::Unallocated(Pfn(pfn)))
        }

        fn byte(&mut self, addr: u64) -> Result<&mut u8, MemError> {
            Ok(&mut self.page(addr)?[addr as usize % PAGE_SIZE])
        }

        fn has_free_run(&self, n: u64) -> bool {
            let mut free = 0;
            (0..self.total).any(|p| {
                free = if self.pages.contains_key(&p) {
                    0
                } else {
                    free + 1
                };
                free >= n
            })
        }

        fn alloc(&mut self, pfn: u64, n: u64) {
            for p in pfn..pfn + n {
                assert!(p < self.total, "allocated frame {p} out of range");
                assert!(
                    self.pages.insert(p, [0; PAGE_SIZE]).is_none(),
                    "frame {p} handed out twice"
                );
            }
            self.stats.allocs += 1;
            self.stats.allocated_frames += n;
            self.stats.peak_frames = self.stats.peak_frames.max(self.stats.allocated_frames);
        }

        fn free(&mut self, pfn: u64, n: u64) -> Result<(), MemError> {
            if let Some(bad) = (pfn..pfn + n).find(|p| !self.pages.contains_key(p)) {
                return Err(MemError::BadFree(Pfn(bad)));
            }
            for p in pfn..pfn + n {
                self.pages.remove(&p);
            }
            self.stats.frees += 1;
            self.stats.allocated_frames -= n;
            Ok(())
        }

        fn read(&mut self, pa: u64, buf: &mut [u8]) -> Result<(), MemError> {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = *self.byte(pa + i as u64)?;
            }
            Ok(())
        }

        fn write(&mut self, pa: u64, data: &[u8]) -> Result<(), MemError> {
            for (i, b) in data.iter().enumerate() {
                *self.byte(pa + i as u64)? = *b;
            }
            Ok(())
        }

        fn equals(&mut self, pa: u64, data: &[u8]) -> Result<bool, MemError> {
            for (i, b) in data.iter().enumerate() {
                if *self.byte(pa + i as u64)? != *b {
                    return Ok(false);
                }
            }
            Ok(true)
        }

        /// Piece by piece like the real one (that is the documented
        /// overlap order), each piece staged through a temporary.
        fn copy(&mut self, src: u64, dst: u64, len: usize) -> Result<(), MemError> {
            let mut off = 0;
            while off < len {
                let (s, d) = (src + off as u64, dst + off as u64);
                let (si, di) = (s as usize % PAGE_SIZE, d as usize % PAGE_SIZE);
                let take = (PAGE_SIZE - si).min(PAGE_SIZE - di).min(len - off);
                for addr in [s, d] {
                    if addr >> crate::PAGE_SHIFT >= self.total {
                        return Err(MemError::OutOfBounds(PhysAddr(addr)));
                    }
                }
                let tmp = self.page(s)?[si..si + take].to_vec();
                self.page(d)?[di..di + take].copy_from_slice(&tmp);
                self.stats.copied_bytes += take as u64;
                off += take;
            }
            Ok(())
        }
    }

    #[test]
    fn random_operations_match_the_naive_model() {
        use simcore::SimRng;
        const FRAMES: u64 = 40;
        for seed in 0..6u64 {
            let mut rng = SimRng::seed(0x9e37_79b9 ^ seed);
            let real = mem(FRAMES);
            let mut model = Model {
                total: FRAMES,
                pages: Default::default(),
                stats: MemStats::default(),
            };
            // Addresses reach two frames past the end; a third of them sit
            // just below a frame boundary so ranges cross it.
            let addr = |rng: &mut SimRng| {
                let pfn = rng.below(FRAMES + 2);
                let at = if rng.chance(0.33) {
                    PAGE_SIZE as u64 - 1 - rng.below(64)
                } else {
                    rng.below(PAGE_SIZE as u64)
                };
                pfn * PAGE_SIZE as u64 + at
            };
            let length = |rng: &mut SimRng| match rng.below(4) {
                0 => rng.below(16) as usize,
                1 => rng.below(3 * PAGE_SIZE as u64) as usize,
                _ => rng.below(300) as usize,
            };
            for step in 0..4000 {
                match rng.below(10) {
                    0 | 1 => {
                        let n = rng.range(1, 6);
                        match real.alloc_frames(NumaDomain(0), n) {
                            Ok(pfn) => {
                                model.alloc(pfn.0, n);
                                // Recycled or fresh, frames start zeroed.
                                let got = real.read_vec(pfn.base(), n as usize * PAGE_SIZE);
                                assert_eq!(got.unwrap(), vec![0; n as usize * PAGE_SIZE]);
                            }
                            Err(e) => {
                                let domain = NumaDomain(0);
                                assert_eq!(e, MemError::OutOfMemory { domain, frames: n });
                                assert!(!model.has_free_run(n), "spurious OOM for {n}");
                            }
                        }
                    }
                    2 | 3 => {
                        let (pfn, n) = (rng.below(FRAMES + 1), rng.range(1, 5));
                        assert_eq!(real.free_frames(Pfn(pfn), n), model.free(pfn, n));
                    }
                    4 => {
                        let (pa, len) = (addr(&mut rng), length(&mut rng));
                        // Pre-filled alike, so a failed read's untouched
                        // tail compares equal too.
                        let (mut a, mut b) = (vec![0xa5; len], vec![0xa5; len]);
                        assert_eq!(real.read(PhysAddr(pa), &mut a), model.read(pa, &mut b));
                        assert_eq!(a, b);
                    }
                    5 | 6 => {
                        let (pa, len) = (addr(&mut rng), length(&mut rng));
                        let data = rng.bytes(len);
                        assert_eq!(real.write(PhysAddr(pa), &data), model.write(pa, &data));
                    }
                    7 => {
                        // Half the time compare against what is there.
                        let (pa, len) = (addr(&mut rng), length(&mut rng));
                        let mut data = rng.bytes(len);
                        if rng.chance(0.5) {
                            let _ = model.read(pa, &mut data);
                        }
                        assert_eq!(real.equals(PhysAddr(pa), &data), model.equals(pa, &data));
                    }
                    8 => {
                        // A quarter of the copies overlap their source.
                        let (src, len) = (addr(&mut rng), length(&mut rng));
                        let dst = if rng.chance(0.25) {
                            (src + rng.below(128)).saturating_sub(64)
                        } else {
                            addr(&mut rng)
                        };
                        assert_eq!(
                            real.copy(PhysAddr(src), PhysAddr(dst), len),
                            model.copy(src, dst, len)
                        );
                    }
                    _ => {
                        let (pa, len, byte) = (addr(&mut rng), length(&mut rng), step as u8);
                        assert_eq!(
                            real.fill(PhysAddr(pa), byte, len),
                            model.write(pa, &vec![byte; len])
                        );
                    }
                }
                assert_eq!(real.stats(), model.stats, "seed {seed} step {step}");
                if step % 50 == 49 {
                    for p in 0..FRAMES + 2 {
                        match model.pages.get(&p) {
                            Some(page) => {
                                assert!(real.equals(Pfn(p).base(), page).unwrap(), "frame {p}")
                            }
                            None => assert!(!real.is_allocated(Pfn(p)), "frame {p}"),
                        }
                    }
                }
            }
        }
    }
}
