//! Shadow-buffer metadata: per-NUMA-domain slot arrays (§5.3).
//!
//! Each NUMA domain keeps one metadata array per size class. A slot is
//! addressed by the index encoded in the shadow buffer's IOVA, giving
//! O(1) `find_shadow`. Free slots double as free-list nodes: their `next`
//! field links them (Figure 2). Metadata is not IOMMU-mapped — the device
//! can never touch it. An array is allocated in 256-slot chunks, each
//! created the first time one of its indices is handed out, up to
//! `MAX_BUFFERS_PER_CLASS` slots: a run that uses a few dozen buffers pays
//! for one chunk, not for the §6 bound.

// lint: allow(panic) — a slot is read only at an index `reserve` handed out, whose chunk exists; any other read is a pool bug

use memsim::PhysAddr;
use simcore::sync::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Sentinel for "no slot" in `next` links and for unset fields.
pub(crate) const NIL: u64 = u64::MAX;

/// One shadow buffer's metadata.
///
/// All fields are atomics so the pool can be used from real threads; the
/// access protocol (a slot is owned either by a free list or by exactly one
/// live mapping) keeps plain load/store ordering sufficient, with
/// acquire/release on the free-list `next` link.
#[derive(Debug)]
pub(crate) struct Slot {
    /// Physical base address of the shadow buffer; `NIL` until the slot is
    /// assigned a buffer (or after reclaim retires it).
    pub shadow_pa: AtomicU64,
    /// While acquired: the associated OS buffer's physical address.
    pub os_pa: AtomicU64,
    /// While acquired: the associated OS buffer's length in bytes.
    pub os_len: AtomicU64,
    /// While free: the next slot index in the owner free list.
    pub next: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            shadow_pa: AtomicU64::new(NIL),
            os_pa: AtomicU64::new(NIL),
            os_len: AtomicU64::new(0),
            next: AtomicU64::new(NIL),
        }
    }

    /// The shadow buffer's base address.
    ///
    /// # Panics
    ///
    /// Panics if the slot has no buffer assigned.
    pub fn shadow_base(&self) -> PhysAddr {
        let v = self.shadow_pa.load(Ordering::Acquire);
        assert_ne!(v, NIL, "slot has no shadow buffer");
        PhysAddr(v)
    }

    /// Records the OS buffer association (at acquire).
    pub fn associate(&self, os_pa: PhysAddr, len: usize) {
        self.os_pa.store(os_pa.get(), Ordering::Release);
        self.os_len.store(len as u64, Ordering::Release);
    }

    /// Reads the OS buffer association, if any.
    pub fn association(&self) -> Option<(PhysAddr, usize)> {
        let pa = self.os_pa.load(Ordering::Acquire);
        if pa == NIL {
            return None;
        }
        Some((PhysAddr(pa), self.os_len.load(Ordering::Acquire) as usize))
    }

    /// Clears the OS buffer association (at release).
    pub fn disassociate(&self) {
        self.os_pa.store(NIL, Ordering::Release);
        self.os_len.store(0, Ordering::Release);
    }
}

/// The metadata array for one (NUMA domain, size class) pair, allocated
/// in chunks of [`CHUNK`] slots as it is used, up to its capacity.
///
/// Slots are handed out by a lock-protected next-unused index (allocation
/// is infrequent — paper footnote 5); retired slots (from memory-pressure
/// reclaim) are recycled before fresh ones. Every path that hands out an
/// index creates that index's chunk under the same lock, and an index
/// reaches a reader only after it was handed out — through that lock or
/// through the free lists' Release/Acquire `next` links — so a reader
/// finds its chunk with one acquire load and never creates one.
#[derive(Debug)]
pub(crate) struct MetadataArray {
    /// One entry per [`CHUNK`] indices; the last chunk may be shorter.
    chunks: Box<[OnceLock<Box<[Slot]>>]>,
    capacity: u64,
    alloc: Mutex<AllocState>,
}

/// Slots per metadata chunk: 256 × 32 B = 8 KiB.
const CHUNK: u64 = 256;

#[derive(Debug)]
struct AllocState {
    next_unused: u64,
    retired: Vec<u64>,
}

impl MetadataArray {
    /// Creates an array of `capacity` slots; no chunk exists yet.
    pub fn new(capacity: u64) -> Self {
        MetadataArray {
            chunks: (0..capacity.div_ceil(CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
            capacity,
            alloc: Mutex::new(AllocState {
                next_unused: 0,
                retired: Vec::new(),
            }),
        }
    }

    /// Number of slots handed out and not retired.
    #[cfg(test)]
    pub fn used(&self) -> u64 {
        let a = self.alloc.lock();
        a.next_unused - a.retired.len() as u64
    }

    /// Number of chunks created so far.
    #[cfg(test)]
    pub fn chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.get().is_some()).count()
    }

    /// Creates the chunks holding `indices` that do not exist yet. Called
    /// under `alloc` before any of `indices` is handed out.
    fn create_chunks(&self, indices: Range<u64>) {
        for c in indices.start / CHUNK..indices.end.div_ceil(CHUNK) {
            self.chunks[c as usize].get_or_init(|| {
                let len = CHUNK.min(self.capacity - c * CHUNK);
                (0..len).map(|_| Slot::new()).collect()
            });
        }
    }

    /// The slot at `index`, or `None` past the capacity or in a chunk
    /// that does not exist yet (an index never handed out).
    pub fn get(&self, index: u64) -> Option<&Slot> {
        let chunk = self.chunks.get((index / CHUNK) as usize)?.get()?;
        chunk.get((index % CHUNK) as usize)
    }

    /// The slot at `index`, which `reserve` or `reserve_aligned_run`
    /// handed out.
    ///
    /// # Panics
    ///
    /// Panics if `index` was never handed out and its chunk does not exist.
    pub fn slot(&self, index: u64) -> &Slot {
        self.get(index)
            .expect("slot index was handed out, so its chunk exists")
    }

    /// Reserves one unused slot, preferring retired ones. Returns `None`
    /// when the array is exhausted (the caller falls back to the external
    /// hash-table path, §5.3).
    pub fn reserve(&self) -> Option<u64> {
        let mut a = self.alloc.lock();
        let idx = match a.retired.pop() {
            Some(idx) => idx,
            None if a.next_unused < self.capacity => {
                a.next_unused += 1;
                a.next_unused - 1
            }
            None => return None,
        };
        // A retired index skipped by an aligned run may lie in a chunk
        // that was never created.
        self.create_chunks(idx..idx + 1);
        Some(idx)
    }

    /// Reserves `n` consecutive slots with the first index aligned to `n`
    /// (`n` must be a power of two). Used when splitting one page into
    /// several sub-page shadow buffers so that all of them share one IOVA
    /// page. Never draws from the retired list (retired indices are
    /// singletons).
    pub fn reserve_aligned_run(&self, n: u64) -> Option<u64> {
        assert!(n.is_power_of_two());
        let mut a = self.alloc.lock();
        let start = a.next_unused.next_multiple_of(n);
        if start + n > self.capacity {
            return None;
        }
        // Indices skipped by alignment become retirable singles; `reserve`
        // creates their chunk when it hands one out.
        for i in a.next_unused..start {
            a.retired.push(i);
        }
        a.next_unused = start + n;
        self.create_chunks(start..start + n);
        Some(start)
    }

    /// Returns a slot to the allocator after its buffer was reclaimed.
    pub fn retire(&self, index: u64) {
        let slot = self.slot(index);
        slot.shadow_pa.store(NIL, Ordering::Release);
        slot.disassociate();
        self.alloc.lock().retired.push(index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_monotone_then_exhausts() {
        let a = MetadataArray::new(3);
        assert_eq!(a.reserve(), Some(0));
        assert_eq!(a.reserve(), Some(1));
        assert_eq!(a.reserve(), Some(2));
        assert_eq!(a.reserve(), None);
        assert_eq!(a.used(), 3);
    }

    #[test]
    fn retired_slots_are_recycled_first() {
        let a = MetadataArray::new(4);
        let i = a.reserve().unwrap();
        a.slot(i).shadow_pa.store(0x1000, Ordering::Release);
        a.retire(i);
        assert_eq!(a.used(), 0);
        assert_eq!(a.reserve(), Some(i), "retired slot reused");
        // Retirement cleared the stale buffer pointer.
        assert_eq!(a.slot(i).shadow_pa.load(Ordering::Acquire), NIL);
    }

    #[test]
    fn association_roundtrip() {
        let a = MetadataArray::new(1);
        let s = a.slot(a.reserve().unwrap());
        assert_eq!(s.association(), None);
        s.associate(PhysAddr(0x42000), 1500);
        assert_eq!(s.association(), Some((PhysAddr(0x42000), 1500)));
        s.disassociate();
        assert_eq!(s.association(), None);
    }

    #[test]
    fn aligned_run_is_aligned() {
        let a = MetadataArray::new(32);
        assert_eq!(a.reserve(), Some(0)); // next_unused = 1
        let run = a.reserve_aligned_run(4).unwrap();
        assert_eq!(run % 4, 0);
        assert_eq!(run, 4, "skips to the next aligned index");
        // Skipped indices 1..4 are retirable and get recycled.
        assert_eq!(a.reserve(), Some(3));
        assert_eq!(a.reserve(), Some(2));
        assert_eq!(a.reserve(), Some(1));
        assert_eq!(a.reserve(), Some(8));
    }

    #[test]
    fn aligned_run_exhaustion() {
        let a = MetadataArray::new(7);
        assert_eq!(a.reserve_aligned_run(4), Some(0));
        assert_eq!(a.reserve_aligned_run(4), None, "4..8 exceeds capacity 7");
    }

    #[test]
    #[should_panic(expected = "no shadow buffer")]
    fn shadow_base_requires_assignment() {
        let a = MetadataArray::new(1);
        a.slot(a.reserve().unwrap()).shadow_base();
    }

    #[test]
    fn a_new_array_holds_no_chunk() {
        let a = MetadataArray::new(16 * 1024);
        assert_eq!(a.chunks(), 0);
        assert!(a.get(0).is_none(), "no slot before its index is handed out");
    }

    #[test]
    fn reserving_across_a_chunk_boundary_creates_one_chunk() {
        let a = MetadataArray::new(3 * CHUNK);
        for i in 0..CHUNK {
            assert_eq!(a.reserve(), Some(i));
        }
        assert_eq!(a.chunks(), 1);
        assert!(a.get(CHUNK).is_none());
        assert_eq!(a.reserve(), Some(CHUNK));
        assert_eq!(a.chunks(), 2, "the 257th slot creates exactly one more");
        assert!(a.get(CHUNK).is_some());
        assert!(a.get(2 * CHUNK).is_none());
    }

    #[test]
    fn get_is_none_past_the_capacity() {
        let a = MetadataArray::new(CHUNK + 3);
        while a.reserve().is_some() {}
        assert_eq!(a.chunks(), 2);
        assert!(a.get(CHUNK + 2).is_some());
        assert!(a.get(CHUNK + 3).is_none(), "the last chunk is short");
        assert!(a.get(u64::MAX).is_none());
    }

    #[test]
    fn indices_skipped_into_a_new_chunk_are_usable_when_recycled() {
        let a = MetadataArray::new(4 * CHUNK);
        assert_eq!(a.reserve(), Some(0));
        // Aligned to 2 * CHUNK: indices 1..512 are skipped, and 256..512
        // lie in a chunk no index of which was handed out.
        assert_eq!(a.reserve_aligned_run(2 * CHUNK), Some(2 * CHUNK));
        assert_eq!(a.chunks(), 3, "chunks 0, 2 and 3");
        let mut recycled = 0;
        while let Some(i) = a.reserve() {
            let s = a.slot(i);
            s.associate(PhysAddr(0x1000 * i), 64);
            assert_eq!(s.association(), Some((PhysAddr(0x1000 * i), 64)));
            recycled += 1;
        }
        assert_eq!(recycled, 2 * CHUNK - 1);
        assert_eq!(a.chunks(), 4);
    }
}
