//! A `kmalloc`-style slab allocator over [`PhysMemory`].
//!
//! Like the kernel's slab allocator \[13\], small allocations of the same
//! size class are packed together onto shared pages. Consequently a DMA
//! buffer allocated with `kmalloc` can share its page with unrelated
//! kernel data — the root cause of the paper's "no sub-page protection"
//! weakness (§4): mapping that page in the IOMMU exposes the co-located
//! data to the device.

// lint: allow(panic) — slab metadata invariants are allocator bugs, not runtime errors

use crate::{MemError, NumaDomain, Pfn, PhysAddr, PhysMemory, PAGE_SIZE};
use simcore::FxHashMap;
use std::cell::RefCell;
use std::sync::Arc;

/// kmalloc size classes (bytes). Requests are rounded up to a class;
/// larger requests fall back to whole pages.
const CLASSES: [usize; 8] = [32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Empty slab pages retained per (domain, class) before spilling back to
/// [`PhysMemory`] — like SLUB's per-cpu partial lists. One-skb-in-flight
/// workloads otherwise bounce a page through the frame allocator (free,
/// re-alloc, re-zero) on every single packet.
const EMPTY_CACHE_PAGES: usize = 8;

/// Allocation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KmallocStats {
    /// Live allocations.
    pub live: u64,
    /// Total bytes requested by live allocations.
    pub live_bytes: u64,
    /// Pages currently owned by slabs or large allocations.
    pub pages: u64,
    /// Empty slab pages retained for reuse (not counted in `pages`).
    pub cached_pages: u64,
    /// Total alloc calls.
    pub allocs: u64,
    /// Total free calls.
    pub frees: u64,
}

#[derive(Debug)]
struct Slab {
    domain: NumaDomain,
    class: usize, // index into CLASSES
    /// Bitmask of free slots (bit `i` set = slot `i` free). The largest
    /// class count is 4096/32 = 128 slots, exactly a `u128` — no heap
    /// allocation per slab page.
    free_slots: u128,
    used: u16,
}

#[derive(Debug, Clone, Copy)]
enum AllocKind {
    Slab { class: usize },
    Pages { n: u64 },
}

#[derive(Debug, Clone, Copy)]
struct AllocInfo {
    size: usize,
    kind: AllocKind,
}

#[derive(Debug, Default)]
struct Inner {
    /// Slab state by owning frame.
    slabs: FxHashMap<u64, Slab>,
    /// Frames with free slots, per (domain, class).
    partial: FxHashMap<(u16, usize), Vec<u64>>,
    /// Fully-empty slab pages retained per (domain, class), reused LIFO
    /// before asking [`PhysMemory`] for a fresh frame.
    empty: FxHashMap<(u16, usize), Vec<u64>>,
    /// Live allocations by address.
    live: FxHashMap<u64, AllocInfo>,
    stats: KmallocStats,
}

/// The slab allocator.
///
/// Single-threaded: its state sits in a `RefCell`, not behind a lock, so
/// an skb alloc/free takes no host lock. A simulated machine steps all its
/// cores on one host thread and owns its allocator, so nothing shares one
/// across threads (`Kmalloc` is `Send` but not `Sync`).
///
/// # Examples
///
/// ```
/// use memsim::{Kmalloc, NumaDomain, NumaTopology, PhysMemory};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(64)));
/// let km = Kmalloc::new(mem);
/// let a = km.alloc(100, NumaDomain(0))?;
/// let b = km.alloc(100, NumaDomain(0))?;
/// // Same size class ⇒ same page: the co-location behind the paper's
/// // "no sub-page protection" weakness (§4).
/// assert_eq!(a.pfn(), b.pfn());
/// km.free(a)?;
/// km.free(b)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Kmalloc {
    mem: Arc<PhysMemory>,
    inner: RefCell<Inner>,
}

impl Kmalloc {
    /// Creates an allocator over the given physical memory.
    pub fn new(mem: Arc<PhysMemory>) -> Self {
        Kmalloc {
            mem,
            inner: RefCell::new(Inner::default()),
        }
    }

    /// The underlying physical memory.
    pub fn mem(&self) -> &Arc<PhysMemory> {
        &self.mem
    }

    /// Allocates `size` bytes on `domain`.
    ///
    /// Small sizes are rounded to a slab class and may share a page with
    /// other allocations; sizes above 4 KB get dedicated whole pages.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn alloc(&self, size: usize, domain: NumaDomain) -> Result<PhysAddr, MemError> {
        assert!(size > 0, "kmalloc(0)");
        let mut inner = self.inner.borrow_mut();
        let pa = if let Some(class) = CLASSES.iter().position(|&c| c >= size) {
            self.alloc_slab_object(&mut inner, class, size, domain)?
        } else {
            let n = (size as u64).div_ceil(PAGE_SIZE as u64);
            let pfn = self.mem.alloc_frames(domain, n)?;
            inner.stats.pages += n;
            let pa = pfn.base();
            inner.live.insert(
                pa.get(),
                AllocInfo {
                    size,
                    kind: AllocKind::Pages { n },
                },
            );
            pa
        };
        inner.stats.allocs += 1;
        inner.stats.live += 1;
        inner.stats.live_bytes += size as u64;
        Ok(pa)
    }

    fn alloc_slab_object(
        &self,
        inner: &mut Inner,
        class: usize,
        size: usize,
        domain: NumaDomain,
    ) -> Result<PhysAddr, MemError> {
        let key = (domain.0, class);
        // One-skb-per-page workloads grow a fresh slab on nearly every
        // alloc, so the grow path builds the `Slab` in hand and inserts it
        // once (slot already taken) instead of insert-then-re-look-up.
        let (pfn, slot) = if let Some(&p) = inner.partial.get(&key).and_then(|v| v.last()) {
            let pfn = Pfn(p);
            let slab = inner.slabs.get_mut(&pfn.0).expect("partial slab exists");
            debug_assert!(slab.free_slots != 0, "partial slab has a slot");
            let slot = slab.free_slots.trailing_zeros() as u16;
            slab.free_slots &= slab.free_slots - 1;
            slab.used += 1;
            if slab.free_slots == 0 {
                let v = inner.partial.get_mut(&key).expect("key exists");
                v.retain(|&p| p != pfn.0);
            }
            (pfn, slot)
        } else {
            // Grow: a cached empty page if one exists (no frame-allocator
            // round trip, no re-zero), else a fresh frame; slot 0 is handed
            // out immediately.
            let pfn = if let Some(p) = inner.empty.get_mut(&key).and_then(Vec::pop) {
                inner.stats.cached_pages -= 1;
                Pfn(p)
            } else {
                self.mem.alloc_frame(domain)?
            };
            inner.stats.pages += 1;
            let slots = (PAGE_SIZE / CLASSES[class]) as u32;
            let free_slots = if slots == 128 {
                u128::MAX
            } else {
                (1u128 << slots) - 1
            };
            let slab = Slab {
                domain,
                class,
                free_slots: free_slots & !1,
                used: 1,
            };
            let still_partial = slab.free_slots != 0;
            inner.slabs.insert(pfn.0, slab);
            if still_partial {
                inner.partial.entry(key).or_default().push(pfn.0);
            }
            (pfn, 0)
        };
        let pa = pfn.base().add(slot as u64 * CLASSES[class] as u64);
        inner.live.insert(
            pa.get(),
            AllocInfo {
                size,
                kind: AllocKind::Slab { class },
            },
        );
        Ok(pa)
    }

    /// Frees the allocation at `pa`, returning its requested size.
    ///
    /// The freed bytes are poisoned with `0x6b` (like the kernel's SLAB
    /// poisoning) so use-after-free reads are detectable in tests and
    /// attack scenarios. A page whose last object is freed is retained on
    /// a small per-(domain, class) cache — like SLUB's per-cpu partial
    /// lists — and reused by the next allocation of that class; once the
    /// cache is full the page is returned to [`PhysMemory`], which zeroes
    /// frames on reallocation. [`Kmalloc::reap`] releases the cache.
    pub fn free(&self, pa: PhysAddr) -> Result<usize, MemError> {
        let mut inner = self.inner.borrow_mut();
        let info = inner
            .live
            .remove(&pa.get())
            .ok_or(MemError::BadFree(pa.pfn()))?;
        inner.stats.frees += 1;
        inner.stats.live -= 1;
        inner.stats.live_bytes -= info.size as u64;
        match info.kind {
            AllocKind::Pages { n } => {
                self.mem.free_frames(pa.pfn(), n)?;
                inner.stats.pages -= n;
            }
            AllocKind::Slab { class } => {
                let pfn = pa.pfn();
                // Remove-first: the one-skb-per-page hot path empties the
                // slab on this free, so taking the entry out now saves the
                // second hash lookup; a still-used slab is reinserted.
                let mut slab = inner.slabs.remove(&pfn.0).expect("slab exists for object");
                debug_assert_eq!(slab.class, class, "object freed into wrong class");
                let slot = (pa.page_offset() / CLASSES[class]) as u32;
                let was_full = slab.free_slots == 0;
                slab.free_slots |= 1u128 << slot;
                slab.used -= 1;
                let key = (slab.domain.0, class);
                if slab.used == 0 {
                    if let Some(v) = inner.partial.get_mut(&key) {
                        v.retain(|&p| p != pfn.0);
                    }
                    inner.stats.pages -= 1;
                    let cache = inner.empty.entry(key).or_default();
                    if cache.len() < EMPTY_CACHE_PAGES {
                        // Retain the empty page for the next alloc of this
                        // class. The page is reused *without* re-zeroing, so
                        // the freed slot must carry poison for use-after-free
                        // detection (every other slot already does, from its
                        // own free).
                        static POISON: [u8; 4096] = [0x6bu8; 4096];
                        self.mem.write(pa, &POISON[..CLASSES[class]])?;
                        cache.push(pfn.0);
                        inner.stats.cached_pages += 1;
                    } else {
                        // Cache full: back to PhysMemory, which zeroes
                        // frames on reallocation (no poison needed).
                        self.mem.free_frames(pfn, 1)?;
                    }
                } else {
                    inner.slabs.insert(pfn.0, slab);
                    // Poison the released slot (the page survives, so a
                    // use-after-free read must see 0x6b, not stale data).
                    static POISON: [u8; 4096] = [0x6bu8; 4096];
                    self.mem.write(pa, &POISON[..CLASSES[class]])?;
                    if was_full {
                        inner.partial.entry(key).or_default().push(pfn.0);
                    }
                }
            }
        }
        Ok(info.size)
    }

    /// Live allocations co-located on the same page as `pa`, excluding
    /// `pa` itself. Each entry is `(address, requested size)`.
    ///
    /// Used by the attack scenarios to find victim data sharing a page with
    /// a DMA buffer.
    pub fn neighbors_on_page(&self, pa: PhysAddr) -> Vec<(PhysAddr, usize)> {
        let inner = self.inner.borrow();
        let pfn = pa.pfn();
        let mut out: Vec<(PhysAddr, usize)> = inner
            .live
            .iter()
            .filter(|(&a, _)| PhysAddr(a).pfn() == pfn && a != pa.get())
            .map(|(&a, info)| (PhysAddr(a), info.size))
            .collect();
        out.sort_by_key(|(a, _)| a.get());
        out
    }

    /// The requested size of the live allocation at `pa`, if any.
    pub fn size_of(&self, pa: PhysAddr) -> Option<usize> {
        self.inner.borrow().live.get(&pa.get()).map(|i| i.size)
    }

    /// Releases all cached empty slab pages back to [`PhysMemory`],
    /// returning how many were freed — the slab-shrinker path, for
    /// memory-pressure scenarios and teardown hygiene.
    pub fn reap(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let pages: Vec<u64> = inner.empty.values_mut().flat_map(std::mem::take).collect();
        let n = pages.len() as u64;
        for p in pages {
            self.mem.free_frames(Pfn(p), 1).expect("reap cached page");
        }
        inner.stats.cached_pages -= n;
        n
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> KmallocStats {
        self.inner.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NumaTopology;

    fn km(frames: u64) -> Kmalloc {
        Kmalloc::new(Arc::new(PhysMemory::new(NumaTopology::tiny(frames))))
    }

    const D0: NumaDomain = NumaDomain(0);

    #[test]
    fn small_allocations_share_a_page() {
        let k = km(16);
        let a = k.alloc(100, D0).unwrap(); // class 128
        let b = k.alloc(128, D0).unwrap();
        assert_eq!(a.pfn(), b.pfn(), "same class objects pack onto one page");
        assert_ne!(a, b);
        // They are visible to each other via neighbors_on_page.
        let n = k.neighbors_on_page(a);
        assert_eq!(n, vec![(b, 128)]);
    }

    #[test]
    fn different_classes_use_different_pages() {
        let k = km(16);
        let a = k.alloc(100, D0).unwrap(); // class 128
        let b = k.alloc(1000, D0).unwrap(); // class 1024
        assert_ne!(a.pfn(), b.pfn());
    }

    #[test]
    fn objects_do_not_overlap() {
        let k = km(64);
        let mut addrs = Vec::new();
        for _ in 0..100 {
            addrs.push((k.alloc(64, D0).unwrap(), 64usize));
        }
        addrs.sort_by_key(|(a, _)| a.get());
        for w in addrs.windows(2) {
            assert!(w[0].0.get() + w[0].1 as u64 <= w[1].0.get(), "overlap");
        }
    }

    #[test]
    fn writes_to_one_object_do_not_clobber_neighbors() {
        let k = km(16);
        let a = k.alloc(64, D0).unwrap();
        let b = k.alloc(64, D0).unwrap();
        k.mem().write(b, &[7u8; 64]).unwrap();
        k.mem().write(a, &[9u8; 64]).unwrap();
        assert_eq!(k.mem().read_vec(b, 64).unwrap(), vec![7u8; 64]);
    }

    #[test]
    fn large_allocations_get_dedicated_pages() {
        let k = km(32);
        let a = k.alloc(10_000, D0).unwrap(); // 3 pages
        assert!(a.is_page_aligned());
        assert!(k.neighbors_on_page(a).is_empty());
        assert_eq!(k.size_of(a), Some(10_000));
        assert_eq!(k.free(a).unwrap(), 10_000);
    }

    #[test]
    fn free_returns_slot_for_reuse() {
        let k = km(4);
        let a = k.alloc(4096, D0).unwrap(); // class 4096: one object per page
        k.free(a).unwrap();
        let b = k.alloc(4096, D0).unwrap();
        // Frame freed and reallocated (possibly same one).
        assert_eq!(k.stats().live, 1);
        k.free(b).unwrap();
        assert_eq!(k.stats().live, 0);
        assert_eq!(k.stats().pages, 0);
    }

    #[test]
    fn freed_objects_are_poisoned() {
        let k = km(16);
        let a = k.alloc(64, D0).unwrap();
        let _b = k.alloc(64, D0).unwrap(); // keep slab alive
        k.mem().write(a, b"sensitive-data!!").unwrap();
        k.free(a).unwrap();
        // The slab page is still allocated; the freed slot is poisoned.
        assert_eq!(k.mem().read_vec(a, 4).unwrap(), vec![0x6b; 4]);
    }

    #[test]
    fn double_free_detected() {
        let k = km(16);
        let a = k.alloc(64, D0).unwrap();
        let _b = k.alloc(64, D0).unwrap();
        k.free(a).unwrap();
        assert!(matches!(k.free(a), Err(MemError::BadFree(_))));
    }

    #[test]
    fn empty_slab_page_is_cached_then_reaped() {
        let k = km(4);
        let a = k.alloc(2048, D0).unwrap();
        let b = k.alloc(2048, D0).unwrap();
        assert_eq!(a.pfn(), b.pfn());
        assert_eq!(k.stats().pages, 1);
        k.free(a).unwrap();
        assert_eq!(k.stats().pages, 1, "page kept while b lives");
        k.free(b).unwrap();
        assert_eq!(k.stats().pages, 0, "page leaves the slab when it empties");
        assert_eq!(k.stats().cached_pages, 1, "…onto the empty-page cache");
        assert!(
            k.mem().is_allocated(a.pfn()),
            "cached page still owns its frame"
        );
        assert_eq!(k.reap(), 1);
        assert_eq!(k.stats().cached_pages, 0);
        assert!(
            !k.mem().is_allocated(a.pfn()),
            "reap returns it to PhysMemory"
        );
    }

    #[test]
    fn cached_empty_page_is_reused_without_phys_round_trip() {
        let k = km(4);
        let a = k.alloc(2048, D0).unwrap();
        k.free(a).unwrap();
        assert_eq!(k.stats().cached_pages, 1);
        let b = k.alloc(2048, D0).unwrap();
        assert_eq!(b.pfn(), a.pfn(), "next alloc reuses the cached page");
        assert_eq!(k.stats().cached_pages, 0);
        k.free(b).unwrap();
    }

    #[test]
    fn emptied_page_slots_are_poisoned_on_the_cache() {
        let k = km(4);
        let a = k.alloc(2048, D0).unwrap();
        k.mem().write(a, b"sensitive-data!!").unwrap();
        k.free(a).unwrap();
        // The page sits on the empty cache with its frame still allocated;
        // a use-after-free read must see poison, not the old payload.
        assert_eq!(k.mem().read_vec(a, 4).unwrap(), vec![0x6b; 4]);
    }

    #[test]
    fn empty_cache_spills_to_phys_when_full() {
        let k = km(64);
        // Fill more than EMPTY_CACHE_PAGES single-object pages, then free
        // them all: the overflow must go back to PhysMemory.
        let n = EMPTY_CACHE_PAGES + 3;
        let addrs: Vec<_> = (0..n).map(|_| k.alloc(4096, D0).unwrap()).collect();
        for a in &addrs {
            k.free(*a).unwrap();
        }
        let st = k.stats();
        assert_eq!(st.pages, 0);
        assert_eq!(st.cached_pages, EMPTY_CACHE_PAGES as u64);
        let spilled = addrs
            .iter()
            .filter(|a| !k.mem().is_allocated(a.pfn()))
            .count();
        assert_eq!(spilled, 3, "overflow pages released to PhysMemory");
    }

    #[test]
    fn slab_refills_after_page_fills() {
        let k = km(64);
        // 4096/2048 = 2 slots per page; allocate 5 → 3 pages.
        let addrs: Vec<_> = (0..5).map(|_| k.alloc(2048, D0).unwrap()).collect();
        let pages: std::collections::HashSet<_> = addrs.iter().map(|a| a.pfn()).collect();
        assert_eq!(pages.len(), 3);
    }

    #[test]
    fn stats_track_bytes() {
        let k = km(16);
        let a = k.alloc(100, D0).unwrap();
        let b = k.alloc(200, D0).unwrap();
        assert_eq!(k.stats().live_bytes, 300);
        k.free(a).unwrap();
        k.free(b).unwrap();
        assert_eq!(k.stats().live_bytes, 0);
        assert_eq!(k.stats().allocs, 2);
        assert_eq!(k.stats().frees, 2);
    }

    #[test]
    #[should_panic(expected = "kmalloc(0)")]
    fn zero_alloc_panics() {
        let _ = km(4).alloc(0, D0);
    }
}
