//! The IOTLB: the IOMMU's translation cache.
//!
//! Modeled as a fixed-size **set-associative** array cache — the shape
//! real VT-d hardware uses — rather than a hash map: the IOVA page
//! number (mixed with the source-id) selects a set via a power-of-two
//! mask, and the full `(device, page)` key is the tag compared against
//! each way. Replacement is FIFO-within-set (oldest insertion stamp),
//! which degenerates to the previous global-FIFO policy whenever the
//! cache has a single set.

use crate::{DeviceId, IovaPage, PtEntry};

/// IOTLB hit/miss/invalidation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IotlbStats {
    /// Lookups that hit a cached translation.
    pub hits: u64,
    /// Lookups that missed and required a page walk.
    pub misses: u64,
    /// Page-selective invalidations executed.
    pub page_invalidations: u64,
    /// Global/domain flushes executed.
    pub global_invalidations: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
}

/// Preferred associativity: sets grow with capacity, ways stay small
/// enough that a set scan is a handful of comparisons in one cache line.
const MAX_WAYS: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Slot {
    dev: DeviceId,
    page: IovaPage,
    entry: PtEntry,
    /// Monotonic insertion stamp; the smallest stamp in a set is the
    /// FIFO victim.
    stamp: u64,
}

/// The IOMMU's translation cache, tagged by device (source-id).
///
/// The security-critical property modeled here: a cached entry remains
/// usable by the device **after the OS removes the page-table mapping**,
/// until the OS explicitly invalidates it. Deferred protection (§2.2.1)
/// leaves such entries live for up to 10 ms in Linux (longer in this
/// model on a list no unmap reaches: `dma_api::flush`), which is the
/// paper's "vulnerability window".
///
/// Capacity is finite with FIFO replacement within each set,
/// approximating the small on-chip structure; eviction order does not
/// affect correctness, only miss counts.
#[derive(Debug)]
pub struct Iotlb {
    /// Associativity (slots per set).
    ways: usize,
    /// Power-of-two set index mask (`sets - 1`).
    set_mask: u64,
    /// `sets × ways` slots, set-major.
    slots: Vec<Option<Slot>>,
    /// Monotonic insertion counter backing the FIFO stamps.
    tick: u64,
    /// Live entries across all sets.
    len: usize,
    stats: IotlbStats,
}

impl Iotlb {
    /// Creates an IOTLB with the given entry capacity.
    ///
    /// The capacity is realized as `sets × ways` with `sets` the largest
    /// power of two dividing `capacity` with `capacity / sets ≤ 8`; small
    /// or odd capacities fall back to a single fully-associative set, so
    /// every requested capacity is honored exactly.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "IOTLB needs capacity");
        let mut sets = (capacity / MAX_WAYS).max(1).next_power_of_two();
        if sets > capacity / MAX_WAYS && sets > 1 {
            sets /= 2; // round down so ways never drops below MAX_WAYS
        }
        while !capacity.is_multiple_of(sets) {
            sets /= 2; // odd capacities degrade toward full associativity
        }
        Iotlb {
            ways: capacity / sets,
            set_mask: (sets - 1) as u64,
            slots: vec![None; capacity],
            tick: 0,
            len: 0,
            stats: IotlbStats::default(),
        }
    }

    /// A plausible hardware size (4096 entries).
    pub fn default_hw() -> Self {
        Iotlb::new(4096)
    }

    /// Associativity (slots per set).
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets (always a power of two).
    pub fn sets(&self) -> usize {
        self.set_mask as usize + 1
    }

    /// Slot range of the set that caches `(dev, page)`: indexed by the
    /// low page-number bits, mixed with the source-id so distinct
    /// devices mapping the same IOVA don't pile into one set.
    fn set_range(&self, dev: DeviceId, page: IovaPage) -> std::ops::Range<usize> {
        let set = ((page.0 ^ u64::from(dev.0)) & self.set_mask) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// Looks up a cached translation, updating hit/miss statistics.
    pub fn lookup(&mut self, dev: DeviceId, page: IovaPage) -> Option<PtEntry> {
        let range = self.set_range(dev, page);
        for s in self.slots[range].iter().flatten() {
            if s.dev == dev && s.page == page {
                self.stats.hits += 1;
                return Some(s.entry);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Inserts a translation fetched by a page walk, evicting the set's
    /// FIFO-oldest entry if every way is taken.
    pub fn insert(&mut self, dev: DeviceId, page: IovaPage, entry: PtEntry) {
        let range = self.set_range(dev, page);
        let mut free: Option<usize> = None;
        let mut victim = range.start;
        let mut victim_stamp = u64::MAX;
        for i in range {
            match &mut self.slots[i] {
                Some(s) if s.dev == dev && s.page == page => {
                    // Refresh the translation in place; like the previous
                    // global-FIFO implementation, a re-insert keeps the
                    // entry's original replacement position.
                    s.entry = entry;
                    return;
                }
                Some(s) => {
                    if s.stamp < victim_stamp {
                        victim_stamp = s.stamp;
                        victim = i;
                    }
                }
                None => free = free.or(Some(i)),
            }
        }
        let target = match free {
            Some(i) => {
                self.len += 1;
                i
            }
            None => {
                self.stats.evictions += 1;
                victim
            }
        };
        self.tick += 1;
        self.slots[target] = Some(Slot {
            dev,
            page,
            entry,
            stamp: self.tick,
        });
    }

    /// Page-selective invalidation (one device, one IOVA page).
    pub fn invalidate_page(&mut self, dev: DeviceId, page: IovaPage) {
        for i in self.set_range(dev, page) {
            if matches!(&self.slots[i], Some(s) if s.dev == dev && s.page == page) {
                self.slots[i] = None;
                self.len -= 1;
                break;
            }
        }
        self.stats.page_invalidations += 1;
    }

    /// Invalidates every entry of one device (domain-selective flush).
    pub fn invalidate_device(&mut self, dev: DeviceId) {
        for slot in &mut self.slots {
            if matches!(slot, Some(s) if s.dev == dev) {
                *slot = None;
                self.len -= 1;
            }
        }
        self.stats.global_invalidations += 1;
    }

    /// Invalidates everything (global flush).
    pub fn invalidate_all(&mut self) {
        self.slots.fill(None);
        self.len = 0;
        self.stats.global_invalidations += 1;
    }

    /// Whether a translation is currently cached (no stats side effects);
    /// used by tests and attack scenarios to observe staleness.
    pub fn contains(&self, dev: DeviceId, page: IovaPage) -> bool {
        self.slots[self.set_range(dev, page)]
            .iter()
            .any(|slot| matches!(slot, Some(s) if s.dev == dev && s.page == page))
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> IotlbStats {
        self.stats
    }
}

/// The previous `HashMap` + global-FIFO implementation, kept as the
/// behavioral oracle for the property tests below.
#[cfg(test)]
mod oracle {
    use super::IotlbStats;
    use crate::{DeviceId, IovaPage, PtEntry};
    use std::collections::{HashMap, VecDeque};

    #[derive(Debug)]
    pub struct OracleIotlb {
        capacity: usize,
        entries: HashMap<(DeviceId, IovaPage), PtEntry>,
        fifo: VecDeque<(DeviceId, IovaPage)>,
        stats: IotlbStats,
    }

    impl OracleIotlb {
        pub fn new(capacity: usize) -> Self {
            assert!(capacity > 0, "IOTLB needs capacity");
            OracleIotlb {
                capacity,
                entries: HashMap::new(),
                fifo: VecDeque::new(),
                stats: IotlbStats::default(),
            }
        }

        pub fn lookup(&mut self, dev: DeviceId, page: IovaPage) -> Option<PtEntry> {
            match self.entries.get(&(dev, page)) {
                Some(e) => {
                    self.stats.hits += 1;
                    Some(*e)
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        pub fn insert(&mut self, dev: DeviceId, page: IovaPage, entry: PtEntry) {
            if self.entries.insert((dev, page), entry).is_none() {
                self.fifo.push_back((dev, page));
            }
            while self.entries.len() > self.capacity {
                if let Some(victim) = self.fifo.pop_front() {
                    if self.entries.remove(&victim).is_some() {
                        self.stats.evictions += 1;
                    }
                } else {
                    break;
                }
            }
        }

        pub fn invalidate_page(&mut self, dev: DeviceId, page: IovaPage) {
            self.entries.remove(&(dev, page));
            self.stats.page_invalidations += 1;
        }

        pub fn invalidate_device(&mut self, dev: DeviceId) {
            self.entries.retain(|&(d, _), _| d != dev);
            self.stats.global_invalidations += 1;
        }

        pub fn invalidate_all(&mut self) {
            self.entries.clear();
            self.fifo.clear();
            self.stats.global_invalidations += 1;
        }

        pub fn contains(&self, dev: DeviceId, page: IovaPage) -> bool {
            self.entries.contains_key(&(dev, page))
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn stats(&self) -> IotlbStats {
            self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::OracleIotlb;
    use super::*;
    use crate::Perms;
    use memsim::Pfn;
    use simcore::SimRng;

    const DEV: DeviceId = DeviceId(0);

    fn entry(pfn: u64) -> PtEntry {
        PtEntry {
            pfn: Pfn(pfn),
            perms: Perms::ReadWrite,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut tlb = Iotlb::new(8);
        assert_eq!(tlb.lookup(DEV, IovaPage(1)), None);
        tlb.insert(DEV, IovaPage(1), entry(5));
        assert_eq!(tlb.lookup(DEV, IovaPage(1)), Some(entry(5)));
        let s = tlb.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn entries_are_device_tagged() {
        let mut tlb = Iotlb::new(8);
        tlb.insert(DeviceId(0), IovaPage(1), entry(5));
        assert_eq!(tlb.lookup(DeviceId(1), IovaPage(1)), None);
    }

    #[test]
    fn page_invalidation_removes_only_that_page() {
        let mut tlb = Iotlb::new(8);
        tlb.insert(DEV, IovaPage(1), entry(5));
        tlb.insert(DEV, IovaPage(2), entry(6));
        tlb.invalidate_page(DEV, IovaPage(1));
        assert!(!tlb.contains(DEV, IovaPage(1)));
        assert!(tlb.contains(DEV, IovaPage(2)));
    }

    #[test]
    fn device_invalidation_scopes_to_device() {
        let mut tlb = Iotlb::new(8);
        tlb.insert(DeviceId(0), IovaPage(1), entry(5));
        tlb.insert(DeviceId(1), IovaPage(1), entry(6));
        tlb.invalidate_device(DeviceId(0));
        assert!(!tlb.contains(DeviceId(0), IovaPage(1)));
        assert!(tlb.contains(DeviceId(1), IovaPage(1)));
    }

    #[test]
    fn global_invalidation_clears_all() {
        let mut tlb = Iotlb::new(8);
        tlb.insert(DeviceId(0), IovaPage(1), entry(5));
        tlb.insert(DeviceId(1), IovaPage(2), entry(6));
        tlb.invalidate_all();
        assert!(tlb.is_empty());
    }

    #[test]
    fn capacity_evicts_fifo() {
        let mut tlb = Iotlb::new(2);
        tlb.insert(DEV, IovaPage(1), entry(1));
        tlb.insert(DEV, IovaPage(2), entry(2));
        tlb.insert(DEV, IovaPage(3), entry(3));
        assert_eq!(tlb.len(), 2);
        assert!(!tlb.contains(DEV, IovaPage(1)), "oldest evicted");
        assert!(tlb.contains(DEV, IovaPage(3)));
        assert_eq!(tlb.stats().evictions, 1);
    }

    #[test]
    fn reinsert_does_not_duplicate() {
        let mut tlb = Iotlb::new(4);
        tlb.insert(DEV, IovaPage(1), entry(1));
        tlb.insert(DEV, IovaPage(1), entry(2));
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.lookup(DEV, IovaPage(1)), Some(entry(2)));
    }

    #[test]
    fn staleness_is_observable() {
        // The core security property: the IOTLB does not know about
        // page-table changes; entries live until invalidated.
        let mut tlb = Iotlb::new(8);
        tlb.insert(DEV, IovaPage(7), entry(9));
        // (page table unmap happens elsewhere)
        assert!(tlb.contains(DEV, IovaPage(7)), "stale entry persists");
        tlb.invalidate_page(DEV, IovaPage(7));
        assert!(!tlb.contains(DEV, IovaPage(7)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        Iotlb::new(0);
    }

    #[test]
    fn hardware_shape_is_power_of_two_sets() {
        let tlb = Iotlb::default_hw();
        assert_eq!((tlb.sets(), tlb.ways()), (512, 8));
        assert_eq!(tlb.sets() * tlb.ways(), 4096);
        let small = Iotlb::new(2);
        assert_eq!((small.sets(), small.ways()), (1, 2));
        // Odd capacities degrade toward full associativity but stay exact.
        let odd = Iotlb::new(27);
        assert_eq!(odd.sets() * odd.ways(), 27);
    }

    // ------------------------------------------------------------------
    // Property tests against the previous HashMap implementation.
    // ------------------------------------------------------------------

    /// Workload keys drawn from a pool no larger than the associativity:
    /// neither implementation can ever evict, so every observable —
    /// lookup results, `contains`, `len`, the full stats struct — must
    /// match the oracle exactly, invalidations included.
    #[test]
    fn matches_oracle_below_eviction_pressure() {
        let mut rng = SimRng::seed(0x1071b);
        let capacity = 64; // shapes to 8 sets × 8 ways
        let mut tlb = Iotlb::new(capacity);
        let mut oracle = OracleIotlb::new(capacity);
        let keys: Vec<(DeviceId, IovaPage)> = (0..8)
            .map(|i| (DeviceId(i % 2), IovaPage(rng.below(1 << 36))))
            .collect();
        for step in 0..4_000 {
            let (dev, page) = keys[rng.below(keys.len() as u64) as usize];
            match rng.below(12) {
                0..=4 => {
                    let e = entry(rng.below(1 << 20));
                    tlb.insert(dev, page, e);
                    oracle.insert(dev, page, e);
                }
                5..=8 => {
                    assert_eq!(
                        tlb.lookup(dev, page),
                        oracle.lookup(dev, page),
                        "step {step}"
                    );
                }
                9 => {
                    tlb.invalidate_page(dev, page);
                    oracle.invalidate_page(dev, page);
                }
                10 => {
                    tlb.invalidate_device(dev);
                    oracle.invalidate_device(dev);
                }
                _ => {
                    tlb.invalidate_all();
                    oracle.invalidate_all();
                }
            }
            assert_eq!(
                tlb.contains(dev, page),
                oracle.contains(dev, page),
                "step {step}"
            );
            assert_eq!(tlb.len(), oracle.len(), "step {step}");
            assert_eq!(tlb.stats(), oracle.stats(), "step {step}");
        }
    }

    /// With a single set the new cache IS a global FIFO, so under pure
    /// insert/lookup pressure (the regime where replacement order shows)
    /// it must track the oracle exactly — evictions included.
    #[test]
    fn single_set_matches_oracle_under_eviction_pressure() {
        let mut rng = SimRng::seed(0xf1f0);
        let capacity = 4; // single fully-associative set
        let mut tlb = Iotlb::new(capacity);
        assert_eq!(tlb.sets(), 1);
        let mut oracle = OracleIotlb::new(capacity);
        for step in 0..8_000 {
            let dev = DeviceId(rng.below(2) as u16);
            let page = IovaPage(rng.below(16));
            if rng.chance(0.5) {
                let e = entry(rng.below(1 << 20));
                tlb.insert(dev, page, e);
                oracle.insert(dev, page, e);
            } else {
                assert_eq!(
                    tlb.lookup(dev, page),
                    oracle.lookup(dev, page),
                    "step {step}"
                );
            }
            assert_eq!(tlb.len(), oracle.len(), "step {step}");
            assert_eq!(tlb.stats(), oracle.stats(), "step {step}");
        }
    }

    /// Under arbitrary mixed workloads (set conflicts allowed, so miss
    /// counts may legally diverge from the global-FIFO oracle) the
    /// structural invariants still hold: capacity is never exceeded, an
    /// invalidated key never resurfaces, and a lookup after insert with
    /// no intervening invalidation/eviction returns the inserted entry.
    #[test]
    fn set_conflicts_preserve_invariants() {
        let mut rng = SimRng::seed(0xbeef);
        let capacity = 16; // 2 sets × 8 ways: real conflict pressure
        let mut tlb = Iotlb::new(capacity);
        for _ in 0..8_000 {
            let dev = DeviceId(rng.below(3) as u16);
            let page = IovaPage(rng.below(64));
            match rng.below(8) {
                0..=3 => {
                    tlb.insert(dev, page, entry(page.0));
                    assert_eq!(
                        tlb.lookup(dev, page),
                        Some(entry(page.0)),
                        "freshly inserted entry must be resident"
                    );
                }
                4..=5 => {
                    if let Some(e) = tlb.lookup(dev, page) {
                        assert_eq!(e, entry(page.0), "cached entry corrupted");
                    }
                }
                6 => {
                    tlb.invalidate_page(dev, page);
                    assert!(!tlb.contains(dev, page), "invalidated key resurfaced");
                }
                _ => {
                    tlb.invalidate_device(dev);
                    assert!(!tlb.contains(dev, page), "flushed device key resurfaced");
                }
            }
            assert!(tlb.len() <= capacity, "capacity exceeded");
        }
        let s = tlb.stats();
        assert!(s.evictions > 0, "workload must exercise replacement");
        assert!(s.hits > 0 && s.misses > 0);
    }
}
