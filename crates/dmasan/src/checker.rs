//! The DMA-API debug checker (modeled on Linux `CONFIG_DMA_API_DEBUG`).
//!
//! [`DmaSan`] keeps a registry of live streaming mappings and coherent
//! windows per device, fed by the [`dma_api::DmaObserver`] hooks on the
//! OS side and the [`dma_api::BusObserver`] hook on the device side. Every
//! check is byte-granular: a mapping covers exactly `[iova, iova+len)`,
//! so a device access to the padding of a sub-page shadow slot — bytes the
//! IOMMU page tables *do* permit — is still flagged (the paper's
//! byte-granularity claim, Table 1 "sub-page").
//!
//! The registry sits behind one mutex, which the device side takes only
//! for streaming accesses: descriptor-ring (coherent) verdicts are answered
//! from a per-thread copy of every coherent window, re-read under the lock
//! only after a ring alloc or free (`RingView`).

use dma_api::{BusObserver, CoherentBuffer, DmaDirection, DmaMapping, DmaObserver};
use iommu::DeviceId;
use obs::{Counter, EventKind, Obs};
use simcore::sync::Mutex;
use simcore::FxHashMap;
use simcore::{CoreCtx, Cycles};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};

/// The six dma-debug rule classes the checker enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// A second live mapping overlaps the same OS buffer bytes.
    DoubleMap,
    /// `dma_unmap` of an IOVA with no live mapping.
    DoubleUnmap,
    /// `dma_unmap` with a size or direction differing from the map.
    UnmapMismatch,
    /// Device access to an unmapped (stale or never-mapped) IOVA that
    /// the hardware nevertheless permitted.
    StaleAccess,
    /// Device access beyond a live mapping's byte-granular window.
    OobAccess,
    /// A mapping still live at teardown.
    Leak,
}

impl ViolationKind {
    /// Stable rule name used in `SanitizerViolation` events.
    pub fn rule(self) -> &'static str {
        match self {
            ViolationKind::DoubleMap => "double_map",
            ViolationKind::DoubleUnmap => "double_unmap",
            ViolationKind::UnmapMismatch => "unmap_mismatch",
            ViolationKind::StaleAccess => "stale_access",
            ViolationKind::OobAccess => "oob_access",
            ViolationKind::Leak => "leak",
        }
    }
}

/// One recorded violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub kind: ViolationKind,
    /// The device whose mapping state the violation concerns.
    pub dev: DeviceId,
    /// The IOVA at the center of the violation.
    pub iova: u64,
    /// Human-readable description.
    pub detail: String,
    /// Trace `seq` of the originating `DmaMap` (or `DmaUnmap` for stale
    /// accesses), so a report can find that event in the `obs` trace.
    pub cause: Option<u64>,
}

/// How the sanitizer classifies one device access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessVerdict {
    /// Covered by a live mapping or coherent window — legitimate DMA.
    Permitted,
    /// The IOMMU refused the access (the hardware did its job).
    BlockedByIommu,
    /// No IOMMU, and the target physical memory is unbacked.
    BlockedUnbacked,
    /// The hardware permitted an access the DMA-API contract forbids —
    /// exactly the silent corruption/theft the sanitizer exists to catch.
    SanitizerViolation(ViolationKind),
}

#[derive(Debug, Clone, Copy)]
struct LiveMapping {
    len: u64,
    dir: DmaDirection,
    os_pa: u64,
    map_seq: u64,
}

/// Recently retired mappings kept per device to tell a *stale* access
/// (use-after-unmap) apart from a wild one.
const RETIRED_CAP: usize = 4096;

/// A `u64`-keyed map as a sorted vec. A device rarely holds more than a
/// few dozen live mappings, and every bus access consults this registry —
/// at that size binary search over one contiguous array beats a BTreeMap
/// on each of the checker's hot operations (point get, floor lookup,
/// insert, remove).
#[derive(Debug)]
struct SortedMap<V> {
    entries: Vec<(u64, V)>,
}

impl<V> Default for SortedMap<V> {
    fn default() -> Self {
        SortedMap {
            entries: Vec::new(),
        }
    }
}

impl<V> SortedMap<V> {
    fn idx(&self, key: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Inserts `v` at `key`, returning any previous value (the BTreeMap
    /// replace semantics).
    fn insert(&mut self, key: u64, v: V) -> Option<V> {
        match self.idx(key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, v)),
            Err(i) => {
                self.entries.insert(i, (key, v));
                None
            }
        }
    }

    fn remove(&mut self, key: u64) -> Option<V> {
        self.idx(key).ok().map(|i| self.entries.remove(i).1)
    }

    fn get(&self, key: u64) -> Option<&V> {
        self.idx(key).ok().map(|i| &self.entries[i].1)
    }

    /// The last entry with key `<= key` — `range(..=key).next_back()`.
    fn at_or_before(&self, key: u64) -> Option<&(u64, V)> {
        let i = self.entries.partition_point(|&(k, _)| k <= key);
        i.checked_sub(1).map(|i| &self.entries[i])
    }

    /// The last entry with key `< key` — `range(..key).next_back()`.
    fn before(&self, key: u64) -> Option<&(u64, V)> {
        let i = self.entries.partition_point(|&(k, _)| k < key);
        i.checked_sub(1).map(|i| &self.entries[i])
    }

    fn iter(&self) -> impl Iterator<Item = &(u64, V)> {
        self.entries.iter()
    }
}

#[derive(Debug, Default)]
struct DevState {
    /// Live streaming mappings by IOVA start.
    live: SortedMap<LiveMapping>,
    /// Live OS-buffer ranges (`os_pa -> (len, iova)`) for double-map
    /// detection.
    os_live: SortedMap<(u64, u64)>,
    /// Coherent windows (descriptor rings) by IOVA start -> len.
    coherent: SortedMap<u64>,
    /// Recently unmapped `(iova, len, unmap_seq)`.
    retired: VecDeque<(u64, u64, u64)>,
}

impl DevState {
    /// The live mapping containing `addr`, if any.
    fn covering(&self, addr: u64) -> Option<(u64, &LiveMapping)> {
        self.live
            .at_or_before(addr)
            .filter(|(start, m)| addr < *start + m.len)
            .map(|(start, m)| (*start, m))
    }

    fn coherent_covering(&self, addr: u64) -> Option<(u64, u64)> {
        self.coherent
            .at_or_before(addr)
            .filter(|(start, len)| addr < *start + *len)
            .map(|&(s, l)| (s, l))
    }

    fn os_overlap(&self, pa: u64, len: u64) -> Option<(u64, u64, u64)> {
        self.os_live
            .before(pa + len)
            .filter(|(start, (l, _))| *start + l > pa)
            .map(|&(s, (l, iova))| (s, l, iova))
    }

    fn retire(&mut self, iova: u64, len: u64, seq: u64) {
        if self.retired.len() == RETIRED_CAP {
            self.retired.pop_front();
        }
        self.retired.push_back((iova, len, seq));
    }

    fn retired_covering(&self, addr: u64) -> Option<(u64, u64, u64)> {
        self.retired
            .iter()
            .rev()
            .find(|(iova, len, _)| *iova <= addr && addr < *iova + *len)
            .copied()
    }
}

#[derive(Debug, Default)]
struct Inner {
    devs: FxHashMap<u16, DevState>,
    violations: Vec<Violation>,
}

/// A host thread's copy of one checker's coherent windows (descriptor
/// rings), so ring verdicts take no lock.
///
/// A coherent verdict depends *only* on the coherent set — it is checked
/// before the streaming mappings, so map and unmap churn cannot change it
/// — and that set changes only at ring alloc/free, which bump the
/// checker's `coherent_gen` under its lock. A copy tagged with the
/// checker's id and the generation it was taken at is exact until the
/// next bump, however many rings the device alternates between (RX and TX
/// on one core, or 16 cores' rings).
#[derive(Debug)]
struct RingView {
    /// [`DmaSan::id`] of the checker copied (0: none yet).
    san: u64,
    /// Its `coherent_gen` when copied.
    gen: u64,
    /// Every page of every coherent window, `(dev, page) -> (start, end)`.
    /// A coherent buffer starts on a page and owns its pages whole, so a
    /// page belongs to at most one window.
    pages: FxHashMap<(u16, u64), (u64, u64)>,
}

impl RingView {
    /// Copies every coherent window of `inner`.
    fn fill(&mut self, inner: &Inner) {
        self.pages.clear();
        for (&dev, st) in &inner.devs {
            for &(start, len) in st.coherent.iter() {
                assert_eq!(
                    start % PAGE,
                    0,
                    "coherent window {start:#x} is not page-aligned"
                );
                for page in start / PAGE..(start + len).div_ceil(PAGE) {
                    let shared = self.pages.insert((dev, page), (start, start + len));
                    assert!(shared.is_none(), "coherent windows share page {page:#x}");
                }
            }
        }
    }

    /// The window of `dev` containing `addr`, as `(start, end)`.
    fn covering(&self, dev: u16, addr: u64) -> Option<(u64, u64)> {
        let &(start, end) = self.pages.get(&(dev, addr / PAGE))?;
        (addr < end).then_some((start, end))
    }
}

const PAGE: u64 = memsim::PAGE_SIZE as u64;

thread_local! {
    static RING_VIEW: RefCell<RingView> = const {
        RefCell::new(RingView {
            san: 0,
            gen: 0,
            pages: FxHashMap::with_hasher(BuildHasherDefault::new()),
        })
    };
}

/// Source of [`DmaSan::id`]s (0 is never handed out).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The DMA-API sanitizer.
///
/// Wire it into a stack with [`dma_api::TracedDma::new`] (the OS side)
/// and [`dma_api::Bus::observed`] (the device side); at the end of a run
/// call [`DmaSan::check_teardown`].
///
/// There is one mode per purpose: [`DmaSan::new`] panics on the first
/// violation with its detail string, so every run of a stack is also a
/// sanitizer run; tests that deliberately provoke violations construct
/// the checker with [`DmaSan::lenient`], which only records them.
#[derive(Debug)]
pub struct DmaSan {
    obs: Obs,
    inner: Mutex<Inner>,
    strict: bool,
    violations_total: Counter,
    /// Tells this checker's [`RingView`]s from another's on one thread.
    id: u64,
    /// Bumped (under `inner`) on every coherent alloc/free; a
    /// [`RingView`] of an older generation is stale.
    coherent_gen: AtomicU64,
}

impl DmaSan {
    /// A checker that panics on the first violation.
    pub fn new(obs: Obs) -> Self {
        Self::build(obs, true)
    }

    /// A checker that only records violations, never panics — for tests
    /// that deliberately provoke them.
    pub fn lenient(obs: Obs) -> Self {
        Self::build(obs, false)
    }

    fn build(obs: Obs, strict: bool) -> Self {
        DmaSan {
            violations_total: obs.counter("dmasan", "violations", None),
            inner: Mutex::new(Inner::default()),
            strict,
            obs,
            id: NEXT_ID.fetch_add(1, Ordering::AcqRel),
            coherent_gen: AtomicU64::new(0),
        }
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.lock().violations.clone()
    }

    /// Total violations recorded (also the `dmasan.violations` counter).
    pub fn violation_count(&self) -> u64 {
        self.violations_total.get()
    }

    /// Violations of one rule class.
    pub fn count_of(&self, kind: ViolationKind) -> usize {
        self.inner
            .lock()
            .violations
            .iter()
            .filter(|v| v.kind == kind)
            .count()
    }

    /// Live streaming mappings across all devices: `(dev, iova, len)`.
    /// Non-empty at the end of a run means leaked mappings.
    pub fn live_mappings(&self) -> Vec<(DeviceId, u64, u64)> {
        let inner = self.inner.lock();
        let mut out = Vec::new();
        for (dev, st) in &inner.devs {
            for (iova, m) in st.live.iter() {
                out.push((DeviceId(*dev), *iova, m.len));
            }
        }
        out.sort_unstable();
        out
    }

    /// Records a `Leak` violation for every still-live streaming mapping
    /// and every still-allocated coherent window; returns how many fired.
    /// Call after the stack has torn down (rings freed, deferred flushes
    /// drained).
    pub fn check_teardown(&self) -> usize {
        let leaks: Vec<(DeviceId, u64, u64, Option<u64>, &'static str)> = {
            let inner = self.inner.lock();
            let mut out = Vec::new();
            for (dev, st) in &inner.devs {
                for (iova, m) in st.live.iter() {
                    out.push((
                        DeviceId(*dev),
                        *iova,
                        m.len,
                        Some(m.map_seq),
                        "streaming mapping",
                    ));
                }
                for (iova, len) in st.coherent.iter() {
                    out.push((DeviceId(*dev), *iova, *len, None, "coherent buffer"));
                }
            }
            out
        };
        let n = leaks.len();
        for (dev, iova, len, cause, what) in leaks {
            self.report(
                ViolationKind::Leak,
                dev,
                iova,
                format!("{what} of {len} B at iova {iova:#x} still live at teardown"),
                cause,
                self.obs.now_hint(),
                0,
            );
        }
        n
    }

    /// Classifies a device access without recording anything — the
    /// verdict API attack scenarios assert on. `granted` is the hardware
    /// outcome (IOMMU / memory backing) the caller observed.
    ///
    /// Ring accesses are answered from this thread's `RingView` without
    /// a lock once it is current; only streaming accesses (and the first
    /// verdict after a ring alloc/free) take the checker's lock.
    pub fn verdict(&self, dev: DeviceId, addr: u64, len: usize, granted: bool) -> AccessVerdict {
        if !granted {
            return AccessVerdict::BlockedByIommu;
        }
        let end = addr + len.max(1) as u64;
        let within = |window_end: u64| {
            if end <= window_end {
                AccessVerdict::Permitted
            } else {
                AccessVerdict::SanitizerViolation(ViolationKind::OobAccess)
            }
        };
        let gen = self.coherent_gen.load(Ordering::Acquire);
        let mut held = None;
        let ring = RING_VIEW.with(|view| {
            let mut view = view.borrow_mut();
            if (view.san, view.gen) != (self.id, gen) {
                let inner = held.insert(self.inner.lock());
                view.san = self.id;
                // Bumps happen under the lock, so this is the generation
                // of the windows copied below.
                view.gen = self.coherent_gen.load(Ordering::Acquire);
                view.fill(inner);
            }
            view.covering(dev.0, addr)
        });
        if let Some((_, window_end)) = ring {
            return within(window_end);
        }
        let inner = held.unwrap_or_else(|| self.inner.lock());
        match inner.devs.get(&dev.0).and_then(|st| st.covering(addr)) {
            Some((start, m)) => within(start + m.len),
            None => AccessVerdict::SanitizerViolation(ViolationKind::StaleAccess),
        }
    }

    /// Records one violation: a `SanitizerViolation` trace event, the
    /// registry counter, the in-memory report (linked to `cause`) — and,
    /// in strict mode, a panic.
    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        kind: ViolationKind,
        dev: DeviceId,
        iova: u64,
        detail: String,
        cause: Option<u64>,
        at: Cycles,
        core: u16,
    ) {
        let event = EventKind::SanitizerViolation {
            rule: kind.rule().into(),
            iova,
            detail: detail.clone().into(),
        };
        self.obs.trace(at, core, Some(dev.0), event);
        self.violations_total.inc();
        self.inner.lock().violations.push(Violation {
            kind,
            dev,
            iova,
            detail: detail.clone(),
            cause,
        });
        if self.strict {
            panic!("dmasan[{}]: {detail}", kind.rule());
        }
    }
}

impl DmaObserver for DmaSan {
    fn on_map(&self, ctx: &CoreCtx, dev: DeviceId, m: &DmaMapping, map_seq: u64) {
        let (iova, len, os_pa) = (m.iova.get(), m.buf().len as u64, m.buf().pa.get());
        let dup = {
            let mut inner = self.inner.lock();
            let st = inner.devs.entry(dev.0).or_default();
            let dup = st.os_overlap(os_pa, len);
            st.live.insert(
                iova,
                LiveMapping {
                    len,
                    dir: m.dir(),
                    os_pa,
                    map_seq,
                },
            );
            st.os_live.insert(os_pa, (len, iova));
            dup
        };
        if let Some((dup_pa, dup_len, dup_iova)) = dup {
            self.report(
                ViolationKind::DoubleMap,
                dev,
                iova,
                format!(
                    "dma_map of OS buffer {os_pa:#x}+{len} overlaps live mapping \
                     {dup_pa:#x}+{dup_len} (iova {dup_iova:#x})"
                ),
                Some(map_seq),
                ctx.now(),
                ctx.core.0,
            );
        }
    }

    fn on_unmap(&self, ctx: &CoreCtx, dev: DeviceId, m: &DmaMapping, unmap_seq: u64) {
        let (iova, len) = (m.iova.get(), m.buf().len as u64);
        enum Bad {
            Missing {
                stale: bool,
            },
            Mismatch {
                mapped_len: u64,
                mapped_dir: DmaDirection,
                cause: u64,
            },
        }
        let bad = {
            let mut inner = self.inner.lock();
            let st = inner.devs.entry(dev.0).or_default();
            match st.live.remove(iova) {
                Some(live) => {
                    if st.os_live.get(live.os_pa).is_some_and(|(_, i)| *i == iova) {
                        st.os_live.remove(live.os_pa);
                    }
                    st.retire(iova, live.len, unmap_seq);
                    if live.len != len || live.dir != m.dir() {
                        Some(Bad::Mismatch {
                            mapped_len: live.len,
                            mapped_dir: live.dir,
                            cause: live.map_seq,
                        })
                    } else {
                        None
                    }
                }
                None => Some(Bad::Missing {
                    stale: st.retired_covering(iova).is_some(),
                }),
            }
        };
        match bad {
            None => {}
            Some(Bad::Mismatch {
                mapped_len,
                mapped_dir,
                cause,
            }) => self.report(
                ViolationKind::UnmapMismatch,
                dev,
                iova,
                format!(
                    "dma_unmap of iova {iova:#x} with len {len} dir {} but mapped \
                     with len {mapped_len} dir {mapped_dir}",
                    m.dir()
                ),
                Some(cause),
                ctx.now(),
                ctx.core.0,
            ),
            Some(Bad::Missing { stale }) => self.report(
                ViolationKind::DoubleUnmap,
                dev,
                iova,
                if stale {
                    format!("dma_unmap of iova {iova:#x} which was already unmapped")
                } else {
                    format!("dma_unmap of iova {iova:#x} which was never mapped")
                },
                None,
                ctx.now(),
                ctx.core.0,
            ),
        }
    }

    fn on_alloc_coherent(&self, _ctx: &CoreCtx, dev: DeviceId, buf: &CoherentBuffer) {
        let mut inner = self.inner.lock();
        self.coherent_gen.fetch_add(1, Ordering::Release);
        let st = inner.devs.entry(dev.0).or_default();
        st.coherent.insert(buf.iova.get(), buf.size() as u64);
    }

    fn on_free_coherent(&self, ctx: &CoreCtx, dev: DeviceId, buf: &CoherentBuffer) {
        let missing = {
            let mut inner = self.inner.lock();
            self.coherent_gen.fetch_add(1, Ordering::Release);
            let st = inner.devs.entry(dev.0).or_default();
            st.coherent.remove(buf.iova.get()).is_none()
        };
        if missing {
            self.report(
                ViolationKind::DoubleUnmap,
                dev,
                buf.iova.get(),
                format!(
                    "dma_free_coherent of iova {:#x} which is not an allocated \
                     coherent buffer",
                    buf.iova.get()
                ),
                None,
                ctx.now(),
                ctx.core.0,
            );
        }
    }
}

impl BusObserver for DmaSan {
    fn on_device_access(
        &self,
        dev: DeviceId,
        addr: u64,
        len: usize,
        is_write: bool,
        granted: bool,
    ) {
        let verdict = self.verdict(dev, addr, len, granted);
        let AccessVerdict::SanitizerViolation(kind) = verdict else {
            return;
        };
        let access = if is_write { "write" } else { "read" };
        let (detail, cause) = {
            let inner = self.inner.lock();
            let st = inner.devs.get(&dev.0);
            match kind {
                ViolationKind::OobAccess => {
                    let covering = st.and_then(|s| {
                        s.covering(addr)
                            .map(|(start, m)| (start, m.len, Some(m.map_seq)))
                            .or_else(|| s.coherent_covering(addr).map(|(s2, l)| (s2, l, None)))
                    });
                    let (start, mlen, cause) = covering.unwrap_or((addr, 0, None));
                    (
                        format!(
                            "device {access} of {len} B at {addr:#x} overruns the mapped \
                             window {start:#x}+{mlen}"
                        ),
                        cause,
                    )
                }
                _ => match st.and_then(|s| s.retired_covering(addr)) {
                    Some((iova, mlen, unmap_seq)) => (
                        format!(
                            "device {access} of {len} B at {addr:#x} hits stale mapping \
                             {iova:#x}+{mlen} (already unmapped)"
                        ),
                        Some(unmap_seq),
                    ),
                    None => (
                        format!(
                            "device {access} of {len} B at {addr:#x} hits memory that was \
                             never mapped for this device"
                        ),
                        None,
                    ),
                },
            }
        };
        self.report(kind, dev, addr, detail, cause, self.obs.now_hint(), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dma_api::{CoherentHelper, DmaBuf, DmaEngine, NoIommu};
    use iommu::{Iommu, Iova};
    use memsim::{NumaTopology, PhysAddr, PhysMemory};
    use simcore::{CoreId, CostModel};
    use std::sync::Arc;

    const DEV: DeviceId = DeviceId(0);

    fn ctx() -> CoreCtx {
        CoreCtx::new(CoreId(0), Arc::new(CostModel::zero()))
    }

    /// A mapping of `len` bytes at physical address `pa`, issued by
    /// `NoIommu` (so its IOVA is `pa`).
    fn mapping(pa: u64, len: usize, dir: DmaDirection) -> DmaMapping {
        let eng = NoIommu::new(Arc::new(PhysMemory::new(NumaTopology::tiny(1))), DEV);
        eng.map(&mut ctx(), DmaBuf::new(PhysAddr(pa), len), dir)
            .unwrap()
    }

    /// A one-page coherent ring at `iova`, allocated by the helper the
    /// IOMMU-backed engines use, over an IOMMU of its own.
    fn ring(iova: u64) -> CoherentBuffer {
        let mem = Arc::new(PhysMemory::new(NumaTopology::tiny(1)));
        CoherentHelper::new(mem, Arc::new(Iommu::new()), DEV)
            .alloc(
                &mut ctx(),
                4096,
                |_, _, _| Ok(Iova::new(iova).page()),
                |_, _, _| {},
            )
            .unwrap()
    }

    fn rig() -> (Obs, DmaSan, CoreCtx) {
        let obs = Obs::isolated();
        let san = DmaSan::lenient(obs.clone());
        (obs, san, ctx())
    }

    fn map(san: &DmaSan, c: &CoreCtx, m: &DmaMapping, seq: u64) {
        san.on_map(c, DEV, m, seq);
    }

    #[test]
    fn clean_lifecycle_records_nothing() {
        let (_, san, c) = rig();
        let m = mapping(0x1000, 1500, DmaDirection::FromDevice);
        map(&san, &c, &m, 1);
        san.on_device_access(DEV, 0x1000, 1500, true, true);
        san.on_unmap(&c, DEV, &m, 2);
        assert_eq!(san.violation_count(), 0);
        assert_eq!(san.check_teardown(), 0);
    }

    #[test]
    fn detects_double_map_of_same_os_buffer() {
        let (obs, san, c) = rig();
        map(
            &san,
            &c,
            &mapping(0x9000, 1500, DmaDirection::FromDevice),
            1,
        );
        // Second mapping overlapping the same OS bytes at a new IOVA.
        map(&san, &c, &mapping(0x9100, 64, DmaDirection::ToDevice), 2);
        assert_eq!(san.count_of(ViolationKind::DoubleMap), 1);
        let v = &san.violations()[0];
        assert_eq!(v.cause, Some(2), "chains to the second DmaMap");
        assert!(v.detail.contains("overlaps live mapping"));
        let evs = obs.tracer().events();
        assert!(evs
            .iter()
            .any(|e| matches!(&e.kind, EventKind::SanitizerViolation { rule, .. } if rule == "double_map")));
    }

    #[test]
    fn detects_double_unmap_and_distinguishes_stale() {
        let (_, san, c) = rig();
        let m = mapping(0x2000, 256, DmaDirection::ToDevice);
        map(&san, &c, &m, 1);
        san.on_unmap(&c, DEV, &m, 2);
        san.on_unmap(&c, DEV, &m, 3); // double
        let never = mapping(0xffff_0000, 64, DmaDirection::ToDevice);
        san.on_unmap(&c, DEV, &never, 4); // never mapped
        assert_eq!(san.count_of(ViolationKind::DoubleUnmap), 2);
        let v = san.violations();
        assert!(v[0].detail.contains("already unmapped"));
        assert!(v[1].detail.contains("never mapped"));
    }

    #[test]
    fn detects_unmap_size_and_direction_mismatch() {
        let (_, san, c) = rig();
        let m = mapping(0x3000, 1024, DmaDirection::FromDevice);
        map(&san, &c, &m, 7);
        let wrong = mapping(0x3000, 512, DmaDirection::ToDevice);
        san.on_unmap(&c, DEV, &wrong, 8);
        assert_eq!(san.count_of(ViolationKind::UnmapMismatch), 1);
        let v = &san.violations()[0];
        assert_eq!(v.cause, Some(7), "chains back to the originating DmaMap");
        assert!(v.detail.contains("len 512"));
        assert!(v.detail.contains("len 1024"));
    }

    #[test]
    fn a_re_aimed_handle_is_caught_at_unmap() {
        // The seal leaves `iova` writable: a genuine handle pointed
        // elsewhere before its unmap is the forgery these rules still see.
        let (_, san, c) = rig();
        let mut m = mapping(0x1000, 64, DmaDirection::ToDevice);
        let other = mapping(0x4000, 1500, DmaDirection::ToDevice);
        map(&san, &c, &m, 1);
        map(&san, &c, &other, 2);
        m.iova = Iova::new(0xdead_0000);
        san.on_unmap(&c, DEV, &m, 3);
        assert_eq!(san.count_of(ViolationKind::DoubleUnmap), 1);
        assert!(san.violations()[0].detail.contains("never mapped"));
        m.iova = other.iova;
        san.on_unmap(&c, DEV, &m, 4);
        assert_eq!(san.count_of(ViolationKind::UnmapMismatch), 1);
        let v = &san.violations()[1];
        assert_eq!(v.cause, Some(2), "chains to the other mapping's DmaMap");
        assert!(v.detail.contains("len 64") && v.detail.contains("len 1500"));
    }

    #[test]
    fn detects_stale_iova_access() {
        let (_, san, c) = rig();
        let m = mapping(0x4000, 1500, DmaDirection::FromDevice);
        map(&san, &c, &m, 1);
        san.on_unmap(&c, DEV, &m, 2);
        // The IOMMU entry lingers (deferred invalidation) so hardware
        // grants the access — the sanitizer must still flag it.
        san.on_device_access(DEV, 0x4000 + 8, 64, true, true);
        assert_eq!(san.count_of(ViolationKind::StaleAccess), 1);
        let v = &san.violations()[0];
        assert_eq!(v.cause, Some(2), "chains to the DmaUnmap");
        assert!(v.detail.contains("stale mapping"));
        // A blocked access is the IOMMU working, not a violation.
        san.on_device_access(DEV, 0x4000, 64, true, false);
        assert_eq!(san.violation_count(), 1);
    }

    #[test]
    fn detects_sub_page_oob_access() {
        let (_, san, c) = rig();
        // A 100-byte buffer in a byte-granular shadow slot: the slot's
        // page is IOMMU-mapped, but only 100 bytes belong to the buffer.
        let m = mapping(0x8000, 100, DmaDirection::Bidirectional);
        map(&san, &c, &m, 1);
        san.on_device_access(DEV, 0x8000 + 90, 20, false, true); // 10 B overrun
        assert_eq!(san.count_of(ViolationKind::OobAccess), 1);
        let v = &san.violations()[0];
        assert_eq!(v.cause, Some(1));
        assert!(v.detail.contains("overruns the mapped window"));
        // In-bounds access is fine.
        san.on_device_access(DEV, 0x8000, 100, false, true);
        assert_eq!(san.violation_count(), 1);
    }

    #[test]
    fn detects_leak_at_teardown() {
        let (_, san, c) = rig();
        map(
            &san,
            &c,
            &mapping(0x6000, 2048, DmaDirection::FromDevice),
            1,
        );
        assert_eq!(san.live_mappings(), vec![(DEV, 0x6000, 2048)]);
        assert_eq!(san.check_teardown(), 1);
        assert_eq!(san.count_of(ViolationKind::Leak), 1);
        assert!(san.violations()[0]
            .detail
            .contains("still live at teardown"));
    }

    #[test]
    fn coherent_windows_are_legal_targets_and_leak_checked() {
        let (_, san, c) = rig();
        let ring = ring(0x10_0000);
        san.on_alloc_coherent(&c, DEV, &ring);
        san.on_device_access(DEV, 0x10_0000 + 16, 16, false, true);
        assert_eq!(san.violation_count(), 0, "descriptor fetch is legitimate");
        // Overrunning the ring is still flagged.
        san.on_device_access(DEV, 0x10_0000 + 4090, 16, true, true);
        assert_eq!(san.count_of(ViolationKind::OobAccess), 1);
        // Freeing clears the window; a second free is a double-unmap.
        san.on_free_coherent(&c, DEV, &ring);
        assert_eq!(san.check_teardown(), 0);
        san.on_free_coherent(&c, DEV, &ring);
        assert_eq!(san.count_of(ViolationKind::DoubleUnmap), 1);
    }

    #[test]
    fn verdict_is_pure_classification() {
        let (_, san, c) = rig();
        let m = mapping(0x9000, 64, DmaDirection::FromDevice);
        map(&san, &c, &m, 1);
        assert_eq!(san.verdict(DEV, 0x9000, 64, true), AccessVerdict::Permitted);
        assert_eq!(
            san.verdict(DEV, 0x9000, 128, true),
            AccessVerdict::SanitizerViolation(ViolationKind::OobAccess)
        );
        assert_eq!(
            san.verdict(DEV, 0xdead_0000, 8, true),
            AccessVerdict::SanitizerViolation(ViolationKind::StaleAccess)
        );
        assert_eq!(
            san.verdict(DEV, 0xdead_0000, 8, false),
            AccessVerdict::BlockedByIommu
        );
        assert_eq!(san.violation_count(), 0, "verdict records nothing");
    }

    const PERMITTED: AccessVerdict = AccessVerdict::Permitted;
    const STALE: AccessVerdict = AccessVerdict::SanitizerViolation(ViolationKind::StaleAccess);
    const OOB: AccessVerdict = AccessVerdict::SanitizerViolation(ViolationKind::OobAccess);

    #[test]
    fn a_ring_verdict_right_after_an_alloc_or_free_sees_the_new_windows() {
        let (_, san, c) = rig();
        let (a, b) = (ring(0x10_0000), ring(0x20_0000));
        assert_eq!(san.verdict(DEV, 0x10_0010, 16, true), STALE);
        san.on_alloc_coherent(&c, DEV, &a);
        assert_eq!(san.verdict(DEV, 0x10_0010, 16, true), PERMITTED);
        assert_eq!(san.verdict(DEV, 0x20_0010, 16, true), STALE);
        san.on_alloc_coherent(&c, DEV, &b);
        assert_eq!(san.verdict(DEV, 0x20_0010, 16, true), PERMITTED);
        san.on_free_coherent(&c, DEV, &a);
        assert_eq!(san.verdict(DEV, 0x10_0010, 16, true), STALE);
        assert_eq!(san.verdict(DEV, 0x20_0010, 16, true), PERMITTED);
        // Another device's window is not this device's.
        assert_eq!(san.verdict(DeviceId(1), 0x20_0010, 16, true), STALE);
        san.on_free_coherent(&c, DEV, &b);
        assert_eq!(san.verdict(DEV, 0x20_0010, 16, true), STALE);
        assert_eq!(san.violation_count(), 0, "verdicts record nothing");
    }

    #[test]
    fn two_checkers_alternating_on_one_thread_never_share_windows() {
        let (_, a, c) = rig();
        let (_, b, _) = rig();
        // One ring each, at the same generation.
        a.on_alloc_coherent(&c, DEV, &ring(0x10_0000));
        b.on_alloc_coherent(&c, DEV, &ring(0x20_0000));
        for _ in 0..3 {
            assert_eq!(a.verdict(DEV, 0x10_0000, 16, true), PERMITTED);
            assert_eq!(b.verdict(DEV, 0x10_0000, 16, true), STALE);
            assert_eq!(a.verdict(DEV, 0x20_0000, 16, true), STALE);
            assert_eq!(b.verdict(DEV, 0x20_0000, 16, true), PERMITTED);
        }
    }

    #[test]
    fn a_verdict_on_another_thread_after_a_free_is_stale() {
        let (_, san, c) = rig();
        let r = ring(0x10_0000);
        san.on_alloc_coherent(&c, DEV, &r);
        assert_eq!(san.verdict(DEV, 0x10_0000, 16, true), PERMITTED);
        let (checked_tx, checked) = std::sync::mpsc::channel();
        let (freed_tx, freed) = std::sync::mpsc::channel();
        let san = &san;
        std::thread::scope(|s| {
            let device = s.spawn(move || {
                let before = san.verdict(DEV, 0x10_0000, 16, true);
                checked_tx.send(()).unwrap();
                freed.recv().unwrap();
                (before, san.verdict(DEV, 0x10_0000, 16, true))
            });
            checked.recv().unwrap();
            san.on_free_coherent(&c, DEV, &r);
            freed_tx.send(()).unwrap();
            assert_eq!(device.join().unwrap(), (PERMITTED, STALE));
        });
    }

    #[test]
    fn an_access_overrunning_a_ring_window_is_oob() {
        let (_, san, c) = rig();
        san.on_alloc_coherent(&c, DEV, &ring(0x10_0000));
        assert_eq!(san.verdict(DEV, 0x10_0000 + 4080, 16, true), PERMITTED);
        assert_eq!(san.verdict(DEV, 0x10_0000 + 4080, 17, true), OOB);
        // Asked twice: the second answer comes from the thread's copy.
        assert_eq!(san.verdict(DEV, 0x10_0000 + 4090, 16, true), OOB);
        san.on_device_access(DEV, 0x10_0000 + 4090, 16, true, true);
        let v = san.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::OobAccess);
        assert!(v[0]
            .detail
            .contains("overruns the mapped window 0x100000+4096"));
    }

    #[test]
    fn ring_verdicts_after_the_first_take_no_host_lock() {
        let (_, san, c) = rig();
        // 16 RX and 16 TX rings, interleaved like a stack allocates them.
        let rings: Vec<u64> = (0..32).map(|i| 0x100_0000 + i * 0x1_0000).collect();
        for &iova in &rings {
            san.on_alloc_coherent(&c, DEV, &ring(iova));
        }
        let m = mapping(0x8000, 1500, DmaDirection::FromDevice);
        map(&san, &c, &m, 1);
        // Fetch a descriptor on every ring, then write back on each.
        let accesses = || rings.iter().flat_map(|&r| [(r + 32, 16), (r + 40, 8)]);
        assert_eq!(san.verdict(DEV, rings[0], 16, true), PERMITTED);
        let before = simcore::sync::holds();
        for (addr, len) in accesses().chain(accesses()) {
            assert_eq!(san.verdict(DEV, addr, len, true), PERMITTED);
            san.on_device_access(DEV, addr, len, true, true);
        }
        assert_eq!(simcore::sync::holds() - before, 0);
        // A streaming access takes the lock, once.
        san.on_device_access(DEV, 0x8000, 1500, true, true);
        assert_eq!(simcore::sync::holds() - before, 1);
        assert_eq!(san.violation_count(), 0);
    }

    #[test]
    #[should_panic(expected = "dmasan[double_unmap]")]
    fn strict_mode_panics_on_violation() {
        let san = DmaSan::new(Obs::isolated());
        let c = ctx();
        let m = mapping(0x1000, 64, DmaDirection::ToDevice);
        san.on_unmap(&c, DEV, &m, 1);
    }

    #[test]
    fn dmabuf_roundtrip_is_clean_under_strict() {
        // The happy path must never trip the panicking default.
        let san = DmaSan::new(Obs::isolated());
        let c = ctx();
        for i in 0..32u64 {
            let m = mapping(0x1000 + i * 0x1000, 1500, DmaDirection::FromDevice);
            san.on_map(&c, DEV, &m, i * 2);
            san.on_device_access(DEV, m.iova.get(), 1500, true, true);
            san.on_unmap(&c, DEV, &m, i * 2 + 1);
        }
        assert_eq!(san.check_teardown(), 0);
    }
}
