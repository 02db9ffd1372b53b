//! Calibrated per-operation cost model.
//!
//! Constants are calibrated against the paper's measurements (its Figure 5
//! breakdown and §2.2.1/§6 text) on the 2.4 GHz Haswell testbed. Every
//! constant is public and overridable so ablation benches can explore other
//! design points.

use crate::Cycles;

/// Which `memcpy` implementation the kernel uses (§5.4 "Smart memcpy").
///
/// The paper found the plain `REP MOVSB` copy (ERMS) to be the best overall
/// on its machines; SIMD and non-temporal variants are modeled for the
/// ablation benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemcpyFlavor {
    /// Enhanced `REP MOVSB/STOSB` (the kernel default on the testbed).
    #[default]
    Erms,
    /// AVX2 SIMD loop: marginally faster in-cache, slower startup.
    Simd,
    /// Non-temporal (streaming) stores: bypasses the cache — no pollution,
    /// but lower bandwidth for buffers that fit in cache and the destination
    /// is not cache-hot for the consumer.
    NonTemporal,
}

/// The calibrated cost model.
///
/// All costs are in [`Cycles`] of the modeled clock. The defaults
/// ([`CostModel::haswell_2_4ghz`]) reproduce the paper's single-core Figure 5
/// breakdown within a few percent; see `EXPERIMENTS.md`.
/// # Examples
///
/// ```
/// use simcore::CostModel;
///
/// let cost = CostModel::haswell_2_4ghz();
/// // The paper's headline economics: copying an MTU packet is ~5x
/// // cheaper than waiting for one IOTLB invalidation.
/// let copy = cost.memcpy(1500, false);
/// let inval = cost.inval_wait(1);
/// assert!(inval > copy * 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Modeled CPU clock in GHz (2.4 for the testbed).
    pub clock_ghz: f64,

    // ---- IOMMU hardware ----
    /// Busy-wait until a posted IOTLB invalidation completes, single
    /// requester (≈2000 cycles per the paper's §2.2.1 / rIOMMU \[37\];
    /// Figure 5 shows ≈0.61 µs including queue interaction).
    pub iotlb_inval_wait: Cycles,
    /// Additional invalidation completion latency per *other* core actively
    /// issuing DMA operations. Models the slower IOMMU processing observed
    /// at 16 cores (Figure 8: invalidation grows from 0.61 µs to ≈2.7 µs):
    /// concurrent page-table updates and IOTLB churn slow the hardware walk.
    pub iotlb_inval_wait_per_active_core: Cycles,
    /// Posting one invalidation descriptor into the invalidation queue
    /// (register write + descriptor store), charged while holding the
    /// invalidation-queue lock.
    pub inval_queue_post: Cycles,
    /// IOMMU page-table map cost (entry install, one page).
    pub pagetable_map_page: Cycles,
    /// IOMMU page-table unmap cost (entry clear, one page).
    pub pagetable_unmap_page: Cycles,

    // ---- memcpy ----
    /// Fixed startup overhead of a kernel memcpy.
    pub memcpy_startup: Cycles,
    /// Per-byte cost while the working set fits in L1/L2 (ERMS fast path).
    /// Calibrated from Figure 5a: 1500 B ≈ 0.11 µs ⇒ ≈0.136 cyc/B.
    pub memcpy_cyc_per_byte_cached: f64,
    /// Per-byte cost once the copy streams beyond the cache.
    /// Calibrated from Figure 5b: 64 KB ≈ 4.65 µs ⇒ ≈0.169 cyc/B.
    pub memcpy_cyc_per_byte_streaming: f64,
    /// Copy size at which the per-byte rate transitions to streaming.
    pub memcpy_stream_threshold: usize,
    /// Cache-pollution side cost: large copies evict the core's working set
    /// and the victim misses are paid later ("other" grows by ≈2 µs for
    /// 64 KB TX copies, Figure 5b). Charged per byte beyond
    /// [`CostModel::pollution_free_bytes`].
    pub pollution_cyc_per_byte: f64,
    /// Copies up to this size do not produce measurable pollution.
    pub pollution_free_bytes: usize,
    /// Multiplier applied to memcpy when source and destination live on
    /// different NUMA domains (remote DRAM access). The shadow pool's
    /// sticky, NUMA-local buffers exist to avoid this (§5.3).
    pub cross_numa_memcpy_factor: f64,
    /// Selected memcpy implementation.
    pub memcpy_flavor: MemcpyFlavor,

    // ---- shadow pool ----
    /// Shadow-buffer pool bookkeeping per map or unmap (Figure 5a: 0.02 µs
    /// for the whole map+unmap pair ⇒ ≈24 cycles each).
    pub shadow_pool_op: Cycles,
    /// Slow path: allocating and permanently mapping a fresh shadow buffer
    /// (page allocation, metadata install, IOMMU map). Amortized away in
    /// steady state.
    pub shadow_pool_grow: Cycles,

    // ---- IOVA allocation (stock Linux, EiovaR/FAST'15 bottleneck) ----
    /// Red-black-tree IOVA allocation under the global lock (stock Linux
    /// `alloc_iova`). The long-walk behavior identified by EiovaR makes this
    /// expensive.
    pub iova_tree_alloc: Cycles,
    /// Red-black-tree IOVA free under the global lock.
    pub iova_tree_free: Cycles,
    /// Per-core magazine IOVA allocation (\[42\]'s scalable allocator).
    pub iova_magazine_alloc: Cycles,
    /// Per-core magazine IOVA free.
    pub iova_magazine_free: Cycles,

    // ---- deferred invalidation bookkeeping ----
    /// Appending an entry to the deferred-flush list (inside its lock).
    pub defer_list_append: Cycles,
    /// Global IOTLB flush (used when the deferred batch is drained).
    pub global_iotlb_flush: Cycles,

    // ---- locks ----
    /// Uncontended spinlock acquire+release pair.
    pub spinlock_uncontended: Cycles,

    // ---- networking stack (calibrated so no-iommu matches Figure 3/4) ----
    /// Fixed per-packet receive cost outside the DMA layer: descriptor
    /// handling, skb bookkeeping, IP/TCP parsing ("rx parsing").
    pub rx_parse: Cycles,
    /// Fixed per-packet cost attributed to "other" in the paper's breakdown
    /// (NAPI, scheduling, socket wakeups, skb alloc/free).
    pub rx_other: Cycles,
    /// Fixed per-TSO-buffer transmit preparation cost (skb setup, TCP
    /// header build, descriptor writes) — "other" on the TX side.
    pub tx_other_per_buffer: Cycles,
    /// Per-MTU-segment completion/interrupt handling cost on TX.
    pub tx_per_segment: Cycles,
    /// Sender-side syscall + socket overhead per message — the limiting
    /// factor for small messages (§6 footnote 6).
    pub syscall_per_message: Cycles,
    /// `copy_to_user`/`copy_from_user` uses the memcpy model; this extra
    /// startup covers the access_ok/fixup overhead.
    pub copy_user_startup: Cycles,

    // ---- kmalloc ----
    /// Slab allocation fast path.
    pub kmalloc_alloc: Cycles,
    /// Slab free fast path.
    pub kmalloc_free: Cycles,

    // ---- memcached application ----
    /// Application-level cost to parse a request and execute a GET against
    /// the hash table (excluding networking).
    pub memcached_get: Cycles,
    /// Application-level cost of a SET (allocation + insert).
    pub memcached_set: Cycles,
}

impl CostModel {
    /// The paper's testbed: dual 2.4 GHz Xeon E5-2630 v3 (Haswell).
    ///
    /// Calibration sources, all at 2.4 GHz:
    /// - IOTLB invalidation ≈ 0.61 µs single-core (Fig. 5), growing to
    ///   ≈2.7 µs with 16 active cores (Fig. 8).
    /// - IOMMU page-table mgmt ≈ 0.17 µs per map+unmap pair (Fig. 5).
    /// - memcpy: 1500 B ≈ 0.11 µs; 64 KB ≈ 4.65 µs (Fig. 5) with ≈2 µs of
    ///   extra cache-pollution cost attributed to "other" (Fig. 5b).
    /// - shadow pool management ≈ 0.02 µs per packet (Fig. 5a).
    pub fn haswell_2_4ghz() -> Self {
        CostModel {
            clock_ghz: 2.4,

            iotlb_inval_wait: Cycles(1464),                // 0.61 us
            iotlb_inval_wait_per_active_core: Cycles(150), // -> ~1.5us at 16 cores
            inval_queue_post: Cycles(120),
            pagetable_map_page: Cycles(200),
            pagetable_unmap_page: Cycles(208), // map+unmap = 0.17us = 408cyc

            memcpy_startup: Cycles(60),
            memcpy_cyc_per_byte_cached: 0.136,
            memcpy_cyc_per_byte_streaming: 0.169,
            memcpy_stream_threshold: 16 * 1024,
            pollution_cyc_per_byte: 0.082,
            pollution_free_bytes: 8 * 1024,
            cross_numa_memcpy_factor: 1.55,
            memcpy_flavor: MemcpyFlavor::Erms,

            shadow_pool_op: Cycles(24),
            shadow_pool_grow: Cycles(2600),

            iova_tree_alloc: Cycles(1100),
            iova_tree_free: Cycles(500),
            iova_magazine_alloc: Cycles(90),
            iova_magazine_free: Cycles(80),

            defer_list_append: Cycles(90),
            global_iotlb_flush: Cycles(1900),

            spinlock_uncontended: Cycles(40),

            rx_parse: Cycles(480),            // 0.20 us
            rx_other: Cycles(640),            // 0.27 us
            tx_other_per_buffer: Cycles(600), // 0.25 us fixed per buffer
            tx_per_segment: Cycles(140),
            syscall_per_message: Cycles(600), // ~0.25 us per sendmsg
            copy_user_startup: Cycles(50),

            kmalloc_alloc: Cycles(70),
            kmalloc_free: Cycles(55),

            memcached_get: Cycles(12_000), // ~5 us application work per GET
            memcached_set: Cycles(16_000),
        }
    }

    /// A zero-cost model: every operation is free.
    ///
    /// Used by functional/unit tests that only care about semantics, so the
    /// virtual clock never advances and assertions stay simple.
    pub fn zero() -> Self {
        CostModel {
            clock_ghz: 2.4,
            iotlb_inval_wait: Cycles::ZERO,
            iotlb_inval_wait_per_active_core: Cycles::ZERO,
            inval_queue_post: Cycles::ZERO,
            pagetable_map_page: Cycles::ZERO,
            pagetable_unmap_page: Cycles::ZERO,
            memcpy_startup: Cycles::ZERO,
            memcpy_cyc_per_byte_cached: 0.0,
            memcpy_cyc_per_byte_streaming: 0.0,
            memcpy_stream_threshold: usize::MAX,
            pollution_cyc_per_byte: 0.0,
            pollution_free_bytes: usize::MAX,
            cross_numa_memcpy_factor: 1.0,
            memcpy_flavor: MemcpyFlavor::Erms,
            shadow_pool_op: Cycles::ZERO,
            shadow_pool_grow: Cycles::ZERO,
            iova_tree_alloc: Cycles::ZERO,
            iova_tree_free: Cycles::ZERO,
            iova_magazine_alloc: Cycles::ZERO,
            iova_magazine_free: Cycles::ZERO,
            defer_list_append: Cycles::ZERO,
            global_iotlb_flush: Cycles::ZERO,
            spinlock_uncontended: Cycles::ZERO,
            rx_parse: Cycles::ZERO,
            rx_other: Cycles::ZERO,
            tx_other_per_buffer: Cycles::ZERO,
            tx_per_segment: Cycles::ZERO,
            syscall_per_message: Cycles::ZERO,
            copy_user_startup: Cycles::ZERO,
            kmalloc_alloc: Cycles::ZERO,
            kmalloc_free: Cycles::ZERO,
            memcached_get: Cycles::ZERO,
            memcached_set: Cycles::ZERO,
        }
    }

    /// Cost of copying `bytes` bytes with the selected memcpy flavor,
    /// excluding cache-pollution side effects (see
    /// [`CostModel::cache_pollution`]).
    ///
    /// `cross_numa` applies the remote-DRAM factor when source and
    /// destination are on different NUMA domains.
    pub fn memcpy(&self, bytes: usize, cross_numa: bool) -> Cycles {
        if bytes == 0 {
            return Cycles::ZERO;
        }
        let (startup_mul, cached_mul, stream_mul) = match self.memcpy_flavor {
            MemcpyFlavor::Erms => (1.0, 1.0, 1.0),
            // SIMD: slightly better in-cache rate, 3x startup (feature
            // detection, alignment prologue), same streaming rate.
            MemcpyFlavor::Simd => (3.0, 0.92, 1.0),
            // Non-temporal: higher in-cache cost (no write-allocate reuse),
            // slightly better streaming, and (modeled in cache_pollution)
            // no pollution.
            MemcpyFlavor::NonTemporal => (2.0, 1.35, 0.95),
        };
        let per_byte = if bytes <= self.memcpy_stream_threshold {
            self.memcpy_cyc_per_byte_cached * cached_mul
        } else {
            self.memcpy_cyc_per_byte_streaming * stream_mul
        };
        let mut cyc = self.memcpy_startup.scale(startup_mul)
            + Cycles((bytes as f64 * per_byte).round() as u64);
        if cross_numa {
            cyc = cyc.scale(self.cross_numa_memcpy_factor);
        }
        cyc
    }

    /// Deferred cost of the cache pollution caused by a copy of `bytes`
    /// bytes: the evicted working set is re-fetched later by the core.
    ///
    /// Returns zero for the non-temporal flavor (streaming stores bypass
    /// the cache) and for small copies.
    pub fn cache_pollution(&self, bytes: usize) -> Cycles {
        if self.memcpy_flavor == MemcpyFlavor::NonTemporal {
            return Cycles::ZERO;
        }
        let over = bytes.saturating_sub(self.pollution_free_bytes);
        Cycles((over as f64 * self.pollution_cyc_per_byte).round() as u64)
    }

    /// Completion latency of one IOTLB invalidation when `active_cores`
    /// cores (including the issuer) are concurrently driving DMA.
    pub fn inval_wait(&self, active_cores: usize) -> Cycles {
        let others = active_cores.saturating_sub(1) as u64;
        self.iotlb_inval_wait + self.iotlb_inval_wait_per_active_core * others
    }

    /// Cost of `copy_to_user`/`copy_from_user` of `bytes` bytes.
    pub fn copy_user(&self, bytes: usize) -> Cycles {
        if bytes == 0 {
            return Cycles::ZERO;
        }
        self.copy_user_startup + self.memcpy(bytes, false)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::haswell_2_4ghz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memcpy_matches_paper_calibration() {
        let m = CostModel::haswell_2_4ghz();
        // 1500 B ethernet packet: paper says 0.11 us (Fig 5a).
        let us = m.memcpy(1500, false).to_micros(m.clock_ghz);
        assert!((us - 0.11).abs() < 0.02, "1500B copy = {us} us");
        // 64 KB TSO buffer: paper says 4.65 us (Fig 5b).
        let us = m.memcpy(64 * 1024, false).to_micros(m.clock_ghz);
        assert!((us - 4.65).abs() < 0.6, "64KB copy = {us} us");
    }

    #[test]
    fn memcpy_1500b_is_about_5x_cheaper_than_invalidation() {
        // The paper's headline observation: copying a 1500 B packet is
        // ~5.5x faster than an IOTLB invalidation.
        let m = CostModel::haswell_2_4ghz();
        let copy = m.memcpy(1500, false).get() as f64;
        let inval = m.inval_wait(1).get() as f64;
        let ratio = inval / copy;
        assert!(ratio > 4.0 && ratio < 7.0, "ratio = {ratio}");
    }

    #[test]
    fn inval_wait_grows_with_active_cores() {
        let m = CostModel::haswell_2_4ghz();
        let one = m.inval_wait(1);
        let sixteen = m.inval_wait(16);
        assert_eq!(one, m.iotlb_inval_wait);
        assert!(sixteen > one * 2, "16-core inval {sixteen} vs {one}");
        // The paper observed invalidation latency growing from 0.61 us to
        // ~2.7 us at 16 cores; we calibrate the hardware component to
        // ~1.5 us so that the *end-to-end* collapse (Figure 6: ~5x) matches
        // — the rest of the paper's 2.7 us shows up as queueing on the
        // invalidation-queue lock, which the simulation models separately.
        let us = sixteen.to_micros(m.clock_ghz);
        assert!((1.0..=2.0).contains(&us), "16-core inval = {us} us");
    }

    #[test]
    fn pollution_only_for_large_copies() {
        let m = CostModel::haswell_2_4ghz();
        assert_eq!(m.cache_pollution(1500), Cycles::ZERO);
        let p = m.cache_pollution(64 * 1024).to_micros(m.clock_ghz);
        assert!(p > 1.0 && p < 3.0, "pollution = {p} us");
    }

    #[test]
    fn nontemporal_has_no_pollution() {
        let mut m = CostModel::haswell_2_4ghz();
        m.memcpy_flavor = MemcpyFlavor::NonTemporal;
        assert_eq!(m.cache_pollution(64 * 1024), Cycles::ZERO);
        // ...but worse in-cache rate than ERMS.
        let erms = CostModel::haswell_2_4ghz().memcpy(1500, false);
        assert!(m.memcpy(1500, false) > erms);
    }

    #[test]
    fn cross_numa_is_more_expensive() {
        let m = CostModel::haswell_2_4ghz();
        assert!(m.memcpy(4096, true) > m.memcpy(4096, false));
    }

    #[test]
    fn zero_model_is_free() {
        let m = CostModel::zero();
        assert_eq!(m.memcpy(1 << 20, true), Cycles::ZERO);
        assert_eq!(m.inval_wait(16), Cycles::ZERO);
        assert_eq!(m.copy_user(4096), Cycles::ZERO);
        assert_eq!(m.cache_pollution(1 << 20), Cycles::ZERO);
    }

    #[test]
    fn empty_copies_are_free() {
        let m = CostModel::haswell_2_4ghz();
        assert_eq!(m.memcpy(0, false), Cycles::ZERO);
        assert_eq!(m.copy_user(0), Cycles::ZERO);
    }
}
