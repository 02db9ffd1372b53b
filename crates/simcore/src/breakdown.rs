//! Per-phase time accounting, mirroring the paper's Figure 5/8/10 breakdown.

use crate::Cycles;
use std::fmt;
use std::ops::{Add, AddAssign};

/// The phases of packet processing time, exactly the categories of the
/// paper's breakdown figures (Figures 5, 8 and 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Shadow buffer pool management ("copy mgmt").
    CopyMgmt,
    /// Time spent spinning on contended locks ("spinlock").
    Spinlock,
    /// Waiting for IOTLB invalidations ("invalidate iotlb").
    InvalidateIotlb,
    /// IOMMU page table updates and IOVA allocation ("iommu page table
    /// mgmt").
    IommuPageTableMgmt,
    /// Copies between OS buffers and shadow buffers ("memcpy").
    Memcpy,
    /// Receive-side protocol processing ("rx parsing").
    RxParsing,
    /// Copies between kernel and user space ("copy_user").
    CopyUser,
    /// Everything else (skb management, scheduling, cache pollution...).
    Other,
}

impl Phase {
    /// All phases, in the paper's legend order.
    pub const ALL: [Phase; 8] = [
        Phase::CopyMgmt,
        Phase::Spinlock,
        Phase::InvalidateIotlb,
        Phase::IommuPageTableMgmt,
        Phase::Memcpy,
        Phase::RxParsing,
        Phase::CopyUser,
        Phase::Other,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Phase::CopyMgmt => "copy mgmt",
            Phase::Spinlock => "spinlock",
            Phase::InvalidateIotlb => "invalidate iotlb",
            Phase::IommuPageTableMgmt => "iommu page table mgmt",
            Phase::Memcpy => "memcpy",
            Phase::RxParsing => "rx parsing",
            Phase::CopyUser => "copy_user",
            Phase::Other => "other",
        }
    }

    /// Metric-name slug: the label with underscores, as the flamegraph's
    /// leaf frames spell it.
    pub fn slug(self) -> &'static str {
        match self {
            Phase::CopyMgmt => "copy_mgmt",
            Phase::Spinlock => "spinlock",
            Phase::InvalidateIotlb => "invalidate_iotlb",
            Phase::IommuPageTableMgmt => "iommu_page_table_mgmt",
            Phase::Memcpy => "memcpy",
            Phase::RxParsing => "rx_parsing",
            Phase::CopyUser => "copy_user",
            Phase::Other => "other",
        }
    }

    /// Position in [`Phase::ALL`]: the variants are declared in legend
    /// order.
    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated busy cycles per [`Phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Breakdown {
    cells: [Cycles; 8],
}

impl Breakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` to `phase`.
    pub fn record(&mut self, phase: Phase, cycles: Cycles) {
        self.cells[phase.index()] += cycles;
    }

    /// Cycles accumulated in `phase`.
    pub fn get(&self, phase: Phase) -> Cycles {
        self.cells[phase.index()]
    }

    /// Total cycles across all phases.
    pub fn total(&self) -> Cycles {
        self.cells.iter().copied().sum()
    }

    /// Iterates `(phase, cycles)` in legend order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, Cycles)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self.get(p)))
    }

    /// Divides every cell by `n` (e.g. packets processed) to obtain a
    /// per-item average. `n == 0` yields an empty breakdown.
    pub fn per_item(&self, n: u64) -> Breakdown {
        if n == 0 {
            return Breakdown::new();
        }
        let mut out = Breakdown::new();
        for (p, c) in self.iter() {
            out.record(p, c / n);
        }
        out
    }

    /// Per-phase `self - rhs`, each cell clamped at zero.
    pub fn saturating_sub(&self, rhs: &Breakdown) -> Breakdown {
        let mut out = *self;
        for (cell, r) in out.cells.iter_mut().zip(rhs.cells) {
            *cell = cell.saturating_sub(r);
        }
        out
    }
}

impl Add for Breakdown {
    type Output = Breakdown;
    fn add(self, rhs: Breakdown) -> Breakdown {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Breakdown) {
        for i in 0..self.cells.len() {
            self.cells[i] += rhs.cells[i];
        }
    }
}

impl std::iter::Sum for Breakdown {
    fn sum<I: Iterator<Item = Breakdown>>(iter: I) -> Breakdown {
        iter.fold(Breakdown::new(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_phase() {
        let mut b = Breakdown::new();
        b.record(Phase::Memcpy, Cycles(100));
        b.record(Phase::Memcpy, Cycles(50));
        b.record(Phase::Other, Cycles(25));
        assert_eq!(b.get(Phase::Memcpy), Cycles(150));
        assert_eq!(b.get(Phase::Other), Cycles(25));
        assert_eq!(b.get(Phase::Spinlock), Cycles::ZERO);
        assert_eq!(b.total(), Cycles(175));
    }

    #[test]
    fn per_item_average() {
        let mut b = Breakdown::new();
        b.record(Phase::RxParsing, Cycles(1000));
        let avg = b.per_item(10);
        assert_eq!(avg.get(Phase::RxParsing), Cycles(100));
        assert_eq!(b.per_item(0).total(), Cycles::ZERO);
    }

    #[test]
    fn merge_and_sum() {
        let mut a = Breakdown::new();
        a.record(Phase::CopyMgmt, Cycles(1));
        let mut b = Breakdown::new();
        b.record(Phase::CopyMgmt, Cycles(2));
        b.record(Phase::CopyUser, Cycles(3));
        let merged: Breakdown = [a, b].into_iter().sum();
        assert_eq!(merged.get(Phase::CopyMgmt), Cycles(3));
        assert_eq!(merged.get(Phase::CopyUser), Cycles(3));
    }

    #[test]
    fn saturating_sub_clamps_per_phase() {
        let mut a = Breakdown::new();
        a.record(Phase::Memcpy, Cycles(75));
        let mut b = Breakdown::new();
        b.record(Phase::Memcpy, Cycles(25));
        b.record(Phase::Other, Cycles(5));
        let d = a.saturating_sub(&b);
        assert_eq!(d.get(Phase::Memcpy), Cycles(50));
        assert_eq!(d.get(Phase::Other), Cycles::ZERO);
    }

    #[test]
    fn phase_all_is_in_index_order() {
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i, "{p}");
        }
    }

    #[test]
    fn all_phases_have_distinct_labels_and_slugs() {
        for name in [Phase::label, Phase::slug] {
            let seen: std::collections::HashSet<_> = Phase::ALL.into_iter().map(name).collect();
            assert_eq!(seen.len(), 8);
        }
    }
}
