//! Virtual time units.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A quantity of virtual CPU cycles.
///
/// All simulated time in this workspace is expressed in cycles of the
/// modeled CPU clock (2.4 GHz for the paper's Haswell testbed); conversion
/// to wall time requires a clock frequency, see [`Cycles::to_nanos`].
///
/// `Cycles` is used both as a *duration* and as an *instant* (cycles since
/// simulation start); the two are not statically distinguished because the
/// simulation code mixes them freely in saturating arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);
    /// The maximum representable instant; used as "never".
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Creates a cycle count.
    pub const fn new(c: u64) -> Self {
        Cycles(c)
    }

    /// Raw cycle count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Converts a duration in nanoseconds at the given clock to cycles,
    /// rounding to the nearest cycle.
    pub fn from_nanos(ns: f64, clock_ghz: f64) -> Self {
        Cycles((ns * clock_ghz).round() as u64)
    }

    /// Converts to nanoseconds at the given clock frequency.
    pub fn to_nanos(self, clock_ghz: f64) -> f64 {
        self.0 as f64 / clock_ghz
    }

    /// Converts to microseconds at the given clock frequency.
    pub fn to_micros(self, clock_ghz: f64) -> f64 {
        self.to_nanos(clock_ghz) / 1_000.0
    }

    /// Converts to seconds at the given clock frequency.
    pub fn to_secs(self, clock_ghz: f64) -> f64 {
        self.to_nanos(clock_ghz) / 1e9
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Cycles) -> Option<Cycles> {
        self.0.checked_add(rhs.0).map(Cycles)
    }

    /// The later of two instants.
    pub fn max(self, other: Cycles) -> Cycles {
        Cycles(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: Cycles) -> Cycles {
        Cycles(self.0.min(other.0))
    }

    /// Multiplies by a floating point factor, rounding to nearest.
    pub fn scale(self, factor: f64) -> Cycles {
        Cycles((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        *self = *self + rhs;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        debug_assert!(self.0 >= rhs.0, "cycle subtraction underflow");
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

/// Identifier of a virtual core.
///
/// Cores are numbered `0..n`; NUMA placement is derived from the core id by
/// the memory subsystem (`memsim`), matching the paper's two-socket, 8
/// cores/socket layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u16);

impl CoreId {
    /// Creates a core id.
    pub const fn new(id: u16) -> Self {
        CoreId(id)
    }

    /// Raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_roundtrip_nanos() {
        let c = Cycles::from_nanos(610.0, 2.4);
        assert_eq!(c.0, 1464);
        let back = c.to_nanos(2.4);
        assert!((back - 610.0).abs() < 0.5);
    }

    #[test]
    fn cycles_arith() {
        let a = Cycles(100);
        let b = Cycles(40);
        assert_eq!(a + b, Cycles(140));
        assert_eq!(a - b, Cycles(60));
        assert_eq!(a * 3, Cycles(300));
        assert_eq!(a / 4, Cycles(25));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn cycles_scale_rounds() {
        assert_eq!(Cycles(10).scale(1.25), Cycles(13)); // 12.5 rounds up
        assert_eq!(Cycles(10).scale(0.0), Cycles::ZERO);
    }

    #[test]
    fn cycles_sum() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn display_impls() {
        assert_eq!(Cycles(5).to_string(), "5cyc");
        assert_eq!(CoreId(3).to_string(), "core3");
    }
}
