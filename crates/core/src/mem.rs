//! Memory sizes and the memory-time waste unit.
//!
//! Container footprints are whole megabytes ([`MemMb`]); idle-memory waste
//! is integrated as gigabyte-seconds ([`GbSeconds`]), the unit the paper
//! uses for its "memory waste (GB × s)" axes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

use crate::time::Micros;

/// A memory size in whole megabytes.
///
/// ```
/// use rainbowcake_core::mem::MemMb;
///
/// let total = MemMb::new(128) + MemMb::new(64);
/// assert_eq!(total.as_mb(), 192);
/// assert_eq!(MemMb::new(2048).as_gb_f64(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MemMb(u64);

impl MemMb {
    /// The zero size.
    pub const ZERO: MemMb = MemMb(0);

    /// Creates a size from whole megabytes.
    pub const fn new(mb: u64) -> Self {
        MemMb(mb)
    }

    /// Creates a size from whole gigabytes.
    pub const fn from_gb(gb: u64) -> Self {
        MemMb(gb * 1024)
    }

    /// The size in whole megabytes.
    pub const fn as_mb(self) -> u64 {
        self.0
    }

    /// The size in fractional gigabytes (1 GB = 1024 MB).
    pub fn as_gb_f64(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// Whether this is the zero size.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: MemMb) -> MemMb {
        MemMb(self.0.saturating_sub(rhs.0))
    }

    /// Memory-time product accumulated while `self` megabytes sit idle
    /// for `dur`: the fundamental waste quantum (§4.2 of the paper).
    pub fn idle_for(self, dur: Micros) -> GbSeconds {
        GbSeconds(self.as_gb_f64() * dur.as_secs_f64())
    }
}

impl Add for MemMb {
    type Output = MemMb;
    fn add(self, rhs: MemMb) -> MemMb {
        MemMb(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for MemMb {
    fn add_assign(&mut self, rhs: MemMb) {
        *self = *self + rhs;
    }
}

impl Sub for MemMb {
    type Output = MemMb;
    fn sub(self, rhs: MemMb) -> MemMb {
        MemMb(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for MemMb {
    fn sub_assign(&mut self, rhs: MemMb) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for MemMb {
    type Output = MemMb;
    fn mul(self, rhs: u64) -> MemMb {
        MemMb(self.0.saturating_mul(rhs))
    }
}

impl Sum for MemMb {
    fn sum<I: Iterator<Item = MemMb>>(iter: I) -> MemMb {
        iter.fold(MemMb::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for MemMb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 && self.0.is_multiple_of(256) {
            write!(f, "{:.2}GB", self.as_gb_f64())
        } else {
            write!(f, "{}MB", self.0)
        }
    }
}

/// Integrated memory waste in gigabyte-seconds.
///
/// This is an accumulator, not a size: it is produced by
/// [`MemMb::idle_for`] and summed over idle intervals.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct GbSeconds(f64);

impl GbSeconds {
    /// The zero accumulator.
    pub const ZERO: GbSeconds = GbSeconds(0.0);

    /// Creates a value from raw gigabyte-seconds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is negative or NaN.
    pub fn new(v: f64) -> Self {
        debug_assert!(v.is_finite() && v >= 0.0, "waste must be finite and >= 0");
        GbSeconds(v)
    }

    /// The raw gigabyte-second value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Add for GbSeconds {
    type Output = GbSeconds;
    fn add(self, rhs: GbSeconds) -> GbSeconds {
        GbSeconds(self.0 + rhs.0)
    }
}

impl AddAssign for GbSeconds {
    fn add_assign(&mut self, rhs: GbSeconds) {
        *self = *self + rhs;
    }
}

impl Sum for GbSeconds {
    fn sum<I: Iterator<Item = GbSeconds>>(iter: I) -> GbSeconds {
        iter.fold(GbSeconds::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for GbSeconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} GB*s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_convert() {
        assert_eq!(MemMb::from_gb(2).as_mb(), 2048);
        assert_eq!(MemMb::new(512).as_gb_f64(), 0.5);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(MemMb::new(1) - MemMb::new(5), MemMb::ZERO);
        assert_eq!(MemMb::new(1).saturating_sub(MemMb::new(5)), MemMb::ZERO);
    }

    #[test]
    fn idle_integration() {
        // 1 GB idle for 10 s = 10 GB*s.
        let w = MemMb::from_gb(1).idle_for(Micros::from_secs(10));
        assert!((w.value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn waste_accumulates() {
        let mut acc = GbSeconds::ZERO;
        acc += MemMb::new(1024).idle_for(Micros::from_secs(1));
        acc += MemMb::new(1024).idle_for(Micros::from_secs(2));
        assert!((acc.value() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", MemMb::new(100)), "100MB");
        assert_eq!(format!("{}", MemMb::from_gb(2)), "2.00GB");
    }

    #[test]
    fn sums() {
        let total: MemMb = [MemMb::new(1), MemMb::new(2)].into_iter().sum();
        assert_eq!(total, MemMb::new(3));
        let w: GbSeconds = [GbSeconds::new(1.0), GbSeconds::new(2.5)].into_iter().sum();
        assert!((w.value() - 3.5).abs() < 1e-12);
    }
}
