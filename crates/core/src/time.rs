//! Simulation time: instants and durations with microsecond resolution.
//!
//! The whole workspace measures time as unsigned microseconds since the
//! start of a simulation. Two newtypes keep instants and durations from
//! being confused ([C-NEWTYPE]): [`Instant`] is a point on the simulation
//! clock, [`Micros`] is a span between two points.
//!
//! ```
//! use rainbowcake_core::time::{Instant, Micros};
//!
//! let t0 = Instant::ZERO;
//! let t1 = t0 + Micros::from_millis(250);
//! assert_eq!(t1.duration_since(t0), Micros::from_millis(250));
//! assert_eq!(Micros::from_millis(250).as_secs_f64(), 0.25);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time, stored as whole microseconds.
///
/// `Micros` is the only duration type used across the workspace; layer
/// install latencies, TTLs, inter-arrival times, and execution times are
/// all expressed with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Micros(u64);

impl Micros {
    /// The zero-length duration.
    pub const ZERO: Micros = Micros(0);
    /// The longest representable duration; used as an "effectively
    /// forever" TTL by policies that never expire containers.
    pub const MAX: Micros = Micros(u64::MAX);

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Micros(us)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Micros(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Micros(s * 1_000_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        Micros(m * 60 * 1_000_000)
    }

    /// Creates a duration from fractional seconds, saturating at
    /// [`Micros::MAX`] and flooring negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return Micros::ZERO;
        }
        let us = s * 1e6;
        if us >= u64::MAX as f64 {
            Micros::MAX
        } else {
            Micros(us as u64)
        }
    }

    /// Creates a duration from fractional milliseconds (saturating).
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Returns the number of whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the duration in fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Whether this is the zero-length duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs` is larger.
    pub fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition (clamps at [`Micros::MAX`]).
    pub fn saturating_add(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_add(rhs.0))
    }

    /// Multiplies the duration by a non-negative factor, saturating.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `factor` is negative or NaN.
    pub fn mul_f64(self, factor: f64) -> Micros {
        debug_assert!(factor >= 0.0, "duration factor must be non-negative");
        Micros::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Micros) -> Micros {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Micros) -> Micros {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        *self = *self + rhs;
    }
}

impl Sub for Micros {
    type Output = Micros;
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Micros {
    fn sub_assign(&mut self, rhs: Micros) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Micros {
    type Output = Micros;
    fn mul(self, rhs: u64) -> Micros {
        Micros(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Micros {
    type Output = Micros;
    fn div(self, rhs: u64) -> Micros {
        Micros(self.0 / rhs)
    }
}

impl Sum for Micros {
    fn sum<I: Iterator<Item = Micros>>(iter: I) -> Micros {
        iter.fold(Micros::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 60_000_000 {
            write!(f, "{:.2}min", self.as_mins_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{:.3}ms", self.as_millis_f64())
        }
    }
}

/// A point on the simulation clock, measured in microseconds since the
/// start of the run.
///
/// Instants are totally ordered and only support arithmetic with
/// [`Micros`]; adding two instants is (intentionally) not expressible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

impl Instant {
    /// The origin of the simulation clock.
    pub const ZERO: Instant = Instant(0);
    /// The latest representable instant; an "unbounded" time limit.
    pub const MAX: Instant = Instant(u64::MAX);

    /// Creates an instant a given number of microseconds after the origin.
    pub const fn from_micros(us: u64) -> Self {
        Instant(us)
    }

    /// Microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the origin.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional minutes since the origin (handy for timeline buckets).
    pub fn as_mins_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is
    /// actually later.
    pub fn duration_since(self, earlier: Instant) -> Micros {
        Micros(self.0.saturating_sub(earlier.0))
    }

    /// The index of the whole minute this instant falls in.
    pub fn minute_bucket(self) -> usize {
        (self.0 / 60_000_000) as usize
    }
}

impl Add<Micros> for Instant {
    type Output = Instant;
    fn add(self, rhs: Micros) -> Instant {
        Instant(self.0.saturating_add(rhs.as_micros()))
    }
}

impl AddAssign<Micros> for Instant {
    fn add_assign(&mut self, rhs: Micros) {
        *self = *self + rhs;
    }
}

impl Sub<Micros> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Micros) -> Instant {
        Instant(self.0.saturating_sub(rhs.as_micros()))
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Micros(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Micros::from_millis(3).as_micros(), 3_000);
        assert_eq!(Micros::from_secs(2).as_millis_f64(), 2_000.0);
        assert_eq!(Micros::from_mins(1).as_secs_f64(), 60.0);
        assert_eq!(Micros::from_secs_f64(0.5).as_micros(), 500_000);
    }

    #[test]
    fn from_secs_f64_clamps_pathological_inputs() {
        assert_eq!(Micros::from_secs_f64(-1.0), Micros::ZERO);
        assert_eq!(Micros::from_secs_f64(f64::NAN), Micros::ZERO);
        assert_eq!(Micros::from_secs_f64(f64::INFINITY), Micros::MAX);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Micros::from_secs(1) - Micros::from_secs(2), Micros::ZERO);
        assert_eq!(Micros::MAX + Micros::from_secs(1), Micros::MAX);
        assert_eq!(Micros::MAX * 3, Micros::MAX);
    }

    #[test]
    fn instant_duration_since_saturates() {
        let a = Instant::from_micros(10);
        let b = Instant::from_micros(30);
        assert_eq!(b.duration_since(a), Micros::from_micros(20));
        assert_eq!(a.duration_since(b), Micros::ZERO);
    }

    #[test]
    fn minute_bucket_boundaries() {
        assert_eq!(Instant::ZERO.minute_bucket(), 0);
        assert_eq!(Instant::from_micros(59_999_999).minute_bucket(), 0);
        assert_eq!(Instant::from_micros(60_000_000).minute_bucket(), 1);
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(Micros::from_secs(10).mul_f64(0.5), Micros::from_secs(5));
        assert_eq!(Micros::from_secs(1).mul_f64(0.0), Micros::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Micros::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Micros::from_secs(5)), "5.000s");
        assert_eq!(format!("{}", Micros::from_mins(5)), "5.00min");
    }

    #[test]
    fn ordering_and_min_max() {
        let a = Micros::from_millis(1);
        let b = Micros::from_millis(2);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn sum_of_durations() {
        let total: Micros = [Micros::from_secs(1), Micros::from_secs(2)]
            .into_iter()
            .sum();
        assert_eq!(total, Micros::from_secs(3));
    }
}
