//! The unified cost model of §4.2 (Eq. 1) and the TTL upper bound of
//! §5.2 (Eq. 6).
//!
//! The paper combines two costs with a knob `α ∈ (0, 1)`:
//!
//! ```text
//! C = α · C_startup + (1 − α) · C_memory          (Eq. 1)
//! ```
//!
//! Startup cost is accumulated startup latency; memory cost is
//! accumulated idle memory-time. The units are **seconds** and
//! **GB·seconds** respectively — the calibration under which the paper's
//! default `α = 0.996` makes "initialization cost consistently outweigh
//! the memory waste cost" (§7.1) and under which the β bound of Eq. 6
//! produces sensible idle ceilings (a 2 s / 0.2 GB function gets
//! β ≈ 41 min).

use crate::error::ConfigError;
use crate::mem::{GbSeconds, MemMb};
use crate::time::Micros;

/// The cost knob `α` and helpers derived from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    alpha: f64,
}

impl CostModel {
    /// The paper's default knob value (§7.1).
    pub const DEFAULT_ALPHA: f64 = 0.996;

    /// Creates a cost model with knob `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Result<Self, ConfigError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(ConfigError::new(format!(
                "alpha must be in (0, 1), got {alpha}"
            )));
        }
        Ok(CostModel { alpha })
    }

    /// The knob value.
    pub fn alpha(self) -> f64 {
        self.alpha
    }

    /// Unified cost of given startup and memory-waste totals (Eq. 1).
    pub fn unified(self, startup: Micros, waste: GbSeconds) -> f64 {
        self.alpha * startup.as_secs_f64() + (1.0 - self.alpha) * waste.value()
    }

    /// The idle-time upper bound β (Eq. 6): the duration after which an
    /// idle container of footprint `mem` has wasted as much (weighted)
    /// memory cost as the (weighted) startup cost `startup` it can save.
    ///
    /// ```
    /// use rainbowcake_core::cost::CostModel;
    /// use rainbowcake_core::mem::MemMb;
    /// use rainbowcake_core::time::Micros;
    ///
    /// let m = CostModel::default();
    /// let beta = m.beta(Micros::from_secs(2), MemMb::new(205));
    /// // alpha = 0.996: the bound sits in the tens of minutes.
    /// assert!(beta > Micros::from_mins(30) && beta < Micros::from_mins(60));
    /// ```
    pub fn beta(self, startup: Micros, mem: MemMb) -> Micros {
        let gb = mem.as_gb_f64();
        if gb <= 0.0 {
            // A zero-footprint container wastes nothing; never bound it.
            return Micros::MAX;
        }
        let secs = self.alpha * startup.as_secs_f64() / ((1.0 - self.alpha) * gb);
        Micros::from_secs_f64(secs)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alpha: Self::DEFAULT_ALPHA,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_validated() {
        assert!(CostModel::new(0.0).is_err());
        assert!(CostModel::new(1.0).is_err());
        assert!(CostModel::new(-0.5).is_err());
        assert!(CostModel::new(f64::NAN).is_err());
        assert!(CostModel::new(0.5).is_ok());
    }

    #[test]
    fn unified_is_convex_combination() {
        let m = CostModel::new(0.25).unwrap();
        let c = m.unified(Micros::from_secs(8), GbSeconds::new(4.0));
        assert!((c - (0.25 * 8.0 + 0.75 * 4.0)).abs() < 1e-9);
    }

    #[test]
    fn beta_balances_the_two_costs() {
        // At idle time beta, alpha * t == (1 - alpha) * m * beta.
        let m = CostModel::new(0.9).unwrap();
        let t = Micros::from_secs(3);
        let mem = MemMb::from_gb(1);
        let beta = m.beta(t, mem);
        let lhs = 0.9 * t.as_secs_f64();
        let rhs = 0.1 * mem.as_gb_f64() * beta.as_secs_f64();
        assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn beta_monotonicity() {
        let m = CostModel::default();
        let mem = MemMb::new(200);
        // Longer startup => longer allowed idle.
        assert!(m.beta(Micros::from_secs(4), mem) > m.beta(Micros::from_secs(1), mem));
        // Heavier container => shorter allowed idle.
        assert!(
            m.beta(Micros::from_secs(2), MemMb::new(400))
                < m.beta(Micros::from_secs(2), MemMb::new(100))
        );
        // Larger alpha (valuing startup more) => longer allowed idle.
        let lo = CostModel::new(0.990).unwrap();
        let hi = CostModel::new(0.999).unwrap();
        assert!(hi.beta(Micros::from_secs(2), mem) > lo.beta(Micros::from_secs(2), mem));
    }

    #[test]
    fn beta_of_weightless_container_is_unbounded() {
        let m = CostModel::default();
        assert_eq!(m.beta(Micros::from_secs(1), MemMb::ZERO), Micros::MAX);
    }
}
