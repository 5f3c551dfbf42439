//! Simulator configuration: worker memory budget, determinism seed,
//! contention model, and the optional checkpoint extension of §7.8.

use rainbowcake_core::error::ConfigError;
use rainbowcake_core::mem::MemMb;
use rainbowcake_core::time::Micros;

/// The checkpoint/restore extension (§7.8, CRIU through the Docker
/// checkpoint API in the paper's prototype).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointConfig {
    /// Fraction of each install stage's latency paid when restoring from
    /// a checkpoint instead of initializing from scratch (the paper
    /// measures a 36% average startup reduction; a restore factor around
    /// 0.5 reproduces that once warm starts are mixed in).
    pub restore_factor: f64,
    /// Size of the cached checkpoint image per function, as a fraction of
    /// the function's `User`-layer footprint. Image memory is resident
    /// from a function's first invocation to the end of the experiment
    /// and is accounted as never-hit waste (the paper reports +15% total
    /// memory waste).
    pub image_overhead: f64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            restore_factor: 0.5,
            image_overhead: 0.1,
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Container-pool memory budget of the worker (the paper's worker
    /// has 240 GB; Fig. 12d sweeps 40-280 GB).
    pub memory_capacity: MemMb,
    /// RNG seed; together with the trace it fully determines a run.
    pub seed: u64,
    /// Extra specialization latency paid when an invocation lands on a
    /// re-packed shared container (Pagurus-style zygote hand-off).
    pub packed_specialize: Micros,
    /// Fraction of the user-load stage paid when re-forking a
    /// SEUSS-style user snapshot.
    pub snapshot_restore_frac: f64,
    /// Lognormal execution-time jitter (profiles carry the CV); disable
    /// for fully deterministic latency experiments.
    pub exec_jitter: bool,
    /// Strength of the transition-overhead contention model (Fig. 13):
    /// transitions are inflated by `1 + coeff * concurrent_inits / 1000`.
    pub contention_coeff: f64,
    /// Relative jitter applied to transition overheads (Fig. 13 shows
    /// small fluctuations; 0 disables).
    pub transition_jitter: f64,
    /// Optional checkpoint/restore support (§7.8).
    pub checkpoint: Option<CheckpointConfig>,
    /// Aggregate invocation metrics on the fly (bounded memory) instead
    /// of keeping every record. Per-record outputs (fig binaries, JSON
    /// byte-identity) need the default exact path.
    pub streaming_metrics: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            memory_capacity: MemMb::from_gb(240),
            seed: 0xCAFE,
            packed_specialize: Micros::from_millis(40),
            snapshot_restore_frac: 0.3,
            exec_jitter: true,
            contention_coeff: 0.6,
            transition_jitter: 0.15,
            checkpoint: None,
            streaming_metrics: false,
        }
    }
}

impl SimConfig {
    /// A convenience config with a specific memory budget.
    pub fn with_memory(capacity: MemMb) -> Self {
        SimConfig {
            memory_capacity: capacity,
            ..SimConfig::default()
        }
    }

    /// A fully deterministic config (no execution or transition jitter).
    pub fn deterministic(seed: u64) -> Self {
        SimConfig {
            seed,
            exec_jitter: false,
            transition_jitter: 0.0,
            ..SimConfig::default()
        }
    }

    /// Checks the numeric knobs that scale simulated latencies and
    /// memory, which [`crate::run`] requires:
    ///
    /// * `contention_coeff` is finite and non-negative;
    /// * `transition_jitter` lies in `[0, 1)`, so a jittered overhead
    ///   stays positive;
    /// * `snapshot_restore_frac` lies in `[0, 1]`;
    /// * the checkpoint factors, if any, are finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first knob out of range.
    /// NaN is out of every range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        const NON_NEGATIVE: &str = "finite and non-negative";
        let out_of_range = |name: &str, value: f64, range: &str| {
            Err(ConfigError::new(format!(
                "SimConfig::{name} must be {range}, got {value}"
            )))
        };
        let non_negative = |v: f64| v.is_finite() && v >= 0.0;
        if !non_negative(self.contention_coeff) {
            return out_of_range("contention_coeff", self.contention_coeff, NON_NEGATIVE);
        }
        if !(0.0..1.0).contains(&self.transition_jitter) {
            return out_of_range("transition_jitter", self.transition_jitter, "in [0, 1)");
        }
        if !(0.0..=1.0).contains(&self.snapshot_restore_frac) {
            return out_of_range(
                "snapshot_restore_frac",
                self.snapshot_restore_frac,
                "in [0, 1]",
            );
        }
        if let Some(cp) = self.checkpoint {
            for (name, v) in [
                ("checkpoint.restore_factor", cp.restore_factor),
                ("checkpoint.image_overhead", cp.image_overhead),
            ] {
                if !non_negative(v) {
                    return out_of_range(name, v, NON_NEGATIVE);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_testbed() {
        let c = SimConfig::default();
        assert_eq!(c.memory_capacity, MemMb::from_gb(240));
        assert!(c.checkpoint.is_none());
    }

    #[test]
    fn builders() {
        let c = SimConfig::with_memory(MemMb::from_gb(40));
        assert_eq!(c.memory_capacity, MemMb::from_gb(40));
        let d = SimConfig::deterministic(7);
        assert!(!d.exec_jitter);
        assert_eq!(d.transition_jitter, 0.0);
        assert_eq!(d.seed, 7);
    }
}
