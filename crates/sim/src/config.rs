//! Simulator configuration: worker memory budget, determinism seed,
//! jitter switch, and the optional checkpoint extension of §7.8.
//!
//! The modelled platform costs the paper fixes once are constants here
//! (and, for the Fig. 13 contention model, in [`crate::concurrency`]),
//! not settings: every experiment runs them at one value.

use rainbowcake_core::mem::MemMb;
use rainbowcake_core::time::Micros;

/// Extra specialization latency paid when an invocation lands on a
/// re-packed shared container (Pagurus-style zygote hand-off).
pub const PACKED_SPECIALIZE: Micros = Micros::from_millis(40);

/// Fraction of the user-load stage paid when re-forking a SEUSS-style
/// user snapshot.
pub const SNAPSHOT_RESTORE_FRAC: f64 = 0.3;

/// Under checkpointing (§7.8, CRIU through the Docker checkpoint API in
/// the paper's prototype), the fraction of each install stage's latency
/// paid when restoring from a checkpoint instead of initializing from
/// scratch. The paper measures a 36% average startup reduction; a factor
/// of 0.5 reproduces that once warm starts are mixed in.
pub const CHECKPOINT_RESTORE_FACTOR: f64 = 0.5;

/// Under checkpointing, the cached checkpoint image per function as a
/// fraction of its `User`-layer footprint. Image memory is resident from
/// a function's first invocation to the end of the experiment and is
/// accounted as never-hit waste (the paper reports +15% total memory
/// waste).
pub const CHECKPOINT_IMAGE_OVERHEAD: f64 = 0.1;

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Container-pool memory budget of the worker (the paper's worker
    /// has 240 GB; Fig. 12d sweeps 40-280 GB).
    pub memory_capacity: MemMb,
    /// RNG seed; together with the trace it fully determines a run.
    /// With `jitter` off the engine draws nothing, so the seed does not
    /// matter.
    pub seed: u64,
    /// Random execution-time jitter (lognormal, from each profile's CV)
    /// and transition-overhead jitter (the Fig. 13 fluctuation,
    /// [`crate::concurrency::TRANSITION_JITTER`]); disable for fully
    /// deterministic latency experiments.
    pub jitter: bool,
    /// Checkpoint/restore support (§7.8): cold installs restore at
    /// [`CHECKPOINT_RESTORE_FACTOR`] of their latency, and each invoked
    /// function holds a [`CHECKPOINT_IMAGE_OVERHEAD`] image.
    pub checkpoint: bool,
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
            jitter: true,
            checkpoint: false,
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
            jitter: false,
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_testbed() {
        let c = SimConfig::default();
        assert_eq!(c.memory_capacity, MemMb::from_gb(240));
        assert!(c.jitter);
        assert!(!c.checkpoint);
    }

    #[test]
    fn builders() {
        let c = SimConfig::with_memory(MemMb::from_gb(40));
        assert_eq!(c.memory_capacity, MemMb::from_gb(40));
        let d = SimConfig::deterministic(7);
        assert!(!d.jitter);
        assert_eq!(d.seed, 7);
    }
}
