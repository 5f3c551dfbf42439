//! The benchmark's workloads.
//!
//! Each workload is an open-loop arrival schedule in *simulated* time:
//! the Azure-like synthesizer, seeded from `--seed`, replayed lazily into
//! the production sharded pipeline with one shard. The four workloads
//! stress different layers, so that an optimisation of one layer has a
//! workload that exercises it and one that bypasses it.

use rainbowcake_core::mem::MemMb;
use rainbowcake_core::profile::Catalog;
use rainbowcake_sim::SimConfig;
use rainbowcake_trace::azure::AzureConfig;
use rainbowcake_workloads::{paper_catalog, synthetic_catalog};

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the benchmark has it (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Policy name as `rainbowcake_bench::make_policy` knows it.
    pub policy: &'static str,
    /// Catalog size: 20 is the paper catalog, any other size a
    /// `synthetic_catalog` of that many functions.
    pub functions: usize,
    /// Pool memory of the single shard, in GB.
    pub memory_gb: u64,
    /// Simulated trace length in hours.
    pub hours: u64,
    /// Azure-like synthesizer rate scale.
    pub rate_scale: f64,
    /// Distinct traces one pass runs, each from its own sub-seed of
    /// `--seed`. Pooling several traces keeps a run's numbers from
    /// hanging on one draw of the synthesizer's per-function rates.
    pub traces: u64,
}

/// Every workload, in the order the default command runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rc-paper",
        why: "RainbowCake, 20-function paper catalog, 240 GB, 8 Azure-like traces of 12 h at 6x: \
              ladder, pre-warm and history work (~32 terms/inv) with no memory pressure",
        policy: "RainbowCake",
        functions: 20,
        memory_gb: 240,
        hours: 12,
        rate_scale: 6.0,
        traces: 8,
    },
    Workload {
        name: "ow-keepalive",
        why: "OpenWhisk fixed keep-alive, paper catalog, 240 GB, 8 traces of 12 h at 12x: the \
              policy does almost nothing, so engine, event queue and handoff are the cost",
        policy: "OpenWhisk",
        functions: 20,
        memory_gb: 240,
        hours: 12,
        rate_scale: 12.0,
        traces: 8,
    },
    Workload {
        name: "rc-pressure",
        why: "RainbowCake, paper catalog, 10 GB, 8 traces of 12 h at 6x: eviction and the \
              admission queue are hot, where the other workloads evict nothing",
        policy: "RainbowCake",
        functions: 20,
        memory_gb: 10,
        hours: 12,
        rate_scale: 6.0,
        traces: 8,
    },
    Workload {
        name: "rc-wide",
        why: "RainbowCake, 1000-function synthetic catalog, 240 GB, 8 traces of 12 h at 0.05x: \
              history scans visit ~1,100 terms/inv instead of ~32, so policy dominates",
        policy: "RainbowCake",
        functions: 1000,
        memory_gb: 240,
        hours: 12,
        rate_scale: 0.05,
        traces: 8,
    },
];

/// The workload named `name`, if any.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The deployed functions.
    pub fn catalog(&self) -> Catalog {
        if self.functions == 20 {
            paper_catalog()
        } else {
            synthetic_catalog(self.functions)
        }
    }

    /// The seed of trace `k` of a pass under `--seed seed`, for both
    /// the synthesizer and the simulator: `seed * traces + k`, distinct
    /// for every `(seed, k)` pair.
    pub fn trace_seed(&self, seed: u64, k: u64) -> u64 {
        seed.wrapping_mul(self.traces).wrapping_add(k)
    }

    /// Synthesizer settings for one trace.
    pub fn azure(&self, trace_seed: u64) -> AzureConfig {
        AzureConfig {
            hours: self.hours,
            seed: trace_seed,
            rate_scale: self.rate_scale,
        }
    }

    /// Shard settings for one trace: production defaults plus this
    /// workload's memory, the trace's seed, and the constant-memory
    /// metrics path the streaming pipeline is built for.
    pub fn sim_config(&self, trace_seed: u64) -> SimConfig {
        SimConfig {
            memory_capacity: MemMb::from_gb(self.memory_gb),
            seed: trace_seed,
            streaming_metrics: true,
            ..SimConfig::default()
        }
    }
}
