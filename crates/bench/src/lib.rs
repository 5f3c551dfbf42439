//! # rainbowcake-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! RainbowCake paper. Each `src/bin/*.rs` binary reproduces one
//! table/figure (see DESIGN.md §4 for the index); `benches/` holds
//! criterion micro-benchmarks that each isolate one component across
//! policies: decision overhead, the history recorder, compound-rate
//! queries and eviction. Whole runs are timed by simbench.
//!
//! Independent experiment runs fan out across threads through
//! [`parallel`]; `bin/stress` checks the streaming cluster's byte
//! identity and flat memory at scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parallel;
pub mod suite;

pub use parallel::{run_jobs, run_jobs_on, run_policies, worker_threads};
pub use suite::{
    fn_avg_e2e_s, fn_avg_startup_ms, headline_rows, make_policy, print_table, reduction_pct,
    render_table, Testbed, BASELINE_NAMES, HEADLINE_COLUMNS,
};
