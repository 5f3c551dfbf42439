//! # rainbowcake
//!
//! A Rust reproduction of *RainbowCake: Mitigating Cold-starts in
//! Serverless with Layer-wise Container Caching and Sharing* (Yu et
//! al., ASPLOS 2024), together with the full substrate needed to
//! evaluate it: a deterministic serverless-platform simulator, the
//! paper's 20-function workload, Azure-style trace synthesis, five
//! baseline policies, and metrics.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`core`] — the RainbowCake policy, history recorder, cost model,
//!   layered container lifecycle, and the policy trait;
//! * [`workloads`] — the calibrated 20-function catalog (Table 1);
//! * [`trace`] — trace synthesis and replay;
//! * [`sim`] — the discrete-event platform simulator;
//! * [`policies`] — OpenWhisk-default, Histogram, FaasCache, SEUSS, and
//!   Pagurus baselines;
//! * [`metrics`] — invocation records, waste accounting, reports.
//!
//! ## Quickstart
//!
//! ```
//! use rainbowcake::prelude::*;
//!
//! # fn main() -> Result<(), rainbowcake::core::error::ConfigError> {
//! let catalog = paper_catalog();
//! let trace = azure_like_trace(catalog.len(), &AzureConfig { hours: 1, ..AzureConfig::default() });
//! let mut policy = RainbowCake::with_defaults(&catalog)?;
//! let report = run(
//!     &catalog,
//!     &mut policy,
//!     trace.iter().copied(),
//!     trace.horizon(),
//!     &SimConfig::default(),
//!     None,
//! );
//! println!("{} invocations, {} cold starts, {} wasted",
//!          report.records.len(), report.cold_starts(), report.total_waste());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rainbowcake_core as core;
pub use rainbowcake_metrics as metrics;
pub use rainbowcake_policies as policies;
pub use rainbowcake_sim as sim;
pub use rainbowcake_trace as trace;
pub use rainbowcake_workloads as workloads;

/// One-stop imports for the common experiment workflow.
pub mod prelude {
    pub use rainbowcake_core::cost::CostModel;
    pub use rainbowcake_core::mem::MemMb;
    pub use rainbowcake_core::policy::Policy;
    pub use rainbowcake_core::profile::{Catalog, FunctionProfile};
    pub use rainbowcake_core::rainbow::{RainbowCake, RainbowConfig, RainbowVariant};
    pub use rainbowcake_core::time::{Instant, Micros};
    pub use rainbowcake_core::types::{FunctionId, Language, Layer};
    pub use rainbowcake_metrics::{RunReport, StartType};
    pub use rainbowcake_policies::{FaasCache, Histogram, OpenWhiskDefault, Pagurus, Seuss};
    pub use rainbowcake_sim::{run, SimConfig};
    pub use rainbowcake_trace::azure::{azure_like_trace, AzureConfig};
    pub use rainbowcake_trace::cv::{cv_trace, CvTraceConfig};
    pub use rainbowcake_trace::{Arrival, Trace};
    pub use rainbowcake_workloads::{paper_catalog, synthetic_catalog};
}
