//! # rainbowcake-core
//!
//! Core library of a Rust reproduction of *RainbowCake: Mitigating
//! Cold-starts in Serverless with Layer-wise Container Caching and
//! Sharing* (Yu et al., ASPLOS 2024).
//!
//! RainbowCake splits a serverless container into three layers — **Bare**
//! (infrastructure), **Lang** (language runtime), and **User** (deployment
//! package) — and keeps each layer alive for its own, sharing-aware TTL.
//! Lower layers are lighter and shareable across more functions; higher
//! layers save more startup latency but are specialized. This crate
//! provides:
//!
//! * the domain vocabulary: [`types`], [`time`], [`mem`], function
//!   [`profile`]s and the [`profile::Catalog`];
//! * the container life-cycle state machine of the paper's Fig. 5
//!   ([`lifecycle`]);
//! * the unified cost model of Eq. 1 and the β idle bound of Eq. 6
//!   ([`cost`]);
//! * the sharing-aware History Recorder of §5.1 ([`history`]);
//! * the platform/policy contract ([`policy`]); and
//! * the RainbowCake policy itself with its ablation variants
//!   ([`rainbow`]).
//!
//! The discrete-event platform that drives policies lives in
//! `rainbowcake-sim`; baseline policies live in `rainbowcake-policies`.
//!
//! ## Quick taste
//!
//! ```
//! use rainbowcake_core::prelude::*;
//!
//! # fn main() -> Result<(), rainbowcake_core::error::ConfigError> {
//! let mut catalog = Catalog::new();
//! let f = catalog.push(FunctionProfile::synthetic(FunctionId::new(0), Language::Python));
//!
//! let mut policy = RainbowCake::with_defaults(&catalog)?;
//! let ctx = PolicyCtx { now: Instant::ZERO, catalog: &catalog };
//! // The first arrival trains the recorder; later arrivals schedule
//! // pre-warms one predicted inter-arrival time ahead (Algorithm 1).
//! let response = policy.on_arrival(&ctx, f);
//! assert!(response.prewarm.is_none());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod error;
pub mod history;
pub mod lifecycle;
pub mod mem;
pub mod policy;
pub mod profile;
pub mod rainbow;
pub mod time;
pub mod types;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::cost::CostModel;
    pub use crate::history::{HistoryRecorder, ShareScope};
    pub use crate::lifecycle::{LifecycleEvent, LifecycleState};
    pub use crate::mem::{GbSeconds, MemMb};
    pub use crate::policy::{
        ArrivalResponse, ContainerView, Policy, PolicyCtx, PrewarmDecision, PrewarmRequest,
        ReuseClass, ReuseScope, TimeoutDecision,
    };
    pub use crate::profile::{Catalog, FunctionProfile};
    pub use crate::rainbow::{RainbowCake, RainbowConfig, RainbowVariant};
    pub use crate::time::{Instant, Micros};
    pub use crate::types::{ContainerId, Domain, FunctionId, Language, Layer};
}
