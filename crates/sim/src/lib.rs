//! # rainbowcake-sim
//!
//! A deterministic discrete-event simulator of a serverless worker node,
//! substituting for the OpenWhisk/Docker/EC2 testbed of the RainbowCake
//! paper (see DESIGN.md). It models:
//!
//! * the layered container life cycle of Fig. 5 with per-stage install
//!   latencies and per-layer memory footprints;
//! * a memory-budgeted container pool with policy-directed eviction and
//!   FIFO admission queueing under pressure;
//! * pre-warm timers, keep-alive timeouts, layer downgrades, container
//!   re-packing, and attach-to-in-flight-init ("Load") starts;
//! * concurrency-dependent inter-transition overheads (Fig. 13); and
//! * the checkpoint/restore extension of §7.8.
//!
//! The entry point is [`engine::run`]:
//!
//! ```
//! use rainbowcake_core::rainbow::RainbowCake;
//! use rainbowcake_sim::{run, SimConfig};
//! use rainbowcake_trace::azure::{azure_like_trace, AzureConfig};
//! use rainbowcake_workloads::paper_catalog;
//!
//! # fn main() -> Result<(), rainbowcake_core::error::ConfigError> {
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
//! assert!(report.records.len() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod concurrency;
pub mod config;
pub mod container;
pub mod engine;
pub mod event;
pub mod pool;
pub mod tiered;

pub use config::SimConfig;
pub use engine::{run, EngineProfile, PlacementStats};
