//! One trace through the production pipeline,
//! `rainbowcake_sim::cluster::run_cluster_streaming` with one shard:
//! the calling thread synthesizes and routes, one shard thread runs the
//! engine. The traced form wraps the policy, the router and the arrival
//! iterator from outside; nothing inside the library changes.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant as HostInstant;

use rainbowcake_bench::make_policy;
use rainbowcake_core::policy::Policy;
use rainbowcake_core::profile::Catalog;
use rainbowcake_metrics::RunReport;
use rainbowcake_sim::cluster::{run_cluster_streaming, LocalitySharingLoad, Router, ShardedRun};
use rainbowcake_sim::SimConfig;
use rainbowcake_trace::azure::{azure_like_stream, AzureStream};
use rainbowcake_trace::Arrival;

use crate::alloc;
use crate::host;
use crate::stats::fnv64;
use crate::traced::{Acc, PolicyTotals, Root, TracedArrivals, TracedPolicy, TracedRouter};
use crate::workload::Workload;

/// Shards the pipeline runs: one, so the router and the shard each have
/// a core of a two-core host and the numbers measure the simulator, not
/// the scheduler.
pub const SHARDS: usize = 1;

/// What the traced form measured on one trace.
#[derive(Debug, Default)]
pub struct Layers {
    /// `ReplayIter::next` spans.
    pub trace: Acc,
    /// `Router::route` spans.
    pub route: Acc,
    /// Policy hook spans and shard-thread allocations.
    pub policy: PolicyTotals,
    /// Allocations in the whole process during the pipeline.
    pub allocs: u64,
}

/// One trace's run.
#[derive(Debug)]
pub struct TraceRun {
    /// Host seconds to set the trace up: build its catalog, synthesize
    /// its stream, configure its shard, and replay its first arrival,
    /// which is where the pipeline starts.
    pub setup_s: f64,
    /// Host wall seconds inside `run_cluster_streaming`.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads) over the same
    /// interval.
    pub cpu_s: f64,
    /// Arrivals the stream holds inside the horizon.
    pub expected: u64,
    /// Arrivals the router assigned (Σ `assigned`).
    pub arrivals: u64,
    /// Invocations the shard completed.
    pub completed: u64,
    /// The pipeline's own observability (CPU split, events, history).
    pub sharded: ShardedRun,
    /// `ClusterReport::merged` of the run.
    pub merged: RunReport,
    /// Host milliseconds `ClusterReport::merged` took.
    pub merge_ms: f64,
    /// Host milliseconds `ClusterReport::to_json` took.
    pub encode_ms: f64,
    /// Length of the report JSON.
    pub report_bytes: usize,
    /// FNV-64 of the report JSON: equal digests mean equal simulations.
    pub digest: u64,
    /// Present on traced runs.
    pub layers: Option<Layers>,
}

impl TraceRun {
    /// Whether the run accounted for every arrival: the router assigned
    /// exactly the stream, and the shard completed no more than that.
    pub fn ledger_balances(&self) -> bool {
        self.arrivals == self.expected && self.completed <= self.arrivals
    }

    /// Arrivals the pipeline did not complete.
    pub fn failed(&self) -> u64 {
        self.arrivals.saturating_sub(self.completed)
    }
}

/// A trace's inputs: the set-up `setup_s` times.
struct Inputs {
    catalog: Catalog,
    stream: AzureStream,
    config: SimConfig,
}

impl Inputs {
    fn new(w: &Workload, trace_seed: u64) -> Self {
        let catalog = w.catalog();
        let stream = azure_like_stream(catalog.len(), &w.azure(trace_seed));
        Inputs {
            catalog,
            stream,
            config: w.sim_config(trace_seed),
        }
    }

    /// Runs the pipeline over `arrivals`; returns the run and its wall
    /// and process CPU seconds.
    fn drive(
        &self,
        arrivals: impl Iterator<Item = Arrival>,
        factory: &(dyn Fn() -> Box<dyn Policy> + Sync),
        router: &mut dyn Router,
    ) -> (ShardedRun, f64, f64) {
        let cpu_started = host::process_cpu_s();
        let started = HostInstant::now();
        let sharded = run_cluster_streaming(
            &self.catalog,
            factory,
            arrivals,
            self.stream.horizon(),
            SHARDS,
            &self.config,
            router,
        );
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_s() - cpu_started;
        (sharded, wall_s, cpu_s)
    }
}

/// Runs trace `trace_seed` of workload `w`, traced or not.
pub fn run_trace(w: &Workload, trace_seed: u64, traced: bool) -> TraceRun {
    let setup_started = HostInstant::now();
    let inputs = Inputs::new(w, trace_seed);
    std::hint::black_box(inputs.stream.iter().next());
    let setup_s = setup_started.elapsed().as_secs_f64();
    let (catalog, stream) = (&inputs.catalog, &inputs.stream);

    let (sharded, wall_s, cpu_s, layers) = if traced {
        let trace = Cell::new(Acc::default());
        let route = Cell::new(Acc::default());
        let sink = Arc::new(Mutex::new(PolicyTotals::default()));
        let factory = || {
            Box::new(TracedPolicy::new(
                make_policy(w.policy, catalog),
                Arc::clone(&sink),
            )) as Box<dyn Policy>
        };
        alloc::set_counting(true);
        let allocs_started = alloc::total_allocs();
        let root = Root::open("router");
        let mut router = TracedRouter::new(LocalitySharingLoad::default(), &route, &root);
        let arrivals = TracedArrivals::new(stream.iter(), &trace, &root);
        let (sharded, wall_s, cpu_s) = inputs.drive(arrivals, &factory, &mut router);
        root.close();
        let allocs = alloc::total_allocs() - allocs_started;
        alloc::set_counting(false);
        let policy = std::mem::take(&mut *sink.lock().expect("no shard panicked"));
        let layers = Layers {
            trace: trace.get(),
            route: route.get(),
            policy,
            allocs,
        };
        (sharded, wall_s, cpu_s, Some(layers))
    } else {
        let factory = || make_policy(w.policy, catalog);
        let mut router = LocalitySharingLoad::default();
        let (sharded, wall_s, cpu_s) = inputs.drive(stream.iter(), &factory, &mut router);
        (sharded, wall_s, cpu_s, None)
    };

    let merge_started = HostInstant::now();
    let merged = sharded.report.merged();
    let merge_ms = merge_started.elapsed().as_secs_f64() * 1e3;
    let encode_started = HostInstant::now();
    let json = sharded.report.to_json();
    let encode_ms = encode_started.elapsed().as_secs_f64() * 1e3;

    TraceRun {
        setup_s,
        wall_s,
        cpu_s,
        expected: stream.total(),
        arrivals: sharded.report.assigned.iter().sum::<usize>() as u64,
        completed: sharded.report.completed() as u64,
        merged,
        merge_ms,
        encode_ms,
        report_bytes: json.len(),
        digest: fnv64(json.as_bytes()),
        sharded,
        layers,
    }
}
