//! Multi-worker clusters and inter-node scheduling (§8, "RainbowCake on
//! distributed clusters").
//!
//! The paper sketches an inter-node scheduler built on three factors:
//!
//! 1. **Locality** — prefer a node with a fully warmed (`User`)
//!    container of the function;
//! 2. **Sharing** — otherwise prefer a node with layer-sharing
//!    opportunity (`Lang`/`Bare`);
//! 3. **Load** — spread work to avoid contention.
//!
//! This module implements that scheduler (plus round-robin and
//! least-loaded baselines) as a *routing* layer: arrivals are routed
//! online using an approximate warmth/load view of each worker, the
//! per-worker sub-traces are then executed exactly by the single-node
//! engine, and the reports are aggregated. Routing state is approximate
//! by design — a real cluster's router also works on stale summaries
//! rather than the workers' exact pool contents.
//!
//! Execution comes in two shapes with **byte-identical** results:
//!
//! * [`run_cluster_streaming`] — the pipeline every experiment runs:
//!   the caller streams arrivals, the router feeds bounded per-shard
//!   queues, and each worker engine runs on its own OS thread. Peak
//!   memory is bounded by the channel depth instead of the trace length,
//!   and the per-worker reports merge in worker-index order.
//! * [`run_cluster`] — the sequential reference the streaming pipeline
//!   is checked against: materialize each worker's sub-trace, run the
//!   workers one after another on the calling thread.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::thread;

use rainbowcake_core::history::HistoryStats;
use rainbowcake_core::policy::Policy;
use rainbowcake_core::profile::Catalog;
use rainbowcake_core::time::{Instant, Micros};
use rainbowcake_core::types::{FunctionId, Language};
use rainbowcake_metrics::{RunReport, StreamingSummary, WasteTracker};
use rainbowcake_trace::{Arrival, Trace};

use crate::config::SimConfig;
use crate::engine::{run, EngineProfile};

/// Identifies a worker node in the cluster.
pub type WorkerId = usize;

/// The router's (approximate) view of one worker.
#[derive(Debug, Clone)]
pub struct WorkerView {
    /// Last time each function ran on this worker (None = never).
    last_run: Vec<Option<Instant>>,
    /// Last time each language ran on this worker.
    last_lang: [Option<Instant>; 3],
    /// Arrivals routed to this worker within the sliding load window,
    /// in routing order. Routing time is monotone, so this deque stays
    /// sorted ascending and expires from the front.
    recent: VecDeque<Instant>,
}

impl WorkerView {
    fn new(functions: usize) -> Self {
        WorkerView {
            last_run: vec![None; functions],
            last_lang: [None; 3],
            recent: VecDeque::new(),
        }
    }

    /// Whether `f` ran here within `window` of `now` (the locality
    /// signal: a warm `User` container is likely still alive).
    pub fn warm_for(&self, f: FunctionId, now: Instant, window: Micros) -> bool {
        self.last_run[f.index()]
            .map(|t| now.duration_since(t) <= window)
            .unwrap_or(false)
    }

    /// Whether any same-language function ran here within `window` (the
    /// sharing signal: a `Lang` container is likely available).
    pub fn lang_warm(&self, language: Language, now: Instant, window: Micros) -> bool {
        self.last_lang[language.index()]
            .map(|t| now.duration_since(t) <= window)
            .unwrap_or(false)
    }

    /// Number of arrivals routed here within the last minute (the load
    /// signal). `recent` is sorted, so this is a binary search, not a
    /// scan.
    pub fn load(&self, now: Instant) -> usize {
        let cutoff = now - Micros::from_mins(1);
        self.recent.len() - self.recent.partition_point(|&t| t < cutoff)
    }

    fn record(&mut self, f: FunctionId, language: Language, now: Instant) {
        self.last_run[f.index()] = Some(now);
        self.last_lang[language.index()] = Some(now);
        let cutoff = now - Micros::from_mins(1);
        while self.recent.front().is_some_and(|&t| t < cutoff) {
            self.recent.pop_front();
        }
        self.recent.push_back(now);
    }
}

/// An inter-node routing strategy.
pub trait Router {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Chooses the worker for an arrival of `f` at `now`.
    ///
    /// `views` is never empty; the returned index must be in range.
    fn route(
        &mut self,
        now: Instant,
        f: FunctionId,
        language: Language,
        views: &[WorkerView],
    ) -> WorkerId;
}

/// Baseline: route arrivals in a fixed cycle, ignoring state.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates the router.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "RoundRobin"
    }
    fn route(&mut self, _: Instant, _: FunctionId, _: Language, views: &[WorkerView]) -> WorkerId {
        let w = self.next % views.len();
        self.next = self.next.wrapping_add(1);
        w
    }
}

/// Baseline: always route to the worker with the fewest recent arrivals.
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl LeastLoaded {
    /// Creates the router.
    pub fn new() -> Self {
        LeastLoaded
    }
}

impl Router for LeastLoaded {
    fn name(&self) -> &'static str {
        "LeastLoaded"
    }
    fn route(
        &mut self,
        now: Instant,
        _: FunctionId,
        _: Language,
        views: &[WorkerView],
    ) -> WorkerId {
        views
            .iter()
            .enumerate()
            .min_by_key(|(i, v)| (v.load(now), *i))
            .map(|(i, _)| i)
            .expect("views is non-empty")
    }
}

/// How long after a run [`LocalitySharingLoad`] presumes a node warm for
/// the function.
const WARM_WINDOW: Micros = Micros::from_mins(5);

/// How long after a run [`LocalitySharingLoad`] presumes a node holds a
/// Lang layer of the function's language.
const LANG_WINDOW: Micros = Micros::from_mins(15);

/// How many more recent arrivals than the least-loaded node a warm node
/// may have and still win on warmth.
const LOAD_SLACK: usize = 12;

/// The §8 scheduler: Locality first, then Sharing, then Load — with a
/// load cap so a hot node is not overloaded just because it is warm.
#[derive(Debug, Default)]
pub struct LocalitySharingLoad;

impl Router for LocalitySharingLoad {
    fn name(&self) -> &'static str {
        "Locality+Sharing+Load"
    }

    fn route(
        &mut self,
        now: Instant,
        f: FunctionId,
        language: Language,
        views: &[WorkerView],
    ) -> WorkerId {
        let min_load = views
            .iter()
            .map(|v| v.load(now))
            .min()
            .expect("views is non-empty");
        let cap = min_load + LOAD_SLACK;
        // 1) Locality.
        if let Some((i, _)) = views
            .iter()
            .enumerate()
            .filter(|(_, v)| v.warm_for(f, now, WARM_WINDOW) && v.load(now) <= cap)
            .min_by_key(|(i, v)| (v.load(now), *i))
        {
            return i;
        }
        // 2) Sharing.
        if let Some((i, _)) = views
            .iter()
            .enumerate()
            .filter(|(_, v)| v.lang_warm(language, now, LANG_WINDOW) && v.load(now) <= cap)
            .min_by_key(|(i, v)| (v.load(now), *i))
        {
            return i;
        }
        // 3) Load.
        views
            .iter()
            .enumerate()
            .min_by_key(|(i, v)| (v.load(now), *i))
            .map(|(i, _)| i)
            .expect("views is non-empty")
    }
}

/// Aggregate result of a cluster run.
#[derive(Debug)]
pub struct ClusterReport {
    /// Router used.
    pub router: &'static str,
    /// One report per worker, in worker order.
    pub workers: Vec<RunReport>,
    /// How many arrivals each worker received.
    pub assigned: Vec<usize>,
}

impl ClusterReport {
    /// Total completed invocations (exact in both record-keeping and
    /// streaming-metrics runs).
    pub fn completed(&self) -> usize {
        self.workers.iter().map(|w| w.invocations()).sum()
    }

    /// Cluster-wide cold starts.
    pub fn cold_starts(&self) -> usize {
        self.workers.iter().map(|w| w.cold_starts()).sum()
    }

    /// Cluster-wide total startup latency.
    pub fn total_startup(&self) -> Micros {
        self.workers.iter().map(|w| w.total_startup()).sum()
    }

    /// Cluster-wide memory waste.
    pub fn total_waste(&self) -> f64 {
        self.workers.iter().map(|w| w.total_waste().value()).sum()
    }

    /// Load imbalance: max/min assigned arrivals (1.0 = perfectly even).
    pub fn imbalance(&self) -> f64 {
        let max = self.assigned.iter().copied().max().unwrap_or(0) as f64;
        let min = self.assigned.iter().copied().min().unwrap_or(0).max(1) as f64;
        max / min
    }

    /// Canonical deterministic reduction of the per-worker reports into
    /// one cluster-wide [`RunReport`]: records concatenate, waste
    /// trackers and streaming summaries merge — always folded in
    /// worker-index order, so the merged report is a pure function of
    /// the per-worker reports regardless of which shard finished first.
    pub fn merged(&self) -> RunReport {
        let mut records = Vec::with_capacity(self.workers.iter().map(|w| w.records.len()).sum());
        let mut waste = WasteTracker::new();
        let mut streaming: Option<StreamingSummary> = None;
        for w in &self.workers {
            records.extend(w.records.iter().copied());
            waste.merge(&w.waste);
            if let Some(s) = &w.streaming {
                match &mut streaming {
                    Some(acc) => acc.merge(s),
                    None => streaming = Some(s.clone()),
                }
            }
        }
        RunReport {
            policy: self
                .workers
                .first()
                .map(|w| w.policy.clone())
                .unwrap_or_default(),
            records,
            waste,
            streaming,
        }
    }

    /// Encodes the full cluster result — router, assignment counts, and
    /// every per-worker report — as one line of deterministic JSON.
    /// Two cluster runs serialize identically iff they made the same
    /// routing decisions and every worker measured the same run, so
    /// comparing `to_json` outputs is an exact equality check between
    /// the sharded and sequential pipelines.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.workers.len() * 256);
        out.push_str("{\"router\":");
        out.push_str(&rainbowcake_metrics::json::escape_str(self.router));
        out.push_str(",\"assigned\":[");
        for (i, a) in self.assigned.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&a.to_string());
        }
        out.push_str("],\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&w.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// Arrivals per cross-thread channel message in the sharded pipeline:
/// large enough to amortize channel synchronization, small enough that
/// in-flight chunks stay cache-friendly.
const SHARD_CHUNK: usize = 4096;
/// Bounded channel depth, in chunks. Caps the router's lead over a slow
/// shard so peak RSS stays flat no matter how long the trace is:
/// at most `SHARD_CHUNK * (SHARD_CHANNEL_DEPTH + 2)` arrivals are ever
/// buffered per shard.
const SHARD_CHANNEL_DEPTH: usize = 4;

/// CPU seconds (user + system) consumed so far by the *calling thread*,
/// read from `/proc/thread-self/stat`. Returns `None` off Linux or when
/// `/proc` is unavailable; callers fall back to wall-clock then.
///
/// The two tick counts follow the comm field, whose parenthesized value
/// may itself contain spaces, so parsing anchors on the last `')'`.
/// Ticks are `USER_HZ` (100 on every mainstream Linux configuration —
/// the kernel ABI fixes the /proc unit independently of the scheduler
/// tick).
fn thread_cpu_s() -> Option<f64> {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // comm and pid are behind us; state is field 3, utime/stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 of `rest`.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// CPU seconds the calling thread spent between `start` (a prior
/// [`thread_cpu_s`] reading) and now, or `None` when unavailable.
fn thread_cpu_since(start: Option<f64>) -> Option<f64> {
    Some(thread_cpu_s()? - start?)
}

/// Result of [`run_cluster_streaming`]: the deterministic report plus
/// wall-clock observability of the pipeline (which carries no
/// simulation state and is excluded from [`ClusterReport::to_json`]).
#[derive(Debug)]
pub struct ShardedRun {
    /// The cluster result — byte-identical to the sequential pipeline.
    pub report: ClusterReport,
    /// Wall-clock seconds each shard thread spent inside its engine
    /// (includes time blocked waiting on the router's feed).
    pub shard_busy_s: Vec<f64>,
    /// CPU seconds (user + system) each shard thread consumed —
    /// excludes time blocked on the feed or descheduled, so it measures
    /// the shard's actual compute even when shards outnumber cores.
    /// Falls back to the wall-clock figure when thread CPU accounting
    /// is unavailable (non-Linux).
    pub shard_cpu_s: Vec<f64>,
    /// Wall-clock seconds the router thread spent consuming the arrival
    /// stream, routing, and feeding shard queues (includes time blocked
    /// on full channels).
    pub route_s: f64,
    /// CPU seconds the router thread consumed (same accounting as
    /// [`ShardedRun::shard_cpu_s`]).
    pub route_cpu_s: f64,
    /// Per-shard engine profiles: event counts per kind, completed
    /// invocations, event-queue work and history-recorder counters.
    pub shard_profiles: Vec<EngineProfile>,
}

impl ShardedRun {
    /// History-recorder counters ([`Policy::history_stats`]) summed
    /// across shards; zeroed for policies without a recorder.
    pub fn history(&self) -> HistoryStats {
        let mut total = HistoryStats::default();
        for p in &self.shard_profiles {
            total.merge(&p.history);
        }
        total
    }

    /// Engine profiles merged across shards — the source of the
    /// pipeline's events-per-invocation figure.
    pub fn profile(&self) -> EngineProfile {
        let mut total = EngineProfile::default();
        for p in &self.shard_profiles {
            total.merge(p);
        }
        total
    }
}

/// Runs a cluster as a streaming sharded pipeline: the calling thread
/// routes arrivals online (exactly like [`run_cluster`]) and feeds each
/// worker's subsequence over a bounded channel to a dedicated OS thread
/// running that worker's engine via [`run`] with an [`EngineProfile`].
///
/// Compared to [`run_cluster`] this (a) executes the workers
/// concurrently and (b) never materializes per-worker arrival vectors —
/// peak memory is bounded by the channel depth, not the trace length —
/// while producing a [`ClusterReport`] that is **byte-identical** to
/// the sequential pipeline on the same arrival stream:
///
/// * the router sees arrivals in the same order with the same views, so
///   the assignment is identical;
/// * each worker's engine receives its assigned subsequence in sorted
///   order — exactly the sub-trace the sequential reference runs;
/// * per-worker reports are collected by worker index, not completion
///   order, so the report (and any [`ClusterReport::merged`] reduction)
///   is deterministic.
///
/// `arrivals` must be sorted by `(time, function)` — the order both
/// [`Trace`] iteration and the streaming synthesizers produce — and is
/// clipped to `horizon` like [`Trace::from_arrivals`]. `make_policy` is
/// called once per shard *on the shard's thread*; it must produce
/// identical policies regardless of call order (policy construction
/// from a shared catalog is pure in every §7.1 baseline).
///
/// # Panics
///
/// Panics if `workers` is zero, the router returns an out-of-range
/// worker, or a shard thread panics.
pub fn run_cluster_streaming(
    catalog: &Catalog,
    make_policy: &(dyn Fn() -> Box<dyn Policy> + Sync),
    arrivals: impl Iterator<Item = Arrival>,
    horizon: Micros,
    workers: usize,
    per_worker: &SimConfig,
    router: &mut dyn Router,
) -> ShardedRun {
    assert!(workers > 0, "cluster needs at least one worker");
    let mut views: Vec<WorkerView> = (0..workers)
        .map(|_| WorkerView::new(catalog.len()))
        .collect();
    let mut assigned = vec![0usize; workers];
    let mut reports = Vec::with_capacity(workers);
    let mut shard_busy_s = vec![0.0f64; workers];
    let mut shard_cpu_s = vec![0.0f64; workers];
    let mut shard_profiles = vec![EngineProfile::default(); workers];
    let mut route_s = 0.0f64;
    let mut route_cpu_s = 0.0f64;
    thread::scope(|s| {
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::sync_channel::<Vec<Arrival>>(SHARD_CHANNEL_DEPTH);
            senders.push(tx);
            handles.push(s.spawn(move || {
                let mut policy = make_policy();
                let started = std::time::Instant::now();
                let cpu_started = thread_cpu_s();
                let mut profile = EngineProfile::default();
                let report = run(
                    catalog,
                    policy.as_mut(),
                    rx.into_iter().flatten(),
                    horizon,
                    per_worker,
                    Some(&mut profile),
                );
                let busy = started.elapsed().as_secs_f64();
                let cpu = thread_cpu_since(cpu_started).unwrap_or(busy);
                (report, busy, cpu, profile)
            }));
        }
        let route_started = std::time::Instant::now();
        let route_cpu_started = thread_cpu_s();
        let mut chunks: Vec<Vec<Arrival>> = (0..workers)
            .map(|_| Vec::with_capacity(SHARD_CHUNK))
            .collect();
        let horizon_at = Instant::ZERO + horizon;
        for a in arrivals.take_while(|a| a.time <= horizon_at) {
            let language = catalog.profile(a.function).language;
            let w = router.route(a.time, a.function, language, &views);
            assert!(w < workers, "router returned an out-of-range worker");
            views[w].record(a.function, language, a.time);
            assigned[w] += 1;
            chunks[w].push(a);
            if chunks[w].len() >= SHARD_CHUNK {
                let full = std::mem::replace(&mut chunks[w], Vec::with_capacity(SHARD_CHUNK));
                senders[w]
                    .send(full)
                    .expect("shard thread hung up mid-stream");
            }
        }
        for (chunk, tx) in chunks.into_iter().zip(&senders) {
            if !chunk.is_empty() {
                tx.send(chunk).expect("shard thread hung up mid-stream");
            }
        }
        // Close every channel so the shard engines see end-of-stream.
        drop(senders);
        route_s = route_started.elapsed().as_secs_f64();
        route_cpu_s = thread_cpu_since(route_cpu_started).unwrap_or(route_s);
        for (w, handle) in handles.into_iter().enumerate() {
            let (report, busy, cpu, profile) = handle.join().expect("shard thread panicked");
            reports.push(report);
            shard_busy_s[w] = busy;
            shard_cpu_s[w] = cpu;
            shard_profiles[w] = profile;
        }
    });
    ShardedRun {
        report: ClusterReport {
            router: router.name(),
            workers: reports,
            assigned,
        },
        shard_busy_s,
        shard_cpu_s,
        route_s,
        route_cpu_s,
        shard_profiles,
    }
}

/// The sequential reference for [`run_cluster_streaming`]: routes
/// `trace` across `workers` nodes with `router`, then executes each
/// worker's sub-trace with a fresh policy from `make_policy`, one worker
/// after another on the calling thread. Memory grows with the trace.
/// The cluster identity tests and `stress --smoke` / `--identity` check
/// that the streaming pipeline reproduces its report byte for byte.
///
/// # Panics
///
/// Panics if `workers` is zero or the router returns an out-of-range
/// worker.
pub fn run_cluster(
    catalog: &Catalog,
    make_policy: &mut dyn FnMut() -> Box<dyn Policy>,
    trace: &Trace,
    workers: usize,
    per_worker: &SimConfig,
    router: &mut dyn Router,
) -> ClusterReport {
    assert!(workers > 0, "cluster needs at least one worker");
    let mut views: Vec<WorkerView> = (0..workers)
        .map(|_| WorkerView::new(catalog.len()))
        .collect();
    let mut sub: Vec<Vec<Arrival>> = vec![Vec::new(); workers];
    for a in trace.iter() {
        let language = catalog.profile(a.function).language;
        let w = router.route(a.time, a.function, language, &views);
        assert!(w < workers, "router returned an out-of-range worker");
        views[w].record(a.function, language, a.time);
        sub[w].push(*a);
    }
    let assigned: Vec<usize> = sub.iter().map(Vec::len).collect();
    let workers_reports = sub
        .into_iter()
        .map(|arrivals| {
            let mut policy = make_policy();
            run(
                catalog,
                policy.as_mut(),
                arrivals,
                trace.horizon(),
                per_worker,
                None,
            )
        })
        .collect();
    ClusterReport {
        router: router.name(),
        workers: workers_reports,
        assigned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainbowcake_core::rainbow::RainbowCake;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for lang in [Language::Python, Language::Python, Language::Java] {
            c.push(rainbowcake_core::profile::FunctionProfile::synthetic(
                FunctionId::new(0),
                lang,
            ));
        }
        c
    }

    fn trace(catalog: &Catalog) -> Trace {
        // Each function fires every 30 s for 20 minutes.
        let mut arrivals = Vec::new();
        for p in catalog.iter() {
            for i in 0..40u64 {
                arrivals.push(Arrival {
                    time: Instant::from_micros((i * 30 + p.id.index() as u64) * 1_000_000),
                    function: p.id,
                });
            }
        }
        Trace::from_arrivals(Micros::from_mins(20), arrivals)
    }

    fn sparse_trace(catalog: &Catalog) -> Trace {
        // Each function fires every 5 minutes for 2 hours: warm under a
        // 10-minute keep-alive only if its stream is not split.
        let mut arrivals = Vec::new();
        for p in catalog.iter() {
            for i in 0..24u64 {
                arrivals.push(Arrival {
                    time: Instant::from_micros((i * 300 + p.id.index() as u64) * 1_000_000),
                    function: p.id,
                });
            }
        }
        Trace::from_arrivals(Micros::from_mins(120), arrivals)
    }

    fn policy_factory(catalog: &Catalog) -> impl FnMut() -> Box<dyn Policy> + '_ {
        move || Box::new(RainbowCake::with_defaults(catalog).expect("valid")) as Box<dyn Policy>
    }

    /// A fixed 10-minute keep-alive policy (OpenWhisk-style), local to
    /// the tests so the sim crate does not depend on the policies crate.
    struct FixedKeepAlive;

    impl Policy for FixedKeepAlive {
        fn name(&self) -> &'static str {
            "FixedKeepAlive"
        }
        fn on_idle(
            &mut self,
            _: &rainbowcake_core::policy::PolicyCtx<'_>,
            _: &rainbowcake_core::policy::ContainerView,
        ) -> Micros {
            Micros::from_mins(10)
        }
        fn on_timeout(
            &mut self,
            _: &rainbowcake_core::policy::PolicyCtx<'_>,
            _: &rainbowcake_core::policy::ContainerView,
        ) -> rainbowcake_core::policy::TimeoutDecision {
            rainbowcake_core::policy::TimeoutDecision::Terminate
        }
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let c = catalog();
        let t = trace(&c);
        let mut factory = policy_factory(&c);
        let report = run_cluster(
            &c,
            &mut factory,
            &t,
            3,
            &SimConfig::deterministic(1),
            &mut RoundRobin::new(),
        );
        assert_eq!(report.completed(), t.len());
        assert!(report.imbalance() < 1.1, "imbalance {}", report.imbalance());
    }

    #[test]
    fn locality_router_concentrates_functions() {
        // A fixed 10-minute keep-alive stays warm at 5-minute gaps only
        // if each function's stream lands on one node; blind rotation
        // over 4 workers stretches per-node gaps to 20 minutes. The
        // router's 5-minute warm window still covers a 5-minute gap.
        let c = catalog();
        let t = sparse_trace(&c);
        let mut ow_factory = || Box::new(FixedKeepAlive) as Box<dyn Policy>;
        let mut router = LocalitySharingLoad;
        let report = run_cluster(
            &c,
            &mut ow_factory,
            &t,
            4,
            &SimConfig::deterministic(1),
            &mut router,
        );
        assert_eq!(report.completed(), t.len());
        let mut ow_factory = || Box::new(FixedKeepAlive) as Box<dyn Policy>;
        let rr = run_cluster(
            &c,
            &mut ow_factory,
            &t,
            4,
            &SimConfig::deterministic(1),
            &mut RoundRobin::new(),
        );
        assert!(
            report.cold_starts() * 3 < rr.cold_starts(),
            "locality {} vs round-robin {}",
            report.cold_starts(),
            rr.cold_starts()
        );
    }

    #[test]
    fn least_loaded_balances() {
        let c = catalog();
        let t = trace(&c);
        let mut factory = policy_factory(&c);
        let report = run_cluster(
            &c,
            &mut factory,
            &t,
            4,
            &SimConfig::deterministic(1),
            &mut LeastLoaded::new(),
        );
        assert_eq!(report.completed(), t.len());
        // The one-minute load window is coarse at this arrival rate, so
        // allow some skew — but every worker must receive real work.
        assert!(report.imbalance() < 3.0, "imbalance {}", report.imbalance());
        assert!(report.assigned.iter().all(|&a| a > 10));
    }

    #[test]
    fn worker_views_track_warmth_and_load() {
        let mut v = WorkerView::new(2);
        let f = FunctionId::new(0);
        let t0 = Instant::from_micros(0);
        assert!(!v.warm_for(f, t0, Micros::from_mins(5)));
        v.record(f, Language::Python, t0);
        let t1 = t0 + Micros::from_mins(3);
        assert!(v.warm_for(f, t1, Micros::from_mins(5)));
        assert!(v.lang_warm(Language::Python, t1, Micros::from_mins(5)));
        assert!(!v.lang_warm(Language::Java, t1, Micros::from_mins(5)));
        let t2 = t0 + Micros::from_mins(10);
        assert!(!v.warm_for(f, t2, Micros::from_mins(5)));
        assert_eq!(v.load(t0 + Micros::from_secs(30)), 1);
        assert_eq!(v.load(t2), 0);
    }

    /// At every shard count, the threaded streaming pipeline must be an
    /// exact drop-in for the sequential reference: same routing, same
    /// per-worker runs, same serialized bytes.
    #[test]
    fn sharded_streaming_matches_sequential_at_every_shard_count() {
        let c = catalog();
        let t = trace(&c);
        let factory =
            || Box::new(RainbowCake::with_defaults(&c).expect("valid")) as Box<dyn Policy>;
        for shards in [1usize, 2, 4, 8] {
            for streaming_metrics in [false, true] {
                let config = SimConfig {
                    streaming_metrics,
                    ..SimConfig::deterministic(1)
                };
                let mut fac = policy_factory(&c);
                let seq = run_cluster(&c, &mut fac, &t, shards, &config, &mut LocalitySharingLoad);
                let sharded = run_cluster_streaming(
                    &c,
                    &factory,
                    t.iter().copied(),
                    t.horizon(),
                    shards,
                    &config,
                    &mut LocalitySharingLoad,
                );
                assert_eq!(sharded.report.assigned, seq.assigned, "{shards} shards");
                assert_eq!(
                    sharded.report.to_json(),
                    seq.to_json(),
                    "{shards} shards (streaming_metrics: {streaming_metrics})"
                );
                assert_eq!(sharded.shard_busy_s.len(), shards);
            }
        }
    }

    /// The worker-order merge must reproduce the cluster-level
    /// aggregates the per-worker accessors report.
    #[test]
    fn merged_report_reduces_worker_aggregates() {
        let c = catalog();
        let t = trace(&c);
        let factory =
            || Box::new(RainbowCake::with_defaults(&c).expect("valid")) as Box<dyn Policy>;
        let config = SimConfig {
            streaming_metrics: true,
            ..SimConfig::deterministic(1)
        };
        let sharded = run_cluster_streaming(
            &c,
            &factory,
            t.iter().copied(),
            t.horizon(),
            4,
            &config,
            &mut RoundRobin::new(),
        );
        let report = sharded.report;
        let merged = report.merged();
        assert_eq!(merged.invocations(), report.completed());
        assert_eq!(merged.cold_starts(), report.cold_starts());
        assert_eq!(merged.total_startup(), report.total_startup());
        assert!((merged.total_waste().value() - report.total_waste()).abs() < 1e-9);
        // Merging is worker-index ordered, hence reproducible.
        assert_eq!(merged.to_json(), report.merged().to_json());
    }

    /// A shard's history counters come from its engine profile, so a
    /// one-shard run reports exactly what a direct profiled `run` of the
    /// same trace does.
    #[test]
    fn one_shard_history_matches_a_direct_run() {
        let c = catalog();
        let t = trace(&c);
        let config = SimConfig::deterministic(1);
        let factory =
            || Box::new(RainbowCake::with_defaults(&c).expect("valid")) as Box<dyn Policy>;
        let sharded = run_cluster_streaming(
            &c,
            &factory,
            t.iter().copied(),
            t.horizon(),
            1,
            &config,
            &mut RoundRobin::new(),
        );
        let mut profile = EngineProfile::default();
        let mut policy = factory();
        run(
            &c,
            policy.as_mut(),
            t.iter().copied(),
            t.horizon(),
            &config,
            Some(&mut profile),
        );
        let history = sharded.history();
        assert!(history.queries > 0, "{history:?}");
        assert_eq!(history, profile.history);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let c = catalog();
        let t = trace(&c);
        let mut factory = policy_factory(&c);
        let _ = run_cluster(
            &c,
            &mut factory,
            &t,
            0,
            &SimConfig::deterministic(1),
            &mut RoundRobin::new(),
        );
    }
}
