//! The discrete-event simulation engine: drives a [`Policy`] against an
//! invocation trace on one worker node and produces a
//! [`RunReport`].
//!
//! The engine owns all platform mechanics — container creation, layer
//! installs with contention-dependent transition overheads, memory
//! budgeting with policy-directed eviction, FIFO admission queueing under
//! memory pressure, keep-alive timers, pre-warm timers, and exact waste
//! accounting — while every *decision* (TTLs, downgrade vs. terminate,
//! reuse eligibility, victims, pre-warm targets) is delegated to the
//! policy, mirroring the OpenWhisk split described in §6.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;

use rainbowcake_core::history::HistoryStats;
use rainbowcake_core::lifecycle::LifecycleEvent;
use rainbowcake_core::mem::MemMb;
use rainbowcake_core::policy::{
    ContainerView, Policy, PolicyCtx, PrewarmDecision, ReuseClass, ReuseScope, TimeoutDecision,
    TtlLadder,
};
use rainbowcake_core::profile::{Catalog, FunctionProfile};
use rainbowcake_core::time::{Instant, Micros};
use rainbowcake_core::types::{ContainerId, FunctionId, Layer};
use rainbowcake_metrics::{IdleOutcome, InvocationRecord, MetricsCollector, RunReport, StartType};
use rainbowcake_trace::samplers::{lognormal_from_params, lognormal_params};
use rainbowcake_trace::Arrival;

use crate::concurrency::transition_overhead;
use crate::config::{
    SimConfig, CHECKPOINT_IMAGE_OVERHEAD, CHECKPOINT_RESTORE_FACTOR, PACKED_SPECIALIZE,
    SNAPSHOT_RESTORE_FRAC,
};
use crate::container::{AssignedInvocation, Container, LadderState};
use crate::event::{Event, EventKind, EventQueue, QueueStats};
use crate::pool::{IdleList, Pool};

/// A scheduled ladder-boundary settlement: `(boundary, arm_seq, id,
/// epoch)`. `arm_seq` is a monotone counter stamped when the entry is
/// pushed; since entries are pushed at exactly the sites the eager chain
/// pushes its rung events, draining the heap in `(boundary, arm_seq)`
/// order reproduces the eager chain's firing order — which keeps the
/// f64 waste accumulation order (and thus the report bytes) identical.
type SettleEntry = Reverse<(Instant, u64, ContainerId, u64)>;

/// Ticks between the pool-coherence checks of debug builds.
#[cfg(debug_assertions)]
const COHERENCE_CHECK_TICKS: u64 = 4_096;

/// An invocation waiting for admission (memory pressure).
#[derive(Debug, Clone, Copy)]
struct QueuedInvocation {
    function: FunctionId,
    arrival: Instant,
}

/// One way of starting an invocation, considered by `try_place`.
#[derive(Debug, Clone, Copy)]
enum Placement {
    Reuse(ContainerId, ReuseClass),
    Attach(ContainerId),
    Cold,
}

/// Runs `policy` against a stream of `arrivals` up to `horizon` and
/// returns the measured report.
///
/// `arrivals` must be sorted by `(time, function)` — the order
/// `Trace::from_arrivals` and the streaming synthesizers produce — and
/// is clipped to `horizon` exactly as `from_arrivals` clips. They are
/// consumed lazily, so the engine's memory footprint is independent of
/// trace length; a caller holding a `Trace` passes
/// `trace.iter().copied(), trace.horizon()`.
///
/// With `profile`, the run adds its dispatched events per kind, its
/// completed invocations, its placement and event-queue work counters
/// and the policy's history counters to it. Profiling reads no clock and
/// never changes the report.
///
/// The run is fully deterministic given the catalog, arrivals, config,
/// and the policy's own state.
///
/// # Panics
///
/// Panics if an arrival's time is earlier than the arrival before it
/// (within the horizon): the stream must be time-sorted.
pub fn run(
    catalog: &Catalog,
    policy: &mut dyn Policy,
    arrivals: impl IntoIterator<Item = Arrival>,
    horizon: Micros,
    config: &SimConfig,
    profile: Option<&mut EngineProfile>,
) -> RunReport {
    Engine::new(catalog, policy, config, horizon).run(arrivals, profile)
}

/// [`run`] on the eager per-rung ladder timer chain: every rung boundary
/// gets its own `LadderWake`, armed as the rung before it settles. It is
/// the oracle the lazy, timer-free ladder schedule must match byte for
/// byte.
#[cfg(test)]
pub(crate) fn run_eager(
    catalog: &Catalog,
    policy: &mut dyn Policy,
    arrivals: impl IntoIterator<Item = Arrival>,
    horizon: Micros,
    config: &SimConfig,
    profile: Option<&mut EngineProfile>,
) -> RunReport {
    let mut engine = Engine::new(catalog, policy, config, horizon);
    engine.eager_chain = true;
    engine.run(arrivals, profile)
}

/// Index of an event kind in [`EngineProfile`]'s arrays.
fn kind_rank(kind: &EventKind) -> usize {
    match kind {
        EventKind::Arrival { .. } => 0,
        EventKind::InitComplete { .. } => 1,
        EventKind::ExecComplete { .. } => 2,
        EventKind::IdleTimeout { .. } => 3,
        EventKind::PrewarmFire { .. } => 4,
        EventKind::LadderWake => 5,
    }
}

/// Exact counts of the engine's placement work: the attempts to start
/// an invocation, the idle containers they read as reuse candidates,
/// and the startup latencies they priced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Placement attempts: one per arrival, plus one per retry of a
    /// queued invocation.
    pub calls: u64,
    /// Idle-list entries read while choosing reuse candidates (under
    /// `ReuseScope::All`, the idle views scanned).
    pub entries_read: u64,
    /// Placement options whose startup latency was computed.
    pub options_priced: u64,
}

impl PlacementStats {
    /// Adds another run's counts to these.
    pub fn merge(&mut self, other: &PlacementStats) {
        self.calls += other.calls;
        self.entries_read += other.entries_read;
        self.options_priced += other.options_priced;
    }
}

/// Exact work counts from a profiled [`run`]: events handled per kind,
/// completed invocations, and the placement, event-queue and history
/// recorder counters. Every field is a host-independent count.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineProfile {
    /// Events handled, indexed like [`EngineProfile::KIND_NAMES`].
    pub counts: [u64; 6],
    /// Invocations the profiled runs completed (for
    /// [`Self::events_per_invocation`]).
    pub invocations: u64,
    /// History-recorder query counters, if the policy keeps a recorder
    /// ([`Policy::history_stats`]); zeroed otherwise.
    pub history: HistoryStats,
    /// Event-queue work counters (pushes, cascade moves, deferred
    /// re-arms).
    pub queue: QueueStats,
    /// Placement work counters (attempts, candidates read, options
    /// priced).
    pub placement: PlacementStats,
}

impl EngineProfile {
    /// Display names for the six event kinds, in array order.
    pub const KIND_NAMES: [&'static str; 6] = [
        "Arrival",
        "InitComplete",
        "ExecComplete",
        "IdleTimeout",
        "PrewarmFire",
        "LadderWake",
    ];

    /// Merges another profile into this one (for multi-worker runs).
    pub fn merge(&mut self, other: &EngineProfile) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
        self.invocations += other.invocations;
        self.history.merge(&other.history);
        self.queue.merge(&other.queue);
        self.placement.merge(&other.placement);
    }

    /// Total events across all kinds.
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Dispatched events per completed invocation — the timer-pressure
    /// figure of merit the lazy ladder path exists to shrink. Zero when
    /// no invocation completed.
    pub fn events_per_invocation(&self) -> f64 {
        if self.invocations == 0 {
            return 0.0;
        }
        self.total_events() as f64 / self.invocations as f64
    }
}

struct Engine<'a> {
    catalog: &'a Catalog,
    config: &'a SimConfig,
    policy: &'a mut dyn Policy,
    pool: Pool,
    events: EventQueue,
    rng: StdRng,
    metrics: MetricsCollector,
    /// Pending ladder-boundary settlements, earliest first (see
    /// [`SettleEntry`]). Entries go stale the same way timer events do
    /// (epoch bump / removal) and are validated against the container's
    /// live ladder state before settling.
    settle: BinaryHeap<SettleEntry>,
    /// Monotone stamp for [`SettleEntry`] ordering.
    settle_seq: u64,
    /// Earliest `LadderWake` currently in the event queue, if any —
    /// wakes keep the admission queue draining at ladder boundaries
    /// while memory pressure holds invocations back.
    wake_armed: Option<Instant>,
    pending: VecDeque<QueuedInvocation>,
    horizon: Instant,
    first_arrival: Vec<Option<Instant>>,
    /// First catalog profile per language (downgrade-footprint anchor),
    /// precomputed so the downgrade path never scans the catalog.
    anchor_by_lang: [Option<&'a FunctionProfile>; 3],
    /// Per-function lognormal `(mu, sigma)` for execution-time jitter
    /// (dense by `FunctionId`; `None` when the profile's cv is zero),
    /// precomputed so `sample_exec` never recomputes the transform.
    exec_params: Vec<Option<(f64, f64)>>,
    /// Per-function install latency of a cold start, all three stages
    /// at [`cold_install_factor`]: the jitter-free floor of its startup.
    cold_installs: Vec<Micros>,
    now: Instant,
    // Scratch buffers reused across arrivals so the hot path allocates
    // nothing in steady state. The view buffer serves the
    // `ReuseScope::All` scan in `try_place`, which finishes before any
    // placement runs, and eviction in `ensure_memory`, which a placement
    // calls, so its two users never nest.
    scratch_views: Vec<ContainerView>,
    scratch_options: Vec<(Micros, u8, Placement)>,
    /// Placement work, merged into the profile at the end of `run`.
    placement: PlacementStats,
    /// Events dispatched per kind (indexed like
    /// [`EngineProfile::KIND_NAMES`]), merged into the profile at the end
    /// of `run`.
    dispatched: [u64; 6],
    /// Runs the eager per-rung timer chain instead of the lazy ladder
    /// schedule; only `run_eager` sets it.
    #[cfg(test)]
    eager_chain: bool,
}

impl<'a> Engine<'a> {
    fn new(
        catalog: &'a Catalog,
        policy: &'a mut dyn Policy,
        config: &'a SimConfig,
        horizon: Micros,
    ) -> Self {
        let mut anchor_by_lang: [Option<&'a FunctionProfile>; 3] = [None; 3];
        for p in catalog.iter() {
            let slot = &mut anchor_by_lang[p.language.index()];
            if slot.is_none() {
                *slot = Some(p);
            }
        }
        let exec_params = catalog
            .iter()
            .map(|p| {
                (p.exec.cv > 0.0)
                    .then(|| lognormal_params(p.exec.mean.as_secs_f64().max(1e-6), p.exec.cv))
            })
            .collect();
        let factor = cold_install_factor(config);
        let cold_installs = catalog
            .iter()
            .map(|p| p.stages.total().mul_f64(factor))
            .collect();
        Engine {
            catalog,
            config,
            policy,
            pool: Pool::new(config.memory_capacity),
            events: EventQueue::new(),
            rng: StdRng::seed_from_u64(config.seed),
            metrics: if config.streaming_metrics {
                MetricsCollector::streaming()
            } else {
                MetricsCollector::new()
            },
            settle: BinaryHeap::new(),
            settle_seq: 0,
            wake_armed: None,
            pending: VecDeque::new(),
            horizon: Instant::ZERO + horizon,
            first_arrival: vec![None; catalog.len()],
            anchor_by_lang,
            exec_params,
            cold_installs,
            now: Instant::ZERO,
            scratch_views: Vec::new(),
            scratch_options: Vec::new(),
            placement: PlacementStats::default(),
            dispatched: [0; 6],
            #[cfg(test)]
            eager_chain: false,
        }
    }

    fn ctx(&self) -> PolicyCtx<'a> {
        PolicyCtx {
            now: self.now,
            catalog: self.catalog,
        }
    }

    /// Whether ladder boundaries get per-rung timer events (the
    /// test-only eager oracle) instead of none.
    #[cfg(test)]
    fn eager_chain(&self) -> bool {
        self.eager_chain
    }

    #[cfg(not(test))]
    fn eager_chain(&self) -> bool {
        false
    }

    /// Dispatches one tick's events in order: the tick's stream
    /// arrivals, then the queue's events in per-event pop order — see
    /// `EventQueue::drain_tick` for the argument.
    ///
    /// Ladder boundaries strictly before the tick are settled first, so
    /// every handler observes the pool exactly as the eager per-rung
    /// chain would have left it. Each event is counted by kind.
    fn dispatch_batch(&mut self, batch: &[Event]) {
        self.settle_due(self.now, false);
        for event in batch {
            self.dispatched[kind_rank(&event.kind)] += 1;
            match event.kind {
                EventKind::Arrival { function } => self.handle_arrival(function),
                EventKind::InitComplete { container, epoch } => {
                    self.handle_init_complete(container, epoch)
                }
                EventKind::ExecComplete { container } => self.handle_exec_complete(container),
                EventKind::IdleTimeout { container, epoch } => {
                    self.handle_idle_timeout(container, epoch)
                }
                EventKind::PrewarmFire { function } => self.handle_prewarm_fire(function),
                EventKind::LadderWake => self.handle_ladder_wake(),
            }
        }
    }

    /// The run loop: merges the sorted arrival stream with the event
    /// queue tick by tick, then closes the books.
    ///
    /// Arrivals never enter the queue. Each step peeks the queue only up
    /// to the next arrival's time, so its cursor never passes that
    /// arrival and the arrival's handlers may still schedule at its
    /// tick. The tick is the earlier of the two; its batch is the
    /// stream's arrivals at that tick in stream order, then the queue's
    /// events in sequence order, so an arrival is handled before every
    /// queued event sharing its microsecond.
    fn run(
        mut self,
        arrivals: impl IntoIterator<Item = Arrival>,
        mut profile: Option<&mut EngineProfile>,
    ) -> RunReport {
        let horizon = self.horizon;
        // Clip exactly as `Trace::from_arrivals` clips; the stream is
        // time-sorted, so everything past the first late arrival is out.
        let mut arrivals = arrivals
            .into_iter()
            .take_while(|a| a.time <= horizon)
            .peekable();
        let mut batch: Vec<Event> = Vec::new();
        // Debug builds re-check the pool's indices against its slab every
        // `COHERENCE_CHECK_TICKS` ticks, so checked runs exercise the
        // index oracle at scale.
        #[cfg(debug_assertions)]
        let mut ticks = 0u64;
        loop {
            #[cfg(debug_assertions)]
            {
                ticks += 1;
                if ticks.is_multiple_of(COHERENCE_CHECK_TICKS) {
                    self.pool.assert_coherent();
                }
            }
            let next_arrival = arrivals.peek().map(|a| a.time);
            if let Some(t) = next_arrival {
                // Every tick so far was at or before the arrival then
                // next, so a sorted stream never reads behind the clock.
                assert!(
                    t >= self.now,
                    "arrivals must be sorted by time: an arrival at {t} comes after simulated time {}",
                    self.now
                );
            }
            let queued = self
                .events
                .peek_time_until(next_arrival.unwrap_or(Instant::MAX));
            let Some(tick) = queued.or(next_arrival) else {
                break;
            };
            debug_assert!(tick >= self.now, "time must not run backwards");
            batch.clear();
            // Stream arrivals carry no queue sequence number: their place
            // in the batch is their order.
            while let Some(a) = arrivals.next_if(|a| a.time == tick) {
                batch.push(Event {
                    time: tick,
                    seq: 0,
                    kind: EventKind::Arrival {
                        function: a.function,
                    },
                });
            }
            if queued.is_some() {
                self.events.drain_tick(&mut batch);
            }
            self.now = tick;
            self.dispatch_batch(&batch);
        }
        if let Some(p) = profile.as_deref_mut() {
            for (total, n) in p.counts.iter_mut().zip(self.dispatched) {
                *total += n;
            }
            p.history
                .merge(&self.policy.history_stats().unwrap_or_default());
            p.queue.merge(&self.events.stats());
            p.placement.merge(&self.placement);
        }
        let report = self.finish();
        if let Some(p) = profile {
            p.invocations += report.invocations() as u64;
        }
        report
    }

    fn finish(mut self) -> RunReport {
        // Replay every outstanding ladder boundary, however far past the
        // horizon — the eager chain's rung timers all eventually fire,
        // and `record_waste` clips to the horizon either way. Settling
        // re-pushes each survivor's next boundary, so this drains to a
        // fixed point of parked (never-expiring) rungs and empties the
        // heap. No admission drain: the wake chain handled queued work
        // while the clock was still running.
        while let Some(Reverse((b, _, id, epoch))) = self.settle.pop() {
            if self.settle_entry_valid(b, id, epoch) {
                self.settle_one(id, b);
            }
        }
        // Close the books: idle containers waste memory until the end of
        // the measurement window. The pool and the waste tracker are
        // disjoint fields, so the idle containers are walked directly, in
        // id order — no intermediate collection.
        let horizon = self.horizon;
        let waste = self.metrics.waste_mut();
        for c in self.pool.idle_containers() {
            let start = c.idle_since.min(horizon);
            waste.record_interval(c.memory, start, horizon, IdleOutcome::Miss);
        }
        // Checkpoint extension (§7.8): cached checkpoint images are
        // resident from a function's first invocation onward.
        if self.config.checkpoint {
            for (i, first) in std::mem::take(&mut self.first_arrival)
                .into_iter()
                .enumerate()
            {
                if let Some(first) = first {
                    let profile = self.catalog.profile(FunctionId::new(i as u32));
                    let image = MemMb::new(
                        (profile.memory_at(Layer::User).as_mb() as f64 * CHECKPOINT_IMAGE_OVERHEAD)
                            as u64,
                    );
                    self.record_waste(image, first, horizon, IdleOutcome::Miss);
                }
            }
        }
        self.metrics.into_report(self.policy.name())
    }

    /// Records an idle interval, clipped to the measurement window.
    fn record_waste(&mut self, mem: MemMb, start: Instant, end: Instant, outcome: IdleOutcome) {
        let end = end.min(self.horizon);
        let start = start.min(end);
        self.metrics
            .waste_mut()
            .record_interval(mem, start, end, outcome);
    }

    /// A transition overhead under the current initialization
    /// concurrency (Fig. 13).
    fn contended(&mut self, base: Micros) -> Micros {
        transition_overhead(
            base,
            self.pool.initializing_count(),
            self.config.jitter,
            &mut self.rng,
        )
    }

    /// The startup of a placement option: its `floor` (the startup
    /// without transition overheads) plus one [`Engine::contended`] draw
    /// per transition it crosses. A container starting at `Bare` (a cold
    /// or `SharedBare` start) crosses all three, one at `Lang` the last
    /// two, and any other option only User→Run.
    fn price(&mut self, p: &FunctionProfile, floor: Micros, placement: Placement) -> Micros {
        let from = match placement {
            Placement::Reuse(_, ReuseClass::SharedBare) | Placement::Cold => Layer::Bare,
            Placement::Reuse(_, ReuseClass::SharedLang) => Layer::Lang,
            _ => Layer::User,
        };
        let t = &p.transitions;
        let mut startup = floor;
        if from == Layer::Bare {
            startup += self.contended(t.b_l);
        }
        if from <= Layer::Lang {
            startup += self.contended(t.l_u);
        }
        startup + self.contended(t.u_run)
    }

    /// Background initialization latency for pre-warming up to `target`
    /// (no final User→Run hand-off).
    fn prewarm_duration(&mut self, p: &FunctionProfile, target: Layer) -> Micros {
        let factor = cold_install_factor(self.config);
        let mut d = p.stages.bare.mul_f64(factor);
        if target >= Layer::Lang {
            d += self.contended(p.transitions.b_l) + p.stages.lang.mul_f64(factor);
        }
        if target >= Layer::User {
            d += self.contended(p.transitions.l_u) + p.stages.user.mul_f64(factor);
        }
        d
    }

    fn sample_exec(&mut self, p: &FunctionProfile) -> Micros {
        match self.exec_params[p.id.index()] {
            Some((mu, sigma)) if self.config.jitter => {
                Micros::from_secs_f64(lognormal_from_params(&mut self.rng, mu, sigma))
            }
            _ => p.exec.mean,
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn handle_arrival(&mut self, f: FunctionId) {
        if self.first_arrival[f.index()].is_none() {
            self.first_arrival[f.index()] = Some(self.now);
        }
        let response = self.policy.on_arrival(&self.ctx(), f);
        if let Some(req) = response.prewarm {
            self.events.push(
                self.now + req.delay,
                EventKind::PrewarmFire {
                    function: req.function,
                },
            );
        }
        if !self.try_place(f, self.now) {
            self.pending.push_back(QueuedInvocation {
                function: f,
                arrival: self.now,
            });
            // Under lazy timers the next memory release may be a ladder
            // boundary with no event of its own — arm a wake for it.
            self.arm_pending_wake();
        }
    }

    /// Attempts to start an invocation of `f` (arrived at `arrival`,
    /// admitted now). Returns false if no placement is possible under the
    /// current memory budget.
    fn try_place(&mut self, f: FunctionId, arrival: Instant) -> bool {
        // `catalog` is a shared borrow independent of `self`, so the
        // profile needs no clone — the arrival hot path allocates
        // nothing.
        let profile = self.catalog.profile(f);
        let mut options = std::mem::take(&mut self.scratch_options);
        options.clear();
        self.placement.calls += 1;

        // Idle-container reuse options sanctioned by the policy: the
        // best candidate of each reuse class, the most recently idle
        // container with the lowest id.
        //
        // The narrow reuse scopes pin down `reuse_class` completely
        // (see their contracts on `ReuseScope`), so the engine assigns
        // classes straight from the pool's per-function and per-layer
        // indices — no views are built and `reuse_class` is never
        // called. The idle lists are in idle-entry order, so a list's
        // winner is read at its head (`Pool::warmest`), and the packed
        // index is in `consider`'s order, so its winner is the first
        // entry granted; the views are offered to `consider`, which
        // compares keys explicitly. Either way the per-class winners
        // match the full `ReuseScope::All` scan over the same grants.
        let mut best: [Option<(ContainerId, Instant)>; 5] = [None; 5];
        {
            let ctx = self.ctx();
            let Engine {
                pool,
                policy,
                scratch_views,
                placement,
                ..
            } = &mut *self;
            let read = &mut placement.entries_read;
            match policy.reuse_scope() {
                ReuseScope::All => {
                    pool.idle_views_into(None, scratch_views);
                    *read += scratch_views.len() as u64;
                    for v in scratch_views.iter() {
                        if let Some(class) = policy.reuse_class(&ctx, f, v) {
                            consider(&mut best, class, v.id, v.idle_since);
                        }
                    }
                    scratch_views.clear();
                }
                ReuseScope::OwnedOrPacked => {
                    best[class_rank(ReuseClass::WarmUser) as usize] =
                        warmest(pool, IdleList::User(f), read);
                    // The packed index is in `consider`'s order, so the
                    // first entry `f` does not own wins. The owner check
                    // takes precedence in the default `reuse_class`: a
                    // container both owned by and packed with `f` is
                    // WarmUser only, never SharedPacked.
                    let packed = pool.idle_packed_ids(f).find(|&id| {
                        *read += 1;
                        pool.owner_of(id) != Some(f)
                    });
                    best[class_rank(ReuseClass::SharedPacked) as usize] =
                        packed.map(|id| (id, pool.idle_since_of(id)));
                }
                ReuseScope::Layered { user, lang, bare } => {
                    best[class_rank(user) as usize] = warmest(pool, IdleList::User(f), read);
                    if lang {
                        best[class_rank(ReuseClass::SharedLang) as usize] =
                            warmest(pool, IdleList::Lang(profile.language), read);
                    }
                    if bare {
                        best[class_rank(ReuseClass::SharedBare) as usize] =
                            warmest(pool, IdleList::Bare, read);
                    }
                }
            }
        }

        // Every option enters the table at its floor, its startup
        // without transition overheads, and is priced only when that
        // floor is the least untried `(startup, rank)` key.
        for (rank, entry) in best.iter().enumerate() {
            let Some((id, _)) = *entry else { continue };
            let class = CLASS_BY_RANK[rank];
            let floor = match class {
                ReuseClass::WarmUser => Micros::ZERO,
                ReuseClass::SnapshotUser => profile.stages.user.mul_f64(SNAPSHOT_RESTORE_FRAC),
                ReuseClass::SharedPacked => PACKED_SPECIALIZE,
                ReuseClass::SharedLang => profile.stages.user,
                ReuseClass::SharedBare => profile.stages.lang + profile.stages.user,
            };
            options.push((floor, rank as u8, Placement::Reuse(id, class)));
        }
        // Attach to an in-flight pre-warm: its floor is the wait for it.
        if let Some(c) = self.pool.earliest_attachable_init(f) {
            let floor = c.init_done_at.duration_since(self.now);
            options.push((floor, 5, Placement::Attach(c.id)));
        }
        options.push((self.cold_installs[f.index()], 6, Placement::Cold));

        // Try placements cheapest-first by repeated minimum selection
        // over the (at most 7) options instead of sorting. Ranks are
        // unique, so `(startup, rank)` keys are unique. An unpriced
        // option competes at its floor, which its startup never
        // undercuts: if a floor is the least key, that option is priced
        // and the choice made again; if a priced option is least, no
        // unpriced one can beat it. So options are tried in the order
        // pricing all of them up front gives.
        debug_assert!(options.len() <= 7, "one option per rank");
        // Bit `i` set: `options[i]` holds its floor, not its startup.
        let mut unpriced = (1u8 << options.len()) - 1;
        let mut placed = false;
        let mut tried = 0u8;
        loop {
            let mut next: Option<usize> = None;
            for (i, &(startup, rank, _)) in options.iter().enumerate() {
                if tried & (1 << i) != 0 {
                    continue;
                }
                if next.is_none_or(|j| (startup, rank) < (options[j].0, options[j].1)) {
                    next = Some(i);
                }
            }
            let Some(i) = next else { break };
            let (startup, _, placement) = options[i];
            if unpriced & (1 << i) != 0 {
                unpriced &= !(1 << i);
                options[i].0 = self.price(profile, startup, placement);
                self.placement.options_priced += 1;
                continue;
            }
            tried |= 1 << i;
            let ok = match placement {
                Placement::Reuse(id, class) => {
                    self.execute_reuse(id, class, f, profile, arrival, startup)
                }
                Placement::Attach(id) => self.execute_attach(id, profile, arrival, startup),
                Placement::Cold => self.execute_cold(f, profile, arrival, startup),
            };
            if ok {
                placed = true;
                break;
            }
        }
        options.clear();
        self.scratch_options = options;
        placed
    }

    fn make_assignment(
        &mut self,
        profile: &FunctionProfile,
        arrival: Instant,
        startup: Micros,
        start_type: StartType,
    ) -> AssignedInvocation {
        AssignedInvocation {
            arrival,
            admit: self.now,
            startup,
            exec: self.sample_exec(profile),
            start_type,
        }
    }

    fn execute_reuse(
        &mut self,
        id: ContainerId,
        class: ReuseClass,
        f: FunctionId,
        profile: &FunctionProfile,
        arrival: Instant,
        startup: Micros,
    ) -> bool {
        let target_mem = profile.memory_at(Layer::User);
        // A cheaper placement tried before this one may have failed
        // *after* evicting idle containers to make room — and the
        // victim set can include this candidate (only the failing
        // option's own target is excluded from eviction). A vanished
        // candidate is just a failed option; the loop moves on to the
        // next-cheapest placement.
        let Some(c) = self.pool.get(id) else {
            return false;
        };
        let (idle_since, current_mem) = (c.idle_since, c.memory);
        if target_mem > current_mem {
            let delta = target_mem - current_mem;
            if !self.ensure_memory(delta, Some(id)) {
                return false;
            }
        }
        // The idle interval ends in a hit.
        self.record_waste(current_mem, idle_since, self.now, IdleOutcome::Hit);

        let start_type = match class {
            ReuseClass::WarmUser => StartType::WarmUser,
            ReuseClass::SnapshotUser => StartType::Snapshot,
            ReuseClass::SharedPacked => StartType::Packed,
            ReuseClass::SharedLang => StartType::SharedLang,
            ReuseClass::SharedBare => StartType::SharedBare,
        };
        let assignment = self.make_assignment(profile, arrival, startup, start_type);
        let exec_done = self.now + startup + assignment.exec;

        match class {
            ReuseClass::WarmUser | ReuseClass::SnapshotUser | ReuseClass::SharedPacked => {
                self.pool.resize(id, target_mem);
                {
                    let mut c = self.pool.get_mut(id).expect("reuse target exists");
                    // The idle period ends here: pending settlement
                    // entries and keep-alive timers die via the epoch
                    // bump.
                    c.ladder = None;
                    if class == ReuseClass::SharedPacked {
                        c.apply(LifecycleEvent::Adopt { function: f })
                            .expect("packed container adoptable");
                        c.packed.clear();
                    }
                    c.apply(LifecycleEvent::BeginExecution { function: f })
                        .expect("idle user container can execute");
                    c.assigned = Some(assignment);
                }
                self.events
                    .push(exec_done, EventKind::ExecComplete { container: id });
            }
            ReuseClass::SharedLang | ReuseClass::SharedBare => {
                self.pool.resize(id, target_mem);
                let epoch = {
                    let mut c = self.pool.get_mut(id).expect("reuse target exists");
                    c.ladder = None;
                    c.apply(LifecycleEvent::BeginUpgrade {
                        for_function: f,
                        target: Layer::User,
                        language: profile.language,
                    })
                    .expect("idle lower-layer container upgradable");
                    c.init_done_at = self.now + startup;
                    c.assigned = Some(assignment);
                    c.epoch
                };
                self.events.push(
                    self.now + startup,
                    EventKind::InitComplete {
                        container: id,
                        epoch,
                    },
                );
            }
        }
        true
    }

    fn execute_attach(
        &mut self,
        id: ContainerId,
        profile: &FunctionProfile,
        arrival: Instant,
        startup: Micros,
    ) -> bool {
        let assignment = self.make_assignment(profile, arrival, startup, StartType::Attached);
        match self.pool.get_mut(id) {
            Some(mut c) if c.is_attachable_init() => {
                c.assigned = Some(assignment);
                true
            }
            _ => false,
        }
    }

    fn execute_cold(
        &mut self,
        f: FunctionId,
        profile: &FunctionProfile,
        arrival: Instant,
        startup: Micros,
    ) -> bool {
        let mem = profile.memory_at(Layer::User);
        if !self.ensure_memory(mem, None) {
            return false;
        }
        let assignment = self.make_assignment(profile, arrival, startup, StartType::Cold);
        let id = self.pool.next_id();
        let mut c = Container::new_initializing(
            id,
            self.now,
            Layer::User,
            f,
            Some(profile.language),
            mem,
            self.now + startup,
        );
        c.assigned = Some(assignment);
        let epoch = c.epoch;
        self.pool.insert(c);
        self.events.push(
            self.now + startup,
            EventKind::InitComplete {
                container: id,
                epoch,
            },
        );
        true
    }

    /// Frees memory by evicting policy-chosen idle victims until `extra`
    /// fits. Returns false if that is impossible.
    ///
    /// The candidate list is built **once** per reclamation and handed
    /// to the policy's batch [`Policy::select_victims`]; victims are
    /// destroyed in the returned order with the budget re-checked
    /// between kills. This is sequence-equivalent to the old
    /// one-victim-per-iteration loop (destroying a victim removes
    /// exactly that victim from the candidate set, and `fits` flips
    /// precisely when the freed total covers `need`), but costs one
    /// policy call instead of one per victim.
    fn ensure_memory(&mut self, extra: MemMb, exclude: Option<ContainerId>) -> bool {
        if self.pool.fits(extra) {
            return true;
        }
        // `fits` failed, so `used + extra > capacity` and the
        // (saturating) difference is the exact shortfall.
        let need = (self.pool.used() + extra) - self.pool.capacity();
        let ctx = self.ctx();
        let mut candidates = std::mem::take(&mut self.scratch_views);
        self.pool.idle_views_into(exclude, &mut candidates);
        let victims = self.policy.select_victims(&ctx, &candidates, need);
        candidates.clear();
        self.scratch_views = candidates;
        // No queue drain here: the freed memory is claimed by the
        // caller, and draining would recurse through try_place.
        for victim in victims {
            if self.pool.fits(extra) {
                break;
            }
            debug_assert!(
                self.pool.get(victim).is_some_and(|c| c.is_idle()),
                "victim must be a live idle container"
            );
            self.end_idle(victim, self.now);
        }
        self.pool.fits(extra)
    }

    /// Ends an idle container at instant `at`: its last idle interval is
    /// recorded as never-hit waste, it leaves the pool, and the policy
    /// hears of it at `at`. Eviction, keep-alive expiry and a ladder's
    /// last rung all end containers here. Does not touch the admission
    /// queue.
    fn end_idle(&mut self, id: ContainerId, at: Instant) {
        let c = self.pool.remove(id);
        self.record_waste(c.memory, c.idle_since, at, IdleOutcome::Miss);
        // `self.now` may already be past a settled ladder boundary `at`;
        // the policy sees the death when the eager chain would have.
        let ctx = PolicyCtx {
            now: at,
            catalog: self.catalog,
        };
        self.policy.on_terminated(&ctx, id);
    }

    /// Ends an idle container now and re-admits queued work into the
    /// freed memory (the keep-alive-expiry path).
    fn terminate_container(&mut self, id: ContainerId) {
        self.end_idle(id, self.now);
        self.drain_pending();
    }

    /// Peels the top layer off an idle container at instant `at`: the
    /// expired idle interval is recorded as never-hit waste, a new one
    /// starts at `at` with an empty packed set (and, on a ladder, at the
    /// next rung), and the footprint shrinks to the lower layer's —
    /// language-specific for `Lang`, universal for `Bare`, read from the
    /// per-language anchor profile. Ladder settlement and keep-alive
    /// timeouts both downgrade here. The epoch is left alone (see
    /// [`Container::downgrade`]).
    fn downgrade_idle(&mut self, id: ContainerId, at: Instant) {
        let (mem, since, new_mem) = {
            let mut c = self.pool.get_mut(id).expect("downgrade target exists");
            let (mem, since, language) = (c.memory, c.idle_since, c.language());
            c.downgrade().expect("downgrades occur only above Bare");
            c.idle_since = at;
            c.packed.clear();
            if let Some(ls) = c.ladder.as_mut() {
                ls.rung += 1;
            }
            let anchor = language
                .and_then(|lang| self.anchor_by_lang[lang.index()])
                .expect("a container above Bare has a language in the catalog");
            (mem, since, anchor.memory_at(c.layer()))
        };
        self.record_waste(mem, since, at, IdleOutcome::Miss);
        self.pool.resize(id, new_mem);
    }

    // ------------------------------------------------------------------
    // Lazy ladder settlement
    //
    // When a policy exposes its full downgrade schedule as a TtlLadder,
    // the engine arms no timer for it. Instead it keeps one
    // settlement-heap entry per idle container and replays every elapsed
    // boundary — waste records, physical downgrades, terminations — the
    // moment the clock next moves, before any handler can observe the
    // pool; a LadderWake covers boundaries while work is queued, and
    // `finish` settles the rest. The test-only eager oracle (`run_eager`)
    // pushes one LadderWake per rung boundary instead and settles from
    // the same heap, so both execute identical settlement sequences; they
    // differ only in event multiplicity.
    // ------------------------------------------------------------------

    /// Whether a settlement-heap entry still describes the container's
    /// live ladder state (not reused/repurposed/removed and still the
    /// current rung's boundary).
    fn settle_entry_valid(&self, b: Instant, id: ContainerId, epoch: u64) -> bool {
        self.pool.get(id).is_some_and(|c| {
            c.epoch == epoch
                && c.is_idle()
                && c.ladder
                    .is_some_and(|ls| ls.next_boundary(c.idle_since) == Some(b))
        })
    }

    /// Settles every pending ladder boundary up to `limit` — strictly
    /// before it when `inclusive` is false (tick-start), at it too when
    /// true (ladder-band handlers). Returns how many boundaries were
    /// settled; stale entries are dropped for free.
    fn settle_due(&mut self, limit: Instant, inclusive: bool) -> usize {
        let mut settled = 0;
        while let Some(&Reverse((b, _, id, epoch))) = self.settle.peek() {
            let due = if inclusive { b <= limit } else { b < limit };
            if !due {
                break;
            }
            self.settle.pop();
            if !self.settle_entry_valid(b, id, epoch) {
                continue;
            }
            self.settle_one(id, b);
            settled += 1;
            // Oracle check (tick-start only, where the container has
            // fully caught up to the clock): the settled rung must be
            // exactly what the eager chain's schedule walk computes.
            #[cfg(debug_assertions)]
            if !inclusive {
                if let Some(c) = self.pool.get(id) {
                    if let Some(ls) = c.ladder {
                        if ls.next_boundary(c.idle_since).is_none_or(|nb| nb >= limit) {
                            debug_assert_eq!(
                                ls.effective_at(limit),
                                Some((ls.rung, c.idle_since)),
                                "lazy settlement diverged from the eager-chain oracle"
                            );
                        }
                    }
                }
            }
        }
        settled
    }

    /// Replays one ladder boundary at `b`: the container either dies
    /// (last rung) or downgrades one rung and re-enters the settlement
    /// heap at its next boundary.
    fn settle_one(&mut self, id: ContainerId, b: Instant) {
        let c = self.pool.get(id).expect("validated settle target");
        if c.ladder.expect("validated ladder state").on_last_rung() {
            self.end_idle(id, b);
        } else {
            self.downgrade_idle(id, b);
            self.push_boundary(id);
        }
    }

    /// Registers the container's current-rung boundary in the
    /// settlement heap (and, under the eager oracle, as a per-rung
    /// `LadderWake`). A never-expiring rung parks the container: no
    /// entry.
    fn push_boundary(&mut self, id: ContainerId) {
        let c = self.pool.get(id).expect("container exists");
        let epoch = c.epoch;
        let ls = c.ladder.expect("ladder container");
        if let Some(b) = ls.next_boundary(c.idle_since) {
            let seq = self.settle_seq;
            self.settle_seq += 1;
            self.settle.push(Reverse((b, seq, id, epoch)));
            if self.eager_chain() {
                self.events.push_ladder(b, EventKind::LadderWake);
            }
        }
    }

    /// Puts a freshly idle container on `ladder`: rung 0 starts at its
    /// `idle_since` and its first boundary enters the settlement heap.
    /// No timer is armed: tick-start settlement, a `LadderWake` while
    /// work is queued, and `finish` settle every boundary, the last
    /// rung's death included (the eager oracle arms per-rung wakes via
    /// [`Self::push_boundary`] instead).
    fn install_ladder(&mut self, id: ContainerId, ladder: TtlLadder) {
        {
            let mut c = self.pool.get_mut(id).expect("container exists");
            c.ladder = Some(LadderState {
                ladder,
                started: c.idle_since,
                rung: 0,
            });
        }
        self.push_boundary(id);
        self.arm_pending_wake();
    }

    /// A `LadderWake` fired: settle everything due (boundary included —
    /// this wake *is* the boundary) and re-admit queued work into any
    /// freed memory. The drain is gated on an actual settlement so the
    /// lazy schedule drains at exactly the eager oracle's ticks (a stale
    /// wake must not touch the admission queue or the RNG stream).
    ///
    /// Under the eager oracle every live boundary at this tick has its
    /// own wake in the same batch's ladder-band tail, so whichever wake
    /// comes first — stale or not — settles them all and the rest find
    /// nothing: the state after the batch is the same.
    fn handle_ladder_wake(&mut self) {
        self.wake_armed = None;
        if self.settle_due(self.now, true) > 0 {
            self.drain_pending();
        }
        self.arm_pending_wake();
    }

    /// Arms a `LadderWake` at the earliest live ladder boundary, if the
    /// admission queue is non-empty and no earlier wake is already in
    /// flight. Without this, the lazy schedule would sit on queued invocations
    /// across a boundary the eager chain's rung timer would have freed
    /// memory at. Invalid heap heads are pruned on the way.
    fn arm_pending_wake(&mut self) {
        if self.pending.is_empty() || self.eager_chain() {
            return;
        }
        let target = loop {
            let Some(&Reverse((b, _, id, epoch))) = self.settle.peek() else {
                break None;
            };
            if self.settle_entry_valid(b, id, epoch) {
                break Some(b);
            }
            self.settle.pop();
        };
        let Some(target) = target else { return };
        if self.wake_armed.is_some_and(|w| w <= target) {
            return;
        }
        self.wake_armed = Some(target);
        self.events.push_ladder(target, EventKind::LadderWake);
    }

    fn handle_init_complete(&mut self, id: ContainerId, epoch: u64) {
        // One guard: the container is linked, if it stays idle, with the
        // `idle_since` of this moment, which keeps its idle list in
        // idle-entry order. Every transition bumps the epoch, so an event
        // whose epoch still matches finds the initialization it was armed
        // for.
        let assigned = {
            let mut c = match self.pool.get_mut(id) {
                Some(c) if c.epoch == epoch => c,
                _ => return, // stale or gone
            };
            c.apply(LifecycleEvent::InitComplete)
                .expect("initialization completes into idle");
            c.idle_since = self.now;
            if c.assigned.is_some() {
                // An invocation is bound (cold start, partial warm start,
                // or attach): begin execution immediately, for the
                // function the container was initialized for and is now
                // owned by.
                let function = c.owner().expect("a bound initialization targets User");
                c.apply(LifecycleEvent::BeginExecution { function })
                    .expect("initialized container can execute its invocation");
            }
            c.assigned
        };
        if let Some(inv) = assigned {
            let exec_done = inv.admit + inv.startup + inv.exec;
            self.events
                .push(exec_done, EventKind::ExecComplete { container: id });
        } else {
            // Pure pre-warm: idle from now; arm the keep-alive TTL.
            self.arm_idle_ttl(id);
            self.drain_pending();
        }
    }

    fn handle_exec_complete(&mut self, id: ContainerId) {
        let (function, inv) = {
            let mut c = self.pool.get_mut(id).expect("running container exists");
            let inv = c.assigned.take().expect("running container has invocation");
            c.apply(LifecycleEvent::ExecutionComplete)
                .expect("running container completes");
            c.hits += 1;
            c.idle_since = self.now;
            // The function that ran now owns the idle container.
            (c.owner().expect("completion leaves an owner"), inv)
        };
        self.metrics.record_invocation(InvocationRecord {
            function,
            arrival: inv.arrival,
            queue: inv.admit.duration_since(inv.arrival),
            startup: inv.startup,
            exec: inv.exec,
            start_type: inv.start_type,
        });
        self.arm_idle_ttl(id);
        self.drain_pending();
    }

    /// Asks the policy for the idle TTL of a freshly idle container and
    /// schedules the timeout (unless the TTL is unbounded). A policy
    /// that exposes its whole downgrade schedule up front
    /// ([`Policy::ttl_ladder`]) takes the ladder path instead: one
    /// settlement entry and no timer.
    fn arm_idle_ttl(&mut self, id: ContainerId) {
        let view = self.pool.view_of(id);
        let ctx = self.ctx();
        if let Some(ladder) = self.policy.ttl_ladder(&ctx, &view) {
            self.install_ladder(id, ladder);
            return;
        }
        let ttl = self.policy.on_idle(&ctx, &view);
        self.schedule_timeout(id, ttl);
    }

    fn schedule_timeout(&mut self, id: ContainerId, ttl: Micros) {
        if ttl == Micros::MAX {
            // Never expires (e.g. FaaSCache keep-alive).
            return;
        }
        let epoch = self.pool.get(id).expect("container exists").epoch;
        self.events.push(
            self.now + ttl,
            EventKind::IdleTimeout {
                container: id,
                epoch,
            },
        );
    }

    fn handle_idle_timeout(&mut self, id: ContainerId, epoch: u64) {
        match self.pool.get(id) {
            Some(c) if c.epoch == epoch && c.is_idle() => {
                debug_assert!(c.ladder.is_none(), "a ladder container got a timer");
            }
            _ => return, // stale (container reused, repurposed, or gone)
        }
        let view = self.pool.view_of(id);
        let ctx = self.ctx();
        let decision = self.policy.on_timeout(&ctx, &view);
        match decision {
            TimeoutDecision::Terminate => {
                self.terminate_container(id);
            }
            TimeoutDecision::Downgrade { ttl } => {
                self.downgrade_idle(id, self.now);
                // Unlike a ladder rung, the downgrade ends the timed idle
                // period.
                self.pool
                    .get_mut(id)
                    .expect("container exists")
                    .bump_epoch();
                self.schedule_timeout(id, ttl);
                self.drain_pending();
            }
            TimeoutDecision::Repack {
                extra_functions,
                ttl,
            } => {
                self.record_waste(view.memory, view.idle_since, self.now, IdleOutcome::Miss);
                // Installing the extra packages inflates the container.
                let extra_mem: MemMb = extra_functions
                    .iter()
                    .map(|&g| {
                        let p = self.catalog.profile(g);
                        p.memory_at(Layer::User)
                            .saturating_sub(p.memory_at(Layer::Lang))
                    })
                    .sum();
                let can_inflate = extra_mem.is_zero() || self.ensure_memory(extra_mem, Some(id));
                if !can_inflate {
                    // No room to install the helper packages: recycle
                    // instead of re-arming the same decision forever.
                    // The expired interval is recorded above, so the
                    // container ends with an empty one.
                    self.pool.get_mut(id).expect("container exists").idle_since = self.now;
                    self.terminate_container(id);
                    return;
                }
                let new_mem = {
                    let mut c = self.pool.get_mut(id).expect("container exists");
                    c.bump_epoch();
                    c.idle_since = self.now;
                    c.packed = extra_functions;
                    c.memory + extra_mem
                };
                self.pool.resize(id, new_mem);
                self.schedule_timeout(id, ttl);
            }
        }
    }

    fn handle_prewarm_fire(&mut self, f: FunctionId) {
        // Alg. 1 line 3: only an *idle* User container counts as
        // available. During a burst every container is busy, so the
        // pre-warm stream keeps feeding fresh containers — exactly the
        // burst tolerance §5.2 claims.
        let has_idle_user = self.pool.has_idle_user(f);
        let ctx = self.ctx();
        let decision = self.policy.on_prewarm_fire(&ctx, f, has_idle_user);
        let target = match decision {
            PrewarmDecision::Skip => return,
            PrewarmDecision::Warm { target } => target,
        };
        let profile = self.catalog.profile(f);
        let mem = profile.memory_at(target);
        // Pre-warms are opportunistic: they never evict warm state.
        if !self.pool.fits(mem) {
            return;
        }
        let duration = self.prewarm_duration(profile, target);
        let language = (target >= Layer::Lang).then_some(profile.language);
        let id = self.pool.next_id();
        let c = Container::new_initializing(
            id,
            self.now,
            target,
            f,
            language,
            mem,
            self.now + duration,
        );
        let epoch = c.epoch;
        self.pool.insert(c);
        self.events.push(
            self.now + duration,
            EventKind::InitComplete {
                container: id,
                epoch,
            },
        );
    }

    /// FIFO re-admission of invocations that queued under memory
    /// pressure.
    fn drain_pending(&mut self) {
        while let Some(&head) = self.pending.front() {
            if self.try_place(head.function, head.arrival) {
                self.pending.pop_front();
            } else {
                break;
            }
        }
    }
}

/// The warmest container on an idle list, as a best-per-class entry,
/// adding the entries it read to `read`.
fn warmest(pool: &Pool, list: IdleList, read: &mut u64) -> Option<(ContainerId, Instant)> {
    let (c, run) = pool.warmest(list)?;
    *read += run as u64;
    Some((c.id, c.idle_since))
}

/// Offers a candidate to the best-per-class table. Within each class
/// the winner is the most recently idle container, ties broken by the
/// lowest id: an explicit comparison, so the winner does not depend on
/// the order candidates are offered in. It serves the views of
/// `ReuseScope::All`, which come in id order; `Pool::warmest` applies
/// the same rule to an idle list, and the packed index is kept in it.
fn consider(
    best: &mut [Option<(ContainerId, Instant)>; 5],
    class: ReuseClass,
    id: ContainerId,
    idle_since: Instant,
) {
    let slot = &mut best[class_rank(class) as usize];
    match slot {
        Some((best_id, since))
            if *since > idle_since || (*since == idle_since && *best_id < id) => {}
        _ => *slot = Some((id, idle_since)),
    }
}

/// Install-latency scale factor: checkpoint restore replaces
/// from-scratch initialization on the cold path (§7.8).
fn cold_install_factor(config: &SimConfig) -> f64 {
    if config.checkpoint {
        CHECKPOINT_RESTORE_FACTOR
    } else {
        1.0
    }
}

fn class_rank(class: ReuseClass) -> u8 {
    match class {
        ReuseClass::WarmUser => 0,
        ReuseClass::SnapshotUser => 1,
        ReuseClass::SharedPacked => 2,
        ReuseClass::SharedLang => 3,
        ReuseClass::SharedBare => 4,
    }
}

/// Inverse of [`class_rank`], warmest first.
const CLASS_BY_RANK: [ReuseClass; 5] = [
    ReuseClass::WarmUser,
    ReuseClass::SnapshotUser,
    ReuseClass::SharedPacked,
    ReuseClass::SharedLang,
    ReuseClass::SharedBare,
];

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use rainbowcake_core::policy::{ArrivalResponse, ContainerView};
    use rainbowcake_core::profile::FunctionProfile;
    use rainbowcake_core::rainbow::RainbowCake;
    use rainbowcake_core::types::Language;
    use rainbowcake_trace::Trace;

    /// A configurable test policy: fixed TTL, optional layer sharing,
    /// optional pre-warming.
    struct TestPolicy {
        ttl: Micros,
        share_layers: bool,
        downgrade: bool,
        prewarm_delay: Option<Micros>,
    }

    impl TestPolicy {
        fn keepalive(ttl: Micros) -> Self {
            TestPolicy {
                ttl,
                share_layers: false,
                downgrade: false,
                prewarm_delay: None,
            }
        }
    }

    impl Policy for TestPolicy {
        fn name(&self) -> &'static str {
            "Test"
        }
        fn on_arrival(&mut self, _: &PolicyCtx<'_>, f: FunctionId) -> ArrivalResponse {
            match self.prewarm_delay {
                Some(d) => ArrivalResponse::prewarm(f, d, Layer::User),
                None => ArrivalResponse::none(),
            }
        }
        fn reuse_class(
            &self,
            ctx: &PolicyCtx<'_>,
            f: FunctionId,
            c: &ContainerView,
        ) -> Option<ReuseClass> {
            match c.layer {
                Layer::User if c.owner == Some(f) => Some(ReuseClass::WarmUser),
                Layer::Lang if self.share_layers && c.language == Some(ctx.profile(f).language) => {
                    Some(ReuseClass::SharedLang)
                }
                Layer::Bare if self.share_layers => Some(ReuseClass::SharedBare),
                _ => None,
            }
        }
        fn on_idle(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> Micros {
            self.ttl
        }
        fn on_timeout(&mut self, _: &PolicyCtx<'_>, c: &ContainerView) -> TimeoutDecision {
            if self.downgrade && c.layer.downgrade().is_some() {
                TimeoutDecision::Downgrade { ttl: self.ttl }
            } else {
                TimeoutDecision::Terminate
            }
        }
    }

    /// [`TestPolicy`] with its downgrade chain exposed as a ladder: the
    /// schedule `ttl_ladder` hands over is exactly what the classic
    /// per-rung `on_timeout` chain of `TestPolicy { downgrade: true }`
    /// walks, so the two should produce byte-identical runs.
    struct LadderPolicy {
        inner: TestPolicy,
    }

    impl LadderPolicy {
        fn new(ttl: Micros) -> Self {
            LadderPolicy {
                inner: TestPolicy {
                    ttl,
                    share_layers: true,
                    downgrade: true,
                    prewarm_delay: None,
                },
            }
        }
    }

    impl Policy for LadderPolicy {
        fn name(&self) -> &'static str {
            "TestLadder"
        }
        fn on_arrival(&mut self, ctx: &PolicyCtx<'_>, f: FunctionId) -> ArrivalResponse {
            self.inner.on_arrival(ctx, f)
        }
        fn reuse_class(
            &self,
            ctx: &PolicyCtx<'_>,
            f: FunctionId,
            c: &ContainerView,
        ) -> Option<ReuseClass> {
            self.inner.reuse_class(ctx, f, c)
        }
        fn on_idle(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> Micros {
            self.inner.on_idle(ctx, c)
        }
        fn ttl_ladder(&mut self, _: &PolicyCtx<'_>, c: &ContainerView) -> Option<TtlLadder> {
            let rungs = match c.layer {
                Layer::User => 3,
                Layer::Lang => 2,
                Layer::Bare => 1,
            };
            Some(TtlLadder {
                ttls: [self.inner.ttl; 3],
                rungs,
            })
        }
        fn on_timeout(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> TimeoutDecision {
            self.inner.on_timeout(ctx, c)
        }
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.push(FunctionProfile::synthetic(
            FunctionId::new(0),
            Language::Python,
        ));
        c.push(FunctionProfile::synthetic(
            FunctionId::new(0),
            Language::Python,
        ));
        c
    }

    fn trace_of(times_s: &[(u64, u32)], horizon_s: u64) -> Trace {
        Trace::from_arrivals(
            Micros::from_secs(horizon_s),
            times_s
                .iter()
                .map(|&(s, f)| Arrival {
                    time: Instant::from_micros(s * 1_000_000),
                    function: FunctionId::new(f),
                })
                .collect(),
        )
    }

    fn config() -> SimConfig {
        SimConfig::deterministic(1)
    }

    fn run_trace(cat: &Catalog, p: &mut dyn Policy, trace: &Trace, cfg: &SimConfig) -> RunReport {
        run(cat, p, trace.iter().copied(), trace.horizon(), cfg, None)
    }

    fn run_trace_eager(
        cat: &Catalog,
        p: &mut dyn Policy,
        trace: &Trace,
        cfg: &SimConfig,
    ) -> RunReport {
        run_eager(cat, p, trace.iter().copied(), trace.horizon(), cfg, None)
    }

    #[test]
    fn cold_then_warm_reuse() {
        let cat = catalog();
        let mut p = TestPolicy::keepalive(Micros::from_mins(10));
        // Two invocations 30 s apart: first cold, second hits the idle
        // User container.
        let report = run_trace(&cat, &mut p, &trace_of(&[(0, 0), (30, 0)], 300), &config());
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.records[0].start_type, StartType::Cold);
        assert_eq!(report.records[1].start_type, StartType::WarmUser);
        // Warm startup is just the User->Run hand-off.
        let profile = cat.profile(FunctionId::new(0));
        assert_eq!(report.records[0].startup, profile.cold_startup());
        assert_eq!(report.records[1].startup, profile.transitions.u_run);
    }

    #[test]
    fn expired_container_causes_second_cold_start() {
        let cat = catalog();
        let mut p = TestPolicy::keepalive(Micros::from_secs(5));
        let report = run_trace(&cat, &mut p, &trace_of(&[(0, 0), (60, 0)], 300), &config());
        assert_eq!(report.cold_starts(), 2);
    }

    #[test]
    fn layer_sharing_gives_partial_warm_starts() {
        let cat = catalog();
        let mut p = TestPolicy {
            ttl: Micros::from_secs(20),
            share_layers: true,
            downgrade: true,
            prewarm_delay: None,
        };
        // fn0 runs, idles 20 s, downgrades to Lang; fn1 (same language)
        // arrives and reuses the Lang container.
        let report = run_trace(&cat, &mut p, &trace_of(&[(0, 0), (30, 1)], 300), &config());
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.records[1].start_type, StartType::SharedLang);
        let p1 = cat.profile(FunctionId::new(1));
        let expected = p1.transitions.l_u + p1.stages.user + p1.transitions.u_run;
        assert_eq!(report.records[1].startup, expected);
    }

    #[test]
    fn downgrade_chain_reaches_bare_then_dies() {
        let cat = catalog();
        let mut p = TestPolicy {
            ttl: Micros::from_secs(10),
            share_layers: true,
            downgrade: true,
            prewarm_delay: None,
        };
        let report = run_trace(&cat, &mut p, &trace_of(&[(0, 0)], 120), &config());
        assert_eq!(report.records.len(), 1);
        // After execution: idle User 10 s -> Lang 10 s -> Bare 10 s ->
        // terminated. All idle waste is never-hit.
        assert!(report.waste.miss_total().value() > 0.0);
        assert_eq!(report.waste.hit_total().value(), 0.0);
    }

    #[test]
    fn waste_splits_hit_and_miss() {
        let cat = catalog();
        let mut p = TestPolicy::keepalive(Micros::from_secs(30));
        // Second invocation hits the idle container: that idle interval
        // is "eventually hit"; the final idle interval expires unhit.
        let report = run_trace(&cat, &mut p, &trace_of(&[(0, 0), (20, 0)], 300), &config());
        assert!(report.waste.hit_total().value() > 0.0);
        assert!(report.waste.miss_total().value() > 0.0);
    }

    #[test]
    fn prewarm_then_attach() {
        let cat = catalog();
        let profile = cat.profile(FunctionId::new(0)).clone();
        let mut p = TestPolicy {
            ttl: Micros::from_secs(2),
            share_layers: false,
            downgrade: false,
            prewarm_delay: Some(Micros::from_secs(30)),
        };
        // Arrival at t=0 (cold) schedules a pre-warm at t=30. The
        // container expires at ~2 s after its first idle. The pre-warm
        // fires at t=30; a second arrival at t=31 lands mid-warming and
        // attaches ("Load" in Fig. 10).
        let report = run_trace(&cat, &mut p, &trace_of(&[(0, 0), (31, 0)], 300), &config());
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.records[1].start_type, StartType::Attached);
        // The attached startup is shorter than a cold start.
        assert!(report.records[1].startup < profile.cold_startup());
    }

    #[test]
    fn memory_pressure_queues_invocations() {
        let cat = catalog();
        let mut p = TestPolicy::keepalive(Micros::from_mins(10));
        // Capacity fits exactly one User container (190 MB synthetic);
        // two simultaneous invocations of different functions: the
        // second must queue until the first finishes... but the first
        // container stays idle-alive, so the queue drains only via
        // eviction of the idle container.
        let mut cfg = config();
        cfg.memory_capacity = MemMb::new(200);
        let report = run_trace(&cat, &mut p, &trace_of(&[(0, 0), (0, 1)], 600), &cfg);
        assert_eq!(report.records.len(), 2);
        let r1 = &report.records[1];
        assert!(r1.queue > Micros::ZERO, "second invocation must queue");
        assert_eq!(r1.start_type, StartType::Cold);
    }

    #[test]
    fn zero_capacity_completes_nothing() {
        let cat = catalog();
        let mut p = TestPolicy::keepalive(Micros::from_mins(10));
        let mut cfg = config();
        cfg.memory_capacity = MemMb::new(10);
        let report = run_trace(&cat, &mut p, &trace_of(&[(0, 0)], 60), &cfg);
        assert_eq!(report.records.len(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let cat = catalog();
        let trace = trace_of(&[(0, 0), (10, 1), (20, 0), (40, 1)], 300);
        let cfg = SimConfig {
            seed: 99,
            ..SimConfig::default()
        };
        let mut p1 = TestPolicy::keepalive(Micros::from_mins(1));
        let a = run_trace(&cat, &mut p1, &trace, &cfg);
        let mut p2 = TestPolicy::keepalive(Micros::from_mins(1));
        let b = run_trace(&cat, &mut p2, &trace, &cfg);
        assert_eq!(a.records, b.records);
        assert_eq!(a.waste, b.waste);
    }

    #[test]
    fn checkpoint_restores_faster_but_holds_images() {
        let cat = catalog();
        let trace = trace_of(&[(0, 0), (120, 0)], 300);
        let mut cfg = config();
        // Short TTL: both invocations are cold.
        let mut p1 = TestPolicy::keepalive(Micros::from_secs(1));
        let base = run_trace(&cat, &mut p1, &trace, &cfg);
        cfg.checkpoint = true;
        let mut p2 = TestPolicy::keepalive(Micros::from_secs(1));
        let cp = run_trace(&cat, &mut p2, &trace, &cfg);
        assert!(cp.total_startup() < base.total_startup());
        assert!(cp.total_waste().value() > base.total_waste().value());
    }

    #[test]
    fn streaming_clips_at_horizon_like_from_arrivals() {
        let cat = catalog();
        let horizon = Micros::from_secs(50);
        let all = [(0u64, 0u32), (30, 0), (60, 0), (90, 1)];
        let trace = trace_of(&all, 50);
        assert_eq!(trace.len(), 2, "from_arrivals clips past the horizon");
        let mut p1 = TestPolicy::keepalive(Micros::from_mins(1));
        let materialized = run_trace(&cat, &mut p1, &trace, &config());
        let mut p2 = TestPolicy::keepalive(Micros::from_mins(1));
        let streamed = run(
            &cat,
            &mut p2,
            all.iter().map(|&(s, f)| Arrival {
                time: Instant::from_micros(s * 1_000_000),
                function: FunctionId::new(f),
            }),
            horizon,
            &config(),
            None,
        );
        assert_eq!(streamed.to_json(), materialized.to_json());
    }

    #[test]
    fn ladder_run_matches_classic_downgrade_chain() {
        // One container walking User -> Lang -> Bare -> death, plus a
        // mid-ladder SharedLang hit: the ladder path (lazy, and on the
        // eager oracle) must reproduce the classic per-rung chain byte
        // for byte when no admission queueing coalesces drains.
        let cat = catalog();
        let trace = trace_of(&[(0, 0), (30, 1), (200, 0)], 400);
        let cfg = config();
        let mut classic = TestPolicy {
            ttl: Micros::from_secs(20),
            share_layers: true,
            downgrade: true,
            prewarm_delay: None,
        };
        let reference = run_trace(&cat, &mut classic, &trace, &cfg);
        for eager in [false, true] {
            let mut ladder = LadderPolicy::new(Micros::from_secs(20));
            let got = if eager {
                run_trace_eager(&cat, &mut ladder, &trace, &cfg)
            } else {
                run_trace(&cat, &mut ladder, &trace, &cfg)
            };
            assert_eq!(
                got.records, reference.records,
                "ladder records diverged (eager: {eager})"
            );
            assert_eq!(
                got.waste, reference.waste,
                "ladder waste diverged (eager: {eager})"
            );
        }
    }

    #[test]
    fn lazy_and_eager_ladders_are_byte_identical_under_pressure() {
        let cat = catalog();
        // Tight memory forces admission queueing, so lazy wakes (not
        // per-rung timers) must free queued work at ladder boundaries.
        let trace = trace_of(&[(0, 0), (0, 1), (40, 0), (41, 1), (100, 1)], 400);
        let cfg = SimConfig::with_memory(MemMb::new(200));
        let mut p1 = LadderPolicy::new(Micros::from_secs(15));
        let eager = run_trace_eager(&cat, &mut p1, &trace, &cfg);
        let mut p2 = LadderPolicy::new(Micros::from_secs(15));
        let lazy = run_trace(&cat, &mut p2, &trace, &cfg);
        assert_eq!(lazy.to_json(), eager.to_json());
    }

    #[test]
    fn parked_ladder_settles_at_finish() {
        // A ladder whose second rung never expires parks the container;
        // with no later events, the first boundary is settled by
        // `finish`, and the waste books must still match the eager run
        // whose rung timer fired during the loop.
        let cat = catalog();
        let trace = trace_of(&[(0, 0)], 120);
        struct ParkedLadder;
        impl Policy for ParkedLadder {
            fn name(&self) -> &'static str {
                "Parked"
            }
            fn on_idle(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> Micros {
                unreachable!("ladder policies skip on_idle")
            }
            fn ttl_ladder(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> Option<TtlLadder> {
                Some(TtlLadder {
                    ttls: [Micros::from_secs(10), Micros::MAX, Micros::MAX],
                    rungs: 2,
                })
            }
            fn on_timeout(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> TimeoutDecision {
                unreachable!("ladder containers never consult on_timeout")
            }
        }
        let lazy = run_trace(&cat, &mut ParkedLadder, &trace, &config());
        let eager = run_trace_eager(&cat, &mut ParkedLadder, &trace, &config());
        assert!(lazy.waste.miss_total().value() > 0.0);
        assert_eq!(lazy.to_json(), eager.to_json());
    }

    #[test]
    fn lazy_timers_dispatch_fewer_events() {
        let cat = catalog();
        // Several full idle periods: eager walks 3 rung wakes per
        // period, lazy arms no timer and pays only tick-start (and
        // `finish`) settlement. Neither path times a ladder container.
        let trace = trace_of(&[(0, 0), (100, 0), (200, 1), (300, 0)], 500);
        let run_mode = |eager| {
            let mut p = LadderPolicy::new(Micros::from_secs(10));
            let mut profile = EngineProfile::default();
            let (arrivals, horizon) = (trace.iter().copied(), trace.horizon());
            let report = if eager {
                run_eager(
                    &cat,
                    &mut p,
                    arrivals,
                    horizon,
                    &config(),
                    Some(&mut profile),
                )
            } else {
                run(
                    &cat,
                    &mut p,
                    arrivals,
                    horizon,
                    &config(),
                    Some(&mut profile),
                )
            };
            (report, profile)
        };
        let (lazy_report, lazy) = run_mode(false);
        let (eager_report, eager) = run_mode(true);
        assert_eq!(lazy_report.to_json(), eager_report.to_json());
        assert_eq!(lazy.invocations, 4);
        assert_eq!(eager.invocations, 4);
        assert!(
            lazy.total_events() < eager.total_events(),
            "lazy {} !< eager {}",
            lazy.total_events(),
            eager.total_events()
        );
        assert!(lazy.events_per_invocation() > 0.0);
        assert!(lazy.events_per_invocation() < eager.events_per_invocation());
        let timeout = kind_rank(&EventKind::IdleTimeout {
            container: ContainerId::new(0),
            epoch: 0,
        });
        assert_eq!(lazy.counts[timeout], 0, "a ladder container got a timer");
        assert_eq!(eager.counts[timeout], 0, "a ladder container got a timer");
        let wake = kind_rank(&EventKind::LadderWake);
        assert!(
            eager.counts[wake] > lazy.counts[wake],
            "eager wakes {} !> lazy wakes {}",
            eager.counts[wake],
            lazy.counts[wake]
        );
    }

    #[test]
    fn packed_start_adopts_the_container_and_keeps_its_language() {
        // Pagurus-style sharing: `f`'s idle container times out, packs
        // `g`'s packages, and `g` starts in it, adopting it.
        struct Repack {
            ttl: Micros,
            packs: FunctionId,
            idle_views: Vec<ContainerView>,
        }
        impl Policy for Repack {
            fn name(&self) -> &'static str {
                "TestRepack"
            }
            fn reuse_scope(&self) -> ReuseScope {
                ReuseScope::OwnedOrPacked
            }
            fn on_idle(&mut self, _: &PolicyCtx<'_>, c: &ContainerView) -> Micros {
                self.idle_views.push(c.clone());
                self.ttl
            }
            fn on_timeout(&mut self, _: &PolicyCtx<'_>, c: &ContainerView) -> TimeoutDecision {
                if c.packed.is_empty() && c.owner != Some(self.packs) {
                    TimeoutDecision::Repack {
                        extra_functions: vec![self.packs],
                        ttl: self.ttl,
                    }
                } else {
                    TimeoutDecision::Terminate
                }
            }
        }
        let cat = catalog();
        let (f, g) = (FunctionId::new(0), FunctionId::new(1));
        let ttl = Micros::from_secs(60);
        let mut p = Repack {
            ttl,
            packs: g,
            idle_views: Vec::new(),
        };
        // No jitter, and nothing initializes when `g` arrives.
        let report = run_trace(&cat, &mut p, &trace_of(&[(0, 0), (90, 1)], 300), &config());
        assert_eq!(report.records.len(), 2);
        let (first, packed) = (&report.records[0], &report.records[1]);
        assert!(
            first.completed_at() + ttl < packed.arrival,
            "the repack precedes g's arrival"
        );
        assert_eq!(packed.function, g);
        assert_eq!(packed.start_type, StartType::Packed);
        assert_eq!(
            packed.startup,
            cat.profile(g).transitions.u_run + PACKED_SPECIALIZE
        );
        // After `g` ran, the container it adopted is idle at `User`, owned
        // by `g`, with `f`'s language and no packed functions.
        let [after_f, after_g] = &p.idle_views[..] else {
            panic!("two idle entries, got {:?}", p.idle_views);
        };
        assert_eq!(after_g.id, after_f.id);
        assert_eq!(after_f.owner, Some(f));
        assert_eq!(after_g.layer, Layer::User);
        assert_eq!(after_g.owner, Some(g));
        assert_eq!(after_g.language, Some(cat.profile(f).language));
        assert!(after_g.packed.is_empty());
    }

    #[test]
    fn failed_repack_records_its_idle_interval_once() {
        // `f`'s idle container times out into a repack of `g` that
        // cannot fit: the pool holds exactly `f`'s `User` footprint, so
        // the container is recycled. Its expired idle interval is never
        // hit, and it is waste once.
        struct AlwaysRepack {
            ttl: Micros,
            packs: FunctionId,
        }
        impl Policy for AlwaysRepack {
            fn name(&self) -> &'static str {
                "TestAlwaysRepack"
            }
            fn reuse_scope(&self) -> ReuseScope {
                ReuseScope::OwnedOrPacked
            }
            fn on_idle(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> Micros {
                self.ttl
            }
            fn on_timeout(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> TimeoutDecision {
                TimeoutDecision::Repack {
                    extra_functions: vec![self.packs],
                    ttl: self.ttl,
                }
            }
        }
        let cat = catalog();
        let (f, g) = (FunctionId::new(0), FunctionId::new(1));
        let ttl = Micros::from_secs(60);
        let memory = cat.profile(f).memory_at(Layer::User);
        let mut p = AlwaysRepack { ttl, packs: g };
        let report = run_trace(
            &cat,
            &mut p,
            &trace_of(&[(0, 0)], 300),
            &SimConfig {
                memory_capacity: memory,
                ..config()
            },
        );
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.waste.hit_total().value(), 0.0);
        assert_eq!(
            report.waste.miss_total().value(),
            memory.idle_for(ttl).value()
        );
    }

    /// Runs `p` on arrivals at the given microsecond timestamps (all of
    /// function 0), no clipping.
    fn run_at_micros(cat: &Catalog, p: &mut dyn Policy, micros: &[u64]) -> RunReport {
        let arrivals = micros.iter().map(|&us| Arrival {
            time: Instant::from_micros(us),
            function: FunctionId::new(0),
        });
        run(cat, p, arrivals, Micros::from_mins(10), &config(), None)
    }

    #[test]
    fn arrival_sharing_a_tick_with_a_completion_is_handled_first() {
        // `config()` has no execution or transition jitter, so a second
        // run reproduces the first one's completion instant exactly.
        let mut cat = Catalog::new();
        cat.push(FunctionProfile::synthetic(
            FunctionId::new(0),
            Language::Python,
        ));
        let first = run_at_micros(&cat, &mut TestPolicy::keepalive(Micros::from_mins(1)), &[0]);
        let done = first.records[0].completed_at().as_micros();
        // A second arrival at exactly that microsecond is handled before
        // the `ExecComplete`: the container is still running, so the
        // arrival cannot reuse it warm.
        let report = run_at_micros(
            &cat,
            &mut TestPolicy::keepalive(Micros::from_mins(1)),
            &[0, done],
        );
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.records[1].arrival.as_micros(), done);
        assert_ne!(report.records[1].start_type, StartType::WarmUser);
        // One microsecond later the container is idle and reused warm.
        let later = run_at_micros(
            &cat,
            &mut TestPolicy::keepalive(Micros::from_mins(1)),
            &[0, done + 1],
        );
        assert_eq!(later.records[1].start_type, StartType::WarmUser);
    }

    #[test]
    #[should_panic(expected = "arrivals must be sorted by time")]
    fn unsorted_arrivals_are_rejected() {
        let cat = catalog();
        let arrivals = [100u64, 200, 150, 300].map(|s| Arrival {
            time: Instant::from_micros(s * 1_000_000),
            function: FunctionId::new(0),
        });
        run(
            &cat,
            &mut TestPolicy::keepalive(Micros::from_mins(1)),
            arrivals,
            Micros::from_secs(400),
            &config(),
            None,
        );
    }

    #[test]
    fn consider_winner_does_not_depend_on_offer_order() {
        // Per class the winner is the latest `idle_since`, ties broken by
        // the lowest id (creation sequence first, then slot) — for every
        // one of the 720 orders the index lists could offer these in.
        let id = ContainerId::from_parts;
        let at = Instant::from_micros;
        let offers = [
            (ReuseClass::WarmUser, id(3, 0), at(50)),
            (ReuseClass::WarmUser, id(2, 1), at(70)),
            (ReuseClass::WarmUser, id(1, 4), at(70)),
            (ReuseClass::WarmUser, id(0, 9), at(10)),
            (ReuseClass::SharedLang, id(5, 2), at(20)),
            (ReuseClass::SharedLang, id(4, 3), at(20)),
        ];
        let mut expect = [None; 5];
        expect[0] = Some((id(1, 4), at(70)));
        expect[3] = Some((id(4, 3), at(20)));
        for k in 0..720 {
            // The k-th permutation, via the factorial number system.
            let mut pool: Vec<usize> = (0..offers.len()).collect();
            let mut rest = k;
            let mut best = [None; 5];
            for n in (1..=offers.len()).rev() {
                let (class, cid, since) = offers[pool.remove(rest % n)];
                rest /= n;
                consider(&mut best, class, cid, since);
            }
            assert_eq!(best, expect, "permutation {k}");
        }
    }

    /// Runs one short keep-alive trace under `config`.
    fn run_with_config(config: &SimConfig) -> RunReport {
        let cat = catalog();
        let trace = trace_of(&[(0, 0), (30, 0), (90, 1)], 300);
        run_trace(
            &cat,
            &mut TestPolicy::keepalive(Micros::from_mins(1)),
            &trace,
            config,
        )
    }

    #[test]
    fn builder_and_checkpoint_configs_complete_every_invocation() {
        // `fig13` runs `SimConfig::default()`; the other builders and the
        // checkpoint extension run too.
        for config in [
            SimConfig::default(),
            SimConfig::deterministic(3),
            SimConfig::with_memory(MemMb::new(512)),
            SimConfig {
                checkpoint: true,
                ..SimConfig::default()
            },
        ] {
            assert_eq!(run_with_config(&config).records.len(), 3);
        }
    }

    #[test]
    fn seed_matters_only_through_jitter() {
        // The engine draws from its RNG only for execution and
        // transition jitter, so without jitter the seed cannot move a
        // byte; with it, a catalog whose execution times vary (CV > 0)
        // must.
        let cat = catalog();
        assert!(cat.iter().all(|p| p.exec.cv > 0.0));
        let trace = trace_of(&[(0, 0), (30, 0), (90, 1), (95, 0), (200, 1)], 300);
        let json = |config: SimConfig| {
            let mut p = TestPolicy::keepalive(Micros::from_mins(1));
            run_trace(&cat, &mut p, &trace, &config).to_json()
        };
        assert_eq!(
            json(SimConfig::deterministic(1)),
            json(SimConfig::deterministic(2))
        );
        let jittered = |seed| SimConfig {
            seed,
            ..SimConfig::default()
        };
        assert_ne!(json(jittered(1)), json(jittered(2)));
    }

    #[test]
    fn queue_time_counts_in_e2e() {
        let cat = catalog();
        let mut p = TestPolicy::keepalive(Micros::from_mins(10));
        let mut cfg = config();
        cfg.memory_capacity = MemMb::new(200);
        let report = run_trace(&cat, &mut p, &trace_of(&[(0, 0), (0, 1)], 600), &cfg);
        let r = &report.records[1];
        assert_eq!(r.e2e(), r.queue + r.startup + r.exec);
    }

    proptest! {
        /// The lazy-ladder oracle: on arbitrary traces, seeds, and memory
        /// budgets (pressure included), a RainbowCake run on the lazy
        /// schedule, which arms no ladder timer, is byte-identical to the
        /// eager per-rung chain. Debug builds additionally check every
        /// tick-start settlement against the eager-chain schedule walk
        /// (`LadderState::effective_at`) via a `debug_assert` in
        /// `settle_due`. It runs at the default case count, so
        /// `PROPTEST_CASES` deepens it.
        #[test]
        fn lazy_ladder_settlement_matches_eager_chain_oracle(
            raw in prop::collection::vec((0u64..1_800, 0u32..3), 1..120),
            seed in any::<u64>(),
            capacity_mb in 256u64..8_192,
        ) {
            let mut catalog = Catalog::new();
            for lang in [Language::NodeJs, Language::Python, Language::Java] {
                catalog.push(FunctionProfile::synthetic(FunctionId::new(0), lang));
            }
            let trace = trace_of(&raw, 40 * 60);
            let config = SimConfig {
                memory_capacity: MemMb::new(capacity_mb),
                seed,
                ..SimConfig::default()
            };
            let mut eager_policy = RainbowCake::with_defaults(&catalog).unwrap();
            let eager = run_trace_eager(&catalog, &mut eager_policy, &trace, &config);
            let mut lazy_policy = RainbowCake::with_defaults(&catalog).unwrap();
            let lazy = run_trace(&catalog, &mut lazy_policy, &trace, &config);
            prop_assert_eq!(lazy.to_json(), eager.to_json());
        }
    }
}
