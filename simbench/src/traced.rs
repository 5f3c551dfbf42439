//! Outside-in tracing for the `--trace` run.
//!
//! Layers are measured only from outside the library: a forwarding
//! [`TracedPolicy`] around the production policy, a [`TracedRouter`]
//! around the production router, and [`TracedArrivals`] around the
//! synthesizer's replay iterator. Every wrapped call is a span: it adds
//! one call, its host nanoseconds and the allocations its thread made
//! to the layer's [`Acc`], and the first [`SPAN_LOG_CAP`] spans of the
//! process are also kept, with their request id, for the span file.

use std::cell::Cell;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant as HostInstant;

use rainbowcake_core::history::HistoryStats;
use rainbowcake_core::mem::MemMb;
use rainbowcake_core::policy::{
    ArrivalResponse, ContainerView, Policy, PolicyCtx, PrewarmDecision, ReuseClass, ReuseScope,
    TimeoutDecision, TtlLadder,
};
use rainbowcake_core::time::{Instant, Micros};
use rainbowcake_core::types::{ContainerId, FunctionId, Language};
use rainbowcake_sim::cluster::{Router, WorkerId, WorkerView};
use rainbowcake_trace::Arrival;

use crate::alloc;

/// How many spans the span file keeps: the first ones of the process.
pub const SPAN_LOG_CAP: u64 = 65_536;

/// Work one layer (or one policy hook) did inside its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Spans closed.
    pub calls: u64,
    /// Host nanoseconds inside the spans.
    pub ns: u64,
    /// Allocations the span's thread made inside the spans.
    pub allocs: u64,
}

impl Acc {
    /// Adds another accumulator into this one.
    pub fn add(&mut self, other: &Acc) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.allocs += other.allocs;
    }
}

/// A simulated request id: the arrival's `(time in µs, function)`. It
/// joins the trace, route and `on_arrival` spans of one invocation.
type RequestId = Option<(u64, u32)>;

fn request(now: Instant, f: FunctionId) -> RequestId {
    Some((now.as_micros(), f.index() as u32))
}

/// One kept span.
#[derive(Debug, Clone)]
struct SpanRecord {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    request: RequestId,
}

static TICKETS: AtomicU64 = AtomicU64::new(SPAN_LOG_CAP);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<HostInstant> = OnceLock::new();

fn since_epoch(t: HostInstant) -> u64 {
    t.saturating_duration_since(*EPOCH.get_or_init(HostInstant::now))
        .as_nanos() as u64
}

/// Reserves a span id, or `None` once the span file is full.
fn ticket() -> Option<u64> {
    if TICKETS.load(Ordering::Relaxed) >= SPAN_LOG_CAP {
        return None;
    }
    let id = TICKETS.fetch_add(1, Ordering::Relaxed);
    (id < SPAN_LOG_CAP).then_some(id)
}

fn keep(record: SpanRecord) {
    if let Ok(mut spans) = SPANS.lock() {
        spans.push(record);
    }
}

/// Starts the span file afresh: the next [`SPAN_LOG_CAP`] spans are kept.
pub fn start_span_log() {
    EPOCH.get_or_init(HostInstant::now);
    if let Ok(mut spans) = SPANS.lock() {
        spans.clear();
    }
    TICKETS.store(0, Ordering::Relaxed);
}

/// Stops keeping spans.
pub fn stop_span_log() {
    TICKETS.store(SPAN_LOG_CAP, Ordering::Relaxed);
}

/// Writes the kept spans as tab-separated lines, ordered by id.
pub fn write_span_log(path: &Path) -> std::io::Result<usize> {
    let mut spans = SPANS.lock().map(|s| s.clone()).unwrap_or_default();
    spans.sort_by_key(|s| s.id);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\tname\tstart_ns\tend_ns\trequest_time_us\trequest_fn"
    )?;
    for s in &spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let (time, function) = s
            .request
            .map_or(("-".to_string(), "-".to_string()), |(t, f)| {
                (t.to_string(), f.to_string())
            });
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{time}\t{function}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}

/// A root span: one per traced thread, parent of that thread's spans.
pub struct Root {
    id: Option<u64>,
    name: &'static str,
    start: HostInstant,
}

impl Root {
    /// Opens a root span named `name` on the calling thread.
    pub fn open(name: &'static str) -> Self {
        Root {
            id: ticket(),
            name,
            start: HostInstant::now(),
        }
    }

    fn id(&self) -> Option<u64> {
        self.id
    }

    /// Closes the root span.
    pub fn close(self) {
        if let Some(id) = self.id {
            keep(SpanRecord {
                id,
                parent: None,
                name: self.name,
                start_ns: since_epoch(self.start),
                end_ns: since_epoch(HostInstant::now()),
                request: None,
            });
        }
    }
}

/// Runs `f` as a span: counts it into `acc`, and keeps it in the span
/// file while there is room, with the request id `request` derives from
/// the call's result.
#[inline]
fn span<R>(
    acc: &Cell<Acc>,
    name: &'static str,
    parent: Option<u64>,
    f: impl FnOnce() -> R,
    request: impl FnOnce(&R) -> RequestId,
) -> R {
    let allocs = alloc::thread_allocs();
    let start = HostInstant::now();
    let out = f();
    let end = HostInstant::now();
    let mut a = acc.get();
    a.calls += 1;
    a.ns += end.duration_since(start).as_nanos() as u64;
    a.allocs += alloc::thread_allocs() - allocs;
    acc.set(a);
    if let Some(id) = ticket() {
        keep(SpanRecord {
            id,
            parent,
            name,
            start_ns: since_epoch(start),
            end_ns: since_epoch(end),
            request: request(&out),
        });
    }
    out
}

fn no_request<R>(_: &R) -> RequestId {
    None
}

/// Cost of an empty span on this host, measured with the span file full
/// (as it is for all but the first [`SPAN_LOG_CAP`] spans).
#[derive(Debug, Clone, Copy)]
pub struct SpanFloor {
    /// Nanoseconds an empty span reads between its two clock reads:
    /// subtracted from every span's own time.
    pub inside_ns: f64,
    /// Nanoseconds one empty span costs its caller in total.
    pub total_ns: f64,
}

impl SpanFloor {
    /// The cheaper of two calibrations, field by field.
    pub fn min(self, other: SpanFloor) -> SpanFloor {
        SpanFloor {
            inside_ns: self.inside_ns.min(other.inside_ns),
            total_ns: self.total_ns.min(other.total_ns),
        }
    }
}

/// Measures [`SpanFloor`]: the cheapest of several batches of empty
/// spans. Contention on the host only adds time, so the cheapest batch
/// is the steadiest reading; a run calibrates before every traced pass
/// and keeps the cheapest, so one noisy moment cannot set the floor.
pub fn calibrate() -> SpanFloor {
    const BATCH: u64 = 20_000;
    let mut floor = SpanFloor {
        inside_ns: f64::INFINITY,
        total_ns: f64::INFINITY,
    };
    for _ in 0..15 {
        let acc = Cell::new(Acc::default());
        let start = HostInstant::now();
        for _ in 0..BATCH {
            span(
                &acc,
                "calibrate",
                None,
                || std::hint::black_box(()),
                no_request,
            );
        }
        floor = floor.min(SpanFloor {
            inside_ns: acc.get().ns as f64 / BATCH as f64,
            total_ns: start.elapsed().as_nanos() as f64 / BATCH as f64,
        });
    }
    floor
}

/// The replay iterator, traced: one `trace` span per arrival pulled.
pub struct TracedArrivals<'a, I> {
    inner: I,
    acc: &'a Cell<Acc>,
    parent: Option<u64>,
}

impl<'a, I> TracedArrivals<'a, I> {
    /// Wraps `inner`, counting into `acc`.
    pub fn new(inner: I, acc: &'a Cell<Acc>, root: &Root) -> Self {
        TracedArrivals {
            inner,
            acc,
            parent: root.id(),
        }
    }
}

impl<I: Iterator<Item = Arrival>> Iterator for TracedArrivals<'_, I> {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let inner = &mut self.inner;
        span(
            self.acc,
            "trace",
            self.parent,
            || inner.next(),
            |a| a.and_then(|a| request(a.time, a.function)),
        )
    }
}

/// A router, traced: one `route` span per routing decision.
pub struct TracedRouter<'a, R> {
    inner: R,
    acc: &'a Cell<Acc>,
    parent: Option<u64>,
}

impl<'a, R> TracedRouter<'a, R> {
    /// Wraps `inner`, counting into `acc`.
    pub fn new(inner: R, acc: &'a Cell<Acc>, root: &Root) -> Self {
        TracedRouter {
            inner,
            acc,
            parent: root.id(),
        }
    }
}

impl<R: Router> Router for TracedRouter<'_, R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(
        &mut self,
        now: Instant,
        f: FunctionId,
        language: Language,
        views: &[WorkerView],
    ) -> WorkerId {
        let inner = &mut self.inner;
        span(
            self.acc,
            "route",
            self.parent,
            || inner.route(now, f, language, views),
            |_| request(now, f),
        )
    }
}

/// The ten decision hooks of [`Policy`], in the order their metrics are
/// printed.
pub const HOOKS: [&str; 10] = [
    "on_arrival",
    "reuse_class",
    "reuse_scope",
    "on_idle",
    "ttl_ladder",
    "on_timeout",
    "on_prewarm_fire",
    "select_victim",
    "select_victims",
    "on_terminated",
];

const SPAN_NAMES: [&str; 10] = [
    "policy.on_arrival",
    "policy.reuse_class",
    "policy.reuse_scope",
    "policy.on_idle",
    "policy.ttl_ladder",
    "policy.on_timeout",
    "policy.on_prewarm_fire",
    "policy.select_victim",
    "policy.select_victims",
    "policy.on_terminated",
];

/// What every traced policy of a run adds up to, filled as each one is
/// dropped on its shard thread.
#[derive(Debug, Default)]
pub struct PolicyTotals {
    /// Per hook, indexed like [`HOOKS`].
    pub hooks: [Acc; 10],
    /// Victims the policy named (`select_victims` entries plus
    /// `select_victim` answers).
    pub victims: u64,
    /// Allocations the shard threads made while their policy lived.
    pub shard_allocs: u64,
}

/// The per-hook accumulators of one [`TracedPolicy`]; kept apart from
/// the wrapped policy so a hook can borrow both at once.
struct Hooks {
    accs: [Cell<Acc>; 10],
    parent: Option<u64>,
}

impl Hooks {
    #[inline]
    fn span<R>(&self, hook: usize, request: RequestId, f: impl FnOnce() -> R) -> R {
        span(&self.accs[hook], SPAN_NAMES[hook], self.parent, f, |_| {
            request
        })
    }
}

/// A forwarding [`Policy`] that spans every decision hook. It overrides
/// all twelve trait methods, so no call falls back to a trait default
/// the wrapped policy overrides.
pub struct TracedPolicy {
    inner: Box<dyn Policy>,
    hooks: Hooks,
    victims: u64,
    start_allocs: u64,
    root: Option<Root>,
    sink: Arc<Mutex<PolicyTotals>>,
}

impl TracedPolicy {
    /// Wraps `inner`; call on the thread that will run it.
    pub fn new(inner: Box<dyn Policy>, sink: Arc<Mutex<PolicyTotals>>) -> Self {
        let root = Root::open("shard");
        TracedPolicy {
            inner,
            hooks: Hooks {
                accs: Default::default(),
                parent: root.id(),
            },
            victims: 0,
            start_allocs: alloc::thread_allocs(),
            root: Some(root),
            sink,
        }
    }
}

impl Drop for TracedPolicy {
    fn drop(&mut self) {
        if let Some(root) = self.root.take() {
            root.close();
        }
        let shard_allocs = alloc::thread_allocs() - self.start_allocs;
        if let Ok(mut totals) = self.sink.lock() {
            for (total, acc) in totals.hooks.iter_mut().zip(&self.hooks.accs) {
                total.add(&acc.get());
            }
            totals.victims += self.victims;
            totals.shard_allocs += shard_allocs;
        }
    }
}

impl Policy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_arrival(&mut self, ctx: &PolicyCtx<'_>, f: FunctionId) -> ArrivalResponse {
        let inner = &mut self.inner;
        self.hooks
            .span(0, request(ctx.now, f), || inner.on_arrival(ctx, f))
    }

    fn reuse_class(
        &self,
        ctx: &PolicyCtx<'_>,
        f: FunctionId,
        c: &ContainerView,
    ) -> Option<ReuseClass> {
        self.hooks
            .span(1, request(ctx.now, f), || self.inner.reuse_class(ctx, f, c))
    }

    fn reuse_scope(&self) -> ReuseScope {
        self.hooks.span(2, None, || self.inner.reuse_scope())
    }

    fn on_idle(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> Micros {
        let inner = &mut self.inner;
        self.hooks.span(3, None, || inner.on_idle(ctx, c))
    }

    fn ttl_ladder(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> Option<TtlLadder> {
        let inner = &mut self.inner;
        self.hooks.span(4, None, || inner.ttl_ladder(ctx, c))
    }

    fn on_timeout(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> TimeoutDecision {
        let inner = &mut self.inner;
        self.hooks.span(5, None, || inner.on_timeout(ctx, c))
    }

    fn on_prewarm_fire(
        &mut self,
        ctx: &PolicyCtx<'_>,
        f: FunctionId,
        has_idle_user: bool,
    ) -> PrewarmDecision {
        let inner = &mut self.inner;
        self.hooks
            .span(6, None, || inner.on_prewarm_fire(ctx, f, has_idle_user))
    }

    fn select_victim(
        &mut self,
        ctx: &PolicyCtx<'_>,
        candidates: &[ContainerView],
    ) -> Option<ContainerId> {
        let inner = &mut self.inner;
        let victim = self
            .hooks
            .span(7, None, || inner.select_victim(ctx, candidates));
        self.victims += u64::from(victim.is_some());
        victim
    }

    fn select_victims(
        &mut self,
        ctx: &PolicyCtx<'_>,
        candidates: &[ContainerView],
        need: MemMb,
    ) -> Vec<ContainerId> {
        let inner = &mut self.inner;
        let victims = self
            .hooks
            .span(8, None, || inner.select_victims(ctx, candidates, need));
        self.victims += victims.len() as u64;
        victims
    }

    fn on_terminated(&mut self, ctx: &PolicyCtx<'_>, id: ContainerId) {
        let inner = &mut self.inner;
        self.hooks.span(9, None, || inner.on_terminated(ctx, id))
    }

    fn history_stats(&self) -> Option<HistoryStats> {
        self.inner.history_stats()
    }
}
