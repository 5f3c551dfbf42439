//! The metrics the benchmark prints: their names, units and directions
//! (the lists `BENCHMARK.json` mirrors), and how each is computed from
//! the runs of one process.

use std::collections::BTreeMap;

use rainbowcake_core::history::HistoryStats;
use rainbowcake_metrics::LogHistogram;

use crate::pipeline::{Layers, TraceRun};
use crate::stats::median;
use crate::traced::{Acc, SpanFloor, HOOKS};

/// A printed metric: name, unit, and which direction is better.
pub type Metric = (String, &'static str, &'static str);

/// One pass: every trace of the workload once, in order.
pub type Pass = Vec<TraceRun>;

/// The end-to-end metrics, printed by the untraced run: what the
/// simulator costs its user on this host. The simulated results are
/// deterministic per seed and printed on their own line (see
/// [`Simulated`]); the report digest pins them exactly.
pub fn end_to_end() -> Vec<Metric> {
    [
        ("invocations_per_s", "inv/s", "higher"),
        ("cpu_us_per_invocation", "us", "lower"),
        ("peak_rss_mb", "MB", "lower"),
        ("setup_s", "s", "lower"),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_string(), u, b))
    .collect()
}

/// The simulated results of a pass, all its traces pooled: what the
/// modelled platform did (Figs. 6, 8 and 10 of the paper).
pub struct Simulated {
    /// Fully cold starts, % of completed.
    pub cold_start_pct: f64,
    /// Mean simulated startup latency.
    pub startup_ms_mean: f64,
    /// Mean simulated end-to-end latency, measured from each arrival's
    /// scheduled time, so queueing behind a backlog counts.
    pub e2e_ms_mean: f64,
    /// End-to-end latency histogram (the engine's 2%-bin estimator).
    pub e2e: LogHistogram,
    /// Idle-memory waste per trace.
    pub waste_gb_s: f64,
    /// Start-type mix, % of completed, in `StartType::ALL` order.
    pub starts_pct: [f64; 7],
}

impl Simulated {
    /// Pools the traces of `pass`.
    pub fn of(pass: &[TraceRun]) -> Self {
        let n = completed(pass);
        let mut e2e = LogHistogram::new();
        let mut starts = [0usize; 7];
        let (mut startup_ms, mut e2e_ms, mut waste) = (0.0, 0.0, 0.0);
        for t in pass {
            let r = &t.merged;
            if let Some(s) = &r.streaming {
                e2e.merge(&s.e2e_hist);
            }
            for (s, (_, c)) in starts.iter_mut().zip(r.start_type_counts()) {
                *s += c;
            }
            startup_ms += r.total_startup().as_millis_f64();
            e2e_ms += r.total_e2e().as_millis_f64();
            waste += r.total_waste().value();
        }
        let pct = |c: usize| ratio(100.0 * c as f64, n as f64);
        Simulated {
            cold_start_pct: pct(starts[6]),
            startup_ms_mean: ratio(startup_ms, n as f64),
            e2e_ms_mean: ratio(e2e_ms, n as f64),
            e2e,
            waste_gb_s: ratio(waste, pass.len() as f64),
            starts_pct: starts.map(pct),
        }
    }
}

/// Event kinds in `EngineProfile::KIND_NAMES` order.
const EVENT_KINDS: [&str; 6] = [
    "arrival",
    "init_complete",
    "exec_complete",
    "idle_timeout",
    "prewarm_fire",
    "ladder_wake",
];

/// Start types in `StartType::ALL` order (the Fig. 10 mix).
const START_TYPES: [&str; 7] = [
    "warm_user",
    "snapshot",
    "packed",
    "shared_lang",
    "shared_bare",
    "attached",
    "cold",
];

/// The per-layer metrics, printed by the traced run.
pub fn per_layer() -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        m.push((name.to_string(), unit, better));
    };
    add("trace.ns_per_inv", "ns/inv", "lower");
    add("trace.allocs_per_inv", "allocs/inv", "lower");
    add("trace.arrivals", "count", "lower");
    add("route.ns_per_inv", "ns/inv", "lower");
    add("route.calls", "count", "lower");
    add("handoff.router_cpu_s", "s", "lower");
    add("handoff.router_blocked_s", "s", "lower");
    add("handoff.shard_starved_s", "s", "lower");
    add("engine.self_ns_per_inv", "ns/inv", "lower");
    add("engine.allocs_per_inv", "allocs/inv", "lower");
    add("engine.events_per_inv", "events/inv", "lower");
    for kind in EVENT_KINDS {
        add(
            &format!("engine.events.{kind}_per_inv"),
            "events/inv",
            "lower",
        );
    }
    add("policy.self_ns_per_inv", "ns/inv", "lower");
    add("policy.allocs_per_inv", "allocs/inv", "lower");
    add("policy.victims_per_inv", "victims/inv", "lower");
    for hook in HOOKS {
        add(
            &format!("policy.{hook}.calls_per_inv"),
            "calls/inv",
            "lower",
        );
        add(&format!("policy.{hook}.ns_per_call"), "ns/call", "lower");
    }
    add("history.queries_per_inv", "queries/inv", "lower");
    add("history.scope_queries_per_inv", "queries/inv", "lower");
    add("history.scans_per_inv", "scans/inv", "lower");
    add("history.terms_per_inv", "terms/inv", "lower");
    add("history.memo_hit_ratio", "ratio", "higher");
    add("metrics.merge_ms", "ms", "lower");
    add("metrics.encode_ms", "ms", "lower");
    add("metrics.report_bytes", "bytes", "lower");
    for start in START_TYPES {
        let better = if start == "cold" { "lower" } else { "higher" };
        add(&format!("sim.start.{start}_pct"), "%", better);
    }
    add("sim.waste_gb_s", "GB.s", "lower");
    add("run.allocs_per_inv", "allocs/inv", "lower");
    add("run.span_floor_ns", "ns", "lower");
    add("run.trace_overhead_pct", "%", "lower");
    add("run.unattributed_pct", "%", "lower");
    m
}

fn completed(pass: &[TraceRun]) -> u64 {
    pass.iter().map(|t| t.completed).sum()
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Trace `k`'s value on its fastest pass. Contention from other work on
/// the host only ever adds time, so a trace's fastest pass is its
/// steadiest reading: across ten seeds its spread was never wider than
/// the median pass's, and up to four times narrower.
fn fastest(passes: &[Pass], k: usize, f: impl Fn(&TraceRun) -> f64) -> f64 {
    passes
        .iter()
        .map(|p| f(&p[k]))
        .fold(f64::INFINITY, f64::min)
}

/// [`fastest`] summed over the traces of a pass.
fn sum_of_fastest(passes: &[Pass], f: impl Fn(&TraceRun) -> f64) -> f64 {
    (0..passes[0].len()).map(|k| fastest(passes, k, &f)).sum()
}

/// End-to-end values: throughput and CPU from each trace's fastest
/// pass, and `setup_s` as the median over the traces of each trace's
/// fastest set-up.
pub fn end_to_end_values(passes: &[Pass], peak_rss_kb: u64) -> BTreeMap<String, f64> {
    let n = completed(&passes[0]) as f64;
    let setups: Vec<f64> = (0..passes[0].len())
        .map(|k| fastest(passes, k, |t| t.setup_s))
        .collect();
    BTreeMap::from([
        (
            "invocations_per_s".to_string(),
            n / sum_of_fastest(passes, |t| t.wall_s),
        ),
        (
            "cpu_us_per_invocation".to_string(),
            sum_of_fastest(passes, |t| t.cpu_s) * 1e6 / n,
        ),
        ("peak_rss_mb".to_string(), peak_rss_kb as f64 / 1024.0),
        ("setup_s".to_string(), median(&setups)),
    ])
}

/// Per-layer values from the traced passes, with the host figures that
/// tracing would distort (handoff waits, metrics timings) taken from the
/// untraced passes of the same run.
pub fn per_layer_values(
    untraced: &[Pass],
    traced: &[Pass],
    floor: SpanFloor,
) -> BTreeMap<String, f64> {
    let mut v = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    let runs: Vec<&TraceRun> = traced.iter().flatten().collect();
    let passes = traced.len() as f64;
    let inv: f64 = runs.iter().map(|t| t.completed as f64).sum();
    let layers = || runs.iter().map(|t| t.layers.as_ref().expect("traced run"));
    let sum_acc = |pick: &dyn Fn(&Layers) -> Acc| {
        let mut total = Acc::default();
        for l in layers() {
            total.add(&pick(l));
        }
        total
    };
    // Span time with the clock reads' own share taken out.
    let own_ns = |a: &Acc| (a.ns as f64 - a.calls as f64 * floor.inside_ns).max(0.0);
    // What spans cost their caller outside the measured interval.
    let outside_ns = |a: &Acc| a.calls as f64 * (floor.total_ns - floor.inside_ns).max(0.0);

    let trace = sum_acc(&|l| l.trace);
    let route = sum_acc(&|l| l.route);
    set("trace.ns_per_inv", own_ns(&trace) / inv);
    set("trace.allocs_per_inv", trace.allocs as f64 / inv);
    set(
        "trace.arrivals",
        runs.iter().map(|t| t.arrivals as f64).sum::<f64>() / passes,
    );
    set("route.ns_per_inv", own_ns(&route) / inv);
    set("route.calls", route.calls as f64 / passes);
    let router_cpu_ns: f64 = runs.iter().map(|t| t.sharded.route_cpu_s * 1e9).sum();
    let router_spans_ns =
        trace.ns as f64 + route.ns as f64 + outside_ns(&trace) + outside_ns(&route);
    set(
        "handoff.router_cpu_s",
        ((router_cpu_ns - router_spans_ns) / 1e9).max(0.0) / passes,
    );
    let plain: Vec<&TraceRun> = untraced.iter().flatten().collect();
    let plain_passes = untraced.len() as f64;
    set(
        "handoff.router_blocked_s",
        plain
            .iter()
            .map(|t| (t.sharded.route_s - t.sharded.route_cpu_s).max(0.0))
            .sum::<f64>()
            / plain_passes,
    );
    set(
        "handoff.shard_starved_s",
        plain
            .iter()
            .map(|t| {
                t.sharded
                    .shard_busy_s
                    .iter()
                    .zip(&t.sharded.shard_cpu_s)
                    .map(|(busy, cpu)| (busy - cpu).max(0.0))
                    .sum::<f64>()
            })
            .sum::<f64>()
            / plain_passes,
    );

    let mut hooks = [Acc::default(); 10];
    let mut victims = 0u64;
    let mut shard_allocs = 0u64;
    for l in layers() {
        for (h, a) in hooks.iter_mut().zip(&l.policy.hooks) {
            h.add(a);
        }
        victims += l.policy.victims;
        shard_allocs += l.policy.shard_allocs;
    }
    let mut policy = Acc::default();
    for h in &hooks {
        policy.add(h);
    }
    let shard_cpu_ns: f64 = runs
        .iter()
        .map(|t| t.sharded.shard_cpu_s.iter().sum::<f64>() * 1e9)
        .sum();
    set(
        "engine.self_ns_per_inv",
        (shard_cpu_ns - policy.ns as f64 - outside_ns(&policy)).max(0.0) / inv,
    );
    set(
        "engine.allocs_per_inv",
        shard_allocs.saturating_sub(policy.allocs) as f64 / inv,
    );
    let mut events = [0u64; 6];
    for t in &runs {
        for (e, c) in events.iter_mut().zip(t.sharded.profile().counts) {
            *e += c;
        }
    }
    set(
        "engine.events_per_inv",
        events.iter().sum::<u64>() as f64 / inv,
    );
    for (kind, count) in EVENT_KINDS.iter().zip(events) {
        set(&format!("engine.events.{kind}_per_inv"), count as f64 / inv);
    }
    let policy_own: f64 = hooks.iter().map(own_ns).sum();
    set("policy.self_ns_per_inv", policy_own / inv);
    set("policy.allocs_per_inv", policy.allocs as f64 / inv);
    set("policy.victims_per_inv", victims as f64 / inv);
    for (hook, acc) in HOOKS.iter().zip(&hooks) {
        set(
            &format!("policy.{hook}.calls_per_inv"),
            acc.calls as f64 / inv,
        );
        set(
            &format!("policy.{hook}.ns_per_call"),
            ratio(own_ns(acc), acc.calls as f64),
        );
    }

    let mut history = HistoryStats::default();
    for t in &runs {
        history.merge(&t.sharded.history());
    }
    set("history.queries_per_inv", history.queries as f64 / inv);
    set(
        "history.scope_queries_per_inv",
        history.scope_queries as f64 / inv,
    );
    set("history.scans_per_inv", history.scans as f64 / inv);
    set("history.terms_per_inv", history.terms_computed as f64 / inv);
    set(
        "history.memo_hit_ratio",
        ratio(history.scope_hits as f64, history.scope_queries as f64),
    );

    set(
        "metrics.merge_ms",
        median(&plain.iter().map(|t| t.merge_ms).collect::<Vec<_>>()),
    );
    set(
        "metrics.encode_ms",
        median(&plain.iter().map(|t| t.encode_ms).collect::<Vec<_>>()),
    );
    set(
        "metrics.report_bytes",
        ratio(
            plain.iter().map(|t| t.report_bytes as f64).sum(),
            plain.len() as f64,
        ),
    );

    let sim = Simulated::of(&untraced[0]);
    for (name, pct) in START_TYPES.iter().zip(sim.starts_pct) {
        set(&format!("sim.start.{name}_pct"), pct);
    }
    set("sim.waste_gb_s", sim.waste_gb_s);

    set(
        "run.allocs_per_inv",
        layers().map(|l| l.allocs as f64).sum::<f64>() / inv,
    );
    set("run.span_floor_ns", floor.total_ns);
    let traced_wall = sum_of_fastest(traced, |t| t.wall_s);
    let plain_wall = sum_of_fastest(untraced, |t| t.wall_s);
    set(
        "run.trace_overhead_pct",
        100.0 * (traced_wall / plain_wall - 1.0),
    );
    let process_cpu: f64 = runs.iter().map(|t| t.cpu_s).sum();
    let thread_cpu = router_cpu_ns / 1e9 + shard_cpu_ns / 1e9;
    set(
        "run.unattributed_pct",
        100.0 * ((process_cpu - thread_cpu) / process_cpu).max(0.0),
    );
    v
}
