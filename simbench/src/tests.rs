//! Tests of the benchmark itself: the traced wrappers change nothing the
//! simulator computes, the printed names meet the result format, and the
//! lists compiled in here are the ones `BENCHMARK.json` declares.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use rainbowcake_bench::{make_policy, BASELINE_NAMES};
use rainbowcake_core::history::HistoryStats;
use rainbowcake_core::mem::MemMb;
use rainbowcake_core::policy::{
    ArrivalResponse, ContainerView, Policy, PolicyCtx, PrewarmDecision, ReuseClass, ReuseScope,
    TimeoutDecision, TtlLadder,
};
use rainbowcake_core::time::{Instant, Micros};
use rainbowcake_core::types::{ContainerId, FunctionId, Layer};
use rainbowcake_workloads::paper_catalog;

use crate::metrics::{end_to_end, per_layer, Metric};
use crate::pipeline::run_trace;
use crate::traced::{PolicyTotals, TracedPolicy};
use crate::workload::{Workload, WORKLOADS};
use crate::{parse_args, Args, DEFAULT_SECONDS, DEFAULT_SEED};

/// A one-hour paper-catalog trace for `policy` at `memory_gb`.
fn one_hour(policy: &'static str, memory_gb: u64) -> Workload {
    Workload {
        name: "one-hour",
        why: "test",
        policy,
        functions: 20,
        memory_gb,
        hours: 1,
        rate_scale: 1.0,
        traces: 1,
    }
}

/// The traced run reproduces the untraced report byte for byte for all
/// six policies and both ablations, at a roomy and at a tight memory
/// budget, so the wrapper forwards every hook that decides something.
/// The hooks a policy overrides only for speed (`reuse_scope`,
/// `select_victims`) would leave the report unchanged if dropped, so
/// their forwarding shows in which hooks the engine reached instead.
#[test]
fn tracing_changes_no_report() {
    let policies = BASELINE_NAMES
        .into_iter()
        .chain(["RainbowCake-NoSharing", "RainbowCake-NoLayers"]);
    let mut batch_evictions = 0;
    for policy in policies {
        let narrow_scope = make_policy(policy, &paper_catalog()).reuse_scope() != ReuseScope::All;
        for memory_gb in [240, 2] {
            let w = one_hour(policy, memory_gb);
            let plain = run_trace(&w, 7, false);
            let traced = run_trace(&w, 7, true);
            assert!(plain.completed > 1_000, "{policy}: trace too small");
            assert!(plain.ledger_balances() && traced.ledger_balances());
            assert_eq!(
                traced.sharded.report.to_json(),
                plain.sharded.report.to_json(),
                "{policy} at {memory_gb} GB: tracing changed the report"
            );
            assert_eq!(traced.digest, plain.digest);
            assert_eq!(traced.sharded.history(), plain.sharded.history());
            let layers = traced.layers.expect("traced run has layers");
            let hooks = &layers.policy.hooks;
            assert_eq!(layers.route.calls, traced.arrivals, "{policy}");
            assert_eq!(hooks[0].calls, traced.arrivals, "{policy}: on_arrival");
            // The engine evicts through `select_victims` only; a wrapper
            // without that override would route it through its own
            // `select_victim`.
            assert_eq!(hooks[7].calls, 0, "{policy}: select_victim reached");
            batch_evictions += hooks[8].calls;
            if narrow_scope {
                // Without the forwarded scope the engine would fall back
                // to offering every idle container to `reuse_class`.
                assert_eq!(hooks[1].calls, 0, "{policy}: reuse_class reached");
            }
        }
    }
    assert!(batch_evictions > 0, "the tight budget never evicted");
}

/// A policy that answers every hook with a value no trait default gives
/// and logs each call, so a wrapper that drops one shows.
struct Probe(Rc<RefCell<Vec<&'static str>>>);

impl Probe {
    fn log(&self, hook: &'static str) {
        self.0.borrow_mut().push(hook);
    }
}

const PROBE_LADDER: TtlLadder = TtlLadder {
    ttls: [Micros::from_secs(7), Micros::MAX, Micros::MAX],
    rungs: 1,
};

impl Policy for Probe {
    fn name(&self) -> &'static str {
        self.log("name");
        "Probe"
    }
    fn on_arrival(&mut self, _: &PolicyCtx<'_>, f: FunctionId) -> ArrivalResponse {
        self.log("on_arrival");
        ArrivalResponse::prewarm(f, Micros::from_secs(3), Layer::Lang)
    }
    fn reuse_class(
        &self,
        _: &PolicyCtx<'_>,
        _: FunctionId,
        _: &ContainerView,
    ) -> Option<ReuseClass> {
        self.log("reuse_class");
        Some(ReuseClass::SharedBare)
    }
    fn reuse_scope(&self) -> ReuseScope {
        self.log("reuse_scope");
        ReuseScope::OwnedOrPacked
    }
    fn on_idle(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> Micros {
        self.log("on_idle");
        Micros::from_secs(11)
    }
    fn ttl_ladder(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> Option<TtlLadder> {
        self.log("ttl_ladder");
        Some(PROBE_LADDER)
    }
    fn on_timeout(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> TimeoutDecision {
        self.log("on_timeout");
        TimeoutDecision::Downgrade {
            ttl: Micros::from_secs(13),
        }
    }
    fn on_prewarm_fire(&mut self, _: &PolicyCtx<'_>, _: FunctionId, _: bool) -> PrewarmDecision {
        self.log("on_prewarm_fire");
        PrewarmDecision::Warm {
            target: Layer::Bare,
        }
    }
    fn select_victim(&mut self, _: &PolicyCtx<'_>, _: &[ContainerView]) -> Option<ContainerId> {
        self.log("select_victim");
        Some(ContainerId::new(17))
    }
    fn select_victims(
        &mut self,
        _: &PolicyCtx<'_>,
        _: &[ContainerView],
        _: MemMb,
    ) -> Vec<ContainerId> {
        self.log("select_victims");
        vec![ContainerId::new(19)]
    }
    fn on_terminated(&mut self, _: &PolicyCtx<'_>, _: ContainerId) {
        self.log("on_terminated");
    }
    fn history_stats(&self) -> Option<HistoryStats> {
        self.log("history_stats");
        Some(HistoryStats {
            queries: 23,
            ..HistoryStats::default()
        })
    }
}

/// Every one of the twelve `Policy` methods reaches the wrapped policy
/// and returns its answer, including the hooks whose omission no report
/// would show today (`reuse_class`, `on_prewarm_fire`, `on_terminated`).
#[test]
fn traced_policy_forwards_all_twelve_methods() {
    let calls = Rc::new(RefCell::new(Vec::new()));
    let sink = Arc::new(Mutex::new(PolicyTotals::default()));
    let mut p = TracedPolicy::new(Box::new(Probe(Rc::clone(&calls))), Arc::clone(&sink));
    let catalog = paper_catalog();
    let ctx = PolicyCtx {
        now: Instant::from_micros(5),
        catalog: &catalog,
    };
    let f = FunctionId::new(2);
    let view = ContainerView {
        id: ContainerId::new(1),
        layer: Layer::User,
        language: None,
        owner: Some(f),
        packed: Vec::new(),
        memory: MemMb::new(64),
        idle_since: Instant::ZERO,
        created_at: Instant::ZERO,
        hits: 0,
    };
    let views = [view.clone()];
    assert_eq!(p.name(), "Probe");
    assert_eq!(
        p.on_arrival(&ctx, f),
        ArrivalResponse::prewarm(f, Micros::from_secs(3), Layer::Lang)
    );
    assert_eq!(p.reuse_class(&ctx, f, &view), Some(ReuseClass::SharedBare));
    assert_eq!(p.reuse_scope(), ReuseScope::OwnedOrPacked);
    assert_eq!(p.on_idle(&ctx, &view), Micros::from_secs(11));
    assert_eq!(p.ttl_ladder(&ctx, &view), Some(PROBE_LADDER));
    assert_eq!(
        p.on_timeout(&ctx, &view),
        TimeoutDecision::Downgrade {
            ttl: Micros::from_secs(13)
        }
    );
    assert_eq!(
        p.on_prewarm_fire(&ctx, f, true),
        PrewarmDecision::Warm {
            target: Layer::Bare
        }
    );
    assert_eq!(p.select_victim(&ctx, &views), Some(ContainerId::new(17)));
    assert_eq!(
        p.select_victims(&ctx, &views, MemMb::new(1)),
        vec![ContainerId::new(19)]
    );
    p.on_terminated(&ctx, view.id);
    assert_eq!(p.history_stats().map(|h| h.queries), Some(23));
    drop(p);
    assert_eq!(
        *calls.borrow(),
        [
            "name",
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
            "history_stats",
        ]
    );
    // Each decision hook was spanned once, and the victims counted.
    let totals = sink.lock().expect("no panic");
    assert!(
        totals.hooks.iter().all(|h| h.calls == 1),
        "{:?}",
        totals.hooks
    );
    assert_eq!(totals.victims, 2);
}

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn names_and_units_meet_the_result_format() {
    let e2e = end_to_end();
    let layers = per_layer();
    assert!((1..=16).contains(&e2e.len()), "{} end-to-end", e2e.len());
    assert!(
        (1..=128).contains(&layers.len()),
        "{} per-layer",
        layers.len()
    );
    let mut seen = std::collections::HashSet::new();
    for (name, unit, better) in e2e.iter().chain(&layers) {
        assert!(name_ok(name), "bad metric name {name:?}");
        assert!(unit_ok(unit), "bad unit {unit:?} of {name}");
        assert!(matches!(*better, "higher" | "lower"), "{name}: {better}");
        assert!(seen.insert(name.clone()), "{name} listed twice");
    }
    assert!(e2e
        .iter()
        .any(|(n, u, b)| n == "setup_s" && *u == "s" && *b == "lower"));
    for w in &WORKLOADS {
        assert!(name_ok(w.name), "bad workload name {:?}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
}

#[test]
fn arguments_parse_in_the_documented_form() {
    let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    assert_eq!(
        parse_args(&args("--workload rc-wide --seed 9 --seconds 3 --trace 1")),
        Ok(Args {
            workload: Some("rc-wide".into()),
            seed: 9,
            seconds: 3,
            trace: true,
        })
    );
    assert_eq!(
        parse_args(&args("--trace")),
        Ok(Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: true,
        })
    );
    assert!(parse_args(&args("--workload rc-tiny")).is_err());
    assert!(parse_args(&args("--seed x")).is_err());
    assert!(parse_args(&args("--seconds 0")).is_err());
    assert!(parse_args(&args("--frobnicate")).is_err());
}

/// A JSON value, enough to read `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key:?}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
}

/// Parses one JSON document (no escapes beyond `\"` and `\\`).
fn parse_json(text: &str) -> Json {
    fn ws(s: &[u8], i: &mut usize) {
        while *i < s.len() && s[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(s: &[u8], i: &mut usize) -> Json {
        ws(s, i);
        match s[*i] {
            b'{' => {
                *i += 1;
                let mut fields = Vec::new();
                loop {
                    ws(s, i);
                    if s[*i] == b'}' {
                        *i += 1;
                        return Json::Obj(fields);
                    }
                    let Json::Str(key) = value(s, i) else {
                        panic!("object key at {i}")
                    };
                    ws(s, i);
                    assert_eq!(s[*i], b':');
                    *i += 1;
                    fields.push((key, value(s, i)));
                    ws(s, i);
                    if s[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut items = Vec::new();
                loop {
                    ws(s, i);
                    if s[*i] == b']' {
                        *i += 1;
                        return Json::Arr(items);
                    }
                    items.push(value(s, i));
                    ws(s, i);
                    if s[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => {
                *i += 1;
                let mut out = Vec::new();
                while s[*i] != b'"' {
                    if s[*i] == b'\\' {
                        *i += 1;
                    }
                    out.push(s[*i]);
                    *i += 1;
                }
                *i += 1;
                Json::Str(String::from_utf8(out).expect("UTF-8 string"))
            }
            b't' | b'f' | b'n' => {
                let word: String = s[*i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| c as char)
                    .collect();
                *i += word.len();
                match word.as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    other => panic!("bad literal {other}"),
                }
            }
            _ => {
                let num: String = s[*i..]
                    .iter()
                    .take_while(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                    .map(|&c| c as char)
                    .collect();
                *i += num.len();
                Json::Num(num.parse().expect("number"))
            }
        }
    }
    let mut i = 0;
    let v = value(text.as_bytes(), &mut i);
    ws(text.as_bytes(), &mut i);
    assert_eq!(i, text.len(), "trailing text");
    v
}

type Owned = (String, String, String);

fn declared(json: &Json, key: &str) -> Vec<Owned> {
    json.get(key)
        .arr()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).str().to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn owned(metrics: Vec<Metric>) -> Vec<Owned> {
    metrics
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
        .collect()
}

#[test]
fn compiled_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
    let json = parse_json(&text);
    let workloads: Vec<(String, String)> = json
        .get("workloads")
        .arr()
        .iter()
        .map(|w| {
            (
                w.get("name").str().to_string(),
                w.get("why").str().to_string(),
            )
        })
        .collect();
    let compiled: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, compiled);
    assert_eq!(declared(&json, "end_to_end"), owned(end_to_end()));
    assert_eq!(declared(&json, "per_layer"), owned(per_layer()));
    for m in json.get("end_to_end").arr() {
        let Json::Num(bound) = m.get("bound") else {
            panic!("bound is a number")
        };
        assert!((0.0..=0.25).contains(bound), "bound {bound}");
    }
    let command: Vec<&str> = json.get("command").arr().iter().map(Json::str).collect();
    assert!(command.contains(&"simbench/Cargo.toml"), "{command:?}");
}
