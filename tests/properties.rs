//! Property-based tests (proptest) over the core data structures and
//! invariants: time arithmetic, cost model, history recorder, lifecycle
//! legality, trace construction/replay, waste conservation, percentile
//! bounds, and whole mini-simulations.

use proptest::prelude::*;

use rainbowcake::core::cost::CostModel;
use rainbowcake::core::history::{iat_quantile, HistoryRecorder, ShareScope};
use rainbowcake::core::lifecycle::{LifecycleEvent, LifecycleState};
use rainbowcake::core::mem::MemMb;
use rainbowcake::core::profile::{Catalog, FunctionProfile};
use rainbowcake::core::time::{Instant, Micros};
use rainbowcake::core::types::{FunctionId, Language, Layer};
use rainbowcake::metrics::percentile::percentile;
use rainbowcake::metrics::{IdleOutcome, WasteTracker};
use rainbowcake::prelude::{run, Arrival, OpenWhiskDefault, RainbowCake, SimConfig, Trace};
use rainbowcake::trace::replay::expand_bucket;
use rainbowcake::trace::samplers;
use rainbowcake::workloads::paper_catalog;

fn small_catalog() -> Catalog {
    let mut c = Catalog::new();
    for lang in [Language::NodeJs, Language::Python, Language::Java] {
        c.push(FunctionProfile::synthetic(FunctionId::new(0), lang));
    }
    c
}

proptest! {
    // ---------------- time ----------------

    #[test]
    fn micros_add_is_commutative_and_monotone(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let (x, y) = (Micros::from_micros(a), Micros::from_micros(b));
        prop_assert_eq!(x + y, y + x);
        prop_assert!(x + y >= x);
        prop_assert_eq!((x + y) - y, x);
    }

    #[test]
    fn micros_sub_saturates(a in any::<u64>(), b in any::<u64>()) {
        let d = Micros::from_micros(a) - Micros::from_micros(b);
        prop_assert_eq!(d.as_micros(), a.saturating_sub(b));
    }

    #[test]
    fn instant_duration_roundtrip(a in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 4) {
        let t = Instant::from_micros(a);
        let dur = Micros::from_micros(d);
        prop_assert_eq!((t + dur).duration_since(t), dur);
    }

    #[test]
    fn minute_bucket_is_floor_division(us in any::<u64>()) {
        prop_assert_eq!(
            Instant::from_micros(us).minute_bucket(),
            (us / 60_000_000) as usize
        );
    }

    // ---------------- cost model ----------------

    #[test]
    fn beta_balances_costs_exactly(
        alpha in 0.01f64..0.99,
        t_ms in 1u64..100_000,
        mem in 1u64..100_000,
    ) {
        let model = CostModel::new(alpha).unwrap();
        let t = Micros::from_millis(t_ms);
        let m = MemMb::new(mem);
        let beta = model.beta(t, m);
        // alpha * t == (1 - alpha) * m * beta, within microsecond rounding:
        // beta is truncated to whole microseconds, so the waste side falls
        // short of the startup side by less than (1 - alpha) * m * 1 us and
        // never exceeds it (each bound with float slack).
        let lhs = alpha * t.as_secs_f64();
        let rhs = (1.0 - alpha) * m.as_gb_f64() * beta.as_secs_f64();
        let slack = lhs * 1e-12;
        prop_assert!(rhs <= lhs + slack, "lhs={lhs} rhs={rhs}");
        prop_assert!(
            lhs - rhs <= (1.0 - alpha) * m.as_gb_f64() * 1e-6 + slack,
            "lhs={lhs} rhs={rhs}"
        );
    }

    #[test]
    fn unified_cost_is_monotone_in_both_components(
        alpha in 0.01f64..0.99,
        s1 in 0u64..1_000_000, s2 in 0u64..1_000_000,
        w in 0.0f64..1e6,
    ) {
        let model = CostModel::new(alpha).unwrap();
        let (lo, hi) = (s1.min(s2), s1.max(s2));
        let waste = rainbowcake::core::mem::GbSeconds::new(w);
        prop_assert!(
            model.unified(Micros::from_millis(lo), waste)
                <= model.unified(Micros::from_millis(hi), waste)
        );
    }

    // ---------------- history recorder ----------------

    #[test]
    fn iat_quantile_is_monotone_in_p(lambda in 0.001f64..1000.0, p1 in 0.0f64..0.99, p2 in 0.0f64..0.99) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        prop_assert!(iat_quantile(lambda, lo) <= iat_quantile(lambda, hi));
    }

    #[test]
    fn compound_rate_dominates_components(
        arrivals in prop::collection::vec((0u64..28_800, 0u32..3), 2..60),
    ) {
        let catalog = small_catalog();
        let mut rec = HistoryRecorder::new(&catalog, 6).unwrap();
        let mut latest = 0u64;
        let mut sorted = arrivals;
        sorted.sort();
        for (secs, f) in sorted {
            rec.record_arrival(FunctionId::new(f), Instant::from_micros(secs * 1_000_000));
            latest = latest.max(secs);
        }
        let now = Instant::from_micros((latest + 1) * 1_000_000);
        let global = rec.rate(ShareScope::Global, now);
        for f in 0..3u32 {
            let fr = rec.rate(ShareScope::Function(FunctionId::new(f)), now);
            prop_assert!(fr >= 0.0);
            prop_assert!(global >= fr - 1e-12);
        }
        let lang_sum: f64 = [Language::NodeJs, Language::Python, Language::Java]
            .iter()
            .map(|&l| rec.rate(ShareScope::Language(l), now))
            .sum();
        prop_assert!((lang_sum - global).abs() < 1e-9);
    }

    #[test]
    fn rates_never_increase_while_silent(
        gaps in prop::collection::vec(1u64..600, 2..10),
        silence in 1u64..7200,
    ) {
        let catalog = small_catalog();
        let mut rec = HistoryRecorder::new(&catalog, 6).unwrap();
        let f = FunctionId::new(0);
        let mut t = 0u64;
        for g in &gaps {
            t += g;
            rec.record_arrival(f, Instant::from_micros(t * 1_000_000));
        }
        let now = Instant::from_micros(t * 1_000_000);
        let later = Instant::from_micros((t + silence) * 1_000_000);
        prop_assert!(rec.function_rate(f, later) <= rec.function_rate(f, now) + 1e-12);
    }

    /// Over arbitrary interleavings of arrivals and rate queries (any
    /// scope, non-decreasing time with frequent same-tick repeats), the
    /// active-member scan behind [`HistoryRecorder::rate`] is
    /// bit-identical to the naive
    /// O(functions-in-scope) scan [`HistoryRecorder::rate_uncached`] —
    /// including the `-0.0` an empty sharing set sums to.
    #[test]
    fn cached_rates_are_bit_identical_to_the_naive_scan(
        ops in prop::collection::vec((0u64..2_000_000, 0u8..4, 0u32..8), 1..120),
    ) {
        let mut catalog = Catalog::new();
        let langs = [Language::NodeJs, Language::Python, Language::Java];
        for i in 0..8u32 {
            catalog.push(FunctionProfile::synthetic(
                FunctionId::new(i),
                langs[(i % 3) as usize],
            ));
        }
        let mut rec = HistoryRecorder::new(&catalog, 6).unwrap();
        let mut now_us = 0u64;
        for (delta, op, x) in ops {
            // Zero deltas are common, so queries repeat at one tick as
            // often as they advance it.
            now_us += delta.saturating_sub(1_000_000);
            let now = Instant::from_micros(now_us);
            let scope = match op {
                0 => {
                    rec.record_arrival(FunctionId::new(x), now);
                    ShareScope::Function(FunctionId::new(x))
                }
                1 => ShareScope::Function(FunctionId::new(x)),
                2 => ShareScope::Language(langs[(x % 3) as usize]),
                _ => ShareScope::Global,
            };
            let cached = rec.rate(scope, now);
            let naive = rec.rate_uncached(scope, now);
            prop_assert_eq!(
                cached.to_bits(),
                naive.to_bits(),
                "scope {:?} at {} us: cached {} vs naive {}",
                scope, now_us, cached, naive
            );
        }
    }

    // ---------------- lifecycle ----------------

    #[test]
    fn lifecycle_never_reaches_inconsistent_states(
        start in 0usize..3,
        events in prop::collection::vec((0u8..6, 0usize..3, 0u32..2), 0..30),
    ) {
        let layers = [Layer::Bare, Layer::Lang, Layer::User];
        let languages = [Language::NodeJs, Language::Python, Language::Java];
        let target = layers[start];
        let mut state = LifecycleState::Initializing {
            target,
            for_function: FunctionId::new(0),
            language: (target >= Layer::Lang).then_some(Language::Python),
        };
        for (e, k, f) in events {
            let function = FunctionId::new(f);
            let event = match e {
                0 => LifecycleEvent::InitComplete,
                1 => LifecycleEvent::BeginExecution { function },
                2 => LifecycleEvent::ExecutionComplete,
                3 => LifecycleEvent::Downgrade,
                4 => LifecycleEvent::BeginUpgrade {
                    for_function: function,
                    target: layers[k],
                    language: languages[k],
                },
                _ => LifecycleEvent::Adopt { function },
            };
            if let Ok(next) = state.transition(event) {
                state = next;
            }
            // Invariants that must hold in every reachable state:
            match state {
                LifecycleState::Initializing { target, language, .. } => {
                    prop_assert_eq!(language.is_some(), target >= Layer::Lang);
                }
                LifecycleState::Idle { layer, language, owner } => {
                    if layer == Layer::Bare {
                        prop_assert!(language.is_none() && owner.is_none());
                    }
                    if layer == Layer::Lang {
                        prop_assert!(language.is_some() && owner.is_none());
                    }
                    if layer == Layer::User {
                        prop_assert!(language.is_some() && owner.is_some());
                    }
                }
                LifecycleState::Running { function, language } => {
                    // A running container holds its language, and
                    // completing hands it back idle to the function it ran.
                    prop_assert_eq!(state.layer(), Layer::User);
                    prop_assert_eq!(
                        state.transition(LifecycleEvent::ExecutionComplete),
                        Ok(LifecycleState::Idle {
                            layer: Layer::User,
                            language: Some(language),
                            owner: Some(function),
                        })
                    );
                }
            }
        }
    }

    // ---------------- traces ----------------

    #[test]
    fn traces_are_sorted_and_clipped(
        raw in prop::collection::vec((0u64..10_000_000_000, 0u32..20), 0..300),
        horizon_s in 1u64..7200,
    ) {
        let horizon = Micros::from_secs(horizon_s);
        let arrivals: Vec<Arrival> = raw
            .into_iter()
            .map(|(us, f)| Arrival {
                time: Instant::from_micros(us),
                function: FunctionId::new(f),
            })
            .collect();
        let trace = Trace::from_arrivals(horizon, arrivals);
        let mut last = Instant::ZERO;
        for a in &trace {
            prop_assert!(a.time >= last);
            prop_assert!(a.time.as_micros() <= horizon.as_micros());
            last = a.time;
        }
    }

    #[test]
    fn bucket_expansion_is_exact(minute in 0usize..480, count in 0u32..500) {
        let f = FunctionId::new(0);
        let out = expand_bucket(minute, count, f);
        prop_assert_eq!(out.len(), count as usize);
        for a in &out {
            prop_assert_eq!(a.time.minute_bucket(), minute);
        }
        // Evenly spread: strictly increasing for count > 1.
        for w in out.windows(2) {
            prop_assert!(w[0].time < w[1].time);
        }
    }

    // ---------------- samplers ----------------

    #[test]
    fn gamma_samples_are_positive_and_finite(
        seed in any::<u64>(),
        shape in 0.05f64..50.0,
        scale in 0.01f64..100.0,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = samplers::gamma(&mut rng, shape, scale);
            prop_assert!(x.is_finite() && x > 0.0);
        }
    }

    #[test]
    fn lognormal_is_positive(seed in any::<u64>(), mean in 0.01f64..1e4, cv in 0.0f64..3.0) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let x = samplers::lognormal_mean_cv(&mut rng, mean, cv);
        prop_assert!(x.is_finite() && x > 0.0);
    }

    // ---------------- percentiles ----------------

    #[test]
    fn percentile_is_bounded_and_monotone(
        mut xs in prop::collection::vec(-1e9f64..1e9, 1..200),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let lo_p = p1.min(p2);
        let hi_p = p1.max(p2);
        let lo = percentile(&xs, lo_p).unwrap();
        let hi = percentile(&xs, hi_p).unwrap();
        prop_assert!(lo <= hi);
        xs.sort_by(f64::total_cmp);
        prop_assert!(lo >= xs[0] && hi <= xs[xs.len() - 1]);
    }

    // ---------------- waste tracker ----------------

    #[test]
    fn waste_buckets_conserve_totals(
        intervals in prop::collection::vec(
            (0u64..14_400, 0u64..3_600, 1u64..4_096, any::<bool>()),
            0..60
        ),
    ) {
        let mut w = WasteTracker::new();
        for (start_s, len_s, mem, hit) in intervals {
            w.record_interval(
                MemMb::new(mem),
                Instant::from_micros(start_s * 1_000_000),
                Instant::from_micros((start_s + len_s) * 1_000_000),
                if hit { IdleOutcome::Hit } else { IdleOutcome::Miss },
            );
        }
        let bucket_sum: f64 = w.per_minute().iter().map(|(h, m)| h.value() + m.value()).sum();
        let total = w.total().value();
        prop_assert!((bucket_sum - total).abs() < total * 1e-9 + 1e-6);
        let cum = w.cumulative_per_minute();
        if let Some(last) = cum.last() {
            prop_assert!((last.value() - total).abs() < total * 1e-9 + 1e-6);
        }
    }

    // ---------------- profiles ----------------

    #[test]
    fn startup_is_monotone_in_warmth_for_all_paper_functions(idx in 0usize..20) {
        let catalog = paper_catalog();
        let p = catalog.iter().nth(idx).unwrap();
        let cold = p.startup_from(None);
        let bare = p.startup_from(Some(Layer::Bare));
        let lang = p.startup_from(Some(Layer::Lang));
        let user = p.startup_from(Some(Layer::User));
        prop_assert!(cold > bare && bare > lang && lang > user);
    }
}

// ---------------- pool indices ----------------

/// Asserts every index-backed pool accessor agrees with a linear scan
/// of the primary container map: the same candidate set everywhere, and
/// the same id order for the id-ordered accessors (idle ids, idle
/// containers, views, the packed index). The per-owner and per-layer
/// idle lists are in idle-entry order, which `assert_coherent` checks,
/// so their members are compared as sorted sets, and `warmest` against
/// the scan's latest `idle_since`, lowest id.
fn assert_pool_indices_match_scan(pool: &rainbowcake::sim::pool::Pool) {
    use std::cmp::Reverse;

    use rainbowcake::core::types::ContainerId;
    use rainbowcake::sim::container::Container;
    use rainbowcake::sim::pool::IdleList;

    fn sorted(ids: impl Iterator<Item = ContainerId>) -> Vec<ContainerId> {
        let mut ids: Vec<_> = ids.collect();
        ids.sort_unstable();
        ids
    }

    // The pool's own structural check: lists, links, packed index and
    // initializing count against the slab.
    pool.assert_coherent();

    let scan_idle: Vec<_> = pool.iter().filter(|c| c.is_idle()).map(|c| c.id).collect();
    let scan_views: Vec<_> = pool
        .iter()
        .filter(|c| c.is_idle())
        .map(|c| c.view())
        .collect();
    let mut views = Vec::new();
    pool.idle_views_into(None, &mut views);
    assert_eq!(views, scan_views);
    if let Some(&first) = scan_idle.first() {
        let excluded: Vec<_> = scan_views
            .iter()
            .filter(|v| v.id != first)
            .cloned()
            .collect();
        pool.idle_views_into(Some(first), &mut views);
        assert_eq!(views, excluded);
    }

    let scan: Vec<&Container> = pool.iter().collect();

    // Idle enumeration (ids and containers).
    assert_eq!(pool.idle_ids().collect::<Vec<_>>(), scan_idle);
    assert_eq!(
        pool.idle_containers().map(|c| c.id).collect::<Vec<_>>(),
        scan_idle
    );

    // The idle lists: per-function idle User containers, Lang-*layer*
    // containers per language and Bare-layer containers (the
    // Layered-scope candidate sets), with the availability check.
    let idle_at = |layer: Layer| move |c: &&&Container| c.is_idle() && c.layer() == layer;
    let mut lists: Vec<(IdleList, Vec<&Container>)> = Vec::new();
    for f in (0..4).map(FunctionId::new) {
        let members: Vec<_> = scan
            .iter()
            .filter(idle_at(Layer::User))
            .filter(|c| c.owner() == Some(f))
            .copied()
            .collect();
        assert_eq!(pool.has_idle_user(f), !members.is_empty());
        lists.push((IdleList::User(f), members));

        let expect_packed: Vec<_> = scan
            .iter()
            .filter(idle_at(Layer::User))
            .filter(|c| c.packed.contains(&f))
            .map(|c| c.id)
            .collect();
        assert_eq!(pool.idle_packed_ids(f).collect::<Vec<_>>(), expect_packed);
    }
    for lang in [Language::NodeJs, Language::Python, Language::Java] {
        let members = scan
            .iter()
            .filter(idle_at(Layer::Lang))
            .filter(|c| c.language() == Some(lang))
            .copied()
            .collect();
        lists.push((IdleList::Lang(lang), members));
    }
    let bare = scan.iter().filter(idle_at(Layer::Bare)).copied().collect();
    lists.push((IdleList::Bare, bare));
    for (list, members) in &lists {
        let expect: Vec<_> = members.iter().map(|c| c.id).collect();
        assert_eq!(sorted(pool.idle_list_ids(*list)), expect, "{list:?}");
        let warmest = members
            .iter()
            .max_by_key(|c| (c.idle_since, Reverse(c.id)))
            .map(|w| {
                let run = members.iter().filter(|c| c.idle_since == w.idle_since);
                (w.id, run.count())
            });
        assert_eq!(
            pool.warmest(*list).map(|(c, run)| (c.id, run)),
            warmest,
            "{list:?}"
        );
    }

    // Per-container accessors the engine scores from.
    for c in scan.iter().filter(|c| c.is_idle()) {
        assert_eq!(pool.idle_since_of(c.id), c.idle_since);
        assert_eq!(pool.owner_of(c.id), c.owner());
        assert_eq!(pool.view_of(c.id), c.view());
    }

    // Initializing count (the contention model's concurrency input).
    let initializing = scan
        .iter()
        .filter(|c| matches!(c.state, LifecycleState::Initializing { .. }))
        .count();
    assert_eq!(pool.initializing_count(), initializing);

    // Earliest attachable in-flight init per function (the Load path).
    for f in (0..4).map(FunctionId::new) {
        let expect = scan
            .iter()
            .filter(|c| {
                c.is_attachable_init()
                    && matches!(
                        c.state,
                        LifecycleState::Initializing {
                            target: Layer::User,
                            for_function,
                            ..
                        } if for_function == f
                    )
            })
            .map(|c| (c.init_done_at, c.id))
            .min();
        assert_eq!(
            pool.earliest_attachable_init(f).map(|c| c.id),
            expect.map(|(_, id)| id)
        );
    }
}

// Whole mini-simulations run at the default case count too, so
// `PROPTEST_CASES` deepens them: at 4,096 cases both take about 11 s
// together under the checked profile on 2 vCPUs.
proptest! {
    #[test]
    fn random_traces_never_break_the_engine(
        raw in prop::collection::vec((0u64..1_800, 0u32..3), 1..120),
        seed in any::<u64>(),
        capacity_mb in 256u64..8_192,
    ) {
        let catalog = small_catalog();
        let arrivals: Vec<Arrival> = raw
            .into_iter()
            .map(|(s, f)| Arrival {
                time: Instant::from_micros(s * 1_000_000),
                function: FunctionId::new(f),
            })
            .collect();
        let trace = Trace::from_arrivals(Micros::from_mins(40), arrivals);
        let config = SimConfig {
            memory_capacity: MemMb::new(capacity_mb),
            seed,
            ..SimConfig::default()
        };
        for policy_idx in 0..2 {
            let report = match policy_idx {
                0 => {
                    let mut p = OpenWhiskDefault::new();
                    run(&catalog, &mut p, trace.iter().copied(), trace.horizon(), &config, None)
                }
                _ => {
                    let mut p = RainbowCake::with_defaults(&catalog).unwrap();
                    run(&catalog, &mut p, trace.iter().copied(), trace.horizon(), &config, None)
                }
            };
            prop_assert!(report.records.len() <= trace.len());
            for r in &report.records {
                prop_assert_eq!(r.e2e(), r.queue + r.startup + r.exec);
            }
            prop_assert!(report.total_waste().value() >= 0.0);
        }
    }

    #[test]
    fn cluster_report_is_invariant_to_streaming_at_any_shard_count(
        raw in prop::collection::vec((0u64..1_800, 0u32..3), 1..120),
        seed in any::<u64>(),
        streaming_metrics in any::<bool>(),
    ) {
        use rainbowcake::core::policy::Policy;
        use rainbowcake::sim::cluster::{
            run_cluster, run_cluster_streaming, LocalitySharingLoad,
        };

        let catalog = small_catalog();
        let arrivals: Vec<Arrival> = raw
            .into_iter()
            .map(|(s, f)| Arrival {
                time: Instant::from_micros(s * 1_000_000),
                function: FunctionId::new(f),
            })
            .collect();
        let trace = Trace::from_arrivals(Micros::from_mins(40), arrivals);
        let config = SimConfig {
            seed,
            streaming_metrics,
            ..SimConfig::default()
        };
        for shards in [1usize, 2, 4, 8] {
            let mut router = LocalitySharingLoad;
            let mut factory = || -> Box<dyn Policy> {
                Box::new(RainbowCake::with_defaults(&catalog).unwrap())
            };
            let sequential =
                run_cluster(&catalog, &mut factory, &trace, shards, &config, &mut router)
                    .to_json();
            let mut router = LocalitySharingLoad;
            let factory = || -> Box<dyn Policy> {
                Box::new(RainbowCake::with_defaults(&catalog).unwrap())
            };
            let streamed = run_cluster_streaming(
                &catalog,
                &factory,
                trace.iter().copied(),
                trace.horizon(),
                shards,
                &config,
                &mut router,
            )
            .report
            .to_json();
            prop_assert_eq!(streamed, sequential, "shards = {}", shards);
        }
    }
}

// The pool's indices against a linear scan: cheap enough for the
// default case count, and the test that checks every index-backed
// accessor.
proptest! {
    #[test]
    fn pool_indices_always_agree_with_linear_scan(
        ops in prop::collection::vec((0u8..7, any::<u64>(), any::<u64>()), 1..80),
    ) {
        use rainbowcake::core::lifecycle::LifecycleEvent;
        use rainbowcake::sim::container::{AssignedInvocation, Container};
        use rainbowcake::sim::pool::Pool;

        let languages = [Language::NodeJs, Language::Python, Language::Java];
        let mut pool = Pool::new(MemMb::new(1_000_000));
        let mut clock = 0u64;
        for (op, a, b) in ops {
            // The clock stands still for a third of the ops, so
            // containers also go idle in the same microsecond.
            clock += u64::from(b % 3 != 0);
            let now = Instant::from_micros(clock * 1_000);
            // Like the engine, every op that makes a container idle or
            // moves it to another idle list stamps `idle_since = now`,
            // which keeps the idle lists in idle-entry order.
            // Pick an existing container by index for mutation ops.
            let nth_id = |pool: &Pool, k: u64| {
                let n = pool.len();
                (n > 0).then(|| pool.iter().nth(k as usize % n).unwrap().id)
            };
            match op {
                // Insert a fresh initializing container toward a random
                // layer, for a random function.
                0 | 1 => {
                    let target = [Layer::Bare, Layer::Lang, Layer::User][a as usize % 3];
                    let f = FunctionId::new((b % 4) as u32);
                    let language = (target != Layer::Bare)
                        .then(|| languages[(a ^ b) as usize % 3]);
                    let id = pool.next_id();
                    pool.insert(Container::new_initializing(
                        id,
                        now,
                        target,
                        f,
                        language,
                        MemMb::new(1 + b % 50),
                        now + Micros::from_millis(1 + a % 500),
                    ));
                }
                // Complete an in-flight initialization.
                2 => {
                    if let Some(id) = nth_id(&pool, a) {
                        let mut c = pool.get_mut(id).unwrap();
                        if c.apply(LifecycleEvent::InitComplete).is_ok() {
                            c.idle_since = now;
                        }
                    }
                }
                // Begin executions on idle User containers; upgrade an
                // idle Lang or Bare container to User in place for a
                // random function (an attachable init, until op 5).
                3 => {
                    if let Some(id) = nth_id(&pool, a) {
                        let mut c = pool.get_mut(id).unwrap();
                        let f = c.owner().unwrap_or(FunctionId::new((b % 4) as u32));
                        if c.apply(LifecycleEvent::BeginExecution { function: f }).is_err() {
                            let language = c.language().unwrap_or(languages[b as usize % 3]);
                            let _ = c.apply(LifecycleEvent::BeginUpgrade {
                                for_function: f,
                                target: Layer::User,
                                language,
                            });
                        }
                    }
                }
                // Finish executions, downgrade idle layers.
                4 => {
                    if let Some(id) = nth_id(&pool, a) {
                        let mut c = pool.get_mut(id).unwrap();
                        if c.apply(LifecycleEvent::ExecutionComplete).is_ok()
                            || c.apply(LifecycleEvent::Downgrade).is_ok()
                        {
                            c.idle_since = now;
                        }
                    }
                }
                // Bind an invocation to an attachable init (leaves the
                // Load index, stays in the initializing count).
                5 => {
                    if let Some(id) = nth_id(&pool, a) {
                        let mut c = pool.get_mut(id).unwrap();
                        if c.is_attachable_init() {
                            c.assigned = Some(AssignedInvocation {
                                arrival: now,
                                admit: now,
                                startup: Micros::ZERO,
                                exec: Micros::from_millis(1),
                                start_type: rainbowcake::prelude::StartType::Attached,
                            });
                        }
                    }
                }
                // Remove a container outright.
                _ => {
                    if let Some(id) = nth_id(&pool, a) {
                        pool.remove(id);
                    }
                }
            }
            assert_pool_indices_match_scan(&pool);
        }
    }
}

// ---------------- batch victim selection ----------------

proptest! {
    /// For every §7.1 policy, the batch `select_victims` contract must
    /// replay the old one-victim-at-a-time eviction protocol exactly —
    /// same victims, same order — for any candidate pool and memory
    /// demand, with or without prior `on_idle` priming.
    #[test]
    fn batch_victim_selection_matches_sequential_protocol(
        specs in prop::collection::vec(
            (0u8..3, 0u32..3, 50u64..500, 0u64..10_000_000, 0u32..20, any::<bool>()),
            0..10,
        ),
        prime_all in any::<bool>(),
        need_frac in 0u64..130,
    ) {
        use rainbowcake::core::policy::{ContainerView, PolicyCtx};
        use rainbowcake::core::types::ContainerId;
        use rainbowcake_bench::{make_policy, BASELINE_NAMES};

        let catalog = small_catalog();
        let languages = [Language::NodeJs, Language::Python, Language::Java];
        // Candidates in ascending id order, exactly as the engine hands
        // them out of the pool's idle index.
        let views: Vec<ContainerView> = specs
            .iter()
            .enumerate()
            .map(|(i, &(layer_sel, owner, mem, idle_us, hits, _))| {
                let layer = match layer_sel {
                    0 => Layer::Bare,
                    1 => Layer::Lang,
                    _ => Layer::User,
                };
                ContainerView {
                    id: ContainerId::new(i as u64),
                    layer,
                    language: (layer >= Layer::Lang)
                        .then_some(languages[owner as usize % 3]),
                    owner: (layer == Layer::User).then_some(FunctionId::new(owner)),
                    packed: Vec::new(),
                    memory: MemMb::new(mem),
                    idle_since: Instant::from_micros(idle_us),
                    created_at: Instant::ZERO,
                    hits,
                }
            })
            .collect();
        let total: u64 = views.iter().map(|v| v.memory.as_mb()).sum();
        let need = MemMb::new(total * need_frac / 100);
        let ctx = PolicyCtx {
            now: Instant::from_micros(20_000_000),
            catalog: &catalog,
        };

        for name in BASELINE_NAMES {
            let mut batch = make_policy(name, &catalog);
            let mut single = make_policy(name, &catalog);
            // Prime both instances identically; a partial mask drives
            // FaasCache through its uncached-fallback path, `prime_all`
            // through the lazy-heap fast path.
            for (v, &(.., prime)) in views.iter().zip(&specs) {
                if prime_all || prime {
                    batch.on_idle(&ctx, v);
                    single.on_idle(&ctx, v);
                }
            }
            // The reference: the classic rebuild-and-pick-one loop the
            // engine ran before batch selection existed.
            let mut remaining = views.clone();
            let mut expect = Vec::new();
            let mut freed = MemMb::ZERO;
            while freed < need && !remaining.is_empty() {
                let Some(victim) = single.select_victim(&ctx, &remaining) else { break };
                let pos = remaining.iter().position(|c| c.id == victim).unwrap();
                freed += remaining[pos].memory;
                expect.push(victim);
                remaining.remove(pos);
            }
            let got = batch.select_victims(&ctx, &views, need);
            prop_assert_eq!(got, expect, "policy {} diverged", name);
        }
    }
}
