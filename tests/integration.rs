//! Cross-crate integration tests: whole simulations through the public
//! API, asserting conservation laws and the qualitative orderings the
//! paper establishes.

use rainbowcake::core::policy::Policy;
use rainbowcake::prelude::*;

fn testbed(hours: u64) -> (Catalog, Trace, SimConfig) {
    let catalog = paper_catalog();
    let trace = azure_like_trace(
        catalog.len(),
        &AzureConfig {
            hours,
            ..AzureConfig::default()
        },
    );
    (catalog, trace, SimConfig::default())
}

/// Runs `policy` over the whole of `trace`.
fn run_trace(
    catalog: &Catalog,
    policy: &mut dyn Policy,
    trace: &Trace,
    config: &SimConfig,
) -> RunReport {
    run(
        catalog,
        policy,
        trace.iter().copied(),
        trace.horizon(),
        config,
        None,
    )
}

fn all_policies(catalog: &Catalog) -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(OpenWhiskDefault::new()),
        Box::new(Histogram::new(catalog.len())),
        Box::new(FaasCache::new()),
        Box::new(Seuss::new()),
        Box::new(Pagurus::new(catalog.len())),
        Box::new(RainbowCake::with_defaults(catalog).expect("valid defaults")),
    ]
}

#[test]
fn every_policy_completes_every_invocation() {
    let (catalog, trace, config) = testbed(1);
    for mut policy in all_policies(&catalog) {
        let report = run_trace(&catalog, policy.as_mut(), &trace, &config);
        assert_eq!(
            report.records.len(),
            trace.len(),
            "{} dropped invocations",
            report.policy
        );
    }
}

#[test]
fn end_to_end_latency_decomposes() {
    let (catalog, trace, config) = testbed(1);
    let mut policy = RainbowCake::with_defaults(&catalog).unwrap();
    let report = run_trace(&catalog, &mut policy, &trace, &config);
    for r in &report.records {
        assert_eq!(r.e2e(), r.queue + r.startup + r.exec);
        assert!(r.startup > Micros::ZERO, "startup can never be free");
        let profile = catalog.profile(r.function);
        // No start may beat the pure warm hand-off or exceed a cold
        // start by more than the attach path allows (one extra cold
        // init plus the hand-off).
        assert!(r.startup >= profile.transitions.u_run.mul_f64(0.8));
        assert!(r.startup <= profile.cold_startup() * 2 + Micros::from_secs(1));
    }
}

#[test]
fn full_stack_runs_are_deterministic() {
    let (catalog, trace, config) = testbed(1);
    let reports: Vec<RunReport> = (0..2)
        .map(|_| {
            let mut policy = RainbowCake::with_defaults(&catalog).unwrap();
            run_trace(&catalog, &mut policy, &trace, &config)
        })
        .collect();
    assert_eq!(reports[0].records, reports[1].records);
    assert_eq!(
        reports[0].total_waste().value(),
        reports[1].total_waste().value()
    );
}

#[test]
fn faascache_has_fewest_colds_but_most_waste() {
    // Fig. 6/8: never terminating containers is the latency-optimal,
    // memory-worst corner of the design space. The cold-count claim is
    // scoped to full-container-caching policies: SEUSS serves first
    // concurrent instances from language snapshots, so its starts are
    // partial rather than cold and its cold count can dip below even
    // FaasCache's on some sampled traces.
    let (catalog, trace, config) = testbed(2);
    let mut fc = FaasCache::new();
    let fc_report = run_trace(&catalog, &mut fc, &trace, &config);
    for mut policy in all_policies(&catalog) {
        let report = run_trace(&catalog, policy.as_mut(), &trace, &config);
        assert!(
            report.policy == "SEUSS" || fc_report.cold_starts() <= report.cold_starts(),
            "FaasCache ({}) should not have more colds than {} ({})",
            fc_report.cold_starts(),
            report.policy,
            report.cold_starts()
        );
        assert!(
            fc_report.total_waste().value() >= report.total_waste().value(),
            "FaasCache should waste the most memory (vs {})",
            report.policy
        );
    }
}

#[test]
fn rainbowcake_beats_full_caching_and_sharing_on_waste() {
    // The §7.2 memory-waste claim, at the ordering level: RainbowCake
    // wastes less than OpenWhisk, Histogram, FaasCache, and Pagurus.
    // The full 8-hour horizon matters: layer-wise caching pays a small
    // up-front pre-warming cost and amortizes it over the day.
    let (catalog, trace, config) = testbed(8);
    let mut rc = RainbowCake::with_defaults(&catalog).unwrap();
    let rc_waste = run_trace(&catalog, &mut rc, &trace, &config)
        .total_waste()
        .value();
    for name_and_policy in [
        (
            "OpenWhisk",
            Box::new(OpenWhiskDefault::new()) as Box<dyn Policy>,
        ),
        ("Histogram", Box::new(Histogram::new(catalog.len()))),
        ("FaasCache", Box::new(FaasCache::new())),
        ("Pagurus", Box::new(Pagurus::new(catalog.len()))),
    ] {
        let (name, mut policy) = name_and_policy;
        let waste = run_trace(&catalog, policy.as_mut(), &trace, &config)
            .total_waste()
            .value();
        assert!(
            rc_waste < waste,
            "RainbowCake waste {rc_waste:.0} should undercut {name} ({waste:.0})"
        );
    }
}

#[test]
fn rainbowcake_startup_beats_fixed_keepalive_per_function() {
    // The Fig. 6 shape: averaged over functions, RainbowCake starts
    // faster than the OpenWhisk default.
    let (catalog, trace, config) = testbed(4);
    let fn_avg = |report: &RunReport| {
        let rows = report.per_function();
        rows.iter()
            .map(|s| s.avg_startup.as_millis_f64())
            .sum::<f64>()
            / rows.len() as f64
    };
    let mut rc = RainbowCake::with_defaults(&catalog).unwrap();
    let rc_avg = fn_avg(&run_trace(&catalog, &mut rc, &trace, &config));
    let mut ow = OpenWhiskDefault::new();
    let ow_avg = fn_avg(&run_trace(&catalog, &mut ow, &trace, &config));
    assert!(
        rc_avg < ow_avg,
        "RainbowCake fn-avg startup {rc_avg:.0} ms should beat OpenWhisk {ow_avg:.0} ms"
    );
}

#[test]
fn layer_sharing_shows_up_in_start_types() {
    let (catalog, trace, config) = testbed(2);
    let mut rc = RainbowCake::with_defaults(&catalog).unwrap();
    let report = run_trace(&catalog, &mut rc, &trace, &config);
    let counts = report.start_type_counts();
    let get = |t: StartType| counts.iter().find(|(x, _)| *x == t).unwrap().1;
    assert!(
        get(StartType::SharedLang) > 0,
        "Lang sharing never happened"
    );
    assert!(get(StartType::WarmUser) > 0, "no warm starts at all");
    // Full-container baselines never produce layer-shared starts.
    let mut ow = OpenWhiskDefault::new();
    let ow_report = run_trace(&catalog, &mut ow, &trace, &config);
    let ow_counts = ow_report.start_type_counts();
    let ow_get = |t: StartType| ow_counts.iter().find(|(x, _)| *x == t).unwrap().1;
    assert_eq!(ow_get(StartType::SharedLang), 0);
    assert_eq!(ow_get(StartType::SharedBare), 0);
}

#[test]
fn tight_memory_budget_queues_instead_of_crashing() {
    let (catalog, trace, _) = testbed(1);
    let config = SimConfig::with_memory(MemMb::new(500));
    for mut policy in all_policies(&catalog) {
        let report = run_trace(&catalog, policy.as_mut(), &trace, &config);
        // Some queueing may happen but the platform must stay sound.
        assert!(report.records.len() <= trace.len());
        assert!(
            report.records.len() as f64 >= trace.len() as f64 * 0.5,
            "{} completed only {}/{} under 500 MB",
            report.policy,
            report.records.len(),
            trace.len()
        );
        for r in &report.records {
            assert!(r.queue >= Micros::ZERO);
        }
    }
}

#[test]
fn checkpointing_trades_memory_for_startup() {
    let (catalog, trace, config) = testbed(2);
    let mut base_policy = RainbowCake::with_defaults(&catalog).unwrap();
    let base = run_trace(&catalog, &mut base_policy, &trace, &config);
    let cp_config = SimConfig {
        checkpoint: true,
        ..config
    };
    let mut cp_policy = RainbowCake::with_defaults(&catalog).unwrap();
    let cp = run_trace(&catalog, &mut cp_policy, &trace, &cp_config);
    assert!(cp.total_startup() < base.total_startup());
    assert!(cp.total_waste().value() > base.total_waste().value());
}

#[test]
fn ablation_variants_run_and_differ() {
    let (catalog, trace, config) = testbed(1);
    let mut full = RainbowCake::with_defaults(&catalog).unwrap();
    let full_report = run_trace(&catalog, &mut full, &trace, &config);
    let mut no_layers = RainbowCake::new(
        &catalog,
        RainbowConfig {
            variant: RainbowVariant::NoLayers,
            ..RainbowConfig::default()
        },
    )
    .unwrap();
    let nl_report = run_trace(&catalog, &mut no_layers, &trace, &config);
    // Without layers there are no shared-layer starts at all.
    let counts = nl_report.start_type_counts();
    let get = |t: StartType| counts.iter().find(|(x, _)| *x == t).unwrap().1;
    assert_eq!(get(StartType::SharedLang), 0);
    assert_eq!(get(StartType::SharedBare), 0);
    assert_ne!(full_report.records, nl_report.records);
}

#[test]
fn waste_is_conserved_across_minute_buckets() {
    let (catalog, trace, config) = testbed(1);
    let mut rc = RainbowCake::with_defaults(&catalog).unwrap();
    let report = run_trace(&catalog, &mut rc, &trace, &config);
    let bucket_sum: f64 = report
        .waste
        .per_minute()
        .iter()
        .map(|(h, m)| h.value() + m.value())
        .sum();
    assert!(
        (bucket_sum - report.total_waste().value()).abs() < 1e-6,
        "per-minute buckets must sum to the total"
    );
}

#[test]
fn cv_traces_drive_all_policies() {
    let catalog = paper_catalog();
    let trace = cv_trace(catalog.len(), &CvTraceConfig::paper(4.0, 3));
    for mut policy in all_policies(&catalog) {
        let report = run_trace(&catalog, policy.as_mut(), &trace, &SimConfig::default());
        assert_eq!(report.records.len(), trace.len(), "{}", report.policy);
    }
}

#[test]
fn burstier_traces_cost_more_startup() {
    // Fig. 12(b): total startup grows with the IAT CV for every policy.
    let catalog = paper_catalog();
    let calm = cv_trace(catalog.len(), &CvTraceConfig::paper(0.2, 5));
    let wild = cv_trace(catalog.len(), &CvTraceConfig::paper(4.0, 5));
    for (name, make) in [
        (
            "OpenWhisk",
            (|| Box::new(OpenWhiskDefault::new()) as Box<dyn Policy>) as fn() -> Box<dyn Policy>,
        ),
        ("RainbowCake", || {
            Box::new(RainbowCake::with_defaults(&paper_catalog()).unwrap())
        }),
    ] {
        let mut a = make();
        let calm_st = run_trace(&catalog, a.as_mut(), &calm, &SimConfig::default()).total_startup();
        let mut b = make();
        let wild_st = run_trace(&catalog, b.as_mut(), &wild, &SimConfig::default()).total_startup();
        assert!(
            wild_st > calm_st,
            "{name}: CV 4.0 ({wild_st}) should cost more than CV 0.2 ({calm_st})"
        );
    }
}
