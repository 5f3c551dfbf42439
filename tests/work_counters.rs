//! Golden work counters: exact, host-independent counts of the work the
//! engine does on the standard testbeds, checked in as
//! `tests/golden/work.counters`.
//!
//! * `suite <policy>` — `Testbed::paper_8h`, every §7.1 policy;
//! * `wide RainbowCake` — a short RainbowCake run on a 1000-function
//!   synthetic catalog, where history scans dominate;
//! * `pressure <policy>` — the `suite` runs in a 2 GB pool, so eviction,
//!   the admission queue and its ladder wakes do work.
//!
//! Each run records, as integers, its completed invocations, the events
//! dispatched per kind, the event queue's pushes, cascade moves and
//! deferred re-arms, and the history recorder's queries, scans and
//! terms.
//! Unlike wall-clock throughput these counts are identical on every
//! host, so a change that moves a layer's work shows up here as a
//! reviewed diff of the fixture: on a mismatch the test prints the
//! complete replacement file.
//!
//! Every run also checks queue conservation exactly: the queue drops
//! nothing, and arrivals never enter it, so each linked event is
//! dispatched exactly once and `queue.pushes` equals the dispatched
//! non-arrival events. A deferred re-arm links nothing, so it is not a
//! push.

use rainbowcake::prelude::*;
use rainbowcake::sim::EngineProfile;
use rainbowcake_bench::{make_policy, Testbed, BASELINE_NAMES};

const GOLDEN: &str = include_str!("golden/work.counters");

/// Runs `policy` with an engine profile and returns the counter lines
/// of the run, each prefixed with `label`.
fn counter_lines(
    label: &str,
    catalog: &Catalog,
    policy: &str,
    trace: &Trace,
    config: &SimConfig,
) -> Vec<String> {
    let mut policy = make_policy(policy, catalog);
    let mut profile = EngineProfile::default();
    run(
        catalog,
        policy.as_mut(),
        trace.iter().copied(),
        trace.horizon(),
        config,
        Some(&mut profile),
    );
    // `counts[0]` is `Arrival` (see `KIND_NAMES`), which never enters
    // the queue.
    assert_eq!(
        profile.queue.pushes,
        profile.counts[1..].iter().sum::<u64>(),
        "{label}: every queued event is dispatched exactly once"
    );
    let mut counters = vec![("invocations".to_string(), profile.invocations)];
    for (kind, &count) in EngineProfile::KIND_NAMES.iter().zip(&profile.counts) {
        counters.push((format!("events.{kind}"), count));
    }
    let (queue, history) = (profile.queue, profile.history);
    counters.extend([
        ("queue.pushes".to_string(), queue.pushes),
        ("queue.cascade_moves".to_string(), queue.cascade_moves),
        ("queue.deferred".to_string(), queue.deferred),
        ("history.queries".to_string(), history.queries),
        ("history.scans".to_string(), history.scans),
        ("history.terms".to_string(), history.terms_computed),
    ]);
    counters
        .into_iter()
        .map(|(name, value)| format!("{label} {name} {value}"))
        .collect()
}

#[test]
fn work_counters_match_golden_fixture() {
    let mut lines = Vec::new();
    let bed = Testbed::paper_8h();
    for name in BASELINE_NAMES {
        lines.extend(counter_lines(
            &format!("suite {name}"),
            &bed.catalog,
            name,
            &bed.trace,
            &bed.config,
        ));
    }
    let catalog = synthetic_catalog(1000);
    let trace = azure_like_trace(
        catalog.len(),
        &AzureConfig {
            hours: 2,
            rate_scale: 0.05,
            ..AzureConfig::default()
        },
    );
    lines.extend(counter_lines(
        "wide RainbowCake",
        &catalog,
        "RainbowCake",
        &trace,
        &SimConfig::default(),
    ));
    let tight = SimConfig {
        memory_capacity: MemMb::from_gb(2),
        ..bed.config.clone()
    };
    for name in BASELINE_NAMES {
        lines.extend(counter_lines(
            &format!("pressure {name}"),
            &bed.catalog,
            name,
            &bed.trace,
            &tight,
        ));
    }
    let actual = lines.join("\n") + "\n";
    assert!(
        actual == GOLDEN,
        "work counters diverged from tests/golden/work.counters; \
         if the change in engine work is intended, replace the file with:\n{actual}"
    );
}
