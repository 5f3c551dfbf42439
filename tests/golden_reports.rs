//! Golden report digests: the FNV-64 of every report's exact JSON bytes
//! on the standard testbeds, checked in as `tests/golden/reports.digests`.
//!
//! * `suite <policy>` — `Testbed::paper_8h`, every §7.1 policy, run
//!   sequentially through the engine;
//! * `pressure <policy>` — the `suite` runs in a 2 GB pool with streaming
//!   metrics, so placements fall through to eviction and the admission
//!   queue, and the streaming histograms are pinned too;
//! * `fixed <policy>` — the `suite` runs in a 2 GB pool with jitter off
//!   and records kept: the engine draws nothing, so these lines move
//!   only with a change in decisions, never with the RNG stream;
//! * `cluster RainbowCake <shards>` — `Testbed::paper_hours(2)` through
//!   the sharded streaming cluster at 1/2/4/8 shards.
//!
//! The `suite` reports also render `all_experiments`' headline table,
//! checked in as `tests/golden/headline.txt`, so a change in simulated
//! behaviour reads as a diff of numbers too.
//!
//! Refactors must leave both files untouched. A deliberate change to the
//! simulated semantics shows up as a reviewed diff of the fixtures: on a
//! mismatch the test prints each complete replacement file.

use rainbowcake::core::mem::MemMb;
use rainbowcake::core::policy::Policy;
use rainbowcake::sim::cluster::{run_cluster_streaming, LocalitySharingLoad};
use rainbowcake::sim::SimConfig;
use rainbowcake_bench::{
    headline_rows, make_policy, render_table, Testbed, BASELINE_NAMES, HEADLINE_COLUMNS,
};

const GOLDEN: &str = include_str!("golden/reports.digests");
const HEADLINE: &str = include_str!("golden/headline.txt");

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn reports_match_golden_digests() {
    let mut lines = Vec::new();
    let bed = Testbed::paper_8h();
    let suite = bed.run_all_sequential();
    for (name, report) in BASELINE_NAMES.iter().zip(&suite) {
        lines.push(format!(
            "suite {name} {:016x}",
            fnv64(report.to_json().as_bytes())
        ));
    }
    let headline = render_table(&HEADLINE_COLUMNS, &headline_rows(&suite));
    let pressure = Testbed {
        config: SimConfig {
            memory_capacity: MemMb::from_gb(2),
            streaming_metrics: true,
            ..bed.config.clone()
        },
        ..bed
    };
    for (name, report) in BASELINE_NAMES.iter().zip(pressure.run_all_sequential()) {
        lines.push(format!(
            "pressure {name} {:016x}",
            fnv64(report.to_json().as_bytes())
        ));
    }
    let fixed = Testbed {
        config: SimConfig {
            jitter: false,
            streaming_metrics: false,
            ..pressure.config.clone()
        },
        ..pressure
    };
    for (name, report) in BASELINE_NAMES.iter().zip(fixed.run_all_sequential()) {
        lines.push(format!(
            "fixed {name} {:016x}",
            fnv64(report.to_json().as_bytes())
        ));
    }
    let bed = Testbed::paper_hours(2);
    let factory = || -> Box<dyn Policy> { make_policy("RainbowCake", &bed.catalog) };
    for shards in [1usize, 2, 4, 8] {
        let report = run_cluster_streaming(
            &bed.catalog,
            &factory,
            bed.trace.iter().copied(),
            bed.trace.horizon(),
            shards,
            &bed.config,
            &mut LocalitySharingLoad,
        )
        .report;
        lines.push(format!(
            "cluster RainbowCake {shards} {:016x}",
            fnv64(report.to_json().as_bytes())
        ));
    }
    let actual = lines.join("\n") + "\n";
    let mut diverged = Vec::new();
    if actual != GOLDEN {
        diverged.push(format!(
            "report digests diverged from tests/golden/reports.digests; \
             if the change in simulated behaviour is intended, replace the file with:\n{actual}"
        ));
    }
    if headline != HEADLINE {
        diverged.push(format!(
            "the headline table diverged from tests/golden/headline.txt; \
             if the change in simulated behaviour is intended, replace the file with:\n{headline}"
        ));
    }
    assert!(diverged.is_empty(), "{}", diverged.join("\n"));
}
