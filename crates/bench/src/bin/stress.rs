//! Scale checks of the streaming cluster pipeline that the simbench
//! benchmark does not make: byte identity against the sequential
//! reference, and flat memory on long streams. Throughput is measured by
//! simbench; this binary times nothing it asserts on.
//!
//! Modes (one is required; without one the binary prints its usage and
//! exits non-zero):
//!
//! * `--smoke` — a one-hour Azure-like trace through all six §7.1
//!   policies: the streaming cluster ([`run_cluster_streaming`]) must
//!   reproduce the sequential reference ([`run_cluster`]) byte for byte
//!   at 1, 2 and `--shards` shards.
//! * `--smoke --hours H` (H > 1) — the long stream: an H-hour trace at
//!   `--rate-scale X` (default 16) streams through RainbowCake, and the
//!   process's peak RSS must stay within 64 MB, a bound that does not
//!   grow with the trace. `--smoke --hours 48 --rate-scale 800` is the
//!   10^8-invocation point.
//! * `--identity` — the smoke's equality on the full trace (`--hours`,
//!   default 48, at `--rate-scale`, default 16) at `--shards` shards, for
//!   every policy or only those named by repeatable `--policy <name>`.
//!
//! `--shards N` (default 4) sets the shard count: each shard is one
//! worker engine on its own OS thread, fed by the streaming router. The
//! trace is never materialized on the streaming side, so its memory is
//! bounded by the channel depth, not the invocation count; the
//! sequential reference materializes it.

use std::time::Instant as WallInstant;

use rainbowcake_bench::{make_policy, BASELINE_NAMES};
use rainbowcake_core::profile::Catalog;
use rainbowcake_sim::cluster::{
    run_cluster, run_cluster_streaming, ClusterReport, LocalitySharingLoad, ShardedRun,
};
use rainbowcake_sim::SimConfig;
use rainbowcake_trace::azure::{azure_like_stream, AzureConfig, AzureStream};
use rainbowcake_trace::Trace;
use rainbowcake_workloads::paper_catalog;

/// Default shard count. Override with `--shards N`.
const DEFAULT_SHARDS: usize = 4;

const USAGE: &str = "usage: stress --smoke [--shards N]
       stress --smoke --hours H [--rate-scale X] [--shards N]
       stress --identity [--hours H] [--rate-scale X] [--shards N] [--policy NAME]...
";

/// Peak resident set size of this process in kB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Every run here keeps bounded-memory streaming metrics.
fn streaming_config() -> SimConfig {
    SimConfig {
        streaming_metrics: true,
        ..SimConfig::default()
    }
}

/// Runs `name` over the streamed workload as a sharded cluster: routing
/// happens online on the calling thread, every shard runs concurrently,
/// and nothing proportional to the trace length is ever materialized.
fn run_policy_sharded(
    catalog: &Catalog,
    name: &str,
    stream: &AzureStream,
    shards: usize,
    config: &SimConfig,
) -> ShardedRun {
    let mut router = LocalitySharingLoad;
    let factory = || make_policy(name, catalog);
    run_cluster_streaming(
        catalog,
        &factory,
        stream.iter(),
        stream.horizon(),
        shards,
        config,
        &mut router,
    )
}

/// The sequential reference for [`run_policy_sharded`]: materialize the
/// stream, route it up front, run every worker in order on the calling
/// thread. Memory scales with the trace length.
fn run_policy_sequential(
    catalog: &Catalog,
    name: &str,
    stream: &AzureStream,
    shards: usize,
    config: &SimConfig,
) -> ClusterReport {
    let trace = Trace::from_arrivals(stream.horizon(), stream.iter().collect());
    let mut router = LocalitySharingLoad;
    let mut factory = || make_policy(name, catalog);
    run_cluster(catalog, &mut factory, &trace, shards, config, &mut router)
}

/// Asserts that `name`'s `shards`-shard streaming cluster serializes
/// exactly like the sequential reference, and returns the streaming run.
fn assert_streaming_matches_sequential(
    catalog: &Catalog,
    name: &str,
    stream: &AzureStream,
    shards: usize,
    config: &SimConfig,
) -> ShardedRun {
    let sharded = run_policy_sharded(catalog, name, stream, shards, config);
    let reference = run_policy_sequential(catalog, name, stream, shards, config).to_json();
    assert!(
        sharded.report.to_json() == reference,
        "{name}: {shards}-shard streaming cluster diverged from the sequential reference"
    );
    sharded
}

/// `--smoke`: the streaming cluster equals the sequential reference for
/// every policy at 1, 2 and `shards` shards on a one-hour trace.
fn smoke(shards: usize) {
    let catalog = paper_catalog();
    let stream = azure_like_stream(
        catalog.len(),
        &AzureConfig {
            hours: 1,
            ..AzureConfig::default()
        },
    );
    let config = streaming_config();
    let mut counts = vec![1, 2, shards];
    counts.sort_unstable();
    counts.dedup();
    for name in BASELINE_NAMES {
        let mut last = None;
        for &n in &counts {
            last = Some(assert_streaming_matches_sequential(
                &catalog, name, &stream, n, &config,
            ));
        }
        let sharded = last.expect("at least one shard count");
        let completed = sharded.report.completed();
        let profile = sharded.profile();
        assert!(completed > 0, "{name} completed nothing");
        assert!(
            profile.total_events() >= completed as u64,
            "{name}: profiled fewer events than completed invocations"
        );
        println!(
            "smoke {name}: {completed} invocations, {:.2} events/invocation; \
             streaming == sequential at {counts:?} shards",
            profile.events_per_invocation()
        );
    }
    println!("stress --smoke passed");
}

/// `--smoke --hours H`: streams an H-hour trace through RainbowCake on
/// every shard and asserts the process high-water RSS stays within a
/// bound that does not scale with `hours` or `rate_scale`.
fn long_stream_smoke(hours: u64, rate_scale: f64, shards: usize) {
    let catalog = paper_catalog();
    let stream = azure_like_stream(
        catalog.len(),
        &AzureConfig {
            hours,
            rate_scale,
            ..AzureConfig::default()
        },
    );
    let before_kb = peak_rss_kb();
    let t0 = WallInstant::now();
    let sharded = run_policy_sharded(
        &catalog,
        "RainbowCake",
        &stream,
        shards,
        &streaming_config(),
    );
    let completed = sharded.report.completed();
    let after_kb = peak_rss_kb();
    println!(
        "long-stream smoke: {completed} invocations over {hours}h at {rate_scale}x on \
         {shards} shards in {:.1} s, peak RSS {before_kb} -> {after_kb} kB",
        t0.elapsed().as_secs_f64()
    );
    assert!(completed > 0, "long-stream smoke completed nothing");
    // Per-shard engines plus bounded channels fit well under 64 MB, and
    // the margin does not grow with the trace.
    assert!(
        after_kb <= 64 * 1024,
        "long-stream smoke: peak RSS {after_kb} kB exceeds the 64 MB flat-memory bound"
    );
    println!("stress --smoke --hours {hours} passed");
}

/// `--identity`: the smoke's equality on the full configured trace.
fn identity(selected: &[&str], hours: u64, rate_scale: f64, shards: usize) {
    let catalog = paper_catalog();
    let stream = azure_like_stream(
        catalog.len(),
        &AzureConfig {
            hours,
            rate_scale,
            ..AzureConfig::default()
        },
    );
    let total = stream.total();
    assert!(
        total >= 1_000_000,
        "the identity trace must reach one million invocations (got {total})"
    );
    println!("stress: {total} invocations, asserting {shards}-shard identity ...");
    let config = streaming_config();
    for name in selected {
        let t0 = WallInstant::now();
        let sharded = assert_streaming_matches_sequential(&catalog, name, &stream, shards, &config);
        println!(
            "identity {name}: {shards}-shard streaming == sequential \
             ({} invocations, {:.1} s)",
            sharded.report.completed(),
            t0.elapsed().as_secs_f64()
        );
    }
    println!("stress --identity passed");
}

/// Parses repeatable `--policy <name>` / `--policy=<name>` filters.
/// Returns the selected policies in `BASELINE_NAMES` order, or the full
/// suite when no filter is given.
///
/// # Panics
///
/// Panics on an unknown policy name or a missing argument.
fn policy_filter() -> Vec<&'static str> {
    let mut wanted = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let name = if arg == "--policy" {
            args.next().expect("--policy requires a name")
        } else if let Some(v) = arg.strip_prefix("--policy=") {
            v.to_string()
        } else {
            continue;
        };
        let known = BASELINE_NAMES
            .iter()
            .find(|&&n| n == name)
            .unwrap_or_else(|| {
                panic!("unknown policy {name:?}; expected one of {BASELINE_NAMES:?}")
            });
        if !wanted.contains(known) {
            wanted.push(*known);
        }
    }
    if wanted.is_empty() {
        BASELINE_NAMES.to_vec()
    } else {
        // Keep the suite's presentation order regardless of flag order.
        BASELINE_NAMES
            .into_iter()
            .filter(|n| wanted.contains(n))
            .collect()
    }
}

/// Parses `--<flag> <v>` / `--<flag>=<v>` as a number, or `default`.
///
/// # Panics
///
/// Panics on a malformed or missing value.
fn numeric_flag<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let val = if arg == flag {
            args.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        } else if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
            v.to_string()
        } else {
            continue;
        };
        return val
            .parse()
            .unwrap_or_else(|_| panic!("{flag} got a malformed value {val:?}"));
    }
    default
}

fn main() {
    let has_flag = |flag: &str| std::env::args().skip(1).any(|a| a == flag);
    let shards: usize = numeric_flag("--shards", DEFAULT_SHARDS);
    assert!(shards > 0, "--shards must be positive");
    let rate_scale: f64 = numeric_flag("--rate-scale", 16.0);
    if has_flag("--smoke") {
        let hours: u64 = numeric_flag("--hours", 1);
        if hours > 1 {
            long_stream_smoke(hours, rate_scale, shards);
        } else {
            smoke(shards);
        }
    } else if has_flag("--identity") {
        identity(
            &policy_filter(),
            numeric_flag("--hours", 48),
            rate_scale,
            shards,
        );
    } else {
        eprint!("{USAGE}");
        std::process::exit(2);
    }
}
