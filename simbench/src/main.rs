//! The simulator benchmark.
//!
//! ```text
//! benchmark [--workload <name>] [--seed <n>] [--seconds <n>] [--trace [0|1]]
//! ```
//!
//! With `--workload`, the process runs that one workload for about
//! `--seconds` host seconds and prints its metrics, the last line being
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Untraced (`--trace 0`, the default) it prints the end-to-end metrics;
//! traced (`--trace`/`--trace 1`) it prints the per-layer metrics.
//! Without `--workload` it runs every workload in a child process of its
//! own, one at a time, and exits non-zero if any of them failed.
//!
//! Every workload goes through the production entry point,
//! `rainbowcake_sim::cluster::run_cluster_streaming`, with one shard.
//! The layers are measured from outside only; see `traced.rs`. The
//! README beside this crate explains the workloads, the metrics, their
//! bounds, and how the layer metrics should move the end-to-end ones.

mod alloc;
mod host;
mod metrics;
mod pipeline;
mod stats;
#[cfg(test)]
mod tests;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use crate::metrics::{Metric, Pass};
use crate::pipeline::run_trace;
use crate::workload::{Workload, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Host seconds one workload measures when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 25;

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        let number = |flag: &str| -> Result<u64, String> {
            value
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} needs a whole number"))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value.ok_or("--workload needs a name")?;
                if workload::find(name).is_none() {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name:?}; expected one of {names:?}"
                    ));
                }
                parsed.workload = Some(name.clone());
                i += 2;
            }
            "--seed" => {
                parsed.seed = number("--seed")?;
                i += 2;
            }
            "--seconds" => {
                parsed.seconds = number("--seconds")?;
                if parsed.seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
                i += 2;
            }
            "--trace" => match value.map(String::as_str) {
                Some("0") => {
                    parsed.trace = false;
                    i += 2;
                }
                Some("1") => {
                    parsed.trace = true;
                    i += 2;
                }
                _ => {
                    parsed.trace = true;
                    i += 1;
                }
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => {
            let w = workload::find(name).expect("validated by parse_args");
            if run_workload(w, &args) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        None => run_all(&args),
    }
}

/// Runs every workload in a child process of its own, one at a time.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("benchmark: workload {} failed ({s})", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("benchmark: cannot start workload {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one pass: every trace of `w` under `seed`, in order.
fn run_pass(w: &Workload, seed: u64, traced: bool) -> Pass {
    (0..w.traces)
        .map(|k| run_trace(w, w.trace_seed(seed, k), traced))
        .collect()
}

/// Checks each trace's ledger and that `pass` reproduces `reference`
/// (the run's first pass) exactly; adds what fails to `violations`.
fn check_pass(violations: &mut Vec<String>, label: &str, pass: &Pass, reference: &Pass) {
    for (k, (t, r)) in pass.iter().zip(reference).enumerate() {
        if !t.ledger_balances() {
            violations.push(format!(
                "{label} trace {k}: stream holds {} arrivals, router assigned {}, \
                 shard completed {}",
                t.expected, t.arrivals, t.completed
            ));
        }
        if t.digest != r.digest {
            violations.push(format!(
                "{label} trace {k}: report digest {:016x} differs from the first \
                 pass's {:016x}",
                t.digest, r.digest
            ));
        }
    }
}

/// Runs workload `w` and prints its metrics; returns whether every
/// correctness check passed.
fn run_workload(w: &Workload, args: &Args) -> bool {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut floor: Option<traced::SpanFloor> = None;
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let mut violations = Vec::new();
    let mut first_pass_rss_kb = 0;
    // Passes (or untraced/traced pairs) repeat while another one fits
    // in the budget; the first always runs.
    loop {
        let round = Instant::now();
        untraced.push(run_pass(w, args.seed, false));
        if untraced.len() == 1 {
            // The peak over one pass. The high-water mark keeps creeping
            // up over later passes of identical work, so a figure read
            // at the end would follow the pass count, i.e. host speed.
            first_pass_rss_kb = host::peak_rss_kb();
        }
        if args.trace {
            let calibrated = traced::calibrate();
            floor = Some(floor.map_or(calibrated, |f| f.min(calibrated)));
            if traced_passes.is_empty() {
                traced::start_span_log();
            }
            traced_passes.push(run_pass(w, args.seed, true));
            traced::stop_span_log();
        }
        let reference = &untraced[0];
        check_pass(
            &mut violations,
            "untraced",
            untraced.last().expect("pushed"),
            reference,
        );
        if let Some(t) = traced_passes.last() {
            check_pass(&mut violations, "traced", t, reference);
        }
        if started.elapsed() + round.elapsed() > budget {
            break;
        }
    }

    let first = &untraced[0];
    let per_pass: u64 = first.iter().map(|t| t.completed).sum();
    println!("{}: {}", w.name, w.why);
    println!(
        "{} (seed {}): {} traces of {} h on {} functions at {} GB, {} policy, \
         1 shard; {} invocations per pass, {} untraced and {} traced passes",
        w.name,
        args.seed,
        w.traces,
        w.hours,
        w.functions,
        w.memory_gb,
        w.policy,
        per_pass,
        untraced.len(),
        traced_passes.len(),
    );
    let digests: Vec<String> = first.iter().map(|t| format!("{:016x}", t.digest)).collect();
    println!("report_digest {}", digests.join(" "));
    let sim = metrics::Simulated::of(first);
    let e2e_ms = |p: f64| sim.e2e.percentile(p).unwrap_or(0.0) * 1e3;
    // p99.99 leaves at least 75 samples beyond it on the smallest pass
    // (`rc-wide`, ~750k invocations).
    println!(
        "simulated: cold_start_pct {:.4} %, startup_ms_mean {:.3} ms, e2e_ms_mean {:.3} ms, \
         e2e_ms_p50 {:.3} ms, e2e_ms_p99_99 {:.3} ms over {} samples (2%-bin estimates), \
         waste_gb_s {:.1} GB.s per trace",
        sim.cold_start_pct,
        sim.startup_ms_mean,
        sim.e2e_ms_mean,
        e2e_ms(50.0),
        e2e_ms(99.99),
        sim.e2e.len(),
        sim.waste_gb_s,
    );

    let (declared, values) = match floor {
        None => (
            metrics::end_to_end(),
            metrics::end_to_end_values(&untraced, first_pass_rss_kb),
        ),
        Some(floor) => {
            write_spans(w, args.seed);
            (
                metrics::per_layer(),
                metrics::per_layer_values(&untraced, &traced_passes, floor),
            )
        }
    };
    let all_runs = untraced.iter().chain(&traced_passes).flatten();
    let attempted: u64 = all_runs.clone().map(|t| t.arrivals).sum();
    let failed: u64 = all_runs.map(|t| t.failed()).sum();
    for v in &violations {
        eprintln!("benchmark: {}: {v}", w.name);
    }
    let correct = violations.is_empty() && failed == 0;
    for (name, unit, _) in &declared {
        println!("  {name:<38} {:>16.4} {unit}", values[name]);
    }
    println!(
        "{}",
        result_json(correct, attempted, failed, &declared, &values)
    );
    correct
}

/// Writes the kept spans next to the build, under `target/benchmark/`.
fn write_spans(w: &Workload, seed: u64) {
    let path =
        std::path::PathBuf::from(format!("target/benchmark/spans-{}-seed{seed}.tsv", w.name));
    match traced::write_span_log(&path) {
        Ok(n) => println!("spans: {n} written to {}", path.display()),
        Err(e) => eprintln!("benchmark: could not write {}: {e}", path.display()),
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[Metric],
    values: &BTreeMap<String, f64>,
) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit, _)| {
            let value = values[name];
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
