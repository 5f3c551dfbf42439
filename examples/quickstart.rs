//! Quickstart: run RainbowCake on a one-hour Azure-like workload and
//! print what happened.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use rainbowcake::prelude::*;

fn main() -> Result<(), rainbowcake::core::error::ConfigError> {
    // 1. The workload: the paper's 20 calibrated functions.
    let catalog = paper_catalog();

    // 2. A one-hour invocation trace with Azure-style structure
    //    (skewed popularity, bursts, cron spikes, a sparse tail).
    let trace = azure_like_trace(
        catalog.len(),
        &AzureConfig {
            hours: 1,
            ..AzureConfig::default()
        },
    );
    println!("trace: {} invocations over 1 h", trace.len());

    // 3. The policy under test: RainbowCake with the paper's defaults
    //    (alpha = 0.996, p = 0.8, n = 6).
    let mut policy = RainbowCake::with_defaults(&catalog)?;

    // 4. Run it on a simulated 240 GB worker.
    let report = run(
        &catalog,
        &mut policy,
        trace.iter().copied(),
        trace.horizon(),
        &SimConfig::default(),
        None,
    );

    // 5. What happened?
    println!("policy: {}", report.policy);
    println!("completed invocations: {}", report.records.len());
    println!(
        "average startup: {:.1} ms (p99 E2E: {:.2} s)",
        report.avg_startup().as_millis_f64(),
        report
            .e2e_percentile(99.0)
            .expect("non-empty run")
            .as_secs_f64()
    );
    println!(
        "cold starts: {} ({:.1}% warm rate)",
        report.cold_starts(),
        report.warm_rate() * 100.0
    );
    println!("memory waste: {}", report.total_waste());
    println!("\nstartup types:");
    for (t, c) in report.start_type_counts() {
        if c > 0 {
            println!("  {:<12} {c}", t.paper_label());
        }
    }
    Ok(())
}
