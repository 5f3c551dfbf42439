//! The paper's headline experiment in miniature: replay the 8-hour
//! Azure-like trace against all six policies and compare startup
//! latency and memory waste (the Fig. 6 / Fig. 8 axes).
//!
//! ```bash
//! cargo run --release --example azure_8h_replay
//! ```

use rainbowcake::core::policy::Policy;
use rainbowcake::prelude::*;

fn main() -> Result<(), rainbowcake::core::error::ConfigError> {
    let catalog = paper_catalog();
    let trace = azure_like_trace(catalog.len(), &AzureConfig::default());
    let config = SimConfig::default();
    println!(
        "8-hour Azure-like trace: {} invocations across {} functions\n",
        trace.len(),
        catalog.len()
    );

    let mut policies: Vec<Box<dyn Policy>> = vec![
        Box::new(OpenWhiskDefault::new()),
        Box::new(Histogram::new(catalog.len())),
        Box::new(FaasCache::new()),
        Box::new(Seuss::new()),
        Box::new(Pagurus::new(catalog.len())),
        Box::new(RainbowCake::with_defaults(&catalog)?),
    ];

    println!(
        "{:<12} {:>14} {:>12} {:>12} {:>8}",
        "policy", "fn-avg st (ms)", "p99 E2E (s)", "waste (GB*s)", "cold"
    );
    for policy in policies.iter_mut() {
        let report = run(
            &catalog,
            policy.as_mut(),
            trace.iter().copied(),
            trace.horizon(),
            &config,
            None,
        );
        let rows = report.per_function();
        let fn_avg = rows
            .iter()
            .map(|s| s.avg_startup.as_millis_f64())
            .sum::<f64>()
            / rows.len().max(1) as f64;
        println!(
            "{:<12} {:>14.0} {:>12.2} {:>12.0} {:>8}",
            report.policy,
            fn_avg,
            report
                .e2e_percentile(99.0)
                .expect("non-empty run")
                .as_secs_f64(),
            report.total_waste().value(),
            report.cold_starts()
        );
    }
    println!("\nThe paper's shape: RainbowCake pairs near-FaasCache startup latency");
    println!("with the lowest memory-waste band; full-container caching (FaasCache)");
    println!("buys its speed with several times the memory.");
    Ok(())
}
