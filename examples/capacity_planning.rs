//! Scenario: capacity planning. How much worker memory does each
//! caching policy need before startup latency stops improving? This
//! reproduces the question behind Fig. 12(d) as a library workflow.
//!
//! ```bash
//! cargo run --release --example capacity_planning
//! ```

use rainbowcake::core::policy::Policy;
use rainbowcake::prelude::*;

fn main() -> Result<(), rainbowcake::core::error::ConfigError> {
    let catalog = paper_catalog();
    let trace = cv_trace(catalog.len(), &CvTraceConfig::paper(4.0, 11));
    println!(
        "memory-budget sweep on a 1-hour trace ({} invocations)\n",
        trace.len()
    );

    println!(
        "{:>8} {:>16} {:>16} {:>16}",
        "budget", "FaasCache st_s", "RainbowCake st_s", "OpenWhisk st_s"
    );
    for gb in [1u64, 2, 4, 8, 16] {
        let config = SimConfig::with_memory(MemMb::from_gb(gb));
        let mut cells = Vec::new();
        let mut policies: Vec<Box<dyn Policy>> = vec![
            Box::new(FaasCache::new()),
            Box::new(RainbowCake::with_defaults(&catalog)?),
            Box::new(OpenWhiskDefault::new()),
        ];
        for policy in policies.iter_mut() {
            let report = run(
                &catalog,
                policy.as_mut(),
                trace.iter().copied(),
                trace.horizon(),
                &config,
                None,
            );
            cells.push(report.total_startup().as_secs_f64());
        }
        println!(
            "{:>6}GB {:>16.0} {:>16.0} {:>16.0}",
            gb, cells[0], cells[1], cells[2]
        );
    }

    println!("\nUnder real scarcity every policy converges — memory, not policy, is");
    println!("the bottleneck. Abundance rewards the never-evicting cache (FaasCache),");
    println!("but at several times the steady-state memory cost: see azure_8h_replay");
    println!("for the waste side of this trade.");
    Ok(())
}
