//! Scenario: a bursty event-driven service (the workload class that
//! motivates the paper's intro). We sweep the inter-arrival-time CV
//! from regular (0.2) to violently bursty (4.0) and watch how a fixed
//! keep-alive platform and RainbowCake cope.
//!
//! ```bash
//! cargo run --release --example bursty_web_service
//! ```

use rainbowcake::core::policy::Policy;
use rainbowcake::prelude::*;

fn main() -> Result<(), rainbowcake::core::error::ConfigError> {
    let catalog = paper_catalog();
    println!("burstiness sweep: 3,600 invocations/h, 20 functions\n");
    println!(
        "{:>5} {:>22} {:>26}",
        "CV", "OpenWhisk st_s / waste", "RainbowCake st_s / waste"
    );

    for cv in [0.2, 1.0, 2.0, 4.0] {
        let trace = cv_trace(catalog.len(), &CvTraceConfig::paper(cv, 7));
        let mut rows = Vec::new();
        let mut policies: Vec<Box<dyn Policy>> = vec![
            Box::new(OpenWhiskDefault::new()),
            Box::new(RainbowCake::with_defaults(&catalog)?),
        ];
        for policy in policies.iter_mut() {
            let report = run(
                &catalog,
                policy.as_mut(),
                trace.iter().copied(),
                trace.horizon(),
                &SimConfig::default(),
                None,
            );
            rows.push(format!(
                "{:.0} / {:.0}",
                report.total_startup().as_secs_f64(),
                report.total_waste().value()
            ));
        }
        println!("{:>5.1} {:>22} {:>26}", cv, rows[0], rows[1]);
    }

    println!("\nHigher CV means invocations clump into bursts. A fixed keep-alive");
    println!("window wastes memory during silences and still cold-starts at burst");
    println!("fronts; layer-wise caching absorbs the fronts with shared Lang/Bare");
    println!("containers while shedding memory between bursts.");
    Ok(())
}
