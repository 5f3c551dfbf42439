//! §7.8: integrating RainbowCake with checkpoint/restore (CRIU through
//! the Docker checkpoint API in the paper's prototype). Restoring from
//! checkpoint files replaces from-scratch cold initialization, at the
//! price of cached checkpoint images held in memory.

use rainbowcake_bench::{print_table, Testbed};
use rainbowcake_core::rainbow::RainbowCake;
use rainbowcake_sim::{run, SimConfig};

fn main() {
    let bed = Testbed::paper_8h();
    println!(
        "§7.8: checkpoint-support RainbowCake ({} invocations over 8 h)\n",
        bed.trace.len()
    );

    let run_with = |config: &SimConfig| {
        let mut policy = RainbowCake::with_defaults(&bed.catalog).expect("valid");
        run(
            &bed.catalog,
            &mut policy,
            bed.trace.iter().copied(),
            bed.trace.horizon(),
            config,
            None,
        )
    };

    let base = run_with(&bed.config);
    let cp_config = SimConfig {
        checkpoint: true,
        ..bed.config.clone()
    };
    let cp = run_with(&cp_config);

    let rows = vec![
        vec![
            "RainbowCake".to_string(),
            format!("{:.1}", base.avg_startup().as_millis_f64()),
            format!("{:.0}", base.total_startup().as_secs_f64()),
            format!("{:.0}", base.total_waste().value()),
            format!("{}", base.cold_starts()),
        ],
        vec![
            "RainbowCake+checkpoint".to_string(),
            format!("{:.1}", cp.avg_startup().as_millis_f64()),
            format!("{:.0}", cp.total_startup().as_secs_f64()),
            format!("{:.0}", cp.total_waste().value()),
            format!("{}", cp.cold_starts()),
        ],
    ];
    print_table(
        &[
            "configuration",
            "avg_startup_ms",
            "total_startup_s",
            "waste_GBs",
            "cold",
        ],
        &rows,
    );

    let startup_delta =
        (1.0 - cp.avg_startup().as_millis_f64() / base.avg_startup().as_millis_f64()) * 100.0;
    let waste_delta = (cp.total_waste().value() / base.total_waste().value() - 1.0) * 100.0;
    println!("\nmeasured: checkpointing reduces average startup by {startup_delta:.0}%");
    println!("          and increases total memory waste by {waste_delta:.0}%");
    println!("paper:    -36% average startup, +15% total memory waste.");
}
