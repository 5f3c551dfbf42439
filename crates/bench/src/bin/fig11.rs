//! Fig. 11 (sensitivity analysis): unified cost (Eq. 1) of RainbowCake
//! as the knob α sweeps 0.990-0.999, the IAT quantile p sweeps 0.1-0.9,
//! and the sliding-window size n sweeps 1-10.

use rainbowcake_bench::{parallel, print_table, Testbed};
use rainbowcake_core::cost::CostModel;
use rainbowcake_core::rainbow::{RainbowCake, RainbowConfig};
use rainbowcake_sim::run;

fn main() {
    let bed = Testbed::paper_8h();
    println!(
        "Fig. 11: sensitivity of RainbowCake's unified cost ({} invocations over 8 h, {} threads)\n",
        bed.trace.len(),
        parallel::worker_threads()
    );

    // Every configuration is an independent 8-hour run: fan each sweep
    // out across threads, results in sweep order.
    let run_cfgs = |cfgs: Vec<RainbowConfig>| -> Vec<(f64, f64, f64)> {
        let bed = &bed;
        parallel::run_jobs(
            cfgs.into_iter()
                .map(|cfg| {
                    move || {
                        let mut policy =
                            RainbowCake::new(&bed.catalog, cfg.clone()).expect("valid config");
                        let report = run(
                            &bed.catalog,
                            &mut policy,
                            bed.trace.iter().copied(),
                            bed.trace.horizon(),
                            &bed.config,
                            None,
                        );
                        // Unified cost is always evaluated with the run's own alpha.
                        let model = CostModel::new(cfg.alpha).expect("valid alpha");
                        (
                            report.total_startup().as_secs_f64(),
                            report.total_waste().value(),
                            report.unified_cost(model),
                        )
                    }
                })
                .collect(),
        )
    };

    // (a) knob alpha.
    println!("(a) cost knob alpha (p = 0.8, n = 6):");
    let alphas: Vec<f64> = (0..10).map(|i| 0.990 + i as f64 * 0.001).collect();
    let results = run_cfgs(
        alphas
            .iter()
            .map(|&alpha| RainbowConfig {
                alpha,
                ..RainbowConfig::default()
            })
            .collect(),
    );
    let mut rows = Vec::new();
    for (alpha, (st, w, cost)) in alphas.iter().zip(results) {
        rows.push(vec![
            format!("{alpha:.3}"),
            format!("{st:.0}"),
            format!("{w:.0}"),
            format!("{cost:.0}"),
        ]);
    }
    print_table(&["alpha", "startup_s", "waste_GBs", "unified"], &rows);

    // (b) IAT quantile p.
    println!("\n(b) IAT quantile p (alpha = 0.996, n = 6):");
    let quantiles: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    let results = run_cfgs(
        quantiles
            .iter()
            .map(|&quantile| RainbowConfig {
                quantile,
                ..RainbowConfig::default()
            })
            .collect(),
    );
    let mut rows = Vec::new();
    for (p, (st, w, cost)) in quantiles.iter().zip(results) {
        rows.push(vec![
            format!("{p:.1}"),
            format!("{st:.0}"),
            format!("{w:.0}"),
            format!("{cost:.0}"),
        ]);
    }
    print_table(&["p", "startup_s", "waste_GBs", "unified"], &rows);

    // (c) window size n.
    println!("\n(c) sliding-window size n (alpha = 0.996, p = 0.8):");
    let windows: Vec<usize> = (1..=10).collect();
    let results = run_cfgs(
        windows
            .iter()
            .map(|&window| RainbowConfig {
                window,
                ..RainbowConfig::default()
            })
            .collect(),
    );
    let mut rows = Vec::new();
    for (n, (st, w, cost)) in windows.iter().zip(results) {
        rows.push(vec![
            format!("{n}"),
            format!("{st:.0}"),
            format!("{w:.0}"),
            format!("{cost:.0}"),
        ]);
    }
    print_table(&["n", "startup_s", "waste_GBs", "unified"], &rows);

    println!("\npaper: larger p trades waste for startup (keep-alive grows);");
    println!("alpha moves the balance between the two cost components; the paper's");
    println!("optimum sits at alpha = 0.996, p = 0.8, n = 6.");
}
