//! Runs the complete evaluation (every table and figure) and prints a
//! compact paper-vs-measured summary. The per-experiment detail lives in
//! the dedicated `table1`/`fig*`/`checkpoint` binaries; this binary is
//! what EXPERIMENTS.md is generated from.

use rainbowcake_bench::{
    fn_avg_startup_ms, headline_rows, parallel, print_table, reduction_pct, Testbed,
    BASELINE_NAMES, HEADLINE_COLUMNS,
};
use rainbowcake_core::mem::MemMb;
use rainbowcake_core::rainbow::RainbowCake;
use rainbowcake_sim::{run, SimConfig};
use rainbowcake_trace::cv::paper_cv_sets;

fn main() {
    let bed = Testbed::paper_8h();
    println!("=== RainbowCake reproduction: full evaluation ===");
    println!(
        "8-hour Azure-like trace, {} invocations, 20 functions, {} worker ({} threads)\n",
        bed.trace.len(),
        bed.config.memory_capacity,
        parallel::worker_threads()
    );

    // ---- Headline table (Figs. 3, 6, 7, 8) ----
    let reports = bed.run_all();
    let rc = &reports[5];
    println!("-- headline per-policy results (drives Figs. 3/6/7/8) --");
    print_table(&HEADLINE_COLUMNS, &headline_rows(&reports));

    println!("\n-- RainbowCake reductions vs each baseline (paper values in brackets) --");
    let paper: [(&str, &str, &str); 5] = [
        ("OpenWhisk", "97%", "60%"),
        ("Histogram", "96%", "63%"),
        ("FaasCache", "≈ -slightly worse-", "75%"),
        ("SEUSS", "74%", "44%"),
        ("Pagurus", "68%", "77%"),
    ];
    let mut rows = Vec::new();
    for (r, (name, p_st, p_w)) in reports.iter().zip(paper) {
        debug_assert_eq!(r.policy, name);
        rows.push(vec![
            r.policy.clone(),
            format!(
                "{:.0}%",
                reduction_pct(fn_avg_startup_ms(r), fn_avg_startup_ms(rc))
            ),
            p_st.to_string(),
            format!(
                "{:.0}%",
                reduction_pct(r.total_waste().value(), rc.total_waste().value())
            ),
            p_w.to_string(),
        ]);
    }
    print_table(
        &[
            "baseline",
            "startup reduction",
            "paper",
            "waste reduction",
            "paper",
        ],
        &rows,
    );

    // ---- Fig. 9 ablation ----
    println!("\n-- Fig. 9 ablation --");
    let mut ablations = parallel::run_policies(
        &bed.catalog,
        &bed.trace,
        &bed.config,
        &["RainbowCake-NoSharing", "RainbowCake-NoLayers"],
    );
    let nl = ablations.pop().expect("two ablation runs");
    let ns = ablations.pop().expect("two ablation runs");
    let mut rows = Vec::new();
    for (r, paper_st, paper_w) in [(rc, "—", "—"), (&ns, "+23%", "+25%"), (&nl, "+14%", "+39%")]
    {
        rows.push(vec![
            r.policy.clone(),
            format!(
                "{:+.0}%",
                (r.total_startup().as_secs_f64() / rc.total_startup().as_secs_f64() - 1.0) * 100.0
            ),
            paper_st.to_string(),
            format!(
                "{:+.0}%",
                (r.total_waste().value() / rc.total_waste().value() - 1.0) * 100.0
            ),
            paper_w.to_string(),
        ]);
    }
    print_table(
        &[
            "variant",
            "startup vs full",
            "paper",
            "waste vs full",
            "paper",
        ],
        &rows,
    );

    // ---- Fig. 10 startup-type split ----
    println!("\n-- Fig. 10 / §7.4 startup-type split under RainbowCake --");
    let counts = rc.start_type_counts();
    let total = rc.records.len() as f64;
    for (t, c) in counts {
        if c > 0 {
            println!(
                "  {:<12} {:>7}  ({:.1}%)",
                t.paper_label(),
                c,
                c as f64 / total * 100.0
            );
        }
    }

    // ---- Fig. 12 robustness (condensed) ----
    println!("\n-- Fig. 12 robustness: RainbowCake vs OpenWhisk across IAT CVs --");
    let sets = paper_cv_sets(bed.catalog.len(), 0xC0FFEE);
    // One job per (cv set, policy): all runs are independent, so the
    // whole grid fans out at once and rows are reassembled in order.
    let robustness = parallel::run_jobs(
        sets.iter()
            .flat_map(|(_, trace)| {
                ["OpenWhisk", "RainbowCake"].map(|name| {
                    let catalog = &bed.catalog;
                    move || {
                        let mut policy = rainbowcake_bench::make_policy(name, catalog);
                        run(
                            catalog,
                            policy.as_mut(),
                            trace.iter().copied(),
                            trace.horizon(),
                            &SimConfig::default(),
                            None,
                        )
                    }
                })
            })
            .collect(),
    );
    let mut rows = Vec::new();
    for ((cv, _), pair) in sets.iter().zip(robustness.chunks(2)) {
        let mut row = vec![format!("{cv:.1}")];
        for rep in pair {
            row.push(format!(
                "{:.0}/{:.0}",
                rep.total_startup().as_secs_f64(),
                rep.total_waste().value()
            ));
        }
        rows.push(row);
    }
    print_table(
        &["cv", "OpenWhisk st_s/waste", "RainbowCake st_s/waste"],
        &rows,
    );

    // ---- Fig. 12(d): tight memory budget ----
    println!("\n-- Fig. 12(d): startup under a 40 GB budget (CV = 1.0 set) --");
    let (_, trace) = &sets[4];
    let tight = parallel::run_policies(
        &bed.catalog,
        trace,
        &SimConfig::with_memory(MemMb::from_gb(40)),
        &BASELINE_NAMES,
    );
    let mut rows = Vec::new();
    for (name, rep) in BASELINE_NAMES.iter().zip(&tight) {
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", rep.total_startup().as_secs_f64()),
        ]);
    }
    print_table(&["policy", "total_startup_s @40GB"], &rows);

    // ---- §7.8 checkpoint ----
    println!("\n-- §7.8 checkpoint integration --");
    let mut policy = RainbowCake::with_defaults(&bed.catalog).expect("valid");
    let cp = run(
        &bed.catalog,
        &mut policy,
        bed.trace.iter().copied(),
        bed.trace.horizon(),
        &SimConfig {
            checkpoint: true,
            ..bed.config.clone()
        },
        None,
    );
    println!(
        "  startup: {:.0}% reduction (paper: 36%), waste: {:+.0}% (paper: +15%)",
        reduction_pct(
            rc.avg_startup().as_millis_f64(),
            cp.avg_startup().as_millis_f64()
        ),
        (cp.total_waste().value() / rc.total_waste().value() - 1.0) * 100.0
    );

    println!("\nDone. See the fig* binaries for per-figure detail.");
}
