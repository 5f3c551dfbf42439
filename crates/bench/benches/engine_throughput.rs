//! Criterion bench: discrete-event engine throughput — full simulated
//! hours per wall-clock second, for a cheap policy and for RainbowCake.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use rainbowcake_bench::make_policy;
use rainbowcake_sim::{run, SimConfig};
use rainbowcake_trace::azure::{azure_like_trace, AzureConfig};
use rainbowcake_workloads::paper_catalog;

fn bench_engine(c: &mut Criterion) {
    let catalog = paper_catalog();
    let trace = azure_like_trace(
        catalog.len(),
        &AzureConfig {
            hours: 1,
            ..AzureConfig::default()
        },
    );
    let config = SimConfig::default();

    let mut group = c.benchmark_group("simulate_1h_trace");
    group.sample_size(10);
    for name in ["OpenWhisk", "RainbowCake"] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut policy = make_policy(name, &catalog);
                black_box(run(
                    &catalog,
                    policy.as_mut(),
                    trace.iter().copied(),
                    trace.horizon(),
                    &config,
                    None,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
