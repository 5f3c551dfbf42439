//! Criterion bench: the eviction fast path under sustained memory
//! pressure. A deliberately tiny memory cap against a dense trace means
//! nearly every admission must reclaim memory first, so this measures
//! the `ensure_memory` → `select_victims` → `end_idle` pipeline in
//! isolation — the path the batch-selection and lazy-heap work targets.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use rainbowcake_bench::{make_policy, BASELINE_NAMES};
use rainbowcake_core::mem::MemMb;
use rainbowcake_sim::{run, SimConfig};
use rainbowcake_trace::azure::{azure_like_trace, AzureConfig};
use rainbowcake_workloads::paper_catalog;

fn bench_eviction_storm(c: &mut Criterion) {
    let catalog = paper_catalog();
    // A dense hour: heavy-tailed azure-like arrivals at 4x the default
    // rate keep the admission queue busy.
    let trace = azure_like_trace(
        catalog.len(),
        &AzureConfig {
            hours: 1,
            rate_scale: 4.0,
            ..AzureConfig::default()
        },
    );
    // Room for only a handful of warm containers: every placement under
    // load evicts.
    let config = SimConfig {
        memory_capacity: MemMb::from_gb(2),
        ..SimConfig::default()
    };

    let mut group = c.benchmark_group("eviction_storm_1h_2gb");
    group.sample_size(10);
    for name in BASELINE_NAMES {
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

criterion_group!(benches, bench_eviction_storm);
criterion_main!(benches);
