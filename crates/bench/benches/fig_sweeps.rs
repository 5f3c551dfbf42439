//! Criterion bench: scaled-down figure sweeps — one short end-to-end
//! run per headline experiment family, so `cargo bench` exercises the
//! same code paths the fig* binaries use.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use rainbowcake_bench::{make_policy, parallel};
use rainbowcake_core::mem::MemMb;
use rainbowcake_sim::{run, SimConfig};
use rainbowcake_trace::cv::{cv_trace, CvTraceConfig};
use rainbowcake_trace::Trace;
use rainbowcake_workloads::paper_catalog;

fn short_cv_trace(cv: f64) -> Trace {
    cv_trace(
        20,
        &CvTraceConfig {
            horizon: rainbowcake_core::time::Micros::from_mins(10),
            total_invocations: 600,
            target_cv: cv,
            seed: 42,
        },
    )
}

fn bench_sweeps(c: &mut Criterion) {
    let catalog = paper_catalog();
    let mut group = c.benchmark_group("fig_sweeps");
    group.sample_size(10);

    // Fig. 12(b/c) in miniature: one bursty run per policy.
    let trace = short_cv_trace(2.0);
    for name in ["OpenWhisk", "SEUSS", "Pagurus", "RainbowCake"] {
        group.bench_function(format!("cv2_{name}"), |b| {
            b.iter(|| {
                let mut policy = make_policy(name, &catalog);
                black_box(run(
                    &catalog,
                    policy.as_mut(),
                    trace.iter().copied(),
                    trace.horizon(),
                    &SimConfig::default(),
                    None,
                ))
            })
        });
    }

    // Fig. 12(d) in miniature: tight memory budget.
    group.bench_function("tight_budget_rainbowcake", |b| {
        let config = SimConfig::with_memory(MemMb::from_gb(4));
        b.iter(|| {
            let mut policy = make_policy("RainbowCake", &catalog);
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

    // The fig binaries' fan-out path in miniature: the same four
    // policies dispatched through the parallel executor (thread count
    // from RAINBOWCAKE_THREADS / available cores).
    group.bench_function("parallel_fanout_4_policies", |b| {
        let names = ["OpenWhisk", "SEUSS", "Pagurus", "RainbowCake"];
        b.iter(|| {
            black_box(parallel::run_policies(
                &catalog,
                &trace,
                &SimConfig::default(),
                &names,
            ))
        })
    });

    // §7.8 in miniature: checkpointed run.
    group.bench_function("checkpoint_rainbowcake", |b| {
        let config = SimConfig {
            checkpoint: true,
            ..SimConfig::default()
        };
        b.iter(|| {
            let mut policy = make_policy("RainbowCake", &catalog);
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

    group.finish();
}

criterion_group!(benches, bench_sweeps);
criterion_main!(benches);
