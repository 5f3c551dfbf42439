//! Criterion bench: the cost of the sharing-set IATs an idle transition
//! reads, on the bracketed pass against the naive oracle, at the paper
//! catalog's 20 functions and at 1000 (the size of simbench's `rc-wide`
//! workload).
//!
//! * `function` — one function's fitted rate (a ladder's `User` rung);
//! * `sharing_iats` — the `Lang` and `Bare` IATs from one bracketed
//!   pass ([`HistoryRecorder::sharing_iats`]);
//! * `uncached_lang`, `uncached_global` — the naive
//!   O(functions-in-scope) sums ([`HistoryRecorder::rate_uncached`])
//!   whose IATs the pass must match exactly.
//!
//! `now` advances every iteration, as it does between real queries.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use rainbowcake_core::history::{HistoryRecorder, ShareScope};
use rainbowcake_core::time::Instant;
use rainbowcake_core::types::{FunctionId, Language};
use rainbowcake_workloads::synthetic_catalog;

fn warmed_recorder(n: usize) -> (HistoryRecorder, u64) {
    let catalog = synthetic_catalog(n);
    let mut rec = HistoryRecorder::new(&catalog, 6).unwrap();
    // Eight arrivals per function: every member is active (>= 2
    // windowed arrivals), so passes do maximal work.
    for i in 0..(n as u64 * 8) {
        rec.record_arrival(
            FunctionId::new((i % n as u64) as u32),
            Instant::from_micros(i * 250_000),
        );
    }
    (rec, n as u64 * 8 * 250_000)
}

fn bench_history_rate(c: &mut Criterion) {
    let mut group = c.benchmark_group("history_rate");
    // -ln(1 - 0.8), RainbowCake's default quantile.
    let numerator = -(0.2f64).ln();
    for &n in &[20usize, 1000] {
        let (mut rec, mut tick) = warmed_recorder(n);
        let lang = ShareScope::Language(Language::Python);
        let mut next = || {
            tick += 1;
            Instant::from_micros(tick)
        };

        group.bench_with_input(BenchmarkId::new("function", n), &n, |b, _| {
            b.iter(|| black_box(rec.function_rate(black_box(FunctionId::new(3)), next())))
        });
        group.bench_with_input(BenchmarkId::new("sharing_iats", n), &n, |b, _| {
            b.iter(|| black_box(rec.sharing_iats(black_box(Language::Python), next(), numerator)))
        });
        group.bench_with_input(BenchmarkId::new("uncached_lang", n), &n, |b, _| {
            b.iter(|| black_box(rec.rate_uncached(black_box(lang), next())))
        });
        group.bench_with_input(BenchmarkId::new("uncached_global", n), &n, |b, _| {
            b.iter(|| black_box(rec.rate_uncached(black_box(ShareScope::Global), next())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_history_rate);
criterion_main!(benches);
