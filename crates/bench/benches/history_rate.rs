//! Criterion bench: the cost of a compound-rate query on the active-member
//! scan against the naive oracle, at the paper catalog's 20 functions and
//! at 1000 (the size of simbench's `rc-wide` workload).
//!
//! * `function` — one function's fitted rate (a ladder's `User` rung);
//! * `sharing_rates` — the fused `Lang` + `Global` pass one idle
//!   transition makes;
//! * `lang`, `global` — one compound scope through `rate`;
//! * `uncached_lang`, `uncached_global` — the naive
//!   O(functions-in-scope) oracle ([`HistoryRecorder::rate_uncached`])
//!   the scan must match bit-for-bit.
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
    // windowed arrivals), so scans do maximal work.
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
        group.bench_with_input(BenchmarkId::new("sharing_rates", n), &n, |b, _| {
            b.iter(|| black_box(rec.sharing_rates(black_box(Language::Python), next())))
        });
        group.bench_with_input(BenchmarkId::new("lang", n), &n, |b, _| {
            b.iter(|| black_box(rec.rate(black_box(lang), next())))
        });
        group.bench_with_input(BenchmarkId::new("global", n), &n, |b, _| {
            b.iter(|| black_box(rec.rate(black_box(ShareScope::Global), next())))
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
