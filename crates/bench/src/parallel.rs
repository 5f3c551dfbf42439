//! A parallel experiment executor: fans independent simulation jobs
//! across OS threads and returns their results in submission order.
//!
//! Every job owns all of its inputs' mutable state — each simulation
//! constructs its own policy instance and its own
//! `StdRng::seed_from_u64(config.seed)` inside [`rainbowcake_sim::run`]
//! — so running jobs concurrently is **bit-identical** to running them
//! sequentially: no RNG stream, container id sequence, or event order is
//! shared between jobs. The executor only changes wall-clock time, never
//! results (asserted end-to-end by `tests/parallel_identity.rs`).
//!
//! The implementation is dependency-free: a [`std::thread::scope`] worker
//! pool pulls job indices from an atomic counter, writes each result
//! into its submission-order slot, and the scope join guarantees all
//! slots are filled on return. Worker count comes from
//! [`worker_threads`], overridable with the `RAINBOWCAKE_THREADS`
//! environment variable (set it to `1` to force sequential execution).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rainbowcake_core::profile::Catalog;
use rainbowcake_metrics::RunReport;
use rainbowcake_sim::{run, SimConfig};
use rainbowcake_trace::Trace;

use crate::suite::make_policy;

/// Environment variable overriding the worker-thread count (`1` forces
/// sequential execution; unset uses all available cores).
pub const THREADS_ENV: &str = "RAINBOWCAKE_THREADS";

/// The number of worker threads experiment fan-out uses: the
/// [`THREADS_ENV`] override when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].
pub fn worker_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs independent jobs across [`worker_threads`] threads, returning
/// their results in submission order.
///
/// With one worker thread (or at most one job) the jobs run inline on
/// the calling thread, in order, with zero thread overhead.
pub fn run_jobs<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_jobs_on(worker_threads(), jobs)
}

/// [`run_jobs`] with an explicit thread count.
///
/// # Panics
///
/// Propagates the panic of any job (after the scope joins all workers).
pub fn run_jobs_on<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .expect("job slot lock")
                    .take()
                    .expect("each job index is claimed once");
                let result = job();
                *results[i].lock().expect("result slot lock") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("scope join guarantees every job ran")
        })
        .collect()
}

/// Runs one simulation per named policy (same trace and config for all),
/// in parallel, returning reports in input order.
pub fn run_policies(
    catalog: &Catalog,
    trace: &Trace,
    config: &SimConfig,
    names: &[&str],
) -> Vec<RunReport> {
    run_jobs(
        names
            .iter()
            .map(|&name| {
                move || {
                    let mut policy = make_policy(name, catalog);
                    run(
                        catalog,
                        policy.as_mut(),
                        trace.iter().copied(),
                        trace.horizon(),
                        config,
                        None,
                    )
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<_> = (0..64).map(|i| move || i * 2).collect();
        let out = run_jobs_on(4, jobs);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let jobs: Vec<_> = (0..5).map(|i| move || i).collect();
        assert_eq!(run_jobs_on(1, jobs), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = Vec::new();
        assert!(run_jobs_on(4, jobs).is_empty());
    }

    #[test]
    fn more_threads_than_jobs() {
        let jobs: Vec<_> = (0..2).map(|i| move || i + 10).collect();
        assert_eq!(run_jobs_on(16, jobs), vec![10, 11]);
    }

    #[test]
    fn parallel_matches_sequential_for_pure_jobs() {
        let make = || {
            (0..32)
                .map(|i| move || (i * 7919) % 257)
                .collect::<Vec<_>>()
        };
        assert_eq!(run_jobs_on(1, make()), run_jobs_on(8, make()));
    }
}
