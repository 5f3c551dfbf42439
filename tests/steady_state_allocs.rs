//! Steady-state allocation gate: a whole simulation may allocate only
//! for setup and amortized buffer growth, never per invocation.
//!
//! A counting global allocator (this test binary only) counts the
//! allocator calls that obtain memory on the thread that runs the
//! engine, and only inside `rainbowcake::sim::run`: catalog, trace and
//! policy are built before counting starts. The bound is an exact,
//! host-independent counter, so it holds on any machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rainbowcake::prelude::*;
use rainbowcake_bench::make_policy;

/// Ceiling on heap allocations per completed invocation.
const MAX_ALLOCS_PER_INVOCATION: f64 = 0.01;

struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

thread_local! {
    // Const-initialised and drop-free: reading them never allocates and
    // never registers a destructor, so the allocator may touch them.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which implements `GlobalAlloc` soundly; counting touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract;
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract;
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with counting on for the calling thread and returns its
/// result together with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get) - before)
}

/// Runs the policy `name` on `catalog` over a pre-materialized
/// Azure-like trace and asserts the run stays under the allocation
/// ceiling.
fn assert_allocation_free(name: &str, catalog: &Catalog, azure: AzureConfig) {
    let trace = azure_like_trace(catalog.len(), &azure);
    let config = SimConfig::default();
    let mut policy = make_policy(name, catalog);
    let (report, allocs) = counted(|| {
        run(
            catalog,
            policy.as_mut(),
            trace.iter().copied(),
            trace.horizon(),
            &config,
            None,
        )
    });
    let completed = report.invocations();
    assert_eq!(completed, trace.len(), "{name} completes every arrival");
    let per_invocation = allocs as f64 / completed as f64;
    assert!(
        per_invocation < MAX_ALLOCS_PER_INVOCATION,
        "{name}: {allocs} allocations over {completed} invocations \
         ({per_invocation:.4} per invocation, bound {MAX_ALLOCS_PER_INVOCATION})"
    );
}

/// A 24-hour paper-catalog trace at 3x.
fn paper_day() -> AzureConfig {
    AzureConfig {
        hours: 24,
        rate_scale: 3.0,
        ..AzureConfig::default()
    }
}

#[test]
fn openwhisk_does_not_allocate_per_invocation() {
    assert_allocation_free("OpenWhisk", &paper_catalog(), paper_day());
}

#[test]
fn rainbowcake_does_not_allocate_per_invocation() {
    assert_allocation_free("RainbowCake", &paper_catalog(), paper_day());
}

/// A wide catalog: 1000 functions, each with its own idle and
/// attachable lists, so per-function index storage that grew with use
/// would show here.
#[test]
fn rainbowcake_on_a_wide_catalog_does_not_allocate_per_invocation() {
    assert_allocation_free(
        "RainbowCake",
        &synthetic_catalog(1000),
        AzureConfig {
            hours: 6,
            rate_scale: 0.05,
            ..AzureConfig::default()
        },
    );
}
