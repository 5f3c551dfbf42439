//! Opt-in counting allocator.
//!
//! Wraps [`System`] and counts allocator calls that obtain memory
//! (`alloc`, `alloc_zeroed`, `realloc`) only while [`set_counting`] is
//! on, which only the traced run does. Each count lands in a process
//! total and in a thread-local counter, so a span can attribute the
//! allocations made between its start and end on its own thread. With
//! counting off, an allocation pays one relaxed atomic load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and drop-free: reading it never allocates and
    // never registers a destructor, so the allocator may touch it.
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

/// The benchmark's global allocator.
pub struct CountingAlloc;

#[inline]
fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD.try_with(|c| c.set(c.get() + 1));
    }
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

/// Turns counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted on the calling thread so far.
pub fn thread_allocs() -> u64 {
    THREAD.with(Cell::get)
}

/// Allocations counted in the whole process so far.
pub fn total_allocs() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}
