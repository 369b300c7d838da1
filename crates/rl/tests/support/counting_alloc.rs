//! A counting `#[global_allocator]` for the allocation-budget tests (this
//! crate's and `core`'s, which includes this file by path). Counts are per
//! thread, so tests running side by side do not see each other. Threads
//! that work for one test — a helper pool's — can also be enlisted
//! ([`enlist`]) into one count that sums them ([`enlisted_allocations_in`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

thread_local! {
    // `const` + no destructor: touching them never allocates or re-enters.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ENLISTED: Cell<bool> = const { Cell::new(false) };
}

/// Allocations of every enlisted thread.
static ENLISTED_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    if ENLISTED.try_with(Cell::get).unwrap_or(false) {
        ENLISTED_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` that neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations (and reallocations) this thread has made while running `f`.
pub fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Adds this thread's allocations from now on to [`enlisted_allocations_in`].
#[allow(dead_code)] // `core`'s budgets count per thread only
pub fn enlist() {
    ENLISTED.with(|e| e.set(true));
}

/// Allocations (and reallocations) every enlisted thread has made while
/// `f` ran on this one. Only meaningful while no enlisted thread works for
/// anything else.
#[allow(dead_code)] // `core`'s budgets count per thread only
pub fn enlisted_allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ENLISTED_ALLOCS.load(Ordering::SeqCst);
    let out = f();
    (out, ENLISTED_ALLOCS.load(Ordering::SeqCst) - before)
}
