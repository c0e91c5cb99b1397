//! A counting global allocator for the fuzzer's allocation budget.
//!
//! The length-prefix bomb defence (reject a length claim the remaining
//! bytes cannot satisfy *before* allocating) is only testable if tests
//! can observe allocation. [`CountingAlloc`] wraps the system allocator
//! and charges every allocation to a thread-local counter, so parallel
//! test threads measure independently. Binaries that want measurement
//! declare it as their `#[global_allocator]`; when none is installed,
//! [`measure`] still runs the closure and reports `None` for the byte
//! count, so library consumers need no special setup.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the first [`CountingAlloc`] call; lets [`measure`] distinguish
/// "zero bytes allocated" from "no counting allocator installed".
static INSTALLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn charge(bytes: usize) {
    INSTALLED.store(true, Ordering::Relaxed);
    // try_with: the allocator can be re-entered during thread teardown
    // after the TLS slot is destroyed; dropping the charge there is fine.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes as u64));
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

/// A [`System`]-backed allocator that counts bytes requested per thread.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the bookkeeping does not touch
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and reports the bytes allocated on this thread during the
/// call, or `None` when no [`CountingAlloc`] is installed as the global
/// allocator. The count is cumulative-requested (frees are not
/// subtracted): a decoder that allocates a huge buffer and drops it
/// still gets charged, which is exactly what the bomb defence bounds.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Option<u64>) {
    let (result, allocs) = measure_allocs(f);
    (result, allocs.map(|a| a.bytes))
}

/// What one measured call asked of the allocator on its thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation calls (`alloc`, `alloc_zeroed` and `realloc` each count
    /// one).
    pub calls: u64,
    /// Bytes requested, as [`measure`] counts them.
    pub bytes: u64,
}

/// [`measure`], reporting the number of allocation calls as well as the
/// bytes.
pub fn measure_allocs<R>(f: impl FnOnce() -> R) -> (R, Option<Allocs>) {
    let read = || Allocs {
        calls: CALLS.with(Cell::get),
        bytes: ALLOCATED.with(Cell::get),
    };
    let before = read();
    let result = f();
    let after = read();
    let allocs = Allocs {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
    };
    (result, INSTALLED.load(Ordering::Relaxed).then_some(allocs))
}
