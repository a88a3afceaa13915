//! Allocation telemetry: a counting wrapper around the system allocator.
//!
//! [`CountingAlloc`] forwards every request to [`std::alloc::System`]
//! and counts allocation events and requested bytes into per-thread
//! cells, so a [`Span`] can attribute the allocations of *its own*
//! thread to its phase without cross-thread noise. `realloc` and
//! `alloc_zeroed` count as one event of the new size; `dealloc` is not
//! counted — the telemetry answers "how much allocator traffic do the
//! hot loops generate", not "what is live".
//!
//! The wrapper only counts in binaries that install it:
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: cubie_obs::alloc::CountingAlloc = cubie_obs::alloc::CountingAlloc;
//! ```
//!
//! The `cubie` crate installs it (so the CLI, `cubie profile` and the
//! root integration tests all count). Where it is not installed every
//! counter reads 0. Overhead when installed is two thread-local
//! increments per allocation, far below the cost of the allocation
//! itself.
//!
//! [`Span`]: crate::Span

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Per-thread counters. `const`-initialized `Cell`s with no destructor
// compile to plain TLS slots: no lazy init and no registration, so
// touching them inside the allocator cannot recurse or allocate.
thread_local! {
    static THREAD_COUNT: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The counting allocator. Install with `#[global_allocator]`; see the
/// module docs.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn record(size: usize) {
        // During thread teardown TLS may be gone; skip the count then.
        let _ = THREAD_COUNT.try_with(|c| c.set(c.get() + 1));
        let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: pure pass-through to `System`; the counters never influence
// which pointer is returned or how layouts are honoured.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocation events, requested bytes)` on the calling thread since it
/// started. Monotonic; callers snapshot and diff.
pub fn thread_allocs() -> (u64, u64) {
    (THREAD_COUNT.with(Cell::get), THREAD_BYTES.with(Cell::get))
}
