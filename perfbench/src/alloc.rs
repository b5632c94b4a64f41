//! A counting global allocator: the system allocator plus a per-thread
//! count of allocation calls.
//!
//! The count is thread-local, so a probe that reads it before and after
//! a call on one thread gets that call's exact allocations even while
//! other threads allocate. Counting is always on: the untimed and the
//! traced runs pay the same (one thread-local increment per call).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // A `const` initializer with no destructor: touching it never
    // allocates, which an allocator's bookkeeping must not do.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` call per thread.
pub struct Counting;

fn bump() {
    // During thread teardown the slot may be gone; such calls go
    // uncounted rather than panicking inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the
// counting touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls made so far by the current thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_exactly() {
        let before = thread_allocs();
        // black_box keeps the optimizer from eliding the pair.
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(8));
        let b = std::hint::black_box(Box::new(7u32));
        assert_eq!(thread_allocs() - before, 2);
        drop((v, b));
        assert_eq!(thread_allocs() - before, 2, "frees are not allocations");
    }
}
