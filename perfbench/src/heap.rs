//! A counting wrapper around the system allocator. The benchmark's
//! memory metric is the program's live heap: unlike the resident set,
//! it does not move with where the allocator's per-thread arenas happen
//! to place memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes. The counters are
/// statistics that publish no other data, so `Relaxed` suffices.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Live bytes at the last [`set_base`].
static BASE: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    LIVE.fetch_add(bytes, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the wrapper only updates
// two atomic counters and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        moved
    }
}

/// Takes the heap live now as the base [`added_mb`] counts from.
pub fn set_base() {
    BASE.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Live heap above the base, MiB.
pub fn added_mb() -> f64 {
    let added = LIVE
        .load(Ordering::Relaxed)
        .saturating_sub(BASE.load(Ordering::Relaxed));
    added as f64 / (1024.0 * 1024.0)
}
