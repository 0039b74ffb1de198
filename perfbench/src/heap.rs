//! The benchmark's global allocator: the repository's `CountingAlloc`
//! (allocation counts for `core.allocs`, per-worker profiles for the
//! engine) plus a count of live heap bytes and their peak.
//!
//! The peak live heap is the memory metric the benchmark gates on. The
//! kernel's VmHWM also counts what the allocator keeps after a free, so
//! it moves with allocator state and thread timing rather than with what
//! the program holds; the live-byte peak does not.

use pol_bench::alloc::CountingAlloc;
use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicI64, Ordering};

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// `CountingAlloc` with live and peak byte counts.
pub struct PeakAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards verbatim to `CountingAlloc`, which
// forwards to `System` and upholds the GlobalAlloc contract; the added
// relaxed counter updates cannot affect the returned memory; tested by:
// peak_follows_live_bytes.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout, same contract as the caller's.
        let out = unsafe { CountingAlloc.alloc(layout) };
        if !out.is_null() {
            grew(layout.size());
        }
        out
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: same pointer/layout pair the caller owns.
        unsafe { CountingAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same pointer/layout/new_size triple as the caller's.
        let out = unsafe { CountingAlloc.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        out
    }
}

/// Starts a new peak at the current live bytes and returns them, MB.
pub fn reset_peak() -> f64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live as f64 / (1024.0 * 1024.0)
}

/// Peak live heap since [`reset_peak`], MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_live_bytes() {
        // The test binary runs with PeakAlloc installed (see main.rs).
        // Other test threads allocate too, so compare with slack.
        let base = reset_peak();
        let block = vec![0u8; 64 << 20];
        let with_block = peak_mb();
        drop(block);
        assert!(with_block - base >= 63.0, "{base} {with_block}");
        assert!(peak_mb() >= with_block);
    }
}
