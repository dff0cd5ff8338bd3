//! A counting global allocator for allocation measurements.
//!
//! [`CountingAlloc`] wraps the system allocator and keeps four global
//! atomics: total allocation count, total bytes requested, currently-live
//! bytes, and the high-water mark of live bytes. Install it with
//! `#[global_allocator]` in a binary or test target (the
//! `recompile_allocs` test, perfbench), then wrap the region of interest
//! in [`measure`] to get that region's deltas, or read [`live_bytes`]
//! between regions to follow what stays allocated. When the allocator is
//! *not* installed the counters simply never move and every delta reads
//! as zero, so library code (and tests) can link this module
//! unconditionally.
//!
//! The counters are process-global: run measured regions one at a time,
//! with no other thread allocating, or the windows overlap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CURRENT: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Books one allocation of `size` bytes into the global counters.
fn record_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = CURRENT.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Books one deallocation of `size` bytes.
fn record_dealloc(size: usize) {
    CURRENT.fetch_sub(size as i64, Ordering::Relaxed);
}

/// The counting wrapper around [`System`].
pub struct CountingAlloc;

// SAFETY: defers every allocation to `System` unchanged; the wrapper only
// updates counters, never the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record_dealloc(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still pressures the allocator: count it as one
        // allocation of the new size, with live bytes moving by the delta.
        record_dealloc(layout.size());
        record_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap-allocation deltas of one measured region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocations performed (reallocs count once).
    pub allocs: u64,
    /// Bytes requested across those allocations.
    pub bytes: u64,
    /// High-water mark of live bytes above the region's starting level.
    pub peak_bytes: u64,
}

/// Bytes currently live on the heap, as booked since the counting
/// started; 0 unless [`CountingAlloc`] is installed as the global
/// allocator.
pub fn live_bytes() -> u64 {
    CURRENT.load(Ordering::Relaxed).max(0) as u64
}

/// Runs `f` and returns its result plus the region's allocation deltas.
/// All zeros unless [`CountingAlloc`] is installed as the global
/// allocator.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocDelta) {
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let bytes0 = BYTES.load(Ordering::Relaxed);
    let live0 = CURRENT.load(Ordering::Relaxed);
    PEAK.store(live0, Ordering::Relaxed);
    let result = f();
    (
        result,
        AllocDelta {
            allocs: ALLOCS.load(Ordering::Relaxed) - allocs0,
            bytes: BYTES.load(Ordering::Relaxed) - bytes0,
            peak_bytes: (PEAK.load(Ordering::Relaxed) - live0).max(0) as u64,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so the counters move
    // only through the record functions — exercise the bookkeeping
    // directly. Serialize against other tests touching the globals by
    // running everything in one test body.
    #[test]
    fn bookkeeping_tracks_counts_bytes_and_peak() {
        let ((), d) = measure(|| {
            record_alloc(100);
            record_alloc(50);
            record_dealloc(100);
            record_alloc(30);
        });
        assert_eq!(d.allocs, 3);
        assert_eq!(d.bytes, 180);
        // Live peaked at 150 (100 + 50) above the starting level.
        assert_eq!(d.peak_bytes, 150);

        // A fresh window starts from the current live level.
        let ((), d2) = measure(|| {
            record_alloc(10);
            record_dealloc(10);
        });
        assert_eq!(d2.allocs, 1);
        assert_eq!(d2.bytes, 10);
        assert_eq!(d2.peak_bytes, 10);

        // The live reading follows allocations and frees alike.
        let live = live_bytes();
        record_alloc(40);
        assert_eq!(live_bytes(), live + 40);
        record_dealloc(40);
        assert_eq!(live_bytes(), live);
    }
}
