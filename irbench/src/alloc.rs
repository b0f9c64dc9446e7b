//! A counting `#[global_allocator]`: when armed it counts allocations
//! and the bytes they ask for; when disarmed it costs one relaxed
//! atomic load per allocation. Only the traced pass arms it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Relaxed throughout: the counters are statistics and publish no other
// data; whoever reads them has joined or is the only allocating thread.
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

impl Counting {
    #[inline]
    fn note(size: usize) {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and requested bytes counted while armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
}

/// Zeroes the counters and starts counting.
pub fn arm() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Stops counting and returns what was counted since [`arm`].
pub fn disarm() -> Counts {
    ARMED.store(false, Ordering::Relaxed);
    Counts {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// The counters are process-wide and `cargo test` runs the tests of one
/// binary on parallel threads: every test that arms holds this lock.
#[cfg(test)]
pub static TEST_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests may allocate while this one is armed, so it asserts
    // lower bounds.
    #[test]
    fn counts_only_while_armed() {
        let _serial = TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        arm();
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let armed = disarm();
        assert!(armed.allocs >= 1, "{armed:?}");
        assert!(armed.bytes >= 4096, "{armed:?}");

        let w: Vec<u8> = Vec::with_capacity(1 << 20);
        std::hint::black_box(&w);
        let after = disarm();
        assert_eq!(after, armed, "counted while disarmed");
    }
}
