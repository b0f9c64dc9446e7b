//! What a download costs the client in memory: one pass per body byte.
//!
//! The remainder is read straight into the reassembly's final buffer,
//! so a probed download allocates the body once, plus a buffer per
//! probe (the probes race for the same range, so each reads into its
//! own) and a little bookkeeping. A body copied through a per-transfer
//! buffer costs about twice the body and fails here.
//!
//! The counting allocator only counts on the thread that armed it: the
//! origin and relay threads, and the test harness's, are not counted.

use ir_relay::{
    download, ClientConfig, OriginConfig, OriginServer, RateSchedule, Relay, RelayConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn note(bytes: usize) {
        if ARMED.with(Cell::get) {
            BYTES.with(|n| n.set(n.get() + bytes as u64));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised, destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: caller's `layout` obligations pass straight to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: same contract as this method's.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: caller's `layout` obligations pass straight to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: same contract as this method's.
        unsafe { System.alloc_zeroed(layout) }
    }
    // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as this method's.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: same contract as this method's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocates (and reallocates to) inside `f`.
fn bytes_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    BYTES.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, BYTES.with(Cell::get))
}

#[test]
fn a_download_allocates_its_body_once() {
    const BODY: u64 = 4 << 20;
    const PROBE: u64 = 100 << 10;
    // A slow, late direct path, so the unshaped relay carries the rest.
    let direct = OriginServer::start(
        OriginConfig::new(BODY)
            .shaped(RateSchedule::constant(1e6))
            .with_latency(Duration::from_secs(1)),
    )
    .unwrap();
    let origin = OriginServer::start(OriginConfig::new(BODY)).unwrap();
    let relay = Relay::start(RelayConfig::new()).unwrap();
    let cfg = ClientConfig {
        path: "/file.bin".into(),
        probe_bytes: PROBE,
        total_bytes: BODY,
        timeout: Duration::from_secs(30),
    };
    let relays = [relay.addr()];
    let paths = 1 + relays.len() as u64;
    let (got, bytes) = bytes_in(|| download(direct.addr(), origin.addr(), &relays, &cfg));
    let got = got.unwrap();
    assert!(got.body_ok, "{got:?}");
    let bound = BODY + paths * PROBE + (64 << 10);
    assert!(
        bytes <= bound,
        "a {BODY} B download allocated {bytes} B on the client's thread (bound {bound})"
    );
}
