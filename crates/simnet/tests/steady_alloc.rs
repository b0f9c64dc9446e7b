//! Steady-state allocation audit of the boundary loop.
//!
//! Once a population of flows is running, a boundary step works
//! entirely in scratch the engine already owns: a step that completes
//! nothing allocates **nothing**, and a step that completes flows
//! allocates exactly the `Vec<CompletedFlow>` it returns. Pinned over a
//! megaflow-shaped fan-in (large components, batched completions) and a
//! two-path TCP-capped probe race (cap-change boundaries). Beside them,
//! `Network::clone` — what every study task starts from — is pinned to
//! a fixed allocation count whatever the link count, and whatever the
//! number of flows it has started (plus one per boxed cap that has a
//! size), and starting flows to a count of array growths.
//!
//! The counting allocator only counts on the thread that armed it, so
//! the test harness's other threads cannot leak into a window.

use ir_simnet::bandwidth::{ConstantProcess, RegimeSwitchingProcess};
use ir_simnet::prelude::*;
use ir_simnet::topology::NodeKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn note() {
        if ARMED.with(Cell::get) {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised, destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: caller's `layout` obligations pass straight to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: same contract as this method's.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as this method's.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: same contract as this method's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes inside `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, ALLOCS.with(Cell::get))
}

/// Steps `net` to `horizon`, skipping `warmup` boundaries (they size
/// the scratch), and holds every later step to the allocation rule.
/// Returns `(steady steps, steps among them that completed flows)`.
fn audit(net: &mut Network, horizon: SimTime, warmup: u32) -> (u32, u32) {
    let (mut steady, mut completing) = (0, 0);
    let mut step = 0;
    while net.now() < horizon {
        let (done, allocs) = allocs_in(|| net.step_boundary(horizon));
        step += 1;
        if step <= warmup {
            continue;
        }
        steady += 1;
        completing += !done.is_empty() as u32;
        assert_eq!(
            allocs,
            !done.is_empty() as u64,
            "boundary {step} (t={:?}, {} completions) allocated {allocs} times",
            net.now(),
            done.len()
        );
    }
    (steady, completing)
}

#[test]
fn megaflow_shaped_boundaries_allocate_only_their_completions() {
    // 8 racks × 4 hosts × 8 flows behind one Capacity uplink per rack,
    // two arrival waves — the `megaflow-200k` workload's shape.
    let mut topo = Topology::new();
    let origin = topo.add_node("origin", NodeKind::Server);
    let mut uplinks = Vec::new();
    let mut routes = Vec::new();
    for r in 0..8 {
        let tor = topo.add_node(format!("tor{r}"), NodeKind::Intermediate);
        uplinks.push(topo.add_link_shared(
            tor,
            origin,
            SimDuration::from_millis(1),
            Sharing::Capacity,
        ));
        for h in 0..4 {
            let host = topo.add_node(format!("h{r}.{h}"), NodeKind::Client);
            topo.add_link_shared(host, tor, SimDuration::from_millis(1), Sharing::PerFlow);
            routes.push(topo.route(&[host, tor, origin]).unwrap());
        }
    }
    let mut net = Network::new(topo, 1e9);
    for (r, &l) in uplinks.iter().enumerate() {
        let rate = 5e7 * (0.8 + 0.05 * r as f64);
        net.set_link_process(l, Box::new(ConstantProcess::new(rate)));
    }
    let start_wave = |net: &mut Network, wave: u32| {
        for route in &routes {
            for j in 0..8 {
                if j % 2 == wave {
                    net.start_flow(route.clone(), 2_000_000, Box::new(NoCap));
                }
            }
        }
    };
    start_wave(&mut net, 0);
    net.advance_until(SimTime::from_millis(100));
    start_wave(&mut net, 1);
    let (steady, completing) = audit(&mut net, SimTime::from_secs(60), 1);
    assert_eq!(net.stats().flows_completed, 256);
    // One batch per rack and wave — the warm-up step lands the first —
    // and the last step is the idle jump to the horizon.
    assert_eq!(completing, 15);
    assert_eq!(steady, 16);
}

#[test]
fn tcp_capped_probe_race_boundaries_allocate_only_their_completions() {
    // Direct and one-relay path, PerFlow links, both probes ramping
    // through a stepped cap — the paper-shaped studies' inner loop.
    #[derive(Clone)]
    struct Ramp;
    impl RateCap for Ramp {
        fn cap(&mut self, age: SimDuration, _done: u64) -> f64 {
            let q = (age.as_micros() / 50_000).min(12);
            4_000.0 * f64::powi(2.0, q as i32)
        }
        fn next_cap_change(&mut self, age: SimDuration) -> Option<SimDuration> {
            let q = age.as_micros() / 50_000;
            (q < 12).then(|| SimDuration::from_micros((q + 1) * 50_000))
        }
        fn clone_box(&self) -> Box<dyn RateCap> {
            Box::new(Ramp)
        }
    }
    let mut topo = Topology::new();
    let c = topo.add_node("c", NodeKind::Client);
    let v = topo.add_node("v", NodeKind::Intermediate);
    let s = topo.add_node("s", NodeKind::Server);
    let l0 = topo.add_link_shared(c, s, SimDuration::from_millis(90), Sharing::PerFlow);
    let l1 = topo.add_link_shared(c, v, SimDuration::from_millis(85), Sharing::PerFlow);
    let l2 = topo.add_link_shared(v, s, SimDuration::from_millis(10), Sharing::PerFlow);
    let direct = topo.route(&[c, s]).unwrap();
    let indirect = topo.route(&[c, v, s]).unwrap();
    let mut net = Network::new(topo, 1.0);
    net.set_link_process(l0, Box::new(ConstantProcess::new(8e4)));
    net.set_link_process(l1, Box::new(ConstantProcess::new(2e5)));
    net.set_link_process(l2, Box::new(ConstantProcess::new(1e7)));
    net.start_flow(direct, 400_000, Box::new(Ramp));
    net.start_flow(indirect, 400_000, Box::new(Ramp));
    let (steady, completing) = audit(&mut net, SimTime::from_secs(30), 1);
    assert_eq!(net.stats().flows_completed, 2);
    assert_eq!(completing, 2);
    assert!(steady > 10, "ramp steps must be boundaries: {steady}");
}

#[test]
fn network_clone_allocations_do_not_grow_with_links() {
    // A star of PerFlow links, each on its own regime-switching process
    // (so every process owns its own timeline `Vec`s). A clone shares
    // the topology and the processes: what it allocates is the engine's
    // per-link arrays, one allocation each, whatever their length.
    let star = |links: u32| {
        let mut topo = Topology::new();
        let hub = topo.add_node("hub", NodeKind::Server);
        let ids: Vec<LinkId> = (0..links)
            .map(|k| {
                let leaf = topo.add_node(format!("leaf{k}"), NodeKind::Client);
                topo.add_link_shared(leaf, hub, SimDuration::from_millis(10), Sharing::PerFlow)
            })
            .collect();
        let mut net = Network::new(topo, 1.0);
        for (k, &l) in ids.iter().enumerate() {
            let levels = vec![1e4, 1e5, 1e6];
            let proc_ =
                RegimeSwitchingProcess::new(levels, SimDuration::from_secs(5), 0.2, k as u64);
            net.set_link_process(l, Box::new(proc_));
        }
        net
    };
    let (small, large) = (star(10), star(1_000));
    let (_, at_10) = allocs_in(|| small.clone());
    let (_, at_1000) = allocs_in(|| large.clone());
    assert_eq!(at_10, at_1000, "a clone's allocations grew with its links");
    assert_eq!(at_10, 9);
}

/// `hosts` hosts behind one `Capacity` uplink, so every flow joins one
/// congestion component, and one route per host, built before anything
/// is counted.
fn fan_in(hosts: u32) -> (Network, Vec<Route>) {
    let mut topo = Topology::new();
    let origin = topo.add_node("origin", NodeKind::Server);
    let tor = topo.add_node("tor", NodeKind::Intermediate);
    let ms = SimDuration::from_millis(1);
    let uplink = topo.add_link_shared(tor, origin, ms, Sharing::Capacity);
    let routes = (0..hosts)
        .map(|h| {
            let host = topo.add_node(format!("h{h}"), NodeKind::Client);
            topo.add_link_shared(host, tor, ms, Sharing::PerFlow);
            topo.route(&[host, tor, origin]).unwrap()
        })
        .collect();
    let mut net = Network::new(topo, 1e9);
    net.set_link_process(uplink, Box::new(ConstantProcess::new(5e7)));
    (net, routes)
}

/// `n` routes of [`fan_in`]'s, round robin.
fn routes_for(routes: &[Route], n: usize) -> Vec<Route> {
    (0..n).map(|k| routes[k % routes.len()].clone()).collect()
}

#[test]
fn starting_flows_allocates_per_array_doubling_not_per_flow() {
    // Every per-flow quantity is a flat array that grows by doubling
    // (sizes, starts, caps, the dense active arrays, the route and
    // solver arenas, the component's member list): starting 16× the
    // flows costs each at most 4 more growths, and a flow's route moves
    // into an arena rather than staying a `Vec` of its own.
    const PER_FLOW_ARRAYS: u64 = 32;
    let start = |n: usize| {
        let (mut net, routes) = fan_in(16);
        let routes = routes_for(&routes, n);
        let ((), allocs) = allocs_in(|| {
            for route in routes {
                net.start_flow(route, 2_000_000, Box::new(NoCap));
            }
        });
        allocs
    };
    let (small, large) = (start(256), start(16 * 256));
    assert!(
        large <= small + 4 * PER_FLOW_ARRAYS,
        "starting 16× the flows took {small} → {large} allocations"
    );
    assert!(large < 4096 / 8, "{large} allocations for 4,096 flows");
}

#[test]
fn a_clone_allocates_once_per_sized_cap_not_per_flow() {
    // A network that has started flows and stepped once: a clone copies
    // every per-flow array in one allocation each, whatever the flow
    // count, plus one box per cap that has a size (`NoCap` has none).
    let running = |uncapped: usize, capped: usize| {
        let (mut net, routes) = fan_in(16);
        for route in routes_for(&routes, uncapped) {
            net.start_flow(route, 2_000_000, Box::new(NoCap));
        }
        for route in routes_for(&routes, capped) {
            net.start_flow(route, 2_000_000, Box::new(ConstCap(1e5)));
        }
        net.step_boundary(SimTime::from_millis(10));
        net
    };
    let (few, many, capped) = (running(64, 0), running(4096, 0), running(64, 10));
    let (_, at_few) = allocs_in(|| few.clone());
    let (_, at_many) = allocs_in(|| many.clone());
    let (_, at_capped) = allocs_in(|| capped.clone());
    assert_eq!(at_few, at_many, "a clone's allocations grew with its flows");
    assert_eq!(at_capped, at_few + 10, "one box per sized cap");
}
