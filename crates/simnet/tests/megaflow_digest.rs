//! The `megaflow-200k` workload's exact outputs, as a test: 204,800
//! uncapped flows behind 128 jittered rack uplinks (25 hosts × 64 flows
//! each, in two waves 10 s apart), stepped boundary by boundary to
//! quiescence on the default engine. Every completion `(flow, finish
//! time)` is folded into a 64-bit FNV-1a digest in completion order;
//! it, the engine's solve counts and its boundary census are pinned
//! at seed 2007.
//!
//! The recipe is the benchmark's (`irbench/src/sut.rs`, `mega_setup` /
//! `mega_run`), so an engine change that moves a completion by one
//! microsecond fails here as well as in a benchmark run. Run it in
//! release: `cargo test --release -p ir-simnet --test megaflow_digest`.

use ir_simnet::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RACKS: u32 = 128;
const HOSTS: u32 = 25;
const FLOWS_PER_HOST: u32 = 64;
const WAVES: u32 = 2;
const WAVE_STAGGER_MS: u64 = 10_000;
const FILE_BYTES: u64 = 2_000_000;
const HOST_RATE: f64 = 1e9;
const RACK_RATE: f64 = 5e7;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The fan-in network before any flow starts, and one route per host:
/// host → top-of-rack over a per-flow access link, then a shared
/// uplink whose rate `seed` jitters by ±25 %.
fn setup(seed: u64) -> (Network, Vec<Route>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4D45_4741);
    let mut topo = Topology::new();
    let origin = topo.add_node("origin".to_string(), NodeKind::Server);
    let mut uplinks = Vec::new();
    let mut routes = Vec::new();
    for r in 0..RACKS {
        let tor = topo.add_node(format!("tor{r}"), NodeKind::Intermediate);
        uplinks.push(topo.add_link_shared(
            tor,
            origin,
            SimDuration::from_millis(1),
            Sharing::Capacity,
        ));
        for h in 0..HOSTS {
            let host = topo.add_node(format!("h{r}.{h}"), NodeKind::Client);
            topo.add_link_shared(host, tor, SimDuration::from_millis(1), Sharing::PerFlow);
            routes.push(topo.route(&[host, tor, origin]).expect("fan-in route"));
        }
    }
    let rates: Vec<f64> = (0..RACKS)
        .map(|_| RACK_RATE * rng.gen_range(0.75..1.25))
        .collect();
    let mut net = Network::new(topo, HOST_RATE);
    for (&link, &rate) in uplinks.iter().zip(&rates) {
        net.set_link_process(link, Box::new(ConstantProcess::new(rate)));
    }
    (net, routes)
}

#[test]
fn megaflow_200k_completions_and_counts_are_pinned() {
    let (mut net, routes) = setup(2007);
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut started = 0u64;
    let mut flow_boundaries = 0u64;
    let mut advance = |net: &mut Network, until: SimTime| {
        while net.now() < until {
            let done = net.step_boundary(until);
            flow_boundaries += net.last_boundary_rates().len() as u64;
            for c in &done {
                digest.u64(c.id.0);
                digest.u64(c.finished.0);
            }
        }
    };
    // The slowest rack (jitter ≥ 0.75) at full load, with slack.
    let per_rack = FILE_BYTES * u64::from(HOSTS) * u64::from(FLOWS_PER_HOST);
    let horizon = SimTime::from_secs(
        (u64::from(WAVES) * WAVE_STAGGER_MS).div_ceil(1000)
            + 4 * per_rack.div_ceil(RACK_RATE as u64),
    );
    for wave in 0..WAVES {
        advance(
            &mut net,
            SimTime::from_millis(u64::from(wave) * WAVE_STAGGER_MS),
        );
        for route in &routes {
            for j in 0..FLOWS_PER_HOST {
                if j % WAVES == wave {
                    net.start_flow(route.clone(), FILE_BYTES, Box::new(NoCap));
                    started += 1;
                }
            }
        }
    }
    advance(&mut net, horizon);

    let stats = net.stats();
    let flows = u64::from(RACKS * HOSTS * FLOWS_PER_HOST);
    assert_eq!((started, stats.flows_completed), (flows, flows));
    assert_eq!(format!("{:016x}", digest.0), "ef086ff565fd2ea5");
    assert_eq!(
        (
            stats.boundaries,
            stats.full_solves,
            stats.incremental_solves,
            stats.component_solves
        ),
        (258, 257, 0, 20_683)
    );
    // Σ over boundaries of the flows each one integrated.
    assert_eq!(flow_boundaries, 26_419_200);
    // What ended each boundary (completion, link rate, cap, fault,
    // target, idle): one completing rack-wave each, the second wave's
    // start, and the idle jump to the horizon.
    assert_eq!(
        [
            stats.ended_by_completion,
            stats.ended_by_link_rate,
            stats.ended_by_cap,
            stats.ended_by_fault,
            stats.ended_by_target,
            stats.ended_idle,
        ],
        [256, 0, 0, 0, 1, 1]
    );
}
