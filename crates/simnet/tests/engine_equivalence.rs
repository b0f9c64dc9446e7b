//! Differential suite: the incremental allocation engine must be
//! **bit-identical** to the naive reference engine
//! ([`EngineMode::Reference`], which rebuilds the fair-share problem
//! from scratch every boundary, re-queries every cap, and solves with
//! `fairshare::reference_rates`).
//!
//! Each case builds one network, clones it (clones replay identical
//! randomness), runs one clone per engine mode through an identical
//! scripted call sequence, and asserts after **every** boundary step
//! that the clock, the per-flow rates (bitwise), and the completion
//! records agree. Any divergence is an invalidation bug — a component
//! left clean whose inputs moved, a cap segment outliving its value, a
//! split or merge that lost a member, a completion quotient not
//! refreshed with its rate — never fp noise: both engines share the
//! same solver arithmetic (see `fairshare.rs` and `soa.rs`), and the
//! reference engine still divides out its horizon from scratch at every
//! boundary.

use ir_simnet::bandwidth::{
    BandwidthProcess, ConstantProcess, PiecewiseProcess, RegimeSwitchingProcess,
};
use ir_simnet::faults::FaultPlan;
use ir_simnet::prelude::*;
use ir_simnet::topology::NodeKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Piecewise-constant rate ceiling driven by flow age — a stand-in for
/// the TCP model that keeps this crate's tests free of `ir-tcp` while
/// still exercising cap-change boundaries.
#[derive(Debug, Clone)]
struct StepCap {
    /// `(from_age, cap)`, ascending, first entry at age zero.
    steps: Vec<(SimDuration, f64)>,
}

impl RateCap for StepCap {
    fn cap(&mut self, age: SimDuration, _done: u64) -> f64 {
        self.steps
            .iter()
            .rev()
            .find(|&&(from, _)| from <= age)
            .map(|&(_, c)| c)
            .unwrap_or(f64::INFINITY)
    }
    fn next_cap_change(&mut self, age: SimDuration) -> Option<SimDuration> {
        self.steps
            .iter()
            .map(|&(from, _)| from)
            .find(|&from| from > age)
    }
    fn clone_box(&self) -> Box<dyn RateCap> {
        Box::new(self.clone())
    }
}

/// One scripted mutation of the network, applied identically to both
/// engine clones. The `*Soonest` actions aim at the flow that attains
/// the horizon — the earliest projected completion — when they apply.
enum Action {
    Start {
        route: Route,
        bytes: u64,
        cap: Box<dyn RateCap>,
    },
    Cancel(FlowId),
    SetProc(LinkId, Box<dyn BandwidthProcess>),
    CancelSoonest,
    /// Replaces the process of the slowest link on its route.
    ReplaceSoonestBottleneck(Box<dyn BandwidthProcess>),
    /// Starts a flow over its route plus `extra`, merging its component
    /// with whatever crosses `extra`.
    MergeIntoSoonest {
        extra: LinkId,
        bytes: u64,
        cap: Box<dyn RateCap>,
    },
}

impl Action {
    /// The size of the flow this action starts, if it starts one.
    fn starts(&self) -> Option<u64> {
        match self {
            Action::Start { bytes, .. } | Action::MergeIntoSoonest { bytes, .. } => Some(*bytes),
            _ => None,
        }
    }
}

struct Case {
    net: Network,
    script: Vec<(SimTime, Action)>,
    horizon: SimTime,
}

/// Every flow's size, by flow id, for a script applied in order.
fn sizes_of(script: &[(SimTime, Action)]) -> Vec<u64> {
    script.iter().filter_map(|(_, a)| a.starts()).collect()
}

fn arb_process(rng: &mut StdRng, horizon: SimTime) -> Box<dyn BandwidthProcess> {
    match rng.gen_range(0..10u32) {
        0..=3 => Box::new(ConstantProcess::new(rng.gen_range(1e3..1e6))),
        4..=6 => {
            let n = rng.gen_range(2..6usize);
            let mut t = SimTime::ZERO;
            let mut pts = Vec::with_capacity(n);
            for k in 0..n {
                if k > 0 {
                    t += SimDuration::from_millis(
                        rng.gen_range(500..horizon.as_micros() / 1_000 / 2).max(500),
                    );
                }
                pts.push((t, rng.gen_range(1e3..1e6)));
            }
            Box::new(PiecewiseProcess::new(pts))
        }
        _ => {
            let levels: Vec<f64> = (0..rng.gen_range(2..4usize))
                .map(|_| rng.gen_range(1e3..1e6))
                .collect();
            Box::new(RegimeSwitchingProcess::new(
                levels,
                SimDuration::from_secs(rng.gen_range(3..20)),
                rng.gen_range(0.05..0.3),
                rng.gen(),
            ))
        }
    }
}

fn arb_cap(rng: &mut StdRng) -> Box<dyn RateCap> {
    match rng.gen_range(0..4u32) {
        0 => Box::new(NoCap),
        1 => Box::new(ConstCap(rng.gen_range(1e3..5e5))),
        _ => {
            let n = rng.gen_range(1..4usize);
            let mut age = SimDuration::from_secs(0);
            let mut steps = Vec::with_capacity(n);
            for k in 0..n {
                if k > 0 {
                    age = age + SimDuration::from_secs(rng.gen_range(1..20));
                }
                let cap = if rng.gen_bool(0.2) {
                    f64::INFINITY
                } else {
                    rng.gen_range(1e3..1e6)
                };
                steps.push((age, cap));
            }
            Box::new(StepCap { steps })
        }
    }
}

/// Chain of `n` nodes with mixed `Capacity`/`PerFlow` links plus up to
/// two express links end-to-end; routes are contiguous segments (so
/// flows genuinely share bottlenecks) or an express hop.
fn arb_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = SimTime::from_secs(rng.gen_range(60..180));

    let n = rng.gen_range(3..8usize);
    let mut topo = Topology::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| {
            let kind = match i {
                0 => NodeKind::Client,
                k if k == n - 1 => NodeKind::Server,
                _ => NodeKind::Intermediate,
            };
            topo.add_node(format!("n{i}"), kind)
        })
        .collect();
    let mut links = Vec::new();
    for w in nodes.windows(2) {
        let sharing = if rng.gen_bool(0.7) {
            Sharing::Capacity
        } else {
            Sharing::PerFlow
        };
        links.push(topo.add_link_shared(
            w[0],
            w[1],
            SimDuration::from_millis(rng.gen_range(1..80)),
            sharing,
        ));
    }
    // Optionally one express link end-to-end (the "direct path" of the
    // paper's diamond, generalized).
    let express = rng.gen_bool(0.5).then(|| {
        let sharing = if rng.gen_bool(0.7) {
            Sharing::Capacity
        } else {
            Sharing::PerFlow
        };
        topo.add_link_shared(
            nodes[0],
            nodes[n - 1],
            SimDuration::from_millis(rng.gen_range(1..120)),
            sharing,
        )
    });
    links.extend(express);

    // Routes: contiguous chain segments (so flows genuinely overlap),
    // plus the express hop when present.
    let mut routes = Vec::new();
    for i in 0..n - 1 {
        for j in i + 1..n {
            routes.push(topo.route(&nodes[i..=j]).unwrap());
        }
    }
    if express.is_some() {
        routes.push(topo.route(&[nodes[0], nodes[n - 1]]).unwrap());
    }
    let node_ids = nodes.clone();

    let mut net = Network::new(topo, 1e4);
    for &l in &links {
        net.set_link_process(l, arb_process(&mut rng, horizon));
    }

    // Fault plan: occasionally, a few scheduled outages/brownouts.
    if rng.gen_bool(0.4) {
        let mut plan = FaultPlan::none();
        for _ in 0..rng.gen_range(1..4u32) {
            let from = SimTime::from_millis(rng.gen_range(1..horizon.as_micros() / 1000));
            let to = from + SimDuration::from_secs(rng.gen_range(1..40));
            match rng.gen_range(0..3u32) {
                0 => {
                    let l = links[rng.gen_range(0..links.len())];
                    plan = plan.link_outage(l, from, to);
                }
                1 => {
                    let l = links[rng.gen_range(0..links.len())];
                    plan = plan.brownout(l, from, to, rng.gen_range(0.05..0.9));
                }
                _ => {
                    let nd = node_ids[rng.gen_range(0..node_ids.len())];
                    plan = plan.node_outage(nd, from, to);
                }
            }
        }
        net.set_fault_plan(&plan);
    }

    // Script: staggered starts, occasional cancellations, occasional
    // mid-run process replacement.
    let mut script: Vec<(SimTime, Action)> = Vec::new();
    let n_flows = rng.gen_range(3..9usize);
    let mut started = 0u64;
    for _ in 0..n_flows {
        let at = SimTime::from_millis(rng.gen_range(0..horizon.as_micros() / 1000 / 2));
        script.push((
            at,
            Action::Start {
                route: routes[rng.gen_range(0..routes.len())].clone(),
                bytes: rng.gen_range(1_000..400_000),
                cap: arb_cap(&mut rng),
            },
        ));
        started += 1;
    }
    for _ in 0..rng.gen_range(0..3u32) {
        let at = SimTime::from_millis(rng.gen_range(1..horizon.as_micros() / 1000));
        script.push((at, Action::Cancel(FlowId(rng.gen_range(0..started)))));
    }
    for _ in 0..rng.gen_range(0..2u32) {
        let at = SimTime::from_millis(rng.gen_range(1..horizon.as_micros() / 1000));
        let l = links[rng.gen_range(0..links.len())];
        script.push((at, Action::SetProc(l, arb_process(&mut rng, horizon))));
    }
    // Batches of identical flows (same route, size, start and cap): the
    // horizon sees exact ties, as a rack-wave of identical flows does.
    for _ in 0..rng.gen_range(0..3u32) {
        let at = SimTime::from_millis(rng.gen_range(0..horizon.as_micros() / 1000 / 2));
        let route = &routes[rng.gen_range(0..routes.len())];
        let bytes = rng.gen_range(1_000..400_000);
        let cap = arb_cap(&mut rng);
        for _ in 0..rng.gen_range(2..6u32) {
            script.push((
                at,
                Action::Start {
                    route: route.clone(),
                    bytes,
                    cap: cap.clone(),
                },
            ));
        }
    }
    // Events aimed at the flow that attains the horizon, soon after
    // some start, while flows are likely still running.
    let starts: Vec<SimTime> = script
        .iter()
        .filter(|(_, a)| a.starts().is_some())
        .map(|&(at, _)| at)
        .collect();
    for _ in 0..rng.gen_range(0..4u32) {
        let at = starts[rng.gen_range(0..starts.len())]
            + SimDuration::from_millis(rng.gen_range(1..3_000));
        let action = match rng.gen_range(0..3u32) {
            0 => Action::CancelSoonest,
            1 => Action::ReplaceSoonestBottleneck(arb_process(&mut rng, horizon)),
            _ => Action::MergeIntoSoonest {
                extra: links[rng.gen_range(0..links.len())],
                bytes: rng.gen_range(1_000..400_000),
                cap: arb_cap(&mut rng),
            },
        };
        script.push((at, action));
    }
    // Stable order: by time, and at equal times in the order pushed
    // above (the first starts before any cancel).
    script.sort_by_key(|&(at, _)| at);

    Case {
        net,
        script,
        horizon,
    }
}

/// The active flow that attains the horizon now — least `(size −
/// progress) / rate` over the current allocation, the lowest id on a
/// tie — and its route.
fn soonest(net: &mut Network, sizes: &[u64]) -> Option<(FlowId, Vec<LinkId>)> {
    let alloc = net.active_flow_allocation();
    alloc
        .into_iter()
        .filter(|&(_, _, rate)| rate > 0.0)
        .map(|(id, links, rate)| {
            let left = sizes[id.0 as usize] - net.flow_progress(id);
            (left as f64 / rate, id, links)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, id, links)| (id, links))
}

/// Applies `action`; `sizes` is [`sizes_of`] the script it comes from.
fn apply(net: &mut Network, action: &Action, sizes: &[u64]) {
    match action {
        Action::Start { route, bytes, cap } => {
            net.start_flow(route.clone(), *bytes, cap.clone());
        }
        Action::Cancel(id) => {
            if (id.0 as usize) < net.stats().flows_started as usize {
                net.cancel_flow(*id);
            }
        }
        Action::SetProc(l, p) => net.set_link_process(*l, p.clone()),
        Action::CancelSoonest => {
            if let Some((id, _)) = soonest(net, sizes) {
                net.cancel_flow(id);
            }
        }
        Action::ReplaceSoonestBottleneck(p) => {
            if let Some((_, links)) = soonest(net, sizes) {
                let rates: Vec<f64> = links
                    .iter()
                    .map(|&l| net.effective_link_rate_now(l))
                    .collect();
                let k = (0..links.len())
                    .min_by(|&a, &b| rates[a].total_cmp(&rates[b]))
                    .expect("routes are never empty");
                net.set_link_process(links[k], p.clone());
            }
        }
        Action::MergeIntoSoonest { extra, bytes, cap } => {
            let mut links = soonest(net, sizes).map_or_else(Vec::new, |(_, links)| links);
            if !links.contains(extra) {
                links.push(*extra);
            }
            net.start_flow(Route::from_links(links), *bytes, cap.clone());
        }
    }
}

/// Congestion components of `net`'s current problem, counted from
/// scratch: [`Components::build_csr`] over every active flow's
/// Capacity links — or 0 when one of those links is non-finite, the
/// degenerate case the engine solves without decomposing.
fn scratch_component_count(net: &mut Network) -> u64 {
    let alloc = net.active_flow_allocation();
    let n_links = net.topology().link_count();
    let (mut off, mut arena) = (vec![0u32], Vec::new());
    for (_, links, _) in &alloc {
        for l in links {
            if net.topology().link(*l).sharing == Sharing::Capacity {
                if !net.effective_link_rate_now(*l).is_finite() {
                    return 0;
                }
                arena.push(l.0);
            }
        }
        off.push(arena.len() as u32);
    }
    let mut comps = Components::default();
    comps.build_csr(alloc.len(), n_links, &off, &arena, &mut UnionFind::new());
    comps.count() as u64
}

/// One full solve of the incremental engine, as [`lockstep`] saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Solve {
    /// Clock when the step began (the instant the solve is for).
    at: SimTime,
    /// Components of the problem.
    components: u64,
    /// Components the kernel ran on.
    resolved: u64,
}

/// Steps both engines boundary-by-boundary to `until`, asserting
/// bitwise agreement after every step, and that every full solve of
/// the incremental engine counted exactly the components a from-scratch
/// decomposition finds. Returns the incremental engine's full solves.
fn lockstep(case: u64, inc: &mut Network, refc: &mut Network, until: SimTime) -> Vec<Solve> {
    let mut solves = Vec::new();
    let rates_of = |net: &Network| -> Vec<(u64, u64)> {
        net.last_boundary_rates()
            .map(|(id, r)| (id.0, r.to_bits()))
            .collect()
    };
    while inc.now() < until {
        let expect_comps = scratch_component_count(refc);
        let (before, before_at) = (inc.stats(), inc.now());
        let da = inc.step_boundary(until);
        let db = refc.step_boundary(until);
        assert_eq!(
            inc.now(),
            refc.now(),
            "case {case}: boundary clocks diverged"
        );
        assert_eq!(
            rates_of(inc),
            rates_of(refc),
            "case {case}: rates diverged at t={:?}",
            inc.now()
        );
        assert_eq!(da, db, "case {case}: completions diverged");
        let after = inc.stats();
        assert_eq!(
            after.boundaries,
            refc.stats().boundaries,
            "case {case}: boundary counts diverged"
        );
        for net in [&*inc, &*refc] {
            let s = net.stats();
            let census = s.ended_by_completion
                + s.ended_by_link_rate
                + s.ended_by_cap
                + s.ended_by_fault
                + s.ended_by_target
                + s.ended_idle;
            assert_eq!(
                census, s.boundaries,
                "case {case}: the boundary census does not sum to the boundaries"
            );
        }
        let decomposes = inc.engine_mode() == EngineMode::Incremental;
        if decomposes && after.full_solves > before.full_solves {
            assert_eq!(
                after.component_solves - before.component_solves,
                expect_comps,
                "case {case}: persistent components drifted from the live membership at t={:?}",
                inc.now()
            );
            solves.push(Solve {
                at: before_at,
                components: expect_comps,
                resolved: after.components_resolved - before.components_resolved,
            });
        }
    }
    solves
}

#[test]
fn incremental_engine_is_bitwise_identical_to_reference() {
    let mut total_skips = 0u64;
    let mut total_boundaries = 0u64;
    let mut total_full = 0u64;
    let mut total_components = 0u64;
    let mut total_resolved = 0u64;
    let mut tied_completions = 0u64;
    for case in 0..220u64 {
        let Case {
            net,
            script,
            horizon,
        } = arb_case(0xE9_0000 + case);
        let mut inc = net.clone();
        let mut refc = net;
        inc.set_engine_mode(EngineMode::Incremental);
        refc.set_engine_mode(EngineMode::Reference);

        let sizes = sizes_of(&script);
        for (at, action) in &script {
            lockstep(case, &mut inc, &mut refc, *at);
            apply(&mut inc, action, &sizes);
            apply(&mut refc, action, &sizes);
        }
        lockstep(case, &mut inc, &mut refc, horizon);

        // Final records, bitwise: every flow's completion (or absence)
        // must match across both engines.
        let sa = inc.stats();
        let sb = refc.stats();
        for k in 0..sa.flows_started {
            let id = FlowId(k);
            assert_eq!(
                inc.completion(id),
                refc.completion(id),
                "case {case}: final record diverged for flow {k}"
            );
            assert_eq!(inc.flow_progress(id), refc.flow_progress(id));
        }
        assert_eq!(sa.boundaries, sb.boundaries, "case {case}");
        assert_eq!(sa.flows_completed, sb.flows_completed, "case {case}");
        assert_eq!(sa.flows_cancelled, sb.flows_cancelled, "case {case}");
        assert!(
            sa.full_solves <= sb.full_solves,
            "case {case}: incremental engine solved MORE than brute force"
        );
        assert_eq!(
            sa.full_solves + sa.incremental_solves,
            sb.full_solves,
            "case {case}: every allocation is either solved or provably reused"
        );
        assert!(sa.components_resolved <= sa.component_solves, "case {case}");
        total_skips += sa.incremental_solves;
        total_full += sa.full_solves;
        total_boundaries += sa.boundaries;
        total_components += sa.component_solves;
        total_resolved += sa.components_resolved;
        let finished: Vec<SimTime> = (0..sa.flows_started)
            .filter_map(|k| inc.completion(FlowId(k)))
            .map(|c| c.finished)
            .collect();
        tied_completions += finished
            .iter()
            .filter(|t| finished.iter().filter(|u| u == t).count() > 1)
            .count() as u64;
    }
    // Identical flows must actually tie at the horizon somewhere.
    assert!(tied_completions > 0, "no two flows ever completed together");
    // The optimization must actually fire across the sweep, not just be
    // correct: fewer full solves than boundaries overall.
    assert!(total_skips > 0, "no boundary ever skipped the solver");
    assert!(
        total_full < total_boundaries,
        "full_solves ({total_full}) should undercut boundaries ({total_boundaries})"
    );
    // Multi-component decompositions must actually occur across the
    // sweep (disjoint segments + express hops guarantee them), or the
    // partitioner is vacuously untested here — and some of their
    // components must have been left clean.
    assert!(
        total_components > total_full,
        "components ({total_components}) should exceed solves ({total_full})"
    );
    assert!(
        total_resolved < total_components,
        "every component of every solve was re-solved ({total_resolved})"
    );
}

/// A `PerFlow` link's process change on a route whose flow is
/// cap-limited elsewhere provably cannot change allocations — the
/// canonical solve-skip from the issue, pinned deterministically.
#[test]
fn per_flow_process_change_behind_tighter_cap_skips_solver() {
    let mut topo = Topology::new();
    let c = topo.add_node("c", NodeKind::Client);
    let s = topo.add_node("s", NodeKind::Server);
    let wide = topo.add_link_shared(c, s, SimDuration::from_millis(10), Sharing::PerFlow);
    let route = topo.route(&[c, s]).unwrap();
    let mut net = Network::new(topo, 1.0);
    // The PerFlow link's rate steps every second, but always far above
    // the flow's own 100 B/s ceiling: the folded cap never moves.
    let pts: Vec<(SimTime, f64)> = (0..40)
        .map(|k| (SimTime::from_secs(k), 5_000.0 + 100.0 * k as f64))
        .collect();
    net.set_link_process(wide, Box::new(PiecewiseProcess::new(pts)));
    let mut refc = net.clone();
    refc.set_engine_mode(EngineMode::Reference);

    let id = net.start_flow(route.clone(), 3_000, Box::new(ConstCap(100.0)));
    let idr = refc.start_flow(route, 3_000, Box::new(ConstCap(100.0)));
    let a = net.run_flow(id, SimTime::from_secs(100)).unwrap();
    let b = refc.run_flow(idr, SimTime::from_secs(100)).unwrap();
    assert_eq!(a.finished, b.finished);

    let st = net.stats();
    assert!(
        st.incremental_solves > 0,
        "rate steps under a tighter cap must reuse the cached allocation: {st:?}"
    );
    assert!(st.full_solves < st.boundaries, "{st:?}");
    // The brute-force engine solved at every active boundary.
    let str_ = refc.stats();
    assert_eq!(str_.incremental_solves, 0);
    assert_eq!(st.full_solves + st.incremental_solves, str_.full_solves);
}

/// Regression for the slot-map fix: a wide scenario (64 flows × 256
/// links) must complete, agree with the reference engine, and stay at
/// its pinned deterministic boundary count.
#[test]
fn wide_scenario_completes_under_pinned_boundary_count() {
    const FLOWS: usize = 64;
    const LINKS: usize = 256;
    // Pinned with the seed engine's semantics; a change here means the
    // boundary schedule itself moved — investigate before re-pinning.
    const PINNED_BOUNDARIES: u64 = 17;

    let mut rng = StdRng::seed_from_u64(0x51_0DE);
    let mut topo = Topology::new();
    let nodes: Vec<NodeId> = (0..=LINKS)
        .map(|i| {
            let kind = match i {
                0 => NodeKind::Client,
                LINKS => NodeKind::Server,
                _ => NodeKind::Intermediate,
            };
            topo.add_node(format!("w{i}"), kind)
        })
        .collect();
    let links: Vec<LinkId> = nodes
        .windows(2)
        .map(|w| topo.add_link(w[0], w[1], SimDuration::from_millis(1)))
        .collect();
    let mut routes = Vec::new();
    for _ in 0..FLOWS {
        let i = rng.gen_range(0..LINKS - 8);
        let j = rng.gen_range(i + 4..(i + 64).min(LINKS));
        routes.push(topo.route(&nodes[i..=j]).unwrap());
    }
    let mut net = Network::new(topo, 1.0);
    for &l in &links {
        net.set_link_process(l, Box::new(ConstantProcess::new(rng.gen_range(1e4..1e6))));
    }
    let mut refc = net.clone();
    refc.set_engine_mode(EngineMode::Reference);

    for r in &routes {
        net.start_flow(r.clone(), 200_000, Box::new(NoCap));
        refc.start_flow(r.clone(), 200_000, Box::new(NoCap));
    }
    let horizon = SimTime::from_secs(3_600);
    let da = net.advance_until(horizon);
    let db = refc.advance_until(horizon);
    assert_eq!(da.len(), FLOWS, "all flows complete");
    assert_eq!(da, db, "wide scenario diverged between engines");
    let st = net.stats();
    assert_eq!(st.boundaries, refc.stats().boundaries);
    assert_eq!(
        st.boundaries, PINNED_BOUNDARIES,
        "boundary schedule moved: {st:?}"
    );
}

/// Three racks — a `PerFlow` access link and a `Capacity` uplink each,
/// two long flows per rack — for the component-churn family: every
/// event below touches one rack, so exactly that rack's component may
/// be re-solved.
struct Racks {
    net: Network,
    access: Vec<LinkId>,
    uplinks: Vec<LinkId>,
    routes: Vec<Route>,
}

fn racks() -> Racks {
    let mut topo = Topology::new();
    let origin = topo.add_node("origin", NodeKind::Server);
    let (mut access, mut uplinks, mut routes) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..3 {
        let host = topo.add_node(format!("h{r}"), NodeKind::Client);
        let tor = topo.add_node(format!("tor{r}"), NodeKind::Intermediate);
        access.push(topo.add_link_shared(host, tor, SimDuration::from_millis(1), Sharing::PerFlow));
        uplinks.push(topo.add_link_shared(
            tor,
            origin,
            SimDuration::from_millis(1),
            Sharing::Capacity,
        ));
        routes.push(topo.route(&[host, tor, origin]).unwrap());
    }
    let mut net = Network::new(topo, 1.0);
    for r in 0..3 {
        net.set_link_process(access[r], Box::new(ConstantProcess::new(1e6)));
        let up = 1e5 + 1e4 * r as f64;
        net.set_link_process(uplinks[r], Box::new(ConstantProcess::new(up)));
    }
    Racks {
        net,
        access,
        uplinks,
        routes,
    }
}

/// Runs `script` over the racks in two-engine lockstep and returns the
/// incremental engine's full solves.
fn churn(mut racks: Racks, script: Vec<(SimTime, Action)>, horizon: SimTime) -> Vec<Solve> {
    let mut inc = racks.net.clone();
    let refc = &mut racks.net;
    refc.set_engine_mode(EngineMode::Reference);
    let mut solves = Vec::new();
    let sizes = sizes_of(&script);
    for (at, action) in &script {
        solves.extend(lockstep(0, &mut inc, refc, *at));
        apply(&mut inc, action, &sizes);
        apply(refc, action, &sizes);
    }
    solves.extend(lockstep(0, &mut inc, refc, horizon));
    assert!(inc.stats().flows_completed > 0);
    solves
}

fn start(route: &Route, bytes: u64) -> Action {
    Action::Start {
        route: route.clone(),
        bytes,
        cap: Box::new(NoCap),
    }
}

/// The solve for instant `at`.
fn solve_at(solves: &[Solve], at: SimTime) -> Solve {
    *solves
        .iter()
        .find(|s| s.at == at)
        .unwrap_or_else(|| panic!("no full solve at {at:?}: {solves:?}"))
}

fn rack_population(r: &Racks) -> Vec<(SimTime, Action)> {
    let mut script = Vec::new();
    for route in &r.routes {
        script.push((SimTime::ZERO, start(route, 20_000_000)));
        script.push((SimTime::ZERO, start(route, 20_000_000)));
    }
    script
}

#[test]
fn bridging_flow_merges_two_components_then_splits_them_again() {
    let r = racks();
    let mut script = rack_population(&r);
    // A flow over both rack 0's and rack 1's uplinks couples them for
    // as long as it lives.
    let bridge = Route::from_links(vec![r.uplinks[0], r.uplinks[1]]);
    let t1 = SimTime::from_secs(1);
    script.push((t1, start(&bridge, 100_000)));
    let solves = churn(r, script, SimTime::from_secs(900));

    assert_eq!(solve_at(&solves, SimTime::ZERO).components, 3);
    let merged = solve_at(&solves, t1);
    assert_eq!((merged.components, merged.resolved), (2, 1));
    // The bridge's completion is the next full solve: its component is
    // re-derived into racks 0 and 1; rack 2 is left alone.
    let split = solves[solves.iter().position(|s| *s == merged).unwrap() + 1];
    assert_eq!((split.components, split.resolved), (3, 2));
}

#[test]
fn one_rack_events_resolve_one_component() {
    let r = racks();
    let mut script = rack_population(&r);
    let at = |s| SimTime::from_secs(s);
    // Cancellation in rack 2; a new process on rack 1's uplink; a
    // brownout over rack 0's uplink; rack 1's PerFlow access link
    // dropping below its flows' fair share (their folded caps move).
    script.push((at(10), Action::Cancel(FlowId(5))));
    script.push((
        at(20),
        Action::SetProc(r.uplinks[1], Box::new(ConstantProcess::new(9e4))),
    ));
    script.push((
        at(40),
        Action::SetProc(
            r.access[1],
            Box::new(PiecewiseProcess::new(vec![
                (SimTime::ZERO, 1e6),
                (at(50), 2e4),
                (at(60), 1e6),
            ])),
        ),
    ));
    let mut r = r;
    r.net
        .set_fault_plan(&FaultPlan::none().brownout(r.uplinks[0], at(30), at(35), 0.5));
    let solves = churn(r, script, SimTime::from_secs(900));

    for t in [10, 20, 30, 35, 50, 60] {
        let s = solve_at(&solves, at(t));
        assert_eq!((s.components, s.resolved), (3, 1), "t = {t}s: {s:?}");
    }
    // Swapping in a process that reports the same rate still counts as
    // a full solve (today's classification) but re-solves nothing.
    let s = solve_at(&solves, at(40));
    assert_eq!((s.components, s.resolved), (3, 0));
}

/// A Capacity link whose process reports an infinite rate takes the
/// generic fallback (the link leaves the problem, so components
/// change shape), and every component is re-solved once it is finite
/// again.
#[test]
fn non_finite_capacity_link_takes_the_generic_path() {
    #[derive(Clone)]
    struct Unbounded;
    impl BandwidthProcess for Unbounded {
        fn rate_at(&mut self, _t: SimTime) -> f64 {
            f64::INFINITY
        }
        fn next_change_after(&mut self, _t: SimTime) -> Option<SimTime> {
            None
        }
        fn clone_box(&self) -> Box<dyn BandwidthProcess> {
            Box::new(Unbounded)
        }
    }
    let r = racks();
    let mut script = rack_population(&r);
    let at = |s| SimTime::from_secs(s);
    script.push((at(5), Action::SetProc(r.uplinks[2], Box::new(Unbounded))));
    script.push((
        at(15),
        Action::SetProc(r.uplinks[2], Box::new(ConstantProcess::new(1.2e5))),
    ));
    let solves = churn(r, script, SimTime::from_secs(900));
    // The fallback solve at 5 s runs no component kernel; the next
    // kernel solve distrusts every component.
    let s = solve_at(&solves, at(5));
    assert_eq!((s.components, s.resolved), (0, 0));
    let s = solve_at(&solves, at(15));
    assert_eq!((s.components, s.resolved), (3, 3));
}

/// Switching engines mid-run is allowed: the incremental caches are
/// kept up under `Reference`, and rates it wrote are distrusted on the
/// way back.
#[test]
fn switching_engines_mid_run_stays_bitwise_identical() {
    for case in 0..40u64 {
        let Case {
            net,
            script,
            horizon,
        } = arb_case(0x5E_0000 + case);
        let mut mixed = net.clone();
        let mut refc = net;
        refc.set_engine_mode(EngineMode::Reference);
        let modes = [EngineMode::Incremental, EngineMode::Reference];
        let sizes = sizes_of(&script);
        for (k, (at, action)) in script.iter().enumerate() {
            lockstep(case, &mut mixed, &mut refc, *at);
            mixed.set_engine_mode(modes[k % 2]);
            apply(&mut mixed, action, &sizes);
            apply(&mut refc, action, &sizes);
        }
        mixed.set_engine_mode(EngineMode::Incremental);
        lockstep(case, &mut mixed, &mut refc, horizon);
        assert_eq!(mixed.stats().flows_completed, refc.stats().flows_completed);
    }
}

/// The corner the distrust exists for: an input leaves and returns to
/// its cached bits entirely under `Reference`, and the switch back
/// lands on the very instant it returns — the component looks clean
/// while its rates are the brownout's.
#[test]
fn switching_back_as_an_input_reverts_resolves_the_component() {
    let mut r = racks();
    let at = |s| SimTime::from_secs(s);
    r.net
        .set_fault_plan(&FaultPlan::none().brownout(r.uplinks[0], at(20), at(30), 0.5));
    let script = rack_population(&r);
    let sizes = sizes_of(&script);
    let mut mixed = r.net.clone();
    let refc = &mut r.net;
    refc.set_engine_mode(EngineMode::Reference);
    for (_, action) in &script {
        apply(&mut mixed, action, &sizes);
        apply(refc, action, &sizes);
    }
    lockstep(0, &mut mixed, refc, at(15));
    mixed.set_engine_mode(EngineMode::Reference);
    lockstep(0, &mut mixed, refc, at(30));
    mixed.set_engine_mode(EngineMode::Incremental);
    lockstep(0, &mut mixed, refc, at(900));
}

/// A cap that moves without announcing it breaks the contract the
/// incremental engine's segment cache rests on; debug builds catch it
/// at the first boundary after the move.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "RateCap contract")]
fn unannounced_cap_change_is_caught_in_debug_builds() {
    #[derive(Clone)]
    struct Silent;
    impl RateCap for Silent {
        fn cap(&mut self, age: SimDuration, _done: u64) -> f64 {
            if age < SimDuration::from_secs(5) {
                1e4
            } else {
                2e4
            }
        }
        fn next_cap_change(&mut self, _age: SimDuration) -> Option<SimDuration> {
            None
        }
        fn clone_box(&self) -> Box<dyn RateCap> {
            Box::new(Silent)
        }
    }
    let Racks {
        mut net, routes, ..
    } = racks();
    net.start_flow(routes[0].clone(), 10_000_000, Box::new(Silent));
    for s in [3, 8, 12] {
        net.advance_until(SimTime::from_secs(s));
    }
}

/// Flows per block of the engine's integration pass (`sim.rs`'s
/// `BLOCK`): the big worlds below span several blocks, so holes land
/// in the middle of the active arrays, not only at their ends.
const BLOCK: u64 = 64;

/// A world of several blocks of flows: eight racks (a `PerFlow` access
/// link and a `Capacity` uplink each, on arbitrary processes), one
/// wave of `blocks` × 64 flows spread over them with arbitrary sizes
/// and caps, cancels aimed at the middle blocks and at the soonest
/// flow, later starts behind the holes, and one mass cancel of the
/// lower ids that leaves more holes than live flows.
fn big_world(seed: u64, blocks: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = SimTime::from_secs(600);
    let mut topo = Topology::new();
    let origin = topo.add_node("origin", NodeKind::Server);
    let (mut links, mut routes) = (Vec::new(), Vec::new());
    for r in 0..8 {
        let host = topo.add_node(format!("h{r}"), NodeKind::Client);
        let tor = topo.add_node(format!("tor{r}"), NodeKind::Intermediate);
        let ms = SimDuration::from_millis(1);
        links.push(topo.add_link_shared(host, tor, ms, Sharing::PerFlow));
        links.push(topo.add_link_shared(tor, origin, ms, Sharing::Capacity));
        routes.push(topo.route(&[host, tor, origin]).unwrap());
    }
    let mut net = Network::new(topo, 1e4);
    for &l in &links {
        net.set_link_process(l, arb_process(&mut rng, horizon));
    }
    let start = |rng: &mut StdRng, k: u64| Action::Start {
        route: routes[k as usize % routes.len()].clone(),
        // Half finish early, half are still running at the mass cancel.
        bytes: if rng.gen_bool(0.5) {
            rng.gen_range(20_000..2_000_000)
        } else {
            rng.gen_range(2_000_000..20_000_000)
        },
        cap: arb_cap(rng),
    };
    let mut script = Vec::new();
    let wave = blocks * BLOCK;
    for k in 0..wave {
        script.push((SimTime::ZERO, start(&mut rng, k)));
    }
    let ms = |rng: &mut StdRng, lo: u64, hi: u64| SimTime::from_millis(rng.gen_range(lo..hi));
    for _ in 0..12 {
        let id = rng.gen_range(BLOCK..wave - BLOCK);
        script.push((ms(&mut rng, 1, 60_000), Action::Cancel(FlowId(id))));
    }
    for _ in 0..4 {
        script.push((ms(&mut rng, 1, 60_000), Action::CancelSoonest));
    }
    for k in 0..BLOCK + 8 {
        script.push((ms(&mut rng, 10_000, 90_000), start(&mut rng, k)));
    }
    let mass = ms(&mut rng, 90_000, 120_000);
    for id in 0..wave * 3 / 4 {
        script.push((mass, Action::Cancel(FlowId(id))));
    }
    // At the same instant: the next step compacts, then its solve
    // slows the survivors the new flows join.
    for k in 0..BLOCK / 2 {
        script.push((mass, start(&mut rng, k)));
    }
    script.sort_by_key(|&(at, _)| at);
    Case {
        net,
        script,
        horizon,
    }
}

#[test]
fn big_worlds_with_holes_stay_bitwise_identical() {
    for (case, blocks) in [(0u64, 3u64), (1, 4), (2, 3)] {
        let Case {
            net,
            script,
            horizon,
        } = big_world(0xB16_0000 + case, blocks);
        let mut inc = net.clone();
        let mut refc = net;
        refc.set_engine_mode(EngineMode::Reference);
        let sizes = sizes_of(&script);
        // Flows that left (holes, unless compacted away) against flows
        // still live, at some instant: the compaction rule must fire.
        let mut crossed = false;
        for (at, action) in &script {
            lockstep(case, &mut inc, &mut refc, *at);
            apply(&mut inc, action, &sizes);
            apply(&mut refc, action, &sizes);
            let s = inc.stats();
            let live = inc.active_flow_allocation().len() as u64;
            crossed |= s.flows_completed + s.flows_cancelled > live && live > 0;
        }
        lockstep(case, &mut inc, &mut refc, horizon);
        assert!(crossed, "case {case}: holes never outnumbered live flows");
        let s = inc.stats();
        assert!(s.flows_completed > BLOCK, "case {case}: {s:?}");
        assert!(s.flows_cancelled > BLOCK, "case {case}: {s:?}");
        for k in 0..s.flows_started {
            let id = FlowId(k);
            assert_eq!(
                inc.completion(id),
                refc.completion(id),
                "case {case}: flow {k}"
            );
            assert_eq!(inc.flow_progress(id), refc.flow_progress(id));
        }
        assert_eq!(s.boundaries, refc.stats().boundaries, "case {case}");
    }
}
