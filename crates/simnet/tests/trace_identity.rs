//! Trace-identity regression: the engine's telemetry stream — every
//! event, in order, with timestamps, ids and attributes — must be a
//! pure function of the scenario. Two independent runs (fresh
//! `Network`, fresh `Telemetry`, fresh hash-map seeds: `std`'s
//! `RandomState` re-seeds per map instance, so any `HashMap` iteration
//! leaking into event order would reorder *between* these runs even
//! inside one process) have to produce identical traces and counters.
//!
//! This is the test backing the PR's ordering audit: all solver and
//! engine state lives in slab/sorted structures, and the remaining hash
//! maps in the workspace are keyed lookups that never iterate into
//! events or counters.

use ir_simnet::bandwidth::{ConstantProcess, PiecewiseProcess};
use ir_simnet::faults::FaultPlan;
use ir_simnet::prelude::*;
use ir_simnet::sim::EngineStats;
use ir_simnet::topology::NodeKind;
use ir_telemetry::trace::Event;
use ir_telemetry::Telemetry;
use std::sync::Arc;

/// One full engine run of a fault-laden multi-flow scenario under a
/// fresh telemetry handle; returns the event trace and the counters the
/// engine maintains.
fn traced_run(mode: EngineMode) -> (Vec<Event>, EngineStats) {
    let mut topo = Topology::new();
    let n = 6;
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| {
            let kind = match i {
                0 => NodeKind::Client,
                k if k == n - 1 => NodeKind::Server,
                _ => NodeKind::Intermediate,
            };
            topo.add_node(format!("t{i}"), kind)
        })
        .collect();
    let links: Vec<LinkId> = nodes
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            let sharing = if i % 3 == 2 {
                Sharing::PerFlow
            } else {
                Sharing::Capacity
            };
            topo.add_link_shared(w[0], w[1], SimDuration::from_millis(5), sharing)
        })
        .collect();
    let express = topo.add_link_shared(
        nodes[0],
        nodes[n - 1],
        SimDuration::from_millis(20),
        Sharing::Capacity,
    );
    let mut routes = Vec::new();
    for i in 0..n - 1 {
        for j in i + 1..n {
            routes.push(topo.route(&nodes[i..=j]).unwrap());
        }
    }
    let express_route = topo.route(&[nodes[0], nodes[n - 1]]).unwrap();

    let mut net = Network::new(topo, 1e4);
    for (i, &l) in links.iter().enumerate() {
        let base = 4e4 + 1e4 * i as f64;
        net.set_link_process(
            l,
            Box::new(PiecewiseProcess::new(vec![
                (SimTime::ZERO, base),
                (SimTime::from_secs(5 + i as u64), base * 0.4),
                (SimTime::from_secs(11 + i as u64), base * 1.6),
            ])),
        );
    }
    net.set_link_process(express, Box::new(ConstantProcess::new(9e4)));
    let plan = FaultPlan::none()
        .link_outage(links[1], SimTime::from_secs(4), SimTime::from_secs(7))
        .brownout(links[2], SimTime::from_secs(9), SimTime::from_secs(14), 0.3);
    net.set_fault_plan(&plan);
    net.set_engine_mode(mode);
    let tel = Arc::new(Telemetry::new());
    net.set_telemetry(Some(Arc::clone(&tel)));

    // Staggered starts (completions interleave with fault boundaries),
    // one mid-run cancellation.
    let mut ids = Vec::new();
    for (k, r) in routes.iter().chain([&express_route]).enumerate() {
        net.advance_until(SimTime::from_millis(300 * k as u64));
        ids.push(net.start_flow(r.clone(), 60_000 + 10_000 * k as u64, Box::new(NoCap)));
    }
    net.advance_until(SimTime::from_secs(6));
    net.cancel_flow(ids[1]);
    net.advance_until(SimTime::from_secs(240));

    let trace = tel.tracer.as_ref().expect("traced").snapshot();
    (trace, net.stats())
}

#[test]
fn engine_trace_is_identical_across_independent_runs() {
    for mode in [EngineMode::Incremental, EngineMode::Reference] {
        let (trace_a, counters_a) = traced_run(mode);
        let (trace_b, counters_b) = traced_run(mode);
        assert!(
            trace_a.iter().any(|e| e.kind.name() == "flow_complete"),
            "{mode:?}: scenario completed nothing"
        );
        assert!(
            trace_a.iter().any(|e| e.kind.name() == "fault_injected"),
            "{mode:?}: fault plan never fired"
        );
        assert_eq!(
            trace_a.len(),
            trace_b.len(),
            "{mode:?}: trace lengths diverged"
        );
        for (i, (a, b)) in trace_a.iter().zip(trace_b.iter()).enumerate() {
            assert_eq!(a, b, "{mode:?}: event {i} diverged between runs");
        }
        assert_eq!(counters_a, counters_b, "{mode:?}: counters diverged");
    }
}

/// The partition repair instrumentation must actually fire on a
/// departure-heavy scenario, once per boundary that re-derived a
/// component, with the event stream and the counter in agreement.
#[test]
fn partition_rebuilds_are_observed() {
    let (trace, counters) = traced_run(EngineMode::Incremental);
    let rebuilds = counters.partition_rebuilds;
    assert!(
        rebuilds > 0,
        "completions never triggered a repair: {counters:?}"
    );
    let rebuild_events = trace
        .iter()
        .filter(|e| e.kind.name() == "partition_rebuild")
        .count();
    assert_eq!(
        rebuild_events as u64, rebuilds,
        "rebuild events and counter disagree"
    );
}
