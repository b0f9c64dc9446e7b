//! Integration: the paper's §3.1 shared-bottleneck penalty cause.
//!
//! "Another situation that can lead to performance penalties is when
//! the indirect and direct paths share a common bottleneck link. In
//! this case, the indirect path will suffer from the same problems as
//! the direct path, and will not be able to deliver superior
//! performance." The calibrated study models paths as disjoint
//! (`Sharing::PerFlow`, DESIGN.md §5); this test shows the engine
//! reproduces the shared-bottleneck regime when modelled explicitly
//! with a hard-capacity access link.

use indirect_routing::core::{run_paths_session, PathSpec, SessionConfig, SimTransport};
use indirect_routing::simnet::prelude::*;

/// client --access--> gateway; gateway -> server (direct tail) and
/// gateway -> relay -> server (indirect tail). `access_cap` is a hard
/// capacity shared by every flow the client runs.
fn world(
    access_cap: f64,
    direct_tail: f64,
    overlay_tail: f64,
) -> (Network, NodeId, NodeId, NodeId) {
    let mut t = Topology::new();
    let c = t.add_node("client", NodeKind::Client);
    let g = t.add_node("gateway", NodeKind::Intermediate);
    let v = t.add_node("relay", NodeKind::Intermediate);
    let s = t.add_node("server", NodeKind::Server);
    let access = t.add_link(c, g, SimDuration::from_millis(5)); // Capacity sharing
    let direct = t.add_link_shared(g, s, SimDuration::from_millis(80), Sharing::PerFlow);
    let up = t.add_link_shared(g, v, SimDuration::from_millis(70), Sharing::PerFlow);
    let down = t.add_link_shared(v, s, SimDuration::from_millis(10), Sharing::PerFlow);
    let mut net = Network::new(t, 1.0);
    net.set_link_process(access, Box::new(ConstantProcess::new(access_cap)));
    net.set_link_process(direct, Box::new(ConstantProcess::new(direct_tail)));
    net.set_link_process(up, Box::new(ConstantProcess::new(overlay_tail)));
    net.set_link_process(down, Box::new(ConstantProcess::new(10e6)));
    (net, c, v, s)
}

#[test]
fn shared_access_bottleneck_erases_indirect_gains() {
    // Tail rates: direct 100 KB/s, overlay 400 KB/s. With a generous
    // access link (no shared bottleneck), relaying pays off; with the
    // access link capped at 120 KB/s (the true bottleneck), it cannot.
    // (The 4-node gateway topology is outside PathSpec's two shapes, so
    // this test drives the flow engine directly.)
    let run_pair = |access_cap: f64| -> (f64, f64) {
        let (mut net, c, v, s) = world(access_cap, 100_000.0, 400_000.0);
        let topo = net.topology().clone();
        let g = topo.node_by_name("gateway").unwrap();
        let direct_route = topo.route(&[c, g, s]).unwrap();
        let indirect_route = topo.route(&[c, g, v, s]).unwrap();
        // Race two 2 MB transfers concurrently (they share the access
        // link), like the control + selected transfers of a session.
        let a = net.start_flow(direct_route, 2_000_000, Box::new(NoCap));
        let b = net.start_flow(indirect_route, 2_000_000, Box::new(NoCap));
        let done = net.advance_until(SimTime::from_secs(3600));
        let thr = |id| {
            done.iter()
                .find(|cf| cf.id == id)
                .expect("finished")
                .throughput()
        };
        (thr(a), thr(b))
    };

    // Disjoint-bottleneck regime: overlay tail dominates.
    let (direct_thr, indirect_thr) = run_pair(10_000_000.0);
    assert!(
        indirect_thr > direct_thr * 2.5,
        "without a shared bottleneck, relaying should win big: {direct_thr} vs {indirect_thr}"
    );

    // Shared-bottleneck regime: both paths squeeze through 120 KB/s.
    let (direct_thr, indirect_thr) = run_pair(120_000.0);
    let ratio = indirect_thr / direct_thr;
    assert!(
        (0.5..1.5).contains(&ratio),
        "with a shared access bottleneck the paths should be comparable, got ratio {ratio}"
    );
    // And neither can exceed the access capacity.
    assert!(direct_thr + indirect_thr <= 120_000.0 * 1.01);
}

#[test]
fn session_protocol_sees_no_gain_under_shared_bottleneck() {
    // Directly model the session's world with the access constraint as
    // a per-path clamp: both paths' first hop capped identically. The
    // probe then picks near-randomly and improvement stays near zero —
    // "the indirect path will suffer from the same problems".
    let mut t = Topology::new();
    let c = t.add_node("client", NodeKind::Client);
    let v = t.add_node("relay", NodeKind::Intermediate);
    let s = t.add_node("server", NodeKind::Server);
    let l_cs = t.add_link_shared(c, s, SimDuration::from_millis(80), Sharing::PerFlow);
    let l_cv = t.add_link_shared(c, v, SimDuration::from_millis(75), Sharing::PerFlow);
    let l_vs = t.add_link_shared(v, s, SimDuration::from_millis(10), Sharing::PerFlow);
    let mut net = Network::new(t, 1.0);
    // Both paths bottlenecked by the same (clamped) 120 KB/s behaviour.
    net.set_link_process(l_cs, Box::new(ConstantProcess::new(120_000.0)));
    net.set_link_process(l_cv, Box::new(ConstantProcess::new(120_000.0)));
    net.set_link_process(l_vs, Box::new(ConstantProcess::new(10e6)));

    let mut tp = SimTransport::new(net);
    let (rec, _) = run_paths_session(
        &mut tp,
        PathSpec::direct(c, s),
        &[PathSpec::indirect(c, s, v)],
        0,
        &SessionConfig::paper_defaults(),
        None,
    );
    assert!(
        rec.improvement().abs() < 0.15,
        "equal-bottleneck paths should yield ~0 improvement, got {:+.1}%",
        rec.improvement_pct()
    );
}
