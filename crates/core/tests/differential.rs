//! Differential and fault-injection tests for the striped remainder.
//!
//! The load-bearing guarantee: `SessionMode::Striped` at one chunk on a
//! healthy network produces a record **bit-identical** to
//! `SessionMode::Racing` over the same candidates. Everything striping
//! adds (multi-chunk fan-out, drift stealing, stall-death reassignment)
//! must therefore be visible only on the geometries it exists for.

use ir_core::sim_transport::SimTransport;
use ir_core::{
    run_paths_session, PathSpec, RebalanceConfig, SessionConfig, SessionMode, StripeStats,
    TransferRecord,
};
use ir_simnet::bandwidth::ConstantProcess;
use ir_simnet::faults::FaultPlan;
use ir_simnet::sim::Network;
use ir_simnet::time::{SimDuration, SimTime};
use ir_simnet::topology::{LinkId, NodeId, NodeKind, Topology};
use ir_telemetry::trace::EventKind;
use ir_telemetry::Tracer;

/// A 3-node world where the indirect path runs at `overlay_rate` and
/// the direct path at `direct_rate` (mirrors `ir-core`'s session test
/// world so the differential baselines match its fixtures).
fn world(direct_rate: f64, overlay_rate: f64) -> (SimTransport, NodeId, NodeId, NodeId) {
    faulty_world(direct_rate, overlay_rate, |_, _| FaultPlan::default())
}

fn faulty_world(
    direct_rate: f64,
    overlay_rate: f64,
    plan: impl FnOnce(LinkId, LinkId) -> FaultPlan,
) -> (SimTransport, NodeId, NodeId, NodeId) {
    let mut t = Topology::new();
    let c = t.add_node("client", NodeKind::Client);
    let v = t.add_node("relay", NodeKind::Intermediate);
    let s = t.add_node("server", NodeKind::Server);
    let l_cs = t.add_link(c, s, SimDuration::from_millis(80));
    let l_cv = t.add_link(c, v, SimDuration::from_millis(50));
    let l_vs = t.add_link(v, s, SimDuration::from_millis(15));
    let mut net = Network::new(t, 1.0);
    net.set_link_process(l_cs, Box::new(ConstantProcess::new(direct_rate)));
    net.set_link_process(l_cv, Box::new(ConstantProcess::new(overlay_rate)));
    net.set_link_process(l_vs, Box::new(ConstantProcess::new(50e6)));
    net.set_fault_plan(&plan(l_cs, l_cv));
    (SimTransport::new(net), c, v, s)
}

/// A healthy star: the direct path at `direct_rate` plus one relay per
/// entry of `overlay_rates` (client→relay leg; the relay→server legs
/// are effectively unconstrained).
fn star(direct_rate: f64, overlay_rates: &[f64]) -> (SimTransport, NodeId, Vec<NodeId>, NodeId) {
    let mut t = Topology::new();
    let c = t.add_node("client", NodeKind::Client);
    let s = t.add_node("server", NodeKind::Server);
    let mut planned = vec![(t.add_link(c, s, SimDuration::from_millis(80)), direct_rate)];
    let mut vias = Vec::new();
    for (i, &rate) in overlay_rates.iter().enumerate() {
        let v = t.add_node(format!("relay{i}"), NodeKind::Intermediate);
        planned.push((t.add_link(c, v, SimDuration::from_millis(50)), rate));
        planned.push((t.add_link(v, s, SimDuration::from_millis(15)), 50e6));
        vias.push(v);
    }
    let mut net = Network::new(t, 1.0);
    for (l, rate) in planned {
        net.set_link_process(l, Box::new(ConstantProcess::new(rate)));
    }
    (SimTransport::new(net), c, vias, s)
}

fn striped(chunks: u32, k: u32) -> SessionConfig {
    let mut cfg = SessionConfig::paper_defaults();
    cfg.mode = SessionMode::Striped {
        chunks,
        k,
        rebalance: RebalanceConfig::paper_defaults(),
    };
    cfg
}

/// One session over the direct path plus one candidate per relay in
/// `vias`, whatever `cfg.mode` says.
fn run_over(
    tp: &mut SimTransport,
    c: NodeId,
    vias: &[NodeId],
    s: NodeId,
    cfg: &SessionConfig,
    tracer: Option<&Tracer>,
) -> (TransferRecord, StripeStats) {
    let paths: Vec<PathSpec> = vias.iter().map(|&v| PathSpec::indirect(c, s, v)).collect();
    run_paths_session(tp, PathSpec::direct(c, s), &paths, 0, cfg, tracer)
}

fn run(
    tp: &mut SimTransport,
    c: NodeId,
    v: NodeId,
    s: NodeId,
    cfg: &SessionConfig,
) -> (TransferRecord, StripeStats) {
    run_over(tp, c, &[v], s, cfg, None)
}

/// The tentpole identity: one chunk, k = 1, healthy network — the
/// striper's record is the racing record, bit for bit, regardless of
/// which path wins the probe.
#[test]
fn single_chunk_k1_is_bit_identical_to_racing() {
    for (direct, overlay) in [(100_000.0, 800_000.0), (800_000.0, 50_000.0)] {
        let (mut tp1, c1, v1, s1) = world(direct, overlay);
        let (raced, no_stats) = run(&mut tp1, c1, v1, s1, &SessionConfig::paper_defaults());
        assert!(no_stats.per_path.is_empty(), "racing has no stripe stats");

        let (mut tp2, c2, v2, s2) = world(direct, overlay);
        let (striped_rec, stats) = run(&mut tp2, c2, v2, s2, &striped(1, 1));

        assert_eq!(
            raced, striped_rec,
            "striped {{1, 1}} diverged from racing (direct {direct}, overlay {overlay})"
        );
        // The whole remainder rode the probe winner, in one chunk.
        assert_eq!(stats.per_path.iter().map(|p| p.chunks).sum::<u64>(), 1);
        assert_eq!(stats.reassignments, 0);
        assert_eq!(stats.deaths, 0);
    }
}

/// The generalisation the shared prologue makes true by construction:
/// at one chunk the stripe width does not matter — `Striped { chunks:
/// 1, k: N }` over N healthy candidates is the racing record over the
/// same N, bit for bit.
#[test]
fn single_chunk_kn_is_bit_identical_to_racing_over_n() {
    for n in [2usize, 3] {
        let racing_cfg = SessionConfig::paper_defaults();
        let striped_cfg = striped(1, n as u32);

        let overlays = &[500_000.0, 900_000.0, 300_000.0][..n];
        let (mut tp1, c1, vias1, s1) = star(200_000.0, overlays);
        let (raced, _) = run_over(&mut tp1, c1, &vias1, s1, &racing_cfg, None);

        let (mut tp2, c2, vias2, s2) = star(200_000.0, overlays);
        let (striped_rec, stats) = run_over(&mut tp2, c2, &vias2, s2, &striped_cfg, None);

        assert_eq!(
            raced, striped_rec,
            "striped {{1, {n}}} diverged from racing over {n}"
        );
        assert_eq!(stats.per_path.len(), n + 1, "direct + {n} candidates");
        assert_eq!(stats.per_path.iter().map(|p| p.chunks).sum::<u64>(), 1);
    }
}

/// Tracing is strictly observational: a traced striped session
/// returns the identical record and chunk accounting, and the chunk
/// counts add up to the chunks asked for.
#[test]
fn traced_striped_session_is_bit_identical_and_counts_chunks() {
    let cfg = striped(6, 1);
    let (mut tp1, c1, v1, s1) = world(100_000.0, 800_000.0);
    let (plain, stats) = run(&mut tp1, c1, v1, s1, &cfg);

    let (mut tp2, c2, v2, s2) = world(100_000.0, 800_000.0);
    let tracer = Tracer::default();
    let (traced, traced_stats) = run_over(&mut tp2, c2, &[v2], s2, &cfg, Some(&tracer));
    assert_eq!(plain, traced, "tracing changed the record");
    assert_eq!(stats, traced_stats, "tracing changed the chunk accounting");
    assert_eq!(stats.per_path.iter().map(|p| p.chunks).sum::<u64>(), 6);
    let kinds: Vec<EventKind> = tracer.snapshot().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::SessionComplete));
}

/// Multi-chunk striping on a healthy asymmetric network: both paths
/// carry bytes, every chunk completes, and the session beats the
/// winner-take-all racer (the direct path's idle capacity is free).
#[test]
fn multi_chunk_striping_uses_both_paths_and_completes() {
    let cfg = striped(8, 1);
    let (mut tp, c, v, s) = world(400_000.0, 800_000.0);
    let (rec, stats) = run(&mut tp, c, v, s, &cfg);
    assert!(!rec.abandoned);
    assert!(rec.selected_throughput > 0.0);
    assert_eq!(stats.per_path.iter().map(|p| p.chunks).sum::<u64>(), 8);
    assert_eq!(stats.per_path.len(), 2, "direct + one candidate");
    for p in &stats.per_path {
        assert!(p.chunks > 0, "path {} sat idle", p.path);
    }
    assert_eq!(stats.deaths, 0);
    assert_eq!(
        rec.file_bytes,
        cfg.probe_bytes + stats.per_path.iter().map(|p| p.bytes).sum::<u64>(),
        "every remainder byte accounted to exactly one path"
    );
}

/// The stale-prediction geometry striping exists for: the overlay wins
/// the probe, then browns out to a crawl immediately after the
/// decision. Racing (even with failover) keeps waiting — the path
/// still trickles, so no stall ever fires — while the striper's drift
/// rebalancer moves the remaining chunks to the healthy direct path.
#[test]
fn striping_beats_racing_on_stale_prediction_brownout() {
    let brownout = |_cs: LinkId, cv: LinkId| {
        FaultPlan::default().brownout(cv, SimTime::from_secs(1), SimTime::from_secs(4000), 0.02)
    };
    let mut racing_cfg = SessionConfig::paper_defaults();
    racing_cfg.failover = Some(ir_core::FailoverConfig::paper_defaults());
    racing_cfg.horizon = SimDuration::from_secs(3600);
    let (mut tp1, c1, v1, s1) = faulty_world(100_000.0, 800_000.0, brownout);
    let (raced, _) = run(&mut tp1, c1, v1, s1, &racing_cfg);

    let mut striped_cfg = striped(8, 1);
    striped_cfg.horizon = SimDuration::from_secs(3600);
    let (mut tp2, c2, v2, s2) = faulty_world(100_000.0, 800_000.0, brownout);
    let (striped_rec, stats) = run(&mut tp2, c2, v2, s2, &striped_cfg);

    assert!(!raced.abandoned && !striped_rec.abandoned);
    assert!(
        striped_rec.selected_throughput > 1.5 * raced.selected_throughput,
        "striping should dodge the stale-prediction penalty: striped {} vs raced {}",
        striped_rec.selected_throughput,
        raced.selected_throughput
    );
    assert!(
        stats.reassignments > 0,
        "the win must come from rebalancing"
    );
    let direct_bytes = stats
        .per_path
        .iter()
        .filter(|p| !p.path.is_indirect())
        .map(|p| p.bytes)
        .sum::<u64>();
    let total: u64 = stats.per_path.iter().map(|p| p.bytes).sum();
    assert!(
        direct_bytes * 2 > total,
        "most remainder bytes should migrate to the healthy direct path"
    );
}

/// Path death mid-transfer: the overlay's uplink dies outright after
/// the probe decision. The striper declares the path dead after one
/// stall window, reassigns its remaining bytes, finishes on the direct
/// path, and records the death as a failover.
#[test]
fn path_death_mid_transfer_is_reassigned_and_survives() {
    let outage = |_cs: LinkId, cv: LinkId| {
        FaultPlan::default().link_outage(cv, SimTime::from_secs(1), SimTime::from_secs(4000))
    };
    let mut cfg = striped(4, 1);
    if let SessionMode::Striped { rebalance, .. } = &mut cfg.mode {
        rebalance.stall_window = SimDuration::from_secs(5);
    }
    let (mut tp, c, v, s) = faulty_world(100_000.0, 800_000.0, outage);
    let tracer = Tracer::default();
    let (rec, stats) = run_over(&mut tp, c, &[v], s, &cfg, Some(&tracer));
    assert!(!rec.abandoned, "direct path survived");
    assert!(rec.selected_throughput > 0.0);
    assert!(stats.deaths >= 1);
    assert!(rec.failovers >= 1, "death is recorded as a failover");
    assert!(rec.stall_ms > 0, "the stall window was paid");
    assert!(stats.reassignments >= 1, "the dead path's bytes moved");
    let kinds: Vec<EventKind> = tracer.snapshot().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::ChunkReassigned));
}

/// When every path dies the striper abandons — no fabricated
/// throughput, stats still account for the bytes that did arrive.
#[test]
fn abandons_when_every_path_dies() {
    let all_dead = |cs: LinkId, cv: LinkId| {
        FaultPlan::default()
            .link_outage(cs, SimTime::from_secs(3), SimTime::from_secs(10_000))
            .link_outage(cv, SimTime::from_secs(3), SimTime::from_secs(10_000))
    };
    let mut cfg = striped(4, 1);
    cfg.horizon = SimDuration::from_secs(60);
    if let SessionMode::Striped { rebalance, .. } = &mut cfg.mode {
        rebalance.stall_window = SimDuration::from_secs(5);
    }
    let (mut tp, c, v, s) = faulty_world(100_000.0, 300_000.0, all_dead);
    let (rec, stats) = run(&mut tp, c, v, s, &cfg);
    assert!(rec.abandoned);
    assert_eq!(rec.selected_throughput, 0.0, "no fabricated throughput");
    assert!(stats.deaths >= 2, "both paths declared dead");
    assert!(rec.selected_path_rate.is_nan());
}

/// Striped sessions are deterministic: identical worlds and configs
/// produce identical records and identical chunk accounting.
#[test]
fn striped_sessions_are_deterministic() {
    let cfg = striped(8, 1);
    let mut outcomes = Vec::new();
    for _ in 0..2 {
        let (mut tp, c, v, s) = world(400_000.0, 800_000.0);
        outcomes.push(run(&mut tp, c, v, s, &cfg));
    }
    assert_eq!(outcomes[0].0, outcomes[1].0, "records diverged");
    assert_eq!(outcomes[0].1, outcomes[1].1, "stripe stats diverged");
}

/// `k` caps the stripe width: with two candidates and `k = 1` only the
/// first candidate is probed or striped over.
#[test]
fn k_caps_the_probe_and_stripe_set() {
    let (mut tp, c, vias, s) = star(200_000.0, &[500_000.0, 900_000.0]);
    let tracer = Tracer::default();
    let (rec, stats) = run_over(&mut tp, c, &vias, s, &striped(4, 1), Some(&tracer));
    assert!(!rec.abandoned);
    // Only direct + the first candidate are in the roster; the faster
    // second candidate was cut by k — before the probe race, not after.
    assert_eq!(stats.per_path.len(), 2);
    assert!(stats.per_path.iter().all(|p| p.path.via() != Some(vias[1])));
    let probed = tracer
        .snapshot()
        .iter()
        .find(|e| e.kind == EventKind::ProbeStart)
        .and_then(|e| {
            e.attrs.iter().find_map(|(k, a)| match (*k, a) {
                ("paths", ir_telemetry::trace::Attr::U64(n)) => Some(*n),
                _ => None,
            })
        });
    assert_eq!(probed, Some(2), "k = 1 probes direct + one candidate");
}
