//! Randomized property tests for the session protocol over
//! constant-rate worlds, where ground truth is computable by hand.
//!
//! These were proptest-based; the offline build has no proptest, so the
//! same invariants are checked over seeded random case sweeps (every
//! failure reproduces from the printed case seed).

use ir_core::{
    run_paths_session, PathSpec, SessionConfig, SimTransport, TransferRecord, UtilizationTracker,
};
use ir_simnet::bandwidth::ConstantProcess;
use ir_simnet::sim::Network;
use ir_simnet::time::SimDuration;
use ir_simnet::topology::{NodeKind, Sharing, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// client -> server (direct at `direct`), client -> relay -> server
/// (overlay leg at `overlay`, relay-server leg fast).
fn world(
    direct: f64,
    overlay: f64,
) -> (
    SimTransport,
    ir_simnet::topology::NodeId,
    ir_simnet::topology::NodeId,
    ir_simnet::topology::NodeId,
) {
    let mut t = Topology::new();
    let c = t.add_node("c", NodeKind::Client);
    let v = t.add_node("v", NodeKind::Intermediate);
    let s = t.add_node("s", NodeKind::Server);
    let l0 = t.add_link_shared(c, s, SimDuration::from_millis(80), Sharing::PerFlow);
    let l1 = t.add_link_shared(c, v, SimDuration::from_millis(75), Sharing::PerFlow);
    let l2 = t.add_link_shared(v, s, SimDuration::from_millis(8), Sharing::PerFlow);
    let mut net = Network::new(t, 1.0);
    net.set_link_process(l0, Box::new(ConstantProcess::new(direct)));
    net.set_link_process(l1, Box::new(ConstantProcess::new(overlay)));
    net.set_link_process(l2, Box::new(ConstantProcess::new(50e6)));
    (SimTransport::new(net), c, v, s)
}

fn run_one(direct: f64, overlay: f64) -> TransferRecord {
    let (mut tp, c, v, s) = world(direct, overlay);
    run_paths_session(
        &mut tp,
        PathSpec::direct(c, s),
        &[PathSpec::indirect(c, s, v)],
        0,
        &SessionConfig::paper_defaults(),
        None,
    )
    .0
}

#[test]
fn clearly_better_overlay_is_chosen() {
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x5E_0000 + case);
        let direct = rng.gen_range(30_000.0..150_000.0);
        let factor = rng.gen_range(2.5..8.0);
        let rec = run_one(direct, direct * factor);
        assert!(
            rec.chose_indirect(),
            "case {case}: 2.5x+ faster relay not chosen"
        );
        assert!(
            rec.improvement() > 0.2,
            "case {case}: improvement {}",
            rec.improvement()
        );
        assert!(!rec.probe_timeout, "case {case}");
    }
}

#[test]
fn clearly_worse_overlay_is_rejected() {
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x5E_1000 + case);
        let direct = rng.gen_range(100_000.0..400_000.0);
        let factor = rng.gen_range(0.05..0.4);
        let rec = run_one(direct, direct * factor);
        assert!(!rec.chose_indirect(), "case {case}: slow relay chosen");
        // Direct selected: treatment ~= control; no large deviation.
        assert!(
            rec.improvement().abs() < 0.25,
            "case {case}: improvement {}",
            rec.improvement()
        );
    }
}

#[test]
fn improvement_tracks_rate_ratio_on_constant_paths() {
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x5E_2000 + case);
        let direct = rng.gen_range(40_000.0..120_000.0);
        let factor = rng.gen_range(2.0..6.0);
        let rec = run_one(direct, direct * factor);
        assert!(rec.chose_indirect(), "case {case}");
        // With constant rates, improvement ≈ factor − 1 up to TCP and
        // probe overheads (which only push it down, never up, and by a
        // bounded amount).
        let imp = rec.improvement();
        assert!(
            imp <= factor - 1.0 + 0.15,
            "case {case}: imp {imp} vs factor {factor}"
        );
        assert!(
            imp >= (factor - 1.0) * 0.4 - 0.1,
            "case {case}: imp {imp} too low for factor {factor}"
        );
    }
}

#[test]
fn throughputs_never_exceed_link_rates() {
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x5E_3000 + case);
        let direct = rng.gen_range(30_000.0..300_000.0);
        let overlay = rng.gen_range(30_000.0..300_000.0);
        let rec = run_one(direct, overlay);
        let cap = direct.max(overlay) + 1.0;
        assert!(rec.direct_throughput <= direct + 1.0, "case {case}");
        assert!(rec.selected_throughput <= cap, "case {case}");
        if rec.selected_path_rate.is_finite() {
            assert!(rec.selected_path_rate <= cap, "case {case}");
        }
        assert!(rec.direct_throughput > 0.0, "case {case}");
    }
}

#[test]
fn utilization_tracker_is_consistent_with_records() {
    use ir_simnet::topology::NodeId;
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x5E_4000 + case);
        let outcomes: Vec<bool> = (0..rng.gen_range(1..50usize))
            .map(|_| rng.gen::<bool>())
            .collect();
        let client = NodeId(0);
        let server = NodeId(1);
        let via = NodeId(2);
        let mut tracker = UtilizationTracker::new();
        let mut chosen = 0u64;
        for &pick in &outcomes {
            let selected = if pick {
                chosen += 1;
                PathSpec::indirect(client, server, via)
            } else {
                PathSpec::direct(client, server)
            };
            tracker.observe(&TransferRecord {
                client,
                server,
                started: ir_simnet::time::SimTime::ZERO,
                file_bytes: 1,
                selected,
                candidates: vec![via],
                direct_throughput: 1.0,
                selected_throughput: 1.0,
                probe_throughput: 1.0,
                selected_path_rate: 1.0,
                probe_timeout: false,
                failovers: 0,
                stall_ms: 0,
                abandoned: false,
            });
        }
        let u = tracker.utilization(client, via).unwrap();
        assert!(
            (u - chosen as f64 / outcomes.len() as f64).abs() < 1e-12,
            "case {case}"
        );
        assert_eq!(tracker.appeared_count(client, via), outcomes.len() as u64);
        assert_eq!(tracker.chosen_count(client, via), chosen);
    }
}
