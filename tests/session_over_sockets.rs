//! Integration: one protocol, two transports.
//!
//! The same `ir_core::run_paths_session` call is executed against (a) the
//! fluid simulator and (b) a live loopback deployment with matching
//! path rates. Both must make the same selection, and their measured
//! improvements must agree to within the fidelity gap between a fluid
//! TCP model and a real kernel stack.

use indirect_routing::core::{
    run_paths_session, PathSpec, SessionConfig, SimTransport, TransferRecord,
};
use indirect_routing::relay::{body_byte, HarnessSpec, MiniPlanetLab, RateSchedule, RealTransport};
use indirect_routing::simnet::prelude::*;

const KB: f64 = 1000.0;

fn session_cfg(file: u64, probe: u64) -> SessionConfig {
    SessionConfig {
        probe_bytes: probe,
        file_bytes: file,
        horizon: SimDuration::from_secs(120),
        failover: None,
        engine: EngineMode::Incremental,
        mode: indirect_routing::core::SessionMode::Racing,
    }
}

/// Runs the session on the simulator with the given path rates.
fn run_sim(direct_rate: f64, overlay_rate: f64, file: u64, probe: u64) -> TransferRecord {
    let mut t = Topology::new();
    let c = t.add_node("c", NodeKind::Client);
    let v = t.add_node("v", NodeKind::Intermediate);
    let s = t.add_node("s", NodeKind::Server);
    let l0 = t.add_link_shared(c, s, SimDuration::from_millis(1), Sharing::PerFlow);
    let l1 = t.add_link_shared(c, v, SimDuration::from_millis(1), Sharing::PerFlow);
    let l2 = t.add_link_shared(v, s, SimDuration::from_millis(1), Sharing::PerFlow);
    let mut net = Network::new(t, 1.0);
    net.set_link_process(l0, Box::new(ConstantProcess::new(direct_rate)));
    net.set_link_process(l1, Box::new(ConstantProcess::new(overlay_rate)));
    net.set_link_process(l2, Box::new(ConstantProcess::new(100e6)));
    let mut transport = SimTransport::new(net);
    run_paths_session(
        &mut transport,
        PathSpec::direct(c, s),
        &[PathSpec::indirect(c, s, v)],
        0,
        &session_cfg(file, probe),
        None,
    )
    .0
}

/// Runs the identical session over real sockets with matching shapers,
/// and checks what the selecting process reassembled, byte for byte.
fn run_real(direct_rate: f64, overlay_rate: f64, file: u64, probe: u64) -> TransferRecord {
    let lab = MiniPlanetLab::start(HarnessSpec {
        content_len: file,
        direct: RateSchedule::constant(direct_rate),
        relays: vec![RateSchedule::constant(overlay_rate)],
    })
    .unwrap();
    let (mut transport, paths) = RealTransport::for_lab(&lab);
    let (record, _) = run_paths_session(
        &mut transport,
        paths[0],
        &paths[1..],
        0,
        &session_cfg(file, probe),
        None,
    );
    let body = transport
        .take_body()
        .expect("the selecting process delivered every byte");
    assert_eq!(body.len() as u64, file);
    if let Some(at) = (0..file).find(|&i| body[i as usize] != body_byte(i)) {
        panic!("reassembled body differs from the origin's at byte {at}");
    }
    record
}

#[test]
fn sim_and_real_agree_when_relay_wins() {
    let (d, o, file, probe) = (120.0 * KB, 700.0 * KB, 300_000, 50_000);
    let sim = run_sim(d, o, file, probe);
    let real = run_real(d, o, file, probe);
    assert!(sim.chose_indirect(), "sim: {sim:?}");
    assert!(real.chose_indirect(), "real: {real:?}");
    // Improvements agree in regime: both solidly positive.
    assert!(
        sim.improvement() > 0.5,
        "sim {:+.1}%",
        sim.improvement_pct()
    );
    assert!(
        real.improvement() > 0.5,
        "real {:+.1}%",
        real.improvement_pct()
    );
}

#[test]
fn sim_and_real_agree_when_direct_wins() {
    let (d, o, file, probe) = (800.0 * KB, 90.0 * KB, 300_000, 50_000);
    let sim = run_sim(d, o, file, probe);
    let real = run_real(d, o, file, probe);
    assert!(!sim.chose_indirect(), "sim: {sim:?}");
    assert!(!real.chose_indirect(), "real: {real:?}");
    assert!(sim.improvement().abs() < 0.25);
    assert!(real.improvement().abs() < 0.35);
}

#[test]
fn real_throughputs_land_near_shaped_rates() {
    let (d, o, file, probe) = (150.0 * KB, 600.0 * KB, 240_000, 40_000);
    let real = run_real(d, o, file, probe);
    assert!(real.chose_indirect());
    // The control measured ~the direct shaper's rate; burst credit can
    // push a short transfer somewhat above the steady rate.
    assert!(
        real.direct_throughput > 0.5 * d && real.direct_throughput < 2.0 * d,
        "control measured {:.0} vs shaped {:.0}",
        real.direct_throughput,
        d
    );
    // The selecting process did visibly better than the direct rate.
    assert!(
        real.selected_throughput > 1.3 * d,
        "selected {:.0} vs direct {:.0}",
        real.selected_throughput,
        d
    );
}
