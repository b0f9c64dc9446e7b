//! Quickstart: one probed transfer over a three-node world.
//!
//! Builds a client / relay / server topology where the default path is
//! congested and the overlay path is not, then runs the paper's §2.1
//! protocol — probe race, select, fetch the remainder — and prints the
//! improvement over the direct-only control download.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use indirect_routing::core::{run_paths_session, PathSpec, SessionConfig, SimTransport};
use indirect_routing::simnet::prelude::*;
use indirect_routing::stats::table::fmt_rate;

fn main() {
    // --- Topology: client -> server (direct), client -> relay -> server.
    let mut topo = Topology::new();
    let client = topo.add_node("client", NodeKind::Client);
    let relay = topo.add_node("relay", NodeKind::Intermediate);
    let server = topo.add_node("server", NodeKind::Server);
    let l_direct = topo.add_link_shared(
        client,
        server,
        SimDuration::from_millis(90),
        Sharing::PerFlow,
    );
    let l_up = topo.add_link_shared(
        client,
        relay,
        SimDuration::from_millis(80),
        Sharing::PerFlow,
    );
    let l_down = topo.add_link_shared(
        relay,
        server,
        SimDuration::from_millis(10),
        Sharing::PerFlow,
    );

    // --- Path conditions: a 0.8 Mbps direct path with regime swings; a
    //     steadier 2 Mbps overlay link; a fast relay-server leg.
    let mut net = Network::new(topo, 1.0);
    net.set_link_process(
        l_direct,
        Box::new(RegimeSwitchingProcess::new(
            vec![40_000.0, 100_000.0, 180_000.0],
            SimDuration::from_secs(120),
            0.15,
            7,
        )),
    );
    net.set_link_process(l_up, Box::new(ConstantProcess::new(250_000.0)));
    net.set_link_process(l_down, Box::new(ConstantProcess::new(10_000_000.0)));

    // --- The paper's protocol: x = 100 KB probe, 2 MB file.
    //     One a-priori indirect path (§2.2); `run_session` is the same
    //     call with a `PathSelector` choosing the candidates per transfer.
    let mut transport = SimTransport::new(net);
    let cfg = SessionConfig::paper_defaults();
    let direct = PathSpec::direct(client, server);
    let indirect = [PathSpec::indirect(client, server, relay)];

    println!("direct path:   {direct}");
    println!("indirect path: {}\n", indirect[0]);

    for i in 0..5 {
        let (rec, _) = run_paths_session(&mut transport, direct, &indirect, i, &cfg, None);
        println!(
            "transfer {}: chose {}  direct {}  selected {}  improvement {:+.1}%",
            i,
            if rec.chose_indirect() {
                "INDIRECT"
            } else {
                "direct  "
            },
            fmt_rate(rec.direct_throughput * 8.0),
            fmt_rate(rec.selected_throughput * 8.0),
            rec.improvement_pct()
        );
        // Next transfer six minutes later, like the paper's schedule.
        let next = transport.network().now() + SimDuration::from_secs(360);
        transport.network_mut().advance_until(next);
    }
}
