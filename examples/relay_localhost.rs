//! Real sockets: the indirect-routing system on loopback.
//!
//! Starts an origin server and three relay daemons with token-bucket
//! shapers emulating heterogeneous path rates, then runs the session
//! runner (`run_paths_session`, the code every simulated study uses)
//! over genuine TCP connections and HTTP range requests.
//!
//! ```text
//! cargo run --release --example relay_localhost
//! ```

use indirect_routing::core::{run_paths_session, SessionConfig};
use indirect_routing::relay::{body_byte, HarnessSpec, MiniPlanetLab, RateSchedule, RealTransport};
use indirect_routing::simnet::time::SimDuration;
use std::time::Duration;

const KB: f64 = 1000.0;

fn main() {
    // Direct path: 180 KB/s that collapses to 50 KB/s after 4 seconds.
    // Relays: one poor (70 KB/s), one decent (240 KB/s), one good but
    // jittery (starts at 400 KB/s, dips at t = 6 s).
    let lab = MiniPlanetLab::start(HarnessSpec {
        content_len: 600_000,
        direct: RateSchedule::piecewise(vec![
            (Duration::ZERO, 180.0 * KB),
            (Duration::from_secs(4), 50.0 * KB),
        ]),
        relays: vec![
            RateSchedule::constant(70.0 * KB),
            RateSchedule::constant(240.0 * KB),
            RateSchedule::piecewise(vec![
                (Duration::ZERO, 400.0 * KB),
                (Duration::from_secs(6), 90.0 * KB),
            ]),
        ],
    })
    .expect("harness start");

    println!("origin (direct path) at {}", lab.direct_addr());
    for (i, a) in lab.relay_addrs().iter().enumerate() {
        println!("relay {i} at {a}");
    }
    println!();

    // The paper's methodology over real bytes: each round runs the
    // selecting process and a direct-only control concurrently.
    let cfg = SessionConfig {
        probe_bytes: 60_000,
        file_bytes: 600_000,
        horizon: SimDuration::from_secs(60),
        ..SessionConfig::paper_defaults()
    };
    for round in 0..4 {
        if round > 0 {
            std::thread::sleep(Duration::from_secs(2));
        }
        let (mut transport, paths) = RealTransport::for_lab(&lab);
        let (rec, _) = run_paths_session(&mut transport, paths[0], &paths[1..], round, &cfg, None);
        let choice = match paths.iter().position(|p| *p == rec.selected) {
            Some(i) if i > 0 => format!("relay {}", i - 1),
            _ => "direct".to_string(),
        };
        let intact = transport
            .take_body()
            .is_some_and(|body| body.iter().zip(0..).all(|(&b, i)| b == body_byte(i)));
        println!(
            "round {round}: chose {choice:8}  selected {:6.0} KB/s  control {:6.0} KB/s  improvement {:+5.0}%  content {}",
            rec.selected_throughput / KB,
            rec.direct_throughput / KB,
            rec.improvement_pct(),
            if intact { "verified" } else { "CORRUPT" }
        );
    }
}
