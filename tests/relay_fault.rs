//! Integration: killing a relay mid-splice must surface a clean client
//! error (no hang, no daemon panic), and the client-side failover path
//! must recover the transfer over a surviving route.
#![expect(
    clippy::disallowed_methods,
    reason = "real-socket fault test bounds its polling loop with a wall-clock deadline; asserts on payload bytes only"
)]

use indirect_routing::relay::{
    download, download_failover, ChosenPath, ClientConfig, OriginConfig, OriginServer,
    RateSchedule, Relay, RelayConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const KB: f64 = 1000.0;

/// Origin + one shaped relay arranged so the relay wins the probe race
/// and carries the remainder when the kill lands.
fn rig() -> (OriginServer, OriginServer, Relay, ClientConfig) {
    let origin_fast = OriginServer::start(OriginConfig::new(300_000)).unwrap();
    let origin_direct =
        OriginServer::start(OriginConfig::new(300_000).shaped(RateSchedule::constant(100.0 * KB)))
            .unwrap();
    let relay = Relay::start(RelayConfig::shaped(RateSchedule::constant(150.0 * KB))).unwrap();
    let cfg = ClientConfig {
        path: "/f".into(),
        probe_bytes: 50_000,
        total_bytes: 300_000,
        timeout: Duration::from_secs(30),
    };
    (origin_fast, origin_direct, relay, cfg)
}

#[test]
fn killed_relay_surfaces_clean_error_without_hanging() {
    let (origin_fast, origin_direct, mut relay, cfg) = rig();
    let direct = origin_direct.addr();
    let for_relays = origin_fast.addr();
    let relay_addr = relay.addr();

    let t0 = Instant::now();
    let worker = std::thread::spawn(move || download(direct, for_relays, &[relay_addr], &cfg));
    // Let the probe race finish and the remainder start flowing, then
    // sever every spliced connection.
    std::thread::sleep(Duration::from_millis(600));
    relay.kill();
    let result = worker.join().expect("client must not panic");
    let err = result.expect_err("remainder lost its carrier; download must fail");
    let wall = t0.elapsed();
    assert!(
        wall < Duration::from_secs(10),
        "clean error expected promptly, took {wall:?}: {err}"
    );
}

#[test]
fn failover_download_recovers_over_surviving_path() {
    let (origin_fast, origin_direct, mut relay, cfg) = rig();
    let direct = origin_direct.addr();
    let for_relays = origin_fast.addr();
    let relay_addr = relay.addr();

    let worker =
        std::thread::spawn(move || download_failover(direct, for_relays, &[relay_addr], &cfg));
    std::thread::sleep(Duration::from_millis(600));
    relay.kill();
    let out = worker
        .join()
        .expect("client must not panic")
        .expect("failover must recover the transfer");
    assert!(out.body_ok, "recovered body must reassemble byte-exactly");
    assert_eq!(out.choice, ChosenPath::Direct, "only survivor is direct");
    assert!(out.failovers >= 1, "failover path was not exercised");
}

/// The stall window: a client racing a killed relay must resolve —
/// success or clean error — well inside this bound, never hang.
const STALL_WINDOW: Duration = Duration::from_secs(10);

/// Chaos: kill the relay at seeded random points across its whole
/// lifecycle — before the client even connects, right after the TCP
/// handshake, mid-splice, and while a drain is reclaiming connections.
/// Whatever the phase, the client must observe EOF-or-error promptly
/// and the daemon must account for every connection it accepted.
#[test]
fn chaos_seeded_kill_points_never_hang_clients() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xC4A0_5EED ^ seed);
        let phase = seed % 4;
        let (origin_fast, origin_direct, mut relay, cfg) = rig();
        let direct = origin_direct.addr();
        let for_relays = origin_fast.addr();
        let relay_addr = relay.addr();

        let t0 = Instant::now();
        match phase {
            // Pre-accept: the relay is already dead when the client
            // arrives. The probe race must settle on the direct path.
            0 => {
                relay.kill();
                let out = download(direct, for_relays, &[relay_addr], &cfg)
                    .expect("direct path must carry the transfer");
                assert_eq!(out.choice, ChosenPath::Direct, "seed {seed}");
                assert!(out.body_ok, "seed {seed}");
            }
            // Mid-handshake: kill lands just as the connection opens,
            // before the splice is established.
            1 => {
                let delay = rng.gen_range(0..20u64);
                let worker =
                    std::thread::spawn(move || download(direct, for_relays, &[relay_addr], &cfg));
                std::thread::sleep(Duration::from_millis(delay));
                relay.kill();
                // Either the direct path won the race anyway, or the
                // client saw a clean relay error — both are fine; a
                // hang is not.
                if let Ok(out) = worker.join().expect("client must not panic") {
                    assert!(out.body_ok, "seed {seed}");
                }
            }
            // Mid-splice: the remainder is flowing when the kill lands.
            2 => {
                let delay = rng.gen_range(500..900u64);
                let worker =
                    std::thread::spawn(move || download(direct, for_relays, &[relay_addr], &cfg));
                std::thread::sleep(Duration::from_millis(delay));
                relay.kill();
                if let Ok(out) = worker.join().expect("client must not panic") {
                    assert!(out.body_ok, "seed {seed}");
                }
            }
            // During drain: a too-short drain deadline forces the
            // daemon from graceful reclaim into a sever while the
            // transfer is still in flight.
            _ => {
                let worker =
                    std::thread::spawn(move || download(direct, for_relays, &[relay_addr], &cfg));
                std::thread::sleep(Duration::from_millis(rng.gen_range(500..700u64)));
                let report = relay.drain(Duration::from_millis(rng.gen_range(50..150u64)));
                assert!(report.monotone, "seed {seed}: drain went backwards");
                if let Ok(out) = worker.join().expect("client must not panic") {
                    assert!(out.body_ok, "seed {seed}");
                }
            }
        }
        let wall = t0.elapsed();
        assert!(
            wall < STALL_WINDOW,
            "seed {seed} phase {phase}: client stalled for {wall:?}"
        );
        let life = relay.lifecycle();
        assert_eq!(
            life.accepted,
            life.closed_clean + life.closed_error + life.killed,
            "seed {seed} phase {phase}: leaked a connection"
        );
        assert_eq!(relay.active_connections(), 0, "seed {seed} phase {phase}");
    }
}
