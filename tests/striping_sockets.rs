//! Striped downloads over real loopback sockets.
//!
//! Drives `ir-relay`'s striped client — the probe race, then the core
//! striped scheduler (chunks the paths pull, drift steals, dead-path
//! reassignment) over `ir-http` range requests on one connection per
//! path and the engine's shared reassembly — against event-mode relay
//! daemons, including a relay killed mid-transfer, whose orphaned chunk
//! the survivors finish, and a relay whose rate collapses, whose
//! straggler chunk a faster path steals.

use indirect_routing::relay::shaper::RateSchedule;
use indirect_routing::relay::{
    download, download_striped, ChosenPath, ClientConfig, OriginConfig, OriginServer, Relay,
    RelayConfig,
};
use std::time::Duration;

const KB: f64 = 1000.0;

fn event_relay(rate: f64) -> Relay {
    Relay::start(RelayConfig::shaped(RateSchedule::constant(rate))).unwrap()
}

fn client_cfg(total: u64) -> ClientConfig {
    ClientConfig {
        path: "/striped.bin".into(),
        probe_bytes: 50_000,
        total_bytes: total,
        timeout: Duration::from_secs(30),
    }
}

/// A striped download across the direct path and two event-mode
/// relays reassembles the exact origin content, and the fast relay
/// carries more chunks than the slow direct path.
#[test]
fn striped_download_reassembles_across_event_relays() {
    let total = 400_000;
    let direct =
        OriginServer::start(OriginConfig::new(total).shaped(RateSchedule::constant(120.0 * KB)))
            .unwrap();
    let fast_origin = OriginServer::start(OriginConfig::new(total)).unwrap();
    let relays = [event_relay(700.0 * KB), event_relay(90.0 * KB)];
    let addrs: Vec<_> = relays.iter().map(|r| r.addr()).collect();

    let out = download_striped(
        direct.addr(),
        fast_origin.addr(),
        &addrs,
        8,
        &client_cfg(total),
    )
    .unwrap();
    assert!(out.body_ok, "reassembled content must match the origin");
    assert_eq!(out.failovers, 0);
    assert_eq!(out.repaired, 0);
    let total_chunks: u64 = out.chunk_counts.iter().map(|&(_, n)| n).sum();
    assert_eq!(total_chunks, 8, "{:?}", out.chunk_counts);
    let fast = out
        .chunk_counts
        .iter()
        .find(|&&(c, _)| c == ChosenPath::Relay(0))
        .map(|&(_, n)| n)
        .unwrap();
    assert!(
        fast >= 4,
        "the fast relay should claim the most chunks: {:?}",
        out.chunk_counts
    );
}

/// One chunk degenerates to the racing client's shape: whole remainder
/// on the probe winner's warm connection, byte-identical content.
#[test]
fn single_chunk_matches_racing_download() {
    let total = 250_000;
    let direct =
        OriginServer::start(OriginConfig::new(total).shaped(RateSchedule::constant(150.0 * KB)))
            .unwrap();
    let fast_origin = OriginServer::start(OriginConfig::new(total)).unwrap();
    let relay = event_relay(800.0 * KB);
    let addrs = vec![relay.addr()];
    let cfg = client_cfg(total);

    let raced = download(direct.addr(), fast_origin.addr(), &addrs, &cfg).unwrap();
    let striped = download_striped(direct.addr(), fast_origin.addr(), &addrs, 1, &cfg).unwrap();
    assert!(raced.body_ok && striped.body_ok);
    assert_eq!(striped.chunk_counts.iter().map(|&(_, n)| n).sum::<u64>(), 1);
    // The one chunk rode the probe winner, as in the racing client.
    let (winner_path, _) = *striped
        .chunk_counts
        .iter()
        .find(|&&(_, n)| n == 1)
        .expect("one path carried the chunk");
    assert_eq!(winner_path, raced.choice);
}

/// Killing a relay mid-stripe orphans at most its current chunk; the
/// direct path finishes it from the byte where the relay stopped, and
/// the body still verifies.
#[test]
fn relay_killed_mid_stripe_is_repaired() {
    let total = 500_000;
    let direct =
        OriginServer::start(OriginConfig::new(total).shaped(RateSchedule::constant(200.0 * KB)))
            .unwrap();
    let fast_origin = OriginServer::start(OriginConfig::new(total)).unwrap();
    let mut relay = event_relay(250.0 * KB);
    let addrs = vec![relay.addr()];
    let cfg = client_cfg(total);

    let (d, f) = (direct.addr(), fast_origin.addr());
    let t = std::thread::spawn(move || download_striped(d, f, &addrs, 10, &cfg));
    std::thread::sleep(Duration::from_millis(500));
    relay.kill();
    let out = t.join().expect("client must not panic").unwrap();
    assert!(out.body_ok, "content must survive the mid-stripe kill");
    // Either the relay died mid-chunk (orphan reassigned) or it happened
    // to be between chunks; in both cases the direct path finishes
    // the queue and the body verifies. The kill window is wide enough
    // that the relay cannot have drained the whole queue first.
    let direct_chunks = out
        .chunk_counts
        .iter()
        .find(|&&(c, _)| c == ChosenPath::Direct)
        .map(|&(_, n)| n)
        .unwrap();
    assert!(direct_chunks > 0, "{:?}", out.chunk_counts);
}

/// A path keeps one connection for all its chunks: a relay sees the
/// probe's connection and — unless it won the probe and kept that one
/// warm — the one its first chunk dials, never one per chunk.
#[test]
fn striped_reuses_one_connection_per_path() {
    let total = 600_000;
    let direct =
        OriginServer::start(OriginConfig::new(total).shaped(RateSchedule::constant(300.0 * KB)))
            .unwrap();
    let fast_origin = OriginServer::start(OriginConfig::new(total)).unwrap();
    let relays = [event_relay(900.0 * KB), event_relay(500.0 * KB)];
    let addrs: Vec<_> = relays.iter().map(|r| r.addr()).collect();

    let out = download_striped(
        direct.addr(),
        fast_origin.addr(),
        &addrs,
        12,
        &client_cfg(total),
    )
    .unwrap();
    assert!(out.body_ok);
    assert_eq!((out.failovers, out.repaired), (0, 0));
    for (i, relay) in relays.iter().enumerate() {
        let carried = out.chunk_counts[1 + i].1;
        assert!(
            carried >= 2,
            "relay {i} carried {carried} chunks: too few to tell"
        );
        let accepted = relay.lifecycle().accepted;
        assert!(
            (1..=2).contains(&accepted),
            "relay {i} carried {carried} chunks over {accepted} connections"
        );
    }
}

/// A relay that collapses mid-download from 800 to 10 KB/s loses its
/// straggler chunk to the direct path, which finishes it from the byte
/// where the relay stopped. Without the steal the download waits for
/// the relay: its first chunk (237.5 KB) is at most ≈ 180 KB in when
/// the rate collapses, and the rest at 10 KB/s takes ≈ 6 s or more.
#[test]
fn collapsing_relay_loses_its_straggler_chunk() {
    let total = 1_000_000;
    let direct =
        OriginServer::start(OriginConfig::new(total).shaped(RateSchedule::constant(300.0 * KB)))
            .unwrap();
    let fast_origin = OriginServer::start(OriginConfig::new(total)).unwrap();
    let collapse = RateSchedule::piecewise(vec![
        (Duration::ZERO, 800.0 * KB),
        (Duration::from_millis(250), 10.0 * KB),
    ]);
    let relay = Relay::start(RelayConfig::shaped(collapse)).unwrap();
    let out = download_striped(
        direct.addr(),
        fast_origin.addr(),
        &[relay.addr()],
        4,
        &client_cfg(total),
    )
    .unwrap();
    assert!(out.body_ok, "content must survive the steal");
    assert_eq!((out.failovers, out.repaired), (0, 0), "a steal is no death");
    assert!(
        out.elapsed < Duration::from_secs(5),
        "waited out the collapsed relay: {:?}, {:?}",
        out.elapsed,
        out.chunk_counts
    );
}
