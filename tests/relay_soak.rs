//! Soak: hundreds of concurrent racing downloads through one
//! event-driven relay.
//!
//! Exercises the reactor under the load it was built for — far more
//! simultaneous connections than worker threads — and asserts the
//! three properties the thread-per-connection design could only
//! promise statistically: zero lost transfers, a bounded file
//! descriptor footprint, and a monotone drain to zero on shutdown.
//!
//! `IR_SOAK_CLIENTS` scales the client count (default 500) so CI can
//! run a lighter pass while `cargo test` locally soaks the full set.
#![expect(
    clippy::disallowed_methods,
    reason = "soak test bounds quiesce/drain polling with wall-clock deadlines; assertions cover transfer counts and fd totals only"
)]

use indirect_routing::relay::{HarnessSpec, MiniPlanetLab, RateSchedule};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const KB: f64 = 1000.0;

/// Open descriptors of this process, via procfs.
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count())
        .unwrap_or(0)
}

#[expect(
    clippy::disallowed_methods,
    reason = "IR_SOAK_CLIENTS scales client count for CI; the default (500) is fixed and no measured result depends on the knob"
)]
fn soak_clients() -> usize {
    match std::env::var("IR_SOAK_CLIENTS") {
        Ok(v) => v.parse().expect("IR_SOAK_CLIENTS must be an integer"),
        Err(_) => 500,
    }
}

fn wait_for_active(lab: &MiniPlanetLab, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while lab.relays()[0].active_connections() != want {
        assert!(
            Instant::now() < deadline,
            "relay stuck at {} active connections, wanted {want}",
            lab.relays()[0].active_connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The leak oracle: every connection the relay accepted reached a
/// terminal counter.
fn all_closed(lab: &MiniPlanetLab) -> bool {
    let s = lab.relays()[0].lifecycle();
    s.accepted == s.closed_clean + s.closed_error + s.killed
}

#[test]
fn soak_concurrent_racing_downloads_lose_nothing() {
    let n = soak_clients();
    let fd_baseline = fd_count();
    // Slow direct path, fast relay: every racing probe resolves to the
    // overlay, funnelling the whole client herd through one reactor.
    let mut lab = MiniPlanetLab::start(HarnessSpec {
        content_len: 12_000,
        direct: RateSchedule::constant(30.0 * KB),
        relays: vec![RateSchedule::constant(40_000.0 * KB)],
    })
    .unwrap();

    let stop = AtomicBool::new(false);
    let peak = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = fd_count();
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(fd_count());
                std::thread::sleep(Duration::from_millis(20));
            }
            peak
        });
        let lab_ref = &lab;
        let handles: Vec<_> = (0..n)
            .map(|i| {
                std::thread::Builder::new()
                    // Small stacks keep n threads cheap on one core.
                    .stack_size(256 * 1024)
                    .spawn_scoped(s, move || {
                        // Spread connect storms below the listen backlog.
                        std::thread::sleep(Duration::from_millis((i * 7 % 1500) as u64));
                        lab_ref.run_download(2_000)
                    })
                    .expect("spawn client")
            })
            .collect();
        let mut completed = 0usize;
        for h in handles {
            let out = h
                .join()
                .expect("client thread panicked")
                .expect("lost transfer");
            assert!(out.body_ok, "corrupt body after {completed} good transfers");
            completed += 1;
        }
        assert_eq!(completed, n, "every transfer must finish");
        stop.store(true, Ordering::Relaxed);
        sampler.join().expect("fd sampler panicked")
    });

    // Each client accounts for ~6 sockets across the whole loopback
    // topology (direct probe, relay leg, relay's two sides, origin
    // sides); anything past that is a descriptor leak.
    assert!(
        peak <= fd_baseline + 8 * n + 64,
        "fd blow-up: peak {peak} vs baseline {fd_baseline} for {n} clients"
    );

    // Each probe opens at most one relay connection (a losing relay
    // dial can be cancelled before it connects); none is duplicated.
    wait_for_active(&lab, 0);
    let snap = lab.relays()[0].lifecycle();
    assert!(
        snap.accepted > 0 && snap.accepted <= n as u64,
        "relay accept count off for {n} clients: {snap:?}"
    );
    assert!(all_closed(&lab), "leaked a connection");

    // Shutdown: park idle connections, then drain — active must fall
    // monotonically to zero with nothing forced.
    let idles: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(lab.relay_addrs()[0]).unwrap())
        .collect();
    wait_for_active(&lab, 8);
    let report = lab.relays_mut()[0].drain(Duration::from_secs(10));
    assert!(
        report.completed && report.monotone && report.forced == 0,
        "bad drain: {report:?}"
    );
    assert!(all_closed(&lab));
    assert_eq!(lab.relays()[0].active_connections(), 0);
    drop(idles);

    // Descriptors return to (near) baseline once the relay is gone.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now_fds = fd_count();
        if now_fds <= fd_baseline + 64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "fds never returned to baseline: {now_fds} vs {fd_baseline}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
