//! The racing client: the paper's selecting process, over real sockets.
//!
//! §2.1 end-to-end — range probes on the direct path and through every
//! candidate relay at once, the first to deliver wins, the rest comes
//! **on the winning, still-warm connection** — but none of it is
//! written here: the probe race is the session runner's probe phase
//! (`ir_core::run_probe`), and each download is one call of its
//! selecting process (`ir_core::run_selecting`) over the socket engine
//! ([`RealTransport`]) with the paper's warm remainder, the core
//! failover remainder or the core striped scheduler. What is left here
//! is that choice of [`SessionConfig`], body verification and the
//! outcome types.

use crate::error::RelayError;
use crate::origin::is_body;
use crate::transport::RealTransport;
use ir_core::{run_probe, run_selecting, FailoverConfig, PathSpec, RebalanceConfig};
use ir_core::{SessionConfig, SessionMode, StripeStats};
use ir_simnet::time::SimDuration;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Which path carried the transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChosenPath {
    /// The default path straight to the origin.
    Direct,
    /// Via the i-th relay of the candidate list.
    Relay(usize),
}

/// The path at `index` of the engine's roster (direct first).
fn chosen(index: usize) -> ChosenPath {
    index
        .checked_sub(1)
        .map_or(ChosenPath::Direct, ChosenPath::Relay)
}

/// Client configuration for one download.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Resource path on the origin.
    pub path: String,
    /// Probe size x (bytes).
    pub probe_bytes: u64,
    /// Total resource size n (bytes); must exceed the probe.
    pub total_bytes: u64,
    /// Per-phase timeout.
    pub timeout: Duration,
}

impl ClientConfig {
    fn validate(&self) {
        assert!(self.probe_bytes > 0, "zero probe");
        assert!(
            self.total_bytes > self.probe_bytes,
            "file must exceed probe"
        );
    }

    /// The paper's protocol: first probe to finish wins and carries
    /// the remainder, no failover.
    fn session(&self) -> SessionConfig {
        SessionConfig {
            probe_bytes: self.probe_bytes,
            file_bytes: self.total_bytes,
            horizon: SimDuration::from_micros(self.timeout.as_micros() as u64),
            ..SessionConfig::paper_defaults()
        }
    }

    /// The core failover remainder, with the socket client's rule for a
    /// dead path: failed, or silent for the timeout, it is abandoned at
    /// once and the survivors race for the rest — no same-path retry.
    fn failover(&self) -> SessionConfig {
        let mut session = self.session();
        let mut fo = FailoverConfig::paper_defaults();
        (fo.stall_timeout, fo.max_retries) = (session.horizon, 0);
        session.failover = Some(fo);
        session
    }

    /// The core striped scheduler over `chunks` ranges, the direct path
    /// and all `relays`; a path failed, or silent for the timeout, is dead.
    fn striped(&self, chunks: u32, relays: usize) -> SessionConfig {
        let mut session = self.session();
        let mut rebalance = RebalanceConfig::paper_defaults();
        rebalance.stall_window = session.horizon;
        let k = relays.max(1) as u32;
        session.mode = SessionMode::Striped {
            chunks,
            k,
            rebalance,
        };
        session
    }
}

/// Result of the probe race.
pub struct ProbeWin {
    /// Which path won.
    pub choice: ChosenPath,
    /// Wall time from race start to the winner's last probe byte.
    pub elapsed: Duration,
    /// Probe throughput, bytes/sec.
    pub throughput: f64,
    /// The probe bytes (for integrity checks).
    pub body: Vec<u8>,
}

/// Result of a full probed download.
#[derive(Debug)]
pub struct DownloadOutcome {
    /// Which path carried the remainder.
    pub choice: ChosenPath,
    /// Probe throughput of the winner, bytes/sec.
    pub probe_throughput: f64,
    /// End-to-end wall time for all n bytes.
    pub elapsed: Duration,
    /// End-to-end throughput (n / elapsed), bytes/sec.
    pub throughput: f64,
    /// Whether the reassembled body matched the origin's content.
    pub body_ok: bool,
    /// Paths abandoned mid-transfer (relay died, connection severed);
    /// always 0 from [`download`], which has no failure handling.
    pub failovers: u32,
}

/// A fresh engine whose reassembly expects `total_bytes`, and its path
/// roster: the direct path, then one path per relay.
fn engine(
    direct: SocketAddr,
    origin_for_relays: SocketAddr,
    relays: &[SocketAddr],
    cfg: &ClientConfig,
    total_bytes: u64,
) -> (RealTransport, Vec<PathSpec>) {
    cfg.validate();
    let (origin, timeout) = (origin_for_relays, cfg.timeout);
    RealTransport::star(direct, origin, relays, &cfg.path, total_bytes, timeout)
}

fn body_of(engine: &mut RealTransport) -> Result<Vec<u8>, RelayError> {
    let missing = || RelayError::BadResponse("bytes missing after the last transfer".into());
    engine.take_body().ok_or_else(missing)
}

/// The runner's selecting process under `session` over a fresh engine
/// for the whole file, and the verified download: its outcome (the
/// remainder's carrier, its failovers) and the stripe's chunk counts.
fn select(
    direct: SocketAddr,
    origin_for_relays: SocketAddr,
    relays: &[SocketAddr],
    cfg: &ClientConfig,
    session: &SessionConfig,
) -> Result<(DownloadOutcome, StripeStats), RelayError> {
    let start = Instant::now();
    let (mut engine, paths) = engine(direct, origin_for_relays, relays, cfg, cfg.total_bytes);
    let (direct, relays) = (paths[0], &paths[1..]);
    let did = run_selecting(&mut engine, direct, relays, 0, session, None);
    if !did.remainder.finished {
        return Err(engine.take_error());
    }
    let elapsed = start.elapsed();
    let body = body_of(&mut engine)?;
    let carrier = paths.iter().position(|p| *p == did.remainder.path);
    // `engine` drops after this: closing the connections, which wakes
    // the relay and origin behind them, is the last thing a download does.
    let out = DownloadOutcome {
        choice: chosen(carrier.unwrap_or(0)),
        probe_throughput: did.probe_throughput,
        elapsed,
        throughput: body.len() as f64 / elapsed.as_secs_f64(),
        body_ok: is_body(0, &body),
        failovers: did.remainder.failovers,
    };
    Ok((out, did.stats))
}

/// Races the probe over the direct path and every relay; returns the
/// winner. The losers' connections are shut down as soon as the race is
/// won.
///
/// `direct` is the origin address the client reaches on its default
/// path; `origin_for_relays` is the one relays should dial (they sit
/// elsewhere in the network — in the loopback harness the two are
/// different listeners with different shaping).
///
/// A path that fails (refused connect, `503` from a relay under
/// backpressure, anything but the `206` asked for) drops out of the
/// race; when every path has failed a path's error is returned at
/// once. [`RelayError::Timeout`] means the deadline passed first.
pub fn probe_race(
    direct: SocketAddr,
    origin_for_relays: SocketAddr,
    relays: &[SocketAddr],
    cfg: &ClientConfig,
) -> Result<ProbeWin, RelayError> {
    let start = Instant::now();
    let (mut engine, paths) = engine(direct, origin_for_relays, relays, cfg, cfg.probe_bytes);
    let probe = run_probe(&mut engine, &paths, 0, &cfg.session(), None);
    let winner = probe.ok_or_else(|| engine.take_error())?.winner;
    let elapsed = start.elapsed();
    Ok(ProbeWin {
        choice: chosen(winner),
        elapsed,
        throughput: cfg.probe_bytes as f64 / elapsed.as_secs_f64(),
        body: body_of(&mut engine)?,
    })
}

/// Full §2.1 download: the runner's selecting process — probe race,
/// then the remainder on the winning warm connection — without its
/// control; verifies the reassembled content. As in the runner, a
/// timed-out probe phase falls back to the whole file, direct.
pub fn download(
    direct: SocketAddr,
    origin_for_relays: SocketAddr,
    relays: &[SocketAddr],
    cfg: &ClientConfig,
) -> Result<DownloadOutcome, RelayError> {
    select(direct, origin_for_relays, relays, cfg, &cfg.session()).map(|(out, _)| out)
}

/// [`download`] with the core failover remainder: if the carrier dies
/// mid-remainder (the relay crashed, the socket was severed) or goes
/// silent for the timeout, the bytes it delivered are kept, the
/// surviving paths race for the next probe-sized piece of the rest, and
/// the winner carries what is left on its warm connection — for as long
/// as a path survives. `failovers` counts every abandoned path. Fails
/// with the last path's error only when no path survives.
pub fn download_failover(
    direct: SocketAddr,
    origin_for_relays: SocketAddr,
    relays: &[SocketAddr],
    cfg: &ClientConfig,
) -> Result<DownloadOutcome, RelayError> {
    select(direct, origin_for_relays, relays, cfg, &cfg.failover()).map(|(out, _)| out)
}

/// Result of a striped download ([`download_striped`]).
#[derive(Debug)]
pub struct StripedOutcome {
    /// End-to-end wall time for all n bytes.
    pub elapsed: Duration,
    /// End-to-end throughput (n / elapsed), bytes/sec.
    pub throughput: f64,
    /// Whether the reassembled body matched the origin's content.
    pub body_ok: bool,
    /// Paths that died mid-transfer (failed, or silent for the timeout).
    pub failovers: u32,
    /// Chunks completed per path, race-target order (direct first); all
    /// 0 when no stripe ran (no relay, or the probe phase timed out).
    pub chunk_counts: Vec<(ChosenPath, u64)>,
    /// Chunk remainders orphaned by a path death (one per dead path) and
    /// finished by the survivors; a drift steal is none: a clean run reads 0.
    pub repaired: u64,
}

/// mHTTP-style striped download over real sockets: the probe race, then
/// the core striped scheduler. The remainder is split into `chunks`
/// disjoint ranges fetched concurrently, one in flight per path on the
/// one connection the path keeps: the probe winner's warm connection
/// takes the first, a path that completes a chunk pulls the next (so
/// fast paths carry more), and once the queue is empty a free path
/// steals the rest of a chunk whose carrier runs at under half the free
/// path's rate. A path that fails or goes silent for the timeout is dead,
/// and its chunk's remainder goes to the survivors from the byte where
/// it stopped, so a path death costs throughput, never content.
pub fn download_striped(
    direct: SocketAddr,
    origin_for_relays: SocketAddr,
    relays: &[SocketAddr],
    chunks: u32,
    cfg: &ClientConfig,
) -> Result<StripedOutcome, RelayError> {
    assert!(chunks >= 1, "zero chunks");
    let session = cfg.striped(chunks, relays.len());
    let (out, stats) = select(direct, origin_for_relays, relays, cfg, &session)?;
    let carried = |i: usize| stats.per_path.get(i).map_or(0, |s| s.chunks);
    Ok(StripedOutcome {
        elapsed: out.elapsed,
        throughput: out.throughput,
        body_ok: out.body_ok,
        failovers: out.failovers,
        chunk_counts: (0..=relays.len())
            .map(|i| (chosen(i), carried(i)))
            .collect(),
        repaired: u64::from(stats.deaths),
    })
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests pace real-socket scenarios with sleeps; the serve-path rule is about the daemon's own threads"
)]
mod tests {
    use super::*;
    use crate::origin::{body_byte, OriginConfig, OriginServer};
    use crate::relayd::{Relay, RelayConfig};
    use crate::shaper::RateSchedule;
    use ir_core::Transport;

    const KB: f64 = 1000.0;

    fn world(
        total: u64,
        direct_rate: f64,
        relay_rates: &[f64],
    ) -> (OriginServer, OriginServer, Vec<Relay>) {
        // Shaped origin for the client's direct path; unshaped origin
        // for the relays' back side.
        let direct = OriginServer::start(
            OriginConfig::new(total).shaped(RateSchedule::constant(direct_rate)),
        )
        .unwrap();
        let fast = OriginServer::start(OriginConfig::new(total)).unwrap();
        let relays = relay_rates
            .iter()
            .map(|&r| Relay::start(RelayConfig::shaped(RateSchedule::constant(r))).unwrap())
            .collect();
        (direct, fast, relays)
    }

    #[test]
    fn race_picks_fast_relay_over_slow_direct() {
        let (direct, fast, relays) = world(400_000, 150.0 * KB, &[800.0 * KB]);
        let cfg = ClientConfig {
            path: "/f".into(),
            probe_bytes: 60_000,
            total_bytes: 400_000,
            timeout: Duration::from_secs(20),
        };
        let addrs: Vec<_> = relays.iter().map(|r| r.addr()).collect();
        let win = probe_race(direct.addr(), fast.addr(), &addrs, &cfg).unwrap();
        assert_eq!(win.choice, ChosenPath::Relay(0));
        assert_eq!(win.body.len(), 60_000);
    }

    #[test]
    fn race_picks_direct_over_slow_relay() {
        let (direct, fast, relays) = world(400_000, 900.0 * KB, &[120.0 * KB]);
        let cfg = ClientConfig {
            path: "/f".into(),
            probe_bytes: 60_000,
            total_bytes: 400_000,
            timeout: Duration::from_secs(20),
        };
        let addrs: Vec<_> = relays.iter().map(|r| r.addr()).collect();
        let win = probe_race(direct.addr(), fast.addr(), &addrs, &cfg).unwrap();
        assert_eq!(win.choice, ChosenPath::Direct);
    }

    #[test]
    fn download_reassembles_exact_content() {
        let (direct, fast, relays) = world(300_000, 200.0 * KB, &[700.0 * KB, 90.0 * KB]);
        let cfg = ClientConfig {
            path: "/f".into(),
            probe_bytes: 50_000,
            total_bytes: 300_000,
            timeout: Duration::from_secs(30),
        };
        let addrs: Vec<_> = relays.iter().map(|r| r.addr()).collect();
        let out = download(direct.addr(), fast.addr(), &addrs, &cfg).unwrap();
        assert!(out.body_ok, "content mismatch");
        assert_eq!(out.choice, ChosenPath::Relay(0));
        assert!(out.throughput > 200.0 * KB, "thr {}", out.throughput);
    }

    #[test]
    fn download_direct_when_no_relays() {
        let (direct, fast, _relays) = world(200_000, 500.0 * KB, &[]);
        let cfg = ClientConfig {
            path: "/f".into(),
            probe_bytes: 40_000,
            total_bytes: 200_000,
            timeout: Duration::from_secs(20),
        };
        let out = download(direct.addr(), fast.addr(), &[], &cfg).unwrap();
        assert_eq!(out.choice, ChosenPath::Direct);
        assert!(out.body_ok);
    }

    #[test]
    fn download_failover_survives_relay_kill_mid_splice() {
        // The relay wins the probe, then crashes mid-remainder; the
        // client must recover on the direct path with intact content.
        let direct = OriginServer::start(
            OriginConfig::new(300_000).shaped(RateSchedule::constant(100.0 * KB)),
        )
        .unwrap();
        let fast = OriginServer::start(OriginConfig::new(300_000)).unwrap();
        let mut relay =
            Relay::start(RelayConfig::shaped(RateSchedule::constant(150.0 * KB))).unwrap();
        let cfg = ClientConfig {
            path: "/f".into(),
            probe_bytes: 50_000,
            total_bytes: 300_000,
            timeout: Duration::from_secs(20),
        };
        let (d, f, addrs) = (direct.addr(), fast.addr(), vec![relay.addr()]);
        let t = std::thread::spawn(move || download_failover(d, f, &addrs, &cfg));
        std::thread::sleep(Duration::from_millis(600));
        relay.kill();
        let out = t.join().expect("client must not panic").unwrap();
        assert!(out.body_ok, "reassembled content must be intact");
        assert_eq!(out.choice, ChosenPath::Direct, "failed over to direct");
        assert!(out.failovers >= 1, "the dead relay counts as a failover");
    }

    #[test]
    fn download_failover_without_faults_matches_download() {
        let (direct, fast, relays) = world(200_000, 100.0 * KB, &[600.0 * KB]);
        let cfg = ClientConfig {
            path: "/f".into(),
            probe_bytes: 40_000,
            total_bytes: 200_000,
            timeout: Duration::from_secs(20),
        };
        let addrs: Vec<_> = relays.iter().map(|r| r.addr()).collect();
        let out = download_failover(direct.addr(), fast.addr(), &addrs, &cfg).unwrap();
        assert!(out.body_ok);
        assert_eq!(out.failovers, 0);
        assert_eq!(out.choice, ChosenPath::Relay(0));
    }

    fn refusing_relay() -> Relay {
        // Admits nothing: every connection is answered `503`.
        Relay::start(
            RelayConfig::new().with_max_connections(0, crate::relayd::Backpressure::Refuse),
        )
        .unwrap()
    }

    /// Every path failing fast is reported as that failure, at once —
    /// not as a timeout.
    #[test]
    fn race_returns_the_path_error_when_every_path_fails_fast() {
        // Port 1: connection refused.
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let relay = refusing_relay();
        let cfg = ClientConfig {
            path: "/f".into(),
            probe_bytes: 10,
            total_bytes: 100,
            timeout: Duration::from_secs(10),
        };
        let t0 = Instant::now();
        match probe_race(dead, dead, &[relay.addr()], &cfg) {
            // Whichever path failed last.
            Err(RelayError::BadStatus(503)) | Err(RelayError::Io(_)) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("race should not succeed"),
        }
        assert!(
            t0.elapsed() < cfg.timeout / 4,
            "fast failures waited out the deadline: {:?}",
            t0.elapsed()
        );
    }

    /// A failed path does not end the race while another is pending;
    /// `Timeout` is the deadline passing, nothing else.
    #[test]
    fn race_outlasts_a_failed_path_and_times_out_at_the_deadline() {
        // Connects (kernel backlog) but never answers.
        let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = silent.local_addr().unwrap();
        let relay = refusing_relay();
        let cfg = ClientConfig {
            path: "/f".into(),
            probe_bytes: 10,
            total_bytes: 100,
            timeout: Duration::from_millis(400),
        };
        let t0 = Instant::now();
        match probe_race(addr, addr, &[relay.addr()], &cfg) {
            Err(RelayError::Timeout) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("race should not succeed"),
        }
        assert!(t0.elapsed() >= cfg.timeout, "{:?}", t0.elapsed());
    }

    /// A lone wait ends at its horizon, not when the body is in, and
    /// leaves the transfer's progress readable.
    #[test]
    fn a_lone_wait_returns_at_its_horizon() {
        let origin = OriginServer::start(
            OriginConfig::new(500_000).shaped(RateSchedule::constant(50.0 * KB)),
        )
        .unwrap();
        let a = origin.addr();
        let timeout = Duration::from_secs(30);
        let (mut engine, paths) = RealTransport::star(a, a, &[], "/f", 500_000, timeout);
        let h = engine.begin(&paths[0], 0, 500_000);
        let t0 = Instant::now();
        assert!(engine.finish(h, SimDuration::from_secs(2)).is_none());
        let waited = t0.elapsed();
        assert!(waited < Duration::from_millis(2_500), "{waited:?}");
        let moved = engine.progress(h);
        assert!(moved > 0 && moved < 500_000, "{moved}");
    }

    /// `ClientConfig::timeout` bounds the remainder too: a download
    /// whose remainder would take ≈ 9 s gives up at 2.
    #[test]
    fn download_gives_up_at_the_per_phase_timeout() {
        let (origin, _, relays) = world(500_000, 50.0 * KB, &[40.0 * KB]);
        let cfg = ClientConfig {
            path: "/f".into(),
            probe_bytes: 50_000,
            total_bytes: 500_000,
            timeout: Duration::from_secs(2),
        };
        let t0 = Instant::now();
        let got = download(origin.addr(), origin.addr(), &[relays[0].addr()], &cfg);
        assert!(matches!(got, Err(RelayError::Timeout)), "{got:?}");
        assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
    }

    /// Winning the race closes the losers: a relay whose probe would
    /// run for seconds is rid of the connection at once, not when the
    /// probe finally drains.
    #[test]
    fn race_winner_closes_the_losing_connections() {
        // 80 KB probe: 16 KiB of burst, the rest at 10 KB/s ≈ 6 s.
        let (direct, fast, relays) = world(400_000, 50_000.0 * KB, &[10.0 * KB]);
        let cfg = ClientConfig {
            path: "/f".into(),
            probe_bytes: 80_000,
            total_bytes: 400_000,
            timeout: Duration::from_secs(20),
        };
        let win = probe_race(direct.addr(), fast.addr(), &[relays[0].addr()], &cfg).unwrap();
        assert_eq!(win.choice, ChosenPath::Direct);
        let t0 = Instant::now();
        while relays[0].lifecycle().accepted == 0 || relays[0].active_connections() > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "loser still open on the relay: {:?}",
                relays[0].lifecycle()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// An origin that answers every range request with one of three
    /// lies, drawn per connection from a seed: `200` for a range, a
    /// `206` whose body stops half way, a `206` of the wrong length.
    struct LyingOrigin {
        addr: SocketAddr,
        stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl LyingOrigin {
        fn start(seed: u64) -> LyingOrigin {
            use rand::{Rng, SeedableRng};
            use std::io::{Read, Write};
            use std::sync::atomic::Ordering;
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let stopped = stop.clone();
            let thread = std::thread::spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                for conn in listener.incoming() {
                    if stopped.load(Ordering::SeqCst) {
                        return;
                    }
                    let mut conn = conn.unwrap();
                    let mut head = Vec::new();
                    let mut byte = [0u8; 1];
                    while !head.ends_with(b"\r\n\r\n") && conn.read(&mut byte).unwrap_or(0) == 1 {
                        head.push(byte[0]);
                    }
                    let head = String::from_utf8_lossy(&head).to_string();
                    let Some(range) = head.split("bytes=").nth(1) else {
                        continue;
                    };
                    let mut ends = range.split(['-', '\r']).map(|n| n.parse::<u64>().unwrap());
                    let (first, last) = (ends.next().unwrap(), ends.next().unwrap());
                    let body: Vec<u8> = (first..=last).map(body_byte).collect();
                    let (status, claimed, sent) = match rng.gen_range(0..3) {
                        0 => ("200 OK", body.len(), body.len()),
                        1 => ("206 Partial Content", body.len(), body.len() / 2),
                        _ => ("206 Partial Content", body.len() - 1, body.len() - 1),
                    };
                    let head = format!("HTTP/1.1 {status}\r\nContent-Length: {claimed}\r\n\r\n");
                    let _ = conn.write_all(head.as_bytes());
                    let _ = conn.write_all(&body[..sent]);
                }
            });
            LyingOrigin {
                addr,
                stop,
                thread: Some(thread),
            }
        }
    }

    impl Drop for LyingOrigin {
        fn drop(&mut self) {
            self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
            let _ = std::net::TcpStream::connect(self.addr);
            self.thread.take().unwrap().join().unwrap();
        }
    }

    /// One validation rule, in the engine: whatever the lie, the path
    /// that carried it fails and the file comes out intact over the
    /// honest path — or not at all — never corrupt.
    #[test]
    fn a_lying_origin_fails_its_path_and_never_corrupts_the_file() {
        let honest = OriginServer::start(OriginConfig::new(120_000)).unwrap();
        let relay = Relay::start(RelayConfig::new()).unwrap();
        let cfg = ClientConfig {
            path: "/f".into(),
            probe_bytes: 20_000,
            total_bytes: 120_000,
            timeout: Duration::from_secs(10),
        };
        for seed in 0..9 {
            let liar = LyingOrigin::start(seed);
            // Nothing but the liar: no file.
            let t0 = Instant::now();
            assert!(download(liar.addr, liar.addr, &[], &cfg).is_err(), "{seed}");
            assert!(probe_race(liar.addr, liar.addr, &[relay.addr()], &cfg).is_err());
            assert!(t0.elapsed() < cfg.timeout / 2, "a lie is not a timeout");
            // The liar on the direct path: the relay carries the file.
            let out = download(liar.addr, honest.addr(), &[relay.addr()], &cfg).unwrap();
            assert_eq!((out.choice, out.body_ok), (ChosenPath::Relay(0), true));
            // The liar behind the relay: the direct path carries it, and
            // a stripe repairs every chunk the relay was given.
            let out = download_failover(honest.addr(), liar.addr, &[relay.addr()], &cfg).unwrap();
            assert_eq!((out.choice, out.body_ok), (ChosenPath::Direct, true));
            let out = download_striped(honest.addr(), liar.addr, &[relay.addr()], 6, &cfg).unwrap();
            assert!(out.body_ok, "seed {seed}: {out:?}");
            assert_eq!(
                out.chunk_counts[1],
                (ChosenPath::Relay(0), 0),
                "seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "file must exceed probe")]
    fn config_validates() {
        ClientConfig {
            path: "/f".into(),
            probe_bytes: 100,
            total_bytes: 100,
            timeout: Duration::from_secs(1),
        }
        .validate();
    }
}
