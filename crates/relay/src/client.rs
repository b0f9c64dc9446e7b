//! The racing client: the paper's selecting process, over real sockets.
//!
//! Implements §2.1 end-to-end: open connections to the origin (direct)
//! and to each candidate relay (absolute-form proxy requests), issue
//! `Range: bytes=0-{x-1}` on all of them simultaneously, take whichever
//! connection delivers the probe first, and fetch `bytes={x}-` **on the
//! winning, still-warm connection**.

use crate::error::RelayError;
use crate::origin::body_byte;
use crate::wire::exchange;
use ir_http::{via_proxy, ByteRange, Request, StatusCode};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Which path carried the transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChosenPath {
    /// The default path straight to the origin.
    Direct,
    /// Via the i-th relay of the candidate list.
    Relay(usize),
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
    /// Defaults mirroring the paper at laptop scale: x = 100 KB.
    pub fn new(total_bytes: u64) -> Self {
        let cfg = ClientConfig {
            path: "/file.bin".into(),
            probe_bytes: 100 * 1024,
            total_bytes,
            timeout: Duration::from_secs(30),
        };
        cfg.validate();
        cfg
    }

    fn validate(&self) {
        assert!(self.probe_bytes > 0, "zero probe");
        assert!(
            self.total_bytes > self.probe_bytes,
            "file must exceed probe"
        );
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
    /// The winner's still-open connection.
    pub conn: TcpStream,
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

fn probe_request(
    target: ChosenPath,
    origin_for_relays: SocketAddr,
    path: &str,
    range: ByteRange,
) -> Request {
    match target {
        ChosenPath::Direct => Request::get(path.to_string())
            .with_header("Host", "origin")
            .with_header("Range", range.to_string()),
        ChosenPath::Relay(_) => via_proxy(
            &origin_for_relays.ip().to_string(),
            origin_for_relays.port(),
            path,
        )
        .with_header("Range", range.to_string()),
    }
}

/// The sockets of a probe race, so that the winner can close the
/// losers instead of leaving each parked on its path until it answers
/// or times out.
#[derive(Default)]
struct RaceSockets {
    won: bool,
    open: Vec<(ChosenPath, TcpStream)>,
}

/// Races the probe over the direct path and every relay; returns the
/// winner with its open connection. The losers' connections are shut
/// down as soon as the race is won.
///
/// `direct` is the origin address the client reaches on its default
/// path; `origin_for_relays` is the origin address relays should dial
/// (they sit elsewhere in the network, so the two may differ — in the
/// loopback harness they are different listeners with different
/// shaping).
///
/// A path that fails (refused connect, `503` from a relay under
/// backpressure) drops out of the race; when every path has failed the
/// last path's error is returned at once. [`RelayError::Timeout`] means
/// the deadline passed with no path having delivered its probe.
pub fn probe_race(
    direct: SocketAddr,
    origin_for_relays: SocketAddr,
    relays: &[SocketAddr],
    cfg: &ClientConfig,
) -> Result<ProbeWin, RelayError> {
    cfg.validate();
    let (tx, rx) =
        mpsc::channel::<Result<(ChosenPath, Duration, TcpStream, Vec<u8>), RelayError>>();
    let start = Instant::now();
    let sockets = Arc::new(Mutex::new(RaceSockets::default()));

    let mut targets: Vec<(ChosenPath, SocketAddr)> = vec![(ChosenPath::Direct, direct)];
    for (i, &r) in relays.iter().enumerate() {
        targets.push((ChosenPath::Relay(i), r));
    }

    for (choice, addr) in targets {
        let tx = tx.clone();
        let path = cfg.path.clone();
        let probe = cfg.probe_bytes;
        let timeout = cfg.timeout;
        let sockets = Arc::clone(&sockets);
        std::thread::spawn(move || {
            let run = || -> Result<(TcpStream, Vec<u8>), RelayError> {
                let mut conn = TcpStream::connect_timeout(&addr, timeout)?;
                conn.set_read_timeout(Some(timeout))?;
                conn.set_nodelay(true)?;
                {
                    // Registering and checking `won` under one lock: a
                    // path that connects after the win sees the flag,
                    // one that connects before it is in `open` when
                    // the winner shuts the losers down.
                    let mut race = sockets.lock().expect("race sockets");
                    if race.won {
                        // Nobody is listening for this result any more.
                        return Err(RelayError::Timeout);
                    }
                    race.open.push((choice, conn.try_clone()?));
                }
                // Connect to the relay (or straight to the origin); the
                // absolute URI inside always names the origin.
                let req = probe_request(choice, origin_for_relays, &path, ByteRange::first(probe));
                let (head, body) = exchange(&mut conn, &req)?;
                if head.status != StatusCode::PARTIAL_CONTENT {
                    return Err(RelayError::BadStatus(head.status.0));
                }
                Ok((conn, body))
            };
            let _ = tx.send(run().map(|(conn, body)| (choice, start.elapsed(), conn, body)));
        });
    }
    drop(tx);

    let deadline = start + cfg.timeout;
    let mut last_err = RelayError::Timeout;
    loop {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(Ok((choice, elapsed, conn, body))) => {
                let mut race = sockets.lock().expect("race sockets");
                race.won = true;
                for (loser, sock) in race.open.drain(..) {
                    if loser != choice {
                        let _ = sock.shutdown(Shutdown::Both);
                    }
                }
                return Ok(ProbeWin {
                    choice,
                    elapsed,
                    throughput: cfg.probe_bytes as f64 / elapsed.as_secs_f64(),
                    conn,
                    body,
                });
            }
            Ok(Err(e)) => last_err = e,
            Err(mpsc::RecvTimeoutError::Timeout) => return Err(RelayError::Timeout),
            // Every sender is gone: every path failed. Each path's read
            // timeout is the race's, started a connect later, so a late
            // wake-up here can find them all expired: that is the
            // deadline passing, not a path error.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(if Instant::now() >= deadline {
                    RelayError::Timeout
                } else {
                    last_err
                })
            }
        }
    }
}

/// Full §2.1 download: probe race, then the remainder on the winning
/// warm connection; verifies the reassembled content.
pub fn download(
    direct: SocketAddr,
    origin_for_relays: SocketAddr,
    relays: &[SocketAddr],
    cfg: &ClientConfig,
) -> Result<DownloadOutcome, RelayError> {
    let start = Instant::now();
    let mut win = probe_race(direct, origin_for_relays, relays, cfg)?;

    let rem_range = ByteRange::from_offset(cfg.probe_bytes);
    let req = probe_request(win.choice, origin_for_relays, &cfg.path, rem_range);
    let (head, rest) = exchange(&mut win.conn, &req)?;
    if head.status != StatusCode::PARTIAL_CONTENT {
        return Err(RelayError::BadStatus(head.status.0));
    }

    let elapsed = start.elapsed();
    let mut body = win.body;
    body.extend_from_slice(&rest);
    let body_ok = body.len() as u64 == cfg.total_bytes
        && body
            .iter()
            .enumerate()
            .all(|(i, &b)| b == body_byte(i as u64));

    Ok(DownloadOutcome {
        choice: win.choice,
        probe_throughput: win.throughput,
        elapsed,
        throughput: cfg.total_bytes as f64 / elapsed.as_secs_f64(),
        body_ok,
        failovers: 0,
    })
}

/// Fetches one range over a fresh connection (reconnect path of the
/// failover download).
fn fetch_range_fresh(
    addr: SocketAddr,
    choice: ChosenPath,
    origin_for_relays: SocketAddr,
    path: &str,
    range: ByteRange,
    timeout: Duration,
) -> Result<Vec<u8>, RelayError> {
    let mut conn = TcpStream::connect_timeout(&addr, timeout)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.set_nodelay(true)?;
    let req = probe_request(choice, origin_for_relays, path, range);
    let (head, body) = exchange(&mut conn, &req)?;
    if head.status != StatusCode::PARTIAL_CONTENT {
        return Err(RelayError::BadStatus(head.status.0));
    }
    Ok(body)
}

/// [`download`] with client-side failover: if the winning connection
/// dies mid-remainder (the relay crashed, the socket was severed), the
/// client reconnects and re-requests the remainder from the surviving
/// paths — the direct path first, then each remaining relay — instead
/// of surfacing the error. `failovers` in the outcome counts every
/// abandoned path. Fails with the *last* path's error only when no
/// path survives.
pub fn download_failover(
    direct: SocketAddr,
    origin_for_relays: SocketAddr,
    relays: &[SocketAddr],
    cfg: &ClientConfig,
) -> Result<DownloadOutcome, RelayError> {
    let start = Instant::now();
    let mut win = probe_race(direct, origin_for_relays, relays, cfg)?;

    let rem_range = ByteRange::from_offset(cfg.probe_bytes);
    let req = probe_request(win.choice, origin_for_relays, &cfg.path, rem_range);
    let mut failovers = 0u32;
    let rest = match exchange(&mut win.conn, &req) {
        Ok((head, rest)) if head.status == StatusCode::PARTIAL_CONTENT => rest,
        first_failure => {
            // The winning path died mid-transfer. Reconnect over the
            // survivors; partial remainder bytes are discarded and the
            // whole remainder re-requested (ranges make this cheap to
            // reason about and the origin is stateless).
            failovers += 1;
            let mut survivors: Vec<(ChosenPath, SocketAddr)> = vec![(ChosenPath::Direct, direct)];
            for (i, &r) in relays.iter().enumerate() {
                survivors.push((ChosenPath::Relay(i), r));
            }
            survivors.retain(|&(c, _)| c != win.choice);

            let mut recovered = None;
            let mut last_err = match first_failure {
                Ok((head, _)) => RelayError::BadStatus(head.status.0),
                Err(e) => e,
            };
            for (choice, addr) in survivors {
                match fetch_range_fresh(
                    addr,
                    choice,
                    origin_for_relays,
                    &cfg.path,
                    rem_range,
                    cfg.timeout,
                ) {
                    Ok(body) => {
                        recovered = Some((choice, body));
                        break;
                    }
                    Err(e) => {
                        failovers += 1;
                        last_err = e;
                    }
                }
            }
            let Some((choice, body)) = recovered else {
                return Err(last_err);
            };
            win.choice = choice;
            body
        }
    };

    let elapsed = start.elapsed();
    let mut body = win.body;
    body.extend_from_slice(&rest);
    let body_ok = body.len() as u64 == cfg.total_bytes
        && body
            .iter()
            .enumerate()
            .all(|(i, &b)| b == body_byte(i as u64));

    Ok(DownloadOutcome {
        choice: win.choice,
        probe_throughput: win.throughput,
        elapsed,
        throughput: cfg.total_bytes as f64 / elapsed.as_secs_f64(),
        body_ok,
        failovers,
    })
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
    /// Worker threads that died mid-transfer; their orphaned bytes were
    /// refetched by the repair pass.
    pub failovers: u32,
    /// Chunks completed per path, race-target order (direct first).
    pub chunk_counts: Vec<(ChosenPath, u64)>,
    /// Missing intervals the repair pass refetched over the direct
    /// path (0 on a clean run).
    pub repaired: u64,
}

/// mHTTP-style striped download over real sockets: race the probe as
/// in [`download`], then fetch the remainder as disjoint range chunks
/// pulled concurrently by one worker per path — each claiming the next
/// chunk from a shared [`ir_stripe::ChunkQueue`] (so fast paths
/// naturally carry more chunks) and landing bytes in a shared
/// [`ir_http::Reassembly`]. The probe winner's warm connection serves
/// its worker's chunks; other workers fetch each chunk on a fresh
/// connection. A worker whose path dies orphans at most its current
/// chunk: after all workers drain, any still-missing intervals are
/// refetched over the direct path, so a mid-transfer path death
/// degrades throughput without corrupting content.
pub fn download_striped(
    direct: SocketAddr,
    origin_for_relays: SocketAddr,
    relays: &[SocketAddr],
    chunks: u32,
    cfg: &ClientConfig,
) -> Result<StripedOutcome, RelayError> {
    use ir_core::partition;
    use ir_stripe::ChunkQueue;
    use std::sync::{Arc, Mutex};
    assert!(chunks >= 1, "zero chunks");
    let start = Instant::now();
    let win = probe_race(direct, origin_for_relays, relays, cfg)?;

    let mut reassembly = ir_http::Reassembly::new(cfg.total_bytes);
    reassembly
        .insert(0, &win.body)
        .map_err(|e| RelayError::BadResponse(e.to_string()))?;
    let shared = Arc::new(Mutex::new(reassembly));
    let queue = Arc::new(ChunkQueue::new(partition(
        cfg.probe_bytes,
        cfg.total_bytes - cfg.probe_bytes,
        chunks,
    )));

    let mut targets: Vec<(ChosenPath, SocketAddr)> = vec![(ChosenPath::Direct, direct)];
    for (i, &r) in relays.iter().enumerate() {
        targets.push((ChosenPath::Relay(i), r));
    }
    // The first chunk is reserved for the probe winner before any
    // worker spawns, so it deterministically rides the warm connection
    // (the racing client's remainder request, §2.1) instead of racing
    // the other workers for it.
    let first_chunk = queue.claim();
    let mut warm_conn = Some(win.conn);
    let mut workers = Vec::new();
    for (choice, addr) in targets {
        let queue = Arc::clone(&queue);
        let shared = Arc::clone(&shared);
        let path = cfg.path.clone();
        let timeout = cfg.timeout;
        // The probe winner's worker keeps the warm connection.
        let mut warm = if choice == win.choice {
            warm_conn.take()
        } else {
            None
        };
        let mut reserved = if choice == win.choice {
            first_chunk
        } else {
            None
        };
        workers.push(std::thread::spawn(move || {
            let mut done = 0u64;
            let mut failed = false;
            while let Some(chunk) = reserved.take().or_else(|| queue.claim()) {
                let range = ByteRange::FromTo(chunk.offset, chunk.end() - 1);
                let fetched = match warm.as_mut() {
                    Some(conn) => {
                        let req = probe_request(choice, origin_for_relays, &path, range);
                        match exchange(conn, &req) {
                            Ok((head, body)) if head.status == StatusCode::PARTIAL_CONTENT => {
                                Ok(body)
                            }
                            Ok((head, _)) => Err(RelayError::BadStatus(head.status.0)),
                            Err(e) => Err(e),
                        }
                    }
                    None => {
                        fetch_range_fresh(addr, choice, origin_for_relays, &path, range, timeout)
                    }
                };
                match fetched {
                    Ok(body) if body.len() as u64 == chunk.len => {
                        shared
                            .lock()
                            .unwrap()
                            .insert(chunk.offset, &body)
                            .expect("chunk scheduler produced overlapping ranges");
                        done += 1;
                    }
                    // The path died (or misdelivered): orphan the
                    // claimed chunk for the repair pass and stop
                    // claiming — the surviving workers keep draining.
                    _ => {
                        failed = true;
                        break;
                    }
                }
            }
            (choice, done, failed)
        }));
    }

    let mut failovers = 0u32;
    let mut chunk_counts = Vec::new();
    for w in workers {
        let (choice, done, failed) = w.join().expect("striped worker must not panic");
        if failed {
            failovers += 1;
        }
        chunk_counts.push((choice, done));
    }

    // Repair pass: whatever is still missing — orphaned chunks, or the
    // whole tail if every worker died — comes over the direct path.
    let missing = shared.lock().unwrap().missing();
    let repaired = missing.len() as u64;
    for (s, e) in missing {
        let body = fetch_range_fresh(
            direct,
            ChosenPath::Direct,
            origin_for_relays,
            &cfg.path,
            ByteRange::FromTo(s, e - 1),
            cfg.timeout,
        )?;
        if body.len() as u64 != e - s {
            return Err(RelayError::BadResponse(format!(
                "repair fetch of [{s}, {e}) returned {} bytes",
                body.len()
            )));
        }
        shared
            .lock()
            .unwrap()
            .insert(s, &body)
            .map_err(|e| RelayError::BadResponse(e.to_string()))?;
    }

    let elapsed = start.elapsed();
    let reassembly = Arc::try_unwrap(shared)
        .expect("every worker joined")
        .into_inner()
        .unwrap();
    let body = reassembly
        .into_body()
        .expect("repair pass left bytes missing");
    let body_ok = body.len() as u64 == cfg.total_bytes
        && body
            .iter()
            .enumerate()
            .all(|(i, &b)| b == body_byte(i as u64));
    Ok(StripedOutcome {
        elapsed,
        throughput: cfg.total_bytes as f64 / elapsed.as_secs_f64(),
        body_ok,
        failovers,
        chunk_counts,
        repaired,
    })
}

/// The §4 selection mechanism over real sockets: draw a uniform random
/// subset of `k` relays (seeded), race the probe over the subset + the
/// direct path, and download via the winner.
///
/// Returns the outcome plus the indices (into `relays`) of the subset
/// that was drawn, so callers can maintain utilization statistics. The
/// `ChosenPath::Relay(i)` index in the outcome refers to the *subset*
/// order; use the returned subset to map back.
pub fn download_with_subset(
    direct: SocketAddr,
    origin_for_relays: SocketAddr,
    relays: &[SocketAddr],
    k: usize,
    seed: u64,
    cfg: &ClientConfig,
) -> Result<(DownloadOutcome, Vec<usize>), RelayError> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    assert!(k > 0, "empty random set");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut subset: Vec<usize> = (0..relays.len()).collect();
    subset.shuffle(&mut rng);
    subset.truncate(k.min(relays.len()));
    subset.sort_unstable();
    let chosen_addrs: Vec<SocketAddr> = subset.iter().map(|&i| relays[i]).collect();
    let outcome = download(direct, origin_for_relays, &chosen_addrs, cfg)?;
    Ok((outcome, subset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::{OriginConfig, OriginServer};
    use crate::relayd::{Relay, RelayConfig};
    use crate::shaper::RateSchedule;

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
    fn download_with_subset_draws_k_and_succeeds() {
        let (direct, fast, relays) = world(
            200_000,
            100.0 * KB,
            &[60.0 * KB, 500.0 * KB, 80.0 * KB, 400.0 * KB],
        );
        let cfg = ClientConfig {
            path: "/f".into(),
            probe_bytes: 40_000,
            total_bytes: 200_000,
            timeout: Duration::from_secs(30),
        };
        let addrs: Vec<_> = relays.iter().map(|r| r.addr()).collect();
        let (out, subset) =
            download_with_subset(direct.addr(), fast.addr(), &addrs, 2, 42, &cfg).unwrap();
        assert_eq!(subset.len(), 2);
        assert!(subset.iter().all(|&i| i < addrs.len()));
        assert!(out.body_ok);
        // Whatever was chosen, the subset-relative index is valid.
        if let ChosenPath::Relay(i) = out.choice {
            assert!(i < subset.len());
        }
        // Determinism of the draw.
        let (_, subset2) =
            download_with_subset(direct.addr(), fast.addr(), &addrs, 2, 42, &cfg).unwrap();
        assert_eq!(subset, subset2);
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
