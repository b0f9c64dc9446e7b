//! The socket fetch engine: [`ir_core::Transport`] over real sockets.
//!
//! This is the only client-side code in the crate that dials a path,
//! writes a range request, reads and validates the response, pools the
//! warm connection and shuts a loser down. The session runner
//! (`ir_core::run_paths_session` / `run_selecting`) drives it through
//! the [`Transport`] trait — `begin` is a genuine TCP connection and
//! HTTP range request, `race` blocks on wall-clock completions,
//! `begin_warm` reuses the winning probe's keep-alive connection — and
//! [`crate::client`]'s downloads through the same handles plus
//! [`RealTransport::fetch`], which names the byte offset.
//!
//! Bodies land in one [`Reassembly`] the engine owns, when the caller
//! *accepts* a transfer (it wins a `race`, or `finish` returns it);
//! a cancelled loser's bytes never do. One protocol, two transports:
//! `tests/session_over_sockets.rs` runs the studies' runner over this.

use crate::error::RelayError;
use crate::wire::fetch_range;
use ir_core::{Handle, PathSpec, RaceWin, Timing, Transport};
use ir_http::{via_proxy, ByteRange, Reassembly, Request};
use ir_simnet::time::{SimDuration, SimTime};
use ir_simnet::topology::NodeId;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

struct Slot {
    path: PathSpec,
    /// Offset of the transfer's first byte in the resource.
    offset: u64,
    /// Completion buffer (thread writes, `race` reads).
    result: Option<Result<Timing, RelayError>>,
    /// The validated body, until the transfer is accepted.
    body: Vec<u8>,
    /// The transfer's socket: a clone while in flight (for `cancel`),
    /// the connection itself once it succeeded (for warm reuse).
    conn: Option<TcpStream>,
    /// Cancelled by the session.
    cancelled: bool,
    /// The transfer itself, while it waits to be started.
    deferred: Option<Job>,
}

/// A transfer with everything it needs to run, on a thread of its own
/// or on the caller's.
struct Job {
    idx: usize,
    addr: SocketAddr,
    request: Request,
    bytes: u64,
    /// A connection to reuse instead of dialling `addr`.
    warm: Option<TcpStream>,
}

struct Shared {
    slots: Mutex<Vec<Slot>>,
    cv: Condvar,
    /// Zero of the engine's clock.
    epoch: Instant,
    /// Per-transfer socket timeout.
    timeout: Duration,
}

impl Shared {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn slots(&self) -> MutexGuard<'_, Vec<Slot>> {
        // Poisoned only if a transfer thread panicked mid-update.
        self.slots.lock().expect("slot table poisoned")
    }
}

/// A [`Transport`] whose transfers are real HTTP range requests over
/// real TCP connections.
pub struct RealTransport {
    /// Origin address over the client's direct path.
    direct: SocketAddr,
    /// Origin address relays dial.
    origin_for_relays: SocketAddr,
    /// Relay addresses; relay `i` is node `2 + i`.
    relays: Vec<SocketAddr>,
    /// Resource path on the origin.
    path: String,
    shared: Arc<Shared>,
    /// Next range offset per path (probe consumed `[0, x)` → remainder
    /// starts at `x`).
    next_offset: HashMap<PathSpec, u64>,
    /// Idle keep-alive connections per path, for warm reuse.
    idle: HashMap<PathSpec, TcpStream>,
    /// Every accepted body, by offset.
    reassembly: Reassembly,
    /// Why the last `race`/`finish` returned `None`.
    error: Option<RelayError>,
}

impl Job {
    fn spawn(self, shared: &Arc<Shared>) {
        let shared = shared.clone();
        std::thread::spawn(move || self.run(&shared));
    }

    /// Dials (or reuses), fetches, validates, and writes the outcome to
    /// the slot.
    fn run(self, shared: &Shared) {
        let (idx, bytes, started) = (self.idx, self.bytes, shared.now());
        let run = || -> Result<(TcpStream, Vec<u8>), RelayError> {
            let mut conn = match self.warm {
                Some(c) => c,
                None => {
                    let c = TcpStream::connect_timeout(&self.addr, shared.timeout)?;
                    c.set_nodelay(true)?;
                    c
                }
            };
            conn.set_read_timeout(Some(shared.timeout))?;
            // Publishing the socket and checking `cancelled` under one
            // lock: a cancel that came first is seen here, one that
            // comes later finds the socket to shut down.
            {
                let mut slots = shared.slots();
                if slots[idx].cancelled {
                    return Err(RelayError::Timeout);
                }
                slots[idx].conn = Some(conn.try_clone()?);
            }
            let body = fetch_range(&mut conn, &self.request, bytes)?;
            Ok((conn, body))
        };
        let outcome = run();
        let finished = shared.now();
        let mut slots = shared.slots();
        let slot = &mut slots[idx];
        match outcome {
            Ok((conn, body)) => {
                (slot.conn, slot.body) = (Some(conn), body);
                let timing = Timing {
                    started,
                    finished,
                    bytes,
                };
                slot.result = Some(Ok(timing));
            }
            Err(e) => (slot.conn, slot.result) = (None, Some(Err(e))),
        }
        shared.cv.notify_all();
    }
}

impl RealTransport {
    /// Builds an engine for a one-hop star on loopback — node ids 0 and
    /// 1 are the client and server, relay `i` is node `2 + i` — that
    /// fetches the `total_bytes` of `path`, and the path roster over it:
    /// the direct path, then one path per relay.
    pub fn star(
        direct: SocketAddr,
        origin_for_relays: SocketAddr,
        relays: &[SocketAddr],
        path: &str,
        total_bytes: u64,
        timeout: Duration,
    ) -> (Self, Vec<PathSpec>) {
        let (client, server) = (NodeId(0), NodeId(1));
        let via = |i| PathSpec::indirect(client, server, NodeId(2 + i as u32));
        let paths = std::iter::once(PathSpec::direct(client, server))
            .chain((0..relays.len()).map(via))
            .collect();
        let transport = RealTransport {
            direct,
            origin_for_relays,
            relays: relays.to_vec(),
            path: path.into(),
            shared: Arc::new(Shared {
                slots: Mutex::new(Vec::new()),
                cv: Condvar::new(),
                epoch: Instant::now(),
                timeout,
            }),
            next_offset: HashMap::new(),
            idle: HashMap::new(),
            reassembly: Reassembly::new(total_bytes),
            error: None,
        };
        (transport, paths)
    }

    /// [`RealTransport::star`] over a [`crate::harness::MiniPlanetLab`].
    pub fn for_lab(lab: &crate::harness::MiniPlanetLab) -> (Self, Vec<PathSpec>) {
        RealTransport::star(
            lab.direct_addr(),
            lab.origin_for_relays(),
            &lab.relay_addrs(),
            "/file.bin",
            lab.content_len,
            Duration::from_secs(60),
        )
    }

    /// Where `path` is dialled and what is asked of it; an error for a
    /// path [`Transport::resolvable`] rejects.
    fn request_for(
        &self,
        path: &PathSpec,
        range: ByteRange,
    ) -> Result<(SocketAddr, Request), RelayError> {
        let unknown = || {
            let why = format!("no socket route for {path}");
            RelayError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, why))
        };
        let (addr, request) = match path.hops() {
            [] => (
                self.direct,
                Request::get(self.path.clone()).with_header("Host", "origin"),
            ),
            [via] => {
                let relay = self.relays.get((via.0 as usize).wrapping_sub(2));
                let o = self.origin_for_relays;
                (
                    *relay.ok_or_else(unknown)?,
                    via_proxy(&o.ip().to_string(), o.port(), &self.path),
                )
            }
            _ => return Err(unknown()),
        };
        Ok((addr, request.with_header("Range", range.to_string())))
    }

    /// A transfer of `[offset, offset + bytes)` over `path`, on the
    /// path's idle keep-alive connection when there is one. It starts
    /// when it is first waited on.
    pub fn fetch(&mut self, path: &PathSpec, offset: u64, bytes: u64) -> Handle {
        let warm = self.idle.remove(path);
        self.launch(path, offset, bytes, warm, true)
    }

    /// Creates a transfer's slot and job: started at once on its own
    /// thread, or deferred until first waited on ([`Transport::race`]).
    fn launch(
        &mut self,
        path: &PathSpec,
        offset: u64,
        bytes: u64,
        warm: Option<TcpStream>,
        defer: bool,
    ) -> Handle {
        // Track where the next warm request on this path should start.
        self.next_offset.insert(*path, offset + bytes);
        let last = (offset + bytes).saturating_sub(1);
        let target = self.request_for(path, ByteRange::FromTo(offset, last));
        let mut slots = self.shared.slots();
        let idx = slots.len();
        slots.push(Slot {
            path: *path,
            offset,
            result: None,
            body: Vec::new(),
            conn: None,
            cancelled: false,
            deferred: None,
        });
        match target {
            Err(e) => slots[idx].result = Some(Err(e)),
            Ok((addr, request)) => {
                let job = Job {
                    idx,
                    addr,
                    request,
                    bytes,
                    warm,
                };
                if defer {
                    slots[idx].deferred = Some(job);
                } else {
                    job.spawn(&self.shared);
                }
            }
        }
        Handle(idx as u64)
    }

    /// Why the last [`Transport::race`] or [`Transport::finish`] came
    /// back empty: the last waited-on path's error when every one of
    /// them failed, [`RelayError::Timeout`] when the horizon passed.
    pub fn take_error(&mut self) -> RelayError {
        self.error.take().unwrap_or(RelayError::Timeout)
    }

    /// The intervals of the resource no accepted transfer has covered.
    pub fn missing(&self) -> Vec<(u64, u64)> {
        self.reassembly.missing()
    }

    /// Takes the reassembled resource out, or `None` while bytes are
    /// missing. The engine stays up: dropping it closes the pooled
    /// connections, which wakes the relay and origin behind them, and
    /// a caller with work left (verifying the body) does that first.
    pub fn take_body(&mut self) -> Option<Vec<u8>> {
        std::mem::replace(&mut self.reassembly, Reassembly::new(0)).into_body()
    }
}

impl Transport for RealTransport {
    fn now(&self) -> SimTime {
        self.shared.now()
    }

    fn begin(&mut self, path: &PathSpec, bytes: u64) -> Handle {
        self.launch(path, 0, bytes, None, false)
    }

    fn resolvable(&self, path: &PathSpec) -> bool {
        // A socket relay splices exactly one proxy hop: direct always
        // works, one known relay works, longer chains never do.
        self.request_for(path, ByteRange::From(0)).is_ok()
    }

    fn begin_warm(&mut self, path: &PathSpec, bytes: u64) -> Handle {
        let offset = self.next_offset.get(path).copied().unwrap_or(0);
        self.fetch(path, offset, bytes)
    }

    /// Returns as soon as one of `handles` has delivered or every one
    /// of them has failed: a failed path drops out of the race, and
    /// nobody waits out the horizon for the dead. A deferred transfer
    /// among `handles` starts here — beside others on its own thread,
    /// alone on the caller's: a remainder costs no thread or hand-off.
    fn race(&mut self, handles: &[Handle], horizon: SimDuration) -> Option<RaceWin> {
        let deadline = Instant::now() + Duration::from_secs_f64(horizon.as_secs_f64());
        let mut slots = self.shared.slots();
        let take = |h: &Handle| slots[h.0 as usize].deferred.take();
        let deferred: Vec<Job> = handles.iter().filter_map(take).collect();
        drop(slots);
        for job in deferred {
            match handles {
                [_] => job.run(&self.shared),
                _ => job.spawn(&self.shared),
            }
        }
        let mut slots = self.shared.slots();
        let (index, timing) = loop {
            let delivered = handles.iter().enumerate().find_map(|(index, h)| {
                match slots[h.0 as usize].result {
                    Some(Ok(timing)) => Some((index, timing)),
                    _ => None,
                }
            });
            if let Some((index, timing)) = delivered {
                let slot = &mut slots[handles[index].0 as usize];
                // Accepted: the connection goes to the warm pool, the
                // body to the reassembly — unless an earlier transfer
                // delivered those bytes: every probe carries `[0, x)`, a
                // control the whole file, and a duplicate is dropped.
                if let Some(conn) = slot.conn.take() {
                    self.idle.insert(slot.path, conn);
                }
                let _ = self
                    .reassembly
                    .insert(slot.offset, &std::mem::take(&mut slot.body));
                break (index, timing);
            }
            let now = Instant::now();
            let failed = |h: &Handle| slots[h.0 as usize].result.is_some();
            if now >= deadline || handles.iter().all(failed) {
                // A path error is reported only while the deadline has
                // not passed: each path's read timeout is the race's,
                // started a connect later, so a late wake-up can find
                // them all expired — that is the deadline passing.
                self.error = handles.last().filter(|_| now < deadline).and_then(|h| {
                    let failure = slots[h.0 as usize].result.as_mut()?.as_mut().err()?;
                    Some(std::mem::replace(failure, RelayError::Timeout))
                });
                return None;
            }
            // Poisoned only if a transfer thread panicked mid-update.
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(slots, deadline - now)
                .expect("slot table poisoned");
            slots = guard;
        };
        Some(RaceWin { index, timing })
    }

    fn finish(&mut self, handle: Handle, horizon: SimDuration) -> Option<Timing> {
        self.race(&[handle], horizon).map(|win| win.timing)
    }

    /// Also how a race's winner closes the losers: the session cancels
    /// them, and a loser parked on a slow path is rid of its socket at
    /// once instead of when the probe finally drains.
    fn cancel(&mut self, handle: Handle) {
        let mut slots = self.shared.slots();
        let slot = &mut slots[handle.0 as usize];
        slot.cancelled = true;
        if slot.deferred.take().is_some() {
            slot.result = Some(Err(RelayError::Timeout));
        }
        if let Some(conn) = slot.conn.take() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{HarnessSpec, MiniPlanetLab};
    use crate::shaper::RateSchedule;
    use ir_core::{run_paths_session, FirstPortion, SessionConfig};

    const KB: f64 = 1000.0;

    #[test]
    fn run_session_over_real_sockets_picks_fast_relay() {
        let lab = MiniPlanetLab::start(HarnessSpec {
            content_len: 400_000,
            direct: RateSchedule::constant(150.0 * KB),
            relays: vec![RateSchedule::constant(800.0 * KB)],
        })
        .unwrap();
        let (mut transport, paths) = RealTransport::for_lab(&lab);
        let cfg = SessionConfig {
            probe_bytes: 50_000,
            file_bytes: 400_000,
            probe_mode: ir_core::ProbeMode::FirstToFinish,
            control: ir_core::ControlMode::Concurrent,
            horizon: ir_simnet::time::SimDuration::from_secs(60),
            failover: None,
            engine: ir_simnet::sim::EngineMode::Incremental,
            mode: ir_core::SessionMode::Racing,
        };
        let (rec, _) = run_paths_session(
            &mut transport,
            &mut FirstPortion,
            paths[0],
            &paths[1..],
            0,
            &cfg,
            None,
        );
        assert!(rec.chose_indirect(), "fast relay not chosen: {rec:?}");
        assert!(
            rec.improvement() > 0.5,
            "expected a real improvement, got {:+.1}%",
            rec.improvement_pct()
        );
        assert!(!rec.probe_timeout);
    }

    #[test]
    fn run_session_over_real_sockets_keeps_fast_direct() {
        let lab = MiniPlanetLab::start(HarnessSpec {
            content_len: 300_000,
            direct: RateSchedule::constant(900.0 * KB),
            relays: vec![RateSchedule::constant(100.0 * KB)],
        })
        .unwrap();
        let (mut transport, paths) = RealTransport::for_lab(&lab);
        let cfg = SessionConfig {
            probe_bytes: 50_000,
            file_bytes: 300_000,
            probe_mode: ir_core::ProbeMode::FirstToFinish,
            control: ir_core::ControlMode::Concurrent,
            horizon: ir_simnet::time::SimDuration::from_secs(60),
            failover: None,
            engine: ir_simnet::sim::EngineMode::Incremental,
            mode: ir_core::SessionMode::Racing,
        };
        let (rec, _) = run_paths_session(
            &mut transport,
            &mut FirstPortion,
            paths[0],
            &paths[1..],
            0,
            &cfg,
            None,
        );
        assert!(!rec.chose_indirect(), "slow relay chosen: {rec:?}");
    }

    /// A path the engine has no socket route for is unresolvable, and
    /// a transfer begun on it anyway is a typed failure, not a panic.
    #[test]
    fn unknown_relay_and_chains_fail_typed() {
        let lab = MiniPlanetLab::start(HarnessSpec {
            content_len: 50_000,
            direct: RateSchedule::constant(900.0 * KB),
            relays: vec![RateSchedule::constant(900.0 * KB)],
        })
        .unwrap();
        let (mut transport, paths) = RealTransport::for_lab(&lab);
        let (client, server) = (paths[0].client, paths[0].server);
        let stranger = PathSpec::indirect(client, server, NodeId(99));
        let chain = PathSpec::chain(client, server, &[NodeId(2), NodeId(99)]);
        assert!(transport.resolvable(&paths[1]));
        for path in [stranger, chain] {
            assert!(!transport.resolvable(&path), "{path}");
            let h = transport.begin(&path, 1_000);
            let t0 = Instant::now();
            assert!(transport.finish(h, SimDuration::from_secs(30)).is_none());
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "waited out the horizon"
            );
            assert!(matches!(transport.take_error(), RelayError::Io(_)));
        }
    }
}
