//! The socket fetch engine: [`ir_core::Transport`] over real sockets.
//!
//! This is the only client-side code in the crate that dials a path,
//! writes a range request, reads and validates the response, pools the
//! warm connection and shuts a loser down. The session runner
//! (`ir_core::run_paths_session` / `run_selecting`) drives it through
//! the [`Transport`] trait, and so do all of [`crate::client`]'s
//! downloads: `begin` is a TCP connection and a request for the range
//! the session names, `begin_warm` the same on the path's keep-alive
//! connection, `race` and `finish` wait on wall-clock completions, and
//! `failed` reports a path error the moment it happens.
//!
//! A transfer is a non-blocking socket and a state machine (dial, send,
//! head, body) moved by one `poll` loop on the caller's thread: whichever
//! handles it waits on, every live transfer advances — a control begun
//! before a probe race keeps downloading through it. No transfer holds a
//! thread, and dropping the engine closes its sockets. Bodies land in one
//! [`Reassembly`] the engine owns: whole when a transfer completes, and
//! the first `progress(h)` bytes when it is cancelled or fails. One
//! protocol, two transports: `tests/session_over_sockets.rs` runs the
//! studies' runner over this.
//!
//! A transfer whose range no other live transfer shares — the bulk
//! remainder — reads straight into the reassembly's final buffer and
//! commits there; one that shares it (the probes, which all ask for
//! `[0, x)`) reads into a buffer of its own and lands in what is still
//! missing. Either way the first bytes to land are the ones kept.

use crate::error::RelayError;
use crate::poller::{connect_errno, connect_nonblocking, poll_fds, Dial, PollFd, POLLIN, POLLOUT};
use bytes::BytesMut;
use ir_core::{Handle, PathSpec, RaceWin, Timing, Transport};
use ir_http::{encode_request, parse_response, via_proxy, ByteRange, HttpError, Parsed};
use ir_http::{Reassembly, Request, StatusCode};
use ir_simnet::time::{SimDuration, SimTime};
use ir_simnet::topology::NodeId;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::mem;
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Where a transfer is; each live stage waits on its socket.
enum Stage {
    /// The non-blocking connect is in flight.
    Dial,
    /// The request is going out; this much of it has.
    Send(usize),
    /// The response head, as it arrives.
    Head(Vec<u8>),
    /// The body; this much of it has arrived. With no buffer of its
    /// own (`None`) it is read in place, into the reassembly's vacant
    /// window at the transfer's range, and committed when the transfer
    /// ends; with one, it lands where the reassembly still misses it.
    /// Which one is decided at the head: in place only if the range is
    /// vacant and no other live transfer's range overlaps it.
    Body(Option<Vec<u8>>, usize),
    /// Delivered: the body is in the reassembly.
    Done,
    /// Failed or cancelled: the socket is closed, and this many body
    /// bytes went to the reassembly.
    Failed(RelayError, u64),
}

struct Slot {
    path: PathSpec,
    /// Offset of the transfer's first byte in the resource.
    offset: u64,
    /// Start and size; the finish is stamped on delivery.
    timing: Timing,
    stage: Stage,
    /// The transfer's socket, kept after delivery for warm reuse.
    conn: Option<TcpStream>,
    /// The encoded request.
    request: BytesMut,
    /// When the socket was last ready.
    moved: Instant,
}

impl Slot {
    /// Neither delivered nor failed.
    fn live(&self) -> bool {
        !matches!(self.stage, Stage::Done | Stage::Failed(..))
    }

    /// Whether the transfer's range meets `[from, to)`.
    fn overlaps(&self, from: u64, to: u64) -> bool {
        self.offset < to && from < self.offset + self.timing.bytes
    }

    /// What the transfer's socket is polled for while it is live.
    fn poll_fd(&self) -> Option<PollFd> {
        let events = match self.stage {
            Stage::Dial | Stage::Send(_) => POLLOUT,
            Stage::Head(_) | Stage::Body(..) => POLLIN,
            Stage::Done | Stage::Failed(..) => return None,
        };
        Some(PollFd::new(self.conn.as_ref()?.as_raw_fd(), events))
    }

    /// Moves the transfer as far as its socket goes without blocking —
    /// a readable socket is read until it would block — and on delivery
    /// stamps `now` and lands the body in `into`. `alone` says, when the
    /// head has arrived, whether no other live transfer's range meets
    /// this one's. On an error the caller fails the path.
    fn step(
        &mut self,
        now: SimTime,
        into: &mut Reassembly,
        alone: impl Fn(u64, u64) -> bool,
    ) -> Result<(), RelayError> {
        let Some(conn) = &mut self.conn else {
            return Ok(());
        };
        let (offset, len) = (self.offset, self.timing.bytes as usize);
        loop {
            let moved = match &mut self.stage {
                Stage::Dial => connect_errno(conn).map(|()| 1),
                Stage::Send(sent) => conn.write(&self.request[*sent..]).inspect(|n| *sent += n),
                Stage::Head(head) => {
                    let mut got = [0u8; 4096];
                    conn.read(&mut got).inspect(|&n| head.extend(&got[..n]))
                }
                Stage::Body(_, got) if *got == len => Ok(1), // came with the head
                Stage::Body(Some(own), got) => conn.read(&mut own[*got..]).inspect(|n| *got += n),
                Stage::Body(None, got) => {
                    let at = offset + *got as u64;
                    // Vacant while the transfer lives: a launch over it
                    // gives the transfer a buffer of its own first.
                    let window = into.vacant_mut(at, (len - *got) as u64).ok_or_else(|| {
                        io::Error::other(format!("reassembly window at {at} taken in flight"))
                    })?;
                    conn.read(window).inspect(|n| *got += n)
                }
                Stage::Done | Stage::Failed(..) => return Ok(()),
            };
            match moved {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Ok(0) => return Err(RelayError::Http(HttpError::UnexpectedEof)),
                moved => moved?,
            };
            match &mut self.stage {
                Stage::Dial => self.stage = Stage::Send(0),
                Stage::Send(sent) if *sent == self.request.len() => {
                    self.stage = Stage::Head(Vec::new())
                }
                Stage::Head(head) => {
                    let Parsed::Complete { value, consumed } = parse_response(head)? else {
                        continue;
                    };
                    // The one validation rule: `206` and exactly the
                    // bytes asked for, or the path has failed.
                    if value.status != StatusCode::PARTIAL_CONTENT {
                        return Err(RelayError::BadStatus(value.status.0));
                    }
                    let (claimed, bytes) = (value.headers.content_length()?, self.timing.bytes);
                    if claimed != Some(bytes) {
                        let why = format!("asked for {bytes} bytes, Content-Length {claimed:?}");
                        return Err(RelayError::BadResponse(why));
                    }
                    let mut own = None;
                    let body = match into.vacant_mut(offset, bytes) {
                        Some(window) if alone(offset, offset + bytes) => window,
                        _ => own.insert(vec![0u8; len]),
                    };
                    let early = &head[consumed..];
                    let n = early.len().min(len);
                    body[..n].copy_from_slice(&early[..n]);
                    self.stage = Stage::Body(own, n);
                }
                Stage::Body(own, got) if *got == len => {
                    match own {
                        Some(body) => land(into, offset, body),
                        None => keep(into, offset, len),
                    };
                    (self.timing.finished, self.stage) = (now, Stage::Done);
                }
                _ => {}
            }
        }
    }

    /// Ends the transfer where it stands: the socket closes, and the
    /// body bytes read so far land in `into`, so `progress` stays put.
    fn fail(&mut self, e: RelayError, into: &mut Reassembly) {
        let kept = match mem::replace(&mut self.stage, Stage::Dial) {
            Stage::Body(Some(body), got) => land(into, self.offset, &body[..got]),
            Stage::Body(None, got) => keep(into, self.offset, got),
            Stage::Done => self.timing.bytes,
            Stage::Failed(_, kept) => kept,
            _ => 0,
        };
        (self.conn, self.stage) = (None, Stage::Failed(e, kept));
    }

    /// Gives an in-place transfer a buffer of its own, holding the
    /// prefix it has read; its window stays vacant.
    fn demote(&mut self, from: &mut Reassembly) {
        if let Stage::Body(own @ None, got) = &mut self.stage {
            let mut body = vec![0u8; self.timing.bytes as usize];
            if let Some(read) = from.vacant_mut(self.offset, *got as u64) {
                body[..*got].copy_from_slice(read);
            }
            *own = Some(body);
        }
    }
}

/// Lands `body`, the bytes at `offset`, wherever `into` still misses
/// them, and returns its length. Every transfer reads the same resource:
/// a byte that came twice (each probe carries `[0, x)`) is already there.
fn land(into: &mut Reassembly, offset: u64, body: &[u8]) -> u64 {
    let end = offset + body.len() as u64;
    for (from, to) in into.missing() {
        let (from, to) = (from.max(offset), to.min(end));
        if from < to {
            let part = &body[(from - offset) as usize..(to - offset) as usize];
            let _ = into.insert(from, part); // cannot fail: `part` is missing
        }
    }
    body.len() as u64
}

/// Whether no live transfer among `others` meets `[from, to)`.
fn no_live_overlap(others: &[Slot], from: u64, to: u64) -> bool {
    others.iter().all(|o| !o.live() || !o.overlaps(from, to))
}

/// Commits the `len` bytes an in-place transfer read at `offset`, and
/// returns their count.
fn keep(into: &mut Reassembly, offset: u64, len: usize) -> u64 {
    let _ = into.commit(offset, len as u64); // cannot fail: the window was vacant
    len as u64
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
    /// Every transfer begun, by handle.
    slots: Vec<Slot>,
    /// Zero of the engine's clock.
    epoch: Instant,
    /// Silence after which a transfer's path fails.
    timeout: Duration,
    /// Idle keep-alive connections per path, for warm reuse.
    idle: HashMap<PathSpec, TcpStream>,
    /// Every body delivered, whole or in part, by offset.
    reassembly: Reassembly,
    /// Why the last `race`/`finish` returned `None`.
    error: Option<RelayError>,
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
            slots: Vec::new(),
            epoch: Instant::now(),
            timeout,
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

    /// Creates the slot of a transfer of `[from, from + len)` and starts
    /// it at once: dials the path, or writes the request on `warm`.
    fn launch(&mut self, path: &PathSpec, from: u64, len: u64, warm: Option<TcpStream>) -> Handle {
        let started = self.now();
        // A live transfer reading this range in place moves to a buffer
        // of its own, so whichever of the two ends first lands first.
        for other in &mut self.slots {
            if other.live() && other.overlaps(from, from + len) {
                other.demote(&mut self.reassembly);
            }
        }
        let mut slot = Slot {
            path: *path,
            offset: from,
            timing: Timing {
                started,
                finished: started,
                bytes: len,
            },
            stage: Stage::Dial,
            conn: None,
            request: BytesMut::new(),
            moved: Instant::now(),
        };
        let last = (from + len).saturating_sub(1);
        let target = self.request_for(path, ByteRange::FromTo(from, last));
        let dialled = target.and_then(|(addr, request)| {
            encode_request(&request, &mut slot.request);
            let (conn, stage) = match warm {
                Some(conn) => (conn, Stage::Send(0)),
                None => match connect_nonblocking(&addr)? {
                    Dial::Ready(conn) => (conn, Stage::Send(0)),
                    Dial::Pending(conn) => (conn, Stage::Dial),
                },
            };
            conn.set_nodelay(true)?;
            (slot.conn, slot.stage) = (Some(conn), stage);
            // A connected socket takes its request at once.
            match slot.stage {
                Stage::Dial => Ok(()),
                _ => slot.step(started, &mut self.reassembly, |a, b| {
                    no_live_overlap(&self.slots, a, b)
                }),
            }
        });
        if let Err(e) = dialled {
            slot.fail(e, &mut self.reassembly);
        }
        self.slots.push(slot);
        Handle(self.slots.len() as u64 - 1)
    }

    /// Waits until a live transfer's socket is ready, or `deadline`, and
    /// moves every ready one. A transfer silent for the engine's timeout,
    /// counted from `since` (the wait's start) at the earliest, fails.
    fn turn(&mut self, since: Instant, deadline: Instant) {
        let (live, mut fds): (Vec<usize>, Vec<PollFd>) = (self.slots.iter().enumerate())
            .filter_map(|(i, slot)| Some((i, slot.poll_fd()?)))
            .unzip();
        let stall = |slot: &Slot| slot.moved.max(since) + self.timeout;
        let wake = (live.iter()).fold(deadline, |t, &i| t.min(stall(&self.slots[i])));
        let polled = poll_fds(&mut fds, wake.saturating_duration_since(Instant::now()));
        let (now, at) = (Instant::now(), self.now());
        for (&i, fd) in live.iter().zip(&fds) {
            let (before, rest) = self.slots.split_at_mut(i);
            let Some((slot, after)) = rest.split_first_mut() else {
                continue;
            };
            let into = &mut self.reassembly;
            let alone = |a, b| no_live_overlap(before, a, b) && no_live_overlap(after, a, b);
            if let Err(e) = &polled {
                slot.fail(io::Error::from(e.kind()).into(), into);
            } else if fd.is_ready() {
                slot.moved = now;
                slot.step(at, into, alone)
                    .unwrap_or_else(|e| slot.fail(e, into));
            } else if now >= stall(slot) {
                slot.fail(io::Error::from(io::ErrorKind::TimedOut).into(), into);
            }
        }
    }

    /// Why the last [`Transport::race`] or [`Transport::finish`] came
    /// back empty: the last waited-on path's error when every one of
    /// them failed, [`RelayError::Timeout`] when the horizon passed.
    pub fn take_error(&mut self) -> RelayError {
        self.error.take().unwrap_or(RelayError::Timeout)
    }

    /// Takes the reassembled resource out, or `None` while bytes are
    /// missing. The engine stays up: dropping it closes the pooled
    /// connections, which wakes the relay and origin behind them, and
    /// a caller with work left (verifying the body) does that first.
    pub fn take_body(&mut self) -> Option<Vec<u8>> {
        mem::replace(&mut self.reassembly, Reassembly::new(0)).into_body()
    }
}

impl Transport for RealTransport {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn begin(&mut self, path: &PathSpec, offset: u64, bytes: u64) -> Handle {
        self.launch(path, offset, bytes, None)
    }

    fn resolvable(&self, path: &PathSpec) -> bool {
        // A socket relay splices exactly one proxy hop: direct always
        // works, one known relay works, longer chains never do.
        self.request_for(path, ByteRange::From(0)).is_ok()
    }

    /// On the path's pooled keep-alive connection, or a fresh dial.
    fn begin_warm(&mut self, path: &PathSpec, offset: u64, bytes: u64) -> Handle {
        let warm = self.idle.remove(path);
        self.launch(path, offset, bytes, warm)
    }

    /// Returns as soon as one of `handles` has delivered or every one
    /// of them has failed: a failed path drops out of the race, and
    /// nobody waits out the horizon for the dead. Every live transfer
    /// moves while it waits, waited on or not.
    fn race(&mut self, handles: &[Handle], horizon: SimDuration) -> Option<RaceWin> {
        let since = Instant::now();
        let deadline = since + Duration::from_secs_f64(horizon.as_secs_f64());
        loop {
            let done = |h: &Handle| matches!(self.slots[h.0 as usize].stage, Stage::Done);
            if let Some(index) = handles.iter().position(done) {
                let slot = &mut self.slots[handles[index].0 as usize];
                // Accepted: the connection goes to the warm pool.
                if let Some(conn) = slot.conn.take() {
                    self.idle.insert(slot.path, conn);
                }
                return Some(RaceWin {
                    index,
                    timing: slot.timing,
                });
            }
            let now = Instant::now();
            if now >= deadline || handles.iter().all(|&h| self.failed(h)) {
                // A path error counts only before the deadline: silence is
                // timed from the wait's start, so a horizon-long stall is
                // the deadline passing.
                self.error = match handles.last().map(|h| &mut self.slots[h.0 as usize].stage) {
                    Some(Stage::Failed(e, _)) if now < deadline => {
                        Some(mem::replace(e, RelayError::Timeout))
                    }
                    _ => None,
                };
                return None;
            }
            self.turn(since, deadline);
        }
    }

    fn finish(&mut self, handle: Handle, horizon: SimDuration) -> Option<Timing> {
        self.race(&[handle], horizon).map(|win| win.timing)
    }

    /// Also how a race's winner closes the losers: the session cancels
    /// them, and a loser parked on a slow path is rid of its socket at
    /// once instead of when the probe finally drains. The bytes it read
    /// stay in the reassembly.
    fn cancel(&mut self, handle: Handle) {
        self.slots[handle.0 as usize].fail(RelayError::Timeout, &mut self.reassembly);
    }

    /// Body bytes read so far (and, once it ended, kept).
    fn progress(&self, handle: Handle) -> u64 {
        let slot = &self.slots[handle.0 as usize];
        match &slot.stage {
            Stage::Body(_, got) => *got as u64,
            Stage::Done => slot.timing.bytes,
            Stage::Failed(_, kept) => *kept,
            _ => 0,
        }
    }

    /// Failed (a path error, or silence past the timeout) or cancelled.
    fn failed(&self, handle: Handle) -> bool {
        matches!(self.slots[handle.0 as usize].stage, Stage::Failed(..))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{HarnessSpec, MiniPlanetLab};
    use crate::origin::{body_byte, OriginConfig, OriginServer};
    use crate::shaper::RateSchedule;
    use ir_core::{run_paths_session, SessionConfig};

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
            horizon: ir_simnet::time::SimDuration::from_secs(60),
            failover: None,
            engine: ir_simnet::sim::EngineMode::Incremental,
            mode: ir_core::SessionMode::Racing,
        };
        let (rec, _) = run_paths_session(&mut transport, paths[0], &paths[1..], 0, &cfg, None);
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
            horizon: ir_simnet::time::SimDuration::from_secs(60),
            failover: None,
            engine: ir_simnet::sim::EngineMode::Incremental,
            mode: ir_core::SessionMode::Racing,
        };
        let (rec, _) = run_paths_session(&mut transport, paths[0], &paths[1..], 0, &cfg, None);
        assert!(!rec.chose_indirect(), "slow relay chosen: {rec:?}");
    }

    /// The concurrent control's contract, held by the loop: a transfer
    /// begun earlier moves while the caller waits on another one.
    #[test]
    fn a_begun_transfer_progresses_while_another_is_awaited() {
        let lab = MiniPlanetLab::start(HarnessSpec {
            content_len: 400_000,
            direct: RateSchedule::constant(150.0 * KB),
            relays: vec![RateSchedule::constant(800.0 * KB)],
        })
        .unwrap();
        let (mut transport, paths) = RealTransport::for_lab(&lab);
        let whole = transport.begin(&paths[0], 0, 400_000);
        let probe = transport.begin(&paths[1], 0, 50_000);
        assert!(transport
            .finish(probe, SimDuration::from_secs(30))
            .is_some());
        assert_eq!(transport.progress(probe), 50_000);
        let moved = transport.progress(whole);
        assert!(moved > 0 && moved < 400_000, "{moved}");
    }

    /// A cancelled transfer keeps exactly the bytes `progress` reports,
    /// so the rest, asked for from there, completes the file byte for
    /// byte — what the core remainders do when they give up on a path.
    #[test]
    fn a_cancelled_transfer_resumes_where_it_stopped() {
        // 50 KB/s for as long as the first transfer runs, then fast, so
        // the resumed range does not take nine more seconds.
        let rate = RateSchedule::piecewise(vec![
            (Duration::ZERO, 50.0 * KB),
            (Duration::from_millis(1_500), 5_000.0 * KB),
        ]);
        let origin = OriginServer::start(OriginConfig::new(500_000).shaped(rate)).unwrap();
        let a = origin.addr();
        let timeout = Duration::from_secs(30);
        let (mut transport, paths) = RealTransport::star(a, a, &[], "/f", 500_000, timeout);
        let h = transport.begin(&paths[0], 0, 500_000);
        assert!(transport.finish(h, SimDuration::from_secs(1)).is_none());
        let p = transport.progress(h);
        assert!(p > 0 && p < 500_000, "{p}");
        transport.cancel(h);
        assert_eq!(transport.progress(h), p, "cancel moved the progress");
        let rest = transport.begin(&paths[0], p, 500_000 - p);
        assert!(transport.finish(rest, SimDuration::from_secs(20)).is_some());
        let body = transport.take_body().expect("the two ranges make the file");
        assert!(body.iter().zip(0..).all(|(&b, i)| b == body_byte(i)));
    }

    /// A peer that takes one connection and answers its range request
    /// `206` with the length asked for, in bytes no content holds
    /// (`0xFF`): the head and the first 4 KiB at once, the rest once
    /// `release`d.
    struct Liar {
        addr: SocketAddr,
        go: std::sync::mpsc::Sender<()>,
        thread: std::thread::JoinHandle<()>,
    }

    impl Liar {
        fn start() -> Liar {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let (go, wait) = std::sync::mpsc::channel();
            let thread = std::thread::spawn(move || {
                let (mut conn, _) = listener.accept().unwrap();
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") && conn.read(&mut byte).unwrap() == 1 {
                    head.push(byte[0]);
                }
                let Ok(Parsed::Complete { value, .. }) = ir_http::parse_request(&head) else {
                    panic!("no request head");
                };
                let range = value.headers.get("Range").map(ByteRange::parse);
                let Some(Ok(ByteRange::FromTo(first, last))) = range else {
                    panic!("no range");
                };
                let len = (last - first + 1) as usize;
                let head = format!("HTTP/1.1 206 Partial Content\r\nContent-Length: {len}\r\n\r\n");
                conn.write_all(head.as_bytes()).unwrap();
                conn.write_all(&vec![0xFF; 4096]).unwrap();
                wait.recv().unwrap();
                let _ = conn.write_all(&vec![0xFF; len - 4096]); // fails if cancelled
            });
            Liar { addr, go, thread }
        }

        /// Sends the rest of the body; `then` runs while it goes out.
        fn release<T>(self, then: impl FnOnce() -> T) -> T {
            self.go.send(()).unwrap();
            let out = then();
            self.thread.join().unwrap();
            out
        }
    }

    /// An honest unshaped origin, and a liar as relay 0, both serving
    /// `[0, 200_000)`; paths are (honest, liar).
    fn honest_and_liar() -> (OriginServer, Liar, RealTransport, PathSpec, PathSpec) {
        let origin = OriginServer::start(OriginConfig::new(200_000)).unwrap();
        let (o, liar) = (origin.addr(), Liar::start());
        let timeout = Duration::from_secs(10);
        let (transport, paths) = RealTransport::star(o, o, &[liar.addr], "/f", 200_000, timeout);
        (origin, liar, transport, paths[0], paths[1])
    }

    /// Waits until `h` is mid-body, and returns its progress.
    fn mid_body(transport: &mut RealTransport, h: Handle) -> u64 {
        while transport.progress(h) == 0 {
            assert!(transport.finish(h, SimDuration::from_millis(20)).is_none());
            assert!(!transport.failed(h));
        }
        transport.progress(h)
    }

    fn in_place(transport: &RealTransport, h: Handle) -> bool {
        matches!(transport.slots[h.0 as usize].stage, Stage::Body(None, _))
    }

    /// Two transfers of one range begun together: neither reads in
    /// place, the honest one finishes first, and its bytes are the ones
    /// kept when the liar finishes too.
    #[test]
    fn transfers_begun_together_keep_the_first_to_finish() {
        let (_origin, liar, mut transport, honest, lying) = honest_and_liar();
        let lie = transport.begin(&lying, 0, 200_000);
        let truth = transport.begin(&honest, 0, 200_000);
        assert!(transport
            .finish(truth, SimDuration::from_secs(10))
            .is_some());
        mid_body(&mut transport, lie);
        assert!(!in_place(&transport, lie));
        let lie_done = liar.release(|| transport.finish(lie, SimDuration::from_secs(10)));
        assert!(lie_done.is_some());
        assert!(crate::origin::is_body(0, &transport.take_body().unwrap()));
    }

    /// A transfer begun over one that is reading in place demotes it:
    /// the liar keeps its prefix in a buffer of its own and goes on,
    /// unharmed, to finish second; the honest bytes, landed first, stay.
    #[test]
    fn a_transfer_over_an_in_place_one_demotes_it() {
        let (_origin, liar, mut transport, honest, lying) = honest_and_liar();
        let lie = transport.begin(&lying, 0, 200_000);
        let read = mid_body(&mut transport, lie);
        assert!(in_place(&transport, lie));
        let truth = transport.begin(&honest, 0, 200_000);
        let Stage::Body(Some(own), got) = &transport.slots[lie.0 as usize].stage else {
            panic!("not demoted");
        };
        assert_eq!(*got as u64, read);
        assert!(own[..*got].iter().all(|&b| b == 0xFF));
        assert_eq!(
            transport.reassembly.received(),
            0,
            "the window was committed"
        );
        assert!(transport
            .finish(truth, SimDuration::from_secs(10))
            .is_some());
        let lie_done = liar.release(|| transport.finish(lie, SimDuration::from_secs(10)));
        assert!(lie_done.is_some(), "{:?}", transport.take_error());
        assert!(crate::origin::is_body(0, &transport.take_body().unwrap()));
    }

    /// Cancelled while reading in place, a transfer keeps exactly
    /// `progress` bytes: the rest from there completes the file.
    #[test]
    fn a_cancelled_in_place_transfer_keeps_its_progress() {
        let (_origin, liar, mut transport, honest, lying) = honest_and_liar();
        let lie = transport.begin(&lying, 0, 200_000);
        mid_body(&mut transport, lie);
        assert!(in_place(&transport, lie));
        transport.cancel(lie);
        liar.release(|| ());
        let p = transport.progress(lie);
        assert!(p > 0 && p < 200_000, "{p}");
        assert_eq!(transport.reassembly.received(), p);
        let rest = transport.begin(&honest, p, 200_000 - p);
        assert!(transport.finish(rest, SimDuration::from_secs(10)).is_some());
        let body = transport.take_body().unwrap();
        let (lied, told) = body.split_at(p as usize);
        assert!(lied.iter().all(|&b| b == 0xFF));
        assert!(crate::origin::is_body(p, told));
    }

    /// One origin, no relays: ranges at any offset.
    fn origin_only(total: u64) -> (OriginServer, RealTransport, PathSpec) {
        let origin = OriginServer::start(OriginConfig::new(5_000)).unwrap();
        let a = origin.addr();
        let timeout = Duration::from_secs(10);
        let (transport, paths) = RealTransport::star(a, a, &[], "/f", total, timeout);
        (origin, transport, paths[0])
    }

    #[test]
    fn exchange_round_trip() {
        let (_origin, mut transport, direct) = origin_only(100);
        let h = transport.begin(&direct, 0, 100);
        assert!(transport.finish(h, SimDuration::from_secs(10)).is_some());
        let body = transport.take_body().unwrap();
        assert_eq!(body.len(), 100);
        assert!(body
            .iter()
            .enumerate()
            .all(|(i, &b)| b == body_byte(i as u64)));
    }

    #[test]
    fn sequential_exchanges_on_one_connection() {
        let (origin, mut transport, direct) = origin_only(21);
        for k in 0..3u64 {
            let h = transport.begin_warm(&direct, k * 7, 7);
            let timing = transport.finish(h, SimDuration::from_secs(10)).unwrap();
            assert_eq!(timing.bytes, 7);
        }
        let body = transport.take_body().unwrap();
        for k in 0..3u64 {
            assert_eq!(body[k as usize * 7], body_byte(k * 7));
        }
        // Every range after the first rode the same warm connection.
        assert_eq!(origin.lifecycle().accepted, 1);
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
            let h = transport.begin(&path, 0, 1_000);
            let t0 = Instant::now();
            assert!(transport.finish(h, SimDuration::from_secs(30)).is_none());
            assert!(transport.failed(h), "{path}");
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "waited out the horizon"
            );
            assert!(matches!(transport.take_error(), RelayError::Io(_)));
        }
    }
}
