//! The relay daemon — the paper's "forwarding service on each
//! intermediate node".
//!
//! Accepts absolute-form HTTP requests, rewrites them to origin-form
//! (preserving `Range`), dials the origin, and streams the response
//! back to the client through this relay's rate shaper (the shaper is
//! the client→relay overlay-link bottleneck of the model).
//!
//! A daemon is one reactor thread: a `ppoll(2)` loop
//! ([`crate::poller`], DESIGN.md §15) over its listener and every
//! non-blocking socket it owns. Each accepted connection becomes a
//! `crate::conn::Conn` state machine on that thread, and splice buffers
//! come from a pool the thread owns; thousands of concurrent transfers
//! cost one thread. [`crate::OriginServer`] is this same daemon started
//! in the serve role: nothing in this file knows which role it runs.
//!
//! The daemon honours accept-side backpressure ([`RelayConfig::
//! with_max_connections`]), `kill()` crash semantics (sever every
//! splice, refuse new connections), and graceful [`Relay::drain`].

use crate::conn::{BufferPool, Conn, Lifecycle, LifecycleSnapshot, Role, Step, StepCtx};
use crate::poller::{
    accept_error_is_transient, poll_fds, wake_pipe, PollFd, WakeRx, Waker, POLLIN,
};
use crate::shaper::{RateSchedule, TokenBucket};
use bytes::BytesMut;
use ir_http::{encode_response, Response, StatusCode};
use ir_telemetry::trace::{Event, EventKind};
use ir_telemetry::Telemetry;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the daemon does with a connection beyond the limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Answer `503 Service Unavailable` (best effort) and close.
    Refuse,
    /// Park the socket in an accept-side queue until a slot frees;
    /// queue overflow falls back to refusing.
    Queue,
}

/// Relay configuration.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Shaping of the relay→client leg (the overlay link bottleneck).
    /// `None` = unshaped.
    pub rate: Option<RateSchedule>,
    /// Added delay before forwarding each request — emulates the
    /// client→relay leg's latency.
    pub latency: Duration,
    /// Observability handle shared with the rest of the process; `None`
    /// (the default) costs nothing. Events carry wall-clock
    /// microseconds since the daemon's start.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Concurrent-connection ceiling; `None` = unlimited.
    pub max_connections: Option<usize>,
    /// Policy for accepts beyond `max_connections`.
    pub backpressure: Backpressure,
    /// Progress deadline: a connection making no forward progress for
    /// this long is closed (half-open peers, stalled readers).
    pub idle_timeout: Duration,
}

impl RelayConfig {
    /// Unshaped relay.
    pub fn new() -> Self {
        RelayConfig {
            rate: None,
            latency: Duration::ZERO,
            telemetry: None,
            max_connections: None,
            backpressure: Backpressure::Refuse,
            idle_timeout: Duration::from_secs(30),
        }
    }

    /// Shaped relay.
    pub fn shaped(schedule: RateSchedule) -> Self {
        RelayConfig {
            rate: Some(schedule),
            ..RelayConfig::new()
        }
    }

    /// Adds per-request latency (overlay-leg propagation emulation).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// Attaches a telemetry handle.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Caps concurrent connections and sets the over-limit policy.
    pub fn with_max_connections(mut self, max: usize, policy: Backpressure) -> Self {
        self.max_connections = Some(max);
        self.backpressure = policy;
        self
    }

    /// Overrides the progress deadline.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }
}

impl Default for RelayConfig {
    fn default() -> Self {
        RelayConfig::new()
    }
}

/// Outcome of a graceful [`Relay::drain`].
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Active-connection samples taken while draining (~2 ms cadence,
    /// starting with the count at drain begin).
    pub samples: Vec<u64>,
    /// True when the active count never increased across samples.
    pub monotone: bool,
    /// True when every connection finished before the deadline.
    pub completed: bool,
    /// Connections forcibly severed at the deadline.
    pub forced: u64,
}

/// A running relay daemon on 127.0.0.1.
pub struct Relay {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The reactor; it owns the listener and every connection.
    reactor: Option<std::thread::JoinHandle<()>>,
    /// Unparks the reactor after a stop flag was set.
    wake: Waker,
}

/// State the reactor shares with the owning `Relay`.
struct Shared {
    cfg: RelayConfig,
    /// Live connection count (backpressure admission + `relay_active`).
    active: AtomicU64,
    lifecycle: Lifecycle,
    shutdown: AtomicBool,
    draining: AtomicBool,
}

impl Shared {
    fn conn_closed(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
        if let Some(tel) = &self.cfg.telemetry {
            tel.metrics
                .gauge("relay_active", vec![])
                .set(self.active.load(Ordering::SeqCst) as f64);
        }
    }
}

impl Relay {
    /// Binds an ephemeral loopback port and starts forwarding.
    pub fn start(cfg: RelayConfig) -> std::io::Result<Relay> {
        Self::start_on("127.0.0.1:0", cfg)
    }

    /// Binds an explicit address (e.g. `0.0.0.0:3128`) and starts
    /// forwarding — the deployable entry point of the forwarding
    /// service.
    pub fn start_on(addr: &str, cfg: RelayConfig) -> std::io::Result<Relay> {
        Self::start_role(addr, cfg, Role::Forward)
    }

    /// Starts the daemon answering requests as `role`.
    pub(crate) fn start_role(addr: &str, cfg: RelayConfig, role: Role) -> std::io::Result<Relay> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake, wake_rx) = wake_pipe()?;
        let shared = Arc::new(Shared {
            cfg,
            active: AtomicU64::new(0),
            lifecycle: Lifecycle::default(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
        });
        let reactor = Reactor {
            shared: shared.clone(),
            role,
            listener,
            listen: Listen::Open,
            wake_rx,
            epoch: Instant::now(),
            accepted: 0,
            conns: Vec::new(),
            parked: VecDeque::new(),
            pool: BufferPool::default(),
        };
        let reactor = std::thread::spawn(move || reactor.run());
        Ok(Relay {
            addr,
            shared,
            reactor: Some(reactor),
            wake,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live connection count.
    pub fn active_connections(&self) -> u64 {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Snapshot of the connection-lifecycle transition counters.
    pub fn lifecycle(&self) -> LifecycleSnapshot {
        self.shared.lifecycle.snapshot()
    }

    /// Simulates a relay-node crash: stops accepting and severs every
    /// active connection mid-splice. Clients see a connection error
    /// rather than a hang, and the daemon never panics. Idempotent;
    /// the relay cannot be restarted on the same `Relay` value (start a
    /// new one on the same address to model a restart).
    pub fn kill(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.wake.wake();
        // The reactor drops (closes) every connection it owns on its
        // way out.
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }

    /// Gracefully drains: stops accepting, closes idle connections
    /// immediately, lets in-flight requests finish (no keep-alive),
    /// and severs whatever remains at `timeout`. Samples the active
    /// count on the way down so tests can assert monotone draining.
    pub fn drain(&mut self, timeout: Duration) -> DrainReport {
        let t0 = Instant::now();
        self.shared.draining.store(true, Ordering::SeqCst);
        self.wake.wake();
        if let Some(tel) = &self.shared.cfg.telemetry {
            tel.trace(|| {
                Event::new(EventKind::RelayDrain, 0, 0)
                    .with_u64("active", self.shared.active.load(Ordering::SeqCst))
            });
        }
        let mut samples = vec![self.shared.active.load(Ordering::SeqCst)];
        while t0.elapsed() < timeout {
            let n = self.shared.active.load(Ordering::SeqCst);
            samples.push(n);
            if n == 0 {
                break;
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "drain() samples the active count every 2 ms for its DrainReport; it runs on the caller's thread, not on a serving one"
            )]
            std::thread::sleep(Duration::from_millis(2));
        }
        let forced = self.shared.active.load(Ordering::SeqCst);
        let completed = forced == 0;
        // Deadline: hard-sever the stragglers, then stop the daemon.
        self.kill();
        let monotone = samples.windows(2).all(|w| w[1] <= w[0]);
        DrainReport {
            samples,
            monotone,
            completed,
            forced,
        }
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.kill();
    }
}

// ---------------------------------------------------------------------
// The poll reactor.
// ---------------------------------------------------------------------

/// Poll-timeout ceiling: the longest the reactor waits with nothing
/// due.
const REACTOR_TICK: Duration = Duration::from_millis(10);

/// How long a transient `accept` error keeps the listener out of the
/// poll set: the listener stays readable, so retrying at once would
/// spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Whether the listener is in the poll set.
#[derive(Clone, Copy)]
enum Listen {
    Open,
    /// Out until this instant, after a transient `accept` error.
    Paused(Instant),
    /// Drained, killed, or the listener failed: no more accepts.
    Stopped,
}

/// The daemon's one thread: owns the listener, every connection and
/// the splice buffers outright.
struct Reactor {
    shared: Arc<Shared>,
    role: Role,
    listener: TcpListener,
    listen: Listen,
    wake_rx: WakeRx,
    epoch: Instant,
    /// Sockets accepted so far, admitted or not (the next id).
    accepted: u64,
    conns: Vec<Conn>,
    /// Sockets parked by [`Backpressure::Queue`], oldest first, with
    /// their id and accept instant.
    parked: VecDeque<(TcpStream, u64, Instant)>,
    pool: BufferPool,
}

impl Reactor {
    fn run(mut self) {
        let mut fds: Vec<PollFd> = Vec::new();
        loop {
            self.wake_rx.drain();

            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.stop_accepting();
                while !self.conns.is_empty() {
                    Lifecycle::bump(&self.shared.lifecycle.killed);
                    self.close(0);
                }
                return;
            }
            let draining = self.shared.draining.load(Ordering::SeqCst);
            if draining {
                self.stop_accepting();
                // Idle keep-alive connections have nothing in flight:
                // close them now so the drain is prompt.
                let mut i = 0;
                while i < self.conns.len() {
                    if self.conns[i].is_idle() {
                        Lifecycle::bump(&self.shared.lifecycle.drained_idle);
                        Lifecycle::bump(&self.shared.lifecycle.closed_clean);
                        self.close(i);
                    } else {
                        i += 1;
                    }
                }
                if self.conns.is_empty() {
                    return;
                }
            }

            // Step everything that timed out (draining: everything).
            let now = Instant::now();
            let mut i = 0;
            while i < self.conns.len() {
                if (draining || self.conns[i].next_timer() <= now)
                    && matches!(self.step(i, now, false), Step::Closed)
                {
                    self.close(i);
                } else {
                    i += 1;
                }
            }
            self.admit_parked();

            // Build the poll set: wake pipe, listener, then two slots per
            // connection (client, origin) so revents map back by index.
            let now = Instant::now();
            let mut timeout = REACTOR_TICK;
            if let Listen::Paused(until) = self.listen {
                if until > now {
                    timeout = timeout.min(until - now);
                } else {
                    self.listen = Listen::Open;
                }
            }
            fds.clear();
            fds.push(self.wake_rx.poll_fd());
            fds.push(match self.listen {
                Listen::Open => PollFd::new(self.listener.as_raw_fd(), POLLIN),
                Listen::Paused(_) | Listen::Stopped => PollFd::ignored(),
            });
            for conn in &self.conns {
                let (client_ev, origin) = conn.interest();
                fds.push(if client_ev != 0 {
                    PollFd::new(conn.client.as_raw_fd(), client_ev)
                } else {
                    PollFd::ignored()
                });
                fds.push(match origin {
                    Some((stream, ev)) => PollFd::new(stream.as_raw_fd(), ev),
                    None => PollFd::ignored(),
                });
                timeout = timeout.min(conn.next_timer().saturating_duration_since(now));
            }
            if poll_fds(&mut fds, timeout).is_err() {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "a reactor whose poll itself failed (EINVAL/ENOMEM class) backs off instead of spinning on the error"
                )]
                std::thread::sleep(Duration::from_millis(1));
            }

            let now = Instant::now();
            let mut i = 0;
            while i < self.conns.len() {
                let client = fds[2 + 2 * i];
                let ready = client.is_ready() || fds[3 + 2 * i].is_ready();
                if (ready || self.conns[i].next_timer() <= now)
                    && matches!(self.step(i, now, client.hung_up()), Step::Closed)
                {
                    // Keep fd indices aligned with `conns`.
                    let last = self.conns.len() - 1;
                    fds.swap(2 + 2 * i, 2 + 2 * last);
                    fds.swap(3 + 2 * i, 3 + 2 * last);
                    self.close(i);
                } else {
                    i += 1;
                }
            }
            if fds[1].is_ready() {
                self.accept_all();
            }
        }
    }

    fn step(&mut self, i: usize, now: Instant, hangup: bool) -> Step {
        let shared = &self.shared;
        let ctx = StepCtx {
            telemetry: &shared.cfg.telemetry,
            role: self.role,
            latency: shared.cfg.latency,
            epoch: self.epoch,
            lifecycle: &shared.lifecycle,
            draining: shared.draining.load(Ordering::Relaxed),
            hangup,
            now,
        };
        self.conns[i].step(&ctx, shared.cfg.idle_timeout)
    }

    /// Drops connection `i` (the last one takes its index) and returns
    /// its buffer to the pool.
    fn close(&mut self, i: usize) {
        let conn = self.conns.swap_remove(i);
        self.pool.give(conn.into_buffer());
        self.shared.conn_closed();
    }

    /// Accepts until the backlog is empty; over the limit, parks or
    /// refuses by the configured policy.
    fn accept_all(&mut self) {
        self.admit_parked();
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let id = self.accepted;
                    self.accepted += 1;
                    let accept_at = Instant::now();
                    let cfg = &self.shared.cfg;
                    if !self.at_capacity() {
                        self.adopt(stream, id, accept_at);
                    } else if cfg.backpressure == Backpressure::Queue
                        && self.parked.len() < cfg.max_connections.unwrap_or(0)
                    {
                        if let Some(tel) = &cfg.telemetry {
                            tel.metrics
                                .counter("relay_backpressure_queued", vec![])
                                .inc();
                        }
                        self.parked.push_back((stream, id, accept_at));
                    } else {
                        self.refuse(stream);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if accept_error_is_transient(&e) => {
                    if let Some(tel) = &self.shared.cfg.telemetry {
                        tel.metrics
                            .counter("relay_errors", vec![("kind", "accept".into())])
                            .inc();
                    }
                    self.listen = Listen::Paused(Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
                Err(_) => {
                    self.stop_accepting();
                    return;
                }
            }
        }
    }

    /// Admits parked sockets, oldest first, while slots are free.
    fn admit_parked(&mut self) {
        while !self.at_capacity() {
            let Some((stream, id, accept_at)) = self.parked.pop_front() else {
                return;
            };
            self.adopt(stream, id, accept_at);
        }
    }

    fn at_capacity(&self) -> bool {
        match self.shared.cfg.max_connections {
            Some(max) => self.shared.active.load(Ordering::SeqCst) as usize >= max,
            None => false,
        }
    }

    /// Counts a connection in and starts its state machine.
    fn adopt(&mut self, stream: TcpStream, id: u64, accept_at: Instant) {
        let shared = &self.shared;
        shared.active.fetch_add(1, Ordering::SeqCst);
        Lifecycle::bump(&shared.lifecycle.accepted);
        if let Some(tel) = &shared.cfg.telemetry {
            tel.metrics.counter("relay_connections", vec![]).inc();
            tel.metrics
                .gauge("relay_active", vec![])
                .set(shared.active.load(Ordering::SeqCst) as f64);
            tel.trace(|| {
                Event::new(
                    EventKind::RelayAccept,
                    self.epoch.elapsed().as_micros() as u64,
                    id,
                )
            });
        }
        let bucket = shared
            .cfg
            .rate
            .as_ref()
            .map(|s| TokenBucket::with_epoch(s.clone(), 16_384.0, self.epoch));
        let buffer = self.pool.take();
        match Conn::new(
            id,
            stream,
            accept_at,
            bucket,
            shared.cfg.idle_timeout,
            buffer,
        ) {
            Ok(conn) => self.conns.push(conn),
            Err(_) => {
                Lifecycle::bump(&shared.lifecycle.closed_error);
                shared.conn_closed();
            }
        }
    }

    /// Best-effort `503` + close for a connection over the limit.
    fn refuse(&self, mut stream: TcpStream) {
        if let Some(tel) = &self.shared.cfg.telemetry {
            tel.metrics
                .counter("relay_backpressure_drops", vec![])
                .inc();
        }
        let resp =
            Response::new(StatusCode::SERVICE_UNAVAILABLE).with_header("Content-Length", "0");
        let mut buf = BytesMut::new();
        encode_response(&resp, &mut buf);
        let _ = stream.set_nodelay(true);
        let _ = stream.write_all(&buf);
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// Takes the listener out of the poll set for good. Parked sockets
    /// get a clean refusal rather than a silent drop.
    fn stop_accepting(&mut self) {
        if let Listen::Stopped = self.listen {
            return;
        }
        self.listen = Listen::Stopped;
        for (stream, ..) in std::mem::take(&mut self.parked) {
            self.refuse(stream);
        }
        if let Some(tel) = &self.shared.cfg.telemetry {
            tel.trace(|| {
                Event::new(
                    EventKind::RelayShutdown,
                    self.epoch.elapsed().as_micros() as u64,
                    0,
                )
                .with_u64("connections", self.accepted)
            });
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests pace real-socket scenarios with sleeps; the serve-path rule is about the daemon's own threads"
)]
mod tests {
    use super::*;
    use crate::origin::{body_byte, OriginConfig, OriginServer};
    use ir_http::{encode_request, via_proxy, ByteRange, Parsed};
    use std::io::Read;

    fn fetch_via(
        relay: SocketAddr,
        origin: SocketAddr,
        range: Option<ByteRange>,
    ) -> (Response, Vec<u8>) {
        let mut stream = TcpStream::connect(relay).unwrap();
        let mut req = via_proxy(&origin.ip().to_string(), origin.port(), "/f");
        if let Some(r) = range {
            req = req.with_header("Range", r.to_string());
        }
        let mut buf = BytesMut::new();
        encode_request(&req, &mut buf);
        stream.write_all(&buf).unwrap();
        read_response(&mut stream)
    }

    fn read_response(stream: &mut TcpStream) -> (Response, Vec<u8>) {
        let mut buf = BytesMut::new();
        let head = loop {
            match ir_http::parse_response(&buf[..]).unwrap() {
                Parsed::Complete { value, consumed } => {
                    let _ = buf.split_to(consumed);
                    break value;
                }
                Parsed::Partial => {
                    let mut chunk = [0u8; 8192];
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0);
                    buf.extend_from_slice(&chunk[..n]);
                }
            }
        };
        let len = head.headers.content_length().unwrap().unwrap_or(0) as usize;
        let mut body = buf.to_vec();
        while body.len() < len {
            let mut chunk = [0u8; 8192];
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0);
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(len);
        (head, body)
    }

    #[test]
    fn relays_full_response_with_via() {
        let origin = OriginServer::start(OriginConfig::new(20_000)).unwrap();
        let relay = Relay::start(RelayConfig::new()).unwrap();
        let (head, body) = fetch_via(relay.addr(), origin.addr(), None);
        assert_eq!(head.status, StatusCode::OK);
        assert!(head.headers.get("Via").unwrap().contains("ir-relay"));
        assert_eq!(body.len(), 20_000);
        assert!(body
            .iter()
            .enumerate()
            .all(|(i, &b)| b == body_byte(i as u64)));
    }

    #[test]
    fn relays_range_requests() {
        let origin = OriginServer::start(OriginConfig::new(100_000)).unwrap();
        let relay = Relay::start(RelayConfig::new()).unwrap();
        let (head, body) = fetch_via(relay.addr(), origin.addr(), Some(ByteRange::first(4096)));
        assert_eq!(head.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(body.len(), 4096);
        assert_eq!(
            head.headers.get("Content-Range").unwrap(),
            "bytes 0-4095/100000"
        );
    }

    #[test]
    fn shaped_relay_is_slower() {
        let origin = OriginServer::start(OriginConfig::new(80_000)).unwrap();
        let fast = Relay::start(RelayConfig::new()).unwrap();
        let slow = Relay::start(RelayConfig::shaped(RateSchedule::constant(150_000.0))).unwrap();

        let t0 = std::time::Instant::now();
        let (_, b1) = fetch_via(fast.addr(), origin.addr(), None);
        let fast_dt = t0.elapsed();
        let t1 = std::time::Instant::now();
        let (_, b2) = fetch_via(slow.addr(), origin.addr(), None);
        let slow_dt = t1.elapsed();
        assert_eq!(b1.len(), 80_000);
        assert_eq!(b2, b1);
        // 80 KB minus burst at 150 KB/s ≈ 0.43 s; fast path ~instant.
        assert!(
            slow_dt > fast_dt * 3,
            "slow {slow_dt:?} vs fast {fast_dt:?}"
        );
        // A token bucket delivers at most its burst plus rate × time.
        let floor = Duration::from_secs_f64((80_000.0 - 16_384.0) / 150_000.0);
        assert!(slow_dt >= floor, "slow {slow_dt:?} under {floor:?}");
    }

    #[test]
    fn origin_form_request_is_rejected() {
        let relay = Relay::start(RelayConfig::new()).unwrap();
        let mut stream = TcpStream::connect(relay.addr()).unwrap();
        let req = ir_http::Request::get("/no-absolute-uri").with_header("Host", "x");
        let mut buf = BytesMut::new();
        encode_request(&req, &mut buf);
        stream.write_all(&buf).unwrap();
        let (head, _) = read_response(&mut stream);
        assert_eq!(head.status, StatusCode::BAD_REQUEST);
    }

    #[test]
    fn unreachable_origin_is_bad_gateway() {
        let relay = Relay::start(RelayConfig::new()).unwrap();
        let mut stream = TcpStream::connect(relay.addr()).unwrap();
        // Port 1 on localhost: refused.
        let req = via_proxy("127.0.0.1", 1, "/f");
        let mut buf = BytesMut::new();
        encode_request(&req, &mut buf);
        stream.write_all(&buf).unwrap();
        let (head, _) = read_response(&mut stream);
        assert_eq!(head.status, StatusCode::BAD_GATEWAY);
    }

    #[test]
    fn latency_handicaps_a_relay_in_a_race() {
        use crate::client::{probe_race, ChosenPath, ClientConfig};
        let origin = OriginServer::start(OriginConfig::new(200_000)).unwrap();
        // Same rate, but relay 0 pays 300 ms before forwarding.
        let laggy = Relay::start(
            RelayConfig::shaped(RateSchedule::constant(400_000.0))
                .with_latency(Duration::from_millis(300)),
        )
        .unwrap();
        let prompt = Relay::start(RelayConfig::shaped(RateSchedule::constant(400_000.0))).unwrap();
        let cfg = ClientConfig {
            path: "/f".into(),
            probe_bytes: 40_000,
            total_bytes: 200_000,
            timeout: Duration::from_secs(20),
        };
        // Direct path deliberately unreachable-slow by racing relays only
        // against a dead-slow origin? Simpler: give direct a very laggy
        // origin so the relays decide the race.
        let slow_direct = OriginServer::start(
            OriginConfig::new(200_000).with_latency(Duration::from_millis(800)),
        )
        .unwrap();
        let win = probe_race(
            slow_direct.addr(),
            origin.addr(),
            &[laggy.addr(), prompt.addr()],
            &cfg,
        )
        .unwrap();
        assert_eq!(win.choice, ChosenPath::Relay(1), "lag should lose the race");
    }

    #[test]
    fn telemetry_observes_accept_splice_and_shutdown() {
        let tel = Arc::new(Telemetry::new());
        let origin = OriginServer::start(OriginConfig::new(5_000)).unwrap();
        {
            let relay = Relay::start(RelayConfig::new().with_telemetry(tel.clone())).unwrap();
            let (head, body) = fetch_via(relay.addr(), origin.addr(), None);
            assert_eq!(head.status, StatusCode::OK);
            assert_eq!(body.len(), 5_000);
        } // Drop → kill → the reactor stops accepting and records the event.

        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("relay_connections", &vec![]), Some(1));
        assert_eq!(snap.counter("relay_requests", &vec![]), Some(1));
        assert_eq!(snap.counter("relay_bytes", &vec![]), Some(5_000));
        let events = tel.tracer.as_ref().expect("traced").snapshot();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::RelayAccept));
        assert!(kinds.contains(&EventKind::RelaySplice));
        assert!(kinds.contains(&EventKind::RelayShutdown));
        // The splice and the accept-to-first-byte wait are spans on the
        // daemon's wall clock.
        for kind in [EventKind::RelaySplice, EventKind::RelayFirstByte] {
            let span = events.iter().find(|e| e.kind == kind);
            let span = span.unwrap_or_else(|| panic!("no {kind:?} span"));
            assert!(span.dur_us.is_some(), "{kind:?} has no duration");
        }
    }

    #[test]
    fn kill_severs_active_connection_and_stops_accepting() {
        let origin = OriginServer::start(OriginConfig::new(400_000)).unwrap();
        let mut relay =
            Relay::start(RelayConfig::shaped(RateSchedule::constant(100_000.0))).unwrap();
        let addr = relay.addr();
        let o = origin.addr();
        // A slow fetch that will still be splicing when the kill lands.
        let t = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let req = via_proxy(&o.ip().to_string(), o.port(), "/f");
            let mut buf = BytesMut::new();
            encode_request(&req, &mut buf);
            stream.write_all(&buf).unwrap();
            // Drain until the severed socket reports EOF or an error —
            // the client must not hang.
            let mut total = 0usize;
            let mut chunk = [0u8; 8192];
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => total += n,
                }
            }
            total
        });
        std::thread::sleep(Duration::from_millis(400));
        relay.kill();
        relay.kill(); // idempotent
        let got = t.join().expect("client thread must not panic");
        assert!(got < 400_000, "transfer should be cut short, got {got}");
        // A crashed relay refuses new connections.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
    }

    fn send_range(stream: &mut TcpStream, origin: SocketAddr, from: u64, to: u64) {
        let req = via_proxy(&origin.ip().to_string(), origin.port(), "/f")
            .with_header("Range", format!("bytes={from}-{to}"));
        let mut buf = BytesMut::new();
        encode_request(&req, &mut buf);
        stream.write_all(&buf).unwrap();
    }

    fn assert_range(stream: &mut TcpStream, from: u64, to: u64) {
        let (head, body) = read_response(stream);
        assert_eq!(head.status, StatusCode::PARTIAL_CONTENT);
        let want: Vec<u8> = (from..=to).map(body_byte).collect();
        assert_eq!(body, want, "range {from}-{to}");
    }

    /// Keep-alive on both legs: the requests of one client connection
    /// share one origin connection.
    #[test]
    fn keep_alive_through_relay() {
        let origin = OriginServer::start(OriginConfig::new(1_000)).unwrap();
        let relay = Relay::start(RelayConfig::new()).unwrap();
        let mut stream = TcpStream::connect(relay.addr()).unwrap();
        for k in 0..3 {
            send_range(&mut stream, origin.addr(), k * 10, k * 10 + 9);
            assert_range(&mut stream, k * 10, k * 10 + 9);
        }
        let life = relay.lifecycle();
        assert_eq!(life.origin_dials, 1, "{life:?}");
        assert_eq!(life.upstream_reuses, 2, "{life:?}");
    }

    /// A relayed `HEAD` ends at its head: the relay does not wait for
    /// the `Content-Length` bytes the origin never sends, and both legs
    /// stay usable for the next request.
    #[test]
    fn head_through_relay_completes_and_keeps_both_legs() {
        let origin = OriginServer::start(OriginConfig::new(5_000)).unwrap();
        let relay =
            Relay::start(RelayConfig::new().with_idle_timeout(Duration::from_secs(1))).unwrap();
        let mut stream = TcpStream::connect(relay.addr()).unwrap();
        let o = origin.addr();
        let mut req = via_proxy(&o.ip().to_string(), o.port(), "/f");
        req.method = ir_http::Method::Head;
        let mut buf = BytesMut::new();
        encode_request(&req, &mut buf);
        stream.write_all(&buf).unwrap();
        let (head, leftover) = crate::wire::read_head(&mut stream).unwrap();
        assert_eq!(head.status, StatusCode::OK);
        assert_eq!(head.headers.content_length().unwrap(), Some(5_000));
        assert!(leftover.is_empty(), "HEAD must not carry a body");

        send_range(&mut stream, o, 100, 199);
        assert_range(&mut stream, 100, 199);
        let life = relay.lifecycle();
        assert_eq!(life.upstream_reuses, 1, "{life:?}");
        assert_eq!(life.idle_timeouts, 0, "{life:?}");
        // The `GET` is counted just after its last byte leaves, so
        // only the `HEAD` is certain to be counted by now.
        assert!(life.requests_completed >= 1, "{life:?}");
    }

    /// An origin that answers one request per connection and hangs up
    /// without saying `Connection: close`.
    fn one_shot_origin() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let serve = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = BytesMut::new();
                let req = loop {
                    if let Parsed::Complete { value, .. } = ir_http::parse_request(&buf).unwrap() {
                        break value;
                    }
                    let mut chunk = [0u8; 4096];
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "relay hung up mid-request");
                    buf.extend_from_slice(&chunk[..n]);
                };
                let range = ByteRange::parse(req.headers.get("Range").unwrap()).unwrap();
                let (first, last) = range.resolve(1_000).unwrap();
                let head = Response::new(StatusCode::PARTIAL_CONTENT)
                    .with_header("Content-Length", (last - first + 1).to_string());
                let mut out = BytesMut::new();
                encode_response(&head, &mut out);
                let body: Vec<u8> = (first..=last).map(body_byte).collect();
                out.extend_from_slice(&body);
                stream.write_all(&out).unwrap();
            }
        });
        (addr, serve)
    }

    /// A kept origin connection that went stale is re-dialled and the
    /// request resent: the client never sees the `502`.
    #[test]
    fn stale_upstream_is_redialled_once() {
        let (origin, serve) = one_shot_origin();
        let relay = Relay::start(RelayConfig::new()).unwrap();
        let mut stream = TcpStream::connect(relay.addr()).unwrap();
        send_range(&mut stream, origin, 0, 99);
        assert_range(&mut stream, 0, 99);
        send_range(&mut stream, origin, 500, 519);
        assert_range(&mut stream, 500, 519);
        serve.join().unwrap();
        let life = relay.lifecycle();
        assert_eq!(life.upstream_reuses, 1, "{life:?}");
        assert_eq!(life.origin_dials, 2, "{life:?}");
        assert_eq!(life.error_responses, 0, "{life:?}");
    }

    #[test]
    fn request_to_another_origin_drops_the_kept_connection() {
        let first = OriginServer::start(OriginConfig::new(1_000)).unwrap();
        let second = OriginServer::start(OriginConfig::new(2_000)).unwrap();
        let relay = Relay::start(RelayConfig::new()).unwrap();
        let mut stream = TcpStream::connect(relay.addr()).unwrap();
        send_range(&mut stream, first.addr(), 0, 99);
        assert_range(&mut stream, 0, 99);
        send_range(&mut stream, second.addr(), 1_500, 1_599);
        assert_range(&mut stream, 1_500, 1_599);
        let life = relay.lifecycle();
        assert_eq!(life.origin_dials, 2, "{life:?}");
        assert_eq!(life.upstream_reuses, 0, "{life:?}");
    }

    /// The reactor waits on the listener, not on a timer: a 5 ms sleep
    /// between accepts once put the median of this at 5–10 ms.
    #[test]
    fn accept_wait_is_not_timer_quantised() {
        let origin = OriginServer::start(OriginConfig::new(1_000)).unwrap();
        let relay = Relay::start(RelayConfig::new()).unwrap();
        let mut waits: Vec<Duration> = (0..100)
            .map(|_| {
                let t0 = Instant::now();
                let (_, body) = fetch_via(relay.addr(), origin.addr(), Some(ByteRange::first(1)));
                assert_eq!(body.len(), 1);
                t0.elapsed()
            })
            .collect();
        waits.sort();
        let median = waits[waits.len() / 2];
        assert!(
            median < Duration::from_micros(2_500),
            "median first byte {median:?}, quartiles {:?} / {:?}",
            waits[25],
            waits[75]
        );
    }

    #[test]
    fn drain_finishes_inflight_and_reports_monotone() {
        let origin = OriginServer::start(OriginConfig::new(120_000)).unwrap();
        let mut relay =
            Relay::start(RelayConfig::shaped(RateSchedule::constant(400_000.0))).unwrap();
        let addr = relay.addr();
        let o = origin.addr();
        let t = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let req = via_proxy(&o.ip().to_string(), o.port(), "/f");
            let mut buf = BytesMut::new();
            encode_request(&req, &mut buf);
            stream.write_all(&buf).unwrap();
            read_response(&mut stream)
        });
        // Let the splice start, then drain.
        std::thread::sleep(Duration::from_millis(60));
        let report = relay.drain(Duration::from_secs(10));
        let (head, body) = t.join().expect("client must finish its transfer");
        assert_eq!(head.status, StatusCode::OK);
        assert_eq!(body.len(), 120_000);
        assert!(report.monotone, "samples rose: {:?}", report.samples);
        assert!(report.completed && report.forced == 0);
        let life = relay.lifecycle();
        let closed = life.closed_clean + life.closed_error + life.killed;
        assert_eq!(life.accepted, closed, "drain leaked a connection: {life:?}");
        assert_eq!(relay.active_connections(), 0);
    }
}
