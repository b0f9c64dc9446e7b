//! Per-connection state machine for the event-driven daemons.
//!
//! Each accepted socket becomes a `Conn` driven entirely by
//! readiness: `accept → read request → latency → dial origin → send
//! upstream → read head → splice → keep-alive loop`, with error
//! responses re-entering the keep-alive loop. The keep-alive loop
//! keeps the origin connection too, so the next request to the same
//! origin skips the dial (`Upstream`). The daemon's `Role` decides
//! how a request is answered — a relay forwards it, an origin plans
//! the response itself and its splice draws on the content generator
//! instead of a socket; every other state is shared. A connection never
//! blocks a thread — every I/O call is non-blocking, and `Conn::step`
//! records *why* it parked (`Blocked`) so the reactor polls precisely
//! the descriptor or timer that can unpark it (no level-triggered busy
//! loops).
//!
//! Rate shaping reuses [`TokenBucket`] with a carried grant budget:
//! tokens taken for a write that then hits `WouldBlock` are spent on
//! the retry rather than lost, so the shaped goodput is the scheduled
//! rate however often the client's socket fills.

use crate::origin::{fill_body, plan_response};
use crate::poller::{connect_errno, connect_nonblocking, Dial};
use crate::shaper::TokenBucket;
use bytes::BytesMut;
use ir_http::{
    encode_request, encode_response, parse_request, parse_response, Method, Parsed, Request,
    Response, StatusCode,
};
use ir_telemetry::trace::{Event, EventKind};
use ir_telemetry::Telemetry;
use std::io::{Read, Write};
use std::net::{IpAddr, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transition counters for the connection lifecycle, written by the
/// daemon's reactor and read by its owner. Integration tests sweep
/// seeded scenarios and assert each transition is reachable and that
/// nothing leaks.
#[derive(Debug, Default)]
pub struct Lifecycle {
    /// Connections accepted into the reactor.
    pub accepted: AtomicU64,
    /// Requests parsed off client sockets.
    pub requests_read: AtomicU64,
    /// Requests that waited in the latency state.
    pub latency_waits: AtomicU64,
    /// Origin dials started.
    pub origin_dials: AtomicU64,
    /// Requests sent on the origin connection kept from the previous
    /// request of the same client connection (no dial).
    pub upstream_reuses: AtomicU64,
    /// Upstream requests fully written to an origin.
    pub upstream_sends: AtomicU64,
    /// Origin response heads parsed.
    pub heads_read: AtomicU64,
    /// Body splices started.
    pub splices_started: AtomicU64,
    /// Requests relayed to completion.
    pub requests_completed: AtomicU64,
    /// Synthesized 4xx/5xx responses sent to clients.
    pub error_responses: AtomicU64,
    /// Connections closed cleanly (EOF between requests, or drain
    /// after a completed request).
    pub closed_clean: AtomicU64,
    /// Connections closed on an error path.
    pub closed_error: AtomicU64,
    /// Connections reaped by the idle/progress deadline.
    pub idle_timeouts: AtomicU64,
    /// Idle connections closed immediately by a drain.
    pub drained_idle: AtomicU64,
    /// Connections severed by `kill()` or a drain deadline.
    pub killed: AtomicU64,
}

/// Point-in-time copy of [`Lifecycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleSnapshot {
    /// See [`Lifecycle::accepted`].
    pub accepted: u64,
    /// See [`Lifecycle::requests_read`].
    pub requests_read: u64,
    /// See [`Lifecycle::latency_waits`].
    pub latency_waits: u64,
    /// See [`Lifecycle::origin_dials`].
    pub origin_dials: u64,
    /// See [`Lifecycle::upstream_reuses`].
    pub upstream_reuses: u64,
    /// See [`Lifecycle::upstream_sends`].
    pub upstream_sends: u64,
    /// See [`Lifecycle::heads_read`].
    pub heads_read: u64,
    /// See [`Lifecycle::splices_started`].
    pub splices_started: u64,
    /// See [`Lifecycle::requests_completed`].
    pub requests_completed: u64,
    /// See [`Lifecycle::error_responses`].
    pub error_responses: u64,
    /// See [`Lifecycle::closed_clean`].
    pub closed_clean: u64,
    /// See [`Lifecycle::closed_error`].
    pub closed_error: u64,
    /// See [`Lifecycle::idle_timeouts`].
    pub idle_timeouts: u64,
    /// See [`Lifecycle::drained_idle`].
    pub drained_idle: u64,
    /// See [`Lifecycle::killed`].
    pub killed: u64,
}

impl Lifecycle {
    /// Snapshots every counter.
    pub fn snapshot(&self) -> LifecycleSnapshot {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        LifecycleSnapshot {
            accepted: g(&self.accepted),
            requests_read: g(&self.requests_read),
            latency_waits: g(&self.latency_waits),
            origin_dials: g(&self.origin_dials),
            upstream_reuses: g(&self.upstream_reuses),
            upstream_sends: g(&self.upstream_sends),
            heads_read: g(&self.heads_read),
            splices_started: g(&self.splices_started),
            requests_completed: g(&self.requests_completed),
            error_responses: g(&self.error_responses),
            closed_clean: g(&self.closed_clean),
            closed_error: g(&self.closed_error),
            idle_timeouts: g(&self.idle_timeouts),
            drained_idle: g(&self.drained_idle),
            killed: g(&self.killed),
        }
    }

    pub(crate) fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// Chunk size of every splice (the pooled buffers, one shaper grant):
/// big enough to amortize syscalls, small enough that rate changes
/// take effect quickly.
pub const SPLICE_CHUNK: usize = 16 * 1024;

/// Pool of splice buffers, owned by the daemon's reactor: connections
/// borrow one 16 KiB chunk for their lifetime and return it on close,
/// so a soak's allocation count tracks peak concurrency instead of
/// transfer count.
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    free: Vec<Vec<u8>>,
}

impl BufferPool {
    const MAX_POOLED: usize = 256;

    pub(crate) fn take(&mut self) -> Vec<u8> {
        self.free
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(SPLICE_CHUNK))
    }

    pub(crate) fn give(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        if buf.capacity() >= SPLICE_CHUNK && self.free.len() < Self::MAX_POOLED {
            self.free.push(buf);
        }
    }

    #[cfg(test)]
    pub(crate) fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// Why a connection parked. The reactor's poll set is derived from
/// exactly this, so a blocked connection wakes only when the condition
/// it is waiting on can have changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Blocked {
    /// Waiting for request bytes from the client.
    ClientRead,
    /// Client send buffer full.
    ClientWrite,
    /// Waiting for origin response bytes.
    OriginRead,
    /// Origin send buffer full (or connect in flight).
    OriginWrite,
    /// Waiting on a timer (latency emulation or token refill).
    Timer(Instant),
}

/// How a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseKind {
    /// Orderly end: client EOF between requests, or drain completion.
    Clean,
    /// Any error path, including idle timeout.
    Error,
}

/// Result of driving a connection as far as it can go right now.
#[derive(Debug)]
pub(crate) enum Step {
    /// Parked; see [`Conn::blocked`].
    Blocked,
    /// Finished; the reactor reaps the connection. Lifecycle counters
    /// record whether the close was clean or an error.
    Closed,
}

/// What answers a request, fixed when the daemon starts. It is read
/// where a response is planned (`Conn::start_response`); the [`Source`]
/// chosen there is read where body bytes are produced
/// (`Conn::on_splice`). No other state knows which daemon it runs in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Role {
    /// A relay: forward the request to the origin it names.
    Forward,
    /// An origin: serve ranges of `content_len` synthetic bytes.
    Serve { content_len: u64 },
}

/// Where the body of the response in flight comes from.
enum Source {
    /// The relay→origin leg.
    Origin(Upstream),
    /// The content generator, from this offset on.
    Body { offset: u64 },
}

/// The relay→origin leg of a request.
struct Upstream {
    addr: SocketAddr,
    stream: TcpStream,
    /// Kept from an earlier request on this client connection, so the
    /// origin may have closed it while it sat idle.
    reused: bool,
}

enum State {
    ReadRequest,
    Latency { until: Instant, req: Request },
    Connecting { origin: Upstream },
    SendUpstream { origin: Upstream },
    ReadHead { origin: Upstream },
    Splice { source: Source, remaining: u64 },
    Respond,
}

/// Everything a step needs from the reactor.
pub(crate) struct StepCtx<'a> {
    pub telemetry: &'a Option<Arc<Telemetry>>,
    pub role: Role,
    pub latency: Duration,
    pub epoch: Instant,
    pub lifecycle: &'a Lifecycle,
    /// Graceful drain in progress: finish the in-flight request, then
    /// close instead of looping for keep-alive.
    pub draining: bool,
    /// The client's poll slot reported that the peer left
    /// ([`crate::poller::PollFd::hung_up`]) on the wake that led here.
    pub hangup: bool,
    pub now: Instant,
}

/// One client connection, owned by its daemon's reactor.
pub(crate) struct Conn {
    pub(crate) id: u64,
    pub(crate) client: TcpStream,
    pub(crate) accept_at: Instant,
    pub(crate) blocked: Blocked,
    state: State,
    /// The origin connection of the last relayed request, while the
    /// client connection sits between requests.
    warm: Option<Upstream>,
    /// The response in flight leaves its origin connection reusable.
    keep_upstream: bool,
    inbuf: BytesMut,
    headbuf: BytesMut,
    /// Pooled scratch/output buffer: pending client-bound bytes live
    /// in `outbuf[out_off..]`.
    outbuf: Vec<u8>,
    out_off: usize,
    upbuf: BytesMut,
    up_off: usize,
    bucket: Option<TokenBucket>,
    budget: usize,
    fwd_start: Instant,
    /// The request in flight is a `HEAD`: its response carries no body
    /// whatever `Content-Length` says.
    head_only: bool,
    body_len: u64,
    first_byte_sent: bool,
    /// Progress deadline: no forward progress past this instant closes
    /// the connection (half-open peers, stalled readers).
    deadline: Instant,
}

impl Conn {
    pub(crate) fn new(
        id: u64,
        client: TcpStream,
        accept_at: Instant,
        bucket: Option<TokenBucket>,
        idle_timeout: Duration,
        outbuf: Vec<u8>,
    ) -> std::io::Result<Conn> {
        client.set_nonblocking(true)?;
        client.set_nodelay(true)?;
        Ok(Conn {
            id,
            client,
            accept_at,
            blocked: Blocked::ClientRead,
            state: State::ReadRequest,
            warm: None,
            keep_upstream: false,
            inbuf: BytesMut::new(),
            headbuf: BytesMut::new(),
            outbuf,
            out_off: 0,
            upbuf: BytesMut::new(),
            up_off: 0,
            bucket,
            budget: 0,
            fwd_start: accept_at,
            head_only: false,
            body_len: 0,
            first_byte_sent: false,
            deadline: accept_at + idle_timeout,
        })
    }

    /// True when the connection sits between requests with nothing
    /// buffered — a drain closes these immediately.
    pub(crate) fn is_idle(&self) -> bool {
        matches!(self.state, State::ReadRequest) && self.inbuf.is_empty()
    }

    /// Returns the pooled buffer on close.
    pub(crate) fn into_buffer(self) -> Vec<u8> {
        self.outbuf
    }

    /// The earliest timer that should wake this connection: the
    /// blocked-on timer (if any) and the progress deadline.
    pub(crate) fn next_timer(&self) -> Instant {
        match self.blocked {
            Blocked::Timer(t) => t.min(self.deadline),
            _ => self.deadline,
        }
    }

    /// The descriptor interest derived from the blocked reason:
    /// `(client_events, origin_fd_and_events)`. A request waiting out
    /// its latency watches its client for a hang-up; a connection parked
    /// by the shaper does not (its next write meets a dead peer).
    pub(crate) fn interest(&self) -> (i16, Option<(&TcpStream, i16)>) {
        use crate::poller::{POLLIN, POLLOUT, POLLRDHUP};
        let origin = match &self.state {
            State::Connecting { origin }
            | State::SendUpstream { origin }
            | State::ReadHead { origin }
            | State::Splice {
                source: Source::Origin(origin),
                ..
            } => Some(&origin.stream),
            _ => None,
        };
        match self.blocked {
            Blocked::ClientRead => (POLLIN, None),
            Blocked::ClientWrite => (POLLOUT, None),
            Blocked::OriginRead => (0, origin.map(|o| (o, POLLIN))),
            Blocked::OriginWrite => (0, origin.map(|o| (o, POLLOUT))),
            Blocked::Timer(_) if matches!(self.state, State::Latency { .. }) => (POLLRDHUP, None),
            Blocked::Timer(_) => (0, None),
        }
    }

    fn touch(&mut self, now: Instant, idle_timeout: Duration) {
        self.deadline = now + idle_timeout;
    }

    /// Drives the state machine until it parks or closes.
    pub(crate) fn step(&mut self, ctx: &StepCtx<'_>, idle_timeout: Duration) -> Step {
        loop {
            if ctx.now >= self.deadline {
                Lifecycle::bump(&ctx.lifecycle.idle_timeouts);
                return self.close(ctx, CloseKind::Error);
            }
            match std::mem::replace(&mut self.state, State::ReadRequest) {
                State::ReadRequest => match self.on_read_request(ctx, idle_timeout) {
                    Some(step) => return step,
                    None => continue,
                },
                State::Latency { until, req } => {
                    // Nothing would read the answer of a client that
                    // left (or half-closed) while its request waited.
                    if ctx.hangup {
                        return self.close(ctx, CloseKind::Error);
                    }
                    if ctx.now >= until {
                        self.start_response(ctx, req);
                        continue;
                    }
                    self.state = State::Latency { until, req };
                    self.blocked = Blocked::Timer(until);
                    return Step::Blocked;
                }
                State::Connecting { origin } => {
                    // Only a poll wakeup can resolve the handshake; the
                    // reactor re-steps us once the socket turns writable
                    // (or errors), and `connect_errno` disambiguates.
                    match connect_errno(&origin.stream) {
                        Ok(()) if writable_now(&origin.stream) => {
                            let _ = origin.stream.set_nodelay(true);
                            self.state = State::SendUpstream { origin };
                            continue;
                        }
                        Ok(()) => {
                            self.state = State::Connecting { origin };
                            self.blocked = Blocked::OriginWrite;
                            return Step::Blocked;
                        }
                        Err(_) => {
                            self.respond(ctx, StatusCode::BAD_GATEWAY);
                            continue;
                        }
                    }
                }
                State::SendUpstream { mut origin } => {
                    match self.pump_upstream(&mut origin.stream) {
                        Pump::Done => {
                            Lifecycle::bump(&ctx.lifecycle.upstream_sends);
                            self.touch(ctx.now, idle_timeout);
                            self.headbuf.clear();
                            self.state = State::ReadHead { origin };
                            continue;
                        }
                        Pump::WouldBlock => {
                            self.state = State::SendUpstream { origin };
                            self.blocked = Blocked::OriginWrite;
                            return Step::Blocked;
                        }
                        Pump::Err => {
                            self.upstream_failed(ctx, origin, StatusCode::BAD_GATEWAY);
                            continue;
                        }
                    }
                }
                State::ReadHead { mut origin } => {
                    match self.on_read_head(ctx, &mut origin.stream) {
                        HeadStep::Parked(blocked) => {
                            self.state = State::ReadHead { origin };
                            self.blocked = blocked;
                            return Step::Blocked;
                        }
                        HeadStep::Splice { remaining } => {
                            self.touch(ctx.now, idle_timeout);
                            self.start_splice(ctx, Source::Origin(origin), remaining);
                            continue;
                        }
                        HeadStep::Respond => continue,
                        HeadStep::Failed(status) => {
                            self.upstream_failed(ctx, origin, status);
                            continue;
                        }
                    }
                }
                State::Splice {
                    mut source,
                    remaining,
                } => {
                    match self.on_splice(ctx, &mut source, remaining, idle_timeout) {
                        SpliceStep::Parked(blocked, remaining) => {
                            self.state = State::Splice { source, remaining };
                            self.blocked = blocked;
                            return Step::Blocked;
                        }
                        SpliceStep::Complete => {
                            // The state machine loops for keep-alive
                            // (or drains out).
                            self.after_request(ctx);
                            if ctx.draining {
                                return self.close(ctx, CloseKind::Clean);
                            }
                            if let (Source::Origin(mut origin), true) = (source, self.keep_upstream)
                            {
                                origin.reused = true;
                                self.warm = Some(origin);
                            }
                            self.touch(ctx.now, idle_timeout);
                            continue;
                        }
                        SpliceStep::Dead => {
                            self.count_error(ctx);
                            return self.close(ctx, CloseKind::Error);
                        }
                    }
                }
                State::Respond => match self.flush_out(ctx) {
                    Flush::Drained => {
                        if ctx.draining {
                            return self.close(ctx, CloseKind::Clean);
                        }
                        self.touch(ctx.now, idle_timeout);
                        self.state = State::ReadRequest;
                        continue;
                    }
                    Flush::Parked(blocked) => {
                        self.state = State::Respond;
                        self.blocked = blocked;
                        return Step::Blocked;
                    }
                    Flush::Dead => return self.close(ctx, CloseKind::Error),
                },
            }
        }
    }

    /// ReadRequest: parse buffered bytes first (pipelining), then pull
    /// more from the socket. `None` = keep stepping.
    fn on_read_request(&mut self, ctx: &StepCtx<'_>, idle_timeout: Duration) -> Option<Step> {
        loop {
            match parse_request(&self.inbuf[..]) {
                Err(_) => {
                    // Unparseable request line: drop the connection.
                    return Some(self.close(ctx, CloseKind::Error));
                }
                Ok(Parsed::Complete { value, consumed }) => {
                    let _ = self.inbuf.split_to(consumed);
                    Lifecycle::bump(&ctx.lifecycle.requests_read);
                    self.touch(ctx.now, idle_timeout);
                    if ctx.latency.is_zero() {
                        self.start_response(ctx, value);
                    } else {
                        Lifecycle::bump(&ctx.lifecycle.latency_waits);
                        self.state = State::Latency {
                            until: ctx.now + ctx.latency,
                            req: value,
                        };
                    }
                    return None;
                }
                Ok(Parsed::Partial) => {
                    self.outbuf.resize(8192, 0);
                    match self.client.read(&mut self.outbuf[..]) {
                        Ok(0) => {
                            let kind = if self.inbuf.is_empty() {
                                CloseKind::Clean
                            } else {
                                CloseKind::Error
                            };
                            self.outbuf.clear();
                            return Some(self.close(ctx, kind));
                        }
                        Ok(n) => {
                            let (filled, _) = self.outbuf.split_at(n);
                            self.inbuf.extend_from_slice(filled);
                            self.outbuf.clear();
                            self.touch(ctx.now, idle_timeout);
                            continue;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            self.outbuf.clear();
                            self.state = State::ReadRequest;
                            self.blocked = Blocked::ClientRead;
                            return Some(Step::Blocked);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                            self.outbuf.clear();
                            continue;
                        }
                        Err(_) => {
                            self.outbuf.clear();
                            return Some(self.close(ctx, CloseKind::Error));
                        }
                    }
                }
            }
        }
    }

    /// Answers `req` in the daemon's role.
    fn start_response(&mut self, ctx: &StepCtx<'_>, req: Request) {
        self.fwd_start = ctx.now;
        self.body_len = 0;
        self.head_only = req.method == Method::Head;
        match ctx.role {
            Role::Forward => self.start_forward(ctx, &req),
            Role::Serve { content_len } => {
                let (head, offset, len) = plan_response(&req, content_len);
                self.queue_head(&head);
                self.body_len = self.carried(len);
                self.start_splice(ctx, Source::Body { offset }, self.body_len);
            }
        }
    }

    /// Enters `Splice` behind the head already queued in `outbuf`.
    fn start_splice(&mut self, ctx: &StepCtx<'_>, source: Source, remaining: u64) {
        Lifecycle::bump(&ctx.lifecycle.splices_started);
        self.state = State::Splice { source, remaining };
    }

    /// Body bytes that follow a head advertising `content_length`: a
    /// `HEAD` response ends at its head.
    fn carried(&self, content_length: u64) -> u64 {
        if self.head_only {
            0
        } else {
            content_length
        }
    }

    /// Plans the forward, encodes the upstream request, and sends it
    /// on the kept origin connection or starts a dial. Any
    /// planning/dial failure turns into a synthesized response on the
    /// keep-alive path.
    fn start_forward(&mut self, ctx: &StepCtx<'_>, req: &Request) {
        let plan = match ir_http::plan_forward(req) {
            Ok(p) => p,
            Err(_) => {
                // The client sent something we refuse to proxy.
                self.respond(ctx, StatusCode::BAD_REQUEST);
                return;
            }
        };
        let addr = match resolve(&plan.host, plan.port) {
            Some(a) => a,
            None => {
                self.respond(ctx, StatusCode::BAD_GATEWAY);
                return;
            }
        };
        self.upbuf.clear();
        encode_request(&plan.request, &mut self.upbuf);
        self.up_off = 0;
        match self.warm.take() {
            Some(origin) if origin.addr == addr => {
                Lifecycle::bump(&ctx.lifecycle.upstream_reuses);
                self.state = State::SendUpstream { origin };
            }
            // A kept connection to some other origin is dropped here.
            _ => self.dial(ctx, addr),
        }
    }

    /// Starts a fresh origin connection for the request in `upbuf`.
    fn dial(&mut self, ctx: &StepCtx<'_>, addr: SocketAddr) {
        Lifecycle::bump(&ctx.lifecycle.origin_dials);
        let upstream = |stream| Upstream {
            addr,
            stream,
            reused: false,
        };
        match connect_nonblocking(&addr) {
            Ok(Dial::Ready(stream)) => {
                let _ = stream.set_nodelay(true);
                self.state = State::SendUpstream {
                    origin: upstream(stream),
                };
            }
            Ok(Dial::Pending(stream)) => {
                self.state = State::Connecting {
                    origin: upstream(stream),
                };
            }
            Err(_) => self.respond(ctx, StatusCode::BAD_GATEWAY),
        }
    }

    /// The origin leg failed on I/O. With no response byte read on a
    /// reused connection, the likely cause is the origin having closed
    /// it while it sat idle: dial afresh, once, and resend (requests
    /// are GET/HEAD, so a resend is safe). Anything else is answered
    /// with `status`.
    fn upstream_failed(&mut self, ctx: &StepCtx<'_>, origin: Upstream, status: StatusCode) {
        if origin.reused && self.headbuf.is_empty() {
            self.up_off = 0;
            self.dial(ctx, origin.addr);
        } else {
            self.respond(ctx, status);
        }
    }

    fn pump_upstream(&mut self, origin: &mut TcpStream) -> Pump {
        while self.up_off < self.upbuf.len() {
            match origin.write(&self.upbuf[self.up_off..]) {
                Ok(0) => return Pump::Err,
                Ok(n) => self.up_off += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Pump::WouldBlock,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Pump::Err,
            }
        }
        Pump::Done
    }

    fn on_read_head(&mut self, ctx: &StepCtx<'_>, origin: &mut TcpStream) -> HeadStep {
        loop {
            match parse_response(&self.headbuf[..]) {
                Err(_) => {
                    // An origin protocol error is answered with 400.
                    self.respond(ctx, StatusCode::BAD_REQUEST);
                    return HeadStep::Respond;
                }
                Ok(Parsed::Complete {
                    value: head,
                    consumed,
                }) => {
                    let _ = self.headbuf.split_to(consumed);
                    let body_len = match head.headers.content_length() {
                        Err(_) => {
                            self.respond(ctx, StatusCode::BAD_REQUEST);
                            return HeadStep::Respond;
                        }
                        Ok(None) => {
                            // "origin sent no Content-Length"
                            self.respond(ctx, StatusCode::BAD_GATEWAY);
                            return HeadStep::Respond;
                        }
                        Ok(Some(len)) => self.carried(len),
                    };
                    Lifecycle::bump(&ctx.lifecycle.heads_read);
                    // Reusable once spliced: the origin keeps the
                    // connection open and sent nothing past the body.
                    self.keep_upstream =
                        !says_close(&head) && self.headbuf.len() as u64 <= body_len;
                    let mut relayed = head;
                    relayed.headers.append("Via", "1.1 ir-relay");
                    self.queue_head(&relayed);
                    // Body bytes already read with the head.
                    let take = (self.headbuf.len() as u64).min(body_len) as usize;
                    self.outbuf.extend_from_slice(&self.headbuf[..take]);
                    self.headbuf.clear();
                    self.body_len = body_len;
                    return HeadStep::Splice {
                        remaining: body_len - take as u64,
                    };
                }
                Ok(Parsed::Partial) => {
                    self.outbuf.resize(8192, 0);
                    match origin.read(&mut self.outbuf[..]) {
                        Ok(0) => {
                            self.outbuf.clear();
                            // EOF before the head completes is an
                            // origin protocol error too → 400.
                            return HeadStep::Failed(StatusCode::BAD_REQUEST);
                        }
                        Ok(n) => {
                            let (filled, _) = self.outbuf.split_at(n);
                            self.headbuf.extend_from_slice(filled);
                            self.outbuf.clear();
                            continue;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            self.outbuf.clear();
                            return HeadStep::Parked(Blocked::OriginRead);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                            self.outbuf.clear();
                            continue;
                        }
                        Err(_) => {
                            self.outbuf.clear();
                            return HeadStep::Failed(StatusCode::BAD_GATEWAY);
                        }
                    }
                }
            }
        }
    }

    fn on_splice(
        &mut self,
        ctx: &StepCtx<'_>,
        source: &mut Source,
        mut remaining: u64,
        idle_timeout: Duration,
    ) -> SpliceStep {
        loop {
            match self.flush_out(ctx) {
                Flush::Drained => {}
                Flush::Parked(blocked) => return SpliceStep::Parked(blocked, remaining),
                Flush::Dead => return SpliceStep::Dead,
            }
            if remaining == 0 {
                return SpliceStep::Complete;
            }
            let want = (remaining as usize).min(SPLICE_CHUNK);
            self.outbuf.resize(want, 0);
            self.out_off = 0;
            let read = match source {
                Source::Origin(origin) => origin.stream.read(&mut self.outbuf[..want]),
                Source::Body { offset } => {
                    fill_body(*offset, &mut self.outbuf[..want]);
                    *offset += want as u64;
                    Ok(want)
                }
            };
            match read {
                Ok(0) => {
                    // Origin died mid-body: the head already went out,
                    // so the client sees a short read, never a hang.
                    self.outbuf.clear();
                    return SpliceStep::Dead;
                }
                Ok(n) => {
                    self.outbuf.truncate(n);
                    remaining -= n as u64;
                    self.touch(ctx.now, idle_timeout);
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.outbuf.clear();
                    return SpliceStep::Parked(Blocked::OriginRead, remaining);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    self.outbuf.clear();
                    continue;
                }
                Err(_) => {
                    self.outbuf.clear();
                    return SpliceStep::Dead;
                }
            }
        }
    }

    /// Drains `outbuf[out_off..]` to the client through the shaper.
    fn flush_out(&mut self, ctx: &StepCtx<'_>) -> Flush {
        while self.out_off < self.outbuf.len() {
            let want = (self.outbuf.len() - self.out_off).min(SPLICE_CHUNK);
            let grant = match &mut self.bucket {
                None => want,
                Some(bucket) => {
                    if self.budget == 0 {
                        self.budget = bucket.take_at(want, ctx.now);
                    }
                    if self.budget == 0 {
                        let wait = bucket.park_at(want, ctx.now);
                        return Flush::Parked(Blocked::Timer(ctx.now + wait));
                    }
                    self.budget.min(want)
                }
            };
            match self
                .client
                .write(&self.outbuf[self.out_off..self.out_off + grant])
            {
                Ok(0) => return Flush::Dead,
                Ok(n) => {
                    self.out_off += n;
                    if self.bucket.is_some() {
                        self.budget -= n;
                    }
                    if !self.first_byte_sent {
                        self.first_byte_sent = true;
                        self.record_first_byte(ctx);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Flush::Parked(Blocked::ClientWrite);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Flush::Dead,
            }
        }
        self.outbuf.clear();
        self.out_off = 0;
        Flush::Drained
    }

    /// Queues a synthesized `status` response (Content-Length 0) and
    /// enters the Respond state.
    fn respond(&mut self, ctx: &StepCtx<'_>, status: StatusCode) {
        self.count_error(ctx);
        Lifecycle::bump(&ctx.lifecycle.error_responses);
        self.queue_head(&Response::new(status).with_header("Content-Length", "0"));
        self.state = State::Respond;
    }

    /// Makes `head` the pending client-bound bytes.
    fn queue_head(&mut self, head: &Response) {
        let mut enc = BytesMut::new();
        encode_response(head, &mut enc);
        self.outbuf.clear();
        self.out_off = 0;
        self.outbuf.extend_from_slice(&enc);
    }

    fn count_error(&self, ctx: &StepCtx<'_>) {
        if let Some(tel) = ctx.telemetry {
            tel.metrics.counter("relay_errors", vec![]).inc();
        }
    }

    /// Telemetry for one relayed request.
    fn after_request(&mut self, ctx: &StepCtx<'_>) {
        Lifecycle::bump(&ctx.lifecycle.requests_completed);
        if let Some(tel) = ctx.telemetry {
            let splice_start = self.fwd_start.duration_since(ctx.epoch);
            let dur = ctx.now.duration_since(self.fwd_start);
            tel.metrics.counter("relay_requests", vec![]).inc();
            tel.metrics
                .counter("relay_bytes", vec![])
                .add(self.body_len);
            tel.metrics
                .histogram("relay_splice_us", vec![])
                .record(dur.as_micros() as u64);
            tel.trace(|| {
                Event::span(
                    EventKind::RelaySplice,
                    splice_start.as_micros() as u64,
                    dur.as_micros() as u64,
                    self.id,
                )
                .with_u64("bytes", self.body_len)
            });
        }
    }

    fn record_first_byte(&self, ctx: &StepCtx<'_>) {
        if let Some(tel) = ctx.telemetry {
            let wait = ctx.now.duration_since(self.accept_at);
            tel.metrics
                .histogram("relay_accept_first_byte_us", vec![])
                .record(wait.as_micros() as u64);
            tel.trace(|| {
                Event::span(
                    EventKind::RelayFirstByte,
                    self.accept_at.duration_since(ctx.epoch).as_micros() as u64,
                    wait.as_micros() as u64,
                    self.id,
                )
            });
        }
    }

    fn close(&mut self, ctx: &StepCtx<'_>, kind: CloseKind) -> Step {
        match kind {
            CloseKind::Clean => Lifecycle::bump(&ctx.lifecycle.closed_clean),
            CloseKind::Error => Lifecycle::bump(&ctx.lifecycle.closed_error),
        }
        Step::Closed
    }
}

enum Pump {
    Done,
    WouldBlock,
    Err,
}

enum HeadStep {
    Parked(Blocked),
    Splice {
        remaining: u64,
    },
    /// A response was queued (origin protocol error).
    Respond,
    /// Reading from the origin failed; the status to answer with
    /// unless the request is resent (see `Conn::upstream_failed`).
    Failed(StatusCode),
}

enum SpliceStep {
    Parked(Blocked, u64),
    Complete,
    Dead,
}

enum Flush {
    Drained,
    Parked(Blocked),
    Dead,
}

/// A zero-byte write probe: distinguishes "connect still in flight"
/// from "connected" once `SO_ERROR` reads clean.
fn writable_now(origin: &TcpStream) -> bool {
    use crate::poller::{poll_fds, PollFd, POLLOUT};
    use std::os::unix::io::AsRawFd;
    let mut fds = [PollFd::new(origin.as_raw_fd(), POLLOUT)];
    matches!(poll_fds(&mut fds, Duration::ZERO), Ok(n) if n > 0)
}

/// `Connection: close` on a response head.
fn says_close(head: &Response) -> bool {
    head.headers.get("Connection").is_some_and(|v| {
        v.split(',')
            .any(|token| token.trim().eq_ignore_ascii_case("close"))
    })
}

/// Resolves `host:port`, preferring literal IPs (no blocking DNS on
/// the reactor threads for the loopback/IP deployments this models).
fn resolve(host: &str, port: u16) -> Option<SocketAddr> {
    if let Ok(ip) = host.parse::<IpAddr>() {
        return Some(SocketAddr::new(ip, port));
    }
    (host, port).to_socket_addrs().ok()?.next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_pool_recycles_up_to_its_cap() {
        let mut pool = BufferPool::default();
        assert_eq!(pool.pooled(), 0);

        // A returned full-size buffer is kept and handed back out.
        let buf = pool.take();
        assert!(buf.capacity() >= SPLICE_CHUNK);
        pool.give(buf);
        assert_eq!(pool.pooled(), 1);
        let again = pool.take();
        assert_eq!(pool.pooled(), 0);
        assert!(again.is_empty(), "recycled buffers come back cleared");

        // Undersized buffers are dropped, not pooled.
        pool.give(Vec::with_capacity(8));
        assert_eq!(pool.pooled(), 0);

        // The pool never holds more than MAX_POOLED chunks.
        for _ in 0..BufferPool::MAX_POOLED + 16 {
            pool.give(Vec::with_capacity(SPLICE_CHUNK));
        }
        assert_eq!(pool.pooled(), BufferPool::MAX_POOLED);
    }
}
