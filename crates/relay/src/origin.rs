//! The origin server: serves synthetic content with Range support.
//!
//! Stands in for the paper's destination web sites (eBay, Google, …).
//! Bodies are deterministic byte patterns so an end-to-end test can
//! verify that a probe + remainder reassembly is byte-exact.
//!
//! An origin is the relay's daemon ([`crate::relayd`]) started in the
//! serve role: same reactor thread and connection state machine,
//! with `plan_response` in place of the forward and [`fill_body`] in
//! place of the origin socket. This file holds only what the content
//! is; no socket is touched here.

use crate::conn::{LifecycleSnapshot, Role};
use crate::relayd::{Relay, RelayConfig};
use crate::shaper::RateSchedule;
use ir_http::{ByteRange, ContentRange, Request, Response, StatusCode};
use std::net::SocketAddr;
use std::time::Duration;

/// The deterministic content byte at offset `i`.
pub const fn body_byte(i: u64) -> u8 {
    (i % PERIOD as u64) as u8
}

/// The content's period: `body_byte(i + PERIOD) == body_byte(i)`.
const PERIOD: usize = 251;

/// Bytes [`fill_body`] and [`is_body`] take from [`TABLE`] per slice: a
/// whole number of periods (just under 64 KiB), so every run of a
/// buffer starts at the buffer's phase.
const RUN: usize = 261 * PERIOD;

/// The content from offset 0, one period longer than a run, so a run at
/// any phase is a single slice of it.
static TABLE: [u8; RUN + PERIOD] = {
    let mut table = [0; RUN + PERIOD];
    let mut i = 0;
    while i < table.len() {
        table[i] = body_byte(i as u64);
        i += 1;
    }
    table
};

/// Where in [`TABLE`] the content at `offset` starts.
fn phase(offset: u64) -> usize {
    (offset % PERIOD as u64) as usize
}

/// Fills `buf` with the content bytes starting at `offset`.
pub fn fill_body(offset: u64, buf: &mut [u8]) {
    let phase = phase(offset);
    for run in buf.chunks_mut(RUN) {
        run.copy_from_slice(&TABLE[phase..phase + run.len()]);
    }
}

/// Whether `buf` holds exactly the content bytes starting at `offset`;
/// every byte is compared.
pub fn is_body(offset: u64, buf: &[u8]) -> bool {
    let phase = phase(offset);
    buf.chunks(RUN)
        .all(|run| *run == TABLE[phase..phase + run.len()])
}

/// Origin configuration.
#[derive(Debug, Clone)]
pub struct OriginConfig {
    /// Length of the synthetic representation served for every path.
    pub content_len: u64,
    /// Optional response shaping (per connection): emulates the
    /// bottleneck on this leg.
    pub rate: Option<RateSchedule>,
    /// Added delay before each response — emulates path latency
    /// (roughly one RTT of request/response propagation).
    pub latency: Duration,
}

impl OriginConfig {
    /// Unshaped origin of `content_len` bytes.
    pub fn new(content_len: u64) -> Self {
        OriginConfig {
            content_len,
            rate: None,
            latency: Duration::ZERO,
        }
    }

    /// Adds response shaping.
    pub fn shaped(mut self, schedule: RateSchedule) -> Self {
        self.rate = Some(schedule);
        self
    }

    /// Adds per-response latency (path propagation emulation).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }
}

/// A running origin server on 127.0.0.1. Dropping it severs its
/// connections ([`Relay::kill`]).
pub struct OriginServer {
    daemon: Relay,
}

impl OriginServer {
    /// Binds an ephemeral loopback port and starts serving.
    pub fn start(cfg: OriginConfig) -> std::io::Result<OriginServer> {
        Self::start_on("127.0.0.1:0", cfg)
    }

    /// Binds an explicit address (e.g. `0.0.0.0:8080`) and starts
    /// serving.
    pub fn start_on(addr: &str, cfg: OriginConfig) -> std::io::Result<OriginServer> {
        Self::start_reaping(addr, cfg, RelayConfig::new().idle_timeout)
    }

    /// [`OriginServer::start_on`] with the progress deadline chosen:
    /// a connection making no progress for `idle_timeout` is closed.
    pub(crate) fn start_reaping(
        addr: &str,
        cfg: OriginConfig,
        idle_timeout: Duration,
    ) -> std::io::Result<OriginServer> {
        let daemon = RelayConfig {
            rate: cfg.rate,
            latency: cfg.latency,
            idle_timeout,
            ..RelayConfig::new()
        };
        let role = Role::Serve {
            content_len: cfg.content_len,
        };
        Ok(OriginServer {
            daemon: Relay::start_role(addr, daemon, role)?,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.daemon.addr()
    }

    /// Snapshot of the connection-lifecycle transition counters.
    pub fn lifecycle(&self) -> LifecycleSnapshot {
        self.daemon.lifecycle()
    }
}

/// Plans the response to `req` against `total` content bytes: the
/// head, and the offset and length of the body a `GET` carries.
pub(crate) fn plan_response(req: &Request, total: u64) -> (Response, u64, u64) {
    let Ok(range) = req.headers.get("Range").map(ByteRange::parse).transpose() else {
        let resp = Response::new(StatusCode::BAD_REQUEST).with_header("Content-Length", "0");
        return (resp, 0, 0);
    };
    let (status, first, last) = match range {
        None => (StatusCode::OK, 0, total.saturating_sub(1)),
        Some(r) => match r.resolve(total) {
            None => {
                let resp = Response::new(StatusCode::RANGE_NOT_SATISFIABLE)
                    .with_header("Content-Range", format!("bytes */{total}"))
                    .with_header("Content-Length", "0");
                return (resp, 0, 0);
            }
            Some((a, b)) => (StatusCode::PARTIAL_CONTENT, a, b),
        },
    };
    let len = if total == 0 { 0 } else { last - first + 1 };

    let mut resp = Response::new(status)
        .with_header("Content-Length", len.to_string())
        .with_header("Accept-Ranges", "bytes");
    if status == StatusCode::PARTIAL_CONTENT {
        resp = resp.with_header(
            "Content-Range",
            ContentRange::new(first, last, total).to_string(),
        );
    }
    (resp, first, len)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests pace real-socket scenarios with sleeps; the serve-path rule is about the daemon's own threads"
)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use ir_http::{via_proxy, Method, Parsed};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn get(addr: SocketAddr, req: &Request) -> (Response, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut buf = BytesMut::new();
        ir_http::encode_request(req, &mut buf);
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
                    let mut chunk = [0u8; 4096];
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "eof in head");
                    buf.extend_from_slice(&chunk[..n]);
                }
            }
        };
        let len = head.headers.content_length().unwrap().unwrap_or(0) as usize;
        let mut body = buf.to_vec();
        while body.len() < len {
            let mut chunk = [0u8; 8192];
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "eof in body");
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(len);
        (head, body)
    }

    #[test]
    fn serves_full_content() {
        let origin = OriginServer::start(OriginConfig::new(10_000)).unwrap();
        let req = Request::get("/file.bin").with_header("Host", "o");
        let (head, body) = get(origin.addr(), &req);
        assert_eq!(head.status, StatusCode::OK);
        assert_eq!(body.len(), 10_000);
        assert!(body
            .iter()
            .enumerate()
            .all(|(i, &b)| b == body_byte(i as u64)));
    }

    #[test]
    fn serves_prefix_range() {
        let origin = OriginServer::start(OriginConfig::new(100_000)).unwrap();
        let req = Request::get("/f")
            .with_header("Host", "o")
            .with_header("Range", ByteRange::first(1024).to_string());
        let (head, body) = get(origin.addr(), &req);
        assert_eq!(head.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(
            head.headers.get("Content-Range").unwrap(),
            "bytes 0-1023/100000"
        );
        assert_eq!(body.len(), 1024);
    }

    #[test]
    fn serves_suffix_remainder_and_reassembles() {
        let total = 50_000u64;
        let x = 10_000u64;
        let origin = OriginServer::start(OriginConfig::new(total)).unwrap();
        let (h1, part1) = get(
            origin.addr(),
            &Request::get("/f")
                .with_header("Host", "o")
                .with_header("Range", ByteRange::first(x).to_string()),
        );
        let (h2, part2) = get(
            origin.addr(),
            &Request::get("/f")
                .with_header("Host", "o")
                .with_header("Range", ByteRange::from_offset(x).to_string()),
        );
        assert_eq!(h1.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(h2.status, StatusCode::PARTIAL_CONTENT);
        let mut whole = part1;
        whole.extend_from_slice(&part2);
        assert_eq!(whole.len() as u64, total);
        assert!(whole
            .iter()
            .enumerate()
            .all(|(i, &b)| b == body_byte(i as u64)));
    }

    #[test]
    fn unsatisfiable_range_is_416() {
        let origin = OriginServer::start(OriginConfig::new(100)).unwrap();
        let req = Request::get("/f")
            .with_header("Host", "o")
            .with_header("Range", "bytes=500-");
        let (head, body) = get(origin.addr(), &req);
        assert_eq!(head.status, StatusCode::RANGE_NOT_SATISFIABLE);
        assert!(body.is_empty());
    }

    #[test]
    fn head_returns_no_body() {
        let origin = OriginServer::start(OriginConfig::new(5000)).unwrap();
        let mut req = Request::get("/f").with_header("Host", "o");
        req.method = Method::Head;
        // Read the head only — HEAD responses carry no body even though
        // Content-Length advertises the representation size.
        let mut stream = TcpStream::connect(origin.addr()).unwrap();
        let mut buf = BytesMut::new();
        ir_http::encode_request(&req, &mut buf);
        stream.write_all(&buf).unwrap();
        let (head, leftover) = crate::wire::read_head(&mut stream).unwrap();
        assert_eq!(head.status, StatusCode::OK);
        assert_eq!(head.headers.content_length().unwrap(), Some(5000));
        assert!(leftover.is_empty(), "HEAD must not send a body");
    }

    #[test]
    fn keep_alive_serial_requests() {
        let origin = OriginServer::start(OriginConfig::new(1000)).unwrap();
        let mut stream = TcpStream::connect(origin.addr()).unwrap();
        for _ in 0..3 {
            let mut buf = BytesMut::new();
            ir_http::encode_request(
                &Request::get("/f")
                    .with_header("Host", "o")
                    .with_header("Range", "bytes=0-9"),
                &mut buf,
            );
            stream.write_all(&buf).unwrap();
            let (head, body) = read_response(&mut stream);
            assert_eq!(head.status, StatusCode::PARTIAL_CONTENT);
            assert_eq!(body.len(), 10);
        }
    }

    #[test]
    fn shaped_origin_limits_rate() {
        let origin = OriginServer::start(
            OriginConfig::new(60_000).shaped(RateSchedule::constant(200_000.0)),
        )
        .unwrap();
        let t0 = std::time::Instant::now();
        let (_, body) = get(origin.addr(), &Request::get("/f").with_header("Host", "o"));
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(body.len(), 60_000);
        // A token bucket delivers at most its burst plus rate × time:
        // 60 KB minus the 16 KB burst at 200 KB/s.
        assert!(dt >= (60_000.0 - 16_384.0) / 200_000.0, "too fast: {dt}");
        assert!(dt < 1.0, "too slow: {dt}");
    }

    #[test]
    fn latency_delays_first_byte() {
        let fast = OriginServer::start(OriginConfig::new(100)).unwrap();
        let slow =
            OriginServer::start(OriginConfig::new(100).with_latency(Duration::from_millis(150)))
                .unwrap();
        let req = Request::get("/f").with_header("Host", "o");
        let t0 = std::time::Instant::now();
        let _ = get(fast.addr(), &req);
        let fast_dt = t0.elapsed();
        let t1 = std::time::Instant::now();
        let _ = get(slow.addr(), &req);
        let slow_dt = t1.elapsed();
        assert!(slow_dt >= Duration::from_millis(140), "{slow_dt:?}");
        assert!(slow_dt > fast_dt + Duration::from_millis(100));
    }

    /// The wire contract, byte for byte: every head below was recorded
    /// from the thread-per-connection origin this daemon replaced. One
    /// keep-alive connection carries all six, so a stray body byte
    /// (after the `HEAD`, after an error) would corrupt the next head.
    #[test]
    fn heads_and_bodies_are_the_recorded_wire_format() {
        const OK: &str = "HTTP/1.1 200 OK\r\nContent-Length: 10000\r\nAccept-Ranges: bytes\r\n\r\n";
        let cases: [(Method, Option<&str>, &str, std::ops::Range<u64>); 6] = [
            (Method::Get, None, OK, 0..10_000),
            (
                Method::Get,
                Some("bytes=0-1023"),
                "HTTP/1.1 206 Partial Content\r\nContent-Length: 1024\r\nAccept-Ranges: bytes\r\n\
                 Content-Range: bytes 0-1023/10000\r\n\r\n",
                0..1024,
            ),
            (Method::Head, None, OK, 0..0),
            (
                Method::Get,
                Some("bytes=9000-"),
                "HTTP/1.1 206 Partial Content\r\nContent-Length: 1000\r\nAccept-Ranges: bytes\r\n\
                 Content-Range: bytes 9000-9999/10000\r\n\r\n",
                9000..10_000,
            ),
            (
                Method::Get,
                Some("bytes=10500-"),
                "HTTP/1.1 416 Range Not Satisfiable\r\nContent-Range: bytes */10000\r\n\
                 Content-Length: 0\r\n\r\n",
                0..0,
            ),
            (
                Method::Get,
                Some("bytes=oops"),
                "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n",
                0..0,
            ),
        ];
        let origin = OriginServer::start(OriginConfig::new(10_000)).unwrap();
        let mut stream = TcpStream::connect(origin.addr()).unwrap();
        for (method, range, want_head, want_body) in cases {
            let mut req = Request::get("/f").with_header("Host", "o");
            req.method = method;
            if let Some(range) = range {
                req = req.with_header("Range", range);
            }
            let mut buf = BytesMut::new();
            ir_http::encode_request(&req, &mut buf);
            stream.write_all(&buf).unwrap();

            let mut head = Vec::new();
            while !head.ends_with(b"\r\n\r\n") {
                let mut byte = [0u8; 1];
                stream.read_exact(&mut byte).unwrap();
                head.push(byte[0]);
            }
            assert_eq!(String::from_utf8(head).unwrap(), want_head, "{range:?}");
            let mut body = vec![0u8; (want_body.end - want_body.start) as usize];
            stream.read_exact(&mut body).unwrap();
            let want: Vec<u8> = want_body.map(body_byte).collect();
            assert_eq!(body, want, "{range:?}");
        }
    }

    /// A client that asks for more than the socket buffers hold and
    /// never reads is closed by the progress deadline; nothing of it
    /// stays behind.
    #[test]
    fn a_reader_that_stops_reading_is_reaped_by_the_origin() {
        let origin = OriginServer::start_reaping(
            "127.0.0.1:0",
            OriginConfig::new(8 << 20),
            Duration::from_millis(300),
        )
        .unwrap();
        let mut stream = TcpStream::connect(origin.addr()).unwrap();
        let mut buf = BytesMut::new();
        ir_http::encode_request(&Request::get("/f").with_header("Host", "o"), &mut buf);
        stream.write_all(&buf).unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while origin.daemon.active_connections() > 0 || origin.lifecycle().accepted == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "stalled reader still held: {:?}",
                origin.lifecycle()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let life = origin.lifecycle();
        assert_eq!((life.idle_timeouts, life.closed_error), (1, 1), "{life:?}");
        assert_eq!(life.requests_completed, 0, "{life:?}");
        assert_eq!(
            life.accepted,
            life.closed_clean + life.closed_error + life.killed
        );
    }

    #[test]
    fn via_proxy_request_shape() {
        // (Compile-level sanity that the proxy helper interoperates.)
        let r = via_proxy("127.0.0.1", 8080, "/f");
        assert!(r.target.starts_with("http://127.0.0.1:8080/"));
    }

    /// `fill_body` and `is_body` are `body_byte`, run by run, at every
    /// phase and at lengths around a period and around a run, and one
    /// flipped byte anywhere fails the check.
    #[test]
    fn the_table_is_body_byte_at_every_phase() {
        let lens = [0, 1, 250, 251, 252, RUN - 1, RUN, RUN + 1, 2 * RUN + 3];
        let longest = 2 * RUN + 3;
        let content: Vec<u8> = (0..(PERIOD + longest) as u64).map(body_byte).collect();
        let far = 251 * 4_000_000_000; // a phase-0 offset past 2^40
        let mut buf = vec![0u8; longest];
        for phase in 0..PERIOD {
            for len in lens {
                let want = &content[phase..phase + len];
                for offset in [phase as u64, far + phase as u64] {
                    let got = &mut buf[..len];
                    got.fill(0xFF);
                    fill_body(offset, got);
                    assert!(got == want, "fill_body at {offset}, len {len}");
                    assert!(is_body(offset, want), "is_body at {offset}, len {len}");
                }
                if len > 0 {
                    assert!(!is_body(phase as u64 + 1, want), "phase {phase}, len {len}");
                }
                for at in [0, len / 2, len.saturating_sub(1)]
                    .into_iter()
                    .filter(|_| len > 0)
                {
                    let flipped = &mut buf[..len];
                    flipped.copy_from_slice(want);
                    flipped[at] ^= 0x80;
                    assert!(!is_body(phase as u64, flipped), "flip at {at}, len {len}");
                }
            }
        }
        let near_far: Vec<u8> = (far - 300..far + 300).map(body_byte).collect();
        assert!(is_body(far - 300, &near_far));
    }

    #[test]
    fn body_byte_is_periodic() {
        assert_eq!(body_byte(0), 0);
        assert_eq!(body_byte(250), 250);
        assert_eq!(body_byte(251), 0);
        let mut buf = [0u8; 8];
        fill_body(249, &mut buf);
        assert_eq!(buf, [249, 250, 0, 1, 2, 3, 4, 5]);
    }
}
