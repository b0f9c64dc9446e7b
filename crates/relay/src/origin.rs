//! The origin server: serves synthetic content with Range support.
//!
//! Stands in for the paper's destination web sites (eBay, Google, …).
//! Bodies are deterministic byte patterns so an end-to-end test can
//! verify that a probe + remainder reassembly is byte-exact.

use crate::error::RelayError;
use crate::poller::{
    accept_backoff, accept_error_is_transient, wake_pipe, PollFd, WakeRx, Waker, POLLIN,
};
use crate::shaper::{RateSchedule, TokenBucket};
use crate::stream::ThrottledStream;
use bytes::BytesMut;
use ir_http::{
    encode_response, parse_request, ByteRange, ContentRange, Method, Parsed, Request, Response,
    StatusCode,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The deterministic content byte at offset `i`.
pub fn body_byte(i: u64) -> u8 {
    (i % 251) as u8
}

/// Fills `buf` with the content bytes starting at `offset`.
pub fn fill_body(offset: u64, buf: &mut [u8]) {
    for (k, b) in buf.iter_mut().enumerate() {
        *b = body_byte(offset + k as u64);
    }
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

/// A running origin server on 127.0.0.1.
pub struct OriginServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Unparks the accept loop so it sees `shutdown`.
    wake: Waker,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl OriginServer {
    /// Binds an ephemeral loopback port and starts the accept loop.
    pub fn start(cfg: OriginConfig) -> std::io::Result<OriginServer> {
        Self::start_on("127.0.0.1:0", cfg)
    }

    /// Binds an explicit address (e.g. `0.0.0.0:8080`) and starts the
    /// accept loop.
    pub fn start_on(addr: &str, cfg: OriginConfig) -> std::io::Result<OriginServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let (wake, wake_rx) = wake_pipe()?;
        let handle = std::thread::spawn(move || {
            accept_loop(listener, cfg, flag, wake_rx);
        });
        Ok(OriginServer {
            addr,
            shutdown,
            wake,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for OriginServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop parks in `poll` with no timeout: without the
        // wake byte the join below would wait for the next connection.
        self.wake.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    cfg: OriginConfig,
    shutdown: Arc<AtomicBool>,
    wake_rx: WakeRx,
) {
    // All connections share one path timeline: schedules are anchored
    // at server start, not per connection.
    let epoch = std::time::Instant::now();
    let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN), wake_rx.poll_fd()];
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let cfg = cfg.clone();
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, &cfg, epoch);
                });
            }
            // Backlog drained: park until a connection or `Drop`.
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => wake_rx.park(&mut fds),
            Err(e) if accept_error_is_transient(&e) => accept_backoff(),
            Err(_) => break,
        }
    }
}

/// Reads one request head from `stream` into `buf`; `Ok(None)` on clean
/// EOF before any bytes of a new request.
fn read_request(stream: &mut TcpStream, buf: &mut BytesMut) -> Result<Option<Request>, RelayError> {
    loop {
        match parse_request(&buf[..])? {
            Parsed::Complete { value, consumed } => {
                let _ = buf.split_to(consumed);
                return Ok(Some(value));
            }
            Parsed::Partial => {}
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(RelayError::Http(ir_http::HttpError::UnexpectedEof));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn serve_connection(
    mut stream: TcpStream,
    cfg: &OriginConfig,
    epoch: std::time::Instant,
) -> Result<(), RelayError> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let mut inbuf = BytesMut::new();
    loop {
        let Some(req) = read_request(&mut stream, &mut inbuf)? else {
            return Ok(()); // peer closed between requests
        };
        if !cfg.latency.is_zero() {
            std::thread::sleep(cfg.latency);
        }
        let mut out: Box<dyn Write> = match &cfg.rate {
            Some(schedule) => Box::new(ThrottledStream::new(
                stream.try_clone()?,
                TokenBucket::with_epoch(schedule.clone(), 16_384.0, epoch),
            )),
            None => Box::new(stream.try_clone()?),
        };
        respond(&mut *out, &req, cfg)?;
        out.flush()?;
    }
}

fn respond(out: &mut dyn Write, req: &Request, cfg: &OriginConfig) -> Result<(), RelayError> {
    let total = cfg.content_len;
    let range = match req.headers.get("Range") {
        None => None,
        Some(v) => match ByteRange::parse(v) {
            Ok(r) => Some(r),
            Err(_) => {
                return write_head(
                    out,
                    &Response::new(StatusCode::BAD_REQUEST).with_header("Content-Length", "0"),
                );
            }
        },
    };

    let (status, first, last) = match range {
        None => (StatusCode::OK, 0, total.saturating_sub(1)),
        Some(r) => match r.resolve(total) {
            None => {
                let resp = Response::new(StatusCode::RANGE_NOT_SATISFIABLE)
                    .with_header("Content-Range", format!("bytes */{total}"))
                    .with_header("Content-Length", "0");
                return write_head(out, &resp);
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
    write_head(out, &resp)?;

    if req.method == Method::Head || len == 0 {
        return Ok(());
    }
    // Stream the body in chunks.
    let mut offset = first;
    let mut remaining = len;
    let mut chunk = vec![0u8; 16 * 1024];
    while remaining > 0 {
        let n = (remaining as usize).min(chunk.len());
        fill_body(offset, &mut chunk[..n]);
        out.write_all(&chunk[..n])?;
        offset += n as u64;
        remaining -= n as u64;
    }
    Ok(())
}

fn write_head(out: &mut dyn Write, resp: &Response) -> Result<(), RelayError> {
    let mut buf = BytesMut::new();
    encode_response(resp, &mut buf);
    out.write_all(&buf)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_http::via_proxy;

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
        // 60 KB minus 16 KB burst at 200 KB/s ≈ 0.22 s.
        assert!(dt > 0.1, "too fast: {dt}");
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

    #[test]
    fn via_proxy_request_shape() {
        // (Compile-level sanity that the proxy helper interoperates.)
        let r = via_proxy("127.0.0.1", 8080, "/f");
        assert!(r.target.starts_with("http://127.0.0.1:8080/"));
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
