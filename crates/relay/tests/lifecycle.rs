//! Seeded state-machine sweep over the event-driven relay lifecycle.
//!
//! The reactor replaces blocked serve threads with per-connection state
//! machines (`accept → read request → latency → dial → send upstream →
//! read head → splice → keep-alive/drain/kill`). These tests drive
//! seeded scenarios — normal transfers, pipelined keep-alive, half-open
//! peers, slow readers, mid-splice kills, graceful drains — and assert
//! that every transition is reachable via the [`ir_relay::
//! LifecycleSnapshot`] counters and that nothing leaks: every accepted
//! connection reached a terminal counter and the active gauge is zero
//! once connections end.
#![expect(
    clippy::disallowed_methods,
    reason = "tests pace real-socket scenarios with sleeps; the serve-path rule is about the daemon's own threads"
)]

use bytes::BytesMut;
use ir_http::{encode_request, via_proxy, Parsed, Response, StatusCode};
use ir_relay::{body_byte, OriginConfig, OriginServer, RateSchedule, Relay, RelayConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

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
                assert!(n > 0, "relay hung up mid-response");
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    };
    let len = head.headers.content_length().unwrap().unwrap_or(0) as usize;
    let mut body = buf.to_vec();
    while body.len() < len {
        let mut chunk = [0u8; 8192];
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "relay hung up mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(len);
    (head, body)
}

fn send_range(stream: &mut TcpStream, origin: SocketAddr, from: u64, to: u64) {
    let req = via_proxy(&origin.ip().to_string(), origin.port(), "/f")
        .with_header("Range", format!("bytes={from}-{to}"));
    let mut buf = BytesMut::new();
    encode_request(&req, &mut buf);
    stream.write_all(&buf).unwrap();
}

/// The leak oracle: every accepted connection reached a terminal
/// counter.
fn all_closed(relay: &Relay) -> bool {
    let s = relay.lifecycle();
    s.accepted == s.closed_clean + s.closed_error + s.killed
}

/// Polls until the relay has reaped every connection (reactor ticks
/// are ~10 ms; closes race the assertions without this).
fn wait_quiesced(relay: &Relay) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if relay.active_connections() == 0 && all_closed(relay) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!(
        "relay did not quiesce: {} active, {:?}",
        relay.active_connections(),
        relay.lifecycle()
    );
}

#[test]
fn seeded_sweep_reaches_every_transition() {
    const CONTENT: u64 = 64_000;
    let origin = OriginServer::start(OriginConfig::new(CONTENT)).unwrap();
    // Small latency makes the Latency state reachable; a short idle
    // deadline keeps the half-open scenario fast.
    let mut relay = Relay::start(
        RelayConfig::new()
            .with_latency(Duration::from_millis(20))
            .with_idle_timeout(Duration::from_millis(400)),
    )
    .unwrap();

    // Normal + keep-alive transfers, seeded ranges.
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(0x11FE + seed);
        let mut stream = TcpStream::connect(relay.addr()).unwrap();
        let requests = rng.gen_range(1..4usize);
        for _ in 0..requests {
            let from = rng.gen_range(0..CONTENT - 64);
            let to = rng.gen_range(from..CONTENT.min(from + 8192));
            send_range(&mut stream, origin.addr(), from, to);
            let (head, body) = read_response(&mut stream);
            assert_eq!(head.status, StatusCode::PARTIAL_CONTENT);
            assert_eq!(body.len() as u64, to - from + 1);
            for (i, &b) in body.iter().enumerate() {
                assert_eq!(b, body_byte(from + i as u64), "corrupt byte at {i}");
            }
        }
    }

    // Error paths: an origin-form request (400)…
    {
        let mut stream = TcpStream::connect(relay.addr()).unwrap();
        let req = ir_http::Request::get("/origin-form").with_header("Host", "x");
        let mut buf = BytesMut::new();
        encode_request(&req, &mut buf);
        stream.write_all(&buf).unwrap();
        let (head, _) = read_response(&mut stream);
        assert_eq!(head.status, StatusCode::BAD_REQUEST);
    }
    // …and an unreachable origin (502).
    {
        let mut stream = TcpStream::connect(relay.addr()).unwrap();
        let req = via_proxy("127.0.0.1", 1, "/f");
        let mut buf = BytesMut::new();
        encode_request(&req, &mut buf);
        stream.write_all(&buf).unwrap();
        let (head, _) = read_response(&mut stream);
        assert_eq!(head.status, StatusCode::BAD_GATEWAY);
    }

    // Half-open peer: connects, never sends, gets reaped by the
    // progress deadline.
    {
        let _half_open = TcpStream::connect(relay.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(700));
    }
    wait_quiesced(&relay);

    // Drain with one idle keep-alive connection parked: it closes
    // immediately rather than waiting out its deadline.
    let mut idle = TcpStream::connect(relay.addr()).unwrap();
    send_range(&mut idle, origin.addr(), 0, 99);
    let (_, body) = read_response(&mut idle);
    assert_eq!(body.len(), 100);
    let report = relay.drain(Duration::from_secs(5));
    assert!(report.completed && report.monotone, "report {report:?}");

    let snap = relay.lifecycle();
    assert!(snap.accepted >= 9, "accepted {snap:?}");
    assert!(snap.requests_read > 0, "{snap:?}");
    assert!(snap.latency_waits > 0, "{snap:?}");
    assert!(snap.origin_dials > 0, "{snap:?}");
    assert!(snap.upstream_reuses > 0, "{snap:?}");
    assert!(snap.upstream_sends > 0, "{snap:?}");
    assert!(snap.heads_read > 0, "{snap:?}");
    assert!(snap.splices_started > 0, "{snap:?}");
    assert!(snap.requests_completed > 0, "{snap:?}");
    assert!(snap.error_responses >= 2, "{snap:?}");
    assert!(snap.closed_clean > 0, "{snap:?}");
    assert!(snap.idle_timeouts >= 1, "{snap:?}");
    assert!(snap.drained_idle >= 1, "{snap:?}");
    // No state left behind.
    assert!(all_closed(&relay), "leaked a connection: {snap:?}");
    assert_eq!(relay.active_connections(), 0);
}

#[test]
fn half_open_peer_is_reaped_without_leaking() {
    let relay =
        Relay::start(RelayConfig::new().with_idle_timeout(Duration::from_millis(200))).unwrap();
    let stream = TcpStream::connect(relay.addr()).unwrap();
    // Never send a byte; the reactor must reap us on its own.
    std::thread::sleep(Duration::from_millis(500));
    wait_quiesced(&relay);
    let snap = relay.lifecycle();
    assert_eq!(snap.idle_timeouts, 1, "{snap:?}");
    assert_eq!(snap.closed_error, 1, "{snap:?}");
    drop(stream);
}

#[test]
fn slow_reader_still_gets_every_byte() {
    const CONTENT: u64 = 4_000_000;
    let origin = OriginServer::start(OriginConfig::new(CONTENT)).unwrap();
    let relay = Relay::start(RelayConfig::new()).unwrap();
    let mut stream = TcpStream::connect(relay.addr()).unwrap();
    send_range(&mut stream, origin.addr(), 0, CONTENT - 1);

    // Read deliberately slowly so the kernel buffers fill and the
    // reactor parks the connection on client-writability.
    let mut got = 0u64;
    let mut chunk = [0u8; 16 * 1024];
    let mut reads = 0u32;
    loop {
        let n = stream.read(&mut chunk).unwrap();
        if n == 0 {
            break;
        }
        // Skip over the response head; spot-check body bytes.
        got += n as u64;
        reads += 1;
        if reads.is_multiple_of(8) {
            std::thread::sleep(Duration::from_millis(2));
        }
        if got >= CONTENT {
            break;
        }
    }
    assert!(got >= CONTENT, "short read: {got}");
    let deadline = Instant::now() + Duration::from_secs(5);
    while relay.lifecycle().requests_completed == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(relay.lifecycle().requests_completed, 1);
}

#[test]
fn mid_splice_kill_leaves_no_state_behind() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED + seed);
        let origin = OriginServer::start(OriginConfig::new(400_000)).unwrap();
        let mut relay =
            Relay::start(RelayConfig::shaped(RateSchedule::constant(200_000.0))).unwrap();
        let addr = relay.addr();
        let o = origin.addr();
        let t = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            send_range(&mut stream, o, 0, 399_999);
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
        std::thread::sleep(Duration::from_millis(rng.gen_range(100..400u64)));
        relay.kill();
        let got = t.join().expect("client must not panic");
        assert!(got < 400_000, "seed {seed}: transfer should be cut short");
        assert!(all_closed(&relay), "seed {seed}: leaked a connection");
        assert_eq!(relay.active_connections(), 0, "seed {seed}");
        let snap = relay.lifecycle();
        assert!(snap.killed >= 1, "seed {seed}: kill not observed {snap:?}");
    }
}

/// The origin is the same daemon in its serve role, so its connections
/// die with it: a detached serving thread used to finish the body.
#[test]
fn dropping_an_origin_severs_its_connections() {
    const CONTENT: u64 = 400_000;
    let origin =
        OriginServer::start(OriginConfig::new(CONTENT).shaped(RateSchedule::constant(200_000.0)))
            .unwrap();
    let mut stream = TcpStream::connect(origin.addr()).unwrap();
    let mut buf = BytesMut::new();
    encode_request(
        &ir_http::Request::get("/f").with_header("Host", "o"),
        &mut buf,
    );
    stream.write_all(&buf).unwrap();
    // Mid-body: the burst and a little more have arrived.
    let mut got = 0usize;
    let mut chunk = [0u8; 8192];
    while got < 30_000 {
        got += stream.read(&mut chunk).unwrap();
    }
    drop(origin);
    let t0 = Instant::now();
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => got += n,
        }
    }
    assert!((got as u64) < CONTENT, "the whole body arrived: {got}");
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "client noticed after {:?}",
        t0.elapsed()
    );
}

/// The sweep's leak oracle against a serve-role daemon: whatever the
/// clients do, every accepted connection reaches a terminal counter.
#[test]
fn serve_role_sweep_accounts_for_every_connection() {
    const CONTENT: u64 = 8 << 20;
    let origin = OriginServer::start(OriginConfig::new(CONTENT)).unwrap();
    let send = |stream: &mut TcpStream, method: ir_http::Method, range: Option<String>| {
        let mut req = ir_http::Request::get("/f").with_header("Host", "o");
        req.method = method;
        if let Some(range) = range {
            req = req.with_header("Range", range);
        }
        let mut buf = BytesMut::new();
        encode_request(&req, &mut buf);
        stream.write_all(&buf).unwrap();
    };
    let mut opened = 0u64;
    let mut answered = 0u64;
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x0516 + seed);
        let mut stream = TcpStream::connect(origin.addr()).unwrap();
        opened += 1;
        for _ in 0..rng.gen_range(1..4usize) {
            let from = rng.gen_range(0..CONTENT - 64);
            let to = rng.gen_range(from..CONTENT.min(from + 40_000));
            let (method, range, want) = match rng.gen_range(0..4u32) {
                0 => (ir_http::Method::Head, None, StatusCode::OK),
                1 => (
                    ir_http::Method::Get,
                    Some(format!("bytes={}-", CONTENT + from)),
                    StatusCode::RANGE_NOT_SATISFIABLE,
                ),
                2 => (
                    ir_http::Method::Get,
                    Some("bytes=nonsense".to_string()),
                    StatusCode::BAD_REQUEST,
                ),
                _ => (
                    ir_http::Method::Get,
                    Some(format!("bytes={from}-{to}")),
                    StatusCode::PARTIAL_CONTENT,
                ),
            };
            send(&mut stream, method, range);
            if method == ir_http::Method::Head {
                let (head, rest) = ir_relay::wire::read_head(&mut stream).unwrap();
                assert_eq!((head.status, rest.len()), (want, 0), "seed {seed}");
            } else {
                let (head, body) = read_response(&mut stream);
                assert_eq!(head.status, want, "seed {seed}");
                if want == StatusCode::PARTIAL_CONTENT {
                    let bytes: Vec<u8> = (from..=to).map(body_byte).collect();
                    assert_eq!(body, bytes, "seed {seed}");
                }
            }
            answered += 1;
        }
        // Half of the clients walk away mid-body instead of closing
        // between requests.
        if seed % 2 == 0 {
            send(&mut stream, ir_http::Method::Get, None);
            let mut first = [0u8; 512];
            stream.read_exact(&mut first).unwrap();
        }
    }
    // A client that sends no HTTP at all.
    {
        let mut stream = TcpStream::connect(origin.addr()).unwrap();
        opened += 1;
        stream.write_all(b"\x00\x01 not http\r\n\r\n").unwrap();
        let mut sink = [0u8; 64];
        assert!(matches!(stream.read(&mut sink), Ok(0) | Err(_)));
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    let settled = |s: &ir_relay::LifecycleSnapshot| {
        s.accepted == opened && s.accepted == s.closed_clean + s.closed_error + s.killed
    };
    while !settled(&origin.lifecycle()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = origin.lifecycle();
    assert!(settled(&snap), "{opened} opened, leaked: {snap:?}");
    assert!(snap.requests_completed >= answered, "{snap:?}");
    assert!(
        snap.closed_clean >= 3 && snap.closed_error >= 1,
        "both ends of the ledger were exercised: {snap:?}"
    );
    // The forward-only transitions are unreachable in this role.
    assert_eq!(
        (snap.origin_dials, snap.upstream_sends, snap.heads_read),
        (0, 0, 0),
        "{snap:?}"
    );
}
