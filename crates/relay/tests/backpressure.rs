//! Accept-side backpressure regression tests.
//!
//! With `max_connections = K`, the K+1-th connection must be refused
//! with a 503 (or parked, under [`ir_relay::Backpressure::Queue`]),
//! `relay_backpressure_drops` / `relay_backpressure_queued` must
//! count the event, and — crucially — connections admitted earlier
//! must keep serving byte-for-byte correct responses.
#![expect(
    clippy::disallowed_methods,
    reason = "tests pace real-socket scenarios with sleeps; the serve-path rule is about the daemon's own threads"
)]

use bytes::BytesMut;
use ir_http::{encode_request, via_proxy, Parsed, Response, StatusCode};
use ir_relay::{
    body_byte, Backpressure, OriginConfig, OriginServer, RateSchedule, Relay, RelayConfig,
};
use ir_telemetry::Telemetry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
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

fn request_range(stream: &mut TcpStream, origin: SocketAddr, from: u64, to: u64) {
    let req = via_proxy(&origin.ip().to_string(), origin.port(), "/f")
        .with_header("Range", format!("bytes={from}-{to}"));
    let mut buf = BytesMut::new();
    encode_request(&req, &mut buf);
    stream.write_all(&buf).unwrap();
}

fn assert_body(body: &[u8], from: u64) {
    for (i, &b) in body.iter().enumerate() {
        assert_eq!(b, body_byte(from + i as u64), "corrupt byte at offset {i}");
    }
}

fn wait_for_active(relay: &Relay, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while relay.active_connections() != want {
        assert!(Instant::now() < deadline, "active never reached {want}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn refuse_policy_returns_503_and_spares_admitted_connections() {
    let tel = Arc::new(Telemetry::new());
    let origin = OriginServer::start(OriginConfig::new(20_000)).unwrap();
    let relay = Relay::start(
        RelayConfig::new()
            .with_telemetry(tel.clone())
            .with_max_connections(2, Backpressure::Refuse),
    )
    .unwrap();

    // Fill both slots with keep-alive connections that each complete a
    // full request.
    let mut first = TcpStream::connect(relay.addr()).unwrap();
    request_range(&mut first, origin.addr(), 0, 4_999);
    let (head, body) = read_response(&mut first);
    assert_eq!(head.status, StatusCode::PARTIAL_CONTENT);
    assert_body(&body, 0);
    let mut second = TcpStream::connect(relay.addr()).unwrap();
    request_range(&mut second, origin.addr(), 100, 5_099);
    let (_, body) = read_response(&mut second);
    assert_body(&body, 100);
    wait_for_active(&relay, 2);

    // The third connection is refused before it sends anything: the
    // relay answers 503 on accept and hangs up.
    let mut third = TcpStream::connect(relay.addr()).unwrap();
    let (head, body) = read_response(&mut third);
    assert_eq!(head.status, StatusCode::SERVICE_UNAVAILABLE);
    assert!(body.is_empty());
    let snap = tel.metrics.snapshot();
    assert_eq!(snap.counter("relay_backpressure_drops", &vec![]), Some(1));

    // Admitted connections are unaffected: byte-for-byte identical
    // service continues on the keep-alive sockets.
    request_range(&mut first, origin.addr(), 7_000, 11_999);
    let (head, body) = read_response(&mut first);
    assert_eq!(head.status, StatusCode::PARTIAL_CONTENT);
    assert_eq!(body.len(), 5_000);
    assert_body(&body, 7_000);

    // Releasing a slot re-opens admission.
    drop(first);
    drop(second);
    wait_for_active(&relay, 0);
    let mut fourth = TcpStream::connect(relay.addr()).unwrap();
    request_range(&mut fourth, origin.addr(), 0, 999);
    let (head, body) = read_response(&mut fourth);
    assert_eq!(head.status, StatusCode::PARTIAL_CONTENT);
    assert_body(&body, 0);
}

#[test]
fn queue_policy_parks_then_serves_and_overflows_to_503() {
    let tel = Arc::new(Telemetry::new());
    let origin = OriginServer::start(OriginConfig::new(150_000)).unwrap();
    // One slot, shaped so the first transfer occupies it long enough
    // for the others to pile up behind it.
    let relay = Relay::start(
        RelayConfig::shaped(RateSchedule::constant(300_000.0))
            .with_telemetry(tel.clone())
            .with_max_connections(1, Backpressure::Queue),
    )
    .unwrap();
    let addr = relay.addr();
    let o = origin.addr();

    let occupant = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        request_range(&mut stream, o, 0, 149_999);
        let (head, body) = read_response(&mut stream);
        assert_eq!(head.status, StatusCode::PARTIAL_CONTENT);
        assert_body(&body, 0);
        body.len()
        // Dropping the stream releases the slot.
    });

    // Give the occupant time to be admitted, then join the queue.
    wait_for_active(&relay, 1);
    let mut queued = TcpStream::connect(addr).unwrap();
    request_range(&mut queued, o, 500, 1_499);

    // While one connection is parked (queue capacity = max = 1), a
    // further arrival overflows to a refusal.
    std::thread::sleep(Duration::from_millis(100));
    let mut overflow = TcpStream::connect(addr).unwrap();
    let (head, _) = read_response(&mut overflow);
    assert_eq!(head.status, StatusCode::SERVICE_UNAVAILABLE);

    // The queued connection is eventually admitted and served
    // correctly — its request sat in the socket buffer all along.
    let (head, body) = read_response(&mut queued);
    assert_eq!(head.status, StatusCode::PARTIAL_CONTENT);
    assert_eq!(body.len(), 1_000);
    assert_body(&body, 500);

    assert_eq!(occupant.join().unwrap(), 150_000);
    let snap = tel.metrics.snapshot();
    assert!(
        snap.counter("relay_backpressure_queued", &vec![])
            .unwrap_or(0)
            >= 1
    );
    assert_eq!(snap.counter("relay_backpressure_drops", &vec![]), Some(1));
}

/// A one-slot `Queue` relay: an idle keep-alive connection holds the
/// slot, and a second one, its request sent, is parked behind it.
struct OneParked {
    tel: Arc<Telemetry>,
    _origin: OriginServer,
    relay: Relay,
    occupant: TcpStream,
    parked: TcpStream,
}

fn one_parked() -> OneParked {
    let tel = Arc::new(Telemetry::new());
    let origin = OriginServer::start(OriginConfig::new(20_000)).unwrap();
    let relay = Relay::start(
        RelayConfig::new()
            .with_telemetry(tel.clone())
            .with_max_connections(1, Backpressure::Queue),
    )
    .unwrap();

    let mut occupant = TcpStream::connect(relay.addr()).unwrap();
    request_range(&mut occupant, origin.addr(), 0, 999);
    let (_, body) = read_response(&mut occupant);
    assert_body(&body, 0);

    let mut parked = TcpStream::connect(relay.addr()).unwrap();
    parked
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    request_range(&mut parked, origin.addr(), 4_000, 4_999);
    let deadline = Instant::now() + Duration::from_secs(5);
    while tel
        .metrics
        .snapshot()
        .counter("relay_backpressure_queued", &vec![])
        != Some(1)
    {
        assert!(Instant::now() < deadline, "connection never parked");
        std::thread::sleep(Duration::from_millis(2));
    }
    OneParked {
        tel,
        _origin: origin,
        relay,
        occupant,
        parked,
    }
}

/// With nobody else connecting, a parked connection is admitted as
/// soon as the reactor closes the one holding the slot: no timer and
/// no new accept is needed.
#[test]
fn parked_connection_is_admitted_when_a_slot_frees() {
    let mut s = one_parked();
    assert_eq!(s.relay.active_connections(), 1);

    drop(s.occupant);
    let (head, body) = read_response(&mut s.parked);
    assert_eq!(head.status, StatusCode::PARTIAL_CONTENT);
    assert_eq!(body.len(), 1_000);
    assert_body(&body, 4_000);
}

/// A socket still parked when the relay stops gets a clean 503, whether
/// the stop is a crash (`kill`) or a graceful `drain`.
#[test]
fn parked_connection_is_refused_when_the_relay_stops() {
    for drain in [false, true] {
        let mut s = one_parked();
        if drain {
            let report = s.relay.drain(Duration::from_secs(5));
            assert!(report.completed, "{report:?}");
        } else {
            s.relay.kill();
        }
        let (head, body) = read_response(&mut s.parked);
        assert_eq!(
            head.status,
            StatusCode::SERVICE_UNAVAILABLE,
            "drain: {drain}"
        );
        assert!(body.is_empty());
        let snap = s.tel.metrics.snapshot();
        assert_eq!(snap.counter("relay_backpressure_drops", &vec![]), Some(1));
    }
}
