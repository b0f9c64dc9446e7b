//! A request waiting out its latency watches its client: a client that
//! sends a request and leaves is closed when it leaves, not when the
//! latency ends (DESIGN.md §15).
#![expect(
    clippy::disallowed_methods,
    reason = "tests pace real-socket scenarios with sleeps; the serve-path rule is about the daemon's own threads"
)]

use bytes::BytesMut;
use ir_http::{encode_request, Request};
use ir_relay::{LifecycleSnapshot, OriginConfig, OriginServer};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn abandoned_latency_waits_close_with_their_clients() {
    const CLIENTS: u64 = 32;
    let origin =
        OriginServer::start(OriginConfig::new(12_000).with_latency(Duration::from_secs(2)))
            .unwrap();
    let mut req = BytesMut::new();
    encode_request(&Request::get("/f").with_header("Host", "o"), &mut req);

    let t0 = Instant::now();
    for _ in 0..CLIENTS {
        let mut stream = TcpStream::connect(origin.addr()).unwrap();
        stream.write_all(&req).unwrap();
    }
    let closed = |s: &LifecycleSnapshot| s.closed_clean + s.closed_error + s.killed;
    let within = Duration::from_millis(500);
    while closed(&origin.lifecycle()) < CLIENTS && t0.elapsed() < within {
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = origin.lifecycle();
    assert_eq!(closed(&snap), CLIENTS, "after {:?}: {snap:?}", t0.elapsed());
    // Every one waited, none was answered, and each left as an error.
    assert_eq!(snap.accepted, CLIENTS, "{snap:?}");
    assert_eq!(snap.latency_waits, CLIENTS, "{snap:?}");
    assert_eq!(snap.closed_error, CLIENTS, "{snap:?}");
    assert_eq!(snap.requests_completed, 0, "{snap:?}");
}
