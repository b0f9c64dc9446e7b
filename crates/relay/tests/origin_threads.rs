//! A daemon is one thread, whatever its load: an origin and a relay
//! each add exactly one, and 100 connections parked in them and then
//! served add none. Alone in this file so that no neighbouring test's
//! threads are counted.
#![cfg(target_os = "linux")]
#![expect(
    clippy::disallowed_methods,
    reason = "tests pace real-socket scenarios with sleeps; the serve-path rule is about the daemon's own threads"
)]

use bytes::BytesMut;
use ir_http::{encode_request, via_proxy, StatusCode};
use ir_relay::{wire, LifecycleSnapshot, OriginConfig, OriginServer, Relay, RelayConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

/// Waits until `n` requests have been read and wait out their latency.
fn await_parked(lifecycle: impl Fn() -> LifecycleSnapshot, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while lifecycle().latency_waits < n {
        assert!(Instant::now() < deadline, "{:?}", lifecycle());
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Opens `n` connections to `addr`, each sending `request`.
fn connect(addr: std::net::SocketAddr, request: &[u8], n: usize) -> Vec<TcpStream> {
    (0..n)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(request).unwrap();
            stream
        })
        .collect()
}

fn serve_all(clients: &mut [TcpStream]) {
    for stream in clients {
        let (head, prefix) = wire::read_head(stream).unwrap();
        assert_eq!(head.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(wire::read_body(stream, prefix, 100).unwrap().len(), 100);
    }
}

#[test]
fn each_daemon_is_one_thread_whatever_its_load() {
    let latency = Duration::from_millis(400);
    let base = threads();
    let origin = OriginServer::start(OriginConfig::new(1_000).with_latency(latency)).unwrap();
    assert_eq!(threads(), base + 1, "a started origin is one thread");

    let mut request = BytesMut::new();
    encode_request(
        &ir_http::Request::get("/f")
            .with_header("Host", "o")
            .with_header("Range", "bytes=0-99"),
        &mut request,
    );
    let mut clients = connect(origin.addr(), &request, 100);
    await_parked(|| origin.lifecycle(), 100);
    assert_eq!(
        threads(),
        base + 1,
        "100 parked origin connections added threads"
    );
    serve_all(&mut clients);
    assert_eq!(
        threads(),
        base + 1,
        "100 open origin connections added threads"
    );

    let relay = Relay::start(RelayConfig::new().with_latency(latency)).unwrap();
    assert_eq!(threads(), base + 2, "a started relay is one thread");
    let o = origin.addr();
    let mut request = BytesMut::new();
    encode_request(
        &via_proxy(&o.ip().to_string(), o.port(), "/f").with_header("Range", "bytes=0-99"),
        &mut request,
    );
    let mut relayed = connect(relay.addr(), &request, 100);
    await_parked(|| relay.lifecycle(), 100);
    assert_eq!(
        threads(),
        base + 2,
        "100 parked relay connections added threads"
    );
    serve_all(&mut relayed);
    assert_eq!(threads(), base + 2, "100 relayed connections added threads");
}
