//! The origin costs no thread per connection. Alone in this file so
//! that no neighbouring test's threads are counted.
#![cfg(target_os = "linux")]
#![expect(
    clippy::disallowed_methods,
    reason = "tests pace real-socket scenarios with sleeps; the serve-path rule is about the daemon's own threads"
)]

use bytes::BytesMut;
use ir_http::{encode_request, Request, StatusCode};
use ir_relay::{wire, OriginConfig, OriginServer, RelayConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

#[test]
fn origin_holds_no_thread_per_connection() {
    let origin =
        OriginServer::start(OriginConfig::new(1_000).with_latency(Duration::from_millis(400)))
            .unwrap();
    let mut request = BytesMut::new();
    encode_request(
        &Request::get("/f")
            .with_header("Host", "o")
            .with_header("Range", "bytes=0-99"),
        &mut request,
    );
    let connect = |n: usize| -> Vec<TcpStream> {
        (0..n)
            .map(|_| {
                let mut stream = TcpStream::connect(origin.addr()).unwrap();
                stream.write_all(&request).unwrap();
                stream
            })
            .collect()
    };
    // A shard's thread starts with its first connection: one
    // connection per shard brings the daemon to its full size.
    let shards = RelayConfig::new().workers;
    let warm = connect(shards);
    let deadline = Instant::now() + Duration::from_secs(5);
    while origin.lifecycle().latency_waits < shards as u64 {
        assert!(Instant::now() < deadline, "{:?}", origin.lifecycle());
        std::thread::sleep(Duration::from_millis(2));
    }
    let base = threads();

    let mut clients = connect(100);
    // Every request has been read and now waits out the latency.
    while origin.lifecycle().latency_waits < (shards + 100) as u64 {
        assert!(Instant::now() < deadline, "{:?}", origin.lifecycle());
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(threads(), base, "100 parked connections added threads");

    for stream in &mut clients {
        let (head, prefix) = wire::read_head(stream).unwrap();
        assert_eq!(head.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(wire::read_body(stream, prefix, 100).unwrap().len(), 100);
    }
    assert_eq!(threads(), base, "100 open connections added threads");
    drop(warm);
}
