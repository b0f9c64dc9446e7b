//! A transfer in flight costs the socket engine a socket, not a thread,
//! and lives no longer than the engine. The only test in its binary, so
//! the thread count it reads is the test's own.
#![cfg(target_os = "linux")]

use ir_core::Transport;
use ir_relay::RealTransport;
use ir_simnet::time::SimDuration;
use std::io::Read;
use std::net::TcpListener;
use std::time::Duration;

/// `Threads:` of `/proc/self/status`.
fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.unwrap().trim().parse().unwrap()
}

#[test]
fn in_flight_transfers_hold_no_thread_and_die_with_the_engine() {
    // Four paths that connect through the kernel backlog and never answer.
    let silent: Vec<TcpListener> = (0..4)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = silent.iter().map(|l| l.local_addr().unwrap()).collect();
    let before = threads();
    let timeout = Duration::from_secs(10);
    let (mut engine, paths) =
        RealTransport::star(addrs[0], addrs[0], &addrs[1..], "/f", 100, timeout);
    let handles: Vec<_> = paths.iter().map(|p| engine.begin(p, 0, 100)).collect();
    assert!(engine
        .race(&handles, SimDuration::from_millis(200))
        .is_none());
    assert_eq!(threads(), before, "a transfer in flight holds a thread");
    let progress: Vec<u64> = handles.iter().map(|&h| engine.progress(h)).collect();
    assert_eq!(progress, [0; 4]);

    drop(engine);
    for listener in &silent {
        let (mut end, _) = listener.accept().unwrap();
        end.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        // The request, then EOF; a read timeout is a socket left open.
        let mut got = Vec::new();
        end.read_to_end(&mut got)
            .expect("EOF within 1 s of dropping the engine");
        assert!(got.ends_with(b"\r\n\r\n"), "no request: {got:?}");
    }
}
