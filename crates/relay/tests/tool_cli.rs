//! `ir-relay-tool`'s failure exits: a malformed flag value is a usage
//! error (exit 2), and an address the daemon cannot listen on is a
//! runtime error (exit 1) that names the address.

use ir_relay::poller::{poll_fds, PollFd, POLLIN};
use std::io::Read;
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs the tool and returns its exit code and stderr. A tool still
/// running after five seconds is killed (exit code `None`): a daemon
/// that started serves forever.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ir-relay-tool"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = child.stderr.take().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut text = Vec::new();
    // The pipe reaches EOF when the tool exits.
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let mut fds = [PollFd::new(stderr.as_raw_fd(), POLLIN)];
        if left.is_zero() || poll_fds(&mut fds, left).unwrap() == 0 {
            child.kill().unwrap();
            break;
        }
        let mut chunk = [0u8; 1024];
        match stderr.read(&mut chunk).unwrap() {
            0 => break,
            n => text.extend_from_slice(&chunk[..n]),
        }
    }
    let status = child.wait().unwrap();
    (status.code(), String::from_utf8_lossy(&text).into_owned())
}

#[test]
fn listening_on_a_held_address_exits_1_and_names_it() {
    let held = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = held.local_addr().unwrap().to_string();
    for role in ["origin", "relay"] {
        let (code, stderr) = run(&[role, "--listen", &addr]);
        assert_eq!(code, Some(1), "{role}: {stderr}");
        assert!(
            stderr.contains(&format!("cannot listen on {addr}")),
            "{role}: {stderr}"
        );
    }
}

#[test]
fn every_malformed_flag_value_is_a_usage_error() {
    let cases: [&[&str]; 5] = [
        &["origin", "--listen", "127.0.0.1:0", "--size", "abc"],
        &["relay", "--listen", "127.0.0.1:0", "--rate-kbps", "fast"],
        &["fetch", "--direct", "127.0.0.1:1", "--origin", "nowhere"],
        &["fetch", "--direct", "127.0.0.1:1", "--probe", "abc"],
        &["fetch", "--direct", "127.0.0.1:1", "--size", "2MB"],
    ];
    for args in cases {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
    }
}
