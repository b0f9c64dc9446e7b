//! `ir-relay-tool` — run the indirect-routing components from the
//! command line.
//!
//! ```text
//! ir-relay-tool origin --listen 127.0.0.1:8080 --size 2097152 [--rate-kbps 800] [--latency-ms 120]
//! ir-relay-tool relay  --listen 127.0.0.1:3128 [--rate-kbps 400] [--latency-ms 80]
//! ir-relay-tool fetch  --direct 127.0.0.1:8080 --origin 127.0.0.1:8081 \
//!                      --relays 127.0.0.1:3128,127.0.0.1:3129 \
//!                      [--size 2097152] [--probe 102400] [--path /file.bin]
//! ```
//!
//! `origin` serves synthetic content with Range support (optionally
//! shaped); `relay` runs the forwarding service; `fetch` performs the
//! paper's probed download — race the probe over direct + relays, pull
//! the remainder on the winner's warm connection — and reports which
//! path won and the throughput achieved.
//!
//! A malformed flag value exits 2 with the usage text; an address the
//! daemon cannot listen on exits 1.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use ir_relay::{
    download, ChosenPath, ClientConfig, OriginConfig, OriginServer, RateSchedule, Relay,
    RelayConfig,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::str::FromStr;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  ir-relay-tool origin --listen ADDR --size BYTES [--rate-kbps K]\n  \
         ir-relay-tool relay --listen ADDR [--rate-kbps K]\n  \
         ir-relay-tool fetch --direct ADDR --origin ADDR [--relays A,B,..] \
[--size BYTES] [--probe BYTES] [--path /p]"
    );
    std::process::exit(2);
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            usage();
        };
        let Some(value) = args.get(i + 1) else {
            usage();
        };
        map.insert(key.to_string(), value.clone());
        i += 2;
    }
    map
}

/// `--key`'s value, parsed: `None` when the flag is absent, a usage error
/// when its value does not parse.
fn parsed<T: FromStr>(flags: &HashMap<String, String>, key: &str) -> Option<T> {
    flags
        .get(key)
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
}

fn rate_schedule(flags: &HashMap<String, String>) -> Option<RateSchedule> {
    parsed(flags, "rate-kbps").map(|kbps: f64| RateSchedule::constant(kbps * 1000.0))
}

fn latency(flags: &HashMap<String, String>) -> Duration {
    Duration::from_millis(parsed(flags, "latency-ms").unwrap_or(0))
}

fn cannot_listen(addr: &str, e: std::io::Error) -> ! {
    eprintln!("error: cannot listen on {addr}: {e}");
    std::process::exit(1);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let flags = parse_flags(&argv[1..]);

    match cmd.as_str() {
        "origin" => {
            let listen = flags.get("listen").unwrap_or_else(|| usage());
            let size: u64 = parsed(&flags, "size").unwrap_or(2 * 1024 * 1024);
            let mut cfg = OriginConfig::new(size).with_latency(latency(&flags));
            if let Some(sched) = rate_schedule(&flags) {
                cfg = cfg.shaped(sched);
            }
            let server =
                OriginServer::start_on(listen, cfg).unwrap_or_else(|e| cannot_listen(listen, e));
            println!("origin serving {size} bytes on {}", server.addr());
            park_forever();
        }
        "relay" => {
            let listen = flags.get("listen").unwrap_or_else(|| usage());
            let cfg = match rate_schedule(&flags) {
                Some(sched) => RelayConfig::shaped(sched),
                None => RelayConfig::new(),
            }
            .with_latency(latency(&flags));
            let relay = Relay::start_on(listen, cfg).unwrap_or_else(|e| cannot_listen(listen, e));
            println!("relay forwarding on {}", relay.addr());
            park_forever();
        }
        "fetch" => {
            let direct: SocketAddr = parsed(&flags, "direct").unwrap_or_else(|| usage());
            let origin: SocketAddr = parsed(&flags, "origin").unwrap_or(direct);
            let relays: Vec<SocketAddr> = flags
                .get("relays")
                .map(|v| {
                    v.split(',')
                        .map(|a| a.parse().unwrap_or_else(|_| usage()))
                        .collect()
                })
                .unwrap_or_default();
            let cfg = ClientConfig {
                path: flags
                    .get("path")
                    .cloned()
                    .unwrap_or_else(|| "/file.bin".into()),
                probe_bytes: parsed(&flags, "probe").unwrap_or(100 * 1024),
                total_bytes: parsed(&flags, "size").unwrap_or(2 * 1024 * 1024),
                timeout: Duration::from_secs(120),
            };
            match download(direct, origin, &relays, &cfg) {
                Ok(out) => {
                    let choice = match out.choice {
                        ChosenPath::Direct => "direct".to_string(),
                        ChosenPath::Relay(i) => format!("relay {} ({})", i, relays[i]),
                    };
                    println!(
                        "chose {choice}; probe {:.0} B/s; end-to-end {:.0} B/s in {:.2}s; content {}",
                        out.probe_throughput,
                        out.throughput,
                        out.elapsed.as_secs_f64(),
                        if out.body_ok { "verified" } else { "MISMATCH" }
                    );
                    if !out.body_ok {
                        std::process::exit(1);
                    }
                }
                Err(e) => {
                    eprintln!("fetch failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}

fn park_forever() -> ! {
    loop {
        std::thread::park();
    }
}
