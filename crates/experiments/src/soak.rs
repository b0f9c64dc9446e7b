//! Soak — the event-driven relay's concurrency artefact.
//!
//! A real-socket load study: `clients` concurrent racing downloads
//! (slow shaped direct path vs one fast relay) funnelled through a
//! single [`ir_relay::Relay`] reactor, exactly the regime the
//! poll-based readiness loop was built for. At
//! [`SoakConfig::paper`] scale this is **2000 simultaneous clients
//! against one relay process** — far beyond what a thread-per-
//! connection daemon would tolerate on a small box, which is the
//! point: the artefact proves zero transfers are lost, measures
//! aggregate goodput, and reports the p50/p99 accept-to-first-byte
//! wait taken from the relay's own [`RelayFirstByte`] spans.
//!
//! Unlike every other study in this crate, the soak drives **real
//! loopback sockets under wall-clock shaping**, so its latency and
//! goodput numbers are measurements of this machine, not pure
//! functions of `(seed, config)`. It therefore stays out of
//! [`crate::sweep::full_plan`] (whose artefacts must replay
//! byte-identically); [`crate::sweep::soak_plan`] wraps it in its own
//! fingerprinted plan for the `soak` CLI subcommand.
//!
//! [`RelayFirstByte`]: ir_telemetry::trace::EventKind::RelayFirstByte

use crate::report::{csv, Check, Report};
use ir_relay::{
    download, ClientConfig, OriginConfig, OriginServer, RateSchedule, Relay, RelayConfig,
};
use ir_telemetry::trace::EventKind;
use ir_telemetry::Telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Geometry and rates of a soak run. All fields are semantic inputs:
/// the declaration below hashes each one into the study fingerprint and
/// frames it into the cached result, so a new field does not compile
/// until it is listed — and listing it moves both, so bump the `soak`
/// entry of [`crate::sweep::SALTS`] (and the layout tag in
/// [`crate::sweep::soak_plan`]) with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakConfig {
    /// Concurrent racing clients.
    pub clients: u32,
    /// Bytes per transfer.
    pub file_bytes: u64,
    /// Probe size x (bytes) for the racing download.
    pub probe_bytes: u64,
    /// Direct-path shaping, bytes/s — slow enough that every probe
    /// race resolves to the overlay, funnelling the herd through the
    /// relay.
    pub direct_rate: u64,
    /// Relay-leg shaping, bytes/s; 0 = unshaped (loopback speed).
    pub relay_rate: u64,
    /// Reactor worker (shard) count of the relay.
    pub workers: u32,
    /// Client start times are spread over this window so connect
    /// storms stay below the listener backlog.
    pub stagger_ms: u64,
}
// The counts hash as `u64` — the width the fingerprint has always used —
// and frame at their own.
ir_artifact::declare! {
    StableHash + Codec for struct SoakConfig {
        clients as u64,
        file_bytes,
        probe_bytes,
        direct_rate,
        relay_rate,
        workers as u64,
        stagger_ms,
    }
}

impl SoakConfig {
    /// The headline scale: 2000 simultaneous clients against one
    /// event-driven relay.
    pub fn paper() -> Self {
        SoakConfig {
            clients: 2000,
            file_bytes: 12_000,
            probe_bytes: 2_000,
            direct_rate: 30_000,
            relay_rate: 0,
            workers: 4,
            stagger_ms: 4_000,
        }
    }

    /// A seconds-scale geometry for the quick sweep and CI.
    pub fn quick() -> Self {
        SoakConfig {
            clients: 250,
            file_bytes: 12_000,
            probe_bytes: 2_000,
            direct_rate: 30_000,
            relay_rate: 0,
            workers: 4,
            stagger_ms: 1_000,
        }
    }
}

/// Outcome of one soak run. All-integer so the result is `Eq` and
/// byte-codable, but — real sockets, wall clocks — two runs of the
/// same config legitimately differ in the measured fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakResult {
    /// The geometry that produced this result.
    pub cfg: SoakConfig,
    /// Transfers that finished with a byte-exact body.
    pub completed: u64,
    /// Transfers that errored, hung up, or reassembled corrupt.
    pub lost: u64,
    /// Connections the relay accepted (lifecycle counter). At most
    /// one per client; can fall just short of `clients` when a losing
    /// relay dial is cancelled before it even connects.
    pub accepted: u64,
    /// Accept-side refusals (should be zero — the soak runs without a
    /// connection cap).
    pub backpressure_drops: u64,
    /// Accept-to-first-byte wait, microseconds: median…
    pub p50_first_byte_us: u64,
    /// …99th percentile…
    pub p99_first_byte_us: u64,
    /// …and worst case, over every [`RelayFirstByte`] span recorded.
    ///
    /// [`RelayFirstByte`]: ir_telemetry::trace::EventKind::RelayFirstByte
    pub max_first_byte_us: u64,
    /// Aggregate goodput: completed payload bytes per wall second.
    pub goodput_bps: u64,
    /// Wall time from first client start to last client done, ms.
    pub wall_ms: u64,
    /// Post-load graceful drain finished before its deadline…
    pub drain_completed: bool,
    /// …and the active gauge never rose while it ran.
    pub drain_monotone: bool,
}
ir_artifact::declare! {
    Codec for struct SoakResult {
        cfg,
        completed,
        lost,
        accepted,
        backpressure_drops,
        p50_first_byte_us,
        p99_first_byte_us,
        max_first_byte_us,
        goodput_bps,
        wall_ms,
        drain_completed,
        drain_monotone,
    }
}

/// Percentile over a sorted sample set (nearest-rank on the sorted
/// slice; 0 for an empty set).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * p).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Runs the soak: starts the two origins and one relay, unleashes
/// `cfg.clients` racing downloads on small-stack threads, and collects
/// lifecycle counters plus the relay's own first-byte spans once the
/// herd is done. Finishes with a graceful drain so the shutdown path
/// is part of every soak.
#[expect(
    clippy::disallowed_methods,
    reason = "the soak is the crate's one declared wall-clock study (real sockets, measured goodput); it is excluded from full_plan so no byte-replayed artefact depends on it"
)]
pub fn run(cfg: &SoakConfig) -> SoakResult {
    let tel = Arc::new(Telemetry::new());
    let origin_fast =
        OriginServer::start(OriginConfig::new(cfg.file_bytes)).expect("start fast origin");
    let origin_direct = OriginServer::start(
        OriginConfig::new(cfg.file_bytes).shaped(RateSchedule::constant(cfg.direct_rate as f64)),
    )
    .expect("start direct origin");
    let relay_cfg = if cfg.relay_rate > 0 {
        RelayConfig::shaped(RateSchedule::constant(cfg.relay_rate as f64))
    } else {
        RelayConfig::new()
    };
    let mut relay = Relay::start(
        relay_cfg
            .with_telemetry(tel.clone())
            .with_workers(cfg.workers as usize),
    )
    .expect("start relay");

    let direct = origin_direct.addr();
    let for_relays = origin_fast.addr();
    let relay_addr = relay.addr();
    let client_cfg = ClientConfig {
        path: "/f".into(),
        probe_bytes: cfg.probe_bytes,
        total_bytes: cfg.file_bytes,
        timeout: Duration::from_secs(120),
    };

    let completed = AtomicU64::new(0);
    let lost = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..cfg.clients as u64 {
            let client_cfg = &client_cfg;
            let completed = &completed;
            let lost = &lost;
            std::thread::Builder::new()
                // Small stacks keep thousands of clients cheap.
                .stack_size(256 * 1024)
                .spawn_scoped(s, move || {
                    let window = cfg.stagger_ms.max(1);
                    std::thread::sleep(Duration::from_millis(i * 7 % window));
                    match download(direct, for_relays, &[relay_addr], client_cfg) {
                        Ok(out) if out.body_ok => completed.fetch_add(1, Ordering::Relaxed),
                        _ => lost.fetch_add(1, Ordering::Relaxed),
                    };
                })
                .expect("spawn soak client");
        }
    });
    let wall = t0.elapsed();
    let completed = completed.into_inner();
    let lost = lost.into_inner();

    let report = relay.drain(Duration::from_secs(30));

    let mut waits: Vec<u64> = tel
        .tracer
        .snapshot()
        .iter()
        .filter(|e| e.kind == EventKind::RelayFirstByte)
        .filter_map(|e| e.dur_us)
        .collect();
    waits.sort_unstable();
    let snap = tel.metrics.snapshot();
    let wall_ms = (wall.as_millis() as u64).max(1);
    SoakResult {
        cfg: *cfg,
        completed,
        lost,
        accepted: relay.lifecycle().accepted,
        backpressure_drops: snap
            .counter("relay_backpressure_drops", &vec![])
            .unwrap_or(0),
        p50_first_byte_us: percentile(&waits, 50),
        p99_first_byte_us: percentile(&waits, 99),
        max_first_byte_us: waits.last().copied().unwrap_or(0),
        goodput_bps: completed * cfg.file_bytes * 1000 / wall_ms,
        wall_ms,
        drain_completed: report.completed,
        drain_monotone: report.monotone,
    }
}

/// Renders the report from a (possibly cache-restored) result.
pub fn report_of(r: &SoakResult) -> Report {
    let mut table = ir_stats::TextTable::new()
        .title("soak: concurrent racing downloads through one relay")
        .header(["metric", "value"]);
    let rows_src: Vec<(&str, String)> = vec![
        ("clients", r.cfg.clients.to_string()),
        ("file bytes", r.cfg.file_bytes.to_string()),
        ("completed", r.completed.to_string()),
        ("lost", r.lost.to_string()),
        ("relay accepts", r.accepted.to_string()),
        ("backpressure drops", r.backpressure_drops.to_string()),
        (
            "first byte p50 (ms)",
            format!("{:.1}", r.p50_first_byte_us as f64 / 1e3),
        ),
        (
            "first byte p99 (ms)",
            format!("{:.1}", r.p99_first_byte_us as f64 / 1e3),
        ),
        (
            "first byte max (ms)",
            format!("{:.1}", r.max_first_byte_us as f64 / 1e3),
        ),
        (
            "goodput (KB/s)",
            format!("{:.1}", r.goodput_bps as f64 / 1e3),
        ),
        ("wall (s)", format!("{:.1}", r.wall_ms as f64 / 1e3)),
        ("drain completed", r.drain_completed.to_string()),
        ("drain monotone", r.drain_monotone.to_string()),
    ];
    let mut rows = Vec::new();
    for (k, v) in &rows_src {
        table.row([k.to_string(), v.clone()]);
        rows.push(vec![k.to_string(), v.clone()]);
    }

    Report {
        id: "soak",
        title: format!(
            "Soak: {} concurrent clients through one event-driven relay",
            r.cfg.clients
        ),
        body: table.render(),
        csv: vec![("stats".into(), csv(&["metric", "value"], &rows))],
        checks: vec![
            Check::banded(
                "transfers completed / clients",
                1.0,
                if r.cfg.clients == 0 {
                    0.0
                } else {
                    r.completed as f64 / r.cfg.clients as f64
                },
                1.0,
                1.0,
            ),
            Check::banded("lost transfers", 0.0, r.lost as f64, 0.0, 0.0),
            // The reactor must have actually timed its accepts: an
            // empty first-byte sample set means the spans never fired.
            Check::banded(
                "first-byte spans recorded",
                1.0,
                if r.max_first_byte_us > 0 { 1.0 } else { 0.0 },
                1.0,
                1.0,
            ),
            Check::banded(
                "graceful drain (completed, monotone)",
                1.0,
                if r.drain_completed && r.drain_monotone {
                    1.0
                } else {
                    0.0
                },
                1.0,
                1.0,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The soak's study key hashes the config as one value; the constant
    /// is what hashing it field by field produced before the declaration
    /// existed, so keys on disk still match.
    #[test]
    fn soak_config_fingerprint_tracks_every_field() {
        use ir_artifact::fingerprint_of;
        let base = SoakConfig::quick();
        assert_eq!(
            fingerprint_of(&base).to_hex(),
            "c068e1427a42b0171a80df085b15d662"
        );
        for bumped in [
            SoakConfig {
                clients: base.clients + 1,
                ..base
            },
            SoakConfig {
                file_bytes: base.file_bytes + 1,
                ..base
            },
            SoakConfig {
                probe_bytes: base.probe_bytes + 1,
                ..base
            },
            SoakConfig {
                direct_rate: base.direct_rate + 1,
                ..base
            },
            SoakConfig {
                relay_rate: base.relay_rate + 1,
                ..base
            },
            SoakConfig {
                workers: base.workers + 1,
                ..base
            },
            SoakConfig {
                stagger_ms: base.stagger_ms + 1,
                ..base
            },
        ] {
            assert_ne!(fingerprint_of(&base), fingerprint_of(&bumped), "{bumped:?}");
        }
    }

    fn tiny() -> SoakConfig {
        SoakConfig {
            clients: 24,
            file_bytes: 8_000,
            probe_bytes: 2_000,
            direct_rate: 30_000,
            relay_rate: 0,
            workers: 2,
            stagger_ms: 200,
        }
    }

    #[test]
    fn tiny_soak_loses_nothing_and_times_its_first_bytes() {
        let r = run(&tiny());
        assert_eq!(r.completed, 24, "{r:?}");
        assert_eq!(r.lost, 0, "{r:?}");
        // A losing relay dial can be cancelled pre-connect, so
        // `accepted` may fall just short of the client count.
        assert!(r.accepted > 0 && r.accepted <= 24, "{r:?}");
        assert_eq!(r.backpressure_drops, 0, "{r:?}");
        // The first-byte spans must not go dark.
        assert!(r.p99_first_byte_us > 0, "{r:?}");
        assert!(r.p50_first_byte_us <= r.p99_first_byte_us, "{r:?}");
        assert!(r.p99_first_byte_us <= r.max_first_byte_us, "{r:?}");
        assert!(r.goodput_bps > 0, "{r:?}");
        assert!(r.drain_completed && r.drain_monotone, "{r:?}");
    }

    #[test]
    fn report_passes_its_checks() {
        let r = report_of(&run(&tiny()));
        assert!(r.all_pass(), "{}", r.render());
        assert!(r.render().contains("soak"), "{}", r.render());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[7], 50), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
    }
}
