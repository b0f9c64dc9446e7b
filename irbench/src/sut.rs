//! The adapter to the system under test: **every** call into the
//! repository's crates and every `experiments` command line is in this
//! file, so a change to one of those APIs needs a follow-up here and
//! nowhere else in the benchmark.
//!
//! Only default modes are used (default `EngineMode`, default
//! `RelayMode`, the production `max_min_rates`), so removing the
//! alternative modes cannot break the benchmark.

use crate::trace::Tracer;
use bytes::BytesMut;
use ir_experiments::runner::{Scale, FIG6_KS};
use ir_http::{
    encode_request, encode_response, parse_request, parse_response, via_proxy, ByteRange,
    Reassembly, Request, Response, StatusCode,
};
use ir_relay::{
    body_byte, wire, ChosenPath, ClientConfig, OriginConfig, OriginServer, RateSchedule, Relay,
    RelayConfig, RelayError, TokenBucket,
};
use ir_simnet::bandwidth::{BandwidthProcess, RegimeSwitchingProcess};
use ir_simnet::events::EventQueue;
use ir_simnet::fairshare::{max_min_rates, AllocFlow};
use ir_simnet::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// 64-bit FNV-1a, the digest of every output check.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

// ───────────────────────── experiments CLI ─────────────────────────

/// Seeds the `sweep-quick` workload draws from. `sweep --scale quick`
/// exits 1 when a paper-versus-measured check fails, which at quick
/// scale most seeds do, and its simulated work varies by ±25 % with the
/// seed. These are the repository's pinned seed 2007 and the seeds of
/// 1..=150 that exit 0 and whose engine work (`simnet_boundaries`,
/// `simnet_recomputes` and `simnet_component_solves` from `--metrics`)
/// is within ±5 % of seed 2007's, so that the spread over seeds stays
/// inside the regression bound.
pub const SWEEP_SEEDS: &[u64] = &[
    2007, 20, 32, 42, 44, 67, 68, 72, 83, 86, 88, 98, 103, 110, 117, 121,
];

/// The sweep seed for a benchmark seed: itself when vetted, otherwise
/// drawn from [`SWEEP_SEEDS`].
pub fn sweep_seed(seed: u64) -> u64 {
    if SWEEP_SEEDS.contains(&seed) {
        seed
    } else {
        SWEEP_SEEDS[(seed % SWEEP_SEEDS.len() as u64) as usize]
    }
}

/// The `experiments` command line.
pub struct Cli {
    pub bin: PathBuf,
}

impl Cli {
    fn run(&self, args: &[&str]) -> Result<Output, String> {
        Command::new(&self.bin)
            .args(args)
            .output()
            .map_err(|e| format!("cannot run {}: {e}", self.bin.display()))
    }

    /// `experiments sweep --scale quick`, single worker.
    pub fn sweep(&self, seed: u64, cache_dir: &Path, csv_dir: &Path) -> Result<Output, String> {
        self.run(&[
            "sweep",
            "--scale",
            "quick",
            "--seed",
            &seed.to_string(),
            "--threads",
            "1",
            "--cache-dir",
            &cache_dir.to_string_lossy(),
            "--csv",
            &csv_dir.to_string_lossy(),
        ])
    }

    /// `experiments fig1 --scale quick`, single worker; with telemetry
    /// (`--trace FILE --metrics`) when `trace_file` is given.
    pub fn fig1(&self, seed: u64, trace_file: Option<&Path>) -> Result<Output, String> {
        let seed = seed.to_string();
        let mut args = vec![
            "fig1",
            "--scale",
            "quick",
            "--seed",
            &seed,
            "--threads",
            "1",
        ];
        let file = trace_file.map(|f| f.to_string_lossy().into_owned());
        if let Some(file) = &file {
            args.extend(["--trace", file, "--metrics"]);
        }
        self.run(&args)
    }
}

/// What the last line of `experiments sweep` reports.
#[derive(Debug, PartialEq)]
pub struct SweepSummary {
    pub studies_executed: u64,
    pub hit_rate_pct: f64,
}

/// Parses `… N studies executed; cache … (hit rate P%); wall …`.
pub fn sweep_summary(stdout: &str) -> Option<SweepSummary> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.contains("studies executed"))?;
    let before = |needle: &str| -> Option<&str> {
        let head = &line[..line.find(needle)?];
        head.rsplit(|c: char| !(c.is_ascii_digit() || c == '.'))
            .next()
    };
    Some(SweepSummary {
        studies_executed: before(" studies executed")?.parse().ok()?,
        hit_rate_pct: before("%)")?.parse().ok()?,
    })
}

/// What one in-process pass over the sweep's studies measured besides
/// its spans.
pub struct SweepInProcess {
    /// Transfer records of the measurement study (`core` sessions).
    pub sessions: u64,
    pub codec_bytes: u64,
    pub encode_s: f64,
    pub decode_s: f64,
    /// Re-encoding the decoded studies gave the same bytes.
    pub round_trip_ok: bool,
    /// FNV digest of the encoded studies.
    pub digest: u64,
}

/// The studies, codec and rendering of `sweep --scale quick`, called
/// directly with one worker, each public call in its own span. Without
/// `full`, only the measurement and selection studies run.
pub fn sweep_in_process(
    seed: u64,
    full: bool,
    tr: &Tracer,
    parent: u64,
    op: u64,
) -> SweepInProcess {
    use ir_experiments::{codec, faults, headroom, sites, striping, sweep, tournament};
    ir_experiments::set_worker_threads(1);
    let scale = Scale::Quick;
    let m = tr.scope("experiments.study.measurement", parent, op, |_| {
        ir_experiments::measurement_study_default(seed, scale)
    });
    let s = tr.scope("experiments.study.selection", parent, op, |_| {
        ir_experiments::selection_study_default(seed, scale, FIG6_KS)
    });
    if full {
        tr.scope("experiments.study.sites", parent, op, |_| {
            black_box(sites::run(seed, sweep::sites_transfers(scale)));
        });
        tr.scope("experiments.study.headroom", parent, op, |_| {
            black_box(headroom::run(seed, sweep::headroom_transfers(scale)));
        });
        tr.scope("experiments.study.faults", parent, op, |_| {
            black_box(faults::run(seed, scale));
        });
        tr.scope("experiments.study.striping", parent, op, |_| {
            black_box(striping::run(seed, scale));
        });
        tr.scope("experiments.study.tournament", parent, op, |_| {
            black_box(tournament::run(seed, scale));
        });
    }

    let t0 = Instant::now();
    let (m_bytes, s_bytes) = tr.scope("experiments.codec_encode", parent, op, |_| {
        (codec::encode_measurement(&m), codec::encode_selection(&s))
    });
    let encode_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let (m_back, s_back) = tr.scope("experiments.codec_decode", parent, op, |_| {
        (
            codec::decode_measurement(&m_bytes),
            codec::decode_selection(&s_bytes),
        )
    });
    let decode_s = t0.elapsed().as_secs_f64();
    let round_trip_ok = m_back.is_some_and(|d| codec::encode_measurement(&d) == m_bytes)
        && s_back.is_some_and(|d| codec::encode_selection(&d) == s_bytes);

    tr.scope("experiments.render", parent, op, |_| {
        black_box(ir_experiments::measurement_reports(&m));
        black_box(ir_experiments::selection_reports(&s));
    });

    let mut digest = Fnv::new();
    digest.bytes(&m_bytes);
    digest.bytes(&s_bytes);
    SweepInProcess {
        sessions: m.all_records().count() as u64,
        codec_bytes: (m_bytes.len() + s_bytes.len()) as u64,
        encode_s,
        decode_s,
        round_trip_ok,
        digest: digest.0,
    }
}

// ───────────────────────────── megaflow ─────────────────────────────

/// Fan-in geometry: `racks` top-of-rack switches, each with `hosts`
/// hosts behind per-flow access links and one shared uplink.
#[derive(Debug, Clone, Copy)]
pub struct MegaGeom {
    pub racks: u32,
    pub hosts: u32,
    pub flows_per_host: u32,
}

impl MegaGeom {
    pub fn flows(&self) -> u64 {
        u64::from(self.racks) * u64::from(self.hosts) * u64::from(self.flows_per_host)
    }
}

const MEGA_WAVES: u32 = 2;
const MEGA_WAVE_STAGGER_MS: u64 = 10_000;
const MEGA_FILE_BYTES: u64 = 2_000_000;
const MEGA_HOST_RATE: f64 = 1e9;
const MEGA_RACK_RATE: f64 = 5e7;

/// The network before any flow starts, and one route per host.
pub struct MegaFixture {
    pub geom: MegaGeom,
    base: Network,
    routes: Vec<Route>,
}

/// Builds the fan-in topology; `seed` jitters each rack's uplink by
/// ±25 % so racks complete at distinct instants (the recipe of the
/// repository's own megaflow artefact).
pub fn mega_setup(seed: u64, geom: MegaGeom, tr: &Tracer) -> MegaFixture {
    tr.scope("simnet.topology_build", 0, 0, |_| {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4D45_4741);
        let mut topo = Topology::new();
        let origin = topo.add_node("origin".to_string(), NodeKind::Server);
        let mut uplinks = Vec::with_capacity(geom.racks as usize);
        let mut routes = Vec::with_capacity((geom.racks * geom.hosts) as usize);
        for r in 0..geom.racks {
            let tor = topo.add_node(format!("tor{r}"), NodeKind::Intermediate);
            uplinks.push(topo.add_link_shared(
                tor,
                origin,
                SimDuration::from_millis(1),
                Sharing::Capacity,
            ));
            for h in 0..geom.hosts {
                let host = topo.add_node(format!("h{r}.{h}"), NodeKind::Client);
                topo.add_link_shared(host, tor, SimDuration::from_millis(1), Sharing::PerFlow);
                routes.push(topo.route(&[host, tor, origin]).expect("fan-in route"));
            }
        }
        let rates: Vec<f64> = (0..geom.racks)
            .map(|_| MEGA_RACK_RATE * rng.gen_range(0.75..1.25))
            .collect();
        let mut base = Network::new(topo, MEGA_HOST_RATE);
        for (&link, &rate) in uplinks.iter().zip(&rates) {
            base.set_link_process(link, Box::new(ConstantProcess::new(rate)));
        }
        MegaFixture { geom, base, routes }
    })
}

/// Outcome and layer counts of one megaflow run.
pub struct MegaRun {
    pub flows_started: u64,
    pub stats: EngineStats,
    /// FNV digest of every (flow, finish time), in completion order.
    pub digest: u64,
    /// Σ over boundaries of the flows integrated in that boundary.
    pub flow_boundaries: u64,
    pub advance_s: f64,
    pub start_flow_s: f64,
    /// Steady-state boundaries of the last wave, and what they
    /// allocated (zero unless `count_allocs`).
    pub steady_boundaries: u64,
    pub steady_allocs: crate::alloc::Counts,
}

/// One run: clone the network, start every wave's `NoCap` flows, step
/// boundary by boundary to quiescence. With `count_allocs` the counting
/// allocator is armed over the last wave's boundaries, leaving out the
/// first (which rebuilds the partition) and the final jump to the
/// horizon.
pub fn mega_run(
    fx: &MegaFixture,
    tr: &Tracer,
    parent: u64,
    op: u64,
    count_allocs: bool,
) -> MegaRun {
    let geom = fx.geom;
    let mut net = tr.scope("simnet.network_clone", parent, op, |_| fx.base.clone());
    let mut digest = Fnv::new();
    let mut out = MegaRun {
        flows_started: 0,
        stats: EngineStats::default(),
        digest: 0,
        flow_boundaries: 0,
        advance_s: 0.0,
        start_flow_s: 0.0,
        steady_boundaries: 0,
        steady_allocs: crate::alloc::Counts {
            allocs: 0,
            bytes: 0,
        },
    };
    // The slowest rack (jitter ≥ 0.75) at full load, with slack; the
    // engine jumps to the horizon in one boundary once all flows ended.
    let per_rack = MEGA_FILE_BYTES * u64::from(geom.hosts) * u64::from(geom.flows_per_host);
    let horizon = SimTime::from_secs(
        (u64::from(MEGA_WAVES) * MEGA_WAVE_STAGGER_MS).div_ceil(1000)
            + 4 * per_rack.div_ceil(MEGA_RACK_RATE as u64),
    );

    let mut advance = |net: &mut Network, until: SimTime, last_wave: bool, out: &mut MegaRun| {
        let span = tr.enter("simnet.advance", parent, op);
        let t0 = Instant::now();
        let mut steps = 0u64;
        let mut armed = false;
        while net.now() < until {
            let done = tr.scope("simnet.step_boundary", span.id, op, |_| {
                net.step_boundary(until)
            });
            steps += 1;
            out.flow_boundaries += net.last_boundary_rates().len() as u64;
            for c in &done {
                digest.u64(c.id.0);
                digest.u64(c.finished.0);
            }
            if count_allocs && last_wave {
                if armed && net.stats().flows_completed == out.flows_started {
                    out.steady_allocs = crate::alloc::disarm();
                    out.steady_boundaries = steps - 1;
                    armed = false;
                } else if steps == 1 {
                    crate::alloc::arm();
                    armed = true;
                }
            }
        }
        out.advance_s += t0.elapsed().as_secs_f64();
        tr.exit(span);
    };

    for wave in 0..MEGA_WAVES {
        let at = SimTime::from_millis(u64::from(wave) * MEGA_WAVE_STAGGER_MS);
        advance(&mut net, at, false, &mut out);
        let t0 = Instant::now();
        tr.scope("simnet.start_flow", parent, op, |_| {
            for route in &fx.routes {
                for j in 0..geom.flows_per_host {
                    if j % MEGA_WAVES == wave {
                        net.start_flow(route.clone(), MEGA_FILE_BYTES, Box::new(NoCap));
                        out.flows_started += 1;
                    }
                }
            }
        });
        out.start_flow_s += t0.elapsed().as_secs_f64();
    }
    advance(&mut net, horizon, true, &mut out);
    out.stats = net.stats();
    out.digest = digest.0;
    // Freeing every flow's state is part of the run; in a span of its
    // own so that the run's children cover it.
    tr.scope("simnet.network_drop", parent, op, |_| drop(net));
    out
}

// ───────────────────────────── sockets ─────────────────────────────

/// A loopback deployment: a shaped origin listener for the client's
/// direct path, an unshaped one for the relays' back side, and relays
/// in the default serving mode.
pub struct LabSpec {
    pub content_len: u64,
    pub probe_bytes: u64,
    /// Bytes/s of the direct path.
    pub direct_rate: f64,
    /// Delay before each direct response. The origin's token bucket
    /// starts with a 16 KiB burst, so for small files only this keeps
    /// the direct path from winning the probe race.
    pub direct_latency: Duration,
    /// One relay per entry; `None` = unshaped, else bytes/s.
    pub relay_rates: Vec<Option<f64>>,
    /// Resource path requested on every hop.
    pub path: String,
}

pub struct Lab {
    origin_direct: OriginServer,
    origin_fast: OriginServer,
    relays: Vec<Relay>,
    cfg: ClientConfig,
    /// Connections each relay must have accepted, and how many more it
    /// may have (striped workers open one per chunk they win).
    conns_min: Vec<AtomicU64>,
    conns_slack: AtomicU64,
    refused: AtomicU64,
}

/// Relay-side counters after a run.
pub struct LabReport {
    pub accepted: u64,
    /// Downloads answered `503` (over-limit refusals).
    pub refused: u64,
    pub error_responses: u64,
    pub drain_ms: f64,
    /// `accepted` matched the connections the client opened, no
    /// refusals or error responses, and the drain ended unforced.
    pub consistent: bool,
}

impl Lab {
    pub fn start(spec: LabSpec) -> Result<Lab, String> {
        let io = |e: std::io::Error| format!("cannot start loopback servers: {e}");
        let origin_direct = OriginServer::start(
            OriginConfig::new(spec.content_len)
                .shaped(RateSchedule::constant(spec.direct_rate))
                .with_latency(spec.direct_latency),
        )
        .map_err(io)?;
        let origin_fast = OriginServer::start(OriginConfig::new(spec.content_len)).map_err(io)?;
        let relays = spec
            .relay_rates
            .iter()
            .map(|rate| {
                Relay::start(match rate {
                    Some(r) => RelayConfig::shaped(RateSchedule::constant(*r)),
                    None => RelayConfig::new(),
                })
            })
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(io)?;
        Ok(Lab {
            origin_direct,
            origin_fast,
            conns_min: relays.iter().map(|_| AtomicU64::new(0)).collect(),
            conns_slack: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            relays,
            cfg: ClientConfig {
                path: spec.path,
                probe_bytes: spec.probe_bytes,
                total_bytes: spec.content_len,
                timeout: Duration::from_secs(30),
            },
        })
    }

    pub fn content_len(&self) -> u64 {
        self.cfg.total_bytes
    }

    fn relay_addrs(&self) -> Vec<SocketAddr> {
        self.relays.iter().map(Relay::addr).collect()
    }

    fn note_race(&self) {
        for c in &self.conns_min {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn fail(&self, e: RelayError) -> String {
        if matches!(e, RelayError::BadStatus(503)) {
            self.refused.fetch_add(1, Ordering::Relaxed);
        }
        e.to_string()
    }

    /// One probed download (`relay::download`); checks the body and
    /// that nothing failed over. Returns the relay that carried it.
    pub fn download(&self) -> Result<Option<usize>, String> {
        self.note_race();
        let got = ir_relay::download(
            self.origin_direct.addr(),
            self.origin_fast.addr(),
            &self.relay_addrs(),
            &self.cfg,
        )
        .map_err(|e| self.fail(e))?;
        if !got.body_ok {
            return Err("download: body does not match the origin's content".into());
        }
        if got.failovers != 0 {
            return Err(format!("download: {} failovers", got.failovers));
        }
        Ok(match got.choice {
            ChosenPath::Direct => None,
            ChosenPath::Relay(i) => Some(i),
        })
    }

    /// One striped download (`relay::download_striped`); checks the
    /// body and that nothing was repaired or failed over. Returns the
    /// chunks carried by the direct path and by each relay.
    pub fn download_striped(&self, chunks: u32) -> Result<Vec<u64>, String> {
        self.note_race();
        self.conns_slack
            .fetch_add(u64::from(chunks), Ordering::Relaxed);
        let got = ir_relay::download_striped(
            self.origin_direct.addr(),
            self.origin_fast.addr(),
            &self.relay_addrs(),
            chunks,
            &self.cfg,
        )
        .map_err(|e| self.fail(e))?;
        if !got.body_ok {
            return Err("striped: body does not match the origin's content".into());
        }
        if got.failovers != 0 || got.repaired != 0 {
            return Err(format!(
                "striped: {} failovers, {} repaired intervals",
                got.failovers, got.repaired
            ));
        }
        let mut counts = vec![0u64; 1 + self.relays.len()];
        for (path, n) in got.chunk_counts {
            match path {
                ChosenPath::Direct => counts[0] += n,
                ChosenPath::Relay(i) => counts[1 + i] += n,
            }
        }
        Ok(counts)
    }

    /// The probe race alone.
    pub fn probe_race(&self) -> Result<(), String> {
        self.note_race();
        ir_relay::probe_race(
            self.origin_direct.addr(),
            self.origin_fast.addr(),
            &self.relay_addrs(),
            &self.cfg,
        )
        .map(|_| ())
        .map_err(|e| self.fail(e))
    }

    fn raw_target(&self, via_relay: bool) -> SocketAddr {
        if via_relay {
            self.conns_min[0].fetch_add(1, Ordering::Relaxed);
            self.relays[0].addr()
        } else {
            self.origin_fast.addr()
        }
    }

    fn raw_request(&self, via_relay: bool, range: ByteRange) -> Request {
        let origin = self.origin_fast.addr();
        let req = if via_relay {
            via_proxy(&origin.ip().to_string(), origin.port(), &self.cfg.path)
        } else {
            Request::get(self.cfg.path.clone()).with_header("Host", "origin")
        };
        req.with_header("Range", range.to_string())
    }

    /// `TcpStream::connect` to relay 0.
    pub fn raw_connect(&self) -> Result<Duration, String> {
        let addr = self.raw_target(true);
        let t0 = Instant::now();
        let conn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let dt = t0.elapsed();
        drop(conn);
        Ok(dt)
    }

    /// Request written → first response byte of a 1-byte range, on an
    /// already open connection to relay 0 or straight to the unshaped
    /// origin.
    pub fn raw_ttfb(&self, via_relay: bool) -> Result<Duration, String> {
        let mut conn = TcpStream::connect(self.raw_target(via_relay)).map_err(|e| e.to_string())?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        conn.set_read_timeout(Some(self.cfg.timeout))
            .map_err(|e| e.to_string())?;
        let req = self.raw_request(via_relay, ByteRange::first(1));
        let t0 = Instant::now();
        wire::send_request(&mut conn, &req).map_err(|e| e.to_string())?;
        let mut first = [0u8; 1];
        conn.read_exact(&mut first).map_err(|e| e.to_string())?;
        Ok(t0.elapsed())
    }

    /// The whole file through a fixed 64 KiB buffer, compared block by
    /// block with the origin's byte pattern: what the relay (or the
    /// origin alone) can move when the client does no reassembly.
    pub fn raw_drain(&self, via_relay: bool) -> Result<Duration, String> {
        const BLOCK: usize = 64 * 1024;
        const PERIOD: usize = 251;
        let pattern: Vec<u8> = (0..(BLOCK + PERIOD) as u64).map(body_byte).collect();
        let total = self.cfg.total_bytes;
        let mut conn = TcpStream::connect(self.raw_target(via_relay)).map_err(|e| e.to_string())?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        conn.set_read_timeout(Some(self.cfg.timeout))
            .map_err(|e| e.to_string())?;
        let req = self.raw_request(via_relay, ByteRange::first(total));
        let t0 = Instant::now();
        wire::send_request(&mut conn, &req).map_err(|e| e.to_string())?;
        let (head, prefix) = wire::read_head(&mut conn).map_err(|e| e.to_string())?;
        if head.status != StatusCode::PARTIAL_CONTENT {
            return Err(format!("raw drain: status {}", head.status.0));
        }
        let matches = |offset: u64, data: &[u8]| {
            let at = (offset % PERIOD as u64) as usize;
            data == &pattern[at..at + data.len()]
        };
        let mut offset = 0u64;
        let mut ok = true;
        for piece in prefix.chunks(BLOCK) {
            ok &= matches(offset, piece);
            offset += piece.len() as u64;
        }
        let mut buf = vec![0u8; BLOCK];
        while offset < total {
            let want = ((total - offset) as usize).min(BLOCK);
            let n = conn.read(&mut buf[..want]).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err(format!("raw drain: EOF at byte {offset} of {total}"));
            }
            ok &= matches(offset, &buf[..n]);
            offset += n as u64;
        }
        let dt = t0.elapsed();
        if !ok || offset != total {
            return Err("raw drain: body does not match the origin's content".into());
        }
        Ok(dt)
    }

    /// Drains every relay and reads its lifecycle counters.
    pub fn finish(mut self) -> LabReport {
        let t0 = Instant::now();
        let mut consistent = true;
        let mut accepted = 0;
        let mut error_responses = 0;
        let slack = self.conns_slack.load(Ordering::Relaxed);
        for (relay, min) in self.relays.iter_mut().zip(&self.conns_min) {
            let drained = relay.drain(Duration::from_secs(5));
            let life = relay.lifecycle();
            let min = min.load(Ordering::Relaxed);
            consistent &= drained.completed
                && life.error_responses == 0
                && (min..=min + slack).contains(&life.accepted);
            accepted += life.accepted;
            error_responses += life.error_responses;
        }
        let refused = self.refused.load(Ordering::Relaxed);
        LabReport {
            accepted,
            refused,
            error_responses,
            drain_ms: t0.elapsed().as_secs_f64() * 1e3,
            consistent: consistent && refused == 0,
        }
    }
}

// ───────────────────────── layer micro-metrics ─────────────────────────

/// How a micro-benchmark's time per iteration becomes its metric.
pub enum Per {
    /// Nanoseconds per iteration ÷ this many operations in it.
    Ns(f64),
    /// Microseconds per iteration.
    Us,
    /// This many bytes per iteration, as MB/s.
    MBps(f64),
}

pub struct Micro {
    pub name: &'static str,
    pub per: Per,
    pub run: Box<dyn FnMut()>,
}

fn fairshare_problem(rng: &mut StdRng, flows: usize, links: usize) -> (Vec<f64>, Vec<AllocFlow>) {
    let caps = (0..links).map(|_| rng.gen_range(1e5..6e5)).collect();
    let flows = (0..flows)
        .map(|_| {
            let a = rng.gen_range(0..links);
            let b = (a + rng.gen_range(1..links)) % links;
            AllocFlow {
                links: vec![a, b],
                cap: if rng.gen_bool(0.2) {
                    5e4
                } else {
                    f64::INFINITY
                },
            }
        })
        .collect();
    (caps, flows)
}

fn probe_race_fixture() -> (Network, Route, Route) {
    let mut topo = Topology::new();
    let c = topo.add_node("c", NodeKind::Client);
    let v = topo.add_node("v", NodeKind::Intermediate);
    let s = topo.add_node("s", NodeKind::Server);
    let l0 = topo.add_link_shared(c, s, SimDuration::from_millis(90), Sharing::PerFlow);
    let l1 = topo.add_link_shared(c, v, SimDuration::from_millis(85), Sharing::PerFlow);
    let l2 = topo.add_link_shared(v, s, SimDuration::from_millis(10), Sharing::PerFlow);
    let direct = topo.route(&[c, s]).expect("direct route");
    let indirect = topo.route(&[c, v, s]).expect("indirect route");
    let mut net = Network::new(topo, 1.0);
    net.set_link_process(
        l0,
        Box::new(RegimeSwitchingProcess::new(
            vec![8e4, 1.4e5],
            SimDuration::from_secs(120),
            0.1,
            5,
        )),
    );
    net.set_link_process(l1, Box::new(ConstantProcess::new(2e5)));
    net.set_link_process(l2, Box::new(ConstantProcess::new(1e7)));
    (net, direct, indirect)
}

/// The per-layer micro-benchmarks, on inputs made from `seed`. Shapes
/// follow `crates/bench/benches/micro.rs` where that file has the case.
pub fn micros(seed: u64) -> Vec<Micro> {
    use ir_stats::{Histogram, Summary};
    use ir_tcp::{transfer_time, TcpConfig, TcpRateCap};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d69_6372);
    let mut out: Vec<Micro> = Vec::new();
    let mut add = |name, per, run: Box<dyn FnMut()>| out.push(Micro { name, per, run });

    for (name, flows, links) in [
        ("simnet.max_min_rates_4f_ns", 4, 4),
        ("simnet.max_min_rates_32f_ns", 32, 16),
        ("simnet.max_min_rates_1024f_ns", 1024, 64),
    ] {
        let (caps, flows) = fairshare_problem(&mut rng, flows, links);
        add(
            name,
            Per::Ns(1.0),
            Box::new(move || {
                black_box(max_min_rates(black_box(&caps), black_box(&flows)));
            }),
        );
    }
    add(
        "simnet.event_queue_push_pop_ns",
        Per::Ns(1000.0),
        Box::new(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.push(SimTime::from_micros((i * 7919) % 65_536), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum);
        }),
    );
    let regime_seed = rng.gen_range(1..1_000_000u64);
    add(
        "simnet.regime_materialise_10h_us",
        Per::Us,
        Box::new(move || {
            let mut p = RegimeSwitchingProcess::new(
                vec![5e4, 1e5, 2e5],
                SimDuration::from_secs(300),
                0.2,
                black_box(regime_seed),
            );
            black_box(p.rate_at(SimTime::from_secs(36_000)));
        }),
    );
    let (base, direct, indirect) = probe_race_fixture();
    let tcp = TcpConfig::for_rtt(SimDuration::from_millis(190)).with_loss(0.0);
    add(
        "simnet.probe_race_2MB_us",
        Per::Us,
        Box::new(move || {
            let mut net = base.clone();
            let a = net.start_flow(direct.clone(), 102_400, Box::new(TcpRateCap::new(tcp)));
            let b = net.start_flow(indirect.clone(), 102_400, Box::new(TcpRateCap::new(tcp)));
            let win = net
                .run_until_first_of(&[a, b], SimTime::from_secs(600))
                .expect("a probe finishes");
            let route = if win.id == a { &direct } else { &indirect };
            let rem = net.start_flow(route.clone(), 2_000_000, Box::new(TcpRateCap::new(tcp)));
            black_box(net.run_flow(rem, SimTime::from_secs(6000)));
        }),
    );

    let lossy = TcpConfig::for_rtt(SimDuration::from_millis(120)).with_loss(0.005);
    add(
        "tcp.transfer_time_2MB_ns",
        Per::Ns(1.0),
        Box::new(move || {
            let mut p = ConstantProcess::new(2e5);
            black_box(transfer_time(
                2_000_000,
                SimTime::ZERO,
                lossy,
                &mut p,
                SimDuration::from_secs(600),
            ));
        }),
    );
    add(
        "tcp.cap_steady_rate_ns",
        Per::Ns(1.0),
        Box::new(move || {
            black_box(TcpRateCap::new(black_box(lossy)).steady_rate());
        }),
    );

    let workload_seed = rng.gen_range(1..1_000_000u64);
    add(
        "workload.build_planetlab_us",
        Per::Us,
        Box::new(move || {
            use ir_workload::roster::{CLIENTS, INTERMEDIATES, SERVERS};
            black_box(ir_workload::build(
                workload_seed,
                CLIENTS,
                INTERMEDIATES,
                SERVERS,
                ir_workload::Calibration::default(),
                false,
            ));
        }),
    );

    let data: Vec<f64> = (0..10_000).map(|_| rng.gen_range(-1.0..99.0)).collect();
    let data2 = data.clone();
    add(
        "stats.summary_10k_us",
        Per::Us,
        Box::new(move || {
            black_box(Summary::of(black_box(&data)));
        }),
    );
    add(
        "stats.histogram_10k_us",
        Per::Us,
        Box::new(move || {
            black_box(Histogram::of(-100.0, 200.0, 30, black_box(&data2)));
        }),
    );

    let req = Request::get("http://origin:8080/big/file.bin")
        .with_header("Host", "origin:8080")
        .with_header("Range", ByteRange::first(102_400).to_string())
        .with_header("User-Agent", "ir-client/0.1");
    let mut req_bytes = BytesMut::new();
    encode_request(&req, &mut req_bytes);
    let mut resp_bytes = BytesMut::new();
    encode_response(
        &Response::new(StatusCode::PARTIAL_CONTENT)
            .with_header("Content-Length", "102400")
            .with_header("Content-Range", "bytes 0-102399/67108864")
            .with_header("Accept-Ranges", "bytes"),
        &mut resp_bytes,
    );
    add(
        "http.encode_request_ns",
        Per::Ns(1.0),
        Box::new(move || {
            let mut buf = BytesMut::with_capacity(256);
            encode_request(black_box(&req), &mut buf);
            black_box(buf);
        }),
    );
    add(
        "http.parse_request_ns",
        Per::Ns(1.0),
        Box::new(move || {
            black_box(parse_request(black_box(&req_bytes))).expect("request parses");
        }),
    );
    add(
        "http.parse_response_ns",
        Per::Ns(1.0),
        Box::new(move || {
            black_box(parse_response(black_box(&resp_bytes))).expect("response parses");
        }),
    );
    add(
        "http.range_parse_ns",
        Per::Ns(1.0),
        Box::new(|| {
            black_box(ByteRange::parse(black_box("bytes=102400-1048575"))).expect("range parses");
        }),
    );

    const CHUNK: usize = 1 << 20;
    let chunk = vec![0x5au8; CHUNK];
    let mut order: Vec<u64> = (0..16).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    add(
        "http.reassembly_insert_MBps",
        Per::MBps((16 * CHUNK) as f64),
        Box::new(move || {
            let mut r = Reassembly::new((16 * CHUNK) as u64);
            for &k in &order {
                r.insert(k * CHUNK as u64, &chunk).expect("disjoint chunk");
            }
            black_box(r.into_body().expect("complete body"));
        }),
    );

    let mut bucket = TokenBucket::new(RateSchedule::constant(1e9), 1e6);
    let t0 = Instant::now();
    let mut k = 0u64;
    add(
        "relay.shaper_take_ns",
        Per::Ns(1.0),
        Box::new(move || {
            k += 1;
            black_box(bucket.take_at(1000, t0 + Duration::from_micros(k)));
        }),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_summary_reads_the_cli_line() {
        let cold = "artefact x\n17 artefacts (0 from cache), 12 studies executed; cache 0 hits / \
                    29 misses / 29 stores / 0 corrupt (hit rate 0%); wall 3.5s\n";
        assert_eq!(
            sweep_summary(cold),
            Some(SweepSummary {
                studies_executed: 12,
                hit_rate_pct: 0.0
            })
        );
        let warm = "17 artefacts (17 from cache), 0 studies executed; cache 17 hits / 0 misses \
                    / 0 stores / 0 corrupt (hit rate 100%); wall 6ms";
        assert_eq!(
            sweep_summary(warm),
            Some(SweepSummary {
                studies_executed: 0,
                hit_rate_pct: 100.0
            })
        );
        assert_eq!(sweep_summary("no such line"), None);
    }

    #[test]
    fn sweep_seeds_map_into_the_pool() {
        for seed in 0..50 {
            assert!(SWEEP_SEEDS.contains(&sweep_seed(seed)));
        }
        assert_eq!(sweep_seed(2007), 2007);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }
}
