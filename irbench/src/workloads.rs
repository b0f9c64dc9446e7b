//! The five workloads. Each builds its fixture in `setup`, runs one
//! verified operation per `op` call (a wrong output is a failed
//! operation), and in `finish` makes the checks that need the whole run
//! and turns the traced pass's spans into its per-layer metrics.

use crate::metrics::Layers;
use crate::stats::{median, median_sorted, percentile_sorted, sort, tail_sorted};
use crate::sut::{self, Cli, Fnv, Lab, LabSpec, MegaFixture, MegaGeom, MegaRun, SweepInProcess};
use crate::trace::{durations_us, Tracer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What every workload is given.
pub struct Ctx {
    pub seed: u64,
    /// Shrinks every workload to under a second.
    pub smoke: bool,
    /// The `experiments` binary.
    pub cli: PathBuf,
    /// Scratch directory inside the checkout.
    pub work_dir: PathBuf,
}

pub trait Workload: Sync + Sized {
    /// Builds fixtures and starts servers. Timed, with the warm-up, as
    /// `setup_s`.
    fn setup(ctx: &Ctx, tr: &Tracer) -> Result<Self, String>;

    /// Closed-loop client threads: each sends its next operation when
    /// the previous one has completed.
    fn clients(&self) -> usize {
        1
    }

    /// One verified operation.
    fn op(&self, tr: &Tracer, op: u64) -> Result<(), String>;

    /// The warm-up that ends a set-up: one operation, not counted in
    /// the window.
    fn warm_up(&self) -> Result<(), String> {
        self.op(&Tracer::new(false), 0)
    }

    /// Measurements only the traced pass makes, outside the windows.
    fn extras(&self, _tr: &Tracer, _layers: &mut Layers) -> Result<(), String> {
        Ok(())
    }

    /// Whole-run checks, per-layer metrics from `tr`'s spans, values
    /// that must repeat exactly for a seed, and teardown.
    fn finish(self, tr: &Tracer, layers: &mut Layers, exact: &mut Exact) -> Result<(), String>;
}

/// Named values that must be identical in every run of one
/// (workload, seed): output digests and deterministic counts.
pub type Exact = Vec<(String, String)>;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("a client thread panicked holding the lock")
}

/// Remembers the first digest and rejects any later one that differs.
#[derive(Default)]
struct SameDigest(Mutex<Option<u64>>);

impl SameDigest {
    fn check(&self, what: &str, digest: u64) -> Result<(), String> {
        let mut first = lock(&self.0);
        match *first {
            None => {
                *first = Some(digest);
                Ok(())
            }
            Some(d) if d == digest => Ok(()),
            Some(d) => Err(format!(
                "{what}: digest {digest:016x} differs from {d:016x}"
            )),
        }
    }

    fn get(&self) -> Option<u64> {
        *lock(&self.0)
    }
}

fn median_ms(spans: &[crate::trace::Span], name: &str) -> f64 {
    let d = durations_us(spans, name);
    if d.is_empty() {
        0.0
    } else {
        median(&d) / 1e3
    }
}

// ─────────────────────────── sweep-quick ───────────────────────────

/// `experiments sweep --scale quick --threads 1` on a fresh cache, as a
/// user runs it. The traced pass calls the same studies in-process.
pub struct SweepQuick {
    cli: Cli,
    seed: u64,
    smoke: bool,
    dir: PathBuf,
    runs: AtomicU64,
    last_cache: Mutex<Option<PathBuf>>,
    cli_digest: SameDigest,
    inproc_digest: SameDigest,
    inproc: Mutex<Vec<SweepInProcess>>,
}

/// The sweep's studies: span `experiments.study.<name>`, metric
/// `experiments.study.<name>_ms`.
const STUDIES: [&str; 7] = [
    "measurement",
    "selection",
    "sites",
    "headroom",
    "faults",
    "striping",
    "tournament",
];

/// FNV digest of a directory's file names and contents, in name order.
fn dir_digest(dir: &Path) -> Result<u64, String> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("{}: no CSV written", dir.display()));
    }
    let mut h = Fnv::new();
    for p in names {
        h.bytes(p.file_name().unwrap_or_default().as_encoded_bytes());
        h.bytes(&std::fs::read(&p).map_err(|e| format!("{}: {e}", p.display()))?);
    }
    Ok(h.0)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn exit_ok(what: &str, out: &std::process::Output) -> Result<(), String> {
    if out.status.success() {
        return Ok(());
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    Err(format!(
        "{what}: {} ({})",
        out.status,
        stderr.lines().last().unwrap_or("no stderr")
    ))
}

impl SweepQuick {
    fn cli_op(&self) -> Result<(), String> {
        let k = self.runs.fetch_add(1, Ordering::Relaxed);
        if self.smoke {
            let out = self.cli.fig1(self.seed, None)?;
            exit_ok("experiments fig1", &out)?;
            let mut h = Fnv::new();
            h.bytes(&out.stdout);
            return self.cli_digest.check("fig1 output", h.0);
        }
        let cache = self.dir.join(format!("cache-{k}"));
        let csv = self.dir.join(format!("csv-{k}"));
        let out = self.cli.sweep(self.seed, &cache, &csv)?;
        exit_ok("experiments sweep", &out)?;
        self.cli_digest.check("sweep CSV", dir_digest(&csv)?)?;
        *lock(&self.last_cache) = Some(cache);
        Ok(())
    }
}

impl Workload for SweepQuick {
    fn setup(ctx: &Ctx, _tr: &Tracer) -> Result<Self, String> {
        let dir = ctx.work_dir.join("sweep-quick");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let cli = Cli {
            bin: ctx.cli.clone(),
        };
        let seed = sut::sweep_seed(ctx.seed);
        // Also the discarded warm-up: the CLI is paged in and has run.
        exit_ok("experiments fig1", &cli.fig1(seed, None)?)?;
        Ok(SweepQuick {
            cli,
            seed,
            smoke: ctx.smoke,
            dir,
            runs: AtomicU64::new(0),
            last_cache: Mutex::new(None),
            cli_digest: SameDigest::default(),
            inproc_digest: SameDigest::default(),
            inproc: Mutex::new(Vec::new()),
        })
    }

    /// Set-up already ran the CLI once; a whole sweep is too long to
    /// throw away.
    fn warm_up(&self) -> Result<(), String> {
        Ok(())
    }

    fn op(&self, tr: &Tracer, op: u64) -> Result<(), String> {
        if !tr.enabled() {
            return self.cli_op();
        }
        tr.scope("sweep-quick.op", 0, op, |root| {
            let got = sut::sweep_in_process(self.seed, !self.smoke, tr, root, op);
            if !got.round_trip_ok {
                return Err("codec round trip changed the study bytes".to_string());
            }
            self.inproc_digest.check("in-process studies", got.digest)?;
            lock(&self.inproc).push(got);
            Ok(())
        })
    }

    fn extras(&self, _tr: &Tracer, layers: &mut Layers) -> Result<(), String> {
        // Telemetry cost on the pinned study, as a same-run ratio:
        // alternate plain and `--trace F --metrics` runs.
        let trace_file = self.dir.join("fig1-trace.json");
        let reps = if self.smoke { 1 } else { 5 };
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            for (walls, file) in [(&mut off, None), (&mut on, Some(trace_file.as_path()))] {
                let t0 = Instant::now();
                exit_ok("experiments fig1", &self.cli.fig1(self.seed, file)?)?;
                walls.push(t0.elapsed().as_secs_f64());
            }
        }
        layers.set("telemetry.on_off_wall_ratio", median(&on) / median(&off));
        Ok(())
    }

    fn finish(self, tr: &Tracer, layers: &mut Layers, exact: &mut Exact) -> Result<(), String> {
        let checked = (|| {
            // A warm run on the last cache must execute no study and
            // reproduce the cold runs' CSV bytes.
            if let Some(cache) = lock(&self.last_cache).clone() {
                let csv = self.dir.join("csv-warm");
                let t0 = Instant::now();
                let out = self.cli.sweep(self.seed, &cache, &csv)?;
                let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
                exit_ok("warm experiments sweep", &out)?;
                let summary = sut::sweep_summary(&String::from_utf8_lossy(&out.stdout))
                    .ok_or("warm sweep: no summary line")?;
                if summary.studies_executed != 0 || summary.hit_rate_pct != 100.0 {
                    return Err(format!("warm sweep was not served from cache: {summary:?}"));
                }
                self.cli_digest.check("warm sweep CSV", dir_digest(&csv)?)?;
                layers.set("artifact.warm_sweep_ms", warm_ms);
                layers.set("artifact.warm_hit_rate", summary.hit_rate_pct / 100.0);
                layers.set("artifact.cache_bytes", dir_bytes(&cache) as f64);
            }
            Ok(())
        })();
        let _ = std::fs::remove_dir_all(&self.dir);
        checked?;

        if let Some(d) = self.cli_digest.get() {
            exact.push(("sweep-quick.cli_digest".into(), format!("{d:016x}")));
        }
        let inproc = self.inproc.into_inner().expect("client thread panicked");
        let Some(last) = inproc.last() else {
            return Ok(());
        };
        let spans = tr.spans();
        for study in STUDIES {
            let span = format!("experiments.study.{study}");
            layers.set(&format!("{span}_ms"), median_ms(&spans, &span));
        }
        layers.set(
            "experiments.render_ms",
            median_ms(&spans, "experiments.render"),
        );
        let mb = last.codec_bytes as f64 / 1e6;
        let enc: Vec<f64> = inproc.iter().map(|r| r.encode_s).collect();
        let dec: Vec<f64> = inproc.iter().map(|r| r.decode_s).collect();
        layers.set("experiments.codec_encode_MBps", mb / median(&enc));
        layers.set("experiments.codec_decode_MBps", mb / median(&dec));
        layers.set("experiments.codec_bytes", last.codec_bytes as f64);
        layers.set("core.sessions", last.sessions as f64);
        layers.set(
            "core.session_us",
            median_ms(&spans, "experiments.study.measurement") * 1e3 / last.sessions as f64,
        );
        exact.push(("core.sessions".into(), last.sessions.to_string()));
        exact.push((
            "experiments.codec_bytes".into(),
            last.codec_bytes.to_string(),
        ));
        exact.push((
            "sweep-quick.study_digest".into(),
            format!("{:016x}", last.digest),
        ));
        Ok(())
    }
}

// ────────────────────────── megaflow-200k ──────────────────────────

/// 204,800 uncapped flows in 128 congestion components of 1,600, on
/// the engine's default mode, single thread.
pub struct Megaflow {
    fx: MegaFixture,
    pinned: bool,
    digest: SameDigest,
    runs: Mutex<Vec<MegaRun>>,
    steady: Mutex<Option<MegaRun>>,
}

const MEGA_FULL: MegaGeom = MegaGeom {
    racks: 128,
    hosts: 25,
    flows_per_host: 64,
};
const MEGA_SMOKE: MegaGeom = MegaGeom {
    racks: 8,
    hosts: 25,
    flows_per_host: 64,
};

/// Engine counts of the full geometry at seed 2007. A simulator
/// speed-up must leave every simulated statistic as it is.
const MEGA_PINNED_SEED: u64 = 2007;
const MEGA_PINNED: [(&str, u64); 4] = [
    ("simnet.boundaries", 258),
    ("simnet.full_solves", 257),
    ("simnet.incremental_solves", 0),
    ("simnet.component_solves", 20_683),
];

fn mega_counts(r: &MegaRun) -> [(&'static str, u64); 4] {
    [
        ("simnet.boundaries", r.stats.boundaries),
        ("simnet.full_solves", r.stats.full_solves),
        ("simnet.incremental_solves", r.stats.incremental_solves),
        ("simnet.component_solves", r.stats.component_solves),
    ]
}

impl Megaflow {
    fn check(&self, r: &MegaRun) -> Result<(), String> {
        let want = self.fx.geom.flows();
        if r.flows_started != want || r.stats.flows_completed != want {
            return Err(format!(
                "megaflow: {} started, {} completed, {want} expected",
                r.flows_started, r.stats.flows_completed
            ));
        }
        self.digest.check("megaflow completions", r.digest)?;
        if self.pinned && mega_counts(r) != MEGA_PINNED {
            return Err(format!(
                "megaflow: engine counts {:?} differ from the pinned {MEGA_PINNED:?}",
                mega_counts(r)
            ));
        }
        Ok(())
    }
}

impl Workload for Megaflow {
    fn setup(ctx: &Ctx, tr: &Tracer) -> Result<Self, String> {
        let geom = if ctx.smoke { MEGA_SMOKE } else { MEGA_FULL };
        Ok(Megaflow {
            fx: sut::mega_setup(ctx.seed, geom, tr),
            pinned: !ctx.smoke && ctx.seed == MEGA_PINNED_SEED,
            digest: SameDigest::default(),
            runs: Mutex::new(Vec::new()),
            steady: Mutex::new(None),
        })
    }

    fn op(&self, tr: &Tracer, op: u64) -> Result<(), String> {
        let r = tr.scope("megaflow-200k.op", 0, op, |root| {
            sut::mega_run(&self.fx, tr, root, op, false)
        });
        self.check(&r)?;
        lock(&self.runs).push(r);
        Ok(())
    }

    fn extras(&self, _tr: &Tracer, _layers: &mut Layers) -> Result<(), String> {
        // Allocation counts come from a run of their own with span
        // recording off, so the recorder's own buffer growth is not
        // counted and the counts repeat exactly.
        let r = sut::mega_run(&self.fx, &Tracer::new(false), 0, 0, true);
        self.check(&r)?;
        *lock(&self.steady) = Some(r);
        Ok(())
    }

    fn finish(self, tr: &Tracer, layers: &mut Layers, exact: &mut Exact) -> Result<(), String> {
        let runs = self.runs.into_inner().expect("client thread panicked");
        let last = runs.last().ok_or("megaflow: no run completed")?;
        exact.push((
            "megaflow-200k.digest".into(),
            format!("{:016x}", last.digest),
        ));
        for (name, n) in mega_counts(last) {
            layers.set(name, n as f64);
            exact.push((name.into(), n.to_string()));
        }
        let flows = self.fx.geom.flows() as f64;
        let per_fb: Vec<f64> = runs
            .iter()
            .map(|r| r.advance_s * 1e9 / r.flow_boundaries as f64)
            .collect();
        let per_start: Vec<f64> = runs.iter().map(|r| r.start_flow_s * 1e9 / flows).collect();
        layers.set("simnet.ns_per_flow_boundary", median(&per_fb));
        layers.set("simnet.start_flow_ns", median(&per_start));

        let spans = tr.spans();
        layers.set(
            "simnet.topology_build_ms",
            median_ms(&spans, "simnet.topology_build"),
        );
        let mut steps = durations_us(&spans, "simnet.step_boundary");
        if !steps.is_empty() {
            sort(&mut steps);
            layers.set("simnet.step_boundary_p50_us", median_sorted(&steps));
            layers.set(
                "simnet.step_boundary_p95_us",
                percentile_sorted(&steps, 950),
            );
        }
        if let Some(s) = self.steady.into_inner().expect("client thread panicked") {
            let n = s.steady_boundaries.max(1) as f64;
            layers.set(
                "simnet.allocs_per_boundary",
                s.steady_allocs.allocs as f64 / n,
            );
            layers.set(
                "simnet.alloc_bytes_per_boundary",
                s.steady_allocs.bytes as f64 / n,
            );
            exact.push((
                "simnet.steady_allocs".into(),
                format!(
                    "{} allocations, {} bytes, {} boundaries",
                    s.steady_allocs.allocs, s.steady_allocs.bytes, s.steady_boundaries
                ),
            ));
        }
        Ok(())
    }
}

// ───────────────────────── socket workloads ─────────────────────────

const MIB: u64 = 1 << 20;

/// The seed names the resource: the path is encoded and parsed on
/// every hop; the origin's content depends on offsets only.
fn seeded_path(seed: u64) -> String {
    format!("/irbench/{seed:016x}.bin")
}

fn lab_report(lab: Lab, layers: &mut Layers) -> Result<(), String> {
    let r = lab.finish();
    layers.set("relay.accepted", r.accepted as f64);
    layers.set("relay.backpressure_drops", r.refused as f64);
    layers.set("relay.drain_ms", r.drain_ms);
    if !r.consistent {
        return Err(format!(
            "relay counters inconsistent with the run: accepted {}, refused {}, error responses {}",
            r.accepted, r.refused, r.error_responses
        ));
    }
    Ok(())
}

/// Downloads of the single-relay workloads. The direct path is shaped
/// and delayed so that the relay wins the probe race; a stall of the
/// relay path longer than that delay still lets the direct path win, and
/// such a download is correct, but the workload is about the relay, so
/// the run fails if more than 1 % of its downloads went direct.
struct ViaRelay {
    lab: Lab,
    downloads: AtomicU64,
    direct_wins: AtomicU64,
}

impl ViaRelay {
    fn new(lab: Lab) -> ViaRelay {
        ViaRelay {
            lab,
            downloads: AtomicU64::new(0),
            direct_wins: AtomicU64::new(0),
        }
    }

    fn download(&self, tr: &Tracer, root: u64, op: u64) -> Result<(), String> {
        let via = tr.scope("relay.download", root, op, |_| self.lab.download())?;
        self.downloads.fetch_add(1, Ordering::Relaxed);
        if via.is_none() {
            self.direct_wins.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn finish(self, layers: &mut Layers) -> Result<(), String> {
        let (all, direct) = (self.downloads.into_inner(), self.direct_wins.into_inner());
        lab_report(self.lab, layers)?;
        if direct * 100 > all {
            return Err(format!(
                "{direct} of {all} downloads went direct, not through the relay"
            ));
        }
        Ok(())
    }
}

/// Sequential 64 MiB downloads through one unshaped relay; the direct
/// path is shaped to 1 MB/s so the relay always wins the probe race.
pub struct RelayBulk {
    via: ViaRelay,
    smoke: bool,
}

impl Workload for RelayBulk {
    fn setup(ctx: &Ctx, _tr: &Tracer) -> Result<Self, String> {
        let lab = Lab::start(LabSpec {
            content_len: if ctx.smoke { MIB } else { 64 * MIB },
            probe_bytes: 100 * 1024,
            direct_rate: 1e6,
            // A download that went direct would take a minute.
            direct_latency: Duration::from_secs(1),
            relay_rates: vec![None],
            path: seeded_path(ctx.seed),
        })?;
        Ok(RelayBulk {
            via: ViaRelay::new(lab),
            smoke: ctx.smoke,
        })
    }

    fn op(&self, tr: &Tracer, op: u64) -> Result<(), String> {
        tr.scope("relay-bulk.op", 0, op, |root| {
            self.via.download(tr, root, op)
        })
    }

    fn extras(&self, tr: &Tracer, layers: &mut Layers) -> Result<(), String> {
        let lab = &self.via.lab;
        let reps = if self.smoke { 1 } else { 5 };
        let (mut relay, mut direct) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            relay.push(lab.raw_drain(true)?.as_secs_f64());
            direct.push(lab.raw_drain(false)?.as_secs_f64());
        }
        let mb = lab.content_len() as f64 / 1e6;
        layers.set("relay.splice_MBps", mb / median(&relay));
        layers.set("relay.direct_MBps", mb / median(&direct));
        layers.set("relay.bulk_tax_ratio", median(&relay) / median(&direct));
        let downloads = durations_us(&tr.spans(), "relay.download");
        if !downloads.is_empty() {
            layers.set(
                "relay.client_overhead_ratio",
                median(&downloads) / 1e6 / median(&relay),
            );
        }
        Ok(())
    }

    fn finish(self, _tr: &Tracer, layers: &mut Layers, _exact: &mut Exact) -> Result<(), String> {
        self.via.finish(layers)
    }
}

/// Two closed-loop clients fetching a 12,000 B file through one
/// unshaped relay: per-connection cost dominates, bytes are negligible.
pub struct RelaySmall {
    via: ViaRelay,
    smoke: bool,
}

impl Workload for RelaySmall {
    fn setup(ctx: &Ctx, _tr: &Tracer) -> Result<Self, String> {
        let lab = Lab::start(LabSpec {
            content_len: 12_000,
            probe_bytes: 2_000,
            direct_rate: 30e3,
            direct_latency: Duration::from_millis(250),
            relay_rates: vec![None],
            path: seeded_path(ctx.seed),
        })?;
        Ok(RelaySmall {
            via: ViaRelay::new(lab),
            smoke: ctx.smoke,
        })
    }

    fn clients(&self) -> usize {
        2
    }

    fn op(&self, tr: &Tracer, op: u64) -> Result<(), String> {
        tr.scope("relay-small.op", 0, op, |root| {
            self.via.download(tr, root, op)
        })
    }

    fn extras(&self, _tr: &Tracer, layers: &mut Layers) -> Result<(), String> {
        let lab = &self.via.lab;
        let n = if self.smoke { 20 } else { 500 };
        let mut sample =
            |p50: &'static str, p95: &'static str, f: &dyn Fn() -> Result<Duration, String>| {
                let mut us = Vec::with_capacity(n);
                for _ in 0..n {
                    us.push(f()?.as_secs_f64() * 1e6);
                }
                sort(&mut us);
                layers.set(p50, median_sorted(&us));
                layers.set(p95, percentile_sorted(&us, 950));
                Ok::<(), String>(())
            };
        sample("relay.connect_p50_us", "relay.connect_p95_us", &|| {
            lab.raw_connect()
        })?;
        sample("relay.ttfb_p50_us", "relay.ttfb_p95_us", &|| {
            lab.raw_ttfb(true)
        })?;
        sample(
            "relay.origin_ttfb_p50_us",
            "relay.origin_ttfb_p95_us",
            &|| lab.raw_ttfb(false),
        )?;
        let mut race = Vec::new();
        for _ in 0..n.min(200) {
            let t0 = Instant::now();
            lab.probe_race()?;
            race.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        layers.set("relay.probe_race_us", median(&race));
        Ok(())
    }

    fn finish(self, tr: &Tracer, layers: &mut Layers, _exact: &mut Exact) -> Result<(), String> {
        // p99 only when at least ten samples lie beyond it.
        let mut fetches = durations_us(&tr.spans(), "relay-small.op");
        sort(&mut fetches);
        if tail_sorted(&fetches).is_some_and(|(permille, _)| permille >= 990) {
            layers.set("relay.fetch_p99_ms", percentile_sorted(&fetches, 990) / 1e3);
        }
        self.via.finish(layers)
    }
}

/// 16-chunk striped downloads of a 16 MiB file over a 4 MB/s direct
/// path and relays shaped to 8 and 6 MB/s: the only workload through
/// the token-bucket shaper, and wall-bound by it.
pub struct StripeShaped {
    lab: Lab,
    smoke: bool,
    chunks: Mutex<Vec<Vec<u64>>>,
}

const STRIPE_CHUNKS: u32 = 16;
const STRIPE_RATES: [f64; 3] = [4e6, 8e6, 6e6];

impl Workload for StripeShaped {
    fn setup(ctx: &Ctx, _tr: &Tracer) -> Result<Self, String> {
        let lab = Lab::start(LabSpec {
            content_len: if ctx.smoke { MIB } else { 16 * MIB },
            probe_bytes: 100 * 1024,
            direct_rate: STRIPE_RATES[0],
            direct_latency: Duration::ZERO,
            relay_rates: vec![Some(STRIPE_RATES[1]), Some(STRIPE_RATES[2])],
            path: seeded_path(ctx.seed),
        })?;
        Ok(StripeShaped {
            lab,
            smoke: ctx.smoke,
            chunks: Mutex::new(Vec::new()),
        })
    }

    fn op(&self, tr: &Tracer, op: u64) -> Result<(), String> {
        tr.scope("stripe-shaped.op", 0, op, |root| {
            let counts = tr.scope("relay.download_striped", root, op, |_| {
                self.lab.download_striped(STRIPE_CHUNKS)
            })?;
            lock(&self.chunks).push(counts);
            Ok(())
        })
    }

    fn extras(&self, tr: &Tracer, layers: &mut Layers) -> Result<(), String> {
        // The same file raced (`relay::download`): one long warm splice
        // where striping makes many short range requests.
        let mut raced = Vec::new();
        for _ in 0..if self.smoke { 1 } else { 3 } {
            let t0 = Instant::now();
            self.lab.download()?;
            raced.push(t0.elapsed().as_secs_f64());
        }
        let striped = durations_us(&tr.spans(), "relay.download_striped");
        if striped.is_empty() {
            return Ok(());
        }
        let mb = self.lab.content_len() as f64 / 1e6;
        let striped_mbps = mb / (median(&striped) / 1e6);
        let raced_mbps = mb / median(&raced);
        layers.set("stripe.raced_goodput_MBps", raced_mbps);
        layers.set("stripe.vs_raced_ratio", striped_mbps / raced_mbps);
        layers.set(
            "stripe.efficiency",
            striped_mbps / (STRIPE_RATES.iter().sum::<f64>() / 1e6),
        );
        Ok(())
    }

    fn finish(self, _tr: &Tracer, layers: &mut Layers, _exact: &mut Exact) -> Result<(), String> {
        let chunks = self.chunks.into_inner().expect("client thread panicked");
        for (i, name) in [
            "stripe.chunks_direct",
            "stripe.chunks_relay0",
            "stripe.chunks_relay1",
        ]
        .into_iter()
        .enumerate()
        {
            let per_op: Vec<f64> = chunks.iter().map(|c| c[i] as f64).collect();
            if !per_op.is_empty() {
                layers.set(name, median(&per_op));
            }
        }
        lab_report(self.lab, layers)
    }
}
