//! Drives one workload: timed set-ups, a discarded warm-up, a measured
//! window of closed-loop operations, and in a traced run a second
//! window with span recording on plus the per-layer measurements.

use crate::metrics::Layers;
use crate::proc;
use crate::stats::median;
use crate::sut::{self, Per};
use crate::trace::{self, Tracer};
use crate::workloads::{Ctx, Exact, Workload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `setup_s` is the median over at least `SETUP_REPS_MIN` cold starts:
/// fixtures built, servers started, and the first verified operation
/// (the discarded warm-up). Cheap ones repeat until `SETUP_BUDGET_S` or
/// `SETUP_REPS_MAX`, because a time of milliseconds is steady only as
/// the median of many.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 200;
const SETUP_BUDGET_S: f64 = 1.5;
/// Error messages kept per window; the rest are only counted.
const ERRORS_KEPT: usize = 5;

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Operations that completed and verified in the reported window.
    pub samples: u64,
    /// Closed-loop client threads that generated the load.
    pub clients: usize,
    /// (name, value, unit): the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub exact: Exact,
    /// Peak resident set when the last window closed, before anything
    /// the traced pass adds. Reported, not gated.
    pub peak_rss_mib: f64,
    /// User + system CPU of the process and its children per verified
    /// operation of the untraced window. Reported, not gated.
    pub cpu_ms_per_op: f64,
    /// Chrome trace of a traced run.
    pub trace_json: Option<String>,
}

/// One measured window.
struct Window {
    walls_ms: Vec<f64>,
    failed: u64,
    errors: Vec<String>,
    wall_s: f64,
    cpu_s: f64,
}

fn measure<W: Workload>(w: &W, tr: &Tracer, seconds: f64, next_op: &AtomicU64) -> Window {
    let cpu0 = proc::cpu_time();
    let t0 = Instant::now();
    let per_client: Vec<(Vec<f64>, Vec<String>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..w.clients())
            .map(|_| {
                s.spawn(|| {
                    let (mut walls, mut errors) = (Vec::new(), Vec::new());
                    loop {
                        let op = next_op.fetch_add(1, Ordering::Relaxed) + 1;
                        let t = Instant::now();
                        match w.op(tr, op) {
                            Ok(()) => walls.push(t.elapsed().as_secs_f64() * 1e3),
                            Err(e) => errors.push(e),
                        }
                        if t0.elapsed().as_secs_f64() >= seconds {
                            return (walls, errors);
                        }
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (proc::cpu_time() - cpu0).as_secs_f64();
    let mut win = Window {
        walls_ms: Vec::new(),
        failed: 0,
        errors: Vec::new(),
        wall_s,
        cpu_s,
    };
    for (walls, errors) in per_client {
        win.walls_ms.extend(walls);
        win.failed += errors.len() as u64;
        win.errors.extend(errors);
    }
    win.errors.truncate(ERRORS_KEPT);
    win
}

/// Median nanoseconds per iteration of `f` over `batches` batches sized
/// to about two milliseconds each.
fn ns_per_iter(f: &mut dyn FnMut(), batches: usize) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((2e-3 / once) as u64).clamp(1, 1_000_000);
    let mut per_iter = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter.push(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    median(&per_iter)
}

/// Runs the layer micro-benchmarks into `layers`.
pub fn micro_suite(seed: u64, smoke: bool, layers: &mut Layers) {
    let batches = if smoke { 3 } else { 30 };
    for mut m in sut::micros(seed) {
        let ns = ns_per_iter(&mut m.run, batches);
        layers.set(
            m.name,
            match m.per {
                Per::Ns(ops) => ns / ops,
                Per::Us => ns / 1e3,
                Per::MBps(bytes) => bytes / 1e6 / (ns / 1e9),
            },
        );
    }
}

pub fn run<W: Workload>(ctx: &Ctx, seconds: f64, traced: bool) -> Outcome {
    let tracer = Tracer::new(traced);
    let off = Tracer::new(false);
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        samples: 0,
        clients: 0,
        metrics: Vec::new(),
        exact: Vec::new(),
        peak_rss_mib: 0.0,
        cpu_ms_per_op: 0.0,
        trace_json: None,
    };
    let give_up = |mut out: Outcome, e: String| {
        out.attempted = out.attempted.max(1);
        out.failed = out.failed.max(1);
        out.errors.push(e);
        out
    };

    let mut setups = Vec::new();
    let setup_start = Instant::now();
    let w = loop {
        let t0 = Instant::now();
        let w = match W::setup(ctx, &tracer) {
            Ok(w) => w,
            Err(e) => return give_up(out, format!("set-up: {e}")),
        };
        if let Err(e) = w.warm_up() {
            return give_up(out, format!("warm-up: {e}"));
        }
        setups.push(t0.elapsed().as_secs_f64());
        let enough = setups.len() >= SETUP_REPS_MIN
            && (setup_start.elapsed().as_secs_f64() >= SETUP_BUDGET_S
                || setups.len() >= SETUP_REPS_MAX);
        if ctx.smoke || enough {
            break w;
        }
        // Teardown (server threads joined) is inside the budget, not
        // inside `setup_s`.
        drop(w);
    };

    // The untraced window: the whole run, or the first half of a traced
    // one (the base of `trace.overhead_ratio`).
    out.clients = w.clients();
    let next_op = AtomicU64::new(0);
    let window = if traced { seconds / 2.0 } else { seconds };
    let plain = measure(&w, &off, window, &next_op);
    let mut layers = Layers::new();
    let mut failed = plain.failed;
    let mut errors = plain.errors.clone();
    let mut samples = plain.walls_ms.len() as u64;

    let spans_on = traced.then(|| measure(&w, &tracer, window, &next_op));
    out.peak_rss_mib = proc::peak_rss_mib();
    if !plain.walls_ms.is_empty() {
        out.cpu_ms_per_op = plain.cpu_s * 1e3 / plain.walls_ms.len() as f64;
    }

    if let Some(spans_on) = spans_on {
        layers.set("peak_rss_MiB", out.peak_rss_mib);
        layers.set("cpu_ms_per_op", out.cpu_ms_per_op);
        failed += spans_on.failed;
        errors.extend(spans_on.errors.iter().cloned());
        samples = spans_on.walls_ms.len() as u64;
        if !plain.walls_ms.is_empty() && !spans_on.walls_ms.is_empty() {
            layers.set(
                "trace.overhead_ratio",
                median(&spans_on.walls_ms) / median(&plain.walls_ms),
            );
        }
        if let Err(e) = w.extras(&tracer, &mut layers) {
            failed += 1;
            errors.push(format!("traced pass: {e}"));
        }
        micro_suite(ctx.seed, ctx.smoke, &mut layers);
    }
    if let Err(e) = w.finish(&tracer, &mut layers, &mut out.exact) {
        failed += 1;
        errors.push(e);
    }
    out.attempted = next_op.load(Ordering::Relaxed);
    out.failed = failed;
    out.errors = errors;
    out.samples = samples;

    if traced {
        let spans = tracer.spans();
        layers.set("trace.root_coverage_min", trace::min_root_coverage(&spans));
        out.trace_json = Some(trace::chrome_json(&spans));
        out.metrics = crate::metrics::PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name), unit))
            .collect();
    } else {
        let ok = plain.walls_ms.len() as f64;
        let no_op_completed = plain.walls_ms.is_empty();
        out.metrics = crate::metrics::END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "setup_s" => median(&setups),
                    _ if no_op_completed => 0.0,
                    "op_p50_ms" => median(&plain.walls_ms),
                    "ops_per_s" => ok / plain.wall_s,
                    other => unreachable!("{other} has no measurement"),
                };
                (name, value, unit)
            })
            .collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Megaflow, RelayBulk, RelaySmall, StripeShaped, SweepQuick};
    use std::path::PathBuf;

    fn ctx(name: &str) -> Ctx {
        // `cargo test` runs this from <target>/<profile>/deps; the CLI,
        // when the workspace has been built, is one of its neighbours.
        let exe = std::env::current_exe().unwrap();
        let target = exe.ancestors().nth(3).unwrap().to_path_buf();
        let cli = ["release", "debug"]
            .iter()
            .map(|p| target.join(p).join("experiments"))
            .find(|p| p.exists())
            .unwrap_or_else(|| PathBuf::from("experiments"));
        Ctx {
            seed: 2007,
            smoke: true,
            cli,
            work_dir: exe.parent().unwrap().join(format!("irbench-test-{name}")),
        }
    }

    /// Both passes at smoke sizes: nothing fails, every listed metric
    /// is reported, and the named per-layer metrics were measured.
    fn smoke<W: Workload>(name: &str, measured: &[&str]) {
        let ctx = ctx(name);
        let plain = run::<W>(&ctx, 0.2, false);
        assert_eq!(plain.failed, 0, "{:?}", plain.errors);
        assert!(plain.attempted >= 1);
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.0).collect();
        let listed: Vec<&str> = crate::metrics::END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, listed);
        for (name, value, _) in &plain.metrics {
            assert!(*value > 0.0, "{name} = {value}");
        }
        assert!(plain.peak_rss_mib > 1.0);
        assert!(plain.cpu_ms_per_op > 0.0);

        let traced = run::<W>(&ctx, 0.2, true);
        assert_eq!(traced.failed, 0, "{:?}", traced.errors);
        assert_eq!(traced.metrics.len(), crate::metrics::PER_LAYER.len());
        let value = |name: &str| traced.metrics.iter().find(|m| m.0 == name).unwrap().1;
        let always = [
            "trace.overhead_ratio",
            "relay.shaper_take_ns",
            "peak_rss_MiB",
            "cpu_ms_per_op",
        ];
        for name in measured.iter().chain(&always) {
            assert!(value(name) > 0.0, "{name} not measured");
        }
        assert!(value("trace.root_coverage_min") >= 0.9);
        assert!(crate::json::parse(traced.trace_json.as_deref().unwrap()).is_ok());
        let _ = std::fs::remove_dir_all(&ctx.work_dir);
    }

    #[test]
    fn smoke_sweep_quick() {
        if !ctx("probe").cli.exists() {
            eprintln!("skipped: build the workspace first (cargo build -p ir-experiments)");
            return;
        }
        smoke::<SweepQuick>(
            "sweep",
            &[
                "experiments.study.measurement_ms",
                "experiments.codec_bytes",
                "core.sessions",
                "telemetry.on_off_wall_ratio",
            ],
        );
    }

    #[test]
    fn smoke_megaflow() {
        let _serial = crate::alloc::TEST_SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        smoke::<Megaflow>(
            "megaflow",
            &[
                "simnet.step_boundary_p50_us",
                "simnet.boundaries",
                "simnet.allocs_per_boundary",
                "simnet.ns_per_flow_boundary",
            ],
        );
    }

    #[test]
    fn smoke_relay_bulk() {
        smoke::<RelayBulk>(
            "bulk",
            &[
                "relay.splice_MBps",
                "relay.client_overhead_ratio",
                "relay.accepted",
            ],
        );
    }

    #[test]
    fn smoke_relay_small() {
        smoke::<RelaySmall>(
            "small",
            &[
                "relay.connect_p50_us",
                "relay.ttfb_p50_us",
                "relay.probe_race_us",
            ],
        );
    }

    #[test]
    fn smoke_stripe_shaped() {
        smoke::<StripeShaped>(
            "stripe",
            &[
                "stripe.efficiency",
                "stripe.vs_raced_ratio",
                "stripe.chunks_relay0",
            ],
        );
    }
}
