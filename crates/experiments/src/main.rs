//! `experiments` — CLI reproducing the paper's tables and figures.
//!
//! One driver: a command selects artefacts from the sweep plan
//! (`sweep::full_plan`; `SweepPlan::select`), the scheduler runs the
//! studies they consume — each at most once — and one printer emits the
//! reports in plan order. stderr carries one `running <command> …` line
//! before and one `<study> <source> <ms>` line per study after.
//!
//! ```text
//! experiments <artefact> [--seed N] [--scale quick|paper] [--csv DIR]
//!             [--cal FILE] [--threads N] [--trace FILE] [--metrics]
//!             [--faults none|MTBF_SECS] [--cache-dir DIR|none]
//!
//! artefacts: fig1 fig2 fig3 fig4 fig5 fig6 table1 table2 table3
//!            variability overhead
//!            measurement (figs 1-5, tables 1-2, variability,
//!                         overhead on one shared run)
//!            selection   (fig 6 + table 3 on one shared run)
//!            sites       (per-site 33-49% range, extension)
//!            headroom    (oracle-attainable vs captured, extension)
//!            faults      (availability under overlay faults, extension)
//!            striping    (multi-source range striping vs the racing
//!                         session on the 2-relay variability grid,
//!                         including the stale-prediction penalty-tail
//!                         cells; stripe sets drawn from the policy
//!                         plane's best-k, extension)
//!            tournament  (policy × scenario table: every path-selection
//!                         policy on every tournament scenario, with
//!                         improvement, penalty rate, probe overhead and
//!                         multi-hop share per cell)
//!            scenario    (workload inspection, no study)
//!            robustness  (headline numbers across seeds)
//!            sweep       (every artefact through the dependency-aware
//!                         scheduler: shared studies execute once, the
//!                         content-addressed cache under --cache-dir
//!                         (default results/.cache, "none" disables)
//!                         serves repeat runs byte-identically)
//!            cache-gc    (artefact-cache maintenance: drop corrupt
//!                         entries, evict oldest until under
//!                         --max-bytes)
//!            all         (every artefact of the plan, in plan order,
//!                         then robustness; no cache)
//! ```
//!
//! Only `sweep` and `cache-gc` touch the cache; every other
//! command computes what it prints.
//!
//! `--threads 0` restores the default worker count (one per available
//! core) after an earlier cap in the same process.
//!
//! `--faults MTBF_SECS` injects a seeded overlay fault plan (link MTBF
//! in seconds) into the measurement study and enables session failover;
//! `--faults none` installs the empty plan, which is a provable no-op —
//! artefacts stay byte-identical to a run without the flag. `--cal` and
//! `--faults` shape the measurement study only, under every command
//! that runs it (`sweep` included: its cache key covers both).
//!
//! `--trace FILE` writes a Chrome `trace_event` JSON of the study to
//! FILE (open in `chrome://tracing` or Perfetto); the ring keeps the
//! newest 65,536 events, and stderr says how many older ones it
//! dropped. `--metrics` prints a telemetry counter/histogram section
//! after the reports: each study task folds its engine stats and
//! session results in once, so no event is built unless `--trace` is
//! given too, and the section is the same with or without it. Both are
//! strictly observational: artefact numbers are bit-identical with and
//! without them.

use ir_artifact::{ArtifactCache, ExecReport};
use ir_experiments::sweep::{self, SweepPlan};
use ir_experiments::{inspect, robustness, Scale};
use ir_telemetry::Telemetry;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    artefact: String,
    seed: u64,
    scale: Scale,
    csv_dir: Option<PathBuf>,
    cal: Option<ir_workload::Calibration>,
    threads: Option<usize>,
    trace_file: Option<PathBuf>,
    metrics: bool,
    /// `--faults`: `None` = flag absent, `Some(0)` = "none" (empty
    /// plan), `Some(n)` = overlay faults at link MTBF `n` seconds.
    faults: Option<u64>,
    /// `--cache-dir`: artefact-cache location for `sweep`/`cache-gc`;
    /// `None` means caching disabled (`--cache-dir none`).
    cache_dir: Option<PathBuf>,
    /// `--max-bytes`: `cache-gc` eviction budget.
    gc_max_bytes: u64,
}

fn usage() -> ! {
    let artefacts: Vec<&str> = sweep::SALTS.iter().map(|&(name, _)| name).collect();
    eprintln!(
        "usage: experiments <artefact> [--seed N] [--scale quick|paper] [--csv DIR] [--cal FILE]\n\
         \x20                           [--threads N] [--trace FILE] [--metrics]\n\
         \x20                           [--faults none|MTBF_SECS]\n\
         \x20                           [--cache-dir DIR|none] [--max-bytes N]\n\
         artefacts: {}\n\
         \x20          measurement selection all sweep scenario robustness cache-gc",
        artefacts.join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let artefact = argv.next().unwrap_or_else(|| usage());
    let mut args = Args {
        artefact,
        seed: 2007, // the venue year; any seed works
        scale: Scale::Quick,
        csv_dir: None,
        cal: None,
        threads: None,
        trace_file: None,
        metrics: false,
        faults: None,
        cache_dir: Some(PathBuf::from("results/.cache")),
        gc_max_bytes: 256 * 1024 * 1024,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--seed" => {
                args.seed = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--scale" => {
                args.scale = match argv.next().as_deref() {
                    Some("quick") => Scale::Quick,
                    Some("paper") => Scale::Paper,
                    _ => usage(),
                };
            }
            "--csv" => {
                args.csv_dir = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--cal" => {
                let path = argv.next().unwrap_or_else(|| usage());
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                });
                args.cal = Some(ir_workload::from_kv(&text).unwrap_or_else(|e| {
                    eprintln!("bad calibration file {path}: {e}");
                    std::process::exit(2);
                }));
            }
            "--threads" => {
                // 0 is meaningful: restore the available-parallelism
                // default after an earlier cap.
                args.threads = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--trace" => {
                args.trace_file = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--metrics" => {
                args.metrics = true;
            }
            "--cache-dir" => {
                args.cache_dir = match argv.next().as_deref() {
                    Some("none") => None,
                    Some(dir) => Some(PathBuf::from(dir)),
                    None => usage(),
                };
            }
            "--max-bytes" => {
                args.gc_max_bytes = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--faults" => {
                args.faults = match argv.next().as_deref() {
                    Some("none") => Some(0),
                    Some(v) => Some(
                        v.parse::<u64>()
                            .ok()
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage()),
                    ),
                    None => usage(),
                };
            }
            _ => usage(),
        }
    }
    args
}

fn cache_gc(args: &Args) -> ExitCode {
    let Some(dir) = &args.cache_dir else {
        eprintln!("cache-gc needs a cache directory (omit --cache-dir none)");
        return ExitCode::FAILURE;
    };
    match ArtifactCache::open(dir).and_then(|c| c.gc(args.gc_max_bytes)) {
        Ok(r) => {
            println!(
                "cache-gc {}: scanned {}, removed {} corrupt, evicted {}, {} bytes kept",
                dir.display(),
                r.scanned,
                r.corrupt_removed,
                r.evicted,
                r.bytes_after
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cache-gc failed for {}: {e}", dir.display());
            ExitCode::FAILURE
        }
    }
}

/// What the command runs: its selection from the full plan, plus the
/// two artefacts no study feeds.
fn plan_for(args: &Args, tel: Option<Arc<Telemetry>>) -> SweepPlan {
    let command = args.artefact.as_str();
    let seed = args.seed;
    let mut plan = match command {
        "scenario" | "robustness" => SweepPlan::default(),
        _ => sweep::full_plan(seed, args.scale, args.cal, args.faults, tel)
            .select(command)
            .unwrap_or_else(|| usage()),
    };
    if matches!(command, "robustness" | "all") {
        let render = || robustness::report(robustness::DEFAULT_SEEDS);
        plan.artefacts.push(sweep::uncached("robustness", render));
    }
    if command == "scenario" {
        let render = move || inspect::report(seed);
        plan.artefacts.push(sweep::uncached("scenario", render));
    }
    plan
}

/// `sweep`'s closing block: where every study and artefact came from.
fn print_summary(report: &ExecReport, wall_secs: f64) {
    println!("== sweep summary ==");
    for s in &report.studies {
        println!(
            "study    {:<24} {:>12?} {:>9.1}ms  {}",
            s.name,
            s.source,
            s.wall.as_secs_f64() * 1e3,
            s.fingerprint.to_hex()
        );
    }
    for a in &report.artefacts {
        println!(
            "artefact {:<24} {:>12?} {:>9.1}ms  {}",
            a.name,
            a.source,
            a.wall.as_secs_f64() * 1e3,
            a.fingerprint.to_hex()
        );
    }
    println!(
        "{} artefacts ({} from cache), {} studies executed; cache {} hits / {} misses / \
         {} stores / {} corrupt (hit rate {:.0}%); wall {:.1}s",
        report.artefacts.len(),
        report.artefact_hits(),
        report.studies_executed(),
        report.cache_hits,
        report.cache_misses,
        report.cache_stores,
        report.cache_corrupt,
        report.hit_rate() * 100.0,
        wall_secs
    );
    println!();
}

#[expect(
    clippy::disallowed_methods,
    reason = "one timer: the wall-clock figure on the sweep summary line; CSV outputs are produced from seeds only"
)]
fn main() -> ExitCode {
    let args = parse_args();
    if let Some(n) = args.threads {
        ir_experiments::set_worker_threads(n);
    }
    let command = args.artefact.as_str();
    if command == "cache-gc" {
        return cache_gc(&args);
    }
    // One shared handle for every study this invocation runs, with a
    // tracer only when a trace is written; None (the default) keeps
    // every layer on its no-op path.
    let tel: Option<Arc<Telemetry>> = match (&args.trace_file, args.metrics) {
        (Some(_), _) => Some(Arc::new(Telemetry::new())),
        (None, true) => Some(Arc::new(Telemetry::metrics_only())),
        (None, false) => None,
    };
    let plan = plan_for(&args, tel.clone());
    // Only `sweep` reads and writes the artefact cache; every other
    // command computes what it prints.
    let cache = match &args.cache_dir {
        Some(dir) if command == "sweep" => match ArtifactCache::open(dir) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("cannot open cache at {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        },
        _ => None,
    };

    eprintln!(
        "running {command} (seed {}, {:?} scale)...",
        args.seed, args.scale
    );
    let t0 = std::time::Instant::now();
    let report = match sweep::run_sweep(plan, cache.as_ref(), args.csv_dir.as_deref(), tel.as_ref())
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{command} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for s in &report.studies {
        eprintln!(
            "{} {:?} {:.1}ms",
            s.name,
            s.source,
            s.wall.as_secs_f64() * 1e3
        );
    }
    for a in &report.artefacts {
        println!("{}", a.output.text);
        if let Some(dir) = &args.csv_dir {
            for (file, _) in &a.output.files {
                println!("wrote {}", dir.join(file).display());
            }
        }
        println!();
    }
    if command == "sweep" {
        print_summary(&report, t0.elapsed().as_secs_f64());
    }
    let mut ok = report.all_pass();

    if let Some(tel) = &tel {
        if let (Some(path), Some(tracer)) = (&args.trace_file, &tel.tracer) {
            match std::fs::write(path, tel.chrome_trace()) {
                Ok(()) => eprintln!(
                    "wrote {} trace events to {} ({} older events dropped)",
                    tracer.len(),
                    path.display(),
                    tracer.dropped()
                ),
                Err(e) => {
                    eprintln!("trace write failed for {}: {e}", path.display());
                    ok = false;
                }
            }
        }
        if args.metrics {
            println!("== telemetry ==");
            print!("{}", tel.metrics.snapshot().render_text());
            println!();
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
