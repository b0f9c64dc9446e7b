//! `experiments` — CLI reproducing the paper's tables and figures.
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
//!            megaflow    (fair-share engine at scale: the mini fan-in
//!                         at --scale quick, 1.01M flows over 10,401
//!                         nodes at --scale paper; single-threaded —
//!                         --threads does not apply)
//!            tournament  (policy × scenario table: every path-selection
//!                         policy on every tournament scenario, with
//!                         improvement, penalty rate, probe overhead and
//!                         multi-hop share per cell)
//!            soak        (relay load study over real loopback sockets:
//!                         N concurrent racing downloads through one
//!                         event-driven relay daemon — 250 clients at
//!                         --scale quick, 2000 at --scale paper — with
//!                         goodput and p99 accept-to-first-byte from
//!                         the relay's own spans; the only wall-clock
//!                         artefact, cached as a record of its run and
//!                         excluded from `sweep`/`all`)
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
//!            all         (everything above except soak, scenario,
//!                         sweep and cache-gc; no cache)
//! ```
//!
//! `--threads 0` restores the default worker count (one per available
//! core) after an earlier cap in the same process.
//!
//! `--faults MTBF_SECS` injects a seeded overlay fault plan (link MTBF
//! in seconds) into the measurement study and enables session failover;
//! `--faults none` installs the empty plan, which is a provable no-op —
//! artefacts stay byte-identical to a run without the flag.
//!
//! `--trace FILE` writes a Chrome `trace_event` JSON of the study to
//! FILE (open in `chrome://tracing` or Perfetto); `--metrics` prints a
//! telemetry counter/histogram section after the reports. Both are
//! strictly observational: artefact numbers are bit-identical with and
//! without them.

use ir_experiments::{
    measurement_reports, measurement_study_default_traced, selection_reports,
    selection_study_default_traced, Report, Scale, FIG6_KS,
};
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
    eprintln!(
        "usage: experiments <artefact> [--seed N] [--scale quick|paper] [--csv DIR] [--cal FILE]\n\
         \x20                           [--threads N] [--trace FILE] [--metrics]\n\
         \x20                           [--faults none|MTBF_SECS]\n\
         \x20                           [--cache-dir DIR|none] [--max-bytes N]\n\
         artefacts: fig1 fig2 fig3 fig4 fig5 fig6 table1 table2 table3\n\
         \x20          variability overhead\n\
         \x20          measurement selection sites headroom faults striping megaflow\n\
         \x20          tournament soak scenario robustness sweep cache-gc all"
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

fn emit(reports: &[Report], csv_dir: &Option<PathBuf>) -> bool {
    let mut ok = true;
    for r in reports {
        println!("{}", r.render());
        if let Some(dir) = csv_dir {
            match r.write_csv(dir) {
                Ok(files) => {
                    for f in files {
                        println!("wrote {}", f.display());
                    }
                }
                Err(e) => {
                    eprintln!("csv write failed: {e}");
                    ok = false;
                }
            }
        }
        if !r.all_pass() {
            ok = false;
        }
        println!();
    }
    ok
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(n) = args.threads {
        ir_experiments::set_worker_threads(n);
    }
    if args.artefact == "cache-gc" {
        let Some(dir) = &args.cache_dir else {
            eprintln!("cache-gc needs a cache directory (omit --cache-dir none)");
            return ExitCode::FAILURE;
        };
        return match ir_artifact::ArtifactCache::open(dir).and_then(|c| c.gc(args.gc_max_bytes)) {
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
        };
    }
    // One shared handle for every study this invocation runs; None
    // (the default) keeps every layer on its no-op path.
    let tel: Option<Arc<Telemetry>> = if args.trace_file.is_some() || args.metrics {
        Some(Arc::new(Telemetry::new()))
    } else {
        None
    };
    let needs_measurement = matches!(
        args.artefact.as_str(),
        "fig1"
            | "fig2"
            | "fig3"
            | "fig4"
            | "fig5"
            | "table1"
            | "table2"
            | "variability"
            | "overhead"
            | "measurement"
            | "all"
    );
    let needs_selection = matches!(
        args.artefact.as_str(),
        "fig6" | "table3" | "selection" | "all"
    );
    let needs_sites = matches!(args.artefact.as_str(), "sites" | "all");
    let needs_headroom = matches!(args.artefact.as_str(), "headroom" | "all");
    let needs_faults = matches!(args.artefact.as_str(), "faults" | "all");
    let needs_striping = matches!(args.artefact.as_str(), "striping" | "all");
    let needs_megaflow = matches!(args.artefact.as_str(), "megaflow" | "all");
    let needs_tournament = matches!(args.artefact.as_str(), "tournament" | "all");
    let needs_scenario = args.artefact == "scenario";
    let needs_robustness = matches!(args.artefact.as_str(), "robustness" | "all");
    let needs_sweep = args.artefact == "sweep";
    // Real sockets + wall clock: the soak never rides along with the
    // deterministic `all`/`sweep` bundles.
    let needs_soak = args.artefact == "soak";
    if !needs_measurement
        && !needs_selection
        && !needs_sites
        && !needs_headroom
        && !needs_faults
        && !needs_striping
        && !needs_megaflow
        && !needs_tournament
        && !needs_scenario
        && !needs_robustness
        && !needs_sweep
        && !needs_soak
    {
        usage();
    }

    let mut ok = true;

    if needs_sweep {
        let cache = match &args.cache_dir {
            Some(dir) => match ir_artifact::ArtifactCache::open(dir) {
                Ok(c) => Some(c),
                Err(e) => {
                    eprintln!("cannot open cache at {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        eprintln!(
            "running artefact sweep (seed {}, {:?} scale, cache: {})...",
            args.seed,
            args.scale,
            match &args.cache_dir {
                Some(d) => d.display().to_string(),
                None => "disabled".into(),
            }
        );
        let t0 = std::time::Instant::now();
        let plan = ir_experiments::sweep::full_plan(args.seed, args.scale, tel.clone());
        let report = match ir_experiments::sweep::run_sweep(
            plan,
            cache.as_ref(),
            args.csv_dir.as_deref(),
            tel.as_ref(),
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for a in &report.artefacts {
            println!("{}", a.output.text);
            println!();
        }
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
            t0.elapsed().as_secs_f64()
        );
        println!();
        ok &= report.all_pass();
    }

    if needs_soak {
        let cache = match &args.cache_dir {
            Some(dir) => match ir_artifact::ArtifactCache::open(dir) {
                Ok(c) => Some(c),
                Err(e) => {
                    eprintln!("cannot open cache at {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        let cfg = ir_experiments::sweep::soak_config(args.scale);
        eprintln!(
            "running relay soak (seed {}, {:?} scale, {} clients)...",
            args.seed, args.scale, cfg.clients
        );
        let t0 = std::time::Instant::now();
        let plan = ir_experiments::sweep::soak_plan(args.seed, args.scale);
        let report = match ir_experiments::sweep::run_sweep(
            plan,
            cache.as_ref(),
            args.csv_dir.as_deref(),
            tel.as_ref(),
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("soak failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for a in &report.artefacts {
            println!("{}", a.output.text);
            println!();
        }
        eprintln!(
            "soak: {:?} in {:.1}s",
            report.artefacts[0].source,
            t0.elapsed().as_secs_f64()
        );
        ok &= report.all_pass();
    }

    if needs_measurement {
        eprintln!(
            "running measurement study (seed {}, {:?} scale)...",
            args.seed, args.scale
        );
        let t0 = std::time::Instant::now();
        let data = match (&args.cal, args.faults) {
            (None, None) => measurement_study_default_traced(args.seed, args.scale, tel.clone()),
            (cal, faults) => {
                // Decomposed default path so that `--faults none` and
                // a custom calibration share one code path; with the
                // empty plan it is byte-identical to the branch above.
                let mut scenario = match cal {
                    None => ir_workload::planetlab_study(args.seed),
                    Some(cal) => ir_workload::build(
                        args.seed,
                        ir_workload::roster::CLIENTS,
                        ir_workload::roster::INTERMEDIATES,
                        ir_workload::roster::SERVERS,
                        *cal,
                        false,
                    ),
                };
                let schedule = ir_workload::Schedule::measurement_study()
                    .spread(args.scale.measurement_transfers());
                let mut session = ir_core::SessionConfig::paper_defaults();
                if let Some(mtbf) = faults {
                    let plan = ir_experiments::faults::cli_fault_plan(
                        &scenario, mtbf, schedule, args.seed,
                    );
                    scenario.network.set_fault_plan(&plan);
                    if mtbf > 0 {
                        session.failover = Some(ir_core::FailoverConfig::paper_defaults());
                    }
                }
                ir_experiments::run_measurement_study_traced(
                    &scenario,
                    0,
                    schedule,
                    session,
                    tel.clone(),
                )
            }
        };
        eprintln!(
            "measurement study: {} records in {:.1}s",
            data.all_records().count(),
            t0.elapsed().as_secs_f64()
        );
        let reports = measurement_reports(&data);
        let wanted: Vec<Report> = reports
            .into_iter()
            .filter(|r| {
                matches!(args.artefact.as_str(), "measurement" | "all") || r.id == args.artefact
            })
            .collect();
        ok &= emit(&wanted, &args.csv_dir);
    }

    if needs_selection {
        eprintln!(
            "running selection study (seed {}, {:?} scale)...",
            args.seed, args.scale
        );
        let t0 = std::time::Instant::now();
        let data = selection_study_default_traced(args.seed, args.scale, FIG6_KS, tel.clone());
        eprintln!(
            "selection study: {} runs in {:.1}s",
            data.runs.len(),
            t0.elapsed().as_secs_f64()
        );
        let reports = selection_reports(&data);
        let wanted: Vec<Report> = reports
            .into_iter()
            .filter(|r| {
                matches!(args.artefact.as_str(), "selection" | "all") || r.id == args.artefact
            })
            .collect();
        ok &= emit(&wanted, &args.csv_dir);
    }

    if needs_sites {
        eprintln!("running per-site study (seed {})...", args.seed);
        let transfers = match args.scale {
            Scale::Quick => 8,
            Scale::Paper => 25,
        };
        let r = ir_experiments::sites::report(args.seed, transfers);
        ok &= emit(&[r], &args.csv_dir);
    }

    if needs_faults {
        eprintln!(
            "running fault-plane study (seed {}, {:?} scale)...",
            args.seed, args.scale
        );
        let r = ir_experiments::faults::report(args.seed, args.scale);
        ok &= emit(&[r], &args.csv_dir);
    }

    if needs_striping {
        eprintln!(
            "running striping study (seed {}, {:?} scale)...",
            args.seed, args.scale
        );
        let r = ir_experiments::striping::report(args.seed, args.scale);
        ok &= emit(&[r], &args.csv_dir);
    }

    if needs_megaflow {
        let cfg = ir_experiments::sweep::megaflow_config(args.scale);
        eprintln!(
            "running megaflow study (seed {}, {:?} scale, {} flows)...",
            args.seed,
            args.scale,
            cfg.total_flows()
        );
        let t0 = std::time::Instant::now();
        let r = ir_experiments::megaflow::report(args.seed, &cfg, Default::default());
        eprintln!("megaflow study: done in {:.1}s", t0.elapsed().as_secs_f64());
        ok &= emit(&[r], &args.csv_dir);
    }

    if needs_tournament {
        eprintln!(
            "running policy tournament (seed {}, {:?} scale)...",
            args.seed, args.scale
        );
        let r = ir_experiments::tournament::report(args.seed, args.scale);
        ok &= emit(&[r], &args.csv_dir);
    }

    if needs_robustness {
        eprintln!("running seed-robustness sweep...");
        let r = ir_experiments::robustness::report(ir_experiments::robustness::DEFAULT_SEEDS);
        ok &= emit(&[r], &args.csv_dir);
    }

    if needs_scenario {
        let r = ir_experiments::inspect::report(args.seed);
        ok &= emit(&[r], &args.csv_dir);
    }

    if needs_headroom {
        eprintln!("running oracle headroom study (seed {})...", args.seed);
        let transfers = match args.scale {
            Scale::Quick => 30,
            Scale::Paper => 120,
        };
        let r = ir_experiments::headroom::report(args.seed, transfers);
        ok &= emit(&[r], &args.csv_dir);
    }

    if let Some(tel) = &tel {
        if let Some(path) = &args.trace_file {
            match std::fs::write(path, tel.chrome_trace()) {
                Ok(()) => eprintln!(
                    "wrote {} trace events to {}",
                    tel.tracer.len(),
                    path.display()
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
