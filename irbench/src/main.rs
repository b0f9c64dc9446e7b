//! `irbench` — the repository's benchmark.
//!
//! ```text
//! irbench [run] --workload W --seed N --seconds S --trace 0|1
//!               [--smoke] [--out FILE] [--experiments PATH]
//! irbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//! irbench layers [--seed N]
//! ```
//!
//! `run` measures one workload in this one process and prints, as the
//! last line of its output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (which also
//! writes a Chrome trace). `--out` appends the same result, with the
//! machine it was taken on and the values that must repeat exactly, to a
//! file of one JSON object per line; `compare` reads two such files.
//! `layers` runs the layer micro-benchmarks alone. See README.md.

mod alloc;
mod compare;
mod json;
mod metrics;
mod proc;
mod runner;
mod stats;
mod sut;
mod trace;
mod workloads;

use json::escape;
use runner::Outcome;
use std::path::PathBuf;
use workloads::Ctx;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "sweep-quick",
    "megaflow-200k",
    "relay-bulk",
    "relay-small",
    "stripe-shaped",
];

fn usage() -> ! {
    eprintln!(
        "usage: irbench [run] --workload W --seed N --seconds S --trace 0|1 [--smoke] \
         [--out FILE] [--experiments PATH]\n       \
         irbench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]\n       \
         irbench layers [--seed N]\n\
         workloads: {}",
        WORKLOADS.join(" ")
    );
    std::process::exit(2)
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    experiments: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> RunArgs {
    let mut r = RunArgs {
        workload: String::new(),
        seed: 2007,
        seconds: 10.0,
        traced: false,
        smoke: false,
        out: None,
        experiments: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => r.workload = value(),
            "--seed" => r.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => r.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                r.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => r.smoke = true,
            "--out" => r.out = Some(value().into()),
            "--experiments" => r.experiments = Some(value().into()),
            _ => usage(),
        }
    }
    let valid = WORKLOADS.contains(&r.workload.as_str()) && r.seconds > 0.0 && r.seconds <= 600.0;
    if !valid {
        usage();
    }
    r
}

/// The directory this executable was built into: the `experiments` CLI
/// is built beside it, and scratch files go under it.
fn build_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The machine a result was taken on, as a JSON object.
fn machine_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\
         \"commit\":\"{}\",\"network\":\"host loopback (127.0.0.1)\"}}",
        escape(&cpu),
        escape(&first_line_of("rustc", &["--version"])),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        escape(&first_line_of("git", &["rev-parse", "HEAD"])),
    )
}

fn metrics_json(o: &Outcome) -> String {
    let fields: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn run(a: RunArgs) -> i32 {
    if cfg!(debug_assertions) && !a.smoke {
        eprintln!("irbench: refusing to measure a debug build; build with --release");
        return 2;
    }
    let ctx = Ctx {
        seed: a.seed,
        smoke: a.smoke,
        cli: a
            .experiments
            .clone()
            .unwrap_or_else(|| build_dir().join("experiments")),
        work_dir: build_dir().join("irbench-work"),
    };
    let outcome = match a.workload.as_str() {
        "sweep-quick" => runner::run::<workloads::SweepQuick>(&ctx, a.seconds, a.traced),
        "megaflow-200k" => runner::run::<workloads::Megaflow>(&ctx, a.seconds, a.traced),
        "relay-bulk" => runner::run::<workloads::RelayBulk>(&ctx, a.seconds, a.traced),
        "relay-small" => runner::run::<workloads::RelaySmall>(&ctx, a.seconds, a.traced),
        _ => runner::run::<workloads::StripeShaped>(&ctx, a.seconds, a.traced),
    };
    let correct = outcome.failed == 0 && outcome.attempted > 0;

    println!(
        "irbench {} seed {} {} pass, {} s window{}; {} client thread(s) in this process, \
         all sockets on host loopback",
        a.workload,
        a.seed,
        if a.traced { "traced" } else { "untraced" },
        a.seconds,
        if a.smoke { " (smoke sizes)" } else { "" },
        outcome.clients,
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    if !a.traced {
        for (name, value, unit) in [
            ("cpu_ms_per_op", outcome.cpu_ms_per_op, "ms"),
            ("peak_rss_MiB", outcome.peak_rss_mib, "MiB"),
        ] {
            println!("  {name:<40} {value:>16.4} {unit} (reported, not gated)");
        }
    }
    println!(
        "  operations: {} attempted, {} failed (fail ratio {:.4}), {} samples in the reported window",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.samples
    );
    for (name, value) in &outcome.exact {
        println!("  exact {name} = {value}");
    }
    for e in &outcome.errors {
        println!("  FAILED: {e}");
    }
    if let Some(trace) = &outcome.trace_json {
        let path = ctx.work_dir.join(format!("trace-{}.json", a.workload));
        match std::fs::create_dir_all(&ctx.work_dir).and_then(|()| std::fs::write(&path, trace)) {
            Ok(()) => println!("  Chrome trace: {}", path.display()),
            Err(e) => println!("  Chrome trace not written: {e}"),
        }
    }

    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome)
    );
    if let Some(path) = &a.out {
        let exact: Vec<String> = outcome
            .exact
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        let line = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
             \"smoke\": {}, \"samples\": {}, \"machine\": {}, \"exact\": {{{}}}, \"result\": {result}}}\n",
            a.workload,
            a.seed,
            u8::from(a.traced),
            a.seconds,
            a.smoke,
            outcome.samples,
            machine_json(),
            exact.join(", "),
        );
        use std::io::Write;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("irbench: cannot write {}: {e}", path.display());
            return 1;
        }
    }
    println!("{result}");
    i32::from(!correct)
}

fn layers(args: &[String]) -> i32 {
    let seed = match args {
        [] => 2007,
        [flag, n] if flag == "--seed" => n.parse().unwrap_or_else(|_| usage()),
        _ => usage(),
    };
    let mut layers = metrics::Layers::new();
    runner::micro_suite(seed, false, &mut layers);
    for &(name, unit) in metrics::PER_LAYER {
        if layers.get(name) != 0.0 {
            println!("  {name:<40} {:>16.4} {unit}", layers.get(name));
        }
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("layers") => layers(&args[1..]),
        Some("run") => run(parse_run(&args[1..])),
        Some(_) => run(parse_run(&args)),
        None => usage(),
    };
    std::process::exit(code)
}
