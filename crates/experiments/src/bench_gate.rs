//! `bench-gate` — the perf-regression runner behind
//! `cargo run -p ir-experiments --release -- bench-gate`.
//!
//! Executes reduced editions of the criterion `micro` and `figures`
//! benchmark groups with a plain median-of-samples timing loop (the
//! offline mini-criterion reports means to stdout; a gate needs machine
//! -readable medians), runs the **pinned Fig 1 study** (the exact study
//! `tests/determinism.rs` snapshots) under a telemetry handle to
//! collect the engine-counter split, and writes everything to
//! `BENCH_PR4.json`.
//!
//! The gate *fails* (non-zero exit through [`run`]'s `Err`) when:
//!
//! * the pinned study's boundary count moves — the determinism canary:
//!   timings drift with hardware, boundary counts must not; or
//! * the incremental engine stops paying for itself
//!   (`full_solves >= boundaries` on the pinned study).
//!
//! Timing numbers are recorded, not asserted: CI archives
//! `BENCH_PR4.json` so regressions are visible in artefact history
//! without flaky wall-clock thresholds. See DESIGN.md §10 for how to
//! read the file.
//!
//! The gate also runs the pinned **mini sweep** (`sweep::mini_plan`,
//! seed 42 — the same geometry as the pinned Fig 1 study) cold and then
//! warm against a throwaway cache, writing the wall-clock split and hit
//! rates to `BENCH_PR5.json` next to `BENCH_PR4.json`. It fails when
//! the warm pass is not served 100% from cache, when the warm pass
//! executes any study, or when warm artefact bytes diverge from a
//! cacheless run.
//!
//! The gate then times the path plane and writes `BENCH_PR6.json`:
//! per-policy `paths()` decision latency, the pinned tournament's
//! probe-path counts (the probe-count determinism canary), and an
//! incremental tournament sweep — cold with the roster minus one
//! policy, then warm with the full roster — failing unless the warm
//! pass executes *exactly* the added policy's study, the guarantee
//! that growing the roster never re-runs existing policies.
//!
//! Finally the gate times the engine on the megaflow gate geometry
//! (32,768 flows, 32 rack components) and writes `BENCH_PR7.json`:
//! median ns/boundary, the decomposition stats, and the pinned
//! mini-megaflow boundary canary. It fails when the canary moves.
//!
//! Next, the gate soaks the event-driven relay daemon against its
//! thread-per-connection baseline on the soak gate geometry (64
//! concurrent racing clients over real loopback sockets, three runs
//! per mode) and writes `BENCH_PR9.json`: the median run's p99
//! accept-to-first-byte wait and goodput for each mode, plus the lost
//! transfer count. It fails when any transfer is lost, when the
//! first-byte spans go dark, or when the reactor's p99 regresses past
//! 2× the threaded baseline (+5 ms scheduler slack).
//!
//! Last, the gate runs the pinned striping sweep
//! ([`crate::striping::run`], seed 2007 Quick — the stale-prediction
//! geometry) and writes `BENCH_PR10.json`: the striped-over-raced
//! completion-time ratios on the penalty-tail (stale) and healthy
//! cells, the rebalancer's reassignment counts, and the
//! chunk-assignment canary (total chunks the direct path carried over
//! the whole grid — a pure function of the scheduler, pinned like the
//! boundary counts). It fails when striping loses any stale cell
//! (`worst ratio ≥ 1`), when the healthy-cell overhead exceeds the
//! report band, when no stale cell engaged the rebalancer, or when
//! the chunk-assignment canary moves.

use crate::runner::run_measurement_study_traced;
use crate::{fig1, table1};
use ir_core::SessionConfig;
use ir_simnet::events::EventQueue;
use ir_simnet::fairshare::{max_min_rates, reference_rates, AllocFlow};
use ir_simnet::time::SimTime;
use ir_telemetry::Telemetry;
use ir_workload::{build, roster, Calibration, Schedule};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Boundary count of the pinned Fig 1 study (seed 42, 4 clients × 4
/// relays × 1 server, spread 8 — identical to `tests/determinism.rs`).
/// This is a pure function of the seed; if it moves, the engine's
/// boundary schedule changed and the golden artefacts are suspect.
/// Re-pin only after `tests/golden/` has been deliberately regenerated.
pub const PINNED_FIG1_BOUNDARIES: u64 = 6_054;

/// One benchmark's result: median nanoseconds per operation.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub group: &'static str,
    pub name: &'static str,
    pub median_ns: u64,
}

/// Engine-counter split of the pinned study, read back from telemetry
/// (`simnet_boundaries` / `simnet_recomputes` / `simnet_solve_skips`).
#[derive(Debug, Clone, Copy)]
pub struct GateStats {
    pub boundaries: u64,
    pub full_solves: u64,
    pub incremental_solves: u64,
}

/// Times `f`, returning the median ns/op over `samples` samples of
/// `iters` iterations each (one untimed warm-up call first).
fn median_ns(samples: usize, iters: u64, mut f: impl FnMut()) -> u64 {
    f();
    let mut per_iter: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            (t0.elapsed().as_nanos() / iters as u128) as u64
        })
        .collect();
    per_iter.sort_unstable();
    per_iter[per_iter.len() / 2]
}

/// The `micro` group fixture from `crates/bench/benches/micro.rs`: 32
/// flows over 16 links, sparse incidence, a few capped flows.
fn micro_fairshare_problem() -> (Vec<f64>, Vec<AllocFlow>) {
    let caps: Vec<f64> = (0..16).map(|i| 1e5 + (i as f64) * 3e4).collect();
    let flows: Vec<AllocFlow> = (0..32)
        .map(|i| AllocFlow {
            links: vec![i % 16, (i * 7 + 3) % 16],
            cap: if i % 5 == 0 { 5e4 } else { f64::INFINITY },
        })
        .collect();
    (caps, flows)
}

fn run_micro_group(out: &mut Vec<BenchResult>) {
    let (caps, flows) = micro_fairshare_problem();
    out.push(BenchResult {
        group: "micro",
        name: "max_min_rates_32f_16l",
        median_ns: median_ns(15, 200, || {
            black_box(max_min_rates(black_box(&caps), black_box(&flows)));
        }),
    });
    out.push(BenchResult {
        group: "micro",
        name: "reference_rates_32f_16l",
        median_ns: median_ns(15, 200, || {
            black_box(reference_rates(black_box(&caps), black_box(&flows)));
        }),
    });
    out.push(BenchResult {
        group: "micro",
        name: "event_queue_push_pop_1k",
        median_ns: median_ns(15, 20, || {
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
    });
}

/// The pinned Fig 1 study — byte-for-byte the scenario
/// `tests/determinism.rs` snapshots into `tests/golden/`.
fn pinned_study(tel: Option<Arc<Telemetry>>) -> crate::runner::MeasurementData {
    let sc = build(
        42,
        &roster::CLIENTS[..4],
        &roster::INTERMEDIATES[..4],
        &roster::SERVERS[..1],
        Calibration::default(),
        false,
    );
    run_measurement_study_traced(
        &sc,
        0,
        Schedule::measurement_study().spread(8),
        SessionConfig::paper_defaults(),
        tel,
    )
}

fn run_figures_group(out: &mut Vec<BenchResult>) {
    let data = pinned_study(None);
    out.push(BenchResult {
        group: "figures",
        name: "fig1_report",
        median_ns: median_ns(9, 10, || {
            black_box(fig1::report(black_box(&data)));
        }),
    });
    out.push(BenchResult {
        group: "figures",
        name: "table1_report",
        median_ns: median_ns(9, 10, || {
            black_box(table1::report(black_box(&data)));
        }),
    });
    out.push(BenchResult {
        group: "figures",
        name: "measurement_study_pinned",
        median_ns: median_ns(3, 1, || {
            black_box(pinned_study(None));
        }),
    });
}

/// Runs the pinned study once under telemetry and reads back the
/// engine-counter split, aggregated across every `Network` the study
/// touched (clones share the registry handle).
fn gate_stats() -> GateStats {
    let tel = Arc::new(Telemetry::new());
    let data = pinned_study(Some(tel.clone()));
    assert!(
        data.all_records().count() > 0,
        "pinned study produced no records"
    );
    let snap = tel.metrics.snapshot();
    let get = |name: &str| snap.counter(name, &vec![]).unwrap_or(0);
    GateStats {
        boundaries: get("simnet_boundaries"),
        full_solves: get("simnet_recomputes"),
        incremental_solves: get("simnet_solve_skips"),
    }
}

/// Cold-vs-warm behaviour of the pinned mini sweep against a fresh
/// cache, plus byte-identity against a cacheless run.
#[derive(Debug, Clone, Copy)]
pub struct SweepStats {
    /// Artefacts in the mini plan.
    pub artefacts: u64,
    /// Studies the cold pass executed (must be < `artefacts`: the
    /// dedup the scheduler exists for).
    pub cold_studies_executed: u64,
    /// Studies the warm pass executed (must be 0).
    pub warm_studies_executed: u64,
    /// Cold-pass cache hit rate (fresh cache: 0).
    pub cold_hit_rate: f64,
    /// Warm-pass cache hit rate (must be 1).
    pub warm_hit_rate: f64,
    /// Cold-pass wall clock, milliseconds.
    pub cold_ms: u64,
    /// Warm-pass wall clock, milliseconds.
    pub warm_ms: u64,
    /// Warm artefact bundles byte-equal to a cacheless run.
    pub byte_identical: bool,
}

/// Runs the pinned mini sweep cold, warm, and cacheless in a throwaway
/// cache directory, returning the comparison.
fn sweep_stats() -> Result<SweepStats, String> {
    use crate::sweep;
    let dir = std::env::temp_dir().join(format!("ir-bench-gate-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ir_artifact::ArtifactCache::open(&dir)
        .map_err(|e| format!("cannot open gate cache at {}: {e}", dir.display()))?;
    let sweep_err = |e: std::io::Error| format!("gate sweep failed: {e}");

    let t0 = Instant::now();
    let cold =
        sweep::run_sweep(sweep::mini_plan(42), Some(&cache), None, None).map_err(sweep_err)?;
    let cold_ms = t0.elapsed().as_millis() as u64;
    let t1 = Instant::now();
    let warm =
        sweep::run_sweep(sweep::mini_plan(42), Some(&cache), None, None).map_err(sweep_err)?;
    let warm_ms = t1.elapsed().as_millis() as u64;
    let cacheless = sweep::run_sweep(sweep::mini_plan(42), None, None, None).map_err(sweep_err)?;
    let _ = std::fs::remove_dir_all(&dir);

    let byte_identical = warm.artefacts.len() == cacheless.artefacts.len()
        && warm
            .artefacts
            .iter()
            .zip(cacheless.artefacts.iter())
            .all(|(w, c)| w.output == c.output);
    Ok(SweepStats {
        artefacts: cold.artefacts.len() as u64,
        cold_studies_executed: cold.studies_executed(),
        warm_studies_executed: warm.studies_executed(),
        cold_hit_rate: cold.hit_rate(),
        warm_hit_rate: warm.hit_rate(),
        cold_ms,
        warm_ms,
        byte_identical,
    })
}

fn render_sweep_json(s: SweepStats) -> String {
    format!(
        "{{\n  \"bench\": \"BENCH_PR5\",\n  \"sweep\": {{\n    \"artefacts\": {},\n    \
         \"cold_studies_executed\": {},\n    \"warm_studies_executed\": {},\n    \
         \"cold_hit_rate\": {:.4},\n    \"warm_hit_rate\": {:.4},\n    \"cold_ms\": {},\n    \
         \"warm_ms\": {},\n    \"byte_identical\": {}\n  }},\n  \"units\": \"wall_clock_ms\"\n}}\n",
        s.artefacts,
        s.cold_studies_executed,
        s.warm_studies_executed,
        s.cold_hit_rate,
        s.warm_hit_rate,
        s.cold_ms,
        s.warm_ms,
        s.byte_identical
    )
}

/// Total probe paths the pinned quick tournament (seed 11 — the exact
/// run `tests/determinism.rs` snapshots into
/// `tests/golden/tournament_cells.csv`) asks the network to pay,
/// summed over every policy × scenario cell. A pure function of the
/// seed: timings drift with hardware, probe counts must not. Re-pin
/// only after the tournament golden has been deliberately regenerated.
pub const PINNED_TOURNAMENT_PROBE_PATHS: u64 = 750;

/// Path-plane gate numbers: per-policy decision latency, the pinned
/// probe-count canary, and the incremental-sweep proof that adding a
/// policy re-runs only that policy's study.
#[derive(Debug, Clone)]
pub struct PolicyStats {
    /// `(policy, median ns per paths() decision)` on the star scenario.
    pub decision_ns: Vec<(&'static str, u64)>,
    /// `(policy, probe paths)` in the pinned quick tournament.
    pub probe_paths: Vec<(&'static str, u64)>,
    /// Policies in the cold subset plan (the full roster minus one).
    pub subset_policies: u64,
    /// Studies the cold subset pass executed.
    pub cold_studies_executed: u64,
    /// Studies the warm full-roster pass executed; must equal the
    /// number of policies added on top of the subset (one).
    pub warm_studies_executed: u64,
}

impl PolicyStats {
    pub fn observed_probe_paths(&self) -> u64 {
        self.probe_paths.iter().map(|&(_, n)| n).sum()
    }
}

/// Times every policy's `paths()` decision, counts the pinned
/// tournament's probe paths, and runs the incremental tournament sweep
/// (cold subset, warm full roster) in a throwaway cache.
fn policy_stats() -> Result<PolicyStats, String> {
    use crate::{sweep, tournament};
    use ir_core::PathCtx;

    let sc = tournament::scenario("star", 42);
    let topo = sc.network.topology().clone();
    let mut decision_ns = Vec::new();
    for &policy in tournament::POLICIES {
        let mut sel = tournament::make_selector(policy, 42);
        let ctx = PathCtx {
            client: sc.clients[0],
            server: sc.server,
            relays: &sc.relays,
            topo: &topo,
            transfer_index: 0,
        };
        decision_ns.push((
            policy,
            median_ns(15, 50, || {
                black_box(sel.paths(black_box(&ctx)));
            }),
        ));
    }

    let cells = crate::tournament::run(11, crate::Scale::Quick);
    let probe_paths: Vec<(&'static str, u64)> = tournament::POLICIES
        .iter()
        .map(|&p| {
            let n: f64 = cells
                .iter()
                .filter(|c| c.policy == p)
                .map(|c| c.probe_paths_per_transfer * c.transfers as f64)
                .sum();
            (p, n.round() as u64)
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("ir-bench-gate-policy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ir_artifact::ArtifactCache::open(&dir)
        .map_err(|e| format!("cannot open gate cache at {}: {e}", dir.display()))?;
    let sweep_err = |e: std::io::Error| format!("gate tournament sweep failed: {e}");
    let subset = &tournament::POLICIES[..tournament::POLICIES.len() - 1];
    let cold = sweep::run_sweep(
        sweep::tournament_plan(42, crate::Scale::Quick, subset),
        Some(&cache),
        None,
        None,
    )
    .map_err(sweep_err)?;
    let warm = sweep::run_sweep(
        sweep::tournament_plan(42, crate::Scale::Quick, tournament::POLICIES),
        Some(&cache),
        None,
        None,
    )
    .map_err(sweep_err)?;
    let _ = std::fs::remove_dir_all(&dir);

    Ok(PolicyStats {
        decision_ns,
        probe_paths,
        subset_policies: subset.len() as u64,
        cold_studies_executed: cold.studies_executed(),
        warm_studies_executed: warm.studies_executed(),
    })
}

fn render_policy_json(s: &PolicyStats) -> String {
    let mut j = String::from("{\n  \"bench\": \"BENCH_PR6\",\n  \"policies\": {\n");
    for (i, (policy, ns)) in s.decision_ns.iter().enumerate() {
        let probe = s
            .probe_paths
            .iter()
            .find(|(p, _)| p == policy)
            .map_or(0, |&(_, n)| n);
        let comma = if i + 1 < s.decision_ns.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    \"{policy}\": {{ \"paths_ns\": {ns}, \"probe_paths\": {probe} }}{comma}"
        );
    }
    let _ = writeln!(
        j,
        "  }},\n  \"units\": \"median_ns_per_decision\",\n  \"incremental_sweep\": {{\n    \
         \"subset_policies\": {},\n    \"cold_studies_executed\": {},\n    \
         \"warm_studies_executed\": {}\n  }},",
        s.subset_policies, s.cold_studies_executed, s.warm_studies_executed
    );
    let _ = writeln!(
        j,
        "  \"canary\": {{\n    \"pinned_probe_paths\": {PINNED_TOURNAMENT_PROBE_PATHS},\n    \
         \"observed_probe_paths\": {}\n  }}\n}}",
        s.observed_probe_paths()
    );
    j
}

/// Boundary count of the mini megaflow geometry
/// ([`crate::megaflow::MegaflowConfig::mini`], seed 2007 — the sweep's
/// quick-scale study). A pure function of the config and seed; if it
/// moves, the engine's boundary schedule changed. Re-pin only after a
/// deliberate engine-semantics change.
pub const PINNED_MEGAFLOW_MINI_BOUNDARIES: u64 = 18;

/// Megaflow gate numbers: the engine's ns/boundary on the gate
/// geometry, the decomposition stats, and the pinned mini canary
/// observation.
#[derive(Debug, Clone, Copy)]
pub struct MegaflowStats {
    /// Concurrent transfers in the gate geometry.
    pub flows: u64,
    /// Roster size of the gate geometry.
    pub nodes: u64,
    /// Solve boundaries the gate run crossed.
    pub boundaries: u64,
    /// Sum over solves of the component count.
    pub component_solves: u64,
    /// Distinct completion instants (batched rack finishes).
    pub completion_batches: u64,
    /// Boundary count of the pinned mini geometry (the canary).
    pub mini_boundaries: u64,
    /// Median ns per boundary of the gate run.
    pub ns_per_boundary: u64,
}

/// Runs the mini canary, then times the gate geometry (`samples` timed
/// runs).
fn megaflow_stats(samples: usize) -> MegaflowStats {
    use crate::megaflow::{self, MegaflowConfig};
    use ir_simnet::sim::EngineMode;

    let mini = megaflow::run(2007, &MegaflowConfig::mini(), EngineMode::Incremental, None);
    let cfg = MegaflowConfig::gate();
    let base = megaflow::run(2007, &cfg, EngineMode::Incremental, None);
    let run_ns = median_ns(samples, 1, || {
        black_box(megaflow::run(2007, &cfg, EngineMode::Incremental, None));
    });
    MegaflowStats {
        flows: base.flows_started,
        nodes: base.nodes,
        boundaries: base.boundaries,
        component_solves: base.component_solves,
        completion_batches: base.completion_batches,
        mini_boundaries: mini.boundaries,
        ns_per_boundary: run_ns / base.boundaries.max(1),
    }
}

fn render_megaflow_json(s: &MegaflowStats) -> String {
    format!(
        "{{\n  \"bench\": \"BENCH_PR7\",\n  \"megaflow\": {{\n    \"flows\": {},\n    \
         \"nodes\": {},\n    \"boundaries\": {},\n    \"component_solves\": {},\n    \
         \"completion_batches\": {},\n    \"ns_per_boundary\": {}\n  }},\n  \
         \"units\": \"median_ns_per_boundary\",\n  \
         \"canary\": {{\n    \"pinned_megaflow_mini_boundaries\": \
         {PINNED_MEGAFLOW_MINI_BOUNDARIES},\n    \"observed_mini_boundaries\": {}\n  }}\n}}\n",
        s.flows,
        s.nodes,
        s.boundaries,
        s.component_solves,
        s.completion_batches,
        s.ns_per_boundary,
        s.mini_boundaries
    )
}

/// Soak gate numbers: accept-to-first-byte p99 and goodput for the
/// event-driven reactor vs the thread-per-connection baseline on the
/// gate geometry ([`crate::soak::SoakConfig::gate`]), plus the lost
/// transfer count summed over every run of both modes.
#[derive(Debug, Clone, Copy)]
pub struct SoakGateStats {
    /// Concurrent clients in the gate geometry.
    pub clients: u64,
    /// Timed runs per mode (median reported).
    pub samples: u64,
    /// Median-run p99 accept-to-first-byte, event reactor, µs.
    pub event_p99_us: u64,
    /// Median-run p99 accept-to-first-byte, threaded baseline, µs.
    pub threaded_p99_us: u64,
    /// Median-run goodput, event reactor, bytes/s.
    pub event_goodput_bps: u64,
    /// Median-run goodput, threaded baseline, bytes/s.
    pub threaded_goodput_bps: u64,
    /// Transfers lost across **all** runs of both modes.
    pub lost: u64,
}

impl SoakGateStats {
    /// Event-over-threaded p99 ratio (< 1 ⇒ the reactor's accept tail
    /// beats the baseline's).
    pub fn p99_ratio(&self) -> f64 {
        self.event_p99_us as f64 / self.threaded_p99_us.max(1) as f64
    }
}

/// Runs the soak gate geometry `samples` times per relay mode and
/// reports the median run (by p99 first-byte wait) of each.
fn soak_gate_stats(samples: usize) -> SoakGateStats {
    use crate::soak::{self, SoakConfig};
    use ir_relay::RelayMode;

    let cfg = SoakConfig::gate();
    let mut lost = 0u64;
    let mut median_run = |mode: RelayMode| {
        let mut runs: Vec<soak::SoakResult> =
            (0..samples.max(1)).map(|_| soak::run(&cfg, mode)).collect();
        lost += runs.iter().map(|r| r.lost).sum::<u64>();
        runs.sort_by_key(|r| r.p99_first_byte_us);
        runs.swap_remove(runs.len() / 2)
    };
    let event = median_run(RelayMode::Event {
        workers: cfg.workers as usize,
    });
    let threaded = median_run(RelayMode::Threaded);
    SoakGateStats {
        clients: cfg.clients as u64,
        samples: samples as u64,
        event_p99_us: event.p99_first_byte_us,
        threaded_p99_us: threaded.p99_first_byte_us,
        event_goodput_bps: event.goodput_bps,
        threaded_goodput_bps: threaded.goodput_bps,
        lost,
    }
}

fn render_soak_json(s: &SoakGateStats) -> String {
    format!(
        "{{\n  \"bench\": \"BENCH_PR9\",\n  \"soak\": {{\n    \"clients\": {},\n    \
         \"samples\": {},\n    \"event_p99_first_byte_us\": {},\n    \
         \"threaded_p99_first_byte_us\": {},\n    \"event_goodput_bps\": {},\n    \
         \"threaded_goodput_bps\": {},\n    \"p99_ratio\": {:.3},\n    \"lost\": {}\n  }},\n  \
         \"units\": \"median_run_p99_us\"\n}}\n",
        s.clients,
        s.samples,
        s.event_p99_us,
        s.threaded_p99_us,
        s.event_goodput_bps,
        s.threaded_goodput_bps,
        s.p99_ratio(),
        s.lost
    )
}

/// Total chunks the direct path carries across the pinned striping
/// sweep (seed 2007, Quick). A pure function of the chunk scheduler —
/// EWMA seeds, drift thresholds, claim order — so any drift here means
/// the striper's assignment sequence changed and the golden CSV is
/// suspect. Re-pin only after `tests/golden/striping_cells.csv` has
/// been deliberately regenerated.
pub const PINNED_STRIPE_DIRECT_CHUNKS: u64 = 33;

/// Striping gate numbers over the pinned sweep: penalty-tail and
/// healthy completion ratios plus the rebalancer's activity and the
/// chunk-assignment canary.
#[derive(Debug, Clone, Copy)]
pub struct StripeGateStats {
    /// Cells in the pinned sweep.
    pub cells: u64,
    /// Stale-prediction (penalty-tail) cells among them.
    pub stale_cells: u64,
    /// Worst (highest) striped/raced ratio over the stale cells —
    /// must stay < 1: striping strictly wins the penalty tail.
    pub worst_stale_ratio: f64,
    /// Best (lowest) striped/raced ratio over the stale cells.
    pub best_stale_ratio: f64,
    /// Worst striped/raced ratio over the healthy (no-fault) cells —
    /// the straggler-tail overhead bound.
    pub worst_healthy_ratio: f64,
    /// Chunk reassignments summed over the stale cells.
    pub stale_reassignments: u64,
    /// Path deaths summed over every cell.
    pub deaths: u64,
    /// Chunks the direct path carried over the whole grid (canary).
    pub direct_chunks: u64,
}

/// Runs the pinned striping sweep and folds it into gate numbers.
fn stripe_gate_stats() -> StripeGateStats {
    let cells = crate::striping::run(2007, crate::runner::Scale::Quick);
    let stale: Vec<_> = cells.iter().filter(|c| c.stale).collect();
    let healthy: Vec<_> = cells.iter().filter(|c| !c.stale).collect();
    StripeGateStats {
        cells: cells.len() as u64,
        stale_cells: stale.len() as u64,
        worst_stale_ratio: stale
            .iter()
            .map(|c| c.ratio)
            .fold(f64::NEG_INFINITY, f64::max),
        best_stale_ratio: stale.iter().map(|c| c.ratio).fold(f64::INFINITY, f64::min),
        worst_healthy_ratio: healthy
            .iter()
            .map(|c| c.ratio)
            .fold(f64::NEG_INFINITY, f64::max),
        stale_reassignments: stale.iter().map(|c| c.reassignments as u64).sum(),
        deaths: cells.iter().map(|c| c.deaths as u64).sum(),
        direct_chunks: cells.iter().map(|c| c.direct_chunks).sum(),
    }
}

fn render_stripe_json(s: &StripeGateStats) -> String {
    format!(
        "{{\n  \"bench\": \"BENCH_PR10\",\n  \"striping\": {{\n    \"cells\": {},\n    \
         \"stale_cells\": {},\n    \"worst_stale_ratio\": {:.4},\n    \
         \"best_stale_ratio\": {:.4},\n    \"worst_healthy_ratio\": {:.4},\n    \
         \"stale_reassignments\": {},\n    \"deaths\": {}\n  }},\n  \"canary\": {{\n    \
         \"pinned_direct_chunks\": {PINNED_STRIPE_DIRECT_CHUNKS},\n    \
         \"observed_direct_chunks\": {}\n  }},\n  \
         \"units\": \"striped_over_raced_completion_ratio\"\n}}\n",
        s.cells,
        s.stale_cells,
        s.worst_stale_ratio,
        s.best_stale_ratio,
        s.worst_healthy_ratio,
        s.stale_reassignments,
        s.deaths,
        s.direct_chunks
    )
}

fn render_json(results: &[BenchResult], stats: GateStats) -> String {
    let mut s = String::from("{\n  \"bench\": \"BENCH_PR4\",\n  \"groups\": {\n");
    for (gi, group) in ["micro", "figures"].iter().enumerate() {
        let _ = writeln!(s, "    \"{group}\": {{");
        let members: Vec<&BenchResult> = results.iter().filter(|r| r.group == *group).collect();
        for (i, r) in members.iter().enumerate() {
            let comma = if i + 1 < members.len() { "," } else { "" };
            let _ = writeln!(s, "      \"{}\": {}{comma}", r.name, r.median_ns);
        }
        let comma = if gi == 0 { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(
        s,
        "  }},\n  \"units\": \"median_ns_per_op\",\n  \"engine_stats\": {{\n    \
         \"boundaries\": {},\n    \"full_solves\": {},\n    \"incremental_solves\": {}\n  }},",
        stats.boundaries, stats.full_solves, stats.incremental_solves
    );
    let _ = writeln!(
        s,
        "  \"canary\": {{\n    \"pinned_fig1_boundaries\": {PINNED_FIG1_BOUNDARIES},\n    \
         \"observed_boundaries\": {}\n  }}\n}}",
        stats.boundaries
    );
    s
}

/// Runs the full gate and writes `out` (normally `BENCH_PR4.json`).
/// Returns `Err` with a diagnostic when a gate condition fails — the
/// JSON is still written first so the failing run's numbers are
/// inspectable.
pub fn run(out: &Path) -> Result<GateStats, String> {
    eprintln!("bench-gate: timing micro group...");
    let mut results = Vec::new();
    run_micro_group(&mut results);
    eprintln!("bench-gate: timing figures group...");
    run_figures_group(&mut results);
    eprintln!("bench-gate: collecting engine stats on the pinned Fig 1 study...");
    let stats = gate_stats();

    let json = render_json(&results, stats);
    std::fs::write(out, &json).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    for r in &results {
        eprintln!(
            "bench-gate: {:>8} ns/op  {}/{}",
            r.median_ns, r.group, r.name
        );
    }
    eprintln!(
        "bench-gate: boundaries {} full_solves {} incremental_solves {}",
        stats.boundaries, stats.full_solves, stats.incremental_solves
    );
    eprintln!("bench-gate: wrote {}", out.display());

    eprintln!("bench-gate: timing the pinned mini sweep cold vs warm...");
    let sweep = sweep_stats()?;
    let out5 = out.with_file_name("BENCH_PR5.json");
    std::fs::write(&out5, render_sweep_json(sweep))
        .map_err(|e| format!("cannot write {}: {e}", out5.display()))?;
    eprintln!(
        "bench-gate: sweep cold {}ms (hit rate {:.0}%) warm {}ms (hit rate {:.0}%), \
         {}/{} studies executed warm/cold",
        sweep.cold_ms,
        sweep.cold_hit_rate * 100.0,
        sweep.warm_ms,
        sweep.warm_hit_rate * 100.0,
        sweep.warm_studies_executed,
        sweep.cold_studies_executed,
    );
    eprintln!("bench-gate: wrote {}", out5.display());

    eprintln!("bench-gate: timing policy decisions and the incremental tournament sweep...");
    let policy = policy_stats()?;
    let out6 = out.with_file_name("BENCH_PR6.json");
    std::fs::write(&out6, render_policy_json(&policy))
        .map_err(|e| format!("cannot write {}: {e}", out6.display()))?;
    for (p, ns) in &policy.decision_ns {
        eprintln!("bench-gate: {ns:>8} ns/decision  policy/{p}");
    }
    eprintln!(
        "bench-gate: tournament probe paths {} (pinned {}), warm roster-grow pass executed \
         {} studies over a {}-study cold subset",
        policy.observed_probe_paths(),
        PINNED_TOURNAMENT_PROBE_PATHS,
        policy.warm_studies_executed,
        policy.cold_studies_executed,
    );
    eprintln!("bench-gate: wrote {}", out6.display());

    eprintln!("bench-gate: timing the megaflow gate geometry...");
    let mega = megaflow_stats(5);
    let out7 = out.with_file_name("BENCH_PR7.json");
    std::fs::write(&out7, render_megaflow_json(&mega))
        .map_err(|e| format!("cannot write {}: {e}", out7.display()))?;
    eprintln!(
        "bench-gate: megaflow {} flows / {} boundaries — {} ns/boundary",
        mega.flows, mega.boundaries, mega.ns_per_boundary,
    );
    eprintln!("bench-gate: wrote {}", out7.display());

    eprintln!("bench-gate: soaking the relay, event reactor vs threaded baseline...");
    let soak = soak_gate_stats(3);
    let out9 = out.with_file_name("BENCH_PR9.json");
    std::fs::write(&out9, render_soak_json(&soak))
        .map_err(|e| format!("cannot write {}: {e}", out9.display()))?;
    eprintln!(
        "bench-gate: soak {} clients — p99 first byte {}µs event vs {}µs threaded \
         (ratio {:.2}), goodput {} vs {} B/s, {} lost",
        soak.clients,
        soak.event_p99_us,
        soak.threaded_p99_us,
        soak.p99_ratio(),
        soak.event_goodput_bps,
        soak.threaded_goodput_bps,
        soak.lost,
    );
    eprintln!("bench-gate: wrote {}", out9.display());

    eprintln!("bench-gate: running the pinned striping sweep, striped vs raced...");
    let stripe = stripe_gate_stats();
    let out10 = out.with_file_name("BENCH_PR10.json");
    std::fs::write(&out10, render_stripe_json(&stripe))
        .map_err(|e| format!("cannot write {}: {e}", out10.display()))?;
    eprintln!(
        "bench-gate: striping {} cells ({} stale) — stale ratio worst {:.3} best {:.3}, \
         healthy worst {:.3}, {} stale reassignments, direct chunks {} (pinned {})",
        stripe.cells,
        stripe.stale_cells,
        stripe.worst_stale_ratio,
        stripe.best_stale_ratio,
        stripe.worst_healthy_ratio,
        stripe.stale_reassignments,
        stripe.direct_chunks,
        PINNED_STRIPE_DIRECT_CHUNKS,
    );
    eprintln!("bench-gate: wrote {}", out10.display());

    if stats.boundaries != PINNED_FIG1_BOUNDARIES {
        return Err(format!(
            "determinism canary: pinned Fig 1 study ran {} boundaries, expected {} — \
             the boundary schedule moved; investigate before re-pinning",
            stats.boundaries, PINNED_FIG1_BOUNDARIES
        ));
    }
    if stats.full_solves >= stats.boundaries {
        return Err(format!(
            "incremental engine never skipped a solve: {} full solves over {} boundaries",
            stats.full_solves, stats.boundaries
        ));
    }
    if sweep.cold_studies_executed >= sweep.artefacts {
        return Err(format!(
            "sweep dedup broken: cold pass executed {} studies for {} artefacts",
            sweep.cold_studies_executed, sweep.artefacts
        ));
    }
    if sweep.warm_studies_executed != 0 || sweep.warm_hit_rate < 1.0 {
        return Err(format!(
            "warm sweep not fully served from cache: {} studies executed, hit rate {:.2}",
            sweep.warm_studies_executed, sweep.warm_hit_rate
        ));
    }
    if !sweep.byte_identical {
        return Err("warm sweep artefact bytes diverge from a cacheless run".into());
    }
    if policy.observed_probe_paths() != PINNED_TOURNAMENT_PROBE_PATHS {
        return Err(format!(
            "probe-count canary: pinned tournament probed {} paths, expected {} — a policy's \
             decision sequence moved; investigate before re-pinning",
            policy.observed_probe_paths(),
            PINNED_TOURNAMENT_PROBE_PATHS
        ));
    }
    if policy.cold_studies_executed != policy.subset_policies {
        return Err(format!(
            "tournament cold subset executed {} studies for {} policies",
            policy.cold_studies_executed, policy.subset_policies
        ));
    }
    let added = crate::tournament::POLICIES.len() as u64 - policy.subset_policies;
    if policy.warm_studies_executed != added {
        return Err(format!(
            "adding {added} policy re-ran {} tournament studies — per-policy fingerprints no \
             longer isolate the roster",
            policy.warm_studies_executed
        ));
    }
    if mega.mini_boundaries != PINNED_MEGAFLOW_MINI_BOUNDARIES {
        return Err(format!(
            "megaflow canary: mini geometry ran {} boundaries, expected {} — the engine's \
             boundary schedule moved; investigate before re-pinning",
            mega.mini_boundaries, PINNED_MEGAFLOW_MINI_BOUNDARIES
        ));
    }
    if soak.lost != 0 {
        return Err(format!(
            "soak gate lost {} transfers across {} runs of {} clients — the relay dropped \
             connections under load",
            soak.lost,
            soak.samples * 2,
            soak.clients
        ));
    }
    if soak.event_p99_us == 0 || soak.threaded_p99_us == 0 {
        return Err(format!(
            "soak gate recorded no first-byte spans (event {}µs, threaded {}µs) — the relay's \
             accept timing instrumentation went dark",
            soak.event_p99_us, soak.threaded_p99_us
        ));
    }
    // The reactor's accept tail must stay within 2× of the baseline's
    // (plus 5 ms of scheduler slack: at gate scale both tails are a
    // few ms, and one preemption on a loaded box should not fail CI).
    if soak.event_p99_us > 2 * soak.threaded_p99_us + 5_000 {
        return Err(format!(
            "event-driven relay's p99 accept-to-first-byte regressed past the threaded \
             baseline: {}µs vs {}µs (ratio {:.2}, allowed 2.0× + 5ms)",
            soak.event_p99_us,
            soak.threaded_p99_us,
            soak.p99_ratio()
        ));
    }
    if stripe.worst_stale_ratio >= 1.0 {
        return Err(format!(
            "striping lost a penalty-tail cell: worst stale striped/raced ratio {:.3} — the \
             rebalancer no longer beats the stale single-path prediction",
            stripe.worst_stale_ratio
        ));
    }
    if stripe.worst_healthy_ratio > 1.1 {
        return Err(format!(
            "striping overhead on healthy cells regressed: worst ratio {:.3} (allowed 1.10) — \
             the straggler tail outgrew its budget",
            stripe.worst_healthy_ratio
        ));
    }
    if stripe.stale_reassignments == 0 {
        return Err(
            "no stale cell engaged the rebalancer — stale wins are coming from somewhere else; \
             the drift/stall machinery went dark"
                .into(),
        );
    }
    if stripe.direct_chunks != PINNED_STRIPE_DIRECT_CHUNKS {
        return Err(format!(
            "chunk-assignment canary: pinned striping sweep gave the direct path {} chunks, \
             expected {} — the scheduler's assignment sequence moved; investigate before \
             re-pinning",
            stripe.direct_chunks, PINNED_STRIPE_DIRECT_CHUNKS
        ));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canary itself, as a test: the pinned study's boundary count
    /// is a pure function of the seed and must match the constant the
    /// gate enforces, and the incremental engine must be doing fewer
    /// full solves than boundary steps on it.
    #[test]
    fn pinned_study_boundary_count_and_solve_split() {
        let stats = gate_stats();
        assert_eq!(stats.boundaries, PINNED_FIG1_BOUNDARIES);
        assert!(
            stats.full_solves < stats.boundaries,
            "no solve ever skipped: {stats:?}"
        );
        // Idle boundaries (no active flows) neither solve nor skip, so
        // the split never exceeds the boundary count.
        assert!(stats.full_solves + stats.incremental_solves <= stats.boundaries);
    }

    /// The PR5 gate conditions, as a test: the cold mini sweep dedups
    /// its shared study, the warm pass is 100% cache-served with zero
    /// study executions, and warm bytes match a cacheless run.
    #[test]
    fn sweep_gate_conditions_hold() {
        let s = sweep_stats().unwrap();
        assert!(s.cold_studies_executed < s.artefacts, "{s:?}");
        assert_eq!(s.warm_studies_executed, 0, "{s:?}");
        assert!((s.warm_hit_rate - 1.0).abs() < 1e-9, "{s:?}");
        assert!(s.byte_identical, "{s:?}");
        let j = render_sweep_json(s);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"warm_hit_rate\": 1.0000"), "{j}");
    }

    /// The PR6 gate conditions, as a test: the pinned tournament's
    /// probe count matches the canary, the cold subset sweep executes
    /// one study per policy, and growing the roster by one policy
    /// executes exactly one warm study.
    #[test]
    fn policy_gate_conditions_hold() {
        let s = policy_stats().unwrap();
        assert_eq!(
            s.observed_probe_paths(),
            PINNED_TOURNAMENT_PROBE_PATHS,
            "{s:?}"
        );
        assert_eq!(s.cold_studies_executed, s.subset_policies, "{s:?}");
        let added = crate::tournament::POLICIES.len() as u64 - s.subset_policies;
        assert_eq!(s.warm_studies_executed, added, "{s:?}");
        assert_eq!(s.decision_ns.len(), crate::tournament::POLICIES.len());
        let j = render_policy_json(&s);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"k-shortest\""), "{j}");
        assert!(j.contains("\"pinned_probe_paths\": 750"), "{j}");
    }

    /// The PR7 canary, as a test: the mini megaflow geometry's boundary
    /// count matches the pinned constant.
    #[test]
    fn megaflow_gate_canary_holds() {
        use crate::megaflow::{self, MegaflowConfig};
        use ir_simnet::sim::EngineMode;
        let mini = megaflow::run(2007, &MegaflowConfig::mini(), EngineMode::Incremental, None);
        assert_eq!(mini.boundaries, PINNED_MEGAFLOW_MINI_BOUNDARIES);
        assert_eq!(mini.flows_completed, MegaflowConfig::mini().total_flows());
    }

    #[test]
    fn megaflow_json_is_well_formed_enough() {
        let s = MegaflowStats {
            flows: 51_200,
            nodes: 2_113,
            boundaries: 130,
            component_solves: 4_000,
            completion_batches: 64,
            mini_boundaries: PINNED_MEGAFLOW_MINI_BOUNDARIES,
            ns_per_boundary: 500_000,
        };
        let j = render_megaflow_json(&s);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"ns_per_boundary\": 500000"), "{j}");
        assert!(j.contains("\"pinned_megaflow_mini_boundaries\""), "{j}");
    }

    /// The PR9 gate arithmetic and JSON, on synthetic numbers (a real
    /// soak run is timed in release by the gate itself; the structural
    /// run lives in `crate::soak`'s tests).
    #[test]
    fn soak_json_is_well_formed_enough() {
        let s = SoakGateStats {
            clients: 64,
            samples: 3,
            event_p99_us: 4_200,
            threaded_p99_us: 2_100,
            event_goodput_bps: 1_500_000,
            threaded_goodput_bps: 1_400_000,
            lost: 0,
        };
        assert!((s.p99_ratio() - 2.0).abs() < 1e-9);
        // Exactly at the allowed envelope: 2× + 5ms slack admits it.
        assert!(s.event_p99_us <= 2 * s.threaded_p99_us + 5_000);
        let j = render_soak_json(&s);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"bench\": \"BENCH_PR9\""), "{j}");
        assert!(j.contains("\"p99_ratio\": 2.000"), "{j}");
        assert!(j.contains("\"lost\": 0"), "{j}");
    }

    /// The PR10 gate conditions, on the real pinned sweep (it is pure
    /// simulation, cheap enough to run in debug): the penalty tail is
    /// a strict striping win, healthy overhead stays in band, the
    /// rebalancer engages, and the chunk-assignment canary holds.
    #[test]
    fn stripe_gate_conditions_hold() {
        let s = stripe_gate_stats();
        assert_eq!(s.cells, 12);
        assert_eq!(s.stale_cells, 4);
        assert!(s.worst_stale_ratio < 1.0, "{s:?}");
        assert!(s.worst_healthy_ratio <= 1.1, "{s:?}");
        assert!(s.stale_reassignments > 0, "{s:?}");
        assert_eq!(s.direct_chunks, PINNED_STRIPE_DIRECT_CHUNKS, "{s:?}");
    }

    #[test]
    fn stripe_json_is_well_formed_enough() {
        let s = StripeGateStats {
            cells: 12,
            stale_cells: 4,
            worst_stale_ratio: 0.306,
            best_stale_ratio: 0.040,
            worst_healthy_ratio: 0.963,
            stale_reassignments: 6,
            deaths: 0,
            direct_chunks: PINNED_STRIPE_DIRECT_CHUNKS,
        };
        let j = render_stripe_json(&s);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"bench\": \"BENCH_PR10\""), "{j}");
        assert!(j.contains("\"worst_stale_ratio\": 0.3060"), "{j}");
        assert!(j.contains("\"pinned_direct_chunks\""), "{j}");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let results = vec![
            BenchResult {
                group: "micro",
                name: "a",
                median_ns: 1,
            },
            BenchResult {
                group: "figures",
                name: "b",
                median_ns: 2,
            },
        ];
        let stats = GateStats {
            boundaries: 10,
            full_solves: 6,
            incremental_solves: 3,
        };
        let j = render_json(&results, stats);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"max_min_rates") || j.contains("\"a\": 1"));
        assert!(j.contains("\"boundaries\": 10"));
        assert!(j.contains("\"pinned_fig1_boundaries\""));
    }
}
