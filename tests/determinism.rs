//! Integration: everything is a pure function of its seed.

use indirect_routing::core::{EngineMode, SessionConfig};
use indirect_routing::experiments::runner;
use indirect_routing::experiments::{fig1, table1};
use indirect_routing::workload;
use ir_telemetry::{Snapshot, Telemetry};
use std::sync::Arc;

fn records_digest(data: &runner::MeasurementData) -> Vec<(u64, u64, bool)> {
    data.all_records()
        .map(|r| {
            (
                r.direct_throughput.to_bits(),
                r.selected_throughput.to_bits(),
                r.chose_indirect(),
            )
        })
        .collect()
}

/// Compares each `(file, bytes)` with `tests/golden/<file>`, or
/// rewrites the goldens when `UPDATE_GOLDEN` is set.
#[expect(
    clippy::disallowed_methods,
    reason = "UPDATE_GOLDEN opt-in rewrites goldens locally; the comparison path reads no environment"
)]
fn assert_golden(artefacts: &[(&str, &String)]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        for (name, bytes) in artefacts {
            let path = dir.join(name);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, bytes).unwrap();
        }
        return;
    }
    for (name, bytes) in artefacts {
        let golden = std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
        assert_eq!(&&golden, bytes, "{name} diverged from the golden snapshot");
    }
}

/// The 4 × 4 × 1 study every test here runs, optionally under a
/// telemetry handle.
fn run_traced(
    seed: u64,
    engine: EngineMode,
    tel: Option<Arc<Telemetry>>,
) -> runner::MeasurementData {
    let sc = workload::build(
        seed,
        &workload::roster::CLIENTS[..4],
        &workload::roster::INTERMEDIATES[..4],
        &workload::roster::SERVERS[..1],
        workload::Calibration::default(),
        false,
    );
    let mut cfg = SessionConfig::paper_defaults();
    cfg.engine = engine;
    runner::run_measurement_study_traced(
        &sc,
        0,
        workload::Schedule::measurement_study().spread(8),
        cfg,
        tel,
    )
}

fn run(seed: u64) -> runner::MeasurementData {
    run_traced(seed, EngineMode::default(), None)
}

#[test]
fn same_seed_bitwise_identical_despite_parallelism() {
    // The study runner is multi-threaded; results must not depend on
    // scheduling.
    let a = records_digest(&run(42));
    let b = records_digest(&run(42));
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ() {
    let a = records_digest(&run(42));
    let b = records_digest(&run(43));
    assert_ne!(a, b);
}

#[test]
fn scenario_profiles_are_seed_deterministic() {
    let a = workload::planetlab_study(7);
    let b = workload::planetlab_study(7);
    assert_eq!(a.profiles, b.profiles);
    assert_eq!(a.relay_quality, b.relay_quality);
}

/// Golden-artefact snapshot: the Fig 1 / Table I CSV series of the
/// standard (reduced) study, byte-exact.
///
/// The goldens under `tests/golden/` were captured from the engine
/// *before* the incremental fair-share optimization; this test is the
/// proof that the fast engine reproduces the paper artefacts to the
/// byte. Regenerate deliberately with
/// `UPDATE_GOLDEN=1 cargo test --test determinism golden` after a
/// change that is *supposed* to move the numbers.
#[test]
fn golden_fig1_table1_csv_bytes_unchanged() {
    let data = run(42);
    let artefacts = [
        ("fig1_histogram.csv", &fig1::report(&data).csv[0].1),
        ("table1_penalties.csv", &table1::report(&data).csv[0].1),
    ];
    assert_golden(&artefacts);
}

/// Golden-artefact snapshot: the faults artefact's cells CSV, byte-
/// exact at the quick scale the module's own tests pin (seed 11).
///
/// The fault plane stacks every layer of the stack — fault plan
/// generation, failover sessions, availability accounting — so a
/// byte-stable CSV here is the broadest single determinism check the
/// suite has. Regenerate deliberately with
/// `UPDATE_GOLDEN=1 cargo test --test determinism golden` after a
/// change that is *supposed* to move the numbers.
#[test]
fn golden_faults_csv_bytes_unchanged() {
    use indirect_routing::experiments::faults;
    let report = faults::report_of(&faults::run(11, runner::Scale::Quick));
    let artefacts = [("faults_cells.csv", &report.csv[0].1)];
    assert_golden(&artefacts);
}

/// Golden-artefact snapshot: the tournament artefact's cells CSV,
/// byte-exact at quick scale (seed 11, matching the faults golden).
///
/// The tournament stacks the whole new path plane — k-shortest chain
/// enumeration, adaptive/backpressure state, the selector session
/// driver, probe-overhead telemetry — on top of the probe race, so a
/// byte-stable CSV here pins every policy at once. Regenerate
/// deliberately with `UPDATE_GOLDEN=1 cargo test --test determinism
/// golden` after a change that is *supposed* to move the numbers.
#[test]
fn golden_tournament_csv_bytes_unchanged() {
    use indirect_routing::experiments::tournament;
    let report = tournament::report_of(&tournament::run(11, runner::Scale::Quick));
    let artefacts = [("tournament_cells.csv", &report.csv[0].1)];
    assert_golden(&artefacts);
}

/// Golden-artefact snapshot: the striping artefact's cells CSV,
/// byte-exact at quick scale (seed 11, matching the faults golden).
///
/// The striping sweep stacks the chunk scheduler — EWMA rate seeds,
/// drift-steal and stall-death rebalancing, best-k stripe sets from
/// the policy plane — on top of raced baselines, so a byte-stable CSV
/// here pins the whole striped session protocol. CI re-renders this
/// CSV at `--threads` 1, 2 and 4 and diffs against this file.
/// Regenerate deliberately with `UPDATE_GOLDEN=1 cargo test --test
/// determinism golden` after a change that is *supposed* to move the
/// numbers.
#[test]
fn golden_striping_csv_bytes_unchanged() {
    use indirect_routing::experiments::striping;
    let report = striping::report_of(&striping::run(11, runner::Scale::Quick));
    let artefacts = [("striping_cells.csv", &report.csv[0].1)];
    assert_golden(&artefacts);
}

/// Boundary count of the pinned Fig 1 study (seed 42, 4 clients × 4
/// relays × 1 server, spread 8 — the study the goldens above
/// snapshot). A pure function of the seed: timings drift with
/// hardware, boundary counts must not. If it moves, the engine's
/// boundary schedule changed and the golden artefacts are suspect;
/// re-pin only after `tests/golden/` has been deliberately regenerated.
const PINNED_FIG1_BOUNDARIES: u64 = 6_054;

/// The pinned Fig 1 study (`run(42)`) under `engine`, with the engine
/// counters it left in telemetry (aggregated across every `Network`
/// the study touched — clones share the registry handle).
fn pinned_study_traced(engine: EngineMode) -> (runner::MeasurementData, Snapshot) {
    let tel = Arc::new(Telemetry::new());
    let data = run_traced(42, engine, Some(tel.clone()));
    (data, tel.metrics.snapshot())
}

/// The determinism canary and the incremental engine's pay-off: the
/// pinned study crosses exactly the pinned number of boundaries and
/// does fewer full solves than boundary steps on it.
#[test]
fn pinned_fig1_study_boundary_count_and_solve_split() {
    let (data, snap) = pinned_study_traced(EngineMode::Incremental);
    assert!(data.all_records().count() > 0, "pinned study is empty");
    let get = |name: &str| snap.counter(name, &vec![]).unwrap_or(0);
    let boundaries = get("simnet_boundaries");
    let full_solves = get("simnet_recomputes");
    let incremental_solves = get("simnet_solve_skips");
    assert_eq!(boundaries, PINNED_FIG1_BOUNDARIES);
    assert!(
        full_solves < boundaries,
        "no solve ever skipped: {full_solves} full solves over {boundaries} boundaries"
    );
    // Idle boundaries (no active flows) neither solve nor skip, so
    // the split never exceeds the boundary count.
    assert!(full_solves + incremental_solves <= boundaries);
}

/// The engine mode is an execution knob, never a semantic one: the
/// pinned seed-42 Fig 1 study must render byte-identical Fig 1 /
/// Table I CSVs under the reference engine and the incremental one
/// (whose bytes the golden test above pins), and both runs must hit the
/// pinned boundary-count canary.
#[test]
fn reference_engine_never_moves_study_bytes() {
    let study = |engine: EngineMode| {
        let (data, snap) = pinned_study_traced(engine);
        (
            fig1::report(&data).csv[0].1.clone(),
            table1::report(&data).csv[0].1.clone(),
            snap.counter("simnet_boundaries", &vec![]).unwrap_or(0),
        )
    };

    let base = study(EngineMode::Incremental);
    assert_eq!(
        base.2, PINNED_FIG1_BOUNDARIES,
        "incremental run missed the pinned boundary canary"
    );
    let reference = study(EngineMode::Reference);
    assert_eq!(reference.0, base.0, "fig1 CSV bytes moved under Reference");
    assert_eq!(
        reference.1, base.1,
        "table1 CSV bytes moved under Reference"
    );
    assert_eq!(reference.2, base.2, "boundary canary moved under Reference");
}

/// Boundaries the engine steps in the traced quick sweep below, summed
/// over every network of every study (the count `experiments sweep
/// --scale quick --seed 2007 --metrics` reports as `simnet_boundaries`).
/// A pure function of the seed, like [`PINNED_FIG1_BOUNDARIES`]; it
/// moves only with the engine's boundary schedule.
const PINNED_QUICK_SWEEP_BOUNDARIES: u64 = 1_777_099;

/// Runs `full_plan(2007, scale)` cacheless and traced, compares its 17
/// CSVs with `tests/golden/<subdir>/` (see [`assert_golden`]), and
/// returns the run's `simnet_boundaries` count.
fn assert_sweep_golden(scale: runner::Scale, subdir: &str) -> Option<u64> {
    sweep_golden(scale, subdir).counter("simnet_boundaries", &vec![])
}

/// [`assert_sweep_golden`], returning the run's whole metrics snapshot.
fn sweep_golden(scale: runner::Scale, subdir: &str) -> Snapshot {
    use indirect_routing::experiments::sweep;
    let tel = Arc::new(Telemetry::new());
    let plan = sweep::full_plan(2007, scale, None, None, Some(tel.clone()));
    let report = sweep::run_sweep(plan, None, None, Some(&tel)).unwrap();
    let files: Vec<(String, String)> = report
        .artefacts
        .iter()
        .flat_map(|a| a.output.files.iter())
        .map(|(name, bytes)| {
            (
                format!("{subdir}/{name}"),
                String::from_utf8(bytes.clone()).unwrap(),
            )
        })
        .collect();
    assert_eq!(files.len(), 17, "the {scale:?} sweep writes 17 CSVs");
    let artefacts: Vec<(&str, &String)> = files.iter().map(|(n, b)| (n.as_str(), b)).collect();
    assert_golden(&artefacts);
    tel.metrics.snapshot()
}

/// Golden-artefact snapshot of the whole quick sweep: every CSV that
/// `experiments sweep --scale quick --seed 2007` writes, byte-exact,
/// from one cacheless traced run of `full_plan`, plus its boundary
/// count. Regenerate deliberately with `UPDATE_GOLDEN=1 cargo test
/// --test determinism golden` after a change that is *supposed* to move
/// the numbers.
#[test]
fn golden_quick_sweep_csv_bytes_unchanged() {
    let boundaries = assert_sweep_golden(runner::Scale::Quick, "sweep");
    assert_eq!(boundaries, Some(PINNED_QUICK_SWEEP_BOUNDARIES));
}

/// Every series of the quick sweep's metrics, as `experiments sweep
/// --scale quick --seed 2007 --metrics` prints them under `==
/// telemetry ==`. Each study task folds its counts in once; the golden
/// was taken while every layer still counted per event, so it holds
/// the fold to those exact counts. It sits beside the `sweep/` CSV
/// goldens, not in them: CI diffs that directory against the CLI's
/// CSVs.
#[test]
fn golden_quick_sweep_metrics_unchanged() {
    let snap = sweep_golden(runner::Scale::Quick, "sweep");
    assert_eq!(
        snap.counter("simnet_boundaries", &vec![]),
        Some(PINNED_QUICK_SWEEP_BOUNDARIES)
    );
    assert_golden(&[("sweep-metrics.txt", &snap.render_text())]);
}

/// Golden-artefact snapshot of the paper-scale sweep: every CSV of
/// `experiments sweep --scale paper --seed 2007`, byte-exact, at one
/// worker thread and then at two (the study runner's parallel map must
/// not move a byte). Several seconds even in release, so debug builds
/// skip it; `cargo test --release --test determinism` runs it, and
/// `UPDATE_GOLDEN=1` with the same command regenerates
/// `tests/golden/sweep-paper/`.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper scale: release only")]
fn golden_paper_sweep_csv_bytes_unchanged() {
    for threads in [1, 2] {
        runner::set_worker_threads(threads);
        assert_sweep_golden(runner::Scale::Paper, "sweep-paper");
    }
    runner::set_worker_threads(0);
}

/// 64-bit FNV-1a of the quick seed-2007 default measurement study's
/// encoding followed by the selection study's: the `study_digest` the
/// benchmark reports. It moves only when a study's output or its cache
/// encoding does.
const PINNED_STUDY_DIGEST: u64 = 0x4aab_7475_c887_8042;

#[test]
fn study_digest_is_pinned() {
    use indirect_routing::experiments::{self as ex, codec};
    let m = ex::measurement_study_default(2007, runner::Scale::Quick);
    let s = ex::selection_study_default(2007, runner::Scale::Quick, runner::FIG6_KS);
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for bytes in [codec::encode_measurement(&m), codec::encode_selection(&s)] {
        for b in bytes {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(digest, PINNED_STUDY_DIGEST, "study_digest {digest:016x}");
}

#[test]
fn selection_study_deterministic() {
    let mk = || {
        let sc = workload::selection_study(9);
        let data = runner::run_selection_study(
            &sc,
            &[1, 3],
            workload::Schedule::selection_study().spread(10),
            SessionConfig::paper_defaults(),
            9,
        );
        data.runs
            .iter()
            .flat_map(|r| r.records.iter())
            .map(|r| (r.selected_throughput.to_bits(), r.candidates.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(mk(), mk());
}
