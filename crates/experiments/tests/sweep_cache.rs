//! End-to-end acceptance for the dependency-aware sweep scheduler and
//! the content-addressed artefact cache:
//!
//! * a cold sweep followed by a warm sweep serves 100% of studies and
//!   artefacts from cache, and the warm artefact *files on disk* are
//!   byte-identical to a cacheless run's;
//! * shared-study dedup is observable through the telemetry counters
//!   (`sweep_studies_executed` < `sweep_artefacts`);
//! * a tampered cache entry is detected and recomputed, never trusted;
//! * growing the tournament's policy roster against a warm cache
//!   executes exactly the added policy's study;
//! * a `--cal` override against a warm default cache re-runs exactly
//!   the measurement study and re-renders exactly its nine artefacts.

use ir_artifact::ArtifactCache;
use ir_experiments::sweep::{full_plan, mini_plan, run_sweep, tournament_plan};
use ir_experiments::{tournament, Scale};
use ir_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A fresh scratch directory, unique per (process, label).
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ir-sweep-{}-{}", label, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reads every regular file in `dir` into a name → bytes map.
fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            out.insert(
                entry.file_name().into_string().unwrap(),
                std::fs::read(entry.path()).unwrap(),
            );
        }
    }
    out
}

const SEED: u64 = 11;

#[test]
fn warm_sweep_is_fully_cached_and_byte_identical_to_cacheless() {
    let cache_dir = scratch("cache");
    let cold_out = scratch("cold");
    let warm_out = scratch("warm");
    let plain_out = scratch("plain");
    let cache = ArtifactCache::open(&cache_dir).unwrap();

    // Cold pass: everything misses, every study and artefact is stored.
    let cold_tel = Arc::new(Telemetry::new());
    let cold = run_sweep(
        mini_plan(SEED),
        Some(&cache),
        Some(&cold_out),
        Some(&cold_tel),
    )
    .unwrap();
    assert_eq!(cold.cache_hits, 0);
    assert!(cold.cache_stores > 0);
    // (The mini plan's paper-band checks are not asserted: at 4×4×1
    // quick scale they legitimately miss the bands. Byte-identity and
    // cache behaviour are what this test owns.)
    assert!(cold.artefacts.iter().all(|a| !a.output.text.is_empty()));

    // Shared-study dedup, observable through telemetry: the mini plan
    // has two artefacts on one study, so strictly fewer study
    // executions than artefacts.
    let snap = cold_tel.metrics.snapshot();
    let counter = |name: &str| snap.counter(name, &vec![]).unwrap_or(0);
    assert!(
        counter("sweep_studies_executed") < counter("sweep_artefacts"),
        "dedup not observable: {} studies executed for {} artefacts",
        counter("sweep_studies_executed"),
        counter("sweep_artefacts"),
    );
    assert_eq!(counter("artifact_cache_hits"), 0);
    assert_eq!(counter("artifact_cache_stores"), cold.cache_stores);

    // Warm pass: 100% served from cache, zero study executions.
    let warm_tel = Arc::new(Telemetry::new());
    let warm = run_sweep(
        mini_plan(SEED),
        Some(&cache),
        Some(&warm_out),
        Some(&warm_tel),
    )
    .unwrap();
    assert_eq!(warm.studies_executed(), 0, "warm pass ran a study");
    assert_eq!(warm.artefact_hits(), warm.artefacts.len() as u64);
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(warm.cache_corrupt, 0);
    assert!((warm.hit_rate() - 1.0).abs() < 1e-12, "{}", warm.hit_rate());
    let warm_snap = warm_tel.metrics.snapshot();
    assert_eq!(
        warm_snap.counter("sweep_studies_executed", &vec![]),
        Some(0)
    );

    // Cacheless baseline.
    let plain = run_sweep(mini_plan(SEED), None, Some(&plain_out), None).unwrap();
    assert_eq!(
        plain.cache_hits + plain.cache_misses + plain.cache_stores,
        0
    );

    // The warm pass's files on disk are byte-identical to both the
    // cold pass's and the cacheless run's.
    let cold_files = dir_files(&cold_out);
    let warm_files = dir_files(&warm_out);
    let plain_files = dir_files(&plain_out);
    assert!(!warm_files.is_empty());
    assert_eq!(warm_files, plain_files, "warm files diverge from cacheless");
    assert_eq!(warm_files, cold_files, "warm files diverge from cold");

    for dir in [&cache_dir, &cold_out, &warm_out, &plain_out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn tampered_cache_entries_are_recomputed_not_trusted() {
    let cache_dir = scratch("tamper");
    let cache = ArtifactCache::open(&cache_dir).unwrap();
    let cold = run_sweep(mini_plan(SEED), Some(&cache), None, None).unwrap();

    // Flip one payload byte in every stored entry and truncate one.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&cache_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), cold.cache_stores as usize);
    for path in &entries {
        let mut bytes = std::fs::read(path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(path, &bytes).unwrap();
    }
    let truncated = &entries[0];
    let bytes = std::fs::read(truncated).unwrap();
    std::fs::write(truncated, &bytes[..bytes.len() / 2]).unwrap();

    // The re-run must detect every corruption, recompute, and still
    // produce the exact same artefact bundles as an honest run.
    let rerun = run_sweep(mini_plan(SEED), Some(&cache), None, None).unwrap();
    assert_eq!(rerun.cache_hits, 0);
    assert_eq!(rerun.cache_corrupt, entries.len() as u64);
    let honest = run_sweep(mini_plan(SEED), None, None, None).unwrap();
    for (r, h) in rerun.artefacts.iter().zip(honest.artefacts.iter()) {
        assert_eq!(r.output, h.output, "tampered rerun diverges for {}", r.name);
    }

    // And the repaired cache serves a clean warm pass again.
    let warm = run_sweep(mini_plan(SEED), Some(&cache), None, None).unwrap();
    assert_eq!(warm.studies_executed(), 0);
    assert!((warm.hit_rate() - 1.0).abs() < 1e-12);

    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Per-policy fingerprints isolate the roster: a cold sweep of the
/// roster minus one policy executes one study per policy, and the
/// full roster against that cache executes only the added policy's.
#[test]
fn growing_the_policy_roster_executes_exactly_one_warm_study() {
    let cache_dir = scratch("roster");
    let cache = ArtifactCache::open(&cache_dir).unwrap();
    let (added, subset) = tournament::POLICIES.split_last().unwrap();

    let cold = run_sweep(
        tournament_plan(42, Scale::Quick, subset, None),
        Some(&cache),
        None,
        None,
    )
    .unwrap();
    assert_eq!(cold.studies_executed(), subset.len() as u64);

    let warm = run_sweep(
        tournament_plan(42, Scale::Quick, tournament::POLICIES, None),
        Some(&cache),
        None,
        None,
    )
    .unwrap();
    assert_eq!(
        warm.studies_executed(),
        1,
        "adding {added} re-ran existing policies' studies"
    );

    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// `--cal` reaches `sweep`, and its key: against a cache warmed by the
/// default plan, a tweaked calibration executes the measurement study
/// and nothing else — its nine artefacts re-render, the other seven
/// are served as bundles, and their studies are never looked at.
#[test]
fn cal_override_reruns_only_the_measurement_study() {
    let cache_dir = scratch("cal");
    let cache = ArtifactCache::open(&cache_dir).unwrap();
    let default = full_plan(SEED, Scale::Quick, None, None, None);
    let cold = run_sweep(default, Some(&cache), None, None).unwrap();
    assert_eq!(cold.studies_executed(), 11);

    let cal = ir_workload::Calibration {
        frac_high: 0.25,
        ..Default::default()
    };
    let tweaked = full_plan(SEED, Scale::Quick, Some(cal), None, None);
    let warm = run_sweep(tweaked, Some(&cache), None, None).unwrap();
    assert_eq!(warm.studies_executed(), 1);
    assert_eq!(warm.studies.len(), 1, "a cached study was materialised");
    assert!(warm.studies[0].name.starts_with("measurement("));
    assert_eq!(warm.artefacts.len(), 16);
    assert_eq!(warm.artefact_hits(), 7);
    let rendered: Vec<&str> = warm
        .artefacts
        .iter()
        .filter(|a| a.source == ir_artifact::Source::Computed)
        .map(|a| a.name.as_str())
        .collect();
    let measurement: Vec<&str> = ir_experiments::MEASUREMENT_ARTEFACTS
        .iter()
        .map(|a| a.0)
        .collect();
    assert_eq!(rendered, measurement);
    for (w, c) in warm.artefacts.iter().zip(&cold.artefacts) {
        let moved = measurement.contains(&w.name.as_str());
        assert_eq!(w.output != c.output, moved, "{}", w.name);
    }

    let _ = std::fs::remove_dir_all(&cache_dir);
}
