//! The dependency-aware sweep: every artefact of the paper through the
//! `ir-artifact` scheduler with a content-addressed cache.
//!
//! [`full_plan`] declares the whole evaluation as a two-layer DAG —
//! studies feeding artefacts:
//!
//! | study | artefacts |
//! |---|---|
//! | measurement (§2.2 planetlab) | fig1 fig2 fig3 fig4 fig5 table1 table2 variability overhead |
//! | selection (§4) | fig6 table3 |
//! | sites (per destination site) | sites |
//! | headroom (oracle replica) | headroom |
//! | faults (overlay outages) | faults |
//! | striping (striped vs raced sessions) | striping |
//! | tournament/`<policy>` (one study **per policy**) | tournament |
//!
//! **A study's key is the value it runs on**: one declared inputs value
//! ([`MeasurementInputs`], [`sites::SitesInputs`], …) and a plain `fn`
//! body over it, which can capture nothing else (telemetry aside, which
//! only observes). The key hashes the study's domain, [`CODEC_VERSION`]
//! and that value; an artefact's hashes its name, its code-version salt
//! ([`SALTS`] — bump when render logic changes) and its studies' keys.
//! Same inputs ⇒ same key ⇒ a warm cache reproduces every artefact
//! byte-for-byte without running a single study; any changed input
//! misses cleanly.
//!
//! The plan is also the `experiments` CLI's only driver: every command
//! is a [`SweepPlan::select`]ion from [`full_plan`] run through
//! [`run_sweep`].

use crate::faults::FaultsInputs;
use crate::headroom::HeadroomInputs;
use crate::report::Report;
use crate::runner::{MeasurementInputs, Roster, Scale, SelectionInputs, FIG6_KS};
use crate::sites::SitesInputs;
use crate::striping::StripingInputs;
use crate::tournament::TournamentInputs;
use crate::{
    faults, headroom, sites, striping, tournament, Artefacts, MEASUREMENT_ARTEFACTS,
    SELECTION_ARTEFACTS,
};
use ir_artifact::{
    execute, fingerprint_of, ArtefactOutput, ArtefactSpec, ArtifactCache, Codec, ExecReport,
    Fingerprint, StableHash, StudySpec,
};
use ir_core::FailoverConfig;
use ir_telemetry::trace::{Event, EventKind};
use ir_telemetry::Telemetry;
use ir_workload::{Calibration, Schedule};
use std::path::Path;
use std::sync::Arc;

/// Version of the study byte encodings in [`crate::codec`]. Part of
/// every study fingerprint: bumping it retires every cached study
/// (they would no longer decode) instead of misreading them.
///
/// v2: [`ir_core::PathSpec`] widened from `via: Option<NodeId>` to a
/// hop chain — path encoding is now hop count + hops.
pub const CODEC_VERSION: u32 = 2;

/// Per-artefact code-version salts. Bump an entry whenever that
/// artefact's render logic changes in a way that alters its output —
/// the fingerprint moves and stale cached bundles stop matching.
pub const SALTS: &[(&str, u64)] = &[
    ("fig1", 1),
    ("fig2", 1),
    ("fig3", 1),
    ("fig4", 1),
    ("fig5", 1),
    ("fig6", 1),
    ("table1", 1),
    ("table2", 1),
    ("table3", 1),
    ("variability", 1),
    ("overhead", 1),
    ("sites", 1),
    ("headroom", 1),
    ("faults", 1),
    ("striping", 1),
    ("tournament", 1),
];

fn salt_of(name: &str) -> u64 {
    SALTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, s)| s)
        .unwrap_or_else(|| panic!("artefact {name:?} has no entry in sweep::SALTS"))
}

/// A declared sweep: studies plus the artefacts consuming them.
#[derive(Default)]
pub struct SweepPlan {
    /// Every study any artefact may demand.
    pub studies: Vec<StudySpec>,
    /// Artefacts in emission order.
    pub artefacts: Vec<ArtefactSpec>,
}

impl SweepPlan {
    /// Keeps the artefacts a CLI name selects, in plan order: one
    /// artefact, every artefact of the `measurement` / `selection`
    /// study, or everything for `all` / `sweep`; `None` when the name
    /// selects nothing. The studies stay declared — [`execute`] is
    /// demand-driven, so one no kept artefact consumes never runs.
    pub fn select(mut self, name: &str) -> Option<SweepPlan> {
        fn names<T>(table: &Artefacts<T>) -> Vec<&'static str> {
            table.iter().map(|a| a.0).collect()
        }
        let keep: Vec<&str> = match name {
            "all" | "sweep" => return Some(self),
            "measurement" => names(MEASUREMENT_ARTEFACTS),
            "selection" => names(SELECTION_ARTEFACTS),
            one => vec![one],
        };
        self.artefacts.retain(|a| keep.contains(&a.name.as_str()));
        (!self.artefacts.is_empty()).then_some(self)
    }
}

fn artefact_fingerprint(name: &str, deps: &[Fingerprint]) -> Fingerprint {
    fingerprint_of(&("artefact", CODEC_VERSION, name, salt_of(name), deps))
}

/// A study's cache key: its domain, the codec version, and the value it
/// runs on.
fn key(domain: &str, inputs: &impl StableHash) -> Fingerprint {
    fingerprint_of(&(domain, CODEC_VERSION, inputs))
}

/// The study `label`, keyed by [`key`]`(domain, &inputs)`. `body` is a
/// plain `fn`, so it captures nothing: besides code and the
/// observational `tel`, it reads only what the key hashes.
fn study<I: StableHash + 'static, T: Codec + Send + Sync + 'static>(
    label: String,
    domain: &str,
    inputs: I,
    tel: Option<Arc<Telemetry>>,
    body: fn(&I, Option<Arc<Telemetry>>) -> T,
) -> StudySpec {
    StudySpec::typed(label, key(domain, &inputs), move || body(&inputs, tel))
}

/// A report as the bundle the scheduler caches, the CLI prints and
/// [`run_sweep`] writes out.
pub fn output_of(r: &Report) -> ArtefactOutput {
    ArtefactOutput {
        pass: r.all_pass(),
        text: r.render(),
        files: r
            .csv
            .iter()
            .map(|(name, contents)| {
                (
                    format!("{}_{}.csv", r.id, name),
                    contents.as_bytes().to_vec(),
                )
            })
            .collect(),
    }
}

/// The artefact `name`: renders the `T` its one study `dep` produced.
fn artefact<T: 'static>(
    name: &'static str,
    dep: Fingerprint,
    render: impl Fn(&T) -> Report + 'static,
) -> ArtefactSpec {
    ArtefactSpec {
        name: name.to_string(),
        fingerprint: artefact_fingerprint(name, &[dep]),
        deps: vec![dep],
        render: Box::new(move |inputs| {
            let data = inputs[0].downcast_ref::<T>();
            output_of(&render(data.expect("study output of its declared type")))
        }),
    }
}

/// Every artefact of a study kind's table, over the study `dep`.
fn artefacts_of<T: 'static>(
    table: &'static Artefacts<T>,
    dep: Fingerprint,
) -> impl Iterator<Item = ArtefactSpec> {
    table
        .iter()
        .map(move |&(name, render)| artefact(name, dep, render))
}

/// An artefact with no study behind it (the CLI's `robustness` and
/// `scenario`): rendered when its turn comes, through the same bundle
/// as the rest. Its key carries no inputs, so only add it to a plan
/// that runs without a cache.
pub fn uncached(name: &'static str, report: impl FnOnce() -> Report + 'static) -> ArtefactSpec {
    ArtefactSpec {
        name: name.to_string(),
        fingerprint: fingerprint_of(&("uncached", name)),
        deps: Vec::new(),
        render: Box::new(move |_| output_of(&report())),
    }
}

/// Transfers per pair the `sites` study uses at a scale (read by the
/// plan and by the benchmark).
pub fn sites_transfers(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 8,
        Scale::Paper => 25,
    }
}

/// Transfers the `headroom` study uses at a scale.
pub fn headroom_transfers(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 30,
        Scale::Paper => 120,
    }
}

/// The full evaluation: the six shared studies plus one tournament
/// study per policy, feeding sixteen artefacts.
///
/// `cal` and `faults` are the CLI's `--cal` / `--faults`. They shape
/// the measurement study only, and its key: a calibration replaces the
/// default one; `Some(mtbf_secs)` above zero puts a seeded overlay
/// fault plan on the scenario's network and enables session failover.
/// With neither, and under `--faults none` (`Some(0)`: the empty plan,
/// a provable no-op), it is [`crate::measurement_study_default`] under
/// the default key. `tel` is shared by every study (simnet, session,
/// and runner layers report into it); it only observes, so no key
/// hashes it.
pub fn full_plan(
    seed: u64,
    scale: Scale,
    cal: Option<Calibration>,
    faults: Option<u64>,
    tel: Option<Arc<Telemetry>>,
) -> SweepPlan {
    let mut inputs = MeasurementInputs::new(seed, scale);
    if let Some(cal) = cal {
        inputs.roster.cal = cal;
    }
    if let Some(mtbf) = faults.filter(|&mtbf| mtbf > 0) {
        inputs.session.failover = Some(FailoverConfig::paper_defaults());
        let plan = faults::fault_plan(&inputs.scenario(), mtbf, inputs.schedule, seed);
        inputs.faults.0.push(plan);
    }
    let measurement = study(
        format!("measurement(seed={seed},{scale:?})"),
        "study/measurement",
        inputs,
        tel.clone(),
        MeasurementInputs::run,
    );
    let selection = study(
        format!("selection(seed={seed},{scale:?})"),
        "study/selection",
        SelectionInputs::new(seed, scale, FIG6_KS),
        tel.clone(),
        SelectionInputs::run,
    );
    let transfers = sites_transfers(scale);
    let sites_study = study(
        format!("sites(seed={seed},transfers={transfers})"),
        "study/sites",
        SitesInputs::new(seed, transfers),
        tel.clone(),
        |inputs, tel| inputs.run(tel),
    );
    let transfers = headroom_transfers(scale);
    let headroom_study = study(
        format!("headroom(seed={seed},transfers={transfers})"),
        "study/headroom",
        HeadroomInputs::new(seed, transfers),
        tel.clone(),
        |inputs, tel| inputs.run(tel),
    );
    let faults_study = study(
        format!("faults(seed={seed},{scale:?})"),
        "study/faults",
        FaultsInputs::new(seed, scale),
        tel.clone(),
        |inputs, tel| inputs.run(tel),
    );
    let striping_study = study(
        format!("striping(seed={seed},{scale:?})"),
        "study/striping",
        StripingInputs::new(seed, scale),
        tel.clone(),
        |inputs, tel| inputs.run(tel),
    );
    // Policy tournament: one study per policy, one artefact over all.
    let mut tplan = tournament_plan(seed, scale, tournament::POLICIES, tel);

    let mut artefacts: Vec<ArtefactSpec> =
        artefacts_of(MEASUREMENT_ARTEFACTS, measurement.fingerprint)
            .chain(artefacts_of(SELECTION_ARTEFACTS, selection.fingerprint))
            .chain([
                artefact::<Vec<_>>("sites", sites_study.fingerprint, |r| sites::report_of(r)),
                artefact::<Vec<_>>("headroom", headroom_study.fingerprint, |r| {
                    headroom::report_of(r)
                }),
                artefact::<Vec<_>>("faults", faults_study.fingerprint, |r| faults::report_of(r)),
                artefact::<Vec<_>>("striping", striping_study.fingerprint, |r| {
                    striping::report_of(r)
                }),
            ])
            .collect();
    artefacts.append(&mut tplan.artefacts);

    let mut studies = vec![
        measurement,
        selection,
        sites_study,
        headroom_study,
        faults_study,
        striping_study,
    ];
    studies.append(&mut tplan.studies);

    SweepPlan { studies, artefacts }
}

/// The tournament as a sweep plan: one cached study per `policies`
/// entry plus the single `tournament` artefact consuming them. A
/// policy's key covers its own [`TournamentInputs`] and nothing about
/// any other policy, so growing the roster never moves an existing
/// study's key. The full plan passes the whole roster;
/// `tests/sweep_cache.rs` passes subsets to prove that adding a policy
/// re-runs only the new study.
pub fn tournament_plan(
    seed: u64,
    scale: Scale,
    policies: &[&'static str],
    tel: Option<Arc<Telemetry>>,
) -> SweepPlan {
    let studies: Vec<StudySpec> = policies
        .iter()
        .map(|&p| {
            study(
                format!("tournament/{p}(seed={seed},{scale:?})"),
                "study/tournament",
                TournamentInputs::new(seed, scale, p),
                tel.clone(),
                |inputs, tel| inputs.run(tel),
            )
        })
        .collect();
    let deps: Vec<Fingerprint> = studies.iter().map(|s| s.fingerprint).collect();
    let artefact = ArtefactSpec {
        name: "tournament".into(),
        fingerprint: artefact_fingerprint("tournament", &deps),
        deps: deps.clone(),
        render: Box::new(|inputs| {
            let cells: Vec<tournament::TournamentCell> = inputs
                .iter()
                .flat_map(|i| {
                    i.downcast_ref::<Vec<tournament::TournamentCell>>()
                        .expect("tournament cells")
                        .clone()
                })
                .collect();
            output_of(&tournament::report_of(&cells))
        }),
    };
    SweepPlan {
        studies,
        artefacts: vec![artefact],
    }
}

/// A small pinned sweep for tests: the 4×4×1 determinism-golden
/// geometry feeding the two artefacts that share the measurement study
/// (Fig 1 + Table I) — one study, two artefacts, so shared-study dedup
/// and cache behaviour are observable in seconds.
pub fn mini_plan(seed: u64) -> SweepPlan {
    let mut inputs = MeasurementInputs::new(seed, Scale::Quick);
    inputs.roster = Roster::planetlab().first(4, 4, 1);
    inputs.schedule = Schedule::measurement_study().spread(8);
    let study = study(
        format!("measurement-mini(seed={seed})"),
        "study/measurement",
        inputs,
        None,
        MeasurementInputs::run,
    );
    let fp = study.fingerprint;
    SweepPlan {
        studies: vec![study],
        artefacts: artefacts_of(MEASUREMENT_ARTEFACTS, fp)
            .filter(|a| a.name == "fig1" || a.name == "table1")
            .collect(),
    }
}

/// Executes a sweep plan, writes every artefact file under `out_dir`
/// (when given), and wires cache counters and per-node spans into
/// `tel`. With `cache: None` every study runs and every artefact
/// renders — the cacheless baseline warm runs must match byte-for-byte.
pub fn run_sweep(
    plan: SweepPlan,
    cache: Option<&ArtifactCache>,
    out_dir: Option<&Path>,
    tel: Option<&Arc<Telemetry>>,
) -> std::io::Result<ExecReport> {
    let report = execute(plan.studies, plan.artefacts, cache);
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)?;
        for artefact in &report.artefacts {
            for (name, bytes) in &artefact.output.files {
                std::fs::write(dir.join(name), bytes)?;
            }
        }
    }
    if let Some(tel) = tel {
        tel.metrics
            .counter("artifact_cache_hits", vec![])
            .add(report.cache_hits);
        tel.metrics
            .counter("artifact_cache_misses", vec![])
            .add(report.cache_misses);
        tel.metrics
            .counter("artifact_cache_stores", vec![])
            .add(report.cache_stores);
        tel.metrics
            .counter("artifact_cache_corrupt", vec![])
            .add(report.cache_corrupt);
        tel.metrics
            .counter("sweep_studies_executed", vec![])
            .add(report.studies_executed());
        tel.metrics
            .counter("sweep_artefacts", vec![])
            .add(report.artefacts.len() as u64);
        for (i, s) in report.studies.iter().enumerate() {
            tel.trace(|| {
                Event::span(EventKind::StudyExec, 0, s.wall.as_micros() as u64, i as u64)
                    .with_str("study", s.name.clone())
                    .with_str("source", format!("{:?}", s.source))
                    .with_str("fingerprint", s.fingerprint.to_hex())
            });
        }
        for (i, a) in report.artefacts.iter().enumerate() {
            tel.trace(|| {
                Event::span(
                    EventKind::ArtifactRender,
                    0,
                    a.wall.as_micros() as u64,
                    i as u64,
                )
                .with_str("artefact", a.name.clone())
                .with_str("source", format!("{:?}", a.source))
                .with_str("fingerprint", a.fingerprint.to_hex())
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_full_plan_artefact_has_a_salt_and_unique_fingerprint() {
        let plan = full_plan(2007, Scale::Quick, None, None, None);
        assert_eq!(plan.studies.len(), 6 + tournament::POLICIES.len());
        // Every salted artefact is the full plan's, and each once.
        assert_eq!(plan.artefacts.len(), SALTS.len());
        let mut fps: Vec<Fingerprint> = plan
            .artefacts
            .iter()
            .map(|a| a.fingerprint)
            .chain(plan.studies.iter().map(|s| s.fingerprint))
            .collect();
        fps.sort();
        fps.dedup();
        assert_eq!(fps.len(), plan.artefacts.len() + plan.studies.len());
        // Every artefact's deps resolve to a declared study.
        for a in &plan.artefacts {
            for dep in &a.deps {
                assert!(
                    plan.studies.iter().any(|s| s.fingerprint == *dep),
                    "artefact {} has unresolved dep",
                    a.name
                );
            }
        }
    }

    #[test]
    fn adding_a_policy_keeps_existing_tournament_fingerprints() {
        let small = tournament_plan(7, Scale::Quick, &["random-set", "k-shortest"], None);
        let big = tournament_plan(
            7,
            Scale::Quick,
            &["random-set", "k-shortest", "adaptive"],
            None,
        );
        for (s, b) in small.studies.iter().zip(&big.studies) {
            assert_eq!(s.fingerprint, b.fingerprint, "{} moved", s.name);
        }
        // The artefact key covers the roster, so it does move.
        assert_ne!(small.artefacts[0].fingerprint, big.artefacts[0].fingerprint);
        // And the full plan embeds the same per-policy keys.
        let full = full_plan(7, Scale::Quick, None, None, None);
        for s in &small.studies {
            assert!(
                full.studies.iter().any(|f| f.fingerprint == s.fingerprint),
                "{} missing from full plan",
                s.name
            );
        }
    }

    #[test]
    fn fingerprints_move_with_seed_and_scale() {
        let a = full_plan(1, Scale::Quick, None, None, None);
        let b = full_plan(2, Scale::Quick, None, None, None);
        let c = full_plan(1, Scale::Paper, None, None, None);
        let d = full_plan(1, Scale::Quick, None, None, None);
        for ((x, y), (z, w)) in a
            .studies
            .iter()
            .zip(b.studies.iter())
            .zip(c.studies.iter().zip(d.studies.iter()))
        {
            assert_ne!(x.fingerprint, y.fingerprint, "seed must move {}", x.name);
            assert_ne!(x.fingerprint, z.fingerprint, "scale must move {}", x.name);
            assert_eq!(x.fingerprint, w.fingerprint, "same inputs, same key");
        }
    }

    #[test]
    fn mini_plan_is_stable_and_distinct_from_full() {
        let a = mini_plan(42);
        let b = mini_plan(42);
        assert_eq!(a.studies[0].fingerprint, b.studies[0].fingerprint);
        assert_eq!(a.artefacts[0].fingerprint, b.artefacts[0].fingerprint);
        let full = full_plan(42, Scale::Quick, None, None, None);
        assert_ne!(a.studies[0].fingerprint, full.studies[0].fingerprint);
        // Same artefact name, different deps ⇒ different artefact key.
        assert_ne!(a.artefacts[0].fingerprint, full.artefacts[0].fingerprint);
    }

    /// Pins the full plan's study and artefact *order* (the BTreeMap
    /// conversions in core/policy must not have reshuffled anything the
    /// scheduler or cache observes). The
    /// sweep's dependency scheduler walks these lists positionally, so
    /// a silent reorder would shuffle study execution and CSV emission
    /// order even with identical fingerprints.
    #[test]
    fn full_plan_order_is_pinned() {
        let plan = full_plan(2007, Scale::Quick, None, None, None);
        let studies: Vec<&str> = plan.studies.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            studies,
            [
                "measurement(seed=2007,Quick)",
                "selection(seed=2007,Quick)",
                "sites(seed=2007,transfers=8)",
                "headroom(seed=2007,transfers=30)",
                "faults(seed=2007,Quick)",
                "striping(seed=2007,Quick)",
                "tournament/random-set(seed=2007,Quick)",
                "tournament/utilization-weighted(seed=2007,Quick)",
                "tournament/k-shortest(seed=2007,Quick)",
                "tournament/adaptive(seed=2007,Quick)",
                "tournament/backpressure(seed=2007,Quick)",
            ]
        );
        let artefacts: Vec<&str> = plan.artefacts.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(
            artefacts,
            [
                "fig1",
                "fig2",
                "table1",
                "table2",
                "fig3",
                "fig4",
                "fig5",
                "variability",
                "overhead",
                "fig6",
                "table3",
                "sites",
                "headroom",
                "faults",
                "striping",
                "tournament",
            ]
        );
        // And construction is reproducible: same order, same keys.
        let again = full_plan(2007, Scale::Quick, None, None, None);
        for (a, b) in plan.studies.iter().zip(&again.studies) {
            assert_eq!(
                (a.name.as_str(), a.fingerprint),
                (b.name.as_str(), b.fingerprint)
            );
        }
        // Tournament studies follow the declared policy roster order.
        let t = tournament_plan(11, Scale::Quick, tournament::POLICIES, None);
        let expected: Vec<String> = tournament::POLICIES
            .iter()
            .map(|p| format!("tournament/{p}(seed=11,Quick)"))
            .collect();
        let got: Vec<&str> = t.studies.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(got, expected);
    }

    /// A pinned `full_plan` study key. Anything that moves it — a
    /// [`CODEC_VERSION`] bump, a new fingerprint input — cold-starts
    /// every existing sweep cache, so it must be deliberate.
    #[test]
    fn full_plan_measurement_fingerprint_is_pinned() {
        let plan = full_plan(2007, Scale::Quick, None, None, None);
        assert_eq!(plan.studies[0].name, "measurement(seed=2007,Quick)");
        assert_eq!(
            plan.studies[0].fingerprint.to_hex(),
            "80e88c217b3e2fa5c19df5b2350d54ce"
        );
    }

    /// Every study key of the quick seed-2007 plan, in plan order. The
    /// measurement pin above guards the shared inputs; this table guards
    /// each study's own — the fault plans, the per-policy configs.
    /// Moving one orphans that study's cache entries, so it must be
    /// deliberate.
    #[test]
    fn study_fingerprints_are_pinned() {
        let studies = full_plan(2007, Scale::Quick, None, None, None).studies;
        let got: Vec<String> = studies.iter().map(|s| s.fingerprint.to_hex()).collect();
        let pinned = [
            "80e88c217b3e2fa5c19df5b2350d54ce", // measurement
            "efdca6cf3c3a8768a8e53197a7a61da1", // selection
            "7ee75ddf2f419352dabdb814e60b7f57", // sites
            "fb44ee62f137981a6cfb635027f503f4", // headroom
            "f2ab3a010fc2881a0ecce07a778dec00", // faults
            "c50578fc0a8d233f2ec988d7d88d183a", // striping
            "750e6bb6651e90b1f71377fe89952199", // tournament/random-set
            "1ef9c0f4a7b0b3d44e848ee57f5b52ff", // tournament/utilization-weighted
            "8fdb42016f727db6f95ff12d4d77f722", // tournament/k-shortest
            "e359a763981f4acb22db1ffb67b700b5", // tournament/adaptive
            "db0465f1223ca60d9f26a9aafe55f444", // tournament/backpressure
        ];
        assert_eq!(got, pinned);
    }

    /// `--cal` / `--faults` shape the measurement study only, and its
    /// key: the default flags and `--faults none` leave every key where
    /// it is pinned; a tweaked calibration or a real MTBF moves the
    /// measurement key (and the nine artefact keys over it) and nothing
    /// else.
    #[test]
    fn cal_and_faults_move_only_the_measurement_key() {
        let keys = |cal, faults| -> Vec<Fingerprint> {
            let plan = full_plan(2007, Scale::Quick, cal, faults, None);
            let studies = plan.studies.iter().map(|s| s.fingerprint);
            studies
                .chain(plan.artefacts.iter().map(|a| a.fingerprint))
                .collect()
        };
        let default = keys(None, None);
        assert_eq!(keys(None, Some(0)), default, "--faults none moved a key");
        assert_eq!(keys(Some(Calibration::default()), None), default);
        let cal = Calibration {
            frac_high: 0.25,
            ..Calibration::default()
        };
        let tweaked = keys(Some(cal), None);
        let faulted = keys(None, Some(600));
        // Keys are studies first, then artefacts: the measurement
        // study's artefacts lead the artefact list.
        let first = full_plan(2007, Scale::Quick, None, None, None)
            .studies
            .len();
        let measurement_artefacts = first..first + MEASUREMENT_ARTEFACTS.len();
        for (i, key) in default.iter().enumerate() {
            let moves = i == 0 || measurement_artefacts.contains(&i);
            assert_eq!(tweaked[i] != *key, moves, "--cal, key {i}");
            assert_eq!(faulted[i] != *key, moves, "--faults 600, key {i}");
        }
        assert_ne!(tweaked[0], faulted[0]);
        assert_ne!(keys(None, Some(300))[0], faulted[0], "MTBF is an input");
    }

    /// The plan's measurement and selection studies are the library's
    /// `*_study_default` runs, byte for byte: the benchmark times one
    /// and the CLI prints the other.
    #[test]
    fn plan_studies_are_the_default_studies() {
        let mut studies = full_plan(11, Scale::Quick, None, Some(0), None).studies;
        let selection = studies.swap_remove(1);
        let measurement = studies.swap_remove(0);
        assert_eq!(
            (measurement.encode)(&(measurement.run)()),
            crate::codec::encode_measurement(&crate::measurement_study_default(11, Scale::Quick))
        );
        assert_eq!(
            (selection.encode)(&(selection.run)()),
            crate::codec::encode_selection(&crate::selection_study_default(
                11,
                Scale::Quick,
                FIG6_KS
            ))
        );
    }

    /// The library entry points the benchmark times build the inputs of
    /// the plan's studies: each has its study's key in the quick
    /// seed-2007 plan (keys only; nothing runs).
    #[test]
    fn entry_points_key_like_the_plan() {
        let (seed, scale) = (2007, Scale::Quick);
        let plan = full_plan(seed, scale, None, None, None);
        let planned = |label: &str| {
            let study = plan.studies.iter().find(|s| s.name.starts_with(label));
            study
                .unwrap_or_else(|| panic!("no {label} study"))
                .fingerprint
        };
        let entry_points = [
            (
                "measurement(",
                key("study/measurement", &MeasurementInputs::new(seed, scale)),
            ),
            (
                "selection(",
                key(
                    "study/selection",
                    &SelectionInputs::new(seed, scale, FIG6_KS),
                ),
            ),
            (
                "sites(",
                key(
                    "study/sites",
                    &SitesInputs::new(seed, sites_transfers(scale)),
                ),
            ),
            (
                "headroom(",
                key(
                    "study/headroom",
                    &HeadroomInputs::new(seed, headroom_transfers(scale)),
                ),
            ),
            (
                "faults(",
                key("study/faults", &FaultsInputs::new(seed, scale)),
            ),
            (
                "striping(",
                key("study/striping", &StripingInputs::new(seed, scale)),
            ),
        ];
        for (label, got) in entry_points {
            assert_eq!(got, planned(label), "{label}");
        }
        for &p in tournament::POLICIES {
            let got = key("study/tournament", &TournamentInputs::new(seed, scale, p));
            assert_eq!(got, planned(&format!("tournament/{p}(")), "{p}");
        }
    }

    /// A selection runs what it needs and nothing else: `fig6` executes
    /// the selection study alone, `fig1` + `table1` share one
    /// measurement study, a group keeps its study's artefacts in plan
    /// order, and a name that selects nothing is `None`.
    #[test]
    fn selecting_runs_only_the_studies_the_kept_artefacts_consume() {
        let select = |name| full_plan(11, Scale::Quick, None, None, None).select(name);
        let fig6 = run_sweep(select("fig6").unwrap(), None, None, None).unwrap();
        assert_eq!(fig6.artefacts.len(), 1);
        assert_eq!(fig6.studies_executed(), 1);
        assert_eq!(fig6.studies[0].name, "selection(seed=11,Quick)");

        let mut both = select("all").unwrap();
        both.artefacts
            .retain(|a| a.name == "fig1" || a.name == "table1");
        let both = run_sweep(both, None, None, None).unwrap();
        assert_eq!(both.artefacts.len(), 2);
        assert_eq!(both.studies_executed(), 1);

        let names = |name| -> Vec<String> {
            let kept = select(name).unwrap().artefacts;
            kept.into_iter().map(|a| a.name).collect()
        };
        let table_names =
            |t: &[(&str, _)]| -> Vec<String> { t.iter().map(|a| a.0.to_string()).collect() };
        assert_eq!(names("measurement"), table_names(MEASUREMENT_ARTEFACTS));
        assert_eq!(names("selection"), ["fig6", "table3"]);
        assert_eq!(names("sweep").len(), SALTS.len());
        assert_eq!(names("all").len(), SALTS.len());
        for none in ["fig99", "megaflow", "soak", "scenario", ""] {
            assert!(select(none).is_none(), "{none:?} selected something");
        }
    }
}
