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
//! | megaflow (fair-share engine at scale) | megaflow |
//! | striping (striped vs raced sessions) | striping |
//! | tournament/`<policy>` (one study **per policy**) | tournament |
//!
//! Study fingerprints hash **every input that determines the output**:
//! the seed, rosters, [`Calibration`], [`Schedule`], [`SessionConfig`],
//! sweep constants (`ks`, MTBFs), the generated fault plans, and
//! [`CODEC_VERSION`]. Artefact fingerprints hash the artefact name, its
//! per-artefact code-version salt ([`SALTS`] — bump when render logic
//! changes), and its study fingerprints. Same inputs ⇒ same key ⇒ a
//! warm cache reproduces every artefact byte-for-byte without running a
//! single study; any changed input misses cleanly.

use crate::report::Report;
use crate::runner::{
    measurement_study_default_traced, run_measurement_study, selection_study_default_traced,
    MeasurementData, Scale, SelectionData, FIG6_KS,
};
use crate::{
    faults, fig1, fig2, fig3, fig4, fig5, fig6, headroom, megaflow, overhead, sites, soak,
    striping, table1, table2, table3, tournament, variability,
};
use ir_artifact::{
    execute, ArtefactOutput, ArtefactSpec, ArtifactCache, ExecReport, Fingerprint, StableHash,
    StableHasher, StudySpec,
};
use ir_core::SessionConfig;
use ir_simnet::time::SimDuration;
use ir_simnet::topology::LinkId;
use ir_telemetry::trace::{Event, EventKind};
use ir_telemetry::Telemetry;
use ir_workload::roster::{ClientSite, RelaySite, ServerSite};
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
    ("megaflow", 1),
    ("striping", 1),
    ("tournament", 1),
    // 2: the "relay mode" row left the report with the threaded relay.
    ("soak", 2),
];

fn salt_of(name: &str) -> u64 {
    SALTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, s)| s)
        .unwrap_or_else(|| panic!("artefact {name:?} has no entry in sweep::SALTS"))
}

/// A declared sweep: studies plus the artefacts consuming them.
pub struct SweepPlan {
    /// Every study any artefact may demand.
    pub studies: Vec<StudySpec>,
    /// Artefacts in emission order.
    pub artefacts: Vec<ArtefactSpec>,
}

fn artefact_fingerprint(name: &str, deps: &[Fingerprint]) -> Fingerprint {
    let mut h = StableHasher::new();
    "artefact".stable_hash(&mut h);
    CODEC_VERSION.stable_hash(&mut h);
    name.stable_hash(&mut h);
    salt_of(name).stable_hash(&mut h);
    deps.stable_hash(&mut h);
    h.finish()
}

fn output_of(r: &Report) -> ArtefactOutput {
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

#[allow(clippy::too_many_arguments)] // fingerprint covers every cache-relevant input explicitly
fn measurement_fingerprint(
    seed: u64,
    clients: &[ClientSite],
    relays: &[RelaySite],
    servers: &[ServerSite],
    cal: &Calibration,
    force_low_med: bool,
    server_index: usize,
    schedule: Schedule,
    session: &SessionConfig,
) -> Fingerprint {
    let mut h = StableHasher::new();
    "study/measurement".stable_hash(&mut h);
    CODEC_VERSION.stable_hash(&mut h);
    seed.stable_hash(&mut h);
    clients.stable_hash(&mut h);
    relays.stable_hash(&mut h);
    servers.stable_hash(&mut h);
    cal.stable_hash(&mut h);
    force_low_med.stable_hash(&mut h);
    server_index.stable_hash(&mut h);
    schedule.stable_hash(&mut h);
    session.stable_hash(&mut h);
    h.finish()
}

fn measurement_report_fn(name: &str) -> fn(&MeasurementData) -> Report {
    match name {
        "fig1" => fig1::report,
        "fig2" => fig2::report,
        "fig3" => fig3::report,
        "fig4" => fig4::report,
        "fig5" => fig5::report,
        "table1" => table1::report,
        "table2" => table2::report,
        "variability" => variability::report,
        "overhead" => overhead::report,
        other => panic!("{other:?} is not a measurement artefact"),
    }
}

fn measurement_artefact(name: &'static str, dep: Fingerprint) -> ArtefactSpec {
    let render = measurement_report_fn(name);
    ArtefactSpec {
        name: name.to_string(),
        fingerprint: artefact_fingerprint(name, &[dep]),
        deps: vec![dep],
        render: Box::new(move |inputs| {
            output_of(&render(inputs[0].downcast_ref().expect("measurement data")))
        }),
    }
}

fn selection_artefact(name: &'static str, dep: Fingerprint) -> ArtefactSpec {
    let render: fn(&SelectionData) -> Report = match name {
        "fig6" => fig6::report,
        "table3" => table3::report,
        other => panic!("{other:?} is not a selection artefact"),
    };
    ArtefactSpec {
        name: name.to_string(),
        fingerprint: artefact_fingerprint(name, &[dep]),
        deps: vec![dep],
        render: Box::new(move |inputs| {
            output_of(&render(inputs[0].downcast_ref().expect("selection data")))
        }),
    }
}

/// Transfers per pair the `sites` study uses at a scale (shared by the
/// `sites` CLI artefact and the sweep).
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

/// Megaflow geometry at a scale (shared by the `megaflow` CLI artefact
/// and the sweep): the seconds-scale mini fan-in at Quick, the
/// million-flow headline geometry at Paper.
pub fn megaflow_config(scale: Scale) -> megaflow::MegaflowConfig {
    match scale {
        Scale::Quick => megaflow::MegaflowConfig::mini(),
        Scale::Paper => megaflow::MegaflowConfig::paper(),
    }
}

/// Soak geometry at a scale (shared by the `soak` CLI artefact and
/// [`soak_plan`]): 250 concurrent clients at Quick, the 2000-client
/// headline herd at Paper.
pub fn soak_config(scale: Scale) -> soak::SoakConfig {
    match scale {
        Scale::Quick => soak::SoakConfig::quick(),
        Scale::Paper => soak::SoakConfig::paper(),
    }
}

/// The soak as its own fingerprinted plan: one study (the real-socket
/// load run) feeding one artefact. Deliberately **not** part of
/// [`full_plan`]: soak results measure this machine's wall clock, so
/// folding them into the sweep would break the byte-identical
/// cold/warm/cacheless replays CI diffs. A cached soak artefact is a
/// *record* of the run that produced it, keyed on `(seed, config,
/// codec version)` like every other study.
pub fn soak_plan(seed: u64, scale: Scale) -> SweepPlan {
    /// Layout of the [`soak::SoakResult`] record. A soak-only tag:
    /// [`CODEC_VERSION`] feeds every study fingerprint, and a change to
    /// this one record must not cold-start the whole sweep cache.
    /// 2: `event_mode` dropped.
    const SOAK_LAYOUT: u32 = 2;
    let cfg = soak_config(scale);
    let fp = {
        let mut h = StableHasher::new();
        "study/soak".stable_hash(&mut h);
        CODEC_VERSION.stable_hash(&mut h);
        SOAK_LAYOUT.stable_hash(&mut h);
        seed.stable_hash(&mut h);
        cfg.stable_hash(&mut h);
        h.finish()
    };
    let study = StudySpec::typed(format!("soak(seed={seed},{scale:?})"), fp, move || {
        soak::run(&cfg)
    });
    let artefact = ArtefactSpec {
        name: "soak".into(),
        fingerprint: artefact_fingerprint("soak", &[fp]),
        deps: vec![fp],
        render: Box::new(|inputs| {
            output_of(&soak::report_of(
                inputs[0]
                    .downcast_ref::<soak::SoakResult>()
                    .expect("soak result"),
            ))
        }),
    };
    SweepPlan {
        studies: vec![study],
        artefacts: vec![artefact],
    }
}

/// The full evaluation: the six shared studies plus one tournament
/// study per policy, feeding sixteen artefacts. `tel` is
/// shared by the measurement/selection studies (simnet, session, and
/// runner layers report into it), exactly as the per-artefact CLI paths
/// do.
pub fn full_plan(seed: u64, scale: Scale, tel: Option<Arc<Telemetry>>) -> SweepPlan {
    let roster = ir_workload::roster::CLIENTS;
    let relays = ir_workload::roster::INTERMEDIATES;
    let servers = ir_workload::roster::SERVERS;
    let cal = Calibration::default();
    let session = SessionConfig::paper_defaults();

    // §2.2 measurement study (shared by nine artefacts).
    let m_schedule = Schedule::measurement_study().spread(scale.measurement_transfers());
    let m_fp = measurement_fingerprint(
        seed, roster, relays, servers, &cal, false, 0, m_schedule, &session,
    );
    let m_tel = tel.clone();
    let measurement = StudySpec::typed(
        format!("measurement(seed={seed},{scale:?})"),
        m_fp,
        move || measurement_study_default_traced(seed, scale, m_tel),
    );

    // §4 selection study (shared by fig6 + table3).
    let s_schedule = Schedule::selection_study().spread(scale.selection_transfers());
    let s_fp = {
        let mut h = StableHasher::new();
        "study/selection".stable_hash(&mut h);
        CODEC_VERSION.stable_hash(&mut h);
        seed.stable_hash(&mut h);
        ir_workload::roster::SELECTION_CLIENTS.stable_hash(&mut h);
        ir_workload::roster::selection_relays().stable_hash(&mut h);
        servers[..1].stable_hash(&mut h);
        cal.stable_hash(&mut h);
        true.stable_hash(&mut h); // force_low_med
        FIG6_KS
            .iter()
            .map(|&k| k as u64)
            .collect::<Vec<_>>()
            .stable_hash(&mut h);
        s_schedule.stable_hash(&mut h);
        session.stable_hash(&mut h);
        h.finish()
    };
    let s_tel = tel.clone();
    let selection = StudySpec::typed(
        format!("selection(seed={seed},{scale:?})"),
        s_fp,
        move || selection_study_default_traced(seed, scale, FIG6_KS, s_tel),
    );

    // Per-site study (all four destinations).
    let site_transfers = sites_transfers(scale);
    let sites_fp = {
        let mut h = StableHasher::new();
        "study/sites".stable_hash(&mut h);
        CODEC_VERSION.stable_hash(&mut h);
        seed.stable_hash(&mut h);
        roster.stable_hash(&mut h);
        relays.stable_hash(&mut h);
        servers.stable_hash(&mut h);
        cal.stable_hash(&mut h);
        site_transfers.stable_hash(&mut h);
        Schedule::measurement_study()
            .spread(site_transfers)
            .stable_hash(&mut h);
        session.stable_hash(&mut h);
        h.finish()
    };
    let sites_study = StudySpec::typed(
        format!("sites(seed={seed},transfers={site_transfers})"),
        sites_fp,
        move || sites::run(seed, site_transfers),
    );

    // Oracle headroom study.
    let hr_transfers = headroom_transfers(scale);
    let hr_fp = {
        let mut h = StableHasher::new();
        "study/headroom".stable_hash(&mut h);
        CODEC_VERSION.stable_hash(&mut h);
        seed.stable_hash(&mut h);
        ir_workload::roster::SELECTION_CLIENTS.stable_hash(&mut h);
        ir_workload::roster::selection_relays().stable_hash(&mut h);
        servers[..1].stable_hash(&mut h);
        cal.stable_hash(&mut h);
        hr_transfers.stable_hash(&mut h);
        Schedule::selection_study()
            .spread(hr_transfers)
            .stable_hash(&mut h);
        session.stable_hash(&mut h);
        SimDuration::from_secs(1200).stable_hash(&mut h); // oracle horizon
        10u64.stable_hash(&mut h); // random-set k
        h.finish()
    };
    let headroom_study = StudySpec::typed(
        format!("headroom(seed={seed},transfers={hr_transfers})"),
        hr_fp,
        move || headroom::run(seed, hr_transfers),
    );

    // Fault-plane sweep. The generated fault plans are pure functions
    // of (scenario, spec, seed); hash the plans themselves so the
    // fingerprint covers fault pressure directly.
    let f_schedule = Schedule::measurement_study().spread(match scale {
        Scale::Quick => 12,
        Scale::Paper => 40,
    });
    let faults_fp = {
        let mut h = StableHasher::new();
        "study/faults".stable_hash(&mut h);
        CODEC_VERSION.stable_hash(&mut h);
        seed.stable_hash(&mut h);
        roster[..3].stable_hash(&mut h);
        relays[..6].stable_hash(&mut h);
        servers[..1].stable_hash(&mut h);
        cal.stable_hash(&mut h);
        faults::MTBF_SECS.stable_hash(&mut h);
        faults::KS
            .iter()
            .map(|&k| k as u64)
            .collect::<Vec<_>>()
            .stable_hash(&mut h);
        f_schedule.stable_hash(&mut h);
        faults::failover_session().stable_hash(&mut h);
        let scenario = faults::sweep_scenario(seed);
        let horizon = f_schedule.span() + SimDuration::from_secs(3600);
        for &mtbf in faults::MTBF_SECS {
            if mtbf != 0 {
                ir_workload::overlay_fault_plan(
                    &scenario,
                    &faults::fault_spec(mtbf, horizon),
                    seed ^ 0xFA17,
                )
                .stable_hash(&mut h);
            }
        }
        h.finish()
    };
    let faults_study = StudySpec::typed(
        format!("faults(seed={seed},{scale:?})"),
        faults_fp,
        move || faults::run(seed, scale),
    );

    // Megaflow: the engine's scale study. Engine-mode invariant (the
    // differential suite's guarantee), so the engine is not a
    // fingerprint input.
    let mega_cfg = megaflow_config(scale);
    let mega_fp = {
        let mut h = StableHasher::new();
        "study/megaflow".stable_hash(&mut h);
        CODEC_VERSION.stable_hash(&mut h);
        seed.stable_hash(&mut h);
        mega_cfg.stable_hash(&mut h);
        h.finish()
    };
    let mega_tel = tel.clone();
    let megaflow_study = StudySpec::typed(
        format!("megaflow(seed={seed},{scale:?})"),
        mega_fp,
        move || {
            megaflow::run(
                seed,
                &mega_cfg,
                ir_simnet::sim::EngineMode::Incremental,
                mega_tel,
            )
        },
    );

    // Striping sweep: raced vs striped sessions on the pinned 2-relay
    // grid. Cells are seed-invariant (fixed geometry, like the
    // tournament's ridge scenarios), but the seed stays a fingerprint
    // input so the cache key moves with the CLI invocation. The fault
    // plans are pure functions of the scenario; hash them directly so
    // the fingerprint covers fault pressure (the uplinks are links 1
    // and 3 of the scenario world, in construction order).
    let striping_fp = {
        let mut h = StableHasher::new();
        "study/striping".stable_hash(&mut h);
        CODEC_VERSION.stable_hash(&mut h);
        seed.stable_hash(&mut h);
        striping::HORIZON_SECS.stable_hash(&mut h);
        striping::KS
            .iter()
            .map(|&k| k as u64)
            .collect::<Vec<_>>()
            .stable_hash(&mut h);
        striping::chunk_grid(scale)
            .iter()
            .map(|&c| c as u64)
            .collect::<Vec<_>>()
            .stable_hash(&mut h);
        striping::raced_session().stable_hash(&mut h);
        striping::striped_session(8, 2).stable_hash(&mut h);
        for s in striping::SCENARIOS {
            s.name.stable_hash(&mut h);
            s.direct_rate.to_bits().stable_hash(&mut h);
            s.overlay1_rate.to_bits().stable_hash(&mut h);
            s.overlay2_rate.to_bits().stable_hash(&mut h);
            striping::scenario_fault_plan(s.fault, LinkId(1), LinkId(3)).stable_hash(&mut h);
        }
        h.finish()
    };
    let striping_study = StudySpec::typed(
        format!("striping(seed={seed},{scale:?})"),
        striping_fp,
        move || striping::run(seed, scale),
    );

    // Policy tournament: one study per policy, one artefact over all.
    let mut tplan = tournament_plan(seed, scale, tournament::POLICIES);

    let mut artefacts: Vec<ArtefactSpec> = [
        "fig1",
        "fig2",
        "table1",
        "table2",
        "fig3",
        "fig4",
        "fig5",
        "variability",
        "overhead",
    ]
    .into_iter()
    .map(|name| measurement_artefact(name, m_fp))
    .collect();
    artefacts.push(selection_artefact("fig6", s_fp));
    artefacts.push(selection_artefact("table3", s_fp));
    artefacts.push(ArtefactSpec {
        name: "sites".into(),
        fingerprint: artefact_fingerprint("sites", &[sites_fp]),
        deps: vec![sites_fp],
        render: Box::new(|inputs| {
            output_of(&sites::report_of(
                inputs[0]
                    .downcast_ref::<Vec<sites::SiteResult>>()
                    .expect("site results"),
            ))
        }),
    });
    artefacts.push(ArtefactSpec {
        name: "headroom".into(),
        fingerprint: artefact_fingerprint("headroom", &[hr_fp]),
        deps: vec![hr_fp],
        render: Box::new(|inputs| {
            output_of(&headroom::report_of(
                inputs[0]
                    .downcast_ref::<Vec<headroom::Headroom>>()
                    .expect("headroom results"),
            ))
        }),
    });
    artefacts.push(ArtefactSpec {
        name: "faults".into(),
        fingerprint: artefact_fingerprint("faults", &[faults_fp]),
        deps: vec![faults_fp],
        render: Box::new(|inputs| {
            output_of(&faults::report_of(
                inputs[0]
                    .downcast_ref::<Vec<faults::FaultCell>>()
                    .expect("fault cells"),
            ))
        }),
    });

    artefacts.push(ArtefactSpec {
        name: "megaflow".into(),
        fingerprint: artefact_fingerprint("megaflow", &[mega_fp]),
        deps: vec![mega_fp],
        render: Box::new(|inputs| {
            output_of(&megaflow::report_of(
                inputs[0]
                    .downcast_ref::<megaflow::MegaflowResult>()
                    .expect("megaflow result"),
            ))
        }),
    });

    artefacts.push(ArtefactSpec {
        name: "striping".into(),
        fingerprint: artefact_fingerprint("striping", &[striping_fp]),
        deps: vec![striping_fp],
        render: Box::new(|inputs| {
            output_of(&striping::report_of(
                inputs[0]
                    .downcast_ref::<Vec<striping::StripeCell>>()
                    .expect("striping cells"),
            ))
        }),
    });

    artefacts.append(&mut tplan.artefacts);

    let mut studies = vec![
        measurement,
        selection,
        sites_study,
        headroom_study,
        faults_study,
        megaflow_study,
        striping_study,
    ];
    studies.append(&mut tplan.studies);

    SweepPlan { studies, artefacts }
}

/// Fingerprint of one policy's tournament study. Covers everything
/// that determines its cells — the seed, scale (via transfer count
/// and schedule), session config, shared tournament constants, the
/// scenario roster, the star-scenario inputs, and **this policy's**
/// config — but nothing about any other policy, so growing the
/// [`tournament::POLICIES`] roster never moves an existing study's
/// key.
fn tournament_policy_fingerprint(seed: u64, scale: Scale, policy: &str) -> Fingerprint {
    let mut h = StableHasher::new();
    "study/tournament".stable_hash(&mut h);
    CODEC_VERSION.stable_hash(&mut h);
    seed.stable_hash(&mut h);
    policy.stable_hash(&mut h);
    (tournament::TOURNAMENT_K as u64).stable_hash(&mut h);
    for &name in tournament::SCENARIOS {
        name.stable_hash(&mut h);
    }
    Schedule::measurement_study()
        .spread(tournament::tournament_transfers(scale))
        .stable_hash(&mut h);
    tournament::tournament_session().stable_hash(&mut h);
    // Star-scenario inputs (the ridge is fixed geometry, covered by
    // the SCENARIOS names + codec version).
    ir_workload::roster::CLIENTS[..3].stable_hash(&mut h);
    ir_workload::roster::INTERMEDIATES[..6].stable_hash(&mut h);
    ir_workload::roster::SERVERS[..1].stable_hash(&mut h);
    Calibration::default().stable_hash(&mut h);
    // Per-policy config, exhaustively (see ir-policy's StableHash
    // impls).
    match policy {
        "random-set" | "utilization-weighted" => {
            (tournament::TOURNAMENT_K as u64).stable_hash(&mut h)
        }
        "k-shortest" => tournament::kshortest_config().stable_hash(&mut h),
        "adaptive" => tournament::adaptive_config().stable_hash(&mut h),
        "backpressure" => tournament::backpressure_config().stable_hash(&mut h),
        other => panic!("tournament policy {other:?} has no fingerprint arm"),
    }
    h.finish()
}

/// The tournament as a sweep plan: one cached study per `policies`
/// entry plus the single `tournament` artefact consuming them. The
/// full plan passes the whole roster; `tests/sweep_cache.rs` passes
/// subsets to prove that adding a policy re-runs only the new study.
pub fn tournament_plan(seed: u64, scale: Scale, policies: &[&'static str]) -> SweepPlan {
    let studies: Vec<StudySpec> = policies
        .iter()
        .map(|&p| {
            StudySpec::typed(
                format!("tournament/{p}(seed={seed},{scale:?})"),
                tournament_policy_fingerprint(seed, scale, p),
                move || tournament::run_policy(seed, scale, p),
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
    let clients = &ir_workload::roster::CLIENTS[..4];
    let relays = &ir_workload::roster::INTERMEDIATES[..4];
    let servers = &ir_workload::roster::SERVERS[..1];
    let cal = Calibration::default();
    let schedule = Schedule::measurement_study().spread(8);
    let session = SessionConfig::paper_defaults();
    let fp = measurement_fingerprint(
        seed, clients, relays, servers, &cal, false, 0, schedule, &session,
    );
    let study = StudySpec::typed(format!("measurement-mini(seed={seed})"), fp, move || {
        let scenario = ir_workload::build(seed, clients, relays, servers, cal, false);
        run_measurement_study(&scenario, 0, schedule, session)
    });
    SweepPlan {
        studies: vec![study],
        artefacts: vec![
            measurement_artefact("fig1", fp),
            measurement_artefact("table1", fp),
        ],
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
            tel.tracer.record(
                Event::span(EventKind::StudyExec, 0, s.wall.as_micros() as u64, i as u64)
                    .with_str("study", s.name.clone())
                    .with_str("source", format!("{:?}", s.source))
                    .with_str("fingerprint", s.fingerprint.to_hex()),
            );
        }
        for (i, a) in report.artefacts.iter().enumerate() {
            tel.tracer.record(
                Event::span(
                    EventKind::ArtifactRender,
                    0,
                    a.wall.as_micros() as u64,
                    i as u64,
                )
                .with_str("artefact", a.name.clone())
                .with_str("source", format!("{:?}", a.source))
                .with_str("fingerprint", a.fingerprint.to_hex()),
            );
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_full_plan_artefact_has_a_salt_and_unique_fingerprint() {
        let plan = full_plan(2007, Scale::Quick, None);
        assert_eq!(plan.studies.len(), 7 + tournament::POLICIES.len());
        // `soak` carries a salt but lives in its own plan (wall-clock
        // results must not enter the byte-replayable sweep), so the
        // full plan renders every salted artefact except that one.
        assert_eq!(plan.artefacts.len(), SALTS.len() - 1);
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
        let small = tournament_plan(7, Scale::Quick, &["random-set", "k-shortest"]);
        let big = tournament_plan(7, Scale::Quick, &["random-set", "k-shortest", "adaptive"]);
        for (s, b) in small.studies.iter().zip(&big.studies) {
            assert_eq!(s.fingerprint, b.fingerprint, "{} moved", s.name);
        }
        // The artefact key covers the roster, so it does move.
        assert_ne!(small.artefacts[0].fingerprint, big.artefacts[0].fingerprint);
        // And the full plan embeds the same per-policy keys.
        let full = full_plan(7, Scale::Quick, None);
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
        let a = full_plan(1, Scale::Quick, None);
        let b = full_plan(2, Scale::Quick, None);
        let c = full_plan(1, Scale::Paper, None);
        let d = full_plan(1, Scale::Quick, None);
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
        let full = full_plan(42, Scale::Quick, None);
        assert_ne!(a.studies[0].fingerprint, full.studies[0].fingerprint);
        // Same artefact name, different deps ⇒ different artefact key.
        assert_ne!(a.artefacts[0].fingerprint, full.artefacts[0].fingerprint);
    }

    /// Pins the full plan's study and artefact *order* (the BTreeMap
    /// conversions in core/policy and core/predictor must not have
    /// reshuffled anything the scheduler or cache observes). The
    /// sweep's dependency scheduler walks these lists positionally, so
    /// a silent reorder would shuffle study execution and CSV emission
    /// order even with identical fingerprints.
    #[test]
    fn full_plan_order_is_pinned() {
        let plan = full_plan(2007, Scale::Quick, None);
        let studies: Vec<&str> = plan.studies.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            studies,
            [
                "measurement(seed=2007,Quick)",
                "selection(seed=2007,Quick)",
                "sites(seed=2007,transfers=8)",
                "headroom(seed=2007,transfers=30)",
                "faults(seed=2007,Quick)",
                "megaflow(seed=2007,Quick)",
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
                "megaflow",
                "striping",
                "tournament",
            ]
        );
        // And construction is reproducible: same order, same keys.
        let again = full_plan(2007, Scale::Quick, None);
        for (a, b) in plan.studies.iter().zip(&again.studies) {
            assert_eq!(
                (a.name.as_str(), a.fingerprint),
                (b.name.as_str(), b.fingerprint)
            );
        }
        // Tournament studies follow the declared policy roster order.
        let t = tournament_plan(11, Scale::Quick, tournament::POLICIES);
        let expected: Vec<String> = tournament::POLICIES
            .iter()
            .map(|p| format!("tournament/{p}(seed=11,Quick)"))
            .collect();
        let got: Vec<&str> = t.studies.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(got, expected);
    }

    /// A pinned `full_plan` study key. Anything that moves it — a
    /// [`CODEC_VERSION`] bump, a new fingerprint input — cold-starts
    /// every existing sweep cache, so it must be deliberate; a change
    /// to one study's record (the soak's layout tag) must not.
    #[test]
    fn full_plan_measurement_fingerprint_is_pinned() {
        let plan = full_plan(2007, Scale::Quick, None);
        assert_eq!(plan.studies[0].name, "measurement(seed=2007,Quick)");
        assert_eq!(
            plan.studies[0].fingerprint.to_hex(),
            "c8e2c50f737590d0f1559f62775ae8fe"
        );
    }

    /// Every study key of the quick seed-2007 plans, in plan order (the
    /// soak's last). The measurement pin above guards the shared inputs;
    /// this table guards each study's own — the megaflow and soak
    /// configs, the fault plans, the per-policy configs. Moving one
    /// orphans that study's cache entries, so it must be deliberate.
    #[test]
    fn study_fingerprints_are_pinned() {
        let mut studies = full_plan(2007, Scale::Quick, None).studies;
        studies.extend(soak_plan(2007, Scale::Quick).studies);
        let got: Vec<String> = studies.iter().map(|s| s.fingerprint.to_hex()).collect();
        let pinned = [
            "c8e2c50f737590d0f1559f62775ae8fe", // measurement
            "6d2ab22e642685c0b5c062929f1b1539", // selection
            "dc5aacbd45642534543aa8524df4df9f", // sites
            "f9230923a6ae57241a3a3fa0050db1ac", // headroom
            "fd2dbdf3e035469d3755f84a5cc6f5c0", // faults
            "6eac7e2668e8799f5ce26b3994708502", // megaflow
            "dabc6b7901f94047e67732ee3aa7a272", // striping
            "ac59f81ae5548cddfc9edad95cb028c1", // tournament/random-set
            "803a0682274e0843c92f60dd1f3aa0d7", // tournament/utilization-weighted
            "3ae4b19e775e4db9536a4e7cd293ef5a", // tournament/k-shortest
            "1044e443ff0a95bb5896ef7062b5bd5d", // tournament/adaptive
            "adac1271c53ec5810d99749ffdfa98cc", // tournament/backpressure
            "192e93780839ef96a1b857deaec208ae", // soak
        ];
        assert_eq!(got, pinned);
    }

    /// The soak plan is fingerprinted like any other study — stable
    /// under identical inputs, moved by seed and scale — without ever
    /// running the (wall-clock) study itself.
    #[test]
    fn soak_plan_is_fingerprinted_and_separate_from_full() {
        let a = soak_plan(2007, Scale::Quick);
        let b = soak_plan(2007, Scale::Quick);
        assert_eq!(a.studies.len(), 1);
        assert_eq!(a.artefacts.len(), 1);
        assert_eq!(a.studies[0].name, "soak(seed=2007,Quick)");
        assert_eq!(a.studies[0].fingerprint, b.studies[0].fingerprint);
        assert_eq!(a.artefacts[0].fingerprint, b.artefacts[0].fingerprint);
        assert_eq!(a.artefacts[0].deps, vec![a.studies[0].fingerprint]);
        let seed_moved = soak_plan(2008, Scale::Quick);
        assert_ne!(a.studies[0].fingerprint, seed_moved.studies[0].fingerprint);
        let scale_moved = soak_plan(2007, Scale::Paper);
        assert_ne!(a.studies[0].fingerprint, scale_moved.studies[0].fingerprint);
        // And the full plan never declares it.
        let full = full_plan(2007, Scale::Quick, None);
        assert!(full.artefacts.iter().all(|x| x.name != "soak"));
    }
}
