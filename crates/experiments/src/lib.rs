//! `ir-experiments` — reproduction harness for every table and figure
//! of the paper's evaluation.
//!
//! | artefact | module | study |
//! |---|---|---|
//! | Fig 1 (improvement histogram) | [`fig1`] | measurement (§2.2) |
//! | Fig 2 (per-client histograms) | [`fig2`] | measurement |
//! | Table I (penalty statistics)  | [`table1`] | measurement |
//! | Table II (top-3 intermediates) | [`table2`] | measurement |
//! | Fig 3 (improvement vs throughput) | [`fig3`] | measurement |
//! | Fig 4 (indirect throughput vs time) | [`fig4`] | measurement |
//! | Fig 5 (node utilization) | [`fig5`] | measurement |
//! | Fig 6 (improvement vs random-set size) | [`fig6`] | selection (§4) |
//! | Table III (utilization vs improvement) | [`table3`] | selection |
//!
//! Four extension experiments go beyond the paper's artefacts:
//! [`sites`] (the abstract's per-site 33–49% range), [`headroom`]
//! (oracle-attainable vs captured improvement — only a simulator can
//! measure this), [`faults`] (availability/goodput under overlay
//! outages and relay churn with session failover enabled) and
//! [`striping`] (multi-source range striping vs racing on the
//! variability grid, including the stale-prediction penalty tail).
//!
//! [`runner`] drives the two studies; each artefact module turns study
//! data into a [`report::Report`] with paper-vs-measured checks and CSV
//! series. The table above is code: [`MEASUREMENT_ARTEFACTS`] and
//! [`SELECTION_ARTEFACTS`] map artefact → renderer per study, and
//! [`sweep::full_plan`] maps every artefact (extensions included) to
//! the study it consumes, keyed by the hash of the inputs value it runs
//! on ([`MeasurementInputs`], [`sites::SitesInputs`], …). The
//! `experiments` binary is a CLI over that one plan: a command selects
//! artefacts ([`sweep::SweepPlan::select`]) and [`sweep::run_sweep`]
//! runs the studies they need.

pub mod codec;
pub mod faults;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod headroom;
pub mod inspect;
pub mod overhead;
pub mod report;
pub mod robustness;
pub mod runner;
pub mod sites;
pub mod striping;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod tournament;
pub mod variability;

pub use report::{Check, Report};
pub use runner::{
    effective_worker_threads, measurement_study_default, run_measurement_study,
    run_measurement_study_traced, run_selection_study, run_selection_study_traced,
    selection_study_default, set_worker_threads, MeasurementData, MeasurementInputs, PairRun,
    Roster, Scale, SelectionData, SelectionInputs, SelectionRun, FIG6_KS,
};

/// The artefacts of a study whose data is a `T`: name and renderer, in
/// emission order.
pub type Artefacts<T> = [(&'static str, fn(&T) -> Report)];

/// The measurement study's artefacts. The one list
/// [`measurement_reports`], the sweep plan and the CLI's `measurement`
/// group read.
pub const MEASUREMENT_ARTEFACTS: &Artefacts<MeasurementData> = &[
    ("fig1", fig1::report),
    ("fig2", fig2::report),
    ("table1", table1::report),
    ("table2", table2::report),
    ("fig3", fig3::report),
    ("fig4", fig4::report),
    ("fig5", fig5::report),
    ("variability", variability::report),
    ("overhead", overhead::report),
];

/// The selection study's artefacts (see [`MEASUREMENT_ARTEFACTS`]).
pub const SELECTION_ARTEFACTS: &Artefacts<SelectionData> =
    &[("fig6", fig6::report), ("table3", table3::report)];

/// Runs every measurement-study artefact on shared data.
pub fn measurement_reports(data: &MeasurementData) -> Vec<Report> {
    MEASUREMENT_ARTEFACTS
        .iter()
        .map(|&(_, render)| render(data))
        .collect()
}

/// Runs every selection-study artefact on shared data.
pub fn selection_reports(data: &SelectionData) -> Vec<Report> {
    SELECTION_ARTEFACTS
        .iter()
        .map(|&(_, render)| render(data))
        .collect()
}
