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
//! Five extension experiments go beyond the paper's artefacts:
//! [`sites`] (the abstract's per-site 33–49% range), [`headroom`]
//! (oracle-attainable vs captured improvement — only a simulator can
//! measure this), [`faults`] (availability/goodput under overlay
//! outages and relay churn with session failover enabled),
//! [`striping`] (multi-source range striping vs racing on the
//! variability grid, including the stale-prediction penalty tail),
//! and [`soak`] (thousands of concurrent racing downloads through one
//! event-driven relay daemon over real loopback sockets — the only
//! wall-clock study, kept out of the byte-replayable sweep).
//!
//! [`runner`] drives the two studies; each artefact module turns study
//! data into a [`report::Report`] with paper-vs-measured checks and CSV
//! series. The `experiments` binary wraps it all in a CLI.

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
pub mod megaflow;
pub mod overhead;
pub mod report;
pub mod robustness;
pub mod runner;
pub mod sites;
pub mod soak;
pub mod striping;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod tournament;
pub mod variability;

pub use report::{Check, Report};
pub use runner::{
    effective_worker_threads, measurement_study_default, measurement_study_default_traced,
    run_measurement_study, run_measurement_study_traced, run_selection_study,
    run_selection_study_traced, selection_study_default, selection_study_default_traced,
    set_worker_threads, MeasurementData, PairRun, Scale, SelectionData, SelectionRun, FIG6_KS,
};

/// Runs every measurement-study artefact on shared data.
pub fn measurement_reports(data: &MeasurementData) -> Vec<Report> {
    vec![
        fig1::report(data),
        fig2::report(data),
        table1::report(data),
        table2::report(data),
        fig3::report(data),
        fig4::report(data),
        fig5::report(data),
        variability::report(data),
        overhead::report(data),
    ]
}

/// Runs every selection-study artefact on shared data.
pub fn selection_reports(data: &SelectionData) -> Vec<Report> {
    vec![fig6::report(data), table3::report(data)]
}
