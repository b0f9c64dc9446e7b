//! Fault-plane experiment: availability and goodput under overlay
//! outages and relay churn, with session failover enabled.
//!
//! The paper's measurements assume every intermediate stays reachable
//! for the whole study; this extension asks what indirect routing buys
//! when they do not. A seeded [`FaultPlan`] takes overlay uplinks down,
//! browns them out, and churns relay nodes, while the session layer's
//! retry/backoff + mid-transfer failover tries to finish every file
//! anyway. The sweep crosses fault pressure (link MTBF) with
//! random-set size `k` (§4's selection knob): more candidate relays
//! should translate into more surviving escape routes.
//!
//! Per cell we report **availability** (transfers that completed
//! before the session horizon), mean mid-transfer failovers, mean
//! stalled time, and goodput relative to the zero-fault cell at the
//! same `k`. The zero-fault row doubles as a regression anchor: its
//! improvement statistics are checked against the shared Fig 1 bands
//! ([`crate::robustness::FIG1_MEAN_PCT`]).

use crate::report::{csv, Check, Report};
use crate::robustness::FIG1_MEAN_PCT;
use crate::runner::{run_task, Roster, Scale};
use ir_artifact::Unframed;
use ir_core::{FailoverConfig, RandomSet, SessionConfig, TransferRecord};
use ir_simnet::faults::{FaultPlan, FaultSpec};
use ir_simnet::time::SimDuration;
use ir_stats::Summary;
use ir_telemetry::Telemetry;
use ir_workload::{overlay_fault_plan, Scenario, Schedule};
use std::sync::Arc;

/// Link MTBF values swept (seconds); 0 means "no faults" and anchors
/// the goodput ratios.
pub const MTBF_SECS: &[u64] = &[0, 900, 300];

/// Random-set sizes swept (the §4 selection knob).
pub const KS: &[usize] = &[1, 3, 6];

/// The seeded overlay fault plan at link MTBF `mtbf_secs`: outages
/// average two minutes, a quarter of draws brown the link out to 25 %
/// capacity, and relay nodes churn at 3× the link MTBF. What the CLI's
/// `--faults` flag puts on the measurement study, and each row of this
/// sweep carries; `mtbf_secs == 0` ("none") is the empty plan, which
/// [`ir_simnet::sim::Network::set_fault_plan`] treats as a provable
/// no-op — the study stays byte-identical to a run without the flag.
pub fn fault_plan(scenario: &Scenario, mtbf_secs: u64, schedule: Schedule, seed: u64) -> FaultPlan {
    if mtbf_secs == 0 {
        return FaultPlan::none();
    }
    let spec = FaultSpec {
        // Slack past the last scheduled start so late transfers still
        // see fault pressure.
        horizon: schedule.span() + SimDuration::from_secs(3600),
        link_mtbf: SimDuration::from_secs(mtbf_secs),
        link_outage_mean: SimDuration::from_secs(120),
        brownout_prob: 0.25,
        brownout_factor: 0.25,
        node_mtbf: SimDuration::from_secs(mtbf_secs * 3),
        node_downtime_mean: SimDuration::from_secs(90),
    };
    overlay_fault_plan(scenario, &spec, seed)
}

/// One (MTBF, k) cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct FaultCell {
    /// Link MTBF in seconds (0 = no faults injected).
    pub mtbf_secs: u64,
    /// Random-set size.
    pub k: usize,
    /// Transfers attempted.
    pub transfers: usize,
    /// Transfers that completed before the horizon (%).
    pub availability_pct: f64,
    /// Mean mid-transfer path switches per transfer.
    pub mean_failovers: f64,
    /// Mean milliseconds spent stalled (zero-progress windows +
    /// backoff waits) per transfer.
    pub mean_stall_ms: f64,
    /// Mean end-to-end throughput over completed transfers (B/s).
    pub goodput: f64,
    /// `goodput` relative to the zero-fault cell at the same `k`
    /// (1.0 when this *is* the zero-fault cell).
    pub goodput_ratio: f64,
    /// Mean improvement (%) over indirect-chosen completed transfers
    /// (NaN when none chose indirect).
    pub mean_improvement_pct: f64,
}
ir_artifact::declare! {
    Codec for struct FaultCell {
        mtbf_secs,
        k,
        transfers,
        availability_pct,
        mean_failovers,
        mean_stall_ms,
        goodput,
        goodput_ratio,
        mean_improvement_pct,
    }
}

fn cell_stats(mtbf_secs: u64, k: usize, records: &[TransferRecord]) -> FaultCell {
    let transfers = records.len();
    let completed: Vec<&TransferRecord> = records.iter().filter(|r| !r.abandoned).collect();
    let goodputs: Vec<f64> = completed
        .iter()
        .map(|r| r.selected_throughput)
        .filter(|t| t.is_finite())
        .collect();
    let imps: Vec<f64> = completed
        .iter()
        .filter(|r| r.chose_indirect())
        .map(|r| r.improvement_pct())
        .filter(|v| v.is_finite())
        .collect();
    FaultCell {
        mtbf_secs,
        k,
        transfers,
        availability_pct: completed.len() as f64 / transfers.max(1) as f64 * 100.0,
        mean_failovers: records.iter().map(|r| r.failovers as f64).sum::<f64>()
            / transfers.max(1) as f64,
        mean_stall_ms: records.iter().map(|r| r.stall_ms as f64).sum::<f64>()
            / transfers.max(1) as f64,
        goodput: Summary::of(&goodputs).map(|s| s.mean).unwrap_or(0.0),
        goodput_ratio: f64::NAN, // filled in by `run`
        mean_improvement_pct: Summary::of(&imps).map(|s| s.mean).unwrap_or(f64::NAN),
    }
}

/// What the fault-plane sweep runs on, in key order: the scenario (seed,
/// roster; the first server is the destination), the link MTBFs and
/// random-set sizes swept, the schedule per (client, k), the session
/// (failover on), and the fault plan of each nonzero MTBF, in order.
/// The seed also seeds each task's policy.
#[derive(Debug, Clone)]
pub struct FaultsInputs {
    seed: u64,
    roster: Roster,
    mtbf_secs: &'static [u64],
    ks: &'static [usize],
    schedule: Schedule,
    session: SessionConfig,
    plans: Unframed<FaultPlan>,
}
ir_artifact::declare! {
    StableHash for struct FaultsInputs { seed, roster, mtbf_secs, ks, schedule, session, plans }
}

impl FaultsInputs {
    /// The sweep at a scale: 3 clients × 6 relays × 1 server, 12
    /// transfers per (client, k) at Quick and 40 at Paper.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let roster = Roster::planetlab().first(3, 6, 1);
        let schedule = Schedule::measurement_study().spread(match scale {
            Scale::Quick => 12,
            Scale::Paper => 40,
        });
        let mut session = SessionConfig::paper_defaults();
        session.failover = Some(FailoverConfig::paper_defaults());
        let scenario = roster.build(seed, true);
        let plans = MTBF_SECS
            .iter()
            .filter(|&&mtbf| mtbf != 0)
            .map(|&mtbf| fault_plan(&scenario, mtbf, schedule, seed ^ 0xFA17))
            .collect();
        FaultsInputs {
            seed,
            roster,
            mtbf_secs: MTBF_SECS,
            ks: KS,
            schedule,
            session,
            plans: Unframed(plans),
        }
    }

    /// Runs the sweep: for each MTBF, a freshly built scenario carries
    /// that fault plan on its network (every task clone inherits it),
    /// and each `k` runs every client against the server under
    /// [`RandomSet`] selection with failover enabled, reporting into
    /// `tel` when given.
    pub fn run(&self, tel: Option<Arc<Telemetry>>) -> Vec<FaultCell> {
        let mut plans = self.plans.0.iter();
        let mut cells: Vec<FaultCell> = Vec::new();
        for &mtbf in self.mtbf_secs {
            let mut scenario = self.roster.build(self.seed, true);
            if mtbf != 0 {
                scenario
                    .network
                    .set_fault_plan(plans.next().expect("a plan per MTBF"));
            }
            for &k in self.ks {
                let server = scenario.servers[0];
                let mut records = Vec::new();
                for (ci, &client) in scenario.clients.iter().enumerate() {
                    let policy_seed = self.seed ^ ((ci as u64) << 16) ^ k as u64;
                    let (task, _) = run_task(
                        &scenario,
                        scenario.network.clone(),
                        client,
                        server,
                        &scenario.relays,
                        Box::new(RandomSet::new(k, policy_seed)),
                        self.schedule,
                        &self.session,
                        0,
                        tel.as_ref(),
                    );
                    records.extend(task);
                }
                cells.push(cell_stats(mtbf, k, &records));
            }
        }
        // Goodput ratios against the zero-fault cell at the same k.
        let baselines: Vec<(usize, f64)> = cells
            .iter()
            .filter(|c| c.mtbf_secs == 0)
            .map(|c| (c.k, c.goodput))
            .collect();
        for cell in &mut cells {
            let base = baselines
                .iter()
                .find(|(k, _)| *k == cell.k)
                .map(|&(_, g)| g)
                .unwrap_or(f64::NAN);
            cell.goodput_ratio = if base > 0.0 {
                cell.goodput / base
            } else {
                f64::NAN
            };
        }
        cells
    }
}

/// Runs the sweep at a scale (see [`FaultsInputs::run`]).
pub fn run(seed: u64, scale: Scale) -> Vec<FaultCell> {
    FaultsInputs::new(seed, scale).run(None)
}

/// Builds the faults report from precomputed (possibly cache-restored)
/// sweep cells.
pub fn report_of(cells: &[FaultCell]) -> Report {
    let mut table = ir_stats::TextTable::new()
        .title("availability and goodput under overlay faults")
        .header([
            "mtbf (s)",
            "k",
            "transfers",
            "avail %",
            "failovers",
            "stall ms",
            "goodput ratio",
        ]);
    let mut rows = Vec::new();
    for c in cells {
        table.row([
            if c.mtbf_secs == 0 {
                "none".into()
            } else {
                c.mtbf_secs.to_string()
            },
            c.k.to_string(),
            c.transfers.to_string(),
            format!("{:.1}", c.availability_pct),
            format!("{:.2}", c.mean_failovers),
            format!("{:.0}", c.mean_stall_ms),
            format!("{:.2}", c.goodput_ratio),
        ]);
        rows.push(vec![
            c.mtbf_secs.to_string(),
            c.k.to_string(),
            c.transfers.to_string(),
            format!("{:.3}", c.availability_pct),
            format!("{:.4}", c.mean_failovers),
            format!("{:.3}", c.mean_stall_ms),
            format!("{:.4}", c.goodput_ratio),
            format!("{:.3}", c.mean_improvement_pct),
        ]);
    }

    let clean: Vec<&FaultCell> = cells.iter().filter(|c| c.mtbf_secs == 0).collect();
    let faulted: Vec<&FaultCell> = cells.iter().filter(|c| c.mtbf_secs != 0).collect();
    let clean_avail = clean
        .iter()
        .map(|c| c.availability_pct)
        .fold(f64::INFINITY, f64::min);
    let faulted_avail = faulted
        .iter()
        .map(|c| c.availability_pct)
        .fold(f64::INFINITY, f64::min);
    let total_failovers: f64 = faulted
        .iter()
        .map(|c| c.mean_failovers * c.transfers as f64)
        .sum();
    let worst_ratio = faulted
        .iter()
        .map(|c| c.goodput_ratio)
        .filter(|r| r.is_finite())
        .fold(f64::INFINITY, f64::min);
    let clean_imps: Vec<f64> = clean
        .iter()
        .map(|c| c.mean_improvement_pct)
        .filter(|v| v.is_finite())
        .collect();
    let clean_mean_imp = Summary::of(&clean_imps).map(|s| s.mean).unwrap_or(f64::NAN);

    let mut body = table.render();
    body.push_str(&format!(
        "\nzero-fault availability (min over k): {clean_avail:.1}%\n\
         faulted availability (min over cells): {faulted_avail:.1}%\n\
         mid-transfer failovers across faulted cells: {total_failovers:.0}\n"
    ));

    Report {
        id: "faults",
        title: "Availability under overlay faults with session failover".into(),
        body,
        csv: vec![(
            "cells".into(),
            csv(
                &[
                    "mtbf_secs",
                    "k",
                    "transfers",
                    "availability_pct",
                    "mean_failovers",
                    "mean_stall_ms",
                    "goodput_ratio",
                    "mean_improvement_pct",
                ],
                &rows,
            ),
        )],
        checks: vec![
            Check::banded(
                "zero-fault availability (%)",
                100.0,
                clean_avail,
                99.9,
                100.0,
            ),
            Check::banded(
                "faulted availability, worst cell (%)",
                100.0,
                faulted_avail,
                75.0,
                100.0,
            ),
            Check::banded(
                "mid-transfer failovers, faulted cells (count)",
                1.0,
                total_failovers,
                1.0,
                1.0e9,
            ),
            // The zero-fault rows must still look like Fig 1: reuse the
            // shared mean-improvement band (informational — the small
            // 3×6×1 roster is not the full §2.2 population).
            Check::info(
                "zero-fault mean improvement (%) vs Fig 1 lower band",
                FIG1_MEAN_PCT.0,
                clean_mean_imp,
            ),
            Check::info("faulted goodput ratio, worst cell", 1.0, worst_ratio),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_faults_engage() {
        let a = run(11, Scale::Quick);
        let b = run(11, Scale::Quick);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mtbf_secs, y.mtbf_secs);
            assert_eq!(x.k, y.k);
            assert_eq!(x.transfers, y.transfers);
            assert_eq!(x.availability_pct.to_bits(), y.availability_pct.to_bits());
            assert_eq!(x.mean_failovers.to_bits(), y.mean_failovers.to_bits());
            assert_eq!(x.goodput.to_bits(), y.goodput.to_bits());
        }
        // Zero-fault cells finish everything, never fail over, and
        // anchor the ratios at exactly 1.
        for c in a.iter().filter(|c| c.mtbf_secs == 0) {
            assert_eq!(c.availability_pct, 100.0, "{c:?}");
            assert_eq!(c.mean_failovers, 0.0, "{c:?}");
            assert_eq!(c.mean_stall_ms, 0.0, "{c:?}");
            assert_eq!(c.goodput_ratio, 1.0, "{c:?}");
        }
        // Fault pressure must be visible somewhere: stalls or
        // failovers in at least one faulted cell.
        let engaged = a
            .iter()
            .filter(|c| c.mtbf_secs != 0)
            .any(|c| c.mean_failovers > 0.0 || c.mean_stall_ms > 0.0);
        assert!(engaged, "no faulted cell showed failovers or stalls: {a:?}");
    }

    #[test]
    fn report_has_cells_and_csv() {
        let r = report_of(&run(11, Scale::Quick));
        assert_eq!(r.id, "faults");
        assert_eq!(r.csv.len(), 1);
        let lines = r.csv[0].1.lines().count();
        assert_eq!(lines, 1 + MTBF_SECS.len() * KS.len());
        assert!(!r.checks.is_empty());
    }
}
