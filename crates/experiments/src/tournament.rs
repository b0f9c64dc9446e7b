//! Policy tournament: every path-selection policy against every
//! tournament scenario, through the one session runner.
//!
//! The paper fixes one policy (random relay sets) and one path shape
//! (1-hop); the tournament crosses the pluggable [`PathSelector`]
//! implementations with scenarios chosen to separate them:
//!
//! * **star** — the paper's calibrated 1-hop geometry (3 clients ×
//!   6 relays × 1 server). Multi-hop chains cannot exist here; the
//!   interesting axis is probe overhead vs captured improvement.
//! * **ridge** — a hand-built topology whose only fat route is the
//!   2-hop chain `client → r0 → r1 → server`: r0 has a fat uplink but
//!   a thin downlink, r1 the reverse, and a fat ridge link joins them.
//!   Every 1-hop path bottlenecks; only a selector that can emit
//!   chains (k-shortest) reaches the fast route.
//!
//! Per (policy, scenario) cell we report mean improvement, the Table I
//! penalty rate, probe overhead (indirect paths probed per transfer,
//! from the per-policy telemetry counters), and the share of transfers
//! that settled on a multi-hop chain.
//!
//! Each policy is its **own study** in the sweep plan
//! ([`crate::sweep::tournament_plan`]): its fingerprint covers the
//! policy's config but not the other policies', so adding a policy to
//! the roster never invalidates — or re-runs — the cached cells of the
//! existing ones.

use crate::report::{csv, Check, Report};
use crate::runner::{run_task, Roster, Scale};
use ir_artifact::{StableHash, StableHasher, Unframed};
use ir_core::{PathSelector, RandomSet, SessionConfig, UtilizationWeighted};
use ir_policy::{
    AdaptiveConfig, AdaptiveLearner, Backpressure, BackpressureConfig, KShortest, KShortestConfig,
};
use ir_simnet::bandwidth::ConstantProcess;
use ir_simnet::sim::Network;
use ir_simnet::time::SimDuration;
use ir_simnet::topology::{NodeKind, Topology};
use ir_stats::Summary;
use ir_telemetry::Telemetry;
use ir_workload::{Calibration, Scenario, Schedule};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The policy roster, in report order. Names must match
/// [`PathSelector::name`] of the selector their config builds.
pub const POLICIES: &[&str] = &[
    "random-set",
    "utilization-weighted",
    "k-shortest",
    "adaptive",
    "backpressure",
];

/// The scenario roster, in report order.
pub const SCENARIOS: &[&str] = &["star", "ridge"];

/// Relay candidates per decision, for every policy that takes a k —
/// the tournament holds probe budget roughly comparable across cells.
pub const TOURNAMENT_K: usize = 3;

/// One (policy, scenario) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentCell {
    /// Policy name (a [`POLICIES`] entry).
    pub policy: String,
    /// Scenario name (a [`SCENARIOS`] entry).
    pub scenario: String,
    /// Transfers run.
    pub transfers: usize,
    /// Mean improvement (%) over transfers that chose indirect (NaN
    /// when none did).
    pub mean_improvement_pct: f64,
    /// Transfers that chose an indirect path (%).
    pub indirect_pct: f64,
    /// Table I penalty rate: transfers where the chosen indirect path
    /// underperformed direct (% of all transfers).
    pub penalty_rate_pct: f64,
    /// Probe overhead: indirect paths probed per transfer (from the
    /// per-policy `policy_probe_paths` counter).
    pub probe_paths_per_transfer: f64,
    /// Transfers that settled on a 2+-hop chain (%).
    pub multi_hop_pct: f64,
}
ir_artifact::declare! {
    Codec for struct TournamentCell {
        policy,
        scenario,
        transfers,
        mean_improvement_pct,
        indirect_pct,
        penalty_rate_pct,
        probe_paths_per_transfer,
        multi_hop_pct,
    }
}

/// A policy's configuration, built from its [`POLICIES`] name by
/// [`PolicyConfig::named`]: the one place a name becomes a selector.
#[derive(Debug, Clone, Copy)]
enum PolicyConfig {
    /// `random-set` over `k` relay candidates per decision.
    RandomSet(usize),
    /// `utilization-weighted` over `k` relay candidates per decision.
    UtilizationWeighted(usize),
    KShortest(KShortestConfig),
    /// The learner; each task splices in its own seed.
    Adaptive(AdaptiveConfig),
    Backpressure(BackpressureConfig),
}

/// Hashed with no variant tag: the policy name beside it in the key
/// already tells the variants apart, so each hashes as its config alone.
impl StableHash for PolicyConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            PolicyConfig::RandomSet(k) | PolicyConfig::UtilizationWeighted(k) => k.stable_hash(h),
            PolicyConfig::KShortest(cfg) => cfg.stable_hash(h),
            PolicyConfig::Adaptive(cfg) => cfg.stable_hash(h),
            PolicyConfig::Backpressure(cfg) => cfg.stable_hash(h),
        }
    }
}

impl PolicyConfig {
    /// The config of the roster's policy `name`, at `k` relay
    /// candidates per decision.
    fn named(name: &str, k: usize) -> PolicyConfig {
        match name {
            "random-set" => PolicyConfig::RandomSet(k),
            "utilization-weighted" => PolicyConfig::UtilizationWeighted(k),
            "k-shortest" => PolicyConfig::KShortest(KShortestConfig {
                k,
                ..KShortestConfig::default()
            }),
            "adaptive" => PolicyConfig::Adaptive(AdaptiveConfig {
                k,
                ..AdaptiveConfig::default()
            }),
            "backpressure" => PolicyConfig::Backpressure(BackpressureConfig {
                k,
                ..BackpressureConfig::default()
            }),
            other => panic!("unknown tournament policy {other:?}"),
        }
    }

    /// The selector a tournament task runs. `seed` feeds the stochastic
    /// policies; the deterministic ones ignore it.
    fn selector(&self, seed: u64) -> Box<dyn PathSelector> {
        match *self {
            PolicyConfig::RandomSet(k) => Box::new(RandomSet::new(k, seed)),
            PolicyConfig::UtilizationWeighted(k) => Box::new(UtilizationWeighted::new(k, seed)),
            PolicyConfig::KShortest(cfg) => Box::new(KShortest::new(cfg)),
            PolicyConfig::Adaptive(cfg) => {
                Box::new(AdaptiveLearner::new(AdaptiveConfig { seed, ..cfg }))
            }
            PolicyConfig::Backpressure(cfg) => Box::new(Backpressure::new(cfg)),
        }
    }
}

/// What one policy's tournament study runs on, in key order: the seed
/// (also seeding each task's policy), the policy's roster name, the
/// relay candidates per decision its config was built with, the
/// scenarios run, the schedule per (scenario, client), the session, the
/// star's roster (the ridge is fixed geometry, covered by its name and
/// the codec version), and the policy's own config.
#[derive(Debug, Clone)]
pub struct TournamentInputs {
    seed: u64,
    policy: &'static str,
    k: usize,
    scenarios: Unframed<&'static str>,
    schedule: Schedule,
    session: SessionConfig,
    roster: Roster,
    config: PolicyConfig,
}
ir_artifact::declare! {
    StableHash for struct TournamentInputs {
        seed, policy, k, scenarios, schedule, session, roster, config
    }
}

impl TournamentInputs {
    /// Policy `policy` at a scale: 10 transfers per (scenario, client)
    /// at Quick, 40 at Paper.
    pub fn new(seed: u64, scale: Scale, policy: &'static str) -> Self {
        TournamentInputs {
            seed,
            policy,
            k: TOURNAMENT_K,
            scenarios: Unframed(SCENARIOS.to_vec()),
            schedule: Schedule::measurement_study().spread(match scale {
                Scale::Quick => 10,
                Scale::Paper => 40,
            }),
            session: SessionConfig::paper_defaults(),
            roster: Roster::planetlab().first(3, 6, 1),
            config: PolicyConfig::named(policy, TOURNAMENT_K),
        }
    }

    /// Runs the policy through every scenario: the body of its sweep
    /// study. One selector instance per (scenario, client) task, each
    /// task on a fresh clone of the scenario network through the study
    /// runner, whose tallies give the cell its probe count. Reports
    /// into `tel` when given.
    pub fn run(&self, tel: Option<Arc<Telemetry>>) -> Vec<TournamentCell> {
        let cell = |name| {
            let sc = self.scenario(name);
            let mut records = Vec::new();
            let mut probe_paths = 0;
            for (ci, &client) in sc.clients.iter().enumerate() {
                let policy_seed = self.seed ^ ((ci as u64) << 16) ^ 0x70AA;
                let (task, tally) = run_task(
                    &sc,
                    sc.network.clone(),
                    client,
                    sc.servers[0],
                    &sc.relays,
                    self.config.selector(policy_seed),
                    self.schedule,
                    &self.session,
                    ci as u64,
                    tel.as_ref(),
                );
                records.extend(task);
                probe_paths += tally.probe_paths;
            }
            cell_stats(self.policy, name, &records, probe_paths)
        };
        self.scenarios.0.iter().map(|&name| cell(name)).collect()
    }

    /// Builds a named tournament scenario.
    fn scenario(&self, name: &str) -> Scenario {
        match name {
            "star" => self.roster.build(self.seed, true),
            "ridge" => ridge_scenario(),
            other => panic!("unknown tournament scenario {other:?}"),
        }
    }
}

/// Megabits per second, in bytes per second.
const MBPS: f64 = 1e6 / 8.0;

/// The ridge: the only fat route from either client to the server is
/// the 2-hop chain through `r0 → r1`, and it is also the
/// lowest-latency indirect route, so a latency-driven chain generator
/// ranks it first. Every 1-hop path is a modest 3 Mbps — better than
/// the 2 Mbps direct path, so 1-hop policies still capture *some*
/// improvement, just far less than the chain. Latencies in ms, rates
/// in Mbps:
///
/// ```text
///   c* --40ms/2--> s                      (direct)
///   c* --5ms/20--> r0 --30ms/3--> s       (fat up, thin down)
///   c* --30ms/3--> r1 --5ms/20--> s       (thin up, fat down)
///   c* --30ms/3--> r2 --30ms/3--> s       (thin both ways)
///   r0 --2ms/20--> r1                     (the ridge)
/// ```
fn ridge_scenario() -> Scenario {
    let mut t = Topology::new();
    let c0 = t.add_node("ridge-c0", NodeKind::Client);
    let c1 = t.add_node("ridge-c1", NodeKind::Client);
    let s = t.add_node("ridge-s", NodeKind::Server);
    let r0 = t.add_node("ridge-r0", NodeKind::Intermediate);
    let r1 = t.add_node("ridge-r1", NodeKind::Intermediate);
    let r2 = t.add_node("ridge-r2", NodeKind::Intermediate);
    let ms = |n: u64| SimDuration::from_millis(n);
    let mut planned: Vec<(ir_simnet::topology::LinkId, f64)> = Vec::new();
    for &c in &[c0, c1] {
        planned.push((t.add_link(c, s, ms(40)), 2.0));
        planned.push((t.add_link(c, r0, ms(5)), 20.0));
        planned.push((t.add_link(c, r1, ms(30)), 3.0));
        planned.push((t.add_link(c, r2, ms(30)), 3.0));
    }
    planned.push((t.add_link(r0, s, ms(30)), 3.0));
    planned.push((t.add_link(r1, s, ms(5)), 20.0));
    planned.push((t.add_link(r2, s, ms(30)), 3.0));
    planned.push((t.add_link(r0, r1, ms(2)), 20.0));
    let mut network = Network::new(t, 1.0);
    for (l, mbps) in planned {
        network.set_link_process(l, Box::new(ConstantProcess::new(mbps * MBPS)));
    }
    Scenario {
        network,
        clients: vec![c0, c1],
        relays: vec![r0, r1, r2],
        servers: vec![s],
        profiles: BTreeMap::new(),
        relay_quality: BTreeMap::new(),
        cal: Calibration::default(),
    }
}

/// Runs the whole tournament: every policy, every scenario. The sweep
/// plan runs each policy's [`TournamentInputs`] as its own cached
/// study instead; this entry is for the benchmark and the goldens.
pub fn run(seed: u64, scale: Scale) -> Vec<TournamentCell> {
    POLICIES
        .iter()
        .flat_map(|&p| TournamentInputs::new(seed, scale, p).run(None))
        .collect()
}

fn cell_stats(
    policy: &str,
    scenario: &str,
    records: &[ir_core::TransferRecord],
    probe_paths: u64,
) -> TournamentCell {
    let transfers = records.len();
    let indirect: Vec<_> = records.iter().filter(|r| r.chose_indirect()).collect();
    let imps: Vec<f64> = indirect
        .iter()
        .map(|r| r.improvement_pct())
        .filter(|v| v.is_finite())
        .collect();
    let penalties = records.iter().filter(|r| r.is_penalty()).count();
    let multi_hop = records
        .iter()
        .filter(|r| r.selected.hop_count() >= 2)
        .count();
    TournamentCell {
        policy: policy.to_string(),
        scenario: scenario.to_string(),
        transfers,
        mean_improvement_pct: Summary::of(&imps).map(|s| s.mean).unwrap_or(f64::NAN),
        indirect_pct: indirect.len() as f64 / transfers.max(1) as f64 * 100.0,
        penalty_rate_pct: penalties as f64 / transfers.max(1) as f64 * 100.0,
        probe_paths_per_transfer: probe_paths as f64 / transfers.max(1) as f64,
        multi_hop_pct: multi_hop as f64 / transfers.max(1) as f64 * 100.0,
    }
}

/// Builds the tournament report from precomputed (possibly
/// cache-restored) cells.
pub fn report_of(cells: &[TournamentCell]) -> Report {
    let mut table = ir_stats::TextTable::new()
        .title("policy tournament: improvement, penalties, probe overhead")
        .header([
            "policy",
            "scenario",
            "transfers",
            "improve %",
            "indirect %",
            "penalty %",
            "probes/xfer",
            "2+hop %",
        ]);
    let mut rows = Vec::new();
    for c in cells {
        table.row([
            c.policy.clone(),
            c.scenario.clone(),
            c.transfers.to_string(),
            format!("{:.1}", c.mean_improvement_pct),
            format!("{:.1}", c.indirect_pct),
            format!("{:.1}", c.penalty_rate_pct),
            format!("{:.2}", c.probe_paths_per_transfer),
            format!("{:.1}", c.multi_hop_pct),
        ]);
        rows.push(vec![
            c.policy.clone(),
            c.scenario.clone(),
            c.transfers.to_string(),
            format!("{:.3}", c.mean_improvement_pct),
            format!("{:.3}", c.indirect_pct),
            format!("{:.3}", c.penalty_rate_pct),
            format!("{:.4}", c.probe_paths_per_transfer),
            format!("{:.3}", c.multi_hop_pct),
        ]);
    }

    let cell = |p: &str, s: &str| {
        cells
            .iter()
            .find(|c| c.policy == p && c.scenario == s)
            .cloned()
    };
    // The headline claim: on the ridge, only a chain-capable selector
    // reaches the fat route, and it pays off.
    let ks_ridge = cell("k-shortest", "ridge");
    let ks_multi = ks_ridge.as_ref().map(|c| c.multi_hop_pct).unwrap_or(0.0);
    let ks_imp = ks_ridge
        .as_ref()
        .map(|c| c.mean_improvement_pct)
        .unwrap_or(f64::NAN);
    let best_one_hop_imp = cells
        .iter()
        .filter(|c| c.scenario == "ridge" && c.policy != "k-shortest")
        .map(|c| c.mean_improvement_pct)
        .filter(|v| v.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    let max_probe = cells
        .iter()
        .map(|c| c.probe_paths_per_transfer)
        .fold(0.0f64, f64::max);

    let mut body = table.render();
    body.push_str(&format!(
        "\nk-shortest on ridge: {ks_multi:.0}% of transfers settled on a 2+-hop chain \
         ({ks_imp:.0}% mean improvement vs {best_one_hop_imp:.0}% for the best 1-hop policy)\n"
    ));

    Report {
        id: "tournament",
        title: "Path-selection policy tournament".into(),
        body,
        csv: vec![(
            "cells".into(),
            csv(
                &[
                    "policy",
                    "scenario",
                    "transfers",
                    "mean_improvement_pct",
                    "indirect_pct",
                    "penalty_rate_pct",
                    "probe_paths_per_transfer",
                    "multi_hop_pct",
                ],
                &rows,
            ),
        )],
        checks: vec![
            Check::banded(
                "k-shortest 2+-hop share on ridge (%)",
                100.0,
                ks_multi,
                50.0,
                100.0,
            ),
            Check::banded(
                "k-shortest ridge improvement vs best 1-hop policy (%)",
                ks_imp,
                ks_imp - best_one_hop_imp,
                1.0,
                f64::INFINITY,
            ),
            Check::banded(
                "probe overhead ceiling (indirect paths/transfer)",
                TOURNAMENT_K as f64,
                max_probe,
                0.1,
                TOURNAMENT_K as f64 + 0.5,
            ),
            Check::info(
                "tournament cells (policies × scenarios)",
                (POLICIES.len() * SCENARIOS.len()) as f64,
                cells.len() as f64,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(c: &TournamentCell) -> Vec<u64> {
        vec![
            c.mean_improvement_pct.to_bits(),
            c.indirect_pct.to_bits(),
            c.penalty_rate_pct.to_bits(),
            c.probe_paths_per_transfer.to_bits(),
            c.multi_hop_pct.to_bits(),
        ]
    }

    #[test]
    fn tournament_is_deterministic() {
        let a = run(2007, Scale::Quick);
        let b = run(2007, Scale::Quick);
        assert_eq!(a.len(), POLICIES.len() * SCENARIOS.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.policy, y.policy);
            assert_eq!(x.scenario, y.scenario);
            assert_eq!(x.transfers, y.transfers);
            assert_eq!(
                bits(x),
                bits(y),
                "cell {}/{} diverged",
                x.policy,
                x.scenario
            );
        }
    }

    /// The acceptance scenario: on the ridge a 2-hop chain beats every
    /// 1-hop path, and only the chain-capable selector finds it.
    #[test]
    fn ridge_two_hop_chain_beats_all_one_hop_policies() {
        let cells = run(2007, Scale::Quick);
        let ridge: Vec<&TournamentCell> = cells.iter().filter(|c| c.scenario == "ridge").collect();
        let ks = ridge
            .iter()
            .find(|c| c.policy == "k-shortest")
            .expect("k-shortest ridge cell");
        // The fat route is 2-hop; k-shortest must settle on it in at
        // least half its transfers and beat every 1-hop-only policy.
        assert!(
            ks.multi_hop_pct >= 50.0,
            "k-shortest rarely took the chain: {ks:?}"
        );
        for c in ridge.iter().filter(|c| c.policy != "k-shortest") {
            assert_eq!(c.multi_hop_pct, 0.0, "1-hop policy took a chain: {c:?}");
            assert!(
                ks.mean_improvement_pct > c.mean_improvement_pct,
                "k-shortest ({:.1}%) did not beat {} ({:.1}%)",
                ks.mean_improvement_pct,
                c.policy,
                c.mean_improvement_pct
            );
        }
    }

    #[test]
    fn per_policy_runs_compose_into_the_full_run() {
        let full = run(2007, Scale::Quick);
        for &p in POLICIES {
            let solo = TournamentInputs::new(2007, Scale::Quick, p).run(None);
            let from_full: Vec<&TournamentCell> = full.iter().filter(|c| c.policy == p).collect();
            assert_eq!(solo.len(), from_full.len());
            for (s, f) in solo.iter().zip(from_full) {
                assert_eq!(s.scenario, f.scenario);
                assert_eq!(bits(s), bits(f), "{p}/{} differs solo vs full", s.scenario);
            }
        }
    }

    #[test]
    fn probe_overhead_counters_populate_cells() {
        let cells = TournamentInputs::new(2007, Scale::Quick, "random-set").run(None);
        for c in &cells {
            assert!(
                c.probe_paths_per_transfer > 0.0
                    && c.probe_paths_per_transfer <= TOURNAMENT_K as f64,
                "probe overhead out of range: {c:?}"
            );
        }
    }

    /// Total probe paths the pinned quick tournament (seed 11 — the run
    /// `tests/determinism.rs` snapshots into
    /// `tests/golden/tournament_cells.csv`) asks the network to pay,
    /// summed over every policy × scenario cell. A pure function of the
    /// seed; if it moves, a policy's decision sequence moved. Re-pin
    /// only after the tournament golden has been deliberately
    /// regenerated.
    const PINNED_TOURNAMENT_PROBE_PATHS: u64 = 750;

    #[test]
    fn pinned_tournament_probe_path_canary() {
        let per_policy: Vec<(&str, u64)> = POLICIES
            .iter()
            .map(|&p| {
                let n: f64 = TournamentInputs::new(11, Scale::Quick, p)
                    .run(None)
                    .iter()
                    .map(|c| c.probe_paths_per_transfer * c.transfers as f64)
                    .sum();
                (p, n.round() as u64)
            })
            .collect();
        let total: u64 = per_policy.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, PINNED_TOURNAMENT_PROBE_PATHS, "{per_policy:?}");
    }

    #[test]
    fn report_has_cells_csv_and_checks() {
        let r = report_of(&run(2007, Scale::Quick));
        assert_eq!(r.id, "tournament");
        assert_eq!(r.csv.len(), 1);
        let lines = r.csv[0].1.lines().count();
        assert_eq!(lines, 1 + POLICIES.len() * SCENARIOS.len());
        assert!(r.checks.len() >= 3);
    }
}
