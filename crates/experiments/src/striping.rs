//! Striping experiment: multi-source range striping vs the racing
//! session on the variability grid, including the penalty-tail cells
//! where single-path prediction goes stale.
//!
//! The paper's probe-then-commit session bets the whole remainder on
//! one path; Table I prices the penalty when that bet goes stale.
//! `SessionMode::Striped` hedges the bet by fetching disjoint chunks over
//! the direct path plus the best-k indirect paths and rebalancing when
//! observed rates drift. This sweep measures what the hedge buys on a
//! pinned grid of 2-relay scenarios — stable geometries where racing
//! is already right, and fault geometries where the probe's prediction
//! goes stale immediately after the decision:
//!
//! * **healthy** cells (no fault): striping must never cost more than
//!   a small straggler tail over racing, and `chunks = 1, k = 1`
//!   degenerates to the racer exactly (the differential suite's
//!   bit-identity, re-checked here as a completion-time ratio of 1).
//! * **stale** cells (a brownout right after the probe): racing keeps
//!   waiting — the path still trickles, so no stall ever fires — while
//!   the striper's drift rebalancer moves remaining chunks to healthy
//!   paths. Striping must be **strictly** faster on every such cell;
//!   this module's pinned-sweep test enforces it.
//! * **death** cells (an outage kills the winning path): both runners
//!   recover — racing via mid-transfer failover, striping via
//!   stall-death chunk reassignment — and the striper must finish with
//!   at least one recorded path death.
//!
//! Both runs enter through [`ir_core::run_session`] with a [`KShortest`]
//! selector of width k: the racer probes its `paths`, the striper its
//! `best_k(k)` — the same k chains, so racer and striper share one
//! selection path. The grid is pinned geometry (like the tournament's
//! ridge scenarios): constant-rate worlds and a deterministic selector
//! make every cell a pure function of the config, so the `seed`
//! parameter exists for CLI/fingerprint symmetry and future seeded
//! variants — cells are seed-invariant.

use crate::report::{csv, Check, Report};
use crate::runner::{parallel_map, Scale};
use ir_core::predictor::FirstPortion;
use ir_core::sim_transport::SimTransport;
use ir_core::{
    run_session, FailoverConfig, PathCtx, RebalanceConfig, SessionConfig, SessionMode, StripeStats,
    TransferRecord,
};
use ir_policy::{KShortest, KShortestConfig};
use ir_simnet::bandwidth::ConstantProcess;
use ir_simnet::faults::FaultPlan;
use ir_simnet::sim::Network;
use ir_simnet::time::{SimDuration, SimTime};
use ir_simnet::topology::{LinkId, NodeId, NodeKind, Topology};

/// Session horizon (seconds) for every cell; an unfinished transfer is
/// charged the full horizon.
pub const HORIZON_SECS: u64 = 3600;

/// Stripe widths swept (the best-k knob; the grid worlds carry two
/// relays, so 2 is the full set).
pub const KS: &[u32] = &[1, 2];

/// Fault pressure applied to a scenario's overlay uplinks. Faults land
/// at t = 1 s — mid-remainder, right after the probe decision — and
/// outlast the horizon, the exact "prediction went stale" geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Healthy network.
    None,
    /// The primary overlay uplink browns out to 2% capacity: it still
    /// trickles, so racing never sees a stall, and the probe's
    /// prediction is maximally stale.
    BrownoutPrimary,
    /// Both overlay uplinks fade to 5%: every indirect escape route
    /// goes stale at once and only the direct path stays honest.
    BrownoutBoth,
    /// The primary overlay uplink dies outright mid-transfer.
    OutagePrimary,
}

/// One scenario of the pinned grid: a 2-relay star with constant-rate
/// uplinks and a fault kind.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Cell label (CSV / table key).
    pub name: &'static str,
    /// Direct client→server rate (B/s).
    pub direct_rate: f64,
    /// Client→relay-1 rate (B/s); relay→server legs are effectively
    /// unconstrained.
    pub overlay1_rate: f64,
    /// Client→relay-2 rate (B/s).
    pub overlay2_rate: f64,
    /// Fault applied at t = 1 s.
    pub fault: FaultKind,
}

impl ScenarioSpec {
    /// Stale-prediction (penalty-tail) cell: the probe's winner browns
    /// out right after the decision but keeps trickling. These are the
    /// cells striping exists for; the tests require a strict win.
    pub fn is_stale(&self) -> bool {
        matches!(
            self.fault,
            FaultKind::BrownoutPrimary | FaultKind::BrownoutBoth
        )
    }
}

/// The pinned scenario grid.
pub const SCENARIOS: &[ScenarioSpec] = &[
    ScenarioSpec {
        name: "stable-direct",
        direct_rate: 800_000.0,
        overlay1_rate: 300_000.0,
        overlay2_rate: 200_000.0,
        fault: FaultKind::None,
    },
    ScenarioSpec {
        name: "stable-overlay",
        direct_rate: 100_000.0,
        overlay1_rate: 800_000.0,
        overlay2_rate: 500_000.0,
        fault: FaultKind::None,
    },
    ScenarioSpec {
        name: "split-capacity",
        direct_rate: 400_000.0,
        overlay1_rate: 800_000.0,
        overlay2_rate: 600_000.0,
        fault: FaultKind::None,
    },
    ScenarioSpec {
        name: "stale-brownout",
        direct_rate: 100_000.0,
        overlay1_rate: 800_000.0,
        overlay2_rate: 500_000.0,
        fault: FaultKind::BrownoutPrimary,
    },
    ScenarioSpec {
        name: "double-fade",
        direct_rate: 200_000.0,
        overlay1_rate: 800_000.0,
        overlay2_rate: 600_000.0,
        fault: FaultKind::BrownoutBoth,
    },
    ScenarioSpec {
        name: "overlay-death",
        direct_rate: 100_000.0,
        overlay1_rate: 800_000.0,
        overlay2_rate: 500_000.0,
        fault: FaultKind::OutagePrimary,
    },
];

/// Chunk counts swept at a scale.
pub fn chunk_grid(scale: Scale) -> &'static [u32] {
    match scale {
        Scale::Quick => &[8],
        Scale::Paper => &[4, 8, 16],
    }
}

/// The racing baseline: paper defaults with mid-transfer failover
/// enabled (the strongest single-path recovery the racer has) and the
/// cell horizon.
pub fn raced_session() -> SessionConfig {
    let mut cfg = SessionConfig::paper_defaults();
    cfg.failover = Some(FailoverConfig::paper_defaults());
    cfg.horizon = SimDuration::from_secs(HORIZON_SECS);
    cfg
}

/// The striped contender at a grid point.
pub fn striped_session(chunks: u32, k: u32) -> SessionConfig {
    let mut cfg = SessionConfig::paper_defaults();
    cfg.mode = SessionMode::Striped {
        chunks,
        k,
        rebalance: RebalanceConfig::paper_defaults(),
    };
    cfg.horizon = SimDuration::from_secs(HORIZON_SECS);
    cfg
}

/// The fault plan a scenario carries (see [`FaultKind`]). Exposed so
/// the sweep fingerprint can hash the plans directly.
pub fn scenario_fault_plan(kind: FaultKind, l_cv1: LinkId, l_cv2: LinkId) -> FaultPlan {
    let at = SimTime::from_secs(1);
    let until = SimTime::from_secs(4000);
    match kind {
        FaultKind::None => FaultPlan::default(),
        FaultKind::BrownoutPrimary => FaultPlan::default().brownout(l_cv1, at, until, 0.02),
        FaultKind::BrownoutBoth => FaultPlan::default()
            .brownout(l_cv1, at, until, 0.05)
            .brownout(l_cv2, at, until, 0.05),
        FaultKind::OutagePrimary => FaultPlan::default().link_outage(l_cv1, at, until),
    }
}

struct World {
    tp: SimTransport,
    topo: Topology,
    client: NodeId,
    relays: Vec<NodeId>,
    server: NodeId,
}

/// Builds a scenario's world: client, two relays, server; 80 ms direct
/// vs 50 + 15 ms overlay latency (the differential suite's star), with
/// the scenario's rates and fault plan installed.
fn build_world(spec: &ScenarioSpec) -> World {
    let mut t = Topology::new();
    let c = t.add_node("client", NodeKind::Client);
    let v1 = t.add_node("relay1", NodeKind::Intermediate);
    let v2 = t.add_node("relay2", NodeKind::Intermediate);
    let s = t.add_node("server", NodeKind::Server);
    let l_cs = t.add_link(c, s, SimDuration::from_millis(80));
    let l_cv1 = t.add_link(c, v1, SimDuration::from_millis(50));
    let l_v1s = t.add_link(v1, s, SimDuration::from_millis(15));
    let l_cv2 = t.add_link(c, v2, SimDuration::from_millis(50));
    let l_v2s = t.add_link(v2, s, SimDuration::from_millis(15));
    let topo = t.clone();
    let mut net = Network::new(t, 1.0);
    net.set_link_process(l_cs, Box::new(ConstantProcess::new(spec.direct_rate)));
    net.set_link_process(l_cv1, Box::new(ConstantProcess::new(spec.overlay1_rate)));
    net.set_link_process(l_v1s, Box::new(ConstantProcess::new(50e6)));
    net.set_link_process(l_cv2, Box::new(ConstantProcess::new(spec.overlay2_rate)));
    net.set_link_process(l_v2s, Box::new(ConstantProcess::new(50e6)));
    net.set_fault_plan(&scenario_fault_plan(spec.fault, l_cv1, l_cv2));
    World {
        tp: SimTransport::new(net),
        topo,
        client: c,
        relays: vec![v1, v2],
        server: s,
    }
}

/// One session on a freshly built world, through a k-shortest selector
/// of width `k`. Both overlay chains beat the direct path on latency
/// (65 vs 80 ms), so `k = 1` yields the first relay and `k = 2` both,
/// deterministically.
fn run_world(spec: &ScenarioSpec, k: u32, cfg: &SessionConfig) -> (TransferRecord, StripeStats) {
    let mut w = build_world(spec);
    let mut selector = KShortest::new(KShortestConfig {
        k: k as usize,
        ..KShortestConfig::default()
    });
    let ctx = PathCtx {
        client: w.client,
        server: w.server,
        relays: &w.relays,
        topo: &w.topo,
        transfer_index: 0,
    };
    run_session(&mut w.tp, &mut selector, &mut FirstPortion, &ctx, cfg, None)
}

/// One (scenario, k, chunks) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct StripeCell {
    /// Scenario label.
    pub scenario: String,
    /// Stripe width (indirect candidates).
    pub k: u32,
    /// Remainder chunk count.
    pub chunks: u32,
    /// Stale-prediction (penalty-tail) cell.
    pub stale: bool,
    /// Racing completion time (s; horizon when abandoned).
    pub raced_secs: f64,
    /// Striped completion time (s; horizon when abandoned).
    pub striped_secs: f64,
    /// `striped_secs / raced_secs` — < 1 ⇒ striping wins.
    pub ratio: f64,
    /// Chunk reassignments (stall + drift) in the striped run.
    pub reassignments: u32,
    /// Paths declared dead in the striped run.
    pub deaths: u32,
    /// Chunks the direct path carried.
    pub direct_chunks: u64,
    /// Chunks the overlay paths carried.
    pub overlay_chunks: u64,
}
ir_artifact::declare! {
    Codec for struct StripeCell {
        scenario,
        k,
        chunks,
        stale,
        raced_secs,
        striped_secs,
        ratio,
        reassignments,
        deaths,
        direct_chunks,
        overlay_chunks,
    }
}

fn completion_secs(rec: &TransferRecord) -> f64 {
    if rec.selected_throughput > 0.0 {
        rec.file_bytes as f64 / rec.selected_throughput
    } else {
        HORIZON_SECS as f64
    }
}

fn run_cell(spec: &ScenarioSpec, k: u32, chunks: u32) -> StripeCell {
    let (raced, _) = run_world(spec, k, &raced_session());
    let (rec, stats) = run_world(spec, k, &striped_session(chunks, k));
    let raced_secs = completion_secs(&raced);
    let striped_secs = completion_secs(&rec);
    let direct_chunks = stats
        .per_path
        .iter()
        .filter(|p| !p.path.is_indirect())
        .map(|p| p.chunks)
        .sum();
    let overlay_chunks = stats
        .per_path
        .iter()
        .filter(|p| p.path.is_indirect())
        .map(|p| p.chunks)
        .sum();
    StripeCell {
        scenario: spec.name.into(),
        k,
        chunks,
        stale: spec.is_stale(),
        raced_secs,
        striped_secs,
        ratio: striped_secs / raced_secs,
        reassignments: stats.reassignments,
        deaths: stats.deaths,
        direct_chunks,
        overlay_chunks,
    }
}

/// Runs the sweep: every scenario × stripe width × chunk count, each
/// cell a raced baseline and a striped run on identically built
/// worlds. Cells are independent, so they run on the worker pool;
/// output order is the grid order regardless of thread count.
pub fn run(_seed: u64, scale: Scale) -> Vec<StripeCell> {
    let grid: Vec<(&ScenarioSpec, u32, u32)> = SCENARIOS
        .iter()
        .flat_map(|s| {
            KS.iter()
                .flat_map(move |&k| chunk_grid(scale).iter().map(move |&chunks| (s, k, chunks)))
        })
        .collect();
    parallel_map(grid.len(), |i| {
        let (spec, k, chunks) = grid[i];
        run_cell(spec, k, chunks)
    })
}

/// Builds the striping report from precomputed (possibly
/// cache-restored) sweep cells.
pub fn report_of(cells: &[StripeCell]) -> Report {
    let mut table = ir_stats::TextTable::new()
        .title("striped vs raced completion on the variability grid")
        .header([
            "scenario",
            "k",
            "chunks",
            "raced s",
            "striped s",
            "ratio",
            "reassign",
            "deaths",
            "chunks d/o",
        ]);
    let mut rows = Vec::new();
    for c in cells {
        table.row([
            c.scenario.clone(),
            c.k.to_string(),
            c.chunks.to_string(),
            format!("{:.1}", c.raced_secs),
            format!("{:.1}", c.striped_secs),
            format!("{:.3}", c.ratio),
            c.reassignments.to_string(),
            c.deaths.to_string(),
            format!("{}/{}", c.direct_chunks, c.overlay_chunks),
        ]);
        rows.push(vec![
            c.scenario.clone(),
            c.k.to_string(),
            c.chunks.to_string(),
            (c.stale as u8).to_string(),
            format!("{:.4}", c.raced_secs),
            format!("{:.4}", c.striped_secs),
            format!("{:.4}", c.ratio),
            c.reassignments.to_string(),
            c.deaths.to_string(),
            c.direct_chunks.to_string(),
            c.overlay_chunks.to_string(),
        ]);
    }

    let stale: Vec<&StripeCell> = cells.iter().filter(|c| c.stale).collect();
    let healthy: Vec<&StripeCell> = cells.iter().filter(|c| !c.stale && c.deaths == 0).collect();
    let death: Vec<&StripeCell> = cells
        .iter()
        .filter(|c| c.scenario == "overlay-death")
        .collect();
    let worst_stale = stale
        .iter()
        .map(|c| c.ratio)
        .fold(f64::NEG_INFINITY, f64::max);
    let best_stale = stale.iter().map(|c| c.ratio).fold(f64::INFINITY, f64::min);
    let worst_healthy = healthy
        .iter()
        .map(|c| c.ratio)
        .fold(f64::NEG_INFINITY, f64::max);
    let stale_reassignments: u64 = stale.iter().map(|c| c.reassignments as u64).sum();
    let min_death_recoveries = death
        .iter()
        .map(|c| (c.reassignments + c.deaths) as f64)
        .fold(f64::INFINITY, f64::min);

    let mut body = table.render();
    body.push_str(&format!(
        "\nstale cells: worst ratio {worst_stale:.3}, best {best_stale:.3}, \
         {stale_reassignments} chunk reassignments\n\
         healthy cells: worst ratio {worst_healthy:.3}\n"
    ));

    Report {
        id: "striping",
        title: "Multi-source striping vs racing on the variability grid".into(),
        body,
        csv: vec![(
            "cells".into(),
            csv(
                &[
                    "scenario",
                    "k",
                    "chunks",
                    "stale",
                    "raced_secs",
                    "striped_secs",
                    "ratio",
                    "reassignments",
                    "deaths",
                    "direct_chunks",
                    "overlay_chunks",
                ],
                &rows,
            ),
        )],
        checks: vec![
            // The tentpole claim: striping strictly beats racing on
            // every stale-prediction cell (the penalty tail).
            Check::banded(
                "stale cells, worst striped/raced ratio",
                0.5,
                worst_stale,
                0.0,
                0.999,
            ),
            // And costs at most a small straggler tail when racing is
            // already right.
            Check::banded(
                "healthy cells, worst striped/raced ratio",
                1.0,
                worst_healthy,
                0.0,
                1.1,
            ),
            // The stale wins must come from the rebalancer, not luck.
            Check::banded(
                "stale cells, chunk reassignments (count)",
                1.0,
                stale_reassignments as f64,
                1.0,
                1.0e9,
            ),
            // Death cells: every striped run recovers the orphaned
            // work — by drift-steal before the stall timer (a
            // reassignment) or by stall-death (a death + reassignment).
            Check::banded(
                "path-death cells, min recoveries per run",
                1.0,
                min_death_recoveries,
                1.0,
                1.0e9,
            ),
            Check::info("stale cells, best striped/raced ratio", 0.5, best_stale),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_striping_wins_the_penalty_tail() {
        let a = run(11, Scale::Quick);
        let b = run(11, Scale::Quick);
        assert_eq!(
            a.len(),
            SCENARIOS.len() * KS.len() * chunk_grid(Scale::Quick).len()
        );
        assert_eq!(a, b, "cells diverged across runs");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.raced_secs.to_bits(), y.raced_secs.to_bits());
            assert_eq!(x.striped_secs.to_bits(), y.striped_secs.to_bits());
            assert_eq!(x.ratio.to_bits(), y.ratio.to_bits());
        }
        // Every stale cell is a strict striping win, with the
        // rebalancer engaged.
        for c in a.iter().filter(|c| c.stale) {
            assert!(c.ratio < 1.0, "striping lost a stale cell: {c:?}");
            assert!(c.reassignments > 0, "no rebalancing in {c:?}");
        }
        // Death cells survive the outage and record the recovery:
        // either the drift-steal beat the stall timer (reassignment,
        // no death) or stall-death fired (death + reassignment).
        for c in a.iter().filter(|c| c.scenario == "overlay-death") {
            assert!(c.reassignments + c.deaths >= 1, "{c:?}");
            assert!(c.striped_secs < HORIZON_SECS as f64, "{c:?}");
        }
        // Healthy cells never abandon and account every chunk.
        for c in a.iter().filter(|c| !c.stale) {
            assert_eq!(c.direct_chunks + c.overlay_chunks, c.chunks as u64, "{c:?}");
        }
    }

    /// Total chunks the direct path carries across the pinned sweep
    /// (seed 2007, Quick). A pure function of the chunk scheduler —
    /// EWMA seeds, drift thresholds, claim order — so any drift means
    /// the striper's assignment sequence changed and the golden CSV is
    /// suspect. Re-pin only after `tests/golden/striping_cells.csv` has
    /// been deliberately regenerated.
    const PINNED_STRIPE_DIRECT_CHUNKS: u64 = 33;

    /// The pinned sweep's acceptance conditions: the penalty tail is a
    /// strict striping win, healthy overhead stays in the report band,
    /// the rebalancer engages on the stale cells, and the
    /// chunk-assignment canary holds.
    #[test]
    fn pinned_sweep_ratio_bands_and_direct_chunk_canary() {
        let cells = run(2007, Scale::Quick);
        let (stale, healthy): (Vec<_>, Vec<_>) = cells.iter().partition(|c| c.stale);
        assert_eq!((cells.len(), stale.len()), (12, 4));
        let worst = |cs: &[&StripeCell]| cs.iter().map(|c| c.ratio).fold(f64::MIN, f64::max);
        assert!(worst(&stale) < 1.0, "striping lost a stale cell: {stale:?}");
        assert!(
            worst(&healthy) <= 1.1,
            "straggler tail outgrew its budget: {healthy:?}"
        );
        let reassignments: u64 = stale.iter().map(|c| c.reassignments as u64).sum();
        assert!(reassignments > 0, "the drift/stall machinery went dark");
        let direct_chunks: u64 = cells.iter().map(|c| c.direct_chunks).sum();
        assert_eq!(direct_chunks, PINNED_STRIPE_DIRECT_CHUNKS);
    }

    /// `chunks = 1, k = 1` on a healthy cell is the racer: the
    /// completion-time ratio is exactly 1 (the differential suite
    /// proves bit-identity of the records; this pins the derived
    /// metric the artefact reports).
    #[test]
    fn single_chunk_k1_ratio_is_exactly_one() {
        let cell = run_cell(&SCENARIOS[1], 1, 1);
        assert_eq!(cell.ratio.to_bits(), 1.0f64.to_bits(), "{cell:?}");
        assert_eq!(cell.reassignments, 0);
        assert_eq!(cell.deaths, 0);
    }

    /// `cfg.mode` is honoured from the selector-level entry: a striped
    /// config handed to `run_session` stripes (at the parent it raced),
    /// and the stripe width follows `best_k` — k = 2 probes direct plus
    /// both relays and carries chunks on at least two paths, k = 1
    /// probes one relay.
    #[test]
    fn striped_mode_is_honoured_through_the_selector_entry() {
        let spec = &SCENARIOS[2]; // split-capacity: every path useful
        let (rec, stats) = run_world(spec, 2, &striped_session(4, 2));
        assert!(!rec.abandoned);
        assert_eq!(stats.per_path.len(), 3, "probe set: direct + 2 relays");
        assert_eq!(rec.candidates.len(), 2);
        let carrying = stats.per_path.iter().filter(|p| p.chunks > 0).count();
        assert!(carrying >= 2, "chunks on {carrying} path(s): {stats:?}");
        assert_eq!(stats.per_path.iter().map(|p| p.chunks).sum::<u64>(), 4);

        let (_, narrow) = run_world(spec, 1, &striped_session(4, 1));
        assert_eq!(narrow.per_path.len(), 2, "k = 1: direct + one relay");
        assert_eq!(narrow.per_path[1].path, stats.per_path[1].path);

        let (_, raced) = run_world(spec, 2, &raced_session());
        assert!(raced.per_path.is_empty(), "racing has no stripe stats");
    }

    #[test]
    fn report_has_cells_and_csv() {
        let r = report_of(&run(11, Scale::Quick));
        assert_eq!(r.id, "striping");
        assert_eq!(r.csv.len(), 1);
        let lines = r.csv[0].1.lines().count();
        assert_eq!(
            lines,
            1 + SCENARIOS.len() * KS.len() * chunk_grid(Scale::Quick).len()
        );
        assert!(!r.checks.is_empty());
    }
}
