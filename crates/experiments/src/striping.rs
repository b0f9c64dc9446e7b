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
use crate::runner::{fold_engine, parallel_map, Scale, SessionTally};
use ir_artifact::Unframed;
use ir_core::sim_transport::SimTransport;
use ir_core::{
    run_session, FailoverConfig, PathCtx, PathSelector, RebalanceConfig, SessionConfig,
    SessionMode, StripeStats, TransferRecord,
};
use ir_policy::{KShortest, KShortestConfig};
use ir_simnet::bandwidth::ConstantProcess;
use ir_simnet::faults::{FaultEvent, FaultPlan};
use ir_simnet::sim::Network;
use ir_simnet::time::{SimDuration, SimTime};
use ir_simnet::topology::{LinkId, NodeId, NodeKind, Topology};
use ir_telemetry::Telemetry;
use std::sync::Arc;

/// Session horizon (seconds) for every cell; an unfinished transfer is
/// charged the full horizon.
pub const HORIZON_SECS: u64 = 3600;

/// Stripe widths swept (the best-k knob; the grid worlds carry two
/// relays, so 2 is the full set).
pub const KS: &[u64] = &[1, 2];

/// A grid scenario as its cells run it: its label, the direct and two
/// uplink rates (B/s; the relay→server legs are effectively
/// unconstrained), and the fault plan on its uplinks.
#[derive(Debug, Clone)]
struct StripeScenario {
    name: &'static str,
    direct_rate: f64,
    overlay1_rate: f64,
    overlay2_rate: f64,
    faults: FaultPlan,
}
ir_artifact::declare! {
    StableHash for struct StripeScenario { name, direct_rate, overlay1_rate, overlay2_rate, faults }
}

/// What the striping sweep runs on, in key order: the seed (carried for
/// CLI symmetry; cells are seed-invariant), the session horizon (an
/// unfinished transfer is charged all of it), the stripe widths and
/// chunk counts swept, the racing baseline (mid-transfer failover on),
/// the striped contender at 8 chunks × k = 2 (each cell sets its own),
/// and the grid in cell order.
#[derive(Debug, Clone)]
pub struct StripingInputs {
    seed: u64,
    horizon_secs: u64,
    ks: &'static [u64],
    chunks: &'static [u64],
    raced: SessionConfig,
    striped: SessionConfig,
    scenarios: Unframed<StripeScenario>,
}
ir_artifact::declare! {
    StableHash for struct StripingInputs {
        seed, horizon_secs, ks, chunks, raced, striped, scenarios
    }
}

impl StripingInputs {
    /// The pinned grid at a scale: 8 chunks at Quick, 4, 8 and 16 at
    /// Paper.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let defaults = SessionConfig {
            horizon: SimDuration::from_secs(HORIZON_SECS),
            ..SessionConfig::paper_defaults()
        };
        // Faults land at t = 1 s — mid-remainder, right after the probe
        // decision — and outlast the horizon: the exact "prediction went
        // stale" geometry.
        let (_, _, [_, up1, _, up2, _]) = star();
        let (at, until) = (SimTime::from_secs(1), SimTime::from_secs(4000));
        let healthy = FaultPlan::none;
        let scenario = |name, direct_rate, overlay1_rate, overlay2_rate, faults| StripeScenario {
            name,
            direct_rate,
            overlay1_rate,
            overlay2_rate,
            faults,
        };
        let scenarios = vec![
            scenario("stable-direct", 800e3, 300e3, 200e3, healthy()),
            scenario("stable-overlay", 100e3, 800e3, 500e3, healthy()),
            scenario("split-capacity", 400e3, 800e3, 600e3, healthy()),
            // The primary uplink browns out to 2 %: it still trickles, so
            // racing never sees a stall, and the probe's prediction is
            // maximally stale.
            scenario("stale-brownout", 100e3, 800e3, 500e3, {
                healthy().brownout(up1, at, until, 0.02)
            }),
            // Both uplinks fade to 5 %: every indirect escape route goes
            // stale at once and only the direct path stays honest.
            scenario("double-fade", 200e3, 800e3, 600e3, {
                let fade = healthy().brownout(up1, at, until, 0.05);
                fade.brownout(up2, at, until, 0.05)
            }),
            // The primary uplink dies outright mid-transfer.
            scenario("overlay-death", 100e3, 800e3, 500e3, {
                healthy().link_outage(up1, at, until)
            }),
        ];
        StripingInputs {
            seed,
            horizon_secs: HORIZON_SECS,
            ks: KS,
            chunks: match scale {
                Scale::Quick => &[8],
                Scale::Paper => &[4, 8, 16],
            },
            raced: SessionConfig {
                failover: Some(FailoverConfig::paper_defaults()),
                ..defaults
            },
            striped: SessionConfig {
                mode: SessionMode::Striped {
                    chunks: 8,
                    k: 2,
                    rebalance: RebalanceConfig::paper_defaults(),
                },
                ..defaults
            },
            scenarios: Unframed(scenarios),
        }
    }

    /// The striped contender at a grid point.
    fn striped_at(&self, chunks: u32, k: u32) -> SessionConfig {
        let mut cfg = self.striped;
        if let SessionMode::Striped {
            chunks: c, k: w, ..
        } = &mut cfg.mode
        {
            (*c, *w) = (chunks, k);
        }
        cfg
    }

    /// Runs the sweep: every scenario × stripe width × chunk count, each
    /// cell a raced baseline and a striped run on identically built
    /// worlds. Cells are independent, so they run on the worker pool;
    /// output order is the grid order regardless of thread count.
    /// Reports into `tel` when given.
    pub fn run(&self, tel: Option<Arc<Telemetry>>) -> Vec<StripeCell> {
        let mut grid = Vec::new();
        for scenario in &self.scenarios.0 {
            for &k in self.ks {
                grid.extend(self.chunks.iter().map(|&c| (scenario, k as u32, c as u32)));
            }
        }
        parallel_map(grid.len(), |i| {
            let (scenario, k, chunks) = grid[i];
            self.run_cell(scenario, k, chunks, tel.as_ref())
        })
    }

    fn run_cell(
        &self,
        scenario: &StripeScenario,
        k: u32,
        chunks: u32,
        tel: Option<&Arc<Telemetry>>,
    ) -> StripeCell {
        let (raced, _) = run_world(scenario, k, &self.raced, tel);
        let (rec, stats) = run_world(scenario, k, &self.striped_at(chunks, k), tel);
        let completion_secs = |rec: &TransferRecord| {
            if rec.selected_throughput > 0.0 {
                rec.file_bytes as f64 / rec.selected_throughput
            } else {
                self.horizon_secs as f64
            }
        };
        let raced_secs = completion_secs(&raced);
        let striped_secs = completion_secs(&rec);
        let chunks_on = |indirect: bool| {
            let paths = stats.per_path.iter();
            paths
                .filter(|p| p.path.is_indirect() == indirect)
                .map(|p| p.chunks)
                .sum()
        };
        let mut faults = scenario.faults.events().iter();
        StripeCell {
            scenario: scenario.name.into(),
            k,
            chunks,
            // Stale-prediction (penalty-tail) cell: an uplink browns out
            // right after the decision but keeps trickling.
            stale: faults.any(|(_, e)| matches!(e, FaultEvent::BrownoutSet { .. })),
            raced_secs,
            striped_secs,
            ratio: striped_secs / raced_secs,
            reassignments: stats.reassignments,
            deaths: stats.deaths,
            direct_chunks: chunks_on(false),
            overlay_chunks: chunks_on(true),
        }
    }
}

/// Runs the sweep at a scale (see [`StripingInputs::run`]).
pub fn run(seed: u64, scale: Scale) -> Vec<StripeCell> {
    StripingInputs::new(seed, scale).run(None)
}

struct World {
    tp: SimTransport,
    topo: Topology,
    client: NodeId,
    relays: Vec<NodeId>,
    server: NodeId,
}

/// The star every cell runs on: client, two relays, server; 80 ms
/// direct vs 50 + 15 ms overlay latency (the differential suite's
/// star). Nodes are client, relay 1, relay 2, server; links are the
/// direct path, then each relay's uplink and downlink.
fn star() -> (Topology, [NodeId; 4], [LinkId; 5]) {
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
    (t, [c, v1, v2, s], [l_cs, l_cv1, l_v1s, l_cv2, l_v2s])
}

/// Builds a scenario's world: the star with the scenario's rates and
/// fault plan installed, reporting into `tel` when given.
fn build_world(scenario: &StripeScenario, tel: Option<&Arc<Telemetry>>) -> World {
    let (topo, [c, v1, v2, s], [l_cs, l_cv1, l_v1s, l_cv2, l_v2s]) = star();
    let mut net = Network::new(topo.clone(), 1.0);
    let mut rate = |l, r| net.set_link_process(l, Box::new(ConstantProcess::new(r)));
    rate(l_cs, scenario.direct_rate);
    rate(l_cv1, scenario.overlay1_rate);
    rate(l_v1s, 50e6);
    rate(l_cv2, scenario.overlay2_rate);
    rate(l_v2s, 50e6);
    net.set_fault_plan(&scenario.faults);
    net.set_telemetry(tel.cloned());
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
fn run_world(
    scenario: &StripeScenario,
    k: u32,
    cfg: &SessionConfig,
    tel: Option<&Arc<Telemetry>>,
) -> (TransferRecord, StripeStats) {
    let mut w = build_world(scenario, tel);
    let start = w.tp.engine_stats();
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
    let tracer = tel.and_then(|t| t.tracer.as_ref());
    let (rec, stats, counts) = run_session(&mut w.tp, &mut selector, &ctx, cfg, tracer);
    if let Some(tel) = tel {
        fold_engine(tel, w.tp.engine_stats() - start);
        let mut tally = SessionTally::default();
        tally.add(&rec, &stats, &counts);
        tally.fold(tel, selector.name());
    }
    (rec, stats)
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

    /// Cells of the quick sweep: scenarios × stripe widths × chunk counts.
    fn quick_cells() -> usize {
        let inputs = StripingInputs::new(11, Scale::Quick);
        inputs.scenarios.0.len() * inputs.ks.len() * inputs.chunks.len()
    }

    #[test]
    fn sweep_is_deterministic_and_striping_wins_the_penalty_tail() {
        let a = run(11, Scale::Quick);
        let b = run(11, Scale::Quick);
        assert_eq!(a.len(), quick_cells());
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
        let inputs = StripingInputs::new(11, Scale::Quick);
        let cell = inputs.run_cell(&inputs.scenarios.0[1], 1, 1, None);
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
        let inputs = StripingInputs::new(11, Scale::Quick);
        let spec = &inputs.scenarios.0[2]; // split-capacity: every path useful
        let (rec, stats) = run_world(spec, 2, &inputs.striped_at(4, 2), None);
        assert!(!rec.abandoned);
        assert_eq!(stats.per_path.len(), 3, "probe set: direct + 2 relays");
        assert_eq!(rec.candidates.len(), 2);
        let carrying = stats.per_path.iter().filter(|p| p.chunks > 0).count();
        assert!(carrying >= 2, "chunks on {carrying} path(s): {stats:?}");
        assert_eq!(stats.per_path.iter().map(|p| p.chunks).sum::<u64>(), 4);

        let (_, narrow) = run_world(spec, 1, &inputs.striped_at(4, 1), None);
        assert_eq!(narrow.per_path.len(), 2, "k = 1: direct + one relay");
        assert_eq!(narrow.per_path[1].path, stats.per_path[1].path);

        let (_, raced) = run_world(spec, 2, &inputs.raced, None);
        assert!(raced.per_path.is_empty(), "racing has no stripe stats");
    }

    #[test]
    fn report_has_cells_and_csv() {
        let r = report_of(&run(11, Scale::Quick));
        assert_eq!(r.id, "striping");
        assert_eq!(r.csv.len(), 1);
        let lines = r.csv[0].1.lines().count();
        assert_eq!(lines, 1 + quick_cells());
        assert!(!r.checks.is_empty());
    }
}
