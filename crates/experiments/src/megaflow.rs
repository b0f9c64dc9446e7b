//! Megaflow — the engine's scale artefact.
//!
//! A synthetic fan-in datacenter workload built to stress exactly the
//! structure the engine's component decomposition exploits: `racks`
//! top-of-rack switches, each with `hosts_per_rack` hosts behind a
//! per-flow access link and one shared `Capacity` uplink to a single
//! origin. Every congestion
//! component is one rack (the access links are `PerFlow` and fold into
//! flow caps), so the global allocation decomposes into `racks`
//! independent problems of `hosts_per_rack × flows_per_host` flows
//! each, and a boundary re-solves only the rack whose flows finished.
//!
//! At [`MegaflowConfig::paper`] scale this is **1.01M concurrent
//! transfers over a 10,401-node roster** — far past anything the
//! paper's own studies need, which is the point: the artefact proves
//! the engine completes it and reports the decomposition stats
//! (boundaries, component solves, completion batches). Flows within a
//! rack wave share one uplink equally and therefore finish in a single
//! batched boundary, so the whole 1M-flow study costs only
//! `≈ racks × waves` solve boundaries.
//!
//! Everything in [`MegaflowResult`] is a pure function of
//! `(seed, config)` — wall-clock timings live in the benchmark
//! (`irbench`'s `megaflow-200k` workload), never in the artefact, so
//! the study caches and replays byte-identically.

use crate::report::{csv, Check, Report};
use ir_simnet::prelude::*;
use ir_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Geometry and rates of a megaflow run. All fields are semantic
/// inputs: the declaration below hashes each one into the study
/// fingerprint and frames it into the cached result, so a new field
/// does not compile until it is listed — and listing it moves both, so
/// bump the `megaflow` entry of [`crate::sweep::SALTS`] with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MegaflowConfig {
    /// Top-of-rack switches; one congestion component each.
    pub racks: u32,
    /// Hosts behind each ToR (per-flow access links).
    pub hosts_per_rack: u32,
    /// Concurrent transfers each host runs.
    pub flows_per_host: u32,
    /// Arrival waves: flow `j` of a host starts at wave `j % waves`.
    pub waves: u32,
    /// Milliseconds between wave starts.
    pub wave_stagger_ms: u64,
    /// Bytes per transfer.
    pub file_bytes: u64,
    /// Host access-link rate, bytes/s (`PerFlow`; deliberately
    /// non-binding so the rack uplink is the bottleneck).
    pub host_rate: u64,
    /// Base ToR→origin uplink capacity, bytes/s. Each rack gets a
    /// seeded jitter on top so completion batches land at distinct
    /// instants per rack.
    pub rack_base_rate: u64,
}
// The counts hash as `u64` — the width the fingerprint has always used —
// and frame at their own.
ir_artifact::declare! {
    StableHash + Codec for struct MegaflowConfig {
        racks as u64,
        hosts_per_rack as u64,
        flows_per_host as u64,
        waves as u64,
        wave_stagger_ms,
        file_bytes,
        host_rate,
        rack_base_rate,
    }
}

impl MegaflowConfig {
    /// The headline scale: 400 racks × 25 hosts × 101 flows =
    /// 1,010,000 concurrent transfers over 10,401 nodes.
    pub fn paper() -> Self {
        MegaflowConfig {
            racks: 400,
            hosts_per_rack: 25,
            flows_per_host: 101,
            waves: 2,
            wave_stagger_ms: 10_000,
            file_bytes: 2_000_000,
            host_rate: 1_000_000_000,
            rack_base_rate: 50_000_000,
        }
    }

    /// A seconds-scale geometry for tests and the quick sweep: 8 racks
    /// × 4 hosts × 5 flows = 160 transfers over 41 nodes, same shape.
    pub fn mini() -> Self {
        MegaflowConfig {
            racks: 8,
            hosts_per_rack: 4,
            flows_per_host: 5,
            waves: 2,
            wave_stagger_ms: 10_000,
            file_bytes: 2_000_000,
            host_rate: 1_000_000_000,
            rack_base_rate: 50_000_000,
        }
    }

    /// Total concurrent transfers.
    pub fn total_flows(&self) -> u64 {
        self.racks as u64 * self.hosts_per_rack as u64 * self.flows_per_host as u64
    }

    /// Roster size: hosts + ToRs + the origin.
    pub fn total_nodes(&self) -> u64 {
        self.racks as u64 * self.hosts_per_rack as u64 + self.racks as u64 + 1
    }
}

/// Deterministic outcome of a megaflow run. Engine-mode invariant (the
/// differential suite's guarantee).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MegaflowResult {
    /// The geometry that produced this result.
    pub cfg: MegaflowConfig,
    /// Nodes in the topology.
    pub nodes: u64,
    /// Flows started / completed (must match).
    pub flows_started: u64,
    /// Flows that ran to completion.
    pub flows_completed: u64,
    /// Engine solve boundaries crossed.
    pub boundaries: u64,
    /// Full (from-scratch) allocation solves.
    pub full_solves: u64,
    /// Boundary-advance solves that reused the incremental state.
    pub incremental_solves: u64,
    /// Sum over solves of the component count — the decomposition's
    /// work units.
    pub component_solves: u64,
    /// Distinct completion instants (batched rack finishes).
    pub completion_batches: u64,
    /// Finish time of the last flow, microseconds.
    pub makespan_us: u64,
}
ir_artifact::declare! {
    Codec for struct MegaflowResult {
        cfg,
        nodes,
        flows_started,
        flows_completed,
        boundaries,
        full_solves,
        incremental_solves,
        component_solves,
        completion_batches,
        makespan_us,
    }
}

impl MegaflowResult {
    /// Mean congestion components per allocation solve.
    pub fn components_per_solve(&self) -> f64 {
        let solves = self.full_solves + self.incremental_solves;
        if solves == 0 {
            0.0
        } else {
            self.component_solves as f64 / solves as f64
        }
    }
}

/// Runs the megaflow study: builds the fan-in topology, launches every
/// wave, and drives the engine to quiescence under `engine`.
///
/// `seed` jitters each rack's uplink capacity (±25% around
/// `rack_base_rate`) so rack batches complete at distinct, seeded
/// instants.
pub fn run(
    seed: u64,
    cfg: &MegaflowConfig,
    engine: EngineMode,
    tel: Option<Arc<Telemetry>>,
) -> MegaflowResult {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4D45_4741);
    let mut topo = Topology::new();
    let origin = topo.add_node("origin".to_string(), NodeKind::Server);
    let mut rack_links = Vec::with_capacity(cfg.racks as usize);
    let mut routes = Vec::with_capacity((cfg.racks * cfg.hosts_per_rack) as usize);
    for r in 0..cfg.racks {
        let tor = topo.add_node(format!("tor{r}"), NodeKind::Intermediate);
        let up = topo.add_link_shared(tor, origin, SimDuration::from_millis(1), Sharing::Capacity);
        rack_links.push(up);
        for h in 0..cfg.hosts_per_rack {
            let host = topo.add_node(format!("h{r}.{h}"), NodeKind::Client);
            topo.add_link_shared(host, tor, SimDuration::from_millis(1), Sharing::PerFlow);
            routes.push(topo.route(&[host, tor, origin]).expect("fan-in route"));
        }
    }
    // Seeded per-rack capacity jitter, drawn before network
    // construction so the draw order is fixed by the config alone.
    let rack_rates: Vec<f64> = (0..cfg.racks)
        .map(|_| cfg.rack_base_rate as f64 * rng.gen_range(0.75..1.25))
        .collect();

    let mut net = Network::new(topo, cfg.host_rate as f64);
    for (&l, &rate) in rack_links.iter().zip(&rack_rates) {
        net.set_link_process(l, Box::new(ConstantProcess::new(rate)));
    }
    net.set_engine_mode(engine);
    net.set_telemetry(tel);

    let mut completions: Vec<CompletedFlow> = Vec::new();
    let mut flows_started = 0u64;
    for wave in 0..cfg.waves {
        completions
            .extend(net.advance_until(SimTime::from_millis(wave as u64 * cfg.wave_stagger_ms)));
        for route in &routes {
            for j in 0..cfg.flows_per_host {
                if j % cfg.waves == wave {
                    net.start_flow(route.clone(), cfg.file_bytes, Box::new(NoCap));
                    flows_started += 1;
                }
            }
        }
    }
    // Quiescence horizon: the slowest rack (max jitter 1.25 ⇒ min 0.75)
    // at full load, with generous slack; the engine stops advancing
    // once the last flow completes, so slack costs nothing.
    let worst_secs = (cfg.waves as u64 * cfg.wave_stagger_ms).div_ceil(1000)
        + 4 * (cfg.file_bytes * cfg.hosts_per_rack as u64 * cfg.flows_per_host as u64)
            .div_ceil(cfg.rack_base_rate.max(1));
    completions.extend(net.advance_until(SimTime::from_secs(worst_secs)));

    let mut finish_times: Vec<u64> = completions.iter().map(|c| c.finished.0).collect();
    finish_times.sort_unstable();
    let makespan_us = finish_times
        .last()
        .map(|&t| SimTime(t).as_micros())
        .unwrap_or(0);
    finish_times.dedup();

    let stats = net.stats();
    MegaflowResult {
        cfg: *cfg,
        nodes: cfg.total_nodes(),
        flows_started,
        flows_completed: stats.flows_completed,
        boundaries: stats.boundaries,
        full_solves: stats.full_solves,
        incremental_solves: stats.incremental_solves,
        component_solves: stats.component_solves,
        completion_batches: finish_times.len() as u64,
        makespan_us,
    }
}

/// Renders the report from a (possibly cache-restored) result.
pub fn report_of(r: &MegaflowResult) -> Report {
    let mut table = ir_stats::TextTable::new()
        .title("megaflow: component-decomposed engine at scale")
        .header(["metric", "value"]);
    let rows_src: Vec<(&str, String)> = vec![
        ("racks", r.cfg.racks.to_string()),
        ("hosts", (r.cfg.racks * r.cfg.hosts_per_rack).to_string()),
        ("nodes", r.nodes.to_string()),
        ("flows started", r.flows_started.to_string()),
        ("flows completed", r.flows_completed.to_string()),
        ("boundaries", r.boundaries.to_string()),
        ("full solves", r.full_solves.to_string()),
        ("incremental solves", r.incremental_solves.to_string()),
        ("component solves", r.component_solves.to_string()),
        (
            "components per solve",
            format!("{:.1}", r.components_per_solve()),
        ),
        ("completion batches", r.completion_batches.to_string()),
        ("makespan (s)", format!("{:.1}", r.makespan_us as f64 / 1e6)),
    ];
    let mut rows = Vec::new();
    for (k, v) in &rows_src {
        table.row([k.to_string(), v.clone()]);
        rows.push(vec![k.to_string(), v.clone()]);
    }

    // Rack waves complete in batches: the whole study must cost on the
    // order of racks × waves boundaries, not one per flow.
    let expected_batches = (r.cfg.racks * r.cfg.waves) as f64;
    Report {
        id: "megaflow",
        title: format!(
            "Megaflow: {} flows / {} nodes through the fair-share engine",
            r.flows_started, r.nodes
        ),
        body: table.render(),
        csv: vec![("stats".into(), csv(&["metric", "value"], &rows))],
        checks: vec![
            Check::banded(
                "flows completed / started",
                1.0,
                if r.flows_started == 0 {
                    0.0
                } else {
                    r.flows_completed as f64 / r.flows_started as f64
                },
                1.0,
                1.0,
            ),
            Check::banded(
                "completion batches / (racks × waves)",
                1.0,
                r.completion_batches as f64 / expected_batches,
                0.5,
                1.5,
            ),
            // The decomposition must actually engage: one component per
            // rack on every solve that matters.
            Check::banded(
                "components per solve / racks",
                1.0,
                r.components_per_solve() / r.cfg.racks as f64,
                0.4,
                1.1,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Boundary count of the mini geometry at seed 2007 — the sweep's
    /// quick-scale study. A pure function of the config and seed; if
    /// it moves, the engine's boundary schedule changed. Re-pin only
    /// after a deliberate engine-semantics change.
    const PINNED_MEGAFLOW_MINI_BOUNDARIES: u64 = 18;

    /// The quick sweep's study key hashes the config as one value; the
    /// constant is what hashing it field by field produced before the
    /// declaration existed, so keys on disk still match.
    #[test]
    fn megaflow_config_fingerprint_tracks_every_field() {
        use ir_artifact::fingerprint_of;
        let base = MegaflowConfig::mini();
        assert_eq!(
            fingerprint_of(&base).to_hex(),
            "d3259b04ef3568ef1baccbf64528e6b0"
        );
        for bumped in [
            MegaflowConfig {
                racks: base.racks + 1,
                ..base
            },
            MegaflowConfig {
                hosts_per_rack: base.hosts_per_rack + 1,
                ..base
            },
            MegaflowConfig {
                flows_per_host: base.flows_per_host + 1,
                ..base
            },
            MegaflowConfig {
                waves: base.waves + 1,
                ..base
            },
            MegaflowConfig {
                wave_stagger_ms: base.wave_stagger_ms + 1,
                ..base
            },
            MegaflowConfig {
                file_bytes: base.file_bytes + 1,
                ..base
            },
            MegaflowConfig {
                host_rate: base.host_rate + 1,
                ..base
            },
            MegaflowConfig {
                rack_base_rate: base.rack_base_rate + 1,
                ..base
            },
        ] {
            assert_ne!(fingerprint_of(&base), fingerprint_of(&bumped), "{bumped:?}");
        }
    }

    #[test]
    fn mini_canary_and_engine_invariance() {
        let cfg = MegaflowConfig::mini();
        let inc = run(2007, &cfg, EngineMode::Incremental, None);
        assert_eq!(inc.flows_started, cfg.total_flows());
        assert_eq!(inc.flows_completed, inc.flows_started);
        assert_eq!(inc.boundaries, PINNED_MEGAFLOW_MINI_BOUNDARIES);
        // Each rack×wave batch completes at one instant.
        assert_eq!(inc.completion_batches, (cfg.racks * cfg.waves) as u64);

        // Reference reports no decomposition counter (it always solves
        // the whole problem); everything else must match bitwise.
        let refr = run(2007, &cfg, EngineMode::Reference, None);
        assert_eq!(refr.component_solves, 0);
        let mut refr_cmp = refr.clone();
        refr_cmp.component_solves = inc.component_solves;
        assert_eq!(refr_cmp, inc, "Reference diverged from incremental");
    }

    #[test]
    fn seed_moves_the_makespan_but_not_the_structure() {
        let cfg = MegaflowConfig::mini();
        let a = run(1, &cfg, EngineMode::Incremental, None);
        let b = run(2, &cfg, EngineMode::Incremental, None);
        assert_ne!(a.makespan_us, b.makespan_us);
        assert_eq!(a.flows_completed, b.flows_completed);
        assert_eq!(a.completion_batches, b.completion_batches);
    }

    #[test]
    fn report_passes_its_checks() {
        let r = report_of(&run(
            2007,
            &MegaflowConfig::mini(),
            EngineMode::Incremental,
            None,
        ));
        assert!(r.all_pass(), "{}", r.render());
        assert!(r.render().contains("megaflow"), "{}", r.render());
    }
}
