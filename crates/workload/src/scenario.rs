//! Scenario construction: topology + calibrated bandwidth processes.
//!
//! A scenario wires the paper's node roster into an
//! [`ir_simnet::sim::Network`] whose per-path available-bandwidth
//! processes are calibrated so the paper's qualitative regime holds
//! (DESIGN.md §5):
//!
//! * clients' **direct** paths sit in the Low/Medium/High bands of
//!   §2.2, with a regime-switching temporal structure; "variable"
//!   clients swing across wide regimes (they generate Table I's
//!   penalty tail);
//! * **overlay** links (client → relay) have lognormal rates that do
//!   *not* scale with the client's direct rate — this independence is
//!   what makes improvement inversely related to client throughput
//!   (Fig 3) — with mild AR(1) wander and rare level jumps (Fig 4);
//! * **relay → server** links are fast and never the indirect
//!   bottleneck (§3.2's stated assumption).
//!
//! All links use [`Sharing::PerFlow`]: process values are available
//! bandwidth as seen by one more TCP flow, background multiplexing
//! already included.

use crate::category::{Category, Variability, MBPS};
use crate::roster::{ClientSite, RelaySite, ServerSite, CLIENTS, INTERMEDIATES, SERVERS};
use ir_simnet::bandwidth::{
    Ar1LogProcess, BandwidthProcess, ConstantProcess, JumpMixProcess, RegimeSwitchingProcess,
};
use ir_simnet::sim::Network;
use ir_simnet::time::SimDuration;
use ir_simnet::topology::{NodeId, NodeKind, Sharing, Topology};
use ir_stats::sampling::{LogNormal, Sample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Everything tunable about the synthetic network. Defaults are the
/// calibrated values used by the experiment harness; the ablation
/// benches perturb individual fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Median direct-path rate range for Low clients (Mbps).
    pub low_mbps: (f64, f64),
    /// Median direct-path rate range for Medium clients (Mbps).
    pub med_mbps: (f64, f64),
    /// Median direct-path rate range for High clients (Mbps).
    pub high_mbps: (f64, f64),
    /// Fraction of clients assigned Medium.
    pub frac_medium: f64,
    /// Fraction of clients assigned High.
    pub frac_high: f64,
    /// Fraction of Low/Medium clients with Variable direct paths.
    pub var_frac_low_med: f64,
    /// Fraction of High clients with Variable direct paths (the paper
    /// finds penalties concentrate on High clients, i.e. this is
    /// large).
    pub var_frac_high: f64,
    /// Regime level multipliers for Stable clients.
    pub stable_levels: [f64; 3],
    /// Regime level multipliers for Variable clients.
    pub variable_levels: [f64; 3],
    /// Regime level multipliers for Variable **High-throughput**
    /// clients: deeper dips and higher peaks. These clients generate
    /// Table I's heavy penalty tail — the probe catches a deep dip,
    /// selects a relay, and the direct path then recovers several-fold.
    pub high_variable_levels: [f64; 3],
    /// Mean regime dwell per level for Stable clients (seconds),
    /// aligned with `stable_levels`.
    pub stable_hold_secs: [f64; 3],
    /// Mean regime dwell per level for Variable clients (seconds),
    /// aligned with `variable_levels`. The low regime's dwell is kept
    /// short: brief dips are what convert probe-time mispredictions
    /// into Table I's penalties instead of sustained >100% gains.
    pub variable_hold_secs: [f64; 3],
    /// Per-segment lognormal noise sigma, Stable.
    pub stable_noise: f64,
    /// Per-segment lognormal noise sigma, Variable.
    pub variable_noise: f64,
    /// Global median of overlay (client→relay) link rates (Mbps),
    /// before the client access-capacity clamp.
    pub overlay_median_mbps: f64,
    /// Median headroom of a client's access capacity over its typical
    /// direct-path rate. An overlay path cannot beat the client's own
    /// access link, so indirect rates clamp at
    /// `base_rate × headroom` — this is what keeps improvements in the
    /// paper's 0–100% band rather than unbounded.
    pub access_headroom_median: f64,
    /// Lognormal sigma of the per-client access headroom.
    pub access_headroom_sigma: f64,
    /// Lognormal sigma of per-relay quality factors (creates the
    /// "favoured handful" of Table II).
    pub relay_quality_sigma: f64,
    /// Lognormal sigma of per-(client, relay) pair factors.
    pub pair_sigma: f64,
    /// AR(1) persistence of overlay link rates.
    pub overlay_phi: f64,
    /// AR(1) innovation sigma of overlay link rates.
    pub overlay_sigma: f64,
    /// AR(1) sampling tick (seconds).
    pub overlay_tick_secs: f64,
    /// Mean time between overlay jump episodes (seconds).
    pub jump_arrival_secs: f64,
    /// Mean overlay jump episode length (seconds).
    pub jump_duration_secs: f64,
    /// Rate multiplier during an overlay jump episode.
    pub jump_factor: f64,
    /// Relay→server rate range (Mbps) — fast, never the bottleneck.
    pub relay_server_mbps: (f64, f64),
}
ir_artifact::declare! {
    StableHash for struct Calibration {
        low_mbps,
        med_mbps,
        high_mbps,
        frac_medium,
        frac_high,
        var_frac_low_med,
        var_frac_high,
        stable_levels,
        variable_levels,
        high_variable_levels,
        stable_hold_secs,
        variable_hold_secs,
        stable_noise,
        variable_noise,
        overlay_median_mbps,
        access_headroom_median,
        access_headroom_sigma,
        relay_quality_sigma,
        pair_sigma,
        overlay_phi,
        overlay_sigma,
        overlay_tick_secs,
        jump_arrival_secs,
        jump_duration_secs,
        jump_factor,
        relay_server_mbps,
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            low_mbps: (0.45, 1.4),
            med_mbps: (1.6, 2.9),
            high_mbps: (3.2, 7.5),
            frac_medium: 0.25,
            frac_high: 0.15,
            var_frac_low_med: 0.20,
            var_frac_high: 0.80,
            stable_levels: [0.90, 1.0, 1.15],
            variable_levels: [0.45, 1.0, 1.9],
            high_variable_levels: [0.22, 1.0, 2.4],
            stable_hold_secs: [250.0, 550.0, 250.0],
            variable_hold_secs: [40.0, 900.0, 120.0],
            stable_noise: 0.12,
            variable_noise: 0.30,
            overlay_median_mbps: 0.95,
            access_headroom_median: 1.24,
            access_headroom_sigma: 0.12,
            relay_quality_sigma: 0.60,
            pair_sigma: 0.85,
            overlay_phi: 0.85,
            overlay_sigma: 0.04,
            overlay_tick_secs: 60.0,
            jump_arrival_secs: 9000.0,
            jump_duration_secs: 420.0,
            jump_factor: 0.30,
            relay_server_mbps: (30.0, 120.0),
        }
    }
}

/// Hidden ground-truth profile of a client in a scenario. Experiments
/// must *measure* category/variability like the paper did; the profile
/// is for assertions and debugging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientProfile {
    /// Intended throughput category.
    pub category: Category,
    /// Intended variability class.
    pub variability: Variability,
    /// Median direct-path rate before server factors, bytes/sec.
    pub base_rate: f64,
}
ir_artifact::declare! { Codec for struct ClientProfile { category, variability, base_rate } }

/// A built scenario: the network plus the node-id bookkeeping every
/// experiment needs.
pub struct Scenario {
    /// The simulated network, processes attached.
    pub network: Network,
    /// Client node ids, in roster order.
    pub clients: Vec<NodeId>,
    /// Relay node ids, in roster order.
    pub relays: Vec<NodeId>,
    /// Server node ids, in roster order.
    pub servers: Vec<NodeId>,
    /// Ground-truth client profiles.
    pub profiles: BTreeMap<NodeId, ClientProfile>,
    /// Ground-truth per-relay quality factors.
    pub relay_quality: BTreeMap<NodeId, f64>,
    /// The calibration used.
    pub cal: Calibration,
}

impl Scenario {
    /// Node id of a client by roster name.
    pub fn client(&self, name: &str) -> NodeId {
        self.network
            .topology()
            .node_by_name(name)
            .unwrap_or_else(|| panic!("no such node {name}"))
    }

    /// Ground-truth profile of a client.
    pub fn profile(&self, client: NodeId) -> &ClientProfile {
        &self.profiles[&client]
    }

    /// Name of a node.
    pub fn name(&self, id: NodeId) -> &str {
        &self.network.topology().node(id).name
    }
}

/// SplitMix64: cheap deterministic sub-seed derivation.
fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn pick_range(rng: &mut StdRng, (lo, hi): (f64, f64)) -> f64 {
    rng.gen_range(lo..hi)
}

/// Builds a scenario over explicit rosters.
///
/// `force_low_med` pins every client's category to Low/Medium — the §4
/// study chose its clients for being in those bands.
pub fn build(
    seed: u64,
    clients: &[ClientSite],
    relays: &[RelaySite],
    servers: &[ServerSite],
    cal: Calibration,
    force_low_med: bool,
) -> Scenario {
    let mut topo = Topology::new();
    let client_ids: Vec<NodeId> = clients
        .iter()
        .map(|c| topo.add_node(c.name, NodeKind::Client))
        .collect();
    let relay_ids: Vec<NodeId> = relays
        .iter()
        .map(|r| topo.add_node(r.name, NodeKind::Intermediate))
        .collect();
    let server_ids: Vec<NodeId> = servers
        .iter()
        .map(|s| topo.add_node(s.name, NodeKind::Server))
        .collect();

    // Profiles.
    let mut profiles = BTreeMap::new();
    for (ci, site) in clients.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x1000 + ci as u64));
        let roll: f64 = rng.gen();
        let mut category = if roll < cal.frac_high {
            Category::High
        } else if roll < cal.frac_high + cal.frac_medium {
            Category::Medium
        } else {
            Category::Low
        };
        if force_low_med && category == Category::High {
            category = Category::Medium;
        }
        let band = match category {
            Category::Low => cal.low_mbps,
            Category::Medium => cal.med_mbps,
            Category::High => cal.high_mbps,
        };
        let base_rate = pick_range(&mut rng, band) * MBPS;
        let var_frac = match category {
            Category::High => cal.var_frac_high,
            _ => cal.var_frac_low_med,
        };
        let variability = if rng.gen::<f64>() < var_frac {
            Variability::Variable
        } else {
            Variability::Stable
        };
        profiles.insert(
            client_ids[ci],
            ClientProfile {
                category,
                variability,
                base_rate,
            },
        );
        let _ = site;
    }

    // Relay quality factors.
    let mut relay_quality = BTreeMap::new();
    for (ri, _site) in relays.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x2000 + ri as u64));
        let q = LogNormal::new(0.0, cal.relay_quality_sigma).sample(&mut rng);
        relay_quality.insert(relay_ids[ri], q);
    }

    // Links: all PerFlow (processes are available-bandwidth-per-flow).
    struct PendingLink {
        from: NodeId,
        to: NodeId,
        latency_ms: u64,
        proc_: Box<dyn BandwidthProcess>,
    }
    let mut pending: Vec<PendingLink> = Vec::new();

    // Direct paths: client -> server.
    for (ci, csite) in clients.iter().enumerate() {
        let prof = profiles[&client_ids[ci]];
        for (si, ssite) in servers.iter().enumerate() {
            let tag = 0x10_0000 + (ci as u64) * 64 + si as u64;
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, tag));
            let pair_jitter = LogNormal::new(0.0, 0.10).sample(&mut rng);
            let median = prof.base_rate * ssite.rate_factor * pair_jitter;
            let (mults, holds, noise) = match (prof.variability, prof.category) {
                (Variability::Stable, _) => {
                    (cal.stable_levels, cal.stable_hold_secs, cal.stable_noise)
                }
                (Variability::Variable, Category::High) => (
                    cal.high_variable_levels,
                    cal.variable_hold_secs,
                    cal.variable_noise,
                ),
                (Variability::Variable, _) => (
                    cal.variable_levels,
                    cal.variable_hold_secs,
                    cal.variable_noise,
                ),
            };
            let levels: Vec<f64> = mults.iter().map(|m| m * median).collect();
            let hold_means: Vec<SimDuration> = holds
                .iter()
                .map(|&h| SimDuration::from_secs_f64(h))
                .collect();
            let proc_ = RegimeSwitchingProcess::with_holds(
                levels,
                hold_means,
                noise,
                sub_seed(seed, tag ^ 0xAB),
            );
            pending.push(PendingLink {
                from: client_ids[ci],
                to: server_ids[si],
                latency_ms: csite.us_latency_ms + rng.gen_range(8..14),
                proc_: Box::new(proc_),
            });
        }
    }

    // Overlay links: client -> relay. Raw rates are independent of the
    // client's direct rate (relay quality × pair draw), but clamp at the
    // client's access capacity (see module docs).
    for (ci, csite) in clients.iter().enumerate() {
        let prof = profiles[&client_ids[ci]];
        let access_cap = {
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x4000 + ci as u64));
            prof.base_rate
                * LogNormal::with_median(cal.access_headroom_median, cal.access_headroom_sigma)
                    .sample(&mut rng)
        };
        for (ri, _rsite) in relays.iter().enumerate() {
            let tag = 0x20_0000 + (ci as u64) * 1024 + ri as u64;
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, tag));
            let pair = LogNormal::new(0.0, cal.pair_sigma).sample(&mut rng);
            let raw = cal.overlay_median_mbps * MBPS * relay_quality[&relay_ids[ri]] * pair;
            let median = raw.min(access_cap);
            let base = Ar1LogProcess::new(
                median,
                cal.overlay_phi,
                cal.overlay_sigma,
                SimDuration::from_secs_f64(cal.overlay_tick_secs),
                sub_seed(seed, tag ^ 0xCD),
            );
            let with_jumps = JumpMixProcess::new(
                Box::new(base),
                SimDuration::from_secs_f64(cal.jump_arrival_secs),
                SimDuration::from_secs_f64(cal.jump_duration_secs),
                cal.jump_factor,
                sub_seed(seed, tag ^ 0xEF),
            );
            // University relays sit on research backbones; the path to
            // them is no slower than the commodity path to a commercial
            // site (often slightly faster), so the indirect hop does not
            // pay a structural RTT penalty.
            let overlay_latency = (csite.us_latency_ms as f64 * rng.gen_range(0.92..1.08)) as u64;
            pending.push(PendingLink {
                from: client_ids[ci],
                to: relay_ids[ri],
                latency_ms: overlay_latency.max(2),
                proc_: Box::new(with_jumps),
            });
        }
    }

    // Relay -> server links: fast and steady.
    for (ri, _rsite) in relays.iter().enumerate() {
        for (si, _ssite) in servers.iter().enumerate() {
            let tag = 0x30_0000 + (ri as u64) * 64 + si as u64;
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, tag));
            let rate = pick_range(&mut rng, cal.relay_server_mbps) * MBPS;
            pending.push(PendingLink {
                from: relay_ids[ri],
                to: server_ids[si],
                latency_ms: rng.gen_range(4..14),
                proc_: Box::new(ConstantProcess::new(rate)),
            });
        }
    }

    // Materialise links and attach processes.
    let mut procs: Vec<(ir_simnet::topology::LinkId, Box<dyn BandwidthProcess>)> =
        Vec::with_capacity(pending.len());
    for p in pending {
        let id = topo.add_link_shared(
            p.from,
            p.to,
            SimDuration::from_millis(p.latency_ms),
            Sharing::PerFlow,
        );
        procs.push((id, p.proc_));
    }
    let mut network = Network::new(topo, 1.0);
    for (id, proc_) in procs {
        network.set_link_process(id, proc_);
    }

    Scenario {
        network,
        clients: client_ids,
        relays: relay_ids,
        servers: server_ids,
        profiles,
        relay_quality,
        cal,
    }
}

/// The §2.2 measurement study: 22 international clients, the 21 Table V
/// intermediates, all four web sites.
pub fn planetlab_study(seed: u64) -> Scenario {
    build(
        seed,
        CLIENTS,
        INTERMEDIATES,
        SERVERS,
        Calibration::default(),
        false,
    )
}

/// The §4 selection study: Duke/Italy/Sweden as clients, the 35-relay
/// pool, eBay as the destination.
pub fn selection_study(seed: u64) -> Scenario {
    build(
        seed,
        crate::roster::SELECTION_CLIENTS,
        &crate::roster::selection_relays(),
        &SERVERS[..1], // eBay
        Calibration::default(),
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_artifact::fingerprint_of;

    #[test]
    fn calibration_fingerprint_tracks_field_changes() {
        let base = Calibration::default();
        assert_eq!(
            fingerprint_of(&base),
            fingerprint_of(&Calibration::default())
        );
        let mut tweaked = base;
        tweaked.overlay_median_mbps += 0.001;
        assert_ne!(fingerprint_of(&base), fingerprint_of(&tweaked));
    }

    #[test]
    fn planetlab_study_has_expected_shape() {
        let s = planetlab_study(7);
        assert_eq!(s.clients.len(), 22);
        assert_eq!(s.relays.len(), 21);
        assert_eq!(s.servers.len(), 4);
        // 22*4 direct + 22*21 overlay + 21*4 relay-server links.
        assert_eq!(s.network.topology().link_count(), 22 * 4 + 22 * 21 + 21 * 4);
        assert_eq!(s.name(s.client("Berlin")), "Berlin");
    }

    #[test]
    fn selection_study_has_expected_shape() {
        let s = selection_study(7);
        assert_eq!(s.clients.len(), 3);
        assert_eq!(s.relays.len(), 35);
        assert_eq!(s.servers.len(), 1);
        // §4 clients are Low/Medium by construction.
        for &c in &s.clients {
            assert_ne!(s.profile(c).category, Category::High);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = planetlab_study(42);
        let b = planetlab_study(42);
        assert_eq!(a.profiles, b.profiles);
        assert_eq!(a.relay_quality, b.relay_quality);
        let c = planetlab_study(43);
        assert_ne!(a.profiles, c.profiles);
    }

    #[test]
    fn profiles_land_in_their_bands() {
        let s = planetlab_study(11);
        for (_, p) in s.profiles.iter() {
            let mbps = p.base_rate / MBPS;
            match p.category {
                Category::Low => assert!(mbps < 1.5, "{mbps}"),
                Category::Medium => assert!((1.5..3.0).contains(&mbps), "{mbps}"),
                Category::High => assert!(mbps >= 3.0, "{mbps}"),
            }
        }
        // With 22 clients, expect a majority Low (frac ~0.60).
        let lows = s
            .profiles
            .values()
            .filter(|p| p.category == Category::Low)
            .count();
        assert!(lows >= 8, "only {lows} Low clients");
    }

    #[test]
    fn relay_quality_is_diverse() {
        let s = planetlab_study(3);
        let qs: Vec<f64> = s.relay_quality.values().copied().collect();
        let max = qs.iter().cloned().fold(f64::MIN, f64::max);
        let min = qs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 2.0, "qualities too uniform: {min}..{max}");
    }

    #[test]
    fn direct_paths_roughly_match_profiles() {
        use ir_core::PathSpec;
        use ir_simnet::sim::NoCap;
        use ir_simnet::time::SimTime;
        let mut s = planetlab_study(5);
        let client = s.clients[0];
        let server = s.servers[0];
        let prof = *s.profile(client);
        let route = PathSpec::direct(client, server)
            .resolve(s.network.topology())
            .unwrap();
        // Long raw transfer (no TCP cap) ≈ mean path rate.
        let id = s.network.start_flow(route, 20_000_000, Box::new(NoCap));
        let done = s
            .network
            .run_flow(id, SimTime::from_secs(36_000))
            .expect("transfer finished");
        let measured = done.throughput();
        // Within a factor of 3 of the profile median (regimes + noise).
        assert!(
            measured > prof.base_rate / 3.0 && measured < prof.base_rate * 3.0,
            "measured {measured}, profile {}",
            prof.base_rate
        );
    }
}
