//! Throughput/backpressure baseline selector.

use std::collections::BTreeMap;

use ir_core::{sanitize_candidates, PathCtx, PathSelector, PathSpec, TransferRecord};
use ir_simnet::topology::NodeId;

/// Configuration for [`Backpressure`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackpressureConfig {
    /// Candidate paths per decision.
    pub k: usize,
    /// Virtual-queue pressure penalty per queued probe.
    pub beta: f64,
    /// EWMA smoothing for the per-relay service-rate estimate.
    pub alpha: f64,
    /// Initial service-rate estimate for never-observed relays. A high
    /// value makes the selector explore cold relays first.
    pub optimism: f64,
}
ir_artifact::declare! {
    StableHash for "backpressure-config" struct BackpressureConfig { k, beta, alpha, optimism }
}

impl Default for BackpressureConfig {
    fn default() -> Self {
        BackpressureConfig {
            k: 2,
            beta: 0.5,
            alpha: 0.3,
            optimism: 1e9,
        }
    }
}

/// Backpressure-style relay scoring in the spirit of the
/// Rai–Singh–Modiano throughput-optimal overlay work: each relay `r`
/// keeps a service-rate estimate `μ_r` (EWMA of observed path rate)
/// and a virtual queue `Q_r` counting outstanding probe load. A
/// decision scores relays by `μ_r − β·Q_r` and probes the top-k, so
/// hot relays are backed off as their virtual queues grow and drained
/// relays become attractive again.
///
/// Fully deterministic: no RNG, `BTreeMap` state, ties broken by
/// `NodeId`.
pub struct Backpressure {
    cfg: BackpressureConfig,
    mu: BTreeMap<NodeId, f64>,
    queue: BTreeMap<NodeId, f64>,
}

impl Backpressure {
    /// Creates a selector with the given config.
    pub fn new(cfg: BackpressureConfig) -> Self {
        Backpressure {
            cfg,
            mu: BTreeMap::new(),
            queue: BTreeMap::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &BackpressureConfig {
        &self.cfg
    }

    /// The current score of a relay.
    pub fn score(&self, relay: NodeId) -> f64 {
        let mu = self.mu.get(&relay).copied().unwrap_or(self.cfg.optimism);
        let q = self.queue.get(&relay).copied().unwrap_or(0.0);
        mu - self.cfg.beta * q
    }
}

impl PathSelector for Backpressure {
    fn name(&self) -> &'static str {
        "backpressure"
    }

    fn paths(&mut self, ctx: &PathCtx<'_>) -> Vec<PathSpec> {
        let pool = sanitize_candidates(ctx.client, ctx.server, ctx.relays);
        let mut scored: Vec<(NodeId, f64)> = pool.iter().map(|&r| (r, self.score(r))).collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite score")
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(self.cfg.k);
        let mut picked: Vec<NodeId> = scored.into_iter().map(|(r, _)| r).collect();
        picked.sort();
        for &r in &picked {
            *self.queue.entry(r).or_insert(0.0) += 1.0;
        }
        picked
            .into_iter()
            .map(|via| PathSpec::indirect(ctx.client, ctx.server, via))
            .collect()
    }

    fn observe(&mut self, rec: &TransferRecord) {
        // Completed probes drain the virtual queues they occupied.
        for &r in &rec.candidates {
            if let Some(q) = self.queue.get_mut(&r) {
                *q = (*q - 1.0).max(0.0);
            }
        }
        if let Some(via) = rec.selected.via() {
            let alpha = self.cfg.alpha;
            let slot = self.mu.entry(via).or_insert(rec.selected_path_rate);
            *slot = (1.0 - alpha) * *slot + alpha * rec.selected_path_rate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_simnet::time::SimTime;
    use ir_simnet::topology::{NodeKind, Topology};

    fn topo() -> Topology {
        let mut t = Topology::new();
        t.add_node("c", NodeKind::Client);
        t.add_node("s", NodeKind::Server);
        for i in 0..4 {
            t.add_node(format!("r{i}"), NodeKind::Intermediate);
        }
        t
    }

    fn ctx<'a>(topo: &'a Topology, relays: &'a [NodeId], k: u64) -> PathCtx<'a> {
        PathCtx {
            client: NodeId(0),
            server: NodeId(1),
            relays,
            topo,
            transfer_index: k,
        }
    }

    fn rec(via: Option<NodeId>, rate: f64, cands: &[NodeId]) -> TransferRecord {
        let (c, s) = (NodeId(0), NodeId(1));
        TransferRecord {
            client: c,
            server: s,
            started: SimTime::ZERO,
            file_bytes: 1,
            selected: match via {
                None => PathSpec::direct(c, s),
                Some(v) => PathSpec::indirect(c, s, v),
            },
            candidates: cands.to_vec(),
            direct_throughput: 1.0,
            selected_throughput: rate,
            probe_throughput: rate,
            selected_path_rate: rate,
            probe_timeout: false,
            failovers: 0,
            stall_ms: 0,
            abandoned: false,
        }
    }

    #[test]
    fn cold_start_explores_in_id_order_and_is_deterministic() {
        let topo = topo();
        let relays: Vec<NodeId> = (2..6).map(NodeId).collect();
        let mut a = Backpressure::new(BackpressureConfig::default());
        let mut b = Backpressure::new(BackpressureConfig::default());
        let pa = a.paths(&ctx(&topo, &relays, 0));
        assert_eq!(pa, b.paths(&ctx(&topo, &relays, 0)));
        let vias: Vec<NodeId> = pa.iter().filter_map(|p| p.via()).collect();
        assert_eq!(vias, vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn unserviced_probes_build_pressure_and_rotate_relays() {
        let topo = topo();
        let relays: Vec<NodeId> = (2..6).map(NodeId).collect();
        let mut sel = Backpressure::new(BackpressureConfig {
            k: 1,
            beta: 1.0,
            // Uniform cold estimates so only queue pressure moves scores.
            optimism: 10.0,
            ..BackpressureConfig::default()
        });
        let mut seen = Vec::new();
        // Never observing completions: queues only grow, so the
        // selector must rotate through all relays.
        for k in 0..4 {
            let p = sel.paths(&ctx(&topo, &relays, k));
            seen.push(p[0].via().unwrap());
        }
        assert_eq!(seen, relays);
    }

    #[test]
    fn high_service_rate_relay_is_preferred_once_observed() {
        let topo = topo();
        let relays: Vec<NodeId> = (2..6).map(NodeId).collect();
        let mut sel = Backpressure::new(BackpressureConfig {
            k: 1,
            optimism: 1.0,
            ..BackpressureConfig::default()
        });
        for _ in 0..5 {
            let probed: Vec<NodeId> = sel
                .paths(&ctx(&topo, &relays, 0))
                .iter()
                .filter_map(|p| p.via())
                .collect();
            sel.observe(&rec(Some(NodeId(4)), 50.0, &probed));
        }
        assert!(sel.score(NodeId(4)) > sel.score(NodeId(2)));
        let p = sel.paths(&ctx(&topo, &relays, 9));
        assert_eq!(p[0].via(), Some(NodeId(4)));
    }

    #[test]
    fn observe_drains_the_virtual_queue() {
        let topo = topo();
        let relays = [NodeId(2)];
        let mut sel = Backpressure::new(BackpressureConfig {
            k: 1,
            ..BackpressureConfig::default()
        });
        let before = sel.score(NodeId(2));
        sel.paths(&ctx(&topo, &relays, 0));
        assert!(sel.score(NodeId(2)) < before, "probe must add pressure");
        sel.observe(&rec(None, 1.0, &[NodeId(2)]));
        // Queue drained; only the (unchanged) mu estimate remains.
        assert_eq!(sel.score(NodeId(2)), before);
    }
}
