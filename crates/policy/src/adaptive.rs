//! Adaptive per-client relay reweighting from observed outcomes.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::weights::weighted_index_or_uniform;
use ir_core::{sanitize_candidates, PathCtx, PathSelector, PathSpec, TransferRecord};
use ir_simnet::topology::NodeId;

/// Configuration for [`AdaptiveLearner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Candidate paths per decision.
    pub k: usize,
    /// RNG seed for the weighted sampling.
    pub seed: u64,
    /// EWMA smoothing factor in `(0, 1]`; higher forgets faster.
    pub alpha: f64,
    /// Optimism prior added to every weight so unexplored relays keep
    /// nonzero probability. At `0.0` a cold learner has an all-zero
    /// weight vector and relies on the uniform fallback.
    pub prior: f64,
}
ir_artifact::declare! {
    StableHash for "adaptive-config" struct AdaptiveConfig { k, seed, alpha, prior }
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            k: 2,
            seed: 0,
            alpha: 0.2,
            prior: 0.05,
        }
    }
}

/// Learns, per `(client, relay)` pair, an EWMA of the relative
/// improvement indirect routing delivered through that relay, and
/// samples each decision's candidate set proportionally to the learned
/// weights (clamped at zero, plus the optimism prior).
///
/// State lives in `BTreeMap`s and sampling runs through a seeded
/// [`StdRng`], so the selector is a deterministic function of its seed
/// and observation sequence.
pub struct AdaptiveLearner {
    cfg: AdaptiveConfig,
    rng: StdRng,
    /// `(client, relay)` → EWMA of `selected/direct − 1`.
    ewma: BTreeMap<(NodeId, NodeId), f64>,
}

impl AdaptiveLearner {
    /// Creates a learner with the given config.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        assert!(
            cfg.alpha > 0.0 && cfg.alpha <= 1.0,
            "alpha must be in (0, 1], got {}",
            cfg.alpha
        );
        AdaptiveLearner {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            ewma: BTreeMap::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// The learned improvement EWMA for a `(client, relay)` pair.
    pub fn learned(&self, client: NodeId, relay: NodeId) -> Option<f64> {
        self.ewma.get(&(client, relay)).copied()
    }

    fn weight(&self, client: NodeId, relay: NodeId) -> f64 {
        let learned = self.ewma.get(&(client, relay)).copied().unwrap_or(0.0);
        learned.max(0.0) + self.cfg.prior
    }
}

impl PathSelector for AdaptiveLearner {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn paths(&mut self, ctx: &PathCtx<'_>) -> Vec<PathSpec> {
        let mut pool = sanitize_candidates(ctx.client, ctx.server, ctx.relays);
        let k = self.cfg.k.min(pool.len());
        let mut picked = Vec::with_capacity(k);
        for _ in 0..k {
            let weights: Vec<f64> = pool.iter().map(|&r| self.weight(ctx.client, r)).collect();
            let i = weighted_index_or_uniform(&mut self.rng, &weights);
            picked.push(pool.swap_remove(i));
        }
        picked.sort();
        picked
            .into_iter()
            .map(|via| PathSpec::indirect(ctx.client, ctx.server, via))
            .collect()
    }

    fn observe(&mut self, rec: &TransferRecord) {
        if rec.direct_throughput <= 0.0 {
            return;
        }
        let alpha = self.cfg.alpha;
        match rec.selected.via() {
            Some(via) => {
                // The winning relay absorbs the measured improvement.
                let sample = rec.selected_throughput / rec.direct_throughput - 1.0;
                let slot = self.ewma.entry((rec.client, via)).or_insert(0.0);
                *slot = (1.0 - alpha) * *slot + alpha * sample;
            }
            None => {
                // Direct won: every probed relay failed to beat it, so
                // their estimates decay toward zero.
                for &r in &rec.candidates {
                    if let Some(slot) = self.ewma.get_mut(&(rec.client, r)) {
                        *slot *= 1.0 - alpha;
                    }
                }
            }
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

    fn rec(client: NodeId, via: Option<NodeId>, ratio: f64, cands: &[NodeId]) -> TransferRecord {
        let s = NodeId(1);
        TransferRecord {
            client,
            server: s,
            started: SimTime::ZERO,
            file_bytes: 1,
            selected: match via {
                None => PathSpec::direct(client, s),
                Some(v) => PathSpec::indirect(client, s, v),
            },
            candidates: cands.to_vec(),
            direct_throughput: 1.0,
            selected_throughput: ratio,
            probe_throughput: ratio,
            selected_path_rate: ratio,
            probe_timeout: false,
            failovers: 0,
            stall_ms: 0,
            abandoned: false,
        }
    }

    #[test]
    fn good_outcomes_shift_sampling_toward_the_relay() {
        let topo = topo();
        let relays: Vec<NodeId> = (2..6).map(NodeId).collect();
        let mut sel = AdaptiveLearner::new(AdaptiveConfig {
            k: 1,
            ..AdaptiveConfig::default()
        });
        let c = NodeId(0);
        let count_hits = |sel: &mut AdaptiveLearner| -> usize {
            (0..600)
                .filter(|&k| {
                    let p = sel.paths(&PathCtx {
                        client: c,
                        server: NodeId(1),
                        relays: &relays,
                        topo: &topo,
                        transfer_index: k,
                    });
                    p[0].via() == Some(NodeId(3))
                })
                .count()
        };
        let before = count_hits(&mut sel);
        for _ in 0..30 {
            sel.observe(&rec(c, Some(NodeId(3)), 3.0, &relays));
        }
        let after = count_hits(&mut sel);
        assert!(
            after > before + 150,
            "learning had no effect: {before} -> {after}"
        );
        assert!(sel.learned(c, NodeId(3)).unwrap() > 1.0);
    }

    /// Satellite regression: a cold learner with no optimism prior has
    /// an all-zero weight vector and must fall back to uniform
    /// sampling instead of panicking inside `weighted_index`.
    #[test]
    fn zero_total_weights_sample_uniformly() {
        let topo = topo();
        let relays: Vec<NodeId> = (2..6).map(NodeId).collect();
        let mut sel = AdaptiveLearner::new(AdaptiveConfig {
            k: 1,
            prior: 0.0,
            ..AdaptiveConfig::default()
        });
        let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        for k in 0..4_000 {
            let p = sel.paths(&PathCtx {
                client: NodeId(0),
                server: NodeId(1),
                relays: &relays,
                topo: &topo,
                transfer_index: k,
            });
            *counts.entry(p[0].via().unwrap()).or_insert(0) += 1;
        }
        for (&r, &c) in &counts {
            let frac = c as f64 / 4_000.0;
            assert!((frac - 0.25).abs() < 0.05, "relay {r:?} frac {frac}");
        }
    }

    #[test]
    fn direct_wins_decay_learned_weight() {
        let mut sel = AdaptiveLearner::new(AdaptiveConfig::default());
        let c = NodeId(0);
        sel.observe(&rec(c, Some(NodeId(2)), 2.0, &[NodeId(2)]));
        let peak = sel.learned(c, NodeId(2)).unwrap();
        for _ in 0..10 {
            sel.observe(&rec(c, None, 1.0, &[NodeId(2)]));
        }
        let decayed = sel.learned(c, NodeId(2)).unwrap();
        assert!(decayed < peak && decayed >= 0.0);
    }

    #[test]
    fn state_is_per_client() {
        let mut sel = AdaptiveLearner::new(AdaptiveConfig::default());
        sel.observe(&rec(NodeId(0), Some(NodeId(2)), 2.0, &[NodeId(2)]));
        assert!(sel.learned(NodeId(0), NodeId(2)).is_some());
        assert!(sel.learned(NodeId(7), NodeId(2)).is_none());
    }
}
