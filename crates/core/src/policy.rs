//! Path-selection policies: the one selector trait and the paper's
//! policies.
//!
//! A [`PathSelector`] decides, per transfer, **which indirect paths**
//! — the paper's 1-hop "random set" (§4.1) or multi-hop chains — the
//! session probes against the direct path, and in what order; the
//! probe race then picks among them. Selectors may learn from outcomes
//! via [`PathSelector::observe`] — the utilization-weighted policy is
//! exactly the extension the paper's §6 proposes ("use the utilization
//! data to weight the likelihood of a node appearing in the random
//! set"). The policies here choose among opaque relay ids and emit
//! 1-hop paths; the topology-aware selectors (k-shortest chains,
//! adaptive, backpressure) live in `ir-policy`.

use crate::path::PathSpec;
use crate::record::TransferRecord;
use ir_simnet::topology::{NodeId, Topology};
use ir_stats::sampling::weighted_index;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Context for one path-selection decision (and for the session that
/// runs it).
#[derive(Debug, Clone)]
pub struct PathCtx<'a> {
    /// The client about to transfer.
    pub client: NodeId,
    /// The destination server.
    pub server: NodeId,
    /// Every relay available to this client (the paper's "full set").
    pub relays: &'a [NodeId],
    /// The network topology the transfer will run over; chain-building
    /// selectors inspect its link latencies.
    pub topo: &'a Topology,
    /// Sequence number of this transfer for this client (0-based).
    pub transfer_index: u64,
}

/// A path-selection policy: decides which indirect paths (1-hop or
/// multi-hop chains) a session probes against the direct path, and in
/// what order. The probe race still makes the final call — a selector
/// shapes the candidate field, it does not override measurement.
pub trait PathSelector: Send {
    /// Short name for reports and per-policy telemetry labels.
    fn name(&self) -> &'static str;

    /// Indirect candidate paths to probe for this transfer, in probe
    /// order. Empty means direct-only. The direct path is always raced
    /// and must not be returned here.
    fn paths(&mut self, ctx: &PathCtx<'_>) -> Vec<PathSpec>;

    /// Learns from a completed transfer.
    fn observe(&mut self, _rec: &TransferRecord) {}

    /// The best `k` candidate paths: the first `k` distinct entries of
    /// [`PathSelector::paths`], preserving probe order. A striped
    /// session widths its stripe with this, so racer and striper share
    /// one selection path — `best_k(ctx, 1)` is exactly the path the
    /// racer would commit to first. Selectors with a smarter notion of
    /// "best" (e.g. rate-ordered) may override.
    fn best_k(&mut self, ctx: &PathCtx<'_>, k: usize) -> Vec<PathSpec> {
        let mut out: Vec<PathSpec> = Vec::with_capacity(k);
        for p in self.paths(ctx) {
            if out.len() == k {
                break;
            }
            if !out.contains(&p) {
                out.push(p);
            }
        }
        out
    }
}

/// Drops `client`, `server`, and duplicates from a relay candidate
/// list, preserving first-occurrence order.
///
/// `PathSpec::indirect`/`PathSpec::chain` assert that relays are
/// distinct from both endpoints and from each other — correct for the
/// session layer, but a policy working from learned state or a stale
/// roster can easily emit the client itself, the server, or a
/// duplicate. Every selector funnels its raw output through this so
/// the degenerate cases are dropped in exactly one place instead of
/// tripping asserts downstream.
pub fn sanitize_candidates(client: NodeId, server: NodeId, nodes: &[NodeId]) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::with_capacity(nodes.len());
    for &n in nodes {
        if n != client && n != server && !out.contains(&n) {
            out.push(n);
        }
    }
    out
}

/// One 1-hop path per sanitized relay, in the given order.
fn one_hop_paths(ctx: &PathCtx<'_>, relays: &[NodeId]) -> Vec<PathSpec> {
    sanitize_candidates(ctx.client, ctx.server, relays)
        .into_iter()
        .map(|via| PathSpec::indirect(ctx.client, ctx.server, via))
        .collect()
}

/// Never uses relays: the paper's control process.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectOnly;

impl PathSelector for DirectOnly {
    fn name(&self) -> &'static str {
        "direct-only"
    }
    fn paths(&mut self, _ctx: &PathCtx<'_>) -> Vec<PathSpec> {
        Vec::new()
    }
}

/// Always probes one fixed relay — the §2.2 configuration ("a single
/// indirect path that we determined a priori to be a good one").
#[derive(Debug, Clone, Copy)]
pub struct StaticSingle(pub NodeId);

impl PathSelector for StaticSingle {
    fn name(&self) -> &'static str {
        "static-single"
    }
    fn paths(&mut self, ctx: &PathCtx<'_>) -> Vec<PathSpec> {
        one_hop_paths(ctx, &[self.0])
    }
}

/// Probes every relay in the full set (the k = 35 end of Fig 6).
#[derive(Debug, Clone, Copy, Default)]
pub struct FullSet;

impl PathSelector for FullSet {
    fn name(&self) -> &'static str {
        "full-set"
    }
    fn paths(&mut self, ctx: &PathCtx<'_>) -> Vec<PathSpec> {
        one_hop_paths(ctx, ctx.relays)
    }
}

/// The paper's §4 policy: a uniform random subset of size `k` drawn per
/// transfer.
#[derive(Debug, Clone)]
pub struct RandomSet {
    k: usize,
    rng: StdRng,
}

impl RandomSet {
    /// Creates a random-set policy of size `k`, seeded for determinism.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "random set must be non-empty");
        RandomSet {
            k,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The set size.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl PathSelector for RandomSet {
    fn name(&self) -> &'static str {
        "random-set"
    }
    fn paths(&mut self, ctx: &PathCtx<'_>) -> Vec<PathSpec> {
        let k = self.k.min(ctx.relays.len());
        let mut set: Vec<NodeId> = ctx
            .relays
            .choose_multiple(&mut self.rng, k)
            .copied()
            .collect();
        set.sort();
        one_hop_paths(ctx, &set)
    }
}

/// The §6 extension: subset sampling weighted by historical
/// utilization, with Laplace smoothing so unexplored relays keep a
/// nonzero chance.
#[derive(Debug, Clone)]
pub struct UtilizationWeighted {
    k: usize,
    rng: StdRng,
    appeared: BTreeMap<NodeId, u64>,
    chosen: BTreeMap<NodeId, u64>,
}

impl UtilizationWeighted {
    /// Creates a utilization-weighted policy of subset size `k`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "subset must be non-empty");
        UtilizationWeighted {
            k,
            rng: StdRng::seed_from_u64(seed),
            appeared: BTreeMap::new(),
            chosen: BTreeMap::new(),
        }
    }

    /// The smoothed utilization weight of a relay:
    /// `(chosen + 1) / (appeared + 2)`.
    pub fn weight(&self, via: NodeId) -> f64 {
        let a = self.appeared.get(&via).copied().unwrap_or(0) as f64;
        let c = self.chosen.get(&via).copied().unwrap_or(0) as f64;
        (c + 1.0) / (a + 2.0)
    }
}

impl PathSelector for UtilizationWeighted {
    fn name(&self) -> &'static str {
        "utilization-weighted"
    }

    fn paths(&mut self, ctx: &PathCtx<'_>) -> Vec<PathSpec> {
        let k = self.k.min(ctx.relays.len());
        // Weighted sampling without replacement.
        let mut pool: Vec<NodeId> = ctx.relays.to_vec();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let weights: Vec<f64> = pool.iter().map(|&v| self.weight(v)).collect();
            let idx = weighted_index(&mut self.rng, &weights);
            out.push(pool.swap_remove(idx));
        }
        out.sort();
        one_hop_paths(ctx, &out)
    }

    fn observe(&mut self, rec: &TransferRecord) {
        for &via in &rec.candidates {
            *self.appeared.entry(via).or_insert(0) += 1;
        }
        if let Some(via) = rec.selected.via() {
            *self.chosen.entry(via).or_insert(0) += 1;
        }
    }
}

/// ε-greedy single-relay bandit (extension / ablation baseline): with
/// probability ε probe a random relay, otherwise the relay with the
/// best mean observed improvement.
#[derive(Debug, Clone)]
pub struct EpsilonGreedy {
    epsilon: f64,
    rng: StdRng,
    sum: BTreeMap<NodeId, f64>,
    n: BTreeMap<NodeId, u64>,
}

impl EpsilonGreedy {
    /// Creates an ε-greedy policy.
    pub fn new(epsilon: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "bad epsilon");
        EpsilonGreedy {
            epsilon,
            rng: StdRng::seed_from_u64(seed),
            sum: BTreeMap::new(),
            n: BTreeMap::new(),
        }
    }

    fn mean(&self, via: NodeId) -> Option<f64> {
        let n = *self.n.get(&via)?;
        Some(self.sum[&via] / n as f64)
    }
}

impl PathSelector for EpsilonGreedy {
    fn name(&self) -> &'static str {
        "epsilon-greedy"
    }

    fn paths(&mut self, ctx: &PathCtx<'_>) -> Vec<PathSpec> {
        use rand::Rng;
        if ctx.relays.is_empty() {
            return Vec::new();
        }
        // Explore unvisited arms first, then ε-greedy.
        if let Some(&unvisited) = ctx.relays.iter().find(|v| !self.n.contains_key(v)) {
            return one_hop_paths(ctx, &[unvisited]);
        }
        let explore = self.rng.gen::<f64>() < self.epsilon;
        let pick = if explore {
            *ctx.relays
                .choose(&mut self.rng)
                .expect("non-empty full set")
        } else {
            *ctx.relays
                .iter()
                .max_by(|a, b| {
                    self.mean(**a)
                        .unwrap_or(f64::NEG_INFINITY)
                        .partial_cmp(&self.mean(**b).unwrap_or(f64::NEG_INFINITY))
                        .unwrap()
                })
                .expect("non-empty full set")
        };
        one_hop_paths(ctx, &[pick])
    }

    fn observe(&mut self, rec: &TransferRecord) {
        // Attribute the observed improvement to the probed relay
        // (candidates are singletons for this policy).
        for &via in &rec.candidates {
            let imp = rec.improvement();
            if imp.is_finite() {
                *self.sum.entry(via).or_insert(0.0) += imp;
                *self.n.entry(via).or_insert(0) += 1;
            }
        }
    }
}

/// UCB1 single-relay bandit (extension / ablation baseline).
#[derive(Debug, Clone, Default)]
pub struct Ucb1 {
    sum: BTreeMap<NodeId, f64>,
    n: BTreeMap<NodeId, u64>,
    total: u64,
}

impl Ucb1 {
    /// Creates a UCB1 policy.
    pub fn new() -> Self {
        Ucb1::default()
    }

    fn score(&self, via: NodeId) -> f64 {
        match self.n.get(&via) {
            None => f64::INFINITY, // unexplored first
            Some(&n) => {
                let mean = self.sum[&via] / n as f64;
                mean + (2.0 * (self.total.max(1) as f64).ln() / n as f64).sqrt()
            }
        }
    }
}

impl PathSelector for Ucb1 {
    fn name(&self) -> &'static str {
        "ucb1"
    }

    fn paths(&mut self, ctx: &PathCtx<'_>) -> Vec<PathSpec> {
        if ctx.relays.is_empty() {
            return Vec::new();
        }
        let best = *ctx
            .relays
            .iter()
            .max_by(|a, b| self.score(**a).partial_cmp(&self.score(**b)).unwrap())
            .expect("non-empty full set");
        one_hop_paths(ctx, &[best])
    }

    fn observe(&mut self, rec: &TransferRecord) {
        for &via in &rec.candidates {
            let imp = rec.improvement();
            if imp.is_finite() {
                *self.sum.entry(via).or_insert(0.0) += imp;
                *self.n.entry(via).or_insert(0) += 1;
                self.total += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_simnet::time::SimTime;

    const CLIENT: NodeId = NodeId(100);
    const SERVER: NodeId = NodeId(101);

    fn ctx<'a>(topo: &'a Topology, full: &'a [NodeId]) -> PathCtx<'a> {
        PathCtx {
            client: CLIENT,
            server: SERVER,
            relays: full,
            topo,
            transfer_index: 0,
        }
    }

    /// One decision's relays, in probe order (these policies emit
    /// 1-hop paths only and never look at the topology).
    fn pick(p: &mut dyn PathSelector, full: &[NodeId]) -> Vec<NodeId> {
        let paths = p.paths(&ctx(&Topology::new(), full));
        assert!(paths.iter().all(|p| p.hop_count() == 1));
        paths.iter().filter_map(|p| p.via()).collect()
    }

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    fn rec_with(via: Option<NodeId>, cands: &[NodeId], sel: f64, dir: f64) -> TransferRecord {
        TransferRecord {
            client: CLIENT,
            server: SERVER,
            started: SimTime::ZERO,
            file_bytes: 1,
            selected: match via {
                None => PathSpec::direct(CLIENT, SERVER),
                Some(v) => PathSpec::indirect(CLIENT, SERVER, v),
            },
            candidates: cands.to_vec(),
            direct_throughput: dir,
            selected_throughput: sel,
            probe_throughput: sel,
            selected_path_rate: sel,
            probe_timeout: false,
            failovers: 0,
            stall_ms: 0,
            abandoned: false,
        }
    }

    #[test]
    fn direct_only_has_no_candidates() {
        assert!(pick(&mut DirectOnly, &nodes(&[2, 3])).is_empty());
    }

    #[test]
    fn static_single_always_same() {
        let full = nodes(&[2, 3]);
        assert_eq!(pick(&mut StaticSingle(NodeId(3)), &full), nodes(&[3]));
    }

    #[test]
    fn full_set_returns_everything() {
        let full = nodes(&[2, 3, 4]);
        assert_eq!(pick(&mut FullSet, &full), full);
    }

    #[test]
    fn sanitize_drops_endpoints_and_duplicates() {
        let n = NodeId;
        let out = sanitize_candidates(n(0), n(1), &[n(2), n(0), n(3), n(2), n(1), n(4)]);
        assert_eq!(out, vec![n(2), n(3), n(4)]);
        let clean = vec![n(5), n(3), n(7)];
        assert_eq!(sanitize_candidates(n(0), n(1), &clean), clean);
    }

    /// A policy emitting the client, the server or a duplicate is
    /// filtered, not a panic in `PathSpec::indirect`.
    #[test]
    fn degenerate_policy_output_is_sanitized_not_fatal() {
        let roster = [CLIENT, NodeId(4), SERVER, NodeId(4), NodeId(5)];
        assert_eq!(pick(&mut FullSet, &roster), nodes(&[4, 5]));
        assert!(pick(&mut StaticSingle(CLIENT), &roster).is_empty());
    }

    #[test]
    fn best_k_truncates_dedups_and_preserves_order() {
        /// A canned selector returning a fixed list (with a duplicate,
        /// to exercise the default `best_k` dedup).
        struct Canned(Vec<PathSpec>);
        impl PathSelector for Canned {
            fn name(&self) -> &'static str {
                "canned"
            }
            fn paths(&mut self, _ctx: &PathCtx<'_>) -> Vec<PathSpec> {
                self.0.clone()
            }
        }
        let topo = Topology::new();
        let relays = nodes(&[2, 3]);
        let p2 = PathSpec::indirect(CLIENT, SERVER, relays[0]);
        let p3 = PathSpec::indirect(CLIENT, SERVER, relays[1]);
        let mut sel = Canned(vec![p2, p2, p3]);
        assert_eq!(sel.best_k(&ctx(&topo, &relays), 1), vec![p2]);
        assert_eq!(sel.best_k(&ctx(&topo, &relays), 2), vec![p2, p3]);
        // Asking for more than exists returns what exists.
        assert_eq!(sel.best_k(&ctx(&topo, &relays), 9), vec![p2, p3]);
        assert!(sel.best_k(&ctx(&topo, &relays), 0).is_empty());
    }

    #[test]
    fn random_set_size_and_membership() {
        let full = nodes(&[10, 11, 12, 13, 14, 15]);
        let mut p = RandomSet::new(3, 7);
        for _ in 0..50 {
            let c = pick(&mut p, &full);
            assert_eq!(c.len(), 3);
            let mut d = c.clone();
            d.dedup();
            assert_eq!(d.len(), 3, "duplicates in {c:?}");
            assert!(c.iter().all(|v| full.contains(v)));
        }
    }

    #[test]
    fn random_set_clamps_to_full_set() {
        let full = nodes(&[1, 2]);
        assert_eq!(pick(&mut RandomSet::new(10, 1), &full).len(), 2);
    }

    #[test]
    fn random_set_deterministic_per_seed() {
        let full = nodes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let draw = || {
            let mut p = RandomSet::new(3, 42);
            (0..10).map(|_| pick(&mut p, &full)).collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn utilization_weighted_learns_preference() {
        let full = nodes(&[1, 2]);
        let mut p = UtilizationWeighted::new(1, 3);
        // Relay 1 always chosen when it appears; relay 2 never.
        for _ in 0..30 {
            p.observe(&rec_with(Some(NodeId(1)), &nodes(&[1]), 2.0, 1.0));
            p.observe(&rec_with(None, &nodes(&[2]), 1.0, 1.0));
        }
        assert!(p.weight(NodeId(1)) > 0.9);
        assert!(p.weight(NodeId(2)) < 0.1);
        // Sampling should now heavily favour relay 1.
        let ones = (0..200)
            .filter(|_| pick(&mut p, &full)[0] == NodeId(1))
            .count();
        assert!(ones > 150, "only {ones}/200 favoured");
    }

    /// The §6 policy's `observe` loop end to end: a seeded sweep of
    /// repeated good outcomes for one relay must measurably raise its
    /// selection frequency from the cold, roughly uniform split.
    #[test]
    fn utilization_weighted_observe_raises_selection_frequency() {
        let full = nodes(&[2, 3]);
        let mut p = UtilizationWeighted::new(1, 5);
        let share = |p: &mut UtilizationWeighted| {
            (0..400).filter(|_| pick(p, &full)[0] == NodeId(2)).count()
        };
        let before = share(&mut p);
        assert!((120..=280).contains(&before), "cold split {before}/400");
        for _ in 0..40 {
            p.observe(&rec_with(Some(NodeId(2)), &nodes(&[2]), 2.0, 1.0));
            p.observe(&rec_with(None, &nodes(&[3]), 2.0, 1.0));
        }
        let after = share(&mut p);
        assert!(
            after > before + 60,
            "good outcomes did not raise frequency: {before} -> {after}"
        );
    }

    #[test]
    fn epsilon_greedy_explores_then_exploits() {
        let full = nodes(&[1, 2, 3]);
        let mut p = EpsilonGreedy::new(0.0, 9); // pure exploit after init
        let mut seen = std::collections::BTreeSet::new();
        // First three picks visit each arm once.
        for _ in 0..3 {
            let c = pick(&mut p, &full);
            assert_eq!(c.len(), 1);
            seen.insert(c[0]);
            // Arm 2 performs best.
            let reward = if c[0] == NodeId(2) { 1.0 } else { 0.1 };
            p.observe(&rec_with(Some(c[0]), &c, 1.0 + reward, 1.0));
        }
        assert_eq!(seen.len(), 3);
        // Now it should lock onto arm 2.
        for _ in 0..10 {
            assert_eq!(pick(&mut p, &full), nodes(&[2]));
        }
    }

    #[test]
    fn ucb1_visits_all_arms_then_prefers_best() {
        let full = nodes(&[1, 2, 3]);
        let mut p = Ucb1::new();
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..60 {
            let c = pick(&mut p, &full);
            *counts.entry(c[0]).or_insert(0) += 1;
            let reward = if c[0] == NodeId(3) { 0.8 } else { 0.05 };
            p.observe(&rec_with(Some(c[0]), &c, 1.0 + reward, 1.0));
        }
        assert!(counts[&NodeId(3)] > counts[&NodeId(1)]);
        assert!(counts[&NodeId(3)] > counts[&NodeId(2)]);
    }

    #[test]
    fn bandits_handle_empty_full_set() {
        assert!(pick(&mut EpsilonGreedy::new(0.1, 1), &[]).is_empty());
        assert!(pick(&mut Ucb1::new(), &[]).is_empty());
    }
}
