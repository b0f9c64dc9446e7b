//! K-shortest-candidate path generation over topology latency.

use std::collections::BTreeMap;

use crate::sanitize::sanitize_chain;
use ir_core::{sanitize_candidates, PathCtx, PathSelector, PathSpec, MAX_HOPS};
use ir_simnet::topology::{NodeId, Topology};

/// Configuration for [`KShortest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KShortestConfig {
    /// How many indirect chains to emit per decision.
    pub k: usize,
    /// Hop-count cap per chain; clamped to [`MAX_HOPS`].
    pub max_hops: usize,
}
ir_artifact::declare! { StableHash for "kshortest-config" struct KShortestConfig { k, max_hops } }

impl Default for KShortestConfig {
    fn default() -> Self {
        KShortestConfig {
            k: 3,
            max_hops: MAX_HOPS,
        }
    }
}

/// Generates the k lowest-latency loopless indirect chains from client
/// to server whose interior nodes are drawn from the relay roster.
///
/// Chains are ranked by summed one-way link latency. Because chains are
/// hop-capped at [`MAX_HOPS`], the generator runs a
/// uniform-cost (Dijkstra-style) expansion over the bounded chain space
/// and keeps the k cheapest — exactly what Yen's algorithm yields on
/// this graph, without the spur-path bookkeeping. Ties break on the hop
/// sequence itself, so the ranking is fully deterministic.
///
/// Decisions are pure functions of `(client, server, roster, topology)`
/// and the topology is immutable for a selector's lifetime, so ranked
/// chains are memoized per endpoint pair.
pub struct KShortest {
    cfg: KShortestConfig,
    memo: BTreeMap<(NodeId, NodeId), Vec<Vec<NodeId>>>,
}

impl KShortest {
    /// Creates a generator with the given config.
    pub fn new(cfg: KShortestConfig) -> Self {
        KShortest {
            cfg,
            memo: BTreeMap::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &KShortestConfig {
        &self.cfg
    }

    fn ranked_chains(&self, ctx: &PathCtx<'_>) -> Vec<Vec<NodeId>> {
        let relays = sanitize_candidates(ctx.client, ctx.server, ctx.relays);
        let cap = self.cfg.max_hops.min(MAX_HOPS);
        let mut found: Vec<(u64, Vec<NodeId>)> = Vec::new();
        let mut chain: Vec<NodeId> = Vec::with_capacity(cap);
        extend(
            ctx.topo, ctx.client, ctx.server, &relays, cap, 0, &mut chain, &mut found,
        );
        found.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        found.truncate(self.cfg.k);
        found.into_iter().map(|(_, c)| c).collect()
    }
}

/// One-way latency of the `a -> b` link in microseconds, if it exists.
fn edge(topo: &Topology, a: NodeId, b: NodeId) -> Option<u64> {
    topo.link_between(a, b)
        .map(|l| topo.link(l).latency.as_micros())
}

/// Depth-first expansion of loopless chains ending at `server`. `cost`
/// is the latency accumulated from the client up to the chain's last
/// relay; a chain is recorded when the closing hop to the server
/// exists.
#[expect(
    clippy::too_many_arguments,
    reason = "candidate-path extension mirrors Yen's algorithm state"
)]
fn extend(
    topo: &Topology,
    client: NodeId,
    server: NodeId,
    relays: &[NodeId],
    cap: usize,
    cost: u64,
    chain: &mut Vec<NodeId>,
    found: &mut Vec<(u64, Vec<NodeId>)>,
) {
    let tail = *chain.last().unwrap_or(&client);
    if !chain.is_empty() {
        if let Some(close) = edge(topo, tail, server) {
            found.push((cost + close, chain.clone()));
        }
    }
    if chain.len() == cap {
        return;
    }
    for &r in relays {
        if chain.contains(&r) {
            continue;
        }
        if let Some(step) = edge(topo, tail, r) {
            chain.push(r);
            extend(topo, client, server, relays, cap, cost + step, chain, found);
            chain.pop();
        }
    }
}

impl PathSelector for KShortest {
    fn name(&self) -> &'static str {
        "k-shortest"
    }

    fn paths(&mut self, ctx: &PathCtx<'_>) -> Vec<PathSpec> {
        let key = (ctx.client, ctx.server);
        if !self.memo.contains_key(&key) {
            let ranked = self.ranked_chains(ctx);
            self.memo.insert(key, ranked);
        }
        self.memo[&key]
            .iter()
            .filter_map(|c| {
                let hops = sanitize_chain(ctx.client, ctx.server, c);
                (!hops.is_empty()).then(|| PathSpec::chain(ctx.client, ctx.server, &hops))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_simnet::time::SimDuration;
    use ir_simnet::topology::NodeKind;

    /// client(0), server(1), relays 2..5. Direct latency is large;
    /// relay 2 is a slow 1-hop; relays 3->4 form a fast 2-hop ridge.
    fn ridge() -> (Topology, NodeId, NodeId, Vec<NodeId>) {
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let s = t.add_node("s", NodeKind::Server);
        let r2 = t.add_node("r2", NodeKind::Intermediate);
        let r3 = t.add_node("r3", NodeKind::Intermediate);
        let r4 = t.add_node("r4", NodeKind::Intermediate);
        let ms = |n: u64| SimDuration::from_micros(n * 1_000);
        t.add_link(c, s, ms(100));
        t.add_link(c, r2, ms(40));
        t.add_link(r2, s, ms(40));
        t.add_link(c, r3, ms(10));
        t.add_link(r3, r4, ms(10));
        t.add_link(r4, s, ms(10));
        (t, c, s, vec![r2, r3, r4])
    }

    fn ctx<'a>(topo: &'a Topology, c: NodeId, s: NodeId, relays: &'a [NodeId]) -> PathCtx<'a> {
        PathCtx {
            client: c,
            server: s,
            relays,
            topo,
            transfer_index: 0,
        }
    }

    #[test]
    fn ranks_two_hop_ridge_above_slow_one_hop() {
        let (topo, c, s, relays) = ridge();
        let mut sel = KShortest::new(KShortestConfig::default());
        let paths = sel.paths(&ctx(&topo, c, s, &relays));
        assert!(!paths.is_empty());
        // Cheapest chain is the 30ms c->r3->r4->s ridge.
        assert_eq!(paths[0], PathSpec::chain(c, s, &[relays[1], relays[2]]));
        assert!(paths.contains(&PathSpec::indirect(c, s, relays[0])));
    }

    #[test]
    fn respects_k_and_hop_cap() {
        let (topo, c, s, relays) = ridge();
        let mut one = KShortest::new(KShortestConfig { k: 1, max_hops: 3 });
        assert_eq!(one.paths(&ctx(&topo, c, s, &relays)).len(), 1);
        let mut flat = KShortest::new(KShortestConfig { k: 8, max_hops: 1 });
        for p in flat.paths(&ctx(&topo, c, s, &relays)) {
            assert_eq!(p.hop_count(), 1);
        }
    }

    #[test]
    fn skips_unreachable_relays_and_is_deterministic() {
        let (mut topo, c, s, mut relays) = ridge();
        // An island relay with no links never appears in any chain.
        let island = topo.add_node("island", NodeKind::Intermediate);
        relays.push(island);
        let mut a = KShortest::new(KShortestConfig::default());
        let mut b = KShortest::new(KShortestConfig::default());
        let pa = a.paths(&ctx(&topo, c, s, &relays));
        let pb = b.paths(&ctx(&topo, c, s, &relays));
        assert_eq!(pa, pb);
        assert!(pa.iter().all(|p| !p.hops().contains(&island)));
    }

    #[test]
    fn no_usable_links_means_direct_only() {
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let s = t.add_node("s", NodeKind::Server);
        let r = t.add_node("r", NodeKind::Intermediate);
        t.add_link(c, s, SimDuration::from_micros(10_000));
        let relays = vec![r];
        let mut sel = KShortest::new(KShortestConfig::default());
        assert!(sel.paths(&ctx(&t, c, s, &relays)).is_empty());
    }

    /// The striper/racer contract: `best_k(ctx, 1)` is exactly the
    /// path the racer probes first — `paths(ctx)[0]` — for a real
    /// selector, not just a stub.
    #[test]
    fn best_one_equals_first_probe_path() {
        let (topo, c, s, relays) = ridge();
        let mut sel = KShortest::new(KShortestConfig::default());
        let first = sel.paths(&ctx(&topo, c, s, &relays))[0];
        let best = sel.best_k(&ctx(&topo, c, s, &relays), 1);
        assert_eq!(best, vec![first]);
    }

    /// Acceptance: with a fast relay-relay ridge the k-shortest
    /// selector probes a 2-hop chain and the race picks it over every
    /// 1-hop path.
    #[test]
    fn two_hop_chain_wins_probe_race_end_to_end() {
        use ir_core::{run_session, SessionConfig, SimTransport};
        use ir_simnet::bandwidth::ConstantProcess;
        use ir_simnet::sim::Network;

        const MBPS: f64 = 1e6 / 8.0; // bytes/sec per "megabit"

        // r0 has a fat uplink but a thin 1-hop downlink; r1 the
        // reverse. Only the chain c -> r0 -> r1 -> s is fat end to
        // end, so every 1-hop path bottlenecks at 1 Mbps while the
        // 2-hop chain runs at 20.
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let s = t.add_node("s", NodeKind::Server);
        let r0 = t.add_node("r0", NodeKind::Intermediate);
        let r1 = t.add_node("r1", NodeKind::Intermediate);
        let ms = |n: u64| SimDuration::from_millis(n);
        let fat = 20.0 * MBPS;
        let thin = 1.0 * MBPS;
        let planned = [
            (t.add_link(c, s, ms(5)), 2.0 * MBPS),
            (t.add_link(c, r0, ms(5)), fat),
            (t.add_link(r0, s, ms(5)), thin), // r0's 1-hop path is thin
            (t.add_link(c, r1, ms(5)), thin), // r1's 1-hop path is thin
            (t.add_link(r1, s, ms(5)), fat),
            (t.add_link(r0, r1, ms(1)), fat), // the ridge
        ];
        let mut net = Network::new(t, 1.0);
        for (l, rate) in planned {
            net.set_link_process(l, Box::new(ConstantProcess::new(rate)));
        }
        let relays = vec![r0, r1];
        let topo = net.topology().clone();
        let mut transport = SimTransport::new(net);
        let mut sel = KShortest::new(KShortestConfig::default());
        let (rec, ..) = run_session(
            &mut transport,
            &mut sel,
            &ctx(&topo, c, s, &relays),
            &SessionConfig::paper_defaults(),
            None,
        );
        assert_eq!(rec.selected.hops(), &[r0, r1]);
        assert!(rec.selected_throughput > rec.direct_throughput);
    }
}
