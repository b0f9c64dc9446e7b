//! Path specifications: direct vs indirect-via-a-chain-of-relays.
//!
//! The paper's protocol probes one intermediate at a time, but the
//! policy plane (`ir-policy`) generalizes candidates to *hop chains*:
//! `client -> r1 -> r2 -> server`. A [`PathSpec`] therefore carries up
//! to [`MAX_HOPS`] intermediates inline — it stays `Copy` (sessions
//! pass paths by value throughout) and one-hop specs behave exactly as
//! the old `via: Option<NodeId>` encoding did.

use ir_artifact::{ByteReader, ByteWriter, Codec, StableHash, StableHasher};
use ir_simnet::topology::{NodeId, Route, Topology};
use std::fmt;

/// Maximum number of intermediate hops a [`PathSpec`] can carry.
///
/// Chains longer than this lose to their own relay-processing latency
/// long before they win a probe race (Kedia et al. observe the overlay
/// detour benefit collapsing past a few hops), so the cap is a
/// protocol constant, not a tunable.
pub const MAX_HOPS: usize = 3;

/// Filler for unused hop slots, so derived `Eq`/`Hash`/`Ord` only see
/// normalized values. Never a valid node: topologies are far smaller.
const FILL: NodeId = NodeId(u32::MAX);

/// An end-to-end path choice between a client and a server: the direct
/// Internet path, or a detour through 1..=[`MAX_HOPS`] overlay relays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathSpec {
    /// The downloading client.
    pub client: NodeId,
    /// The origin server.
    pub server: NodeId,
    /// Number of intermediate hops in use (0 = direct).
    pub(crate) hop_len: u8,
    /// Intermediate hops, in traversal order; slots `hop_len..` hold
    /// [`FILL`] so the derived comparisons stay canonical.
    pub(crate) hops: [NodeId; MAX_HOPS],
}

impl PathSpec {
    /// The direct path.
    pub fn direct(client: NodeId, server: NodeId) -> Self {
        PathSpec {
            client,
            server,
            hop_len: 0,
            hops: [FILL; MAX_HOPS],
        }
    }

    /// An indirect path through the single relay `via`.
    pub fn indirect(client: NodeId, server: NodeId, via: NodeId) -> Self {
        PathSpec::chain(client, server, &[via])
    }

    /// An indirect path through the given relay chain, in traversal
    /// order. An empty chain is the direct path.
    ///
    /// # Panics
    ///
    /// Panics if the chain is longer than [`MAX_HOPS`], revisits a
    /// relay, or routes through either endpoint. Policies emitting
    /// untrusted node lists should sanitize first (`ir-policy` has the
    /// shared helper).
    pub fn chain(client: NodeId, server: NodeId, chain: &[NodeId]) -> Self {
        assert!(
            chain.len() <= MAX_HOPS,
            "chain of {} exceeds MAX_HOPS={MAX_HOPS}",
            chain.len()
        );
        let mut hops = [FILL; MAX_HOPS];
        for (i, &hop) in chain.iter().enumerate() {
            assert_ne!(hop, client, "relay cannot be the client");
            assert_ne!(hop, server, "relay cannot be the server");
            assert!(
                !chain[..i].contains(&hop),
                "duplicate relay {hop:?} in chain"
            );
            hops[i] = hop;
        }
        PathSpec {
            client,
            server,
            hop_len: chain.len() as u8,
            hops,
        }
    }

    /// The intermediate hops, in traversal order (empty for the direct
    /// path).
    pub fn hops(&self) -> &[NodeId] {
        &self.hops[..self.hop_len as usize]
    }

    /// Number of intermediate hops (0 = direct).
    pub fn hop_count(&self) -> usize {
        self.hop_len as usize
    }

    /// The *first* intermediate, if any — the single relay for one-hop
    /// paths. Utilization accounting credits this node: it is the relay
    /// the client contacted, whatever the chain does afterwards.
    pub fn via(&self) -> Option<NodeId> {
        self.hops().first().copied()
    }

    /// True if this is an indirect path.
    pub fn is_indirect(&self) -> bool {
        self.hop_len > 0
    }

    /// The full node sequence `client, hops…, server`.
    fn node_seq(&self) -> Vec<NodeId> {
        let mut seq = Vec::with_capacity(self.hop_count() + 2);
        seq.push(self.client);
        seq.extend_from_slice(self.hops());
        seq.push(self.server);
        seq
    }

    /// Resolves this spec to a concrete route in `topo`.
    ///
    /// Returns `None` if the required links are missing from the
    /// topology.
    pub fn resolve(&self, topo: &Topology) -> Option<Route> {
        topo.route(&self.node_seq())
    }

    /// Human-readable description using node names from `topo`.
    pub fn describe(&self, topo: &Topology) -> String {
        let c = &topo.node(self.client).name;
        let s = &topo.node(self.server).name;
        if self.hop_len == 0 {
            format!("{c} -> {s} (direct)")
        } else {
            let mids: Vec<&str> = self
                .hops()
                .iter()
                .map(|&v| topo.node(v).name.as_str())
                .collect();
            format!("{c} -> {} -> {s}", mids.join(" -> "))
        }
    }
}

impl StableHash for PathSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        let PathSpec {
            client,
            server,
            hop_len,
            hops,
        } = self;
        client.stable_hash(h);
        server.stable_hash(h);
        // Only the live hops participate: the fill slots are a
        // representation detail, and hashing them would make the
        // fingerprint depend on MAX_HOPS.
        hops[..*hop_len as usize].stable_hash(h);
    }
}

impl Codec for PathSpec {
    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        self.client.put(w);
        self.server.put(w);
        // Hop-chain layout (codec v2): count then the hops in traversal
        // order. A 1-hop chain is byte-for-byte the old `via` encoding.
        w.put_u8(self.hop_len);
        for hop in self.hops() {
            hop.put(w);
        }
    }

    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let client = NodeId::get(r)?;
        let server = NodeId::get(r)?;
        let n = r.get_u8()? as usize;
        if n > MAX_HOPS {
            return None;
        }
        let hops: Vec<NodeId> = (0..n).map(|_| NodeId::get(r)).collect::<Option<_>>()?;
        // Reject degenerate chains instead of panicking in `chain`.
        if hops.iter().any(|&h| h == client || h == server) {
            return None;
        }
        if (1..hops.len()).any(|i| hops[..i].contains(&hops[i])) {
            return None;
        }
        Some(PathSpec::chain(client, server, &hops))
    }
}

impl fmt::Display for PathSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hop_len == 0 {
            write!(f, "direct({}->{})", self.client.0, self.server.0)
        } else {
            write!(f, "via({}", self.client.0)?;
            for v in self.hops() {
                write!(f, "->{}", v.0)?;
            }
            write!(f, "->{})", self.server.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_simnet::time::SimDuration;
    use ir_simnet::topology::NodeKind;

    fn topo() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let c = t.add_node("Berlin", NodeKind::Client);
        let v = t.add_node("Texas", NodeKind::Intermediate);
        let s = t.add_node("eBay", NodeKind::Server);
        t.add_link(c, s, SimDuration::from_millis(80));
        t.add_link(c, v, SimDuration::from_millis(60));
        t.add_link(v, s, SimDuration::from_millis(15));
        (t, c, v, s)
    }

    /// Like [`topo`], plus a second relay wired `v -> w -> s`.
    fn topo2() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        let (mut t, c, v, s) = topo();
        let w = t.add_node("Utah", NodeKind::Intermediate);
        t.add_link(v, w, SimDuration::from_millis(5));
        t.add_link(w, s, SimDuration::from_millis(5));
        (t, c, v, w, s)
    }

    /// Cached bytes come from disk: a frame no `chain` call could have
    /// produced is malformed, never a panic.
    #[test]
    fn codec_round_trips_chains_and_rejects_degenerate_ones() {
        use ir_artifact::codec::{decode, encode};
        let (c, s) = (NodeId(0), NodeId(9));
        for hops in [&[][..], &[NodeId(4)], &[NodeId(5), NodeId(4), NodeId(6)]] {
            let path = PathSpec::chain(c, s, hops);
            assert_eq!(decode::<PathSpec>(&encode(&path)), Some(path));
        }
        let frame = |hops: &[u32]| {
            let mut w = ByteWriter::new();
            c.put(&mut w);
            s.put(&mut w);
            w.put_u8(hops.len() as u8);
            for &hop in hops {
                w.put_u32(hop);
            }
            w.into_bytes()
        };
        assert!(decode::<PathSpec>(&frame(&[4, 5])).is_some());
        assert!(
            decode::<PathSpec>(&frame(&[4, 5, 6, 7])).is_none(),
            "over MAX_HOPS"
        );
        assert!(
            decode::<PathSpec>(&frame(&[4, 0])).is_none(),
            "through the client"
        );
        assert!(
            decode::<PathSpec>(&frame(&[9])).is_none(),
            "through the server"
        );
        assert!(
            decode::<PathSpec>(&frame(&[4, 5, 4])).is_none(),
            "repeated hop"
        );
    }

    #[test]
    fn direct_and_indirect_resolve() {
        let (t, c, v, s) = topo();
        let d = PathSpec::direct(c, s);
        assert!(!d.is_indirect());
        assert_eq!(d.resolve(&t).unwrap().len(), 1);
        let i = PathSpec::indirect(c, s, v);
        assert!(i.is_indirect());
        assert_eq!(i.resolve(&t).unwrap().len(), 2);
    }

    #[test]
    fn missing_link_resolves_none() {
        let (t, c, _, s) = topo();
        // s -> c has no link.
        let back = PathSpec::direct(s, c);
        assert!(back.resolve(&t).is_none());
    }

    #[test]
    fn describe_uses_names() {
        let (t, c, v, s) = topo();
        assert_eq!(
            PathSpec::direct(c, s).describe(&t),
            "Berlin -> eBay (direct)"
        );
        assert_eq!(
            PathSpec::indirect(c, s, v).describe(&t),
            "Berlin -> Texas -> eBay"
        );
    }

    #[test]
    fn two_hop_chain_resolves_and_describes() {
        let (t, c, v, w, s) = topo2();
        let p = PathSpec::chain(c, s, &[v, w]);
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.hops(), &[v, w]);
        assert_eq!(p.via(), Some(v), "via() credits the first hop");
        assert_eq!(p.resolve(&t).unwrap().len(), 3);
        assert_eq!(p.describe(&t), "Berlin -> Texas -> Utah -> eBay");
        assert_eq!(
            p.to_string(),
            format!("via({}->{}->{}->{})", c.0, v.0, w.0, s.0)
        );
        // The reversed chain has no v <- w link.
        assert!(PathSpec::chain(c, s, &[w, v]).resolve(&t).is_none());
    }

    #[test]
    fn empty_chain_is_direct() {
        let (_, c, _, s) = topo();
        assert_eq!(PathSpec::chain(c, s, &[]), PathSpec::direct(c, s));
        assert_eq!(PathSpec::direct(c, s).via(), None);
        assert_eq!(PathSpec::direct(c, s).hops(), &[] as &[NodeId]);
    }

    #[test]
    fn one_hop_chain_equals_indirect() {
        let (_, c, v, s) = topo();
        assert_eq!(PathSpec::chain(c, s, &[v]), PathSpec::indirect(c, s, v));
    }

    #[test]
    #[should_panic(expected = "relay cannot be the client")]
    fn relay_cannot_be_endpoint() {
        let (_, c, _, s) = topo();
        PathSpec::indirect(c, s, c);
    }

    #[test]
    #[should_panic(expected = "duplicate relay")]
    fn chain_rejects_revisits() {
        let (_, c, v, s) = topo();
        PathSpec::chain(c, s, &[v, v]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_HOPS")]
    fn chain_rejects_overlong() {
        let (_, c, _, s) = topo();
        let hops: Vec<NodeId> = (10..10 + MAX_HOPS as u32 + 1).map(NodeId).collect();
        PathSpec::chain(c, s, &hops);
    }
}
