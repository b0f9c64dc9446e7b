//! Network topology: nodes, directed links, and routes.
//!
//! The topology is deliberately simple — the paper's world is a star of
//! end hosts around "the Internet", where what matters is the available
//! bandwidth of each end-to-end segment, not hop-by-hop routing. Links
//! are directed (throughput is asymmetric in practice: the paper's
//! downloads stress the server→client direction) and carry a one-way
//! propagation latency used to derive per-route RTTs.

use crate::time::SimDuration;
use std::collections::BTreeMap;

/// Identifier of a node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);
ir_artifact::declare! { StableHash + Codec for struct NodeId(id) }

/// Identifier of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);
ir_artifact::declare! { StableHash for struct LinkId(id) }

/// Role of a node in the indirect-routing experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A download client (the paper's international PlanetLab nodes).
    Client,
    /// An overlay relay (the paper's US PlanetLab nodes).
    Intermediate,
    /// An origin web server (eBay, Google, Microsoft, Yahoo).
    Server,
}

/// A node: a name, a role, nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Human-readable name, e.g. `"Berlin"` or `"Texas"`.
    pub name: String,
    /// Role in the experiment.
    pub kind: NodeKind,
}

/// How a link's bandwidth process constrains concurrent flows.
///
/// A measured *available bandwidth* on a wide-area Internet path already
/// reflects the thousands of background flows sharing it; adding one
/// more of our flows does not halve anyone's share. A dedicated link
/// (e.g. an access link in a controlled testbed) is the opposite: our
/// flows are the only users and split it max–min fairly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sharing {
    /// The process value is a hard capacity, max–min shared among the
    /// simulation's flows.
    #[default]
    Capacity,
    /// The process value is the available bandwidth *each* flow can
    /// obtain (statistical-multiplexing abstraction); flows crossing the
    /// link do not couple.
    PerFlow,
}

/// A directed link between two nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// How concurrent flows experience the bandwidth process.
    pub sharing: Sharing,
}

/// A directed multigraph of nodes and links.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    by_endpoints: BTreeMap<(NodeId, NodeId), LinkId>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name: name.into(),
            kind,
        });
        id
    }

    /// Adds a directed [`Sharing::Capacity`] link and returns its id.
    /// At most one link may exist per ordered node pair.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist, the endpoints are equal,
    /// or a link between the pair already exists.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, latency: SimDuration) -> LinkId {
        self.add_link_shared(from, to, latency, Sharing::Capacity)
    }

    /// Adds a directed link with an explicit sharing model.
    ///
    /// # Panics
    ///
    /// As [`Topology::add_link`].
    pub fn add_link_shared(
        &mut self,
        from: NodeId,
        to: NodeId,
        latency: SimDuration,
        sharing: Sharing,
    ) -> LinkId {
        assert!(
            (from.0 as usize) < self.nodes.len(),
            "unknown node {from:?}"
        );
        assert!((to.0 as usize) < self.nodes.len(), "unknown node {to:?}");
        assert_ne!(from, to, "self-link");
        assert!(
            !self.by_endpoints.contains_key(&(from, to)),
            "duplicate link {from:?}->{to:?}"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            from,
            to,
            latency,
            sharing,
        });
        self.by_endpoints.insert((from, to), id);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Looks up a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// The link from `a` to `b`, if one exists.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.by_endpoints.get(&(a, b)).copied()
    }

    /// All node ids of a given kind, in insertion order.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&id| self.node(id).kind == kind)
            .collect()
    }

    /// Finds a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .find(|&id| self.node(id).name == name)
    }

    /// Builds a route (sequence of links) through the given nodes.
    ///
    /// Returns `None` if any required link is missing.
    pub fn route(&self, hops: &[NodeId]) -> Option<Route> {
        assert!(hops.len() >= 2, "route needs at least two nodes");
        let mut links = Vec::with_capacity(hops.len() - 1);
        for w in hops.windows(2) {
            links.push(self.link_between(w[0], w[1])?);
        }
        Some(Route { links })
    }

    /// Round-trip time along a route: twice the sum of one-way latencies
    /// (assumes symmetric reverse latency, which is adequate for a
    /// throughput study).
    pub fn rtt(&self, route: &Route) -> SimDuration {
        let one_way: u64 = route
            .links
            .iter()
            .map(|&l| self.link(l).latency.as_micros())
            .sum();
        SimDuration::from_micros(one_way * 2)
    }
}

/// An ordered sequence of links a flow traverses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Links in traversal order.
    pub links: Vec<LinkId>,
}

impl Route {
    /// Builds a route directly from link ids.
    pub fn from_links(links: Vec<LinkId>) -> Self {
        assert!(!links.is_empty(), "empty route");
        Route { links }
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Routes are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let c = t.add_node("client", NodeKind::Client);
        let m = t.add_node("mid", NodeKind::Intermediate);
        let s = t.add_node("server", NodeKind::Server);
        t.add_link(c, s, SimDuration::from_millis(80));
        t.add_link(c, m, SimDuration::from_millis(50));
        t.add_link(m, s, SimDuration::from_millis(10));
        (t, c, m, s)
    }

    #[test]
    fn build_and_lookup() {
        let (t, c, m, s) = tiny();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3);
        assert_eq!(t.node(c).name, "client");
        assert_eq!(t.node(m).kind, NodeKind::Intermediate);
        assert!(t.link_between(c, s).is_some());
        assert!(t.link_between(s, c).is_none());
        assert_eq!(t.node_by_name("server"), Some(s));
        assert_eq!(t.node_by_name("nope"), None);
    }

    #[test]
    fn nodes_of_kind_filters() {
        let (t, c, m, s) = tiny();
        assert_eq!(t.nodes_of_kind(NodeKind::Client), vec![c]);
        assert_eq!(t.nodes_of_kind(NodeKind::Intermediate), vec![m]);
        assert_eq!(t.nodes_of_kind(NodeKind::Server), vec![s]);
    }

    #[test]
    fn routes_and_rtt() {
        let (t, c, m, s) = tiny();
        let direct = t.route(&[c, s]).unwrap();
        assert_eq!(direct.len(), 1);
        assert_eq!(t.rtt(&direct), SimDuration::from_millis(160));
        let indirect = t.route(&[c, m, s]).unwrap();
        assert_eq!(indirect.len(), 2);
        assert_eq!(t.rtt(&indirect), SimDuration::from_millis(120));
        assert!(t.route(&[s, c]).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_panics() {
        let (mut t, c, _, s) = tiny();
        t.add_link(c, s, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn self_link_panics() {
        let (mut t, c, _, _) = tiny();
        t.add_link(c, c, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn short_route_panics() {
        let (t, c, _, _) = tiny();
        let _ = t.route(&[c]);
    }
}
