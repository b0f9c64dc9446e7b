//! Transfer records and utilization bookkeeping.
//!
//! One [`TransferRecord`] per experiment iteration captures everything
//! the paper's analysis needs: the control (direct) throughput, the
//! treatment (selected) throughput, which path won, and the probe
//! measurements. [`UtilizationTracker`] implements both of the paper's
//! utilization definitions — per-client (§3.2, Table II) and aggregate
//! (§3.4, Fig 5) — plus the §4.3 definition over random sets
//! (Table III).

use crate::path::PathSpec;
use ir_simnet::time::SimTime;
use ir_simnet::topology::NodeId;
use std::collections::BTreeMap;

/// Throughput improvement of `selected` relative to `direct`, as a
/// fraction (0.49 = +49%, the paper's headline average).
///
/// Returns `NaN` if the direct throughput is non-positive.
pub fn improvement(selected: f64, direct: f64) -> f64 {
    if direct <= 0.0 {
        f64::NAN
    } else {
        (selected - direct) / direct
    }
}

/// Full record of one experiment iteration (one file downloaded by both
/// the control process and the selecting process).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRecord {
    /// The client node.
    pub client: NodeId,
    /// The server node.
    pub server: NodeId,
    /// When the iteration began.
    pub started: SimTime,
    /// File size in bytes.
    pub file_bytes: u64,
    /// The path the predictor selected.
    pub selected: PathSpec,
    /// Relays that were candidates this iteration (the "random set").
    pub candidates: Vec<NodeId>,
    /// Throughput of the control process (direct path, whole file),
    /// bytes/sec.
    pub direct_throughput: f64,
    /// Throughput of the selecting process (probe + remainder over the
    /// selected path, whole file), bytes/sec.
    pub selected_throughput: f64,
    /// Probe throughput of the winning path, bytes/sec (the predictor's
    /// estimate of the path's rate).
    pub probe_throughput: f64,
    /// Realized throughput of the remainder phase on the selected path,
    /// bytes/sec (no probe overhead) — the quantity Fig 4 plots over
    /// time. `NaN` when there was no remainder phase.
    pub selected_path_rate: f64,
    /// True if the probe race failed to finish before its horizon and
    /// the session fell back to the direct path.
    pub probe_timeout: bool,
    /// Mid-transfer path switches forced by a dead or stalled selected
    /// path (0 when failover is disabled or never needed).
    pub failovers: u32,
    /// Total milliseconds the selecting process spent making no
    /// progress: zero-byte attempt windows plus backoff waits.
    pub stall_ms: u64,
    /// True if the transfer was abandoned — every retry and surviving
    /// candidate was exhausted before the file completed.
    pub abandoned: bool,
}
ir_artifact::declare! {
    Codec for struct TransferRecord {
        client,
        server,
        started,
        file_bytes,
        selected,
        candidates,
        direct_throughput,
        selected_throughput,
        probe_throughput,
        selected_path_rate,
        probe_timeout,
        failovers,
        stall_ms,
        abandoned,
    }
}

impl TransferRecord {
    /// Fractional improvement of the selecting process over the control
    /// (see [`improvement`]).
    pub fn improvement(&self) -> f64 {
        improvement(self.selected_throughput, self.direct_throughput)
    }

    /// Improvement in percent — the unit of Figs 1–3 and 6.
    pub fn improvement_pct(&self) -> f64 {
        self.improvement() * 100.0
    }

    /// True if an indirect path was selected.
    pub fn chose_indirect(&self) -> bool {
        self.selected.is_indirect()
    }

    /// True if this record is a penalty (negative improvement).
    pub fn is_penalty(&self) -> bool {
        self.improvement() < 0.0
    }
}

/// Counts of candidate appearances and selections per (client, relay)
/// pair — the basis of all three utilization statistics in the paper.
#[derive(Debug, Clone, Default)]
pub struct UtilizationTracker {
    appeared: BTreeMap<(NodeId, NodeId), u64>,
    chosen: BTreeMap<(NodeId, NodeId), u64>,
}

impl UtilizationTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        UtilizationTracker::default()
    }

    /// Ingests one transfer record: every candidate "appeared"; the
    /// selected relay (if indirect) was "chosen".
    pub fn observe(&mut self, rec: &TransferRecord) {
        for &via in &rec.candidates {
            *self.appeared.entry((rec.client, via)).or_insert(0) += 1;
        }
        if let Some(via) = rec.selected.via() {
            *self.chosen.entry((rec.client, via)).or_insert(0) += 1;
        }
    }

    /// Per-client utilization of a relay: the fraction of transfers in
    /// which `via` was available to `client` and was actually chosen
    /// (§4.3's definition; Table II/III). `None` if never a candidate.
    pub fn utilization(&self, client: NodeId, via: NodeId) -> Option<f64> {
        let appeared = *self.appeared.get(&(client, via))?;
        if appeared == 0 {
            return None;
        }
        let chosen = self.chosen.get(&(client, via)).copied().unwrap_or(0);
        Some(chosen as f64 / appeared as f64)
    }

    /// Aggregate utilization of a relay over all clients (§3.4's
    /// definition; Fig 5). `None` if never a candidate anywhere.
    pub fn total_utilization(&self, via: NodeId) -> Option<f64> {
        let appeared: u64 = self
            .appeared
            .iter()
            .filter(|((_, v), _)| *v == via)
            .map(|(_, &n)| n)
            .sum();
        if appeared == 0 {
            return None;
        }
        let chosen: u64 = self
            .chosen
            .iter()
            .filter(|((_, v), _)| *v == via)
            .map(|(_, &n)| n)
            .sum();
        Some(chosen as f64 / appeared as f64)
    }

    /// Per-client utilizations of a client's relays, sorted descending —
    /// Table II's "top three intermediate nodes" comes from the head of
    /// this list.
    pub fn top_for_client(&self, client: NodeId) -> Vec<(NodeId, f64)> {
        let mut out: Vec<(NodeId, f64)> = self
            .appeared
            .keys()
            .filter(|(c, _)| *c == client)
            .filter_map(|&(_, v)| self.utilization(client, v).map(|u| (v, u)))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        out
    }

    /// All relays that ever appeared, sorted by id.
    pub fn relays(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.appeared.keys().map(|&(_, via)| via).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Number of times `via` was selected by `client`.
    pub fn chosen_count(&self, client: NodeId, via: NodeId) -> u64 {
        self.chosen.get(&(client, via)).copied().unwrap_or(0)
    }

    /// Number of times `via` appeared as a candidate for `client`.
    pub fn appeared_count(&self, client: NodeId, via: NodeId) -> u64 {
        self.appeared.get(&(client, via)).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: u32) -> NodeId {
        NodeId(i)
    }

    fn rec(
        client: u32,
        via: Option<u32>,
        candidates: &[u32],
        sel: f64,
        dir: f64,
    ) -> TransferRecord {
        let c = node(client);
        let s = node(99);
        TransferRecord {
            client: c,
            server: s,
            started: SimTime::ZERO,
            file_bytes: 2_000_000,
            selected: match via {
                None => PathSpec::direct(c, s),
                Some(v) => PathSpec::indirect(c, s, node(v)),
            },
            candidates: candidates.iter().map(|&i| node(i)).collect(),
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
    fn improvement_math() {
        assert!((improvement(2.0, 1.0) - 1.0).abs() < 1e-12); // +100%
        assert!((improvement(0.5, 1.0) + 0.5).abs() < 1e-12); // -50%
        assert!(improvement(1.0, 0.0).is_nan());
        let r = rec(1, Some(2), &[2], 1.49e5, 1.0e5);
        assert!((r.improvement_pct() - 49.0).abs() < 1e-9);
        assert!(!r.is_penalty());
        assert!(rec(1, Some(2), &[2], 0.5e5, 1.0e5).is_penalty());
    }

    #[test]
    fn utilization_counting() {
        let mut u = UtilizationTracker::new();
        // Relay 2 appears 4 times for client 1, chosen twice.
        u.observe(&rec(1, Some(2), &[2, 3], 2.0, 1.0));
        u.observe(&rec(1, None, &[2, 3], 1.0, 1.0));
        u.observe(&rec(1, Some(2), &[2], 2.0, 1.0));
        u.observe(&rec(1, Some(3), &[2, 3], 2.0, 1.0));
        assert_eq!(u.utilization(node(1), node(2)), Some(0.5));
        assert_eq!(u.utilization(node(1), node(3)), Some(1.0 / 3.0));
        assert_eq!(u.utilization(node(1), node(4)), None);
        assert_eq!(u.appeared_count(node(1), node(2)), 4);
        assert_eq!(u.chosen_count(node(1), node(2)), 2);
    }

    #[test]
    fn total_utilization_aggregates_clients() {
        let mut u = UtilizationTracker::new();
        u.observe(&rec(1, Some(5), &[5], 2.0, 1.0));
        u.observe(&rec(2, None, &[5], 1.0, 1.0));
        // Relay 5: appeared twice (once per client), chosen once → 50%.
        assert_eq!(u.total_utilization(node(5)), Some(0.5));
        assert_eq!(u.total_utilization(node(6)), None);
    }

    #[test]
    fn top_for_client_sorts_descending() {
        let mut u = UtilizationTracker::new();
        u.observe(&rec(1, Some(2), &[2, 3, 4], 2.0, 1.0));
        u.observe(&rec(1, Some(2), &[2, 3, 4], 2.0, 1.0));
        u.observe(&rec(1, Some(3), &[2, 3, 4], 2.0, 1.0));
        let top = u.top_for_client(node(1));
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, node(2));
        assert!((top[0].1 - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(top[1].0, node(3));
        assert_eq!(top[2], (node(4), 0.0));
    }

    #[test]
    fn relays_lists_unique_sorted() {
        let mut u = UtilizationTracker::new();
        u.observe(&rec(1, None, &[7, 3], 1.0, 1.0));
        u.observe(&rec(2, None, &[3], 1.0, 1.0));
        assert_eq!(u.relays(), vec![node(3), node(7)]);
    }
}
