//! Hop-chain sanitization for chain-building selectors.

use ir_core::{sanitize_candidates, MAX_HOPS};
use ir_simnet::topology::NodeId;

/// Sanitizes one hop chain: drops endpoints and revisited relays
/// (keeping the first occurrence, via [`sanitize_candidates`]) and
/// truncates to [`MAX_HOPS`]. The result is always a valid argument to
/// `PathSpec::chain`; an empty result means the chain degenerated to
/// the direct path and should be skipped.
pub fn sanitize_chain(client: NodeId, server: NodeId, chain: &[NodeId]) -> Vec<NodeId> {
    let mut out = sanitize_candidates(client, server, chain);
    out.truncate(MAX_HOPS);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_core::PathSpec;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn chain_truncates_to_max_hops() {
        let raw: Vec<NodeId> = (10..10 + MAX_HOPS as u32 + 3).map(NodeId).collect();
        let out = sanitize_chain(n(0), n(1), &raw);
        assert_eq!(out.len(), MAX_HOPS);
        assert_eq!(out, raw[..MAX_HOPS]);
    }

    /// The regression the helper exists for: every degenerate shape a
    /// policy can emit must come out as a constructible chain instead
    /// of tripping the `PathSpec` asserts.
    #[test]
    fn degenerate_outputs_always_construct() {
        let (c, s) = (n(0), n(1));
        let degenerate: &[&[NodeId]] = &[
            &[],                                   // empty
            &[c],                                  // client itself
            &[s],                                  // server itself
            &[c, s],                               // both endpoints
            &[n(2), n(2)],                         // duplicate relay
            &[n(2), c, n(2), s, n(3), n(3)],       // everything at once
            &[n(2), n(3), n(4), n(5), n(6), n(7)], // overlong
        ];
        for raw in degenerate {
            let hops = sanitize_chain(c, s, raw);
            // Must not panic:
            let p = PathSpec::chain(c, s, &hops);
            assert_eq!(p.hops(), &hops[..]);
        }
    }

    #[test]
    fn clean_input_passes_through() {
        let clean = vec![n(5), n(3), n(7)];
        assert_eq!(sanitize_chain(n(0), n(1), &clean), clean);
    }
}
