//! [`StableHash`] impls for simnet parameter types.
//!
//! These encodings key the on-disk study cache (`ir-artifact`): they
//! must stay **pinned**. Each impl destructures its type exhaustively,
//! so adding a field is a compile error here — the fix is to extend the
//! encoding *and* bump the consuming artefact's code-version salt so
//! stale cache entries are retired rather than wrongly reused.

use crate::faults::{FaultEvent, FaultPlan, FaultSpec};
use crate::sim::EngineMode;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId};
use ir_artifact::{StableHash, StableHasher};

impl StableHash for SimTime {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
    }
}

impl StableHash for SimDuration {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
    }
}

impl StableHash for NodeId {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
    }
}

impl StableHash for LinkId {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
    }
}

impl StableHash for EngineMode {
    fn stable_hash(&self, h: &mut StableHasher) {
        // Pinned tags: existing study caches key on them. Tag 2 was
        // `Sharded` (deleted; its results were bit-identical to
        // `Incremental`'s) — do not reuse it for a mode whose semantics
        // differ.
        h.write_tag(match self {
            EngineMode::Incremental => 0,
            EngineMode::Reference => 1,
        });
    }
}

impl StableHash for FaultEvent {
    fn stable_hash(&self, h: &mut StableHasher) {
        match *self {
            FaultEvent::LinkDown(link) => {
                h.write_tag(0);
                link.stable_hash(h);
            }
            FaultEvent::LinkUp(link) => {
                h.write_tag(1);
                link.stable_hash(h);
            }
            FaultEvent::BrownoutSet { link, factor } => {
                h.write_tag(2);
                link.stable_hash(h);
                factor.stable_hash(h);
            }
            FaultEvent::NodeDown(node) => {
                h.write_tag(3);
                node.stable_hash(h);
            }
            FaultEvent::NodeUp(node) => {
                h.write_tag(4);
                node.stable_hash(h);
            }
        }
    }
}

impl StableHash for FaultSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        let FaultSpec {
            horizon,
            link_mtbf,
            link_outage_mean,
            brownout_prob,
            brownout_factor,
            node_mtbf,
            node_downtime_mean,
        } = *self;
        horizon.stable_hash(h);
        link_mtbf.stable_hash(h);
        link_outage_mean.stable_hash(h);
        brownout_prob.stable_hash(h);
        brownout_factor.stable_hash(h);
        node_mtbf.stable_hash(h);
        node_downtime_mean.stable_hash(h);
    }
}

impl StableHash for FaultPlan {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.events().stable_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_artifact::fingerprint_of;

    #[test]
    fn fault_event_variants_do_not_collide() {
        let down = fingerprint_of(&FaultEvent::LinkDown(LinkId(3)));
        let up = fingerprint_of(&FaultEvent::LinkUp(LinkId(3)));
        let node = fingerprint_of(&FaultEvent::NodeDown(NodeId(3)));
        assert_ne!(down, up);
        assert_ne!(down, node);
    }

    #[test]
    fn engine_mode_tags_are_pinned() {
        // Study caches key on these encodings: Incremental is tag 0,
        // Reference tag 1, exactly as before `Sharded` (tag 2) left.
        let tag = |t: u8| {
            let mut h = StableHasher::new();
            h.write_tag(t);
            h.finish()
        };
        let of = |m: EngineMode| {
            let mut h = StableHasher::new();
            m.stable_hash(&mut h);
            h.finish()
        };
        assert_eq!(of(EngineMode::Incremental), tag(0));
        assert_eq!(of(EngineMode::Reference), tag(1));
    }

    #[test]
    fn plan_fingerprint_is_a_pure_function_of_inputs() {
        let spec = FaultSpec::default();
        let links = [LinkId(0), LinkId(1)];
        let a = FaultPlan::random(&spec, &links, &[], 7);
        let b = FaultPlan::random(&spec, &links, &[], 7);
        let c = FaultPlan::random(&spec, &links, &[], 8);
        assert_eq!(fingerprint_of(&a), fingerprint_of(&b));
        assert_ne!(fingerprint_of(&a), fingerprint_of(&c));
        assert_ne!(fingerprint_of(&a), fingerprint_of(&FaultPlan::none()));
    }
}
