//! Deterministic fault plane: scheduled link outages, capacity
//! brownouts, and node crash/restart events.
//!
//! A [`FaultPlan`] is a plain schedule of [`FaultEvent`]s, fixed before
//! the run starts. The engine replays it through its event queue, so a
//! faulted run is exactly as deterministic as a fault-free one: the
//! same seed and plan produce bit-identical results, and an **empty**
//! plan leaves the engine byte-identical to a build without the fault
//! plane (see `Network::set_fault_plan`).
//!
//! Plans are built three ways:
//!
//! * [`FaultPlan::none`] — no faults (the guaranteed no-op);
//! * explicit builders ([`FaultPlan::link_outage`],
//!   [`FaultPlan::brownout`], [`FaultPlan::node_outage`]) — tests and
//!   replay;
//! * [`FaultPlan::random`] — a seeded renewal process per target link
//!   and node ([`FaultSpec`] holds the means), for the experiments'
//!   outage-rate sweeps. Generation is a pure function of
//!   `(spec, targets, seed)`; the same inputs always yield the same
//!   schedule, which is how a fault schedule is replayed from its seed.

use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId};
use ir_stats::sampling::{Exponential, Sample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled fault transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The link stops carrying traffic (effective rate 0).
    LinkDown(LinkId),
    /// The link recovers.
    LinkUp(LinkId),
    /// The link's available bandwidth is scaled by `factor` from this
    /// instant on; a factor of `1.0` restores full capacity. Factors
    /// must lie in `(0, 1]` — use [`FaultEvent::LinkDown`] for a full
    /// outage.
    BrownoutSet {
        /// The affected link.
        link: LinkId,
        /// Multiplier applied to the link's process rate.
        factor: f64,
    },
    /// The node crashes: every link touching it stops carrying traffic.
    NodeDown(NodeId),
    /// The node restarts.
    NodeUp(NodeId),
}
ir_artifact::declare! {
    StableHash for enum FaultEvent {
        LinkDown(link) = 0,
        LinkUp(link) = 1,
        BrownoutSet { link, factor } = 2,
        NodeDown(node) = 3,
        NodeUp(node) = 4,
    }
}

/// Parameters of [`FaultPlan::random`]: independent renewal processes
/// of outages per target link and crash/restart cycles per target node,
/// with exponential inter-failure and repair times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Generate events in `[0, horizon)`. Repairs may land past the
    /// horizon (an outage in progress at the horizon still ends).
    pub horizon: SimDuration,
    /// Mean time between outage onsets per target link. Zero disables
    /// link faults.
    pub link_mtbf: SimDuration,
    /// Mean outage (or brownout) duration.
    pub link_outage_mean: SimDuration,
    /// Probability that a link fault is a brownout instead of a full
    /// outage.
    pub brownout_prob: f64,
    /// Rate multiplier during a brownout, in `(0, 1]`.
    pub brownout_factor: f64,
    /// Mean time between crashes per target node. Zero disables node
    /// faults.
    pub node_mtbf: SimDuration,
    /// Mean node downtime.
    pub node_downtime_mean: SimDuration,
}
ir_artifact::declare! {
    StableHash for struct FaultSpec {
        horizon,
        link_mtbf,
        link_outage_mean,
        brownout_prob,
        brownout_factor,
        node_mtbf,
        node_downtime_mean,
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            horizon: SimDuration::from_secs(3600),
            link_mtbf: SimDuration::from_secs(600),
            link_outage_mean: SimDuration::from_secs(30),
            brownout_prob: 0.3,
            brownout_factor: 0.25,
            node_mtbf: SimDuration::ZERO,
            node_downtime_mean: SimDuration::from_secs(60),
        }
    }
}

impl FaultSpec {
    /// Validates invariants.
    pub fn validate(&self) {
        assert!(!self.horizon.is_zero(), "zero horizon");
        assert!(!self.link_outage_mean.is_zero(), "zero outage mean");
        assert!(!self.node_downtime_mean.is_zero(), "zero downtime mean");
        assert!(
            (0.0..=1.0).contains(&self.brownout_prob),
            "brownout_prob out of [0,1]"
        );
        assert!(
            self.brownout_factor > 0.0 && self.brownout_factor <= 1.0,
            "brownout_factor out of (0,1]"
        );
    }
}

/// A deterministic schedule of fault events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultEvent)>,
}
ir_artifact::declare! { StableHash for struct FaultPlan { events } }

/// SplitMix64 sub-seed derivation, so each target gets an independent
/// stream regardless of how many targets precede it.
fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty plan: guaranteed no-op (the engine discards it and
    /// behaves byte-identically to a build without the fault plane).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The schedule, in insertion order (the queue orders by time with
    /// FIFO tie-breaking).
    pub fn events(&self) -> &[(SimTime, FaultEvent)] {
        &self.events
    }

    /// Schedules a raw event.
    pub fn push(&mut self, at: SimTime, event: FaultEvent) {
        if let FaultEvent::BrownoutSet { factor, .. } = event {
            assert!(
                factor > 0.0 && factor <= 1.0,
                "brownout factor {factor} out of (0,1]"
            );
        }
        self.events.push((at, event));
    }

    /// Schedules a full outage of `link` over `[from, to)`.
    pub fn link_outage(mut self, link: LinkId, from: SimTime, to: SimTime) -> Self {
        assert!(to > from, "outage ends before it starts");
        self.push(from, FaultEvent::LinkDown(link));
        self.push(to, FaultEvent::LinkUp(link));
        self
    }

    /// Schedules a brownout of `link` to `factor` over `[from, to)`.
    pub fn brownout(mut self, link: LinkId, from: SimTime, to: SimTime, factor: f64) -> Self {
        assert!(to > from, "brownout ends before it starts");
        self.push(from, FaultEvent::BrownoutSet { link, factor });
        self.push(to, FaultEvent::BrownoutSet { link, factor: 1.0 });
        self
    }

    /// Schedules a crash/restart of `node` over `[from, to)`.
    pub fn node_outage(mut self, node: NodeId, from: SimTime, to: SimTime) -> Self {
        assert!(to > from, "outage ends before it starts");
        self.push(from, FaultEvent::NodeDown(node));
        self.push(to, FaultEvent::NodeUp(node));
        self
    }

    /// Generates a seeded random plan over explicit targets. Each link
    /// in `links` and node in `nodes` gets an independent renewal
    /// process (exponential inter-failure and repair draws) from its own
    /// sub-seeded stream, so the schedule does not depend on target
    /// iteration order beyond the targets themselves.
    pub fn random(spec: &FaultSpec, links: &[LinkId], nodes: &[NodeId], seed: u64) -> Self {
        spec.validate();
        let mut plan = FaultPlan::none();
        if !spec.link_mtbf.is_zero() {
            let gap = Exponential::with_mean(spec.link_mtbf.as_secs_f64());
            let dur = Exponential::with_mean(spec.link_outage_mean.as_secs_f64());
            for &link in links {
                let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0xFA17_0000 + link.0 as u64));
                let mut t = SimTime::ZERO;
                loop {
                    t += SimDuration::from_secs_f64_ceil(gap.sample(&mut rng));
                    if t >= SimTime::ZERO + spec.horizon {
                        break;
                    }
                    let end = t + SimDuration::from_secs_f64_ceil(dur.sample(&mut rng).max(1e-6));
                    if rng.gen::<f64>() < spec.brownout_prob {
                        plan = plan.brownout(link, t, end, spec.brownout_factor);
                    } else {
                        plan = plan.link_outage(link, t, end);
                    }
                    t = end;
                }
            }
        }
        if !spec.node_mtbf.is_zero() {
            let gap = Exponential::with_mean(spec.node_mtbf.as_secs_f64());
            let dur = Exponential::with_mean(spec.node_downtime_mean.as_secs_f64());
            for &node in nodes {
                let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0xFA17_8000 + node.0 as u64));
                let mut t = SimTime::ZERO;
                loop {
                    t += SimDuration::from_secs_f64_ceil(gap.sample(&mut rng));
                    if t >= SimTime::ZERO + spec.horizon {
                        break;
                    }
                    let end = t + SimDuration::from_secs_f64_ceil(dur.sample(&mut rng).max(1e-6));
                    plan = plan.node_outage(node, t, end);
                    t = end;
                }
            }
        }
        plan
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

    #[test]
    fn none_is_empty() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert!(p.events().is_empty());
    }

    #[test]
    fn builders_schedule_paired_events() {
        let l = LinkId(3);
        let n = NodeId(1);
        let p = FaultPlan::none()
            .link_outage(l, SimTime::from_secs(10), SimTime::from_secs(20))
            .brownout(l, SimTime::from_secs(30), SimTime::from_secs(40), 0.5)
            .node_outage(n, SimTime::from_secs(50), SimTime::from_secs(60));
        assert_eq!(p.len(), 6);
        assert_eq!(
            p.events()[0],
            (SimTime::from_secs(10), FaultEvent::LinkDown(l))
        );
        assert_eq!(
            p.events()[1],
            (SimTime::from_secs(20), FaultEvent::LinkUp(l))
        );
        assert_eq!(
            p.events()[3],
            (
                SimTime::from_secs(40),
                FaultEvent::BrownoutSet {
                    link: l,
                    factor: 1.0
                }
            )
        );
        assert_eq!(
            p.events()[5],
            (SimTime::from_secs(60), FaultEvent::NodeUp(n))
        );
    }

    #[test]
    #[should_panic(expected = "out of (0,1]")]
    fn zero_brownout_factor_rejected() {
        let _ = FaultPlan::none().brownout(LinkId(0), SimTime::ZERO, SimTime::from_secs(1), 0.0);
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        let spec = FaultSpec {
            link_mtbf: SimDuration::from_secs(120),
            node_mtbf: SimDuration::from_secs(600),
            ..FaultSpec::default()
        };
        let links = [LinkId(0), LinkId(1), LinkId(2)];
        let nodes = [NodeId(0)];
        let a = FaultPlan::random(&spec, &links, &nodes, 7);
        let b = FaultPlan::random(&spec, &links, &nodes, 7);
        assert_eq!(a, b);
        let c = FaultPlan::random(&spec, &links, &nodes, 8);
        assert_ne!(a, c, "different seed should reshuffle the schedule");
        assert!(!a.is_empty(), "an hour at 2-minute MTBF yields events");
    }

    #[test]
    fn random_events_respect_horizon_and_pairing() {
        let spec = FaultSpec {
            horizon: SimDuration::from_secs(1800),
            link_mtbf: SimDuration::from_secs(90),
            brownout_prob: 0.0,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::random(&spec, &[LinkId(4)], &[], 42);
        let mut down = 0i32;
        for &(at, ev) in plan.events() {
            match ev {
                FaultEvent::LinkDown(l) => {
                    assert_eq!(l, LinkId(4));
                    assert!(at < SimTime::ZERO + spec.horizon, "onset past horizon");
                    down += 1;
                }
                FaultEvent::LinkUp(_) => down -= 1,
                other => panic!("unexpected event {other:?}"),
            }
            assert!((0..=1).contains(&down), "outages must not nest");
        }
        assert_eq!(down, 0, "every outage is repaired");
    }

    #[test]
    fn disabled_dimensions_generate_nothing() {
        let spec = FaultSpec {
            link_mtbf: SimDuration::ZERO,
            node_mtbf: SimDuration::ZERO,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::random(&spec, &[LinkId(0)], &[NodeId(0)], 1);
        assert!(plan.is_empty());
    }
}
