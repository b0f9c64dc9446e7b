//! The flow-level simulation engine.
//!
//! Flows are fluid: each active flow progresses at a rate determined by
//! (a) max–min fair sharing of the time-varying link capacities along
//! its route and (b) its own [`RateCap`] (the TCP model's ceiling —
//! slow-start ramp early in the flow, loss-based cap in steady state).
//! The engine advances from boundary to boundary, where a boundary is
//! the earliest of: a link-rate change, a flow's cap change, a flow
//! completion, or the caller's horizon. Between boundaries every rate is
//! constant, so progress integrates exactly.
//!
//! Two allocation engines share that boundary loop (see
//! [`EngineMode`]): the default *incremental* engine keeps the solver
//! problem in flat arrays indexed by flow id and link id, cached link
//! rates and flow caps (each with a lazy-invalidation heap of upcoming
//! changes) and the congestion components with their solved rates,
//! re-solving only the components one of whose inputs actually changed
//! — a boundary costs what changed plus one streaming pass over the
//! active flows; the *reference* engine rebuilds the
//! whole problem from scratch every boundary and solves it with the naive
//! [`crate::fairshare::reference_rates`] oracle. The two are held
//! bit-identical by the differential suite in
//! `tests/engine_equivalence.rs` (invalidation rules: DESIGN.md §10).
//!
//! Determinism: with the same topology, seeds and call sequence, runs
//! are bit-for-bit identical. Cloning a [`Network`] yields an
//! independent replica with identical future randomness — this is how
//! experiments run the paper's "two concurrent client processes" in a
//! genuinely interference-free control configuration when desired
//! (cheaply: see [`Network`] for what a clone shares).

use crate::bandwidth::BandwidthProcess;
use crate::events::EventQueue;
use crate::fairshare::{max_min_rates, AllocFlow};
use crate::faults::{FaultEvent, FaultPlan};
use crate::partition::NO_COMP;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, Route, Sharing, Topology};
use ir_telemetry::trace::{Event, EventKind};
use ir_telemetry::{Histogram, Telemetry, Tracer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifier of a flow within one [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A per-flow rate ceiling, e.g. a TCP model.
///
/// # Contract
///
/// A cap is a **pure, piecewise-constant function of flow age** whose
/// change points it announces: `cap(age, _)` returns the same value for
/// every `age` in `[a, next_cap_change(a))`, and every age inside that
/// segment reports the same segment end. The incremental engine queries
/// a cap once per segment and caches `(value, segment end)`; the
/// reference engine queries every boundary. A cap that moves without
/// announcing it makes the two disagree — debug builds assert the
/// cached value against a fresh query at every boundary.
pub trait RateCap: Send + Sync {
    /// The ceiling (bytes/sec) for a flow of age `age` that has
    /// transferred `bytes_done` bytes. Must not depend on anything but
    /// `age` (see the contract above); `bytes_done` is informational.
    fn cap(&mut self, age: SimDuration, bytes_done: u64) -> f64;

    /// The next flow age strictly after `age` at which the ceiling
    /// changes, or `None` if it is constant from `age` on. The engine
    /// schedules a re-allocation boundary there; announcing a point
    /// where the value does not move is allowed (one wasted boundary).
    fn next_cap_change(&mut self, age: SimDuration) -> Option<SimDuration>;

    /// Clones into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn RateCap>;
}

impl Clone for Box<dyn RateCap> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// No ceiling: the flow takes whatever fair share the links allow.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCap;

impl RateCap for NoCap {
    fn cap(&mut self, _age: SimDuration, _done: u64) -> f64 {
        f64::INFINITY
    }
    fn next_cap_change(&mut self, _age: SimDuration) -> Option<SimDuration> {
        None
    }
    fn clone_box(&self) -> Box<dyn RateCap> {
        Box::new(*self)
    }
}

/// A constant ceiling (testing, simple shaping).
#[derive(Debug, Clone, Copy)]
pub struct ConstCap(pub f64);

impl RateCap for ConstCap {
    fn cap(&mut self, _age: SimDuration, _done: u64) -> f64 {
        self.0
    }
    fn next_cap_change(&mut self, _age: SimDuration) -> Option<SimDuration> {
        None
    }
    fn clone_box(&self) -> Box<dyn RateCap> {
        Box::new(*self)
    }
}

/// Record of a finished flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedFlow {
    /// Which flow.
    pub id: FlowId,
    /// Bytes it transferred.
    pub bytes: u64,
    /// When it started.
    pub started: SimTime,
    /// When it finished.
    pub finished: SimTime,
}

impl CompletedFlow {
    /// Mean goodput over the flow's lifetime, bytes/sec.
    ///
    /// A zero-duration flow (zero bytes) reports `f64::INFINITY`.
    pub fn throughput(&self) -> f64 {
        let dt = (self.finished - self.started).as_secs_f64();
        if dt == 0.0 {
            f64::INFINITY
        } else {
            self.bytes as f64 / dt
        }
    }
}

/// Per-flow state the boundary loop does not stream over, indexed by
/// flow id. An active flow's hot state (progress, size, rate, time to
/// completion) lives in [`ActiveFlows`]' dense arrays instead; the
/// by-id arrays on [`Network`] keep its size, start and, once it has
/// finished or been cancelled, its final progress, and its route is a
/// slice of `EngineCache::route_links`. So a flow owns no heap memory
/// beyond its cap, and none for a zero-sized one such as [`NoCap`].
#[derive(Clone)]
struct FlowState {
    cap: Box<dyn RateCap>,
    /// When the flow completed or was cancelled (`None`: active).
    ended: Option<SimTime>,
    cancelled: bool,
}

/// Engine counters, for performance diagnostics, tests and the
/// experiments' `simnet_*` metrics (folded in once per run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Boundary steps processed (rate changes, cap changes,
    /// completions, horizons).
    pub boundaries: u64,
    /// Boundary steps at which some solver input had changed and the
    /// allocation was brought up to date. Always ≤ `boundaries`; the
    /// gap is the work the incremental engine avoided.
    pub full_solves: u64,
    /// Boundary steps that proved every solver input bitwise unchanged
    /// and reused the cached allocation instead of solving.
    pub incremental_solves: u64,
    /// Flows ever started.
    pub flows_started: u64,
    /// Flows that ran to completion.
    pub flows_completed: u64,
    /// Flows cancelled before completion.
    pub flows_cancelled: u64,
    /// Congestion components of the problem, summed over all full
    /// solves — every component counts, re-solved or not (the
    /// reference engine does not decompose; it stays 0 there).
    pub component_solves: u64,
    /// Components the solver kernel actually ran on: the dirty ones.
    /// `component_solves - components_resolved` is the work
    /// component-local invalidation avoided.
    pub components_resolved: u64,
    /// Boundary steps whose solve first re-derived a congestion
    /// component after a departure (incremental engine only).
    pub partition_rebuilds: u64,
    /// Fault-plan events applied.
    pub faults_injected: u64,
    // The boundary census: what ended each boundary step. The six
    // counts sum to `boundaries`; a step with active flows whose
    // candidates tie is credited to the first of completion, link
    // rate, cap, fault and target.
    /// Steps ended by a projected flow completion.
    pub ended_by_completion: u64,
    /// Steps ended by a link's rate segment ending.
    pub ended_by_link_rate: u64,
    /// Steps ended by a flow's cap segment ending.
    pub ended_by_cap: u64,
    /// Steps ended by a scheduled fault event.
    pub ended_by_fault: u64,
    /// Steps ended by the caller's `until`.
    pub ended_by_target: u64,
    /// Steps with no active flow (they end at the next fault event or
    /// at `until`).
    pub ended_idle: u64,
}

impl EngineStats {
    /// Applies `op` field by field.
    fn zip(self, other: EngineStats, op: fn(u64, u64) -> u64) -> EngineStats {
        EngineStats {
            boundaries: op(self.boundaries, other.boundaries),
            full_solves: op(self.full_solves, other.full_solves),
            incremental_solves: op(self.incremental_solves, other.incremental_solves),
            flows_started: op(self.flows_started, other.flows_started),
            flows_completed: op(self.flows_completed, other.flows_completed),
            flows_cancelled: op(self.flows_cancelled, other.flows_cancelled),
            component_solves: op(self.component_solves, other.component_solves),
            components_resolved: op(self.components_resolved, other.components_resolved),
            partition_rebuilds: op(self.partition_rebuilds, other.partition_rebuilds),
            faults_injected: op(self.faults_injected, other.faults_injected),
            ended_by_completion: op(self.ended_by_completion, other.ended_by_completion),
            ended_by_link_rate: op(self.ended_by_link_rate, other.ended_by_link_rate),
            ended_by_cap: op(self.ended_by_cap, other.ended_by_cap),
            ended_by_fault: op(self.ended_by_fault, other.ended_by_fault),
            ended_by_target: op(self.ended_by_target, other.ended_by_target),
            ended_idle: op(self.ended_idle, other.ended_idle),
        }
    }
}

/// Work summed over networks (a task's and its replicas').
impl std::ops::Add for EngineStats {
    type Output = EngineStats;
    fn add(self, other: EngineStats) -> EngineStats {
        self.zip(other, |a, b| a + b)
    }
}

/// Work done since an earlier reading of the same network (or of the
/// donor it was cloned from: clones inherit their donor's counters).
impl std::ops::Sub for EngineStats {
    type Output = EngineStats;
    fn sub(self, earlier: EngineStats) -> EngineStats {
        self.zip(earlier, |a, b| a - b)
    }
}

/// Which allocation engine [`Network`] runs; see the module docs.
///
/// Both modes are bit-identical in every observable output (rates,
/// boundary times, completions, even `boundaries` counts) — the
/// differential suite in `tests/engine_equivalence.rs` holds them to
/// that. [`EngineMode::Reference`] rebuilds and re-solves the whole
/// max–min problem every boundary with the naive oracle, and re-queries
/// every [`RateCap`] every boundary, so it is the slow-but-obviously-
/// correct baseline; switching mid-run is allowed (the incremental
/// caches are maintained in both modes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// Persistent components + dirty-only solves (the default).
    #[default]
    Incremental,
    /// Brute-force rebuild + [`crate::fairshare::reference_rates`]
    /// every boundary.
    Reference,
}
// Pinned tags: existing study caches key on them. Tag 2 was `Sharded`
// (deleted; its results were bit-identical to `Incremental`'s) — do not
// reuse it for a mode whose semantics differ.
ir_artifact::declare! { StableHash for enum EngineMode { Incremental = 0, Reference = 1 } }

type ChangeHeap = BinaryHeap<Reverse<(SimTime, u32)>>;

/// State the incremental engine maintains across boundaries, indexed by
/// **stable ids** — flow id and link id, in append-only flat arrays —
/// so nothing is renumbered when flows come and go. Everything here is
/// *derived* from the network and is kept up in both engine modes, so
/// switching modes mid-run stays sound.
///
/// Invalidation rules (DESIGN.md §10) — each dirties only the
/// congestion component that owns the input:
/// * flow start → the component(s) its capacity links join (a union);
///   completion / cancellation → its own component, re-derived locally;
/// * a link's cached rate segment expiring (`rate_until` reached, via
///   `change_heap`) or a fault moving its factor → if the effective
///   rate's *bits* moved: a Capacity link dirties its component, a
///   PerFlow link re-folds the flow caps;
/// * a flow's cap segment expiring (`cap_until` reached, via
///   `cap_heap`) → re-query, re-fold; a folded cap whose bits moved
///   dirties the flow's component.
///
/// Clean components keep their rates: the solver is a pure function of
/// a component's `(link caps, flow links, flow caps)` in ascending
/// order, so re-solving one would reproduce them bit for bit.
#[derive(Clone)]
struct EngineCache {
    /// Number of active flows crossing each link.
    link_refs: Vec<u32>,
    /// Links whose count left zero since the last boundary: their rate
    /// segment may have expired, or been disarmed, while idle.
    newly_used: Vec<u32>,
    /// Fault events applied (or the plan changed) since the last
    /// boundary; effective rates must be re-derived.
    faults_fired: bool,
    /// Cached raw process rate per link, valid until `rate_until`.
    raw_rate: Vec<f64>,
    /// Time at which the cached `raw_rate` stops being valid
    /// (`SimTime::MAX` = constant from here on; `SimTime::ZERO` = never
    /// queried).
    rate_until: Vec<SimTime>,
    /// Min-heap of `(rate_until, link)` for in-use links: the earliest
    /// upcoming link-rate change without querying every process each
    /// boundary. Entries are validated lazily on pop (stale ones —
    /// superseded refreshes or out-of-use links — are discarded), so
    /// duplicates are harmless.
    change_heap: ChangeHeap,
    /// The solver problem. `link_cap[l]` is link `l`'s effective rate
    /// (`raw_rate × fault factor`; the solver only reads Capacity
    /// links), `flow_cap[i]` flow `i`'s folded cap, and
    /// `flow_off`/`flow_links` the CSR arena of each flow's Capacity
    /// link ids.
    prob: crate::soa::ProblemSlab,
    /// Per-flow [`Sharing::PerFlow`] link ids, CSR — the links whose
    /// rates fold into that flow's cap.
    fold_off: Vec<u32>,
    /// CSR arena for `fold_off`.
    fold_links: Vec<u32>,
    /// Every flow's route, in traversal order, one arena: each link is
    /// either a Capacity or a PerFlow one, so flow `i`'s route starts at
    /// `flow_off[i] + fold_off[i]` ([`EngineCache::route`]).
    route_links: Vec<LinkId>,
    /// Some PerFlow link's effective rate moved: every fold is stale.
    fold_dirty: bool,
    /// Each flow's own [`RateCap`] value, valid until `cap_until`.
    own_cap: Vec<f64>,
    /// When the cached `own_cap` segment ends (`SimTime::MAX` = never).
    cap_until: Vec<SimTime>,
    /// Min-heap of `(cap_until, flow)`, lazily validated like
    /// `change_heap`.
    cap_heap: ChangeHeap,
    /// Flows started since the last boundary: their caps are unqueried.
    new_flows: Vec<u32>,
    /// Current allocation of every flow (stale once it leaves).
    rate: Vec<f64>,
    /// The persistent congestion components.
    comps: crate::partition::LiveComponents,
    /// Solver kernel scratch.
    scratch: crate::soa::SolveScratch,
    /// Flows completing at the current boundary (integration scratch).
    completed: Vec<u32>,
    /// `rate` answers the current membership; cleared by anything that
    /// must make the next boundary count as a full solve.
    have_solution: bool,
}

impl EngineCache {
    fn new(links: usize) -> Self {
        let mut prob = crate::soa::ProblemSlab::default();
        prob.link_cap.resize(links, 0.0);
        prob.flow_off.push(0);
        EngineCache {
            link_refs: vec![0; links],
            newly_used: Vec::new(),
            faults_fired: false,
            raw_rate: vec![0.0; links],
            rate_until: vec![SimTime::ZERO; links],
            change_heap: BinaryHeap::new(),
            prob,
            fold_off: vec![0],
            fold_links: Vec::new(),
            route_links: Vec::new(),
            fold_dirty: false,
            own_cap: Vec::new(),
            cap_until: Vec::new(),
            cap_heap: BinaryHeap::new(),
            new_flows: Vec::new(),
            rate: Vec::new(),
            comps: crate::partition::LiveComponents::new(links),
            scratch: crate::soa::SolveScratch::default(),
            completed: Vec::new(),
            have_solution: false,
        }
    }

    /// Appends the next flow id's rows to every per-flow array.
    fn push_flow(&mut self, topo: &Topology, route: &[LinkId]) {
        for l in route {
            match topo.link(*l).sharing {
                Sharing::Capacity => self.prob.flow_links.push(l.0),
                Sharing::PerFlow => self.fold_links.push(l.0),
            }
        }
        self.route_links.extend_from_slice(route);
        self.prob.flow_off.push(self.prob.flow_links.len() as u32);
        self.fold_off.push(self.fold_links.len() as u32);
        self.prob.flow_cap.push(f64::NAN);
        self.own_cap.push(f64::NAN);
        self.cap_until.push(SimTime::MAX);
        self.rate.push(0.0);
    }

    /// Where flow `i`'s route lies in `route_links`.
    fn route_range(&self, i: usize) -> Range<usize> {
        let start = |i: usize| (self.prob.flow_off[i] + self.fold_off[i]) as usize;
        start(i)..start(i + 1)
    }

    /// Flow `i`'s route.
    fn route(&self, i: u32) -> &[LinkId] {
        &self.route_links[self.route_range(i as usize)]
    }

    /// Flow `i` became active.
    fn acquire(&mut self, i: u32) {
        for k in self.route_range(i as usize) {
            let l = self.route_links[k].0;
            self.link_refs[l as usize] += 1;
            if self.link_refs[l as usize] == 1 {
                self.newly_used.push(l);
            }
        }
        self.comps.arrive(i, self.prob.links_of(i as usize));
        self.new_flows.push(i);
        self.have_solution = false;
    }

    /// Flow `i` completed or was cancelled.
    fn release(&mut self, i: u32) {
        for k in self.route_range(i as usize) {
            self.link_refs[self.route_links[k].0 as usize] -= 1;
        }
        self.comps.depart(i);
        self.have_solution = false;
    }

    /// Is `change_heap` entry `(at, l)` still link `l`'s segment end?
    fn link_entry_live(&self, at: SimTime, l: u32) -> bool {
        self.link_refs[l as usize] > 0 && self.rate_until[l as usize] == at
    }

    /// Is `cap_heap` entry `(at, i)` still flow `i`'s segment end?
    fn cap_entry_live(&self, at: SimTime, i: u32) -> bool {
        self.cap_until[i as usize] == at && self.comps.comp_of_flow(i) != NO_COMP
    }

    /// The earliest upcoming link-rate change and flow-cap change:
    /// each heap's first live entry (stale ones are discarded on the
    /// way).
    fn next_changes(&mut self) -> (Option<SimTime>, Option<SimTime>) {
        while let Some(&Reverse((at, l))) = self.change_heap.peek() {
            if self.link_entry_live(at, l) {
                break;
            }
            self.change_heap.pop();
        }
        while let Some(&Reverse((at, i))) = self.cap_heap.peek() {
            if self.cap_entry_live(at, i) {
                break;
            }
            self.cap_heap.pop();
        }
        let next = |heap: &ChangeHeap| heap.peek().map(|&Reverse((at, _))| at);
        (next(&self.change_heap), next(&self.cap_heap))
    }

    /// Re-folds flow `i`'s cap (own cap ∧ its PerFlow link rates);
    /// returns whether the folded value's bits moved.
    fn refold(&mut self, i: u32) -> bool {
        let iu = i as usize;
        let mut cap = self.own_cap[iu];
        for &l in &self.fold_links[self.fold_off[iu] as usize..self.fold_off[iu + 1] as usize] {
            cap = cap.min(self.prob.link_cap[l as usize]);
        }
        if cap.to_bits() == self.prob.flow_cap[iu].to_bits() {
            return false;
        }
        self.prob.flow_cap[iu] = cap;
        self.comps.mark_dirty_flow(i);
        true
    }

    /// Takes the active flows' rates (in slot order) from something
    /// other than the component kernels (the reference engine, the
    /// degenerate fallback), and so distrusts every component's until
    /// it is solved again. Every slot is refreshed: this also covers an
    /// engine-mode switch, since the reference engine adopts at every
    /// boundary and the first solve back re-runs every component.
    fn adopt_rates(&mut self, active: &mut ActiveFlows, rates: Vec<f64>) {
        let mut rates = rates.into_iter();
        for k in 0..active.slots() {
            if active.is_live(k) {
                let r = rates.next().expect("a rate for every active flow");
                self.rate[active.id[k] as usize] = r;
                active.set_rate(k, r);
            }
        }
        self.comps.mark_all_dirty();
        self.have_solution = false;
    }
}

/// Seconds to move `remaining` bytes at `rate`, `+∞` unless both are
/// positive.
#[inline]
fn quotient(remaining: f64, rate: f64) -> f64 {
    let moving = (rate > 0.0) & (remaining > 0.0);
    if moving {
        remaining / rate
    } else {
        f64::INFINITY
    }
}

/// The active flows' hot state: one dense array per quantity (id, bytes
/// done, size, rate), in ascending flow-id order, so a boundary streams
/// over them at unit stride. `start_flow` appends (ids only grow).
///
/// A flow that completes or is cancelled leaves a *hole*: its slot
/// keeps its id (the step's flow list still names it), and its size
/// becomes `+∞` and its rate 0, so the pass leaves its progress
/// alone, never finds it complete and gives it a `+∞` quotient. The
/// arrays are compacted under one rule, at the start of a boundary
/// step: when holes outnumber live slots
/// ([`ActiveFlows::compact_if_sparse`]), so a compaction moves fewer
/// slots than the holes it drops. The pass skips a block with no live
/// slot.
///
/// `rate[k]` is flow `id[k]`'s `EngineCache::rate`, copied whenever a
/// solve (or an adoption) writes it — nothing else writes that array.
/// A slot's completion quotient `(total − done) / rate` is a function
/// of the three, so it is not stored: the pass computes it block by
/// block and keeps only the least, which it carries to the next
/// horizon; a refresh below it lowers it, and it is rescanned only
/// when a slot that held it got a lower rate or was vacated.
#[derive(Clone)]
struct ActiveFlows {
    id: Vec<u32>,
    done: Vec<f64>,
    /// Size, converted to `f64` once, at start; `+∞` for a hole.
    total: Vec<f64>,
    rate: Vec<f64>,
    /// Live slots in each block of [`BLOCK`] slots.
    block_live: Vec<u32>,
    /// Live slots in all.
    live: usize,
    /// By flow id: the slot the flow is in. Only compaction moves a
    /// flow, and it updates this as it goes.
    seen: Vec<u32>,
    /// The least quotient, `+∞` when there is none.
    least: f64,
    /// The pass's quotients for the block at hand (scratch that stays
    /// in cache, so the quotients cost no memory traffic).
    block_quot: [f64; BLOCK],
    /// `least` may be stale: [`ActiveFlows::horizon`] rescans.
    rescan: bool,
}

impl ActiveFlows {
    fn new() -> Self {
        ActiveFlows {
            id: Vec::new(),
            done: Vec::new(),
            total: Vec::new(),
            rate: Vec::new(),
            block_live: Vec::new(),
            live: 0,
            seen: Vec::new(),
            least: f64::INFINITY,
            block_quot: [0.0; BLOCK],
            rescan: false,
        }
    }

    /// Slots, live ones and holes.
    fn slots(&self) -> usize {
        self.id.len()
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slot `k`'s completion quotient at its rate (`+∞` for a hole).
    #[inline]
    fn quot(&self, k: usize) -> f64 {
        quotient(self.total[k] - self.done[k], self.rate[k])
    }

    /// Is slot `k` a flow (not a hole)?
    #[inline]
    fn is_live(&self, k: usize) -> bool {
        self.total[k] < f64::INFINITY
    }

    /// The live slots, ascending.
    fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slots()).filter(|&k| self.is_live(k))
    }

    /// Appends flow `id` (larger than every listed one), not yet solved.
    fn push(&mut self, id: u32, total: f64) {
        debug_assert!(self.id.last().is_none_or(|&last| last < id));
        if self.seen.len() < id as usize {
            // Flows that never ran (zero bytes) have no slot.
            self.seen.resize(id as usize, 0);
        }
        if self.slots().is_multiple_of(BLOCK) {
            self.block_live.push(0);
        }
        *self.block_live.last_mut().expect("a block to append to") += 1;
        self.live += 1;
        self.seen.push(self.slots() as u32);
        self.id.push(id);
        self.done.push(0.0);
        self.total.push(total);
        self.rate.push(0.0);
    }

    /// Slot of active flow `id`.
    fn slot(&self, id: u32) -> usize {
        let k = self.seen[id as usize] as usize;
        assert!(
            self.id.get(k) == Some(&id) && self.is_live(k),
            "live flow {id} is listed active"
        );
        k
    }

    /// Makes live slot `k` a hole (its flow completed or was cancelled);
    /// returns its progress.
    fn vacate(&mut self, k: usize) -> f64 {
        if self.quot(k) == self.least && self.least < f64::INFINITY {
            self.rescan = true;
        }
        self.total[k] = f64::INFINITY;
        self.rate[k] = 0.0;
        self.block_live[k / BLOCK] -= 1;
        self.live -= 1;
        self.done[k]
    }

    /// Sets slot `k`'s rate, and lowers the least to its quotient.
    #[inline]
    fn set_rate(&mut self, k: usize, rate: f64) {
        let remaining = self.total[k] - self.done[k];
        let q = quotient(remaining, rate);
        // Positive over positive is never negative or NaN, so only an
        // overflow can make a moving flow's duration unsound.
        assert!(
            q < f64::INFINITY || !(rate > 0.0 && remaining > 0.0),
            "bad duration {q}"
        );
        let was = std::mem::replace(&mut self.rate[k], rate);
        if q < self.least {
            self.least = q;
        } else if rate < was && quotient(remaining, was) == self.least {
            // Its quotient rose, and it may have been the only one at
            // the least.
            self.rescan = true;
        }
    }

    /// Copies `rate` (indexed by flow id) for `flows`, the active flows
    /// of a component the solver just ran on.
    fn refresh(&mut self, flows: &[u32], rate: &[f64]) {
        for &f in flows {
            let k = self.slot(f);
            self.set_rate(k, rate[f as usize]);
        }
    }

    /// Seconds to the earliest projected completion (`+∞`: none): the
    /// least the last pass carried out and the refreshes since kept up,
    /// or one division per slot when a slot that held it got a lower
    /// rate or was vacated.
    fn horizon(&mut self) -> f64 {
        if std::mem::take(&mut self.rescan) {
            self.least = (0..self.slots())
                .map(|k| self.quot(k))
                .fold(f64::INFINITY, |m, q| if q < m { q } else { m });
        }
        self.least
    }

    /// The boundary's one pass over the active flows, block by block:
    /// integrates each flow over `dt` at its rate and computes its
    /// quotient at that rate into `block_quot` (branch-free, so it
    /// vectorises), and turns the flows that complete into holes,
    /// appending their ids to `completed`, ascending. A block with no
    /// live slot is skipped, and only a block in which a flow completed
    /// leaves the loop ([`ActiveFlows::retire`]). The least quotient is
    /// carried out for the next horizon.
    ///
    /// The pass needs no `bad duration` check: a quotient was sound when
    /// its rate was set, and at an unchanged rate it can only fall as
    /// the remaining bytes do.
    fn integrate(&mut self, dt: f64, completed: &mut Vec<u32>) {
        let n = self.slots();
        let mut least = f64::INFINITY;
        for (b, r) in (0..n).step_by(BLOCK).enumerate() {
            if self.block_live[b] == 0 {
                continue;
            }
            let end = (r + BLOCK).min(n);
            let finished = integrate_block(
                dt,
                &mut self.done[r..end],
                &self.total[r..end],
                &self.rate[r..end],
                &mut self.block_quot[..end - r],
            );
            if finished > 0 {
                self.retire(r..end, finished, completed);
            }
            let m = least_of(&self.block_quot[..end - r]);
            if m < least {
                least = m;
            }
        }
        self.least = least;
        self.rescan = false;
    }

    /// Turns the `finished` flows of the integrated `block` that
    /// completed into holes (a `+∞` quotient in `block_quot`), their
    /// ids to `completed`. Kept out of line, so that the pass stays
    /// small for the common block with no completion.
    #[inline(never)]
    fn retire(&mut self, block: Range<usize>, finished: u32, completed: &mut Vec<u32>) {
        self.block_live[block.start / BLOCK] -= finished;
        self.live -= finished as usize;
        for k in block.clone() {
            if completes(self.done[k], self.total[k]) {
                completed.push(self.id[k]);
                self.total[k] = f64::INFINITY;
                self.rate[k] = 0.0;
                self.block_quot[k - block.start] = f64::INFINITY;
            }
        }
    }

    /// Drops every hole, moving the live slots down in order, when holes
    /// outnumber live slots: a compaction then moves fewer slots than
    /// the holes it drops, each made once, so it is amortised O(1) a
    /// hole in every world.
    #[inline]
    fn compact_if_sparse(&mut self) {
        if self.slots() - self.live > self.live {
            self.compact();
        }
    }

    /// Drops every hole; kept out of line, as the step that needs it is
    /// rare.
    #[inline(never)]
    fn compact(&mut self) {
        let n = self.slots();
        let mut w = 0;
        for (b, r) in (0..n).step_by(BLOCK).enumerate() {
            if self.block_live[b] == 0 {
                continue;
            }
            for k in r..(r + BLOCK).min(n) {
                if !self.is_live(k) {
                    continue;
                }
                let id = self.id[k];
                self.id[w] = id;
                self.done[w] = self.done[k];
                self.total[w] = self.total[k];
                self.rate[w] = self.rate[k];
                self.seen[id as usize] = w as u32;
                w += 1;
            }
        }
        debug_assert_eq!(w, self.live);
        self.id.truncate(w);
        self.done.truncate(w);
        self.total.truncate(w);
        self.rate.truncate(w);
        self.block_live.clear();
        self.block_live.resize(w / BLOCK, BLOCK as u32);
        if w % BLOCK > 0 {
            self.block_live.push((w % BLOCK) as u32);
        }
    }
}

/// The least of `quot`: `min` is exact and order-independent on these
/// non-NaN values, so independent lanes give the sequential fold's bits.
#[inline]
fn least_of(quot: &[f64]) -> f64 {
    let lesser = |a: f64, b: f64| if b < a { b } else { a };
    let mut lanes = [f64::INFINITY; 4];
    let chunks = quot.chunks_exact(4);
    let tail = chunks.remainder();
    for c in chunks {
        for (m, &q) in lanes.iter_mut().zip(c) {
            *m = lesser(*m, q);
        }
    }
    for (m, &q) in lanes.iter_mut().zip(tail) {
        *m = lesser(*m, q);
    }
    lesser(lesser(lanes[0], lanes[1]), lesser(lanes[2], lanes[3]))
}

/// Slots per block of [`ActiveFlows::integrate`]: long enough to
/// vectorise and to move in a few calls, short enough to stay in cache
/// and that looking at one slot by slot costs little.
const BLOCK: usize = 64;

/// Has a flow with `done` of `total` bytes completed? The half-byte
/// tolerance absorbs fp residue from the ceil rounding of `dt`.
#[inline]
fn completes(done: f64, total: f64) -> bool {
    total - done < 0.5
}

/// Integrates one block of active flows over `dt` and writes their
/// quotients to `quot`; returns how many of them completed.
#[inline]
fn integrate_block(
    dt: f64,
    done: &mut [f64],
    total: &[f64],
    rate: &[f64],
    quot: &mut [f64],
) -> u32 {
    let n = done.len();
    let (total, rate, quot) = (&total[..n], &rate[..n], &mut quot[..n]);
    let mut finished = 0;
    for k in 0..n {
        // `f64::min`'s bits: the size is never NaN, and a NaN progress
        // would lose to it either way.
        let d = done[k] + rate[k] * dt;
        let d = if d < total[k] { d } else { total[k] };
        done[k] = d;
        quot[k] = quotient(total[k] - d, rate[k]);
        finished += u32::from(completes(d, total[k]));
    }
    finished
}

/// The earliest projected completion computed from scratch, one
/// division per active flow at its `rate` (indexed by flow id): the
/// horizon the reference engine uses every boundary, and the one debug
/// builds hold [`ActiveFlows::horizon`] to.
fn scratch_horizon(act: &ActiveFlows, rate: &[f64]) -> f64 {
    let mut soonest = f64::INFINITY;
    for k in act.live_slots() {
        let r = rate[act.id[k] as usize];
        let remaining = act.total[k] - act.done[k];
        if r > 0.0 && remaining > 0.0 {
            let q = remaining / r;
            assert!(q.is_finite() && q >= 0.0, "bad duration {q}");
            soonest = soonest.min(q);
        }
    }
    soonest
}

/// Live state of an installed [`FaultPlan`]: the pending schedule plus
/// the current down/brownout flags it has produced so far.
#[derive(Clone)]
struct FaultState {
    queue: EventQueue<FaultEvent>,
    link_down: Vec<bool>,
    node_down: Vec<bool>,
    brownout: Vec<f64>,
}

/// The attached telemetry handle with the flow-duration histogram
/// resolved once, so a completion records without the registry's lock.
/// The engine counts nothing else into the registry: its counters are
/// [`EngineStats`], which callers fold in once per run.
#[derive(Clone)]
struct EngineTelemetry {
    tel: Arc<Telemetry>,
    flow_duration_us: Histogram,
}

/// The simulated network: topology + per-link bandwidth processes +
/// active flows + the clock.
///
/// A clone costs O(1) allocations whatever the link and flow counts
/// (one per per-link or per-flow array, two per congestion component
/// and one per boxed cap that has a size): it shares the topology and
/// every link's process with its donor, and every flow's route is a
/// slice of one arena. A process is never copied: every clone, on
/// whichever thread, extends the one timeline under its lock, so each
/// segment is drawn once however many clones read it. Processes are pure functions of their seeds that
/// only extend forward, so the order in which clones extend a timeline
/// cannot change a bit.
#[derive(Clone)]
pub struct Network {
    topo: Arc<Topology>,
    procs: Vec<Arc<Mutex<Box<dyn BandwidthProcess>>>>,
    flows: Vec<FlowState>,
    /// Size of each flow, by flow id.
    bytes_total: Vec<u64>,
    /// Final progress of each finished or cancelled flow, by flow id
    /// (an active flow's lives in `active`).
    bytes_done: Vec<f64>,
    /// Start time of each flow, by flow id.
    started: Vec<SimTime>,
    /// Flows that are neither finished nor cancelled, ascending, with
    /// their hot state (and holes). Kept separately so long-running
    /// experiments (tens of thousands of completed flows) do not rescan
    /// history every boundary.
    active: ActiveFlows,
    now: SimTime,
    stats: EngineStats,
    /// Fault plane; `None` (the default, and what an empty plan
    /// installs) keeps every code path byte-identical to a build
    /// without fault support.
    faults: Option<FaultState>,
    /// Observability handle; `None` (the default) costs nothing on any
    /// path. Strictly observational: never consumes randomness, never
    /// moves the clock, never changes control flow.
    telemetry: Option<EngineTelemetry>,
    /// Which allocation engine runs the boundary steps.
    mode: EngineMode,
    /// Incremental-engine state (maintained in both modes).
    cache: EngineCache,
    /// The most recent boundary step's `(slots, flows)`: the flows it
    /// integrated are those among the first `slots` active slots that
    /// are live, or that ended at `now` (they completed in the step or
    /// were cancelled after it). Compaction waits for the next step, and
    /// flows started since come after those slots. Their rates are
    /// still in `cache.rate`, which only a boundary's solve writes.
    last_step: (usize, usize),
}

impl Network {
    /// Creates a network over `topo`; every link starts with the given
    /// default constant rate (one process all of them share) until a
    /// process is attached.
    pub fn new(topo: Topology, default_rate: f64) -> Self {
        let default: Box<dyn BandwidthProcess> =
            Box::new(crate::bandwidth::ConstantProcess::new(default_rate));
        let shared = Arc::new(Mutex::new(default));
        let procs = vec![shared; topo.link_count()];
        let links = topo.link_count();
        Network {
            topo: Arc::new(topo),
            procs,
            flows: Vec::new(),
            bytes_total: Vec::new(),
            bytes_done: Vec::new(),
            started: Vec::new(),
            active: ActiveFlows::new(),
            now: SimTime::ZERO,
            stats: EngineStats::default(),
            faults: None,
            telemetry: None,
            mode: EngineMode::default(),
            cache: EngineCache::new(links),
            last_step: (0, 0),
        }
    }

    /// Engine counters since construction (clones inherit the donor's).
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Selects the allocation engine; see [`EngineMode`].
    pub fn set_engine_mode(&mut self, mode: EngineMode) {
        self.mode = mode;
    }

    /// The allocation engine currently selected.
    pub fn engine_mode(&self) -> EngineMode {
        self.mode
    }

    /// Attaches (or with `None`, detaches) a telemetry handle: the
    /// engine traces into its tracer, when it has one, and records
    /// `simnet_flow_duration_us`. Clones made after this call inherit
    /// the handle, so every replica of a scenario network reports into
    /// the same one. The engine's counters stay in [`Network::stats`].
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.telemetry = telemetry.map(|tel| EngineTelemetry {
            flow_duration_us: tel.metrics.histogram("simnet_flow_duration_us", vec![]),
            tel,
        });
    }

    /// The attached tracer, if a trace is being kept.
    fn tracer(&self) -> Option<&Tracer> {
        self.telemetry.as_ref()?.tel.tracer.as_ref()
    }

    /// Attaches a bandwidth process to a link, replacing the previous
    /// one. Clones made after this call share it.
    pub fn set_link_process(&mut self, link: LinkId, proc_: Box<dyn BandwidthProcess>) {
        let lu = link.0 as usize;
        self.procs[lu] = Arc::new(Mutex::new(proc_));
        // Invalidate the cached rate segment: mark it as expiring
        // immediately and, if the link is in use, arm the heap so the
        // next boundary re-queries the new process (an idle link is
        // re-queried through `newly_used` when it comes into use).
        self.cache.rate_until[lu] = SimTime::ZERO;
        if self.cache.link_refs[lu] > 0 {
            self.cache
                .change_heap
                .push(Reverse((SimTime::ZERO, link.0)));
        }
        self.cache.have_solution = false;
    }

    /// Link `l`'s process, locked for a query that may extend the
    /// timeline every clone shares.
    fn process(&self, l: usize) -> MutexGuard<'_, Box<dyn BandwidthProcess>> {
        self.procs[l].lock().expect("bandwidth process poisoned")
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The bandwidth process attached to `link`, locked: the timeline
    /// this network and every clone of it share (e.g. for side-channel
    /// sampling; see [`crate::tracer`]). Querying it only extends that
    /// timeline, which cannot move a value any of them reads.
    pub fn link_process(&self, link: LinkId) -> MutexGuard<'_, Box<dyn BandwidthProcess>> {
        self.process(link.0 as usize)
    }

    /// Installs a fault plan, replacing any previous plan and clearing
    /// its accumulated state. Events apply lazily as the clock reaches
    /// them. An **empty** plan removes the fault plane entirely: the
    /// network is then byte-identical (state and behaviour) to one that
    /// never had a plan — the no-op guarantee `FaultPlan::none()`
    /// documents. Clones made after this call inherit the plan, so
    /// every replica of a scenario network replays the same schedule.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        // Any previously applied factors may vanish (or appear) with the
        // new plan; have the engine re-derive effective rates.
        self.cache.faults_fired = true;
        self.cache.have_solution = false;
        if plan.is_empty() {
            self.faults = None;
            return;
        }
        let mut queue = EventQueue::new();
        for &(at, ev) in plan.events() {
            queue.push(at, ev);
        }
        self.faults = Some(FaultState {
            queue,
            link_down: vec![false; self.topo.link_count()],
            node_down: vec![false; self.topo.node_count()],
            brownout: vec![1.0; self.topo.link_count()],
        });
    }

    /// Number of scheduled fault events not yet applied.
    pub fn fault_events_pending(&self) -> usize {
        self.faults.as_ref().map_or(0, |fs| fs.queue.len())
    }

    /// Multiplier the fault plane currently applies to `link`'s rate:
    /// `0.0` when the link or either endpoint node is down, the
    /// brownout factor during a brownout, `1.0` otherwise.
    fn fault_factor(&self, l: usize) -> f64 {
        match &self.faults {
            None => 1.0,
            Some(fs) => {
                let link = self.topo.link(LinkId(l as u32));
                if fs.link_down[l]
                    || fs.node_down[link.from.0 as usize]
                    || fs.node_down[link.to.0 as usize]
                {
                    0.0
                } else {
                    fs.brownout[l]
                }
            }
        }
    }

    /// Time of the next unapplied fault event, if any.
    fn next_fault_time(&self) -> Option<SimTime> {
        self.faults.as_ref().and_then(|fs| fs.queue.peek_time())
    }

    /// Applies every fault event scheduled at or before the current
    /// time. Telemetry is stamped with each event's *scheduled* time,
    /// so late application (a boundary landing past the event) keeps
    /// truthful timestamps.
    fn apply_due_faults(&mut self) {
        let now = self.now;
        let Some(fs) = &mut self.faults else { return };
        let mut fired = false;
        while let Some((at, ev)) = fs.queue.pop_until(now) {
            fired = true;
            let (what, id, factor) = match ev {
                FaultEvent::LinkDown(l) => {
                    fs.link_down[l.0 as usize] = true;
                    ("link_down", l.0 as u64, 0.0)
                }
                FaultEvent::LinkUp(l) => {
                    fs.link_down[l.0 as usize] = false;
                    ("link_up", l.0 as u64, 1.0)
                }
                FaultEvent::BrownoutSet { link, factor } => {
                    fs.brownout[link.0 as usize] = factor;
                    ("brownout", link.0 as u64, factor)
                }
                FaultEvent::NodeDown(n) => {
                    fs.node_down[n.0 as usize] = true;
                    ("node_down", n.0 as u64, 0.0)
                }
                FaultEvent::NodeUp(n) => {
                    fs.node_down[n.0 as usize] = false;
                    ("node_up", n.0 as u64, 1.0)
                }
            };
            self.stats.faults_injected += 1;
            let tracer = self.telemetry.as_ref().and_then(|t| t.tel.tracer.as_ref());
            if let Some(tr) = tracer {
                tr.record(
                    Event::new(EventKind::FaultInjected, at.as_micros(), id)
                        .with_str("fault", what)
                        .with_f64("factor", factor),
                );
            }
        }
        if fired {
            self.cache.faults_fired = true;
        }
    }

    /// Instantaneous *effective* rate of `link`: the raw process value
    /// scaled by the fault plane (0 while down).
    pub fn effective_link_rate_now(&mut self, link: LinkId) -> f64 {
        self.apply_due_faults();
        let raw = self.process(link.0 as usize).rate_at(self.now);
        raw * self.fault_factor(link.0 as usize)
    }

    /// True if the fault plane currently makes `link` unusable (the
    /// link itself or either endpoint node is down).
    pub fn link_is_down(&mut self, link: LinkId) -> bool {
        self.apply_due_faults();
        self.fault_factor(link.0 as usize) == 0.0
    }

    /// Current fair-share allocation of every active flow at this
    /// instant: `(flow, route links, allocated rate)`. Diagnostic /
    /// test accessor — it recomputes shares without advancing time and
    /// never changes engine state beyond lazily extending process
    /// timelines (which is query-stable).
    pub fn active_flow_allocation(&mut self) -> Vec<(FlowId, Vec<LinkId>, f64)> {
        self.apply_due_faults();
        let (caps, alloc_flows) = self.scratch_problem();
        let rates = max_min_rates(&caps, &alloc_flows);
        self.active
            .live_slots()
            .zip(rates)
            .map(|(k, r)| {
                let i = self.active.id[k];
                (FlowId(i as u64), self.cache.route(i).to_vec(), r)
            })
            .collect()
    }

    /// Starts a flow of `bytes` along `route` at the current time.
    pub fn start_flow(&mut self, route: Route, bytes: u64, cap: Box<dyn RateCap>) -> FlowId {
        let id = FlowId(self.flows.len() as u64);
        let ended = (bytes == 0).then_some(self.now);
        self.cache.push_flow(&self.topo, &route.links);
        if ended.is_none() {
            self.cache.acquire(id.0 as u32);
            self.active.push(id.0 as u32, bytes as f64);
        }
        if let Some(tr) = self.tracer() {
            tr.record(
                Event::new(EventKind::FlowStart, self.now.as_micros(), id.0)
                    .with_u64("bytes", bytes)
                    .with_u64("hops", route.links.len() as u64),
            );
        }
        self.flows.push(FlowState {
            cap,
            ended,
            cancelled: false,
        });
        self.bytes_total.push(bytes);
        self.bytes_done.push(0.0);
        self.started.push(self.now);
        self.stats.flows_started += 1;
        id
    }

    /// Cancels a flow (it stops consuming bandwidth and will never
    /// complete). No-op if already finished or cancelled.
    pub fn cancel_flow(&mut self, id: FlowId) {
        let f = &mut self.flows[id.0 as usize];
        if f.ended.is_none() {
            f.ended = Some(self.now);
            f.cancelled = true;
            self.cache.release(id.0 as u32);
            let k = self.active.slot(id.0 as u32);
            self.bytes_done[id.0 as usize] = self.active.vacate(k);
            self.stats.flows_cancelled += 1;
            if let Some(tr) = self.tracer() {
                tr.record(
                    Event::new(EventKind::FlowCancel, self.now.as_micros(), id.0)
                        .with_u64("bytes_done", self.bytes_done[id.0 as usize] as u64),
                );
            }
        }
    }

    /// Bytes transferred so far by a flow.
    pub fn flow_progress(&self, id: FlowId) -> u64 {
        if self.is_active(id) {
            self.active.done[self.active.slot(id.0 as u32)] as u64
        } else {
            self.bytes_done[id.0 as usize] as u64
        }
    }

    /// Completion record of a flow, if it has finished.
    pub fn completion(&self, id: FlowId) -> Option<CompletedFlow> {
        let i = id.0 as usize;
        let f = &self.flows[i];
        f.ended
            .filter(|_| !f.cancelled)
            .map(|finished| CompletedFlow {
                id,
                bytes: self.bytes_total[i],
                started: self.started[i],
                finished,
            })
    }

    /// True if a flow is still transferring.
    pub fn is_active(&self, id: FlowId) -> bool {
        self.flows[id.0 as usize].ended.is_none()
    }

    /// Assembles the fair-share problem **from scratch**: the
    /// brute-force path the engine used before the incremental caches
    /// existed, kept verbatim as the reference. Returns `(link caps,
    /// flows)` in dense slot order; [`EngineMode::Reference`] solves it
    /// with the naive oracle every boundary, and the diagnostic
    /// allocation accessor solves it with [`max_min_rates`].
    ///
    /// [`Sharing::PerFlow`] links do not couple flows: their process
    /// value folds into each crossing flow's own cap, and they enter the
    /// max–min problem with infinite capacity. [`Sharing::Capacity`]
    /// links are genuinely shared.
    fn scratch_problem(&mut self) -> (Vec<f64>, Vec<AllocFlow>) {
        let t = self.now;
        // Snapshot rates only for links in use; large scenarios have
        // thousands of links but a handful carry active flows.
        let mut in_use: Vec<usize> = self
            .active
            .live_slots()
            .flat_map(|k| {
                let links = self.cache.route(self.active.id[k]);
                links.iter().map(|l| l.0 as usize)
            })
            .collect();
        in_use.sort_unstable();
        in_use.dedup();
        // Dense remap: link index -> slot in the fair-share problem.
        // Precomputed table, not a binary search per lookup — routes
        // touch every link once per flow, so the old O(log n) probe per
        // hop dominated wide scenarios.
        let mut slot = vec![usize::MAX; self.topo.link_count()];
        for (k, &l) in in_use.iter().enumerate() {
            slot[l] = k;
        }
        let slot_of = |l: usize| slot[l];
        let factors: Vec<f64> = in_use.iter().map(|&l| self.fault_factor(l)).collect();
        let rates: Vec<f64> = in_use
            .iter()
            .enumerate()
            .map(|(k, &l)| self.process(l).rate_at(t) * factors[k])
            .collect();
        let caps: Vec<f64> = in_use
            .iter()
            .enumerate()
            .map(|(k, &l)| match self.topo.link(LinkId(l as u32)).sharing {
                Sharing::Capacity => rates[k],
                Sharing::PerFlow => f64::INFINITY,
            })
            .collect();
        let alloc_flows: Vec<AllocFlow> = self
            .active
            .live_slots()
            .map(|k| {
                let i = self.active.id[k] as usize;
                let age = t - self.started[i];
                let mut cap = self.flows[i].cap.cap(age, self.active.done[k] as u64);
                let route = self.cache.route(i as u32);
                for l in route {
                    if self.topo.link(*l).sharing == Sharing::PerFlow {
                        cap = cap.min(rates[slot_of(l.0 as usize)]);
                    }
                }
                AllocFlow {
                    links: route.iter().map(|l| slot_of(l.0 as usize)).collect(),
                    cap,
                }
            })
            .collect();
        (caps, alloc_flows)
    }

    /// Re-queries link `l`'s process at the current time, caching the
    /// raw rate and the segment end, and arms the change heap.
    fn refresh_link_rate(&mut self, l: usize) {
        let t = self.now;
        let (rate, next) = {
            let mut proc_ = self.process(l);
            (proc_.rate_at(t), proc_.next_change_after(t))
        };
        self.cache.raw_rate[l] = rate;
        match next {
            Some(until) => {
                debug_assert!(until > t, "rate change not in the future");
                self.cache.rate_until[l] = until;
                self.cache.change_heap.push(Reverse((until, l as u32)));
            }
            None => self.cache.rate_until[l] = SimTime::MAX,
        }
    }

    /// Re-derives link `l`'s effective rate from the cached raw rate
    /// and the fault plane. When its bits moved, a Capacity link
    /// dirties its component (returning true: a solver input changed);
    /// a PerFlow link reaches the solver only through the folded
    /// per-flow caps, so it just flags those for re-folding.
    fn update_effective_rate(&mut self, l: usize) -> bool {
        let eff = self.cache.raw_rate[l] * self.fault_factor(l);
        if eff.to_bits() == self.cache.prob.link_cap[l].to_bits() {
            return false;
        }
        self.cache.prob.link_cap[l] = eff;
        match self.topo.link(LinkId(l as u32)).sharing {
            Sharing::Capacity => {
                self.cache.comps.mark_dirty_link(l as u32);
                true
            }
            Sharing::PerFlow => {
                self.cache.fold_dirty = true;
                false
            }
        }
    }

    /// Queries active flow `i`'s cap for the segment starting now and
    /// arms the cap heap with the segment's end.
    fn refresh_cap(&mut self, i: u32) {
        let k = self.active.slot(i);
        let done = self.active.done[k];
        let iu = i as usize;
        let age = self.now - self.started[iu];
        let cap = &mut self.flows[iu].cap;
        self.cache.own_cap[iu] = cap.cap(age, done as u64);
        self.cache.cap_until[iu] = match cap.next_cap_change(age) {
            Some(next_age) => {
                debug_assert!(next_age > age, "cap change not in the future");
                let until = self.started[iu] + next_age;
                self.cache.cap_heap.push(Reverse((until, i)));
                until
            }
            None => SimTime::MAX,
        };
    }

    /// Records a full max–min solve in stats and the trace (both engine
    /// modes).
    fn note_full_solve(&mut self, active_flows: usize) {
        self.stats.full_solves += 1;
        if let Some(tr) = self.tracer() {
            tr.record(
                Event::new(EventKind::FairShareRecompute, self.now.as_micros(), 0)
                    .with_u64("active_flows", active_flows as u64),
            );
        }
    }

    /// Brings `cache.rate` up to date for the current instant — the
    /// incremental engine's allocation.
    ///
    /// Bit-identical to solving [`Network::scratch_problem`] by
    /// construction: every cached quantity is refreshed the moment it
    /// can differ from the scratch value (see the [`EngineCache`]
    /// invalidation rules), cached values are compared **bitwise**
    /// against fresh ones, and a component is left unsolved only when
    /// every one of its solver inputs is bitwise unchanged — in which
    /// case re-solving (a pure function) would reproduce its rates
    /// exactly.
    ///
    /// Every flow of a component the solver re-ran gets its new rate and
    /// quotient in `active`; every other flow's rate bits did not move.
    fn incremental_rates(&mut self) {
        let t = self.now;
        // Did any solver input change since the cached solution?
        let mut changed = false;

        // Links that came into use: their segment may have expired, or
        // its heap entry been discarded, while they were idle.
        while let Some(l) = self.cache.newly_used.pop() {
            let lu = l as usize;
            if self.cache.link_refs[lu] == 0 {
                continue;
            }
            if t >= self.cache.rate_until[lu] {
                self.refresh_link_rate(lu);
            } else if self.cache.rate_until[lu] != SimTime::MAX {
                let until = self.cache.rate_until[lu];
                self.cache.change_heap.push(Reverse((until, l)));
            }
            changed |= self.update_effective_rate(lu);
        }
        // Refresh exactly the links whose cached segment expired.
        while let Some(&Reverse((at, l))) = self.cache.change_heap.peek() {
            if at > t {
                break;
            }
            self.cache.change_heap.pop();
            if self.cache.link_entry_live(at, l) {
                self.refresh_link_rate(l as usize);
                changed |= self.update_effective_rate(l as usize);
            }
        }
        if std::mem::take(&mut self.cache.faults_fired) {
            // Fault factors may have moved under any in-use link; the
            // factor is a few array loads, so re-derive wholesale.
            for l in 0..self.cache.link_refs.len() {
                if self.cache.link_refs[l] > 0 {
                    changed |= self.update_effective_rate(l);
                }
            }
        }

        // First cap query of new flows (unless already gone again), then
        // the flows whose cached cap segment expired.
        for k in 0..self.cache.new_flows.len() {
            let i = self.cache.new_flows[k];
            if self.cache.comps.comp_of_flow(i) != NO_COMP {
                self.refresh_cap(i);
                changed |= self.cache.refold(i);
            }
        }
        self.cache.new_flows.clear();
        while let Some(&Reverse((at, i))) = self.cache.cap_heap.peek() {
            if at > t {
                break;
            }
            self.cache.cap_heap.pop();
            if self.cache.cap_entry_live(at, i) {
                self.refresh_cap(i);
                changed |= self.cache.refold(i);
            }
        }
        if std::mem::take(&mut self.cache.fold_dirty) {
            for k in 0..self.active.slots() {
                if self.active.is_live(k) {
                    changed |= self.cache.refold(self.active.id[k]);
                }
            }
        }
        // Debug builds hold every cap to the `RateCap` contract the
        // segment cache rests on (the reference engine re-queries every
        // boundary regardless, so lockstep checks it in release too).
        #[cfg(debug_assertions)]
        for k in self.active.live_slots() {
            let i = self.active.id[k];
            let iu = i as usize;
            let fresh = self.flows[iu]
                .cap
                .cap(t - self.started[iu], self.active.done[k] as u64);
            assert!(
                fresh.to_bits() == self.cache.own_cap[iu].to_bits(),
                "RateCap contract: flow {i}'s cap moved from {} to {fresh} \
                 before its announced next_cap_change",
                self.cache.own_cap[iu]
            );
        }

        if self.cache.have_solution && !changed {
            // Provably nothing the solver sees moved (e.g. a PerFlow
            // link's process change that left every folded cap
            // bitwise identical): the allocation stands.
            self.stats.incremental_solves += 1;
            return;
        }

        let nf = self.active.live;
        // Departures are repaired here, one local re-derivation per
        // component that lost a member.
        let repaired = {
            let EngineCache { comps, prob, .. } = &mut self.cache;
            comps.begin_solve(&prob.flow_off, &prob.flow_links)
        };
        if repaired > 0 {
            self.stats.partition_rebuilds += 1;
            if let Some(tr) = self.tracer() {
                tr.record(Event::new(
                    EventKind::PartitionRebuild,
                    t.as_micros(),
                    nf as u64,
                ));
            }
        }

        // The kernel bypasses `max_min_rates`' input validation; keep
        // its contract (same panics on bad caps) for the inputs about
        // to be read.
        let mut all_finite = true;
        for &c in self.cache.comps.dirty() {
            for &l in self.cache.comps.links(c) {
                let e = self.cache.prob.link_cap[l as usize];
                assert!(e >= 0.0, "bad link capacity {e}");
                all_finite &= e.is_finite();
            }
            for &f in self.cache.comps.flows(c) {
                let cap = self.cache.prob.flow_cap[f as usize];
                assert!(cap >= 0.0 && !cap.is_nan(), "bad flow cap {cap}");
            }
        }
        if !all_finite {
            self.degenerate_rates(nf);
            return;
        }

        let ncomp = self.cache.comps.count() as u64;
        let resolved = {
            let EngineCache {
                prob,
                comps,
                scratch,
                rate,
                ..
            } = &mut self.cache;
            scratch.resize(rate.len(), prob.link_cap.len());
            for &c in comps.dirty() {
                crate::soa::solve_component(
                    prob,
                    comps.flows(c),
                    comps.links(c),
                    &mut scratch.frozen,
                    &mut scratch.residual,
                    &mut scratch.active_on,
                    rate,
                );
                self.active.refresh(comps.flows(c), rate);
            }
            let resolved = comps.dirty().len() as u64;
            comps.end_solve();
            resolved
        };
        self.stats.component_solves += ncomp;
        self.stats.components_resolved += resolved;
        self.note_full_solve(nf);
        self.cache.have_solution = true;
    }

    /// The incremental engine's allocation when an in-use Capacity
    /// link has a non-finite effective rate.
    #[cold]
    #[inline(never)]
    fn degenerate_rates(&mut self, nf: usize) {
        // Degenerate: an in-use Capacity link with a non-finite
        // effective rate. The solver drops such links from the
        // problem entirely (they cannot saturate), which also
        // changes the component structure, so take the generic path
        // — the exact arithmetic the reference engine runs — and
        // distrust every component's rates afterwards. (Such a link
        // always sits in a dirty component: it got there by a rate
        // change or an arrival, and stays dirty from then on.)
        let caps: Vec<f64> = (0..self.cache.link_refs.len())
            .map(|l| match self.topo.link(LinkId(l as u32)).sharing {
                Sharing::Capacity if self.cache.link_refs[l] > 0 => self.cache.prob.link_cap[l],
                _ => f64::INFINITY,
            })
            .collect();
        let alloc_flows: Vec<AllocFlow> = self
            .active
            .live_slots()
            .map(|k| {
                let i = self.active.id[k];
                AllocFlow {
                    links: self.cache.route(i).iter().map(|l| l.0 as usize).collect(),
                    cap: self.cache.prob.flow_cap[i as usize],
                }
            })
            .collect();
        let rates = max_min_rates(&caps, &alloc_flows);
        self.note_full_solve(nf);
        self.cache.comps.end_solve();
        self.cache.adopt_rates(&mut self.active, rates);
        self.cache.have_solution = true;
    }

    /// The reference engine's boundary set-up: the allocation solved
    /// from scratch, the earliest upcoming link-rate and flow-cap
    /// changes, and the earliest projected completion (in seconds), each
    /// found by querying every active flow and in-use link afresh.
    #[inline(never)]
    fn reference_allocation(&mut self) -> (Option<SimTime>, Option<SimTime>, f64) {
        let t = self.now;
        let (caps, alloc_flows) = self.scratch_problem();
        let rates = crate::fairshare::reference_rates(&caps, &alloc_flows);
        self.note_full_solve(self.active.live);
        self.cache.adopt_rates(&mut self.active, rates);
        let mut in_use = std::collections::BTreeSet::new();
        for k in self.active.live_slots() {
            for l in self.cache.route(self.active.id[k]) {
                in_use.insert(l.0 as usize);
            }
        }
        let link_at = in_use
            .iter()
            .filter_map(|&l| self.process(l).next_change_after(t))
            .min();
        let cap_at = self
            .active
            .live_slots()
            .filter_map(|k| {
                let i = self.active.id[k];
                let age = t - self.started[i as usize];
                let next_age = self.flows[i as usize].cap.next_cap_change(age)?;
                debug_assert!(next_age > age, "cap change not in the future");
                Some(self.started[i as usize] + next_age)
            })
            .min();
        (
            link_at,
            cap_at,
            scratch_horizon(&self.active, &self.cache.rate),
        )
    }

    /// Advances simulated time by **one boundary** — to the earliest of
    /// a link-rate change, a flow cap change, a flow completion, or
    /// `until` — and returns the completions that occurred exactly at
    /// the new time (simultaneous completions are ordered by flow id).
    fn advance_one_boundary(&mut self, until: SimTime) -> Vec<CompletedFlow> {
        debug_assert!(until >= self.now);
        self.stats.boundaries += 1;
        self.apply_due_faults();
        self.active.compact_if_sparse();
        if self.active.is_empty() {
            self.stats.ended_idle += 1;
            self.last_step = (0, 0);
            // Stop at the next fault event so its application time (and
            // telemetry timestamp) stays exact even while idle.
            self.now = match self.next_fault_time() {
                Some(t) if t < until => t,
                _ => until,
            };
            return Vec::new();
        }
        let t = self.now;
        // The allocation, the earliest upcoming link-rate and flow-cap
        // changes, and the earliest projected completion (in seconds).
        let (link_at, cap_at, soonest) = match self.mode {
            EngineMode::Incremental => {
                self.incremental_rates();
                // Entries at or before `now` were consumed by the
                // allocation above.
                let (link_at, cap_at) = self.cache.next_changes();
                debug_assert!(
                    [link_at, cap_at].into_iter().flatten().all(|at| at > t),
                    "unconsumed due change"
                );
                let soonest = self.active.horizon();
                #[cfg(debug_assertions)]
                {
                    let scratch = scratch_horizon(&self.active, &self.cache.rate);
                    assert!(
                        soonest.to_bits() == scratch.to_bits(),
                        "patched horizon {soonest} differs from the scratch one {scratch}"
                    );
                    for k in self.active.live_slots() {
                        let (i, r) = (self.active.id[k], self.active.rate[k]);
                        let solved = self.cache.rate[i as usize];
                        assert!(
                            r.to_bits() == solved.to_bits(),
                            "flow {i} integrates at {r}, but its solved rate is {solved}"
                        );
                    }
                }
                (link_at, cap_at, soonest)
            }
            EngineMode::Reference => self.reference_allocation(),
        };
        // Rounding up to whole microseconds and the saturating add are
        // both monotone, so rounding the least quotient once gives the
        // boundary that rounding each flow's would.
        let completion_at = soonest
            .is_finite()
            .then(|| t.saturating_add(SimDuration::from_secs_f64_ceil(soonest)));
        // A scheduled fault is a rate-change boundary like any other
        // (events at or before `now` were applied above, so any pending
        // one is strictly in the future). The earliest candidate ends
        // the step; a tie goes to the first listed.
        let fault_at = self.next_fault_time();
        let mut boundary = [completion_at, link_at, cap_at, fault_at]
            .into_iter()
            .fold(until, |b, at| at.map_or(b, |at| at.min(b)));
        let ended_by = if completion_at == Some(boundary) {
            &mut self.stats.ended_by_completion
        } else if link_at == Some(boundary) {
            &mut self.stats.ended_by_link_rate
        } else if cap_at == Some(boundary) {
            &mut self.stats.ended_by_cap
        } else if fault_at == Some(boundary) {
            &mut self.stats.ended_by_fault
        } else {
            &mut self.stats.ended_by_target
        };
        *ended_by += 1;
        // Every other candidate is in the future (the process and cap
        // contracts), so this moves a completion that rounds to 0 µs (an
        // infinite rate) to 1 µs, and guarantees progress should a
        // process break its contract.
        if boundary <= self.now {
            boundary = self.now + SimDuration::from_micros(1);
        }
        let dt = (boundary - self.now).as_secs_f64();

        self.last_step = (self.active.slots(), self.active.live);
        self.cache.completed.clear();
        self.cache.completed.reserve(self.active.live);
        self.active.integrate(dt, &mut self.cache.completed);
        self.now = boundary;

        let mut done = Vec::with_capacity(self.cache.completed.len());
        for k in 0..self.cache.completed.len() {
            let i = self.cache.completed[k];
            self.flows[i as usize].ended = Some(boundary);
            self.cache.release(i);
            self.bytes_done[i as usize] = self.bytes_total[i as usize] as f64;
            self.stats.flows_completed += 1;
            done.push(CompletedFlow {
                id: FlowId(i as u64),
                bytes: self.bytes_total[i as usize],
                started: self.started[i as usize],
                finished: boundary,
            });
        }
        if let Some(t) = &self.telemetry {
            for c in &done {
                let dur = (c.finished - c.started).as_micros();
                t.flow_duration_us.record(dur);
                if let Some(tr) = &t.tel.tracer {
                    tr.record(
                        Event::span(EventKind::FlowComplete, c.started.as_micros(), dur, c.id.0)
                            .with_u64("bytes", c.bytes),
                    );
                }
            }
        }
        done
    }

    /// `(flow, rate)` pairs integrated over the most recent boundary
    /// step, in ascending flow order (empty before the first step or
    /// when the step found no active flows). The step's completed flows
    /// are listed; flows started since are not. The differential suite
    /// compares these bitwise across engine modes.
    pub fn last_boundary_rates(&self) -> impl ExactSizeIterator<Item = (FlowId, f64)> + '_ {
        let (slots, flows) = self.last_step;
        StepFlows {
            net: self,
            slots: 0..slots,
            left: flows,
        }
    }

    /// Advances simulated time by exactly one boundary, bounded by
    /// `until`, and returns the completions at the new time. A no-op
    /// when the clock is already at `until`. This is the
    /// boundary-by-boundary stepper the differential suite uses to
    /// compare engines mid-run; [`Network::advance_until`] is the
    /// normal driving loop.
    ///
    /// # Panics
    ///
    /// Panics if `until` is before the current time.
    pub fn step_boundary(&mut self, until: SimTime) -> Vec<CompletedFlow> {
        assert!(until >= self.now, "advance into the past");
        if self.now >= until {
            return Vec::new();
        }
        self.advance_one_boundary(until)
    }

    /// Advances simulated time to `until`, returning completions in
    /// order of occurrence.
    ///
    /// # Panics
    ///
    /// Panics if `until` is before the current time.
    pub fn advance_until(&mut self, until: SimTime) -> Vec<CompletedFlow> {
        assert!(until >= self.now, "advance into the past");
        let mut done = Vec::new();
        while self.now < until {
            done.extend(self.advance_one_boundary(until));
        }
        done
    }

    /// Advances until the given flow completes or `horizon` passes.
    /// Returns the completion record, or `None` on timeout or if the
    /// flow was cancelled. Time stops exactly at the completion instant.
    pub fn run_flow(&mut self, id: FlowId, horizon: SimTime) -> Option<CompletedFlow> {
        if let Some(c) = self.completion(id) {
            return Some(c);
        }
        while self.now < horizon {
            if !self.is_active(id) {
                return None; // cancelled
            }
            let completions = self.advance_one_boundary(horizon);
            if let Some(c) = completions.into_iter().find(|c| c.id == id) {
                return Some(c);
            }
        }
        self.completion(id)
    }

    /// Advances until **any** of `ids` completes or `horizon` passes.
    /// Returns the first completion among them (simultaneous completions
    /// resolve to the lowest flow id, deterministically). Time stops
    /// exactly at the winning completion instant, so the caller can
    /// cancel the losers at the moment the race is decided — the probe
    /// protocol in `ir-core` relies on this.
    pub fn run_until_first_of(
        &mut self,
        ids: &[FlowId],
        horizon: SimTime,
    ) -> Option<CompletedFlow> {
        // One of them may already be done.
        if let Some(c) = self.earliest_completion_of(ids) {
            return Some(c);
        }
        while self.now < horizon {
            if ids.iter().all(|&id| !self.is_active(id)) {
                return None;
            }
            let completions = self.advance_one_boundary(horizon);
            let mut hits: Vec<CompletedFlow> = completions
                .into_iter()
                .filter(|c| ids.contains(&c.id))
                .collect();
            if !hits.is_empty() {
                hits.sort_by_key(|c| (c.finished, c.id));
                return Some(hits[0]);
            }
        }
        None
    }

    fn earliest_completion_of(&self, ids: &[FlowId]) -> Option<CompletedFlow> {
        ids.iter()
            .filter_map(|&id| self.completion(id))
            .min_by_key(|c| (c.finished, c.id))
    }
}

/// The flows of a network's most recent boundary step, with their
/// rates: see [`Network::last_boundary_rates`].
struct StepFlows<'a> {
    net: &'a Network,
    /// Slots not yet visited.
    slots: Range<usize>,
    /// Flows not yet yielded.
    left: usize,
}

impl Iterator for StepFlows<'_> {
    type Item = (FlowId, f64);

    fn next(&mut self) -> Option<(FlowId, f64)> {
        if self.left == 0 {
            return None;
        }
        let (act, now) = (&self.net.active, self.net.now);
        for k in self.slots.by_ref() {
            let i = act.id[k];
            if act.is_live(k) || self.net.flows[i as usize].ended == Some(now) {
                self.left -= 1;
                return Some((FlowId(i as u64), self.net.cache.rate[i as usize]));
            }
        }
        unreachable!("the step's flows are in its slots")
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for StepFlows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::{ConstantProcess, PiecewiseProcess};
    use crate::topology::{NodeKind, Topology};
    use ir_artifact::{StableHash, StableHasher};

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

    /// client --L0--> server, client --L1--> mid --L2--> server
    fn diamond(rates: [f64; 3]) -> (Network, Route, Route) {
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let m = t.add_node("m", NodeKind::Intermediate);
        let s = t.add_node("s", NodeKind::Server);
        let l0 = t.add_link(c, s, SimDuration::from_millis(40));
        let l1 = t.add_link(c, m, SimDuration::from_millis(20));
        let l2 = t.add_link(m, s, SimDuration::from_millis(10));
        let direct = t.route(&[c, s]).unwrap();
        let indirect = t.route(&[c, m, s]).unwrap();
        let mut net = Network::new(t, 1e9);
        net.set_link_process(l0, Box::new(ConstantProcess::new(rates[0])));
        net.set_link_process(l1, Box::new(ConstantProcess::new(rates[1])));
        net.set_link_process(l2, Box::new(ConstantProcess::new(rates[2])));
        (net, direct, indirect)
    }

    #[test]
    fn single_flow_finishes_at_expected_time() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let id = net.start_flow(direct, 10_000, Box::new(NoCap));
        let c = net.run_flow(id, SimTime::from_secs(100)).unwrap();
        // 10k bytes at 1000 B/s = 10 s.
        assert!((c.finished.as_secs_f64() - 10.0).abs() < 1e-3);
        assert!((c.throughput() - 1000.0).abs() < 1.0);
    }

    #[test]
    fn indirect_flow_limited_by_min_link() {
        let (mut net, _, indirect) = diamond([1.0, 500.0, 2000.0]);
        let id = net.start_flow(indirect, 5_000, Box::new(NoCap));
        let c = net.run_flow(id, SimTime::from_secs(100)).unwrap();
        assert!((c.throughput() - 500.0).abs() < 1.0);
    }

    #[test]
    fn const_cap_binds() {
        let (mut net, direct, _) = diamond([1e6, 1.0, 1.0]);
        let id = net.start_flow(direct, 10_000, Box::new(ConstCap(100.0)));
        let c = net.run_flow(id, SimTime::from_secs(1000)).unwrap();
        assert!((c.throughput() - 100.0).abs() < 0.5);
    }

    #[test]
    fn concurrent_flows_share_access_link() {
        // Both routes leave the client; here we make them share L0 by
        // running two flows on the same direct route.
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let a = net.start_flow(direct.clone(), 10_000, Box::new(NoCap));
        let b = net.start_flow(direct, 10_000, Box::new(NoCap));
        let done = net.advance_until(SimTime::from_secs(25));
        assert_eq!(done.len(), 2);
        // Each got ~500 B/s → ~20 s.
        for c in &done {
            assert!((c.finished.as_secs_f64() - 20.0).abs() < 1e-2, "{c:?}");
        }
        assert!(net.completion(a).is_some());
        assert!(net.completion(b).is_some());
    }

    #[test]
    fn flow_speeds_up_when_competitor_finishes() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let _a = net.start_flow(direct.clone(), 5_000, Box::new(NoCap));
        let b = net.start_flow(direct, 10_000, Box::new(NoCap));
        // Shared till a finishes at t=10 (each 500 B/s, a needs 5000).
        // Then b has 5000 left at 1000 B/s → finishes at t=15.
        let c = net.run_flow(b, SimTime::from_secs(100)).unwrap();
        assert!((c.finished.as_secs_f64() - 15.0).abs() < 1e-2, "{c:?}");
    }

    #[test]
    fn piecewise_rate_change_mid_flow() {
        let (mut net, direct, _) = diamond([1.0, 1.0, 1.0]);
        // Override L0: 100 B/s for 10 s, then 900 B/s.
        let l0 = net
            .topology()
            .link_between(
                net.topology().node_by_name("c").unwrap(),
                net.topology().node_by_name("s").unwrap(),
            )
            .unwrap();
        net.set_link_process(
            l0,
            Box::new(PiecewiseProcess::new(vec![
                (SimTime::ZERO, 100.0),
                (SimTime::from_secs(10), 900.0),
            ])),
        );
        let id = net.start_flow(direct, 10_000, Box::new(NoCap));
        // 1000 bytes in first 10 s, then 9000 at 900 B/s → 10 more s.
        let c = net.run_flow(id, SimTime::from_secs(100)).unwrap();
        assert!((c.finished.as_secs_f64() - 20.0).abs() < 1e-2, "{c:?}");
    }

    #[test]
    fn run_until_first_of_picks_winner() {
        let (mut net, direct, indirect) = diamond([100.0, 1000.0, 2000.0]);
        let d = net.start_flow(direct, 10_000, Box::new(NoCap));
        let i = net.start_flow(indirect, 10_000, Box::new(NoCap));
        let first = net
            .run_until_first_of(&[d, i], SimTime::from_secs(1000))
            .unwrap();
        assert_eq!(first.id, i, "indirect should win the race");
        // Loser still active.
        assert!(net.is_active(d));
    }

    #[test]
    fn cancel_stops_progress() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let id = net.start_flow(direct, 1_000_000, Box::new(NoCap));
        net.advance_until(SimTime::from_secs(5));
        let p = net.flow_progress(id);
        net.cancel_flow(id);
        net.advance_until(SimTime::from_secs(50));
        assert_eq!(net.flow_progress(id), p);
        assert!(net.completion(id).is_none());
        assert!(!net.is_active(id));
    }

    #[test]
    fn cancelled_flow_releases_bandwidth() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let a = net.start_flow(direct.clone(), 100_000, Box::new(NoCap));
        let b = net.start_flow(direct, 10_000, Box::new(NoCap));
        net.advance_until(SimTime::from_secs(2)); // each at 500 B/s, b has 1000 done
        net.cancel_flow(a);
        let c = net.run_flow(b, SimTime::from_secs(100)).unwrap();
        // b: 1000 done at t=2, 9000 left at 1000 B/s → t=11.
        assert!((c.finished.as_secs_f64() - 11.0).abs() < 1e-2, "{c:?}");
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let id = net.start_flow(direct, 0, Box::new(NoCap));
        let c = net.completion(id).unwrap();
        assert_eq!(c.finished, SimTime::ZERO);
        assert!(c.throughput().is_infinite());
    }

    #[test]
    fn clone_replays_identically() {
        use crate::bandwidth::RegimeSwitchingProcess;
        let (mut net, direct, _) = diamond([1.0, 1.0, 1.0]);
        let l0 = LinkId(0);
        net.set_link_process(
            l0,
            Box::new(RegimeSwitchingProcess::new(
                vec![500.0, 5000.0],
                SimDuration::from_secs(7),
                0.3,
                99,
            )),
        );
        let mut replica = net.clone();
        let a = net.start_flow(direct.clone(), 50_000, Box::new(NoCap));
        let b = replica.start_flow(direct, 50_000, Box::new(NoCap));
        let ca = net.run_flow(a, SimTime::from_secs(10_000)).unwrap();
        let cb = replica.run_flow(b, SimTime::from_secs(10_000)).unwrap();
        assert_eq!(ca.finished, cb.finished);
    }

    /// `diamond`'s three links plus `idle` links no route uses, all
    /// PerFlow and each on its own regime-switching process.
    fn shared_world(idle: u32) -> (Network, Route, Route) {
        use crate::bandwidth::RegimeSwitchingProcess;
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let m = t.add_node("m", NodeKind::Intermediate);
        let s = t.add_node("s", NodeKind::Server);
        let ms = SimDuration::from_millis;
        t.add_link_shared(c, s, ms(40), Sharing::PerFlow);
        t.add_link_shared(c, m, ms(20), Sharing::PerFlow);
        t.add_link_shared(m, s, ms(10), Sharing::PerFlow);
        for k in 0..idle {
            let x = t.add_node(format!("x{k}"), NodeKind::Client);
            t.add_link_shared(s, x, ms(30), Sharing::PerFlow);
        }
        let direct = t.route(&[c, s]).unwrap();
        let indirect = t.route(&[c, m, s]).unwrap();
        let mut net = Network::new(t, 1.0);
        for l in 0..net.topology().link_count() as u32 {
            let levels = vec![2e4, 1e5, 4e5];
            let p = RegimeSwitchingProcess::new(levels, ms(1500), 0.3, 40 + l as u64);
            net.set_link_process(LinkId(l), Box::new(p));
        }
        (net, direct, indirect)
    }

    fn shares(a: &Network, b: &Network, l: usize) -> bool {
        Arc::ptr_eq(&a.procs[l], &b.procs[l])
    }

    /// Races a 300 KB flow down each route and runs both to completion.
    fn race(net: &mut Network, direct: &Route, indirect: &Route) -> Vec<CompletedFlow> {
        let d = net.start_flow(direct.clone(), 300_000, Box::new(NoCap));
        let i = net.start_flow(indirect.clone(), 300_000, Box::new(NoCap));
        let horizon = SimTime::from_secs(600);
        let first = net.run_until_first_of(&[d, i], horizon).unwrap();
        let mut done = vec![first];
        done.extend(net.advance_until(horizon));
        done
    }

    #[test]
    fn a_clone_shares_every_process_it_queries() {
        let (donor, direct, indirect) = shared_world(5);
        let (mut independent, _, _) = shared_world(5);
        assert!((0..8).all(|l| !shares(&donor, &independent, l)));
        let expected = race(&mut independent, &direct, &indirect);
        let mut clone = donor.clone();
        assert!(std::ptr::eq(donor.topology(), clone.topology()));
        assert!((0..8).all(|l| shares(&donor, &clone, l)));
        assert_eq!(race(&mut clone, &direct, &indirect), expected);
        assert!(
            (0..8).all(|l| shares(&donor, &clone, l)),
            "a query copied a process"
        );
    }

    #[test]
    fn clones_raced_on_two_threads_match_an_independent_build() {
        let (donor, direct, indirect) = shared_world(2);
        let (mut independent, _, _) = shared_world(2);
        assert!((0..5).all(|l| !shares(&donor, &independent, l)));
        let expected = race(&mut independent, &direct, &indirect);
        assert_eq!(expected.len(), 2);
        let (mut a, mut b) = (donor.clone(), donor.clone());
        // Both threads start together, so their first queries of the
        // shared processes overlap.
        let go = std::sync::Barrier::new(2);
        let (ra, rb) = std::thread::scope(|s| {
            let run = |net: &mut Network| {
                go.wait();
                race(net, &direct, &indirect)
            };
            let ha = s.spawn(move || run(&mut a));
            let hb = s.spawn(move || run(&mut b));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert_eq!(ra, expected);
        assert_eq!(rb, expected);
    }

    /// A per-flow link that never limits: its flows run at their caps,
    /// or at an infinite rate under [`NoCap`].
    #[derive(Clone)]
    struct Unbounded;

    impl BandwidthProcess for Unbounded {
        fn rate_at(&mut self, _t: SimTime) -> f64 {
            f64::INFINITY
        }
        fn next_change_after(&mut self, _t: SimTime) -> Option<SimTime> {
            None
        }
        fn clone_box(&self) -> Box<dyn BandwidthProcess> {
            Box::new(self.clone())
        }
    }

    /// Starts `(bytes, cap)` flows at `start` on an unbounded per-flow
    /// link and takes one boundary step.
    fn first_boundary(start: SimTime, flows: &[(u64, Option<f64>)]) -> Network {
        use crate::topology::Sharing;
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let s = t.add_node("s", NodeKind::Server);
        let l = t.add_link_shared(c, s, SimDuration::from_millis(1), Sharing::PerFlow);
        let route = t.route(&[c, s]).unwrap();
        let mut net = Network::new(t, 1.0);
        net.set_link_process(l, Box::new(Unbounded));
        net.advance_until(start);
        for &(bytes, cap) in flows {
            let cap: Box<dyn RateCap> = match cap {
                Some(r) => Box::new(ConstCap(r)),
                None => Box::new(NoCap),
            };
            net.start_flow(route.clone(), bytes, cap);
        }
        net.step_boundary(SimTime::MAX);
        net
    }

    /// The boundary as every flow's own rounded completion would give
    /// it: `start + min over flows of max(1 µs, ⌈bytes / rate⌉ µs)`.
    fn per_flow_ceil(start: SimTime, flows: &[(u64, Option<f64>)]) -> SimTime {
        let us = flows
            .iter()
            .filter_map(|&(bytes, cap)| {
                let rate = cap.unwrap_or(f64::INFINITY);
                (rate > 0.0 && bytes > 0)
                    .then(|| ((bytes as f64 / rate * 1e6).ceil() as u64).max(1))
            })
            .min()
            .unwrap();
        start.saturating_add(SimDuration::from_micros(us))
    }

    #[test]
    fn one_ceil_of_the_least_quotient_is_the_per_flow_boundary() {
        let start = SimTime::from_micros(3_700_001);
        let mut cases: Vec<Vec<(u64, Option<f64>)>> = vec![
            // Quotients either side of 2 µs and 3 µs, and exactly on them.
            vec![
                (1_000_000, Some(1e6 / 2.999_999_9e-6)),
                (1_000_000, Some(1e6 / 3.000_000_1e-6)),
            ],
            vec![
                (1_000_000, Some(1e6 / 2.000_000_1e-6)),
                (1_000_000, Some(5e11)),
            ],
            // A tie after rounding, and a stalled flow that never counts.
            vec![(3, Some(2e6)), (1, Some(1e6)), (1_000, Some(0.0))],
            // Infinite rate: a zero quotient, floored to 1 µs.
            vec![(5_000, None), (7, Some(1e3))],
            // A quotient far below a microsecond rounds up to one.
            vec![(1, Some(1e300)), (10, Some(1.0))],
        ];
        let mut x = 0.618_033_988_75f64;
        for k in 0..200u64 {
            x = (x * 7.919 + 0.377).fract();
            let us = 1 + k % 9;
            let near = us as f64 + (x - 0.5) * 2e-6;
            cases.push(vec![
                (4_096, Some(4_096.0 / (near * 1e-6))),
                (8_192, Some(8_192.0 / (us as f64 * 1e-6))),
                (
                    1 + k,
                    Some((1 + k) as f64 / ((us + 1) as f64 * 1e-6 * (1.0 - x * 1e-9))),
                ),
            ]);
        }
        for (case, flows) in cases.iter().enumerate() {
            let net = first_boundary(start, flows);
            let want = per_flow_ceil(start, flows);
            assert_eq!(net.now(), want, "case {case}: {flows:?}");
            assert_eq!(
                net.last_boundary_rates().len(),
                flows.iter().filter(|f| f.0 > 0).count()
            );
        }
    }

    #[test]
    fn last_boundary_rates_are_the_steps_flows() {
        let (mut net, direct, indirect) = diamond([1000.0, 400.0, 2000.0]);
        let a = net.start_flow(direct.clone(), 1_000, Box::new(NoCap));
        let b = net.start_flow(indirect.clone(), 100_000, Box::new(NoCap));
        assert_eq!(net.last_boundary_rates().len(), 0);
        let done = net.step_boundary(SimTime::from_secs(100));
        assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), vec![a]);
        // The completed flow is listed with the rate it finished at.
        let want = vec![(a, 1000.0), (b, 400.0)];
        assert_eq!(net.last_boundary_rates().collect::<Vec<_>>(), want);
        // A flow started after the step is not.
        let c = net.start_flow(direct, 500, Box::new(NoCap));
        assert_eq!(net.last_boundary_rates().collect::<Vec<_>>(), want);
        net.step_boundary(SimTime::from_secs(100));
        assert_eq!(
            net.last_boundary_rates().collect::<Vec<_>>(),
            vec![(b, 400.0), (c, 1000.0)]
        );
        // An idle step lists nothing.
        net.advance_until(SimTime::from_secs(1000));
        net.step_boundary(SimTime::from_secs(2000));
        assert_eq!(net.last_boundary_rates().len(), 0);
    }

    #[test]
    fn a_quiet_steps_flows_stay_listed_through_starts_and_cancels() {
        let (mut net, direct, indirect) = diamond([1000.0, 400.0, 2000.0]);
        let a = net.start_flow(direct.clone(), 1_000_000, Box::new(NoCap));
        let b = net.start_flow(indirect, 1_000_000, Box::new(NoCap));
        // Nothing completes: the step ends at its target.
        assert!(net.step_boundary(SimTime::from_secs(1)).is_empty());
        let want = vec![(a, 1000.0), (b, 400.0)];
        assert_eq!(net.last_boundary_rates().collect::<Vec<_>>(), want);
        let c = net.start_flow(direct, 1_000_000, Box::new(NoCap));
        assert_eq!(net.last_boundary_rates().collect::<Vec<_>>(), want);
        // A flow cancelled after the step was still integrated in it.
        net.cancel_flow(a);
        assert_eq!(net.last_boundary_rates().collect::<Vec<_>>(), want);
        net.step_boundary(SimTime::from_secs(2));
        assert_eq!(
            net.last_boundary_rates().collect::<Vec<_>>(),
            vec![(b, 400.0), (c, 1000.0)]
        );
        assert_eq!(net.flow_progress(b), 800);
    }

    /// `n` uncapped flows on one per-flow link of 1,000 B/s, so each
    /// moves 1,000 bytes a second whatever the others do; flow `k`
    /// carries `bytes(k)`.
    fn per_flow_fan(n: u64, bytes: impl Fn(u64) -> u64) -> (Network, Route, Vec<FlowId>) {
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let s = t.add_node("s", NodeKind::Server);
        let l = t.add_link_shared(c, s, SimDuration::from_millis(1), Sharing::PerFlow);
        let route = t.route(&[c, s]).unwrap();
        let mut net = Network::new(t, 1.0);
        net.set_link_process(l, Box::new(ConstantProcess::new(1000.0)));
        let ids = (0..n)
            .map(|k| net.start_flow(route.clone(), bytes(k), Box::new(NoCap)))
            .collect();
        (net, route, ids)
    }

    #[test]
    fn a_hole_in_a_middle_block_leaves_the_flows_around_it_exact() {
        // Three blocks and a bit; flow 100, in the second block,
        // completes first, at 1 s, and leaves a hole.
        let n = 3 * BLOCK as u64 + 8;
        let (mut net, route, ids) = per_flow_fan(n, |k| if k == 100 { 1_000 } else { 1_000_000 });
        let done = net.step_boundary(SimTime::from_secs(100));
        assert_eq!(
            done.iter().map(|c| c.id).collect::<Vec<_>>(),
            vec![ids[100]]
        );
        assert_eq!(net.now(), SimTime::from_secs(1));
        assert_eq!(net.active.slots(), n as usize, "a hole, not a move");
        assert!(!net.is_active(ids[100]));
        assert_eq!(net.flow_progress(ids[100]), 1_000);
        for k in [0, 99, 101, 102, n as usize - 1] {
            assert!(net.is_active(ids[k]));
            assert_eq!(net.flow_progress(ids[k]), 1_000);
        }
        // The step listed every flow, the completed one included, and
        // still does after a cancel beside the hole and a start.
        assert_eq!(net.last_boundary_rates().len(), n as usize);
        net.cancel_flow(ids[101]);
        assert!(!net.is_active(ids[101]));
        assert_eq!(net.flow_progress(ids[101]), 1_000);
        let late = net.start_flow(route, 500, Box::new(NoCap));
        let listed: Vec<FlowId> = net.last_boundary_rates().map(|(id, _)| id).collect();
        assert_eq!(listed, ids);
        // The late flow completes at 1.5 s; the two holes are skipped.
        let done = net.step_boundary(SimTime::from_secs(100));
        assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), vec![late]);
        let listed: Vec<FlowId> = net.last_boundary_rates().map(|(id, _)| id).collect();
        let mut want: Vec<FlowId> = ids.clone();
        want.retain(|&id| id != ids[100] && id != ids[101]);
        want.push(late);
        assert_eq!(listed, want);
        assert_eq!(net.last_boundary_rates().len(), want.len());
        assert!(net.last_boundary_rates().all(|(_, r)| r == 1000.0));
        for k in [99, 102] {
            assert_eq!(net.flow_progress(ids[k]), 1_500);
        }
        assert_eq!(net.flow_progress(ids[101]), 1_000);
        net.cancel_flow(ids[99]);
        net.cancel_flow(ids[101]); // a no-op: already cancelled
        assert_eq!(net.stats().flows_cancelled, 2);
        assert_eq!(net.flow_progress(ids[99]), 1_500);
    }

    #[test]
    fn holes_outnumbering_live_flows_are_compacted_at_the_next_step() {
        let n = 4 * BLOCK as u64;
        let (mut net, _, ids) = per_flow_fan(n, |_| 1_000_000);
        net.step_boundary(SimTime::from_secs(1));
        // Cancel all but every fourth flow: 192 holes, 64 live.
        for (k, &id) in ids.iter().enumerate() {
            if k % 4 != 1 {
                net.cancel_flow(id);
            }
        }
        assert_eq!(net.active.slots(), n as usize);
        // The flows the first step integrated are still listed.
        assert_eq!(net.last_boundary_rates().len(), n as usize);
        net.step_boundary(SimTime::from_secs(2));
        assert_eq!(net.active.slots(), BLOCK);
        assert_eq!(net.active.block_live, vec![BLOCK as u32]);
        let live: Vec<FlowId> = ids.iter().copied().skip(1).step_by(4).collect();
        let listed: Vec<FlowId> = net.last_boundary_rates().map(|(id, _)| id).collect();
        assert_eq!(listed, live);
        for (k, &id) in ids.iter().enumerate() {
            let want = if k % 4 == 1 { 2_000 } else { 1_000 };
            assert_eq!(net.flow_progress(id), want, "flow {k}");
            assert_eq!(net.is_active(id), k % 4 == 1);
        }
        // Slots moved down, and lookups follow them.
        net.cancel_flow(live[40]);
        assert!(!net.is_active(live[40]));
        net.step_boundary(SimTime::from_secs(3));
        assert_eq!(net.flow_progress(live[39]), 3_000);
        assert_eq!(net.flow_progress(live[40]), 2_000);
        assert_eq!(net.flow_progress(live[41]), 3_000);
        assert_eq!(net.last_boundary_rates().len(), BLOCK - 1);
    }

    #[test]
    fn a_compacted_least_is_rescanned_when_its_solve_slows_it() {
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let s = t.add_node("s", NodeKind::Server);
        let m = t.add_node("m", NodeKind::Intermediate);
        let ms = SimDuration::from_millis(1);
        let wide = t.add_link_shared(c, s, ms, Sharing::PerFlow);
        let shared = t.add_link(c, m, ms);
        let mut net = Network::new(t, 1000.0);
        let (wide, shared) = (
            Route::from_links(vec![wide]),
            Route::from_links(vec![shared]),
        );
        let others: Vec<FlowId> = (0..8)
            .map(|_| net.start_flow(wide.clone(), 1_000_000, Box::new(NoCap)))
            .collect();
        // Alone on the shared link, `least` would complete at 10 s.
        let least = net.start_flow(shared.clone(), 10_000, Box::new(NoCap));
        net.step_boundary(SimTime::from_secs(1));
        for id in others {
            net.cancel_flow(id);
        }
        net.start_flow(shared, 1_000_000, Box::new(NoCap));
        // The step compacts `least` down to slot 0, then halves its rate:
        // 9,000 bytes left at 500 B/s.
        let done = net.step_boundary(SimTime::from_secs(100));
        assert_eq!(net.active.slots(), 2);
        assert_eq!(net.now(), SimTime::from_secs(19));
        assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), vec![least]);
    }

    #[test]
    fn advance_past_horizon_panics() {
        let (mut net, _, _) = diamond([1.0, 1.0, 1.0]);
        net.advance_until(SimTime::from_secs(5));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.advance_until(SimTime::from_secs(1));
        }));
        assert!(r.is_err());
    }

    #[test]
    fn per_flow_links_do_not_couple_flows() {
        use crate::topology::Sharing;
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let s = t.add_node("s", NodeKind::Server);
        let l = t.add_link_shared(c, s, SimDuration::from_millis(10), Sharing::PerFlow);
        let route = t.route(&[c, s]).unwrap();
        let mut net = Network::new(t, 1.0);
        net.set_link_process(l, Box::new(ConstantProcess::new(1000.0)));
        // Two concurrent flows EACH get the full 1000 B/s.
        let a = net.start_flow(route.clone(), 10_000, Box::new(NoCap));
        let b = net.start_flow(route, 10_000, Box::new(NoCap));
        let done = net.advance_until(SimTime::from_secs(30));
        assert_eq!(done.len(), 2);
        for cfl in &done {
            assert!(
                (cfl.finished.as_secs_f64() - 10.0).abs() < 1e-2,
                "{cfl:?} should finish at ~10s (uncoupled)"
            );
        }
        let _ = (a, b);
    }

    #[test]
    fn capacity_and_per_flow_links_compose_on_one_route() {
        use crate::topology::Sharing;
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let m = t.add_node("m", NodeKind::Intermediate);
        let s = t.add_node("s", NodeKind::Server);
        // Access link: hard capacity 1000. Wide link: per-flow 800.
        let acc = t.add_link(c, m, SimDuration::from_millis(1));
        let wide = t.add_link_shared(m, s, SimDuration::from_millis(10), Sharing::PerFlow);
        let route = t.route(&[c, m, s]).unwrap();
        let mut net = Network::new(t, 1.0);
        net.set_link_process(acc, Box::new(ConstantProcess::new(1000.0)));
        net.set_link_process(wide, Box::new(ConstantProcess::new(800.0)));
        // Two flows: each capped at 800 by the wide link, but the access
        // capacity of 1000 is shared → 500 each.
        net.start_flow(route.clone(), 5_000, Box::new(NoCap));
        net.start_flow(route, 5_000, Box::new(NoCap));
        let done = net.advance_until(SimTime::from_secs(30));
        assert_eq!(done.len(), 2);
        for cfl in &done {
            assert!(
                (cfl.finished.as_secs_f64() - 10.0).abs() < 1e-2,
                "{cfl:?} should finish at ~10s (500 B/s each)"
            );
        }
    }

    #[test]
    fn engine_stats_count_lifecycle() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        assert_eq!(net.stats(), EngineStats::default());
        let a = net.start_flow(direct.clone(), 5_000, Box::new(NoCap));
        let b = net.start_flow(direct, 1_000_000, Box::new(NoCap));
        net.run_flow(a, SimTime::from_secs(100));
        net.cancel_flow(b);
        let st = net.stats();
        assert_eq!(st.flows_started, 2);
        assert_eq!(st.flows_completed, 1);
        assert_eq!(st.flows_cancelled, 1);
        assert!(st.boundaries >= 1);
    }

    #[test]
    fn telemetry_observes_without_changing_results() {
        let (mut plain, direct_p, _) = diamond([1000.0, 1.0, 1.0]);
        let (mut traced, direct_t, _) = diamond([1000.0, 1.0, 1.0]);
        let tel = Arc::new(Telemetry::new());
        traced.set_telemetry(Some(tel.clone()));

        let a = plain.start_flow(direct_p.clone(), 10_000, Box::new(NoCap));
        let b = traced.start_flow(direct_t.clone(), 10_000, Box::new(NoCap));
        let ca = plain.run_flow(a, SimTime::from_secs(100)).unwrap();
        let cb = traced.run_flow(b, SimTime::from_secs(100)).unwrap();
        assert_eq!(ca.finished, cb.finished, "telemetry changed the sim");

        let x = traced.start_flow(direct_t, 1_000_000, Box::new(NoCap));
        traced.cancel_flow(x);

        assert_eq!(plain.stats().boundaries, traced.stats().boundaries);
        let durations = tel.metrics.histogram("simnet_flow_duration_us", vec![]);
        assert_eq!(durations.count(), 1);
        let events = tel.tracer.as_ref().unwrap().snapshot();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::FlowStart));
        assert!(kinds.contains(&EventKind::FlowComplete));
        assert!(kinds.contains(&EventKind::FlowCancel));
        assert!(kinds.contains(&EventKind::FairShareRecompute));
    }

    #[test]
    fn clones_inherit_the_telemetry_handle() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let tel = Arc::new(Telemetry::new());
        net.set_telemetry(Some(tel.clone()));
        let mut replica = net.clone();
        let id = replica.start_flow(direct, 100, Box::new(NoCap));
        replica.run_flow(id, SimTime::from_secs(100)).unwrap();
        let durations = tel.metrics.histogram("simnet_flow_duration_us", vec![]);
        assert_eq!(
            durations.count(),
            1,
            "replica reports into the shared handle"
        );
        assert_eq!(
            tel.tracer.as_ref().unwrap().len(),
            3,
            "start, solve, complete"
        );
    }

    #[test]
    fn link_outage_stalls_and_recovery_resumes() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        // Outage of the direct link over [5s, 15s): 10 s of dead air.
        let plan =
            FaultPlan::none().link_outage(LinkId(0), SimTime::from_secs(5), SimTime::from_secs(15));
        net.set_fault_plan(&plan);
        let id = net.start_flow(direct, 10_000, Box::new(NoCap));
        // 5 s at 1000 B/s, 10 s stalled, 5 s to finish → t = 20 s.
        let c = net.run_flow(id, SimTime::from_secs(100)).unwrap();
        assert!((c.finished.as_secs_f64() - 20.0).abs() < 1e-2, "{c:?}");
        assert_eq!(net.fault_events_pending(), 0);
    }

    #[test]
    fn brownout_scales_rate() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        // Half rate over [0s, 10s): 5000 bytes done by t=10, rest at
        // full rate → t = 15 s.
        let plan = FaultPlan::none().brownout(
            LinkId(0),
            SimTime::from_micros(1),
            SimTime::from_secs(10),
            0.5,
        );
        net.set_fault_plan(&plan);
        let id = net.start_flow(direct, 10_000, Box::new(NoCap));
        let c = net.run_flow(id, SimTime::from_secs(100)).unwrap();
        assert!((c.finished.as_secs_f64() - 15.0).abs() < 1e-2, "{c:?}");
    }

    #[test]
    fn node_outage_kills_both_hops() {
        let (mut net, _, indirect) = diamond([1.0, 1000.0, 2000.0]);
        let mid = net.topology().node_by_name("m").unwrap();
        let plan =
            FaultPlan::none().node_outage(mid, SimTime::from_secs(2), SimTime::from_secs(100));
        net.set_fault_plan(&plan);
        let id = net.start_flow(indirect, 1_000_000, Box::new(NoCap));
        net.advance_until(SimTime::from_secs(50));
        let p = net.flow_progress(id);
        assert!(p < 5_000, "crashed relay should stop the flow, got {p}");
        assert!(net.link_is_down(LinkId(1)));
        assert!(net.link_is_down(LinkId(2)));
        assert!(!net.link_is_down(LinkId(0)));
        assert_eq!(net.effective_link_rate_now(LinkId(1)), 0.0);
    }

    #[test]
    fn empty_plan_is_a_true_noop() {
        let (mut plain, direct_p, _) = diamond([1000.0, 1.0, 1.0]);
        let (mut nulled, direct_n, _) = diamond([1000.0, 1.0, 1.0]);
        nulled.set_fault_plan(&FaultPlan::none());
        let a = plain.start_flow(direct_p, 10_000, Box::new(NoCap));
        let b = nulled.start_flow(direct_n, 10_000, Box::new(NoCap));
        let ca = plain.run_flow(a, SimTime::from_secs(100)).unwrap();
        let cb = nulled.run_flow(b, SimTime::from_secs(100)).unwrap();
        assert_eq!(ca.finished, cb.finished);
        assert_eq!(plain.stats(), nulled.stats(), "even boundary counts match");
    }

    #[test]
    fn faulted_clone_replays_identically() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let plan = FaultPlan::none()
            .link_outage(LinkId(0), SimTime::from_secs(3), SimTime::from_secs(9))
            .brownout(
                LinkId(0),
                SimTime::from_secs(12),
                SimTime::from_secs(14),
                0.25,
            );
        net.set_fault_plan(&plan);
        let mut replica = net.clone();
        let a = net.start_flow(direct.clone(), 20_000, Box::new(NoCap));
        let b = replica.start_flow(direct, 20_000, Box::new(NoCap));
        let ca = net.run_flow(a, SimTime::from_secs(1000)).unwrap();
        let cb = replica.run_flow(b, SimTime::from_secs(1000)).unwrap();
        assert_eq!(ca.finished, cb.finished);
    }

    #[test]
    fn fault_telemetry_reports_scheduled_times() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let tel = Arc::new(Telemetry::new());
        net.set_telemetry(Some(tel.clone()));
        let plan =
            FaultPlan::none().link_outage(LinkId(0), SimTime::from_secs(2), SimTime::from_secs(4));
        net.set_fault_plan(&plan);
        let id = net.start_flow(direct, 8_000, Box::new(NoCap));
        net.run_flow(id, SimTime::from_secs(100));
        let faults: Vec<_> = tel
            .tracer
            .as_ref()
            .unwrap()
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == EventKind::FaultInjected)
            .collect();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].ts_us, SimTime::from_secs(2).as_micros());
        assert_eq!(faults[1].ts_us, SimTime::from_secs(4).as_micros());
        assert_eq!(net.stats().faults_injected, 2);
    }

    #[test]
    fn idle_network_still_applies_faults_on_time() {
        let (mut net, _, _) = diamond([1000.0, 1.0, 1.0]);
        let plan =
            FaultPlan::none().link_outage(LinkId(0), SimTime::from_secs(5), SimTime::from_secs(50));
        net.set_fault_plan(&plan);
        // No flows at all; advance across both events.
        net.advance_until(SimTime::from_secs(10));
        assert!(net.link_is_down(LinkId(0)));
        net.advance_until(SimTime::from_secs(60));
        assert!(!net.link_is_down(LinkId(0)));
        assert_eq!(net.fault_events_pending(), 0);
    }

    #[test]
    fn allocation_accessor_reflects_faults() {
        let (mut net, direct, _) = diamond([1000.0, 1.0, 1.0]);
        let plan =
            FaultPlan::none().link_outage(LinkId(0), SimTime::from_secs(1), SimTime::from_secs(2));
        net.set_fault_plan(&plan);
        let id = net.start_flow(direct, 1_000_000, Box::new(NoCap));
        let alloc = net.active_flow_allocation();
        assert_eq!(alloc.len(), 1);
        assert_eq!(alloc[0].0, id);
        assert!((alloc[0].2 - 1000.0).abs() < 1e-9, "pre-outage full rate");
        net.advance_until(SimTime::from_millis(1500));
        let alloc = net.active_flow_allocation();
        assert_eq!(alloc[0].2, 0.0, "rate must drop to zero during outage");
    }

    #[test]
    fn run_flow_times_out_on_stalled_link() {
        let (mut net, direct, _) = diamond([crate::bandwidth::MIN_RATE, 1.0, 1.0]);
        let id = net.start_flow(direct, u32::MAX as u64, Box::new(NoCap));
        let r = net.run_flow(id, SimTime::from_secs(60));
        assert!(r.is_none());
        assert_eq!(net.now(), SimTime::from_secs(60));
    }
}
