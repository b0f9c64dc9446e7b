//! `ir-simnet` — a deterministic flow-level (fluid) network simulator.
//!
//! This crate is the substrate substituting for the paper's PlanetLab
//! testbed (see DESIGN.md §2). It models what the indirect-routing study
//! actually depends on — *per-path available bandwidth that varies over
//! time* — without packet-level detail:
//!
//! * [`time`] — integer-microsecond simulated clock.
//! * [`events`] — deterministic event queue (FIFO tie-breaking).
//! * [`topology`] — nodes, directed links with latency, routes.
//! * [`bandwidth`] — time-varying available-bandwidth processes
//!   (constant, piecewise, regime-switching Markov, AR(1) log-rate,
//!   rare-jump decorators).
//! * [`fairshare`] — max–min fair allocation among concurrent flows
//!   with per-flow caps (progressive filling).
//! * [`sim`] — the engine: fluid flows advance between rate-change /
//!   cap-change / completion boundaries; supports racing (`first of`)
//!   and cancellation, which is exactly what the paper's probe protocol
//!   needs.
//!
//! # Example
//!
//! ```
//! use ir_simnet::prelude::*;
//!
//! let mut topo = Topology::new();
//! let c = topo.add_node("client", NodeKind::Client);
//! let s = topo.add_node("server", NodeKind::Server);
//! let link = topo.add_link(c, s, SimDuration::from_millis(50));
//! let route = topo.route(&[c, s]).unwrap();
//!
//! let mut net = Network::new(topo, 1.0);
//! net.set_link_process(link, Box::new(ConstantProcess::new(125_000.0))); // 1 Mbps
//! let flow = net.start_flow(route, 250_000, Box::new(NoCap));
//! let done = net.run_flow(flow, SimTime::from_secs(60)).unwrap();
//! assert!((done.throughput() - 125_000.0).abs() < 1.0);
//! ```

pub mod bandwidth;
pub mod events;
pub mod fairshare;
pub mod faults;
pub mod partition;
pub mod sim;
pub mod soa;
pub mod time;
pub mod topology;
pub mod tracer;

/// One-stop imports for simulator users.
pub mod prelude {
    pub use crate::bandwidth::{
        Ar1LogProcess, BandwidthProcess, ConstantProcess, DiurnalProcess, JumpMixProcess,
        PiecewiseProcess, RegimeSwitchingProcess, MIN_RATE,
    };
    pub use crate::events::EventQueue;
    pub use crate::fairshare::{max_min_rates, reference_rates, AllocFlow};
    pub use crate::faults::{FaultEvent, FaultPlan, FaultSpec};
    pub use crate::partition::{Components, LiveComponents, UnionFind};
    pub use crate::sim::{
        CompletedFlow, ConstCap, EngineMode, EngineStats, FlowId, Network, NoCap, RateCap,
    };
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{LinkId, Node, NodeId, NodeKind, Route, Sharing, Topology};
    pub use crate::tracer::{trace_link, trace_process, RateTrace};
}

pub use prelude::*;
