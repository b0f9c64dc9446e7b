//! `ir-core` — the indirect-routing selection framework.
//!
//! This crate is the reproduction's primary contribution, implementing
//! the system of *"A Performance Analysis of Indirect Routing"* (Opos
//! et al., IPPS 2007): improve the throughput of large downloads by
//! racing an HTTP range probe over the default ("direct") Internet path
//! and one or more overlay ("indirect") paths through intermediate
//! relay nodes, then fetching the bulk of the file over whichever path
//! the probe predicts is fastest.
//!
//! * [`path`] — [`path::PathSpec`]: direct vs indirect-via-relay.
//! * [`transport`] — the abstraction the framework drives; backed by
//!   the fluid simulator here ([`sim_transport::SimTransport`]) and by
//!   real loopback sockets in `ir-relay`.
//! * [`policy`] — the one selector trait ([`PathSelector`] over a
//!   [`PathCtx`]) and the paper's policies: direct-only, the §2.2
//!   static single relay, the §4 uniform random set, the §6
//!   utilization-weighted extension, and bandit baselines (ε-greedy,
//!   UCB1) for ablations.
//! * [`session`] — the §2.1 protocol, written once: concurrent control
//!   download, probe race, remainder fetch, improvement measurement.
//!   Two entry points: [`run_session`] (a selector picks the paths)
//!   and [`run_paths_session`] (a control around [`run_selecting`]).
//! * [`remainder`] — the three ways the remaining `n − x` bytes are
//!   carried: the winner's warm connection, the same with mid-transfer
//!   failover, or an mHTTP-style stripe over every probed path
//!   ([`plan`] partitions it).
//! * [`record`] — per-transfer records and the three utilization
//!   statistics used across Tables II–III and Fig 5.
//! * [`aggregate`] — [`aggregate::StudySummary`]: the headline numbers
//!   (Fig 1 + Table I definitions) from any record set, in one call.

pub mod aggregate;
pub mod path;
pub mod plan;
pub mod policy;
mod rate;
pub mod record;
pub mod remainder;
pub mod session;
pub mod sim_transport;
pub mod transport;

pub use aggregate::StudySummary;
pub use path::{PathSpec, MAX_HOPS};
pub use policy::{
    sanitize_candidates, DirectOnly, EpsilonGreedy, FullSet, PathCtx, PathSelector, RandomSet,
    StaticSingle, Ucb1, UtilizationWeighted,
};
pub use record::{improvement, TransferRecord, UtilizationTracker};
pub use remainder::{PathStripeStats, Remainder, StripeStats};
pub use session::{
    run_paths_session, run_probe, run_selecting, run_session, EngineMode, FailoverConfig,
    ProbeDecision, RebalanceConfig, Selecting, SessionConfig, SessionCounts, SessionMode,
};
pub use sim_transport::SimTransport;
pub use transport::{Handle, RaceWin, Timing, Transport};
