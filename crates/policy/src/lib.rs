//! `ir-policy` — the topology-aware path selectors.
//!
//! `ir-core` defines the one selector trait ([`ir_core::PathSelector`]:
//! which **paths** — 1-hop or multi-hop chains — should the session
//! probe, and in what order) and ships the paper's relay-choosing
//! policies. This crate adds the selectors the paper's §6 proposals and
//! the related overlay-routing work need, which look at the topology or
//! keep richer learned state:
//!
//! * [`KShortest`] — Yen's k-shortest-paths over topology latency,
//!   feeding the probe race its top-k chains (1 to
//!   [`ir_core::MAX_HOPS`] hops).
//! * [`AdaptiveLearner`] — reweights intermediates per client from
//!   observed [`TransferRecord`](ir_core::TransferRecord) improvements
//!   across a session sequence.
//! * [`Backpressure`] — throughput/backpressure-style baseline in the
//!   spirit of Rai–Singh–Modiano: service-rate estimates discounted by
//!   virtual queue pressure.
//!
//! Any of them drives a session through [`ir_core::run_session`].

pub mod adaptive;
pub mod backpressure;
pub mod kshortest;
pub mod sanitize;
pub mod stable;
pub mod weights;

pub use adaptive::{AdaptiveConfig, AdaptiveLearner};
pub use backpressure::{Backpressure, BackpressureConfig};
pub use kshortest::{KShortest, KShortestConfig};
pub use sanitize::sanitize_chain;
pub use weights::weighted_index_or_uniform;
