//! `indirect-routing` — facade crate for the reproduction of
//! *"A Performance Analysis of Indirect Routing"* (Opos, Ramabhadran,
//! Terry, Pasquale, Snoeren, Vahdat — IPPS 2007).
//!
//! This crate re-exports the workspace's crates under one roof so that
//! examples, integration tests and downstream users can depend on a
//! single package:
//!
//! * [`stats`] — statistics substrate (summaries, histograms,
//!   correlation, trend tests).
//! * [`simnet`] — flow-level network simulator with time-varying link
//!   bandwidth and max–min fair sharing.
//! * [`tcp`] — fluid TCP throughput model (slow start + PFTK cap).
//! * [`http`] — HTTP/1.1 range-request subset and proxy semantics.
//! * [`relay`] — real-socket loopback overlay (origin, relay daemon,
//!   socket fetch engine, token-bucket shapers).
//! * [`core`] — the paper's contribution: the one session runner
//!   (probe race, then a warm, failover or mHTTP-style striped
//!   remainder), the `PathSelector` trait and the paper's selection
//!   policies.
//! * [`policy`] — the topology-aware selectors: k-shortest multi-hop
//!   chains, adaptive learner, backpressure (the §6 extension space).
//! * [`workload`] — PlanetLab-like scenario generator with the paper's
//!   node roster.
//! * [`experiments`] — the harness reproducing every table and figure of
//!   the paper's evaluation.

pub use ir_core as core;
pub use ir_experiments as experiments;
pub use ir_http as http;
pub use ir_policy as policy;
pub use ir_relay as relay;
pub use ir_simnet as simnet;
pub use ir_stats as stats;
pub use ir_tcp as tcp;
pub use ir_workload as workload;
