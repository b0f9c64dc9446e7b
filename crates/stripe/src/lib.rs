//! `ir-stripe` — the chunk claim queue of the socket-backed striped
//! download.
//!
//! The striped session itself — partitioning, per-path rate tracking,
//! the rebalancing scheduler — is `ir-core`'s striped remainder
//! (`ir_core::remainder`), one of the three remainders of the one
//! session runner. What lives here is the piece only real sockets
//! need: [`ChunkQueue`], the lock-free queue `ir_relay::
//! download_striped` shares between its per-path worker threads, and
//! its loom model (`tests/permutation.rs`).

pub mod plan;

pub use plan::ChunkQueue;
