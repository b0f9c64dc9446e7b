//! `ir-relay` — the indirect-routing system over real sockets.
//!
//! Everything `ir-core` does against the fluid simulator, this crate
//! does against genuine TCP connections on loopback: a threaded origin
//! server speaking the `ir-http` range subset, relay daemons
//! implementing the paper's forwarding service, and a racing client
//! that probes direct + indirect paths concurrently and fetches the
//! remainder on the winner's warm connection.
//!
//! Wide-area heterogeneity is substituted by token-bucket rate shapers
//! (DESIGN.md §2): each leg of each path carries a [`shaper::
//! RateSchedule`], so a localhost socket behaves like a 1.2 Mbps
//! transatlantic path — including *time-varying* behaviour, which lets
//! integration tests reproduce the paper's mis-prediction penalties
//! with real bytes.
//!
//! * [`shaper`] — token buckets over piecewise rate schedules.
//! * [`stream`] — write-paced stream wrapper.
//! * [`origin`] — origin server (Range, keep-alive, deterministic
//!   bodies).
//! * [`poller`] — `poll(2)`/non-blocking-connect FFI shim.
//! * [`conn`] — per-connection state machine for the reactor.
//! * [`relayd`] — the relay daemon (absolute-form in, origin-form out),
//!   an event-driven reactor.
//! * [`client`] — probe race + warm remainder download.
//! * [`wire`] — small blocking HTTP client primitives.
//! * [`harness`] — a one-process mini-PlanetLab for tests and examples.

pub mod client;
pub mod conn;
pub mod error;
pub mod harness;
pub mod origin;
pub mod poller;
pub mod relayd;
pub mod shaper;
pub mod stream;
pub mod transport;
pub mod wire;

pub use client::{
    download, download_failover, download_striped, download_with_subset, probe_race, ChosenPath,
    ClientConfig, DownloadOutcome, ProbeWin, StripedOutcome,
};
pub use conn::{Lifecycle, LifecycleSnapshot};
pub use error::RelayError;
pub use harness::{HarnessSpec, MiniPlanetLab, StudyRound};
pub use origin::{body_byte, fill_body, OriginConfig, OriginServer};
pub use relayd::{Backpressure, DrainReport, Relay, RelayConfig};
pub use shaper::{RateSchedule, TokenBucket};
pub use stream::{ThrottledStream, SPLICE_CHUNK};
pub use transport::{RealTransport, RealWorld};
