//! `ir-relay` — the indirect-routing system over real sockets.
//!
//! Everything `ir-core` does against the fluid simulator, this crate
//! does against genuine TCP connections on loopback: an origin server
//! speaking the `ir-http` range subset, relay daemons implementing the
//! paper's forwarding service, and one socket fetch engine under
//! `ir-core`'s session runner, which probes direct + indirect paths
//! concurrently and fetches the remainder on the winner's warm
//! connection.
//!
//! Wide-area heterogeneity is substituted by token-bucket rate shapers
//! (DESIGN.md §2): each leg of each path carries a [`shaper::
//! RateSchedule`], so a localhost socket behaves like a 1.2 Mbps
//! transatlantic path — including *time-varying* behaviour, which lets
//! integration tests reproduce the paper's mis-prediction penalties
//! with real bytes.
//!
//! * [`shaper`] — token buckets over piecewise rate schedules.
//! * [`origin`] — origin server: the content (Range planning,
//!   deterministic bodies) served by the daemon in its serve role.
//! * [`poller`] — `ppoll(2)`/non-blocking-connect FFI shim.
//! * [`conn`] — per-connection state machine for the reactor; the only
//!   code that reads a request and writes a response, for both roles.
//! * [`relayd`] — the daemon (one reactor thread, kill/drain):
//!   a relay (absolute-form in, origin-form out) or an origin.
//! * [`transport`] — the socket fetch engine ([`RealTransport`]): the
//!   only client-side code that dials, requests, validates, pools and
//!   cancels; an `ir_core::Transport` driven by one `poll` loop on the
//!   caller's thread.
//! * [`client`] — probe race and downloads (racing, failover,
//!   striped): the runner's selecting process over the engine.
//! * [`wire`] — blocking helpers for tests and tools.
//! * [`harness`] — a one-process mini-PlanetLab for tests and examples.

// No input from the network may panic the socket tier: a fallible result
// is handled, or its site `#[expect]`s the lint with why it cannot fail.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod client;
pub mod conn;
pub mod error;
pub mod harness;
pub mod origin;
pub mod poller;
pub mod relayd;
pub mod shaper;
pub mod transport;
pub mod wire;

pub use client::{
    download, download_failover, download_striped, probe_race, ChosenPath, ClientConfig,
    DownloadOutcome, ProbeWin, StripedOutcome,
};
pub use conn::{Lifecycle, LifecycleSnapshot, SPLICE_CHUNK};
pub use error::RelayError;
pub use harness::{HarnessSpec, MiniPlanetLab};
pub use origin::{body_byte, fill_body, is_body, OriginConfig, OriginServer};
pub use relayd::{Backpressure, DrainReport, Relay, RelayConfig};
pub use shaper::{RateSchedule, TokenBucket};
pub use transport::RealTransport;
