//! `ir-http` — the HTTP/1.1 subset the indirect-routing framework
//! speaks.
//!
//! The paper's measurement framework is built on "HTTP and its support
//! for partial transfers and proxies" (§2.1). This crate implements
//! exactly that slice of HTTP/1.1, from scratch:
//!
//! * [`types`] — methods (GET/HEAD), status codes (200/206/416/…),
//!   case-insensitive headers, request/response heads.
//! * [`range`] — RFC 7233 single-range `Range` and `Content-Range`
//!   headers with satisfiability resolution; the probe is
//!   `bytes=0-{x-1}`, the remainder `bytes={x}-`.
//! * [`uri`] — origin-form and absolute-form request targets.
//! * [`codec`] — incremental head parser and serializer over
//!   [`bytes::BytesMut`] (bodies stream; heads are bounded).
//! * [`proxy`] — the relay rewrite: absolute-form in, origin-form out,
//!   `Range` preserved, `Via` annotated.
//! * [`reassembly`] — out-of-order chunk reassembly for striped
//!   multi-path range downloads (`ir-relay`'s socket engine).
//!
//! Both the simulated transport (`ir-core`) and the real-socket relay
//! (`ir-relay`) drive these same types, so the protocol logic is tested
//! once and exercised everywhere.

// No input from the network may panic the socket tier: a fallible result
// is handled, or its site `#[expect]`s the lint with why it cannot fail.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod codec;
pub mod error;
pub mod proxy;
pub mod range;
pub mod reassembly;
pub mod types;
pub mod uri;

pub use codec::{encode_request, encode_response, parse_request, parse_response, Parsed};
pub use error::HttpError;
pub use proxy::{plan_forward, via_proxy, ForwardPlan};
pub use range::{ByteRange, ContentRange};
pub use reassembly::{Reassembly, ReassemblyError};
pub use types::{Headers, Method, Request, Response, StatusCode};
pub use uri::Target;
