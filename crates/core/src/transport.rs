//! The transport abstraction the selection framework drives.
//!
//! The framework's logic — probe, race, select, fetch the remainder —
//! is independent of whether bytes move through the fluid simulator or
//! real sockets. [`Transport`] captures the operations the session
//! needs; `ir-core` ships the simulator-backed [`crate::sim_transport::
//! SimTransport`], and `ir-relay` mirrors the same protocol over
//! loopback TCP.

use crate::path::PathSpec;
use ir_simnet::time::{SimDuration, SimTime};

/// Handle to an in-flight transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(pub u64);

/// Timing of a finished transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the transfer began.
    pub started: SimTime,
    /// When the last byte arrived.
    pub finished: SimTime,
    /// Bytes moved.
    pub bytes: u64,
}

impl Timing {
    /// Mean goodput in bytes/sec. Infinite for a zero-duration transfer.
    pub fn throughput(&self) -> f64 {
        let dt = (self.finished - self.started).as_secs_f64();
        if dt == 0.0 {
            f64::INFINITY
        } else {
            self.bytes as f64 / dt
        }
    }
}

/// Result of racing several in-flight transfers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaceWin {
    /// Index into the handle slice passed to `race`.
    pub index: usize,
    /// Timing of the winner.
    pub timing: Timing,
}

/// Abstract transport: start, race, finish, cancel transfers between
/// the nodes of a fixed topology.
pub trait Transport {
    /// Current time on this transport's clock.
    fn now(&self) -> SimTime;

    /// Starts a transfer of the file's `bytes` bytes from `offset` over
    /// `path` (a fresh connection: handshake and slow start included); a
    /// transport that only times transfers (the simulator) ignores `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the path cannot be resolved on this transport.
    fn begin(&mut self, path: &PathSpec, offset: u64, bytes: u64) -> Handle;

    /// True when this transport can carry `path` at all. The session
    /// runner drops unresolvable candidate paths (with telemetry)
    /// before [`Transport::begin`], which is entitled to panic on
    /// them. Default: everything is carriable, for transports without
    /// a topology to consult.
    fn resolvable(&self, path: &PathSpec) -> bool {
        let _ = path;
        true
    }

    /// Starts a transfer over an already-warm connection on `path` —
    /// no handshake, congestion window already open. This is the
    /// remainder request of §2.1: another `Range` on the connection the
    /// winning probe just used. Defaults to a cold [`Transport::begin`]
    /// for transports without connection reuse.
    fn begin_warm(&mut self, path: &PathSpec, offset: u64, bytes: u64) -> Handle {
        self.begin(path, offset, bytes)
    }

    /// Blocks until the first of `handles` completes or `horizon`
    /// elapses. Losers stay in flight (cancel them explicitly).
    fn race(&mut self, handles: &[Handle], horizon: SimDuration) -> Option<RaceWin>;

    /// Blocks until `handle` completes or `horizon` elapses.
    fn finish(&mut self, handle: Handle, horizon: SimDuration) -> Option<Timing>;

    /// Cancels an in-flight transfer (no-op if finished).
    fn cancel(&mut self, handle: Handle);

    /// Bytes delivered so far on an in-flight (or finished) transfer.
    /// Best effort: transports without byte-level visibility report 0.
    /// The remainders credit it before abandoning a transfer and ask for
    /// the rest from `offset + progress`, so a transport that keeps
    /// bytes keeps exactly these through a cancel or a failure.
    fn progress(&self, handle: Handle) -> u64 {
        let _ = handle;
        0
    }

    /// True once `handle` has failed for good. The remainders treat it as
    /// a stall window already expired: the path is given up at once.
    /// Default: false, for transports whose paths only stall.
    fn failed(&self, handle: Handle) -> bool {
        let _ = handle;
        false
    }

    /// Blocks the caller for `d` on this transport's clock — the
    /// failover loop's backoff waits. Default: no-op, for transports
    /// whose clock cannot be advanced without traffic (real sockets
    /// sleep in the OS instead).
    fn sleep(&mut self, d: SimDuration) {
        let _ = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_throughput() {
        let t = Timing {
            started: SimTime::from_secs(10),
            finished: SimTime::from_secs(14),
            bytes: 400,
        };
        assert!((t.throughput() - 100.0).abs() < 1e-12);
        let inst = Timing {
            started: SimTime::ZERO,
            finished: SimTime::ZERO,
            bytes: 0,
        };
        assert!(inst.throughput().is_infinite());
    }
}
