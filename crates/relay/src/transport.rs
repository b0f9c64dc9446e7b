//! [`ir_core::Transport`] over real sockets.
//!
//! The selection framework (`ir_core::run_paths_session`) is written against
//! an abstract transport; this adapter backs it with the loopback
//! deployment — every `begin` is a genuine TCP connection issuing a
//! genuine HTTP range request, `race` blocks on real wall-clock
//! completions, and `begin_warm` reuses the winning probe's keep-alive
//! connection exactly as the paper's client does.
//!
//! One protocol, two transports: the studies run on the fluid
//! simulator; this adapter proves the same orchestration code drives
//! real bytes (see `tests/session_over_sockets.rs`).

use crate::error::RelayError;
use crate::wire::exchange;
use ir_core::{Handle, PathSpec, RaceWin, Timing, Transport};
use ir_http::{via_proxy, ByteRange, Request, StatusCode};
use ir_simnet::time::{SimDuration, SimTime};
use ir_simnet::topology::NodeId;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where each node of the session's world listens.
#[derive(Debug, Clone)]
pub struct RealWorld {
    /// The client node id (the session's `client` argument).
    pub client: NodeId,
    /// The server node id.
    pub server: NodeId,
    /// Origin address over the client's direct path.
    pub direct: SocketAddr,
    /// Origin address relays dial.
    pub origin_for_relays: SocketAddr,
    /// Relay node id → relay address.
    pub relays: HashMap<NodeId, SocketAddr>,
    /// Resource path on the origin.
    pub path: String,
    /// Per-transfer socket timeout.
    pub timeout: Duration,
}

type SlotResult = Result<Timing, String>;

struct Slot {
    /// Completion buffer (thread writes, race/finish reads).
    result: Option<SlotResult>,
    /// A clone of the transfer's socket, for cancellation and warm
    /// reuse.
    conn: Option<TcpStream>,
    /// Cancelled by the session.
    cancelled: bool,
}

struct Shared {
    slots: Mutex<Vec<Slot>>,
    cv: Condvar,
}

/// A [`Transport`] whose transfers are real HTTP range requests over
/// real TCP connections.
pub struct RealTransport {
    world: RealWorld,
    shared: Arc<Shared>,
    epoch: Instant,
    /// Next range offset per path (probe consumed `[0, x)` → remainder
    /// starts at `x`).
    next_offset: HashMap<PathSpec, u64>,
    /// Idle keep-alive connections per path, for `begin_warm`.
    idle: HashMap<PathSpec, TcpStream>,
    /// Which path each handle transferred on (for warm pooling).
    handle_paths: HashMap<Handle, PathSpec>,
}

impl RealTransport {
    /// Creates a transport over a running deployment.
    pub fn new(world: RealWorld) -> Self {
        RealTransport {
            world,
            shared: Arc::new(Shared {
                slots: Mutex::new(Vec::new()),
                cv: Condvar::new(),
            }),
            epoch: Instant::now(),
            next_offset: HashMap::new(),
            idle: HashMap::new(),
            handle_paths: HashMap::new(),
        }
    }

    /// Builds a transport for a [`crate::harness::MiniPlanetLab`]: node
    /// ids 0 and 1 are the client and server; relays get ids 2, 3, ….
    pub fn for_lab(lab: &crate::harness::MiniPlanetLab) -> (Self, NodeId, NodeId, Vec<NodeId>) {
        let client = NodeId(0);
        let server = NodeId(1);
        let relay_ids: Vec<NodeId> = (0..lab.relay_addrs().len())
            .map(|i| NodeId(2 + i as u32))
            .collect();
        let relays = relay_ids
            .iter()
            .zip(lab.relay_addrs())
            .map(|(&id, addr)| (id, addr))
            .collect();
        let transport = RealTransport::new(RealWorld {
            client,
            server,
            direct: lab.direct_addr(),
            origin_for_relays: lab.origin_for_relays(),
            relays,
            path: "/file.bin".into(),
            timeout: Duration::from_secs(60),
        });
        (transport, client, server, relay_ids)
    }

    fn sim_now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn request_for(&self, path: &PathSpec, range: ByteRange) -> (SocketAddr, Request) {
        assert!(
            path.hop_count() <= 1,
            "socket relays splice one hop; unresolvable chain {path} reached request_for"
        );
        match path.via() {
            None => (
                self.world.direct,
                Request::get(self.world.path.clone())
                    .with_header("Host", "origin")
                    .with_header("Range", range.to_string()),
            ),
            Some(via) => {
                let addr = *self
                    .world
                    .relays
                    .get(&via)
                    .unwrap_or_else(|| panic!("unknown relay {via:?}"));
                let o = self.world.origin_for_relays;
                (
                    addr,
                    via_proxy(&o.ip().to_string(), o.port(), &self.world.path)
                        .with_header("Range", range.to_string()),
                )
            }
        }
    }

    /// Launches a transfer thread; `conn` is `Some` for warm reuse.
    fn launch(&mut self, path: &PathSpec, bytes: u64, warm_conn: Option<TcpStream>) -> Handle {
        let start_offset = if warm_conn.is_some() {
            self.next_offset.get(path).copied().unwrap_or(0)
        } else {
            0
        };
        // Track where the next warm request on this path should start.
        self.next_offset.insert(*path, start_offset + bytes);
        let range = if start_offset == 0 {
            ByteRange::first(bytes)
        } else {
            ByteRange::FromTo(start_offset, start_offset + bytes - 1)
        };
        let (addr, request) = self.request_for(path, range);

        let handle = {
            let mut slots = self.shared.slots.lock().expect("poisoned");
            slots.push(Slot {
                result: None,
                conn: None,
                cancelled: false,
            });
            Handle((slots.len() - 1) as u64)
        };

        let shared = self.shared.clone();
        let epoch = self.epoch;
        let timeout = self.world.timeout;
        let idx = handle.0 as usize;
        std::thread::spawn(move || {
            let started = SimTime::from_micros(epoch.elapsed().as_micros() as u64);
            let run = || -> Result<(TcpStream, u64), RelayError> {
                // A cancel that lands before the dial skips the socket
                // work entirely — a relay refusing under backpressure
                // should not also absorb doomed connects.
                if shared.slots.lock().expect("poisoned")[idx].cancelled {
                    return Err(RelayError::Timeout);
                }
                let mut conn = match warm_conn {
                    Some(c) => c,
                    None => {
                        let c = TcpStream::connect_timeout(&addr, timeout)?;
                        c.set_nodelay(true)?;
                        c
                    }
                };
                conn.set_read_timeout(Some(timeout))?;
                // Publish the socket so cancel() can shut it down.
                {
                    let mut slots = shared.slots.lock().expect("poisoned");
                    if slots[idx].cancelled {
                        return Err(RelayError::Timeout);
                    }
                    slots[idx].conn = Some(conn.try_clone()?);
                }
                let (head, body) = exchange(&mut conn, &request)?;
                if head.status != StatusCode::PARTIAL_CONTENT && head.status != StatusCode::OK {
                    return Err(RelayError::BadStatus(head.status.0));
                }
                Ok((conn, body.len() as u64))
            };
            let outcome = run();
            let finished = SimTime::from_micros(epoch.elapsed().as_micros() as u64);
            let mut slots = shared.slots.lock().expect("poisoned");
            let slot = &mut slots[idx];
            match outcome {
                Ok((conn, got)) => {
                    slot.conn = Some(conn);
                    slot.result = Some(Ok(Timing {
                        started,
                        finished,
                        bytes: got,
                    }));
                }
                Err(e) => {
                    slot.conn = None;
                    slot.result = Some(Err(e.to_string()));
                }
            }
            shared.cv.notify_all();
        });
        handle
    }

    fn wait<F: Fn(&[Slot]) -> Option<R>, R>(&self, horizon: SimDuration, pick: F) -> Option<R> {
        let deadline = Instant::now() + Duration::from_secs_f64(horizon.as_secs_f64());
        let mut slots = self.shared.slots.lock().expect("poisoned");
        loop {
            if let Some(r) = pick(&slots) {
                return Some(r);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(slots, deadline - now)
                .expect("poisoned");
            slots = guard;
        }
    }

    /// Takes the finished connection of `handle` back into the warm
    /// pool for `path` (called internally after completions).
    fn pool_connection(&mut self, handle: Handle, path: &PathSpec) {
        let mut slots = self.shared.slots.lock().expect("poisoned");
        if let Some(conn) = slots[handle.0 as usize].conn.take() {
            self.idle.insert(*path, conn);
        }
    }
}

impl Transport for RealTransport {
    fn now(&self) -> SimTime {
        self.sim_now()
    }

    fn begin(&mut self, path: &PathSpec, bytes: u64) -> Handle {
        let h = self.launch(path, bytes, None);
        // Remember the path for warm pooling at completion.
        self.handle_paths.insert(h, *path);
        h
    }

    fn resolvable(&self, path: &PathSpec) -> bool {
        // A socket relay splices exactly one proxy hop: direct always
        // works, one known relay works, longer chains never do.
        match path.hops() {
            [] => true,
            [via] => self.world.relays.contains_key(via),
            _ => false,
        }
    }

    fn begin_warm(&mut self, path: &PathSpec, bytes: u64) -> Handle {
        let warm = self.idle.remove(path);
        let h = self.launch(path, bytes, warm);
        self.handle_paths.insert(h, *path);
        h
    }

    fn race(&mut self, handles: &[Handle], horizon: SimDuration) -> Option<RaceWin> {
        let wanted: Vec<usize> = handles.iter().map(|h| h.0 as usize).collect();
        let won = self.wait(horizon, |slots| {
            wanted.iter().enumerate().find_map(|(pos, &i)| {
                slots[i]
                    .result
                    .as_ref()
                    .and_then(|r| r.as_ref().ok())
                    .map(|t| (pos, *t))
            })
        })?;
        let (index, timing) = won;
        // Pool the winner's connection for the warm remainder.
        if let Some(path) = self.handle_paths.get(&handles[index]).copied() {
            self.pool_connection(handles[index], &path);
        }
        Some(RaceWin { index, timing })
    }

    fn finish(&mut self, handle: Handle, horizon: SimDuration) -> Option<Timing> {
        let i = handle.0 as usize;
        let timing = self.wait(horizon, |slots| {
            slots[i].result.as_ref().map(|r| r.clone().ok())
        })??;
        if let Some(path) = self.handle_paths.get(&handle).copied() {
            self.pool_connection(handle, &path);
        }
        Some(timing)
    }

    fn cancel(&mut self, handle: Handle) {
        let mut slots = self.shared.slots.lock().expect("poisoned");
        let slot = &mut slots[handle.0 as usize];
        slot.cancelled = true;
        if let Some(conn) = slot.conn.take() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{HarnessSpec, MiniPlanetLab};
    use crate::shaper::RateSchedule;
    use ir_core::{run_paths_session, FirstPortion, SessionConfig};

    const KB: f64 = 1000.0;

    #[test]
    fn run_session_over_real_sockets_picks_fast_relay() {
        let lab = MiniPlanetLab::start(HarnessSpec {
            content_len: 400_000,
            direct: RateSchedule::constant(150.0 * KB),
            relays: vec![RateSchedule::constant(800.0 * KB)],
        })
        .unwrap();
        let (mut transport, client, server, relays) = RealTransport::for_lab(&lab);
        let cfg = SessionConfig {
            probe_bytes: 50_000,
            file_bytes: 400_000,
            probe_mode: ir_core::ProbeMode::FirstToFinish,
            control: ir_core::ControlMode::Concurrent,
            horizon: ir_simnet::time::SimDuration::from_secs(60),
            failover: None,
            engine: ir_simnet::sim::EngineMode::Incremental,
            mode: ir_core::SessionMode::Racing,
        };
        let (rec, _) = run_paths_session(
            &mut transport,
            &mut FirstPortion,
            PathSpec::direct(client, server),
            &[PathSpec::indirect(client, server, relays[0])],
            0,
            &cfg,
            None,
        );
        assert!(rec.chose_indirect(), "fast relay not chosen: {rec:?}");
        assert!(
            rec.improvement() > 0.5,
            "expected a real improvement, got {:+.1}%",
            rec.improvement_pct()
        );
        assert!(!rec.probe_timeout);
    }

    #[test]
    fn run_session_over_real_sockets_keeps_fast_direct() {
        let lab = MiniPlanetLab::start(HarnessSpec {
            content_len: 300_000,
            direct: RateSchedule::constant(900.0 * KB),
            relays: vec![RateSchedule::constant(100.0 * KB)],
        })
        .unwrap();
        let (mut transport, client, server, relays) = RealTransport::for_lab(&lab);
        let cfg = SessionConfig {
            probe_bytes: 50_000,
            file_bytes: 300_000,
            probe_mode: ir_core::ProbeMode::FirstToFinish,
            control: ir_core::ControlMode::Concurrent,
            horizon: ir_simnet::time::SimDuration::from_secs(60),
            failover: None,
            engine: ir_simnet::sim::EngineMode::Incremental,
            mode: ir_core::SessionMode::Racing,
        };
        let (rec, _) = run_paths_session(
            &mut transport,
            &mut FirstPortion,
            PathSpec::direct(client, server),
            &[PathSpec::indirect(client, server, relays[0])],
            0,
            &cfg,
            None,
        );
        assert!(!rec.chose_indirect(), "slow relay chosen: {rec:?}");
    }
}
