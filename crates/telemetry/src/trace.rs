//! The structured event tracer: typed events against simulated or wall
//! time, ring-buffered so paper-scale runs stay bounded.
//!
//! Timestamps are plain microseconds (`u64`). Simulation emitters pass
//! `SimTime::as_micros()`; wall-clock emitters (the socket relay) pass
//! microseconds since their epoch `Instant`. The tracer never reads a
//! clock itself — that keeps it deterministic and dependency-free.
//!
//! The ring holds the **most recent** `capacity` events; older events
//! are dropped and counted, never silently lost.

use std::collections::VecDeque;
use std::sync::Mutex;

/// What happened. The taxonomy covers the four instrumented layers:
/// the flow engine (simnet), the session protocol (core), the socket
/// relay, and the experiment runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A flow started in the simulator.
    FlowStart,
    /// A flow ran to completion.
    FlowComplete,
    /// A flow was cancelled before completing.
    FlowCancel,
    /// The engine recomputed max–min fair shares at a boundary.
    FairShareRecompute,
    /// A scheduled fault event (link outage/repair, brownout, node
    /// crash/restart) was applied; attrs carry the kind and factor.
    FaultInjected,
    /// The engine rebuilt its flow↔link congestion partition from the
    /// live membership (departures invalidate the incremental
    /// union–find); `id` carries the active-flow count.
    PartitionRebuild,
    /// A probe race began (one event per session).
    ProbeStart,
    /// A probe race was decided; the attrs name the winning path.
    ProbeWon,
    /// The whole probe race timed out.
    ProbeTimeout,
    /// The session chose the indirect path (a path switch away from
    /// the default route).
    PathSwitch,
    /// The session abandoned a dead/stalled selected path mid-transfer
    /// and failed over to a surviving candidate.
    PathFailover,
    /// A candidate path could not be resolved on the transport and was
    /// dropped from the probe race; attrs carry the path.
    PathUnresolvable,
    /// A session began.
    SessionStart,
    /// A session finished; attrs carry the improvement.
    SessionComplete,
    /// The relay daemon accepted a client connection.
    RelayAccept,
    /// The relay spliced one request's response from origin to client.
    RelaySplice,
    /// The relay wrote the first client-bound byte of a connection;
    /// span duration is the accept-to-first-byte wait.
    RelayFirstByte,
    /// The relay began a graceful drain.
    RelayDrain,
    /// The relay daemon shut down.
    RelayShutdown,
    /// A retry or fallback (e.g. probe timeout → direct re-fetch).
    Retry,
    /// The striper reassigned a chunk's remaining bytes away from a
    /// stalled, dead, or drifting path; attrs carry the chunk id, the
    /// losing path, and the reason.
    ChunkReassigned,
    /// A runner task (one (client, relay/k) schedule) ran; `dur_us`
    /// spans it.
    RunnerTask,
    /// A path selector produced its candidate paths for one session;
    /// `dur_us` spans the decision, attrs carry the policy name and
    /// path count.
    SelectionDecision,
    /// The sweep scheduler materialised a study (executed it or decoded
    /// it from the artefact cache); `dur_us` spans the materialisation.
    StudyExec,
    /// The sweep scheduler materialised an artefact (rendered it or
    /// restored its cached bundle); `dur_us` spans it.
    ArtifactRender,
}

impl EventKind {
    /// Stable name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::FlowStart => "flow_start",
            EventKind::FlowComplete => "flow_complete",
            EventKind::FlowCancel => "flow_cancel",
            EventKind::FairShareRecompute => "fair_share_recompute",
            EventKind::FaultInjected => "fault_injected",
            EventKind::PartitionRebuild => "partition_rebuild",
            EventKind::ProbeStart => "probe_start",
            EventKind::ProbeWon => "probe_won",
            EventKind::ProbeTimeout => "probe_timeout",
            EventKind::PathSwitch => "path_switch",
            EventKind::PathUnresolvable => "path_unresolvable",
            EventKind::PathFailover => "path_failover",
            EventKind::SessionStart => "session_start",
            EventKind::SessionComplete => "session_complete",
            EventKind::RelayAccept => "relay_accept",
            EventKind::RelaySplice => "relay_splice",
            EventKind::RelayFirstByte => "relay_first_byte",
            EventKind::RelayDrain => "relay_drain",
            EventKind::RelayShutdown => "relay_shutdown",
            EventKind::Retry => "retry",
            EventKind::ChunkReassigned => "chunk_reassigned",
            EventKind::RunnerTask => "runner_task",
            EventKind::SelectionDecision => "selection_decision",
            EventKind::StudyExec => "study_exec",
            EventKind::ArtifactRender => "artifact_render",
        }
    }

    /// Category (Chrome trace `cat` field): which layer emitted it.
    pub fn category(self) -> &'static str {
        match self {
            EventKind::FlowStart
            | EventKind::FlowComplete
            | EventKind::FlowCancel
            | EventKind::FairShareRecompute
            | EventKind::FaultInjected
            | EventKind::PartitionRebuild => "simnet",
            EventKind::ProbeStart
            | EventKind::ProbeWon
            | EventKind::ProbeTimeout
            | EventKind::PathSwitch
            | EventKind::PathUnresolvable
            | EventKind::PathFailover
            | EventKind::SessionStart
            | EventKind::SessionComplete
            | EventKind::Retry => "session",
            EventKind::ChunkReassigned => "stripe",
            EventKind::RelayAccept
            | EventKind::RelaySplice
            | EventKind::RelayFirstByte
            | EventKind::RelayDrain
            | EventKind::RelayShutdown => "relay",
            EventKind::RunnerTask => "runner",
            EventKind::SelectionDecision => "policy",
            EventKind::StudyExec | EventKind::ArtifactRender => "sweep",
        }
    }
}

/// An attribute value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Attr {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// Text.
    Str(String),
}

impl std::fmt::Display for Attr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Attr::U64(v) => write!(f, "{v}"),
            Attr::F64(v) => write!(f, "{v}"),
            Attr::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds on the emitter's clock (simulated or wall).
    pub ts_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// Emitter-scoped correlation id (flow id, session index,
    /// connection number, task index…).
    pub id: u64,
    /// Span duration, for events that cover an interval.
    pub dur_us: Option<u64>,
    /// Free-form attributes.
    pub attrs: Vec<(&'static str, Attr)>,
}

impl Event {
    /// An instant event.
    pub fn new(kind: EventKind, ts_us: u64, id: u64) -> Event {
        Event {
            ts_us,
            kind,
            id,
            dur_us: None,
            attrs: Vec::new(),
        }
    }

    /// A span event covering `[ts_us, ts_us + dur_us]`.
    pub fn span(kind: EventKind, ts_us: u64, dur_us: u64, id: u64) -> Event {
        Event {
            ts_us,
            kind,
            id,
            dur_us: Some(dur_us),
            attrs: Vec::new(),
        }
    }

    /// Attaches an attribute (builder style).
    pub fn with(mut self, key: &'static str, value: Attr) -> Event {
        self.attrs.push((key, value));
        self
    }

    /// Attaches an unsigned attribute.
    pub fn with_u64(self, key: &'static str, value: u64) -> Event {
        self.with(key, Attr::U64(value))
    }

    /// Attaches a float attribute.
    pub fn with_f64(self, key: &'static str, value: f64) -> Event {
        self.with(key, Attr::F64(value))
    }

    /// Attaches a text attribute.
    pub fn with_str(self, key: &'static str, value: impl Into<String>) -> Event {
        self.with(key, Attr::Str(value.into()))
    }
}

struct Ring {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

/// Ring-buffered event recorder. Thread-safe; recording takes a short
/// mutex (events are orders of magnitude rarer than metric updates).
pub struct Tracer {
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

/// Default ring capacity: enough for a paper-scale quick run without
/// unbounded growth on larger ones.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl Tracer {
    /// A tracer retaining at most `capacity` most-recent events.
    pub fn with_capacity(capacity: usize) -> Tracer {
        assert!(capacity > 0, "zero trace capacity");
        Tracer {
            ring: Mutex::new(Ring {
                buf: VecDeque::with_capacity(capacity.min(4096)),
                capacity,
                dropped: 0,
            }),
        }
    }

    /// Records an event, evicting the oldest if the ring is full.
    pub fn record(&self, event: Event) {
        let mut ring = self.ring.lock().expect("tracer poisoned");
        if ring.buf.len() == ring.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(event);
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("tracer poisoned").buf.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted due to capacity so far.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("tracer poisoned").dropped
    }

    /// Copies out the retained events in arrival order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring
            .lock()
            .expect("tracer poisoned")
            .buf
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let t = Tracer::with_capacity(8);
        assert!(t.is_empty());
        t.record(Event::new(EventKind::FlowStart, 10, 1));
        t.record(Event::new(EventKind::FlowComplete, 20, 1).with_u64("bytes", 100));
        let evs = t.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::FlowStart);
        assert_eq!(evs[1].attrs[0], ("bytes", Attr::U64(100)));
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_evicts_oldest() {
        let t = Tracer::with_capacity(3);
        for i in 0..5 {
            t.record(Event::new(EventKind::FairShareRecompute, i, 0));
        }
        let evs = t.snapshot();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].ts_us, 2, "oldest two evicted");
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let t = Tracer::with_capacity(100_000);
        std::thread::scope(|s| {
            for th in 0..4 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..1000 {
                        t.record(Event::new(EventKind::RelaySplice, i, th));
                    }
                });
            }
        });
        assert_eq!(t.len(), 4000);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn kind_names_and_categories_are_stable() {
        assert_eq!(EventKind::FlowStart.name(), "flow_start");
        assert_eq!(EventKind::FlowStart.category(), "simnet");
        assert_eq!(EventKind::ProbeWon.category(), "session");
        assert_eq!(EventKind::RelayAccept.category(), "relay");
        assert_eq!(EventKind::RunnerTask.category(), "runner");
        assert_eq!(EventKind::ChunkReassigned.name(), "chunk_reassigned");
        assert_eq!(EventKind::ChunkReassigned.category(), "stripe");
    }

    #[test]
    #[should_panic(expected = "zero trace capacity")]
    fn zero_capacity_panics() {
        Tracer::with_capacity(0);
    }
}
