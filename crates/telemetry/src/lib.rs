//! `ir-telemetry` — deterministic observability for the
//! indirect-routing reproduction.
//!
//! The paper's analysis lives on per-transfer visibility: which path
//! won the 100 KB probe race, when the engine recomputed fair shares,
//! how long each relay leg took. This crate provides that visibility
//! as one subsystem wired through simnet, core, relay, and the
//! experiments CLI:
//!
//! * [`metrics`] — a thread-safe registry of counters, gauges, and
//!   log-scale histograms with lock-free updates and point-in-time
//!   [`metrics::Snapshot`]s rendered as aligned text. The study runner
//!   fills it by folding what each task returns (engine stats, records,
//!   session counts) once per task; the simulator and the session
//!   protocol write no counters of their own.
//! * [`trace`] — a ring-buffered structured event recorder: typed
//!   [`trace::EventKind`]s against simulated or wall microseconds. It
//!   exists only when a trace is asked for: a [`Telemetry`] without a
//!   tracer makes every layer skip building its events.
//! * [`export`] — Chrome `trace_event` JSON (open in
//!   `chrome://tracing` / Perfetto).
//!
//! # The disabled-by-default contract
//!
//! Instrumented layers hold an `Option` of a shared [`Telemetry`]
//! handle (or of its [`Tracer`]). `None` — the default everywhere —
//! short-circuits before any work happens: no allocation, no
//! formatting, no locking. Telemetry is strictly observational: it
//! never consumes randomness, never advances a clock, and never
//! changes control flow, so an instrumented run produces bit-identical
//! results with telemetry on or off. The `determinism` integration
//! test and the `experiments measurement --trace` acceptance check
//! both pin this.
//!
//! # Example
//!
//! ```
//! use ir_telemetry::{Telemetry, trace::{Event, EventKind}};
//! use std::sync::Arc;
//!
//! let tel = Arc::new(Telemetry::new());
//! // Counters: resolve the handle once, update lock-free.
//! let flows = tel.metrics.counter("flows_started", vec![]);
//! flows.add(2);
//! // Events: built only when a tracer exists.
//! tel.trace(|| Event::new(EventKind::FlowStart, 0, 1).with_u64("bytes", 4096));
//! // Reporting.
//! let text = tel.metrics.snapshot().render_text();
//! assert!(text.contains("flows_started"));
//! let chrome = tel.chrome_trace();
//! assert!(chrome.starts_with('['));
//! assert!(Telemetry::metrics_only().tracer.is_none());
//! ```

pub mod export;
pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Labels, MetricsRegistry, Snapshot};
pub use trace::{Attr, Event, EventKind, Tracer, DEFAULT_TRACE_CAPACITY};

/// The combined telemetry handle: one metrics registry plus, when a
/// trace is wanted, one event tracer. Shared across threads via `Arc`.
#[derive(Debug)]
pub struct Telemetry {
    /// Metric series.
    pub metrics: MetricsRegistry,
    /// Event ring buffer; `None` when only metrics were asked for, so
    /// no layer builds an event.
    pub tracer: Option<Tracer>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Metrics and a tracer with the default capacity
    /// ([`DEFAULT_TRACE_CAPACITY`]).
    pub fn new() -> Telemetry {
        Telemetry::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Metrics and a tracer retaining at most `trace_capacity` events.
    pub fn with_trace_capacity(trace_capacity: usize) -> Telemetry {
        Telemetry {
            metrics: MetricsRegistry::new(),
            tracer: Some(Tracer::with_capacity(trace_capacity)),
        }
    }

    /// Metrics only: no tracer, so no event is ever built or stored.
    pub fn metrics_only() -> Telemetry {
        Telemetry {
            metrics: MetricsRegistry::new(),
            tracer: None,
        }
    }

    /// Records the event `make` builds — building it only when there
    /// is a tracer to keep it.
    pub fn trace(&self, make: impl FnOnce() -> Event) {
        if let Some(tracer) = &self.tracer {
            tracer.record(make());
        }
    }

    /// Chrome `trace_event` JSON of everything currently retained
    /// (`[]` without a tracer).
    pub fn chrome_trace(&self) -> String {
        let events = self.tracer.as_ref().map(Tracer::snapshot);
        export::chrome_trace(events.as_deref().unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Event, EventKind};

    #[test]
    fn combined_handle_round_trip() {
        let tel = Telemetry::with_trace_capacity(16);
        tel.metrics.counter("c", vec![]).add(2);
        tel.trace(|| Event::new(EventKind::SessionStart, 5, 0));
        assert_eq!(tel.metrics.snapshot().counter("c", &vec![]), Some(2));
        assert_eq!(tel.tracer.as_ref().map(Tracer::len), Some(1));
        export::tests_support::assert_valid_json(&tel.chrome_trace());
    }

    #[test]
    fn metrics_only_builds_no_events() {
        let tel = Telemetry::metrics_only();
        tel.trace(|| unreachable!("no tracer, so no event is built"));
        assert_eq!(tel.chrome_trace(), "[]");
    }

    #[test]
    fn telemetry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();
    }
}
