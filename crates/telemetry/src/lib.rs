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
//!   log-scale histograms with lock-free hot-path updates and
//!   point-in-time [`metrics::Snapshot`]s (aligned text + JSON).
//! * [`trace`] — a ring-buffered structured event recorder: typed
//!   [`trace::EventKind`]s against simulated or wall microseconds.
//! * [`export`] — Chrome `trace_event` JSON (open in
//!   `chrome://tracing` / Perfetto), flat JSON, and CSV dumps.
//!
//! # The disabled-by-default contract
//!
//! Instrumented layers hold an `Option` of a shared [`Telemetry`]
//! handle (`Option<&Telemetry>` or `Option<Arc<Telemetry>>`). `None` —
//! the default everywhere — short-circuits before any work happens:
//! no allocation, no formatting, no locking. Telemetry is strictly
//! observational: it never consumes randomness, never advances a
//! clock, and never changes control flow, so an instrumented run
//! produces bit-identical results with telemetry on or off. The
//! `determinism` integration test and the
//! `experiments measurement --trace` acceptance check both pin this.
//!
//! # Example
//!
//! ```
//! use ir_telemetry::{Telemetry, trace::{Event, EventKind}};
//! use std::sync::Arc;
//!
//! let tel = Arc::new(Telemetry::new());
//! // Hot path: cache the handle once, update lock-free.
//! let flows = tel.metrics.counter("flows_started", vec![]);
//! flows.inc();
//! tel.tracer.record(
//!     Event::new(EventKind::FlowStart, 0, 1).with_u64("bytes", 4096),
//! );
//! // Reporting.
//! let text = tel.metrics.snapshot().render_text();
//! assert!(text.contains("flows_started"));
//! let chrome = tel.chrome_trace();
//! assert!(chrome.starts_with('['));
//! ```

pub mod export;
pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Labels, MetricsRegistry, Snapshot};
pub use trace::{Attr, Event, EventKind, Tracer, DEFAULT_TRACE_CAPACITY};

/// The combined telemetry handle: one metrics registry plus one event
/// tracer. Shared across threads via `Arc`.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Metric series.
    pub metrics: MetricsRegistry,
    /// Event ring buffer.
    pub tracer: Tracer,
}

impl Telemetry {
    /// Telemetry with the default trace capacity
    /// ([`DEFAULT_TRACE_CAPACITY`]).
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Telemetry retaining at most `trace_capacity` events.
    pub fn with_trace_capacity(trace_capacity: usize) -> Telemetry {
        Telemetry {
            metrics: MetricsRegistry::new(),
            tracer: Tracer::with_capacity(trace_capacity),
        }
    }

    /// Folds `other`'s metrics and retained events into this handle
    /// (see [`MetricsRegistry::absorb`]): how a run that keeps a private
    /// handle of its own still reports into a shared one.
    pub fn absorb(&self, other: &Telemetry) {
        self.metrics.absorb(&other.metrics);
        for event in other.tracer.snapshot() {
            self.tracer.record(event);
        }
    }

    /// Chrome `trace_event` JSON of everything currently retained.
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(&self.tracer.snapshot())
    }

    /// Flat JSON dump of everything currently retained.
    pub fn events_json(&self) -> String {
        export::events_json(&self.tracer.snapshot())
    }

    /// CSV dump of everything currently retained.
    pub fn events_csv(&self) -> String {
        export::events_csv(&self.tracer.snapshot())
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
        tel.tracer.record(Event::new(EventKind::SessionStart, 5, 0));
        assert_eq!(tel.metrics.snapshot().counter("c", &vec![]), Some(2));
        assert_eq!(tel.tracer.len(), 1);
        export::tests_support::assert_valid_json(&tel.chrome_trace());
        export::tests_support::assert_valid_json(&tel.events_json());
    }

    #[test]
    fn absorb_sums_counters_and_histograms_and_copies_events() {
        let (a, b) = (Telemetry::new(), Telemetry::new());
        a.metrics.counter("c", vec![]).add(2);
        b.metrics.counter("c", vec![]).add(3);
        b.metrics.gauge("g", vec![]).set(1.5);
        a.metrics.histogram("h", vec![]).record(4);
        b.metrics.histogram("h", vec![]).record(1000);
        b.tracer.record(Event::new(EventKind::SessionStart, 5, 0));
        a.absorb(&b);
        let snap = a.metrics.snapshot();
        assert_eq!(snap.counter("c", &vec![]), Some(5));
        let h = a.metrics.histogram("h", vec![]);
        assert_eq!((h.count(), h.sum(), h.quantile(1.0)), (2, 1004, 1023.0));
        assert_eq!(a.metrics.gauge("g", vec![]).get(), 1.5);
        assert_eq!(a.tracer.len(), 1);
        assert_eq!(b.metrics.snapshot().counter("c", &vec![]), Some(3));
    }

    #[test]
    fn telemetry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();
    }
}
