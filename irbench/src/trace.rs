//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public functions; nothing inside the program under
//! test is instrumented. Every span carries its parent and the id of
//! the operation (one download, one run) that caused it. Spans stay in
//! memory until the run ends and are then written as Chrome
//! `trace_event` JSON. A disabled tracer records nothing: `enter` is
//! one branch and returns a token that `exit` ignores.

use crate::json::escape;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are microseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Operation the span belongs to.
    pub op: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    /// 0 when the tracer is disabled; pass it as a child's parent.
    pub id: u64,
    parent: u64,
    op: u64,
    start_us: f64,
}

/// The recorder. Shared by reference among client threads.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    // Relaxed: the counter only hands out distinct ids.
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Every update leaves the span list valid, so a panicking
        // client thread must not hide the spans already recorded.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span under `parent` (0 = root) for operation `op`.
    pub fn enter(&self, name: &'static str, parent: u64, op: u64) -> Open {
        if !self.enabled {
            return Open {
                name,
                id: 0,
                parent,
                op,
                start_us: 0.0,
            };
        }
        Open {
            name,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            start_us: self.now_us(),
        }
    }

    /// Closes a span.
    pub fn exit(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_us = self.now_us();
        self.lock().push(Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            op: open.op,
            start_us: open.start_us,
            end_us,
        });
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let open = self.enter(name, parent, op);
        let out = f(open.id);
        self.exit(open);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Durations (µs) of every span called `name`, in recording order.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_us)
        .collect()
}

/// Length of the part of `[lo, hi]` that the intervals cover.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
    let mut total = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are not counted twice).
pub fn self_time_us(spans: &[Span], span: &Span) -> f64 {
    let children = spans
        .iter()
        .filter(|c| c.parent == span.id)
        .map(|c| (c.start_us, c.end_us))
        .collect();
    span.dur_us() - covered(children, span.start_us, span.end_us)
}

/// Smallest share of a root span that its children cover, over all
/// root spans with at least one child; 1.0 when there is none.
pub fn min_root_coverage(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent == 0 && s.dur_us() > 0.0)
        .filter(|s| spans.iter().any(|c| c.parent == s.id))
        .map(|s| 1.0 - self_time_us(spans, s) / s.dur_us())
        .fold(1.0, f64::min)
}

/// Chrome `trace_event` JSON (complete events; one track per operation).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            escape(s.name),
            s.op,
            s.start_us,
            s.dur_us(),
            s.id,
            s.parent,
            s.op
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_us: f64, end_us: f64) -> Span {
        Span {
            name: "s",
            id,
            parent,
            op: 1,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 0, 0.0, 100.0),
            span(2, 1, 10.0, 40.0),
            // Overlaps the previous child: 30..40 must not count twice.
            span(3, 1, 30.0, 60.0),
            // A grandchild is not a direct child.
            span(4, 2, 12.0, 20.0),
            // Sticks out of the parent: only 90..100 counts.
            span(5, 1, 90.0, 120.0),
        ];
        assert_eq!(self_time_us(&spans, &spans[0]), 100.0 - 50.0 - 10.0);
        assert_eq!(self_time_us(&spans, &spans[1]), 30.0 - 8.0);
        assert_eq!(self_time_us(&spans, &spans[3]), 8.0);
        assert!((min_root_coverage(&spans) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let got = tr.scope("a", 0, 1, |id| id);
        assert_eq!(got, 0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_to_parents() {
        let tr = Tracer::new(true);
        tr.scope("root", 0, 7, |root| {
            tr.scope("child", root, 7, |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!((root.parent, root.op, child.op), (0, 7, 7));
        assert!(root.start_us <= child.start_us && child.end_us <= root.end_us);
        let json = chrome_json(&spans);
        assert!(json.contains("\"name\":\"child\"") && json.contains("\"ph\":\"X\""));
        assert!(crate::json::parse(&json).is_ok());
    }
}
