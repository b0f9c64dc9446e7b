//! The exporter: Chrome `trace_event` JSON, loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! JSON is emitted by hand — the tree has no JSON library — so every
//! string goes through `json_string` and every float through
//! `json_f64` (non-finite values become `null`, which strict parsers
//! require).

use crate::trace::{Attr, Event};

/// Escapes and quotes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a float as a JSON value (`null` for NaN/infinity).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{v}` prints integers without a dot, which is still valid
        // JSON (a number), so no special casing needed.
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_attr(a: &Attr) -> String {
    match a {
        Attr::U64(v) => format!("{v}"),
        Attr::F64(v) => json_f64(*v),
        Attr::Str(v) => json_string(v),
    }
}

fn json_args(event: &Event) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in event.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(k));
        out.push(':');
        out.push_str(&json_attr(v));
    }
    out.push('}');
    out
}

/// Renders events as a Chrome `trace_event` JSON document (the
/// "JSON Array Format"). Events are sorted by timestamp so `ts` is
/// monotonically non-decreasing, which keeps strict viewers happy.
/// Span events become `"ph":"X"` (complete) entries; instant events
/// become `"ph":"i"` with global scope. The category distinguishes the
/// emitting layer; the correlation id is exposed as the `tid` so
/// related events share a track.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| e.ts_us);
    let mut out = String::from("[");
    for (i, e) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        out.push_str(&json_string(e.kind.name()));
        out.push_str(",\"cat\":");
        out.push_str(&json_string(e.kind.category()));
        match e.dur_us {
            Some(dur) => {
                out.push_str(&format!(",\"ph\":\"X\",\"ts\":{},\"dur\":{}", e.ts_us, dur));
            }
            None => {
                out.push_str(&format!(",\"ph\":\"i\",\"s\":\"g\",\"ts\":{}", e.ts_us));
            }
        }
        out.push_str(&format!(",\"pid\":1,\"tid\":{},\"args\":", e.id));
        out.push_str(&json_args(e));
        out.push('}');
    }
    out.push(']');
    out
}

/// A minimal JSON syntax checker for this crate's tests (the tree has
/// no JSON parser dependency). Validates structure, not semantics.
#[cfg(test)]
pub(crate) mod tests_support {
    /// Panics unless `s` is a syntactically valid JSON document.
    pub fn assert_valid_json(s: &str) {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p.value();
        p.skip_ws();
        assert_eq!(p.pos, p.bytes.len(), "trailing garbage at {}", p.pos);
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> u8 {
            *self
                .bytes
                .get(self.pos)
                .unwrap_or_else(|| panic!("unexpected end of JSON at {}", self.pos))
        }

        fn bump(&mut self) -> u8 {
            let b = self.peek();
            self.pos += 1;
            b
        }

        fn skip_ws(&mut self) {
            while self.pos < self.bytes.len()
                && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
            {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) {
            let got = self.bump();
            assert_eq!(
                got as char,
                b as char,
                "expected {:?} at {}",
                b as char,
                self.pos - 1
            );
        }

        fn literal(&mut self, lit: &str) {
            for b in lit.bytes() {
                self.expect(b);
            }
        }

        fn value(&mut self) {
            match self.peek() {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => self.string(),
                b't' => self.literal("true"),
                b'f' => self.literal("false"),
                b'n' => self.literal("null"),
                b'-' | b'0'..=b'9' => self.number(),
                c => panic!("unexpected {:?} at {}", c as char, self.pos),
            }
        }

        fn object(&mut self) {
            self.expect(b'{');
            self.skip_ws();
            if self.peek() == b'}' {
                self.bump();
                return;
            }
            loop {
                self.skip_ws();
                self.string();
                self.skip_ws();
                self.expect(b':');
                self.skip_ws();
                self.value();
                self.skip_ws();
                match self.bump() {
                    b',' => continue,
                    b'}' => return,
                    c => panic!("expected , or }} got {:?}", c as char),
                }
            }
        }

        fn array(&mut self) {
            self.expect(b'[');
            self.skip_ws();
            if self.peek() == b']' {
                self.bump();
                return;
            }
            loop {
                self.skip_ws();
                self.value();
                self.skip_ws();
                match self.bump() {
                    b',' => continue,
                    b']' => return,
                    c => panic!("expected , or ] got {:?}", c as char),
                }
            }
        }

        fn string(&mut self) {
            self.expect(b'"');
            loop {
                match self.bump() {
                    b'"' => return,
                    b'\\' => {
                        let e = self.bump();
                        assert!(
                            matches!(
                                e,
                                b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' | b'u'
                            ),
                            "bad escape {:?}",
                            e as char
                        );
                        if e == b'u' {
                            for _ in 0..4 {
                                let h = self.bump();
                                assert!(h.is_ascii_hexdigit(), "bad \\u escape");
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        fn number(&mut self) {
            if self.peek() == b'-' {
                self.bump();
            }
            assert!(self.peek().is_ascii_digit(), "bad number");
            while self.pos < self.bytes.len()
                && matches!(
                    self.bytes[self.pos],
                    b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'
                )
            {
                self.pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::assert_valid_json;
    use super::*;
    use crate::trace::EventKind;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::new(EventKind::FlowStart, 300, 1).with_u64("bytes", 2_097_152),
            Event::new(EventKind::ProbeWon, 100, 7)
                .with_str("path", "indirect via relay-3")
                .with_f64("rate", 1234.5),
            Event::span(EventKind::RunnerTask, 200, 900, 2).with_str("task", "c0×v1"),
        ]
    }

    #[test]
    fn chrome_trace_is_valid_and_ts_sorted() {
        let json = chrome_trace(&sample_events());
        assert_valid_json(&json);
        // Events were given out of order (300, 100, 200); export sorts.
        let i100 = json.find("\"ts\":100").expect("ts 100");
        let i200 = json.find("\"ts\":200").expect("ts 200");
        let i300 = json.find("\"ts\":300").expect("ts 300");
        assert!(i100 < i200 && i200 < i300, "ts must be non-decreasing");
        assert!(json.contains("\"ph\":\"X\""), "span becomes complete event");
        assert!(json.contains("\"dur\":900"));
        assert!(json.contains("\"ph\":\"i\""), "instants present");
    }

    #[test]
    fn chrome_trace_escapes_strings() {
        let evs = vec![Event::new(EventKind::ProbeWon, 1, 0)
            .with_str("note\"key", "line\nbreak and \"quotes\"")];
        let json = chrome_trace(&evs);
        assert_valid_json(&json);
        assert!(json.contains("note\\\"key"));
        assert!(json.contains("line\\nbreak and \\\"quotes\\\""));
    }

    #[test]
    fn empty_export_is_valid() {
        assert_eq!(chrome_trace(&[]), "[]");
        assert_valid_json(&chrome_trace(&[]));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let evs =
            vec![Event::new(EventKind::SessionComplete, 1, 0).with_f64("improvement", f64::NAN)];
        let json = chrome_trace(&evs);
        assert_valid_json(&json);
        assert!(json.contains("\"improvement\":null"));
    }
}
