//! Findings rendering: machine-readable JSON + human text.
//!
//! The JSON is hand-rolled (workspace convention — the tree has no JSON
//! library) and byte-deterministic: findings arrive already sorted
//! from [`crate::audit_files`], and keys are emitted in a fixed order,
//! so CI can archive `audit_findings.json` and diff runs directly.

use crate::allowlist::Allowlist;
use crate::AuditOutcome;
use std::fmt::Write as _;

/// Escapes a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The full machine-readable report.
pub fn to_json(outcome: &AuditOutcome, allow: &Allowlist) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"files_scanned\": {},", outcome.files_scanned);
    let _ = writeln!(s, "  \"clean\": {},", outcome.clean());
    s.push_str("  \"findings\": [\n");
    for (i, ef) in outcome.findings.iter().enumerate() {
        let f = &ef.finding;
        s.push_str("    {");
        let _ = write!(
            s,
            "\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"allowed\": {}, \
             \"message\": \"{}\", \"snippet\": \"{}\"",
            f.rule.id(),
            json_escape(&f.path),
            f.line,
            ef.allowed_by.is_some(),
            json_escape(&f.message),
            json_escape(&f.snippet),
        );
        s.push('}');
        if i + 1 < outcome.findings.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");
    s.push_str("  \"stale_allow_entries\": [\n");
    for (i, &idx) in outcome.stale_entries.iter().enumerate() {
        let e = &allow.entries[idx];
        let _ = write!(
            s,
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"pattern\": \"{}\", \"line\": {}}}",
            json_escape(&e.rule),
            json_escape(&e.path),
            json_escape(&e.pattern),
            e.line,
        );
        if i + 1 < outcome.stale_entries.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

/// Human-readable summary for the terminal / CI log.
pub fn to_text(outcome: &AuditOutcome, allow: &Allowlist) -> String {
    let mut s = String::new();
    let denied: Vec<_> = outcome.denied().collect();
    let allowed = outcome.findings.len() - denied.len();
    for f in &denied {
        let _ = writeln!(s, "DENY  [{}] {}:{}", f.rule.id(), f.path, f.line);
        let _ = writeln!(s, "      {}", f.message);
        if !f.snippet.is_empty() {
            let _ = writeln!(s, "      > {}", f.snippet);
        }
    }
    for &idx in &outcome.stale_entries {
        let e = &allow.entries[idx];
        let _ = writeln!(
            s,
            "STALE audit.allow.toml:{} [{}] {} pattern `{}` matches no finding — delete it",
            e.line, e.rule, e.path, e.pattern
        );
    }
    let _ = writeln!(
        s,
        "ir-audit: {} files, {} findings ({} allowlisted, {} denied), {} stale entries — {}",
        outcome.files_scanned,
        outcome.findings.len(),
        allowed,
        denied.len(),
        outcome.stale_entries.len(),
        if outcome.clean() { "PASS" } else { "FAIL" },
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvaluatedFinding, Finding, Rule};

    fn outcome() -> AuditOutcome {
        AuditOutcome {
            findings: vec![EvaluatedFinding {
                finding: Finding {
                    rule: Rule::UnsafeHygiene,
                    path: "src/a \"quoted\".rs".into(),
                    line: 3,
                    message: "unsafe without SAFETY".into(),
                    snippet: "unsafe { *p }".into(),
                },
                allowed_by: None,
            }],
            stale_entries: vec![],
            files_scanned: 1,
        }
    }

    #[test]
    fn json_escapes_and_reports_denied() {
        let json = to_json(&outcome(), &Allowlist::default());
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"rule\": \"unsafe-hygiene\""));
    }

    #[test]
    fn text_flags_denied_findings() {
        let text = to_text(&outcome(), &Allowlist::default());
        assert!(text.contains("DENY  [unsafe-hygiene]"));
        assert!(text.contains("FAIL"));
    }
}
