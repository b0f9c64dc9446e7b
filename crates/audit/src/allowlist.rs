//! `audit.allow.toml` — the reviewed-exemption ledger.
//!
//! Every hazard the auditor tolerates is written down **per site**,
//! with a mandatory reason, and checked both ways: a finding with no
//! entry fails the audit, and an entry matching no finding is *stale*
//! and fails the audit too — exemptions cannot outlive the code they
//! excuse. The file is a small TOML subset parsed by hand (the build
//! environment has no `toml` crate):
//!
//! ```toml
//! [[allow]]
//! rule = "ambient-nondeterminism"
//! path = "crates/artifact/src/cache.rs"
//! pattern = "SystemTime"
//! reason = "GC orders eviction by mtime; never hashed into artefacts"
//! ```
//!
//! Matching: the entry's `rule` and `path` must equal the finding's,
//! and the finding's snippet must contain `pattern`. Only the exact
//! keys above are accepted; anything else is a parse error, so typos
//! cannot silently disable an exemption.

use crate::{Finding, Rule};

/// One reviewed exemption.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule id the entry exempts (must be a known id).
    pub rule: String,
    /// Root-relative path, exact match.
    pub path: String,
    /// Substring the finding's snippet must contain.
    pub pattern: String,
    /// Mandatory human justification.
    pub reason: String,
    /// Line in `audit.allow.toml` where the entry starts (diagnostics).
    pub line: usize,
}

/// Parsed `audit.allow.toml`.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    /// Per-site exemptions, in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Index of the first entry exempting `finding`, if any.
    pub fn matches(&self, finding: &Finding) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.rule == finding.rule.id()
                && e.path == finding.path
                && finding.snippet.contains(&e.pattern)
        })
    }

    /// Parses the TOML subset; returns a line-tagged message on any
    /// structural problem.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut out = Allowlist::default();
        let mut cur: Option<(AllowEntry, usize)> = None;

        let finish =
            |cur: &mut Option<(AllowEntry, usize)>, out: &mut Allowlist| -> Result<(), String> {
                if let Some((entry, start)) = cur.take() {
                    for (field, value) in [
                        ("rule", &entry.rule),
                        ("path", &entry.path),
                        ("pattern", &entry.pattern),
                        ("reason", &entry.reason),
                    ] {
                        if value.is_empty() {
                            return Err(format!(
                                "allow entry at line {start}: missing or empty `{field}`"
                            ));
                        }
                    }
                    if !Rule::ALL.iter().any(|r| r.id() == entry.rule) {
                        return Err(format!(
                            "allow entry at line {start}: unknown rule `{}`",
                            entry.rule
                        ));
                    }
                    out.entries.push(entry);
                }
                Ok(())
            };

        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = strip_toml_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                finish(&mut cur, &mut out)?;
                cur = Some((
                    AllowEntry {
                        rule: String::new(),
                        path: String::new(),
                        pattern: String::new(),
                        reason: String::new(),
                        line: lineno,
                    },
                    lineno,
                ));
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("line {lineno}: unknown section `{line}`"));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "line {lineno}: expected `key = value`, got `{line}`"
                ));
            };
            let key = key.trim();
            let Some((entry, _)) = cur.as_mut() else {
                return Err(format!("line {lineno}: `{key}` outside any section"));
            };
            let value = parse_string(value, lineno)?;
            match key {
                "rule" => entry.rule = value,
                "path" => entry.path = value,
                "pattern" => entry.pattern = value,
                "reason" => entry.reason = value,
                _ => {
                    return Err(format!("line {lineno}: unknown [[allow]] key `{key}`"));
                }
            }
        }
        finish(&mut cur, &mut out)?;
        Ok(out)
    }

    /// Loads and parses the file at `path`; a missing file is an empty
    /// allowlist (a fresh workspace needs none).
    pub fn load(path: &std::path::Path) -> Result<Allowlist, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Allowlist::default()),
            Err(e) => Err(format!("cannot read {}: {e}", path.display())),
        }
    }
}

/// Strips a `#` comment that is outside any `"…"` string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// A double-quoted TOML string (no escape support — patterns are plain
/// code substrings).
fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let v = value.trim();
    let inner = v
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("line {lineno}: expected a \"quoted\" string, got `{v}`"))?;
    Ok(inner.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# reviewed exemptions
[[allow]]
rule = "ambient-nondeterminism"
path = "crates/artifact/src/cache.rs"
pattern = "SystemTime"
reason = "GC orders eviction by mtime; never hashed"
"#;

    #[test]
    fn parses_entries() {
        let a = Allowlist::parse(SAMPLE).unwrap();
        assert_eq!(a.entries.len(), 1);
        assert_eq!(a.entries[0].rule, "ambient-nondeterminism");
    }

    #[test]
    fn matcher_requires_rule_path_and_pattern() {
        let a = Allowlist::parse(SAMPLE).unwrap();
        let mut f = Finding {
            rule: Rule::AmbientNondeterminism,
            path: "crates/artifact/src/cache.rs".into(),
            line: 10,
            message: String::new(),
            snippet: "let t = SystemTime::now();".into(),
        };
        assert_eq!(a.matches(&f), Some(0));
        f.path = "crates/artifact/src/dag.rs".into();
        assert_eq!(a.matches(&f), None, "path must match exactly");
        f.path = "crates/artifact/src/cache.rs".into();
        f.snippet = "let t = Instant::now();".into();
        assert_eq!(a.matches(&f), None, "snippet must contain the pattern");
        f.snippet = "let t = SystemTime::now();".into();
        f.rule = Rule::UnorderedIteration;
        assert_eq!(a.matches(&f), None, "rule must match");
    }

    #[test]
    fn empty_reason_is_rejected() {
        let bad = "[[allow]]\nrule = \"unsafe-hygiene\"\npath = \"src/x.rs\"\n\
                   pattern = \"unsafe\"\nreason = \"\"\n";
        let err = Allowlist::parse(bad).unwrap_err();
        assert!(err.contains("empty `reason`"), "{err}");
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let bad = "[[allow]]\nrule = \"no-such-rule\"\npath = \"src/x.rs\"\n\
                   pattern = \"x\"\nreason = \"y\"\n";
        let err = Allowlist::parse(bad).unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
    }

    #[test]
    fn unknown_section_and_stray_key_are_rejected() {
        let err = Allowlist::parse("[config]\nroots = \"x\"\n").unwrap_err();
        assert!(err.contains("unknown section"), "{err}");
        let err = Allowlist::parse("rule = \"unsafe-hygiene\"\n").unwrap_err();
        assert!(err.contains("outside any section"), "{err}");
    }

    #[test]
    fn unknown_key_is_rejected() {
        let bad = "[[allow]]\nrule = \"unsafe-hygiene\"\npath = \"src/x.rs\"\n\
                   pattern = \"x\"\nreason = \"y\"\nnote = \"z\"\n";
        let err = Allowlist::parse(bad).unwrap_err();
        assert!(err.contains("unknown [[allow]] key"), "{err}");
    }
}
