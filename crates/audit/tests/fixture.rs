//! End-to-end audit runs: the seeded negative fixture must trip every
//! rule (and only where seeded), and the real workspace must pass
//! against its reviewed allowlist — the same invocation CI runs.

use ir_audit::allowlist::Allowlist;
use ir_audit::{audit_workspace, Rule};
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn fixture_trips_every_rule() {
    let root = fixture_root();
    let allow = Allowlist::load(&root.join("audit.allow.toml")).unwrap();
    let outcome = audit_workspace(&root, &allow).unwrap();
    assert!(!outcome.clean());

    let denied: Vec<(Rule, &str, usize)> = outcome
        .denied()
        .map(|f| (f.rule, f.path.as_str(), f.line))
        .collect();
    for rule in Rule::ALL {
        assert!(
            denied.iter().any(|(r, _, _)| r == rule),
            "rule {} did not fire on the fixture; denied: {denied:?}",
            rule.id()
        );
    }

    // The hazards land where they were seeded.
    assert!(denied
        .iter()
        .any(|(r, p, _)| *r == Rule::UnorderedIteration && *p == "crates/simnet/src/lib.rs"));
    assert!(denied
        .iter()
        .any(|(r, p, _)| *r == Rule::FloatOrderHazard && *p == "crates/simnet/src/lib.rs"));
    assert!(denied
        .iter()
        .any(|(r, p, _)| *r == Rule::HandWrittenStableHash && *p == "crates/core/src/stable.rs"));
    assert!(denied
        .iter()
        .any(|(r, p, _)| *r == Rule::UnsafeHygiene && *p == "crates/core/src/lib.rs"));
    assert!(denied
        .iter()
        .any(|(r, p, _)| *r == Rule::AllowJustification && *p == "crates/core/src/lib.rs"));
    // `Instant::now` in core fires; the env read is allowlisted away.
    assert!(denied
        .iter()
        .any(|(r, p, _)| *r == Rule::AmbientNondeterminism && *p == "crates/core/src/lib.rs"));
    assert!(outcome
        .findings
        .iter()
        .any(|f| f.allowed_by.is_some() && f.finding.snippet.contains("env::var_os")));
    // The relay's seeded sleep fires once: its test module's does not.
    let sleeps: Vec<_> = denied
        .iter()
        .filter(|(r, _, _)| *r == Rule::ServePathSleep)
        .collect();
    assert_eq!(sleeps.len(), 1, "{sleeps:?}");
    assert_eq!(sleeps[0].1, "crates/relay/src/lib.rs");
}

#[test]
fn io_crate_is_exempt_from_determinism_rules() {
    let root = fixture_root();
    let allow = Allowlist::load(&root.join("audit.allow.toml")).unwrap();
    let outcome = audit_workspace(&root, &allow).unwrap();
    assert!(
        !outcome.findings.iter().any(|f| {
            f.finding.path.starts_with("crates/relay/") && f.finding.rule != Rule::ServePathSleep
        }),
        "relay is an I/O crate; its HashMap/Instant must not fire"
    );
}

#[test]
fn sorted_iteration_is_not_flagged() {
    let root = fixture_root();
    let allow = Allowlist::load(&root.join("audit.allow.toml")).unwrap();
    let outcome = audit_workspace(&root, &allow).unwrap();
    // `rates.keys()` feeding a `.sort()` two lines later is suppressed:
    // no *iteration* finding on the keys_sorted body (the declaration
    // findings for the HashMap type annotations remain).
    assert!(
        !outcome
            .findings
            .iter()
            .any(|f| f.finding.snippet.contains("rates.keys()")),
        "immediately-sorted iteration must be suppressed"
    );
}

#[test]
fn stale_allow_entry_fails_the_audit() {
    let root = fixture_root();
    let allow = Allowlist::load(&root.join("audit.allow.toml")).unwrap();
    let outcome = audit_workspace(&root, &allow).unwrap();
    assert_eq!(
        outcome.stale_entries.len(),
        1,
        "exactly the seeded stale entry"
    );
    let stale = &allow.entries[outcome.stale_entries[0]];
    assert_eq!(stale.rule, "unordered-iteration");
    assert!(stale.reason.contains("STALE"));

    // Dropping the stale entry (and keeping the hazards denied) still
    // fails overall, but for findings — not staleness.
    let trimmed = Allowlist {
        entries: vec![allow.entries[0].clone()],
    };
    let outcome = audit_workspace(&root, &trimmed).unwrap();
    assert!(outcome.stale_entries.is_empty());
    assert!(!outcome.clean());
}

#[test]
fn real_workspace_passes_its_allowlist() {
    let root = workspace_root();
    let allow = Allowlist::load(&root.join("audit.allow.toml")).unwrap();
    let outcome = audit_workspace(&root, &allow).unwrap();
    let denied: Vec<String> = outcome
        .denied()
        .map(|f| format!("[{}] {}:{} {}", f.rule.id(), f.path, f.line, f.message))
        .collect();
    assert!(
        denied.is_empty(),
        "workspace audit denied:\n{}",
        denied.join("\n")
    );
    assert!(
        outcome.stale_entries.is_empty(),
        "stale audit.allow.toml entries: {:?}",
        outcome.stale_entries
    );
    // The allowlist is load-bearing: without it the audit must fail
    // (the reviewed hazard sites are real).
    let bare = audit_workspace(&root, &Allowlist::default()).unwrap();
    assert!(!bare.clean(), "allowlist should be excusing real sites");
}
