//! `ir-audit` — the workspace determinism auditor.
//!
//! Every result this reproduction ships (goldens, `StableHash`
//! artefact fingerprints, the sharded engine's thread-count
//! bit-identity) rests on determinism that the test suites enforce
//! only *dynamically* — a golden diff catches a divergence after it is
//! written. This crate fences the invariant **statically**: a lexical
//! analysis pass over the whole workspace (the environment has no
//! `syn`; see [`scan`] for the line-view lexer it uses instead) that
//! fails CI on:
//!
//! 1. **unordered iteration** ([`rules`]) — `HashMap`/`HashSet` use or
//!    iteration (`iter`, `keys`, `values`, `into_iter`, `drain`,
//!    `retain`) in deterministic crates, unless allowlisted or
//!    immediately sorted;
//! 2. **ambient nondeterminism** — `Instant::now`, `SystemTime`,
//!    `thread_rng`/`from_entropy`, `env::var`,
//!    `available_parallelism` outside allowlisted I/O sites;
//! 3. **hand-written `StableHash`** — an `impl StableHash for` outside
//!    `ir-artifact`'s `hash.rs` / `declare.rs`. Fingerprint inputs get
//!    their impl from `ir_artifact::declare!`, where a skipped field
//!    does not compile; an impl written out by hand can skip one
//!    silently, so each is allowlisted with the reason its encoding is
//!    not its field list;
//! 4. **float-order hazards** — `f64` reductions over unordered
//!    (hash-iterated or parallel) sources;
//! 5. **unsafe hygiene** — `unsafe` without a `// SAFETY:` comment;
//! 6. **allow justification** — `#[allow(...)]` without a one-line
//!    justification comment;
//! 7. **serve-path sleep** — `thread::sleep` in non-test code of the
//!    relay crate, whose threads are meant to wait on readiness (a
//!    timer-quantised accept loop cost every relayed request 10 ms
//!    until PR 15).
//!
//! Exemptions live in `audit.allow.toml` ([`allowlist`]): one reviewed
//! entry per site, with a mandatory reason; an entry that no longer
//! matches any finding is **stale** and fails the audit, so the
//! allowlist can only shrink with the hazards it covers.

pub mod allowlist;
pub mod report;
pub mod rules;
pub mod scan;

use allowlist::Allowlist;
use scan::SourceFile;
use std::path::Path;

/// Crates whose results must be bit-reproducible: the engine, the
/// session/model layers, the workload generators, the artefact cache,
/// the experiment runners, the policy plane, the striped chunk
/// scheduler, and the statistics kernels — plus the root package's
/// `src/` and `tests/` (golden comparisons). `relay` (real sockets),
/// `telemetry` (export-only), `http`/`tcp` (protocol plumbing
/// exercised via simnet) and this crate are I/O or tooling and exempt
/// from rules 1, 2 and 4; rules 3, 5 and 6 apply everywhere.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "simnet",
    "core",
    "workload",
    "artifact",
    "experiments",
    "policy",
    "stats",
    "stripe",
];

/// True when `rel_path` belongs to a crate that must stay
/// deterministic (see [`DETERMINISTIC_CRATES`]).
pub fn is_deterministic_path(rel_path: &str) -> bool {
    if rel_path.starts_with("src/") || rel_path.starts_with("tests/") {
        return true;
    }
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        if let Some((krate, _)) = rest.split_once('/') {
            return DETERMINISTIC_CRATES.contains(&krate);
        }
    }
    false
}

/// The audited hazard classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Rule 1: hash-container use / unordered iteration in
    /// deterministic crates.
    UnorderedIteration,
    /// Rule 2: wall clock, entropy, env, ambient core counts.
    AmbientNondeterminism,
    /// Rule 3: `impl StableHash for` written by hand, not declared.
    HandWrittenStableHash,
    /// Rule 4: `f64` reductions over unordered sources.
    FloatOrderHazard,
    /// Rule 5: `unsafe` without `// SAFETY:`.
    UnsafeHygiene,
    /// Rule 6: `#[allow(...)]` without a justification comment.
    AllowJustification,
    /// Rule 7: `thread::sleep` in the relay crate's non-test code.
    ServePathSleep,
}

impl Rule {
    /// Stable machine-readable id, used by `audit.allow.toml` and the
    /// findings JSON.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::AmbientNondeterminism => "ambient-nondeterminism",
            Rule::HandWrittenStableHash => "hand-written-stable-hash",
            Rule::FloatOrderHazard => "float-order-hazard",
            Rule::UnsafeHygiene => "unsafe-hygiene",
            Rule::AllowJustification => "allow-justification",
            Rule::ServePathSleep => "serve-path-sleep",
        }
    }

    /// Every rule, for allowlist validation.
    pub const ALL: &'static [Rule] = &[
        Rule::UnorderedIteration,
        Rule::AmbientNondeterminism,
        Rule::HandWrittenStableHash,
        Rule::FloatOrderHazard,
        Rule::UnsafeHygiene,
        Rule::AllowJustification,
        Rule::ServePathSleep,
    ];
}

/// One audit finding, before allowlist evaluation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Hazard class.
    pub rule: Rule,
    /// Root-relative `/`-separated path.
    pub path: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human-readable description of the hazard.
    pub message: String,
    /// Trimmed code view of the offending line (what allowlist
    /// patterns match against).
    pub snippet: String,
}

/// A finding plus its allowlist disposition.
#[derive(Debug, Clone)]
pub struct EvaluatedFinding {
    /// The underlying finding.
    pub finding: Finding,
    /// Index into the allowlist's entries when exempted.
    pub allowed_by: Option<usize>,
}

/// Everything one audit run produced.
#[derive(Debug)]
pub struct AuditOutcome {
    /// Every finding, in deterministic (path, line, rule) order.
    pub findings: Vec<EvaluatedFinding>,
    /// Allowlist entries that matched **zero** findings — stale
    /// exemptions; their presence fails the audit.
    pub stale_entries: Vec<usize>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl AuditOutcome {
    /// Findings not covered by the allowlist.
    pub fn denied(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.allowed_by.is_none())
            .map(|f| &f.finding)
    }

    /// True when the workspace passes: no denied finding, no stale
    /// allowlist entry.
    pub fn clean(&self) -> bool {
        self.denied().next().is_none() && self.stale_entries.is_empty()
    }
}

/// Runs every rule pass over the lexed `files` and evaluates the
/// allowlist (including stale-entry detection).
pub fn audit_files(files: &[SourceFile], allow: &Allowlist) -> AuditOutcome {
    let mut findings: Vec<Finding> = Vec::new();
    for file in files {
        findings.extend(rules::check_file(file));
    }
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });

    let mut used = vec![false; allow.entries.len()];
    let findings: Vec<EvaluatedFinding> = findings
        .into_iter()
        .map(|finding| {
            let allowed_by = allow.matches(&finding);
            if let Some(i) = allowed_by {
                used[i] = true;
            }
            EvaluatedFinding {
                finding,
                allowed_by,
            }
        })
        .collect();
    let stale_entries = used
        .iter()
        .enumerate()
        .filter(|(_, u)| !**u)
        .map(|(i, _)| i)
        .collect();
    AuditOutcome {
        findings,
        stale_entries,
        files_scanned: files.len(),
    }
}

/// Scans `root` and audits it against `allow`.
pub fn audit_workspace(root: &Path, allow: &Allowlist) -> Result<AuditOutcome, String> {
    let files = scan::scan_workspace(root)?;
    Ok(audit_files(&files, allow))
}
