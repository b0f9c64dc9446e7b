//! The per-file lexical rule passes.
//!
//! All passes work on the [`crate::scan`] code view, so strings and
//! comments never fire a rule. Matching is lexical, not type-aware:
//! where a pass needs a receiver's type (is `m` in `m.values()` a
//! `HashMap`?) it uses the file's visible declarations (`let m =
//! HashMap::new()`, `m: HashMap<…>` fields/params). That
//! under-approximates cross-file receivers — which is why rule 1 also
//! denies hash containers in deterministic crates *by name*: a
//! container that is never declared can never be iterated invisibly.

use crate::scan::{Line, SourceFile};
use crate::{is_deterministic_path, Finding, Rule};

/// Iteration adapters that expose unordered container order.
const ITER_METHODS: &[&str] = &[
    "iter()",
    "iter_mut()",
    "keys()",
    "values()",
    "values_mut()",
    "into_iter()",
    "into_keys()",
    "into_values()",
    "drain(",
    "retain(",
];

/// Ambient-nondeterminism sources (rule 2).
const AMBIENT: &[(&str, &str)] = &[
    ("Instant::now", "wall-clock read"),
    ("SystemTime", "wall-clock read"),
    ("thread_rng", "OS entropy"),
    ("from_entropy", "OS entropy"),
    ("env::var", "environment read"),
    (
        "available_parallelism",
        "ambient core count (route through runner::effective_worker_threads)",
    ),
];

/// Reduction adapters whose result depends on operand order for `f64`.
const REDUCTIONS: &[&str] = &[".sum()", ".sum::<", ".fold(", ".reduce(", ".product("];

/// The two files allowed to spell out `impl StableHash for`: the
/// trait's own primitive/container impls and the `declare!` expansion.
const STABLE_HASH_HOMES: &[&str] = &[
    "crates/artifact/src/hash.rs",
    "crates/artifact/src/declare.rs",
];

/// Runs every rule over one file.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if is_deterministic_path(&file.rel_path) {
        let receivers = hash_receivers(file);
        unordered_iteration(file, &receivers, &mut out);
        ambient_nondeterminism(file, &mut out);
        float_order_hazard(file, &receivers, &mut out);
    }
    if !STABLE_HASH_HOMES.contains(&file.rel_path.as_str()) {
        hand_written_stable_hash(file, &mut out);
    }
    unsafe_hygiene(file, &mut out);
    allow_justification(file, &mut out);
    if file.rel_path.starts_with("crates/relay/src/") {
        serve_path_sleep(file, &mut out);
    }
    out
}

/// Byte offsets of `word` in `code` at identifier boundaries.
fn find_word(code: &str, word: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            hits.push(at);
        }
        from = at + word.len().max(1);
    }
    hits
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The identifier ending immediately before byte `end` (exclusive),
/// skipping trailing whitespace.
fn ident_before(code: &str, end: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = end;
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    let stop = i;
    while i > 0 && is_ident_byte(bytes[i - 1]) {
        i -= 1;
    }
    if i == stop {
        None
    } else {
        Some(code[i..stop].to_string())
    }
}

/// Identifiers this file visibly declares as `HashMap`/`HashSet`:
/// `name: HashMap<…>` (fields, params, annotated lets) and
/// `let name = HashMap::new()` / `with_capacity` bindings.
fn hash_receivers(file: &SourceFile) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for line in &file.lines {
        let code = &line.code;
        for container in ["HashMap", "HashSet"] {
            for at in find_word(code, container) {
                // `name : HashMap<…>` (tolerating `&`/`&mut ` between).
                let mut i = at;
                let bytes = code.as_bytes();
                loop {
                    while i > 0 && (bytes[i - 1].is_ascii_whitespace() || bytes[i - 1] == b'&') {
                        i -= 1;
                    }
                    if i >= 3 && code[..i].ends_with("mut") {
                        i -= 3;
                    } else {
                        break;
                    }
                }
                if i > 0 && bytes[i - 1] == b':' && bytes.get(i.wrapping_sub(2)) != Some(&b':') {
                    if let Some(name) = ident_before(code, i - 1) {
                        names.push(name);
                    }
                }
                // `let name = HashMap::…` / `name = HashMap::new()`.
                if let Some(eq) = code[..at].rfind('=') {
                    let lhs = &code[..eq];
                    if code[eq..at].trim_start_matches('=').trim().is_empty() {
                        if let Some(name) = ident_before(lhs, lhs.len()) {
                            names.push(name);
                        }
                    }
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Joined code of lines `lo..=hi` (0-indexed, clamped) — the crude
/// "statement window" the suppression heuristics look at.
fn window(lines: &[Line], lo: isize, hi: isize) -> String {
    let lo = lo.max(0) as usize;
    let hi = (hi.max(0) as usize).min(lines.len().saturating_sub(1));
    let mut s = String::new();
    for line in &lines[lo..=hi.max(lo)] {
        s.push_str(&line.code);
        s.push(' ');
    }
    s
}

/// Is the iteration at line `i` "immediately sorted" — collected into
/// an ordered container or `.sort*`-ed within the next two lines?
fn immediately_sorted(lines: &[Line], i: usize) -> bool {
    let w = window(lines, i as isize, i as isize + 2);
    w.contains(".sort")
        || w.contains("collect::<BTree")
        || w.contains("BTreeMap<")
        || w.contains("BTreeSet<")
        || w.contains("BinaryHeap<")
}

/// Rule 1: hash containers and unordered iteration in deterministic
/// crates.
fn unordered_iteration(file: &SourceFile, receivers: &[String], out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let lineno = idx + 1;
        // (a) Deny the containers by name: declarations, imports, type
        // annotations, turbofish — any of them lets unordered
        // iteration creep in later without a visible declaration.
        for container in ["HashMap", "HashSet"] {
            if !find_word(code, container).is_empty() {
                out.push(Finding {
                    rule: Rule::UnorderedIteration,
                    path: file.rel_path.clone(),
                    line: lineno,
                    message: format!(
                        "`{container}` in deterministic crate: iteration order is \
                         per-process-random; use `BTree{}` or add a justified \
                         allowlist entry",
                        &container[4..]
                    ),
                    snippet: file.snippet(lineno),
                });
            }
        }
        // (b) Iteration calls on declared hash receivers — more precise
        // than (a); catches `for k in &m` / `m.values()` even when the
        // declaration was allowlisted.
        for recv in receivers {
            let dotted = format!("{recv}.");
            for at in find_word(code, recv) {
                let rest = &code[at..];
                let is_iter_call = rest.starts_with(&dotted)
                    && ITER_METHODS
                        .iter()
                        .any(|m| rest[dotted.len()..].starts_with(m));
                let is_for_loop = code[..at].trim_end().ends_with(" in")
                    || code[..at].trim_end().ends_with(" in &")
                    || code[..at].trim_end().ends_with(" in &mut");
                if (is_iter_call || is_for_loop) && !immediately_sorted(&file.lines, idx) {
                    out.push(Finding {
                        rule: Rule::UnorderedIteration,
                        path: file.rel_path.clone(),
                        line: lineno,
                        message: format!(
                            "unordered iteration over hash container `{recv}` in \
                             deterministic crate (not immediately sorted)"
                        ),
                        snippet: file.snippet(lineno),
                    });
                }
            }
        }
    }
}

/// Does `code` contain `pat` starting at an identifier boundary?
/// (Prefix match: `env::var` also catches `env::var_os`.)
fn find_prefix(code: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(pat) {
        let at = from + pos;
        if at == 0 || !is_ident_byte(code.as_bytes()[at - 1]) {
            return true;
        }
        from = at + pat.len().max(1);
    }
    false
}

/// Rule 2: ambient nondeterminism in deterministic crates.
fn ambient_nondeterminism(file: &SourceFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        for (pat, what) in AMBIENT {
            if find_prefix(&line.code, pat) {
                out.push(Finding {
                    rule: Rule::AmbientNondeterminism,
                    path: file.rel_path.clone(),
                    line: idx + 1,
                    message: format!(
                        "`{pat}` ({what}) in deterministic crate: results must be a \
                         pure function of seeds and parameters"
                    ),
                    snippet: file.snippet(idx + 1),
                });
            }
        }
    }
}

/// Rule 3: an `impl … StableHash for` line. `ir_artifact::declare!`
/// generates the impl from the type's one field list (a field missing
/// from the list is a compile error); one written by hand re-opens the
/// "skipped a field, served a stale cache entry" hole, so each needs an
/// allowlist entry saying why its encoding is not its field list.
fn hand_written_stable_hash(file: &SourceFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let Some(&at) = find_word(code, "impl").first() else {
            continue;
        };
        if code[at..].contains("StableHash for ") {
            out.push(Finding {
                rule: Rule::HandWrittenStableHash,
                path: file.rel_path.clone(),
                line: idx + 1,
                message: "hand-written `impl StableHash`: declare the type's fields \
                          once with `ir_artifact::declare!`, or allowlist the impl \
                          with the reason its encoding is not its field list"
                    .to_string(),
                snippet: file.snippet(idx + 1),
            });
        }
    }
}

/// Rule 4: `f64` reductions whose operand order comes from an
/// unordered source (hash iteration, `par_iter`) — float addition does
/// not commute bitwise.
fn float_order_hazard(file: &SourceFile, receivers: &[String], out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        if !REDUCTIONS.iter().any(|r| code.contains(r)) {
            continue;
        }
        // The statement feeding the reduction: this line and up to
        // three lines of chained adapters above it.
        let w = window(&file.lines, idx as isize - 3, idx as isize);
        let par = w.contains(".par_iter") || w.contains(".par_chunks");
        let hash_src = receivers.iter().any(|r| {
            [
                "iter()",
                "iter_mut()",
                "keys()",
                "values()",
                "values_mut()",
                "drain(",
            ]
            .iter()
            .any(|m| w.contains(&format!("{r}.{m}")))
        });
        if (par || hash_src) && !immediately_sorted(&file.lines, idx) {
            out.push(Finding {
                rule: Rule::FloatOrderHazard,
                path: file.rel_path.clone(),
                line: idx + 1,
                message: "float reduction over an unordered source: operand order \
                          is not stable, so the sum/min/max is not bit-reproducible"
                    .to_string(),
                snippet: file.snippet(idx + 1),
            });
        }
    }
}

/// Rule 5: every `unsafe` needs a `// SAFETY:` comment on the same
/// line or within the three lines above.
fn unsafe_hygiene(file: &SourceFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if find_word(&line.code, "unsafe").is_empty() {
            continue;
        }
        let lo = idx.saturating_sub(3);
        let documented = file.lines[lo..=idx]
            .iter()
            .any(|l| l.comment.contains("SAFETY:"));
        if !documented {
            out.push(Finding {
                rule: Rule::UnsafeHygiene,
                path: file.rel_path.clone(),
                line: idx + 1,
                message: "`unsafe` without a `// SAFETY:` comment documenting the \
                          invariant that makes it sound"
                    .to_string(),
                snippet: file.snippet(idx + 1),
            });
        }
    }
}

/// Rule 6: every `#[allow(...)]` / `#![allow(...)]` carries a one-line
/// justification comment (same line or the line above).
fn allow_justification(file: &SourceFile, out: &mut Vec<Finding>) {
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        if !(code.contains("#[allow(") || code.contains("#![allow(")) {
            continue;
        }
        // A doc comment (`///` / `//!` — comment text starting `/` or
        // `!` after the lexer strips `//`) documents the *item*, not
        // the lint exemption; only a plain `//` comment counts.
        let plain = |l: &Line| {
            let c = l.comment.trim_start();
            !c.is_empty() && !c.starts_with('/') && !c.starts_with('!')
        };
        let justified = plain(line) || (idx > 0 && plain(&file.lines[idx - 1]));
        if !justified {
            out.push(Finding {
                rule: Rule::AllowJustification,
                path: file.rel_path.clone(),
                line: idx + 1,
                message: "`#[allow(...)]` without a justification comment (a plain \
                          `//` comment on the same line or the line above); \
                          justify it or delete it"
                    .to_string(),
                snippet: file.snippet(idx + 1),
            });
        }
    }
}

/// Rule 7: `thread::sleep` in the relay crate outside its unit tests.
/// Every wait on the serve path is a readiness wait (`poll` on a
/// descriptor, a wake pipe or a deadline); a sleep is either emulation
/// the crate exists to provide or a failure back-off, and says so in
/// the allowlist. Inline test modules sit at the end of a file by
/// convention: everything from `#[cfg(test)]` + `mod` down is exempt.
fn serve_path_sleep(file: &SourceFile, out: &mut Vec<Finding>) {
    let tests_from = file
        .lines
        .windows(2)
        .position(|w| w[0].code.trim() == "#[cfg(test)]" && w[1].code.trim().starts_with("mod "))
        .unwrap_or(file.lines.len());
    for (idx, line) in file.lines[..tests_from].iter().enumerate() {
        if find_prefix(&line.code, "thread::sleep") {
            out.push(Finding {
                rule: Rule::ServePathSleep,
                path: file.rel_path.clone(),
                line: idx + 1,
                message: "`thread::sleep` in the relay crate: wait on readiness \
                          (`poller::poll_fds`, a wake pipe, a deadline) or add a \
                          justified allowlist entry"
                    .to_string(),
                snippet: file.snippet(idx + 1),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, text: &str) -> SourceFile {
        SourceFile::lex(path.into(), text)
    }

    fn rules_of(f: &SourceFile) -> Vec<(Rule, usize)> {
        check_file(f)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn hash_receiver_extraction_sees_lets_fields_and_params() {
        let f = file(
            "crates/core/src/x.rs",
            "struct S { counts: HashMap<u32, u64> }\n\
             fn g(m: &mut HashMap<u32, u64>) {}\n\
             fn h() { let mut idx = HashMap::new(); }\n",
        );
        assert_eq!(hash_receivers(&f), vec!["counts", "idx", "m"]);
    }

    #[test]
    fn hash_container_denied_in_deterministic_crate_only() {
        let det = file("crates/core/src/x.rs", "use std::collections::HashMap;\n");
        assert_eq!(rules_of(&det), vec![(Rule::UnorderedIteration, 1)]);
        let io = file("crates/relay/src/x.rs", "use std::collections::HashMap;\n");
        assert!(rules_of(&io).is_empty());
    }

    #[test]
    fn iteration_over_declared_receiver_fires() {
        let f = file(
            "crates/core/src/x.rs",
            "fn g() {\n    let mut m = HashMap::new();\n    for k in m.keys() { use_(k); }\n}\n",
        );
        let got = rules_of(&f);
        // Line 2: container by name; line 3: iteration call.
        assert!(got.contains(&(Rule::UnorderedIteration, 2)));
        assert!(got.contains(&(Rule::UnorderedIteration, 3)));
    }

    #[test]
    fn immediately_sorted_iteration_is_suppressed() {
        let f = file(
            "crates/core/src/x.rs",
            "fn g(m: &HashMap<u32, u64>) {\n    let mut v: Vec<_> = m.keys().collect();\n    v.sort();\n}\n",
        );
        let got = rules_of(&f);
        // The declaration still fires (line 1); the sorted iteration
        // (line 2) does not.
        assert!(got.contains(&(Rule::UnorderedIteration, 1)));
        assert!(!got.contains(&(Rule::UnorderedIteration, 2)));
    }

    #[test]
    fn ambient_sources_fire_in_code_not_comments_or_strings() {
        let f = file(
            "crates/simnet/src/x.rs",
            "// Instant::now is forbidden\nlet s = \"SystemTime\";\nlet t = Instant::now();\n",
        );
        assert_eq!(rules_of(&f), vec![(Rule::AmbientNondeterminism, 3)]);
    }

    #[test]
    fn float_reduction_over_hash_source_fires_slice_source_does_not() {
        let bad = file(
            "crates/stats/src/x.rs",
            "fn g(m: &HashMap<u32, f64>) -> f64 {\n    m.values().sum::<f64>()\n}\n",
        );
        let got = rules_of(&bad);
        assert!(got.contains(&(Rule::FloatOrderHazard, 2)));
        let ok = file(
            "crates/stats/src/x.rs",
            "fn g(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n",
        );
        assert!(rules_of(&ok).is_empty());
    }

    #[test]
    fn hand_written_stable_hash_fires_outside_its_two_homes() {
        let text =
            "impl StableHash for Config {\n    fn stable_hash(&self, h: &mut StableHasher) {}\n}\n";
        for path in [
            "crates/core/src/x.rs",
            "crates/relay/src/x.rs",
            "tests/x.rs",
        ] {
            assert_eq!(
                rules_of(&file(path, text)),
                vec![(Rule::HandWrittenStableHash, 1)],
                "{path}"
            );
        }
        for home in STABLE_HASH_HOMES {
            assert!(rules_of(&file(home, text)).is_empty(), "{home}");
        }
        // Path-qualified and generic spellings are the same impl.
        let qualified = file(
            "crates/core/src/x.rs",
            "impl<T: Copy> ir_artifact::StableHash for Wrapper<T> {}\n",
        );
        assert_eq!(rules_of(&qualified), vec![(Rule::HandWrittenStableHash, 1)]);
        // A declaration, a bound and a comment are not impls.
        let declared = file(
            "crates/core/src/x.rs",
            "ir_artifact::declare! { StableHash for struct Config { seed, retries } }\n\
             fn key<T: StableHash>(v: &T) {}\n// impl StableHash for Nothing\n",
        );
        assert!(rules_of(&declared).is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = file("crates/relay/src/x.rs", "let p = unsafe { deref(q) };\n");
        assert_eq!(rules_of(&bad), vec![(Rule::UnsafeHygiene, 1)]);
        let ok = file(
            "crates/relay/src/x.rs",
            "// SAFETY: q is valid for the call's duration.\nlet p = unsafe { deref(q) };\n",
        );
        assert!(rules_of(&ok).is_empty());
    }

    #[test]
    fn sleep_fires_in_relay_code_but_not_its_tests_or_other_crates() {
        let text = "fn wait() {\n    std::thread::sleep(TICK);\n}\n\
                    #[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(TICK); }\n}\n";
        let relay = file("crates/relay/src/x.rs", text);
        assert_eq!(rules_of(&relay), vec![(Rule::ServePathSleep, 2)]);
        // A `#[cfg(test)]` helper is not the test module.
        let helper = file(
            "crates/relay/src/x.rs",
            "#[cfg(test)]\nfn peek() {}\nfn wait() { thread::sleep(TICK); }\n",
        );
        assert_eq!(rules_of(&helper), vec![(Rule::ServePathSleep, 3)]);
        assert!(rules_of(&file("crates/relay/tests/x.rs", text)).is_empty());
        assert!(rules_of(&file("crates/telemetry/src/x.rs", text)).is_empty());
    }

    #[test]
    fn allow_requires_justification() {
        let bad = file("crates/core/src/x.rs", "#[allow(dead_code)]\nfn f() {}\n");
        assert_eq!(rules_of(&bad), vec![(Rule::AllowJustification, 1)]);
        let same_line = file(
            "crates/core/src/x.rs",
            "#[allow(dead_code)] // kept for the v2 wire format\nfn f() {}\n",
        );
        assert!(rules_of(&same_line).is_empty());
        let line_above = file(
            "crates/core/src/x.rs",
            "// mirrors the protocol's free parameters\n#[allow(clippy::too_many_arguments)]\nfn f() {}\n",
        );
        assert!(rules_of(&line_above).is_empty());
    }
}
