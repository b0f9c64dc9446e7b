//! DESIGN.md §8.1 is the single source of truth for instrument names:
//! every counter/histogram the workspace emits must have a row there.
//!
//! This test walks every crate's non-test source, extracts the string
//! literal from each `.counter("…")` / `.histogram("…")` emission
//! site, and fails if any name is missing from the catalogue table —
//! so adding an instrument without documenting it breaks the build.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Collects `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Extracts every metric name from `line` following a `prefix` such as
/// `counter("`.
fn extract_names(line: &str, prefix: &str, names: &mut BTreeSet<String>) {
    let mut rest = line;
    while let Some(i) = rest.find(prefix) {
        let tail = &rest[i + prefix.len()..];
        if let Some(end) = tail.find('"') {
            names.insert(tail[..end].to_string());
            rest = &tail[end..];
        } else {
            break;
        }
    }
}

/// Every counter/histogram name emitted from non-test, non-comment
/// code anywhere in the workspace's crates and root `src/`.
fn emitted_names() -> BTreeSet<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    let crates = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates)
        .expect("crates/ dir")
        .map(|e| e.unwrap().path())
        .collect();
    crate_dirs.sort();
    for c in crate_dirs {
        let src = c.join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    rust_files(&root.join("src"), &mut files);

    let mut names = BTreeSet::new();
    for f in &files {
        let text = std::fs::read_to_string(f).unwrap();
        // Inline test modules sit at the end of a file by convention;
        // everything from the first top-level `#[cfg(test)]` down is
        // test-only and free to use throwaway instrument names. (An
        // indented one marks a test-only item, with code after it.)
        let body = match text.find("\n#[cfg(test)]") {
            Some(i) => &text[..i],
            None => &text[..],
        };
        for line in body.lines() {
            let t = line.trim_start();
            if t.starts_with("//") {
                continue;
            }
            // Only call sites (`.counter("x"`), not definitions.
            extract_names(t, ".counter(\"", &mut names);
            extract_names(t, ".histogram(\"", &mut names);
        }
    }
    names
}

#[test]
fn every_emitted_instrument_is_catalogued_in_design_md() {
    let names = emitted_names();
    assert!(
        names.contains("session_started") && names.contains("stripe_chunks_completed"),
        "scanner lost known emission sites; found {names:?}"
    );
    let design = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
        .expect("DESIGN.md");
    let missing: Vec<&String> = names
        .iter()
        .filter(|n| !design.contains(&format!("`{n}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "instruments emitted but missing from the DESIGN.md §8.1 catalogue: {missing:?}"
    );
}

/// The other direction: every DESIGN.md §8.1 row names an instrument
/// that some non-test source emits, so a series the code stops
/// emitting — one a metrics fold forgot, say — fails here by name
/// instead of leaving a stale row behind.
#[test]
fn every_catalogued_instrument_is_emitted() {
    let design = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
        .expect("DESIGN.md");
    let section = &design[design.find("### 8.1").expect("DESIGN.md has §8.1")..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    let rows: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
        .collect();
    assert!(
        rows.contains(&"session_started") && rows.contains(&"simnet_boundaries"),
        "the §8.1 table was not found; rows {rows:?}"
    );
    let emitted = emitted_names();
    let stale: Vec<&&str> = rows.iter().filter(|n| !emitted.contains(**n)).collect();
    assert!(
        stale.is_empty(),
        "DESIGN.md §8.1 rows that no non-test source emits: {stale:?}"
    );
}
