//! The determinism fences clippy cannot hold (DESIGN.md §14).
//!
//! Every other determinism lint is clippy's: `clippy.toml` and the
//! workspace `[lints]` table. These tests keep hand-written
//! `StableHash` impls and hand-fed study hashers from coming back, and
//! keep every workspace member under those lints.

use std::fs;
use std::path::{Path, PathBuf};

/// The files that spell out `impl StableHash for` by design: the
/// trait's primitive/container impls and the `declare!` expansion.
const STABLE_HASH_HOMES: &[&str] = &[
    "crates/artifact/src/hash.rs",
    "crates/artifact/src/declare.rs",
];

/// Hand-written impls outside the homes, as `(file, type)`. `PathSpec`
/// hashes its live hops only: the FILL slots past `hop_len` are a
/// representation detail, and hashing them would tie every fingerprint
/// to `MAX_HOPS`. The impl still destructures exhaustively, so a new
/// field does not compile unhashed.
///
/// `PolicyConfig` hashes with no variant tag: each tournament key hashed
/// its policy's config bare, after the policy's name, which already
/// tells the variants apart; a tag would move every pinned key.
const HAND_WRITTEN: &[(&str, &str)] = &[
    ("crates/core/src/path.rs", "PathSpec"),
    ("crates/experiments/src/tournament.rs", "PolicyConfig"),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, skipping build output and dot-dirs.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The type a hand-written `impl … StableHash for T` line names, if
/// the line is one. Comments do not count; `declare!` invocations and
/// trait bounds do not start with `impl`.
fn stable_hash_impl(line: &str) -> Option<&str> {
    let code = line.split("//").next().unwrap_or("");
    let words: Vec<&str> = code.split_whitespace().collect();
    let first = *words.first()?;
    if first != "impl" && !first.starts_with("impl<") {
        return None;
    }
    let at = words
        .windows(2)
        .position(|w| w[0].ends_with("StableHash") && w[1] == "for")?;
    words.get(at + 2).copied()
}

/// Fingerprint inputs get their `StableHash` from `ir_artifact::declare!`,
/// where a skipped field does not compile; one written by hand can skip
/// a field silently and serve a stale cache entry.
#[test]
fn stable_hash_impls_come_from_declare() {
    let mut files = Vec::new();
    rust_files(root(), &mut files);
    let mut found = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(root()).unwrap().to_string_lossy();
        if STABLE_HASH_HOMES.contains(&rel.as_ref()) {
            continue;
        }
        for (n, line) in fs::read_to_string(file).unwrap().lines().enumerate() {
            if let Some(ty) = stable_hash_impl(line) {
                found.push((rel.to_string(), n + 1, ty.to_string()));
            }
        }
    }
    let unlisted: Vec<_> = found
        .iter()
        .filter(|(rel, _, ty)| !HAND_WRITTEN.contains(&(rel.as_str(), ty.as_str())))
        .collect();
    assert!(
        unlisted.is_empty(),
        "hand-written `impl StableHash`: declare the type's fields once with \
         `ir_artifact::declare!`, or list it in HAND_WRITTEN with the reason its \
         encoding is not its field list: {unlisted:?}"
    );
    for &(rel, ty) in HAND_WRITTEN {
        assert!(
            found.iter().any(|(r, _, t)| r == rel && t == ty),
            "stale HAND_WRITTEN entry: no `impl StableHash for {ty}` in {rel}"
        );
    }
}

/// A study's key is `fingerprint_of` the one inputs value its body runs
/// on (DESIGN.md §11). A hasher fed by hand beside the body re-derives
/// those inputs and drifts from them, so non-test code does not open
/// one: files under `tests/`, and each file from its first
/// `#[cfg(test)]` on, are test code.
#[test]
fn study_keys_hash_their_inputs() {
    let mut files = Vec::new();
    rust_files(root(), &mut files);
    let mut found = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(root()).unwrap().to_string_lossy();
        if STABLE_HASH_HOMES.contains(&rel.as_ref()) || rel.split('/').any(|d| d == "tests") {
            continue;
        }
        let text = fs::read_to_string(file).unwrap();
        let code = text.split("#[cfg(test)]").next().unwrap_or("");
        for (n, line) in code.lines().enumerate() {
            let line = line.split("//").next().unwrap_or("");
            if line.contains("StableHasher::new()") {
                found.push(format!("{rel}:{}", n + 1));
            }
        }
    }
    assert!(
        found.is_empty(),
        "a hand-fed `StableHasher`: key a study with `fingerprint_of` of a declared \
         inputs value instead (see ir_artifact::declare): {found:?}"
    );
}

#[test]
fn stable_hash_impl_matcher() {
    assert_eq!(
        stable_hash_impl("impl StableHash for Config {"),
        Some("Config")
    );
    assert_eq!(
        stable_hash_impl("impl<T: Copy> ir_artifact::StableHash for Wrapper<T> {}"),
        Some("Wrapper<T>")
    );
    assert_eq!(stable_hash_impl("// impl StableHash for Nothing"), None);
    assert_eq!(
        stable_hash_impl("ir_artifact::declare! { StableHash for struct Config { seed } }"),
        None
    );
    assert_eq!(stable_hash_impl("fn key<T: StableHash>(v: &T) {}"), None);
}

/// Workspace lints reach only the members that opt in, so a new crate
/// must say `[lints] workspace = true` to be fenced at all.
#[test]
fn every_package_opts_into_workspace_lints() {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).unwrap();
    let members = manifest
        .lines()
        .find_map(|l| l.trim().strip_prefix("members = "))
        .expect("root manifest lists its members on one line");
    let mut packages = vec![root().to_path_buf()];
    for member in members.trim_matches(['[', ']']).split(',') {
        let member = member.trim().trim_matches('"');
        match member.strip_suffix("/*") {
            Some(parent) => {
                for entry in fs::read_dir(root().join(parent)).unwrap() {
                    let dir = entry.unwrap().path();
                    if dir.join("Cargo.toml").is_file() {
                        packages.push(dir);
                    }
                }
            }
            None => packages.push(root().join(member)),
        }
    }
    assert!(packages.len() > 10, "{packages:?}");
    for dir in &packages {
        let text = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let lints = text
            .split("\n[")
            .find(|table| table.starts_with("lints]"))
            .unwrap_or("");
        assert!(
            lints
                .lines()
                .any(|l| l.replace(' ', "") == "workspace=true"),
            "{} has no `[lints] workspace = true`",
            dir.display()
        );
    }
}
