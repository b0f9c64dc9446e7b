//! On-disk content-addressed cache.
//!
//! Entries live under one flat directory as `<fingerprint-hex>.bin`.
//! Each file carries a small header — magic, format version, payload
//! length, and an FNV-64 checksum — so a truncated, tampered, or
//! half-written entry is *detected* and reported as [`Lookup::Corrupt`]
//! rather than trusted. Writes go through a temp file in the same
//! directory followed by a rename, so concurrent readers only ever see
//! absent or complete entries.

use crate::hash::Fingerprint;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Header magic: "IRAC" (IR Artifact Cache).
const MAGIC: &[u8; 4] = b"IRAC";
/// On-disk format version; bump on layout changes.
const VERSION: u32 = 1;
/// magic + version + payload length + checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// FNV-1a 64 over the payload — the corruption check, not a security
/// boundary.
fn checksum(bytes: &[u8]) -> u64 {
    let mut state: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x100000001b3);
    }
    state
}

/// Result of a cache probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// Entry present and intact; the payload.
    Hit(Vec<u8>),
    /// No entry under this fingerprint.
    Miss,
    /// An entry exists but failed validation (bad magic/version/length/
    /// checksum). Callers recompute; [`ArtifactCache::put`] then
    /// replaces the bad entry.
    Corrupt,
}

/// What [`ArtifactCache::gc`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries scanned.
    pub scanned: usize,
    /// Corrupt entries removed.
    pub corrupt_removed: usize,
    /// Intact entries evicted (oldest-first) to satisfy the byte
    /// budget.
    pub evicted: usize,
    /// Total payload+header bytes remaining after the pass.
    pub bytes_after: u64,
}

/// A content-addressed cache directory.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    dir: PathBuf,
}

impl ArtifactCache {
    /// Opens (creating if needed) a cache at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ArtifactCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ArtifactCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: Fingerprint) -> PathBuf {
        self.dir.join(format!("{}.bin", key.to_hex()))
    }

    /// Probes the cache for `key`, validating the entry end to end.
    pub fn get(&self, key: Fingerprint) -> Lookup {
        let raw = match fs::read(self.entry_path(key)) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Miss,
            // Unreadable (permissions, I/O error) is indistinguishable
            // from damaged for our purposes: recompute.
            Err(_) => return Lookup::Corrupt,
        };
        if raw.len() < HEADER_LEN || &raw[..4] != MAGIC {
            return Lookup::Corrupt;
        }
        let version = u32::from_le_bytes(raw[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Lookup::Corrupt;
        }
        let len = u64::from_le_bytes(raw[8..16].try_into().expect("8 bytes")) as usize;
        let sum = u64::from_le_bytes(raw[16..24].try_into().expect("8 bytes"));
        let payload = &raw[HEADER_LEN..];
        if payload.len() != len || checksum(payload) != sum {
            return Lookup::Corrupt;
        }
        Lookup::Hit(payload.to_vec())
    }

    /// Stores `payload` under `key`, atomically replacing any existing
    /// (possibly corrupt) entry.
    pub fn put(&self, key: Fingerprint, payload: &[u8]) -> io::Result<()> {
        let final_path = self.entry_path(key);
        let tmp_path = self
            .dir
            .join(format!(".{}.{}.tmp", key.to_hex(), std::process::id()));
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(MAGIC)?;
            f.write_all(&VERSION.to_le_bytes())?;
            f.write_all(&(payload.len() as u64).to_le_bytes())?;
            f.write_all(&checksum(payload).to_le_bytes())?;
            f.write_all(payload)?;
            f.sync_all()?;
        }
        // Rename is atomic within a directory: readers see the old
        // entry, no entry, or the complete new one — never a torn file.
        let renamed = fs::rename(&tmp_path, &final_path);
        if renamed.is_err() {
            let _ = fs::remove_file(&tmp_path);
        }
        renamed
    }

    /// Removes the entry under `key`, if any.
    pub fn remove(&self, key: Fingerprint) -> io::Result<()> {
        match fs::remove_file(self.entry_path(key)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    /// All entry fingerprints currently on disk (unordered).
    pub fn keys(&self) -> io::Result<Vec<Fingerprint>> {
        let mut keys = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(hex) = name.strip_suffix(".bin") {
                if let Some(fp) = Fingerprint::from_hex(hex) {
                    keys.push(fp);
                }
            }
        }
        Ok(keys)
    }

    /// Total bytes held by entries (headers included).
    pub fn total_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for key in self.keys()? {
            if let Ok(md) = fs::metadata(self.entry_path(key)) {
                total += md.len();
            }
        }
        Ok(total)
    }

    /// Garbage collection: drops every corrupt entry, then — if the
    /// intact entries exceed `max_bytes` — evicts oldest-modified
    /// first until the cache fits. Stale temp files from crashed
    /// writers are removed too.
    #[expect(
        clippy::disallowed_types,
        reason = "cache GC orders eviction candidates by file mtime; mtimes never reach artefact bytes or fingerprints"
    )]
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        // (mtime, size, path) of intact entries.
        let mut intact: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            let path = entry.path();
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(&path);
                continue;
            }
            let Some(hex) = name.strip_suffix(".bin") else {
                continue;
            };
            let Some(fp) = Fingerprint::from_hex(hex) else {
                continue;
            };
            report.scanned += 1;
            match self.get(fp) {
                Lookup::Hit(_) => {
                    let md = entry.metadata()?;
                    let mtime = md.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                    intact.push((mtime, md.len(), path));
                }
                _ => {
                    let _ = fs::remove_file(&path);
                    report.corrupt_removed += 1;
                }
            }
        }
        let mut total: u64 = intact.iter().map(|(_, size, _)| size).sum();
        intact.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
        let mut victims = intact.into_iter();
        while total > max_bytes {
            let Some((_, size, path)) = victims.next() else {
                break;
            };
            let _ = fs::remove_file(&path);
            report.evicted += 1;
            total -= size;
        }
        report.bytes_after = total;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fingerprint_of;

    fn temp_cache(tag: &str) -> ArtifactCache {
        let dir =
            std::env::temp_dir().join(format!("ir_artifact_cache_{}_{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ArtifactCache::open(dir).unwrap()
    }

    #[test]
    fn round_trip_hit() {
        let cache = temp_cache("round");
        let key = fingerprint_of(&"k1");
        assert_eq!(cache.get(key), Lookup::Miss);
        cache.put(key, b"hello artefact").unwrap();
        assert_eq!(cache.get(key), Lookup::Hit(b"hello artefact".to_vec()));
        // Overwrite wins.
        cache.put(key, b"v2").unwrap();
        assert_eq!(cache.get(key), Lookup::Hit(b"v2".to_vec()));
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn truncation_and_tampering_detected() {
        let cache = temp_cache("corrupt");
        let key = fingerprint_of(&"k2");
        cache.put(key, b"payload bytes here").unwrap();
        let path = cache.dir().join(format!("{}.bin", key.to_hex()));

        // Truncate mid-payload.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert_eq!(cache.get(key), Lookup::Corrupt);

        // Flip a payload byte (length intact, checksum not).
        let mut flipped = full.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        fs::write(&path, &flipped).unwrap();
        assert_eq!(cache.get(key), Lookup::Corrupt);

        // Bad magic.
        let mut bad_magic = full.clone();
        bad_magic[0] = b'X';
        fs::write(&path, &bad_magic).unwrap();
        assert_eq!(cache.get(key), Lookup::Corrupt);

        // put() repairs.
        cache.put(key, b"payload bytes here").unwrap();
        assert_eq!(cache.get(key), Lookup::Hit(b"payload bytes here".to_vec()));
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn empty_payload_is_valid() {
        let cache = temp_cache("empty");
        let key = fingerprint_of(&"k3");
        cache.put(key, b"").unwrap();
        assert_eq!(cache.get(key), Lookup::Hit(Vec::new()));
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "cache GC orders eviction candidates by file mtime; mtimes never reach artefact bytes or fingerprints"
    )]
    fn gc_removes_corrupt_and_evicts_oldest() {
        let cache = temp_cache("gc");
        let keys: Vec<Fingerprint> = (0..4u64).map(|i| fingerprint_of(&("gc", i))).collect();
        for (i, &k) in keys.iter().enumerate() {
            cache.put(k, &[i as u8; 100]).unwrap();
        }
        // Make entry 0 older than the rest and entry 3 corrupt.
        let p0 = cache.dir().join(format!("{}.bin", keys[0].to_hex()));
        let old = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        let f = fs::File::options().append(true).open(&p0).unwrap();
        f.set_modified(old).unwrap();
        drop(f);
        let p3 = cache.dir().join(format!("{}.bin", keys[3].to_hex()));
        fs::write(&p3, b"garbage").unwrap();
        // Stale temp file from a crashed writer.
        fs::write(cache.dir().join(".deadbeef.123.tmp"), b"x").unwrap();

        // Budget fits two intact entries (header 24 + 100 payload each).
        let report = cache.gc(2 * 124).unwrap();
        assert_eq!(report.scanned, 4);
        assert_eq!(report.corrupt_removed, 1);
        assert_eq!(report.evicted, 1);
        assert_eq!(report.bytes_after, 2 * 124);
        // The oldest intact entry went; the two newest survive.
        assert_eq!(cache.get(keys[0]), Lookup::Miss);
        assert!(matches!(cache.get(keys[1]), Lookup::Hit(_)));
        assert!(matches!(cache.get(keys[2]), Lookup::Hit(_)));
        assert_eq!(cache.get(keys[3]), Lookup::Miss);
        assert!(!cache.dir().join(".deadbeef.123.tmp").exists());
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn keys_and_total_bytes() {
        let cache = temp_cache("keys");
        let a = fingerprint_of(&"a");
        let b = fingerprint_of(&"b");
        cache.put(a, &[1, 2, 3]).unwrap();
        cache.put(b, &[4]).unwrap();
        let mut keys = cache.keys().unwrap();
        keys.sort();
        let mut want = vec![a, b];
        want.sort();
        assert_eq!(keys, want);
        assert_eq!(cache.total_bytes().unwrap(), (24 + 3) + (24 + 1));
        fs::remove_dir_all(cache.dir()).unwrap();
    }
}
