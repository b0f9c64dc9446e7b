//! Dependency-aware sweep scheduler.
//!
//! A sweep is a two-layer DAG: **studies** (expensive simulations,
//! keyed by input fingerprint) feed **artefacts** (cheap renders of
//! figures/tables, keyed by their study fingerprints plus a
//! code-version salt). [`execute`] walks the artefact list in order
//! and guarantees:
//!
//! * an artefact whose bundle is cached never touches its studies;
//! * a study demanded by several artefacts **executes at most once**
//!   and fans its output out to every dependent (the seed-42 §2.2 run
//!   behind Fig 1 and Table I is the canonical case);
//! * study outputs and artefact bundles are written back to the cache
//!   so the *next* sweep skips them too;
//! * a corrupt or undecodable cache entry is recomputed — never
//!   trusted — and then overwritten with a good one.
//!
//! The scheduler is single-threaded by design: each study parallelises
//! internally over its (client, relay/k) tasks, so study-level
//! parallelism would only oversubscribe the worker pool while making
//! progress output nondeterministic.

use crate::cache::{ArtifactCache, Lookup};
use crate::codec::{self, ByteReader, ByteWriter, Codec};
use crate::hash::Fingerprint;
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A materialised study result, shared by every dependent artefact.
pub type StudyOutput = Arc<dyn Any + Send + Sync>;

/// Serializes a study output for the cache.
pub type StudyEncoder = Box<dyn Fn(&StudyOutput) -> Vec<u8>>;

/// Deserializes cached study bytes; `None` means "recompute".
pub type StudyDecoder = Box<dyn Fn(&[u8]) -> Option<StudyOutput>>;

/// One study: how to compute it and how to move it through the cache.
pub struct StudySpec {
    /// Display name, e.g. `"measurement(seed=2007,quick)"`.
    pub name: String,
    /// Structural fingerprint of every input that determines the
    /// output (parameters, seeds, fault plans, codec version salt).
    pub fingerprint: Fingerprint,
    /// Computes the study from scratch.
    pub run: Box<dyn FnOnce() -> StudyOutput>,
    /// Serializes the output for the cache.
    pub encode: StudyEncoder,
    /// Deserializes cached bytes; `None` means "recompute".
    pub decode: StudyDecoder,
}

impl StudySpec {
    /// A study whose output is a `T`, cached through `T`'s [`Codec`]
    /// frame.
    pub fn typed<T: Codec + Send + Sync + 'static>(
        name: String,
        fingerprint: Fingerprint,
        run: impl FnOnce() -> T + 'static,
    ) -> StudySpec {
        StudySpec {
            name,
            fingerprint,
            run: Box::new(move || Arc::new(run()) as StudyOutput),
            encode: Box::new(|out| {
                codec::encode(
                    out.downcast_ref::<T>()
                        .expect("study output of its declared type"),
                )
            }),
            decode: Box::new(|bytes| codec::decode::<T>(bytes).map(|v| Arc::new(v) as StudyOutput)),
        }
    }
}

/// What an artefact produces: the rendered report text, its
/// paper-vs-measured verdict, and the CSV/JSON files to write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtefactOutput {
    /// True iff every banded check passed.
    pub pass: bool,
    /// Rendered report (tables + check rows).
    pub text: String,
    /// `(file name, bytes)` pairs, e.g. `("fig1_histogram.csv", …)`.
    pub files: Vec<(String, Vec<u8>)>,
}

/// One artefact: the study fingerprints it consumes and its renderer.
pub struct ArtefactSpec {
    /// Artefact id, e.g. `"fig1"`.
    pub name: String,
    /// Cache key: hash of the dep fingerprints, the artefact name, and
    /// its code-version salt (bump the salt when render logic changes).
    pub fingerprint: Fingerprint,
    /// Fingerprints of the studies consumed, in the order `render`
    /// expects them.
    pub deps: Vec<Fingerprint>,
    /// Renders the artefact from its resolved study outputs.
    #[expect(
        clippy::type_complexity,
        reason = "boxed render closure; aliasing it would obscure the artefact contract"
    )]
    pub render: Box<dyn FnOnce(&[StudyOutput]) -> ArtefactOutput>,
}

/// How a node's result materialised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Served from an intact cache entry; nothing executed.
    CacheHit,
    /// Computed (cold cache, cache miss, or caching disabled).
    Computed,
    /// A cache entry existed but was corrupt/undecodable; recomputed
    /// and replaced.
    RecomputedCorrupt,
}

/// Outcome of one study the sweep actually needed.
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// Study name.
    pub name: String,
    /// The study's fingerprint.
    pub fingerprint: Fingerprint,
    /// Where the output came from.
    pub source: Source,
    /// Wall-clock time spent materialising it.
    pub wall: Duration,
}

/// Outcome of one artefact.
#[derive(Debug)]
pub struct ArtefactReport {
    /// Artefact id.
    pub name: String,
    /// The artefact's cache key.
    pub fingerprint: Fingerprint,
    /// Where the bundle came from.
    pub source: Source,
    /// Wall-clock time spent materialising it (excludes its studies;
    /// those are reported separately).
    pub wall: Duration,
    /// The rendered (or cache-restored) output.
    pub output: ArtefactOutput,
}

/// Everything [`execute`] did, for telemetry and gates.
#[derive(Debug, Default)]
pub struct ExecReport {
    /// Studies that were materialised (demanded by ≥ 1 missed
    /// artefact), in demand order. Studies whose every dependent hit
    /// the artefact cache never appear — they were not needed at all.
    pub studies: Vec<StudyReport>,
    /// Every artefact, in plan order.
    pub artefacts: Vec<ArtefactReport>,
    /// Intact cache entries served (studies + artefacts).
    pub cache_hits: u64,
    /// Lookups that found nothing.
    pub cache_misses: u64,
    /// Entries written back.
    pub cache_stores: u64,
    /// Corrupt/undecodable entries encountered (each also counts as a
    /// miss for hit-rate purposes).
    pub cache_corrupt: u64,
}

impl ExecReport {
    /// Studies actually executed (not served from cache).
    pub fn studies_executed(&self) -> u64 {
        self.studies
            .iter()
            .filter(|s| s.source != Source::CacheHit)
            .count() as u64
    }

    /// Artefacts served straight from the cache.
    pub fn artefact_hits(&self) -> u64 {
        self.artefacts
            .iter()
            .filter(|a| a.source == Source::CacheHit)
            .count() as u64
    }

    /// Cache hit rate over every lookup this sweep performed, in
    /// `[0, 1]`; 0 when no lookups happened (caching disabled).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses + self.cache_corrupt;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// True iff every artefact's checks passed.
    pub fn all_pass(&self) -> bool {
        self.artefacts.iter().all(|a| a.output.pass)
    }
}

/// Bundle frame magic: "IRAB" (IR Artifact Bundle).
const BUNDLE_MAGIC: u32 = u32::from_le_bytes(*b"IRAB");
/// Bundle frame version; bump on layout changes.
const BUNDLE_VERSION: u32 = 1;

/// Encodes an artefact bundle for the cache.
pub fn encode_bundle(out: &ArtefactOutput) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(BUNDLE_MAGIC);
    w.put_u32(BUNDLE_VERSION);
    w.put_bool(out.pass);
    w.put_str(&out.text);
    w.put_u64(out.files.len() as u64);
    for (name, bytes) in &out.files {
        w.put_str(name);
        w.put_bytes(bytes);
    }
    w.into_bytes()
}

/// Decodes an artefact bundle; `None` on any malformation.
pub fn decode_bundle(bytes: &[u8]) -> Option<ArtefactOutput> {
    let mut r = ByteReader::new(bytes);
    if r.get_u32()? != BUNDLE_MAGIC || r.get_u32()? != BUNDLE_VERSION {
        return None;
    }
    let pass = r.get_bool()?;
    let text = r.get_str()?;
    let n = r.get_u64()? as usize;
    let mut files = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        let name = r.get_str()?;
        let bytes = r.get_bytes()?;
        files.push((name, bytes));
    }
    if !r.is_exhausted() {
        return None;
    }
    Some(ArtefactOutput { pass, text, files })
}

/// Runs a sweep plan. `cache: None` disables caching entirely (every
/// study runs, every artefact renders — the cold cacheless baseline
/// warm runs must match byte for byte).
///
/// # Panics
///
/// Panics if an artefact depends on a fingerprint no [`StudySpec`]
/// provides — that is a plan-construction bug, not a runtime
/// condition.
#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock study/build durations are reporting-only fields, excluded from artefact hashing"
)]
pub fn execute(
    studies: Vec<StudySpec>,
    artefacts: Vec<ArtefactSpec>,
    cache: Option<&ArtifactCache>,
) -> ExecReport {
    let mut report = ExecReport::default();
    let mut specs: BTreeMap<Fingerprint, StudySpec> = BTreeMap::new();
    for spec in studies {
        // Two artefact declarations may legitimately contribute the
        // same study; first one wins, fingerprint equality guarantees
        // they are interchangeable.
        specs.entry(spec.fingerprint).or_insert(spec);
    }
    let mut materialised: BTreeMap<Fingerprint, StudyOutput> = BTreeMap::new();

    for artefact in artefacts {
        let t0 = Instant::now();
        // 1. Whole-artefact cache probe: a hit skips the studies too.
        let mut artefact_source = Source::Computed;
        if let Some(cache) = cache {
            match cache.get(artefact.fingerprint) {
                Lookup::Hit(bytes) => match decode_bundle(&bytes) {
                    Some(output) => {
                        report.cache_hits += 1;
                        report.artefacts.push(ArtefactReport {
                            name: artefact.name,
                            fingerprint: artefact.fingerprint,
                            source: Source::CacheHit,
                            wall: t0.elapsed(),
                            output,
                        });
                        continue;
                    }
                    None => {
                        report.cache_corrupt += 1;
                        artefact_source = Source::RecomputedCorrupt;
                    }
                },
                Lookup::Corrupt => {
                    report.cache_corrupt += 1;
                    artefact_source = Source::RecomputedCorrupt;
                }
                Lookup::Miss => {
                    report.cache_misses += 1;
                }
            }
        }

        // 2. Materialise the studies this artefact consumes (cache →
        //    memo → execute), sharing results across artefacts.
        let mut inputs: Vec<StudyOutput> = Vec::with_capacity(artefact.deps.len());
        for &dep in &artefact.deps {
            if let Some(out) = materialised.get(&dep) {
                inputs.push(Arc::clone(out));
                continue;
            }
            let spec = specs.remove(&dep).unwrap_or_else(|| {
                panic!(
                    "artefact {:?} depends on study {dep} which no StudySpec provides",
                    artefact.name
                )
            });
            let s0 = Instant::now();
            let mut source = Source::Computed;
            let mut output: Option<StudyOutput> = None;
            if let Some(cache) = cache {
                match cache.get(dep) {
                    Lookup::Hit(bytes) => match (spec.decode)(&bytes) {
                        Some(out) => {
                            report.cache_hits += 1;
                            source = Source::CacheHit;
                            output = Some(out);
                        }
                        None => {
                            report.cache_corrupt += 1;
                            source = Source::RecomputedCorrupt;
                        }
                    },
                    Lookup::Corrupt => {
                        report.cache_corrupt += 1;
                        source = Source::RecomputedCorrupt;
                    }
                    Lookup::Miss => {
                        report.cache_misses += 1;
                    }
                }
            }
            let output = match output {
                Some(out) => out,
                None => {
                    let out = (spec.run)();
                    if let Some(cache) = cache {
                        if cache.put(dep, &(spec.encode)(&out)).is_ok() {
                            report.cache_stores += 1;
                        }
                    }
                    out
                }
            };
            report.studies.push(StudyReport {
                name: spec.name,
                fingerprint: dep,
                source,
                wall: s0.elapsed(),
            });
            materialised.insert(dep, Arc::clone(&output));
            inputs.push(output);
        }

        // 3. Render and write back.
        let output = (artefact.render)(&inputs);
        if let Some(cache) = cache {
            if cache
                .put(artefact.fingerprint, &encode_bundle(&output))
                .is_ok()
            {
                report.cache_stores += 1;
            }
        }
        report.artefacts.push(ArtefactReport {
            name: artefact.name,
            fingerprint: artefact.fingerprint,
            source: artefact_source,
            wall: t0.elapsed(),
            output,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fingerprint_of;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_cache(tag: &str) -> ArtifactCache {
        let dir = std::env::temp_dir().join(format!("ir_dag_{}_{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::open(dir).unwrap()
    }

    /// A fake "study" producing a u64; `runs` counts real executions.
    fn study(tag: u64, runs: &Arc<AtomicUsize>) -> StudySpec {
        let runs = Arc::clone(runs);
        StudySpec::typed(
            format!("study{tag}"),
            fingerprint_of(&("study", tag)),
            move || {
                runs.fetch_add(1, Ordering::Relaxed);
                tag * 100
            },
        )
    }

    fn artefact(name: &str, salt: u64, dep: Fingerprint) -> ArtefactSpec {
        let owned = name.to_string();
        ArtefactSpec {
            name: owned.clone(),
            fingerprint: fingerprint_of(&(("artefact", name, salt), dep)),
            deps: vec![dep],
            render: Box::new(move |inputs| {
                let v = inputs[0].downcast_ref::<u64>().expect("u64 study");
                ArtefactOutput {
                    pass: true,
                    text: format!("{owned}: {v}"),
                    files: vec![(format!("{owned}.csv"), format!("v\n{v}\n").into_bytes())],
                }
            }),
        }
    }

    fn plan(runs: &Arc<AtomicUsize>) -> (Vec<StudySpec>, Vec<ArtefactSpec>) {
        let s1 = study(1, runs);
        let s2 = study(2, runs);
        let f1 = s1.fingerprint;
        let f2 = s2.fingerprint;
        (
            vec![s1, s2],
            vec![
                artefact("fig1", 1, f1),
                artefact("table1", 1, f1), // shares study 1
                artefact("fig6", 1, f2),
            ],
        )
    }

    #[test]
    fn shared_study_executes_once_without_cache() {
        let runs = Arc::new(AtomicUsize::new(0));
        let (studies, artefacts) = plan(&runs);
        let report = execute(studies, artefacts, None);
        // Two studies for three artefacts: dedup is observable.
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        assert_eq!(report.studies.len(), 2);
        assert_eq!(report.artefacts.len(), 3);
        assert!(report.studies.len() < report.artefacts.len());
        assert_eq!(report.cache_hits + report.cache_misses, 0);
        assert_eq!(report.artefacts[0].output.text, "fig1: 100");
        assert_eq!(report.artefacts[2].output.text, "fig6: 200");
        assert!(report.all_pass());
    }

    #[test]
    fn warm_cache_serves_everything_and_matches_cacheless_bytes() {
        let cache = temp_cache("warm");
        let runs = Arc::new(AtomicUsize::new(0));

        let (studies, artefacts) = plan(&runs);
        let cold = execute(studies, artefacts, Some(&cache));
        assert_eq!(cold.studies_executed(), 2);
        assert_eq!(cold.cache_misses, 5); // 3 artefacts + 2 studies
        assert_eq!(cold.cache_stores, 5);

        let (studies, artefacts) = plan(&runs);
        let warm = execute(studies, artefacts, Some(&cache));
        // 100% of studies and artefacts served from cache: no new runs,
        // no study even consulted (artefact-level hits short-circuit).
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        assert_eq!(warm.studies_executed(), 0);
        assert_eq!(warm.artefact_hits(), 3);
        assert_eq!(warm.cache_hits, 3);
        assert_eq!(warm.cache_misses + warm.cache_corrupt, 0);
        assert!((warm.hit_rate() - 1.0).abs() < 1e-12);

        // Byte-identical to a cold cacheless run.
        let (studies, artefacts) = plan(&runs);
        let cacheless = execute(studies, artefacts, None);
        for (w, c) in warm.artefacts.iter().zip(cacheless.artefacts.iter()) {
            assert_eq!(w.output, c.output);
        }
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn tampered_artefact_entry_is_recomputed_not_trusted() {
        let cache = temp_cache("tamper");
        let runs = Arc::new(AtomicUsize::new(0));
        let (studies, artefacts) = plan(&runs);
        let cold = execute(studies, artefacts, Some(&cache));
        let fig1_fp = cold.artefacts[0].fingerprint;

        // Truncate fig1's bundle on disk.
        let path = cache.dir().join(format!("{}.bin", fig1_fp.to_hex()));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let (studies, artefacts) = plan(&runs);
        let warm = execute(studies, artefacts, Some(&cache));
        assert_eq!(warm.cache_corrupt, 1);
        let fig1 = &warm.artefacts[0];
        assert_eq!(fig1.source, Source::RecomputedCorrupt);
        assert_eq!(fig1.output.text, "fig1: 100");
        // Its study came back from the study-level cache, not a rerun.
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        assert_eq!(warm.studies.len(), 1);
        assert_eq!(warm.studies[0].source, Source::CacheHit);
        // And the bad entry was replaced: a third pass is all hits.
        let (studies, artefacts) = plan(&runs);
        let third = execute(studies, artefacts, Some(&cache));
        assert_eq!(third.artefact_hits(), 3);
        assert_eq!(third.cache_corrupt, 0);
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn salt_bump_rerenders_but_reuses_cached_study() {
        let cache = temp_cache("salt");
        let runs = Arc::new(AtomicUsize::new(0));
        let (studies, artefacts) = plan(&runs);
        execute(studies, artefacts, Some(&cache));

        // fig1's render logic "changed": new salt, new fingerprint.
        let (studies, mut artefacts) = plan(&runs);
        let dep = artefacts[0].deps[0];
        artefacts[0] = artefact("fig1", 2, dep);
        let report = execute(studies, artefacts, Some(&cache));
        assert_eq!(report.artefacts[0].source, Source::Computed);
        assert_eq!(report.artefacts[1].source, Source::CacheHit);
        // The study itself was served from cache — still 2 total runs.
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        assert_eq!(report.studies.len(), 1);
        assert_eq!(report.studies[0].source, Source::CacheHit);
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn undecodable_study_bytes_recompute() {
        let cache = temp_cache("undecodable");
        let runs = Arc::new(AtomicUsize::new(0));
        let (studies, artefacts) = plan(&runs);
        let cold = execute(studies, artefacts, Some(&cache));
        let study_fp = cold.studies[0].fingerprint;

        // Overwrite the study entry with a VALID cache frame whose
        // payload the decoder rejects (7 bytes can't be a u64).
        cache.put(study_fp, &[1, 2, 3, 4, 5, 6, 7]).unwrap();
        // Invalidate dependents so the study is actually demanded.
        let (studies, mut artefacts) = plan(&runs);
        let dep0 = artefacts[0].deps[0];
        let dep2 = artefacts[2].deps[0];
        artefacts[0] = artefact("fig1", 9, dep0);
        artefacts[2] = artefact("fig6", 9, dep2);
        let report = execute(studies, artefacts, Some(&cache));
        assert_eq!(runs.load(Ordering::Relaxed), 3); // study 1 reran
        let s1 = report
            .studies
            .iter()
            .find(|s| s.fingerprint == study_fp)
            .unwrap();
        assert_eq!(s1.source, Source::RecomputedCorrupt);
        assert_eq!(report.artefacts[0].output.text, "fig1: 100");
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    #[should_panic(expected = "no StudySpec provides")]
    fn missing_study_spec_panics() {
        let fp = fingerprint_of(&"nowhere");
        execute(Vec::new(), vec![artefact("orphan", 1, fp)], None);
    }

    #[test]
    fn bundle_round_trip_and_rejection() {
        let out = ArtefactOutput {
            pass: false,
            text: "body".into(),
            files: vec![("a.csv".into(), vec![1, 2]), ("b.json".into(), vec![])],
        };
        let bytes = encode_bundle(&out);
        assert_eq!(decode_bundle(&bytes), Some(out));
        assert_eq!(decode_bundle(&bytes[..bytes.len() - 1]), None);
        assert_eq!(decode_bundle(b"IRABgarbage"), None);
        assert_eq!(decode_bundle(b""), None);
        // Trailing garbage rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(decode_bundle(&padded), None);
    }
}
