//! `ir-artifact` — content-addressed study cache and dependency-aware
//! sweep scheduler.
//!
//! The paper's artefacts form a small DAG over a handful of expensive
//! studies: Fig 1 and Table I both replay the §2.2 planetlab study,
//! Figs 4–6 all replay the §4 selection study. Recomputing the shared
//! study once per artefact — and throwing everything away between
//! invocations — is exactly the redundancy this crate removes:
//!
//! * [`hash`] — a **stable structural fingerprint**: a deterministic
//!   128-bit FNV-1a hash over study inputs ([`StableHash`] impls live
//!   next to the hashed types; every experiment parameter, seed, and a
//!   per-artefact code-version salt feed in). Unlike `std::hash`, the
//!   digest is pinned: it never varies across processes, platforms, or
//!   compiler versions, so it can key an on-disk cache.
//! * [`cache`] — an **on-disk content-addressed store** keyed by
//!   fingerprint, with atomic writes (temp file + rename), a
//!   length+checksum corruption header, and mtime-ordered eviction.
//! * [`codec`] — little-endian byte writer/reader pairs for the cached
//!   payloads (study outputs and artefact bundles), tied together per
//!   type by the [`Codec`] trait.
//! * [`declare!`](macro@declare) — the one field list per cached type
//!   that generates its `StableHash` impl and its `Codec` pair, so a
//!   skipped field or a lopsided encoder is a compile error.
//! * [`dag`] — the **dependency-aware scheduler**: artefacts declare
//!   the study fingerprints they consume; each distinct study executes
//!   at most once per sweep and fans out to every dependent; cache
//!   hits skip execution entirely while still reproducing artefact
//!   bytes exactly.
//!
//! The crate is deliberately dependency-free and knows nothing about
//! networks or figures: `ir-workload`/`ir-simnet`/`ir-core` provide
//! `StableHash` impls for their parameter types (each a `declare!`
//! next to the type), and `ir-experiments` builds the concrete sweep
//! plan.

pub mod cache;
pub mod codec;
pub mod dag;
pub mod declare;
pub mod hash;

pub use cache::{ArtifactCache, GcReport, Lookup};
pub use codec::{ByteReader, ByteWriter, Codec};
pub use dag::{
    execute, ArtefactOutput, ArtefactReport, ArtefactSpec, ExecReport, Source, StudyReport,
    StudySpec,
};
pub use hash::{fingerprint_of, Fingerprint, StableHash, StableHasher, Unframed};
