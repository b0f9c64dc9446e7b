//! `ir-bench` — the Criterion harness for the design-choice ablations.
//!
//! The one bench, `benches/ablations.rs`, sweeps probe size x,
//! selection policy and predictor; each prints its quality table once
//! to stderr and benches the runtime of the reference configuration
//! (EXPERIMENTS.md §Ablations). Timings of the substrate and of the
//! paper artefacts are `irbench`'s per-layer rows, not benches here.
