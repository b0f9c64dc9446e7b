//! [`StableHash`] impls for session parameter types.
//!
//! These encodings key the on-disk study cache (`ir-artifact`): they
//! must stay **pinned**. Each impl destructures its type exhaustively,
//! so adding a field is a compile error here — the fix is to extend the
//! encoding *and* bump the consuming artefact's code-version salt so
//! stale cache entries are retired rather than wrongly reused.

use crate::path::PathSpec;
use crate::session::{
    ControlMode, FailoverConfig, ProbeMode, RebalanceConfig, SessionConfig, SessionMode,
};
use ir_artifact::{StableHash, StableHasher};

impl StableHash for PathSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        let PathSpec {
            client,
            server,
            hop_len,
            hops,
        } = *self;
        client.0.stable_hash(h);
        server.0.stable_hash(h);
        // Only the live hops participate: the fill slots are a
        // representation detail, and hashing them would make the
        // fingerprint depend on MAX_HOPS.
        h.write_len(hop_len as usize);
        for hop in &hops[..hop_len as usize] {
            hop.0.stable_hash(h);
        }
    }
}

impl StableHash for ProbeMode {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_tag(match self {
            ProbeMode::FirstToFinish => 0,
            ProbeMode::MeasureAll => 1,
        });
    }
}

impl StableHash for ControlMode {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_tag(match self {
            ControlMode::Concurrent => 0,
            ControlMode::Forked => 1,
        });
    }
}

impl StableHash for FailoverConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        let FailoverConfig {
            stall_timeout,
            max_retries,
            initial_backoff,
        } = *self;
        stall_timeout.stable_hash(h);
        max_retries.stable_hash(h);
        initial_backoff.stable_hash(h);
    }
}

impl StableHash for RebalanceConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        let RebalanceConfig {
            drift_ratio,
            stall_window,
            alpha,
        } = *self;
        drift_ratio.stable_hash(h);
        stall_window.stable_hash(h);
        alpha.stable_hash(h);
    }
}

impl StableHash for SessionMode {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            SessionMode::Racing => h.write_tag(0),
            SessionMode::Striped {
                chunks,
                k,
                rebalance,
            } => {
                h.write_tag(1);
                chunks.stable_hash(h);
                k.stable_hash(h);
                rebalance.stable_hash(h);
            }
        }
    }
}

impl StableHash for SessionConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        let SessionConfig {
            probe_bytes,
            file_bytes,
            probe_mode,
            control,
            horizon,
            failover,
            engine,
            mode,
        } = *self;
        probe_bytes.stable_hash(h);
        file_bytes.stable_hash(h);
        probe_mode.stable_hash(h);
        control.stable_hash(h);
        horizon.stable_hash(h);
        failover.stable_hash(h);
        engine.stable_hash(h);
        mode.stable_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_artifact::fingerprint_of;

    #[test]
    fn session_config_fingerprint_tracks_every_knob() {
        let base = SessionConfig::paper_defaults();
        assert_eq!(
            fingerprint_of(&base),
            fingerprint_of(&SessionConfig::paper_defaults())
        );
        let mut failover = base;
        failover.failover = Some(FailoverConfig::paper_defaults());
        assert_ne!(fingerprint_of(&base), fingerprint_of(&failover));
        let mut mode = base;
        mode.probe_mode = ProbeMode::MeasureAll;
        assert_ne!(fingerprint_of(&base), fingerprint_of(&mode));
        let mut engine = base;
        engine.engine = crate::session::EngineMode::Reference;
        assert_ne!(fingerprint_of(&base), fingerprint_of(&engine));
        let striped = |chunks, k, rebalance| {
            let mut c = base;
            c.mode = SessionMode::Striped {
                chunks,
                k,
                rebalance,
            };
            c
        };
        let rb = RebalanceConfig::paper_defaults();
        assert_ne!(fingerprint_of(&base), fingerprint_of(&striped(8, 2, rb)));
        assert_ne!(
            fingerprint_of(&striped(8, 2, rb)),
            fingerprint_of(&striped(4, 2, rb))
        );
        assert_ne!(
            fingerprint_of(&striped(8, 2, rb)),
            fingerprint_of(&striped(8, 3, rb))
        );
        let mut drift = rb;
        drift.drift_ratio = 3.0;
        assert_ne!(
            fingerprint_of(&striped(8, 2, rb)),
            fingerprint_of(&striped(8, 2, drift))
        );
        let mut alpha = rb;
        alpha.alpha = 0.5;
        assert_ne!(
            fingerprint_of(&striped(8, 2, rb)),
            fingerprint_of(&striped(8, 2, alpha))
        );
    }
}
