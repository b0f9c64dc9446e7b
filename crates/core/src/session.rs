//! Transfer-session orchestration: the paper's §2.1 protocol, written
//! once.
//!
//! One session = one experiment iteration:
//!
//! 1. The selector picks candidate paths (possibly none).
//! 2. A **control** transfer of the whole file starts on the direct
//!    path (the paper's second client process).
//! 3. The **selecting** process issues range probes for the first
//!    `x` bytes over the direct path and every candidate indirect path.
//! 4. The first probe to finish wins — its rate is the prediction —
//!    and the remaining `n − x` bytes are carried by one of the three
//!    [`crate::remainder`] phases:
//!    the winner's warm connection (the paper), the same with
//!    mid-transfer failover, or a stripe over every probed path.
//! 5. Improvement = selected-process throughput vs control throughput.
//!
//! There are two entry points: [`run_session`] (a [`PathSelector`]
//! chooses the paths) and [`run_paths_session`] (the caller names
//! them). Everything except step 4's remainder is shared by every
//! [`SessionMode`]. Steps 3–4 are [`run_selecting`], public so that a
//! real download can run them without the control measurement.

use crate::path::PathSpec;
use crate::policy::{PathCtx, PathSelector};
use crate::record::TransferRecord;
use crate::remainder::{
    run_remainder_failover, run_remainder_warm, run_striped_remainder, Remainder, StripeStats,
};
use crate::transport::{Handle, Transport};
pub use ir_simnet::sim::EngineMode;
use ir_simnet::time::{SimDuration, SimTime};
use ir_simnet::topology::NodeId;
use ir_telemetry::trace::{Event, EventKind};
use ir_telemetry::Tracer;

/// Mid-transfer failover parameters for the remainder phase.
///
/// The paper's protocol has no failure handling — a dead selected path
/// simply times out the whole session. With failover enabled, the
/// remainder phase watches for stalls: a window with zero delivered
/// bytes triggers retries on the same path (exponential backoff), and
/// exhausted retries trigger a switch to the best surviving candidate
/// (decided by a fresh probe race). Everything is recorded in the
/// [`TransferRecord`] (`failovers`, `stall_ms`, `abandoned`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverConfig {
    /// A remainder attempt that delivers zero bytes for this long is
    /// declared stalled.
    pub stall_timeout: SimDuration,
    /// Stalled-path retries (fresh connection, same path) before
    /// failing over to another candidate.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub initial_backoff: SimDuration,
}
ir_artifact::declare! {
    StableHash for struct FailoverConfig { stall_timeout, max_retries, initial_backoff }
}

impl FailoverConfig {
    /// Defaults used by the fault-plane experiments: 30 s stall window,
    /// 2 retries, 1 s initial backoff.
    pub fn paper_defaults() -> Self {
        FailoverConfig {
            stall_timeout: SimDuration::from_secs(30),
            max_retries: 2,
            initial_backoff: SimDuration::from_secs(1),
        }
    }

    /// Validates invariants.
    pub fn validate(&self) {
        assert!(!self.stall_timeout.is_zero(), "zero stall timeout");
        assert!(!self.initial_backoff.is_zero(), "zero backoff");
    }
}

/// Chunk-rebalancing parameters for [`SessionMode::Striped`].
///
/// The striped remainder keeps a per-path EWMA rate estimate seeded
/// from the probe race. A free path steals the
/// straggler chunk of a path whose observed rate has drifted below its
/// own by more than `drift_ratio`, and a path that delivers zero bytes
/// for a whole `stall_window` is declared dead and its chunk is
/// reassigned (the per-chunk generalization of [`FailoverConfig`]'s
/// stall→re-race machinery).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// A free path steals a straggler's remaining bytes only when its
    /// EWMA rate exceeds the straggler's observed rate by this factor.
    pub drift_ratio: f64,
    /// A chunk that delivers zero bytes for this long kills its path.
    pub stall_window: SimDuration,
    /// EWMA smoothing for per-path rate estimates (0 < alpha <= 1).
    pub alpha: f64,
}
ir_artifact::declare! { StableHash for struct RebalanceConfig { drift_ratio, stall_window, alpha } }

impl RebalanceConfig {
    /// Defaults used by the striping experiments: steal past 2× drift,
    /// 30 s stall window, EWMA alpha 0.3.
    pub fn paper_defaults() -> Self {
        RebalanceConfig {
            drift_ratio: 2.0,
            stall_window: SimDuration::from_secs(30),
            alpha: 0.3,
        }
    }

    /// Validates invariants.
    pub fn validate(&self) {
        assert!(
            self.drift_ratio.is_finite() && self.drift_ratio > 1.0,
            "drift ratio must exceed 1 ({})",
            self.drift_ratio
        );
        assert!(!self.stall_window.is_zero(), "zero stall window");
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "alpha out of (0, 1] ({})",
            self.alpha
        );
    }
}

/// How the selecting process carries the remainder after the probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionMode {
    /// The paper's protocol: the probe winner carries the whole
    /// remainder, winner-take-all (optionally watched by
    /// [`SessionConfig::failover`]).
    Racing,
    /// mHTTP-style multi-source striping: the remainder is partitioned
    /// into `chunks` ranges fetched concurrently over the direct path
    /// plus the best `k` indirect candidates, rebalanced per
    /// `rebalance`. With one chunk the record is bit-identical to
    /// [`SessionMode::Racing`] over the same (at most `k`) candidates
    /// on a healthy network.
    Striped {
        /// Ranges the remainder is split into (>= 1).
        chunks: u32,
        /// Indirect candidates striped over, capping the probe set
        /// (>= 1; [`PathSelector::best_k`] feeds this).
        k: u32,
        /// Straggler-steal and stall-death knobs.
        rebalance: RebalanceConfig,
    },
}
ir_artifact::declare! {
    StableHash for enum SessionMode { Racing = 0, Striped { chunks, k, rebalance } = 1 }
}

impl SessionMode {
    /// Validates invariants.
    pub fn validate(&self) {
        if let SessionMode::Striped {
            chunks,
            k,
            rebalance,
        } = self
        {
            assert!(*chunks >= 1, "zero chunks");
            assert!(*k >= 1, "zero stripe width");
            rebalance.validate();
        }
    }
}

/// Session parameters.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Probe size x (bytes). The paper uses 100 KB.
    pub probe_bytes: u64,
    /// File size n (bytes). The paper uses ≥ 2 MB.
    pub file_bytes: u64,
    /// Per-phase timeout.
    pub horizon: SimDuration,
    /// Mid-transfer failover for the racing remainder. `None` (the
    /// paper's protocol) keeps the original single-attempt behavior
    /// bit-for-bit. Must be `None` under [`SessionMode::Striped`],
    /// whose stall-death reassignment is its failover.
    pub failover: Option<FailoverConfig>,
    /// Fair-share engine the simulated transport runs sessions on.
    /// Both modes are bit-identical (enforced by the cross-engine
    /// differential suite); `Reference` is the slow oracle, for tests.
    pub engine: EngineMode,
    /// Remainder strategy, honoured by both entry points.
    pub mode: SessionMode,
}
ir_artifact::declare! {
    StableHash for struct SessionConfig {
        probe_bytes,
        file_bytes,
        horizon,
        failover,
        engine,
        mode,
    }
}

impl SessionConfig {
    /// The paper's defaults: x = 100 KB, n = 2 MB, 10-minute horizon,
    /// no failover.
    pub fn paper_defaults() -> Self {
        SessionConfig {
            probe_bytes: 100 * 1024,
            file_bytes: 2 * 1024 * 1024,
            horizon: SimDuration::from_secs(600),
            failover: None,
            engine: EngineMode::Incremental,
            mode: SessionMode::Racing,
        }
    }

    /// Validates invariants.
    pub fn validate(&self) {
        assert!(self.probe_bytes > 0, "zero probe");
        assert!(
            self.file_bytes > self.probe_bytes,
            "file must exceed the probe ({} <= {})",
            self.file_bytes,
            self.probe_bytes
        );
        assert!(!self.horizon.is_zero(), "zero horizon");
        if let Some(fo) = &self.failover {
            fo.validate();
        }
        self.mode.validate();
        assert!(
            self.failover.is_none() || self.mode == SessionMode::Racing,
            "failover is the racing remainder's; a striped session's failover is its \
             stall-death reassignment (RebalanceConfig.stall_window)"
        );
    }
}

/// What racing throws away and striping needs from the probe phase,
/// per roster path. Collected only under [`SessionMode::Striped`], so
/// a racing session issues no extra transport calls for it.
struct StripeSeed {
    /// When the probes launched (the losers' rate denominator).
    t_probe: SimTime,
    /// Initial rate estimate (0 = none).
    init: Vec<f64>,
    /// True where the probe finished and left a warm connection.
    warm: Vec<bool>,
}

/// What the probe phase decided.
pub struct ProbeDecision {
    /// Roster index of the winning path.
    pub winner: usize,
    /// The winner's measured probe rate.
    pub probe_rate: f64,
    /// Present iff the session is striped.
    stripe_seed: Option<StripeSeed>,
}

/// What the selecting process did with the file.
pub struct Selecting {
    /// The probe winner's measured rate (NaN: no probe decided).
    pub probe_throughput: f64,
    /// True when no probe finished inside the horizon.
    pub probe_timeout: bool,
    /// How the bytes after the probe were carried.
    pub remainder: Remainder,
    /// Chunk accounting; empty unless a striped remainder ran.
    pub stats: StripeStats,
    /// The path that won the probe race (`None`: no race ran, or it
    /// timed out).
    pub probe_winner: Option<PathSpec>,
}

/// What a session did that neither its record nor its [`StripeStats`]
/// carries: plain counts that [`run_session`] returns next to them, for
/// a caller that keeps metrics to fold in. A session writes no metrics
/// itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounts {
    /// Indirect paths the selector emitted: the probe overhead asked of
    /// the network.
    pub probe_paths: u64,
    /// Of those, paths the transport could not resolve, dropped before
    /// the race.
    pub unresolvable: u64,
    /// True when a probe race ran (some candidate path resolved).
    pub raced: bool,
    /// True when an indirect path won the probe race.
    pub switched: bool,
    /// Stall-triggered retries of the selected path (racing failover).
    pub stall_retries: u64,
    /// Wall time of the selecting process, probe start to last byte, µs.
    pub wall_us: u64,
}

/// Runs one session through a path selector: the selector-level entry
/// point.
///
/// Asks `selector` for the indirect paths to probe — its `best_k` under
/// [`SessionMode::Striped`] (the stripe width), `paths` otherwise —
/// runs [`run_paths_session`] over them, and feeds the record back to
/// the selector. Returns the record, the chunk accounting and the
/// session's [`SessionCounts`] (`probe_paths` is the selector's path
/// count). With a tracer the decision is a
/// [`EventKind::SelectionDecision`] span carrying the policy name and
/// path count.
///
/// Tracing is strictly observational — the result is identical with
/// `Some` or `None`.
pub fn run_session(
    transport: &mut dyn Transport,
    selector: &mut dyn PathSelector,
    ctx: &PathCtx<'_>,
    cfg: &SessionConfig,
    tracer: Option<&Tracer>,
) -> (TransferRecord, StripeStats, SessionCounts) {
    let t0 = transport.now();
    let paths = match cfg.mode {
        SessionMode::Racing => selector.paths(ctx),
        SessionMode::Striped { k, .. } => selector.best_k(ctx, k as usize),
    };
    let decided = transport.now();
    debug_assert!(
        paths.iter().all(|p| p.is_indirect()),
        "selector {} returned the direct path as a candidate",
        selector.name()
    );

    if let Some(tracer) = tracer {
        tracer.record(
            Event::span(
                EventKind::SelectionDecision,
                t0.as_micros(),
                decided.as_micros().saturating_sub(t0.as_micros()),
                ctx.transfer_index,
            )
            .with_str("policy", selector.name())
            .with_u64("paths", paths.len() as u64)
            .with_u64(
                "max_hops",
                paths.iter().map(|p| p.hop_count()).max().unwrap_or(0) as u64,
            ),
        );
    }

    let direct = PathSpec::direct(ctx.client, ctx.server);
    let out = session(transport, direct, &paths, ctx.transfer_index, cfg, tracer);
    selector.observe(&out.0);
    out
}

/// The probe phase of the selecting process (§2.1): starts a
/// `cfg.probe_bytes` probe on every one of `paths` at once (the direct
/// path first). The first probe to finish wins, its rate is the
/// prediction, and the losers are cancelled. `None` means nothing
/// finished inside the horizon; every probe has then been cancelled.
pub fn run_probe(
    transport: &mut dyn Transport,
    paths: &[PathSpec],
    transfer_index: u64,
    cfg: &SessionConfig,
    tracer: Option<&Tracer>,
) -> Option<ProbeDecision> {
    let handles: Vec<Handle> = paths
        .iter()
        .map(|p| transport.begin(p, 0, cfg.probe_bytes))
        .collect();
    if let Some(tracer) = tracer {
        tracer.record(
            Event::new(
                EventKind::ProbeStart,
                transport.now().as_micros(),
                transfer_index,
            )
            .with_u64("paths", handles.len() as u64)
            .with_u64("probe_bytes", cfg.probe_bytes),
        );
    }
    let mut stripe_seed = matches!(cfg.mode, SessionMode::Striped { .. }).then(|| StripeSeed {
        t_probe: transport.now(),
        init: vec![0.0; paths.len()],
        warm: vec![false; paths.len()],
    });
    let Some(win) = transport.race(&handles, cfg.horizon) else {
        for &h in &handles {
            transport.cancel(h);
        }
        return None;
    };
    let probe_rate = win.timing.throughput();
    if let Some(seed) = &mut stripe_seed {
        seed.init[win.index] = probe_rate;
        seed.warm[win.index] = true;
    }
    for (i, &h) in handles.iter().enumerate() {
        if i != win.index {
            // A loser's partial progress seeds its estimate (`now` and
            // `progress` are read-only).
            if let Some(seed) = &mut stripe_seed {
                let dt = (transport.now() - seed.t_probe).as_secs_f64();
                if dt > 0.0 {
                    seed.init[i] = transport.progress(h) as f64 / dt;
                }
            }
            transport.cancel(h);
        }
    }
    Some(ProbeDecision {
        winner: win.index,
        probe_rate,
        stripe_seed,
    })
}

/// The selecting process of §2.1–2.2, without its control: probes
/// `direct` and every one of `candidate_paths` (resolvable, at most the
/// stripe width), then carries the remainder per `cfg.mode` and
/// `cfg.failover`. With no candidates, or when the probe phase times
/// out, the whole file goes direct. [`run_paths_session`] is this
/// between a control start and a control collect; a real download
/// calls it alone. `cfg` must be valid ([`SessionConfig::validate`]).
pub fn run_selecting(
    transport: &mut dyn Transport,
    direct: PathSpec,
    candidate_paths: &[PathSpec],
    transfer_index: u64,
    cfg: &SessionConfig,
    tracer: Option<&Tracer>,
) -> Selecting {
    let mut stats = StripeStats::default();
    let mut probe_winner = None;
    let (probe_throughput, probe_timeout, remainder) = if candidate_paths.is_empty() {
        // Direct-only: no probe phase; the whole file goes direct.
        let h = transport.begin(&direct, 0, cfg.file_bytes);
        let t = transport.finish(h, cfg.horizon);
        let rate = t.map(|t| t.throughput()).unwrap_or(f64::NAN);
        (
            f64::NAN,
            false,
            Remainder::single(direct, t.is_some(), rate),
        )
    } else {
        let paths: Vec<PathSpec> = std::iter::once(direct)
            .chain(candidate_paths.iter().copied())
            .collect();
        match run_probe(transport, &paths, transfer_index, cfg, tracer) {
            Some(probe) => {
                let path = paths[probe.winner];
                probe_winner = Some(path);
                if let Some(tracer) = tracer {
                    let now_us = transport.now().as_micros();
                    let mut won = Event::new(EventKind::ProbeWon, now_us, transfer_index)
                        .with_str(
                            "path",
                            if path.is_indirect() {
                                "indirect"
                            } else {
                                "direct"
                            },
                        )
                        .with_f64("probe_rate", probe.probe_rate);
                    if let Some(via) = path.via() {
                        won = won.with_u64("via", via.0 as u64);
                    }
                    tracer.record(won);
                    if let Some(via) = path.via() {
                        tracer.record(
                            Event::new(EventKind::PathSwitch, now_us, transfer_index)
                                .with_u64("via", via.0 as u64),
                        );
                    }
                }
                // What varies between sessions is only how the
                // remainder is carried.
                let rem = match (cfg.mode, cfg.failover) {
                    (SessionMode::Racing, None) => run_remainder_warm(transport, path, cfg),
                    (SessionMode::Racing, Some(fo)) => run_remainder_failover(
                        transport,
                        path,
                        &paths,
                        cfg,
                        &fo,
                        transfer_index,
                        tracer,
                    ),
                    (
                        SessionMode::Striped {
                            chunks, rebalance, ..
                        },
                        _,
                    ) => {
                        let seed = probe.stripe_seed.expect("collected under Striped");
                        let (rem, st) = run_striped_remainder(
                            transport,
                            &paths,
                            probe.winner,
                            &seed.init,
                            &seed.warm,
                            chunks,
                            &rebalance,
                            cfg,
                            transfer_index,
                            tracer,
                        );
                        stats = st;
                        rem
                    }
                };
                (probe.probe_rate, false, rem)
            }
            None => {
                // Probe race timed out entirely; fall back to a direct
                // transfer of the whole file.
                if let Some(tracer) = tracer {
                    let now_us = transport.now().as_micros();
                    tracer.record(Event::new(EventKind::ProbeTimeout, now_us, transfer_index));
                    tracer.record(
                        Event::new(EventKind::Retry, now_us, transfer_index)
                            .with_str("fallback", "direct"),
                    );
                }
                let h = transport.begin(&direct, 0, cfg.file_bytes);
                let ok = transport.finish(h, cfg.horizon).is_some();
                (f64::NAN, true, Remainder::single(direct, ok, f64::NAN))
            }
        }
    };
    Selecting {
        probe_throughput,
        probe_timeout,
        remainder,
        stats,
        probe_winner,
    }
}

/// The session runner, path-level entry point: races `direct` (which
/// names the client and the server) against an explicit, ordered list
/// of indirect candidate paths (1-hop or multi-hop chains), then
/// carries the remainder per `cfg.mode` and `cfg.failover`. Callers
/// without a topology to select over — real sockets — enter here;
/// [`run_session`] is this plus a [`PathSelector`] in front.
///
/// The record's `candidates` are the distinct first hops of
/// `indirect_paths`, in probe order (the paper's "random set"
/// bookkeeping). Paths the transport cannot resolve are dropped from
/// the race — counted in [`SessionCounts::unresolvable`] and traced per
/// path — rather than silently skipped or panicked on; under
/// [`SessionMode::Striped`] the survivors are capped at the stripe
/// width `k`, since the probe set *is* the stripe set.
///
/// The returned [`StripeStats`] are empty unless a striped remainder
/// ran. Tracing is strictly observational: with `None` nothing is
/// emitted and the result is identical.
pub fn run_paths_session(
    transport: &mut dyn Transport,
    direct: PathSpec,
    indirect_paths: &[PathSpec],
    transfer_index: u64,
    cfg: &SessionConfig,
    tracer: Option<&Tracer>,
) -> (TransferRecord, StripeStats) {
    let (record, stats, _) = session(
        transport,
        direct,
        indirect_paths,
        transfer_index,
        cfg,
        tracer,
    );
    (record, stats)
}

/// [`run_paths_session`], with the session's [`SessionCounts`].
fn session(
    transport: &mut dyn Transport,
    direct: PathSpec,
    indirect_paths: &[PathSpec],
    transfer_index: u64,
    cfg: &SessionConfig,
    tracer: Option<&Tracer>,
) -> (TransferRecord, StripeStats, SessionCounts) {
    cfg.validate();
    assert!(!direct.is_indirect(), "{direct} is not a direct path");
    let (client, server) = (direct.client, direct.server);
    let t0 = transport.now();
    if let Some(tracer) = tracer {
        tracer.record(
            Event::new(EventKind::SessionStart, t0.as_micros(), transfer_index)
                .with_u64("client", client.0 as u64)
                .with_u64("server", server.0 as u64)
                .with_u64("candidates", indirect_paths.len() as u64),
        );
    }

    // First hops, deduped in probe order: the relay-plane view of the
    // decision, used for utilization accounting and reports.
    let mut candidates: Vec<NodeId> = Vec::with_capacity(indirect_paths.len());
    for via in indirect_paths.iter().filter_map(|p| p.via()) {
        if !candidates.contains(&via) {
            candidates.push(via);
        }
    }

    // Drop candidate paths the transport cannot carry (missing links).
    // The paper's 1-hop star always resolves; multi-hop chains from
    // generative policies may not, and a silent skip would corrupt the
    // probe-overhead accounting of tournament runs.
    let mut candidate_paths: Vec<PathSpec> = indirect_paths
        .iter()
        .filter(|p| {
            let ok = transport.resolvable(p);
            if !ok {
                if let Some(tracer) = tracer {
                    tracer.record(
                        Event::new(
                            EventKind::PathUnresolvable,
                            transport.now().as_micros(),
                            transfer_index,
                        )
                        .with_str("path", p.to_string()),
                    );
                }
            }
            ok
        })
        .copied()
        .collect();
    let unresolvable = (indirect_paths.len() - candidate_paths.len()) as u64;
    if let SessionMode::Striped { k, .. } = cfg.mode {
        candidate_paths.truncate(k as usize);
    }

    // Control process: the whole file on the direct path, sharing the
    // network with the selecting process (§2.2: "Both client processes
    // execute concurrently").
    let control = transport.begin(&direct, 0, cfg.file_bytes);

    let sel = run_selecting(
        transport,
        direct,
        &candidate_paths,
        transfer_index,
        cfg,
        tracer,
    );
    let rem = sel.remainder;

    // The selecting process's end-to-end throughput: whole file over
    // wall time since t0 (probe + decision + remainder). When the final
    // phase timed out, credit only what the horizon allowed — a
    // throughput of ~0 rather than a fabricated number.
    let t_end = transport.now();
    let wall = (t_end - t0).as_secs_f64();
    let selected_throughput = if rem.finished && wall > 0.0 {
        cfg.file_bytes as f64 / wall
    } else {
        0.0
    };

    // Collect the control result. Give it the same total horizon the
    // selecting process had (generous: two phases).
    let control_horizon = SimDuration::from_micros(cfg.horizon.as_micros() * 2);
    let direct_throughput = transport
        .finish(control, control_horizon)
        .map(|t| t.throughput())
        .unwrap_or(0.0);

    let record = TransferRecord {
        client,
        server,
        started: t0,
        file_bytes: cfg.file_bytes,
        selected: rem.path,
        candidates,
        direct_throughput,
        selected_throughput,
        probe_throughput: sel.probe_throughput,
        selected_path_rate: rem.rate,
        probe_timeout: sel.probe_timeout,
        failovers: rem.failovers,
        stall_ms: rem.stall_ms,
        abandoned: rem.abandoned,
    };
    let counts = SessionCounts {
        probe_paths: indirect_paths.len() as u64,
        unresolvable,
        raced: !candidate_paths.is_empty(),
        switched: sel.probe_winner.is_some_and(|p| p.is_indirect()),
        stall_retries: u64::from(rem.stall_retries),
        wall_us: (t_end - t0).as_micros(),
    };
    if let Some(tracer) = tracer {
        tracer.record(
            Event::span(
                EventKind::SessionComplete,
                t0.as_micros(),
                counts.wall_us,
                transfer_index,
            )
            .with_f64("improvement", record.improvement())
            .with_f64("direct_bps", record.direct_throughput)
            .with_f64("selected_bps", record.selected_throughput),
        );
    }
    (record, sel.stats, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DirectOnly, RandomSet, StaticSingle};
    use crate::sim_transport::SimTransport;
    use ir_artifact::fingerprint_of;
    use ir_simnet::bandwidth::ConstantProcess;
    use ir_simnet::sim::Network;
    use ir_simnet::topology::{NodeKind, Topology};

    #[test]
    fn session_config_fingerprint_tracks_every_knob() {
        let base = SessionConfig::paper_defaults();
        assert_eq!(
            fingerprint_of(&base),
            fingerprint_of(&SessionConfig::paper_defaults())
        );
        // One variant per field; `mode`'s own fields follow below.
        let variants = [
            SessionConfig {
                probe_bytes: 50 * 1024,
                ..base
            },
            SessionConfig {
                file_bytes: 4 * 1024 * 1024,
                ..base
            },
            SessionConfig {
                horizon: SimDuration::from_secs(1200),
                ..base
            },
            SessionConfig {
                failover: Some(FailoverConfig::paper_defaults()),
                ..base
            },
            SessionConfig {
                engine: EngineMode::Reference,
                ..base
            },
            SessionConfig {
                mode: SessionMode::Striped {
                    chunks: 8,
                    k: 2,
                    rebalance: RebalanceConfig::paper_defaults(),
                },
                ..base
            },
        ];
        for (i, variant) in variants.iter().enumerate() {
            assert_ne!(fingerprint_of(&base), fingerprint_of(variant), "field {i}");
        }
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

    /// A 3-node world where the indirect path is `factor`× the direct
    /// path's rate.
    fn world(direct_rate: f64, overlay_rate: f64) -> (SimTransport, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let c = t.add_node("client", NodeKind::Client);
        let v = t.add_node("relay", NodeKind::Intermediate);
        let s = t.add_node("server", NodeKind::Server);
        let l_cs = t.add_link(c, s, SimDuration::from_millis(80));
        let l_cv = t.add_link(c, v, SimDuration::from_millis(50));
        let l_vs = t.add_link(v, s, SimDuration::from_millis(15));
        let mut net = Network::new(t, 1.0);
        net.set_link_process(l_cs, Box::new(ConstantProcess::new(direct_rate)));
        net.set_link_process(l_cv, Box::new(ConstantProcess::new(overlay_rate)));
        net.set_link_process(l_vs, Box::new(ConstantProcess::new(50e6)));
        (SimTransport::new(net), c, v, s)
    }

    /// One session through the selector-level entry: transfer `index`
    /// between `ends` = (client, server).
    fn run_at(
        tp: &mut SimTransport,
        selector: &mut dyn PathSelector,
        ends: (NodeId, NodeId),
        full: &[NodeId],
        index: u64,
        cfg: &SessionConfig,
        tracer: Option<&Tracer>,
    ) -> (TransferRecord, SessionCounts) {
        let topo = tp.network().topology().clone();
        let ctx = PathCtx {
            client: ends.0,
            server: ends.1,
            relays: full,
            topo: &topo,
            transfer_index: index,
        };
        let (record, _, counts) = run_session(tp, selector, &ctx, cfg, tracer);
        (record, counts)
    }

    fn run(
        tp: &mut SimTransport,
        selector: &mut dyn PathSelector,
        c: NodeId,
        s: NodeId,
        full: &[NodeId],
        cfg: &SessionConfig,
    ) -> TransferRecord {
        run_at(tp, selector, (c, s), full, 0, cfg, None).0
    }

    #[test]
    fn fast_indirect_path_gets_selected_and_improves() {
        let (mut tp, c, v, s) = world(100_000.0, 800_000.0);
        let cfg = SessionConfig::paper_defaults();
        let rec = run(&mut tp, &mut StaticSingle(v), c, s, &[v], &cfg);
        assert!(rec.chose_indirect(), "should pick the relay");
        assert!(
            rec.improvement() > 0.5,
            "expected big improvement, got {}",
            rec.improvement()
        );
        assert!(!rec.probe_timeout);
        assert!(rec.probe_throughput > 100_000.0);
    }

    #[test]
    fn slow_indirect_path_not_selected() {
        let (mut tp, c, v, s) = world(800_000.0, 50_000.0);
        let cfg = SessionConfig::paper_defaults();
        let rec = run(&mut tp, &mut StaticSingle(v), c, s, &[v], &cfg);
        assert!(!rec.chose_indirect(), "direct should win the race");
        // Improvement ~0 modulo probe overhead and shared-access
        // contention; certainly not a huge gain or catastrophic loss.
        assert!(rec.improvement().abs() < 0.5, "{}", rec.improvement());
    }

    #[test]
    fn direct_only_policy_improvement_near_zero() {
        let (mut tp, c, _, s) = world(300_000.0, 1_000.0);
        let cfg = SessionConfig::paper_defaults();
        let rec = run(&mut tp, &mut DirectOnly, c, s, &[], &cfg);
        assert!(!rec.chose_indirect());
        // Both processes download the same file on the same path
        // concurrently → equal throughput → improvement ≈ 0.
        assert!(rec.improvement().abs() < 0.05, "{}", rec.improvement());
        assert!(rec.probe_throughput.is_nan());
    }

    #[test]
    fn probe_timeout_falls_back_to_direct() {
        let (mut tp, c, v, s) = world(
            ir_simnet::bandwidth::MIN_RATE,
            ir_simnet::bandwidth::MIN_RATE,
        );
        let mut cfg = SessionConfig::paper_defaults();
        cfg.horizon = SimDuration::from_secs(5);
        let rec = run(&mut tp, &mut StaticSingle(v), c, s, &[v], &cfg);
        assert!(rec.probe_timeout);
        assert!(!rec.chose_indirect());
        assert_eq!(rec.selected_throughput, 0.0);
    }

    #[test]
    fn record_carries_candidates() {
        let (mut tp, c, v, s) = world(100_000.0, 500_000.0);
        let cfg = SessionConfig::paper_defaults();
        let rec = run(&mut tp, &mut StaticSingle(v), c, s, &[v], &cfg);
        assert_eq!(rec.candidates, vec![v]);
        assert_eq!(rec.file_bytes, cfg.file_bytes);
    }

    #[test]
    fn traced_session_is_bit_identical_and_emits_events() {
        let (mut tp1, c1, v1, s1) = world(100_000.0, 800_000.0);
        let cfg = SessionConfig::paper_defaults();
        let plain = run_at(
            &mut tp1,
            &mut StaticSingle(v1),
            (c1, s1),
            &[v1],
            0,
            &cfg,
            None,
        );

        let (mut tp2, c2, v2, s2) = world(100_000.0, 800_000.0);
        let tracer = Tracer::default();
        let traced = run_at(
            &mut tp2,
            &mut StaticSingle(v2),
            (c2, s2),
            &[v2],
            0,
            &cfg,
            Some(&tracer),
        );
        assert_eq!(plain, traced, "tracing changed the record or its counts");

        let kinds: Vec<EventKind> = tracer.snapshot().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::SessionStart));
        assert!(kinds.contains(&EventKind::ProbeStart));
        assert!(kinds.contains(&EventKind::ProbeWon));
        assert!(
            kinds.contains(&EventKind::PathSwitch),
            "indirect won → switch"
        );
        assert!(kinds.contains(&EventKind::SessionComplete));
        let counts = traced.1;
        assert!(counts.raced && counts.switched, "{counts:?}");
        assert_eq!((counts.probe_paths, counts.unresolvable), (1, 0));
        assert!(counts.wall_us > 0);
    }

    #[test]
    fn traced_probe_timeout_emits_retry() {
        let (mut tp, c, v, s) = world(
            ir_simnet::bandwidth::MIN_RATE,
            ir_simnet::bandwidth::MIN_RATE,
        );
        let mut cfg = SessionConfig::paper_defaults();
        cfg.horizon = SimDuration::from_secs(5);
        let tracer = Tracer::default();
        let (rec, counts) = run_at(
            &mut tp,
            &mut StaticSingle(v),
            (c, s),
            &[v],
            3,
            &cfg,
            Some(&tracer),
        );
        assert!(rec.probe_timeout);
        assert!(counts.raced && !counts.switched, "{counts:?}");
        let kinds: Vec<EventKind> = tracer.snapshot().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::ProbeTimeout));
        assert!(kinds.contains(&EventKind::Retry));
    }

    #[test]
    #[should_panic(expected = "file must exceed the probe")]
    fn config_validation() {
        let mut cfg = SessionConfig::paper_defaults();
        cfg.file_bytes = cfg.probe_bytes;
        cfg.validate();
    }

    /// A striped session would drop a `FailoverConfig` without a word;
    /// the combination is rejected instead, naming the striped
    /// equivalent.
    #[test]
    #[should_panic(expected = "stall-death reassignment (RebalanceConfig.stall_window)")]
    fn striped_with_failover_is_rejected() {
        let mut cfg = SessionConfig::paper_defaults();
        cfg.mode = SessionMode::Striped {
            chunks: 4,
            k: 1,
            rebalance: RebalanceConfig::paper_defaults(),
        };
        cfg.failover = Some(FailoverConfig::paper_defaults());
        cfg.validate();
    }

    /// The selector-level entry returns each decision's path count and
    /// traces one `SelectionDecision` span per session.
    #[test]
    fn decision_telemetry_is_emitted_per_policy() {
        let (mut tp, c, v, s) = world(100_000.0, 400_000.0);
        let mut sel = RandomSet::new(2, 9);
        let tracer = Tracer::default();
        let cfg = SessionConfig::paper_defaults();
        let mut probe_paths = 0;
        for k in 0..3 {
            let (_, counts) = run_at(&mut tp, &mut sel, (c, s), &[v], k, &cfg, Some(&tracer));
            probe_paths += counts.probe_paths;
        }
        assert_eq!(probe_paths, 3);
        let decisions = tracer
            .snapshot()
            .iter()
            .filter(|e| e.kind == EventKind::SelectionDecision)
            .count();
        assert_eq!(decisions, 3);
    }

    /// Like [`world`], but with a fault plan installed. The closure
    /// receives (direct link, client→relay link).
    fn faulty_world(
        direct_rate: f64,
        overlay_rate: f64,
        plan: impl FnOnce(
            ir_simnet::topology::LinkId,
            ir_simnet::topology::LinkId,
        ) -> ir_simnet::faults::FaultPlan,
    ) -> (SimTransport, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let c = t.add_node("client", NodeKind::Client);
        let v = t.add_node("relay", NodeKind::Intermediate);
        let s = t.add_node("server", NodeKind::Server);
        let l_cs = t.add_link(c, s, SimDuration::from_millis(80));
        let l_cv = t.add_link(c, v, SimDuration::from_millis(50));
        let l_vs = t.add_link(v, s, SimDuration::from_millis(15));
        let mut net = Network::new(t, 1.0);
        net.set_link_process(l_cs, Box::new(ConstantProcess::new(direct_rate)));
        net.set_link_process(l_cv, Box::new(ConstantProcess::new(overlay_rate)));
        net.set_link_process(l_vs, Box::new(ConstantProcess::new(50e6)));
        net.set_fault_plan(&plan(l_cs, l_cv));
        (SimTransport::new(net), c, v, s)
    }

    fn quick_failover() -> FailoverConfig {
        FailoverConfig {
            stall_timeout: SimDuration::from_secs(5),
            max_retries: 1,
            initial_backoff: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn failover_recovers_from_mid_transfer_outage() {
        use ir_simnet::faults::FaultPlan;
        use ir_simnet::time::SimTime;
        // Overlay wins the probe (300 KB/s vs 100 KB/s), then its
        // uplink dies at t = 5 s, mid-remainder, and stays dead.
        let (mut tp, c, v, s) = faulty_world(100_000.0, 300_000.0, |_cs, cv| {
            FaultPlan::default().link_outage(cv, SimTime::from_secs(5), SimTime::from_secs(600))
        });
        let mut cfg = SessionConfig::paper_defaults();
        cfg.failover = Some(quick_failover());
        let rec = run(&mut tp, &mut StaticSingle(v), c, s, &[v], &cfg);
        assert!(!rec.abandoned, "direct path survived");
        assert_eq!(rec.failovers, 1, "one switch overlay → direct");
        assert!(!rec.chose_indirect(), "final path is the direct one");
        assert!(rec.stall_ms > 0, "stall windows + backoff were paid");
        assert!(
            rec.selected_throughput > 0.0,
            "transfer completed despite the outage"
        );
    }

    #[test]
    fn failover_abandons_when_nothing_survives() {
        use ir_simnet::faults::FaultPlan;
        use ir_simnet::time::SimTime;
        // Both paths die at t = 5 s and never come back.
        let (mut tp, c, v, s) = faulty_world(100_000.0, 300_000.0, |cs, cv| {
            FaultPlan::default()
                .link_outage(cs, SimTime::from_secs(5), SimTime::from_secs(10_000))
                .link_outage(cv, SimTime::from_secs(5), SimTime::from_secs(10_000))
        });
        let mut cfg = SessionConfig::paper_defaults();
        cfg.horizon = SimDuration::from_secs(60);
        cfg.failover = Some(quick_failover());
        let rec = run(&mut tp, &mut StaticSingle(v), c, s, &[v], &cfg);
        assert!(rec.abandoned);
        assert!(rec.failovers >= 1);
        assert_eq!(rec.selected_throughput, 0.0, "no fabricated throughput");
        assert_eq!(rec.direct_throughput, 0.0, "control died too");
    }

    #[test]
    fn benign_failover_config_is_a_noop() {
        // On a healthy network a failover-enabled session must produce
        // the identical record: first finish window succeeds, rate math
        // reduces to the single-attempt formula.
        let (mut tp1, c1, v1, s1) = world(100_000.0, 800_000.0);
        let plain = run(
            &mut tp1,
            &mut StaticSingle(v1),
            c1,
            s1,
            &[v1],
            &SessionConfig::paper_defaults(),
        );

        let (mut tp2, c2, v2, s2) = world(100_000.0, 800_000.0);
        let mut cfg = SessionConfig::paper_defaults();
        cfg.failover = Some(FailoverConfig::paper_defaults());
        let with_failover = run(&mut tp2, &mut StaticSingle(v2), c2, s2, &[v2], &cfg);

        assert_eq!(plain, with_failover, "failover changed a healthy run");
        assert_eq!(with_failover.failovers, 0);
        assert_eq!(with_failover.stall_ms, 0);
        assert!(!with_failover.abandoned);
    }

    #[test]
    fn traced_failover_emits_path_failover_event() {
        use ir_simnet::faults::FaultPlan;
        use ir_simnet::time::SimTime;
        let (mut tp, c, v, s) = faulty_world(100_000.0, 300_000.0, |_cs, cv| {
            FaultPlan::default().link_outage(cv, SimTime::from_secs(5), SimTime::from_secs(600))
        });
        let mut cfg = SessionConfig::paper_defaults();
        cfg.failover = Some(quick_failover());
        let tel = std::sync::Arc::new(ir_telemetry::Telemetry::new());
        tp.network_mut().set_telemetry(Some(tel.clone()));
        let (rec, counts) = run_at(
            &mut tp,
            &mut StaticSingle(v),
            (c, s),
            &[v],
            7,
            &cfg,
            tel.tracer.as_ref(),
        );
        assert_eq!(rec.failovers, 1);
        assert!(!rec.abandoned);
        assert_eq!(counts.stall_retries, 1);
        let events = tel.tracer.as_ref().unwrap().snapshot();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::PathFailover));
        assert!(
            kinds.contains(&EventKind::FaultInjected),
            "simnet fault events also land in the same trace"
        );
    }

    /// An unresolvable candidate path is dropped from the race, counted
    /// in `SessionCounts::unresolvable`, and traced — never silently
    /// skipped, and never fatal to the session.
    #[test]
    fn unresolvable_path_is_counted_traced_and_dropped() {
        let (mut tp, c, v, s) = world(100_000.0, 300_000.0);
        // NodeId(9) does not exist in the 3-node world, so a chain
        // through it has no links to map onto.
        let ghost = NodeId(9);
        let paths = vec![
            PathSpec::chain(c, s, &[ghost]),
            PathSpec::chain(c, s, &[v, ghost]),
            PathSpec::indirect(c, s, v),
        ];
        let tracer = Tracer::default();
        let (rec, _, counts) = session(
            &mut tp,
            PathSpec::direct(c, s),
            &paths,
            0,
            &SessionConfig::paper_defaults(),
            Some(&tracer),
        );
        assert_eq!(rec.candidates, vec![ghost, v], "distinct first hops");
        // The resolvable indirect path still raced (and, being 3×
        // direct, won).
        assert!(rec.chose_indirect());
        assert_eq!(rec.selected.via(), Some(v));
        assert_eq!((counts.probe_paths, counts.unresolvable), (3, 2));
        let unresolved: Vec<String> = tracer
            .snapshot()
            .iter()
            .filter(|e| e.kind == EventKind::PathUnresolvable)
            .flat_map(|e| e.attrs.iter())
            .filter_map(|(k, a)| match (*k, a) {
                ("path", ir_telemetry::trace::Attr::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(unresolved.len(), 2);
        assert!(unresolved.iter().all(|p| p.contains("9")), "{unresolved:?}");
    }

    /// `run_paths_session` is *start control* → `run_selecting` → *collect
    /// control*, and the seam is invisible to a transport: a recording
    /// mock sees exactly the call sequences pinned here, which were
    /// captured from the runner while it was still one function. The
    /// control `begin` is always the first transfer started and the
    /// control `finish` the last call made.
    mod split {
        use super::*;
        use crate::transport::{RaceWin, Timing};
        use std::cell::{Cell, RefCell};

        const CLIENT: NodeId = NodeId(0);
        const SERVER: NodeId = NodeId(1);

        /// A transport that moves no bytes: every transfer runs at its path's
        /// scripted constant rate (0 = never finishes) on a clock that only
        /// `race`/`finish` advance, and every trait call is logged.
        struct Recorder {
            /// Bytes/s by first hop (`None` = the direct path).
            rates: Vec<(Option<NodeId>, f64)>,
            unresolvable: Vec<NodeId>,
            now_us: Cell<u64>,
            /// (start, finish, bytes) per handle, microseconds; a finish of
            /// `u64::MAX` = never.
            flights: Vec<(u64, u64, u64)>,
            log: RefCell<Vec<String>>,
        }

        impl Recorder {
            fn new(rates: &[(Option<NodeId>, f64)]) -> Recorder {
                Recorder {
                    rates: rates.to_vec(),
                    unresolvable: Vec::new(),
                    now_us: Cell::new(0),
                    flights: Vec::new(),
                    log: RefCell::new(Vec::new()),
                }
            }

            fn name(path: &PathSpec) -> String {
                match path.via() {
                    None => "direct".into(),
                    Some(v) => format!("via{}", v.0),
                }
            }

            fn launch(&mut self, call: &str, path: &PathSpec, bytes: u64) -> Handle {
                let id = self.flights.len() as u64;
                self.log
                    .borrow_mut()
                    .push(format!("{call} {} {bytes} -> {id}", Self::name(path)));
                let rate = self
                    .rates
                    .iter()
                    .find(|(via, _)| *via == path.via())
                    .map_or(0.0, |&(_, r)| r);
                let start = self.now_us.get();
                let finish = if rate > 0.0 {
                    start + (bytes as f64 / rate * 1e6) as u64
                } else {
                    u64::MAX
                };
                self.flights.push((start, finish, bytes));
                Handle(id)
            }

            fn timing(&self, h: Handle) -> Timing {
                let (start, finish, bytes) = self.flights[h.0 as usize];
                Timing {
                    started: SimTime::from_micros(start),
                    finished: SimTime::from_micros(finish),
                    bytes,
                }
            }
        }

        impl Transport for Recorder {
            fn now(&self) -> SimTime {
                SimTime::from_micros(self.now_us.get())
            }

            fn begin(&mut self, path: &PathSpec, _offset: u64, bytes: u64) -> Handle {
                self.launch("begin", path, bytes)
            }

            fn begin_warm(&mut self, path: &PathSpec, _offset: u64, bytes: u64) -> Handle {
                self.launch("begin_warm", path, bytes)
            }

            fn resolvable(&self, path: &PathSpec) -> bool {
                self.log
                    .borrow_mut()
                    .push(format!("resolvable {}", Self::name(path)));
                !path.hops().iter().any(|h| self.unresolvable.contains(h))
            }

            fn race(&mut self, handles: &[Handle], horizon: SimDuration) -> Option<RaceWin> {
                let ids: Vec<u64> = handles.iter().map(|h| h.0).collect();
                self.log.borrow_mut().push(format!("race {ids:?}"));
                let deadline = self.now_us.get().saturating_add(horizon.as_micros());
                let (index, finish) = handles
                    .iter()
                    .map(|h| self.flights[h.0 as usize].1)
                    .enumerate()
                    .min_by_key(|&(i, f)| (f, i))?;
                if finish > deadline {
                    self.now_us.set(deadline);
                    return None;
                }
                self.now_us.set(self.now_us.get().max(finish));
                Some(RaceWin {
                    index,
                    timing: self.timing(handles[index]),
                })
            }

            fn finish(&mut self, handle: Handle, horizon: SimDuration) -> Option<Timing> {
                self.log.borrow_mut().push(format!("finish {}", handle.0));
                let deadline = self.now_us.get().saturating_add(horizon.as_micros());
                let finish = self.flights[handle.0 as usize].1;
                if finish > deadline {
                    self.now_us.set(deadline);
                    return None;
                }
                self.now_us.set(self.now_us.get().max(finish));
                Some(self.timing(handle))
            }

            fn cancel(&mut self, handle: Handle) {
                self.log.borrow_mut().push(format!("cancel {}", handle.0));
            }

            fn progress(&self, handle: Handle) -> u64 {
                self.log.borrow_mut().push(format!("progress {}", handle.0));
                0
            }

            fn sleep(&mut self, d: SimDuration) {
                self.log
                    .borrow_mut()
                    .push(format!("sleep {}", d.as_micros()));
                self.now_us.set(self.now_us.get() + d.as_micros());
            }
        }

        fn cfg() -> SessionConfig {
            SessionConfig {
                probe_bytes: 1_000,
                file_bytes: 10_000,
                horizon: SimDuration::from_secs(60),
                ..SessionConfig::paper_defaults()
            }
        }

        fn via(n: u32) -> PathSpec {
            PathSpec::indirect(CLIENT, SERVER, NodeId(n))
        }

        /// Runs one session and returns the transport's call log.
        fn calls(
            mut transport: Recorder,
            candidates: &[PathSpec],
            cfg: &SessionConfig,
        ) -> Vec<String> {
            run_paths_session(
                &mut transport,
                PathSpec::direct(CLIENT, SERVER),
                candidates,
                0,
                cfg,
                None,
            );
            transport.log.into_inner()
        }

        #[test]
        fn selecting_process_split_is_invisible() {
            let fast_relay = [
                (None, 1_000.0),
                (Some(NodeId(2)), 4_000.0),
                (Some(NodeId(3)), 500.0),
            ];
            let dead = [(None, 0.0), (Some(NodeId(2)), 0.0)];
            let failover = SessionConfig {
                failover: Some(FailoverConfig::paper_defaults()),
                ..cfg()
            };
            let striped = SessionConfig {
                mode: SessionMode::Striped {
                    chunks: 3,
                    k: 2,
                    rebalance: RebalanceConfig::paper_defaults(),
                },
                ..cfg()
            };
            let mut one_unresolvable = Recorder::new(&fast_relay);
            one_unresolvable.unresolvable.push(NodeId(3));

            let cases: Vec<(&str, Vec<String>, &[&str])> = vec![
                (
                    "racing, first-to-finish: the fast relay carries the remainder",
                    calls(Recorder::new(&fast_relay), &[via(2), via(3)], &cfg()),
                    &[
                        "resolvable via2",
                        "resolvable via3",
                        "begin direct 10000 -> 0",
                        "begin direct 1000 -> 1",
                        "begin via2 1000 -> 2",
                        "begin via3 1000 -> 3",
                        "race [1, 2, 3]",
                        "cancel 1",
                        "cancel 3",
                        "begin_warm via2 9000 -> 4",
                        "finish 4",
                        "finish 0",
                    ],
                ),
                (
                    "no candidates: the whole file goes direct, no probe phase",
                    calls(Recorder::new(&fast_relay), &[], &cfg()),
                    &[
                        "begin direct 10000 -> 0",
                        "begin direct 10000 -> 1",
                        "finish 1",
                        "finish 0",
                    ],
                ),
                (
                    "an unresolvable candidate is dropped before the control starts",
                    calls(one_unresolvable, &[via(3)], &cfg()),
                    &[
                        "resolvable via3",
                        "begin direct 10000 -> 0",
                        "begin direct 10000 -> 1",
                        "finish 1",
                        "finish 0",
                    ],
                ),
                (
                    "probe timeout: every probe cancelled, direct fallback",
                    calls(Recorder::new(&dead), &[via(2)], &cfg()),
                    &[
                        "resolvable via2",
                        "begin direct 10000 -> 0",
                        "begin direct 1000 -> 1",
                        "begin via2 1000 -> 2",
                        "race [1, 2]",
                        "cancel 1",
                        "cancel 2",
                        "begin direct 10000 -> 3",
                        "finish 3",
                        "finish 0",
                    ],
                ),
                (
                    "failover on a healthy path is the warm remainder, watched",
                    calls(Recorder::new(&fast_relay), &[via(2)], &failover),
                    &[
                        "resolvable via2",
                        "begin direct 10000 -> 0",
                        "begin direct 1000 -> 1",
                        "begin via2 1000 -> 2",
                        "race [1, 2]",
                        "cancel 1",
                        "begin_warm via2 9000 -> 3",
                        "finish 3",
                        "finish 0",
                    ],
                ),
                (
                    "the control runs alongside: begun first, collected last",
                    calls(Recorder::new(&fast_relay), &[via(2)], &cfg()),
                    &[
                        "resolvable via2",
                        "begin direct 10000 -> 0",
                        "begin direct 1000 -> 1",
                        "begin via2 1000 -> 2",
                        "race [1, 2]",
                        "cancel 1",
                        "begin_warm via2 9000 -> 3",
                        "finish 3",
                        "finish 0",
                    ],
                ),
                (
                    "striped: a path that shows no progress has its chunk stolen by the free winner",
                    calls(Recorder::new(&fast_relay), &[via(2), via(3)], &striped),
                    &[
                        "resolvable via2",
                        "resolvable via3",
                        "begin direct 10000 -> 0",
                        "begin direct 1000 -> 1",
                        "begin via2 1000 -> 2",
                        "begin via3 1000 -> 3",
                        "race [1, 2, 3]",
                        "progress 1",
                        "cancel 1",
                        "progress 3",
                        "cancel 3",
                        "begin_warm via2 3000 -> 4",
                        "begin direct 3000 -> 5",
                        "begin via3 3000 -> 6",
                        "race [4, 5, 6]",
                        "progress 5",
                        "progress 6",
                        "cancel 5",
                        "begin_warm via2 3000 -> 7",
                        "race [6, 7]",
                        "progress 6",
                        "cancel 6",
                        "begin_warm via2 3000 -> 8",
                        "race [8]",
                        "finish 0",
                    ],
                ),
            ];
            for (what, got, want) in &cases {
                assert_eq!(got, want, "{what}");
            }
        }
    }
}
