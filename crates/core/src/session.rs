//! Transfer-session orchestration: the paper's §2.1 protocol.
//!
//! One session = one experiment iteration:
//!
//! 1. The policy picks candidate relays (possibly none).
//! 2. A **control** transfer of the whole file starts on the direct
//!    path (the paper's second client process).
//! 3. The **selecting** process issues range probes for the first
//!    `x` bytes over the direct path and every candidate indirect path.
//! 4. The winner — first probe to finish (or best predicted rate in
//!    measure-all mode) — carries the remaining `n − x` bytes.
//! 5. Improvement = selected-process throughput vs control throughput.

use crate::path::PathSpec;
use crate::policy::{SelectCtx, SelectionPolicy};
use crate::predictor::Predictor;
use crate::record::TransferRecord;
use crate::transport::{Handle, Timing, Transport};
pub use ir_simnet::sim::EngineMode;
use ir_simnet::time::SimDuration;
use ir_simnet::topology::NodeId;
use ir_telemetry::trace::{Event, EventKind};
use ir_telemetry::Telemetry;

/// How the probe phase decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMode {
    /// First probe to deliver all `x` bytes wins; losers are cancelled
    /// at the decision instant (§2.1: "If the client receives the
    /// requested data completely through the indirect path first…").
    FirstToFinish,
    /// Wait for every probe, then pick the best predicted rate (§4.1:
    /// "perform n preliminary download tests and see which produces the
    /// best throughput").
    MeasureAll,
}

/// How the control (direct-only) process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMode {
    /// Control shares the network with the selecting process — the
    /// §2.2 methodology ("Both client processes execute concurrently").
    Concurrent,
    /// Control runs on a forked replica with identical conditions — the
    /// §4.2 ideal ("closely in time … but not so closely that they
    /// interfere"). Falls back to `Concurrent` if the transport cannot
    /// fork.
    Forked,
}

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
/// The striper (the `ir-stripe` crate) keeps a per-path EWMA rate
/// estimate seeded from the probe race. A free path steals the
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
    /// remainder, winner-take-all. This module implements it.
    Racing,
    /// mHTTP-style multi-source striping: the remainder is partitioned
    /// into `chunks` ranges fetched concurrently over the direct path
    /// plus the best `k` indirect candidates, rebalanced per
    /// `rebalance`. Executed by the `ir-stripe` crate's runner (this
    /// crate's runner is the racing path); with one chunk and `k = 1`
    /// the striper's record is bit-identical to [`SessionMode::Racing`]
    /// on a healthy network.
    Striped {
        /// Ranges the remainder is split into (>= 1).
        chunks: u32,
        /// Indirect candidates striped over, capping the probe set
        /// (>= 1; the `PathSelector` plane's `best_k` feeds this).
        k: u32,
        /// Straggler-steal and stall-death knobs.
        rebalance: RebalanceConfig,
    },
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
    /// Probe decision mode.
    pub probe_mode: ProbeMode,
    /// Control process mode.
    pub control: ControlMode,
    /// Per-phase timeout.
    pub horizon: SimDuration,
    /// Mid-transfer failover for the remainder phase. `None` (the
    /// paper's protocol) keeps the original single-attempt behavior
    /// bit-for-bit.
    pub failover: Option<FailoverConfig>,
    /// Fair-share engine the simulated transport runs sessions on.
    /// Both modes are bit-identical (enforced by the cross-engine
    /// differential suite); `Reference` is the slow oracle, for tests.
    pub engine: EngineMode,
    /// Remainder strategy. [`SessionMode::Racing`] (the paper's
    /// protocol) is what this module's runners execute; striped
    /// configs are dispatched by the `ir-stripe` crate's runner, which
    /// delegates back here for `Racing`.
    pub mode: SessionMode,
}

impl SessionConfig {
    /// The paper's defaults: x = 100 KB, n = 2 MB, first-to-finish,
    /// concurrent control, 10-minute horizon, no failover.
    pub fn paper_defaults() -> Self {
        SessionConfig {
            probe_bytes: 100 * 1024,
            file_bytes: 2 * 1024 * 1024,
            probe_mode: ProbeMode::FirstToFinish,
            control: ControlMode::Concurrent,
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
    }
}

enum Control {
    Live(Handle),
    Forked(Box<dyn Transport>, Handle),
}

/// Picks the `MeasureAll` winner from per-path `(probe_rate,
/// predicted)` outcomes (`None` = the probe never finished inside the
/// horizon).
///
/// An indirect candidate whose probe rate or prediction is zero, NaN,
/// or infinite can never win: indirection has to be a *measured*
/// upgrade over the direct default, and a dead probe measures nothing.
/// Among the survivors the strictly highest prediction wins; a tie
/// keeps the earliest path, and the direct path probes first, so
/// direct wins prediction ties.
///
/// Public because `ir-stripe`'s runner replays the identical probe
/// phase: both modes must make the same decision from the same
/// measurements.
pub fn select_measure_all(
    paths: &[PathSpec],
    outcomes: &[Option<(f64, f64)>],
) -> Option<(PathSpec, f64)> {
    // (path, score, probe_rate); a non-finite direct prediction ranks
    // below every real measurement but still beats "nothing finished".
    let mut best: Option<(PathSpec, f64, f64)> = None;
    for (i, outcome) in outcomes.iter().enumerate() {
        let Some((rate, predicted)) = *outcome else {
            continue;
        };
        if paths[i].is_indirect()
            && !(rate.is_finite() && rate > 0.0 && predicted.is_finite() && predicted > 0.0)
        {
            continue;
        }
        let score = if predicted.is_finite() {
            predicted
        } else {
            f64::NEG_INFINITY
        };
        let wins = match &best {
            None => true,
            Some((_, best_score, _)) => score > *best_score,
        };
        if wins {
            best = Some((paths[i], score, rate));
        }
    }
    best.map(|(p, _, rate)| (p, rate))
}

/// Runs one session; returns the full record (and feeds it back to the
/// policy and predictor).
#[allow(clippy::too_many_arguments)] // mirrors the protocol's free parameters
pub fn run_session(
    transport: &mut dyn Transport,
    policy: &mut dyn SelectionPolicy,
    predictor: &mut dyn Predictor,
    client: NodeId,
    server: NodeId,
    full_set: &[NodeId],
    transfer_index: u64,
    cfg: &SessionConfig,
) -> TransferRecord {
    run_session_traced(
        transport,
        policy,
        predictor,
        client,
        server,
        full_set,
        transfer_index,
        cfg,
        None,
    )
}

/// [`run_session`] with an optional telemetry handle. With `None` this
/// is exactly `run_session`; with `Some` it additionally emits
/// session-layer events (probe race, selection decision, fallback) and
/// metrics. Telemetry is strictly observational — the returned record
/// is identical either way.
#[allow(clippy::too_many_arguments)] // traced twin of run_session; same signature
pub fn run_session_traced(
    transport: &mut dyn Transport,
    policy: &mut dyn SelectionPolicy,
    predictor: &mut dyn Predictor,
    client: NodeId,
    server: NodeId,
    full_set: &[NodeId],
    transfer_index: u64,
    cfg: &SessionConfig,
    tel: Option<&Telemetry>,
) -> TransferRecord {
    let ctx = SelectCtx {
        client,
        server,
        full_set,
        transfer_index,
    };
    let candidates = policy.candidates(&ctx);
    let paths: Vec<PathSpec> = candidates
        .iter()
        .map(|&via| PathSpec::indirect(client, server, via))
        .collect();
    let record = run_paths_session_traced(
        transport,
        predictor,
        client,
        server,
        &paths,
        candidates,
        transfer_index,
        cfg,
        tel,
    );
    policy.observe(&record);
    record
}

/// The path-plane session runner: races the direct path against an
/// explicit, ordered list of indirect candidate paths (1-hop or
/// multi-hop chains). [`run_session_traced`] is a thin wrapper that
/// maps a [`SelectionPolicy`]'s relay candidates to 1-hop paths;
/// `ir-policy` selectors call this directly with arbitrary chains.
///
/// `candidates` is recorded verbatim in the returned
/// [`TransferRecord`] (the paper's "random set" bookkeeping). Paths
/// the transport cannot resolve are dropped from the race — counted in
/// the `path_unresolvable` metric and traced per path — rather than
/// silently skipped or panicked on.
#[allow(clippy::too_many_arguments)] // multi-hop twin of run_session_traced; same signature
pub fn run_paths_session_traced(
    transport: &mut dyn Transport,
    predictor: &mut dyn Predictor,
    client: NodeId,
    server: NodeId,
    indirect_paths: &[PathSpec],
    candidates: Vec<NodeId>,
    transfer_index: u64,
    cfg: &SessionConfig,
    tel: Option<&Telemetry>,
) -> TransferRecord {
    cfg.validate();
    let direct = PathSpec::direct(client, server);
    let t0 = transport.now();
    if let Some(tel) = tel {
        tel.metrics.counter("session_started", vec![]).inc();
        tel.tracer.record(
            Event::new(EventKind::SessionStart, t0.as_micros(), transfer_index)
                .with_u64("client", client.0 as u64)
                .with_u64("server", server.0 as u64)
                .with_u64("candidates", indirect_paths.len() as u64),
        );
    }

    // Drop candidate paths the transport cannot carry (missing links).
    // The paper's 1-hop star always resolves; multi-hop chains from
    // generative policies may not, and a silent skip would corrupt the
    // probe-overhead accounting of tournament runs.
    let candidate_paths: Vec<PathSpec> = indirect_paths
        .iter()
        .filter(|p| {
            let ok = transport.resolvable(p);
            if !ok {
                if let Some(tel) = tel {
                    tel.metrics.counter("path_unresolvable", vec![]).inc();
                    tel.tracer.record(
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

    // Control process: whole file on the direct path.
    let control = match cfg.control {
        ControlMode::Forked => match transport.fork() {
            Some(mut forked) => {
                let h = forked.begin(&direct, cfg.file_bytes);
                Control::Forked(forked, h)
            }
            None => Control::Live(transport.begin(&direct, cfg.file_bytes)),
        },
        ControlMode::Concurrent => Control::Live(transport.begin(&direct, cfg.file_bytes)),
    };

    // Selecting process.
    let (
        selected,
        probe_throughput,
        path_rate,
        probe_timeout,
        finished_ok,
        failovers,
        stall_ms,
        abandoned,
    ) = if candidate_paths.is_empty() {
        // Direct-only: no probe phase; the whole file goes direct.
        let h = transport.begin(&direct, cfg.file_bytes);
        let t = transport.finish(h, cfg.horizon);
        let rate = t.map(|t| t.throughput()).unwrap_or(f64::NAN);
        (direct, f64::NAN, rate, false, t.is_some(), 0, 0, false)
    } else {
        let paths: Vec<PathSpec> = std::iter::once(direct)
            .chain(candidate_paths.iter().copied())
            .collect();
        let handles: Vec<Handle> = paths
            .iter()
            .map(|p| transport.begin(p, cfg.probe_bytes))
            .collect();
        if let Some(tel) = tel {
            tel.metrics.counter("session_probe_races", vec![]).inc();
            tel.tracer.record(
                Event::new(
                    EventKind::ProbeStart,
                    transport.now().as_micros(),
                    transfer_index,
                )
                .with_u64("paths", handles.len() as u64)
                .with_u64("probe_bytes", cfg.probe_bytes),
            );
        }

        let decision = match cfg.probe_mode {
            ProbeMode::FirstToFinish => match transport.race(&handles, cfg.horizon) {
                Some(win) => {
                    for (i, &h) in handles.iter().enumerate() {
                        if i != win.index {
                            transport.cancel(h);
                        }
                    }
                    Some((paths[win.index], win.timing.throughput()))
                }
                None => None,
            },
            ProbeMode::MeasureAll => {
                let timings: Vec<Option<Timing>> = handles
                    .iter()
                    .map(|&h| transport.finish(h, cfg.horizon))
                    .collect();
                let outcomes: Vec<Option<(f64, f64)>> = timings
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        t.as_ref().map(|t| {
                            let rate = t.throughput();
                            (rate, predictor.predict(&paths[i], rate))
                        })
                    })
                    .collect();
                select_measure_all(&paths, &outcomes)
            }
        };

        match decision {
            Some((path, probe_rate)) => {
                if let Some(tel) = tel {
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
                        .with_f64("probe_rate", probe_rate);
                    if let Some(via) = path.via() {
                        won = won.with_u64("via", via.0 as u64);
                    }
                    tel.tracer.record(won);
                    if let Some(via) = path.via() {
                        tel.metrics.counter("session_path_switches", vec![]).inc();
                        tel.tracer.record(
                            Event::new(EventKind::PathSwitch, now_us, transfer_index)
                                .with_u64("via", via.0 as u64),
                        );
                    }
                }
                match cfg.failover {
                    None => {
                        // The remainder rides the winning probe's warm
                        // connection (another Range request, §2.1).
                        let rem = transport.begin_warm(&path, cfg.file_bytes - cfg.probe_bytes);
                        let (ok, rate) = match transport.finish(rem, cfg.horizon) {
                            Some(t) => {
                                // Feed the realized remainder rate back.
                                predictor.observe(&path, t.throughput());
                                (true, t.throughput())
                            }
                            None => (false, f64::NAN),
                        };
                        (path, probe_rate, rate, false, ok, 0, 0, false)
                    }
                    Some(fo) => {
                        let out = run_remainder_failover(
                            transport,
                            predictor,
                            path,
                            &paths,
                            cfg,
                            &fo,
                            transfer_index,
                            tel,
                        );
                        (
                            out.path,
                            probe_rate,
                            out.rate,
                            false,
                            out.finished,
                            out.failovers,
                            out.stall_ms,
                            out.abandoned,
                        )
                    }
                }
            }
            None => {
                // Probe race timed out entirely; cancel everything and
                // fall back to a direct transfer of the whole file.
                for &h in &handles {
                    transport.cancel(h);
                }
                if let Some(tel) = tel {
                    let now_us = transport.now().as_micros();
                    tel.metrics.counter("session_probe_timeouts", vec![]).inc();
                    tel.tracer
                        .record(Event::new(EventKind::ProbeTimeout, now_us, transfer_index));
                    tel.tracer.record(
                        Event::new(EventKind::Retry, now_us, transfer_index)
                            .with_str("fallback", "direct"),
                    );
                }
                let h = transport.begin(&direct, cfg.file_bytes);
                let ok = transport.finish(h, cfg.horizon).is_some();
                (direct, f64::NAN, f64::NAN, true, ok, 0, 0, false)
            }
        }
    };

    // The selecting process's end-to-end throughput: whole file over
    // wall time since t0 (probe + decision + remainder). When the final
    // phase timed out, credit only what the horizon allowed — a
    // throughput of ~0 rather than a fabricated number.
    let t_end = transport.now();
    let wall = (t_end - t0).as_secs_f64();
    let selected_throughput = if finished_ok && wall > 0.0 {
        cfg.file_bytes as f64 / wall
    } else {
        0.0
    };

    // Collect the control result. Give it the same total horizon the
    // selecting process had (generous: two phases).
    let control_horizon = SimDuration::from_micros(cfg.horizon.as_micros() * 2);
    let direct_throughput = match control {
        Control::Live(h) => transport
            .finish(h, control_horizon)
            .map(|t| t.throughput())
            .unwrap_or(0.0),
        Control::Forked(mut forked, h) => forked
            .finish(h, control_horizon)
            .map(|t| t.throughput())
            .unwrap_or(0.0),
    };

    let record = TransferRecord {
        client,
        server,
        started: t0,
        file_bytes: cfg.file_bytes,
        selected,
        candidates,
        direct_throughput,
        selected_throughput,
        probe_throughput,
        selected_path_rate: path_rate,
        probe_timeout,
        failovers,
        stall_ms,
        abandoned,
    };
    if let Some(tel) = tel {
        let wall_us = (t_end - t0).as_micros();
        tel.metrics.counter("session_completed", vec![]).inc();
        tel.metrics
            .histogram("session_wall_us", vec![])
            .record(wall_us);
        tel.tracer.record(
            Event::span(
                EventKind::SessionComplete,
                t0.as_micros(),
                wall_us,
                transfer_index,
            )
            .with_f64("improvement", record.improvement())
            .with_f64("direct_bps", record.direct_throughput)
            .with_f64("selected_bps", record.selected_throughput),
        );
    }
    record
}

/// Outcome of the failover-enabled remainder phase.
struct RemainderOutcome {
    /// The path that ultimately carried (or failed to carry) the file.
    path: PathSpec,
    /// True if the full remainder was delivered before the horizon.
    finished: bool,
    /// Realized remainder rate: remainder bytes over remainder wall
    /// time (NaN when abandoned).
    rate: f64,
    /// Mid-transfer path switches performed.
    failovers: u32,
    /// Milliseconds spent stalled (zero-progress windows + backoffs).
    stall_ms: u64,
    /// True if every retry and surviving candidate was exhausted.
    abandoned: bool,
}

/// The remainder phase with stall detection, retry/backoff, and
/// mid-transfer failover.
///
/// The transfer is watched in windows of `fo.stall_timeout`. A window
/// that delivers bytes just keeps waiting on the same flow; a window
/// with **zero** progress declares the path stalled. Stalls trigger up
/// to `fo.max_retries` fresh connections on the same path (exponential
/// backoff between them), after which the path is abandoned for good
/// and the best *surviving* candidate — decided by a fresh probe race
/// over every path not yet declared dead — takes over the rest of the
/// file. The overall deadline is still `cfg.horizon` from the start of
/// the remainder; when it expires (or no candidate survives) the
/// transfer is abandoned.
#[allow(clippy::too_many_arguments)] // failover tail shares the session's full parameter set
fn run_remainder_failover(
    transport: &mut dyn Transport,
    predictor: &mut dyn Predictor,
    start_path: PathSpec,
    all_paths: &[PathSpec],
    cfg: &SessionConfig,
    fo: &FailoverConfig,
    transfer_index: u64,
    tel: Option<&Telemetry>,
) -> RemainderOutcome {
    let total = cfg.file_bytes - cfg.probe_bytes;
    let started = transport.now();
    let deadline = started + cfg.horizon;
    let mut path = start_path;
    // Candidates not yet declared dead (current path excluded).
    let mut survivors: Vec<PathSpec> = all_paths.iter().filter(|&&p| p != path).copied().collect();
    let mut remaining = total;
    let mut failovers = 0u32;
    let mut stall_ms = 0u64;
    let mut attempt = 0u32;
    let mut backoff = fo.initial_backoff;

    let abandon = |path: PathSpec, failovers: u32, stall_ms: u64, tel: Option<&Telemetry>| {
        if let Some(tel) = tel {
            tel.metrics.counter("session_abandoned", vec![]).inc();
        }
        RemainderOutcome {
            path,
            finished: false,
            rate: f64::NAN,
            failovers,
            stall_ms,
            abandoned: true,
        }
    };
    let done = |path: PathSpec,
                end: ir_simnet::time::SimTime,
                failovers: u32,
                stall_ms: u64,
                predictor: &mut dyn Predictor| {
        let wall = (end - started).as_secs_f64();
        let rate = if wall > 0.0 {
            total as f64 / wall
        } else {
            f64::INFINITY
        };
        // Feed the realized remainder rate back.
        predictor.observe(&path, rate);
        RemainderOutcome {
            path,
            finished: true,
            rate,
            failovers,
            stall_ms,
            abandoned: false,
        }
    };

    // First attempt rides the winning probe's warm connection (another
    // Range request, §2.1).
    let mut handle = transport.begin_warm(&path, remaining);
    let mut seen = 0u64; // bytes observed on the current handle
    loop {
        let now = transport.now();
        if now >= deadline {
            transport.cancel(handle);
            return abandon(path, failovers, stall_ms, tel);
        }
        let window = fo.stall_timeout.min(deadline - now);
        if let Some(t) = transport.finish(handle, window) {
            return done(path, t.finished, failovers, stall_ms, predictor);
        }
        let delivered = transport.progress(handle);
        if delivered > seen {
            // Progressing, merely slower than the window: keep waiting.
            seen = delivered;
            continue;
        }

        // A full window with zero progress: the path is stalled.
        stall_ms += window.as_micros() / 1000;
        transport.cancel(handle);
        remaining = remaining.saturating_sub(delivered);
        attempt += 1;
        if attempt <= fo.max_retries {
            // Retry the same path on a fresh connection after backoff.
            if let Some(tel) = tel {
                tel.metrics.counter("session_stall_retries", vec![]).inc();
                tel.tracer.record(
                    Event::new(
                        EventKind::Retry,
                        transport.now().as_micros(),
                        transfer_index,
                    )
                    .with_str("fallback", "same_path")
                    .with_u64("attempt", attempt as u64)
                    .with_u64("backoff_us", backoff.as_micros()),
                );
            }
            transport.sleep(backoff);
            stall_ms += backoff.as_micros() / 1000;
            backoff = SimDuration::from_micros(backoff.as_micros().saturating_mul(2));
            if transport.now() >= deadline {
                return abandon(path, failovers, stall_ms, tel);
            }
            handle = transport.begin(&path, remaining);
            seen = 0;
            continue;
        }

        // Retries exhausted: the path is dead to this session. Fail
        // over to the best surviving candidate via a fresh probe race.
        failovers += 1;
        if let Some(tel) = tel {
            tel.metrics.counter("session_failovers", vec![]).inc();
            tel.tracer.record(
                Event::new(
                    EventKind::PathFailover,
                    transport.now().as_micros(),
                    transfer_index,
                )
                .with_str(
                    "from",
                    if path.is_indirect() {
                        "indirect"
                    } else {
                        "direct"
                    },
                )
                .with_u64("survivors", survivors.len() as u64)
                .with_u64("remaining_bytes", remaining),
            );
        }
        if survivors.is_empty() {
            return abandon(path, failovers, stall_ms, tel);
        }
        let now = transport.now();
        if now >= deadline {
            return abandon(path, failovers, stall_ms, tel);
        }
        let window = fo.stall_timeout.min(deadline - now);
        let chunk = remaining.min(cfg.probe_bytes);
        let handles: Vec<Handle> = survivors
            .iter()
            .map(|p| transport.begin(p, chunk))
            .collect();
        match transport.race(&handles, window) {
            Some(win) => {
                for (i, &h) in handles.iter().enumerate() {
                    if i != win.index {
                        transport.cancel(h);
                    }
                }
                path = survivors.remove(win.index);
                remaining -= chunk;
                if remaining == 0 {
                    return done(path, win.timing.finished, failovers, stall_ms, predictor);
                }
                attempt = 0;
                backoff = fo.initial_backoff;
                // The rest rides the race winner's warm connection.
                handle = transport.begin_warm(&path, remaining);
                seen = 0;
            }
            None => {
                // No survivor moved the chunk inside the window: the
                // network is gone as far as this session can tell.
                for &h in &handles {
                    transport.cancel(h);
                }
                stall_ms += window.as_micros() / 1000;
                return abandon(path, failovers, stall_ms, tel);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DirectOnly, StaticSingle};
    use crate::predictor::FirstPortion;
    use crate::sim_transport::SimTransport;
    use ir_simnet::bandwidth::ConstantProcess;
    use ir_simnet::sim::Network;
    use ir_simnet::topology::{NodeKind, Topology};

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

    fn run(
        tp: &mut SimTransport,
        policy: &mut dyn SelectionPolicy,
        c: NodeId,
        s: NodeId,
        full: &[NodeId],
        cfg: &SessionConfig,
    ) -> TransferRecord {
        run_session(tp, policy, &mut FirstPortion, c, s, full, 0, cfg)
    }

    fn sel_paths() -> Vec<PathSpec> {
        let (c, v, s) = (NodeId(0), NodeId(1), NodeId(2));
        vec![PathSpec::direct(c, s), PathSpec::indirect(c, s, v)]
    }

    #[test]
    fn measure_all_tie_keeps_direct() {
        // Identical predictions: the direct path probes first and must
        // win the tie — indirection without a measured upgrade is all
        // cost, no benefit.
        let paths = sel_paths();
        let picked = select_measure_all(&paths, &[Some((100.0, 100.0)), Some((100.0, 100.0))])
            .expect("both probes finished");
        assert!(!picked.0.is_indirect(), "tie must keep the direct path");
        assert_eq!(picked.1, 100.0);
    }

    #[test]
    fn measure_all_strictly_better_indirect_wins() {
        let paths = sel_paths();
        let picked = select_measure_all(&paths, &[Some((100.0, 100.0)), Some((101.0, 101.0))])
            .expect("both probes finished");
        assert!(picked.0.is_indirect());
    }

    #[test]
    fn measure_all_never_selects_indirect_on_zero_or_nan_probe() {
        let paths = sel_paths();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            // Dead indirect probe vs a modest direct: direct wins.
            let picked = select_measure_all(&paths, &[Some((10.0, 10.0)), Some((bad, bad))])
                .expect("direct finished");
            assert!(!picked.0.is_indirect(), "indirect won on probe rate {bad}");
            // Even when the *direct* probe also died, a dead indirect
            // probe must not be promoted.
            let picked = select_measure_all(&paths, &[None, Some((bad, bad))]);
            assert!(
                picked.is_none_or(|(p, _)| !p.is_indirect()),
                "dead indirect probe selected on rate {bad}"
            );
        }
    }

    #[test]
    fn measure_all_nan_prediction_never_replaces_a_real_one() {
        // A NaN prediction on the indirect leg (e.g. a pathological
        // predictor) must not unseat the direct measurement, whichever
        // side of it the direct probe sits.
        let paths = sel_paths();
        let picked = select_measure_all(&paths, &[Some((5.0, 5.0)), Some((50.0, f64::NAN))])
            .expect("direct finished");
        assert!(!picked.0.is_indirect());
        // And a NaN direct prediction still beats "nothing at all" —
        // the session falls back to direct, never to a dead relay.
        let picked = select_measure_all(&paths, &[Some((f64::NAN, f64::NAN)), None])
            .expect("direct is the fallback");
        assert!(!picked.0.is_indirect());
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
    fn forked_control_removes_interference() {
        let (mut tp, c, v, s) = world(200_000.0, 900_000.0);
        let mut cfg = SessionConfig::paper_defaults();
        cfg.control = ControlMode::Forked;
        let rec = run(&mut tp, &mut StaticSingle(v), c, s, &[v], &cfg);
        // With an isolated control, the direct throughput is the path's
        // clean rate (no probe contention), so improvement is measured
        // against an undisturbed baseline.
        assert!(
            rec.direct_throughput > 150_000.0,
            "{}",
            rec.direct_throughput
        );
        assert!(rec.chose_indirect());
    }

    #[test]
    fn measure_all_matches_first_to_finish_on_clear_winner() {
        let (mut tp1, c, v, s) = world(100_000.0, 700_000.0);
        let cfg_race = SessionConfig::paper_defaults();
        let r1 = run(&mut tp1, &mut StaticSingle(v), c, s, &[v], &cfg_race);

        let (mut tp2, c2, v2, s2) = world(100_000.0, 700_000.0);
        let mut cfg_all = SessionConfig::paper_defaults();
        cfg_all.probe_mode = ProbeMode::MeasureAll;
        let r2 = run(&mut tp2, &mut StaticSingle(v2), c2, s2, &[v2], &cfg_all);

        assert_eq!(r1.chose_indirect(), r2.chose_indirect());
        assert!(r1.chose_indirect());
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
        let plain = run(&mut tp1, &mut StaticSingle(v1), c1, s1, &[v1], &cfg);

        let (mut tp2, c2, v2, s2) = world(100_000.0, 800_000.0);
        let tel = Telemetry::new();
        let traced = run_session_traced(
            &mut tp2,
            &mut StaticSingle(v2),
            &mut FirstPortion,
            c2,
            s2,
            &[v2],
            0,
            &cfg,
            Some(&tel),
        );
        assert_eq!(plain, traced, "telemetry changed the record");

        let kinds: Vec<EventKind> = tel.tracer.snapshot().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::SessionStart));
        assert!(kinds.contains(&EventKind::ProbeStart));
        assert!(kinds.contains(&EventKind::ProbeWon));
        assert!(
            kinds.contains(&EventKind::PathSwitch),
            "indirect won → switch"
        );
        assert!(kinds.contains(&EventKind::SessionComplete));
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("session_started", &vec![]), Some(1));
        assert_eq!(snap.counter("session_path_switches", &vec![]), Some(1));
        assert_eq!(snap.counter("session_completed", &vec![]), Some(1));
    }

    #[test]
    fn traced_probe_timeout_emits_retry() {
        let (mut tp, c, v, s) = world(
            ir_simnet::bandwidth::MIN_RATE,
            ir_simnet::bandwidth::MIN_RATE,
        );
        let mut cfg = SessionConfig::paper_defaults();
        cfg.horizon = SimDuration::from_secs(5);
        let tel = Telemetry::new();
        let rec = run_session_traced(
            &mut tp,
            &mut StaticSingle(v),
            &mut FirstPortion,
            c,
            s,
            &[v],
            3,
            &cfg,
            Some(&tel),
        );
        assert!(rec.probe_timeout);
        let kinds: Vec<EventKind> = tel.tracer.snapshot().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::ProbeTimeout));
        assert!(kinds.contains(&EventKind::Retry));
        assert_eq!(
            tel.metrics
                .snapshot()
                .counter("session_probe_timeouts", &vec![]),
            Some(1)
        );
    }

    #[test]
    #[should_panic(expected = "file must exceed the probe")]
    fn config_validation() {
        let mut cfg = SessionConfig::paper_defaults();
        cfg.file_bytes = cfg.probe_bytes;
        cfg.validate();
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
        let tel = std::sync::Arc::new(Telemetry::new());
        tp.network_mut().set_telemetry(Some(tel.clone()));
        let rec = run_session_traced(
            &mut tp,
            &mut StaticSingle(v),
            &mut FirstPortion,
            c,
            s,
            &[v],
            7,
            &cfg,
            Some(tel.as_ref()),
        );
        assert_eq!(rec.failovers, 1);
        let kinds: Vec<EventKind> = tel.tracer.snapshot().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::PathFailover));
        assert!(
            kinds.contains(&EventKind::FaultInjected),
            "simnet fault events also land in the same trace"
        );
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("session_failovers", &vec![]), Some(1));
        assert_eq!(snap.counter("session_stall_retries", &vec![]), Some(1));
        assert_eq!(snap.counter("session_abandoned", &vec![]), None);
    }

    /// An unresolvable candidate path is dropped from the race, counted
    /// in `path_unresolvable`, and traced — never silently skipped, and
    /// never fatal to the session.
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
        let tel = Telemetry::new();
        let rec = run_paths_session_traced(
            &mut tp,
            &mut FirstPortion,
            c,
            s,
            &paths,
            vec![ghost, v],
            0,
            &SessionConfig::paper_defaults(),
            Some(&tel),
        );
        // The resolvable indirect path still raced (and, being 3×
        // direct, won).
        assert!(rec.chose_indirect());
        assert_eq!(rec.selected.via(), Some(v));
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("path_unresolvable", &vec![]), Some(2));
        let unresolved: Vec<String> = tel
            .tracer
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
}
