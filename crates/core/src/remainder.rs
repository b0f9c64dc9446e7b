//! The three remainder phases of a session.
//!
//! After the probe decision the runner ([`crate::session`]) hands the
//! remaining `n − x` bytes to exactly one of:
//!
//! * `run_remainder_warm` — the paper's protocol: one flow on the
//!   probe winner's warm connection, winner-take-all;
//! * `run_remainder_failover` — the same flow watched in stall
//!   windows, with same-path retries, backoff and a re-race over the
//!   surviving candidates ([`FailoverConfig`]);
//! * `run_striped_remainder` — mHTTP-style striping: the bytes are
//!   partitioned into chunks fetched concurrently over the direct path
//!   plus the probed candidates, with per-path EWMA rate tracking,
//!   straggler stealing on rate drift, and per-chunk reassignment on
//!   stalls and path death ([`RebalanceConfig`]).
//!
//! All three report a `Remainder`; the striped scheduler additionally
//! accounts chunks per path ([`StripeStats`]). Everything before and
//! after — control start, probe race, record, trace — is the runner's
//! and is shared.

use crate::path::PathSpec;
use crate::plan::{partition, ChunkRange};
use crate::rate::EwmaRate;
use crate::session::{FailoverConfig, RebalanceConfig, SessionConfig};
use crate::transport::{Handle, Transport};
use ir_simnet::time::{SimDuration, SimTime};
use ir_telemetry::trace::{Event, EventKind};
use ir_telemetry::Tracer;
use std::collections::VecDeque;

/// Outcome of a remainder phase.
pub struct Remainder {
    /// The path that ultimately carried (or failed to carry) the file;
    /// for a striped remainder, the one that delivered the most bytes.
    pub path: PathSpec,
    /// True if the full remainder was delivered before the horizon.
    pub finished: bool,
    /// Realized remainder rate: remainder bytes over remainder wall
    /// time (NaN when it never finished).
    pub rate: f64,
    /// Mid-transfer path switches performed (striped: path deaths).
    pub failovers: u32,
    /// Milliseconds spent stalled (zero-progress windows + backoffs).
    pub stall_ms: u64,
    /// Same-path retries after a stall (racing failover only).
    pub stall_retries: u32,
    /// True if every retry and surviving candidate was exhausted.
    pub abandoned: bool,
}

impl Remainder {
    /// A single-attempt outcome: no failover machinery was involved.
    pub(crate) fn single(path: PathSpec, finished: bool, rate: f64) -> Remainder {
        Remainder {
            path,
            finished,
            rate,
            failovers: 0,
            stall_ms: 0,
            stall_retries: 0,
            abandoned: false,
        }
    }
}

/// The paper's remainder: one flow on the winning probe's warm
/// connection (another Range request, §2.1), waited on once.
pub(crate) fn run_remainder_warm(
    transport: &mut dyn Transport,
    path: PathSpec,
    cfg: &SessionConfig,
) -> Remainder {
    let rem = transport.begin_warm(&path, cfg.probe_bytes, cfg.file_bytes - cfg.probe_bytes);
    match transport.finish(rem, cfg.horizon) {
        Some(t) => Remainder::single(path, true, t.throughput()),
        None => Remainder::single(path, false, f64::NAN),
    }
}

/// The remainder phase with stall detection, retry/backoff, and
/// mid-transfer failover.
///
/// The transfer is watched in windows of `fo.stall_timeout`. A window
/// that delivers bytes just keeps waiting on the same flow; a window
/// with **zero** progress, or a failure ([`Transport::failed`]), stalls
/// the path. Stalls trigger up to `fo.max_retries` fresh connections on
/// the same path (exponential backoff between them), after which the
/// path is abandoned for good and the best *surviving* candidate —
/// decided by a fresh probe race over every path not yet declared dead
/// — takes over the rest of the file. The overall deadline is still
/// `cfg.horizon` from the start of the remainder; when it expires (or
/// no candidate survives) the transfer is abandoned.
pub(crate) fn run_remainder_failover(
    transport: &mut dyn Transport,
    start_path: PathSpec,
    all_paths: &[PathSpec],
    cfg: &SessionConfig,
    fo: &FailoverConfig,
    transfer_index: u64,
    tracer: Option<&Tracer>,
) -> Remainder {
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
    let mut stall_retries = 0u32;
    let mut backoff = fo.initial_backoff;

    let abandon = |path: PathSpec, failovers: u32, stall_ms: u64, stall_retries: u32| Remainder {
        path,
        finished: false,
        rate: f64::NAN,
        failovers,
        stall_ms,
        stall_retries,
        abandoned: true,
    };
    let done = |path: PathSpec, end: SimTime, failovers: u32, stall_ms: u64, stall_retries: u32| {
        let wall = (end - started).as_secs_f64();
        let rate = if wall > 0.0 {
            total as f64 / wall
        } else {
            f64::INFINITY
        };
        Remainder {
            path,
            finished: true,
            rate,
            failovers,
            stall_ms,
            stall_retries,
            abandoned: false,
        }
    };

    // First attempt rides the winning probe's warm connection (another
    // Range request, §2.1); every attempt asks for the last `remaining`.
    let n = cfg.file_bytes;
    let mut handle = transport.begin_warm(&path, n - remaining, remaining);
    let mut seen = 0u64; // bytes observed on the current handle
    loop {
        let now = transport.now();
        if now >= deadline {
            transport.cancel(handle);
            return abandon(path, failovers, stall_ms, stall_retries);
        }
        let window = fo.stall_timeout.min(deadline - now);
        if let Some(t) = transport.finish(handle, window) {
            return done(path, t.finished, failovers, stall_ms, stall_retries);
        }
        let delivered = transport.progress(handle);
        if delivered > seen && !transport.failed(handle) {
            // Progressing, merely slower than the window: keep waiting.
            seen = delivered;
            continue;
        }

        // No progress for a full window, or a failure: the path stalled.
        stall_ms += window.as_micros() / 1000;
        transport.cancel(handle);
        remaining = remaining.saturating_sub(delivered);
        attempt += 1;
        if attempt <= fo.max_retries {
            // Retry the same path on a fresh connection after backoff.
            stall_retries += 1;
            if let Some(tracer) = tracer {
                tracer.record(
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
                return abandon(path, failovers, stall_ms, stall_retries);
            }
            handle = transport.begin(&path, n - remaining, remaining);
            seen = 0;
            continue;
        }

        // Retries exhausted: the path is dead to this session. Fail
        // over to the best surviving candidate via a fresh probe race.
        failovers += 1;
        if let Some(tracer) = tracer {
            tracer.record(
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
            return abandon(path, failovers, stall_ms, stall_retries);
        }
        let now = transport.now();
        if now >= deadline {
            return abandon(path, failovers, stall_ms, stall_retries);
        }
        let window = fo.stall_timeout.min(deadline - now);
        let chunk = remaining.min(cfg.probe_bytes);
        let handles: Vec<Handle> = survivors
            .iter()
            .map(|p| transport.begin(p, n - remaining, chunk))
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
                    let end = win.timing.finished;
                    return done(path, end, failovers, stall_ms, stall_retries);
                }
                attempt = 0;
                backoff = fo.initial_backoff;
                // The rest rides the race winner's warm connection.
                handle = transport.begin_warm(&path, n - remaining, remaining);
                seen = 0;
            }
            None => {
                // No survivor moved the chunk inside the window: the
                // network is gone as far as this session can tell.
                for &h in &handles {
                    transport.cancel(h);
                }
                stall_ms += window.as_micros() / 1000;
                return abandon(path, failovers, stall_ms, stall_retries);
            }
        }
    }
}

/// A chunk's remaining bytes are reassigned at most this many times
/// (stall, death, or drift-steal); past the cap the current owner keeps
/// it. Bounds rebalancing churn without bounding progress: the cap
/// only ever pins a chunk to a live, progressing path.
const MAX_CHUNK_REASSIGNS: u32 = 4;

/// Per-path chunk accounting for one striped session.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStripeStats {
    /// The path.
    pub path: PathSpec,
    /// Chunks this path completed.
    pub chunks: u64,
    /// Remainder bytes this path delivered (completed chunks plus the
    /// partial prefixes credited when a chunk was reassigned away).
    pub bytes: u64,
}

/// Scheduler accounting for one striped session — the chunk-assignment
/// observability the `striping` artefact's canary pins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StripeStats {
    /// Per-path accounting over the session's path roster (direct
    /// first, then the striped candidates, probe order). Empty for
    /// sessions that never reached a striped remainder phase (racing
    /// mode, direct-only, probe timeout).
    pub per_path: Vec<PathStripeStats>,
    /// Chunk reassignments performed (stall + drift combined).
    pub reassignments: u32,
    /// Paths declared dead mid-remainder.
    pub deaths: u32,
}

/// One chunk in flight on one path.
struct Flight {
    path: usize,
    chunk: ChunkRange,
    handle: Handle,
    /// Bytes observed delivered at the last sweep.
    seen: u64,
    /// When the flight launched (per-chunk rate denominator).
    launched: SimTime,
    /// Last instant the flight was seen to move (stall-death clock).
    last_progress_at: SimTime,
    /// Times this chunk's bytes have been reassigned so far.
    reassigns: u32,
}

/// Launches `chunk` on roster path `p`, consuming its warm connection
/// if one is available.
fn launch(
    transport: &mut dyn Transport,
    paths: &[PathSpec],
    warm: &mut [bool],
    flights: &mut Vec<Flight>,
    p: usize,
    chunk: ChunkRange,
    reassigns: u32,
) {
    let handle = if warm[p] {
        transport.begin_warm(&paths[p], chunk.offset, chunk.len)
    } else {
        transport.begin(&paths[p], chunk.offset, chunk.len)
    };
    warm[p] = false;
    let now = transport.now();
    flights.push(Flight {
        path: p,
        chunk,
        handle,
        seen: 0,
        launched: now,
        last_progress_at: now,
        reassigns,
    });
}

/// Alive paths with no flight, best EWMA estimate first (ties keep the
/// lower roster index — the direct path).
fn free_paths(rate: &[EwmaRate], alive: &[bool], flights: &[Flight]) -> Vec<usize> {
    let mut busy = vec![false; rate.len()];
    for f in flights {
        busy[f.path] = true;
    }
    let mut free: Vec<usize> = (0..rate.len()).filter(|&p| alive[p] && !busy[p]).collect();
    free.sort_by(|&a, &b| rate[b].get().total_cmp(&rate[a].get()).then(a.cmp(&b)));
    free
}

/// The striped remainder phase: partition, fan out, race completions,
/// rebalance on drift, reassign on stall-death or failure.
#[expect(
    clippy::too_many_arguments,
    reason = "remainder tail shares the session's full parameter set"
)]
pub(crate) fn run_striped_remainder(
    transport: &mut dyn Transport,
    paths: &[PathSpec],
    winner: usize,
    init_rates: &[f64],
    warm_init: &[bool],
    chunks: u32,
    rb: &RebalanceConfig,
    cfg: &SessionConfig,
    transfer_index: u64,
    tracer: Option<&Tracer>,
) -> (Remainder, StripeStats) {
    let total = cfg.file_bytes - cfg.probe_bytes;
    let started = transport.now();
    let deadline = started + cfg.horizon;
    let n = paths.len();
    let mut rate: Vec<EwmaRate> = init_rates
        .iter()
        .map(|&r| EwmaRate::seeded(rb.alpha, r))
        .collect();
    let mut alive = vec![true; n];
    let mut warm = warm_init.to_vec();
    let mut chunks_done = vec![0u64; n];
    let mut bytes_done = vec![0u64; n];
    let mut flights: Vec<Flight> = Vec::new();
    let mut pending: VecDeque<(ChunkRange, u32)> = partition(cfg.probe_bytes, total, chunks)
        .into_iter()
        .map(|c| (c, 0))
        .collect();
    let mut stall_ms = 0u64;
    let mut reassignments = 0u32;
    let mut deaths = 0u32;

    // The first chunk rides the probe winner's warm connection (the
    // racing protocol's remainder request, §2.1); the rest fan out to
    // free paths, best initial estimate first.
    if let Some((c, r)) = pending.pop_front() {
        launch(transport, paths, &mut warm, &mut flights, winner, c, r);
    }
    for p in free_paths(&rate, &alive, &flights) {
        let Some((c, r)) = pending.pop_front() else {
            break;
        };
        launch(transport, paths, &mut warm, &mut flights, p, c, r);
    }

    // Runs until every chunk is delivered (`true`) or the remainder has
    // to be abandoned (`false`).
    let finished = loop {
        // A failed flight is a stall window that has already expired.
        let mut dead: Vec<usize> = (0..flights.len())
            .filter(|&i| transport.failed(flights[i].handle))
            .collect();
        if dead.is_empty() {
            if flights.is_empty() {
                // Work left but nothing in the air: every path is dead.
                break pending.is_empty();
            }
            let now = transport.now();
            if now >= deadline {
                break false;
            }
            let window = rb.stall_window.min(deadline - now);
            let handles: Vec<Handle> = flights.iter().map(|f| f.handle).collect();
            if let Some(win) = transport.race(&handles, window) {
                let f = flights.remove(win.index);
                let p = f.path;
                rate[p].observe(win.timing.throughput());
                chunks_done[p] += 1;
                bytes_done[p] += f.chunk.len;
                warm[p] = true;
                if let Some((c, r)) = pending.pop_front() {
                    launch(transport, paths, &mut warm, &mut flights, p, c, r);
                } else {
                    maybe_steal(
                        transport,
                        paths,
                        &mut rate,
                        &mut warm,
                        &mut flights,
                        &mut bytes_done,
                        &mut reassignments,
                        p,
                        rb,
                        transfer_index,
                        tracer,
                    );
                }
                continue;
            }
            // Window expired with no completion: sweep for stalls.
            let now = transport.now();
            for (i, f) in flights.iter_mut().enumerate() {
                let delivered = transport.progress(f.handle);
                if delivered > f.seen {
                    f.seen = delivered;
                    f.last_progress_at = now;
                } else if now - f.last_progress_at >= rb.stall_window {
                    dead.push(i);
                }
            }
        }
        let now = transport.now();
        for i in dead.into_iter().rev() {
            let mut f = flights.remove(i);
            if transport.failed(f.handle) {
                f.seen = transport.progress(f.handle);
            }
            let p = f.path;
            alive[p] = false;
            warm[p] = false;
            deaths += 1;
            stall_ms += (now - f.last_progress_at).as_micros() / 1000;
            transport.cancel(f.handle);
            bytes_done[p] += f.seen;
            let rest = f.chunk.len - f.seen;
            if rest > 0 {
                reassignments += 1;
                if let Some(tracer) = tracer {
                    tracer.record(
                        Event::new(EventKind::ChunkReassigned, now.as_micros(), transfer_index)
                            .with_u64("chunk", u64::from(f.chunk.id))
                            .with_str("from", paths[p].to_string())
                            .with_str("reason", "stall")
                            .with_u64("remaining", rest),
                    );
                }
                pending.push_front((
                    ChunkRange {
                        id: f.chunk.id,
                        offset: f.chunk.offset + f.seen,
                        len: rest,
                    },
                    f.reassigns + 1,
                ));
            }
        }
        // Hand the reassigned remainders to the survivors.
        for p in free_paths(&rate, &alive, &flights) {
            let Some((c, r)) = pending.pop_front() else {
                break;
            };
            launch(transport, paths, &mut warm, &mut flights, p, c, r);
        }
    };

    let agg = if finished {
        let wall = (transport.now() - started).as_secs_f64();
        if wall > 0.0 {
            total as f64 / wall
        } else {
            f64::INFINITY
        }
    } else {
        for f in &flights {
            transport.cancel(f.handle);
        }
        f64::NAN
    };
    let rem = Remainder {
        path: paths[best_path(&bytes_done, winner)],
        finished,
        rate: agg,
        failovers: deaths,
        stall_ms,
        stall_retries: 0,
        abandoned: !finished,
    };
    let per_path = paths
        .iter()
        .zip(chunks_done.iter().zip(&bytes_done))
        .map(|(&path, (&chunks, &bytes))| PathStripeStats {
            path,
            chunks,
            bytes,
        })
        .collect();
    let stats = StripeStats {
        per_path,
        reassignments,
        deaths,
    };
    (rem, stats)
}

/// The path that delivered the most remainder bytes; the probe winner
/// keeps ties (single-chunk sessions thus report the probe decision).
fn best_path(bytes_done: &[u64], winner: usize) -> usize {
    let mut best = winner;
    for (p, &b) in bytes_done.iter().enumerate() {
        if b > bytes_done[best] {
            best = p;
        }
    }
    best
}

/// Drift rebalancing: free path `p` (just finished a chunk, queue
/// empty) steals the largest remaining chunk whose current owner's
/// observed rate has drifted `drift_ratio`× below `p`'s estimate. The
/// victim's estimate is dragged down to its observed rate first, so it
/// cannot immediately steal the chunk back.
#[expect(
    clippy::too_many_arguments,
    reason = "scheduler interior; shares the loop's working set"
)]
fn maybe_steal(
    transport: &mut dyn Transport,
    paths: &[PathSpec],
    rate: &mut [EwmaRate],
    warm: &mut [bool],
    flights: &mut Vec<Flight>,
    bytes_done: &mut [u64],
    reassignments: &mut u32,
    p: usize,
    rb: &RebalanceConfig,
    transfer_index: u64,
    tracer: Option<&Tracer>,
) {
    if rate[p].get() <= 0.0 {
        return;
    }
    let now = transport.now();
    let mut victim: Option<(usize, u64, f64)> = None; // (flight, remaining, observed)
    for (i, f) in flights.iter().enumerate() {
        // A failed flight is the next sweep's death, not a straggler.
        if f.reassigns >= MAX_CHUNK_REASSIGNS || transport.failed(f.handle) {
            continue;
        }
        let delivered = transport.progress(f.handle);
        let remaining = f.chunk.len.saturating_sub(delivered);
        if remaining == 0 {
            continue;
        }
        let dt = (now - f.launched).as_secs_f64();
        // A flight that has moved is judged on its realized rate; one
        // that has not yet moved is judged on its path's estimate, so a
        // freshly-launched healthy flight is not stolen on a technicality.
        let observed = if delivered > 0 && dt > 0.0 {
            delivered as f64 / dt
        } else {
            rate[f.path].get()
        };
        if rate[p].get() > rb.drift_ratio * observed {
            let better = match victim {
                None => true,
                Some((_, best_remaining, _)) => remaining > best_remaining,
            };
            if better {
                victim = Some((i, remaining, observed));
            }
        }
    }
    let Some((i, remaining, observed)) = victim else {
        return;
    };
    let f = flights.remove(i);
    let delivered = f.chunk.len - remaining;
    transport.cancel(f.handle);
    warm[f.path] = false;
    bytes_done[f.path] += delivered;
    rate[f.path].observe(observed);
    *reassignments += 1;
    if let Some(tracer) = tracer {
        tracer.record(
            Event::new(EventKind::ChunkReassigned, now.as_micros(), transfer_index)
                .with_u64("chunk", u64::from(f.chunk.id))
                .with_str("from", paths[f.path].to_string())
                .with_str("reason", "drift")
                .with_u64("remaining", remaining),
        );
    }
    launch(
        transport,
        paths,
        warm,
        flights,
        p,
        ChunkRange {
            id: f.chunk.id,
            offset: f.chunk.offset + delivered,
            len: remaining,
        },
        f.reassigns + 1,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_path_prefers_most_bytes_and_keeps_winner_on_ties() {
        assert_eq!(best_path(&[10, 30, 20], 0), 1);
        // A tie with the probe winner stays with the winner, so a
        // single-chunk session reports the probe decision.
        assert_eq!(best_path(&[30, 30, 30], 2), 2);
        assert_eq!(best_path(&[0, 0], 1), 1);
    }

    #[test]
    fn free_paths_skips_busy_and_dead_and_orders_by_rate() {
        let rate: Vec<EwmaRate> = [100.0, 400.0, 400.0, 900.0]
            .iter()
            .map(|&r| EwmaRate::seeded(0.3, r))
            .collect();
        let now = SimTime::ZERO;
        let busy = Flight {
            path: 3,
            chunk: ChunkRange {
                id: 0,
                offset: 0,
                len: 1,
            },
            handle: Handle(0),
            seen: 0,
            launched: now,
            last_progress_at: now,
            reassigns: 0,
        };
        // Path 3 is in flight; equal rates keep the lower roster index.
        assert_eq!(
            free_paths(&rate, &[true; 4], std::slice::from_ref(&busy)),
            vec![1, 2, 0]
        );
        assert_eq!(
            free_paths(&rate, &[true, false, true, true], &[]),
            vec![3, 2, 0]
        );
    }
}
