//! Token-bucket rate shaping with optional time-varying schedules.
//!
//! On loopback everything runs at gigabytes per second; the shaper is
//! what turns a localhost socket into a "1.2 Mbps transatlantic path".
//! Every byte a daemon writes to a shaped client spends tokens; when
//! the bucket runs dry the connection parks on a reactor timer until
//! the refill covers the next chunk or half a burst, whichever is less
//! ([`TokenBucket::park_at`], called by `Conn::flush_out`).

use std::time::{Duration, Instant};

/// A rate schedule: piecewise-constant bytes/sec over time offsets from
/// the shaper's epoch. Used to emulate the time-varying available
/// bandwidth of wide-area paths in real time.
#[derive(Debug, Clone)]
pub struct RateSchedule {
    // (offset from epoch, rate in bytes/sec), first offset must be zero.
    steps: Vec<(Duration, f64)>,
}

impl RateSchedule {
    /// A constant rate forever.
    pub fn constant(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "bad rate {rate}");
        RateSchedule {
            steps: vec![(Duration::ZERO, rate)],
        }
    }

    /// An explicit piecewise schedule. Offsets must start at zero and
    /// strictly increase.
    pub fn piecewise(steps: Vec<(Duration, f64)>) -> Self {
        assert!(!steps.is_empty(), "empty schedule");
        assert_eq!(steps[0].0, Duration::ZERO, "first step must be at 0");
        for w in steps.windows(2) {
            assert!(w[0].0 < w[1].0, "offsets must increase");
        }
        for &(_, r) in &steps {
            assert!(r > 0.0 && r.is_finite(), "bad rate {r}");
        }
        RateSchedule { steps }
    }

    /// The rate in effect at `elapsed` since the epoch.
    pub fn rate_at(&self, elapsed: Duration) -> f64 {
        let idx = self
            .steps
            .partition_point(|&(off, _)| off <= elapsed)
            .saturating_sub(1);
        self.steps[idx].1
    }
}

/// A token bucket over a [`RateSchedule`].
#[derive(Debug)]
pub struct TokenBucket {
    schedule: RateSchedule,
    epoch: Instant,
    tokens: f64,
    burst: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// Creates a bucket with the given schedule and burst size (bytes).
    /// The bucket starts full; the schedule's epoch is now.
    pub fn new(schedule: RateSchedule, burst: f64) -> Self {
        Self::with_epoch(schedule, burst, Instant::now())
    }

    /// Creates a bucket whose schedule is anchored at `epoch` — several
    /// buckets (one per connection) can then share one path timeline.
    pub fn with_epoch(schedule: RateSchedule, burst: f64, epoch: Instant) -> Self {
        assert!(burst > 0.0, "zero burst");
        TokenBucket {
            schedule,
            epoch,
            tokens: burst,
            burst,
            last_refill: Instant::now(),
        }
    }

    fn refill(&mut self, now: Instant) {
        let dt = now.duration_since(self.last_refill);
        // Use the rate at the interval midpoint — close enough for the
        // ~ms refill cadence the reactor produces.
        let mid = now.duration_since(self.epoch).saturating_sub(dt / 2);
        let rate = self.schedule.rate_at(mid);
        self.tokens = (self.tokens + rate * dt.as_secs_f64()).min(self.burst);
        self.last_refill = now;
    }

    /// Takes up to `want` tokens as of `now`; returns how many were
    /// granted (possibly zero).
    pub fn take_at(&mut self, want: usize, now: Instant) -> usize {
        self.refill(now);
        let granted = (want as f64).min(self.tokens).floor();
        self.tokens -= granted;
        granted as usize
    }

    /// How long to wait, as of `now`, before ~`want` tokens will be
    /// available at the rate scheduled at that instant.
    pub fn eta_at(&self, want: usize, now: Instant) -> Duration {
        let missing = (want as f64 - self.tokens).max(0.0);
        let rate = self.schedule.rate_at(now.duration_since(self.epoch));
        Duration::from_secs_f64((missing / rate).clamp(0.0005, 0.25))
    }

    /// How long a writer that found the bucket dry parks, as of `now`,
    /// before it retries a write of `want` bytes: until the bucket
    /// holds `min(want, burst / 2)` tokens. A wake that comes late by
    /// less than half a burst's refill time then finds the bucket below
    /// its cap, so the lateness costs no tokens; parking until a whole
    /// burst is due would discard every token of the lateness. The
    /// reactor turns this into a poll timeout.
    pub fn park_at(&self, want: usize, now: Instant) -> Duration {
        self.eta_at(want.min((self.burst / 2.0) as usize), now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_lookup() {
        let s = RateSchedule::piecewise(vec![
            (Duration::ZERO, 100.0),
            (Duration::from_secs(2), 400.0),
        ]);
        assert_eq!(s.rate_at(Duration::from_millis(100)), 100.0);
        assert_eq!(s.rate_at(Duration::from_secs(2)), 400.0);
        assert_eq!(s.rate_at(Duration::from_secs(60)), 400.0);
    }

    #[test]
    #[should_panic(expected = "first step must be at 0")]
    fn schedule_must_start_at_zero() {
        RateSchedule::piecewise(vec![(Duration::from_secs(1), 1.0)]);
    }

    #[test]
    fn bucket_grants_burst_then_paces() {
        let mut b = TokenBucket::new(RateSchedule::constant(1000.0), 500.0);
        let t0 = Instant::now();
        // Full burst immediately.
        assert_eq!(b.take_at(500, t0), 500);
        // Nothing more at the same instant.
        assert_eq!(b.take_at(100, t0), 0);
        // After 100 ms, ~100 tokens refilled.
        let t1 = t0 + Duration::from_millis(100);
        let got = b.take_at(200, t1);
        assert!((95..=105).contains(&got), "got {got}");
    }

    #[test]
    fn bucket_caps_at_burst() {
        let mut b = TokenBucket::new(RateSchedule::constant(1_000_000.0), 1000.0);
        let t0 = Instant::now();
        let t_late = t0 + Duration::from_secs(60);
        // Even after a minute idle, only `burst` tokens available.
        assert_eq!(b.take_at(1_000_000, t_late), 1000);
    }

    #[test]
    fn eta_reasonable() {
        let mut b = TokenBucket::new(RateSchedule::constant(1000.0), 100.0);
        let t0 = Instant::now();
        b.take_at(100, t0); // drain
        let eta = b.eta_at(100, t0);
        // 100 tokens at 1000/s = 100 ms (clamped window 0.5..250 ms).
        assert!(eta >= Duration::from_millis(50) && eta <= Duration::from_millis(250));
    }

    /// The daemons' burst.
    const BURST: f64 = 16_384.0;

    /// Paces 8 MiB of 16 KiB chunks through a bucket the way
    /// `Conn::flush_out` does, on synthetic instants: write what the
    /// bucket grants, and when it grants nothing wait `park` plus a
    /// wake `late` by that much. Returns the bytes delivered and the
    /// seconds it took.
    fn pace(
        rate: f64,
        late: Duration,
        park: fn(&TokenBucket, usize, Instant) -> Duration,
    ) -> (f64, f64) {
        use crate::conn::SPLICE_CHUNK;
        const TOTAL: usize = 8 << 20;
        let mut b = TokenBucket::new(RateSchedule::constant(rate), BURST);
        let t0 = Instant::now();
        let (mut t, mut budget, mut sent) = (t0, 0, 0);
        while sent < TOTAL {
            let want = SPLICE_CHUNK - sent % SPLICE_CHUNK;
            if budget == 0 {
                budget = b.take_at(want, t);
            }
            if budget == 0 {
                t += park(&b, want, t) + late;
                continue;
            }
            let n = budget.min(want);
            sent += n;
            budget -= n;
        }
        (sent as f64, (t - t0).as_secs_f64())
    }

    #[test]
    fn late_wakes_cost_no_tokens() {
        // A bucket that discards nothing delivers exactly the upper
        // bound, so it gets a byte of slack for float rounding.
        let within = |rate: f64, (bytes, secs): (f64, f64)| {
            (rate * secs - BURST..=rate * secs + BURST + 1.0).contains(&bytes)
        };
        for rate in [4e6, 6e6, 8e6] {
            for late_us in [0, 100, 500] {
                let late = Duration::from_micros(late_us);
                let paced = pace(rate, late, TokenBucket::park_at);
                assert!(within(rate, paced), "{rate} B/s, {late:?} late: {paced:?}");
                // Parking until the whole chunk is due discards every
                // token of lateness: the model tells the two apart.
                if late_us > 0 {
                    let whole = pace(rate, late, TokenBucket::eta_at);
                    assert!(!within(rate, whole), "{rate} B/s, {late:?}: {whole:?}");
                }
            }
        }
    }

    #[test]
    fn schedule_shifts_pace() {
        let mut b = TokenBucket::new(
            RateSchedule::piecewise(vec![
                (Duration::ZERO, 100.0),
                (Duration::from_secs(1), 10_000.0),
            ]),
            100.0,
        );
        let t0 = Instant::now();
        b.take_at(100, t0); // drain burst
                            // During the slow first second: ~100 tokens in 1 s.
        let got_slow = b.take_at(10_000, t0 + Duration::from_millis(900));
        assert!(got_slow < 150, "slow phase granted {got_slow}");
        // Fast phase: ~10k tokens per second (capped by burst anyway).
        let got_fast = b.take_at(10_000, t0 + Duration::from_secs(3));
        assert!(got_fast >= 90, "fast phase granted {got_fast}");
    }
}
