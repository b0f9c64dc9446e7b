//! Time-varying available-bandwidth processes.
//!
//! Each directed link carries a piecewise-constant *available bandwidth*
//! process (bytes/sec). The paper's phenomenon — throughput diversity
//! that changes over time, with occasional regime flips that fool the
//! probe-based predictor — lives entirely in these processes:
//!
//! * [`ConstantProcess`] — fixed rate (calibration, tests).
//! * [`PiecewiseProcess`] — explicit breakpoints (tests, replay).
//! * [`RegimeSwitchingProcess`] — a continuous-time Markov chain over a
//!   small set of rate levels with exponential holding times and
//!   per-segment lognormal noise. This models the "path load and amount
//!   of statistical multiplexing … can dynamically change throughout the
//!   course of a transfer" behaviour the paper cites from He et al.
//! * [`Ar1LogProcess`] — mean-reverting AR(1) on log-rate at a fixed
//!   tick; models gentle drift around a baseline.
//! * [`JumpMixProcess`] — decorator adding rare multiplicative level
//!   shifts (the "small jumps" the paper observes on indirect paths in
//!   Fig 4).
//!
//! All processes are deterministic functions of their construction seed
//! that only extend forward. That is what lets every clone of a
//! [`crate::sim::Network`] — each study task's copy of its scenario,
//! each hindsight-oracle replica — share one process per link: whichever clone first needs a segment
//! draws it, and every other reads the same values it would have drawn
//! itself.

use crate::time::{SimDuration, SimTime};
use ir_stats::sampling::{Exponential, LogNormal, Sample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Minimum rate any process will report, in bytes/sec. A literal zero
/// would stall flows forever; 1 B/s keeps the math finite while being
/// effectively "down".
pub const MIN_RATE: f64 = 1.0;

/// A time-varying available-bandwidth process (bytes/sec).
///
/// Implementations lazily materialise a piecewise-constant timeline;
/// queries may revisit past times but the process only ever *extends*
/// forward, so results are stable across queries — and do not depend
/// on the order of the queries that extended it, which is why a
/// network's clones may share one process.
pub trait BandwidthProcess: Send + Sync {
    /// Available bandwidth at `t`, in bytes/sec. Always `>= MIN_RATE`.
    fn rate_at(&mut self, t: SimTime) -> f64;

    /// Earliest instant strictly after `t` at which the rate changes,
    /// or `None` if the rate is constant forever after `t`.
    fn next_change_after(&mut self, t: SimTime) -> Option<SimTime>;

    /// Clones into a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn BandwidthProcess>;
}

impl Clone for Box<dyn BandwidthProcess> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A lazily extended piecewise-constant timeline. `starts[0]` is always
/// `SimTime::ZERO`; segment `i` covers `[starts[i], starts[i+1])`.
/// Stores raw values — processes clamp to [`MIN_RATE`] when *rates* are
/// returned (the same structure also stores jump *factors*, which may
/// legitimately be below 1.0).
#[derive(Debug, Clone)]
struct Timeline {
    starts: Vec<SimTime>,
    rates: Vec<f64>,
    /// Everything before `horizon` is materialised.
    horizon: SimTime,
}

impl Timeline {
    fn new(initial_rate: f64) -> Self {
        Timeline {
            starts: vec![SimTime::ZERO],
            rates: vec![initial_rate],
            horizon: SimTime::ZERO,
        }
    }

    fn push(&mut self, start: SimTime, rate: f64) {
        debug_assert!(start > *self.starts.last().unwrap());
        self.starts.push(start);
        self.rates.push(rate);
        self.horizon = start;
    }

    fn segment_index(&self, t: SimTime) -> usize {
        // partition_point returns the count of starts <= t; segment is
        // that minus one.
        self.starts.partition_point(|&s| s <= t) - 1
    }

    fn rate_at(&self, t: SimTime) -> f64 {
        self.rates[self.segment_index(t)]
    }

    /// Next start strictly after `t` **within the materialised horizon**.
    fn next_start_after(&self, t: SimTime) -> Option<SimTime> {
        let idx = self.starts.partition_point(|&s| s <= t);
        self.starts.get(idx).copied()
    }
}

/// Fixed-rate process.
#[derive(Debug, Clone)]
pub struct ConstantProcess {
    rate: f64,
}

impl ConstantProcess {
    /// Creates a constant process with `rate` bytes/sec.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "bad rate {rate}");
        ConstantProcess {
            rate: rate.max(MIN_RATE),
        }
    }
}

impl BandwidthProcess for ConstantProcess {
    fn rate_at(&mut self, _t: SimTime) -> f64 {
        self.rate
    }
    fn next_change_after(&mut self, _t: SimTime) -> Option<SimTime> {
        None
    }
    fn clone_box(&self) -> Box<dyn BandwidthProcess> {
        Box::new(self.clone())
    }
}

/// Explicit piecewise-constant process from `(start, rate)` breakpoints.
#[derive(Debug, Clone)]
pub struct PiecewiseProcess {
    starts: Vec<SimTime>,
    rates: Vec<f64>,
}

impl PiecewiseProcess {
    /// Creates a piecewise process. The first breakpoint must be at
    /// `SimTime::ZERO` and starts must be strictly increasing.
    pub fn new(breakpoints: Vec<(SimTime, f64)>) -> Self {
        assert!(!breakpoints.is_empty(), "no breakpoints");
        assert_eq!(
            breakpoints[0].0,
            SimTime::ZERO,
            "first breakpoint must be t=0"
        );
        let mut starts = Vec::with_capacity(breakpoints.len());
        let mut rates = Vec::with_capacity(breakpoints.len());
        for (t, r) in breakpoints {
            assert!(r.is_finite() && r > 0.0, "bad rate {r}");
            if let Some(&prev) = starts.last() {
                assert!(t > prev, "breakpoints must be strictly increasing");
            }
            starts.push(t);
            rates.push(r.max(MIN_RATE));
        }
        PiecewiseProcess { starts, rates }
    }
}

impl BandwidthProcess for PiecewiseProcess {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        let idx = self.starts.partition_point(|&s| s <= t) - 1;
        self.rates[idx]
    }
    fn next_change_after(&mut self, t: SimTime) -> Option<SimTime> {
        let idx = self.starts.partition_point(|&s| s <= t);
        self.starts.get(idx).copied()
    }
    fn clone_box(&self) -> Box<dyn BandwidthProcess> {
        Box::new(self.clone())
    }
}

/// Continuous-time Markov chain over rate levels with exponential
/// holding times and per-segment multiplicative lognormal noise.
#[derive(Debug, Clone)]
pub struct RegimeSwitchingProcess {
    timeline: Timeline,
    rng: StdRng,
    levels: Vec<f64>,
    hold_means: Vec<SimDuration>,
    noise_sigma: f64,
    state: usize,
}

impl RegimeSwitchingProcess {
    /// Creates a regime-switching process with a uniform mean holding
    /// time for every regime.
    pub fn new(levels: Vec<f64>, hold_mean: SimDuration, noise_sigma: f64, seed: u64) -> Self {
        let holds = vec![hold_mean; levels.len()];
        Self::with_holds(levels, holds, noise_sigma, seed)
    }

    /// Creates a regime-switching process with **per-level** mean
    /// holding times.
    ///
    /// * `levels` — the base rate (bytes/sec) of each regime;
    /// * `hold_means` — mean exponential dwell per regime (same length
    ///   as `levels`). Asymmetric dwells matter: brief low regimes are
    ///   what turn probe-time dips into later penalties rather than
    ///   sustained gains;
    /// * `noise_sigma` — lognormal sigma of per-segment noise (0 = none);
    /// * `seed` — RNG seed (the process is a pure function of it).
    ///
    /// The initial state is drawn with probability proportional to its
    /// mean dwell (approximate stationarity).
    pub fn with_holds(
        levels: Vec<f64>,
        hold_means: Vec<SimDuration>,
        noise_sigma: f64,
        seed: u64,
    ) -> Self {
        assert!(!levels.is_empty(), "no levels");
        assert!(
            levels.iter().all(|&l| l.is_finite() && l > 0.0),
            "bad level"
        );
        assert_eq!(levels.len(), hold_means.len(), "holds/levels mismatch");
        assert!(hold_means.iter().all(|h| !h.is_zero()), "zero holding time");
        assert!(noise_sigma >= 0.0, "negative sigma");
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = hold_means.iter().map(|h| h.as_secs_f64()).collect();
        let state = ir_stats::sampling::weighted_index(&mut rng, &weights);
        let noise = LogNormal::new(0.0, noise_sigma);
        let first = levels[state] * noise.sample(&mut rng).max(0.05);
        RegimeSwitchingProcess {
            timeline: Timeline::new(first),
            rng,
            levels,
            hold_means,
            noise_sigma,
            state,
        }
    }

    fn ensure(&mut self, t: SimTime) {
        let noise = LogNormal::new(0.0, self.noise_sigma);
        while self.timeline.horizon <= t {
            let hold = Exponential::with_mean(self.hold_means[self.state].as_secs_f64());
            let dwell = SimDuration::from_secs_f64_ceil(hold.sample(&mut self.rng).max(1e-6));
            let next_start = self.timeline.horizon + dwell;
            // Jump to a uniformly random *different* state when more than
            // one level exists.
            if self.levels.len() > 1 {
                let mut next = self.rng.gen_range(0..self.levels.len() - 1);
                if next >= self.state {
                    next += 1;
                }
                self.state = next;
            }
            // Clamp noise below so a rate never collapses to ~0 by noise
            // alone (regime levels encode real outages if desired).
            let rate = self.levels[self.state] * noise.sample(&mut self.rng).max(0.05);
            self.timeline.push(next_start, rate);
        }
    }
}

impl BandwidthProcess for RegimeSwitchingProcess {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        self.ensure(t);
        self.timeline.rate_at(t).max(MIN_RATE)
    }

    fn next_change_after(&mut self, t: SimTime) -> Option<SimTime> {
        // `ensure(t)` materialises past `t`, so a later start exists.
        self.ensure(t);
        self.timeline.next_start_after(t)
    }

    fn clone_box(&self) -> Box<dyn BandwidthProcess> {
        Box::new(self.clone())
    }
}

/// Mean-reverting AR(1) on log-rate, sampled at a fixed tick.
///
/// `log r_{k+1} = log m + phi (log r_k - log m) + sigma eps_k`, so the
/// stationary median is `m` and `phi` in `[0,1)` controls persistence.
/// Segment `k` is `[k tick, (k+1) tick)`, so the timeline stores rates
/// only: half the bytes a shared timeline keeps, and a lookup is one
/// division.
#[derive(Debug, Clone)]
pub struct Ar1LogProcess {
    /// `rates[k]` holds on segment `k`; every segment before the last
    /// is materialised.
    rates: Vec<f64>,
    rng: StdRng,
    log_median: f64,
    phi: f64,
    sigma: f64,
    tick: SimDuration,
    log_state: f64,
}

impl Ar1LogProcess {
    /// Creates an AR(1) log-rate process with stationary median
    /// `median` bytes/sec, persistence `phi`, innovation `sigma`, and
    /// sampling interval `tick`.
    pub fn new(median: f64, phi: f64, sigma: f64, tick: SimDuration, seed: u64) -> Self {
        assert!(median > 0.0 && median.is_finite(), "bad median");
        assert!((0.0..1.0).contains(&phi), "phi must be in [0,1)");
        assert!(sigma >= 0.0, "negative sigma");
        assert!(!tick.is_zero(), "zero tick");
        let mut rng = StdRng::seed_from_u64(seed);
        // Start from the stationary distribution.
        let stationary_sigma = if sigma == 0.0 {
            0.0
        } else {
            sigma / (1.0 - phi * phi).sqrt()
        };
        let log_median = median.ln();
        let log_state =
            ir_stats::sampling::Normal::new(log_median, stationary_sigma).sample(&mut rng);
        Ar1LogProcess {
            rates: vec![log_state.exp()],
            rng,
            log_median,
            phi,
            sigma,
            tick,
            log_state,
        }
    }

    /// The segment holding `t`, materialising it and the next one's
    /// start (the last segment's start is the materialised horizon).
    fn ensure(&mut self, t: SimTime) -> usize {
        let k = (t.as_micros() / self.tick.as_micros()) as usize;
        while self.rates.len() <= k + 1 {
            let eps = ir_stats::sampling::Normal::new(0.0, 1.0).sample(&mut self.rng);
            self.log_state =
                self.log_median + self.phi * (self.log_state - self.log_median) + self.sigma * eps;
            self.rates.push(self.log_state.exp());
        }
        k
    }
}

impl BandwidthProcess for Ar1LogProcess {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        let k = self.ensure(t);
        self.rates[k].max(MIN_RATE)
    }

    fn next_change_after(&mut self, t: SimTime) -> Option<SimTime> {
        let k = self.ensure(t) as u64;
        let next = (k + 1).checked_mul(self.tick.as_micros());
        Some(SimTime::from_micros(next.expect("SimTime overflow")))
    }

    fn clone_box(&self) -> Box<dyn BandwidthProcess> {
        Box::new(self.clone())
    }
}

/// Decorator adding rare multiplicative level shifts ("jumps") on top of
/// an inner process: episodes arrive as a Poisson process, last an
/// exponential duration, and scale the inner rate by a fixed factor.
pub struct JumpMixProcess {
    inner: Box<dyn BandwidthProcess>,
    // Factor timeline generated lazily, analogous to Timeline.
    factor: Timeline,
    rng: StdRng,
    arrival_mean: SimDuration,
    duration_mean: SimDuration,
    jump_factor: f64,
}

// Box<dyn BandwidthProcess> is Clone via clone_box, but derive(Clone)
// can't see that Send propagates; spell the impl out.
impl JumpMixProcess {
    /// Creates a jump decorator.
    ///
    /// * `arrival_mean` — mean time between jump episodes;
    /// * `duration_mean` — mean episode length;
    /// * `jump_factor` — multiplier applied during an episode (e.g. 0.3
    ///   for a throughput drop, 2.0 for a surge).
    pub fn new(
        inner: Box<dyn BandwidthProcess>,
        arrival_mean: SimDuration,
        duration_mean: SimDuration,
        jump_factor: f64,
        seed: u64,
    ) -> Self {
        assert!(!arrival_mean.is_zero(), "zero arrival mean");
        assert!(!duration_mean.is_zero(), "zero duration mean");
        assert!(jump_factor > 0.0 && jump_factor.is_finite(), "bad factor");
        JumpMixProcess {
            inner,
            factor: Timeline::new(1.0),
            rng: StdRng::seed_from_u64(seed),
            arrival_mean,
            duration_mean,
            jump_factor,
        }
    }

    fn ensure_factor(&mut self, t: SimTime) {
        let arrive = Exponential::with_mean(self.arrival_mean.as_secs_f64());
        let last = Exponential::with_mean(self.duration_mean.as_secs_f64());
        while self.factor.horizon <= t {
            // Alternate: quiet gap, then an episode.
            let gap = SimDuration::from_secs_f64_ceil(arrive.sample(&mut self.rng).max(1e-6));
            let episode_start = self.factor.horizon + gap;
            self.factor.push(episode_start, self.jump_factor);
            let dur = SimDuration::from_secs_f64_ceil(last.sample(&mut self.rng).max(1e-6));
            let episode_end = episode_start + dur;
            self.factor.push(episode_end, 1.0);
        }
    }
}

impl BandwidthProcess for JumpMixProcess {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        self.ensure_factor(t);
        (self.inner.rate_at(t) * self.factor.rate_at(t)).max(MIN_RATE)
    }

    fn next_change_after(&mut self, t: SimTime) -> Option<SimTime> {
        self.ensure_factor(t);
        let inner_next = self.inner.next_change_after(t);
        // The factor timeline always extends; next_start_after may need
        // more material.
        let mut fac_next = self.factor.next_start_after(t);
        while fac_next.is_none() {
            self.ensure_factor(self.factor.horizon + SimDuration::from_secs(3600));
            fac_next = self.factor.next_start_after(t);
        }
        match (inner_next, fac_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (None, b) => b,
            (a, None) => a,
        }
    }

    fn clone_box(&self) -> Box<dyn BandwidthProcess> {
        Box::new(JumpMixProcess {
            inner: self.inner.clone_box(),
            factor: self.factor.clone(),
            rng: self.rng.clone(),
            arrival_mean: self.arrival_mean,
            duration_mean: self.duration_mean,
            jump_factor: self.jump_factor,
        })
    }
}

impl Clone for JumpMixProcess {
    fn clone(&self) -> Self {
        JumpMixProcess {
            inner: self.inner.clone_box(),
            factor: self.factor.clone(),
            rng: self.rng.clone(),
            arrival_mean: self.arrival_mean,
            duration_mean: self.duration_mean,
            jump_factor: self.jump_factor,
        }
    }
}

/// A diurnal modulation: multiplies an inner process by a day-period
/// load curve (busy hours depress available bandwidth). The paper's
/// studies ran 10-hour and 6-hour sessions and staggered control/
/// treatment "so that time-of-day effects are minimized" — this
/// compositor lets scenarios put those effects back in.
pub struct DiurnalProcess {
    inner: Box<dyn BandwidthProcess>,
    /// Modulation depth in (0, 1): rate swings between `1-depth` and 1.
    depth: f64,
    /// Day length.
    period: SimDuration,
    /// Step at which the (piecewise-constant) curve is sampled.
    step: SimDuration,
    /// Offset of the busiest time within the period.
    peak_offset: SimDuration,
}

impl DiurnalProcess {
    /// Creates a diurnal modulation of `inner`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < depth < 1` and both durations are nonzero.
    pub fn new(
        inner: Box<dyn BandwidthProcess>,
        depth: f64,
        period: SimDuration,
        peak_offset: SimDuration,
    ) -> Self {
        assert!((0.0..1.0).contains(&depth) && depth > 0.0, "bad depth");
        assert!(!period.is_zero(), "zero period");
        let step = SimDuration::from_micros((period.as_micros() / 96).max(1));
        DiurnalProcess {
            inner,
            depth,
            period,
            step,
            peak_offset,
        }
    }

    fn factor_at(&self, t: SimTime) -> f64 {
        // Quantise to the step so the factor is piecewise-constant and
        // boundaries are predictable.
        let q = (t.as_micros() / self.step.as_micros()) * self.step.as_micros();
        let phase = ((q + self.period.as_micros()
            - self.peak_offset.as_micros() % self.period.as_micros())
            % self.period.as_micros()) as f64
            / self.period.as_micros() as f64;
        // Cosine load curve: factor = 1 - depth at the peak, 1 off-peak.
        let load = (std::f64::consts::TAU * phase).cos() * 0.5 + 0.5;
        1.0 - self.depth * load
    }
}

impl BandwidthProcess for DiurnalProcess {
    fn rate_at(&mut self, t: SimTime) -> f64 {
        (self.inner.rate_at(t) * self.factor_at(t)).max(MIN_RATE)
    }
    fn next_change_after(&mut self, t: SimTime) -> Option<SimTime> {
        let next_step = SimTime::from_micros(
            (t.as_micros() / self.step.as_micros() + 1) * self.step.as_micros(),
        );
        match self.inner.next_change_after(t) {
            Some(x) => Some(x.min(next_step)),
            None => Some(next_step),
        }
    }
    fn clone_box(&self) -> Box<dyn BandwidthProcess> {
        Box::new(DiurnalProcess {
            inner: self.inner.clone_box(),
            depth: self.depth,
            period: self.period,
            step: self.step,
            peak_offset: self.peak_offset,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn constant_process_never_changes() {
        let mut p = ConstantProcess::new(1e6);
        assert_eq!(p.rate_at(SimTime::ZERO), 1e6);
        assert_eq!(p.rate_at(t(100_000)), 1e6);
        assert_eq!(p.next_change_after(SimTime::ZERO), None);
    }

    #[test]
    fn piecewise_lookup_and_changes() {
        let mut p = PiecewiseProcess::new(vec![(SimTime::ZERO, 10.0), (t(10), 20.0), (t(20), 5.0)]);
        assert_eq!(p.rate_at(SimTime::ZERO), 10.0);
        assert_eq!(p.rate_at(t(9)), 10.0);
        assert_eq!(p.rate_at(t(10)), 20.0);
        assert_eq!(p.rate_at(t(25)), 5.0);
        assert_eq!(p.next_change_after(SimTime::ZERO), Some(t(10)));
        assert_eq!(p.next_change_after(t(10)), Some(t(20)));
        assert_eq!(p.next_change_after(t(20)), None);
    }

    #[test]
    #[should_panic(expected = "first breakpoint")]
    fn piecewise_must_start_at_zero() {
        PiecewiseProcess::new(vec![(t(1), 10.0)]);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // miri: thousands of rate_at samples, minutes under the interpreter
    fn regime_switching_is_deterministic_and_positive() {
        let mk = || {
            RegimeSwitchingProcess::new(vec![1e5, 1e6, 5e6], SimDuration::from_secs(300), 0.2, 42)
        };
        let mut a = mk();
        let mut b = mk();
        for s in (0..36_000).step_by(61) {
            let ra = a.rate_at(t(s));
            assert!(ra >= MIN_RATE);
            assert_eq!(ra, b.rate_at(t(s)));
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // miri: thousands of rate_at samples, minutes under the interpreter
    fn regime_switching_actually_switches() {
        let mut p = RegimeSwitchingProcess::new(vec![1e5, 1e6], SimDuration::from_secs(60), 0.0, 7);
        let mut seen = std::collections::BTreeSet::new();
        for s in 0..3600 {
            seen.insert(p.rate_at(t(s)).to_bits());
        }
        assert!(seen.len() >= 2, "never switched");
    }

    #[test]
    fn regime_switching_rate_stable_after_requery() {
        let mut p = RegimeSwitchingProcess::new(vec![1e6, 2e6], SimDuration::from_secs(10), 0.3, 9);
        let early = p.rate_at(t(5));
        let _ = p.rate_at(t(10_000)); // extend far ahead
        assert_eq!(p.rate_at(t(5)), early, "history rewritten");
    }

    #[test]
    fn next_change_is_strictly_after_and_rate_differs_segment() {
        let mut p = RegimeSwitchingProcess::new(vec![1e5, 1e6], SimDuration::from_secs(30), 0.0, 3);
        let mut now = SimTime::ZERO;
        for _ in 0..50 {
            let next = p.next_change_after(now).unwrap();
            assert!(next > now);
            now = next;
        }
    }

    #[test]
    fn ar1_reverts_to_median() {
        let mut p = Ar1LogProcess::new(1e6, 0.9, 0.1, SimDuration::from_secs(30), 11);
        let mut rates: Vec<f64> = (0..5000).map(|i| p.rate_at(t(i * 30))).collect();
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = rates[rates.len() / 2];
        // Stationary median should be near 1e6 (within a factor ~1.5).
        assert!(med > 6e5 && med < 1.6e6, "median {med}");
    }

    #[test]
    fn ar1_segments_are_whole_ticks_and_stable_after_requery() {
        let tick = SimDuration::from_secs(30);
        let mut p = Ar1LogProcess::new(1e6, 0.9, 0.1, tick, 11);
        let probes = [0, 1, 29_999_999, 30_000_000, 95_000_000, 3_600_000_000];
        let first: Vec<(u64, Option<SimTime>)> = probes
            .iter()
            .map(|&us| {
                let t = SimTime::from_micros(us);
                (p.rate_at(t).to_bits(), p.next_change_after(t))
            })
            .collect();
        for (&us, &(rate, next)) in probes.iter().zip(&first) {
            let k = us / tick.as_micros();
            assert_eq!(next, Some(SimTime::from_micros((k + 1) * tick.as_micros())));
            let start = SimTime::from_micros(k * tick.as_micros());
            assert_eq!(
                p.rate_at(start).to_bits(),
                rate,
                "segment {k} is not constant"
            );
        }
        assert_ne!(first[0].0, first[3].0, "the rate never moved");
    }

    #[test]
    fn ar1_zero_sigma_is_constant() {
        let mut p = Ar1LogProcess::new(2e6, 0.5, 0.0, SimDuration::from_secs(1), 1);
        let r0 = p.rate_at(SimTime::ZERO);
        assert!((r0 - 2e6).abs() < 1e-6);
        assert!((p.rate_at(t(1000)) - 2e6).abs() < 1e-6);
    }

    #[test]
    fn jump_mix_applies_factor_sometimes() {
        let inner = Box::new(ConstantProcess::new(1e6));
        let mut p = JumpMixProcess::new(
            inner,
            SimDuration::from_secs(100),
            SimDuration::from_secs(50),
            0.25,
            5,
        );
        let mut low = 0;
        let mut high = 0;
        for s in 0..10_000 {
            let r = p.rate_at(t(s));
            if (r - 1e6).abs() < 1.0 {
                high += 1;
            } else if (r - 2.5e5).abs() < 1.0 {
                low += 1;
            } else {
                panic!("unexpected rate {r}");
            }
        }
        assert!(low > 0, "no jump episodes in 10ks");
        assert!(high > low, "jumps dominate; should be rare-ish");
    }

    #[test]
    #[cfg_attr(miri, ignore)] // miri: thousands of rate_at samples, minutes under the interpreter
    fn jump_mix_clone_matches_original() {
        let inner = Box::new(RegimeSwitchingProcess::new(
            vec![5e5, 2e6],
            SimDuration::from_secs(60),
            0.1,
            13,
        ));
        let p = JumpMixProcess::new(
            inner,
            SimDuration::from_secs(300),
            SimDuration::from_secs(30),
            0.5,
            17,
        );
        let mut a = p.clone();
        let mut b = p;
        for s in (0..7200).step_by(13) {
            assert_eq!(a.rate_at(t(s)), b.rate_at(t(s)));
        }
    }

    #[test]
    fn diurnal_depresses_at_peak_only() {
        let day = SimDuration::from_secs(86_400);
        let mut p = DiurnalProcess::new(
            Box::new(ConstantProcess::new(1000.0)),
            0.5,
            day,
            SimDuration::ZERO, // peak at t = 0
        );
        let at_peak = p.rate_at(SimTime::ZERO);
        let off_peak = p.rate_at(SimTime::from_secs(43_200)); // half a day
        assert!((at_peak - 500.0).abs() < 15.0, "peak {at_peak}");
        assert!((off_peak - 1000.0).abs() < 15.0, "off-peak {off_peak}");
        // Quantised boundaries exist and are strictly increasing.
        let n1 = p.next_change_after(SimTime::ZERO).unwrap();
        let n2 = p.next_change_after(n1).unwrap();
        assert!(SimTime::ZERO < n1 && n1 < n2);
    }

    #[test]
    fn diurnal_clone_matches() {
        let day = SimDuration::from_secs(3600);
        let p = DiurnalProcess::new(
            Box::new(ConstantProcess::new(777.0)),
            0.3,
            day,
            SimDuration::from_secs(900),
        );
        let mut a = p.clone_box();
        let mut b = p.clone_box();
        for s in (0..7200).step_by(61) {
            assert_eq!(a.rate_at(t(s)), b.rate_at(t(s)));
        }
    }

    #[test]
    fn boxed_clone_works() {
        let b: Box<dyn BandwidthProcess> = Box::new(ConstantProcess::new(7.0));
        let mut c = b.clone();
        assert_eq!(c.rate_at(SimTime::ZERO), 7.0);
    }
}
