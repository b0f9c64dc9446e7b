//! Simulated time.
//!
//! Time is an integer count of **microseconds** since the simulation
//! epoch. Integer time keeps the event loop deterministic (no
//! accumulating float error in comparisons) while one microsecond of
//! resolution is far below anything a throughput measurement can
//! resolve.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (microseconds since the epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);
ir_artifact::declare! { StableHash + Codec for struct SimTime(micros) }

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);
ir_artifact::declare! { StableHash for struct SimDuration(micros) }

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as a sentinel for "no next event".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000)
    }

    /// Builds an instant from whole milliseconds.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000)
    }

    /// Builds an instant from whole microseconds.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us)
    }

    /// Builds an instant from fractional seconds (rounds to the nearest
    /// microsecond).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> SimTime {
        assert!(s.is_finite() && s >= 0.0, "bad time {s}");
        SimTime((s * 1e6).round() as u64)
    }

    /// This instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Microseconds since the epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier <= self,
            "time went backwards: {earlier:?} > {self:?}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating addition of a duration (clamps at [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000)
    }

    /// Builds a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    /// Builds a span from whole microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// Builds a span from fractional seconds (rounds to nearest
    /// microsecond).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(s.is_finite() && s >= 0.0, "bad duration {s}");
        SimDuration((s * 1e6).round() as u64)
    }

    /// Like [`SimDuration::from_secs_f64`] but always rounds **up** to
    /// the next microsecond, so a nonzero float span never becomes a
    /// zero integer span (which could stall an event loop).
    pub fn from_secs_f64_ceil(s: f64) -> SimDuration {
        assert!(s.is_finite() && s >= 0.0, "bad duration {s}");
        // `ceil` without the libm call (the baseline x86-64 target has
        // no rounding instruction): truncate, then step up if that lost
        // a fraction. Exact — past 2^53 every f64 is an integer already,
        // and the cast saturates.
        let us = s * 1e6;
        let whole = us as u64;
        SimDuration(whole.saturating_add(((whole as f64) < us) as u64))
    }

    /// This span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Microseconds in this span.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// True for the zero-length span.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 10_500_000);
        assert_eq!((t - SimTime::from_secs(10)).as_micros(), 500_000);
        let mut u = SimTime::ZERO;
        u += SimDuration::from_micros(7);
        assert_eq!(u.as_micros(), 7);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn negative_duration_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn ceil_rounding_never_zero() {
        let d = SimDuration::from_secs_f64_ceil(1e-9);
        assert_eq!(d.as_micros(), 1);
        assert!(SimDuration::from_secs_f64_ceil(0.0).is_zero());
    }

    #[test]
    fn ceil_matches_libm_ceil_bit_for_bit() {
        let mut x = 0.37f64;
        for k in 0..4000u32 {
            // Fractions, exact integers, and magnitudes up to overflow.
            for s in [x, x.floor(), (x * 1e6).ceil() / 1e6, x * 1e-9] {
                assert_eq!(
                    SimDuration::from_secs_f64_ceil(s).0,
                    (s * 1e6).ceil() as u64,
                    "s = {s:e}"
                );
            }
            x = x * 1.013 + (k % 7) as f64 * 0.25;
        }
        assert!(x > 1e20, "sweep must pass u64 saturation (reached {x:e})");
    }

    #[test]
    fn saturating_add_clamps() {
        let t = SimTime::MAX.saturating_add(SimDuration::from_secs(1));
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
        assert_eq!(format!("{}", SimDuration::from_micros(3)), "0.000003s");
    }

    #[test]
    #[should_panic(expected = "bad time")]
    fn from_secs_f64_rejects_negative() {
        SimTime::from_secs_f64(-1.0);
    }
}
