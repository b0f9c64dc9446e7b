//! Per-path EWMA rate tracking for the chunk scheduler.

/// An exponentially-weighted moving average over observed per-chunk
/// throughputs. A rate of zero means "no estimate yet": the first
/// finite positive observation is adopted wholesale rather than blended
/// against nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaRate {
    alpha: f64,
    rate: f64,
}

impl EwmaRate {
    /// A tracker with no estimate yet.
    pub fn new(alpha: f64) -> EwmaRate {
        EwmaRate { alpha, rate: 0.0 }
    }

    /// A tracker seeded with an initial estimate (e.g. the probe rate).
    /// Non-finite or negative seeds collapse to "no estimate".
    pub fn seeded(alpha: f64, rate: f64) -> EwmaRate {
        let mut e = EwmaRate::new(alpha);
        if rate.is_finite() && rate > 0.0 {
            e.rate = rate;
        }
        e
    }

    /// Folds one observed throughput into the estimate. Non-finite or
    /// negative observations are ignored (a cancelled flow measures
    /// nothing); an observed zero is blended in — sustained silence
    /// should drag the estimate down, not freeze it.
    pub fn observe(&mut self, observed: f64) {
        if !observed.is_finite() || observed < 0.0 {
            return;
        }
        if self.rate > 0.0 {
            self.rate = self.alpha * observed + (1.0 - self.alpha) * self.rate;
        } else {
            self.rate = observed;
        }
    }

    /// Current estimate in bytes/sec (zero while unseeded).
    pub fn get(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_is_adopted() {
        let mut e = EwmaRate::new(0.3);
        assert_eq!(e.get(), 0.0);
        e.observe(1000.0);
        assert_eq!(e.get(), 1000.0);
    }

    #[test]
    fn later_observations_blend() {
        let mut e = EwmaRate::seeded(0.25, 1000.0);
        e.observe(2000.0);
        assert!((e.get() - 1250.0).abs() < 1e-9);
        e.observe(0.0); // silence drags the estimate down
        assert!((e.get() - 937.5).abs() < 1e-9);
    }

    #[test]
    fn garbage_is_ignored() {
        let mut e = EwmaRate::seeded(0.5, 500.0);
        e.observe(f64::NAN);
        e.observe(f64::INFINITY);
        e.observe(-1.0);
        assert_eq!(e.get(), 500.0);
        assert_eq!(EwmaRate::seeded(0.5, f64::NAN).get(), 0.0);
        assert_eq!(EwmaRate::seeded(0.5, -3.0).get(), 0.0);
    }
}
