//! Empirical cumulative distribution functions.
//!
//! Used to report the "84% of the data points lie between 0 and 100"
//! style statements in the paper (§3.1) and for quantile lookups in the
//! experiment reports.

/// An empirical CDF built from a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains NaN.
    pub fn new(data: &[f64]) -> Self {
        assert!(!data.is_empty(), "ECDF of empty sample");
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        Ecdf { sorted }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (construction rejects empty samples); provided for
    /// clippy-idiomatic pairing with `len`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `P(X <= x)`: fraction of observations at or below `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Fraction of mass strictly below `x`.
    pub fn below(&self, x: f64) -> f64 {
        let n = self.sorted.partition_point(|&v| v < x);
        n as f64 / self.sorted.len() as f64
    }

    /// Fraction of mass in `[a, b]`.
    pub fn mass_in(&self, a: f64, b: f64) -> f64 {
        assert!(a <= b, "inverted interval");
        self.cdf(b) - self.below(a)
    }

    /// Quantile `q` in `[0, 1]` (inverse CDF, lower interpolation of the
    /// order statistic).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        crate::summary::percentile_sorted(&self.sorted, q * 100.0)
    }

    /// Median shorthand.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The underlying sorted sample.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_step_values() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.cdf(100.0), 1.0);
    }

    #[test]
    fn below_is_strict() {
        let e = Ecdf::new(&[1.0, 1.0, 2.0]);
        assert_eq!(e.below(1.0), 0.0);
        assert!((e.cdf(1.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mass_in_interval() {
        let e = Ecdf::new(&[-10.0, 0.0, 50.0, 99.0, 150.0]);
        // [0, 100] contains 0, 50, 99 → 3/5.
        assert!((e.mass_in(0.0, 100.0) - 0.6).abs() < 1e-12);
        assert!((e.mass_in(-20.0, 200.0) - 1.0).abs() < 1e-12);
        assert_eq!(e.mass_in(10.0, 20.0), 0.0);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0]);
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(1.0), 30.0);
        assert_eq!(e.median(), 20.0);
    }

    #[test]
    fn handles_duplicates() {
        let e = Ecdf::new(&[5.0; 10]);
        assert_eq!(e.cdf(5.0), 1.0);
        assert_eq!(e.below(5.0), 0.0);
        assert_eq!(e.median(), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        Ecdf::new(&[]);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_interval_panics() {
        Ecdf::new(&[1.0]).mass_in(2.0, 1.0);
    }
}
