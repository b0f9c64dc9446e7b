//! Mann–Kendall trend test.
//!
//! Fig 4 of the paper shows indirect-path throughput over time and argues
//! there is "no discernable uptrend or downtrend". We make that claim
//! falsifiable: the Mann–Kendall test is a nonparametric test for a
//! monotone trend in a time series, robust to the non-Gaussian noise of
//! throughput measurements.

/// Direction verdict at a significance level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trend {
    /// Statistically significant increasing trend.
    Increasing,
    /// Statistically significant decreasing trend.
    Decreasing,
    /// No significant monotone trend (the paper's Fig 4 claim).
    None,
}

/// Result of a Mann–Kendall test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannKendall {
    /// The S statistic: #(concordant pairs) − #(discordant pairs).
    pub s: i64,
    /// Normal-approximation z score (ties-corrected variance).
    pub z: f64,
    /// Two-sided p-value from the normal approximation.
    pub p_value: f64,
    /// Kendall's tau (S normalised by the number of pairs).
    pub tau: f64,
    /// Number of observations.
    pub n: usize,
}

impl MannKendall {
    /// Verdict at significance level `alpha` (e.g. 0.05).
    pub fn trend(&self, alpha: f64) -> Trend {
        if self.p_value < alpha {
            if self.s > 0 {
                Trend::Increasing
            } else {
                Trend::Decreasing
            }
        } else {
            Trend::None
        }
    }
}

/// Runs the Mann–Kendall test on a series sampled at uniform (or at least
/// ordered) time points.
///
/// # Panics
///
/// Panics if `series.len() < 3` (the test is undefined below that).
pub fn mann_kendall(series: &[f64]) -> MannKendall {
    let n = series.len();
    assert!(n >= 3, "Mann–Kendall needs at least 3 points, got {n}");

    let mut s: i64 = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            s += match series[j].partial_cmp(&series[i]).expect("NaN in series") {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
            };
        }
    }

    // Ties-corrected variance: Var(S) = [n(n-1)(2n+5) - Σ t(t-1)(2t+5)]/18
    let mut sorted = series.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in series"));
    let mut tie_term = 0.0;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && sorted[j + 1] == sorted[i] {
            j += 1;
        }
        let t = (j - i + 1) as f64;
        if t > 1.0 {
            tie_term += t * (t - 1.0) * (2.0 * t + 5.0);
        }
        i = j + 1;
    }
    let nf = n as f64;
    let var_s = (nf * (nf - 1.0) * (2.0 * nf + 5.0) - tie_term) / 18.0;

    // Continuity-corrected z.
    let z = if var_s <= 0.0 {
        0.0
    } else if s > 0 {
        (s as f64 - 1.0) / var_s.sqrt()
    } else if s < 0 {
        (s as f64 + 1.0) / var_s.sqrt()
    } else {
        0.0
    };

    let p_value = 2.0 * (1.0 - std_normal_cdf(z.abs()));
    let pairs = nf * (nf - 1.0) / 2.0;

    MannKendall {
        s,
        z,
        p_value,
        tau: s as f64 / pairs,
        n,
    }
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf
/// approximation (max abs error ~1.5e-7, ample for trend verdicts).
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_series_detected() {
        let series: Vec<f64> = (0..50).map(|i| i as f64 * 0.5).collect();
        let mk = mann_kendall(&series);
        assert!(mk.s > 0);
        assert!(mk.p_value < 0.001, "p = {}", mk.p_value);
        assert_eq!(mk.trend(0.05), Trend::Increasing);
        assert!((mk.tau - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decreasing_series_detected() {
        let series: Vec<f64> = (0..50).map(|i| 100.0 - i as f64).collect();
        let mk = mann_kendall(&series);
        assert_eq!(mk.trend(0.05), Trend::Decreasing);
        assert!((mk.tau + 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_has_no_trend() {
        let series = vec![5.0; 30];
        let mk = mann_kendall(&series);
        assert_eq!(mk.s, 0);
        assert_eq!(mk.trend(0.05), Trend::None);
    }

    #[test]
    fn alternating_noise_has_no_trend() {
        let series: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { 2.0 })
            .collect();
        let mk = mann_kendall(&series);
        assert_eq!(mk.trend(0.05), Trend::None, "z = {}", mk.z);
    }

    #[test]
    fn deterministic_pseudo_noise_has_no_trend() {
        // A fixed, trendless pseudo-random walkless series.
        let series: Vec<f64> = (0..200)
            .map(|i| ((i as f64 * 12.9898).sin() * 43758.5453).fract())
            .collect();
        let mk = mann_kendall(&series);
        assert_eq!(mk.trend(0.05), Trend::None, "z = {}", mk.z);
    }

    #[test]
    fn weak_trend_buried_in_noise_needs_more_data() {
        // Slight trend + strong deterministic noise: short series should
        // not reject, long series should.
        let noisy = |n: usize, slope: f64| -> Vec<f64> {
            (0..n)
                .map(|i| slope * i as f64 + ((i as f64 * 7.77).sin() * 1000.0).fract() * 5.0)
                .collect()
        };
        let short = mann_kendall(&noisy(20, 0.05));
        assert_eq!(short.trend(0.01), Trend::None);
        let long = mann_kendall(&noisy(2000, 0.05));
        assert_eq!(long.trend(0.01), Trend::Increasing);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn too_short_panics() {
        mann_kendall(&[1.0, 2.0]);
    }

    #[test]
    fn normal_cdf_reference_points() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((std_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((std_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(std_normal_cdf(8.0) > 0.999999);
    }
}
