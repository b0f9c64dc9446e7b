//! Correlation and regression.
//!
//! Fig 3 of the paper claims improvement is *inversely related* to direct
//! path throughput; Table III claims intermediate-node utilization is
//! *positively (if imperfectly) correlated* with the improvement that node
//! delivers. Both claims are verified here with Pearson/Spearman
//! correlation and with a robust Theil–Sen slope (scatter data from
//! throughput measurements has heavy tails, so OLS alone is fragile).

/// Pearson product-moment correlation of two equal-length samples.
///
/// Returns `NaN` when fewer than two points or when either sample is
/// constant (zero variance).
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "samples must have equal length");
    let n = x.len();
    if n < 2 {
        return f64::NAN;
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return f64::NAN;
    }
    sxy / (sxx * syy).sqrt()
}

/// Spearman rank correlation (Pearson on mid-ranks; ties get averaged
/// ranks).
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "samples must have equal length");
    let rx = ranks(x);
    let ry = ranks(y);
    pearson(&rx, &ry)
}

/// Mid-ranks of a sample (1-based; ties share the average of their ranks).
pub fn ranks(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| x[a].partial_cmp(&x[b]).expect("NaN in sample"));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && x[idx[j + 1]] == x[idx[i]] {
            j += 1;
        }
        // Ranks i+1 ..= j+1 tie; assign their mean.
        let rank = (i + 1 + j + 1) as f64 / 2.0;
        for &k in &idx[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

/// An ordinary-least-squares line fit `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OlsFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination (fraction of variance explained).
    pub r2: f64,
    /// Number of points used in the fit.
    pub n: usize,
}

/// Ordinary least squares. Returns `None` when fewer than two points or
/// when `x` is constant.
pub fn ols(x: &[f64], y: &[f64]) -> Option<OlsFit> {
    assert_eq!(x.len(), y.len(), "samples must have equal length");
    let n = x.len();
    if n < 2 {
        return None;
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(OlsFit {
        slope,
        intercept,
        r2,
        n,
    })
}

/// Theil–Sen estimator: the median of pairwise slopes. Robust to the
/// heavy-tailed outliers typical of throughput measurements.
///
/// O(n²) pairs — fine for the ≤ few-thousand-point scatters we fit.
/// Returns `None` when fewer than two distinct x values exist.
///
/// # Panics
///
/// Panics if the lengths differ, or if there are two or more slopes
/// and one is NaN.
pub fn theil_sen(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "samples must have equal length");
    let n = x.len();
    if n < 2 {
        return None;
    }
    let mut slopes = Vec::with_capacity(n * (n - 1) / 2);
    slopes.extend(pairwise_slopes(x, y));
    if slopes.is_empty() {
        return None;
    }
    Some(crate::summary::select_percentile(&mut slopes, 50.0, |k| {
        pairwise_slopes(x, y).filter(|&s| s == 0.0).nth(k)
    }))
}

/// The slope of every pair `i < j` with distinct x, in `(i, j)` order.
fn pairwise_slopes<'a>(x: &'a [f64], y: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
    (0..x.len()).flat_map(move |i| {
        ((i + 1)..x.len()).filter_map(move |j| {
            let dx = x[j] - x[i];
            (dx != 0.0).then(|| (y[j] - y[i]) / dx)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() <= eps, "{a} !~ {b}");
    }

    #[test]
    fn pearson_perfect_positive() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert_close(pearson(&x, &y), 1.0, 1e-12);
    }

    #[test]
    fn pearson_perfect_negative() {
        let x = [1.0, 2.0, 3.0];
        let y = [3.0, 2.0, 1.0];
        assert_close(pearson(&x, &y), -1.0, 1e-12);
    }

    #[test]
    fn pearson_constant_is_nan() {
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_nan());
        assert!(pearson(&[1.0], &[1.0]).is_nan());
    }

    #[test]
    fn pearson_known_value() {
        // Hand-computed: x=[1,2,3,5], y=[1,3,2,6] → sxy=10, sxx=8.75,
        // syy=14 → r = 10/sqrt(122.5) ≈ 0.90351.
        let r = pearson(&[1.0, 2.0, 3.0, 5.0], &[1.0, 3.0, 2.0, 6.0]);
        assert_close(r, 0.90351, 2e-5);
    }

    #[test]
    fn ranks_with_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert_close(spearman(&x, &y), 1.0, 1e-12);
        let yd: Vec<f64> = y.iter().map(|v| -v).collect();
        assert_close(spearman(&x, &yd), -1.0, 1e-12);
    }

    #[test]
    fn ols_recovers_line() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 7.0).collect();
        let fit = ols(&x, &y).unwrap();
        assert_close(fit.slope, 3.0, 1e-9);
        assert_close(fit.intercept, -7.0, 1e-9);
        assert_close(fit.r2, 1.0, 1e-12);
        assert_eq!(fit.n, 50);
    }

    #[test]
    fn ols_degenerate_x_is_none() {
        assert!(ols(&[2.0, 2.0], &[1.0, 5.0]).is_none());
        assert!(ols(&[1.0], &[1.0]).is_none());
    }

    #[test]
    fn theil_sen_ignores_outlier() {
        // y = 2x with one wild outlier; OLS slope is dragged, Theil-Sen is
        // not.
        let mut x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        x.push(21.0);
        y.push(1000.0);
        let ts = theil_sen(&x, &y).unwrap();
        assert_close(ts, 2.0, 0.2);
        let ls = ols(&x, &y).unwrap().slope;
        assert!(ls > 3.0, "OLS should be dragged up, got {ls}");
    }

    #[test]
    fn theil_sen_of_fewer_than_two_points_is_none() {
        assert!(theil_sen(&[], &[]).is_none());
        assert!(theil_sen(&[1.0], &[2.0]).is_none());
    }

    #[test]
    fn theil_sen_constant_x_is_none() {
        assert!(theil_sen(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        pearson(&[1.0], &[1.0, 2.0]);
    }
}
