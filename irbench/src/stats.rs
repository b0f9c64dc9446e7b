//! Order statistics for timing samples: the median, nearest-rank
//! percentiles, and the tail rule (report the highest percentile that
//! still has at least ten samples beyond it).

/// Sorts `xs` ascending. Timing samples are never NaN.
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
}

/// Median of an ascending slice (mean of the middle pair when even).
///
/// # Panics
///
/// Panics on an empty slice: a metric without a sample is a bug in the
/// workload, not a value to report.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    median_sorted(&v)
}

/// Nearest-rank percentile of an ascending slice. The percentile is
/// given in tenths of a percent (p99 = 990) so that ranks are exact
/// integer arithmetic.
pub fn percentile_sorted(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (permille * sorted.len()).div_ceil(1000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Candidate tail percentiles in tenths of a percent, highest first.
const TAILS: [usize; 4] = [999, 990, 950, 900];

/// The highest percentile of [`TAILS`] with at least ten samples beyond
/// it, and its value; `None` when even p90 has fewer (n < 100).
pub fn tail_sorted(sorted: &[f64]) -> Option<(usize, f64)> {
    let n = sorted.len();
    TAILS
        .iter()
        .find(|&&p| n * (1000 - p) / 1000 >= 10)
        .map(|&p| (p, percentile_sorted(sorted, p)))
}

/// Run-to-run spread: the distance between the first and the third
/// quartile as a share of the median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)`. `None` for fewer than two
/// values.
pub fn iqr_spread(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median_sorted(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_pythons_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_spread(&xs).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((iqr_spread(&[3.0, 1.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 11], n=4) == [9.75, 10.5, 11.25]
        assert!((iqr_spread(&[10.0, 11.0]).unwrap() - 1.5 / 10.5).abs() < 1e-12);
        assert_eq!(iqr_spread(&[1.0]), None);
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 500), 50.0);
        assert_eq!(percentile_sorted(&xs, 990), 99.0);
        assert_eq!(percentile_sorted(&xs, 1000), 100.0);
        assert_eq!(percentile_sorted(&xs, 0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let of = |n: u32| {
            let xs: Vec<f64> = (1..=n).map(f64::from).collect();
            tail_sorted(&xs).map(|(p, _)| p)
        };
        assert_eq!(of(99), None);
        assert_eq!(of(100), Some(900));
        assert_eq!(of(199), Some(900));
        assert_eq!(of(200), Some(950));
        assert_eq!(of(999), Some(950));
        assert_eq!(of(1_000), Some(990));
        assert_eq!(of(10_000), Some(999));
        // p99 of 1..=1000 leaves exactly ten samples above it.
        let xs: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(tail_sorted(&xs), Some((990, 990.0)));
    }
}
