//! Online and batch summary statistics.
//!
//! [`OnlineStats`] is a single-pass Welford accumulator suitable for hot
//! loops (no allocation, O(1) update). [`Summary`] is a batch summary over
//! a sample that additionally provides order statistics (median,
//! percentiles), found by selection.

/// Single-pass accumulator for count, mean, variance, RMS and extrema.
///
/// Uses Welford's algorithm, which is numerically stable for long runs of
/// near-equal values (our throughput traces are exactly that).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.sum_sq += other.sum_sq;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Returns true if no observations have been pushed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Arithmetic mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance; `NaN` when empty.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance (Bessel-corrected); `NaN` when n < 2.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn stdev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample standard deviation (Bessel-corrected).
    pub fn sample_stdev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Root mean square, `sqrt(mean(x^2))` — Fig 5 reports this as a
    /// robustness measure alongside the mean and standard deviation.
    pub fn rms(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            (self.sum_sq / self.n as f64).sqrt()
        }
    }

    /// Coefficient of variation, `stdev / mean` — the paper's notion of a
    /// path having "highly variable" throughput is operationalised as a
    /// CoV threshold (see `ir-experiments::table1`).
    pub fn cov(&self) -> f64 {
        self.stdev() / self.mean()
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// Batch summary of a sample, including order statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile, linear interpolation).
    pub median: f64,
    /// Sample standard deviation.
    pub stdev: f64,
    /// Root mean square.
    pub rms: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes a batch summary. Returns `None` for an empty sample.
    pub fn of(data: &[f64]) -> Option<Summary> {
        if data.is_empty() {
            return None;
        }
        let online: OnlineStats = data.iter().copied().collect();
        Some(Summary {
            count: data.len(),
            mean: online.mean(),
            median: percentile(data, 50.0),
            stdev: if data.len() > 1 {
                online.sample_stdev()
            } else {
                0.0
            },
            rms: online.rms(),
            min: online.min(),
            max: online.max(),
        })
    }
}

/// Percentile of a **sorted** sample using linear interpolation between
/// closest ranks (the "exclusive" scheme used by most plotting packages).
///
/// `p` is in percent, i.e. `0.0..=100.0`.
///
/// # Panics
///
/// Panics if `data` is empty or `p` is outside `[0, 100]`.
pub fn percentile_sorted(data: &[f64], p: f64) -> f64 {
    assert!(!data.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if data.len() == 1 {
        return data[0];
    }
    let (lo, hi, frac) = ranks(data.len(), p);
    if lo == hi {
        data[lo]
    } else {
        data[lo] * (1.0 - frac) + data[hi] * frac
    }
}

/// Where percentile `p` falls among `n ≥ 2` sorted values: the ranks
/// either side of it (equal when it lands on one) and the upper one's
/// weight.
fn ranks(n: usize, p: f64) -> (usize, usize, f64) {
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    (lo, rank.ceil() as usize, rank - lo as f64)
}

/// Percentile of an unsorted sample: bit for bit what
/// [`percentile_sorted`] gives on a stably sorted copy, found by
/// selection on a copy instead.
///
/// # Panics
///
/// Panics if `data` is empty, holds a NaN (and more than one value), or
/// `p` is outside `[0, 100]`.
pub fn percentile(data: &[f64], p: f64) -> f64 {
    select_percentile(&mut data.to_vec(), p, |k| {
        data.iter().copied().filter(|&v| v == 0.0).nth(k)
    })
}

/// [`percentile`] of the values in `work`, which it reorders.
///
/// Selection does not keep equal values in input order, as a stable
/// sort does. That only shows for zeros, the one value with two bit
/// patterns (−0.0 == 0.0): `input_zero(k)` is the `k`-th zero of the
/// input, in input order, and is called only when an order statistic
/// is zero.
pub(crate) fn select_percentile(
    work: &mut [f64],
    p: f64,
    input_zero: impl Fn(usize) -> Option<f64>,
) -> f64 {
    assert!(!work.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if work.len() == 1 {
        return work[0];
    }
    let (lo, hi, frac) = ranks(work.len(), p);
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in sample");
    let (_, &mut lo_v, upper) = work.select_nth_unstable_by(lo, cmp);
    // Rank `hi` holds the least value above rank `lo`.
    let hi_v = if hi > lo {
        upper.iter().copied().min_by(cmp).expect("hi is a rank")
    } else {
        lo_v
    };
    let stable = |rank: usize, v: f64| {
        if v != 0.0 {
            return v;
        }
        let below = work.iter().filter(|&&x| x < 0.0).count();
        input_zero(rank - below).expect("a zero order statistic is an input zero")
    };
    let lo_v = stable(lo, lo_v);
    if lo == hi {
        lo_v
    } else {
        lo_v * (1.0 - frac) + stable(hi, hi_v) * frac
    }
}

/// Fraction of observations for which `pred` holds. `NaN` on empty input.
pub fn fraction_where<F: Fn(f64) -> bool>(data: &[f64], pred: F) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    data.iter().filter(|&&x| pred(x)).count() as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() <= eps, "{a} !~ {b} (eps {eps})");
    }

    #[test]
    fn empty_stats_are_nan() {
        let s = OnlineStats::new();
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
        assert!(s.rms().is_nan());
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn single_value() {
        let mut s = OnlineStats::new();
        s.push(4.0);
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.sample_variance().is_nan());
        assert_eq!(s.rms(), 4.0);
        assert_eq!(s.min(), 4.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn known_values() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_close(s.mean(), 5.0, 1e-12);
        assert_close(s.variance(), 4.0, 1e-12);
        assert_close(s.stdev(), 2.0, 1e-12);
        // sum of squares = 4+16*3+25*2+49+81 = 232; rms = sqrt(232/8)
        assert_close(s.rms(), (232.0f64 / 8.0).sqrt(), 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let seq: OnlineStats = data.iter().copied().collect();
        let a: OnlineStats = data[..37].iter().copied().collect();
        let b: OnlineStats = data[37..].iter().copied().collect();
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), seq.count());
        assert_close(merged.mean(), seq.mean(), 1e-9);
        assert_close(merged.variance(), seq.variance(), 1e-9);
        assert_close(merged.rms(), seq.rms(), 1e-9);
        assert_eq!(merged.min(), seq.min());
        assert_eq!(merged.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        let mut m = a;
        m.merge(&OnlineStats::new());
        assert_eq!(m, a);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_close(percentile(&data, 0.0), 1.0, 1e-12);
        assert_close(percentile(&data, 100.0), 4.0, 1e-12);
        assert_close(percentile(&data, 50.0), 2.5, 1e-12);
        assert_close(percentile(&data, 25.0), 1.75, 1e-12);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 100.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_close(s.mean, 3.0, 1e-12);
        assert_close(s.median, 3.0, 1e-12);
        assert_close(s.stdev, (2.5f64).sqrt(), 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_single_value_zero_stdev() {
        let s = Summary::of(&[2.5]).unwrap();
        assert_eq!(s.stdev, 0.0);
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn fraction_where_counts() {
        let data = [-1.0, -0.5, 0.5, 1.0];
        assert_close(fraction_where(&data, |x| x < 0.0), 0.5, 1e-12);
        assert_close(fraction_where(&data, |x| x >= 1.0), 0.25, 1e-12);
        assert!(fraction_where(&[], |x| x > 0.0).is_nan());
    }

    #[test]
    fn cov_of_constant_is_zero() {
        let s: OnlineStats = [5.0; 10].into_iter().collect();
        assert_close(s.cov(), 0.0, 1e-12);
    }
}
