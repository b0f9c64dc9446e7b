//! Uniform-bin histograms with underflow/overflow bins.
//!
//! Figures 1 and 2 of the paper are histograms of percent throughput
//! improvement. Improvements are unbounded above (the paper reports a
//! maximum penalty of 3840%), so the histogram keeps explicit underflow
//! and overflow bins rather than silently clipping.

use std::fmt::Write as _;

/// A histogram over `[lo, hi)` with `bins` equal-width bins plus
/// underflow (`x < lo`) and overflow (`x >= hi`) bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo < hi, "lo must be < hi");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            // Floating-point rounding can land exactly on len(); clamp.
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Adds every observation in `data`.
    pub fn extend(&mut self, data: &[f64]) {
        for &x in data {
            self.push(x);
        }
    }

    /// Builds a histogram from a sample in one call.
    pub fn of(lo: f64, hi: f64, bins: usize, data: &[f64]) -> Self {
        let mut h = Histogram::new(lo, hi, bins);
        h.extend(data);
        h
    }

    /// Total observations, including under/overflow.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in the underflow bin (`x < lo`).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count in the overflow bin (`x >= hi`).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Number of in-range bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Count in in-range bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// `[lo, hi)` edges of in-range bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + width * i as f64, self.lo + width * (i + 1) as f64)
    }

    /// Midpoint of in-range bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let (a, b) = self.bin_edges(i);
        (a + b) / 2.0
    }

    /// Fraction of all observations (incl. under/overflow) in bin `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// `(bin_center, count)` series, e.g. for CSV export.
    pub fn series(&self) -> Vec<(f64, u64)> {
        (0..self.counts.len())
            .map(|i| (self.bin_center(i), self.counts[i]))
            .collect()
    }

    /// Renders an ASCII bar chart, `width` columns for the largest bar.
    pub fn render_ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        if self.underflow > 0 {
            let _ = writeln!(
                out,
                "{:>18} | {}",
                format!("< {:.0}", self.lo),
                self.underflow
            );
        }
        for i in 0..self.counts.len() {
            let (a, b) = self.bin_edges(i);
            let bar_len = (self.counts[i] as f64 / max as f64 * width as f64).round() as usize;
            let _ = writeln!(
                out,
                "{:>18} | {} {}",
                format!("[{a:.0},{b:.0})"),
                "#".repeat(bar_len),
                self.counts[i]
            );
        }
        if self.overflow > 0 {
            let _ = writeln!(
                out,
                "{:>18} | {}",
                format!(">= {:.0}", self.hi),
                self.overflow
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(0.0);
        h.push(0.5);
        h.push(9.99);
        h.push(5.0);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.total(), 4);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(-0.1);
        h.push(1.0); // hi is exclusive
        h.push(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn mass_conservation() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64) * 0.37 - 50.0).collect();
        let h = Histogram::of(-100.0, 100.0, 20, &data);
        let in_range: u64 = (0..h.bins()).map(|i| h.count(i)).sum();
        assert_eq!(in_range + h.underflow() + h.overflow(), h.total());
        assert_eq!(h.total(), 1000);
    }

    #[test]
    fn bin_edges_and_centers() {
        let h = Histogram::new(0.0, 100.0, 4);
        assert_eq!(h.bin_edges(0), (0.0, 25.0));
        assert_eq!(h.bin_edges(3), (75.0, 100.0));
        assert_eq!(h.bin_center(1), 37.5);
    }

    #[test]
    fn series_matches_counts() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.extend(&[0.5, 2.5, 2.6]);
        let s = h.series();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0], (0.5, 1));
        assert_eq!(s[2], (2.5, 2));
    }

    #[test]
    fn render_ascii_contains_counts() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.extend(&[0.5, 0.6, 1.5, -1.0, 5.0]);
        let s = h.render_ascii(10);
        assert!(s.contains("##"), "{s}");
        assert!(s.contains("< 0"), "{s}");
        assert!(s.contains(">= 2"), "{s}");
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "lo must be < hi")]
    fn inverted_bounds_panic() {
        Histogram::new(1.0, 0.0, 4);
    }

    #[test]
    fn boundary_value_lands_in_correct_bin() {
        // Bin edges at multiples of 0.1 are not exactly representable;
        // make sure values at the seam land in one of the two adjacent
        // bins and never panic.
        let mut h = Histogram::new(0.0, 1.0, 10);
        for i in 0..=9 {
            h.push(i as f64 * 0.1);
        }
        let total: u64 = (0..10).map(|i| h.count(i)).sum();
        assert_eq!(total, 10);
    }
}
