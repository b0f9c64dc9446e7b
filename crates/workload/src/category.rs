//! Throughput categories and variability classes.
//!
//! §2.2: "We categorize nodes as Low (0–1.5 Mbps), Medium (1.5–3.0
//! Mbps), or High (> 3.0 Mbps) throughput, based on measured average
//! throughput to the targeted destination Web servers on the direct
//! path."

/// Bytes per second in one Mbps.
pub const MBPS: f64 = 1e6 / 8.0;

/// The paper's client throughput categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// 0–1.5 Mbps average direct throughput.
    Low,
    /// 1.5–3.0 Mbps.
    Medium,
    /// > 3.0 Mbps.
    High,
}
ir_artifact::declare! { Codec for enum Category { Low = 0, Medium = 1, High = 2 } }

impl Category {
    /// Classifies a mean direct-path throughput given in **bytes/sec**.
    pub fn of_rate(bytes_per_sec: f64) -> Category {
        let mbps = bytes_per_sec * 8.0 / 1e6;
        if mbps <= 1.5 {
            Category::Low
        } else if mbps <= 3.0 {
            Category::Medium
        } else {
            Category::High
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Category::Low => "Low",
            Category::Medium => "Medium",
            Category::High => "High",
        }
    }
}

/// Temporal variability class of a client's direct paths. The paper's
/// Table I filters on "highly variable direct throughputs"; we
/// operationalise the same split with a coefficient-of-variation
/// threshold (see [`VARIABILITY_COV_THRESHOLD`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variability {
    /// Direct-path throughput holds steady between transfers.
    Stable,
    /// Direct-path throughput swings across regimes.
    Variable,
}
ir_artifact::declare! { Codec for enum Variability { Stable = 0, Variable = 1 } }

/// Coefficient-of-variation threshold above which a client's measured
/// direct throughput series is classed [`Variability::Variable`].
pub const VARIABILITY_COV_THRESHOLD: f64 = 0.28;

impl Variability {
    /// Classifies a measured throughput series by its coefficient of
    /// variation.
    pub fn of_series(throughputs: &[f64]) -> Variability {
        let stats: ir_stats::OnlineStats = throughputs.iter().copied().collect();
        if stats.count() >= 2 && stats.cov() > VARIABILITY_COV_THRESHOLD {
            Variability::Variable
        } else {
            Variability::Stable
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Variability::Stable => "stable",
            Variability::Variable => "variable",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_boundaries() {
        assert_eq!(Category::of_rate(0.5 * MBPS), Category::Low);
        assert_eq!(Category::of_rate(1.5 * MBPS), Category::Low);
        assert_eq!(Category::of_rate(1.6 * MBPS), Category::Medium);
        assert_eq!(Category::of_rate(3.0 * MBPS), Category::Medium);
        assert_eq!(Category::of_rate(3.1 * MBPS), Category::High);
    }

    #[test]
    fn mbps_constant() {
        // 1 Mbps = 125000 bytes/sec.
        assert_eq!(MBPS, 125_000.0);
    }

    #[test]
    fn variability_of_series() {
        let steady = vec![100.0, 105.0, 95.0, 102.0, 98.0];
        assert_eq!(Variability::of_series(&steady), Variability::Stable);
        let wild = vec![100.0, 20.0, 250.0, 40.0, 180.0];
        assert_eq!(Variability::of_series(&wild), Variability::Variable);
        // Degenerate inputs default to stable.
        assert_eq!(Variability::of_series(&[7.0]), Variability::Stable);
        assert_eq!(Variability::of_series(&[]), Variability::Stable);
    }

    #[test]
    fn labels() {
        assert_eq!(Category::Low.label(), "Low");
        assert_eq!(Variability::Variable.label(), "variable");
    }
}
