//! Study-level aggregation of [`TransferRecord`]s.
//!
//! Every consumer of a study — the experiment harness, examples,
//! downstream users — wants the same handful of numbers: improvement
//! summary conditional on relaying, penalty statistics, how often the
//! indirect path was chosen. [`StudySummary`] computes them once, with
//! the paper's definitions.

use crate::record::TransferRecord;
use ir_stats::Summary;

/// Aggregate view of a set of transfer records.
#[derive(Debug, Clone, PartialEq)]
pub struct StudySummary {
    /// Total records aggregated.
    pub transfers: usize,
    /// Fraction of transfers that chose an indirect path (the paper's
    /// aggregate utilization notion), in percent.
    pub chose_indirect_pct: f64,
    /// Mean improvement (%) over indirect-chosen transfers (Fig 1's
    /// population). `NaN` if none.
    pub mean_improvement_pct: f64,
    /// Median improvement (%) over indirect-chosen transfers.
    pub median_improvement_pct: f64,
    /// Fraction of indirect-chosen transfers in [0, 100]% (percent).
    pub in_band_pct: f64,
    /// Fraction of indirect-chosen transfers with negative improvement
    /// (percent) — the paper's "penalty points".
    pub penalty_points_pct: f64,
    /// Mean penalty magnitude as the slowdown ratio `(dir − sel)/sel`
    /// in percent (Table I's unit). 0 when no penalties.
    pub mean_penalty_pct: f64,
    /// Largest penalty magnitude (slowdown %, Table I's "Max").
    pub max_penalty_pct: f64,
    /// Probe timeouts observed.
    pub probe_timeouts: usize,
}

impl StudySummary {
    /// Aggregates a record set. Returns `None` for an empty input.
    pub fn of(records: &[TransferRecord]) -> Option<StudySummary> {
        if records.is_empty() {
            return None;
        }
        let chosen: Vec<&TransferRecord> = records.iter().filter(|r| r.chose_indirect()).collect();
        let imps: Vec<f64> = chosen
            .iter()
            .map(|r| r.improvement_pct())
            .filter(|v| v.is_finite())
            .collect();
        let summary = Summary::of(&imps);
        let in_band = if imps.is_empty() {
            f64::NAN
        } else {
            imps.iter().filter(|v| (0.0..=100.0).contains(*v)).count() as f64 / imps.len() as f64
                * 100.0
        };
        let penalties: Vec<f64> = chosen
            .iter()
            .filter(|r| r.is_penalty() && r.selected_throughput > 0.0)
            .map(|r| (r.direct_throughput - r.selected_throughput) / r.selected_throughput * 100.0)
            .collect();
        let penalty_points = if imps.is_empty() {
            f64::NAN
        } else {
            penalties.len() as f64 / imps.len() as f64 * 100.0
        };
        let pen_summary = Summary::of(&penalties);
        Some(StudySummary {
            transfers: records.len(),
            chose_indirect_pct: chosen.len() as f64 / records.len() as f64 * 100.0,
            mean_improvement_pct: summary.as_ref().map(|s| s.mean).unwrap_or(f64::NAN),
            median_improvement_pct: summary.as_ref().map(|s| s.median).unwrap_or(f64::NAN),
            in_band_pct: in_band,
            penalty_points_pct: penalty_points,
            mean_penalty_pct: pen_summary.as_ref().map(|s| s.mean).unwrap_or(0.0),
            max_penalty_pct: pen_summary.as_ref().map(|s| s.max).unwrap_or(0.0),
            probe_timeouts: records.iter().filter(|r| r.probe_timeout).count(),
        })
    }

    /// One-line rendering for logs and examples.
    pub fn render_line(&self) -> String {
        format!(
            "{} transfers; indirect {:.0}%; improvement mean {:+.1}% median {:+.1}%; \
             in [0,100] {:.0}%; penalties {:.1}% (avg {:.0}%, max {:.0}%)",
            self.transfers,
            self.chose_indirect_pct,
            self.mean_improvement_pct,
            self.median_improvement_pct,
            self.in_band_pct,
            self.penalty_points_pct,
            self.mean_penalty_pct,
            self.max_penalty_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathSpec;
    use ir_simnet::time::SimTime;
    use ir_simnet::topology::NodeId;

    fn rec(via: Option<u32>, sel: f64, dir: f64) -> TransferRecord {
        let c = NodeId(0);
        let s = NodeId(1);
        TransferRecord {
            client: c,
            server: s,
            started: SimTime::ZERO,
            file_bytes: 1,
            selected: match via {
                None => PathSpec::direct(c, s),
                Some(v) => PathSpec::indirect(c, s, NodeId(v + 10)),
            },
            candidates: vec![NodeId(12)],
            direct_throughput: dir,
            selected_throughput: sel,
            probe_throughput: sel,
            selected_path_rate: sel,
            probe_timeout: false,
            failovers: 0,
            stall_ms: 0,
            abandoned: false,
        }
    }

    #[test]
    fn empty_is_none() {
        assert!(StudySummary::of(&[]).is_none());
    }

    #[test]
    fn aggregates_known_values() {
        let records = vec![
            rec(Some(1), 150.0, 100.0), // +50%
            rec(Some(1), 120.0, 100.0), // +20%
            rec(Some(1), 50.0, 100.0),  // -50% → slowdown (100-50)/50 = 100%
            rec(None, 100.0, 100.0),    // direct, excluded from Fig 1 pop
        ];
        let s = StudySummary::of(&records).unwrap();
        assert_eq!(s.transfers, 4);
        assert!((s.chose_indirect_pct - 75.0).abs() < 1e-9);
        assert!((s.mean_improvement_pct - (50.0 + 20.0 - 50.0) / 3.0).abs() < 1e-9);
        assert!((s.median_improvement_pct - 20.0).abs() < 1e-9);
        assert!((s.in_band_pct - 2.0 / 3.0 * 100.0).abs() < 1e-9);
        assert!((s.penalty_points_pct - 1.0 / 3.0 * 100.0).abs() < 1e-9);
        assert!((s.mean_penalty_pct - 100.0).abs() < 1e-9);
        assert!((s.max_penalty_pct - 100.0).abs() < 1e-9);
        assert_eq!(s.probe_timeouts, 0);
    }

    #[test]
    fn no_indirect_transfers_yield_nan_stats() {
        let records = vec![rec(None, 100.0, 100.0)];
        let s = StudySummary::of(&records).unwrap();
        assert_eq!(s.chose_indirect_pct, 0.0);
        assert!(s.mean_improvement_pct.is_nan());
        assert_eq!(s.mean_penalty_pct, 0.0);
    }

    #[test]
    fn render_line_contains_key_numbers() {
        let records = vec![rec(Some(1), 150.0, 100.0)];
        let line = StudySummary::of(&records).unwrap().render_line();
        assert!(line.contains("+50.0%"), "{line}");
        assert!(line.contains("1 transfers"), "{line}");
    }
}
