//! Per-site improvements — the abstract's headline range.
//!
//! "Indirect routing produces a throughput improvement … ranging from
//! 33% to 49% on average, depending on the Web site" (§2.2). We run the
//! measurement study against each of the four destination sites and
//! report the per-site mean improvement over indirect-chosen transfers.

use crate::report::{csv, Check, Report};
use crate::runner::{run_measurement_study_traced, Roster};
use ir_core::SessionConfig;
use ir_stats::Summary;
use ir_telemetry::Telemetry;
use ir_workload::Schedule;
use std::sync::Arc;

/// Per-site result.
#[derive(Debug, Clone)]
pub struct SiteResult {
    /// Site label (eBay, Google, Microsoft, Yahoo).
    pub site: String,
    /// Mean improvement (%) over indirect-chosen transfers.
    pub mean_improvement_pct: f64,
    /// Fraction of transfers that chose the indirect path (%).
    pub chose_indirect_pct: f64,
    /// Number of indirect-chosen transfers.
    pub n: usize,
}
ir_artifact::declare! {
    Codec for struct SiteResult { site, mean_improvement_pct, chose_indirect_pct, n }
}

/// What the per-site study runs on, in key order: the scenario (seed,
/// roster; every server is a destination), the transfers per pair and
/// site, the §2.2 schedule spread over them, and the session.
#[derive(Debug, Clone)]
pub struct SitesInputs {
    seed: u64,
    roster: Roster,
    transfers: u64,
    schedule: Schedule,
    session: SessionConfig,
}
ir_artifact::declare! {
    StableHash for struct SitesInputs { seed, roster, transfers, schedule, session }
}

impl SitesInputs {
    /// The §2.2 roster at `transfers_per_pair` transfers per pair.
    pub fn new(seed: u64, transfers_per_pair: u64) -> Self {
        SitesInputs {
            seed,
            roster: Roster::planetlab(),
            transfers: transfers_per_pair,
            schedule: Schedule::measurement_study().spread(transfers_per_pair),
            session: SessionConfig::paper_defaults(),
        }
    }

    /// Runs the measurement study against every site, reporting into
    /// `tel` when given.
    pub fn run(&self, tel: Option<Arc<Telemetry>>) -> Vec<SiteResult> {
        let scenario = self.roster.build(self.seed, false);
        (0..scenario.servers.len())
            .map(|si| {
                let (schedule, session) = (self.schedule, self.session);
                let data =
                    run_measurement_study_traced(&scenario, si, schedule, session, tel.clone());
                let imps = data.indirect_improvements_pct();
                let total = data.all_records().count();
                SiteResult {
                    site: scenario.name(scenario.servers[si]).to_string(),
                    mean_improvement_pct: Summary::of(&imps).map(|s| s.mean).unwrap_or(f64::NAN),
                    chose_indirect_pct: imps.len() as f64 / total.max(1) as f64 * 100.0,
                    n: imps.len(),
                }
            })
            .collect()
    }
}

/// Runs the study against every site. `transfers_per_pair` bounds the
/// cost (there are 4 × clients × relays tasks).
pub fn run(seed: u64, transfers_per_pair: u64) -> Vec<SiteResult> {
    SitesInputs::new(seed, transfers_per_pair).run(None)
}

/// Builds the per-site report from precomputed (possibly
/// cache-restored) study results.
pub fn report_of(results: &[SiteResult]) -> Report {
    let mut table = ir_stats::TextTable::new()
        .title("per-site improvement (indirect-chosen transfers)")
        .header(["site", "mean improvement (%)", "chose indirect (%)", "n"]);
    let mut rows = Vec::new();
    for r in results {
        table.row([
            r.site.clone(),
            format!("{:+.1}", r.mean_improvement_pct),
            format!("{:.1}", r.chose_indirect_pct),
            r.n.to_string(),
        ]);
        rows.push(vec![
            r.site.clone(),
            format!("{:.2}", r.mean_improvement_pct),
            format!("{:.2}", r.chose_indirect_pct),
            r.n.to_string(),
        ]);
    }

    let means: Vec<f64> = results.iter().map(|r| r.mean_improvement_pct).collect();
    let lo = means.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let ebay = results
        .iter()
        .find(|r| r.site == "eBay")
        .map(|r| r.n)
        .unwrap_or(0);
    let max_n = results.iter().map(|r| r.n).max().unwrap_or(0);

    let mut body = table.render();
    body.push_str(&format!(
        "\nper-site mean-improvement range: {lo:.1}% .. {hi:.1}% (paper: 33% .. 49%)\n"
    ));

    Report {
        id: "sites",
        title: "Per-site improvements (abstract's 33-49% range)".into(),
        body,
        csv: vec![(
            "per_site".into(),
            csv(
                &["site", "mean_improvement_pct", "chose_indirect_pct", "n"],
                &rows,
            ),
        )],
        checks: vec![
            Check::banded("lowest per-site mean (%)", 33.0, lo, 15.0, 70.0),
            Check::banded("highest per-site mean (%)", 49.0, hi, 25.0, 90.0),
            Check::banded("per-site spread (pp)", 16.0, hi - lo, 2.0, 60.0),
            // The paper focuses on eBay because it has "a much larger
            // number of data points that correspond to transfers
            // through the indirect path".
            Check::banded(
                "eBay has the most indirect transfers (n/max_n)",
                1.0,
                ebay as f64 / max_n.max(1) as f64,
                0.99,
                1.0,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_report_covers_all_four() {
        let r = report_of(&run(5, 3));
        let text = r.render();
        for site in ["eBay", "Google", "Microsoft", "Yahoo"] {
            assert!(text.contains(site), "missing {site}");
        }
        assert_eq!(r.csv[0].1.lines().count(), 5);
    }
}
