//! Link-rate tracing: sample a link's available-bandwidth process over
//! a window into a `(time, rate)` series.
//!
//! Used to export Fig 4-style path-rate timelines to CSV, to debug
//! calibrations, and by the scenario inspector.

use crate::bandwidth::BandwidthProcess;
use crate::sim::Network;
use crate::time::{SimDuration, SimTime};
use crate::topology::LinkId;

/// A sampled rate series.
#[derive(Debug, Clone, PartialEq)]
pub struct RateTrace {
    /// Sample instants.
    pub times: Vec<SimTime>,
    /// Rates at those instants, bytes/sec.
    pub rates: Vec<f64>,
}

impl RateTrace {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no samples were taken.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Mean rate over the samples.
    pub fn mean(&self) -> f64 {
        if self.rates.is_empty() {
            f64::NAN
        } else {
            self.rates.iter().sum::<f64>() / self.rates.len() as f64
        }
    }

    /// Coefficient of variation of the sampled rates.
    pub fn cov(&self) -> f64 {
        let s: ir_stats::OnlineStats = self.rates.iter().copied().collect();
        s.cov()
    }

    /// Renders `time_secs,rate_bytes_per_sec` CSV lines (with header).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_secs,rate_bytes_per_sec\n");
        for (t, r) in self.times.iter().zip(&self.rates) {
            out.push_str(&format!("{:.3},{:.3}\n", t.as_secs_f64(), r));
        }
        out
    }
}

/// Samples a process directly.
pub fn trace_process(
    process: &mut dyn BandwidthProcess,
    start: SimTime,
    end: SimTime,
    step: SimDuration,
) -> RateTrace {
    assert!(start <= end, "inverted window");
    assert!(!step.is_zero(), "zero step");
    let mut times = Vec::new();
    let mut rates = Vec::new();
    let mut t = start;
    while t <= end {
        times.push(t);
        rates.push(process.rate_at(t));
        t = t.saturating_add(step);
        if t == SimTime::MAX {
            break;
        }
    }
    RateTrace { times, rates }
}

/// Samples a link of a network **without disturbing it**: through the
/// link's shared process, whose timeline the samples may extend but
/// never change; the network's clock and flows are untouched.
pub fn trace_link(
    net: &Network,
    link: LinkId,
    start: SimTime,
    end: SimTime,
    step: SimDuration,
) -> RateTrace {
    trace_process(net.link_process(link).as_mut(), start, end, step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::{ConstantProcess, PiecewiseProcess};
    use crate::topology::{NodeKind, Topology};

    #[test]
    fn traces_piecewise_exactly() {
        let mut p =
            PiecewiseProcess::new(vec![(SimTime::ZERO, 10.0), (SimTime::from_secs(5), 20.0)]);
        let tr = trace_process(
            &mut p,
            SimTime::ZERO,
            SimTime::from_secs(9),
            SimDuration::from_secs(1),
        );
        assert_eq!(tr.len(), 10);
        assert_eq!(tr.rates[0], 10.0);
        assert_eq!(tr.rates[4], 10.0);
        assert_eq!(tr.rates[5], 20.0);
        assert_eq!(tr.rates[9], 20.0);
        assert!((tr.mean() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn trace_link_does_not_disturb_network() {
        let mut topo = Topology::new();
        let a = topo.add_node("a", NodeKind::Client);
        let b = topo.add_node("b", NodeKind::Server);
        let l = topo.add_link(a, b, SimDuration::from_millis(10));
        let mut net = Network::new(topo, 1.0);
        net.set_link_process(l, Box::new(ConstantProcess::new(123.0)));
        let before = net.now();
        let tr = trace_link(
            &net,
            l,
            SimTime::ZERO,
            SimTime::from_secs(100),
            SimDuration::from_secs(10),
        );
        assert_eq!(net.now(), before);
        assert_eq!(tr.len(), 11);
        assert!(tr.rates.iter().all(|&r| r == 123.0));
        assert!((tr.cov() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn csv_renders_header_and_rows() {
        let mut p = ConstantProcess::new(5.0);
        let tr = trace_process(
            &mut p,
            SimTime::ZERO,
            SimTime::from_secs(2),
            SimDuration::from_secs(1),
        );
        let csv = tr.to_csv();
        assert!(csv.starts_with("time_secs,rate_bytes_per_sec\n"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "zero step")]
    fn zero_step_panics() {
        let mut p = ConstantProcess::new(1.0);
        trace_process(&mut p, SimTime::ZERO, SimTime::ZERO, SimDuration::ZERO);
    }

    #[test]
    fn empty_trace_has_nan_mean() {
        let tr = RateTrace {
            times: vec![],
            rates: vec![],
        };
        assert!(tr.is_empty());
        assert_eq!(tr.len(), 0);
        assert!(tr.mean().is_nan());
        assert_eq!(tr.to_csv(), "time_secs,rate_bytes_per_sec\n");
    }

    #[test]
    fn single_sample_trace() {
        let mut p = ConstantProcess::new(42.5);
        let tr = trace_process(
            &mut p,
            SimTime::from_secs(3),
            SimTime::from_secs(3),
            SimDuration::from_secs(1),
        );
        assert!(!tr.is_empty());
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.times[0], SimTime::from_secs(3));
        assert_eq!(tr.mean(), 42.5);
    }
}
