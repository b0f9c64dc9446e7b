//! The fluid TCP rate cap: startup delay → slow-start ramp →
//! steady-state ceiling.
//!
//! This implements [`ir_simnet::sim::RateCap`], plugging the TCP model
//! into the flow engine. The cap is an *upper bound* on the flow's rate;
//! the engine takes the min of this cap and the max–min fair share of
//! the path. The shape matters for the paper's methodology: the probe
//! transfers the first x = 100 KB, which the authors chose "large enough
//! to … marginalize the initial effects of TCP slow-start". A probe too
//! small sits inside the ramp and under-measures fast paths — our
//! ablation benchmark sweeps x to reproduce that trade-off.

use crate::config::TcpConfig;
use crate::pftk::pftk_rate;
use ir_simnet::sim::RateCap;
use ir_simnet::time::SimDuration;
use std::sync::LazyLock;

/// Fluid TCP ceiling for one connection.
#[derive(Debug, Clone, Copy)]
pub struct TcpRateCap {
    cfg: TcpConfig,
    steady_rate: f64,
    /// The first sub-round in which the ramp reaches the steady rate.
    to_steady: u64,
}

/// The last sub-round the ramp grows in; later ones repeat its factor.
const MAX_SUBROUND: u64 = 240;

/// `2^(q/SUBSTEPS)` for every sub-round `q ≤ MAX_SUBROUND`, each entry
/// the bits of `2.0f64.powf(q as f64 / 4.0)`.
static RAMP_FACTORS: LazyLock<[f64; MAX_SUBROUND as usize + 1]> =
    LazyLock::new(|| std::array::from_fn(|q| 2.0f64.powf(q as f64 / TcpRateCap::SUBSTEPS as f64)));

impl TcpRateCap {
    /// Creates the cap from a configuration.
    pub fn new(cfg: TcpConfig) -> Self {
        cfg.validate();
        let steady_rate = pftk_rate(&cfg);
        let iw_rate = (cfg.init_cwnd_segments * cfg.mss) as f64 / cfg.rtt.as_secs_f64();
        let to_steady = if iw_rate >= steady_rate {
            0
        } else {
            ((steady_rate / iw_rate).log2() * Self::SUBSTEPS as f64).ceil() as u64
        };
        TcpRateCap {
            cfg,
            steady_rate,
            to_steady,
        }
    }

    /// The steady-state ceiling (bytes/sec) this connection converges
    /// to: `min(window/RTT, PFTK(p))`.
    pub fn steady_rate(&self) -> f64 {
        self.steady_rate
    }

    /// Ramp sub-steps per RTT. Real congestion windows grow per-ACK,
    /// i.e. near-continuously; whole-RTT quantisation would make probe
    /// race outcomes depend on ±1 round of luck rather than on path
    /// rate. Quarter-RTT steps keep the fluid approximation close to
    /// the continuous exponential while bounding event count.
    const SUBSTEPS: u64 = 4;

    /// Number of complete ramp sub-rounds elapsed at flow age `age`,
    /// after startup.
    fn subround(&self, age: SimDuration) -> Option<u64> {
        if age < self.cfg.startup {
            return None;
        }
        let since = age.as_micros() - self.cfg.startup.as_micros();
        let step = (self.cfg.rtt.as_micros() / Self::SUBSTEPS).max(1);
        Some(since / step)
    }

    /// Slow-start window rate in sub-round `q`:
    /// `IW · 2^(q/SUBSTEPS) / RTT`, clamped to the steady-state ceiling.
    fn ramp_rate(&self, subround: u64) -> f64 {
        let iw = (self.cfg.init_cwnd_segments * self.cfg.mss) as f64;
        let factor = RAMP_FACTORS[subround.min(MAX_SUBROUND) as usize];
        (iw * factor / self.cfg.rtt.as_secs_f64()).min(self.steady_rate)
    }
}

impl RateCap for TcpRateCap {
    fn cap(&mut self, age: SimDuration, _bytes_done: u64) -> f64 {
        match self.subround(age) {
            None => 0.0, // handshake in progress; no payload yet
            Some(q) => self.ramp_rate(q),
        }
    }

    fn next_cap_change(&mut self, age: SimDuration) -> Option<SimDuration> {
        match self.subround(age) {
            None => Some(self.cfg.startup),
            Some(q) => {
                if q >= self.to_steady {
                    None // converged; constant from here on
                } else {
                    let step = (self.cfg.rtt.as_micros() / Self::SUBSTEPS).max(1);
                    let next = self.cfg.startup.as_micros() + (q + 1) * step;
                    Some(SimDuration::from_micros(next))
                }
            }
        }
    }

    fn clone_box(&self) -> Box<dyn RateCap> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_simnet::time::SimDuration;

    fn cap_for(rtt_ms: u64, loss: f64) -> TcpRateCap {
        TcpRateCap::new(TcpConfig::for_rtt(SimDuration::from_millis(rtt_ms)).with_loss(loss))
    }

    #[test]
    fn zero_rate_during_handshake() {
        let mut c = cap_for(100, 0.01);
        assert_eq!(c.cap(SimDuration::ZERO, 0), 0.0);
        assert_eq!(c.cap(SimDuration::from_millis(149), 0), 0.0);
        assert!(c.cap(SimDuration::from_millis(150), 0) > 0.0);
    }

    #[test]
    fn ramp_doubles_per_rtt() {
        let mut c = cap_for(100, 0.0);
        let r0 = c.cap(SimDuration::from_millis(150), 0);
        let r1 = c.cap(SimDuration::from_millis(250), 0);
        let r2 = c.cap(SimDuration::from_millis(350), 0);
        // IW=3 segments of 1460 → 4380 bytes / 0.1 s = 43800 B/s,
        // doubling per RTT (in quarter-RTT sub-steps).
        assert!((r0 - 43_800.0).abs() < 1.0, "r0 = {r0}");
        assert!((r1 - 87_600.0).abs() < 1.0);
        assert!((r2 - 175_200.0).abs() < 1.0);
        // Sub-RTT granularity: a quarter-RTT later the cap has already
        // moved by 2^(1/4).
        let mid = c.cap(SimDuration::from_millis(175), 0);
        assert!(
            (mid - 43_800.0 * 2f64.powf(0.25)).abs() < 1.0,
            "mid = {mid}"
        );
    }

    #[test]
    fn ramp_clamps_at_steady_rate() {
        let mut c = cap_for(100, 0.01);
        let steady = c.steady_rate();
        // Far in the future the cap equals the steady rate.
        let late = c.cap(SimDuration::from_secs(60), 0);
        assert!((late - steady).abs() < 1e-9);
        // And it never exceeds it at any round.
        for ms in (150..5000).step_by(50) {
            assert!(c.cap(SimDuration::from_millis(ms), 0) <= steady + 1e-9);
        }
    }

    #[test]
    fn next_change_walks_subround_boundaries_then_none() {
        let mut c = cap_for(100, 0.01);
        // During handshake: change at startup.
        assert_eq!(
            c.next_cap_change(SimDuration::ZERO),
            Some(SimDuration::from_millis(150))
        );
        // In sub-round 0: next at startup + RTT/4.
        assert_eq!(
            c.next_cap_change(SimDuration::from_millis(150)),
            Some(SimDuration::from_millis(175))
        );
        // Eventually None.
        assert_eq!(c.next_cap_change(SimDuration::from_secs(120)), None);
    }

    #[test]
    fn next_change_strictly_after_age() {
        let mut c = cap_for(80, 0.005);
        let mut age = SimDuration::ZERO;
        for _ in 0..100 {
            match c.next_cap_change(age) {
                Some(next) => {
                    assert!(next > age, "{next:?} !> {age:?}");
                    age = next;
                }
                None => return,
            }
        }
        panic!("ramp never converged");
    }

    #[test]
    fn subrounds_to_steady_consistent_with_ramp() {
        let c = cap_for(100, 0.01);
        let q = c.to_steady;
        assert!((c.ramp_rate(q) - c.steady_rate()).abs() < 1e-9);
        if q > 0 {
            assert!(c.ramp_rate(q - 1) < c.steady_rate());
        }
    }

    #[test]
    fn constants_match_the_per_query_expressions() {
        for q in 0..=MAX_SUBROUND {
            let factor = 2.0f64.powf(q as f64 / TcpRateCap::SUBSTEPS as f64);
            assert_eq!(
                RAMP_FACTORS[q as usize].to_bits(),
                factor.to_bits(),
                "q = {q}"
            );
        }
        for rtt_ms in [1, 7, 30, 80, 100, 250, 1000] {
            for loss in [0.0, 1e-4, 0.001, 0.005, 0.01, 0.05, 0.2] {
                for iw in [1, 3, 10, 1000] {
                    let mut cfg =
                        TcpConfig::for_rtt(SimDuration::from_millis(rtt_ms)).with_loss(loss);
                    cfg.init_cwnd_segments = iw;
                    let c = TcpRateCap::new(cfg);
                    let iw_rate = (cfg.init_cwnd_segments * cfg.mss) as f64 / cfg.rtt.as_secs_f64();
                    let per_query = if iw_rate >= c.steady_rate {
                        0
                    } else {
                        ((c.steady_rate / iw_rate).log2() * TcpRateCap::SUBSTEPS as f64).ceil()
                            as u64
                    };
                    assert_eq!(c.to_steady, per_query, "rtt {rtt_ms} ms, p {loss}, iw {iw}");
                }
            }
        }
    }

    #[test]
    fn integrates_with_flow_engine() {
        use ir_simnet::prelude::*;
        let mut topo = Topology::new();
        let a = topo.add_node("a", NodeKind::Client);
        let b = topo.add_node("b", NodeKind::Server);
        let l = topo.add_link(a, b, SimDuration::from_millis(50));
        let route = topo.route(&[a, b]).unwrap();
        let mut net = Network::new(topo, 1.0);
        net.set_link_process(l, Box::new(ConstantProcess::new(10e6)));

        let cfg = TcpConfig::for_rtt(SimDuration::from_millis(100)).with_loss(0.01);
        let tcp = TcpRateCap::new(cfg);
        let steady = tcp.steady_rate();
        let id = net.start_flow(route, 4_000_000, Box::new(tcp));
        let done = net.run_flow(id, SimTime::from_secs(600)).unwrap();
        // Link is 10 MB/s but TCP converges to `steady`; overall
        // throughput must be below steady (startup + ramp) but within
        // 25% of it for a multi-MB transfer.
        let thr = done.throughput();
        assert!(thr < steady, "thr {thr} >= steady {steady}");
        assert!(thr > 0.75 * steady, "thr {thr} too far below {steady}");
    }

    #[test]
    fn short_transfer_biased_by_slow_start() {
        // The same connection moving 20 KB vs 2 MB: the short transfer's
        // mean throughput is a fraction of steady state. This is the
        // effect that makes tiny probes bad predictors (paper §2.1).
        use ir_simnet::prelude::*;
        let mk_net = || {
            let mut topo = Topology::new();
            let a = topo.add_node("a", NodeKind::Client);
            let b = topo.add_node("b", NodeKind::Server);
            let l = topo.add_link(a, b, SimDuration::from_millis(50));
            let route = topo.route(&[a, b]).unwrap();
            let mut net = Network::new(topo, 1.0);
            net.set_link_process(l, Box::new(ConstantProcess::new(10e6)));
            (net, route)
        };
        let cfg = TcpConfig::for_rtt(SimDuration::from_millis(100)).with_loss(0.001);
        let run = |bytes: u64| {
            let (mut net, route) = mk_net();
            let id = net.start_flow(route, bytes, Box::new(TcpRateCap::new(cfg)));
            net.run_flow(id, SimTime::from_secs(600))
                .unwrap()
                .throughput()
        };
        let short = run(20_000);
        let long = run(2_000_000);
        assert!(short < 0.5 * long, "short {short}, long {long}");
    }
}
