//! A one-process "mini-PlanetLab" on loopback.
//!
//! Substitutes for the paper's multi-node deployment (DESIGN.md §2):
//! one unshaped origin listener for the relays' back side, one shaped
//! origin listener emulating the client's direct path, and k shaped
//! relays emulating heterogeneous overlay links — all real sockets,
//! real HTTP bytes, real concurrency.

use crate::client::{download, ClientConfig, DownloadOutcome};
use crate::error::RelayError;
use crate::origin::{OriginConfig, OriginServer};
use crate::relayd::{Relay, RelayConfig};
use crate::shaper::RateSchedule;
use std::net::SocketAddr;

/// Topology description for a harness instance.
#[derive(Debug, Clone)]
pub struct HarnessSpec {
    /// Bytes of synthetic content the origin serves.
    pub content_len: u64,
    /// Rate schedule of the client's direct path.
    pub direct: RateSchedule,
    /// Rate schedule of each overlay path (client→relay leg).
    pub relays: Vec<RateSchedule>,
}

/// A running loopback deployment.
pub struct MiniPlanetLab {
    origin_direct: OriginServer,
    origin_fast: OriginServer,
    relays: Vec<Relay>,
    pub(crate) content_len: u64,
}

impl MiniPlanetLab {
    /// Starts every server of the spec.
    pub fn start(spec: HarnessSpec) -> std::io::Result<MiniPlanetLab> {
        let origin_direct =
            OriginServer::start(OriginConfig::new(spec.content_len).shaped(spec.direct))?;
        let origin_fast = OriginServer::start(OriginConfig::new(spec.content_len))?;
        let relays = spec
            .relays
            .into_iter()
            .map(|sched| Relay::start(RelayConfig::shaped(sched)))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(MiniPlanetLab {
            origin_direct,
            origin_fast,
            relays,
            content_len: spec.content_len,
        })
    }

    /// The running relay daemons (lifecycle inspection in tests).
    pub fn relays(&self) -> &[Relay] {
        &self.relays
    }

    /// Mutable access to the running relays (drain/kill in tests).
    pub fn relays_mut(&mut self) -> &mut [Relay] {
        &mut self.relays
    }

    /// Address of the origin as seen over the client's direct path.
    pub fn direct_addr(&self) -> SocketAddr {
        self.origin_direct.addr()
    }

    /// Address relays use to reach the origin.
    pub fn origin_for_relays(&self) -> SocketAddr {
        self.origin_fast.addr()
    }

    /// Client-facing relay addresses.
    pub fn relay_addrs(&self) -> Vec<SocketAddr> {
        self.relays.iter().map(Relay::addr).collect()
    }

    /// Runs one §2.1 probed download against this deployment.
    pub fn run_download(&self, probe_bytes: u64) -> Result<DownloadOutcome, RelayError> {
        let cfg = ClientConfig {
            path: "/file.bin".into(),
            probe_bytes,
            total_bytes: self.content_len,
            timeout: std::time::Duration::from_secs(60),
        };
        download(
            self.direct_addr(),
            self.origin_for_relays(),
            &self.relay_addrs(),
            &cfg,
        )
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests pace real-socket scenarios with sleeps; the serve-path rule is about the daemon's own threads"
)]
mod tests {
    use super::*;
    use crate::client::ChosenPath;

    const KB: f64 = 1000.0;

    #[test]
    fn end_to_end_fast_relay_wins_and_improves() {
        let lab = MiniPlanetLab::start(HarnessSpec {
            content_len: 400_000,
            direct: RateSchedule::constant(150.0 * KB),
            relays: vec![
                RateSchedule::constant(60.0 * KB),
                RateSchedule::constant(900.0 * KB),
            ],
        })
        .unwrap();
        let out = lab.run_download(50_000).unwrap();
        assert_eq!(out.choice, ChosenPath::Relay(1));
        assert!(out.body_ok);
        // Direct would take ~2.5 s; the relay path is several times
        // faster even counting the probe.
        assert!(out.throughput > 250.0 * KB, "thr {:.0} B/s", out.throughput);
    }

    #[test]
    fn end_to_end_direct_wins_when_relays_slow() {
        let lab = MiniPlanetLab::start(HarnessSpec {
            content_len: 300_000,
            direct: RateSchedule::constant(800.0 * KB),
            relays: vec![RateSchedule::constant(80.0 * KB)],
        })
        .unwrap();
        let out = lab.run_download(50_000).unwrap();
        assert_eq!(out.choice, ChosenPath::Direct);
        assert!(out.body_ok);
    }

    #[test]
    fn time_varying_direct_path_flips_choice() {
        // Direct is fast for 1.2 s then collapses; a transfer starting
        // immediately probes the fast phase and picks direct... and a
        // later one (after the collapse) picks the relay.
        let lab = MiniPlanetLab::start(HarnessSpec {
            content_len: 250_000,
            direct: RateSchedule::piecewise(vec![
                (std::time::Duration::ZERO, 900.0 * KB),
                (std::time::Duration::from_millis(1200), 60.0 * KB),
            ]),
            relays: vec![RateSchedule::constant(350.0 * KB)],
        })
        .unwrap();
        let first = lab.run_download(60_000).unwrap();
        assert_eq!(first.choice, ChosenPath::Direct, "fast phase → direct");
        // Let the collapse take effect.
        std::thread::sleep(std::time::Duration::from_millis(1300));
        let second = lab.run_download(60_000).unwrap();
        assert_eq!(second.choice, ChosenPath::Relay(0), "collapsed → relay");
        assert!(first.body_ok && second.body_ok);
    }
}
