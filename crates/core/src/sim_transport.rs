//! Simulator-backed [`Transport`].
//!
//! Wraps an [`ir_simnet::sim::Network`] and derives a TCP configuration
//! per path from the topology's RTT. Cloning the underlying network
//! yields an isolated replica whose links will experience the identical
//! future bandwidth trajectory (bandwidth processes are pure functions
//! of their seeds), which gives experiments a hindsight oracle
//! ([`SimTransport::oracle_throughput`]) that cannot disturb the
//! network it measures.

use crate::path::PathSpec;
use crate::transport::{Handle, RaceWin, Timing, Transport};
use ir_simnet::sim::{ConstCap, EngineStats, FlowId, Network};
use ir_simnet::time::{SimDuration, SimTime};
use ir_simnet::topology::Route;
use ir_tcp::{TcpConfig, TcpRateCap};

/// The TCP configuration of every connection over `route`: the route's
/// RTT, no steady-state loss (path rate diversity is carried by the
/// bandwidth processes, not loss) and a 256 KiB receiver window (the
/// probe/remainder connections of a mid-2000s well-tuned host).
fn tcp_config(net: &Network, route: &Route) -> TcpConfig {
    let rtt = net.topology().rtt(route);
    TcpConfig::for_rtt(rtt)
        .with_loss(0.0)
        .with_recv_window(256 * 1024)
}

/// A [`Transport`] over the fluid network simulator.
pub struct SimTransport {
    net: Network,
    handles: Vec<FlowId>,
    /// Engine work of the oracle replicas, dropped with their answers.
    oracle_work: EngineStats,
}

impl SimTransport {
    /// Wraps a network.
    pub fn new(net: Network) -> Self {
        SimTransport {
            net,
            handles: Vec::new(),
            oracle_work: EngineStats::default(),
        }
    }

    /// Immutable access to the underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the underlying network (e.g. to advance time
    /// between scheduled transfers).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Engine work done for this transport: its network's counters
    /// plus those of every oracle replica it ran.
    pub fn engine_stats(&self) -> EngineStats {
        self.net.stats() + self.oracle_work
    }

    /// Hindsight oracle: the whole-file throughput `path` would deliver
    /// for a transfer starting now, measured on an isolated replica so
    /// nothing in the real network is disturbed. The replica is a clone
    /// that shares every process (extending a timeline moves no value
    /// either network reads), so an oracle query costs the path, not
    /// the network. `None` if it would not finish within `horizon`. The
    /// replica's engine work is kept in [`SimTransport::engine_stats`].
    pub fn oracle_throughput(
        &mut self,
        path: &PathSpec,
        bytes: u64,
        horizon: SimDuration,
    ) -> Option<f64> {
        let mut replica = self.net.clone();
        let route = path
            .resolve(replica.topology())
            .unwrap_or_else(|| panic!("unresolvable path {path}"));
        let cfg = tcp_config(&replica, &route);
        let id = replica.start_flow(route, bytes, Box::new(TcpRateCap::new(cfg)));
        let deadline = replica.now() + horizon;
        let rate = replica.run_flow(id, deadline).map(|c| c.throughput());
        self.oracle_work = self.oracle_work + (replica.stats() - self.net.stats());
        rate
    }

    fn flow(&self, h: Handle) -> FlowId {
        self.handles[h.0 as usize]
    }
}

impl Transport for SimTransport {
    fn now(&self) -> SimTime {
        self.net.now()
    }

    fn begin(&mut self, path: &PathSpec, _offset: u64, bytes: u64) -> Handle {
        let route = path
            .resolve(self.net.topology())
            .unwrap_or_else(|| panic!("unresolvable path {path}"));
        let cfg = tcp_config(&self.net, &route);
        let id = self
            .net
            .start_flow(route, bytes, Box::new(TcpRateCap::new(cfg)));
        let h = Handle(self.handles.len() as u64);
        self.handles.push(id);
        h
    }

    fn resolvable(&self, path: &PathSpec) -> bool {
        path.resolve(self.net.topology()).is_some()
    }

    fn begin_warm(&mut self, path: &PathSpec, _offset: u64, bytes: u64) -> Handle {
        let route = path
            .resolve(self.net.topology())
            .unwrap_or_else(|| panic!("unresolvable path {path}"));
        let cfg = tcp_config(&self.net, &route);
        // Warm connection: the window is already open, so the only
        // ceiling left is the steady-state one.
        let steady = TcpRateCap::new(cfg).steady_rate();
        let id = self
            .net
            .start_flow(route, bytes, Box::new(ConstCap(steady)));
        let h = Handle(self.handles.len() as u64);
        self.handles.push(id);
        h
    }

    fn race(&mut self, handles: &[Handle], horizon: SimDuration) -> Option<RaceWin> {
        let ids: Vec<FlowId> = handles.iter().map(|&h| self.flow(h)).collect();
        let deadline = self.net.now() + horizon;
        let win = self.net.run_until_first_of(&ids, deadline)?;
        let index = ids.iter().position(|&id| id == win.id).expect("winner id");
        Some(RaceWin {
            index,
            timing: Timing {
                started: win.started,
                finished: win.finished,
                bytes: win.bytes,
            },
        })
    }

    fn finish(&mut self, handle: Handle, horizon: SimDuration) -> Option<Timing> {
        let id = self.flow(handle);
        let deadline = self.net.now() + horizon;
        self.net.run_flow(id, deadline).map(|c| Timing {
            started: c.started,
            finished: c.finished,
            bytes: c.bytes,
        })
    }

    fn cancel(&mut self, handle: Handle) {
        let id = self.flow(handle);
        self.net.cancel_flow(id);
    }

    fn progress(&self, handle: Handle) -> u64 {
        self.net.flow_progress(self.flow(handle))
    }

    fn sleep(&mut self, d: SimDuration) {
        let until = self.net.now() + d;
        self.net.advance_until(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_simnet::bandwidth::ConstantProcess;
    use ir_simnet::topology::{NodeKind, Topology};

    fn transport(direct: f64, via_up: f64, via_down: f64) -> (SimTransport, PathSpec, PathSpec) {
        let mut t = Topology::new();
        let c = t.add_node("c", NodeKind::Client);
        let v = t.add_node("v", NodeKind::Intermediate);
        let s = t.add_node("s", NodeKind::Server);
        let l_cs = t.add_link(c, s, SimDuration::from_millis(60));
        let l_cv = t.add_link(c, v, SimDuration::from_millis(40));
        let l_vs = t.add_link(v, s, SimDuration::from_millis(10));
        let mut net = Network::new(t, 1.0);
        net.set_link_process(l_cs, Box::new(ConstantProcess::new(direct)));
        net.set_link_process(l_cv, Box::new(ConstantProcess::new(via_up)));
        net.set_link_process(l_vs, Box::new(ConstantProcess::new(via_down)));
        let topo = net.topology();
        let d = PathSpec::direct(
            topo.node_by_name("c").unwrap(),
            topo.node_by_name("s").unwrap(),
        );
        let i = PathSpec::indirect(d.client, d.server, topo.node_by_name("v").unwrap());
        (SimTransport::new(net), d, i)
    }

    #[test]
    fn race_picks_faster_path() {
        let (mut tp, d, i) = transport(50_000.0, 400_000.0, 10e6);
        let hd = tp.begin(&d, 0, 100_000);
        let hi = tp.begin(&i, 0, 100_000);
        let win = tp.race(&[hd, hi], SimDuration::from_secs(600)).unwrap();
        assert_eq!(win.index, 1, "indirect should win");
        assert!(win.timing.throughput() > 50_000.0);
        tp.cancel(hd);
    }

    #[test]
    fn finish_runs_to_completion() {
        let (mut tp, d, _) = transport(100_000.0, 1.0, 1.0);
        let h = tp.begin(&d, 0, 500_000);
        let t = tp.finish(h, SimDuration::from_secs(600)).unwrap();
        // Slower than raw link rate because of handshake+slow start, but
        // in the ballpark.
        let thr = t.throughput();
        assert!(thr > 60_000.0 && thr <= 100_000.0, "thr {thr}");
    }

    #[test]
    fn oracle_does_not_disturb_network() {
        let (mut tp, d, i) = transport(50_000.0, 300_000.0, 10e6);
        let o1 = tp.oracle_throughput(&i, 1_000_000, SimDuration::from_secs(600));
        assert!(o1.unwrap() > 100_000.0);
        // Network clock and counters unchanged; the replica's work is
        // the transport's.
        assert_eq!(tp.now(), SimTime::ZERO);
        assert_eq!(tp.network().stats(), EngineStats::default());
        assert_eq!(tp.engine_stats().flows_completed, 1);
        // And a real transfer still behaves.
        let h = tp.begin(&d, 0, 50_000);
        assert!(tp.finish(h, SimDuration::from_secs(600)).is_some());
    }

    #[test]
    fn oracle_times_out_on_dead_path() {
        let (mut tp, _, i) = transport(50_000.0, ir_simnet::bandwidth::MIN_RATE, 1.0);
        assert!(tp
            .oracle_throughput(&i, 10_000_000, SimDuration::from_secs(60))
            .is_none());
    }

    #[test]
    #[should_panic(expected = "unresolvable path")]
    fn unresolvable_path_panics() {
        let (mut tp, d, _) = transport(1.0, 1.0, 1.0);
        let backwards = PathSpec::direct(d.server, d.client);
        tp.begin(&backwards, 0, 10);
    }
}
