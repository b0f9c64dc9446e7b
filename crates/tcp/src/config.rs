//! TCP model parameters.

use ir_simnet::time::SimDuration;

/// Parameters of the fluid TCP model for one connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment size in bytes (default 1460, Ethernet-era MSS).
    pub mss: u32,
    /// Round-trip time of the connection's path.
    pub rtt: SimDuration,
    /// Initial congestion window, in segments (default 3 — the RFC 3390
    /// initial window of min(4·MSS, 4380 B), standard by the paper's
    /// 2005 measurement period).
    pub init_cwnd_segments: u32,
    /// Receiver window in bytes; bounds steady-state rate at
    /// `recv_window / rtt` (default 64 KiB, the classic un-scaled
    /// window).
    pub recv_window: u32,
    /// Steady-state loss probability seen by the connection. Zero means
    /// the receiver window is the only steady-state bound.
    pub loss_rate: f64,
    /// Connection setup time before the first payload byte flows
    /// (handshake + request). Defaults to `1.5 × rtt`: SYN/SYN-ACK (1
    /// RTT) plus request propagation (0.5 RTT).
    pub startup: SimDuration,
}

impl TcpConfig {
    /// A configuration for the given path RTT with era-appropriate
    /// defaults (MSS 1460, IW 2, 64 KiB window, 1% loss).
    pub fn for_rtt(rtt: SimDuration) -> Self {
        TcpConfig {
            mss: 1460,
            rtt,
            init_cwnd_segments: 3,
            recv_window: 64 * 1024,
            loss_rate: 0.01,
            startup: SimDuration::from_micros(rtt.as_micros() * 3 / 2),
        }
    }

    /// Overrides the loss rate.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss rate out of range: {p}");
        self.loss_rate = p;
        self
    }

    /// Overrides the receiver window.
    pub fn with_recv_window(mut self, bytes: u32) -> Self {
        assert!(bytes > 0, "zero receive window");
        self.recv_window = bytes;
        self
    }

    /// Overrides the startup (handshake) delay.
    pub fn with_startup(mut self, d: SimDuration) -> Self {
        self.startup = d;
        self
    }

    /// Validates invariants; called by model constructors.
    pub fn validate(&self) {
        assert!(self.mss > 0, "zero MSS");
        assert!(!self.rtt.is_zero(), "zero RTT");
        assert!(self.init_cwnd_segments > 0, "zero initial window");
        assert!(self.recv_window > 0, "zero receive window");
        assert!(
            (0.0..1.0).contains(&self.loss_rate),
            "loss rate out of range: {}",
            self.loss_rate
        );
    }

    /// The receiver-window rate bound, bytes/sec.
    pub fn window_rate(&self) -> f64 {
        self.recv_window as f64 / self.rtt.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TcpConfig::for_rtt(SimDuration::from_millis(100));
        c.validate();
        assert_eq!(c.mss, 1460);
        assert_eq!(c.startup, SimDuration::from_millis(150));
        // 64 KiB / 100 ms = 655360 B/s.
        assert!((c.window_rate() - 655_360.0).abs() < 1.0);
    }

    #[test]
    fn builders_override() {
        let c = TcpConfig::for_rtt(SimDuration::from_millis(50))
            .with_loss(0.02)
            .with_recv_window(128 * 1024)
            .with_startup(SimDuration::ZERO);
        assert_eq!(c.loss_rate, 0.02);
        assert_eq!(c.recv_window, 128 * 1024);
        assert!(c.startup.is_zero());
    }

    #[test]
    #[should_panic(expected = "loss rate out of range")]
    fn bad_loss_rejected() {
        TcpConfig::for_rtt(SimDuration::from_millis(10)).with_loss(1.0);
    }

    #[test]
    #[should_panic(expected = "zero RTT")]
    fn zero_rtt_rejected() {
        let mut c = TcpConfig::for_rtt(SimDuration::from_millis(10));
        c.rtt = SimDuration::ZERO;
        c.validate();
    }
}
