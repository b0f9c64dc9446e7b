//! Transfer schedules.
//!
//! §2.2: "downloading a large file from a particular Web site every 6
//! minutes for 10 hours (i.e., 100 times)".
//! §4.2: "downloading the same file from the same Web site every 30
//! seconds for 6 hours (720 times)".

use ir_simnet::time::{SimDuration, SimTime};

/// A periodic transfer schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Time between transfer starts.
    pub period: SimDuration,
    /// Number of transfers.
    pub count: u64,
}
ir_artifact::declare! { StableHash for struct Schedule { period, count } }

impl Schedule {
    /// The §2.2 schedule: every 6 minutes, 100 times (10 hours).
    pub fn measurement_study() -> Schedule {
        Schedule {
            period: SimDuration::from_secs(6 * 60),
            count: 100,
        }
    }

    /// The §4.2 schedule: every 30 seconds, 720 times (6 hours).
    pub fn selection_study() -> Schedule {
        Schedule {
            period: SimDuration::from_secs(30),
            count: 720,
        }
    }

    /// A shortened schedule for quick runs: same period, fewer
    /// transfers.
    pub fn truncated(self, count: u64) -> Schedule {
        Schedule {
            period: self.period,
            count: count.min(self.count),
        }
    }

    /// A subsampled schedule: `count` transfers spread over the **same
    /// total span**. Preferred for quick runs — path regimes mix over
    /// the full study window instead of the run sitting inside one
    /// regime segment.
    pub fn spread(self, count: u64) -> Schedule {
        let count = count.min(self.count).max(1);
        Schedule {
            period: ir_simnet::time::SimDuration::from_micros(self.span().as_micros() / count),
            count,
        }
    }

    /// Start instants, offset from `start`.
    pub fn instants(&self, start: SimTime) -> impl Iterator<Item = SimTime> + '_ {
        let period = self.period;
        (0..self.count).map(move |i| start + SimDuration::from_micros(period.as_micros() * i))
    }

    /// Total span from the first start to one period past the last.
    pub fn span(&self) -> SimDuration {
        SimDuration::from_micros(self.period.as_micros() * self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schedules() {
        let m = Schedule::measurement_study();
        assert_eq!(m.count, 100);
        assert_eq!(m.span(), SimDuration::from_secs(36_000)); // 10 h
        let s = Schedule::selection_study();
        assert_eq!(s.count, 720);
        assert_eq!(s.span(), SimDuration::from_secs(21_600)); // 6 h
    }

    #[test]
    fn instants_are_periodic() {
        let s = Schedule {
            period: SimDuration::from_secs(10),
            count: 3,
        };
        let t: Vec<SimTime> = s.instants(SimTime::from_secs(100)).collect();
        assert_eq!(
            t,
            vec![
                SimTime::from_secs(100),
                SimTime::from_secs(110),
                SimTime::from_secs(120)
            ]
        );
    }

    #[test]
    fn spread_preserves_span() {
        let s = Schedule::selection_study().spread(100);
        assert_eq!(s.count, 100);
        assert_eq!(s.span(), Schedule::selection_study().span());
        assert_eq!(s.period, SimDuration::from_secs(216));
        // Spreading to the original count is a no-op.
        let full = Schedule::measurement_study().spread(100);
        assert_eq!(full, Schedule::measurement_study());
    }

    #[test]
    fn truncation_clamps() {
        let s = Schedule::measurement_study().truncated(10);
        assert_eq!(s.count, 10);
        let s2 = Schedule::measurement_study().truncated(1000);
        assert_eq!(s2.count, 100);
    }
}
