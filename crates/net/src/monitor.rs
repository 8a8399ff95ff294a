//! Deadline monitoring: [`DeadlineTracker`] scores request/response
//! latency against a deadline. (Stream freshness lives with its one
//! consumer, the PCA interlock, which keeps the last arrival per vital.)

use mcps_sim::stats::Welford;
use mcps_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Scores completed request/response (or command/acknowledgement)
/// round trips against a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadlineTracker {
    deadline: SimDuration,
    met: u64,
    missed: u64,
    unanswered: u64,
    latency: Welford,
}

impl DeadlineTracker {
    /// Creates a tracker with the given deadline.
    pub fn new(deadline: SimDuration) -> Self {
        DeadlineTracker { deadline, met: 0, missed: 0, unanswered: 0, latency: Welford::new() }
    }

    /// The configured deadline.
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }

    /// Records a completed round trip that took `elapsed`.
    pub fn record(&mut self, elapsed: SimDuration) {
        self.latency.push(elapsed.as_secs_f64());
        if elapsed <= self.deadline {
            self.met += 1;
        } else {
            self.missed += 1;
        }
    }

    /// Records a request that never completed (counts as a miss of the
    /// worst kind).
    pub fn record_unanswered(&mut self) {
        self.unanswered += 1;
    }

    /// Round trips within the deadline.
    pub fn met(&self) -> u64 {
        self.met
    }

    /// Completed round trips that exceeded the deadline.
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// Requests that never completed.
    pub fn unanswered(&self) -> u64 {
        self.unanswered
    }

    /// Total observations (met + missed + unanswered).
    pub fn total(&self) -> u64 {
        self.met + self.missed + self.unanswered
    }

    /// Fraction of observations that met the deadline (1.0 if none).
    pub fn success_ratio(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.met as f64 / self.total() as f64
        }
    }

    /// Latency statistics over completed round trips.
    pub fn latency(&self) -> &Welford {
        &self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_classification() {
        let mut d = DeadlineTracker::new(SimDuration::from_millis(100));
        d.record(SimDuration::from_millis(50));
        d.record(SimDuration::from_millis(100));
        d.record(SimDuration::from_millis(101));
        d.record_unanswered();
        assert_eq!(d.met(), 2);
        assert_eq!(d.missed(), 1);
        assert_eq!(d.unanswered(), 1);
        assert_eq!(d.total(), 4);
        assert!((d.success_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(d.latency().count(), 3);
    }

    #[test]
    fn empty_tracker_is_vacuously_successful() {
        let d = DeadlineTracker::new(SimDuration::from_millis(1));
        assert_eq!(d.success_ratio(), 1.0);
    }
}
