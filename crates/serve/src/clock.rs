//! Wall-clock → simulation-time mapping for live serving.
//!
//! The sans-io [`mcps_core::SupervisorCore`] thinks in [`SimTime`];
//! serve mode feeds it real time. [`ServeClock`] anchors `SimTime::ZERO`
//! at construction and scales elapsed wall time by a speed factor, so
//! tests and the crash harness can compress minutes of protocol time
//! (association, heartbeats, watchdog windows) into fractions of a
//! wall second while production runs at `speed = 1.0`.

use mcps_sim::time::SimTime;
use std::time::{Duration, Instant};

/// Maps monotonic wall time onto the supervisor's simulation timeline.
///
/// The mapping is integer µs end to end: elapsed wall-µs (`u128`)
/// times a fixed-point speed, never `f64` arithmetic on an
/// ever-growing elapsed value — at double precision a multi-day
/// session's `wall * speed * 1e6` loses sub-µs increments and can even
/// present equal (or non-monotone, under FMA contraction) readings.
#[derive(Debug, Clone, Copy)]
pub struct ServeClock {
    start: Instant,
    /// Sim-µs per wall-second, i.e. `speed * 1e6` rounded once.
    speed_micro: u64,
}

impl ServeClock {
    /// Starts the clock now. `speed` is sim-seconds per wall-second;
    /// values `<= 0` are clamped to `1.0`. Resolution is one millionth
    /// of a speed unit (`speed_micro`); anything finer rounds.
    pub fn new(speed: f64) -> Self {
        let speed = if speed > 0.0 { speed } else { 1.0 };
        let speed_micro = ((speed * 1e6).round() as u64).max(1);
        ServeClock { start: Instant::now(), speed_micro }
    }

    /// The speed factor in effect (after fixed-point rounding).
    pub fn speed(&self) -> f64 {
        self.speed_micro as f64 / 1e6
    }

    /// The current position on the simulation timeline.
    pub fn sim_now(&self) -> SimTime {
        // sim_µs = wall_µs * (sim_µs per wall_s) / (wall_µs per wall_s),
        // all in u128: exact for any plausible uptime and speed
        // (overflow needs wall_µs * speed_micro > 2^128, i.e. ~10^19
        // years at speed 10^6).
        let wall_us = self.start.elapsed().as_micros();
        let sim_us = wall_us * u128::from(self.speed_micro) / 1_000_000;
        SimTime::from_micros(u64::try_from(sim_us).unwrap_or(u64::MAX))
    }

    /// The wall instant at which the clock reaches `t`: the inverse of
    /// [`ServeClock::sim_now`], in integer µs rounded **up**, so that
    /// `sim_now()` read at or after the returned instant is never
    /// below `t`. (Rounding down would wake a waiting host a µs early,
    /// find nothing due, and spin until the tick.) A target too far out
    /// for the platform's `Instant` maps ~136 years ahead instead.
    pub fn wall_at(&self, t: SimTime) -> Instant {
        let speed = u128::from(self.speed_micro);
        let wall_us = (u128::from(t.as_micros()) * 1_000_000).div_ceil(speed);
        let wall = Duration::from_micros(u64::try_from(wall_us).unwrap_or(u64::MAX));
        self.start.checked_add(wall).unwrap_or_else(|| self.start + Duration::from_secs(1 << 32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_scales() {
        let c = ServeClock::new(1000.0);
        let a = c.sim_now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let b = c.sim_now();
        assert!(b > a, "clock must advance: {a:?} -> {b:?}");
        // 5 ms wall at 1000x is ~5 sim-seconds; allow generous slack.
        assert!(b.saturating_since(a) >= mcps_sim::time::SimDuration::from_millis(500));
    }

    #[test]
    fn nonpositive_speed_clamps_to_realtime() {
        assert!((ServeClock::new(0.0).speed() - 1.0).abs() < f64::EPSILON);
        assert!((ServeClock::new(-3.0).speed() - 1.0).abs() < f64::EPSILON);
    }

    /// Back-to-back readings must never run backwards, at any speed —
    /// including awkward fractional speeds whose float products are
    /// inexact. (The old `f64` mapping could present non-monotone
    /// pairs under optimization; the integer mapping cannot.)
    #[test]
    fn sim_now_is_monotone_under_rapid_sampling() {
        for speed in [0.3, 1.0, 7.77, 355.0, 1e4] {
            let c = ServeClock::new(speed);
            let mut prev = c.sim_now();
            for _ in 0..50_000 {
                let now = c.sim_now();
                assert!(now >= prev, "clock ran backwards at speed {speed}: {prev:?} -> {now:?}");
                prev = now;
            }
        }
    }

    /// `wall_at` inverts `sim_now` from above: at the instant it names,
    /// the clock has reached the target — at integer speeds and at one
    /// whose µs products never divide evenly — and later targets never
    /// map to earlier instants.
    #[test]
    fn wall_at_is_a_monotone_upper_inverse() {
        for speed in [1.0, 30.0, 100.0, 1000.0, 7.77] {
            let c = ServeClock::new(speed);
            let mut prev = c.wall_at(SimTime::ZERO);
            assert_eq!(prev, c.start);
            for us in (1..4_000u64).map(|i| i * 997) {
                let t = SimTime::from_micros(us);
                let at = c.wall_at(t);
                assert!(at >= prev, "wall_at not monotone at speed {speed}, t={t:?}");
                let wall_us = at.duration_since(c.start).as_micros();
                let sim_us = wall_us * u128::from(c.speed_micro) / 1_000_000;
                assert!(sim_us >= u128::from(us), "woke before {t:?} at speed {speed}");
                // Tight: one µs earlier the target is not yet reached.
                let early = (wall_us - 1) * u128::from(c.speed_micro) / 1_000_000;
                assert!(early < u128::from(us), "wall_at overshoots {t:?} at speed {speed}");
                prev = at;
            }
            // And live: a reading taken at the returned instant.
            let t = c.sim_now().saturating_add(mcps_sim::time::SimDuration::from_micros(1_500));
            let at = c.wall_at(t);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            assert!(c.sim_now() >= t, "sim_now below target after wall_at at speed {speed}");
        }
    }

    /// The integer mapping agrees with the ideal real-valued mapping
    /// to within one µs at day-scale elapsed times (the f64 path it
    /// replaced is off by whole µs there).
    #[test]
    fn integer_mapping_is_exact_at_long_uptimes() {
        let speed_micro = 355_000_000u128; // speed 355
        for wall_us in [1u128, 86_400_000_000, 30 * 86_400_000_000] {
            let sim = wall_us * speed_micro / 1_000_000;
            let ideal = (wall_us as f64) * 355.0;
            assert!((sim as f64 - ideal).abs() <= 1.0, "drift at wall_us={wall_us}");
        }
    }
}
