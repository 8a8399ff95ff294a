//! The load: pre-encoded vitals noise on an open-loop schedule, and the
//! danger episodes whose stop latency is the workloads' headline.

use super::session::{Session, ToServer};
use super::{Params, MAX_CHUNK, NOISE_RING, SPEED, STOP_BOUND_S};
use crate::stats::SplitMix;
use mcps_core::msg::{NetOp, NetPayload};
use mcps_patient::vitals::VitalKind;
use mcps_serve::client::{CAP_EP, OX_EP};
use mcps_serve::wire::encode_frame;
use mcps_sim::stats::percentile;
use mcps_sim::time::SimTime;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Pre-encoded noise frames: heart rate from the oximeter and EtCO₂
/// from the capnograph, in range, so they can never mask (or fake) the
/// SpO₂ danger signal.
pub(super) struct NoiseRing {
    bytes: Vec<u8>,
    offsets: Vec<usize>,
}

impl NoiseRing {
    pub(super) fn new(seed: u64) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x006E_6F69_7365);
        let mut bytes = Vec::new();
        let mut offsets = vec![0];
        for i in 0..NOISE_RING {
            let (from, kind, value) = if i % 2 == 0 {
                (OX_EP, VitalKind::HeartRate, rng.range(60.0, 100.0))
            } else {
                (CAP_EP, VitalKind::Etco2, rng.range(33.0, 43.0))
            };
            let op = NetOp::Deliver {
                from,
                payload: NetPayload::Data {
                    kind,
                    value: (value * 10.0).round() / 10.0,
                    sampled_at: SimTime::from_millis(i as u64),
                },
            };
            bytes.extend_from_slice(&encode_frame(&op));
            offsets.push(bytes.len());
        }
        NoiseRing { bytes, offsets }
    }

    fn frames(&self, from: usize, count: usize) -> &[u8] {
        &self.bytes[self.offsets[from]..self.offsets[from + count]]
    }
}

#[derive(Debug, Default, Serialize)]
pub(super) struct GenStats {
    frames: u64,
    seconds: f64,
    pub(super) offered_sps: f64,
    pub(super) write_blocked_ms: f64,
    pub(super) lag_p99_ms: f64,
    lag_max_ms: f64,
}

/// Writes noise on an open-loop schedule until `stop` is raised. Each
/// write carries every frame due by now, so a stall is repaid at once
/// and shows as lag rather than as a lower offered rate.
pub(super) fn generate(ring: &NoiseRing, to: &ToServer, rate: f64, stop: &AtomicBool) -> GenStats {
    let start = Instant::now();
    let (mut sent, mut blocked) = (0u64, Duration::ZERO);
    let mut lags = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        let due = ((now - start).as_secs_f64() * rate) as u64;
        if due <= sent {
            std::thread::sleep(Duration::from_micros(100));
            continue;
        }
        let k = ((due - sent) as usize).min(MAX_CHUNK);
        lags.push((now - start).as_secs_f64() * 1e3 - sent as f64 / rate * 1e3);
        let i = (sent % NOISE_RING as u64) as usize;
        let head = k.min(NOISE_RING - i);
        let parts = [ring.frames(i, head), ring.frames(0, k - head)];
        let t0 = Instant::now();
        if to.write(&parts, k as u64).is_err() {
            break;
        }
        blocked += t0.elapsed();
        sent += k as u64;
    }
    let seconds = start.elapsed().as_secs_f64();
    GenStats {
        frames: sent,
        seconds,
        offered_sps: sent as f64 / seconds,
        write_blocked_ms: blocked.as_secs_f64() * 1e3,
        lag_p99_ms: percentile(&lags, 99.0),
        lag_max_ms: lags.iter().copied().fold(0.0, f64::max),
    }
}

/// One danger episode: due at `due`, stopped at `stop` (if ever).
#[derive(Debug, Clone, Copy)]
pub(super) struct Episode {
    pub(super) due: Instant,
    pub(super) stop: Option<Instant>,
    /// The pump was already stopped when the episode began.
    pub(super) started_stopped: bool,
}

enum Phase {
    Idle {
        due: Instant,
    },
    Danger {
        due: Instant,
        started_stopped: bool,
    },
    /// Back in the healthy range; `stopped` once the pump has been
    /// seen halted, so a resume can be told from the moment before the
    /// stop took effect.
    Recover {
        since: Instant,
        stopped: bool,
    },
}

/// Runs danger episodes (and the noise generator, if any) for
/// `seconds`, then lets an episode in progress finish.
pub(super) fn drive(
    s: &mut Session,
    p: &Params,
    seconds: f64,
    ring: Option<&NoiseRing>,
) -> Measured {
    let bound = Duration::from_secs_f64(STOP_BOUND_S / SPEED);
    let stop_gen = AtomicBool::new(false);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut episodes = Vec::new();
    let mut failures = Vec::new();
    let (gen, stream_s) = std::thread::scope(|scope| {
        let gen = ring.map(|ring| {
            let to = s.to.clone();
            let stop = &stop_gen;
            scope.spawn(move || generate(ring, &to, p.noise_rate, stop))
        });
        let mut seen = s.log.lock().expect("bed log").stops.len();
        let mut next_sample = start;
        let mut scheduled = 0u32;
        // Each due time is offset by a seeded fraction of the core's
        // one-protocol-second tick, so the episodes of every run sample
        // all phases of the tick cadence alike.
        let tick = Duration::from_secs_f64(1.0 / SPEED);
        let mut phase = Phase::Idle {
            due: start
                + p.episode_period.unwrap_or(p.monitor_period) / 2
                + tick.mul_f64(s.rng.range(0.0, 1.0)),
        };
        loop {
            let now = Instant::now();
            if now >= end && !matches!(phase, Phase::Danger { .. }) {
                break;
            }
            let stops: Vec<(Instant, u64)> = {
                let log = s.log.lock().expect("bed log");
                let new = log.stops[seen..].to_vec();
                seen = log.stops.len();
                new
            };
            phase = match phase {
                Phase::Idle { due } if now >= due => {
                    scheduled += 1;
                    s.send_vitals(true);
                    next_sample = now + p.monitor_period;
                    Phase::Danger { due, started_stopped: !s.bed.is_permitted() }
                }
                Phase::Danger { due, started_stopped } => {
                    match stops.iter().find(|(at, _)| *at >= due) {
                        Some(&(at, _)) => {
                            episodes.push(Episode { due, stop: Some(at), started_stopped });
                            Phase::Recover { since: now, stopped: false }
                        }
                        None if now - due > bound => {
                            episodes.push(Episode { due, stop: None, started_stopped });
                            Phase::Recover { since: now, stopped: false }
                        }
                        None => Phase::Danger { due, started_stopped },
                    }
                }
                Phase::Recover { since, stopped } => {
                    let stopped = stopped || !s.bed.is_permitted();
                    match p.episode_period {
                        // Open loop: the next episode is due on
                        // schedule, whatever state the pump is in.
                        Some(period) => Phase::Idle {
                            due: start
                                + period / 2
                                + period * scheduled
                                + tick.mul_f64(s.rng.range(0.0, 1.0)),
                        },
                        None if stopped && s.bed.is_permitted() => {
                            let gap = (s.rng.next_u64() % 3) as u32;
                            Phase::Idle {
                                due: next_sample
                                    + p.monitor_period * gap
                                    + tick.mul_f64(s.rng.range(0.0, 1.0)),
                            }
                        }
                        None if now - since > bound * 10 => {
                            failures.push("the pump was not stopped and resumed".to_owned());
                            break;
                        }
                        None => Phase::Recover { since, stopped },
                    }
                }
                idle => idle,
            };
            if now >= next_sample {
                s.send_vitals(matches!(phase, Phase::Danger { .. }));
                while next_sample <= now {
                    next_sample += p.monitor_period;
                }
            }
            s.bed.step();
            std::thread::sleep(Duration::from_micros(200));
        }
        let stream_s = start.elapsed().as_secs_f64();
        stop_gen.store(true, Ordering::Relaxed);
        (gen.map(|h| h.join().expect("generator thread")), stream_s)
    });
    Measured { episodes, gen, stream_s, failures }
}

pub(super) struct Measured {
    pub(super) episodes: Vec<Episode>,
    pub(super) gen: Option<GenStats>,
    pub(super) stream_s: f64,
    pub(super) failures: Vec<String>,
}

impl Measured {
    /// Latencies in ms; an episode with no stop counts as the bound.
    pub(super) fn latencies_ms(&self) -> Vec<f64> {
        let bound_ms = STOP_BOUND_S / SPEED * 1e3;
        self.episodes
            .iter()
            .map(|e| e.stop.map_or(bound_ms, |s| (s - e.due).as_secs_f64() * 1e3))
            .collect()
    }

    pub(super) fn misses(&self) -> u64 {
        self.episodes.iter().filter(|e| e.stop.is_none()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::host::is_noise;
    use mcps_serve::wire::FrameDecoder;

    #[test]
    fn noise_ring_is_seeded_and_decodes() {
        let a = NoiseRing::new(3);
        assert_eq!(a.bytes, NoiseRing::new(3).bytes);
        assert_ne!(a.bytes, NoiseRing::new(4).bytes);
        let mut dec = FrameDecoder::new();
        dec.push(a.frames(0, 4));
        let ops: Vec<NetOp> = std::iter::from_fn(|| dec.next_frame()).collect();
        assert_eq!(ops.len(), 4);
        assert!(ops.iter().all(is_noise));
    }
}
