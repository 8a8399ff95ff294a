//! Multi-parameter fusion ("smart") alarms.
//!
//! The paper's context-aware-intelligence claim: fusing SpO₂,
//! respiratory rate, EtCO₂ and heart rate cuts false alarms without
//! losing sensitivity, because genuine opioid-induced respiratory
//! depression moves *several* signals together while artifacts
//! (motion, probe-off) corrupt one signal at a time — and implausibly
//! fast.
//!
//! The detector scores each vital into a danger band, rejects samples
//! whose slew rate is physiologically impossible, and annunciates when
//! the corroborated weighted danger crosses a threshold (or a single
//! signal is deeply and persistently abnormal).

use crate::event::{AlarmEvent, AlarmPhase, AlarmPriority};
use mcps_patient::vitals::VitalKind;
use mcps_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-vital danger banding: value → danger score 0–3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DangerBands {
    /// Score 1 beyond this bound.
    pub mild: f64,
    /// Score 2 beyond this bound.
    pub moderate: f64,
    /// Score 3 beyond this bound.
    pub severe: f64,
    /// `true` if danger grows as the value *falls* (SpO₂, RR);
    /// `false` if danger grows as it rises.
    pub low_is_bad: bool,
}

impl DangerBands {
    /// Scores a value into 0–3.
    pub fn score(&self, v: f64) -> u8 {
        let past = |bound: f64| if self.low_is_bad { v < bound } else { v > bound };
        if past(self.severe) {
            3
        } else if past(self.moderate) {
            2
        } else if past(self.mild) {
            1
        } else {
            0
        }
    }
}

/// Fusion detector configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusionConfig {
    /// Danger bands per vital, with a weight for the fused sum.
    pub channels: Vec<(VitalKind, DangerBands, f64)>,
    /// Fused (weighted) danger needed to annunciate.
    pub alarm_score: f64,
    /// Minimum number of channels with non-zero danger (corroboration).
    pub min_corroboration: usize,
    /// A single channel at severe danger for this many consecutive
    /// samples annunciates even without corroboration.
    pub solo_severe_persistence: u32,
    /// Maximum plausible change per second, per vital; faster changes
    /// are treated as artifact and the previous value is held.
    pub max_slew_per_sec: Vec<(VitalKind, f64)>,
    /// Samples an alarm condition must persist before onset.
    pub persistence: u32,
}

impl FusionConfig {
    /// The PCA respiratory-depression fusion configuration.
    pub fn pca_default() -> Self {
        FusionConfig {
            channels: vec![
                (
                    VitalKind::Spo2,
                    DangerBands { mild: 93.0, moderate: 90.0, severe: 85.0, low_is_bad: true },
                    1.0,
                ),
                (
                    VitalKind::RespRate,
                    DangerBands { mild: 10.0, moderate: 8.0, severe: 5.0, low_is_bad: true },
                    1.0,
                ),
                (
                    VitalKind::Etco2,
                    DangerBands { mild: 48.0, moderate: 55.0, severe: 62.0, low_is_bad: false },
                    0.7,
                ),
                (
                    VitalKind::HeartRate,
                    DangerBands { mild: 100.0, moderate: 120.0, severe: 140.0, low_is_bad: false },
                    0.4,
                ),
            ],
            alarm_score: 2.5,
            min_corroboration: 2,
            solo_severe_persistence: 12,
            max_slew_per_sec: vec![
                (VitalKind::Spo2, 2.5),
                (VitalKind::RespRate, 4.0),
                (VitalKind::Etco2, 6.0),
                (VitalKind::HeartRate, 8.0),
            ],
            persistence: 3,
        }
    }
}

/// The stateful fusion detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusionAlarm {
    config: FusionConfig,
    /// Last accepted (slew-checked) value and its time, per channel.
    accepted: BTreeMap<VitalKind, (SimTime, f64)>,
    /// Consecutive suspect samples per channel (artifact hold budget).
    suspect_runs: BTreeMap<VitalKind, u32>,
    condition_run: u32,
    solo_runs: BTreeMap<VitalKind, u32>,
    active: bool,
}

/// How long a slew-rejected value may be held before we accept that
/// the change is real (samples).
const MAX_ARTIFACT_HOLD: u32 = 8;

impl FusionAlarm {
    /// Creates the detector.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no channels.
    pub fn new(config: FusionConfig) -> Self {
        assert!(!config.channels.is_empty(), "fusion needs at least one channel");
        FusionAlarm {
            config,
            accepted: BTreeMap::new(),
            suspect_runs: BTreeMap::new(),
            condition_run: 0,
            solo_runs: BTreeMap::new(),
            active: false,
        }
    }

    /// Creates the PCA-default detector.
    pub fn pca_default() -> Self {
        FusionAlarm::new(FusionConfig::pca_default())
    }

    /// Whether the fusion alarm is currently annunciating.
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn score_now(&self) -> (f64, usize) {
        let mut total = 0.0;
        let mut corroborating = 0;
        for (kind, bands, weight) in &self.config.channels {
            if let Some(&(_, v)) = self.accepted.get(kind) {
                let s = bands.score(v);
                if s > 0 {
                    corroborating += 1;
                }
                total += f64::from(s) * weight;
            }
        }
        (total, corroborating)
    }

    /// Feeds one batch of measurements observed at `now`; returns
    /// onset/clear events.
    pub fn observe(&mut self, now: SimTime, values: &BTreeMap<VitalKind, f64>) -> Vec<AlarmEvent> {
        // Slew-rate screening: accept, or hold the previous value.
        for (kind, _, _) in &self.config.channels {
            let Some(&v) = values.get(kind) else { continue };
            let max_slew = self
                .config
                .max_slew_per_sec
                .iter()
                .find(|(k, _)| k == kind)
                .map(|(_, s)| *s)
                .unwrap_or(f64::INFINITY);
            match self.accepted.get(kind) {
                Some(&(t_prev, v_prev)) => {
                    let dt = now.saturating_since(t_prev).as_secs_f64().max(1e-6);
                    let slew = (v - v_prev).abs() / dt;
                    let run = self.suspect_runs.entry(*kind).or_insert(0);
                    if slew > max_slew && *run < MAX_ARTIFACT_HOLD {
                        // Implausible jump: hold previous value, keep its
                        // timestamp so the budget is bounded.
                        *run += 1;
                    } else {
                        *run = 0;
                        self.accepted.insert(*kind, (now, v));
                    }
                }
                None => {
                    self.accepted.insert(*kind, (now, v));
                }
            }
        }

        // Solo-severe tracking on accepted values.
        let mut solo_trigger = false;
        for (kind, bands, _) in &self.config.channels {
            let run = self.solo_runs.entry(*kind).or_insert(0);
            let severe =
                self.accepted.get(kind).is_some_and(|&(t, v)| t == now && bands.score(v) == 3);
            if severe {
                *run += 1;
                if *run >= self.config.solo_severe_persistence {
                    solo_trigger = true;
                }
            } else {
                *run = 0;
            }
        }

        let (score, corroborating) = self.score_now();
        let fused_trigger =
            score >= self.config.alarm_score && corroborating >= self.config.min_corroboration;
        let condition = fused_trigger || solo_trigger;
        let mut events = Vec::new();
        if condition {
            self.condition_run += 1;
            if !self.active && self.condition_run >= self.config.persistence {
                self.active = true;
                events.push(AlarmEvent {
                    at: now,
                    source: "fusion".into(),
                    priority: AlarmPriority::High,
                    phase: AlarmPhase::Onset,
                    detail: format!(
                        "fused danger {score:.1} over {corroborating} channels{}",
                        if solo_trigger { " (solo severe)" } else { "" }
                    ),
                });
            }
        } else {
            self.condition_run = 0;
            if self.active {
                self.active = false;
                events.push(AlarmEvent {
                    at: now,
                    source: "fusion".into(),
                    priority: AlarmPriority::High,
                    phase: AlarmPhase::Cleared,
                    detail: format!("fused danger {score:.1}"),
                });
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(spo2: f64, rr: f64, etco2: f64, hr: f64) -> BTreeMap<VitalKind, f64> {
        let mut m = BTreeMap::new();
        m.insert(VitalKind::Spo2, spo2);
        m.insert(VitalKind::RespRate, rr);
        m.insert(VitalKind::Etco2, etco2);
        m.insert(VitalKind::HeartRate, hr);
        m
    }

    fn feed(
        a: &mut FusionAlarm,
        start: u64,
        n: u64,
        f: &BTreeMap<VitalKind, f64>,
    ) -> Vec<AlarmEvent> {
        let mut out = Vec::new();
        for i in 0..n {
            out.extend(a.observe(SimTime::from_secs(start + i), f));
        }
        out
    }

    #[test]
    fn healthy_patient_never_alarms() {
        let mut a = FusionAlarm::pca_default();
        let ev = feed(&mut a, 0, 600, &frame(97.0, 14.0, 38.0, 72.0));
        assert!(ev.is_empty());
        assert!(!a.is_active());
    }

    #[test]
    fn true_respiratory_depression_alarms() {
        let mut a = FusionAlarm::pca_default();
        // Baseline first so slew checking has history.
        feed(&mut a, 0, 10, &frame(96.0, 13.0, 40.0, 70.0));
        // Gradual correlated deterioration (drug effect over minutes),
        // fed in steps small enough to pass slew checks.
        let mut events = Vec::new();
        for i in 0..120u64 {
            let k = i as f64 / 120.0;
            let f = frame(96.0 - 8.0 * k, 13.0 - 7.0 * k, 40.0 + 18.0 * k, 70.0);
            events.extend(a.observe(SimTime::from_secs(10 + i), &f));
        }
        assert!(
            events.iter().any(|e| e.phase == AlarmPhase::Onset),
            "correlated deterioration must alarm"
        );
    }

    #[test]
    fn isolated_motion_artifact_is_rejected() {
        let mut a = FusionAlarm::pca_default();
        feed(&mut a, 0, 10, &frame(97.0, 14.0, 38.0, 72.0));
        // Sudden isolated SpO2 crash (motion artifact): 97 → 75 in one
        // second with everything else normal.
        let ev = feed(&mut a, 10, 6, &frame(75.0, 14.0, 38.0, 72.0));
        assert!(ev.is_empty(), "isolated implausible dip must not alarm: {ev:?}");
    }

    #[test]
    fn sustained_solo_severe_eventually_alarms() {
        let mut a = FusionAlarm::pca_default();
        feed(&mut a, 0, 10, &frame(97.0, 14.0, 38.0, 72.0));
        // A real, persistent deep desaturation with a (rare) normal RR:
        // after the artifact-hold budget and solo persistence it must
        // still alarm — safety net against single-channel blindness.
        let ev = feed(&mut a, 10, 40, &frame(80.0, 14.0, 38.0, 72.0));
        assert!(ev.iter().any(|e| e.phase == AlarmPhase::Onset), "persistent severe must alarm");
    }

    #[test]
    fn clears_after_recovery() {
        let mut a = FusionAlarm::pca_default();
        feed(&mut a, 0, 10, &frame(96.0, 13.0, 40.0, 70.0));
        for i in 0..120u64 {
            let k = i as f64 / 120.0;
            a.observe(
                SimTime::from_secs(10 + i),
                &frame(96.0 - 9.0 * k, 13.0 - 8.0 * k, 40.0 + 20.0 * k, 70.0),
            );
        }
        assert!(a.is_active());
        // Gradual recovery.
        let mut cleared = false;
        for i in 0..200u64 {
            let k = (i as f64 / 120.0).min(1.0);
            let ev = a.observe(
                SimTime::from_secs(130 + i),
                &frame(87.0 + 9.0 * k, 5.0 + 8.0 * k, 60.0 - 20.0 * k, 70.0),
            );
            cleared |= ev.iter().any(|e| e.phase == AlarmPhase::Cleared);
        }
        assert!(cleared);
        assert!(!a.is_active());
    }

    #[test]
    fn danger_bands_score_both_directions() {
        let down = DangerBands { mild: 93.0, moderate: 90.0, severe: 85.0, low_is_bad: true };
        assert_eq!(down.score(97.0), 0);
        assert_eq!(down.score(92.0), 1);
        assert_eq!(down.score(89.0), 2);
        assert_eq!(down.score(80.0), 3);
        let up = DangerBands { mild: 48.0, moderate: 55.0, severe: 62.0, low_is_bad: false };
        assert_eq!(up.score(40.0), 0);
        assert_eq!(up.score(50.0), 1);
        assert_eq!(up.score(58.0), 2);
        assert_eq!(up.score(70.0), 3);
    }

    #[test]
    fn artifact_hold_budget_is_bounded() {
        let mut a = FusionAlarm::pca_default();
        feed(&mut a, 0, 10, &frame(97.0, 14.0, 38.0, 72.0));
        // A *real* step change (e.g. probe moved to a better site with
        // genuinely low saturation) persists past the hold budget and
        // must eventually be accepted.
        feed(&mut a, 10, 20, &frame(80.0, 14.0, 38.0, 72.0));
        let (_, v) = a.accepted[&VitalKind::Spo2];
        assert!((v - 80.0).abs() < 1e-9, "held value must eventually update, got {v}");
    }
}
