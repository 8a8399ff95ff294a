//! Closed-loop drug-delivery controllers and the open-loop baseline.
//!
//! Experiment E6 compares three ways of running a continuous analgesic
//! infusion toward a target effect-site concentration:
//!
//! * [`FixedRateController`] — the open-loop clinical default: a
//!   weight-based constant rate, blind to the individual patient.
//! * [`TciController`] — target-controlled infusion: a *nominal* PK
//!   observer dead-reckons the effect-site concentration from the dose
//!   history and a bang-bang-with-taper law steers it to target. Still
//!   open loop with respect to the patient (model mismatch persists).
//! * [`FeedbackTciController`] — TCI plus a slow PI trim driven by the
//!   measured respiratory rate, closing the loop through the patient's
//!   actual physiology.
//!
//! All three emit an infusion rate in mg/h, clamped to a hard safety
//! ceiling; the experiment scores time-in-therapeutic-band of the
//! *true* effect-site concentration.

use crate::pid::{Pid, PidConfig};
use mcps_patient::pk::{PkModel, PkParams};
use serde::{Deserialize, Serialize};

/// Hard ceiling every controller respects, mg/h.
pub const MAX_RATE_MG_PER_H: f64 = 6.0;

/// A controller that produces an infusion rate each step.
pub trait InfusionController {
    /// One decision step. `dt_secs` since the last step; `measured_rr`
    /// is the latest respiratory-rate measurement if available.
    /// Returns the commanded rate, mg/h.
    fn step(&mut self, dt_secs: f64, measured_rr: Option<f64>) -> f64;

    /// Short display name for experiment tables.
    fn name(&self) -> &'static str;
}

/// Open-loop weight-based fixed rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FixedRateController {
    rate_mg_per_h: f64,
}

impl FixedRateController {
    /// The standard prescription: 0.03 mg/kg/h.
    pub fn for_weight(weight_kg: f64) -> Self {
        FixedRateController { rate_mg_per_h: (0.03 * weight_kg).min(MAX_RATE_MG_PER_H) }
    }

    /// The constant rate.
    pub fn rate(&self) -> f64 {
        self.rate_mg_per_h
    }
}

impl InfusionController for FixedRateController {
    fn step(&mut self, _dt_secs: f64, _measured_rr: Option<f64>) -> f64 {
        self.rate_mg_per_h
    }

    fn name(&self) -> &'static str {
        "fixed-rate"
    }
}

/// Target-controlled infusion against a nominal PK observer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TciController {
    observer: PkModel,
    target_ce: f64,
}

impl TciController {
    /// Creates a TCI controller targeting `target_ce` (mg/L) using the
    /// *nominal* PK model for the given weight (the controller does not
    /// know the patient's true parameters).
    pub fn new(weight_kg: f64, target_ce: f64) -> Self {
        TciController { observer: PkModel::new(PkParams::for_weight_kg(weight_kg)), target_ce }
    }

    /// The target effect-site concentration.
    pub fn target_ce(&self) -> f64 {
        self.target_ce
    }

    fn rate_for(&self, target: f64) -> f64 {
        // Proportional taper toward the target with a feedforward hold
        // term (the rate that sustains the target at steady state).
        let est = self.observer.effect_site_conc();
        let p = self.observer.params();
        let hold = target * p.k10 * p.v1 * 60.0; // mg/h to sustain target
        let error = target - est;
        let correction = 400.0 * error * p.v1 / 60.0; // aggressive taper
        (hold + correction).clamp(0.0, MAX_RATE_MG_PER_H)
    }
}

impl InfusionController for TciController {
    fn step(&mut self, dt_secs: f64, _measured_rr: Option<f64>) -> f64 {
        let rate = self.rate_for(self.target_ce);
        // Advance the observer under the commanded rate.
        self.observer.set_infusion_rate(rate / 60.0);
        self.observer.step(dt_secs);
        rate
    }

    fn name(&self) -> &'static str {
        "tci"
    }
}

/// TCI plus respiratory-rate feedback trim.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeedbackTciController {
    tci: TciController,
    trim: Pid,
    rr_floor: f64,
    /// Multiplicative target adjustment from feedback, bounded.
    target_scale: f64,
}

impl FeedbackTciController {
    /// Creates a feedback TCI controller. `rr_floor` is the respiratory
    /// rate the controller refuses to depress below (trim shrinks the
    /// target as RR approaches it).
    pub fn new(weight_kg: f64, target_ce: f64, rr_floor: f64) -> Self {
        FeedbackTciController {
            tci: TciController::new(weight_kg, target_ce),
            // The trim only ever *reduces* the target: feedback is a
            // safety backstop, not a licence to exceed the prescription.
            trim: Pid::new(PidConfig {
                kp: 0.02,
                ki: 0.0005,
                kd: 0.0,
                out_min: -0.7,
                out_max: 0.0,
            }),
            rr_floor,
            target_scale: 1.0,
        }
    }

    /// The current effective (trimmed) target.
    pub fn effective_target(&self) -> f64 {
        self.tci.target_ce * self.target_scale
    }
}

impl InfusionController for FeedbackTciController {
    fn step(&mut self, dt_secs: f64, measured_rr: Option<f64>) -> f64 {
        if let Some(rr) = measured_rr {
            // Error > 0 when breathing comfortably above the floor + margin.
            let error = rr - (self.rr_floor + 3.0);
            let adj = self.trim.step(error, dt_secs);
            self.target_scale = (1.0 + adj).clamp(0.3, 1.0);
        }
        let target = self.tci.target_ce * self.target_scale;
        let rate = self.tci.rate_for(target);
        self.tci.observer.set_infusion_rate(rate / 60.0);
        self.tci.observer.step(dt_secs);
        rate
    }

    fn name(&self) -> &'static str {
        "tci+feedback"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_scales_with_weight_and_caps() {
        assert!((FixedRateController::for_weight(70.0).rate() - 2.1).abs() < 1e-9);
        assert_eq!(FixedRateController::for_weight(500.0).rate(), MAX_RATE_MG_PER_H);
        let mut c = FixedRateController::for_weight(70.0);
        assert_eq!(c.step(1.0, Some(14.0)), c.rate());
    }

    #[test]
    fn tci_reaches_its_own_target_on_nominal_patient() {
        let target = 0.06;
        let mut c = TciController::new(70.0, target);
        let mut plant = PkModel::new(PkParams::for_weight_kg(70.0));
        for _ in 0..(3 * 3600) {
            let rate = c.step(1.0, None);
            plant.set_infusion_rate(rate / 60.0);
            plant.step(1.0);
        }
        let ce = plant.effect_site_conc();
        assert!(
            (ce - target).abs() / target < 0.1,
            "nominal patient should reach target: ce={ce} target={target}"
        );
    }

    #[test]
    fn tci_respects_rate_ceiling() {
        let mut c = TciController::new(70.0, 0.5); // absurd target
        for _ in 0..100 {
            let r = c.step(1.0, None);
            assert!(r <= MAX_RATE_MG_PER_H + 1e-9);
        }
    }

    #[test]
    fn feedback_backs_off_when_rr_falls() {
        let mut c = FeedbackTciController::new(70.0, 0.08, 8.0);
        // Comfortable breathing: target stays near nominal.
        for _ in 0..600 {
            c.step(1.0, Some(14.0));
        }
        let scale_comfortable = c.target_scale;
        // Respiratory depression: the trim must shrink the target.
        for _ in 0..600 {
            c.step(1.0, Some(7.0));
        }
        assert!(
            c.target_scale < scale_comfortable - 0.1,
            "feedback should back off: {} → {}",
            scale_comfortable,
            c.target_scale
        );
        assert!(c.effective_target() < 0.08 * scale_comfortable);
    }

    #[test]
    fn feedback_scale_is_bounded() {
        let mut c = FeedbackTciController::new(70.0, 0.08, 8.0);
        for _ in 0..10_000 {
            c.step(1.0, Some(0.0));
        }
        assert!(c.target_scale >= 0.3);
        for _ in 0..10_000 {
            c.step(1.0, Some(40.0));
        }
        assert!(c.target_scale <= 1.0, "feedback must never raise the target");
    }

    #[test]
    fn controller_names_are_distinct() {
        let a = FixedRateController::for_weight(70.0);
        let b = TciController::new(70.0, 0.06);
        let c = FeedbackTciController::new(70.0, 0.06, 8.0);
        let names = [a.name(), b.name(), c.name()];
        assert_eq!(names.iter().collect::<std::collections::BTreeSet<_>>().len(), 3);
    }
}
