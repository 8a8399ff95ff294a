//! The complete virtual patient: PK + physiology + pain behaviour +
//! ground-truth outcome tracking.
//!
//! A [`VirtualPatient`] is the plant in every closed-loop experiment:
//! devices administer drug into it and sensors sample vitals out of it,
//! while an [`OutcomeTracker`] records what *actually* happened
//! (independently of what any monitor displayed) so experiments can
//! score safety interventions against physiological truth.

use crate::physiology::{PhysioModel, PhysioParams};
use crate::pk::{PkModel, PkParams};
use crate::vitals::VitalsFrame;
use mcps_sim::rng::{bernoulli, normal};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Patient risk stratum, affecting opioid sensitivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RiskGroup {
    /// Typical post-operative adult.
    #[default]
    Standard,
    /// Heightened pharmacodynamic sensitivity (e.g. elderly, opioid-naïve).
    OpioidSensitive,
    /// Obstructive sleep apnoea: faster desaturation, lower apnoea margin.
    SleepApnea,
}

/// Everything needed to instantiate one virtual patient.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PatientParams {
    /// Body weight, kg.
    pub weight_kg: f64,
    /// Pharmacokinetics.
    pub pk: PkParams,
    /// Physiology/pharmacodynamics.
    pub physio: PhysioParams,
    /// Initial pain drive on the 0–10 scale (before analgesia).
    pub pain_baseline: f64,
    /// Time constant (minutes) of the slow post-operative pain decay.
    pub pain_tau_min: f64,
    /// Patient button presses per hour at pain 10/10 (scales linearly
    /// down with perceived pain).
    pub demand_rate_at_max_pain: f64,
    /// Risk stratum (annotation; sensitivity is baked into `physio`).
    pub risk: RiskGroup,
}

impl Default for PatientParams {
    fn default() -> Self {
        PatientParams {
            weight_kg: 75.0,
            pk: PkParams::for_weight_kg(75.0),
            physio: PhysioParams::default(),
            pain_baseline: 6.0,
            pain_tau_min: 600.0,
            demand_rate_at_max_pain: 12.0,
            risk: RiskGroup::Standard,
        }
    }
}

/// Thresholds defining ground-truth adverse events.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EventThresholds {
    /// SpO₂ below this is hypoxaemia (%).
    pub hypox_spo2: f64,
    /// SpO₂ below this is *severe* hypoxaemia (%).
    pub severe_spo2: f64,
    /// A dip must persist this long (seconds) to count as an event.
    pub min_duration_secs: f64,
    /// Respiratory rate below this is respiratory depression.
    pub resp_depression_rr: f64,
}

impl Default for EventThresholds {
    fn default() -> Self {
        EventThresholds {
            hypox_spo2: 90.0,
            severe_spo2: 85.0,
            min_duration_secs: 30.0,
            resp_depression_rr: 8.0,
        }
    }
}

/// Accumulated ground-truth outcome of one patient run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PatientOutcome {
    /// Completed hypoxaemia episodes (SpO₂ < threshold, sustained).
    pub hypox_events: u32,
    /// Completed severe-hypoxaemia episodes.
    pub severe_hypox_events: u32,
    /// Completed respiratory-depression episodes (RR < threshold).
    pub resp_depression_events: u32,
    /// Total seconds with true SpO₂ below the hypoxaemia threshold.
    pub secs_below_hypox: f64,
    /// Total seconds with true SpO₂ below the severe threshold.
    pub secs_below_severe: f64,
    /// Lowest true SpO₂ seen, %.
    pub min_spo2: f64,
    /// Total observation time, seconds.
    pub observed_secs: f64,
    /// Time-average perceived pain (0–10).
    pub mean_pain: f64,
    /// Fraction of time with perceived pain ≤ 4 (adequate analgesia).
    pub frac_adequate_analgesia: f64,
}

/// Online detector of ground-truth adverse events.
///
/// Feed it one observation per simulation step; episodes require the
/// configured dwell time, so a single-sample dip does not count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutcomeTracker {
    thresholds: EventThresholds,
    hypox_run_secs: f64,
    severe_run_secs: f64,
    rr_run_secs: f64,
    in_hypox: bool,
    in_severe: bool,
    in_rr: bool,
    outcome: PatientOutcome,
    pain_integral: f64,
    analgesia_secs: f64,
}

impl OutcomeTracker {
    /// Creates a tracker with the given event definitions.
    pub fn new(thresholds: EventThresholds) -> Self {
        OutcomeTracker {
            thresholds,
            hypox_run_secs: 0.0,
            severe_run_secs: 0.0,
            rr_run_secs: 0.0,
            in_hypox: false,
            in_severe: false,
            in_rr: false,
            outcome: PatientOutcome { min_spo2: 100.0, ..PatientOutcome::default() },
            pain_integral: 0.0,
            analgesia_secs: 0.0,
        }
    }

    /// Records one step of `dt_secs` with the given true vitals and
    /// perceived pain.
    pub fn observe(&mut self, dt_secs: f64, vitals: &VitalsFrame, perceived_pain: f64) {
        let t = &self.thresholds;
        let o = &mut self.outcome;
        o.observed_secs += dt_secs;
        o.min_spo2 = o.min_spo2.min(vitals.spo2);
        self.pain_integral += perceived_pain * dt_secs;
        if perceived_pain <= 4.0 {
            self.analgesia_secs += dt_secs;
        }

        let dwell = |below: bool,
                     run: &mut f64,
                     active: &mut bool,
                     events: &mut u32,
                     secs: Option<&mut f64>| {
            if below {
                *run += dt_secs;
                if let Some(s) = secs {
                    *s += dt_secs;
                }
                if !*active && *run >= t.min_duration_secs {
                    *active = true;
                    *events += 1;
                }
            } else {
                *run = 0.0;
                *active = false;
            }
        };

        // Split borrows: copy counters out, write back after.
        let mut hypox_events = o.hypox_events;
        let mut severe_events = o.severe_hypox_events;
        let mut rr_events = o.resp_depression_events;
        dwell(
            vitals.spo2 < t.hypox_spo2,
            &mut self.hypox_run_secs,
            &mut self.in_hypox,
            &mut hypox_events,
            Some(&mut o.secs_below_hypox),
        );
        dwell(
            vitals.spo2 < t.severe_spo2,
            &mut self.severe_run_secs,
            &mut self.in_severe,
            &mut severe_events,
            Some(&mut o.secs_below_severe),
        );
        dwell(
            vitals.resp_rate < t.resp_depression_rr,
            &mut self.rr_run_secs,
            &mut self.in_rr,
            &mut rr_events,
            None,
        );
        o.hypox_events = hypox_events;
        o.severe_hypox_events = severe_events;
        o.resp_depression_events = rr_events;
    }

    /// Finalizes and returns the outcome.
    pub fn outcome(&self) -> PatientOutcome {
        let mut o = self.outcome;
        if o.observed_secs > 0.0 {
            o.mean_pain = self.pain_integral / o.observed_secs;
            o.frac_adequate_analgesia = self.analgesia_secs / o.observed_secs;
        }
        o
    }
}

impl Default for OutcomeTracker {
    fn default() -> Self {
        OutcomeTracker::new(EventThresholds::default())
    }
}

/// A complete simulated patient.
///
/// ```
/// use mcps_patient::patient::{PatientParams, VirtualPatient};
/// use mcps_sim::rng::RngFactory;
///
/// let mut rng = RngFactory::new(1).stream("patient");
/// let mut p = VirtualPatient::new(PatientParams::default());
/// p.give_bolus(1.0);
/// for _ in 0..600 {
///     p.advance(1.0, &mut rng);
/// }
/// assert!(p.vitals().spo2 > 90.0); // a single therapeutic bolus is safe
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VirtualPatient {
    params: PatientParams,
    pk: PkModel,
    physio: PhysioModel,
    pain_drive: f64,
    elapsed_secs: f64,
    tracker: OutcomeTracker,
}

impl VirtualPatient {
    /// Instantiates the patient at drug-free equilibrium.
    ///
    /// # Panics
    ///
    /// Panics if the embedded PK or physiology parameters are invalid.
    pub fn new(params: PatientParams) -> Self {
        VirtualPatient {
            pk: PkModel::new(params.pk),
            physio: PhysioModel::new(params.physio),
            pain_drive: params.pain_baseline,
            elapsed_secs: 0.0,
            tracker: OutcomeTracker::default(),
            params,
        }
    }

    /// The construction parameters.
    pub fn params(&self) -> &PatientParams {
        &self.params
    }

    /// Simulated time experienced by this patient, seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_secs
    }

    /// Current effect-site concentration, mg/L.
    pub fn effect_site_conc(&self) -> f64 {
        self.pk.effect_site_conc()
    }

    /// Total opioid administered so far, mg.
    pub fn total_drug_mg(&self) -> f64 {
        self.pk.total_administered_mg()
    }

    /// Current perceived pain (0–10 after analgesia).
    pub fn perceived_pain(&self) -> f64 {
        self.physio.perceived_pain(self.pk.effect_site_conc(), self.pain_drive)
    }

    /// Current true vitals.
    pub fn vitals(&self) -> VitalsFrame {
        self.physio.vitals(self.pk.effect_site_conc(), self.pain_drive)
    }

    /// Immediate IV bolus, mg.
    pub fn give_bolus(&mut self, mg: f64) {
        self.pk.give_bolus(mg);
    }

    /// Sets the background infusion rate, mg/min.
    pub fn set_infusion_rate(&mut self, mg_per_min: f64) {
        self.pk.set_infusion_rate(mg_per_min);
    }

    /// Advances physiology by `dt_secs`; `rng` drives the slow pain
    /// fluctuation.
    pub fn advance(&mut self, dt_secs: f64, rng: &mut impl RngCore) {
        self.pk.step(dt_secs);
        self.physio.step(self.pk.effect_site_conc(), dt_secs);
        // Pain: slow exponential recovery toward 1.5/10 plus a small
        // random walk (wound pain waxes and wanes).
        let dt_min = dt_secs / 60.0;
        let floor = 1.5;
        self.pain_drive += (floor - self.pain_drive) * dt_min / self.params.pain_tau_min;
        self.pain_drive += normal(rng, 0.0, 0.03 * dt_min.sqrt().max(0.01));
        self.pain_drive = self.pain_drive.clamp(0.0, 10.0);
        self.elapsed_secs += dt_secs;
        let vitals = self.vitals();
        let pain = self.perceived_pain();
        self.tracker.observe(dt_secs, &vitals, pain);
    }

    /// Whether the patient presses the PCA demand button during a step
    /// of `dt_secs`. Demand is a Poisson process whose rate scales with
    /// perceived pain; a pain-free (or unconscious) patient does not press.
    pub fn wants_bolus(&self, dt_secs: f64, rng: &mut impl RngCore) -> bool {
        let pain = self.perceived_pain();
        if pain < 1.0 || self.is_unconscious() {
            return false;
        }
        let rate_per_hour = self.params.demand_rate_at_max_pain * pain / 10.0;
        let p = rate_per_hour * dt_secs / 3600.0;
        bernoulli(rng, p)
    }

    /// Deeply sedated patients cannot press the button — exactly the
    /// inherent PCA safety feature that *fails* when a proxy presses it
    /// or an infusion stacks doses, which is why the interlock exists.
    pub fn is_unconscious(&self) -> bool {
        self.physio.depression(self.pk.effect_site_conc()) > 0.6
    }

    /// Ground-truth outcome so far.
    pub fn outcome(&self) -> PatientOutcome {
        self.tracker.outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcps_sim::rng::RngFactory;

    fn rng() -> mcps_sim::rng::SimRng {
        RngFactory::new(11).stream("patient-test")
    }

    #[test]
    fn unmedicated_patient_stays_healthy() {
        let mut p = VirtualPatient::new(PatientParams::default());
        let mut r = rng();
        for _ in 0..(2 * 3600) {
            p.advance(1.0, &mut r);
        }
        let o = p.outcome();
        assert_eq!(o.severe_hypox_events, 0);
        assert_eq!(o.hypox_events, 0);
        assert!(o.min_spo2 > 94.0);
        // Untreated pain stays high.
        assert!(o.mean_pain > 4.0);
    }

    #[test]
    fn massive_overdose_causes_severe_event() {
        let mut p = VirtualPatient::new(PatientParams::default());
        let mut r = rng();
        p.give_bolus(15.0); // runaway pump worth of drug
        let mut was_unconscious = false;
        for _ in 0..(30 * 60) {
            p.advance(1.0, &mut r);
            was_unconscious |= p.is_unconscious();
        }
        let o = p.outcome();
        assert!(o.severe_hypox_events >= 1, "expected severe event, outcome {o:?}");
        assert!(o.min_spo2 < 80.0);
        assert!(was_unconscious, "patient should pass through deep sedation");
    }

    #[test]
    fn therapeutic_boluses_relieve_pain_safely() {
        let mut p = VirtualPatient::new(PatientParams::default());
        let mut r = rng();
        // 1 mg every 10 minutes for 2 h — a sane PCA pattern.
        for step in 0..(2 * 3600) {
            if step % 600 == 0 {
                p.give_bolus(1.0);
            }
            p.advance(1.0, &mut r);
        }
        let o = p.outcome();
        assert_eq!(o.severe_hypox_events, 0, "therapy should be safe: {o:?}");
        assert!(p.perceived_pain() < 4.0, "pain should be controlled, got {}", p.perceived_pain());
    }

    #[test]
    fn demand_tracks_pain() {
        let p = VirtualPatient::new(PatientParams::default());
        let mut r = rng();
        // In an hour of high pain, some demands occur.
        let demands = (0..3600).filter(|_| p.wants_bolus(1.0, &mut r)).count();
        assert!(demands >= 1, "painful patient should press the button");
        // A heavily sedated patient never presses.
        let mut sedated = VirtualPatient::new(PatientParams::default());
        sedated.give_bolus(20.0);
        let mut r2 = rng();
        for _ in 0..600 {
            sedated.advance(1.0, &mut r2);
        }
        assert!(sedated.is_unconscious());
        let d2 = (0..3600).filter(|_| sedated.wants_bolus(1.0, &mut r2)).count();
        assert_eq!(d2, 0);
    }

    #[test]
    fn outcome_tracker_requires_dwell() {
        let mut t = OutcomeTracker::default();
        let mut v = VitalsFrame {
            spo2: 97.0,
            heart_rate: 70.0,
            resp_rate: 14.0,
            etco2: 38.0,
            bp_systolic: 120.0,
            bp_diastolic: 80.0,
            minute_ventilation: 6.0,
        };
        // 10 s dip: too short to count.
        v.spo2 = 88.0;
        for _ in 0..10 {
            t.observe(1.0, &v, 0.0);
        }
        v.spo2 = 97.0;
        t.observe(1.0, &v, 0.0);
        assert_eq!(t.outcome().hypox_events, 0);
        // 40 s dip: one event, not re-counted while it persists.
        v.spo2 = 88.0;
        for _ in 0..40 {
            t.observe(1.0, &v, 0.0);
        }
        assert_eq!(t.outcome().hypox_events, 1);
        for _ in 0..100 {
            t.observe(1.0, &v, 0.0);
        }
        assert_eq!(t.outcome().hypox_events, 1);
        // Recovery then a second dip: second event.
        v.spo2 = 97.0;
        for _ in 0..10 {
            t.observe(1.0, &v, 0.0);
        }
        v.spo2 = 88.0;
        for _ in 0..40 {
            t.observe(1.0, &v, 0.0);
        }
        assert_eq!(t.outcome().hypox_events, 2);
        assert!((t.outcome().secs_below_hypox - 190.0).abs() < 1e-9);
    }

    #[test]
    fn advance_is_deterministic_for_same_seed() {
        let run = || {
            let mut p = VirtualPatient::new(PatientParams::default());
            let mut r = RngFactory::new(3).stream("det");
            p.give_bolus(2.0);
            for _ in 0..1800 {
                p.advance(1.0, &mut r);
            }
            (p.vitals().spo2, p.perceived_pain(), p.effect_site_conc())
        };
        assert_eq!(run(), run());
    }
}
