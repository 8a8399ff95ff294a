//! The campus simulator's per-layer attribution: `run_campus` at the
//! committed campus mix and a fixed seed, run by `serve_interlock`'s
//! traced run.
//!
//! Every repetition's simulated counts must equal the reference recorded
//! in `campus_reference.json` and the first repetition's full per-ward
//! outcome, and must satisfy the campus invariants. The simulation is
//! deterministic for a seed, so any difference is a defect, never noise.

use crate::metrics::Metrics;
use crate::trace::Tracer;
use mcps_core::scenarios::campus::{run_campus, CampusConfig, WardOutcome};
use mcps_sim::prelude::{Actor, Context, Simulation};
use mcps_sim::shard::ShardStats;
use mcps_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The reference recorded for the committed mix at [`SEED`].
const REFERENCE: &str = include_str!("../campus_reference.json");

/// The campus seed. It does not follow the workload seed, so every run
/// is checked against the one recorded reference.
pub const SEED: u64 = 2026;

/// The committed campus mix: 100 wards × 100 beds, ten ICU wards with
/// eight PCA loops each, one PCA loop per general ward, procedure rooms,
/// 30 simulated minutes.
pub fn config() -> CampusConfig {
    CampusConfig {
        seed: SEED,
        wards: 100,
        beds_per_ward: 100,
        icu_wards: 10,
        icu_pca_beds: 8,
        ward_pca_beds: 1,
        procedure_rooms: true,
        duration: SimDuration::from_mins(30),
        admission_window: SimDuration::from_secs(120),
        ..CampusConfig::default()
    }
}

/// The simulated counts checked against the reference.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Summary {
    pub events: u64,
    pub data_received: u64,
    pub data_ignored: u64,
    pub desat_alarms: u64,
    pub grants_issued: u64,
    pub xray_completed: u64,
    pub discharged: u64,
    /// Beds that never fully associated (must be 0).
    pub never_admitted: u64,
    /// Beds still admitted but not associated at the end (must be 0).
    pub dropped_associations: u64,
    /// Wards refusing more than 100 data points per bed (must be 0).
    pub flooded_wards: u64,
}

impl Summary {
    pub fn of(wards: &[WardOutcome]) -> Summary {
        let sum = |f: fn(&WardOutcome) -> u64| wards.iter().map(f).sum();
        Summary {
            events: sum(|w| w.events),
            data_received: sum(|w| w.data_received),
            data_ignored: sum(|w| w.data_ignored),
            desat_alarms: sum(|w| w.desat_alarms),
            grants_issued: sum(|w| w.grants_issued),
            xray_completed: sum(|w| u64::from(w.xray_completed)),
            discharged: sum(|w| u64::from(w.discharged)),
            never_admitted: sum(|w| u64::from(w.beds - w.admitted)),
            dropped_associations: sum(|w| {
                u64::from((w.beds - w.discharged).saturating_sub(w.associated_at_end))
            }),
            flooded_wards: sum(|w| u64::from(w.data_ignored > 100 * u64::from(w.beds))),
        }
    }

    fn invariant_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.never_admitted > 0 {
            v.push(format!("{} beds never admitted", self.never_admitted));
        }
        if self.dropped_associations > 0 {
            v.push(format!("{} associations dropped", self.dropped_associations));
        }
        if self.flooded_wards > 0 {
            v.push(format!("{} wards flooded with refused data", self.flooded_wards));
        }
        v
    }
}

/// The recorded reference.
#[derive(Debug, Serialize, Deserialize)]
struct Reference {
    /// The mix the counts were recorded from.
    config: String,
    seed: u64,
    counts: Summary,
}

fn describe(cfg: &CampusConfig) -> String {
    format!(
        "{} wards x {} beds, {} ICU wards x {} PCA, {} PCA per general ward, \
         procedure rooms {}, {} s",
        cfg.wards,
        cfg.beds_per_ward,
        cfg.icu_wards,
        cfg.icu_pca_beds,
        cfg.ward_pca_beds,
        cfg.procedure_rooms,
        cfg.duration.as_secs_f64()
    )
}

/// The counts `reference` records for `cfg`, or why it records none.
fn expected(reference: &str, cfg: &CampusConfig) -> Result<Summary, String> {
    let r: Reference = serde_json::from_str(reference)
        .map_err(|e| format!("parsing the campus reference: {e}"))?;
    if r.config != describe(cfg) || r.seed != cfg.seed {
        return Err(format!(
            "the campus reference was recorded for {:?} at seed {}, the run is {:?} at seed {}",
            r.config,
            r.seed,
            describe(cfg),
            cfg.seed
        ));
    }
    Ok(r.counts)
}

/// One timed `run_campus` call.
struct Rep {
    wards: Vec<WardOutcome>,
    stats: ShardStats,
    wall_s: f64,
}

fn run_once(cfg: &CampusConfig, workers: usize) -> Rep {
    let t0 = Instant::now();
    let (wards, stats) = run_campus(cfg, workers);
    Rep { wards, stats, wall_s: t0.elapsed().as_secs_f64() }
}

/// Checks every repetition against `want`; returns the failure reasons.
fn check(reps: &[Rep], want: &Summary) -> Vec<String> {
    let mut failures = Vec::new();
    let first = serde_json::to_string(&reps[0].wards).expect("outcomes serialize");
    for (i, rep) in reps.iter().enumerate() {
        let summary = Summary::of(&rep.wards);
        let mut bad = summary.invariant_violations();
        if &summary != want {
            bad.push(format!("counts {summary:?} differ from the reference {want:?}"));
        }
        if i > 0 && serde_json::to_string(&rep.wards).expect("outcomes serialize") != first {
            bad.push("per-ward outcome differs from the first repetition".into());
        }
        failures.extend(bad.into_iter().map(|b| format!("campus repetition {i}: {b}")));
    }
    failures
}

/// A no-op actor that reschedules itself: the bare kernel's cost.
struct Noop;

impl Actor<()> for Noop {
    fn handle(&mut self, _msg: (), ctx: &mut Context<'_, ()>) {
        ctx.schedule_self(SimDuration::from_millis(1), ());
    }
}

/// The `Simulation` kernel with no-op actors and `events` events; ns
/// per event.
fn kernel_ns_per_event(events: u64, tracer: &mut Tracer) -> f64 {
    const ACTORS: u64 = 100;
    let mut sim = Simulation::new(1);
    for i in 0..ACTORS {
        let id = sim.add_actor(&format!("noop{i}"), Noop);
        sim.schedule(SimTime::ZERO, id, ());
    }
    // Each actor fires once per simulated ms.
    let until = SimTime::from_millis(events.div_ceil(ACTORS).saturating_sub(1));
    let t0 = Instant::now();
    sim.run_until(until);
    let end = Instant::now();
    let done = sim.events_processed();
    tracer.record("runtime.kernel", 0, t0, end, u32::try_from(done).unwrap_or(u32::MAX));
    (end - t0).as_nanos() as f64 / done.max(1) as f64
}

/// The campus layers' per-layer metrics, from one warm-up and one timed
/// `run_campus` with `workers` workers, both checked against the
/// reference. Returns the failed checks.
pub fn attribution(workers: usize, tracer: &mut Tracer, m: &mut Metrics) -> Vec<String> {
    let cfg = config();
    let want = match expected(REFERENCE, &cfg) {
        Ok(want) => want,
        Err(e) => return vec![e],
    };
    // The warm-up lets the allocator and caches fill.
    let warm = run_once(&cfg, workers);
    let t0 = Instant::now();
    let rep = run_once(&cfg, workers);
    tracer.record("campus.run_campus", 0, t0, Instant::now(), cfg.wards);
    let counts = Summary::of(&rep.wards);
    let kernel_ns = kernel_ns_per_event(counts.events, tracer);

    // Each ward's dispatcher-measured seconds, split by ward kind.
    let (mut icu_s, mut icu_ev, mut gen_s, mut gen_ev) = (0.0, 0u64, 0.0, 0u64);
    for (w, s) in rep.wards.iter().zip(&rep.stats.shard_secs) {
        if w.ward < cfg.icu_wards {
            icu_s += s;
            icu_ev += w.events;
        } else {
            gen_s += s;
            gen_ev += w.events;
        }
    }
    let capacity = rep.wall_s * rep.stats.workers as f64;
    m.set("runtime.kernel_ns_per_event", kernel_ns);
    m.set("shard.balance", rep.stats.balance());
    m.set("shard.idle_share", 1.0 - rep.stats.busy_secs() / capacity);
    m.set("campus.ns_per_event.icu", icu_s * 1e9 / icu_ev.max(1) as f64);
    m.set("campus.ns_per_event.general", gen_s * 1e9 / gen_ev.max(1) as f64);
    m.set("campus.events", counts.events as f64);
    m.set("campus.data_received", counts.data_received as f64);
    m.set("campus.sim_rtf", cfg.duration.as_secs_f64() / rep.wall_s);
    check(&[warm, rep], &want)
}

/// Records the reference (one `run_campus` with `workers` workers) and
/// returns the reference file's text.
pub fn record_reference(workers: usize) -> String {
    let cfg = config();
    let rep = run_once(&cfg, workers);
    let counts = Summary::of(&rep.wards);
    assert!(
        counts.invariant_violations().is_empty(),
        "the campus violates its invariants: {counts:?}"
    );
    let reference = Reference { config: describe(&cfg), seed: cfg.seed, counts };
    serde_json::to_string_pretty(&reference).expect("reference serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_count_off_the_reference_fails_every_repetition() {
        let cfg = CampusConfig { seed: 3, ..CampusConfig::default() };
        let reps = [run_once(&cfg, 1), run_once(&cfg, 1)];
        let right = Summary::of(&reps[0].wards);
        assert_eq!(check(&reps, &right), Vec::<String>::new());
        let wrong = Summary { events: right.events + 1, ..right };
        let failures = check(&reps, &wrong);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().all(|f| f.contains("differ from the reference")));
    }

    #[test]
    fn the_reference_applies_only_to_its_own_seed_and_mix() {
        assert!(expected(REFERENCE, &config()).is_ok());
        let other_seed = CampusConfig { seed: SEED + 1, ..config() };
        assert!(expected(REFERENCE, &other_seed).is_err());
        let other_mix = CampusConfig { wards: 99, ..config() };
        assert!(expected(REFERENCE, &other_mix).is_err());
    }
}
