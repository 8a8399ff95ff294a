//! Campus-scale simulation: thousands of beds across wards and floors.
//!
//! The throughput experiment (E12). A hospital campus is composed of
//! wards; each ward is one network segment (its own [`Fabric`]) shared
//! by every bed on the ward, mirroring real deployments where a floor
//! switch carries the floor's traffic and nothing else. Bed mixes are
//! heterogeneous:
//!
//! * **PCA beds** — the full closed loop from the multibed scenario
//!   (pump, 1 Hz oximeter + capnograph, [`PcaSafetyApp`] supervisor,
//!   1 s physiology). ICU wards carry many; general wards a few.
//! * **Monitor-only beds** — a spot-check oximeter at tens-of-seconds
//!   cadence feeding a [`WardMonitorApp`] supervisor, with physiology
//!   and supervision stepped at matching slow cadences. The vast
//!   majority of a campus, and the reason 10k concurrent beds fit in
//!   one machine's event budget.
//! * **Procedure rooms** — an x-ray/ventilator pair coordinated by an
//!   [`XRayCoordinatorApp`] (one per ward when enabled).
//!
//! Admissions are staggered over a configurable window from per-bed
//! seeds; a fraction of monitor beds is *discharged* (their monitor
//! goes dark via a scripted crash fault) in the last quarter of the
//! run, exercising disassociation at scale. Wards run as seed-isolated
//! shards through the costed dispatcher
//! ([`mcps_sim::shard::run_shards_costed_in`]): ICU wards cost several
//! times a general ward, which is exactly the imbalance sorted-by-cost
//! dispatch exists to absorb.

use mcps_control::interlock::InterlockConfig;
use mcps_device::faults::{FaultKind, FaultPlan};
use mcps_device::monitor::{capnograph, pulse_oximeter, ChannelConfig, VitalsMonitor};
use mcps_device::pump::{PcaPump, PcaPumpConfig};
use mcps_device::ventilator::{Ventilator, VentilatorConfig};
use mcps_device::xray::{XRayConfig, XRayMachine};
use mcps_net::fabric::Fabric;
use mcps_net::qos::LinkQos;
use mcps_patient::cohort::{CohortConfig, CohortGenerator};
use mcps_patient::patient::VirtualPatient;
use mcps_patient::sensors::SensorSpec;
use mcps_patient::vitals::VitalKind;
use mcps_sim::kernel::Simulation;
use mcps_sim::shard::{run_shards_costed_in, ShardStats};
use mcps_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::actors::{MonitorActor, PumpActor, VentilatorActor, XRayActor};
use crate::apps::{PcaSafetyApp, WardMonitorApp, WorkflowStyle, XRayCoordinatorApp};
use crate::body::{PatientActor, PatientBody};
use crate::msg::IceMsg;
use crate::netctl::{topics, NetworkController};
use crate::supervisor::{Supervisor, SupervisorCore};

/// Configuration of the campus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampusConfig {
    /// Master seed.
    pub seed: u64,
    /// Number of wards (each its own fabric segment and shard).
    pub wards: u32,
    /// Beds per ward.
    pub beds_per_ward: u32,
    /// Wards `0..icu_wards` are ICU-flavoured.
    pub icu_wards: u32,
    /// PCA closed loops per ICU ward (the rest are monitor-only).
    pub icu_pca_beds: u32,
    /// PCA closed loops per general ward.
    pub ward_pca_beds: u32,
    /// Whether each ward has an x-ray/ventilator procedure room.
    pub procedure_rooms: bool,
    /// Run length.
    pub duration: SimDuration,
    /// Segment QoS.
    pub qos: LinkQos,
    /// Patient cohort mix.
    pub cohort: CohortConfig,
    /// Spot-check sample period of monitor-only beds. Must stay below
    /// the supervisor's disassociation timeout (30 s) or every ward
    /// bed flaps in and out of degraded mode.
    pub monitor_sample_period: SimDuration,
    /// Physiology step of monitor-only beds.
    pub monitor_patient_step: SimDuration,
    /// Supervisor control-tick step of monitor-only beds.
    pub monitor_sup_step: SimDuration,
    /// Admissions are staggered over this window from t = 0.
    pub admission_window: SimDuration,
    /// Fraction of monitor-only beds discharged (monitor goes dark) in
    /// the last quarter of the run.
    pub discharge_fraction: f64,
}

impl Default for CampusConfig {
    fn default() -> Self {
        CampusConfig {
            seed: 0,
            wards: 4,
            beds_per_ward: 25,
            icu_wards: 1,
            icu_pca_beds: 8,
            ward_pca_beds: 1,
            procedure_rooms: true,
            duration: SimDuration::from_mins(10),
            qos: LinkQos::wired(),
            cohort: CohortConfig::default(),
            monitor_sample_period: SimDuration::from_secs(15),
            monitor_patient_step: SimDuration::from_secs(10),
            monitor_sup_step: SimDuration::from_secs(10),
            admission_window: SimDuration::from_secs(60),
            discharge_fraction: 0.05,
        }
    }
}

impl CampusConfig {
    /// Total beds on the campus.
    pub fn total_beds(&self) -> u32 {
        self.wards * self.beds_per_ward
    }
}

/// One ward's slice of the campus: everything a shard needs to build
/// its simulation without looking at any other ward.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WardPlan {
    /// Ward index (global).
    pub ward: u32,
    /// Shard-isolated seed (splitmix of the master seed and the ward).
    pub seed: u64,
    /// PCA closed loops on this ward.
    pub pca_beds: u32,
    /// Monitor-only beds on this ward.
    pub monitor_beds: u32,
    /// Whether the ward has a procedure room.
    pub procedure_room: bool,
}

impl WardPlan {
    /// Estimated relative cost of simulating this ward, in events per
    /// simulated second. Only ratios matter to the dispatcher: a PCA
    /// bed ticks ~5 actors at ~1 Hz plus per-sample network hops; a
    /// monitor bed pays one hop per spot-check plus slow supervisor
    /// and physiology ticks; a procedure room is dominated by the
    /// 4 Hz ventilator.
    pub fn cost(&self, cfg: &CampusConfig) -> u64 {
        let pca = 12.0 * f64::from(self.pca_beds);
        let per_mon = 3.0 / cfg.monitor_sample_period.as_secs_f64().max(0.001)
            + 1.0 / cfg.monitor_sup_step.as_secs_f64().max(0.001)
            + 1.0 / cfg.monitor_patient_step.as_secs_f64().max(0.001);
        let monitor = per_mon * f64::from(self.monitor_beds);
        let proc = if self.procedure_room { 10.0 } else { 0.0 };
        // Scale to integers for the dispatcher; +1 keeps every ward
        // strictly positive.
        ((pca + monitor + proc) * 100.0) as u64 + 1
    }
}

/// Summary of one ward after the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WardOutcome {
    /// Ward index.
    pub ward: u32,
    /// Beds simulated (PCA + monitor-only).
    pub beds: u32,
    /// Beds whose supervisor fully associated at least once.
    pub admitted: u32,
    /// Beds still fully associated at the end of the run.
    pub associated_at_end: u32,
    /// Monitor beds discharged (monitor scripted dark).
    pub discharged: u32,
    /// Vitals accepted by ward supervisors.
    pub data_received: u64,
    /// Vitals refused (unassociated sender / pre-association noise).
    pub data_ignored: u64,
    /// Ward desaturation alarms (monitor-only beds).
    pub desat_alarms: u64,
    /// Interlock tickets granted (PCA beds).
    pub grants_issued: u64,
    /// X-ray exposure sequences completed (procedure room).
    pub xray_completed: u32,
    /// Kernel events processed by this ward's simulation.
    pub events: u64,
}

/// Splits the campus into per-ward shard plans with isolated seeds.
pub fn campus_ward_plans(config: &CampusConfig) -> Vec<WardPlan> {
    (0..config.wards)
        .map(|w| {
            let pca = if w < config.icu_wards { config.icu_pca_beds } else { config.ward_pca_beds };
            let pca = pca.min(config.beds_per_ward);
            WardPlan {
                ward: w,
                seed: splitmix(config.seed ^ (u64::from(w) << 1)),
                pca_beds: pca,
                monitor_beds: config.beds_per_ward - pca,
                procedure_room: config.procedure_rooms,
            }
        })
        .collect()
}

fn splitmix(seed: u64) -> u64 {
    let mut mix = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix = (mix ^ (mix >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    mix = (mix ^ (mix >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    mix ^ (mix >> 31)
}

/// A spot-check pulse oximeter: one SpO₂ channel at ward cadence.
fn spot_check_oximeter(serial: &str, period: SimDuration) -> VitalsMonitor {
    VitalsMonitor::new(
        "Acme",
        "SpotCheck-2",
        serial,
        period,
        vec![ChannelConfig {
            kind: VitalKind::Spo2,
            sensor: SensorSpec::default_for(VitalKind::Spo2),
            averaging: 1,
        }],
    )
}

/// Runs one ward on its own fabric segment and summarizes it.
pub fn run_campus_ward(config: &CampusConfig, plan: &WardPlan) -> WardOutcome {
    let mut sim: Simulation<IceMsg> = Simulation::new(plan.seed);
    sim.trace_mut().set_enabled(false);
    let cohort = CohortGenerator::new(plan.seed, config.cohort);
    let beds = plan.pca_beds + plan.monitor_beds;

    // Pre-size the segment: a PCA bed wires 4 endpoints and ~7 topics,
    // a monitor bed 2 endpoints and ~3 topics, the procedure room 3
    // endpoints; links are created lazily per (src, dst) pair, roughly
    // one per device→supervisor flow.
    let n_eps = 4 * plan.pca_beds as usize + 2 * plan.monitor_beds as usize + 3;
    let n_topics = 8 * plan.pca_beds as usize + 4 * plan.monitor_beds as usize + 4;
    let mut fabric = Fabric::with_capacity(n_eps, n_topics, n_eps * 2);
    fabric.set_default_qos(config.qos);

    struct BedRefs {
        sup_id: mcps_sim::actor::ActorId,
        discharged: bool,
    }
    let mut bed_refs: Vec<BedRefs> = Vec::with_capacity(beds as usize);

    // Endpoints first (fabric wiring), then actors.
    enum Wiring {
        Pca {
            scope: String,
            ep_ox: mcps_net::fabric::EndpointId,
            ep_cap: mcps_net::fabric::EndpointId,
            ep_pump: mcps_net::fabric::EndpointId,
            ep_sup: mcps_net::fabric::EndpointId,
        },
        Monitor {
            scope: String,
            ep_mon: mcps_net::fabric::EndpointId,
            ep_sup: mcps_net::fabric::EndpointId,
        },
    }
    let mut wiring = Vec::with_capacity(beds as usize);
    for bed in 0..beds {
        let scope = format!("w{}b{bed}", plan.ward);
        if bed < plan.pca_beds {
            let ep_ox = fabric.add_endpoint(&format!("{scope}/oximeter"));
            let ep_cap = fabric.add_endpoint(&format!("{scope}/capnograph"));
            let ep_pump = fabric.add_endpoint(&format!("{scope}/pump"));
            let ep_sup = fabric.add_endpoint(&format!("{scope}/supervisor"));
            fabric.subscribe(ep_sup, topics::announce_scoped(&scope));
            for kind in VitalKind::ALL {
                fabric.subscribe(ep_sup, topics::vitals_scoped(&scope, kind));
            }
            wiring.push(Wiring::Pca { scope, ep_ox, ep_cap, ep_pump, ep_sup });
        } else {
            let ep_mon = fabric.add_endpoint(&format!("{scope}/monitor"));
            let ep_sup = fabric.add_endpoint(&format!("{scope}/supervisor"));
            fabric.subscribe(ep_sup, topics::announce_scoped(&scope));
            fabric.subscribe(ep_sup, topics::vitals_scoped(&scope, VitalKind::Spo2));
            wiring.push(Wiring::Monitor { scope, ep_mon, ep_sup });
        }
    }
    let proc_eps = plan.procedure_room.then(|| {
        let ep_vent = fabric.add_endpoint("proc/ventilator");
        let ep_xray = fabric.add_endpoint("proc/xray");
        let ep_sup = fabric.add_endpoint("proc/supervisor");
        // The vent and x-ray announce unscoped; only this supervisor
        // listens there, so the room stays isolated from the beds.
        fabric.subscribe(ep_sup, topics::announce());
        (ep_vent, ep_xray, ep_sup)
    });

    let nc_id = sim.add_actor("netctl", NetworkController::new(fabric));
    let window_ms = config.admission_window.as_micros().div_ceil(1000).max(1);
    let dur_secs = config.duration.as_secs_f64();
    for (bed, wires) in wiring.into_iter().enumerate() {
        let bed_u = bed as u32;
        let bed_seed = splitmix(plan.seed ^ (0xBED0 + u64::from(bed_u)));
        // Staggered admission: this bed's actors all start here.
        let admit_ms = bed_seed % window_ms;
        let body = PatientBody::new(VirtualPatient::new(cohort.params(u64::from(bed_u))));
        match wires {
            Wiring::Pca { scope, ep_ox, ep_cap, ep_pump, ep_sup } => {
                let pump_cfg = PcaPumpConfig { ticket_mode: true, ..PcaPumpConfig::default() };
                let pump_id = sim.add_actor(
                    &format!("{scope}/pump"),
                    PumpActor::new(PcaPump::new(pump_cfg), body.clone(), nc_id, ep_pump)
                        .with_scope(&scope),
                );
                let ox_id = sim.add_actor(
                    &format!("{scope}/oximeter"),
                    MonitorActor::new(
                        pulse_oximeter(&format!("OX-{}-{bed}", plan.ward)),
                        body.clone(),
                        nc_id,
                        ep_ox,
                        FaultPlan::none(),
                    )
                    .with_scope(&scope),
                );
                let cap_id = sim.add_actor(
                    &format!("{scope}/capnograph"),
                    MonitorActor::new(
                        capnograph(&format!("CAP-{}-{bed}", plan.ward)),
                        body.clone(),
                        nc_id,
                        ep_cap,
                        FaultPlan::none(),
                    )
                    .with_scope(&scope),
                );
                let patient_id = sim.add_actor(
                    &format!("{scope}/patient"),
                    PatientActor::new(body.clone(), Some(pump_id), 0.0),
                );
                let sup_id = sim.add_actor(
                    &format!("{scope}/supervisor"),
                    Supervisor::new(
                        SupervisorCore::new(
                            PcaSafetyApp::new(InterlockConfig::default()),
                            ep_sup,
                            SimDuration::from_secs(2),
                        ),
                        nc_id,
                    ),
                );
                {
                    let nc = sim.actor_as_mut::<NetworkController>(nc_id).unwrap();
                    nc.bind(ep_ox, ox_id);
                    nc.bind(ep_cap, cap_id);
                    nc.bind(ep_pump, pump_id);
                    nc.bind(ep_sup, sup_id);
                }
                for &(id, off) in &[
                    (pump_id, 100u64),
                    (ox_id, 200),
                    (cap_id, 300),
                    (patient_id, 0),
                    (sup_id, 500),
                ] {
                    sim.schedule(SimTime::from_millis(admit_ms + off), id, IceMsg::Tick);
                }
                bed_refs.push(BedRefs { sup_id, discharged: false });
            }
            Wiring::Monitor { scope, ep_mon, ep_sup } => {
                // Discharge lottery: a slice of monitor beds goes dark
                // at a per-bed time in the last quarter of the run.
                let lot = splitmix(bed_seed ^ 0xD15C);
                let discharged = (lot % 10_000) as f64 / 10_000.0 < config.discharge_fraction;
                let fault = if discharged {
                    let frac = 0.70 + 0.15 * ((lot >> 16) % 1000) as f64 / 1000.0;
                    FaultPlan::none().with_fault(
                        FaultKind::Crash,
                        SimTime::from_secs((dur_secs * frac) as u64),
                        None,
                    )
                } else {
                    FaultPlan::none()
                };
                let mon_id = sim.add_actor(
                    &format!("{scope}/monitor"),
                    MonitorActor::new(
                        spot_check_oximeter(
                            &format!("SC-{}-{bed}", plan.ward),
                            config.monitor_sample_period,
                        ),
                        body.clone(),
                        nc_id,
                        ep_mon,
                        fault,
                    )
                    .with_scope(&scope),
                );
                let patient_id = sim.add_actor(
                    &format!("{scope}/patient"),
                    PatientActor::new(body.clone(), None, 0.0)
                        .with_step(config.monitor_patient_step),
                );
                let sup_id = sim.add_actor(
                    &format!("{scope}/supervisor"),
                    Supervisor::new(
                        SupervisorCore::new(
                            WardMonitorApp::new(),
                            ep_sup,
                            SimDuration::from_secs(5),
                        )
                        .with_step(config.monitor_sup_step),
                        nc_id,
                    ),
                );
                {
                    let nc = sim.actor_as_mut::<NetworkController>(nc_id).unwrap();
                    nc.bind(ep_mon, mon_id);
                    nc.bind(ep_sup, sup_id);
                }
                for &(id, off) in &[(mon_id, 200u64), (patient_id, 0), (sup_id, 500)] {
                    sim.schedule(SimTime::from_millis(admit_ms + off), id, IceMsg::Tick);
                }
                bed_refs.push(BedRefs { sup_id, discharged });
            }
        }
    }

    let proc_sup = proc_eps.map(|(ep_vent, ep_xray, ep_sup)| {
        let vent_id = sim.add_actor(
            "proc/ventilator",
            VentilatorActor::new(
                Ventilator::new(SimTime::ZERO, VentilatorConfig::default()),
                nc_id,
                ep_vent,
            ),
        );
        let xray_id = sim.add_actor(
            "proc/xray",
            XRayActor::new(XRayMachine::new(XRayConfig::default()), nc_id, ep_xray),
        );
        let exposures = (config.duration.as_secs_f64() / 120.0).floor().max(1.0) as u32;
        let sup_id = sim.add_actor(
            "proc/supervisor",
            Supervisor::new(
                SupervisorCore::new(
                    XRayCoordinatorApp::new(
                        WorkflowStyle::Automated,
                        exposures,
                        SimDuration::from_secs(90),
                        SimDuration::from_secs(15),
                    ),
                    ep_sup,
                    SimDuration::from_secs(2),
                ),
                nc_id,
            ),
        );
        {
            let nc = sim.actor_as_mut::<NetworkController>(nc_id).unwrap();
            nc.bind(ep_vent, vent_id);
            nc.bind(ep_xray, xray_id);
            nc.bind(ep_sup, sup_id);
        }
        sim.schedule(SimTime::from_millis(50), vent_id, IceMsg::Tick);
        sim.schedule(SimTime::from_millis(60), xray_id, IceMsg::Tick);
        sim.schedule(SimTime::from_millis(500), sup_id, IceMsg::Tick);
        sup_id
    });

    sim.run_until(SimTime::ZERO + config.duration);

    let mut out = WardOutcome {
        ward: plan.ward,
        beds,
        admitted: 0,
        associated_at_end: 0,
        discharged: 0,
        data_received: 0,
        data_ignored: 0,
        desat_alarms: 0,
        grants_issued: 0,
        xray_completed: 0,
        events: sim.events_processed(),
    };
    for b in &bed_refs {
        let sup = sim.actor_as::<Supervisor>(b.sup_id).expect("supervisor").core();
        out.admitted += u32::from(sup.associated_at().is_some());
        out.associated_at_end += u32::from(sup.manager().fully_associated());
        out.discharged += u32::from(b.discharged);
        out.data_received += sup.data_received();
        out.data_ignored += sup.data_ignored();
        if let Some(app) = sup.app_as::<WardMonitorApp>() {
            out.desat_alarms += app.desat_alarms();
        }
        if let Some(app) = sup.app_as::<PcaSafetyApp>() {
            out.grants_issued += app.interlock().grants_issued();
        }
    }
    if let Some(sup_id) = proc_sup {
        let sup = sim.actor_as::<Supervisor>(sup_id).expect("proc supervisor").core();
        if let Some(app) = sup.app_as::<XRayCoordinatorApp>() {
            out.xray_completed = app.completed();
        }
    }
    out
}

/// Runs the whole campus as one costed shard batch (ICU wards are
/// several times the cost of general wards; the dispatcher hands the
/// expensive wards out first). `workers = 0` means one worker per
/// available core. Ward outcomes come back in ward order regardless of
/// dispatch order, and are byte-identical to running each plan serially
/// — each ward is an independent simulation with an isolated seed.
pub fn run_campus(config: &CampusConfig, workers: usize) -> (Vec<WardOutcome>, ShardStats) {
    let plans = campus_ward_plans(config);
    let costs: Vec<u64> = plans.iter().map(|p| p.cost(config)).collect();
    let workers = if workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        workers
    };
    run_shards_costed_in(plans, &costs, workers, || (), |(), plan| run_campus_ward(config, &plan))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CampusConfig {
        CampusConfig {
            seed: 7,
            wards: 3,
            beds_per_ward: 6,
            icu_wards: 1,
            icu_pca_beds: 3,
            ward_pca_beds: 1,
            procedure_rooms: true,
            duration: SimDuration::from_mins(5),
            admission_window: SimDuration::from_secs(30),
            discharge_fraction: 0.2,
            ..CampusConfig::default()
        }
    }

    #[test]
    fn every_bed_admits_and_undischared_beds_stay_associated() {
        let (wards, _) = run_campus(&small(), 1);
        assert_eq!(wards.len(), 3);
        for w in &wards {
            assert_eq!(w.admitted, w.beds, "ward {}: {w:?}", w.ward);
            assert_eq!(w.associated_at_end, w.beds - w.discharged, "ward {}: {w:?}", w.ward);
            assert!(w.data_received > 0, "ward {}: {w:?}", w.ward);
            // Scoped topics: refused traffic is pre-association noise
            // only, not a flood of foreign data.
            assert!(w.data_ignored < 100 * u64::from(w.beds), "ward {}: {w:?}", w.ward);
        }
        // ICU ward 0 issues PCA tickets; the campus takes x-rays.
        assert!(wards[0].grants_issued > 0, "{:?}", wards[0]);
        assert!(wards.iter().any(|w| w.xray_completed > 0), "{wards:?}");
    }

    #[test]
    fn ward_plans_partition_and_isolate_seeds() {
        let cfg = small();
        let plans = campus_ward_plans(&cfg);
        assert_eq!(plans.len(), 3);
        assert_eq!(plans[0].pca_beds, 3);
        assert_eq!(plans[1].pca_beds, 1);
        for p in &plans {
            assert_eq!(p.pca_beds + p.monitor_beds, cfg.beds_per_ward);
        }
        for (i, a) in plans.iter().enumerate() {
            for b in plans.iter().skip(i + 1) {
                assert_ne!(a.seed, b.seed, "wards {} and {} share a seed", a.ward, b.ward);
            }
        }
        // ICU wards cost more than general wards — the imbalance the
        // costed dispatcher is for. (Without the flat procedure-room
        // term the ratio is the bed mix alone.)
        assert!(plans[0].cost(&cfg) > plans[1].cost(&cfg), "{plans:?}");
        let no_proc = CampusConfig { procedure_rooms: false, ..cfg };
        let bare = campus_ward_plans(&no_proc);
        assert!(bare[0].cost(&no_proc) > 2 * bare[1].cost(&no_proc), "{bare:?}");
    }

    #[test]
    fn parallel_campus_is_byte_identical_to_serial() {
        let cfg = small();
        let (par, stats) = run_campus(&cfg, 3);
        let serial: Vec<WardOutcome> =
            campus_ward_plans(&cfg).iter().map(|p| run_campus_ward(&cfg, p)).collect();
        assert_eq!(serde_json::to_string(&par).unwrap(), serde_json::to_string(&serial).unwrap());
        assert!(stats.balance() > 0.0 && stats.balance() <= 1.0);
    }
}
