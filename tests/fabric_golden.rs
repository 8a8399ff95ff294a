//! Golden-output pin for the dense-routed fabric refactor.
//!
//! The network fabric's routing core was rebuilt around interned
//! topics and packed link tables (see `mcps-net::fabric`); the rebuild
//! is required to be *byte-identical* on every scenario — same
//! deliveries, same RNG consumption, same statistics. These tests pin
//! the serialized output of a miniature E4 QoS grid and a shared-fabric
//! multi-bed ward to FNV-1a hashes recorded on the pre-refactor
//! (`BTreeMap`-routed) fabric. If routing order, RNG draw order or any
//! link statistic shifts, the serialized JSON — and therefore the hash
//! — changes.

use mcps_control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps_core::scenarios::multibed::{run_multibed_scenario, MultiBedConfig};
use mcps_core::scenarios::pca::{run_pca_scenario, PcaScenarioConfig};
use mcps_net::qos::LinkQos;
use mcps_patient::cohort::{CohortConfig, CohortGenerator};
use mcps_sim::time::{SimDuration, SimTime};

/// FNV-1a over the serialized output: stable, dependency-free, and any
/// single-byte difference in the JSON changes it.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A miniature E4 grid: both interlock strategies over a clean wired
/// link and a lossy congested one (with an outage window), one
/// sensitive patient per cell.
fn e4_mini_grid_json() -> String {
    let cohort = CohortGenerator::new(
        7,
        CohortConfig { frac_opioid_sensitive: 1.0, frac_sleep_apnea: 0.0, variability_sigma: 0.2 },
    );
    let strategies = [
        InterlockStrategy::Command,
        InterlockStrategy::Ticket {
            validity: SimDuration::from_secs(5),
            period: SimDuration::from_secs(2),
        },
    ];
    let qos_points = [LinkQos::wired(), LinkQos::congested()];
    let mut outcomes = Vec::new();
    for (si, strategy) in strategies.iter().enumerate() {
        for (qi, qos) in qos_points.iter().enumerate() {
            let seed = 7 + (si as u64) * 10 + qi as u64;
            let mut cfg = PcaScenarioConfig::baseline(seed, cohort.params(seed));
            cfg.duration = SimDuration::from_mins(30);
            cfg.proxy_rate_per_hour = 8.0;
            cfg.qos = *qos;
            if qi == 1 {
                cfg.outages = vec![(SimTime::from_secs(600), SimTime::from_secs(660))];
            }
            cfg.interlock = Some(InterlockConfig {
                strategy: *strategy,
                detector: DetectorKind::Fusion,
                ..InterlockConfig::default()
            });
            cfg.pump.ticket_mode = matches!(strategy, InterlockStrategy::Ticket { .. });
            outcomes.push(run_pca_scenario(&cfg));
        }
    }
    serde_json::to_string(&outcomes).expect("outcomes serialize")
}

fn multibed_json() -> String {
    let out = run_multibed_scenario(&MultiBedConfig {
        seed: 17,
        beds: 3,
        duration: SimDuration::from_mins(12),
        qos: LinkQos::wifi(),
        bed0_proxy_rate_per_hour: 30.0,
        ..MultiBedConfig::default()
    });
    serde_json::to_string(&out).expect("outcomes serialize")
}

/// Hash pins. Both values were re-recorded after the supervisor
/// redundancy work (periodic heartbeats on the command channel, epoch
/// stamps on every command, failover telemetry in the serialized
/// outcome) deliberately changed supervisor traffic and the outcome
/// schema in every scenario; fabric equivalence itself is still
/// guaranteed bit-exactly by the `dense_vs_reference` proptests in
/// `mcps-net`.
///
/// The E4 pin was re-recorded once more when the supervisor began
/// heartbeating a stop-capable device at association rather than at
/// the next heartbeat period. Only cell [3] (ticket strategy, congested
/// link with the 600–660 s outage) moved: its pump's first two
/// announces are lost, it associates at 20.29 s, after the first tick,
/// and now gets a heartbeat at once on top of the 20.5 s periodic one
/// (`heartbeats_sent` 356 → 357). That one extra send draws from the
/// link's RNG stream, so the rest of the cell is a different random
/// realisation of the same link. Cells [0]–[2] and the multibed pin are
/// byte-identical.
const E4_GRID_HASH: u64 = 0x0a4b_609e_30af_f62e;
const E4_GRID_LEN: usize = 19252;
const MULTIBED_HASH: u64 = 0x8af6_1fb4_7ea4_288a;
const MULTIBED_LEN: usize = 1127;

#[test]
fn e4_grid_output_is_byte_identical_to_pre_refactor() {
    let json = e4_mini_grid_json();
    let (hash, len) = (fnv1a(json.as_bytes()), json.len());
    assert_eq!(
        (hash, len),
        (E4_GRID_HASH, E4_GRID_LEN),
        "E4 mini-grid output drifted from the pre-refactor baseline \
         (got hash {hash:#018x}, len {len})"
    );
}

#[test]
fn multibed_ward_output_is_byte_identical_to_pre_refactor() {
    let json = multibed_json();
    let (hash, len) = (fnv1a(json.as_bytes()), json.len());
    assert_eq!(
        (hash, len),
        (MULTIBED_HASH, MULTIBED_LEN),
        "multi-bed ward output drifted from the pre-refactor baseline \
         (got hash {hash:#018x}, len {len})"
    );
}
