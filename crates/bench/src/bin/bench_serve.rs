//! Machine-readable serve-mode perf baseline (E10).
//!
//! Exercises the live supervisor host ([`mcps_serve::ServeHost`]) two
//! ways and writes the numbers to `BENCH_serve.json`:
//!
//! 1. **In-memory ingest throughput** (`ingest_in_memory`) — a fully
//!    associated supervisor is fed vitals `NetOp`s in back-pressured
//!    bursts over the in-memory channel transport; the figure is
//!    samples actually processed per wall second (samples shed by
//!    back-pressure are counted separately and do not inflate the
//!    rate). It measures ingress plus `SupervisorCore` only: nothing is
//!    encoded, checksummed or carried across a process. The end-to-end
//!    ingest figure over `mcps-serve`'s framed stdio pipe is perfbench's
//!    `serve_flood` workload (`ingest_sps`).
//! 2. **Danger→stop latency under load** — a real [`mcps_serve::PcaBedClient`]
//!    (live pump model, scripted monitors) runs against the host at
//!    high clock speed with extra vitals noise in every round. Each
//!    cycle crosses SpO₂ below the danger threshold and measures, on
//!    the *protocol* timeline, how long the interlock takes to land a
//!    stop on the pump; p50/p99 over all cycles are reported.
//!
//! The whole run executes with tracing disabled and asserts the host
//! built **zero** trace strings (`traces_built == 0`) — the lazy-trace
//! hot path stays allocation-free under production settings.
//!
//! Usage: `bench_serve [--out PATH] [--samples N] [--cycles N] [--noise N]
//!                     [--quick] [--max-ms MS]`

use mcps_bench::Args;
use mcps_control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps_core::msg::{NetOp, NetPayload};
use mcps_core::{PcaSafetyApp, SupervisorCore};
use mcps_device::pump::PcaPump;
use mcps_patient::vitals::VitalKind;
use mcps_serve::client::{CAP_EP, OX_EP, PUMP_EP, SUP_EP};
use mcps_serve::host::{ServeConfig, ServeHost};
use mcps_serve::transport::{ChannelTransport, Transport};
use mcps_serve::PcaBedClient;
use mcps_sim::stats::percentile;
use mcps_sim::time::{SimDuration, SimTime};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Report {
    ingest_in_memory: IngestReport,
    danger_stop: LatencyReport,
    traces_built: u64,
    traces_suppressed: u64,
    elapsed_ms: f64,
    quick: bool,
}

#[derive(Serialize)]
struct IngestReport {
    samples_offered: u64,
    samples_processed: u64,
    samples_shed: u64,
    ingress_peak: u64,
    wall_ms: f64,
    samples_per_sec: f64,
}

#[derive(Serialize)]
struct LatencyReport {
    cycles: usize,
    noise_per_round: u64,
    speed: f64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    vitals_shed: u64,
    critical_overflow: u64,
    ingress_peak: u64,
}

fn command_core(resume_holdoff: SimDuration) -> SupervisorCore {
    let config = InterlockConfig {
        strategy: InterlockStrategy::Command,
        detector: DetectorKind::Threshold,
        resume_holdoff,
        ..InterlockConfig::default()
    };
    SupervisorCore::new(PcaSafetyApp::new(config), SUP_EP, SimDuration::from_secs(2))
}

fn vital_frame(kind: VitalKind, value: f64, at: SimTime) -> NetOp {
    let from = if kind == VitalKind::Spo2 { OX_EP } else { CAP_EP };
    NetOp::Deliver { from, payload: NetPayload::Data { kind, value, sampled_at: at } }
}

/// Ingest throughput: associate a supervisor over the raw transport,
/// then feed it vitals in bursts sized to the ingress bound.
fn bench_ingest(samples: u64) -> (IngestReport, u64, u64) {
    let capacity = 1024usize;
    let (server_t, mut feeder) = ChannelTransport::pair();
    let mut host = ServeHost::new(
        command_core(SimDuration::from_secs(30)),
        server_t,
        ServeConfig {
            speed: 1.0,
            ingress_capacity: capacity,
            trace: false,
            seed: 3,
            ..Default::default()
        },
    );
    // Associate all three slots by announcing real device profiles.
    let ox = mcps_device::monitor::pulse_oximeter("OX-1");
    let cap = mcps_device::monitor::capnograph("CAP-1");
    let pump_profile = PcaPump::profile("PUMP-1", false);
    for (ep, profile) in
        [(OX_EP, ox.profile().clone()), (CAP_EP, cap.profile().clone()), (PUMP_EP, pump_profile)]
    {
        feeder
            .send(&NetOp::Deliver {
                from: ep,
                payload: NetPayload::Announce { profile, endpoint: ep },
            })
            .expect("announce");
    }
    host.poll();
    assert!(host.core().associated_at().is_some(), "supervisor failed to associate for ingest run");

    let start = Instant::now();
    let mut offered = 0u64;
    let burst = (capacity / 2) as u64;
    while offered < samples {
        let n = burst.min(samples - offered);
        for i in 0..n {
            let kind = if i % 2 == 0 { VitalKind::Spo2 } else { VitalKind::RespRate };
            feeder.send(&vital_frame(kind, 96.0, SimTime::from_millis(offered + i))).expect("feed");
        }
        offered += n;
        host.poll();
        // Drain the host's replies (heartbeats to the pump endpoint) so
        // the channel doesn't accumulate.
        while let Ok(Some(_)) = feeder.try_recv() {}
    }
    host.poll();
    let wall = start.elapsed().as_secs_f64();
    let stats = host.stats();
    let processed = stats.deliveries.saturating_sub(3); // minus the announces
    let report = IngestReport {
        samples_offered: offered,
        samples_processed: processed,
        samples_shed: stats.vitals_shed,
        ingress_peak: stats.ingress_peak,
        wall_ms: wall * 1e3,
        samples_per_sec: processed as f64 / wall.max(1e-9),
    };
    (report, host.outputs().traces_built(), host.outputs().traces_suppressed())
}

/// A live host/client pair plus the per-round background load.
struct LatencyRig {
    host: ServeHost<ChannelTransport>,
    client: PcaBedClient<ChannelTransport>,
    noise_per_round: u64,
}

impl LatencyRig {
    /// One cooperative round at the given SpO₂, with background noise.
    fn round(&mut self, spo2: f64) {
        self.client.send_vital(VitalKind::Spo2, spo2);
        self.client.send_vital(VitalKind::RespRate, 14.0);
        // Background load: extra samples jitter around the healthy
        // value without crossing the danger threshold.
        for i in 0..self.noise_per_round {
            self.client.send_vital(VitalKind::RespRate, 13.0 + (i % 3) as f64);
        }
        self.host.poll();
        self.client.step();
        std::thread::sleep(std::time::Duration::from_micros(200));
    }

    /// Rounds at `spo2` until `done` holds (or a generous wall budget).
    fn wait(&mut self, spo2: f64, done: impl Fn(&PcaBedClient<ChannelTransport>) -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < std::time::Duration::from_secs(30) {
            self.round(spo2);
            if done(&self.client) {
                return true;
            }
        }
        false
    }
}

/// Danger→stop latency cycles on a live host/client pair under noise.
fn bench_danger_stop(cycles: usize, noise_per_round: u64) -> (LatencyReport, u64, u64) {
    const SPEED: f64 = 200.0;
    let (server_t, client_t) = ChannelTransport::pair();
    let host = ServeHost::new(
        command_core(SimDuration::from_secs(3)),
        server_t,
        ServeConfig {
            speed: SPEED,
            ingress_capacity: 256,
            trace: false,
            seed: 4,
            ..Default::default()
        },
    );
    let mut client = PcaBedClient::new(client_t, SPEED);
    client.announce_monitors();
    let mut rig = LatencyRig { host, client, noise_per_round };

    let mut latencies_ms = Vec::with_capacity(cycles);
    assert!(rig.wait(97.0, |c| c.is_permitted()), "bed never associated for the latency run");
    for cycle in 0..cycles {
        let danger_at = rig.client.sim_now();
        assert!(
            rig.wait(85.0, |c| c.first_stop_at_or_after(danger_at).is_some()),
            "cycle {cycle}: no stop observed after danger crossing"
        );
        let stop_at = rig.client.first_stop_at_or_after(danger_at).unwrap();
        latencies_ms.push(stop_at.saturating_since(danger_at).as_millis() as f64);
        // Recover: healthy vitals until the pump is permitted again.
        assert!(
            rig.wait(97.0, |c| c.is_permitted()),
            "cycle {cycle}: pump never resumed after recovery"
        );
    }
    let stats = rig.host.stats();
    let report = LatencyReport {
        cycles,
        noise_per_round,
        speed: SPEED,
        p50_ms: percentile(&latencies_ms, 50.0),
        p99_ms: percentile(&latencies_ms, 99.0),
        max_ms: latencies_ms.iter().cloned().fold(0.0, f64::max),
        vitals_shed: stats.vitals_shed,
        critical_overflow: stats.critical_overflow,
        ingress_peak: stats.ingress_peak,
    };
    (report, rig.host.outputs().traces_built(), rig.host.outputs().traces_suppressed())
}

fn main() {
    let args = Args::parse();
    let quick = args.has_flag("quick");
    let out_path = args.get_str("out", "BENCH_serve.json");
    let samples = args.get_u64("samples", if quick { 20_000 } else { 200_000 });
    let cycles = args.get_u64("cycles", if quick { 4 } else { 16 }) as usize;
    let noise = args.get_u64("noise", 20);
    let max_ms = args.get_f64("max-ms", f64::INFINITY);

    let start = Instant::now();
    let (ingest_in_memory, built_a, suppressed_a) = bench_ingest(samples);
    let (danger_stop, built_b, suppressed_b) = bench_danger_stop(cycles, noise);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;

    let traces_built = built_a + built_b;
    let traces_suppressed = suppressed_a + suppressed_b;
    assert_eq!(
        traces_built, 0,
        "disabled-trace serve run built {traces_built} trace strings — lazy tracing regressed"
    );
    assert!(
        traces_suppressed > 0,
        "no trace sites fired at all; the assertion above proves nothing"
    );
    assert_eq!(danger_stop.critical_overflow, 0, "protocol messages overflowed under load");

    let report = Report {
        ingest_in_memory,
        danger_stop,
        traces_built,
        traces_suppressed,
        elapsed_ms,
        quick,
    };
    mcps_bench::write_report(&report, &out_path);
    mcps_bench::smoke_budget("serve_live", elapsed_ms, max_ms);
}
