//! The serve workloads: one PCA bed against a live supervisor.
//!
//! The untraced run drives the `mcps-serve` binary as a child process
//! over its framed stdio transport. The bed is the library's
//! [`PcaBedClient`] — a real pump that acknowledges the supervisor's
//! commands — with scripted monitors. An optional generator thread
//! floods the same pipe with pre-encoded vitals noise at a fixed
//! offered rate (open loop). Danger episodes drop SpO₂ below the
//! threshold; each episode's latency runs from when its first danger
//! sample was due to when the bed decodes the `StopPump` command.
//!
//! The traced run cannot span the child, so it hosts the same
//! supervisor in process — a [`ServeHost`] built with the binary's
//! flags, fed through OS pipes by the same [`FramedTransport`] and
//! polled at the binary's cadence — and spans `ServeHost::poll` and the
//! peer transport's sends. Codec, core and journal costs come from
//! spanning `encode_frame`, `FrameDecoder`, `SupervisorCore::handle` and
//! `Journal::append` on the inputs the host received.

mod host;
mod load;
mod session;

use crate::metrics::Metrics;
use crate::stats::{median, SplitMix, Tail};
use crate::trace::{span_cost_ns, Tracer};
use crate::{peak_rss_mb_of, Outcome, RunArgs};
use host::{replay_core, replay_wire};
use load::{drive, GenStats, Measured, NoiseRing};
use mcps_serve::journal::Journal;
use mcps_sim::stats::percentile;
use serde::Serialize;
use session::{Ended, Report, Session};
use std::path::Path;
use std::time::{Duration, Instant};

/// How one serve workload drives the supervisor.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Whether the supervisor journals its checkpoints (`--journal`).
    pub journal: bool,
    /// Offered vitals-noise rate, samples per wall second (0 = none).
    pub noise_rate: f64,
    /// Wall time between the bed monitors' samples.
    pub monitor_period: Duration,
    /// `Some`: episodes start on this fixed wall schedule; `None`: each
    /// starts zero to two samples after the pump is resumed. Either way
    /// the due time is moved by a seeded fraction of a tick, and the
    /// monitors' sample clock restarts at the episode.
    pub episode_period: Option<Duration>,
}

/// Open-loop vitals noise at about twice the delivered capacity
/// measured before this benchmark existed, with a danger episode every
/// 120 ms of wall time.
pub const FLOOD: Params = Params {
    journal: false,
    noise_rate: 400_000.0,
    monitor_period: Duration::from_millis(1),
    episode_period: Some(Duration::from_millis(120)),
};

/// Clinical rate: both monitors at 1 Hz protocol time, back-to-back
/// danger → stop → recover cycles, checkpoints journaled.
pub const INTERLOCK: Params = Params {
    journal: true,
    noise_rate: 0.0,
    monitor_period: Duration::from_millis(10),
    episode_period: None,
};

/// Protocol seconds per wall second (`--speed`).
const SPEED: f64 = 100.0;
/// `--resume-holdoff-secs`: protocol seconds after danger clears before
/// the pump is resumed.
const HOLDOFF_SECS: u64 = 2;
/// Ingress queue bound: the binary's default `--capacity`.
const CAPACITY: usize = 256;
/// The safety bound on danger → stop, in protocol seconds.
const STOP_BOUND_S: f64 = 30.0;
/// Servers spawned per untraced run; `setup_s` is their median.
const SETUP_TRIALS: usize = 7;
/// Pre-encoded noise frames, cycled by the generator.
const NOISE_RING: usize = 1 << 16;
/// Most noise frames written under one lock of the shared pipe.
const MAX_CHUNK: usize = 512;
/// Noise inputs kept for the traced run's replay (all others are kept).
const NOISE_KEEP: usize = 100_000;
/// Frames per encode/decode/CRC span in the replay.
const WIRE_BLOCK: usize = 256;
/// Longest wait for a fresh server to associate the bed.
const SETUP_TIMEOUT: Duration = Duration::from_secs(20);

/// Every gate a serve session must pass; returns the failures.
fn check(ended: &Ended) -> Vec<String> {
    let mut bad = Vec::new();
    if !ended.exit_ok {
        bad.push("the server did not exit cleanly".into());
    }
    let Some(r) = ended.report else {
        bad.push("the server printed no session report".into());
        return bad;
    };
    if r.critical_overflow > 0 {
        bad.push(format!("{} critical ingress overflows", r.critical_overflow));
    }
    if r.critical_sends_dropped > 0 {
        bad.push(format!("{} critical sends dropped", r.critical_sends_dropped));
    }
    if r.frames_in != ended.frames_to_server {
        bad.push(format!(
            "the server decoded {} of {} frames sent to it",
            r.frames_in, ended.frames_to_server
        ));
    }
    if r.frames_out != ended.log.frames || ended.log.rejected > 0 {
        bad.push(format!(
            "the bed decoded {} of {} frames sent to it ({} rejected)",
            ended.log.frames, r.frames_out, ended.log.rejected
        ));
    }
    if ended.double_actuations > 0 {
        bad.push(format!("{} double actuations", ended.double_actuations));
    }
    if ended.log.epoch_regressions > 0 || ended.log.max_epoch == 0 {
        bad.push(format!(
            "command epochs did not climb ({} regressions, max {})",
            ended.log.epoch_regressions, ended.log.max_epoch
        ));
    }
    if let Some(base) = &ended.journal {
        // The journal must replay to the fencing state the bed saw.
        match Journal::open(base) {
            Ok((_, rec)) => match rec.state {
                Some(st)
                    if st.epoch == ended.log.max_epoch
                        && st.next_command_id > ended.log.max_command_id => {}
                Some(st) => bad.push(format!(
                    "journal replays epoch {} / next id {}, the bed saw epoch {} / id {}",
                    st.epoch, st.next_command_id, ended.log.max_epoch, ended.log.max_command_id
                )),
                None => bad.push("the journal replays no checkpoint".into()),
            },
            Err(e) => bad.push(format!("the journal does not open: {e}")),
        }
    }
    bad
}

/// Ends the session; returns what it left behind and every failed check
/// of the run, a missed episode included.
fn finish(s: Session, measured: &Measured) -> (Ended, Vec<String>) {
    let ended = s.end();
    let mut failures = check(&ended);
    failures.extend(measured.failures.iter().cloned());
    let misses = measured.misses();
    if misses > 0 {
        failures.push(format!("{misses} episodes without a stop within {STOP_BOUND_S} s"));
    }
    (ended, failures)
}

#[derive(Serialize)]
struct ServeDetail {
    params: String,
    offered_noise_sps: f64,
    episodes: usize,
    misses: u64,
    episodes_started_stopped: usize,
    latency_tail_percentile: f64,
    latency_samples: usize,
    setup_trials_s: Vec<f64>,
    stream_s: f64,
    report: Option<Report>,
    generator: Option<GenStats>,
}

pub fn run(args: &RunArgs, p: &Params, tracer: Option<&mut Tracer>) -> Outcome {
    let dir = args.work_dir.join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return Outcome::broken(format!("creating {}: {e}", dir.display()));
    }
    let ring = (p.noise_rate > 0.0).then(|| NoiseRing::new(args.seed));
    let outcome = match tracer {
        None => untraced(args, p, &dir, ring.as_ref()),
        Some(t) => traced(args, p, &dir, ring.as_ref(), t),
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome.unwrap_or_else(Outcome::broken)
}

fn untraced(
    args: &RunArgs,
    p: &Params,
    dir: &Path,
    ring: Option<&NoiseRing>,
) -> Result<Outcome, String> {
    let mut rng = SplitMix::new(args.seed);
    let mut setup = Vec::new();
    let mut failures = Vec::new();
    let mut session = None;
    for n in 0..SETUP_TRIALS {
        let mut s = Session::start(args, p, None, dir, n, SplitMix::new(rng.next_u64()))?;
        setup.push(s.associate(p)?.as_secs_f64());
        if n + 1 < SETUP_TRIALS {
            failures.extend(check(&s.end()).into_iter().map(|f| format!("setup trial {n}: {f}")));
        } else {
            session = Some(s);
        }
    }
    let mut s = session.expect("at least one setup trial");
    let measured = drive(&mut s, p, args.seconds, ring);
    let rss = s.child_pid().and_then(|pid| peak_rss_mb_of(&pid.to_string()));
    if rss.is_none() {
        failures.push("the server's peak RSS could not be read".into());
    }
    let (ended, more) = finish(s, &measured);
    failures.extend(more);

    let (lat, misses) = (measured.latencies_ms(), measured.misses());
    let tail = Tail::of(&lat);
    let report = ended.report;
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup));
    m.set("peak_rss_mb", rss.unwrap_or(0.0));
    m.set("ingest_sps", report.map_or(0.0, |r| r.delivered as f64) / measured.stream_s);
    m.set("latency_p50_ms", median(&lat));
    m.set("latency_tail_ms", tail.value);
    let detail = ServeDetail {
        params: format!("{p:?}"),
        offered_noise_sps: measured.gen.as_ref().map_or(0.0, |g| g.offered_sps),
        episodes: measured.episodes.len(),
        misses,
        episodes_started_stopped: measured.episodes.iter().filter(|e| e.started_stopped).count(),
        latency_tail_percentile: tail.percentile,
        latency_samples: tail.samples,
        setup_trials_s: setup,
        stream_s: measured.stream_s,
        report,
        generator: measured.gen,
    };
    Ok(Outcome {
        attempted: measured.episodes.len() as u64,
        failed: misses,
        failures,
        metrics: m,
        detail: serde_json::to_string(&detail).expect("detail serializes"),
    })
}

fn traced(
    args: &RunArgs,
    p: &Params,
    dir: &Path,
    ring: Option<&NoiseRing>,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut s = Session::start(args, p, Some(tracer.origin()), dir, 0, SplitMix::new(args.seed))?;
    s.associate(p)?;
    let measured = drive(&mut s, p, args.seconds, ring);
    let (mut ended, mut failures) = finish(s, &measured);
    let host = ended.host.take().ok_or("the in-process host did not report")?;
    let mut m = Metrics::default();

    // Host and transport, from the live run.
    let polls: Vec<f64> = host.tracer.per_op_ns("host.poll").iter().map(|ns| ns / 1e3).collect();
    let busy_ns: f64 = host.tracer.named("host.poll").map(|s| s.dur_ns() as f64).sum();
    let st = host.stats;
    m.set("host.poll_us.p50", median(&polls));
    m.set("host.poll_us.p99", percentile(&polls, 99.0));
    m.set("host.busy_share", busy_ns / host.loop_wall.as_nanos() as f64);
    m.set("host.deliveries_per_poll", st.deliveries as f64 / host.polls.max(1) as f64);
    m.set("host.ingress_peak", st.ingress_peak as f64);
    m.set("host.vitals_shed", st.vitals_shed as f64);
    m.set("host.shed_ratio", st.vitals_shed as f64 / host.side.data_in.max(1) as f64);
    m.set("host.critical_overflow", st.critical_overflow as f64);
    m.set("host.critical_sends_dropped", st.critical_sends_dropped as f64);
    m.set("host.ticks_fired", st.ticks_fired as f64);
    m.set("transport.send_ns", median(&host.tracer.per_op_ns("transport.send")));
    if let Some(g) = &measured.gen {
        m.set("gen.write_blocked_ms", g.write_blocked_ms);
        m.set("gen.lag_p99_ms", g.lag_p99_ms);
    }
    m.set("core.commands_sent", host.commands_sent as f64);
    m.set("core.retry_ratio", host.commands_retried as f64 / host.commands_sent.max(1) as f64);
    m.set("core.data_ignored", host.data_ignored as f64);
    m.set("journal.appends", host.journal_appends as f64);
    m.set("journal.syncs", host.journal_syncs as f64);
    if let Some(base) = &ended.journal {
        m.set("journal.bytes", dir_bytes(base.parent().expect("journal dir")) as f64);
    }

    // Coverage: the share of each episode's danger → stop interval
    // during which a host poll span was open.
    let poll_spans: Vec<(u64, u64)> =
        host.tracer.named("host.poll").map(|s| (s.start_ns, s.end_ns)).collect();
    let origin = tracer.origin();
    let covered: Vec<f64> = measured
        .episodes
        .iter()
        .filter_map(|e| {
            let (a, b) = (ns_since(origin, e.due), ns_since(origin, e.stop?));
            let inside: u64 =
                poll_spans.iter().map(|&(s, t)| t.min(b).saturating_sub(s.max(a))).sum();
            (b > a).then(|| inside as f64 / (b - a) as f64)
        })
        .collect();
    let live_spans = host.tracer.spans().len() as f64;
    let cost = span_cost_ns();
    m.set("trace.coverage_share", median(&covered));
    m.set("trace.span_cost_ns", cost);
    m.set("trace.overhead_share", live_spans * cost / host.loop_wall.as_nanos() as f64);
    tracer.merge(host.tracer, 0);

    // Codec, core and journal on the recorded inputs.
    failures.extend(replay_wire(&host.side, tracer, &mut m));
    replay_core(p, &host.side.inputs, dir, tracer, &mut m);
    let wire_rejected = m.get("wire.frames_rejected").unwrap_or(0.0)
        + (ended.frames_to_server as f64 - st.frames_in as f64).abs()
        + (st.frames_out as f64 - ended.log.frames as f64).abs();
    m.set("wire.frames_rejected", wire_rejected);

    Ok(Outcome {
        attempted: measured.episodes.len() as u64,
        failed: measured.misses(),
        failures,
        metrics: m,
        detail: serde_json::to_string(&TracedDetail {
            params: format!("{p:?}"),
            episodes: measured.episodes.len(),
            polls: host.polls,
            inputs_replayed: host.side.inputs.len(),
            report: ended.report,
            generator: measured.gen,
        })
        .expect("detail serializes"),
    })
}

#[derive(Serialize)]
struct TracedDetail {
    params: String,
    episodes: usize,
    polls: u64,
    inputs_replayed: usize,
    report: Option<Report>,
    generator: Option<GenStats>,
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}
