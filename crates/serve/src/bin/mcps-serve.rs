//! The `mcps-serve` binary: a live PCA safety supervisor.
//!
//! Hosts the sans-io [`SupervisorCore`] with the PCA safety interlock
//! behind a framed transport — stdio by default (spawn it as a child
//! process and speak frames over its pipes), or TCP with `--tcp ADDR`.
//! A TCP host is *persistent*: it accepts connections for as long as
//! the process lives, beds may come, go, crash and reconnect.
//!
//! ```text
//! mcps-serve [--speed F] [--seed N] [--capacity N] [--trace]
//!            [--strategy command|ticket]
//!            [--detector threshold|fusion|trend]
//!            [--resume-holdoff-secs N] [--tcp ADDR] [--journal PATH]
//! ```
//!
//! `--speed` scales wall time onto the supervisor's protocol timeline
//! (tests run at 30–1000×); `--capacity` bounds the ingress queue
//! (back-pressure sheds oldest vitals beyond it); `--trace` prints the
//! supervisor's trace stream to stderr.
//!
//! `--journal PATH` makes the supervisor's fencing state durable: a
//! CRC-framed WAL of checkpoints at `PATH.NNNNNN.wal`. On startup any
//! existing journal is replayed (torn tails tolerated) and the core
//! resumes with a strictly higher epoch and its safety latches
//! inherited — so `kill -9` followed by a restart cannot resurrect a
//! stale epoch or forget a latched degradation.

use mcps_control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps_core::{PcaSafetyApp, SupervisorCore};
use mcps_net::fabric::EndpointId;
use mcps_serve::host::{ServeConfig, ServeHost};
use mcps_serve::journal::Journal;
use mcps_serve::transport::{FramedTransport, Transport};
use mcps_sim::time::SimDuration;

struct Options {
    speed: f64,
    seed: u64,
    capacity: usize,
    trace: bool,
    ticket_mode: bool,
    detector: DetectorKind,
    resume_holdoff_secs: u64,
    tcp: Option<String>,
    journal: Option<String>,
}

fn parse_options() -> Options {
    let mut opts = Options {
        speed: 1.0,
        seed: 42,
        capacity: 256,
        trace: false,
        ticket_mode: false,
        detector: InterlockConfig::default().detector,
        resume_holdoff_secs: 30,
        tcp: None,
        journal: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| die(&format!("{arg} needs a value")));
        match arg.as_str() {
            "--speed" => opts.speed = parse(&value(), "--speed"),
            "--seed" => opts.seed = parse(&value(), "--seed"),
            "--capacity" => opts.capacity = parse(&value(), "--capacity"),
            "--trace" => opts.trace = true,
            "--strategy" => {
                opts.ticket_mode = match value().as_str() {
                    "ticket" => true,
                    "command" => false,
                    other => die(&format!("unknown strategy {other:?} (command|ticket)")),
                }
            }
            "--detector" => {
                opts.detector = match value().as_str() {
                    "threshold" => DetectorKind::Threshold,
                    "fusion" => DetectorKind::Fusion,
                    "trend" => DetectorKind::FusionWithTrend,
                    other => die(&format!("unknown detector {other:?} (threshold|fusion|trend)")),
                }
            }
            "--resume-holdoff-secs" => {
                opts.resume_holdoff_secs = parse(&value(), "--resume-holdoff-secs")
            }
            "--tcp" => opts.tcp = Some(value()),
            "--journal" => opts.journal = Some(value()),
            "--help" | "-h" => {
                eprintln!(
                    "mcps-serve [--speed F] [--seed N] [--capacity N] [--trace] \
                     [--strategy command|ticket] [--detector threshold|fusion|trend] \
                     [--resume-holdoff-secs N] [--tcp ADDR] [--journal PATH]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other:?} (try --help)")),
        }
    }
    opts
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| die(&format!("bad value {s:?} for {what}")))
}

fn die(msg: &str) -> ! {
    eprintln!("mcps-serve: {msg}");
    std::process::exit(2);
}

fn build_core(opts: &Options) -> SupervisorCore {
    let mut config = InterlockConfig::default();
    if !opts.ticket_mode {
        config.strategy = InterlockStrategy::Command;
    }
    config.detector = opts.detector;
    config.resume_holdoff = SimDuration::from_secs(opts.resume_holdoff_secs);
    SupervisorCore::new(
        PcaSafetyApp::new(config),
        EndpointId::from_index(3),
        SimDuration::from_secs(2),
    )
}

/// Builds the core, replaying + resuming from the journal when one is
/// configured.
fn build_host<T: Transport>(opts: &Options, persistent: bool) -> ServeHost<T> {
    let mut core = build_core(opts);
    let mut journal = None;
    if let Some(path) = &opts.journal {
        let (j, recovery) = Journal::open(std::path::Path::new(path))
            .unwrap_or_else(|e| die(&format!("cannot open journal {path}: {e}")));
        if let Some(ckpt) = &recovery.state {
            eprintln!(
                "mcps-serve: journal replayed — {} records / {} segments, resuming at epoch {}{}{}{}",
                recovery.records,
                recovery.segments_scanned,
                ckpt.epoch + 1,
                if ckpt.degraded { ", degraded latch inherited" } else { "" },
                if ckpt.stop_unconfirmed { ", stop-unconfirmed latch inherited" } else { "" },
                if recovery.torn_tail || recovery.corrupt_stopped {
                    " (damaged tail ignored)"
                } else {
                    ""
                },
            );
            core = core.resume_from(ckpt);
        } else {
            eprintln!("mcps-serve: journal empty — fresh session at epoch 1");
        }
        journal = Some(j);
    }
    let config = ServeConfig {
        speed: opts.speed,
        ingress_capacity: opts.capacity,
        trace: opts.trace,
        seed: opts.seed,
        persistent,
    };
    let mut host = ServeHost::headless(core, config);
    if let Some(j) = journal {
        host.attach_journal(j);
    }
    host
}

fn report(stats: &mcps_serve::ServeStats) {
    eprintln!(
        "mcps-serve: session over — {} in / {} out, {} ticks, {} delivered, {} vitals shed, \
         {} critical overflow, {} critical sends dropped, {} peers ({} dropped, {} resumed)",
        stats.frames_in,
        stats.frames_out,
        stats.ticks_fired,
        stats.deliveries,
        stats.vitals_shed,
        stats.critical_overflow,
        stats.critical_sends_dropped,
        stats.peers_connected,
        stats.peers_dropped,
        stats.routes_relearned,
    );
    eprintln!("mcps-serve: {} polls", stats.polls);
}

/// One-shot stdio session: serve the pipes until the parent goes away.
fn serve_stdio(opts: &Options) {
    let mut host = build_host(opts, false);
    host.add_peer(FramedTransport::stdio());
    host.run();
    report(&host.stats());
}

/// Persistent TCP service: an accept thread hands new connections to
/// the serving loop and unparks it; the host outlives every peer.
fn serve_tcp(opts: &Options, addr: &str) {
    let listener = std::net::TcpListener::bind(addr)
        .unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));
    eprintln!("mcps-serve: listening on {addr}");
    let (conn_tx, conn_rx) = std::sync::mpsc::channel();
    let host_thread = std::thread::current();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            if conn_tx.send(stream).is_err() {
                return;
            }
            host_thread.unpark();
        }
    });
    let mut host = build_host(opts, true);
    host.run_with(|host| {
        for stream in conn_rx.try_iter() {
            let peer = stream.peer_addr().map(|a| a.to_string());
            match FramedTransport::tcp(stream) {
                Ok(t) => {
                    let id = host.add_peer(t);
                    eprintln!(
                        "mcps-serve: peer {id} connected ({})",
                        peer.as_deref().unwrap_or("unknown")
                    );
                }
                Err(e) => eprintln!("mcps-serve: socket setup failed: {e}"),
            }
        }
    });
    report(&host.stats());
}

fn main() {
    let opts = parse_options();
    match opts.tcp.clone() {
        Some(addr) => serve_tcp(&opts, &addr),
        None => serve_stdio(&opts),
    }
}
