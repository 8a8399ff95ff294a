//! One server incarnation and its bed: the pipe both ends share, the
//! bed's reader thread, and the server — the `mcps-serve` binary as a
//! child process, or the same host in process for the traced run.

use super::host::{run_host, HostRun};
use super::{Params, HOLDOFF_SECS, SETUP_TIMEOUT, SPEED};

use crate::stats::SplitMix;
use crate::RunArgs;
use mcps_control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps_core::msg::{NetOp, NetPayload};
use mcps_core::{IceCommand, PcaSafetyApp, SupervisorCore};
use mcps_patient::vitals::VitalKind;
use mcps_serve::client::{PcaBedClient, SUP_EP};
use mcps_serve::host::ServeStats;
use mcps_serve::transport::{Transport, TransportError};
use mcps_serve::wire::{encode_frame, FrameDecoder};
use mcps_sim::time::SimDuration;
use serde::Serialize;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest wait for a heartbeat before a session is closed: a few
/// heartbeat periods at the workloads' speed.
const HEARTBEAT_WAIT: Duration = Duration::from_millis(500);

/// The write end towards the server, shared by the bed and the noise
/// generator. Every write is whole frames under one lock, so frames
/// from the two writers never interleave mid-frame.
#[derive(Clone)]
pub(super) struct ToServer {
    pipe: Arc<Mutex<Option<Box<dyn Write + Send>>>>,
    frames: Arc<AtomicU64>,
}

impl ToServer {
    fn new(w: impl Write + Send + 'static) -> Self {
        ToServer { pipe: Arc::new(Mutex::new(Some(Box::new(w)))), frames: Arc::default() }
    }

    pub(super) fn write(&self, parts: &[&[u8]], frames: u64) -> std::io::Result<()> {
        let mut guard = self.pipe.lock().expect("pipe lock");
        let w = guard.as_mut().ok_or(std::io::ErrorKind::BrokenPipe)?;
        for part in parts {
            w.write_all(part)?;
        }
        self.frames.fetch_add(frames, Ordering::Relaxed);
        Ok(())
    }

    /// Closes the pipe: the server sees end of input and ends its
    /// session.
    fn close(&self) {
        self.pipe.lock().expect("pipe lock").take();
    }

    fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }
}

/// What the bed's reader thread saw coming back from the server.
#[derive(Debug, Default)]
pub(super) struct BedLog {
    pub(super) frames: u64,
    pub(super) rejected: u64,
    first_heartbeat: Option<Instant>,
    heartbeats: u64,
    /// `(decoded at, command id)` of every `StopPump` command.
    pub(super) stops: Vec<(Instant, u64)>,
    pub(super) max_epoch: u64,
    pub(super) max_command_id: u64,
    pub(super) epoch_regressions: u64,
}

/// The bed's transport: frames out through the shared pipe, frames in
/// from a reader thread that timestamps each command as it decodes it.
pub(super) struct BedLink {
    pub(super) to: ToServer,
    rx: Receiver<NetOp>,
}

impl Transport for BedLink {
    fn send(&mut self, op: &NetOp) -> Result<(), TransportError> {
        self.to.write(&[&encode_frame(op)], 1).map_err(|_| TransportError::Closed)
    }

    fn try_recv(&mut self) -> Result<Option<NetOp>, TransportError> {
        match self.rx.try_recv() {
            Ok(op) => Ok(Some(op)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }
}

/// Decodes the server's output until it closes, logging commands.
fn bed_reader(mut r: impl Read, tx: Sender<NetOp>, log: Arc<Mutex<BedLog>>) {
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 1 << 16];
    while let Ok(n @ 1..) = r.read(&mut buf) {
        dec.push(&buf[..n]);
        while let Some(op) = dec.next_frame() {
            let at = Instant::now();
            {
                let mut log = log.lock().expect("bed log");
                log.frames += 1;
                if let NetOp::Send { payload: NetPayload::Command { id, epoch, command }, .. } = &op
                {
                    if *epoch < log.max_epoch {
                        log.epoch_regressions += 1;
                    }
                    log.max_epoch = log.max_epoch.max(*epoch);
                    log.max_command_id = log.max_command_id.max(*id);
                    match command {
                        IceCommand::StopPump => log.stops.push((at, *id)),
                        IceCommand::Heartbeat => {
                            log.first_heartbeat.get_or_insert(at);
                            log.heartbeats += 1;
                        }
                        _ => {}
                    }
                }
            }
            // The bed may be gone at the end of a session; keep reading
            // so the server never blocks on a full pipe.
            let _ = tx.send(op);
        }
    }
    log.lock().expect("bed log").rejected = dec.frames_rejected();
}

fn serve_flags(journal: Option<&Path>) -> Vec<String> {
    let mut flags: Vec<String> = [
        "--speed",
        &SPEED.to_string(),
        "--strategy",
        "command",
        "--detector",
        "threshold",
        "--resume-holdoff-secs",
        &HOLDOFF_SECS.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(j) = journal {
        flags.push("--journal".into());
        flags.push(j.display().to_string());
    }
    flags
}

/// The core `mcps-serve` builds for `serve_flags`.
pub(super) fn build_core() -> SupervisorCore {
    let config = InterlockConfig {
        strategy: InterlockStrategy::Command,
        detector: DetectorKind::Threshold,
        resume_holdoff: SimDuration::from_secs(HOLDOFF_SECS),
        ..InterlockConfig::default()
    };
    SupervisorCore::new(PcaSafetyApp::new(config), SUP_EP, SimDuration::from_secs(2))
}

enum Server {
    Child { child: Child, stderr: PathBuf },
    InProcess(JoinHandle<HostRun>),
    Finished,
}

/// The server's own account of a finished session.
#[derive(Debug, Default, Clone, Copy, Serialize)]
pub(super) struct Report {
    pub(super) frames_in: u64,
    pub(super) frames_out: u64,
    ticks: u64,
    pub(super) delivered: u64,
    vitals_shed: u64,
    pub(super) critical_overflow: u64,
    pub(super) critical_sends_dropped: u64,
}

impl Report {
    /// Parses the binary's `session over` line.
    fn parse(stderr: &str) -> Option<Report> {
        let line = stderr.lines().find(|l| l.contains("session over"))?;
        let n: Vec<u64> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .filter_map(|s| s.parse().ok())
            .collect();
        (n.len() >= 7).then(|| Report {
            frames_in: n[0],
            frames_out: n[1],
            ticks: n[2],
            delivered: n[3],
            vitals_shed: n[4],
            critical_overflow: n[5],
            critical_sends_dropped: n[6],
        })
    }

    fn of(s: &ServeStats) -> Report {
        Report {
            frames_in: s.frames_in,
            frames_out: s.frames_out,
            ticks: s.ticks_fired,
            delivered: s.deliveries,
            vitals_shed: s.vitals_shed,
            critical_overflow: s.critical_overflow,
            critical_sends_dropped: s.critical_sends_dropped,
        }
    }
}

/// One server incarnation with its bed.
pub(super) struct Session {
    pub(super) to: ToServer,
    pub(super) bed: PcaBedClient<BedLink>,
    pub(super) log: Arc<Mutex<BedLog>>,
    reader: Option<JoinHandle<()>>,
    server: Server,
    pub(super) journal: Option<PathBuf>,
    spawned_at: Instant,
    pub(super) rng: SplitMix,
}

/// What a finished session leaves behind.
pub(super) struct Ended {
    pub(super) report: Option<Report>,
    pub(super) host: Option<HostRun>,
    pub(super) log: BedLog,
    pub(super) frames_to_server: u64,
    pub(super) double_actuations: u64,
    pub(super) exit_ok: bool,
    pub(super) journal: Option<PathBuf>,
}

impl Session {
    pub(super) fn start(
        args: &RunArgs,
        p: &Params,
        in_process: Option<Instant>,
        dir: &Path,
        n: usize,
        rng: SplitMix,
    ) -> Result<Session, String> {
        let journal = p.journal.then(|| dir.join(format!("journal-{n}")).join("ckpt"));
        if let Some(j) = &journal {
            std::fs::create_dir_all(j.parent().expect("journal dir"))
                .map_err(|e| format!("journal dir: {e}"))?;
        }
        let spawned_at = Instant::now();
        let (to, from, server): (ToServer, Box<dyn Read + Send>, Server) = match in_process {
            None => {
                let stderr = dir.join(format!("serve-{n}.stderr"));
                let err_file =
                    std::fs::File::create(&stderr).map_err(|e| format!("stderr file: {e}"))?;
                let mut child = Command::new(&args.serve_bin)
                    .args(serve_flags(journal.as_deref()))
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(err_file)
                    .spawn()
                    .map_err(|e| format!("spawning {}: {e}", args.serve_bin.display()))?;
                let stdin = child.stdin.take().expect("piped stdin");
                let stdout = child.stdout.take().expect("piped stdout");
                (ToServer::new(stdin), Box::new(stdout), Server::Child { child, stderr })
            }
            Some(origin) => {
                let (host_r, bed_w) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
                let (bed_r, host_w) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
                let j = journal.clone();
                let h = std::thread::spawn(move || run_host(j, host_r, host_w, origin));
                (ToServer::new(bed_w), Box::new(bed_r), Server::InProcess(h))
            }
        };
        let log = Arc::new(Mutex::new(BedLog::default()));
        let (tx, rx) = mpsc::channel();
        let reader = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || bed_reader(from, tx, log))
        };
        let bed = PcaBedClient::new(BedLink { to: to.clone(), rx }, SPEED);
        Ok(Session { to, bed, log, reader: Some(reader), server, journal, spawned_at, rng })
    }

    pub(super) fn send_vitals(&mut self, danger: bool) {
        let spo2 = if danger { self.rng.range(80.0, 86.0) } else { self.rng.range(95.0, 99.0) };
        let rr = self.rng.range(12.0, 18.0);
        self.bed.send_vital(VitalKind::Spo2, (spo2 * 10.0).round() / 10.0);
        self.bed.send_vital(VitalKind::RespRate, (rr * 10.0).round() / 10.0);
    }

    /// Announces the monitors and streams healthy vitals until the
    /// supervisor supervises the pump (its first heartbeat) and the
    /// pump is permitted. Returns the wall time from spawn.
    pub(super) fn associate(&mut self, p: &Params) -> Result<Duration, String> {
        self.bed.announce_monitors();
        let mut next_sample = Instant::now();
        loop {
            let now = Instant::now();
            if now >= next_sample {
                self.send_vitals(false);
                next_sample += p.monitor_period;
            }
            self.bed.step();
            // The pump is permitted from power-on unless a latch holds
            // it; the first heartbeat marks the moment it is supervised.
            let heartbeat = self.log.lock().expect("bed log").first_heartbeat;
            if let Some(hb) = heartbeat.filter(|_| self.bed.is_permitted()) {
                return Ok(hb - self.spawned_at);
            }
            if now - self.spawned_at > SETUP_TIMEOUT {
                return Err(format!("bed not associated within {SETUP_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub(super) fn child_pid(&self) -> Option<u32> {
        match &self.server {
            Server::Child { child, .. } => Some(child.id()),
            _ => None,
        }
    }

    /// Closes the server's input and waits for its session report.
    pub(super) fn end(mut self) -> Ended {
        // Close just after a supervision heartbeat, i.e. just after a
        // tick. The server then sees its input end within one poll, well
        // before its next tick. Closed in mid-cadence, a tick can fall in
        // that same poll, and its sends to the departed bed would count
        // as critical sends dropped. That would be an artefact of ending
        // the session, not a loss during it.
        let seen = self.log.lock().expect("bed log").heartbeats;
        let deadline = Instant::now() + HEARTBEAT_WAIT;
        while self.log.lock().expect("bed log").heartbeats == seen && Instant::now() < deadline {
            self.bed.step();
            std::thread::sleep(Duration::from_micros(100));
        }
        self.to.close();
        let (report, host, exit_ok) = match std::mem::replace(&mut self.server, Server::Finished) {
            Server::Child { mut child, stderr } => {
                let deadline = Instant::now() + Duration::from_secs(30);
                let status = loop {
                    match child.try_wait() {
                        Ok(Some(s)) => break Some(s),
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(2))
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break None;
                        }
                    }
                };
                let text = std::fs::read_to_string(&stderr).unwrap_or_default();
                (Report::parse(&text), None, status.is_some_and(|s| s.success()))
            }
            Server::InProcess(h) => match h.join() {
                Ok(run) => (Some(Report::of(&run.stats)), Some(run), true),
                Err(_) => (None, None, false),
            },
            Server::Finished => (None, None, false),
        };
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        let log = std::mem::take(&mut *self.log.lock().expect("bed log"));
        Ended {
            report,
            host,
            log,
            frames_to_server: self.to.frames(),
            double_actuations: self.bed.pump_actor().double_actuations(),
            exit_ok,
            journal: self.journal.take(),
        }
    }
}

/// A session abandoned on an error path still stops its server and
/// joins its threads.
impl Drop for Session {
    fn drop(&mut self) {
        self.to.close();
        match std::mem::replace(&mut self.server, Server::Finished) {
            Server::Child { mut child, .. } => {
                let _ = child.kill();
                let _ = child.wait();
            }
            Server::InProcess(h) => {
                let _ = h.join();
            }
            Server::Finished => {}
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_report_parses() {
        let line = "mcps-serve: session over — 12 in / 34 out, 5 ticks, 6 delivered, 7 vitals \
                    shed, 0 critical overflow, 1 critical sends dropped, 1 peers (1 dropped, 0 \
                    resumed)";
        let r = Report::parse(&format!("noise\n{line}\n")).expect("parses");
        assert_eq!((r.frames_in, r.frames_out, r.ticks, r.delivered), (12, 34, 5, 6));
        assert_eq!((r.vitals_shed, r.critical_overflow, r.critical_sends_dropped), (7, 0, 1));
        assert!(Report::parse("no report").is_none());
    }
}
