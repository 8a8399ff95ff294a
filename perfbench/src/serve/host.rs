//! The traced run's in-process host, and the replays of the inputs it
//! received through the codec, the core and the journal.

use super::session::build_core;
use super::{Params, CAPACITY, NOISE_KEEP, SPEED, WIRE_BLOCK};
use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use mcps_core::msg::{NetOp, NetPayload};
use mcps_core::{CoreInput, CoreOutputs};
use mcps_patient::vitals::VitalKind;
use mcps_serve::clock::ServeClock;
use mcps_serve::host::{ServeConfig, ServeHost, ServeStats};
use mcps_serve::journal::Journal;
use mcps_serve::transport::{FramedTransport, Transport, TransportError};
use mcps_serve::wire::{crc32, encode_frame, FrameDecoder, HEADER_LEN};
use mcps_sim::prelude::RngFactory;
use mcps_sim::stats::percentile;
use mcps_sim::time::SimTime;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The in-process host's peer transport: spans every send and keeps
/// the inputs for the replay.
struct Spanned<T> {
    inner: T,
    clock: ServeClock,
    pub(super) side: Rc<RefCell<HostSide>>,
}

/// What the host's peer transport saw: send intervals, every input
/// except noise beyond [`NOISE_KEEP`], every output.
#[derive(Default)]
pub(super) struct HostSide {
    sends: Vec<(Instant, Instant)>,
    pub(super) inputs: Vec<(SimTime, NetOp)>,
    outputs: Vec<NetOp>,
    noise_kept: usize,
    pub(super) data_in: u64,
}

pub(super) fn is_noise(op: &NetOp) -> bool {
    matches!(
        op,
        NetOp::Deliver {
            payload: NetPayload::Data { kind: VitalKind::HeartRate | VitalKind::Etco2, .. },
            ..
        }
    )
}

impl<T: Transport> Transport for Spanned<T> {
    fn send(&mut self, op: &NetOp) -> Result<(), TransportError> {
        let t0 = Instant::now();
        let r = self.inner.send(op);
        let mut side = self.side.borrow_mut();
        side.sends.push((t0, Instant::now()));
        side.outputs.push(op.clone());
        r
    }

    fn try_recv(&mut self) -> Result<Option<NetOp>, TransportError> {
        let r = self.inner.try_recv();
        if let Ok(Some(op)) = &r {
            let mut side = self.side.borrow_mut();
            if matches!(op, NetOp::Deliver { payload: NetPayload::Data { .. }, .. }) {
                side.data_in += 1;
            }
            let keep = !is_noise(op) || side.noise_kept < NOISE_KEEP;
            if keep {
                side.noise_kept += usize::from(is_noise(op));
                side.inputs.push((self.clock.sim_now(), op.clone()));
            }
        }
        r
    }
}

/// What the in-process host reports when its session ends.
pub(super) struct HostRun {
    pub(super) stats: ServeStats,
    pub(super) polls: u64,
    pub(super) loop_wall: Duration,
    pub(super) commands_sent: u64,
    pub(super) commands_retried: u64,
    pub(super) data_ignored: u64,
    pub(super) journal_appends: u64,
    pub(super) journal_syncs: u64,
    pub(super) side: HostSide,
    pub(super) tracer: Tracer,
}

/// `mcps-serve`'s stdio session in process: the binary's core and host
/// configuration behind a [`FramedTransport`] over OS pipes, polled at
/// the binary's cadence.
pub(super) fn run_host(
    journal: Option<PathBuf>,
    reader: std::io::PipeReader,
    writer: std::io::PipeWriter,
    origin: Instant,
) -> HostRun {
    let config = ServeConfig {
        speed: SPEED,
        ingress_capacity: CAPACITY,
        trace: false,
        seed: 42,
        persistent: false,
    };
    let mut host = ServeHost::headless(build_core(), config);
    if let Some(path) = journal {
        let (j, _) = Journal::open(&path).expect("journal opens");
        host.attach_journal(j);
    }
    let side = Rc::new(RefCell::new(HostSide::default()));
    let inner = FramedTransport::new(reader, writer);
    host.add_peer(Spanned { inner, clock: host.clock(), side: Rc::clone(&side) });
    let mut tracer = Tracer::new(origin);
    let mut polls = 0u64;
    let start = Instant::now();
    // `ServeHost::run`, with each poll spanned.
    loop {
        let sends_before = side.borrow().sends.len();
        let t0 = Instant::now();
        let alive = host.poll();
        let poll = tracer.record("host.poll", 0, t0, Instant::now(), 1);
        for &(s, e) in &side.borrow().sends[sends_before..] {
            tracer.record("transport.send", poll, s, e, 1);
        }
        polls += 1;
        if !alive {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let loop_wall = start.elapsed();
    let core = host.core();
    let (commands_sent, commands_retried, data_ignored) =
        (core.commands_sent(), core.commands_retried(), core.data_ignored());
    let (journal_appends, journal_syncs) =
        host.journal().map_or((0, 0), |j| (j.appended(), j.syncs()));
    let stats = host.stats();
    drop(host);
    HostRun {
        stats,
        polls,
        loop_wall,
        commands_sent,
        commands_retried,
        data_ignored,
        journal_appends,
        journal_syncs,
        side: Rc::try_unwrap(side).ok().expect("host side unshared").into_inner(),
        tracer,
    }
}

/// Encodes, checksums and decodes every recorded frame in blocks,
/// checking that each decodes to what was encoded.
pub(super) fn replay_wire(side: &HostSide, tracer: &mut Tracer, m: &mut Metrics) -> Vec<String> {
    let ops: Vec<&NetOp> = side.inputs.iter().map(|(_, op)| op).chain(&side.outputs).collect();
    let root = tracer.record("replay.wire", 0, Instant::now(), Instant::now(), 0);
    let (mut rejected, mut mismatched) = (0u64, 0u64);
    let (mut data_bytes, mut data_frames) = (0usize, 0usize);
    for block in ops.chunks(WIRE_BLOCK) {
        let n = block.len() as u32;
        let t0 = Instant::now();
        let frames: Vec<Vec<u8>> = block.iter().map(|op| encode_frame(op)).collect();
        tracer.record("wire.encode", root, t0, Instant::now(), n);
        for (op, f) in block.iter().zip(&frames) {
            if matches!(op, NetOp::Deliver { payload: NetPayload::Data { .. }, .. }) {
                data_bytes += f.len();
                data_frames += 1;
            }
        }
        let t0 = Instant::now();
        let mut sum = 0u32;
        for f in &frames {
            sum ^= crc32(&f[..8]) ^ crc32(&f[HEADER_LEN..]);
        }
        tracer.record("wire.crc", root, t0, Instant::now(), n);
        std::hint::black_box(sum);
        let bytes = frames.concat();
        let t0 = Instant::now();
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let decoded: Vec<NetOp> = std::iter::from_fn(|| dec.next_frame()).collect();
        tracer.record("wire.decode", root, t0, Instant::now(), n);
        rejected += dec.frames_rejected();
        mismatched += block.iter().zip(&decoded).filter(|(a, b)| **a != *b).count() as u64
            + block.len().abs_diff(decoded.len()) as u64;
    }
    let per_op = |name| {
        let (ops, ns) = tracer.totals(name);
        ns as f64 / ops.max(1) as f64
    };
    m.set("wire.encode_ns", per_op("wire.encode"));
    m.set("wire.crc_ns", per_op("wire.crc"));
    m.set("wire.decode_ns", per_op("wire.decode"));
    m.set("wire.bytes_per_sample", data_bytes as f64 / data_frames.max(1) as f64);
    m.set("wire.frames_rejected", rejected as f64);
    if mismatched > 0 {
        vec![format!("{mismatched} recorded frames did not decode to what was encoded")]
    } else {
        Vec::new()
    }
}

/// Feeds the recorded inputs through a fresh core built like the
/// binary's, with ticks at the core's step, spanning each `handle`; a
/// journal appends whenever the fencing fingerprint moves, as the host
/// does.
pub(super) fn replay_core(
    p: &Params,
    inputs: &[(SimTime, NetOp)],
    dir: &Path,
    t: &mut Tracer,
    m: &mut Metrics,
) {
    let mut core = build_core();
    let mut rng = RngFactory::new(42).stream("serve-supervisor");
    let mut out = CoreOutputs::new();
    let mut journal = p.journal.then(|| {
        let base = dir.join("replay-journal").join("ckpt");
        std::fs::create_dir_all(base.parent().expect("dir")).expect("replay journal dir");
        Journal::open(&base).expect("replay journal").0
    });
    let mut fp = None;
    let root = t.record("replay.core", 0, Instant::now(), Instant::now(), 0);
    let mut next_tick = SimTime::ZERO;
    let mut handle = |t: &mut Tracer, at: SimTime, input: CoreInput, name: &'static str| {
        out.begin(false);
        let t0 = Instant::now();
        core.handle(at, input, &mut rng, &mut out);
        t.record(name, root, t0, Instant::now(), 1);
        if let Some(j) = journal.as_mut() {
            let st = core.checkpoint_state();
            let now = (st.epoch, st.next_command_id, st.degraded, st.stop_unconfirmed);
            if fp != Some(now) {
                let t0 = Instant::now();
                j.append(&st).expect("replay journal append");
                t.record("journal.append", root, t0, Instant::now(), 1);
                fp = Some(now);
            }
        }
        core.step()
    };
    for (at, op) in inputs {
        while next_tick <= *at {
            let step = handle(t, next_tick, CoreInput::Tick, "core.handle.tick");
            next_tick = next_tick.saturating_add(step);
        }
        let (NetOp::Deliver { from, payload } | NetOp::Send { from, payload, .. }) = op.clone();
        let name = match payload {
            NetPayload::Data { .. } => "core.handle.data",
            NetPayload::Ack { .. } => "core.handle.ack",
            _ => "core.handle.other",
        };
        handle(t, *at, CoreInput::Deliver { from, payload }, name);
    }
    m.set("core.handle_ns.data", median(&t.per_op_ns("core.handle.data")));
    m.set("core.handle_ns.tick", median(&t.per_op_ns("core.handle.tick")));
    m.set("core.handle_ns.ack", median(&t.per_op_ns("core.handle.ack")));
    if p.journal {
        let us: Vec<f64> = t.per_op_ns("journal.append").iter().map(|ns| ns / 1e3).collect();
        m.set("journal.append_us.p50", median(&us));
        m.set("journal.append_us.p99", percentile(&us, 99.0));
    }
}
