//! End-to-end serve-mode loop: a [`ServeHost`] and a [`PcaBedClient`]
//! talking over an in-memory transport, run cooperatively on one
//! thread (the bed holds `Rc` patient state and is deliberately not
//! `Send`). Proves the full live path — announce, associate, heartbeat
//! the pump within one protocol second, stream vitals, detect danger,
//! stop the pump — outside the simulator.
//!
//! The `wake_*` tests drive [`ServeHost::run`] itself at real-time
//! speed (one tick per wall second): an idle host polls about once per
//! tick, a frame or a closed peer on a signalling transport is served
//! at once, and a peer that cannot signal is still polled every 1 ms.

use mcps_control::interlock::{DetectorKind, InterlockConfig, InterlockStrategy};
use mcps_core::msg::{IceCommand, NetAddress, NetOp, NetPayload};
use mcps_core::{PcaSafetyApp, SupervisorCore};
use mcps_patient::vitals::VitalKind;
use mcps_serve::client::{PcaBedClient, OX_EP, PUMP_EP, SUP_EP};
use mcps_serve::host::{ServeConfig, ServeHost};
use mcps_serve::transport::{ChannelTransport, FramedTransport, Transport, TransportError};
use mcps_serve::wire::encode_frame;
use mcps_sim::time::{SimDuration, SimTime};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

const SPEED: f64 = 200.0;

fn command_core() -> SupervisorCore {
    let config = InterlockConfig {
        strategy: InterlockStrategy::Command,
        detector: DetectorKind::Threshold,
        resume_holdoff: SimDuration::from_secs(10),
        ..InterlockConfig::default()
    };
    SupervisorCore::new(PcaSafetyApp::new(config), SUP_EP, SimDuration::from_secs(2))
}

/// Runs host and client rounds until `done` holds or `wall_budget`
/// expires, injecting `(spo2, rr)` vitals each round.
fn run_rounds<C: Transport>(
    host: &mut ServeHost<ChannelTransport>,
    client: &mut PcaBedClient<C>,
    vitals: (f64, f64),
    wall_budget: Duration,
    mut done: impl FnMut(&ServeHost<ChannelTransport>, &PcaBedClient<C>) -> bool,
) -> bool {
    let start = Instant::now();
    while start.elapsed() < wall_budget {
        client.send_vital(VitalKind::Spo2, vitals.0);
        client.send_vital(VitalKind::RespRate, vitals.1);
        host.poll();
        client.step();
        if done(host, client) {
            return true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    false
}

#[test]
fn live_association_then_danger_stops_pump() {
    let (server_t, client_t) = ChannelTransport::pair();
    let mut host = ServeHost::new(
        command_core(),
        server_t,
        ServeConfig {
            speed: SPEED,
            ingress_capacity: 64,
            trace: false,
            seed: 1,
            ..Default::default()
        },
    );
    let (announced, heartbeated) = (Stamp::default(), Stamp::default());
    let tap =
        PumpTap { inner: client_t, announced: announced.clone(), heartbeated: heartbeated.clone() };
    let mut client = PcaBedClient::new(tap, SPEED);
    client.announce_monitors();

    // Phase 1: healthy vitals until the supervisor is fully associated.
    let associated =
        run_rounds(&mut host, &mut client, (97.0, 14.0), Duration::from_secs(20), |h, _| {
            h.core().associated_at().is_some()
        });
    assert!(associated, "supervisor never associated: {:?}", host.core().manager());
    assert!(
        run_rounds(&mut host, &mut client, (97.0, 14.0), Duration::from_secs(20), |_, c| {
            c.is_permitted()
        }),
        "pump never reached a permitted state under healthy vitals"
    );
    // Supervision starts at association: the pump's first heartbeat
    // lands one round trip after its announce, not a heartbeat period
    // (5 protocol-s) later. Wall time maps to protocol time by SPEED.
    assert!(
        run_rounds(&mut host, &mut client, (97.0, 14.0), Duration::from_secs(20), |_, _| {
            heartbeated.lock().unwrap().is_some()
        }),
        "the bed never decoded a heartbeat for its pump"
    );
    let (announce_at, heartbeat_at) = (stamped(&announced), stamped(&heartbeated));
    assert!(heartbeat_at >= announce_at, "pump heartbeated before it announced");
    let setup = heartbeat_at.duration_since(announce_at).mul_f64(SPEED);
    assert!(
        setup <= Duration::from_secs(1),
        "first heartbeat {setup:?} (protocol time) after the pump's announce"
    );

    // Phase 2: SpO₂ crosses the danger threshold (< 90). The interlock
    // must push a stop through the transport to the bed's pump.
    let danger_at = client.sim_now();
    let stopped =
        run_rounds(&mut host, &mut client, (85.0, 14.0), Duration::from_secs(20), |_, c| {
            c.first_stop_at_or_after(danger_at).is_some()
        });
    assert!(stopped, "pump never received a stop after danger crossing");
    let stop_at = client.first_stop_at_or_after(danger_at).unwrap();
    let latency = stop_at.saturating_since(danger_at);
    assert!(latency <= SimDuration::from_secs(10), "danger→stop latency too high: {latency:?}");
    assert!(!client.is_permitted(), "pump still permits boluses after stop");

    // The host never dropped a protocol message while doing all this.
    assert_eq!(host.stats().critical_overflow, 0);
    assert!(!client.server_closed());
}

#[test]
fn host_survives_client_disconnect() {
    let (server_t, client_t) = ChannelTransport::pair();
    let mut host = ServeHost::new(
        command_core(),
        server_t,
        ServeConfig {
            speed: SPEED,
            ingress_capacity: 64,
            trace: false,
            seed: 2,
            ..Default::default()
        },
    );
    let client = PcaBedClient::new(client_t, SPEED);
    drop(client);
    // The next polls observe the closed transport and report the
    // session over, without panicking or spinning.
    let mut open = true;
    for _ in 0..100 {
        open = host.poll();
        if !open {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(!open, "host failed to notice the peer going away");
    assert!(host.is_closed());
}

/// Shared slot for an instant stamped on another thread.
type Stamp = Arc<Mutex<Option<Instant>>>;

fn stamp(slot: &Stamp) {
    slot.lock().unwrap().get_or_insert_with(Instant::now);
}

fn stamped(slot: &Stamp) -> Instant {
    slot.lock().unwrap().expect("never stamped")
}

/// Forwards to `inner`, stamping when the host first receives a message.
struct Stamped<T> {
    inner: T,
    first_rx: Stamp,
}

impl<T: Transport> Transport for Stamped<T> {
    fn send(&mut self, op: &NetOp) -> Result<(), TransportError> {
        self.inner.send(op)
    }

    fn try_recv(&mut self) -> Result<Option<NetOp>, TransportError> {
        let got = self.inner.try_recv();
        if let Ok(Some(_)) = got {
            stamp(&self.first_rx);
        }
        got
    }

    fn set_waker(&mut self, host: Thread) -> bool {
        self.inner.set_waker(host)
    }
}

/// The bed's side of the link, forwarding to `inner` and stamping the
/// pump's first announce out and its first heartbeat in.
struct PumpTap<T> {
    inner: T,
    announced: Stamp,
    heartbeated: Stamp,
}

impl<T: Transport> Transport for PumpTap<T> {
    fn send(&mut self, op: &NetOp) -> Result<(), TransportError> {
        if let NetOp::Deliver { from: PUMP_EP, payload: NetPayload::Announce { .. } } = op {
            stamp(&self.announced);
        }
        self.inner.send(op)
    }

    fn try_recv(&mut self) -> Result<Option<NetOp>, TransportError> {
        let got = self.inner.try_recv();
        if let Ok(Some(NetOp::Send {
            to: NetAddress::Endpoint(PUMP_EP),
            payload: NetPayload::Command { command: IceCommand::Heartbeat, .. },
            ..
        })) = &got
        {
            stamp(&self.heartbeated);
        }
        got
    }
}

/// A real-time host (1 s ticks) serving one peer.
fn realtime_host<T: Transport>(transport: T) -> ServeHost<T> {
    ServeHost::new(command_core(), transport, ServeConfig { speed: 1.0, ..Default::default() })
}

fn vital_op() -> NetOp {
    NetOp::Deliver {
        from: OX_EP,
        payload: NetPayload::Data { kind: VitalKind::Spo2, value: 97.0, sampled_at: SimTime::ZERO },
    }
}

/// A pipe-backed framed peer whose writer end the test keeps.
fn pipe_peer() -> (FramedTransport<std::io::Sink>, std::io::PipeWriter) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    (FramedTransport::new(reader, std::io::sink()), writer)
}

#[test]
fn wake_idle_host_polls_about_once_per_tick() {
    let (peer, writer) = pipe_peer();
    let mut host = realtime_host(peer);
    // About three ticks of wall time (ticks at 0, 1 and 2 s), then EOF
    // half a tick away from the next one.
    let closer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(2_500));
        drop(writer);
    });
    host.run();
    closer.join().unwrap();
    let stats = host.stats();
    assert!(stats.ticks_fired >= 3, "ticks did not fire on time: {stats:?}");
    assert!(
        stats.polls <= stats.ticks_fired + 2,
        "idle host polled {} times over {} ticks; expected one per tick plus the EOF",
        stats.polls,
        stats.ticks_fired
    );
}

#[test]
fn wake_frame_is_served_well_before_the_next_tick() {
    let (peer, mut writer) = pipe_peer();
    let first_rx = Stamp::default();
    let mut host = realtime_host(Stamped { inner: peer, first_rx: Arc::clone(&first_rx) });
    let written = Stamp::default();
    let feeder = {
        let written = Arc::clone(&written);
        std::thread::spawn(move || {
            // Land mid-tick: the t = 0 tick has fired, the next is ~0.8 s off.
            std::thread::sleep(Duration::from_millis(200));
            stamp(&written);
            writer.write_all(&encode_frame(&vital_op())).unwrap();
            std::thread::sleep(Duration::from_millis(200));
        })
    };
    host.run();
    feeder.join().unwrap();
    let lag = stamped(&first_rx).saturating_duration_since(stamped(&written));
    assert!(lag < Duration::from_millis(50), "frame waited {lag:?} for the host");
    assert_eq!(host.stats().deliveries, 1);
}

#[test]
fn wake_closed_peer_ends_run_promptly() {
    let (peer, writer) = pipe_peer();
    let mut host = realtime_host(peer);
    let closed = Stamp::default();
    let closer = {
        let closed = Arc::clone(&closed);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            stamp(&closed);
            drop(writer);
        })
    };
    host.run();
    let ended = Instant::now();
    closer.join().unwrap();
    let lag = ended.saturating_duration_since(stamped(&closed));
    assert!(lag < Duration::from_millis(100), "run() outlived its last peer by {lag:?}");
    assert!(host.is_closed());
    assert_eq!(host.stats().ticks_fired, 1, "the session should end before the 1 s tick");
}

#[test]
fn wake_unsignalled_peer_is_served_at_1ms_cadence() {
    let (server_t, mut client_t) = ChannelTransport::pair();
    let first_rx = Stamp::default();
    let mut host = realtime_host(Stamped { inner: server_t, first_rx: Arc::clone(&first_rx) });
    let sent = Stamp::default();
    let client = {
        let sent = Arc::clone(&sent);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            stamp(&sent);
            client_t.send(&vital_op()).unwrap();
            std::thread::sleep(Duration::from_millis(150));
        })
    };
    host.run();
    client.join().unwrap();
    let lag = stamped(&first_rx).saturating_duration_since(stamped(&sent));
    assert!(lag < Duration::from_millis(50), "unsignalled frame waited {lag:?}");
    let stats = host.stats();
    assert_eq!(stats.deliveries, 1);
    // ~250 ms at 1 ms cadence is ~250 polls; allow a slow scheduler.
    assert!(stats.polls >= 50, "only {} polls in ~250 ms: not a 1 ms cadence", stats.polls);
}
