//! Pluggable transports carrying [`NetOp`] messages.
//!
//! The serve host and its clients speak in whole messages; a
//! [`Transport`] hides how those messages move. Three implementations
//! ship:
//!
//! * [`ChannelTransport`] — in-memory queues, for tests and in-process
//!   load generation (no threads required).
//! * [`FramedTransport`] over stdio — the `mcps-serve` binary's default
//!   ([`FramedTransport::stdio`]), speaking the [`crate::wire`] codec.
//! * [`FramedTransport`] over TCP — one connected socket per bed
//!   ([`FramedTransport::tcp`]).
//!
//! All receives are non-blocking (`try_recv`), because both host and
//! client own a clock-driven loop that must keep ticking regardless of
//! traffic. A transport that can tell when traffic arrives says so
//! through [`Transport::set_waker`], which lets the host sleep until
//! then instead of polling on a timer.

use crate::wire::{encode_frame, FrameDecoder};
use mcps_core::msg::NetOp;
use std::io::{ErrorKind, Read, Write};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::Thread;

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is gone (EOF, broken pipe, disconnected channel).
    /// Permanent: further operations will keep failing.
    Closed,
    /// An I/O error other than closure.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A bidirectional message pipe.
pub trait Transport {
    /// Sends one message to the peer.
    fn send(&mut self, op: &NetOp) -> Result<(), TransportError>;

    /// Receives the next pending message, if any, without blocking.
    /// `Ok(None)` means "nothing right now"; [`TransportError::Closed`]
    /// means the peer is gone for good (pending messages are still
    /// drained first).
    fn try_recv(&mut self) -> Result<Option<NetOp>, TransportError>;

    /// Asks the transport to [`Thread::unpark`] `host` whenever new
    /// messages (or closure) become visible to [`Transport::try_recv`].
    /// Returns whether it will: a transport that returns `false` — the
    /// default — is polled on a short timer instead.
    fn set_waker(&mut self, host: Thread) -> bool {
        let _ = host;
        false
    }
}

/// An in-memory transport half; create a connected pair with
/// [`ChannelTransport::pair`].
#[derive(Debug)]
pub struct ChannelTransport {
    tx: Sender<NetOp>,
    rx: Receiver<NetOp>,
}

impl ChannelTransport {
    /// Two connected halves: everything sent on one is received on the
    /// other, in order.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (atx, brx) = mpsc::channel();
        let (btx, arx) = mpsc::channel();
        (ChannelTransport { tx: atx, rx: arx }, ChannelTransport { tx: btx, rx: brx })
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, op: &NetOp) -> Result<(), TransportError> {
        self.tx.send(op.clone()).map_err(|_| TransportError::Closed)
    }

    fn try_recv(&mut self) -> Result<Option<NetOp>, TransportError> {
        match self.rx.try_recv() {
            Ok(op) => Ok(Some(op)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }
}

/// A transport speaking the [`crate::wire`] frame codec over a byte
/// stream. Writes go straight to the writer (flushed per frame); reads
/// happen on a background thread that decodes frames and hands them
/// over a queue, keeping [`Transport::try_recv`] non-blocking even on
/// blocking streams like stdin or sockets.
pub struct FramedTransport<W: Write> {
    writer: W,
    rx: Receiver<NetOp>,
    /// The thread the reader unparks after each decoded chunk and at
    /// EOF (see [`Transport::set_waker`]).
    waker: WakeSlot,
    closed: bool,
}

/// The host thread a reader wakes, once one is registered. The slot is
/// only ever replaced whole, so a poisoned lock still holds a valid value.
type WakeSlot = Arc<Mutex<Option<Thread>>>;

fn wake(waker: &WakeSlot) {
    if let Some(host) = waker.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
        host.unpark();
    }
}

impl<W: Write> std::fmt::Debug for FramedTransport<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FramedTransport").field("closed", &self.closed).finish()
    }
}

impl<W: Write> FramedTransport<W> {
    /// Wraps a reader/writer pair. The reader moves to a background
    /// thread; decoded frames queue until drained. Garbage on the
    /// stream is skipped by the codec (see [`crate::wire`]).
    pub fn new<R: Read + Send + 'static>(reader: R, writer: W) -> Self {
        let (tx, rx) = mpsc::channel();
        let waker = WakeSlot::default();
        let reader_waker = Arc::clone(&waker);
        std::thread::spawn(move || {
            read_loop(reader, &tx, &reader_waker);
            // Disconnect first, then wake: the woken host must see the
            // closure, not an empty queue.
            drop(tx);
            wake(&reader_waker);
        });
        FramedTransport { writer, rx, waker, closed: false }
    }
}

/// Bytes asked of one `read()`: a full pipe's worth, so a reader that
/// has fallen behind catches up in few syscalls and few wakes.
const READ_CHUNK: usize = 64 * 1024;
/// Bytes handed to the decoder at a time, which bounds its buffer.
const DECODE_SLICE: usize = 4096;
/// Most frames decoded between two wakes, so the host drains a long
/// chunk in batches well inside its ingress bound.
const WAKE_EVERY: usize = 128;

/// Decodes frames off `reader` until EOF, a read error or a dropped
/// receiver, waking the host once per decoded chunk (and every
/// [`WAKE_EVERY`] frames within one) — not once per frame.
fn read_loop<R: Read>(mut reader: R, tx: &Sender<NetOp>, waker: &WakeSlot) {
    let mut dec = FrameDecoder::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        let n = match reader.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => n,
            // A signal landing mid-read is not the peer going away.
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        let mut unsignalled = 0;
        for slice in chunk[..n].chunks(DECODE_SLICE) {
            dec.push(slice);
            while let Some(op) = dec.next_frame() {
                if tx.send(op).is_err() {
                    return;
                }
                unsignalled += 1;
                if unsignalled == WAKE_EVERY {
                    wake(waker);
                    unsignalled = 0;
                }
            }
        }
        if unsignalled > 0 {
            wake(waker);
        }
    }
}

impl FramedTransport<std::io::Stdout> {
    /// The process's stdin/stdout as a framed transport — how the
    /// `mcps-serve` binary talks to whoever spawned it.
    pub fn stdio() -> Self {
        FramedTransport::new(std::io::stdin(), std::io::stdout())
    }
}

impl FramedTransport<std::net::TcpStream> {
    /// A connected TCP stream as a framed transport (the read half is
    /// a [`std::net::TcpStream::try_clone`] of the socket).
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the socket cannot be cloned.
    pub fn tcp(stream: std::net::TcpStream) -> std::io::Result<Self> {
        let reader = stream.try_clone()?;
        Ok(FramedTransport::new(reader, stream))
    }
}

impl<W: Write> Transport for FramedTransport<W> {
    fn send(&mut self, op: &NetOp) -> Result<(), TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        let frame = encode_frame(op);
        let res = self.writer.write_all(&frame).and_then(|()| self.writer.flush());
        if let Err(e) = res {
            // A broken pipe means the peer died (the crash harness
            // relies on surviving exactly this); everything else is a
            // plain I/O error.
            return if e.kind() == ErrorKind::BrokenPipe {
                self.closed = true;
                Err(TransportError::Closed)
            } else {
                Err(TransportError::Io(e.to_string()))
            };
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<NetOp>, TransportError> {
        match self.rx.try_recv() {
            Ok(op) => Ok(Some(op)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn set_waker(&mut self, host: Thread) -> bool {
        *self.waker.lock().unwrap_or_else(|e| e.into_inner()) = Some(host);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcps_core::msg::{NetAddress, NetPayload};
    use mcps_core::IceCommand;
    use mcps_net::fabric::EndpointId;

    fn cmd(id: u64) -> NetOp {
        NetOp::Send {
            from: EndpointId::from_index(3),
            to: NetAddress::Endpoint(EndpointId::from_index(2)),
            payload: NetPayload::Command { id, epoch: 1, command: IceCommand::StopPump },
        }
    }

    #[test]
    fn channel_pair_roundtrips_in_order() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(&cmd(1)).unwrap();
        a.send(&cmd(2)).unwrap();
        assert_eq!(b.try_recv().unwrap(), Some(cmd(1)));
        assert_eq!(b.try_recv().unwrap(), Some(cmd(2)));
        assert_eq!(b.try_recv().unwrap(), None);
    }

    #[test]
    fn channel_close_is_reported_after_drain() {
        let (a, mut b) = ChannelTransport::pair();
        drop(a);
        assert_eq!(b.try_recv(), Err(TransportError::Closed));
    }

    /// A reader following a script of results; once the script runs
    /// out it blocks until `gate` is dropped, then reports EOF.
    struct ScriptedReader {
        script: std::collections::VecDeque<std::io::Result<Vec<u8>>>,
        gate: Receiver<()>,
    }

    impl Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.script.pop_front() {
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(e)) => Err(e),
                None => {
                    let _ = self.gate.recv();
                    Ok(0)
                }
            }
        }
    }

    /// EINTR is a retry, not EOF: a signal landing on the reader
    /// thread must not drop the peer (on stdio, end the session).
    #[test]
    fn interrupted_read_is_retried_not_treated_as_eof() {
        let (gate_tx, gate) = mpsc::channel();
        let script = [Err(std::io::Error::from(ErrorKind::Interrupted)), Ok(encode_frame(&cmd(7)))];
        let reader = ScriptedReader { script: script.into_iter().collect(), gate };
        let mut t = FramedTransport::new(reader, Vec::new());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let got = loop {
            match t.try_recv() {
                Ok(Some(op)) => break op,
                Ok(None) if std::time::Instant::now() < deadline => std::thread::yield_now(),
                other => panic!("frame after EINTR never arrived: {other:?}"),
            }
        };
        assert_eq!(got, cmd(7));
        assert_eq!(t.try_recv(), Ok(None), "the transport must stay open after EINTR");
        drop(gate_tx);
    }

    #[test]
    fn tcp_framed_roundtrip() {
        let Ok(listener) = std::net::TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping: cannot bind loopback in this environment");
            return;
        };
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = FramedTransport::tcp(stream).unwrap();
            // Echo two messages back.
            let mut echoed = 0;
            while echoed < 2 {
                if let Ok(Some(op)) = t.try_recv() {
                    t.send(&op).unwrap();
                    echoed += 1;
                } else {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        });
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut t = FramedTransport::tcp(stream).unwrap();
        t.send(&cmd(1)).unwrap();
        t.send(&cmd(2)).unwrap();
        let mut got = Vec::new();
        while got.len() < 2 {
            match t.try_recv() {
                Ok(Some(op)) => got.push(op),
                Ok(None) => std::thread::sleep(std::time::Duration::from_millis(1)),
                Err(e) => panic!("transport failed: {e}"),
            }
        }
        assert_eq!(got, vec![cmd(1), cmd(2)]);
        server.join().unwrap();
    }
}
