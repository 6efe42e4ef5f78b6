//! The TCP front door: framed sockets in, engine intake out, acks back
//! from the engine's driver thread.
//!
//! [`KvServer`] binds a listener, hosts the replica group in-process (a
//! [`KvEngine`] running the n-replica consensus
//! session), and bridges each accepted socket to the engine with one
//! thread and one buffer, both moving bursts, not frames:
//!
//! * a **reader thread** per connection blocks in one `read`, then takes
//!   every frame that read completed. The requests among them go to the
//!   engine's intake as one message; any other frame is a
//!   [`ControlRequest`], which first sends the requests ahead of it, so
//!   the engine sees the connection's frames in the order they arrived.
//!   A clean EOF, a truncated frame, or a malformed message deregisters
//!   the connection once the valid requests ahead of it are submitted
//!   (the protocol has no error responses — a peer that cannot speak it
//!   is dropped);
//! * a `SocketOut` per connection, owned by the engine's driver: the
//!   acks and control frames a driver pass produces are encoded into its
//!   buffer, and the pass ends with one `write` of each non-empty buffer
//!   (see the engine's module docs). No thread hop lies between an apply
//!   and its ack's `write`.
//!
//! A burst is whatever is already there: there is no timer and no wait
//! for more, so a lone request is submitted, and its ack written, in the
//! pass that has it. The `server_frontdoor` metric family counts the
//! sockets' reads and writes, the frames they carried and the request
//! intake messages, so frames per write and requests per intake message
//! can be read off a dump.
//!
//! The driver writes to a blocking socket, so a client that stops
//! reading must not hold it: every socket gets a send timeout
//! (`WRITE_TIMEOUT`) at accept, which bounds a `write` that finds the
//! kernel's send buffer full. A write that times out after a partial
//! send keeps the rest at the front of the buffer for the next pass; a
//! write that times out with nothing sent, or fails, shuts the
//! connection down. Its reader then sees EOF and deregisters it; the
//! client reconnects and retries, and dedup answers from the log. One
//! client that never reads thus costs the others about two timeouts,
//! once, and what the server holds for it is bounded by the kernel's
//! buffer plus two passes of output.
//!
//! A client that dies mid-request costs the server nothing: the reader
//! sees EOF, deregisters, and the command — if already batched — still
//! commits; its ack goes nowhere. When the client reconnects and replays
//! the same `(ClientId, RequestId)`, the engine's dedup layer answers
//! from the decided log without a second apply. The integration suite
//! kills clients mid-request to pin this down.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::audit::ShardedAudit;
use crate::engine::{ConnId, EngineConfig, EngineHandle, KvEngine, Outbound, Sink, SubmitHandle};
use crate::proto::{ControlRequest, Request, TAG_REQUEST};
use crate::wire::{encode_frame, FrameReader, WireError};

/// The send timeout of every server socket (`SO_SNDTIMEO`; reads are
/// not affected): the longest a driver `write` waits for room in a full
/// kernel send buffer. The kernel counts it in scheduler ticks and
/// rounds up, so 20 ms is at least four ticks at HZ = 250: a reader
/// descheduled for a moment is not mistaken for one that stopped, and
/// a stuck one costs the other connections about 40 ms, once.
const WRITE_TIMEOUT: Duration = Duration::from_millis(20);

/// Live sockets by connection, for shutdown to unblock their readers.
type Registry = Mutex<HashMap<ConnId, TcpStream>>;

/// A running networked replicated-KV service.
#[derive(Debug)]
pub struct KvServer {
    engine: KvEngine,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    /// Live sockets; a connection's reader removes its entry on exit.
    socks: Arc<Registry>,
}

impl KvServer {
    /// Spawns the engine and binds the listener (use port 0 for an
    /// ephemeral port; [`addr`](KvServer::addr) reports the real one).
    pub fn bind(addr: &str, config: EngineConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let engine = KvEngine::spawn(config);
        let handle = engine.handle();
        let stop = Arc::new(AtomicBool::new(false));
        let socks = Arc::new(Registry::default());
        let acceptor = {
            let stop = Arc::clone(&stop);
            let socks = Arc::clone(&socks);
            std::thread::spawn(move || accept_loop(&listener, &handle, &stop, &socks))
        };
        Ok(KvServer { engine, addr, stop, acceptor: Some(acceptor), socks })
    }

    /// The bound address clients connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for opening in-process sessions ([`crate::LocalKv`])
    /// against the same engine the sockets feed.
    #[must_use]
    pub fn engine(&self) -> EngineHandle {
        self.engine.handle()
    }

    /// Stops accepting, closes every live socket, drains the engine, and
    /// returns the audit.
    ///
    /// # Panics
    ///
    /// Panics if the acceptor or engine driver thread panicked.
    #[must_use]
    pub fn shutdown(mut self) -> ShardedAudit {
        self.stop_accepting().expect("acceptor thread panicked");
        // Closing the sockets unblocks the per-connection reader threads,
        // whose exits deregister their connections from the engine.
        self.close_sockets();
        self.engine.shutdown()
    }

    /// Hard-crashes the server: sockets are torn down and the engine is
    /// killed without draining or checkpointing — the on-disk state is
    /// whatever the last slot-boundary fsync left. The in-process analog
    /// of `kill -9`, for recovery tests; restart with
    /// [`bind`](KvServer::bind) on the same durability directory.
    pub fn kill(mut self) {
        let _ = self.stop_accepting();
        self.close_sockets();
        self.engine.kill();
    }

    fn close_sockets(&self) {
        for (_, s) in self.socks.lock().expect("socket registry poisoned").drain() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Connections whose reader is still running.
    #[cfg(test)]
    fn live_connections(&self) -> usize {
        self.socks.lock().expect("socket registry poisoned").len()
    }

    /// Sets `stop`, wakes the acceptor's blocking `accept` with one
    /// connection to ourselves, and joins it.
    fn stop_accepting(&mut self) -> std::thread::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // A refused connect means the listener, which the acceptor owns,
        // is already closed.
        let _ = TcpStream::connect(wake);
        self.acceptor.take().map_or(Ok(()), JoinHandle::join)
    }
}

/// Accepts connections until told to stop; each connection gets a reader
/// thread and a sink on the engine. `accept` blocks: a stop is signalled
/// by setting `stop` and then connecting once, and any socket accepted
/// after `stop` (that wake-up, or a client racing it) is dropped.
fn accept_loop(
    listener: &TcpListener,
    engine: &EngineHandle,
    stop: &AtomicBool,
    socks: &Arc<Registry>,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                if let Err(e) = spawn_connection(stream, engine, socks) {
                    // A socket that failed setup is dropped; the peer
                    // sees a closed connection and retries elsewhere.
                    let _ = e;
                }
            }
            // Back off from a persistent error (e.g. out of descriptors)
            // instead of spinning on it.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Wires one accepted socket to the engine: its write side becomes the
/// connection's sink on the driver, its read side the reader thread's.
fn spawn_connection(
    stream: TcpStream,
    engine: &EngineHandle,
    socks: &Arc<Registry>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let read_side = stream.try_clone()?;
    let write_side = SocketOut::new(Tallied(stream.try_clone()?));
    let submit = engine.register(Sink::Socket(write_side));
    let conn = submit.conn();
    socks.lock().expect("socket registry poisoned").insert(conn, stream);

    // Reader: owns the SubmitHandle, so its exit (EOF, truncation,
    // garbage, or a shutdown by the driver or by `shutdown`/`kill`)
    // deregisters the connection.
    let socks = Arc::clone(socks);
    std::thread::spawn(move || {
        let _ = pump_inbound(&mut FrameReader::new(Tallied(read_side)), &submit);
        socks.lock().expect("socket registry poisoned").remove(&conn);
        drop(submit);
    });
    Ok(())
}

/// One socket connection's output, owned by the engine's driver: the
/// frames of a pass are encoded into `pending`, and
/// [`flush`](SocketOut::flush) hands them to the socket with one
/// `write` (module docs).
#[derive(Debug)]
pub(crate) struct SocketOut<W = Tallied> {
    sock: W,
    /// Encoded frames not yet accepted by the socket, oldest first.
    pending: Vec<u8>,
    /// Frames encoded since the last write.
    frames: u64,
}

impl<W: Write> SocketOut<W> {
    fn new(sock: W) -> Self {
        SocketOut { sock, pending: Vec::new(), frames: 0 }
    }

    /// No bytes wait for a write.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Encodes `out` as one frame after the pending ones.
    pub(crate) fn push(&mut self, out: &Outbound) {
        match out {
            Outbound::Ack(resp) => encode_frame(&resp.encode(), &mut self.pending),
            Outbound::Control(bytes) => encode_frame(bytes, &mut self.pending),
        }
        self.frames += 1;
    }

    /// One `write` of everything pending. `Ok(true)`: it all left.
    /// `Ok(false)`: the socket took a prefix (the send timed out part-way,
    /// or a signal cut it short) and the rest stays at the front for the
    /// next pass. `Err`: nothing left before the timeout (`WouldBlock`),
    /// or the socket failed — either way the connection is done.
    fn write_pending(&mut self) -> io::Result<bool> {
        frontdoor_metrics().frames_out.add(std::mem::take(&mut self.frames));
        match self.sock.write(&self.pending) {
            Ok(0) => Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                self.pending.drain(..n);
                Ok(self.pending.is_empty())
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(false),
            Err(e) => Err(e),
        }
    }
}

impl SocketOut {
    /// [`write_pending`](SocketOut::write_pending), shutting the socket
    /// down on `Err`: its reader sees EOF and deregisters the connection.
    pub(crate) fn flush(&mut self) -> io::Result<bool> {
        frontdoor_metrics().flushes.incr();
        let written = self.write_pending();
        if written.is_err() {
            let _ = self.sock.0.shutdown(Shutdown::Both);
        }
        written
    }
}

/// Why a connection's reader stopped before a clean EOF.
#[derive(Debug)]
enum Hangup {
    /// The socket failed, or the stream broke mid-frame or announced an
    /// oversized frame.
    Wire,
    /// A frame that is not a message the server accepts.
    Malformed,
    /// The engine has shut down.
    EngineGone,
}

impl From<WireError> for Hangup {
    fn from(_: WireError) -> Self {
        Hangup::Wire
    }
}

/// Feeds one connection's frames to the engine until a clean EOF
/// (`Ok`) or a [`Hangup`]. After each blocking read it dispatches every
/// frame that read completed, then sends the requests among them as one
/// intake message — also when a bad frame ends the burst, since the
/// requests ahead of it were valid.
fn pump_inbound<R: Read>(reader: &mut FrameReader<R>, submit: &SubmitHandle) -> Result<(), Hangup> {
    let mut requests = Vec::new();
    while let Some(first) = reader.read_frame()? {
        let mut frames = 0;
        let burst = (|| -> Result<(), Hangup> {
            let mut next = Some(first);
            while let Some(payload) = next {
                frames += 1;
                dispatch(&payload, &mut requests, submit)?;
                next = reader.buffered_frame()?;
            }
            Ok(())
        })();
        frontdoor_metrics().frames_in.add(frames);
        send_requests(&mut requests, submit)?;
        burst?;
    }
    Ok(())
}

/// Queues a request frame on `requests`. Any other frame is a
/// [`ControlRequest`]: it first sends the queued requests, then goes to
/// the engine itself, so the connection's order is kept.
fn dispatch(
    payload: &[u8],
    requests: &mut Vec<Request>,
    submit: &SubmitHandle,
) -> Result<(), Hangup> {
    let malformed = |_| Hangup::Malformed;
    if payload.first() == Some(&TAG_REQUEST) {
        requests.push(Request::decode(payload).map_err(malformed)?);
        return Ok(());
    }
    send_requests(requests, submit)?;
    let request = ControlRequest::decode(payload).map_err(malformed)?;
    submit.control(request).then_some(()).ok_or(Hangup::EngineGone)
}

/// Sends the queued requests, if any, as one intake message.
fn send_requests(requests: &mut Vec<Request>, submit: &SubmitHandle) -> Result<(), Hangup> {
    if requests.is_empty() {
        return Ok(());
    }
    frontdoor_metrics().intake_batches.incr();
    // An exact-size copy: the reader keeps its grown buffer.
    let batch = requests.to_vec();
    requests.clear();
    submit.submit_batch(batch).then_some(()).ok_or(Hangup::EngineGone)
}

/// A server socket that counts its `read` and `write` calls.
#[derive(Debug)]
pub(crate) struct Tallied(TcpStream);

impl Read for Tallied {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        frontdoor_metrics().socket_reads.incr();
        self.0.read(buf)
    }
}

impl Write for Tallied {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        frontdoor_metrics().socket_writes.incr();
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

indulgent_obs::metric_family! {
    /// The `server_frontdoor` metric family: every server socket's `read`
    /// and `write` calls and the frames they carried, summed across the
    /// process. `frames_out / socket_writes` is the frames per driver write and
    /// `frames_in / intake_batches` the requests per intake message (control
    /// frames are rare). `intake_batches <= socket_reads` holds unless
    /// control frames split a read's requests. `flushes` counts the driver's
    /// flushes of a socket with output pending, at most one per socket per
    /// pass; each makes one `write`, so `socket_writes == flushes`.
    struct FrontdoorMetrics = "server_frontdoor" {
        socket_reads,
        frames_in,
        intake_batches,
        flushes,
        socket_writes,
        frames_out,
    }
    fn frontdoor_metrics();
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use indulgent_model::{ClientId, RequestId};

    use super::*;
    use crate::engine::EngineMsg;
    use crate::proto::{KvOp, Outcome, Response};
    use crate::wire::FrameDecoder;

    fn put(i: u64) -> Request {
        Request {
            client: ClientId(3),
            request: RequestId(i),
            op: KvOp::Put { key: (i % 7) as u16, value: i as u32 },
        }
    }

    fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for p in payloads {
            encode_frame(p, &mut wire);
        }
        wire
    }

    /// What the reader sent for `wire` (one read: it fits the reader's
    /// chunk), in order, and how it stopped.
    fn intake_for(wire: &[u8]) -> (Result<(), Hangup>, Vec<EngineMsg>) {
        let (submit, intake) = SubmitHandle::detached(ConnId(7));
        let stopped = pump_inbound(&mut FrameReader::new(wire), &submit);
        drop(submit);
        (stopped, std::iter::from_fn(|| intake.try_recv().ok()).collect())
    }

    fn requests_of(msg: &EngineMsg) -> Option<&[Request]> {
        match msg {
            EngineMsg::SubmitBatch { requests, .. } => Some(requests),
            _ => None,
        }
    }

    #[test]
    fn one_read_of_requests_is_one_intake_message() {
        let sent: Vec<Request> = (0..50).map(put).collect();
        let payloads: Vec<Vec<u8>> = sent.iter().map(Request::encode).collect();
        let (stopped, intake) = intake_for(&framed(&payloads));
        assert!(stopped.is_ok(), "a clean EOF ends the connection cleanly");
        assert_eq!(intake.len(), 2, "one batch, then the deregistration: {intake:?}");
        assert_eq!(requests_of(&intake[0]), Some(&sent[..]));
        assert!(matches!(intake[1], EngineMsg::Deregister { conn: ConnId(7) }));
    }

    /// Each kind of control frame reaches the engine as itself, once,
    /// after the requests ahead of it.
    #[test]
    fn control_frames_flush_the_requests_ahead_of_them() {
        for control in [
            ControlRequest::Sync { from_slot: 9, shard: 1 },
            ControlRequest::Audit {},
            ControlRequest::LeaseState { shard: 2 },
            ControlRequest::Stats { shard: 3 },
        ] {
            let payloads =
                vec![put(0).encode(), put(1).encode(), control.encode(), put(2).encode()];
            let (stopped, intake) = intake_for(&framed(&payloads));
            assert!(stopped.is_ok(), "{control:?}");
            assert_eq!(intake.len(), 4, "{intake:?}");
            assert_eq!(requests_of(&intake[0]), Some(&[put(0), put(1)][..]));
            assert!(
                matches!(intake[1], EngineMsg::Control { conn: ConnId(7), request } if request == control),
                "{control:?}: {intake:?}"
            );
            assert_eq!(requests_of(&intake[2]), Some(&[put(2)][..]));
            assert!(matches!(intake[3], EngineMsg::Deregister { .. }));
        }
    }

    /// Garbage, a truncated control frame and an unknown tag each end the
    /// connection, after the requests ahead of them and before any after.
    #[test]
    fn a_bad_frame_drops_the_connection_after_the_requests_ahead_of_it() {
        let good = vec![put(0).encode(), put(1).encode(), put(2).encode()];
        for bad in [b"not a protocol message".to_vec(), vec![0x10, 1, 2], vec![0x7f]] {
            let mut frames = good.clone();
            frames.extend([bad.clone(), put(3).encode()]);
            let (stopped, intake) = intake_for(&framed(&frames));
            assert!(matches!(stopped, Err(Hangup::Malformed)), "{bad:?}: {stopped:?}");
            assert_eq!(requests_of(&intake[0]), Some(&[put(0), put(1), put(2)][..]));
            assert!(matches!(intake[1..], [EngineMsg::Deregister { .. }]), "{bad:?}: {intake:?}");
        }

        // An oversized header ends the burst the same way.
        let mut oversized = framed(&good);
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        let (stopped, intake) = intake_for(&oversized);
        assert!(matches!(stopped, Err(Hangup::Wire)), "{stopped:?}");
        assert_eq!(requests_of(&intake[0]), Some(&[put(0), put(1), put(2)][..]));
    }

    /// A socket stand-in that records every `write`. It takes at most
    /// `room` bytes per call (all of them when `None`), and with no room
    /// it fails as a timed-out send does.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        writes: Vec<usize>,
        room: Option<usize>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.room.map_or(buf.len(), |room| room.min(buf.len()));
            if n == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.bytes.extend_from_slice(&buf[..n]);
            self.writes.push(n);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn ack(i: u64) -> Outbound {
        Outbound::Ack(Response {
            request: RequestId(i),
            shard: 0,
            outcome: Outcome::Put { slot: i },
        })
    }

    fn payload(out: &Outbound) -> Vec<u8> {
        match out {
            Outbound::Ack(r) => r.encode(),
            Outbound::Control(bytes) => bytes.clone(),
        }
    }

    fn decoded(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut decoder = FrameDecoder::new();
        decoder.feed(bytes);
        let frames = std::iter::from_fn(|| decoder.next_frame().unwrap()).collect();
        assert_eq!(decoder.pending(), 0, "no partial frame is left over");
        frames
    }

    #[test]
    fn a_pass_of_acks_is_one_write() {
        let acks: Vec<Outbound> = (0..100).map(ack).collect();
        let mut out = SocketOut::new(Recorder::default());
        acks.iter().for_each(|a| out.push(a));
        assert!(out.write_pending().unwrap(), "everything left");
        assert_eq!(out.sock.writes.len(), 1, "100 acks of one pass, one write");
        assert!(out.is_empty());
        assert_eq!(decoded(&out.sock.bytes), acks.iter().map(payload).collect::<Vec<_>>());
    }

    /// A socket that takes 64 KiB per `write`: a pass's output larger
    /// than that leaves over several passes, one write each, and frames
    /// pushed by later passes queue behind the leftover.
    #[test]
    fn partial_writes_keep_the_rest_and_frames_decode_unchanged_in_order() {
        const ROOM: usize = 64 * 1024;
        let mut first: Vec<Outbound> = (0..3_000).map(ack).collect();
        first.insert(1_000, Outbound::Control(vec![9; crate::wire::MAX_FRAME]));
        let second: Vec<Outbound> =
            (3_000..3_100).map(ack).chain([Outbound::Control(b"last".to_vec())]).collect();
        let mut out = SocketOut::new(Recorder { room: Some(ROOM), ..Recorder::default() });

        first.iter().for_each(|f| out.push(f));
        let total_first = out.pending.len();
        assert!(total_first > 2 * ROOM, "the first pass spans several writes");
        assert!(!out.write_pending().unwrap(), "a prefix left");
        assert_eq!(out.pending.len(), total_first - ROOM, "the rest stays pending");
        second.iter().for_each(|f| out.push(f));
        let mut passes = 1;
        while !out.write_pending().unwrap() {
            passes += 1;
        }
        passes += 1;
        let written = out.sock.bytes.len();
        assert_eq!(out.sock.writes.len(), passes, "one write per pass");
        assert_eq!(passes, written.div_ceil(ROOM), "every write but the last is full");
        let expected: Vec<Vec<u8>> = first.iter().chain(&second).map(payload).collect();
        assert_eq!(decoded(&out.sock.bytes), expected, "frames come out whole and in order");
    }

    #[test]
    fn a_write_that_times_out_with_nothing_sent_ends_the_connection() {
        let mut out = SocketOut::new(Recorder { room: Some(10), ..Recorder::default() });
        (0..4).for_each(|i| out.push(&ack(i)));
        assert!(!out.write_pending().unwrap(), "a partial send is kept going");
        out.sock.room = Some(0);
        let err = out.write_pending().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "{err}");
        assert_eq!(out.sock.writes, [10]);
    }

    #[test]
    fn closed_connections_leave_the_registry() {
        let server =
            KvServer::bind("127.0.0.1:0", EngineConfig::default_5()).expect("bind a server");
        let wait_for = |live: usize| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while server.live_connections() != live {
                assert!(Instant::now() < deadline, "registry never reached {live}");
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        let clients: Vec<TcpStream> =
            (0..100).map(|_| TcpStream::connect(server.addr()).expect("connect")).collect();
        wait_for(100);
        drop(clients);
        wait_for(0);
        server.shutdown().check().expect("audit clean");
    }
}
