//! The TCP front door: framed sockets in, engine intake out.
//!
//! [`KvServer`] binds a listener, hosts the replica group in-process (a
//! [`KvEngine`] running the n-replica consensus
//! session), and bridges each accepted socket to the engine with two
//! threads that move bursts, not frames:
//!
//! * a **reader thread** per connection blocks in one `read`, then takes
//!   every frame that read completed. The requests among them go to the
//!   engine's intake as one message; a control frame (sync, audit, lease
//!   state, stats) first sends the requests ahead of it, so the engine
//!   sees the connection's frames in the order they arrived. A clean EOF,
//!   a truncated frame, or a malformed message deregisters the connection
//!   once the valid requests ahead of it are submitted (the protocol has
//!   no error responses — a peer that cannot speak it is dropped);
//! * a **writer thread** per connection blocks for the engine's next
//!   outbound frame, then takes every one already queued (up to 64 KiB)
//!   and writes them with one `write`.
//!
//! A burst is whatever is already queued: there is no timer and no wait
//! for more, so a lone request is written and submitted as soon as it
//! was before. The `server_frontdoor` metric family counts the sockets'
//! reads and writes, the frames they carried and the request intake
//! messages, so frames per write and requests per intake message can be
//! read off a dump.
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
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use indulgent_obs::Counter;

use crate::audit::ShardedAudit;
use crate::engine::{ConnId, EngineConfig, EngineHandle, KvEngine, Outbound, SubmitHandle};
use crate::proto::{
    lease_state_request_shard, stats_request_shard, Request, SyncFrame, TAG_AUDIT_REQUEST,
    TAG_LEASE_STATE_REQUEST, TAG_REQUEST, TAG_STATS_REQUEST, TAG_SYNC_REQUEST,
};
use crate::wire::{encode_frame, FrameReader, WireError};

/// Bytes a writer gathers before it stops draining its queue and writes
/// (the frame that crosses the bound still goes in whole).
const WRITE_BURST: usize = 64 * 1024;

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
/// and a writer thread. `accept` blocks: a stop is signalled by setting
/// `stop` and then connecting once, and any socket accepted after `stop`
/// (that wake-up, or a client racing it) is dropped.
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

/// Wires one accepted socket to the engine.
fn spawn_connection(
    stream: TcpStream,
    engine: &EngineHandle,
    socks: &Arc<Registry>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let read_side = stream.try_clone()?;
    let write_side = stream.try_clone()?;
    let (submit, outbound) = engine.connect();
    let conn = submit.conn();
    socks.lock().expect("socket registry poisoned").insert(conn, stream);

    // Writer: exits when the engine drops the connection's sender
    // (deregistration) or the socket dies.
    std::thread::spawn(move || pump_outbound(&outbound, &mut Tallied(write_side)));

    // Reader: owns the SubmitHandle, so its exit (EOF, truncation,
    // garbage) deregisters the connection, which disconnects the
    // writer's receiver and lets it exit too.
    let socks = Arc::clone(socks);
    std::thread::spawn(move || {
        let _ = pump_inbound(&mut FrameReader::new(Tallied(read_side)), &submit);
        // Unblock the writer promptly even if the engine keeps the ack
        // sender alive briefly. An entry already gone was shut down by
        // `shutdown`/`kill`.
        if let Some(s) = socks.lock().expect("socket registry poisoned").remove(&conn) {
            let _ = s.shutdown(Shutdown::Write);
        }
        drop(submit);
    });
    Ok(())
}

/// Forwards the engine's outbound frames to `w` until the engine drops
/// the sender or a write fails: blocks for one frame, then encodes every
/// frame already queued, up to `WRITE_BURST` bytes, into one buffer and
/// writes it with one `write_all`.
fn pump_outbound<W: Write>(outbound: &Receiver<Outbound>, w: &mut W) -> io::Result<()> {
    let mut buf = Vec::new();
    while let Ok(first) = outbound.recv() {
        let mut frames = 0;
        let mut next = Some(first);
        while let Some(out) = next {
            match out {
                Outbound::Ack(resp) => encode_frame(&resp.encode(), &mut buf),
                Outbound::Control(bytes) => encode_frame(&bytes, &mut buf),
            }
            frames += 1;
            next = if buf.len() < WRITE_BURST { outbound.try_recv().ok() } else { None };
        }
        frontdoor_metrics().frames_out.add(frames);
        w.write_all(&buf)?;
        buf.clear();
    }
    Ok(())
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

/// Queues a request frame on `requests`. A control frame first sends the
/// queued requests, then goes to the engine itself, so the connection's
/// order is kept.
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
    let sent = match payload.first() {
        Some(&TAG_SYNC_REQUEST) => match SyncFrame::decode(payload) {
            Ok(SyncFrame::Request { shard, .. }) => submit.request_sync(shard),
            _ => return Err(Hangup::Malformed),
        },
        Some(&TAG_AUDIT_REQUEST) => submit.request_audit(),
        Some(&TAG_LEASE_STATE_REQUEST) => {
            submit.request_lease_state(lease_state_request_shard(payload).map_err(malformed)?)
        }
        Some(&TAG_STATS_REQUEST) => {
            submit.request_stats(stats_request_shard(payload).map_err(malformed)?)
        }
        _ => return Err(Hangup::Malformed),
    };
    sent.then_some(()).ok_or(Hangup::EngineGone)
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
struct Tallied(TcpStream);

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

/// The `server_frontdoor` metric family: every server socket's `read`
/// and `write` calls and the frames they carried, summed across the
/// process. `frames_out / socket_writes` is the writers' burst size and
/// `frames_in / intake_batches` the requests per intake message (control
/// frames are rare). `intake_batches <= socket_reads` holds unless
/// control frames split a read's requests.
#[derive(Debug)]
struct FrontdoorMetrics {
    socket_reads: Counter,
    frames_in: Counter,
    intake_batches: Counter,
    socket_writes: Counter,
    frames_out: Counter,
}

static FRONTDOOR_METRICS: FrontdoorMetrics = FrontdoorMetrics {
    socket_reads: Counter::new(),
    frames_in: Counter::new(),
    intake_batches: Counter::new(),
    socket_writes: Counter::new(),
    frames_out: Counter::new(),
};

impl indulgent_obs::MetricFamily for FrontdoorMetrics {
    fn name(&self) -> &'static str {
        "server_frontdoor"
    }

    fn emit(&self, sink: &mut dyn indulgent_obs::MetricSink) {
        sink.counter("socket_reads", self.socket_reads.get());
        sink.counter("frames_in", self.frames_in.get());
        sink.counter("intake_batches", self.intake_batches.get());
        sink.counter("socket_writes", self.socket_writes.get());
        sink.counter("frames_out", self.frames_out.get());
    }
}

static REGISTER_FRONTDOOR_METRICS: std::sync::Once = std::sync::Once::new();

fn frontdoor_metrics() -> &'static FrontdoorMetrics {
    REGISTER_FRONTDOOR_METRICS.call_once(|| indulgent_obs::register_family(&FRONTDOOR_METRICS));
    &FRONTDOOR_METRICS
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::channel;
    use std::time::Instant;

    use indulgent_model::{ClientId, RequestId};

    use super::*;
    use crate::engine::{ControlRequest, EngineMsg};
    use crate::proto::{stats_request_frame, KvOp, Outcome, Response};
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

    #[test]
    fn control_frames_flush_the_requests_ahead_of_them() {
        let payloads =
            vec![put(0).encode(), put(1).encode(), stats_request_frame(0), put(2).encode()];
        let (stopped, intake) = intake_for(&framed(&payloads));
        assert!(stopped.is_ok());
        assert_eq!(intake.len(), 4, "{intake:?}");
        assert_eq!(requests_of(&intake[0]), Some(&[put(0), put(1)][..]));
        assert!(matches!(
            intake[1],
            EngineMsg::Control { conn: ConnId(7), request: ControlRequest::Stats(0) }
        ));
        assert_eq!(requests_of(&intake[2]), Some(&[put(2)][..]));
        assert!(matches!(intake[3], EngineMsg::Deregister { .. }));
    }

    #[test]
    fn a_bad_frame_drops_the_connection_after_the_requests_ahead_of_it() {
        let good = vec![put(0).encode(), put(1).encode(), put(2).encode()];
        let mut garbage = good.clone();
        garbage.extend([b"not a protocol message".to_vec(), put(3).encode()]);
        let (stopped, intake) = intake_for(&framed(&garbage));
        assert!(matches!(stopped, Err(Hangup::Malformed)), "{stopped:?}");
        assert_eq!(requests_of(&intake[0]), Some(&[put(0), put(1), put(2)][..]));
        assert!(matches!(intake[1..], [EngineMsg::Deregister { .. }]), "{intake:?}");

        // An oversized header ends the burst the same way.
        let mut oversized = framed(&good);
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        let (stopped, intake) = intake_for(&oversized);
        assert!(matches!(stopped, Err(Hangup::Wire)), "{stopped:?}");
        assert_eq!(requests_of(&intake[0]), Some(&[put(0), put(1), put(2)][..]));
    }

    /// Accepts anything, recording the size of every `write` call.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            self.writes.push(buf.len());
            Ok(buf.len())
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

    /// Runs the writer over `queued` (the engine already gone) and
    /// returns what it wrote.
    fn written(queued: Vec<Outbound>) -> Recorder {
        let (tx, rx) = channel();
        queued.into_iter().for_each(|out| tx.send(out).unwrap());
        drop(tx);
        let mut out = Recorder::default();
        pump_outbound(&rx, &mut out).unwrap();
        out
    }

    #[test]
    fn a_queued_burst_is_one_write() {
        let out = written((0..100).map(ack).collect());
        assert_eq!(out.writes.len(), 1, "100 queued acks, one write");
    }

    #[test]
    fn bursts_past_the_bound_split_and_decode_unchanged() {
        let mut queued: Vec<Outbound> = (0..3_000).map(ack).collect();
        queued.insert(1_000, Outbound::Control(vec![9; crate::wire::MAX_FRAME]));
        queued.push(Outbound::Control(b"last".to_vec()));
        let expected: Vec<Vec<u8>> = queued
            .iter()
            .map(|out| match out {
                Outbound::Ack(r) => r.encode(),
                Outbound::Control(bytes) => bytes.clone(),
            })
            .collect();
        let out = written(queued);

        assert!(out.bytes.len() > 2 * WRITE_BURST, "the queue spans several bursts");
        let (last, full) = out.writes.split_last().unwrap();
        assert!(!full.is_empty());
        for &w in full {
            assert!(w >= WRITE_BURST, "a burst stops draining only at the bound: {w}");
            assert!(w < 2 * WRITE_BURST + 8, "one frame at most crosses the bound: {w}");
        }
        assert!(*last <= 2 * WRITE_BURST + 8);

        let mut decoder = FrameDecoder::new();
        decoder.feed(&out.bytes);
        let mut decoded = Vec::new();
        while let Some(frame) = decoder.next_frame().unwrap() {
            decoded.push(frame);
        }
        assert_eq!(decoded, expected, "frames come out whole and in order");
        assert_eq!(decoder.pending(), 0);
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
