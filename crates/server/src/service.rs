//! The layered service interface: one workload, two transports.
//!
//! [`KvService`] is the service contract — blocking `put`/`get` with
//! exactly-once acknowledgements. It has two implementations that the
//! integration suite runs the *same* workload against, asserting
//! identical results:
//!
//! * [`LocalKv`] — directly over the engine's intake channel, no
//!   sockets. This is the reference layer: whatever it answers is what
//!   the replicated log dictates.
//! * [`RemoteKv`] — over a framed TCP connection to a
//!   [`KvServer`](crate::KvServer). Everything the transport adds
//!   (framing, encoding, retries, reconnects) must be invisible at this
//!   interface.
//!
//! Both implement the client half of the exactly-once contract: each
//! operation gets a fresh monotonic [`RequestId`], and a retry reuses
//! the *same* id so the service can deduplicate it against the decided
//! log. [`RemoteKv::call_with`] exposes the raw (id, op) call for tests
//! that exercise retries and reconnects explicitly.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use indulgent_model::{ClientId, RequestId};

use crate::engine::{EngineHandle, Outbound, SubmitHandle};
use crate::proto::{
    audit_request_frame, lease_state_request_frame, stats_request_frame, AuditSummary, KvOp,
    LeaseStatus, ProtoError, Request, Response, StatsReport, SyncFrame,
};
use crate::snapshot::Snapshot;
use crate::wal::{replay_bytes, ShardFiles, WalError, WalTail};
use crate::wire::{write_frame, FrameReader, WireError};

/// A failed service call.
#[derive(Debug)]
pub enum ServiceError {
    /// No acknowledgement arrived within the retry budget.
    Timeout {
        /// The request that went unacknowledged.
        request: RequestId,
    },
    /// The engine/server is gone.
    Disconnected,
    /// A transport-level failure (socket or framing).
    Wire(WireError),
    /// The peer sent a frame that does not decode as a response.
    Proto(ProtoError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Timeout { request } => write!(f, "no ack for {request} in time"),
            ServiceError::Disconnected => write!(f, "service is gone"),
            ServiceError::Wire(e) => write!(f, "transport error: {e}"),
            ServiceError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}

impl From<ProtoError> for ServiceError {
    fn from(e: ProtoError) -> Self {
        ServiceError::Proto(e)
    }
}

impl From<WalError> for ServiceError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Malformed(p) => ServiceError::Proto(p),
            WalError::Io(io) => ServiceError::Wire(WireError::Io(io)),
        }
    }
}

/// The replicated key-value service contract.
///
/// Implementations are *sessions*: each carries a [`ClientId`] and mints
/// monotonic request ids, so every call is exactly-once even across
/// retries and (for the remote layer) reconnects. A returned
/// [`Response`] carries the log slot the operation was sequenced at —
/// the linearization point.
pub trait KvService {
    /// Writes `key := value`; acknowledges with the occupied slot.
    fn put(&mut self, key: u16, value: u32) -> Result<Response, ServiceError>;

    /// Reads `key`; acknowledges with the slot and the value the store
    /// held at that point of the total order.
    fn get(&mut self, key: u16) -> Result<Response, ServiceError>;
}

/// The in-process service layer: a session talking straight to the
/// engine's intake channel.
#[derive(Debug)]
pub struct LocalKv {
    client: ClientId,
    next_request: RequestId,
    submit: SubmitHandle,
    acks: Receiver<Outbound>,
    timeout: Duration,
}

impl LocalKv {
    /// Opens a local session on a running engine.
    #[must_use]
    pub fn connect(engine: &EngineHandle, client: ClientId) -> Self {
        let (submit, acks) = engine.connect();
        LocalKv {
            client,
            next_request: RequestId(0),
            submit,
            acks,
            timeout: Duration::from_secs(10),
        }
    }

    /// This session's client id.
    #[must_use]
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Submits `(request, op)` and waits for its acknowledgement.
    /// Public so tests can replay an explicit request id (a retry);
    /// replaying advances the session's minting cursor past it, so the
    /// next fresh call never collides with the replayed id.
    pub fn call_with(&mut self, request: RequestId, op: KvOp) -> Result<Response, ServiceError> {
        self.next_request = self.next_request.max(request.next());
        if !self.submit.submit(Request { client: self.client, request, op }) {
            return Err(ServiceError::Disconnected);
        }
        let deadline = Instant::now() + self.timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ServiceError::Timeout { request });
            }
            match self.acks.recv_timeout(left) {
                // Stale acks (from an earlier retried request) and
                // control frames are skipped; the matching ack ends the
                // call.
                Ok(Outbound::Ack(resp)) if resp.request == request => return Ok(resp),
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => return Err(ServiceError::Timeout { request }),
                Err(RecvTimeoutError::Disconnected) => return Err(ServiceError::Disconnected),
            }
        }
    }

    fn call(&mut self, op: KvOp) -> Result<Response, ServiceError> {
        let request = self.next_request;
        self.next_request = request.next();
        self.call_with(request, op)
    }
}

impl KvService for LocalKv {
    fn put(&mut self, key: u16, value: u32) -> Result<Response, ServiceError> {
        self.call(KvOp::Put { key, value })
    }

    fn get(&mut self, key: u16) -> Result<Response, ServiceError> {
        self.call(KvOp::Get { key })
    }
}

/// The networked service layer: a session over one framed TCP
/// connection.
///
/// A call writes the request frame and blocks (with a read timeout) for
/// the matching acknowledgement, re-sending the *same* request id if an
/// ack is slow — the server's dedup layer absorbs the duplicates. To
/// survive a dropped connection, open a new `RemoteKv` with the same
/// [`ClientId`] and replay the in-doubt request id via
/// [`call_with`](RemoteKv::call_with).
#[derive(Debug)]
pub struct RemoteKv {
    client: ClientId,
    next_request: RequestId,
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
    /// Re-send the in-flight request after this long without an ack.
    retry_after: Duration,
    /// Give up after this long.
    deadline: Duration,
}

impl RemoteKv {
    /// Connects a session to a server.
    pub fn connect(addr: SocketAddr, client: ClientId) -> Result<Self, ServiceError> {
        Self::connect_from(addr, client, RequestId(0))
    }

    /// Connects a session that resumes minting request ids at `resume` —
    /// the reconnect path: same [`ClientId`], ids continue where the
    /// dropped connection left off, so replayed requests deduplicate.
    pub fn connect_from(
        addr: SocketAddr,
        client: ClientId,
        resume: RequestId,
    ) -> Result<Self, ServiceError> {
        let writer = TcpStream::connect(addr).map_err(WireError::Io)?;
        writer.set_nodelay(true).map_err(WireError::Io)?;
        let read_side = writer.try_clone().map_err(WireError::Io)?;
        read_side.set_read_timeout(Some(Duration::from_millis(20))).map_err(WireError::Io)?;
        Ok(RemoteKv {
            client,
            next_request: resume,
            writer,
            reader: FrameReader::new(read_side),
            retry_after: Duration::from_millis(500),
            deadline: Duration::from_secs(10),
        })
    }

    /// This session's client id.
    #[must_use]
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// The next request id this session will mint (hand it to
    /// [`connect_from`](RemoteKv::connect_from) when reconnecting).
    #[must_use]
    pub fn next_request(&self) -> RequestId {
        self.next_request
    }

    /// Submits `(request, op)` and waits for the matching ack, re-sending
    /// the same id on slow acks. Public so tests can replay an explicit
    /// request id across retries and reconnects; replaying advances the
    /// session's minting cursor past it, so the next fresh call never
    /// collides with the replayed id.
    pub fn call_with(&mut self, request: RequestId, op: KvOp) -> Result<Response, ServiceError> {
        self.next_request = self.next_request.max(request.next());
        let frame = Request { client: self.client, request, op }.encode();
        write_frame(&mut self.writer, &frame)?;
        let start = Instant::now();
        let mut last_send = start;
        loop {
            if start.elapsed() > self.deadline {
                return Err(ServiceError::Timeout { request });
            }
            match self.reader.read_frame() {
                Ok(Some(payload)) => {
                    let resp = Response::decode(&payload)?;
                    // Acks of earlier retried requests may still be in
                    // flight; only the matching one ends the call.
                    if resp.request == request {
                        return Ok(resp);
                    }
                }
                Ok(None) => return Err(ServiceError::Disconnected),
                Err(WireError::Io(e)) if retryable(&e) => {
                    if last_send.elapsed() >= self.retry_after {
                        write_frame(&mut self.writer, &frame)?;
                        last_send = Instant::now();
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn call(&mut self, op: KvOp) -> Result<Response, ServiceError> {
        let request = self.next_request;
        self.next_request = request.next();
        self.call_with(request, op)
    }
}

impl KvService for RemoteKv {
    fn put(&mut self, key: u16, value: u32) -> Result<Response, ServiceError> {
        self.call(KvOp::Put { key, value })
    }

    fn get(&mut self, key: u16) -> Result<Response, ServiceError> {
        self.call(KvOp::Get { key })
    }
}

/// A pipelined raw connection: sends requests without waiting for acks
/// (open loop) and drains whatever acknowledgements have arrived. The
/// caller layers its own bookkeeping (ack matching, monotonic-slot
/// checks) on top.
#[derive(Debug)]
pub struct PipeClient {
    client: ClientId,
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
}

/// How long [`PipeClient::drain_acks`] waits for an ack before it
/// returns what it has.
const PIPE_POLL: Duration = Duration::from_millis(1);

impl PipeClient {
    /// Connects a pipelined session.
    pub fn connect(addr: SocketAddr, client: ClientId) -> Result<Self, ServiceError> {
        let writer = TcpStream::connect(addr).map_err(WireError::Io)?;
        writer.set_nodelay(true).map_err(WireError::Io)?;
        let read_side = writer.try_clone().map_err(WireError::Io)?;
        read_side.set_read_timeout(Some(PIPE_POLL)).map_err(WireError::Io)?;
        Ok(PipeClient { client, writer, reader: FrameReader::new(read_side) })
    }

    /// This session's client id.
    #[must_use]
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Sends one request without waiting for its ack.
    pub fn send(&mut self, request: RequestId, op: KvOp) -> Result<(), ServiceError> {
        let frame = Request { client: self.client, request, op }.encode();
        write_frame(&mut self.writer, &frame)?;
        Ok(())
    }

    /// Drains acknowledgements already buffered (returning on the first
    /// read timeout). `Ok(acks)` may be empty.
    pub fn drain_acks(&mut self) -> Result<Vec<Response>, ServiceError> {
        let mut acks = Vec::new();
        loop {
            match self.reader.read_frame() {
                Ok(Some(payload)) => acks.push(Response::decode(&payload)?),
                Ok(None) => {
                    if acks.is_empty() {
                        return Err(ServiceError::Disconnected);
                    }
                    return Ok(acks);
                }
                Err(WireError::Io(ref e)) if retryable(e) => return Ok(acks),
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Socket errors that mean "no data yet", not "connection broken".
fn retryable(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// One control call on a dedicated connection: sends `request`, then
/// hands each reply frame to `reply` (which may write follow-ups) until
/// it yields a value, the peer hangs up, or `timeout` lapses.
fn control_call<T>(
    peer: SocketAddr,
    request: &[u8],
    timeout: Duration,
    mut reply: impl FnMut(&[u8], &mut TcpStream) -> Result<Option<T>, ServiceError>,
) -> Result<T, ServiceError> {
    let mut writer = TcpStream::connect(peer).map_err(WireError::Io)?;
    writer.set_nodelay(true).map_err(WireError::Io)?;
    let read_side = writer.try_clone().map_err(WireError::Io)?;
    read_side.set_read_timeout(Some(Duration::from_millis(50))).map_err(WireError::Io)?;
    let mut reader = FrameReader::new(read_side);
    let deadline = Instant::now() + timeout;
    write_frame(&mut writer, request)?;
    loop {
        if Instant::now() > deadline {
            return Err(ServiceError::Timeout { request: RequestId(0) });
        }
        match reader.read_frame() {
            Ok(Some(payload)) => {
                if let Some(value) = reply(&payload, &mut writer)? {
                    return Ok(value);
                }
            }
            Ok(None) => return Err(ServiceError::Disconnected),
            Err(WireError::Io(ref e)) if retryable(e) => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Pulls one shard's durable state from a peer over its framed TCP port
/// and materializes it into `dir` — the per-shard rejoin transfer. Opens
/// a dedicated connection, sends a [`SyncFrame::Request`] naming the
/// shard, reassembles the chunked snapshot, collects the catch-up
/// records, verifies everything (checksums, slot contiguity from the
/// snapshot, the peer's declared `applied_through`), and writes the
/// snapshot and WAL so a server booted with `dir` as that shard's
/// subdirectory resumes exactly at the peer's applied prefix. Returns
/// the shard-local slot the transferred state is applied through. For a
/// whole-service rejoin across every shard, use [`sync_all_from_peer`].
pub fn sync_from_peer(peer: SocketAddr, shard: u32, dir: &Path) -> Result<u64, ServiceError> {
    let malformed = || ServiceError::Proto(ProtoError::Truncated);
    let mut blob: Vec<u8> = Vec::new();
    let mut chunks_seen = 0u32;
    let mut wal_bytes: Vec<u8> = Vec::new();
    let request = SyncFrame::Request { from_slot: 0, shard }.encode();
    let applied_through = control_call(peer, &request, Duration::from_secs(30), |payload, _| {
        match SyncFrame::decode(payload)? {
            SyncFrame::SnapshotChunk { index, total, bytes } => {
                if index != chunks_seen || index >= total {
                    return Err(malformed());
                }
                chunks_seen += 1;
                blob.extend_from_slice(&bytes);
            }
            SyncFrame::Record { bytes } => wal_bytes.extend_from_slice(&bytes),
            SyncFrame::Done { applied_through } => return Ok(Some(applied_through)),
            SyncFrame::Request { .. } => return Err(malformed()),
        }
        Ok(None)
    })?;
    // Validate before persisting: the snapshot must verify, and the
    // records must replay cleanly and contiguously up to the peer's
    // declared watermark.
    let snap = Snapshot::from_framed_bytes(&blob)?;
    let replay = replay_bytes(&wal_bytes)?;
    let contiguous =
        (snap.applied_through + 1..).zip(&replay.records).all(|(slot, rec)| rec.slot == slot);
    let through = snap.applied_through + replay.records.len() as u64;
    if replay.tail != WalTail::Clean || !contiguous || through != applied_through {
        return Err(malformed());
    }
    ShardFiles::install(dir, &snap, &wal_bytes)?;
    Ok(applied_through)
}

/// Rejoins a whole service from a peer: pulls every shard's durable
/// state into `shard-<i>/` subdirectories of `root` (via
/// [`sync_from_peer`]) and writes the fsynced shard-count manifest, so a
/// server booted on `root` with the same shard count recovers the peer's
/// full applied state. Returns the sum of the per-shard applied
/// watermarks (the total applied slot count).
pub fn sync_all_from_peer(peer: SocketAddr, shards: u32, root: &Path) -> Result<u64, ServiceError> {
    let mut total = 0u64;
    for shard in 0..shards {
        total += sync_from_peer(peer, shard, &crate::shard::shard_dir(root, shard))?;
    }
    crate::shard::store_manifest(root, shards).map_err(WireError::Io)?;
    Ok(total)
}

/// Runs the server-side replay audit over the wire: asks the peer to
/// audit itself and retries until the engine reports a quiesced,
/// `complete` verdict (or the timeout lapses). Uses a dedicated
/// connection; call it once load has stopped.
pub fn remote_audit(peer: SocketAddr, timeout: Duration) -> Result<AuditSummary, ServiceError> {
    control_call(peer, &audit_request_frame(), timeout, |payload, writer| {
        let summary = AuditSummary::decode(payload)?;
        if summary.complete {
            return Ok(Some(summary));
        }
        // Not yet quiesced; ask again shortly.
        std::thread::sleep(Duration::from_millis(50));
        write_frame(writer, &audit_request_frame())?;
        Ok(None)
    })
}

/// Fetches one shard's live lease state over the wire: read mode,
/// current epoch, lease health, and the read-path counters. Unlike
/// [`remote_audit`] this does not wait for quiescence — it is a
/// point-in-time dump, usable mid-load and in failure artifacts. A
/// request naming a shard the peer does not host gets no reply and
/// times out.
pub fn remote_lease_state(
    peer: SocketAddr,
    shard: u32,
    timeout: Duration,
) -> Result<LeaseStatus, ServiceError> {
    control_call(peer, &lease_state_request_frame(shard), timeout, |payload, _| {
        Ok(Some(LeaseStatus::decode(payload)?))
    })
}

/// Scrapes one shard's live pipeline metrics over the wire: slot and
/// command counters plus the stage-latency histograms (submit→seal,
/// seal→decide, decide→apply, apply→ack, WAL fsync, seal-time queue
/// depth). Like [`remote_lease_state`] this is a point-in-time dump —
/// no quiescence, usable mid-load. Scrape every shard and fold the
/// reports with [`StatsReport::merge`] for a whole-service aggregate. A
/// request naming a shard the peer does not host gets no reply and
/// times out.
pub fn remote_stats(
    peer: SocketAddr,
    shard: u32,
    timeout: Duration,
) -> Result<StatsReport, ServiceError> {
    control_call(peer, &stats_request_frame(shard), timeout, |payload, _| {
        Ok(Some(StatsReport::decode(payload)?))
    })
}
