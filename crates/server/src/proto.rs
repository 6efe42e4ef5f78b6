//! The request/response protocol riding the framed transport.
//!
//! One frame carries one message. Requests name their submitter: a
//! `(ClientId, RequestId)` pair is the service-wide exactly-once key
//! (see [`crate::engine`]), so the protocol's retry story is simply
//! "send the same request again" — same pair, same frame — and the
//! service answers with the original acknowledgement.
//!
//! Responses carry the *log slot* the command was sequenced at, and the
//! shard group whose log numbered it. `(shard, slot)` is the service's
//! linearization point: each shard owns an independent, disjoint slice
//! of the keyspace with its own totally ordered log, so acknowledgements
//! let a client (and the load generator's gate) audit that its session
//! order was respected *per shard* — on one connection, ack slots for a
//! given shard never decrease.
//!
//! Serialization is a fixed-layout little-endian byte format written by
//! hand: the messages are a handful of integers, and the vendored serde
//! facade intentionally has no byte format, so the service owns its wire
//! surface end to end (matching [`crate::wire`]'s vendored framing).

use std::fmt;

use indulgent_model::{ClientId, RequestId};
use indulgent_obs::{HistogramSnapshot, BUCKETS};

/// A key-value operation.
///
/// Writes are always *sequenced through the replicated log*: a `Put`
/// occupies a slot. Reads come in two flavors at the engine's
/// discretion: a sequenced `Get` occupies a slot like a write
/// ([`Outcome::Get`]), while a lease-protected *fast read* bypasses the
/// log and is answered at a read index ([`Outcome::Read`]) — see
/// [`crate::lease`]. A client sends the same `Get` either way; the
/// outcome tag tells it which path answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvOp {
    /// `key := value`.
    Put {
        /// The key written.
        key: u16,
        /// The value stored.
        value: u32,
    },
    /// Read `key`.
    Get {
        /// The key read.
        key: u16,
    },
}

impl KvOp {
    /// Packs the operation into the `u64` command payload that rides the
    /// log's dissemination layer (bit 63 = op kind, bits 32..48 = key,
    /// bits 0..32 = value).
    #[must_use]
    pub fn to_payload(self) -> u64 {
        match self {
            KvOp::Put { key, value } => (1 << 63) | (u64::from(key) << 32) | u64::from(value),
            KvOp::Get { key } => u64::from(key) << 32,
        }
    }

    /// Unpacks a command payload back into the operation.
    #[must_use]
    pub fn from_payload(payload: u64) -> Self {
        let key = ((payload >> 32) & 0xffff) as u16;
        if payload >> 63 == 1 {
            KvOp::Put { key, value: (payload & 0xffff_ffff) as u32 }
        } else {
            KvOp::Get { key }
        }
    }

    /// The key the operation addresses — the shard-routing input. Every
    /// operation names exactly one key, which is what makes static
    /// key-to-shard placement sound.
    #[must_use]
    pub fn key(self) -> u16 {
        match self {
            KvOp::Put { key, .. } | KvOp::Get { key } => key,
        }
    }
}

impl fmt::Display for KvOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvOp::Put { key, value } => write!(f, "put {key} := {value}"),
            KvOp::Get { key } => write!(f, "get {key}"),
        }
    }
}

/// A client request: who is asking, which retry-safe request number this
/// is, and what to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The submitting session.
    pub client: ClientId,
    /// The session's monotonic request number (reuse = retry).
    pub request: RequestId,
    /// The operation.
    pub op: KvOp,
}

/// What the service acknowledged for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The write was sequenced at `slot` and applied.
    Put {
        /// The log slot the write occupies.
        slot: u64,
    },
    /// The read was sequenced at `slot`; `value` is the key's value in
    /// the store materialized by all slots before it (`None` = unset).
    Get {
        /// The log slot the read occupies.
        slot: u64,
        /// The value read, if the key was set.
        value: Option<u32>,
    },
    /// The read was served on the lease/quorum fast path, without
    /// occupying a slot: `value` is the key's value in the store
    /// materialized by every slot `<= index`. Linearized after slot
    /// `index` and before slot `index + 1`.
    Read {
        /// The read index (the leader's applied frontier at serve time).
        index: u64,
        /// The value read, if the key was set.
        value: Option<u32>,
    },
}

impl Outcome {
    /// The outcome's linearization point: the log slot a sequenced
    /// command occupies, or the read index of a fast read. Both are
    /// monotone per connection, so the session-order gate treats them
    /// uniformly.
    #[must_use]
    pub fn slot(self) -> u64 {
        match self {
            Outcome::Put { slot } | Outcome::Get { slot, .. } => slot,
            Outcome::Read { index, .. } => index,
        }
    }
}

/// A service response: the acknowledged request and its outcome.
///
/// Responses are *idempotent*: retries of an applied request receive a
/// byte-identical response replayed from the dedup cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// The request being acknowledged.
    pub request: RequestId,
    /// The shard group that sequenced (or fast-served) the request. The
    /// outcome's slot/index lives in this shard's numbering: the
    /// linearization point is `(shard, slot)`.
    pub shard: u32,
    /// What happened.
    pub outcome: Outcome,
}

/// Frame tag of a client [`Request`].
pub const TAG_REQUEST: u8 = 0x01;
/// Frame tag of a service [`Response`].
pub const TAG_RESPONSE: u8 = 0x02;
/// Frame tag of a rejoin [`SyncFrame::Request`].
pub const TAG_SYNC_REQUEST: u8 = 0x03;
/// Frame tag of a [`SyncFrame::SnapshotChunk`].
pub const TAG_SYNC_SNAPSHOT: u8 = 0x04;
/// Frame tag of a [`SyncFrame::Record`] catch-up record.
pub const TAG_SYNC_RECORD: u8 = 0x05;
/// Frame tag of [`SyncFrame::Done`].
pub const TAG_SYNC_DONE: u8 = 0x06;
/// Frame tag of an audit request (tag-only message).
pub const TAG_AUDIT_REQUEST: u8 = 0x07;
/// Frame tag of an [`AuditSummary`] reply.
pub const TAG_AUDIT_REPLY: u8 = 0x08;
/// Frame tag of a lease-state request addressed to one shard group.
pub const TAG_LEASE_STATE_REQUEST: u8 = 0x0e;
/// Frame tag of a [`LeaseStatus`] reply.
pub const TAG_LEASE_STATE: u8 = 0x0f;
/// Frame tag of a metrics-scrape request addressed to one shard group.
pub const TAG_STATS_REQUEST: u8 = 0x10;
/// Frame tag of a [`StatsReport`] reply.
pub const TAG_STATS: u8 = 0x11;
const OP_PUT: u8 = 0x01;
const OP_GET: u8 = 0x02;
const OP_READ: u8 = 0x03;
const VAL_NONE: u8 = 0x00;
const VAL_SOME: u8 = 0x01;

/// A malformed protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload ended before the message did.
    Truncated,
    /// An unknown message/op/option tag.
    BadTag(u8),
    /// Bytes left over after a complete message.
    TrailingBytes,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "message truncated"),
            ProtoError::BadTag(t) => write!(f, "unknown tag 0x{t:02x}"),
            ProtoError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Little-endian byte cursor: the one reader of every fixed-layout
/// format the server decodes, on the wire and on disk ([`crate::wal`]).
pub(crate) struct Cursor<'a>(pub(crate) &'a [u8]);

impl<'a> Cursor<'a> {
    pub(crate) fn u8(&mut self) -> Result<u8, ProtoError> {
        let (&b, rest) = self.0.split_first().ok_or(ProtoError::Truncated)?;
        self.0 = rest;
        Ok(b)
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    pub(crate) fn take<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        Ok(self.bytes(N)?.try_into().expect("split at N"))
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.0.len() < n {
            return Err(ProtoError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// Reads a value written by [`put_value`].
    fn value(&mut self) -> Result<Option<u32>, ProtoError> {
        match self.u8()? {
            VAL_NONE => Ok(None),
            VAL_SOME => Ok(Some(self.u32()?)),
            t => Err(ProtoError::BadTag(t)),
        }
    }

    /// Reads a bool written as `u8::from(b)`, refusing every byte but 0
    /// and 1.
    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(ProtoError::BadTag(b)),
        }
    }

    /// Reads a message tag, refusing every tag but `expected`.
    fn tag(&mut self, expected: u8) -> Result<(), ProtoError> {
        match self.u8()? {
            t if t == expected => Ok(()),
            t => Err(ProtoError::BadTag(t)),
        }
    }

    pub(crate) fn finish(self) -> Result<(), ProtoError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes)
        }
    }
}

/// Writes a read's value: a presence byte, then the value if set.
fn put_value(out: &mut Vec<u8>, value: Option<u32>) {
    match value {
        Some(v) => {
            out.push(VAL_SOME);
            out.extend_from_slice(&v.to_le_bytes());
        }
        None => out.push(VAL_NONE),
    }
}

/// The rejoin sync protocol, riding the same framed transport as the
/// request/response traffic.
///
/// A rejoining replica opens an ordinary connection and sends
/// [`SyncFrame::Request`]; the server streams its last checkpoint
/// (chunked under the [`crate::wire::MAX_FRAME`] bound), then every
/// retained WAL record past the checkpoint, then [`SyncFrame::Done`].
/// The receiver persists exactly what a local checkpoint + WAL would
/// hold and boots through the normal disk-recovery path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncFrame {
    /// Ask for a state transfer of one shard group (`from_slot` is the
    /// requester's durable applied-through, advisory). A full rejoin
    /// issues one request per shard.
    Request {
        /// The requester's own durable applied-through slot.
        from_slot: u64,
        /// The shard group whose checkpoint + WAL is wanted.
        shard: u32,
    },
    /// One chunk of the framed snapshot bytes, `index` of `total`.
    SnapshotChunk {
        /// 0-based chunk index.
        index: u32,
        /// Total chunk count.
        total: u32,
        /// The chunk bytes.
        bytes: Vec<u8>,
    },
    /// One catch-up slot record (a WAL record payload, checksum-framed).
    Record {
        /// The framed record bytes.
        bytes: Vec<u8>,
    },
    /// End of transfer: the peer's applied-through slot.
    Done {
        /// Every slot `<= applied_through` is covered by the transfer.
        applied_through: u64,
    },
}

impl SyncFrame {
    /// Encodes the frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            SyncFrame::Request { from_slot, shard } => {
                let mut out = Vec::with_capacity(13);
                out.push(TAG_SYNC_REQUEST);
                out.extend_from_slice(&from_slot.to_le_bytes());
                out.extend_from_slice(&shard.to_le_bytes());
                out
            }
            SyncFrame::SnapshotChunk { index, total, bytes } => {
                let mut out = Vec::with_capacity(9 + bytes.len());
                out.push(TAG_SYNC_SNAPSHOT);
                out.extend_from_slice(&index.to_le_bytes());
                out.extend_from_slice(&total.to_le_bytes());
                out.extend_from_slice(bytes);
                out
            }
            SyncFrame::Record { bytes } => {
                let mut out = Vec::with_capacity(1 + bytes.len());
                out.push(TAG_SYNC_RECORD);
                out.extend_from_slice(bytes);
                out
            }
            SyncFrame::Done { applied_through } => {
                let mut out = Vec::with_capacity(9);
                out.push(TAG_SYNC_DONE);
                out.extend_from_slice(&applied_through.to_le_bytes());
                out
            }
        }
    }

    /// Decodes one frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut c = Cursor(bytes);
        let frame = match c.u8()? {
            TAG_SYNC_REQUEST => SyncFrame::Request { from_slot: c.u64()?, shard: c.u32()? },
            TAG_SYNC_SNAPSHOT => {
                let index = c.u32()?;
                let total = c.u32()?;
                let rest = c.bytes(c.0.len())?.to_vec();
                SyncFrame::SnapshotChunk { index, total, bytes: rest }
            }
            TAG_SYNC_RECORD => SyncFrame::Record { bytes: c.bytes(c.0.len())?.to_vec() },
            TAG_SYNC_DONE => SyncFrame::Done { applied_through: c.u64()? },
            t => return Err(ProtoError::BadTag(t)),
        };
        c.finish()?;
        Ok(frame)
    }
}

/// The tag-only audit request frame payload.
#[must_use]
pub fn audit_request_frame() -> Vec<u8> {
    vec![TAG_AUDIT_REQUEST]
}

/// The engine's answer to an over-the-wire audit request.
///
/// The full linearizability-by-replay check
/// ([`crate::ServiceAudit::check`]) runs on the server, against the
/// combined pre/post-restart history; only the verdict and the headline
/// counters travel back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditSummary {
    /// Whether the engine was quiescent enough to audit (no in-flight
    /// instances or pending replica reports). Retry when `false`.
    pub complete: bool,
    /// The verdict of `ServiceAudit::check` (meaningful when `complete`).
    pub ok: bool,
    /// Slots applied so far (across incarnations).
    pub slots: u64,
    /// Commands committed over the service lifetime.
    pub committed: u64,
    /// Retries absorbed by the dedup layer.
    pub dedup_hits: u64,
    /// Reads served off the log (lease + quorum fast paths), audited
    /// against the decided-prefix replay.
    pub fast_reads: u64,
    /// The lease epoch the engine is serving under (0 = leases off).
    pub lease_epoch: u64,
    /// How many shard groups the service runs (the audit verdict covers
    /// all of them, cross-shard checks included).
    pub shards: u32,
}

impl AuditSummary {
    /// Encodes the reply payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(47);
        out.push(TAG_AUDIT_REPLY);
        out.push(u8::from(self.complete));
        out.push(u8::from(self.ok));
        out.extend_from_slice(&self.slots.to_le_bytes());
        out.extend_from_slice(&self.committed.to_le_bytes());
        out.extend_from_slice(&self.dedup_hits.to_le_bytes());
        out.extend_from_slice(&self.fast_reads.to_le_bytes());
        out.extend_from_slice(&self.lease_epoch.to_le_bytes());
        out.extend_from_slice(&self.shards.to_le_bytes());
        out
    }

    /// Decodes one frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut c = Cursor(bytes);
        c.tag(TAG_AUDIT_REPLY)?;
        let complete = c.bool()?;
        let ok = c.bool()?;
        let slots = c.u64()?;
        let committed = c.u64()?;
        let dedup_hits = c.u64()?;
        let fast_reads = c.u64()?;
        let lease_epoch = c.u64()?;
        let shards = c.u32()?;
        c.finish()?;
        Ok(AuditSummary {
            complete,
            ok,
            slots,
            committed,
            dedup_hits,
            fast_reads,
            lease_epoch,
            shards,
        })
    }
}

/// A shard-addressed request frame payload: `tag`, then the shard.
fn shard_request_frame(tag: u8, shard: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    out.push(tag);
    out.extend_from_slice(&shard.to_le_bytes());
    out
}

/// Parses the shard a `tag`-tagged shard-addressed request names.
fn shard_request_shard(tag: u8, bytes: &[u8]) -> Result<u32, ProtoError> {
    let mut c = Cursor(bytes);
    c.tag(tag)?;
    let shard = c.u32()?;
    c.finish()?;
    Ok(shard)
}

/// The lease-state request frame payload, addressed to one shard group's
/// lease agent.
#[must_use]
pub fn lease_state_request_frame(shard: u32) -> Vec<u8> {
    shard_request_frame(TAG_LEASE_STATE_REQUEST, shard)
}

/// Parses the shard a lease-state request addresses.
pub fn lease_state_request_shard(bytes: &[u8]) -> Result<u32, ProtoError> {
    shard_request_shard(TAG_LEASE_STATE_REQUEST, bytes)
}

/// A point-in-time dump of the engine's lease and read-path state —
/// the observability (and CI failure-artifact) surface of the lease
/// subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseStatus {
    /// The shard group this dump describes.
    pub shard: u32,
    /// How many shard groups the service runs (each with its own lease).
    pub shards: u32,
    /// The configured read path: 0 = sequenced, 1 = quorum, 2 = lease.
    pub mode: u8,
    /// The current lease epoch (0 when leases are disabled).
    pub epoch: u64,
    /// Whether the lease is currently healthy (a quorum of unexpired
    /// grants with safety margin).
    pub healthy: bool,
    /// Grants held (healthy or not).
    pub grants: u32,
    /// The current read index (the leader's applied frontier).
    pub read_index: u64,
    /// Reads served on the lease fast path.
    pub reads_lease: u64,
    /// Reads served through the quorum-attest fallback.
    pub reads_quorum: u64,
    /// Reads sequenced through the log (bottom of the ladder).
    pub reads_sequenced: u64,
}

impl LeaseStatus {
    /// Encodes the reply payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(55);
        out.push(TAG_LEASE_STATE);
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.shards.to_le_bytes());
        out.push(self.mode);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.push(u8::from(self.healthy));
        out.extend_from_slice(&self.grants.to_le_bytes());
        out.extend_from_slice(&self.read_index.to_le_bytes());
        out.extend_from_slice(&self.reads_lease.to_le_bytes());
        out.extend_from_slice(&self.reads_quorum.to_le_bytes());
        out.extend_from_slice(&self.reads_sequenced.to_le_bytes());
        out
    }

    /// Decodes one frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut c = Cursor(bytes);
        c.tag(TAG_LEASE_STATE)?;
        let status = LeaseStatus {
            shard: c.u32()?,
            shards: c.u32()?,
            mode: match c.u8()? {
                mode @ 0..=2 => mode,
                mode => return Err(ProtoError::BadTag(mode)),
            },
            epoch: c.u64()?,
            healthy: c.bool()?,
            grants: c.u32()?,
            read_index: c.u64()?,
            reads_lease: c.u64()?,
            reads_quorum: c.u64()?,
            reads_sequenced: c.u64()?,
        };
        c.finish()?;
        Ok(status)
    }
}

impl fmt::Display for LeaseStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match self.mode {
            0 => "sequenced",
            1 => "quorum",
            _ => "lease",
        };
        write!(
            f,
            "shard={}/{} reads={mode} epoch={} healthy={} grants={} read_index={} \
             served lease={} quorum={} sequenced={}",
            self.shard,
            self.shards,
            self.epoch,
            self.healthy,
            self.grants,
            self.read_index,
            self.reads_lease,
            self.reads_quorum,
            self.reads_sequenced
        )
    }
}

/// The metrics-scrape request frame payload, addressed to one shard
/// group's engine.
#[must_use]
pub fn stats_request_frame(shard: u32) -> Vec<u8> {
    shard_request_frame(TAG_STATS_REQUEST, shard)
}

/// Parses the shard a metrics-scrape request addresses.
pub fn stats_request_shard(bytes: &[u8]) -> Result<u32, ProtoError> {
    shard_request_shard(TAG_STATS_REQUEST, bytes)
}

/// Writes a histogram snapshot: 64 bucket counts, then sum, then max
/// (all `u64` LE). The observation count is not carried — it is the sum
/// of the buckets, recomputed on decode.
fn encode_histogram(out: &mut Vec<u8>, snap: &HistogramSnapshot) {
    for b in &snap.buckets {
        out.extend_from_slice(&b.to_le_bytes());
    }
    out.extend_from_slice(&snap.sum.to_le_bytes());
    out.extend_from_slice(&snap.max.to_le_bytes());
}

fn decode_histogram(c: &mut Cursor<'_>) -> Result<HistogramSnapshot, ProtoError> {
    let mut buckets = [0u64; BUCKETS];
    let mut count = 0u64;
    for b in &mut buckets {
        *b = c.u64()?;
        count += *b;
    }
    Ok(HistogramSnapshot { buckets, count, sum: c.u64()?, max: c.u64()? })
}

/// A point-in-time scrape of one shard group's engine metrics — the
/// wire form of the server-side observability layer (see
/// `indulgent-obs`). Histograms travel as raw bucket counts, so the
/// *client* derives whatever percentiles it wants and cross-shard
/// aggregates merge exactly ([`HistogramSnapshot::merge`]); stage
/// latencies and the WAL fsync are in nanoseconds, the seal-depth
/// histogram counts queued batches sampled at each seal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsReport {
    /// The shard group this scrape describes.
    pub shard: u32,
    /// How many shard groups the service runs.
    pub shards: u32,
    /// Slots applied by this shard's state machine.
    pub slots: u64,
    /// Commands acknowledged (applied, exactly-once).
    pub committed: u64,
    /// Duplicate submissions answered from the dedup cache.
    pub dedup_hits: u64,
    /// Reads served on the lease fast path.
    pub reads_lease: u64,
    /// Reads served through the quorum-attest fallback.
    pub reads_quorum: u64,
    /// Reads sequenced through the log.
    pub reads_sequenced: u64,
    /// Submit→seal: command arrival to its batch sealing (ns).
    pub submit_seal: HistogramSnapshot,
    /// Seal→decide: instance start to its first decision (ns).
    pub seal_decide: HistogramSnapshot,
    /// Decide→apply: decision to state-machine apply (ns).
    pub decide_apply: HistogramSnapshot,
    /// Apply→ack: apply start to acknowledgements sent, fsync included (ns).
    pub apply_ack: HistogramSnapshot,
    /// WAL fsync durations (ns).
    pub wal_fsync: HistogramSnapshot,
    /// Sealed-batch queue depth sampled at each seal.
    pub seal_depth: HistogramSnapshot,
}

impl StatsReport {
    /// The six stage histograms with their wire/JSON names, report order.
    #[must_use]
    pub fn stages(&self) -> [(&'static str, &HistogramSnapshot); 6] {
        [
            ("submit_seal", &self.submit_seal),
            ("seal_decide", &self.seal_decide),
            ("decide_apply", &self.decide_apply),
            ("apply_ack", &self.apply_ack),
            ("wal_fsync", &self.wal_fsync),
            ("seal_depth", &self.seal_depth),
        ]
    }

    /// Folds `other`'s counters and histograms into `self` — the
    /// cross-shard aggregate (`shard` keeps `self`'s value; aggregate
    /// reports conventionally use shard 0).
    pub fn merge(&mut self, other: &StatsReport) {
        self.slots += other.slots;
        self.committed += other.committed;
        self.dedup_hits += other.dedup_hits;
        self.reads_lease += other.reads_lease;
        self.reads_quorum += other.reads_quorum;
        self.reads_sequenced += other.reads_sequenced;
        self.submit_seal.merge(&other.submit_seal);
        self.seal_decide.merge(&other.seal_decide);
        self.decide_apply.merge(&other.decide_apply);
        self.apply_ack.merge(&other.apply_ack);
        self.wal_fsync.merge(&other.wal_fsync);
        self.seal_depth.merge(&other.seal_depth);
    }

    /// An all-zero report for `shard` of `shards` (the merge identity).
    #[must_use]
    pub fn zero(shard: u32, shards: u32) -> Self {
        StatsReport {
            shard,
            shards,
            slots: 0,
            committed: 0,
            dedup_hits: 0,
            reads_lease: 0,
            reads_quorum: 0,
            reads_sequenced: 0,
            submit_seal: HistogramSnapshot::empty(),
            seal_decide: HistogramSnapshot::empty(),
            decide_apply: HistogramSnapshot::empty(),
            apply_ack: HistogramSnapshot::empty(),
            wal_fsync: HistogramSnapshot::empty(),
            seal_depth: HistogramSnapshot::empty(),
        }
    }

    /// Encodes the reply payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        // 1 tag + 2 u32 + 6 u64 + 6 histograms of (64 + 2) u64.
        let mut out = Vec::with_capacity(1 + 8 + 48 + 6 * (BUCKETS + 2) * 8);
        out.push(TAG_STATS);
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.shards.to_le_bytes());
        out.extend_from_slice(&self.slots.to_le_bytes());
        out.extend_from_slice(&self.committed.to_le_bytes());
        out.extend_from_slice(&self.dedup_hits.to_le_bytes());
        out.extend_from_slice(&self.reads_lease.to_le_bytes());
        out.extend_from_slice(&self.reads_quorum.to_le_bytes());
        out.extend_from_slice(&self.reads_sequenced.to_le_bytes());
        for (_, snap) in self.stages() {
            encode_histogram(&mut out, snap);
        }
        out
    }

    /// Decodes one frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut c = Cursor(bytes);
        c.tag(TAG_STATS)?;
        let report = StatsReport {
            shard: c.u32()?,
            shards: c.u32()?,
            slots: c.u64()?,
            committed: c.u64()?,
            dedup_hits: c.u64()?,
            reads_lease: c.u64()?,
            reads_quorum: c.u64()?,
            reads_sequenced: c.u64()?,
            submit_seal: decode_histogram(&mut c)?,
            seal_decide: decode_histogram(&mut c)?,
            decide_apply: decode_histogram(&mut c)?,
            apply_ack: decode_histogram(&mut c)?,
            wal_fsync: decode_histogram(&mut c)?,
            seal_depth: decode_histogram(&mut c)?,
        };
        c.finish()?;
        Ok(report)
    }
}

impl fmt::Display for StatsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard={}/{} slots={} committed={} dedup_hits={} \
             reads lease={} quorum={} sequenced={}",
            self.shard,
            self.shards,
            self.slots,
            self.committed,
            self.dedup_hits,
            self.reads_lease,
            self.reads_quorum,
            self.reads_sequenced
        )?;
        for (name, snap) in self.stages() {
            let (p50, p99) = (snap.percentile(0.50), snap.percentile(0.99));
            write!(f, " {name}[n={} p50={p50} p99={p99} max={}]", snap.count, snap.max)?;
        }
        Ok(())
    }
}

impl Request {
    /// Encodes the request as one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        out.push(TAG_REQUEST);
        out.extend_from_slice(&self.client.0.to_le_bytes());
        out.extend_from_slice(&self.request.0.to_le_bytes());
        match self.op {
            KvOp::Put { key, value } => {
                out.push(OP_PUT);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&value.to_le_bytes());
            }
            KvOp::Get { key } => {
                out.push(OP_GET);
                out.extend_from_slice(&key.to_le_bytes());
            }
        }
        out
    }

    /// Decodes one frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut c = Cursor(bytes);
        c.tag(TAG_REQUEST)?;
        let client = ClientId(c.u64()?);
        let request = RequestId(c.u64()?);
        let op = match c.u8()? {
            OP_PUT => KvOp::Put { key: c.u16()?, value: c.u32()? },
            OP_GET => KvOp::Get { key: c.u16()? },
            t => return Err(ProtoError::BadTag(t)),
        };
        c.finish()?;
        Ok(Request { client, request, op })
    }
}

impl Response {
    /// Encodes the response as one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(28);
        out.push(TAG_RESPONSE);
        out.extend_from_slice(&self.request.0.to_le_bytes());
        out.extend_from_slice(&self.shard.to_le_bytes());
        match self.outcome {
            Outcome::Put { slot } => {
                out.push(OP_PUT);
                out.extend_from_slice(&slot.to_le_bytes());
            }
            Outcome::Get { slot, value } => {
                out.push(OP_GET);
                out.extend_from_slice(&slot.to_le_bytes());
                put_value(&mut out, value);
            }
            Outcome::Read { index, value } => {
                out.push(OP_READ);
                out.extend_from_slice(&index.to_le_bytes());
                put_value(&mut out, value);
            }
        }
        out
    }

    /// Decodes one frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut c = Cursor(bytes);
        c.tag(TAG_RESPONSE)?;
        let request = RequestId(c.u64()?);
        let shard = c.u32()?;
        let outcome = match c.u8()? {
            OP_PUT => Outcome::Put { slot: c.u64()? },
            OP_GET => Outcome::Get { slot: c.u64()?, value: c.value()? },
            OP_READ => Outcome::Read { index: c.u64()?, value: c.value()? },
            t => return Err(ProtoError::BadTag(t)),
        };
        c.finish()?;
        Ok(Response { request, shard, outcome })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        for op in [KvOp::Put { key: 65535, value: u32::MAX }, KvOp::Get { key: 0 }] {
            let r = Request { client: ClientId(u64::MAX), request: RequestId(7), op };
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
            assert_eq!(r.op.key(), if matches!(op, KvOp::Get { .. }) { 0 } else { 65535 });
        }
    }

    #[test]
    fn response_round_trips() {
        for outcome in [
            Outcome::Put { slot: 1 },
            Outcome::Get { slot: u64::MAX, value: None },
            Outcome::Get { slot: 3, value: Some(u32::MAX) },
            Outcome::Read { index: 0, value: None },
            Outcome::Read { index: u64::MAX, value: Some(7) },
        ] {
            for shard in [0, 3, u32::MAX] {
                let r = Response { request: RequestId(9), shard, outcome };
                assert_eq!(Response::decode(&r.encode()).unwrap(), r);
            }
        }
    }

    #[test]
    fn payload_packing_round_trips() {
        for op in [
            KvOp::Put { key: 0, value: 0 },
            KvOp::Put { key: u16::MAX, value: u32::MAX },
            KvOp::Get { key: 12345 },
        ] {
            assert_eq!(KvOp::from_payload(op.to_payload()), op);
        }
        // Puts and gets of the same key pack to distinct payloads.
        assert_ne!(KvOp::Put { key: 3, value: 0 }.to_payload(), KvOp::Get { key: 3 }.to_payload());
    }

    #[test]
    fn malformed_messages_are_rejected() {
        assert_eq!(Request::decode(&[]), Err(ProtoError::Truncated));
        assert_eq!(Request::decode(&[0x77]), Err(ProtoError::BadTag(0x77)));
        let mut ok =
            Request { client: ClientId(1), request: RequestId(2), op: KvOp::Get { key: 3 } }
                .encode();
        ok.push(0);
        assert_eq!(Request::decode(&ok), Err(ProtoError::TrailingBytes));
        ok.truncate(ok.len() - 3);
        assert_eq!(Request::decode(&ok), Err(ProtoError::Truncated));
        assert_eq!(Response::decode(&[TAG_RESPONSE]), Err(ProtoError::Truncated));
    }

    #[test]
    fn sync_frames_round_trip() {
        for frame in [
            SyncFrame::Request { from_slot: 17, shard: 3 },
            SyncFrame::SnapshotChunk { index: 2, total: 5, bytes: vec![1, 2, 3] },
            SyncFrame::SnapshotChunk { index: 0, total: 1, bytes: vec![] },
            SyncFrame::Record { bytes: vec![0xaa; 40] },
            SyncFrame::Done { applied_through: u64::MAX },
        ] {
            assert_eq!(SyncFrame::decode(&frame.encode()).unwrap(), frame);
        }
        assert_eq!(SyncFrame::decode(&[0x7f]), Err(ProtoError::BadTag(0x7f)));
    }

    #[test]
    fn audit_summary_round_trips() {
        let s = AuditSummary {
            complete: true,
            ok: false,
            slots: 9,
            committed: 72,
            dedup_hits: 3,
            fast_reads: 41,
            lease_epoch: 2,
            shards: 4,
        };
        assert_eq!(AuditSummary::decode(&s.encode()).unwrap(), s);
        assert_eq!(audit_request_frame(), vec![TAG_AUDIT_REQUEST]);
        // `complete` (byte 1) and `ok` (byte 2) are bools: only 0 and 1.
        for (offset, byte) in [(1, 2), (1, 0xff), (2, 2), (2, 0x80)] {
            let mut bytes = s.encode();
            bytes[offset] = byte;
            assert_eq!(AuditSummary::decode(&bytes), Err(ProtoError::BadTag(byte)));
        }
    }

    #[test]
    fn lease_status_round_trips() {
        let s = LeaseStatus {
            shard: 2,
            shards: 4,
            mode: 2,
            epoch: 5,
            healthy: true,
            grants: 4,
            read_index: 1234,
            reads_lease: 900,
            reads_quorum: 3,
            reads_sequenced: 97,
        };
        assert_eq!(LeaseStatus::decode(&s.encode()).unwrap(), s);
        for mode in 0..=2 {
            let s = LeaseStatus { mode, ..s };
            assert_eq!(LeaseStatus::decode(&s.encode()).unwrap(), s);
        }
        // `mode` (byte 9) is 0..=2; `healthy` (byte 18) is a bool.
        for (offset, byte) in [(9, 3), (9, 0xff), (18, 2), (18, 0xff)] {
            let mut bytes = s.encode();
            bytes[offset] = byte;
            assert_eq!(LeaseStatus::decode(&bytes), Err(ProtoError::BadTag(byte)));
        }
        assert!(s.to_string().contains("reads=lease"));
        assert!(s.to_string().contains("epoch=5"));
        assert!(s.to_string().contains("shard=2/4"));
    }

    fn sample_stats_report() -> StatsReport {
        let mut r = StatsReport::zero(1, 4);
        r.slots = 100;
        r.committed = 400;
        r.dedup_hits = 3;
        r.reads_lease = 900;
        r.reads_quorum = 5;
        r.reads_sequenced = 95;
        for (i, v) in [1_000u64, 40_000, 250_000, 9_000_000].iter().enumerate() {
            r.submit_seal.buckets[i % BUCKETS] += 1;
            r.submit_seal.count += 1;
            r.submit_seal.sum += v;
            r.submit_seal.max = r.submit_seal.max.max(*v);
        }
        r.wal_fsync.buckets[20] = 17;
        r.wal_fsync.count = 17;
        r.wal_fsync.sum = 17 * 700_000;
        r.wal_fsync.max = 1_100_000;
        r
    }

    #[test]
    fn stats_report_round_trips() {
        let r = sample_stats_report();
        assert_eq!(StatsReport::decode(&r.encode()).unwrap(), r);
        assert!(r.to_string().contains("shard=1/4"));
        assert!(r.to_string().contains("wal_fsync[n=17"));
        assert_eq!(StatsReport::decode(&[0x70]), Err(ProtoError::BadTag(0x70)));
        assert_eq!(StatsReport::decode(&[TAG_STATS, 1, 2]), Err(ProtoError::Truncated));
        let mut long = r.encode();
        long.push(0);
        assert_eq!(StatsReport::decode(&long), Err(ProtoError::TrailingBytes));
    }

    #[test]
    fn stats_reports_merge_counter_by_counter() {
        let a = sample_stats_report();
        let mut total = StatsReport::zero(0, 4);
        total.merge(&a);
        total.merge(&a);
        assert_eq!(total.shard, 0);
        assert_eq!(total.slots, 200);
        assert_eq!(total.committed, 800);
        assert_eq!(total.submit_seal.count, 2 * a.submit_seal.count);
        assert_eq!(total.wal_fsync.max, a.wal_fsync.max);
    }

    #[test]
    fn stats_requests_address_a_shard() {
        let frame = stats_request_frame(3);
        assert_eq!(frame.len(), 5);
        assert_eq!(stats_request_shard(&frame).unwrap(), 3);
        assert_eq!(stats_request_shard(&[0x55]), Err(ProtoError::BadTag(0x55)));
        assert_eq!(stats_request_shard(&[TAG_STATS_REQUEST]), Err(ProtoError::Truncated));
        assert_eq!(
            stats_request_shard(&[TAG_STATS_REQUEST, 1, 2, 3, 4, 5]),
            Err(ProtoError::TrailingBytes)
        );
    }

    #[test]
    fn lease_state_requests_address_a_shard() {
        let frame = lease_state_request_frame(3);
        assert_eq!(frame.len(), 5);
        assert_eq!(lease_state_request_shard(&frame).unwrap(), 3);
        assert_eq!(lease_state_request_shard(&[0x55]), Err(ProtoError::BadTag(0x55)));
        assert_eq!(
            lease_state_request_shard(&[TAG_LEASE_STATE_REQUEST]),
            Err(ProtoError::Truncated)
        );
        assert_eq!(
            lease_state_request_shard(&[TAG_LEASE_STATE_REQUEST, 1, 2]),
            Err(ProtoError::Truncated)
        );
    }
}
