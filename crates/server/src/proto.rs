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
//! Serialization is a fixed-layout little-endian byte format. This
//! module holds its one codec: each kind of value is written and read by
//! one `Field` impl, and each layout — every message here, the snapshot
//! payload ([`crate::snapshot`]) and the WAL slot payload ([`crate::wal`])
//! — is declared once, as the list of its fields, by `layout!`, which
//! derives both directions from it. `tests/golden_bytes.rs` pins the bytes.

use std::collections::BTreeMap;
use std::fmt;

use indulgent_model::{BatchId, ClientId, RequestId};
use indulgent_obs::{HistogramSnapshot, BUCKETS};

use crate::lease::ReadPath;

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
/// Frame tag of a [`ControlRequest::Sync`].
const TAG_SYNC_REQUEST: u8 = 0x03;
/// Frame tag of a [`SyncFrame::SnapshotChunk`].
pub const TAG_SYNC_SNAPSHOT: u8 = 0x04;
/// Frame tag of a [`SyncFrame::Record`] catch-up record.
pub const TAG_SYNC_RECORD: u8 = 0x05;
/// Frame tag of [`SyncFrame::Done`].
pub const TAG_SYNC_DONE: u8 = 0x06;
/// Frame tag of a [`ControlRequest::Audit`].
const TAG_AUDIT_REQUEST: u8 = 0x07;
/// Frame tag of an [`AuditSummary`] reply.
pub const TAG_AUDIT_REPLY: u8 = 0x08;
/// Frame tag of a [`ControlRequest::LeaseState`].
const TAG_LEASE_STATE_REQUEST: u8 = 0x0e;
/// Frame tag of a [`LeaseStatus`] reply.
pub const TAG_LEASE_STATE: u8 = 0x0f;
/// Frame tag of a [`ControlRequest::Stats`].
const TAG_STATS_REQUEST: u8 = 0x10;
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
    /// A histogram's bucket counts sum past `u64::MAX`: no snapshot of a
    /// real histogram holds them.
    CountOverflow,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "message truncated"),
            ProtoError::BadTag(t) => write!(f, "unknown tag 0x{t:02x}"),
            ProtoError::TrailingBytes => write!(f, "trailing bytes after message"),
            ProtoError::CountOverflow => write!(f, "histogram bucket counts overflow u64"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Little-endian byte cursor: the one reader of every fixed-layout
/// format the server decodes, on the wire and on disk ([`crate::wal`]).
pub(crate) struct Cursor<'a>(pub(crate) &'a [u8]);

impl<'a> Cursor<'a> {
    /// Reads one field.
    pub(crate) fn get<T: Field>(&mut self) -> Result<T, ProtoError> {
        T::get(self)
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.0.len() < n {
            return Err(ProtoError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// Reads a message tag, refusing every tag but `expected`.
    pub(crate) fn tag(&mut self, expected: u8) -> Result<(), ProtoError> {
        match self.get::<u8>()? {
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

/// One kind of value in a fixed layout, written and read back by the
/// same impl.
///
/// The impls a request or response frame is made of are `#[inline]`, so
/// each frame's `encode` and `decode` compile to one function: left to
/// the inliner, `Response::decode` took twice as long.
pub(crate) trait Field: Sized {
    /// Appends the value's bytes.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads a value [`put`](Field::put) wrote, refusing any other bytes.
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError>;
}

/// `value`'s bytes.
pub(crate) fn to_bytes<T: Field>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Reads exactly one `T` from `bytes`.
pub(crate) fn from_bytes<T: Field>(bytes: &[u8]) -> Result<T, ProtoError> {
    let mut c = Cursor(bytes);
    let value = c.get()?;
    c.finish()?;
    Ok(value)
}

/// Declares a byte layout once, as the list of its fields in order, and
/// derives both directions from it.
///
/// - `Type; a, b: Via` makes a struct a [`Field`]: its fields back to
///   back, `b` written through the adapter newtype `Via`.
/// - `Type = TAG, MAX; …` also gives it a public `encode` (the tag, then
///   the fields, in one allocation of `MAX` bytes, its longest frame) and
///   `decode` (checks the tag, reads the fields, refuses trailing bytes).
/// - `enum Type; A = TAG { a, b }, B = TAG2 {}, …` makes an enum a
///   [`Field`]: the variant's tag byte, then its fields (none for `B`);
///   an unknown tag is refused.
macro_rules! layout {
    (enum $ty:ident; $($v:ident = $tag:path { $($f:ident),* }),+ $(,)?) => {
        impl Field for $ty {
            #[inline(always)]
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$v { $($f),* } => {
                        out.push($tag);
                        $(Field::put($f, out);)*
                    })+
                }
            }

            #[inline]
            fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
                match c.get::<u8>()? {
                    $($tag => Ok($ty::$v { $($f: c.get()?),* }),)+
                    t => Err(ProtoError::BadTag(t)),
                }
            }
        }
    };
    ($ty:ident; $($f:tt $(: $via:ident)?),+ $(,)?) => {
        impl $crate::proto::Field for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::proto::Field::put(&$($via)?(self.$f), out);)+
            }

            #[inline]
            #[allow(unused_parens)] // `let (v)` reads a field with no adapter.
            fn get(c: &mut $crate::proto::Cursor<'_>) -> Result<Self, $crate::proto::ProtoError> {
                Ok($ty { $($f: { let $($via)?(v) = c.get()?; v }),+ })
            }
        }
    };
    ($ty:ident = $tag:expr, $max:expr; $($f:tt $(: $via:ident)?),+ $(,)?) => {
        layout!($ty; $($f $(: $via)?),+);

        impl $ty {
            /// Encodes the message as one frame payload.
            #[must_use]
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::with_capacity($max);
                out.push($tag);
                $(Field::put(&$($via)?(self.$f), &mut out);)+
                debug_assert!(out.len() <= $max, "frame longer than its declared maximum");
                out
            }

            /// Decodes one frame payload.
            pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
                let mut c = Cursor(bytes);
                c.tag($tag)?;
                let message = c.get()?;
                c.finish()?;
                Ok(message)
            }
        }
    };
}
pub(crate) use layout;

macro_rules! int_fields {
    ($($t:ty),+) => {$(
        /// Little-endian, fixed width.
        impl Field for $t {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
                Ok(<$t>::from_le_bytes(c.bytes(size_of::<$t>())?.try_into().expect("sized")))
            }
        }
    )+};
}
int_fields!(u8, u16, u32, u64);

// Ids: the id's `u64`.
layout!(ClientId; 0);
layout!(RequestId; 0);
layout!(BatchId; 0);

/// One byte, `u8::from(b)`: every byte but 0 and 1 is refused.
impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        match c.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(ProtoError::BadTag(b)),
        }
    }
}

/// A read's value: a presence byte, then the value if set.
impl Field for Option<u32> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => {
                out.push(VAL_SOME);
                v.put(out);
            }
            None => out.push(VAL_NONE),
        }
    }

    #[inline]
    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        match c.get::<u8>()? {
            VAL_NONE => Ok(None),
            VAL_SOME => c.get().map(Some),
            t => Err(ProtoError::BadTag(t)),
        }
    }
}

// An op tag, the key, and a `Put`'s value.
layout!(enum KvOp; Put = OP_PUT { key, value }, Get = OP_GET { key });

// An outcome tag, the slot (or read index), and a read's value.
layout!(enum Outcome;
    Put = OP_PUT { slot }, Get = OP_GET { slot, value }, Read = OP_READ { index, value });

/// The 64 bucket counts, then sum, then max. The observation count is
/// not carried — it is the sum of the buckets, recomputed on decode, and
/// buckets that sum past `u64::MAX` are refused.
impl Field for HistogramSnapshot {
    fn put(&self, out: &mut Vec<u8>) {
        for b in &self.buckets {
            b.put(out);
        }
        self.sum.put(out);
        self.max.put(out);
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let mut buckets = [0u64; BUCKETS];
        let mut count = 0u64;
        for b in &mut buckets {
            *b = c.get()?;
            count = count.checked_add(*b).ok_or(ProtoError::CountOverflow)?;
        }
        Ok(HistogramSnapshot { buckets, count, sum: c.get()?, max: c.get()? })
    }
}

/// A response as WAL records and snapshots keep it: its frame, prefixed
/// by the frame's u16 length.
pub(crate) struct Prefixed(pub(crate) Response);

impl Field for Prefixed {
    fn put(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0, 0, TAG_RESPONSE]);
        self.0.put(out);
        let len = u16::try_from(out.len() - start - 2).expect("responses are tens of bytes");
        out[start..start + 2].copy_from_slice(&len.to_le_bytes());
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let len: u16 = c.get()?;
        Response::decode(c.bytes(usize::from(len))?).map(Prefixed)
    }
}

/// A u32 count, then the elements. The count reserves no more elements
/// than there are bytes left, so a count that no input backs fails as
/// [`ProtoError::Truncated`] instead of asking for the memory.
impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        u32::try_from(self.len()).expect("lists hold under 2^32 entries").put(out);
        for item in self {
            item.put(out);
        }
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let n: u32 = c.get()?;
        let mut items = Vec::with_capacity((n as usize).min(c.0.len()));
        for _ in 0..n {
            items.push(c.get()?);
        }
        Ok(items)
    }
}

/// A u32 count, then each entry's key and value, in key order.
impl<K: Field + Ord, V: Field> Field for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        u32::try_from(self.len()).expect("maps hold under 2^32 entries").put(out);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let n: u32 = c.get()?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let k = c.get()?;
            map.insert(k, c.get()?);
        }
        Ok(map)
    }
}

/// [`LeaseStatus::mode`]: a [`ReadPath`] wire byte, refusing any other.
struct Mode(u8);

impl Field for Mode {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let mode = c.get()?;
        ReadPath::from_wire(mode).map(|_| Mode(mode)).ok_or(ProtoError::BadTag(mode))
    }
}

layout!(Request = TAG_REQUEST, 24; client, request, op);
layout!(Response = TAG_RESPONSE, 27; request, shard, outcome);

/// A request the engine answers with control frames on the asking
/// connection; one naming a shard the service does not run gets none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlRequest {
    /// Stream one shard group's state as [`SyncFrame`]s (the rejoin transfer).
    Sync {
        /// The requester's durable applied-through slot; the server
        /// carries it and never reads it.
        from_slot: u64,
        /// The shard group whose checkpoint + WAL is wanted.
        shard: u32,
    },
    /// Run the replay audit and reply an [`AuditSummary`].
    Audit {},
    /// Reply the shard group's [`LeaseStatus`].
    LeaseState {
        /// The shard group whose lease agent is asked.
        shard: u32,
    },
    /// Reply the shard group's [`StatsReport`].
    Stats {
        /// The shard group whose engine is asked.
        shard: u32,
    },
}

layout!(enum ControlRequest;
    Sync = TAG_SYNC_REQUEST { from_slot, shard }, Audit = TAG_AUDIT_REQUEST {},
    LeaseState = TAG_LEASE_STATE_REQUEST { shard }, Stats = TAG_STATS_REQUEST { shard });

impl ControlRequest {
    /// Encodes the request as one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        to_bytes(self)
    }

    /// Decodes one frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        from_bytes(bytes)
    }
}

/// The rejoin sync stream, riding the same framed transport as the
/// request/response traffic.
///
/// A rejoining replica opens an ordinary connection and sends
/// [`ControlRequest::Sync`]; the server streams its last checkpoint
/// (chunked under the [`crate::wire::MAX_FRAME`] bound), then every
/// retained WAL record past the checkpoint, then [`SyncFrame::Done`].
/// The receiver persists exactly what a local checkpoint + WAL would
/// hold and boots through the normal disk-recovery path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncFrame {
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
    /// Encodes the frame payload: the tag, the fixed fields, then a
    /// chunk's or record's bytes to the end of the frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let tail: &[u8] = match self {
            SyncFrame::SnapshotChunk { bytes, .. } | SyncFrame::Record { bytes } => bytes,
            SyncFrame::Done { .. } => &[],
        };
        let mut out = Vec::with_capacity(9 + tail.len());
        match self {
            SyncFrame::SnapshotChunk { index, total, .. } => {
                out.push(TAG_SYNC_SNAPSHOT);
                index.put(&mut out);
                total.put(&mut out);
            }
            SyncFrame::Record { .. } => out.push(TAG_SYNC_RECORD),
            SyncFrame::Done { applied_through } => {
                out.push(TAG_SYNC_DONE);
                applied_through.put(&mut out);
            }
        }
        out.extend_from_slice(tail);
        out
    }

    /// Decodes one frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut c = Cursor(bytes);
        let frame = match c.get::<u8>()? {
            TAG_SYNC_SNAPSHOT => SyncFrame::SnapshotChunk {
                index: c.get()?,
                total: c.get()?,
                bytes: c.bytes(c.0.len())?.to_vec(),
            },
            TAG_SYNC_RECORD => SyncFrame::Record { bytes: c.bytes(c.0.len())?.to_vec() },
            TAG_SYNC_DONE => SyncFrame::Done { applied_through: c.get()? },
            t => return Err(ProtoError::BadTag(t)),
        };
        c.finish()?;
        Ok(frame)
    }
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

layout!(AuditSummary = TAG_AUDIT_REPLY, 47;
    complete, ok, slots, committed, dedup_hits, fast_reads, lease_epoch, shards);

/// A point-in-time dump of the engine's lease and read-path state —
/// the observability (and CI failure-artifact) surface of the lease
/// subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseStatus {
    /// The shard group this dump describes.
    pub shard: u32,
    /// How many shard groups the service runs (each with its own lease).
    pub shards: u32,
    /// The configured read path, as [`ReadPath::as_wire`] encodes it.
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

layout!(LeaseStatus = TAG_LEASE_STATE, 55; shard, shards, mode: Mode, epoch, healthy, grants,
    read_index, reads_lease, reads_quorum, reads_sequenced);

impl fmt::Display for LeaseStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match ReadPath::from_wire(self.mode) {
            Some(ReadPath::Sequenced) => "sequenced",
            Some(ReadPath::Lease) => "lease",
            None => "unknown",
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

/// A point-in-time scrape of one shard group's engine metrics — the
/// wire form of the server-side observability layer (see
/// `indulgent-obs`). Histograms travel as raw bucket counts, so the
/// *client* derives whatever percentiles it wants and cross-shard
/// aggregates merge exactly ([`HistogramSnapshot::merge`]); stage
/// latencies and the WAL fsync are in nanoseconds, the seal-depth
/// histogram counts queued batches sampled at each seal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

layout!(StatsReport = TAG_STATS, 1 + 8 + 48 + 6 * (BUCKETS + 2) * 8; shard, shards, slots, committed, dedup_hits, reads_lease,
    reads_quorum, reads_sequenced, submit_seal, seal_decide, decide_apply, apply_ack, wal_fsync,
    seal_depth);

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
        StatsReport { shard, shards, ..StatsReport::default() }
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
            SyncFrame::SnapshotChunk { index: 2, total: 5, bytes: vec![1, 2, 3] },
            SyncFrame::SnapshotChunk { index: 0, total: 1, bytes: vec![] },
            SyncFrame::Record { bytes: vec![0xaa; 40] },
            SyncFrame::Done { applied_through: u64::MAX },
        ] {
            assert_eq!(SyncFrame::decode(&frame.encode()).unwrap(), frame);
        }
        assert_eq!(SyncFrame::decode(&[0x7f]), Err(ProtoError::BadTag(0x7f)));
        // A sync request is a control request, not part of the stream.
        let request = ControlRequest::Sync { from_slot: 17, shard: 3 }.encode();
        assert_eq!(SyncFrame::decode(&request), Err(ProtoError::BadTag(TAG_SYNC_REQUEST)));
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
        for mode in [0, 2] {
            let s = LeaseStatus { mode, ..s };
            assert_eq!(LeaseStatus::decode(&s.encode()).unwrap(), s);
        }
        // `mode` (byte 9) is 0 or 2; `healthy` (byte 18) is a bool.
        for (offset, byte) in [(9, 1), (9, 3), (9, 0xff), (18, 2), (18, 0xff)] {
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
    fn control_requests_round_trip() {
        for request in [
            ControlRequest::Sync { from_slot: u64::MAX, shard: 3 },
            ControlRequest::Audit {},
            ControlRequest::LeaseState { shard: 0 },
            ControlRequest::Stats { shard: u32::MAX },
        ] {
            assert_eq!(ControlRequest::decode(&request.encode()), Ok(request));
        }
        assert_eq!(ControlRequest::decode(&[]), Err(ProtoError::Truncated));
        // A request frame is not a control request.
        assert_eq!(ControlRequest::decode(&[TAG_REQUEST]), Err(ProtoError::BadTag(TAG_REQUEST)));
    }

    #[test]
    fn stats_requests_address_a_shard() {
        let frame = ControlRequest::Stats { shard: 3 }.encode();
        assert_eq!(frame.len(), 5);
        assert_eq!(ControlRequest::decode(&frame), Ok(ControlRequest::Stats { shard: 3 }));
        assert_eq!(ControlRequest::decode(&[0x55]), Err(ProtoError::BadTag(0x55)));
        assert_eq!(ControlRequest::decode(&[TAG_STATS_REQUEST]), Err(ProtoError::Truncated));
        assert_eq!(
            ControlRequest::decode(&[TAG_STATS_REQUEST, 1, 2, 3, 4, 5]),
            Err(ProtoError::TrailingBytes)
        );
    }

    #[test]
    fn lease_state_requests_address_a_shard() {
        let frame = ControlRequest::LeaseState { shard: 3 }.encode();
        assert_eq!(frame.len(), 5);
        assert_eq!(ControlRequest::decode(&frame), Ok(ControlRequest::LeaseState { shard: 3 }));
        assert_eq!(ControlRequest::decode(&[0x55]), Err(ProtoError::BadTag(0x55)));
        assert_eq!(ControlRequest::decode(&[TAG_LEASE_STATE_REQUEST]), Err(ProtoError::Truncated));
        assert_eq!(
            ControlRequest::decode(&[TAG_LEASE_STATE_REQUEST, 1, 2]),
            Err(ProtoError::Truncated)
        );
    }
}
