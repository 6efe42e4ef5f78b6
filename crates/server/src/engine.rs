//! The replicated service engine: one shard-multiplexing event loop
//! from intake to ack.
//!
//! The engine owns the service's entire command path. Requests arrive
//! from connections (socket readers or in-process [`crate::LocalKv`]
//! sessions) on an intake channel; the engine's driver thread routes
//! each request to the shard group owning its key (see the
//! [sharding](#sharded-log-groups) section) and, per shard,
//!
//! 1. **deduplicates** each `(ClientId, RequestId)` against the decided
//!    log — an applied request is re-acknowledged from the cache, an
//!    in-flight one is re-targeted to the newest connection, only a
//!    fresh one enters a batch (the exactly-once contract);
//! 2. **batches** fresh commands into the shard's open batch (sealed at
//!    `batch_size`, or by the linger timer so a lone request never waits
//!    for a full batch), minting each sealed batch a fresh [`BatchId`];
//! 3. **pipelines** consensus: up to `pipeline_depth` instances of
//!    `A_{t+2}` (round-2 fast path) race on one reusable
//!    [`indulgent_runtime::Session`], every replica proposing the same
//!    sealed batch id (a live service has one in-process sequencer, so
//!    shared proposals make double-choosing impossible by construction —
//!    the audit still checks it). Only the id goes through agreement; the
//!    batch's requests wait with it in the shard's in-flight window,
//!    oldest first;
//! 4. **applies** decided slots in order from the front of that window:
//!    materializes the store,
//!    computes each command's response from the store state at its slot,
//!    persists the slot to the write-ahead log ([`crate::wal`]) and
//!    `fdatasync`s it **before** any acknowledgement leaves, records the
//!    ack in the dedup cache, and pushes it to the submitting
//!    connection.
//!
//! # Sharded log groups
//!
//! Single-key commands on different keys never need a shared total
//! order, so the keyspace is partitioned across `shards` independent
//! log pipelines by the fixed [`ShardRouter`] hash. Each shard owns a
//! full stack — its own batching and batch ids, slot space, store
//! slice, dedup table, read ladder, WAL + snapshot subdirectory, and
//! lease — but all shards multiplex over the *one* replica session, so
//! S shards share one worker pool instead of spawning S of them.
//! Session instance ids are global; the driver keeps a routing table
//! from instance id to `(shard, local instance)` and feeds each replica
//! result back to the shard that proposed it. Acks carry the owning
//! shard: the linearization point is `(shard, slot)`, and per-connection
//! session order is per-shard slot monotonicity. Exactly-once dedup is
//! untouched by sharding because a `(ClientId, RequestId)` pair names
//! one key, and a key always routes to the same shard. Cross-shard
//! operations (multi-key transactions) are out of scope — nothing
//! orders two shards' logs against each other.
//!
//! # Crash recovery
//!
//! With a [`DurabilityConfig`], the fault model widens from crash-stop
//! to crash-*recovery*. Every applied slot is WAL-logged before it is
//! acknowledged, and every `snapshot_every` slots the engine checkpoints
//! — snapshot (store + session dedup table + applied-through + batch-id
//! high-water mark) written atomically, then the WAL and the in-memory
//! slot history prefix-truncated. A restarted engine re-hydrates from
//! snapshot + WAL replay: the store resumes, *sessions resume* (a retry
//! of a pre-crash request is still answered from the cache — exactly
//! once survives the restart), and new consensus instances map onto log
//! slots past the recovered prefix (`slot = recovered_base + instance`,
//! since the fresh [`Session`]'s instance ids restart at 1).
//!
//! # Reads: the lease fast path
//!
//! Writes are always sequenced; reads follow the configured
//! [`ReadPath`]. Under `--reads log` ([`ReadPath::Sequenced`]) a `Get`
//! occupies a slot exactly like a write — the pre-lease behavior. Under
//! [`ReadPath::Lease`] the engine holds a leader lease ([`crate::lease`])
//! and answers `Get`s from its applied store at a *read index* equal to
//! the applied frontier, without a slot, a WAL record, or an fsync;
//! when the lease is suspect it falls down the ladder (quorum-attest
//! read, then sequenced read). Every fast read is recorded as a
//! [`FastReadRecord`] and checked by the audit against the decided-log
//! replay at its read index: a fast read must equal what a sequenced
//! read at that slot would have answered. At every checkpoint the
//! retained records are verified against the history being folded and
//! then dropped (any mismatch is latched and fails every later audit),
//! so the audit spans the whole run even though records do not
//! accumulate without bound.
//!
//! Every acknowledged response is thus computed from (or checked
//! against) the log's total order — linearizability is structural, and
//! [`ServiceAudit::check`] re-verifies it after the fact by replaying
//! the log with independent code and comparing every response byte for
//! byte, across the *combined* pre/post-restart history (the recovered
//! prefix seeds the replay base). Lease epochs are burned to disk
//! before an incarnation serves anything, so the crash-recovery path
//! also covers the lease: a rebooted leader re-acquires under a strictly
//! newer epoch and can never fast-read on the promises made to its
//! previous self.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use indulgent_log::{at_plus2_factory, at_plus2_reset, AtSlot};
use indulgent_model::{BatchId, ClientId, Decision, RequestId, SystemConfig};
use indulgent_obs::{FlightKind, FlightRecorder, Histogram};
use indulgent_runtime::{DelayModel, InstanceSpec, Session};

use crate::lease::{self, LeaderLease, LeaseConfig, LeaseFrame, ReadPath, ReplicaLeaseAgent};
use crate::proto::{
    AuditSummary, KvOp, LeaseStatus, Outcome, Request, Response, StatsReport, SyncFrame,
};
use crate::shard::{shard_dir, ShardRouter, ShardedAudit};
use crate::snapshot::{SessionEntry, Snapshot};
use crate::wal::ShardFiles;

/// Per-instance round budget of the replica session.
const MAX_ROUNDS: u32 = 60;
/// Straggler grace window of the replica session.
const GRACE: Duration = Duration::from_millis(2);
/// How long a non-empty partial batch may linger before it is sealed
/// anyway — bounds the latency a lone request pays for batching.
const LINGER: Duration = Duration::from_micros(500);
/// Watchdog: the engine panics if consensus makes no progress for this
/// long with instances in flight (a wedged service must fail loudly, not
/// hang a CI job).
const STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Where and how often the engine persists its state.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The durability *root*: holds the fsynced `shards.manifest`
    /// recording the shard count, and one `shard-<i>/` subdirectory per
    /// shard group, each with its own `wal.log`, `state.snap`, and
    /// `lease.epoch`.
    pub dir: PathBuf,
    /// Checkpoint (snapshot + WAL/in-memory prefix truncation) every
    /// this many applied slots past the last checkpoint; `0` defers the
    /// snapshot to clean shutdown (the WAL alone carries recovery).
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Durability rooted at `dir`, checkpointing every 256 slots.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig { dir: dir.into(), snapshot_every: 256 }
    }

    /// Sets the checkpoint interval (in applied slots; `0` = only at
    /// clean shutdown).
    #[must_use]
    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = every;
        self
    }
}

/// Sizing and timing of a service engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The replica group (n, t).
    pub system: SystemConfig,
    /// Commands per sealed batch.
    pub batch_size: usize,
    /// Bounded in-flight window of consensus instances.
    pub pipeline_depth: u64,
    /// Replica-to-replica delay model (Instant for a colocated group;
    /// Uniform to emulate a real RTT).
    pub delays: DelayModel,
    /// WAL + snapshot persistence; `None` runs crash-stop (in-memory
    /// only, the pre-durability behavior).
    pub durability: Option<DurabilityConfig>,
    /// How `Get`s are answered (see [`crate::lease`]); `Sequenced` is
    /// the pre-lease behavior and the `--reads log` escape hatch.
    pub reads: ReadPath,
    /// Lease timing (TTL, renew cadence, safety margin); only consulted
    /// when `reads` is not `Sequenced`.
    pub lease: LeaseConfig,
    /// How many shard groups partition the keyspace. Each shard owns an
    /// independent log pipeline (batching, slot space, WAL, lease), all
    /// multiplexed over the *one* replica session's worker pool — S
    /// shards do not spawn S thread pools.
    pub shards: usize,
}

impl EngineConfig {
    /// A 5-replica, t = 2 service with service-sized defaults: batches
    /// of 8, pipeline depth 4, instant replica links, 500 µs linger, no
    /// durability.
    ///
    /// # Panics
    ///
    /// Never; the 5/2 majority configuration is valid.
    #[must_use]
    pub fn default_5() -> Self {
        EngineConfig {
            system: SystemConfig::majority(5, 2).expect("5/2 is a valid majority config"),
            batch_size: 8,
            pipeline_depth: 4,
            delays: DelayModel::Instant,
            durability: None,
            reads: ReadPath::Sequenced,
            lease: LeaseConfig::default(),
            shards: 1,
        }
    }

    /// Sets the batch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "batches hold at least one command");
        self.batch_size = batch_size;
        self
    }

    /// Sets the pipeline depth.
    #[must_use]
    pub fn with_pipeline_depth(mut self, depth: u64) -> Self {
        assert!(depth >= 1, "pipeline depth is at least 1");
        self.pipeline_depth = depth;
        self
    }

    /// Sets the replica-to-replica delay model.
    #[must_use]
    pub fn with_delays(mut self, delays: DelayModel) -> Self {
        self.delays = delays;
        self
    }

    /// Enables WAL + snapshot durability rooted at `dir` (see
    /// [`DurabilityConfig`] for the checkpoint cadence).
    #[must_use]
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Sets the read path (the `--reads` flag).
    #[must_use]
    pub fn with_reads(mut self, reads: ReadPath) -> Self {
        self.reads = reads;
        self
    }

    /// Sets the lease timing knobs.
    #[must_use]
    pub fn with_lease(mut self, lease: LeaseConfig) -> Self {
        self.lease = lease;
        self
    }

    /// Sets the shard-group count (the `--shards` flag).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or does not fit the wire's `u32`.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "a service runs at least one shard");
        assert!(u32::try_from(shards).is_ok(), "shard count fits the wire format");
        self.shards = shards;
        self
    }
}

/// Identifier of one connection registered with the engine (a socket on
/// the TCP server, or an in-process local session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(pub u64);

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn{}", self.0)
    }
}

/// What the engine pushes onto a connection's outbound channel.
#[derive(Debug, Clone)]
pub enum Outbound {
    /// A request acknowledgement.
    Ack(Response),
    /// A pre-encoded control frame payload (sync stream, audit reply);
    /// the transport writes it as one frame verbatim.
    Control(Vec<u8>),
}

/// Intake messages from connections to the engine's driver thread.
#[derive(Debug)]
pub(crate) enum EngineMsg {
    Register {
        conn: ConnId,
        tx: Sender<Outbound>,
    },
    Deregister {
        conn: ConnId,
    },
    Submit {
        conn: ConnId,
        request: Request,
    },
    /// Requests submitted together, handled in order as if each came in
    /// its own `Submit` (a socket reader sends what one `read` decoded).
    SubmitBatch {
        conn: ConnId,
        requests: Vec<Request>,
    },
    Control {
        conn: ConnId,
        request: ControlRequest,
    },
    Shutdown,
    /// Hard-crash: exit immediately, no drain, no final snapshot.
    Die,
}

/// A request answered with control frames on the asking connection (see
/// the `SubmitHandle::request_*` methods); the `u32` names a shard.
#[derive(Debug)]
pub(crate) enum ControlRequest {
    Sync(u32),
    Audit,
    LeaseState(u32),
    Stats(u32),
}

/// A cloneable handle for registering connections with a running engine.
#[derive(Debug, Clone)]
pub struct EngineHandle {
    intake: Sender<EngineMsg>,
    next_conn: Arc<AtomicU64>,
}

impl EngineHandle {
    /// Registers a new connection: returns the submit side and the
    /// outbound stream (acknowledgements and control frames). Dropping
    /// the [`SubmitHandle`] deregisters the connection (responses for
    /// its in-flight requests are dropped unless the client re-targets
    /// them by retrying elsewhere).
    #[must_use]
    pub fn connect(&self) -> (SubmitHandle, Receiver<Outbound>) {
        let conn = ConnId(self.next_conn.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = unbounded();
        // A send failure means the engine already shut down; the submit
        // handle's sends will surface that to the caller.
        let _ = self.intake.send(EngineMsg::Register { conn, tx });
        (SubmitHandle { conn, intake: self.intake.clone() }, rx)
    }
}

/// The submit side of one registered connection.
#[derive(Debug)]
pub struct SubmitHandle {
    conn: ConnId,
    intake: Sender<EngineMsg>,
}

impl SubmitHandle {
    /// This connection's id.
    #[must_use]
    pub fn conn(&self) -> ConnId {
        self.conn
    }

    /// Submits a request; `false` if the engine has shut down.
    pub fn submit(&self, request: Request) -> bool {
        self.intake.send(EngineMsg::Submit { conn: self.conn, request }).is_ok()
    }

    /// Submits `requests` as one intake message, handled in order exactly
    /// as that many [`submit`](SubmitHandle::submit) calls would be;
    /// `false` if the engine has shut down.
    pub(crate) fn submit_batch(&self, requests: Vec<Request>) -> bool {
        self.intake.send(EngineMsg::SubmitBatch { conn: self.conn, requests }).is_ok()
    }

    /// Asks the engine to stream one shard's durable state to this
    /// connection as control frames (the per-shard rejoin transfer);
    /// `false` if the engine has shut down. A request naming a shard the
    /// service does not run is dropped (no reply).
    pub fn request_sync(&self, shard: u32) -> bool {
        self.control(ControlRequest::Sync(shard))
    }

    /// Asks the engine to run the replay audit and reply a summary
    /// control frame; `false` if the engine has shut down.
    pub fn request_audit(&self) -> bool {
        self.control(ControlRequest::Audit)
    }

    /// Asks the engine to reply one shard's [`LeaseStatus`] control
    /// frame — the lease-state observability hook; `false` if the engine
    /// has shut down. A request naming a shard the service does not run
    /// is dropped (no reply).
    pub fn request_lease_state(&self, shard: u32) -> bool {
        self.control(ControlRequest::LeaseState(shard))
    }

    /// Asks the engine to reply one shard's [`StatsReport`] control
    /// frame — the metrics-scrape observability hook; `false` if the
    /// engine has shut down. A request naming a shard the service does
    /// not run is dropped (no reply).
    pub fn request_stats(&self, shard: u32) -> bool {
        self.control(ControlRequest::Stats(shard))
    }

    fn control(&self, request: ControlRequest) -> bool {
        self.intake.send(EngineMsg::Control { conn: self.conn, request }).is_ok()
    }
}

impl Drop for SubmitHandle {
    fn drop(&mut self) {
        let _ = self.intake.send(EngineMsg::Deregister { conn: self.conn });
    }
}

#[cfg(test)]
impl SubmitHandle {
    /// A handle on no engine: what it submits lands on the returned
    /// receiver, for tests of what a transport sends in which order.
    pub(crate) fn detached(conn: ConnId) -> (SubmitHandle, Receiver<EngineMsg>) {
        let (intake, rx) = unbounded();
        (SubmitHandle { conn, intake }, rx)
    }
}

/// One acknowledged command inside a slot, as the engine recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRecord {
    /// The submitting session.
    pub client: ClientId,
    /// The session's request number.
    pub request: RequestId,
    /// The operation sequenced.
    pub op: KvOp,
    /// The response the engine sent when it applied the slot.
    pub response: Response,
}

/// One applied log slot: the batch that occupied it and the commands it
/// carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotRecord {
    /// The slot (1-based, monotonic across incarnations).
    pub slot: u64,
    /// The decided batch.
    pub batch: BatchId,
    /// The batch's commands in order, with their recorded acks.
    pub commands: Vec<AckRecord>,
}

/// One read served off the log (lease or quorum fast path), as the
/// engine recorded it for the audit: the audit replays the decided log
/// to the record's read index and requires the value to match — a fast
/// read must equal what a sequenced read at that slot would have
/// answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastReadRecord {
    /// The submitting session.
    pub client: ClientId,
    /// The session's request number.
    pub request: RequestId,
    /// The key read.
    pub key: u16,
    /// The read index: the applied frontier at serve time.
    pub index: u64,
    /// The lease epoch the read was served under.
    pub epoch: u64,
    /// `true` if the read needed a quorum attest round (ladder step 2);
    /// `false` for a pure lease read.
    pub attested: bool,
    /// The value answered.
    pub value: Option<u32>,
}

/// Everything a finished service run exposes for verification.
///
/// The audit is the server-side ground truth the load generator's gate
/// runs against: [`check`](ServiceAudit::check) re-derives every
/// response from the decided log with independent replay code and
/// verifies the exactly-once bookkeeping, per-slot replica agreement,
/// and store consistency. With durability, the audit spans incarnations:
/// slots recovered from disk are replayed like live ones, and slots
/// folded into a checkpoint seed the replay base.
#[derive(Debug, Clone)]
pub struct ServiceAudit {
    /// The replica group.
    pub system: SystemConfig,
    /// The shard group this audit covers (its slot space, store slice,
    /// and lease are all shard-local; [`crate::ShardedAudit`] adds the
    /// cross-shard checks).
    pub shard: u32,
    /// Slots `<= base_slot` are folded into the base (checkpointed
    /// before this audit's retained history begins).
    pub base_slot: u64,
    /// The store materialized by the folded slots.
    pub base_store: BTreeMap<u16, u32>,
    /// The session dedup table at the base (acknowledgements the folded
    /// slots produced).
    pub base_sessions: Vec<SessionEntry>,
    /// Commands committed by the folded slots.
    pub base_commands: u64,
    /// The first slot decided by *this incarnation* (slots between
    /// `base_slot + 1` and `live_from - 1` were recovered from the WAL:
    /// they carry full records but no live consensus evidence).
    pub live_from: u64,
    /// The retained slots in log order (`base_slot + 1 ..`).
    pub slots: Vec<SlotRecord>,
    /// The batch id every replica was asked to propose, per live slot
    /// (index 0 = slot `live_from`).
    pub proposals: Vec<BatchId>,
    /// Per-live-slot, per-replica first decisions.
    pub replica_decisions: Vec<Vec<Option<Decision>>>,
    /// The store materialized by the engine at shutdown.
    pub final_store: BTreeMap<u16, u32>,
    /// Commands applied over the service lifetime (folded + retained).
    pub committed_commands: u64,
    /// Requests answered from the dedup cache or re-targeted while in
    /// flight — retries absorbed without a second apply.
    pub dedup_hits: u64,
    /// Slots whose batch was already applied (must be zero; the shared
    /// single-sequencer proposal rule cannot produce one).
    pub duplicate_applies: u64,
    /// Fast reads retained since the last checkpoint, in serve order
    /// (read indices non-decreasing, all within the retained history).
    pub fast_reads: Vec<FastReadRecord>,
    /// Fast reads already verified and folded away at checkpoints.
    pub folded_fast_reads: u64,
    /// Folded fast reads whose checkpoint-time verification failed
    /// (latched: must be zero for the audit to pass).
    pub fast_read_mismatches: u64,
    /// The lease epoch this incarnation served under (0 = leases off;
    /// every fast read must carry exactly this epoch).
    pub lease_epoch: u64,
}

/// A violated service invariant found by [`ServiceAudit::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// A replica decided a different value than the canonical one (or
    /// never decided) for a slot.
    SlotDisagreement {
        /// The slot.
        slot: u64,
        /// The offending replica.
        replica: usize,
    },
    /// A slot decided a value that was never proposed for it.
    SlotInvalid {
        /// The slot.
        slot: u64,
    },
    /// A `(client, request)` pair was applied more than once.
    DoubleApply {
        /// The submitting session.
        client: ClientId,
        /// The replayed request number.
        request: RequestId,
    },
    /// A recorded response differs from the log replay's answer.
    ResponseMismatch {
        /// The slot whose replay disagrees.
        slot: u64,
        /// The request whose ack is wrong.
        request: RequestId,
    },
    /// The engine's final store differs from the replayed store.
    StoreDivergence,
    /// The engine counted duplicate applies (defense-in-depth net fired).
    DuplicateApplies {
        /// How many times.
        count: u64,
    },
    /// The retained slots are not contiguous from the base.
    SlotGap {
        /// The slot expected at the gap.
        expected: u64,
        /// The slot found instead.
        found: u64,
    },
    /// A fast read's value differs from the decided-prefix replay at
    /// its read index — the stale-read detector fired.
    StaleFastRead {
        /// The request whose read is stale.
        request: RequestId,
        /// The read index it was served at.
        index: u64,
    },
    /// Fast reads were served with decreasing read indices.
    ReadIndexRegression {
        /// The regressing index.
        index: u64,
        /// The index it regressed below.
        after: u64,
    },
    /// A fast read's index is past the retained history.
    ReadIndexOutOfRange {
        /// The offending read index.
        index: u64,
    },
    /// A fast read was served under the wrong lease epoch (stale
    /// incarnation, or leases off entirely).
    EpochMismatch {
        /// The epoch the read carried.
        epoch: u64,
    },
    /// Checkpoint-time verification of folded fast reads failed.
    FoldedReadMismatches {
        /// How many folded reads failed replay.
        count: u64,
    },
    /// A command or fast read landed on a shard its key does not route
    /// to under the service's [`crate::ShardRouter`].
    ShardRouting {
        /// The shard that served the key.
        shard: u32,
        /// The misrouted key.
        key: u16,
    },
    /// A `(client, request)` pair appears in more than one shard's
    /// history — the cross-shard exactly-once space is not disjoint.
    CrossShardDuplicate {
        /// The submitting session.
        client: ClientId,
        /// The duplicated request number.
        request: RequestId,
    },
    /// A per-shard audit carries the wrong shard label for its position.
    ShardMislabel {
        /// The label the audit carries.
        shard: u32,
        /// The shard it actually sits at.
        expected: u32,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::SlotDisagreement { slot, replica } => {
                write!(f, "replica p{replica} disagrees with the canonical decision of slot {slot}")
            }
            AuditViolation::SlotInvalid { slot } => {
                write!(f, "slot {slot} decided a value that was not proposed for it")
            }
            AuditViolation::DoubleApply { client, request } => {
                write!(f, "{client}/{request} applied more than once")
            }
            AuditViolation::ResponseMismatch { slot, request } => {
                write!(f, "ack of {request} at slot {slot} differs from the log replay")
            }
            AuditViolation::StoreDivergence => {
                write!(f, "engine store differs from the replayed store")
            }
            AuditViolation::DuplicateApplies { count } => {
                write!(f, "{count} duplicate batch applies (safety net fired)")
            }
            AuditViolation::SlotGap { expected, found } => {
                write!(f, "retained history skips from slot {found} where {expected} was expected")
            }
            AuditViolation::StaleFastRead { request, index } => {
                write!(f, "fast read {request} at read-index {index} differs from the log replay")
            }
            AuditViolation::ReadIndexRegression { index, after } => {
                write!(f, "fast read served at read-index {index} after index {after}")
            }
            AuditViolation::ReadIndexOutOfRange { index } => {
                write!(f, "fast read at read-index {index} is past the retained history")
            }
            AuditViolation::EpochMismatch { epoch } => {
                write!(f, "fast read served under unexpected lease epoch {epoch}")
            }
            AuditViolation::FoldedReadMismatches { count } => {
                write!(f, "{count} checkpoint-folded fast reads failed replay verification")
            }
            AuditViolation::ShardRouting { shard, key } => {
                write!(f, "key {key} was served by shard {shard}, which it does not route to")
            }
            AuditViolation::CrossShardDuplicate { client, request } => {
                write!(f, "{client}/{request} appears in more than one shard's history")
            }
            AuditViolation::ShardMislabel { shard, expected } => {
                write!(f, "audit labeled shard {shard} sits at shard position {expected}")
            }
        }
    }
}

impl std::error::Error for AuditViolation {}

impl ServiceAudit {
    /// Verifies the run end to end: per-slot replica agreement and
    /// validity (for the slots this incarnation decided), exactly-once
    /// applies across incarnations, and — by replaying the retained
    /// decided log on top of the checkpointed base with independent code
    /// — that every acknowledged response and the final store are
    /// exactly what the total order dictates. This is the
    /// linearizability argument: all operations (reads included) are
    /// answered from the replayed total order, so acks that match the
    /// replay are linearized at their slots.
    pub fn check(&self) -> Result<(), AuditViolation> {
        if self.duplicate_applies > 0 {
            return Err(AuditViolation::DuplicateApplies { count: self.duplicate_applies });
        }
        if self.fast_read_mismatches > 0 {
            return Err(AuditViolation::FoldedReadMismatches { count: self.fast_read_mismatches });
        }
        // Fast-read metadata: correct epoch, non-decreasing read indices
        // from the base (serve order is linearization order).
        let mut prev_index = self.base_slot;
        for r in &self.fast_reads {
            if self.lease_epoch == 0 || r.epoch != self.lease_epoch {
                return Err(AuditViolation::EpochMismatch { epoch: r.epoch });
            }
            if r.index < prev_index {
                return Err(AuditViolation::ReadIndexRegression {
                    index: r.index,
                    after: prev_index,
                });
            }
            prev_index = r.index;
        }
        // Total order: every replica decided every live slot with the
        // proposed (hence canonical) value.
        for (idx, row) in self.replica_decisions.iter().enumerate() {
            let slot = self.live_from + idx as u64;
            let proposed = self.proposals[idx];
            for (replica, d) in row.iter().enumerate() {
                match d {
                    Some(d) if BatchId::from_value(d.value) == proposed => {}
                    _ => return Err(AuditViolation::SlotDisagreement { slot, replica }),
                }
            }
            // Validity against the retained record (live slots folded by
            // a later checkpoint keep their decision evidence only).
            if slot > self.base_slot {
                let offset = (slot - self.base_slot - 1) as usize;
                let recorded = self.slots.get(offset).map(|s| s.batch);
                if recorded != Some(proposed) {
                    return Err(AuditViolation::SlotInvalid { slot });
                }
            }
        }
        // Exactly-once + replay: rebuild the store from the checkpointed
        // base, slot by slot, and recompute every response.
        let mut store = self.base_store.clone();
        let mut seen: HashSet<(ClientId, RequestId)> = HashSet::new();
        for s in &self.base_sessions {
            if !seen.insert((s.client, s.request)) {
                return Err(AuditViolation::DoubleApply { client: s.client, request: s.request });
            }
        }
        // Fast reads participate in the exactly-once key space: a pair
        // answered off the log can never also occupy a slot.
        for r in &self.fast_reads {
            if !seen.insert((r.client, r.request)) {
                return Err(AuditViolation::DoubleApply { client: r.client, request: r.request });
            }
        }
        // Replay interleaved with the stale-read detector: a fast read
        // at index `i` must equal the store after every slot `<= i`.
        let mut reads = self.fast_reads.iter().peekable();
        while let Some(r) = reads.next_if(|r| r.index == self.base_slot) {
            if store.get(&r.key).copied() != r.value {
                return Err(AuditViolation::StaleFastRead { request: r.request, index: r.index });
            }
        }
        let mut commands = self.base_commands;
        for (expected_slot, rec) in (self.base_slot + 1..).zip(self.slots.iter()) {
            if rec.slot != expected_slot {
                return Err(AuditViolation::SlotGap { expected: expected_slot, found: rec.slot });
            }
            for ack in &rec.commands {
                if !seen.insert((ack.client, ack.request)) {
                    return Err(AuditViolation::DoubleApply {
                        client: ack.client,
                        request: ack.request,
                    });
                }
                let expected = match ack.op {
                    KvOp::Put { key, value } => {
                        store.insert(key, value);
                        Outcome::Put { slot: rec.slot }
                    }
                    KvOp::Get { key } => {
                        Outcome::Get { slot: rec.slot, value: store.get(&key).copied() }
                    }
                };
                let replayed =
                    Response { request: ack.request, shard: self.shard, outcome: expected };
                if replayed != ack.response {
                    return Err(AuditViolation::ResponseMismatch {
                        slot: rec.slot,
                        request: ack.request,
                    });
                }
                commands += 1;
            }
            while let Some(r) = reads.next_if(|r| r.index == rec.slot) {
                if store.get(&r.key).copied() != r.value {
                    return Err(AuditViolation::StaleFastRead {
                        request: r.request,
                        index: r.index,
                    });
                }
            }
        }
        if let Some(r) = reads.next() {
            return Err(AuditViolation::ReadIndexOutOfRange { index: r.index });
        }
        if store != self.final_store || commands != self.committed_commands {
            return Err(AuditViolation::StoreDivergence);
        }
        Ok(())
    }
}

/// Dedup bookkeeping for one `(client, request)` pair.
enum DedupState {
    /// Batched or parked on the read ladder, not yet answered: the
    /// connection its ack goes to (a retry re-targets it).
    Waiting(ConnId),
    /// Applied; the cached ack answers every retry. Fast-read acks are
    /// cached too (retry idempotence within the incarnation) but are
    /// not WAL-durable — see the module docs.
    Applied(Response),
}

/// One sealed batch with its requests: queued in `ShardState::ready`
/// until a pipeline slot frees, then in `ShardState::window` until its
/// slot applies.
struct SealedBatch {
    id: BatchId,
    requests: Vec<Request>,
    /// When the batch sealed: the seal→decide stage clock.
    sealed: Instant,
    /// The instance's first decision and when it arrived (`None` until
    /// then, and while the batch waits in the ready queue).
    decided: Option<(BatchId, Instant)>,
}

/// The running service engine: a driver thread owning the replica
/// session, reachable through [`EngineHandle`]s.
#[derive(Debug)]
pub struct KvEngine {
    handle: EngineHandle,
    driver: JoinHandle<ShardedAudit>,
}

impl KvEngine {
    /// Spawns the replica session and the driver thread (recovering from
    /// the durability directory first, if one is configured).
    #[must_use]
    pub fn spawn(config: EngineConfig) -> Self {
        let (intake_tx, intake_rx) = unbounded();
        let handle = EngineHandle { intake: intake_tx, next_conn: Arc::new(AtomicU64::new(1)) };
        let driver = std::thread::spawn(move || drive(&config, &intake_rx));
        KvEngine { handle, driver }
    }

    /// A handle for registering connections.
    #[must_use]
    pub fn handle(&self) -> EngineHandle {
        self.handle.clone()
    }

    /// Shuts the engine down: seals and sequences everything still
    /// queued, waits for all in-flight instances, checkpoints every
    /// shard (when durable), then returns the service-wide audit.
    ///
    /// # Panics
    ///
    /// Panics if the driver thread panicked (e.g. the stall watchdog, or
    /// a boot-time shard-count refusal).
    #[must_use]
    pub fn shutdown(self) -> ShardedAudit {
        let _ = self.handle.intake.send(EngineMsg::Shutdown);
        self.driver.join().expect("engine driver panicked")
    }

    /// Hard-stops the engine like a crash: no drain, no final
    /// checkpoint — the durable state is exactly what the last
    /// slot-boundary fsync left behind. The in-process analog of
    /// `kill -9`, for recovery tests; in-flight commands are lost and
    /// must be replayed by their sessions.
    pub fn kill(self) {
        let _ = self.handle.intake.send(EngineMsg::Die);
        let _ = self.driver.join();
    }
}

/// Checkpoint-time verification of fast reads against the history about
/// to be folded: replays `base` + `slots` and requires every record's
/// value to match the store at its read index. Returns the mismatch
/// count (records whose index falls outside the replayed range count as
/// mismatches — they cannot be verified later, the history is being
/// dropped).
fn verify_fast_reads(base: &Snapshot, slots: &[SlotRecord], records: &[FastReadRecord]) -> u64 {
    let mut store = base.store.clone();
    let mut mismatches = 0u64;
    let mut cursor = 0usize;
    while cursor < records.len() && records[cursor].index == base.applied_through {
        if store.get(&records[cursor].key).copied() != records[cursor].value {
            mismatches += 1;
        }
        cursor += 1;
    }
    for rec in slots {
        for ack in &rec.commands {
            if let KvOp::Put { key, value } = ack.op {
                store.insert(key, value);
            }
        }
        while cursor < records.len() && records[cursor].index == rec.slot {
            if store.get(&records[cursor].key).copied() != records[cursor].value {
                mismatches += 1;
            }
            cursor += 1;
        }
    }
    mismatches + (records.len() - cursor) as u64
}

/// Routing entry of one in-flight consensus instance. The shared
/// session numbers instances globally across shards, so the driver maps
/// each id back to the shard that proposed it and the shard-local
/// instance number (= slot offset) it occupies.
struct InstanceRoute {
    shard: usize,
    local: u64,
    arrivals: usize,
}

/// Absorbs one replica result into its shard's decision tables. The
/// route entry is dropped once all `n` replicas have reported — the id
/// can never arrive again.
fn absorb_result(
    shards: &mut [ShardState],
    routes: &mut HashMap<u64, InstanceRoute>,
    n: usize,
    r: &indulgent_runtime::ReplicaResult,
) {
    let route = routes.get_mut(&r.instance).expect("replica result routes to a started instance");
    let sh = &mut shards[route.shard];
    sh.results_seen += 1;
    let row = sh.results.entry(route.local).or_insert_with(|| vec![None; n]);
    row[r.replica.index()] = r.decision;
    // Instances older than the window front have applied: a late
    // replica's result only completes their decision row.
    let front = sh.applied_through - sh.slot_base + 1;
    let entry = route.local.checked_sub(front).and_then(|i| sh.window.get_mut(i as usize));
    if let (Some(d), Some(batch)) = (r.decision, entry.filter(|b| b.decided.is_none())) {
        let now = Instant::now();
        sh.stats.seal_decide.record(nanos(now - batch.sealed));
        let value = BatchId::from_value(d.value);
        batch.decided = Some((value, now));
        sh.flight.record(FlightKind::InstanceDecide, route.local, value.0);
    }
    route.arrivals += 1;
    if route.arrivals == n {
        routes.remove(&r.instance);
    }
}

/// The `server_engine` metric family: process-wide tallies across every
/// shard of every engine in this process (the per-shard view travels in
/// the wire [`StatsReport`] instead).
#[derive(Debug)]
struct EngineMetrics {
    slots_applied: indulgent_obs::Counter,
    commands_applied: indulgent_obs::Counter,
    dedup_hits: indulgent_obs::Counter,
    wal_syncs: indulgent_obs::Counter,
    checkpoints: indulgent_obs::Counter,
    reads_lease: indulgent_obs::Counter,
    reads_quorum: indulgent_obs::Counter,
    reads_demoted: indulgent_obs::Counter,
}

static ENGINE_METRICS: EngineMetrics = EngineMetrics {
    slots_applied: indulgent_obs::Counter::new(),
    commands_applied: indulgent_obs::Counter::new(),
    dedup_hits: indulgent_obs::Counter::new(),
    wal_syncs: indulgent_obs::Counter::new(),
    checkpoints: indulgent_obs::Counter::new(),
    reads_lease: indulgent_obs::Counter::new(),
    reads_quorum: indulgent_obs::Counter::new(),
    reads_demoted: indulgent_obs::Counter::new(),
};

impl indulgent_obs::MetricFamily for EngineMetrics {
    fn name(&self) -> &'static str {
        "server_engine"
    }

    fn emit(&self, sink: &mut dyn indulgent_obs::MetricSink) {
        sink.counter("slots_applied", self.slots_applied.get());
        sink.counter("commands_applied", self.commands_applied.get());
        sink.counter("dedup_hits", self.dedup_hits.get());
        sink.counter("wal_syncs", self.wal_syncs.get());
        sink.counter("checkpoints", self.checkpoints.get());
        sink.counter("reads_lease", self.reads_lease.get());
        sink.counter("reads_quorum", self.reads_quorum.get());
        sink.counter("reads_demoted", self.reads_demoted.get());
    }
}

static REGISTER_ENGINE_METRICS: std::sync::Once = std::sync::Once::new();

fn engine_metrics() -> &'static EngineMetrics {
    REGISTER_ENGINE_METRICS.call_once(|| indulgent_obs::register_family(&ENGINE_METRICS));
    &ENGINE_METRICS
}

/// A duration as histogram-ready nanoseconds.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One shard's stage clocks: the latency histograms the wire
/// [`StatsReport`] scrapes (allocation-free to record). The timestamps
/// that feed them travel with the batches themselves.
struct ShardStats {
    /// Command arrival (first command of an open batch) to batch seal.
    submit_seal: Histogram,
    /// Batch seal to the instance's first decision (queue wait included).
    seal_decide: Histogram,
    /// First decision to apply start.
    decide_apply: Histogram,
    /// Apply start to acknowledgements sent (WAL fsync included).
    apply_ack: Histogram,
    /// WAL fsync durations.
    wal_fsync: Histogram,
    /// Ready-queue depth sampled at each seal.
    seal_depth: Histogram,
}

impl ShardStats {
    fn new() -> ShardStats {
        ShardStats {
            submit_seal: Histogram::new(),
            seal_decide: Histogram::new(),
            decide_apply: Histogram::new(),
            apply_ack: Histogram::new(),
            wal_fsync: Histogram::new(),
            seal_depth: Histogram::new(),
        }
    }
}

/// One shard group: a full independent service stack — batching, slot
/// space, store slice, dedup table, read ladder, WAL + snapshots, and
/// lease — multiplexed with its siblings over the one shared replica
/// session.
struct ShardState {
    idx: u32,
    batch_size: usize,
    dedup: HashMap<(ClientId, RequestId), DedupState>,
    /// The open (not yet sealed) batch, in arrival order.
    open: Vec<Request>,
    /// When the open batch's first command arrived: the submit→seal
    /// stage clock (meaningless while `open` is empty).
    opened: Instant,
    /// The id the next sealed batch takes. Recovery starts it past every
    /// id a previous incarnation may have minted, so an id is never
    /// proposed twice across a restart.
    next_batch: u64,
    /// Sealed batches waiting for a pipeline slot, oldest first.
    ready: VecDeque<SealedBatch>,
    /// Started, not yet applied instances, oldest first: entry `i` is
    /// local instance `applied_through - slot_base + 1 + i`.
    window: VecDeque<SealedBatch>,
    /// Per-local-instance, per-replica decisions.
    results: BTreeMap<u64, Vec<Option<Decision>>>,
    results_seen: u64,
    store: BTreeMap<u16, u32>,
    applied_batches: HashSet<BatchId>,
    slots: Vec<SlotRecord>,
    proposals: Vec<BatchId>,
    committed_commands: u64,
    dedup_hits: u64,
    duplicate_applies: u64,
    /// `Get`s parked for the fast path (lease or quorum), not yet served.
    pending_reads: VecDeque<Request>,
    fast_read_records: Vec<FastReadRecord>,
    folded_fast_reads: u64,
    fast_read_mismatches: u64,
    reads_lease: u64,
    reads_quorum: u64,
    reads_sequenced: u64,
    /// The last checkpoint: the base `slots` extend and the audit
    /// replays from (empty until the first one).
    base: Snapshot,
    /// The shard directory's files, when durable.
    disk: Option<ShardFiles>,
    /// Checkpoint every this many applied slots (`0` = only at clean
    /// shutdown, or never without `disk`).
    snapshot_every: u64,
    lease_epoch: u64,
    agents: Vec<ReplicaLeaseAgent>,
    lease: Option<LeaderLease>,
    /// Slot arithmetic across incarnations: this incarnation's local
    /// instance `i` occupies shard slot `slot_base + i`.
    slot_base: u64,
    live_from: u64,
    started: u64,
    applied_through: u64,
    stats: ShardStats,
    /// The black-box event ring, dumped to `flight_path` on checkpoint,
    /// audit violation, panic, or shutdown.
    flight: FlightRecorder,
    /// `--dir/flight-<idx>.log` when durable, `None` otherwise (an
    /// in-memory engine has nowhere durable to leave a recording).
    flight_path: Option<PathBuf>,
}

impl ShardState {
    /// Recovers one shard from its `shard-<idx>/` durability
    /// subdirectory (or boots it fresh without durability): snapshot +
    /// WAL re-hydration, then the lease-epoch burn — exactly the
    /// single-group recovery path, rooted one directory deeper.
    fn recover(idx: u32, cfg: &EngineConfig) -> ShardState {
        let n = cfg.system.n();
        let flight = FlightRecorder::new(512);
        let mut base = Snapshot::default();
        let mut slots: Vec<SlotRecord> = Vec::new();
        let disk = cfg.durability.as_ref().map(|d| {
            let (files, snapshot, records) = ShardFiles::open(&shard_dir(&d.dir, idx))
                .unwrap_or_else(|e| panic!("shard {idx} refuses to serve from its disk: {e}"));
            flight.record(
                FlightKind::RecoveredSnapshot,
                snapshot.applied_through,
                snapshot.committed,
            );
            flight.record(FlightKind::RecoveredWal, records.len() as u64, 0);
            base = snapshot;
            slots = records;
            files
        });
        // Re-hydrate: the checkpoint, then every WAL record past it.
        let mut store = base.store.clone();
        let mut dedup: HashMap<(ClientId, RequestId), DedupState> = base
            .sessions
            .iter()
            .map(|s| ((s.client, s.request), DedupState::Applied(s.response)))
            .collect();
        let mut committed_commands = base.committed;
        let mut next_batch = base.next_batch;
        let mut applied_batches: HashSet<BatchId> = HashSet::new();
        for rec in &slots {
            for ack in &rec.commands {
                if let KvOp::Put { key, value } = ack.op {
                    store.insert(key, value);
                }
                dedup.insert((ack.client, ack.request), DedupState::Applied(ack.response));
                committed_commands += 1;
            }
            next_batch = next_batch.max(rec.batch.0 + 1);
            applied_batches.insert(rec.batch);
        }

        // Lease bootstrap: burn a strictly newer epoch to the shard's
        // own directory BEFORE serving anything, so a previous
        // incarnation's grants can never be mistaken for this one's.
        let lease_epoch = if cfg.reads == ReadPath::Sequenced {
            0
        } else if let Some(d) = cfg.durability.as_ref() {
            let dir = shard_dir(&d.dir, idx);
            let epoch =
                lease::load_epoch(&dir).expect("lease epoch loads (corruption fails loudly)") + 1;
            lease::store_epoch(&dir, epoch).expect("lease epoch burns before serving");
            epoch
        } else {
            1
        };
        if lease_epoch > 0 {
            flight.record(FlightKind::EpochBurned, lease_epoch, 0);
        }
        let agents = (0..n)
            .map(|i| ReplicaLeaseAgent::new(u32::try_from(i).expect("replica index")))
            .collect();
        let lease = (lease_epoch > 0).then(|| {
            LeaderLease::new(lease_epoch, lease::fresh_holder(), n, cfg.system.quorum(), cfg.lease)
        });

        let slot_base = base.applied_through + slots.len() as u64;
        ShardState {
            idx,
            batch_size: cfg.batch_size,
            dedup,
            open: Vec::with_capacity(cfg.batch_size),
            opened: Instant::now(),
            next_batch,
            ready: VecDeque::new(),
            window: VecDeque::new(),
            results: BTreeMap::new(),
            results_seen: 0,
            store,
            applied_batches,
            slots,
            proposals: Vec::new(),
            committed_commands,
            dedup_hits: 0,
            duplicate_applies: 0,
            pending_reads: VecDeque::new(),
            fast_read_records: Vec::new(),
            folded_fast_reads: 0,
            fast_read_mismatches: 0,
            reads_lease: 0,
            reads_quorum: 0,
            reads_sequenced: 0,
            base,
            disk,
            snapshot_every: cfg.durability.as_ref().map_or(0, |d| d.snapshot_every),
            lease_epoch,
            agents,
            lease,
            slot_base,
            live_from: slot_base + 1,
            started: 0,
            applied_through: slot_base,
            stats: ShardStats::new(),
            flight,
            flight_path: cfg.durability.as_ref().map(|d| d.dir.join(format!("flight-{idx}.log"))),
        }
    }

    /// Writes the flight recording to `--dir/flight-<idx>.log` (no-op
    /// without durability; best-effort — a failed dump never takes the
    /// engine down with it).
    fn dump_flight(&self) {
        let Some(path) = self.flight_path.as_ref() else { return };
        if let Ok(mut f) = std::fs::File::create(path) {
            let _ = self.flight.dump_to(&mut f);
        }
    }

    /// Consensus instances in flight for this shard.
    fn in_flight(&self) -> u64 {
        self.window.len() as u64
    }

    /// Nothing queued, in flight, or unreported: the shard is at rest
    /// (drained for shutdown, auditable for the replay check).
    fn quiesced(&self, n: u64) -> bool {
        self.window.is_empty()
            && self.results_seen == self.started * n
            && self.open.is_empty()
            && self.ready.is_empty()
            && self.pending_reads.is_empty()
    }

    /// The submit path: exactly-once dedup, fast-read parking on the
    /// `read_path` ladder, batching.
    fn submit(
        &mut self,
        conns: &HashMap<ConnId, Sender<Outbound>>,
        conn: ConnId,
        request: Request,
        read_path: ReadPath,
    ) {
        match self.dedup.entry((request.client, request.request)) {
            Entry::Occupied(mut e) => {
                self.dedup_hits += 1;
                engine_metrics().dedup_hits.incr();
                match e.get_mut() {
                    DedupState::Applied(resp) => {
                        if let Some(tx) = conns.get(&conn) {
                            let _ = tx.send(Outbound::Ack(*resp));
                        }
                    }
                    // Still batched or parked: re-target where its
                    // eventual ack will be delivered.
                    DedupState::Waiting(to) => *to = conn,
                }
            }
            Entry::Vacant(e) => {
                e.insert(DedupState::Waiting(conn));
                if read_path != ReadPath::Sequenced && matches!(request.op, KvOp::Get { .. }) {
                    // Fast-read candidate: park it on the read ladder
                    // instead of occupying a log slot. `serve_reads`
                    // serves or demotes it every iteration, so it never
                    // starves.
                    self.pending_reads.push_back(request);
                } else {
                    self.batch(request);
                }
            }
        }
    }

    /// Adds a command to the open batch, sealing the batch once full.
    fn batch(&mut self, request: Request) {
        if matches!(request.op, KvOp::Get { .. }) {
            self.reads_sequenced += 1;
        }
        if self.open.is_empty() {
            self.opened = Instant::now();
        }
        self.open.push(request);
        if self.open.len() == self.batch_size {
            self.seal();
        }
    }

    /// Seals the open batch under the next batch id and queues it for a
    /// pipeline slot.
    fn seal(&mut self) {
        let now = Instant::now();
        self.stats.submit_seal.record(nanos(now - self.opened));
        let id = BatchId(self.next_batch);
        self.next_batch += 1;
        let requests = std::mem::replace(&mut self.open, Vec::with_capacity(self.batch_size));
        self.ready.push_back(SealedBatch { id, requests, sealed: now, decided: None });
        self.stats.seal_depth.record(self.ready.len() as u64);
    }

    /// Caches `response` as the answer to `client`'s request and returns
    /// the connection its ack goes to.
    fn answer(&mut self, client: ClientId, response: Response) -> ConnId {
        match self.dedup.insert((client, response.request), DedupState::Applied(response)) {
            Some(DedupState::Waiting(conn)) => conn,
            _ => unreachable!("a request waits in the dedup table until it is answered"),
        }
    }

    /// Seals a lingering partial batch (immediately when shutting down:
    /// nothing more is coming).
    fn seal_lingering(&mut self, shutting_down: bool) {
        if !self.open.is_empty() && (shutting_down || self.opened.elapsed() >= LINGER) {
            self.seal();
        }
    }

    /// Applies decided slots in log order: materialize, WAL + fsync,
    /// only then acknowledge; checkpoints on the shard's own cadence.
    fn apply_decided(&mut self, conns: &HashMap<ConnId, Sender<Outbound>>) {
        while let Some(&SealedBatch { decided: Some((batch, decided)), .. }) = self.window.front() {
            let requests = self.window.pop_front().expect("the front was just read").requests;
            let apply_start = Instant::now();
            self.stats.decide_apply.record(nanos(apply_start - decided));
            self.applied_through += 1;
            let slot = self.applied_through;
            if !self.applied_batches.insert(batch) {
                self.duplicate_applies += 1;
                continue;
            }
            let mut acks = Vec::with_capacity(requests.len());
            let mut targets = Vec::with_capacity(requests.len());
            for Request { client, request, op } in requests {
                let outcome = match op {
                    KvOp::Put { key, value } => {
                        self.store.insert(key, value);
                        Outcome::Put { slot }
                    }
                    KvOp::Get { key } => {
                        Outcome::Get { slot, value: self.store.get(&key).copied() }
                    }
                };
                let response = Response { request, shard: self.idx, outcome };
                targets.push(self.answer(client, response));
                acks.push(AckRecord { client, request, op, response });
                self.committed_commands += 1;
            }
            let rec = SlotRecord { slot, batch, commands: acks };
            if let Some(disk) = self.disk.as_mut() {
                // The slot-boundary durability point: record + fsync
                // before any acknowledgement can escape.
                disk.wal.append(&rec).expect("wal append");
                let sync_start = Instant::now();
                disk.wal.sync().expect("wal fsync at the slot boundary");
                let sync_ns = nanos(sync_start.elapsed());
                self.stats.wal_fsync.record(sync_ns);
                self.flight.record(FlightKind::WalSync, slot, sync_ns);
                engine_metrics().wal_syncs.incr();
            }
            for (conn, ack) in targets.iter().zip(&rec.commands) {
                if let Some(tx) = conns.get(conn) {
                    let _ = tx.send(Outbound::Ack(ack.response));
                }
            }
            self.stats.apply_ack.record(nanos(apply_start.elapsed()));
            self.flight.record(FlightKind::SlotApplied, slot, rec.commands.len() as u64);
            let metrics = engine_metrics();
            metrics.slots_applied.incr();
            metrics.commands_applied.add(rec.commands.len() as u64);
            self.slots.push(rec);

            // Checkpoint on the shard's cadence: snapshot, then
            // prefix-truncate the WAL and the in-memory slot history.
            let every = self.snapshot_every;
            if every > 0 && slot - self.base.applied_through >= every {
                let snap = self.checkpoint().expect("a checkpoint cadence implies a disk");
                // Fold the fast reads alongside: verify them against the
                // history being dropped, latch any mismatch, and clear —
                // retained records always postdate the last checkpoint.
                self.folded_fast_reads += self.fast_read_records.len() as u64;
                self.fast_read_mismatches +=
                    verify_fast_reads(&self.base, &self.slots, &self.fast_read_records);
                self.fast_read_records.clear();
                self.base = snap;
                self.slots.clear();
                self.flight.record(FlightKind::Checkpoint, slot, 0);
                engine_metrics().checkpoints.incr();
                // Refresh the on-disk recording at every checkpoint, so
                // even a kill -9 (uncatchable) leaves a recent black box
                // for the restart-storm artifacts.
                self.dump_flight();
            }
        }
    }

    /// The live state as a checkpoint: every slot applied so far, and
    /// the Applied half of the dedup table, deterministically ordered.
    fn snapshot(&self) -> Snapshot {
        let mut sessions: Vec<SessionEntry> = self
            .dedup
            .iter()
            .filter_map(|(&(client, request), state)| match state {
                DedupState::Applied(response) => {
                    Some(SessionEntry { client, request, response: *response })
                }
                DedupState::Waiting(_) => None,
            })
            .collect();
        sessions.sort_by_key(|s| (s.client.0, s.request.0));
        Snapshot {
            applied_through: self.applied_through,
            next_batch: self.next_batch,
            committed: self.committed_commands,
            store: self.store.clone(),
            sessions,
        }
    }

    /// Writes [`snapshot`](Self::snapshot) to disk and truncates the WAL
    /// it covers; `None` without durability.
    fn checkpoint(&mut self) -> Option<Snapshot> {
        let snap = self.disk.is_some().then(|| self.snapshot())?;
        self.disk.as_mut()?.checkpoint(&snap).expect("checkpoint: snapshot write, wal truncation");
        Some(snap)
    }

    /// Lease upkeep: renew this shard's lease with its replica agents
    /// when due.
    fn lease_upkeep(&mut self) {
        let mut renewed = false;
        if let Some(ls) = self.lease.as_mut() {
            let now = Instant::now();
            if ls.renew_due(now) {
                let acquire = ls.acquire(now);
                for agent in &mut self.agents {
                    ls.absorb(&agent.handle(&acquire, now).expect("an agent answers an acquire"));
                }
                renewed = true;
            }
        }
        if renewed {
            let grants = self.lease.as_ref().map_or(0, |l| l.healthy_grants(Instant::now()));
            self.flight.record(FlightKind::LeaseRenewed, self.lease_epoch, grants as u64);
        }
    }

    /// The read ladder: serve every pending read at this shard's applied
    /// frontier — lease read when healthy, quorum read after an attest
    /// round, sequenced read at the bottom.
    fn serve_reads(
        &mut self,
        conns: &HashMap<ConnId, Sender<Outbound>>,
        quorum: usize,
        read_path: ReadPath,
    ) {
        if self.pending_reads.is_empty() {
            return;
        }
        let now = Instant::now();
        let lease_ok = read_path == ReadPath::Lease
            && self.lease.as_ref().is_some_and(|l| l.read_allowed(now));
        let agents = &mut self.agents;
        let attested = !lease_ok
            && self.lease.as_ref().is_some_and(|ls| {
                // Ladder step 2: one attest round re-certifies freshness
                // for this whole drain batch.
                let attest = ls.attest();
                let vouches = agents
                    .iter_mut()
                    .map(|a| a.handle(&attest, now))
                    .filter(|r| matches!(r, Some(LeaseFrame::Vouch { valid: true, .. })))
                    .count();
                vouches >= quorum
            });
        if lease_ok || attested {
            while let Some(Request { client, request, op }) = self.pending_reads.pop_front() {
                let key = op.key();
                let value = self.store.get(&key).copied();
                let response = Response {
                    request,
                    shard: self.idx,
                    outcome: Outcome::Read { index: self.applied_through, value },
                };
                if let Some(tx) = conns.get(&self.answer(client, response)) {
                    let _ = tx.send(Outbound::Ack(response));
                }
                self.fast_read_records.push(FastReadRecord {
                    client,
                    request,
                    key,
                    index: self.applied_through,
                    epoch: self.lease_epoch,
                    attested: !lease_ok,
                    value,
                });
                if lease_ok {
                    self.reads_lease += 1;
                    engine_metrics().reads_lease.incr();
                } else {
                    self.reads_quorum += 1;
                    engine_metrics().reads_quorum.incr();
                }
            }
        } else {
            // Ladder bottom: no lease, no quorum — sequence the reads
            // through the log like the pre-lease service.
            let demoted = self.pending_reads.len() as u64;
            self.flight.record(FlightKind::ReadsDemoted, demoted, self.applied_through);
            engine_metrics().reads_demoted.add(demoted);
            // Their dedup entries keep naming the connection to ack.
            while let Some(request) = self.pending_reads.pop_front() {
                self.batch(request);
            }
        }
    }

    /// Streams this shard's durable state (checkpoint + catch-up
    /// records) to one connection — the per-shard rejoin transfer.
    fn serve_sync(&self, tx: &Sender<Outbound>) {
        let blob = self.base.to_framed_bytes();
        const CHUNK: usize = 48 * 1024;
        let total = u32::try_from(blob.chunks(CHUNK).count().max(1)).expect("chunk count");
        for (i, chunk) in blob.chunks(CHUNK).enumerate() {
            let frame = SyncFrame::SnapshotChunk {
                index: u32::try_from(i).expect("chunk index"),
                total,
                bytes: chunk.to_vec(),
            };
            let _ = tx.send(Outbound::Control(frame.encode()));
        }
        for rec in &self.slots {
            let mut bytes = Vec::new();
            crate::wal::encode_record(rec, &mut bytes);
            let _ = tx.send(Outbound::Control(SyncFrame::Record { bytes }.encode()));
        }
        let _ = tx.send(Outbound::Control(
            SyncFrame::Done { applied_through: self.applied_through }.encode(),
        ));
    }

    /// A point-in-time [`LeaseStatus`] dump of this shard.
    fn lease_status(&self, shards: u32, mode: u8) -> LeaseStatus {
        let now = Instant::now();
        LeaseStatus {
            shard: self.idx,
            shards,
            mode,
            epoch: self.lease_epoch,
            healthy: self.lease.as_ref().is_some_and(|l| l.read_allowed(now)),
            grants: u32::try_from(self.lease.as_ref().map_or(0, |l| l.healthy_grants(now)))
                .unwrap_or(u32::MAX),
            read_index: self.applied_through,
            reads_lease: self.reads_lease,
            reads_quorum: self.reads_quorum,
            reads_sequenced: self.reads_sequenced,
        }
    }

    /// A point-in-time [`StatsReport`] scrape of this shard.
    fn stats_report(&self, shards: u32) -> StatsReport {
        StatsReport {
            shard: self.idx,
            shards,
            slots: self.applied_through,
            committed: self.committed_commands,
            dedup_hits: self.dedup_hits,
            reads_lease: self.reads_lease,
            reads_quorum: self.reads_quorum,
            reads_sequenced: self.reads_sequenced,
            submit_seal: self.stats.submit_seal.snapshot(),
            seal_decide: self.stats.seal_decide.snapshot(),
            decide_apply: self.stats.decide_apply.snapshot(),
            apply_ack: self.stats.apply_ack.snapshot(),
            wal_fsync: self.stats.wal_fsync.snapshot(),
            seal_depth: self.stats.seal_depth.snapshot(),
        }
    }

    /// This shard's audit view (cheap clones of the retained history).
    fn audit(&self, system: SystemConfig) -> ServiceAudit {
        ServiceAudit {
            system,
            shard: self.idx,
            base_slot: self.base.applied_through,
            base_store: self.base.store.clone(),
            base_sessions: self.base.sessions.clone(),
            base_commands: self.base.committed,
            live_from: self.live_from,
            slots: self.slots.clone(),
            proposals: self.proposals.clone(),
            replica_decisions: self.results.values().cloned().collect(),
            final_store: self.store.clone(),
            committed_commands: self.committed_commands,
            dedup_hits: self.dedup_hits,
            duplicate_applies: self.duplicate_applies,
            fast_reads: self.fast_read_records.clone(),
            folded_fast_reads: self.folded_fast_reads,
            fast_read_mismatches: self.fast_read_mismatches,
            lease_epoch: self.lease_epoch,
        }
    }

    /// A clean shutdown checkpoints so a restart recovers from the
    /// snapshot alone. The in-memory history is not folded: the audit
    /// returned at shutdown still spans every slot since the last
    /// periodic checkpoint.
    fn final_checkpoint(&mut self) {
        self.checkpoint();
        self.flight.record(FlightKind::Shutdown, self.applied_through, self.committed_commands);
        self.dump_flight();
    }
}

/// What intake leaves for later in the driver loop: control requests,
/// answered at step 5b against the just-applied state, and the lifecycle
/// flags.
#[derive(Debug, Default)]
struct Deferred {
    controls: Vec<(ConnId, ControlRequest)>,
    shutting_down: bool,
    died: bool,
}

/// Handles one intake message: (de)registrations take effect and each
/// submitted request goes to its key's shard at once; the rest lands in
/// `deferred`.
fn handle(
    msg: EngineMsg,
    conns: &mut HashMap<ConnId, Sender<Outbound>>,
    shards: &mut [ShardState],
    router: &ShardRouter,
    read_path: ReadPath,
    deferred: &mut Deferred,
) {
    let mut submit = |conn, request: Request| {
        let si = router.shard_of(request.op.key()) as usize;
        shards[si].submit(conns, conn, request, read_path);
    };
    match msg {
        EngineMsg::Submit { conn, request } => submit(conn, request),
        EngineMsg::SubmitBatch { conn, requests } => {
            requests.into_iter().for_each(|request| submit(conn, request));
        }
        EngineMsg::Register { conn, tx } => {
            conns.insert(conn, tx);
        }
        EngineMsg::Deregister { conn } => {
            conns.remove(&conn);
        }
        EngineMsg::Control { conn, request } => deferred.controls.push((conn, request)),
        EngineMsg::Shutdown => deferred.shutting_down = true,
        EngineMsg::Die => deferred.died = true,
    }
}

/// The driver thread: the shard-multiplexing event loop described in the
/// module docs.
#[allow(clippy::too_many_lines)]
fn drive(cfg: &EngineConfig, intake: &Receiver<EngineMsg>) -> ShardedAudit {
    let n = cfg.system.n();
    let shard_count = u32::try_from(cfg.shards).expect("shard count fits u32");
    let router = ShardRouter::new(shard_count);

    // Boot refusal: a durable root laid out for a different shard count
    // must not be rehashed silently. A fresh root records its count
    // before any shard serves.
    if let Some(d) = cfg.durability.as_ref() {
        match crate::shard::load_manifest(&d.dir)
            .expect("shard manifest loads (corruption fails loudly)")
        {
            Some(on_disk) => assert_eq!(
                on_disk, shard_count,
                "refusing to boot: durability root is laid out for {on_disk} shard(s), \
                 engine configured for {shard_count}"
            ),
            None => crate::shard::store_manifest(&d.dir, shard_count)
                .expect("shard manifest burns before any shard serves"),
        }
    }

    // ONE recycling session serves every shard: the worker pool is
    // shared, so S shards add zero threads over a single group. Instance
    // ids are global; `routes` maps them back to shards.
    let mut session: Session<AtSlot> =
        Session::with_recycler(cfg.system, GRACE, at_plus2_factory(cfg.system), at_plus2_reset());
    let spec = InstanceSpec { crashes: vec![None; n], delays: cfg.delays, max_rounds: MAX_ROUNDS };

    let mut conns: HashMap<ConnId, Sender<Outbound>> = HashMap::new();
    let mut shards: Vec<ShardState> =
        (0..shard_count).map(|i| ShardState::recover(i, cfg)).collect();
    let mut routes: HashMap<u64, InstanceRoute> = HashMap::new();

    let read_path = cfg.reads;
    let mut deferred = Deferred::default();
    let mut last_progress = Instant::now();
    engine_metrics();

    // The event loop runs under catch_unwind so a panic (the stall
    // watchdog, a broken invariant) leaves each shard's flight recording
    // on disk before propagating — the black box outlives the crash.
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
        // 1. Drain intake, routing each submit to its key's shard.
        while let Ok(msg) = intake.try_recv() {
            handle(msg, &mut conns, &mut shards, &router, read_path, &mut deferred);
        }
        if deferred.died {
            break;
        }

        // 2 + 3. Per shard: seal lingering batches, then propose into
        // the shard's pipeline window on the shared session.
        for (si, sh) in shards.iter_mut().enumerate() {
            sh.seal_lingering(deferred.shutting_down);
            while sh.in_flight() < cfg.pipeline_depth {
                let Some(batch) = sh.ready.pop_front() else { break };
                let instance =
                    session.start_instance_recycled(&vec![batch.id.as_value(); n], &spec);
                sh.started += 1;
                sh.flight.record(FlightKind::InstanceStart, sh.started, batch.id.0);
                routes
                    .insert(instance, InstanceRoute { shard: si, local: sh.started, arrivals: 0 });
                sh.proposals.push(batch.id);
                // The batch keeps its seal clock: the seal→decide stage
                // covers ready-queue wait + consensus.
                sh.window.push_back(batch);
                last_progress = Instant::now();
            }
        }

        // 4. Pump replica results back to their shards.
        while let Some(r) = session.try_next_result() {
            last_progress = Instant::now();
            absorb_result(&mut shards, &mut routes, n, &r);
        }

        // 5 + 5a. Per shard: apply decided slots, then run the read
        // ladder at the new frontier.
        for sh in &mut shards {
            sh.apply_decided(&conns);
            sh.lease_upkeep();
            sh.serve_reads(&conns, cfg.system.quorum(), read_path);
        }

        // 5b. Answer control requests (state transfers, lease probes,
        // scrapes, audits) against the just-applied state. Requests
        // naming an unknown shard are dropped.
        for (conn, request) in deferred.controls.drain(..) {
            let Some(tx) = conns.get(&conn) else { continue };
            let reply = match request {
                ControlRequest::Sync(i) => {
                    if let Some(sh) = shards.get(i as usize) {
                        sh.serve_sync(tx);
                    }
                    continue;
                }
                ControlRequest::LeaseState(i) => {
                    let Some(sh) = shards.get(i as usize) else { continue };
                    sh.lease_status(shard_count, read_path.as_wire()).encode()
                }
                ControlRequest::Stats(i) => {
                    let Some(sh) = shards.get(i as usize) else { continue };
                    sh.stats_report(shard_count).encode()
                }
                ControlRequest::Audit => {
                    let quiesced = shards.iter().all(|s| s.quiesced(n as u64));
                    let ok = quiesced && {
                        let shards = shards.iter().map(|s| s.audit(cfg.system)).collect();
                        ShardedAudit { shards }.check().is_ok()
                    };
                    if quiesced && !ok {
                        // A failed replay audit ships every shard's black
                        // box: the recording is the context the violation
                        // lacks.
                        for sh in &shards {
                            sh.flight.record(FlightKind::AuditViolation, u64::from(sh.idx), 0);
                            sh.dump_flight();
                        }
                    }
                    AuditSummary {
                        complete: quiesced,
                        ok,
                        slots: shards.iter().map(|s| s.applied_through).sum(),
                        committed: shards.iter().map(|s| s.committed_commands).sum(),
                        dedup_hits: shards.iter().map(|s| s.dedup_hits).sum(),
                        fast_reads: shards.iter().map(|s| s.reads_lease + s.reads_quorum).sum(),
                        lease_epoch: shards[0].lease_epoch,
                        shards: shard_count,
                    }
                    .encode()
                }
            };
            let _ = tx.send(Outbound::Control(reply));
        }

        // 6. Exit once shutdown has drained every shard.
        if deferred.shutting_down && shards.iter().all(|s| s.quiesced(n as u64)) {
            break;
        }

        // 7. Watchdog + idle strategy: park briefly on the intake
        // channel (new work wakes us); pending consensus results bound
        // the nap so the apply path stays hot.
        let busy =
            shards.iter().any(|s| s.in_flight() > 0 || s.results_seen < s.started * n as u64);
        if busy {
            assert!(
                last_progress.elapsed() < STALL_TIMEOUT,
                "engine stalled: {} instances in flight, no replica progress for {STALL_TIMEOUT:?}",
                shards.iter().map(ShardState::in_flight).sum::<u64>(),
            );
            if let Some(r) = session.next_result_timeout(Duration::from_micros(200)) {
                last_progress = Instant::now();
                absorb_result(&mut shards, &mut routes, n, &r);
            }
        } else if !deferred.shutting_down {
            let nap = if shards.iter().any(|s| !s.open.is_empty()) {
                LINGER
            } else {
                Duration::from_millis(2)
            };
            // Control requests wait in `deferred` for the next
            // iteration's step 5b; a Die exits at its step 1.
            if let Ok(msg) = intake.recv_timeout(nap) {
                handle(msg, &mut conns, &mut shards, &router, read_path, &mut deferred);
            }
        }
    }));
    if let Err(panic) = crashed {
        for sh in &shards {
            sh.flight.record(FlightKind::Panic, 0, 0);
            sh.dump_flight();
        }
        std::panic::resume_unwind(panic);
    }

    // A clean shutdown checkpoints every shard so a restart recovers
    // from the snapshots alone; a Die exits with whatever each shard's
    // last fsync holds.
    if !deferred.died {
        for sh in &mut shards {
            sh.final_checkpoint();
        }
    }

    ShardedAudit { shards: shards.iter().map(|s| s.audit(cfg.system)).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lease-path `Get` submitted on connection 1 and retried on
    /// connection 2 before the ladder serves it: whichever rung answers,
    /// the ack goes to connection 2 alone.
    #[test]
    fn a_retried_parked_read_is_acked_on_the_retrying_connection_only() {
        let cfg = EngineConfig::default_5().with_reads(ReadPath::Lease);
        let quorum = cfg.system.quorum();
        let get = Request { client: ClientId(7), request: RequestId(0), op: KvOp::Get { key: 3 } };
        let (tx1, rx1) = unbounded();
        let (tx2, rx2) = unbounded();
        let conns = HashMap::from([(ConnId(1), tx1), (ConnId(2), tx2)]);
        let submit_twice = |sh: &mut ShardState| {
            sh.submit(&conns, ConnId(1), get, ReadPath::Lease);
            sh.submit(&conns, ConnId(2), get, ReadPath::Lease);
            assert_eq!(sh.dedup_hits, 1, "the retry is a dedup hit");
        };

        // Lease rung: the grants are fresh, the read is served at once.
        let mut sh = ShardState::recover(0, &cfg);
        submit_twice(&mut sh);
        sh.lease_upkeep();
        sh.serve_reads(&conns, quorum, ReadPath::Lease);
        assert_eq!(sh.reads_lease, 1);
        assert!(matches!(rx2.try_recv(), Ok(Outbound::Ack(r)) if r.request == get.request));
        assert!(rx2.try_recv().is_err(), "the read is acked once");
        assert!(rx1.try_recv().is_err(), "the first connection gets no ack");
        assert_eq!(sh.dedup_hits, 1);

        // Ladder bottom: no grants and no vouches, so the read is
        // demoted into the open batch, still addressed to connection 2.
        let mut sh = ShardState::recover(0, &cfg);
        submit_twice(&mut sh);
        sh.serve_reads(&conns, quorum, ReadPath::Lease);
        assert_eq!((sh.reads_sequenced, sh.open.len()), (1, 1));
        assert!(matches!(
            sh.dedup.get(&(get.client, get.request)),
            Some(DedupState::Waiting(ConnId(2)))
        ));
        // Sequence it: seal, decide the proposed batch, apply.
        sh.seal_lingering(true);
        let mut batch = sh.ready.pop_front().expect("the demoted read sealed");
        batch.decided = Some((batch.id, Instant::now()));
        sh.window.push_back(batch);
        sh.apply_decided(&conns);
        assert!(matches!(
            rx2.try_recv(),
            Ok(Outbound::Ack(Response { outcome: Outcome::Get { slot: 1, .. }, .. }))
        ));
        assert!(rx1.try_recv().is_err(), "the first connection gets no ack");
    }
}
