//! One shard group: the per-shard state machine, and what all shards of
//! a service share — the [`ShardRouter`], and the `shards.manifest`
//! ([`load_manifest`]/[`store_manifest`]) that refuses a boot whose
//! shard count disagrees with the disk layout.
//!
//! Single-key KV commands on different keys never need a shared total
//! order, so the service partitions its keyspace across `S` independent
//! `A_{t+2}` log pipelines. Each shard owns a full stack: its batching
//! and batch ids, slot space, store slice, dedup table, read ladder,
//! WAL + snapshot subdirectory, and lease. The engine ([`crate::engine`])
//! drives every shard through the same steps — submit, start, on-result,
//! apply, serve reads — none of which needs a replica session.
//!
//! # Crash recovery
//!
//! With a [`DurabilityConfig`](crate::DurabilityConfig), the fault model
//! widens from crash-stop to crash-*recovery*. Every applied slot is
//! WAL-logged and fsynced before it is acknowledged, and every
//! `snapshot_every` slots the shard checkpoints — snapshot (store +
//! session dedup table + applied-through + batch-id high-water mark)
//! written atomically, then the WAL and the in-memory slot history
//! prefix-truncated. A restarted shard re-hydrates from snapshot + WAL
//! replay: the store resumes, *sessions resume* (a retry of a pre-crash
//! request is still answered from the cache — exactly once survives the
//! restart), and new consensus instances map onto log slots past the
//! recovered prefix (`slot = recovered_base + instance`, since a fresh
//! session's instance ids restart at 1). Lease epochs are burned to disk
//! before an incarnation serves anything, so a rebooted leader
//! re-acquires under a strictly newer epoch and can never fast-read on
//! the promises made to its previous self.
//!
//! # Reads: the lease fast path
//!
//! Writes are always sequenced; reads follow the configured
//! [`ReadPath`]. Under `--reads log` ([`ReadPath::Sequenced`]) a `Get`
//! occupies a slot exactly like a write. Under [`ReadPath::Lease`] the
//! shard holds a leader lease ([`crate::lease`]) and answers `Get`s from
//! its applied store at a *read index* equal to the applied frontier,
//! without a slot, a WAL record, or an fsync; when the lease is suspect
//! it falls down the ladder (quorum-attest read, then sequenced read).
//! Every fast read is recorded as a [`FastReadRecord`] for the audit
//! ([`crate::audit`]), which folds the records into each checkpoint.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use indulgent_model::{BatchId, ClientId, Decision, RequestId};
use indulgent_obs::{FlightKind, FlightRecorder, Histogram};

use crate::audit::{unconfirmed_reads, FastReadRecord, ServiceAudit, ShardedAudit};
use crate::engine::{ConnId, Conns, EngineConfig, Outbound};
use crate::lease::{self, LeaderLease, LeaseFrame, ReadPath, ReplicaLeaseAgent};
use crate::proto::{
    AuditSummary, KvOp, LeaseStatus, Outcome, Request, Response, StatsReport, SyncFrame,
};
use crate::snapshot::{SessionEntry, Snapshot};
use crate::wal::{
    encode_record, load_checked, store_checked, AckRecord, ShardFiles, SlotRecord, MANIFEST_FILE,
};

/// How long a non-empty partial batch may linger before it is sealed
/// anyway — bounds the latency a lone request pays for batching.
pub(crate) const LINGER: Duration = Duration::from_micros(500);

/// Maps keys to shard groups with a fixed multiplicative hash.
///
/// The hash is deterministic across processes and incarnations — the
/// routing rule *is* the data layout, so it must never drift between a
/// client computing placement, the engine applying a command, and a
/// recovery replaying yesterday's WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u32,
}

impl ShardRouter {
    /// A router over `shards` groups.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(shards: u32) -> Self {
        assert!(shards >= 1, "a service has at least one shard");
        ShardRouter { shards }
    }

    /// How many shards this router spreads the keyspace over.
    #[must_use]
    pub fn shards(self) -> u32 {
        self.shards
    }

    /// The shard owning `key`. Fixed multiplicative hash (a Murmur-style
    /// xor fold through the 64-bit golden ratio), taking the high bits
    /// so consecutive keys spread instead of striping.
    #[must_use]
    pub fn shard_of(self, key: u16) -> u32 {
        let mixed = (u64::from(key) ^ 0x5bd1_e995).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        u32::try_from((mixed >> 32) % u64::from(self.shards)).expect("residue fits u32")
    }
}

/// The subdirectory of the durability root holding shard `idx`'s WAL,
/// snapshots, and lease epoch.
#[must_use]
pub fn shard_dir(root: &Path, idx: u32) -> PathBuf {
    root.join(format!("shard-{idx}"))
}

/// Loads the shard count recorded at `root`; `Ok(None)` if no manifest
/// was ever written (a fresh root). A corrupt manifest is an error, not
/// a silent default — booting with the wrong shard count rehashes the
/// keyspace.
pub fn load_manifest(root: &Path) -> io::Result<Option<u32>> {
    Ok(load_checked(&root.join(MANIFEST_FILE))?.map(u32::from_le_bytes))
}

/// Durably records `shards` at `root` (atomic temp-write + fsync +
/// rename, the snapshot idiom). Must complete before any shard serves
/// so a crash mid-boot cannot leave an unlabeled multi-shard layout.
pub fn store_manifest(root: &Path, shards: u32) -> io::Result<()> {
    store_checked(&root.join(MANIFEST_FILE), &shards.to_le_bytes())
}

/// Dedup bookkeeping for one `(client, request)` pair.
enum DedupState {
    /// Batched or parked on the read ladder, not yet answered: the
    /// connection its ack goes to (a retry re-targets it).
    Waiting(ConnId),
    /// Applied; the cached ack answers every retry. Fast-read acks are
    /// cached too (retry idempotence within the incarnation) but are
    /// not WAL-durable — see [`crate::lease`].
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
#[derive(Default)]
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

/// One shard group: a full independent service stack — batching, slot
/// space, store slice, dedup table, read ladder, WAL + snapshots, and
/// lease — driven step by step by the engine's event loop.
pub(crate) struct ShardState {
    idx: u32,
    /// The configuration the engine booted this shard with.
    cfg: EngineConfig,
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
    lease_epoch: u64,
    agents: Vec<ReplicaLeaseAgent>,
    lease: Option<LeaderLease>,
    /// Slot arithmetic across incarnations: this incarnation's local
    /// instance `i` occupies shard slot `slot_base + i`.
    slot_base: u64,
    started: u64,
    applied_through: u64,
    stats: ShardStats,
    /// The black-box event ring, dumped on checkpoint, audit violation,
    /// panic, or shutdown.
    flight: FlightRecorder,
}

impl ShardState {
    /// Recovers one shard from its `shard-<idx>/` durability
    /// subdirectory (or boots it fresh without durability): snapshot +
    /// WAL re-hydration, then the lease-epoch burn.
    pub(crate) fn recover(idx: u32, cfg: &EngineConfig) -> ShardState {
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
        // Register the metric family before anything is counted, so a
        // dump lists it from boot.
        engine_metrics();

        let slot_base = base.applied_through + slots.len() as u64;
        ShardState {
            idx,
            cfg: cfg.clone(),
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
            lease_epoch,
            agents,
            lease,
            slot_base,
            started: 0,
            applied_through: slot_base,
            stats: ShardStats::default(),
            flight,
        }
    }

    /// Records one last event, then writes the flight recording to
    /// `--dir/flight-<idx>.log` (no-op without durability: an in-memory
    /// engine has nowhere durable to leave it; best-effort — a failed
    /// dump never takes the engine down with it).
    pub(crate) fn dump_flight(&self, kind: FlightKind, a: u64, b: u64) {
        self.flight.record(kind, a, b);
        let Some(d) = self.cfg.durability.as_ref() else { return };
        if let Ok(mut f) = std::fs::File::create(d.dir.join(format!("flight-{}.log", self.idx))) {
            let _ = self.flight.dump_to(&mut f);
        }
    }

    /// Consensus instances in flight for this shard.
    pub(crate) fn in_flight(&self) -> u64 {
        self.window.len() as u64
    }

    /// Instances in flight, or replica results still to come.
    pub(crate) fn busy(&self) -> bool {
        !self.window.is_empty() || self.results_seen < self.started * self.cfg.system.n() as u64
    }

    /// A partial batch is waiting to fill or linger out.
    pub(crate) fn has_open_batch(&self) -> bool {
        !self.open.is_empty()
    }

    /// Nothing queued, in flight, or unreported: the shard is at rest
    /// (drained for shutdown, auditable for the replay check).
    pub(crate) fn quiesced(&self) -> bool {
        !self.busy()
            && self.open.is_empty()
            && self.ready.is_empty()
            && self.pending_reads.is_empty()
    }

    /// The submit step: exactly-once dedup, fast-read parking on the
    /// read ladder, batching.
    pub(crate) fn submit(&mut self, conns: &Conns, conn: ConnId, request: Request) {
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
                if self.cfg.reads != ReadPath::Sequenced && matches!(request.op, KvOp::Get { .. }) {
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
        if self.open.len() == self.cfg.batch_size {
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
        let requests = std::mem::replace(&mut self.open, Vec::with_capacity(self.cfg.batch_size));
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
    pub(crate) fn seal_lingering(&mut self, shutting_down: bool) {
        if !self.open.is_empty() && (shutting_down || self.opened.elapsed() >= LINGER) {
            self.seal();
        }
    }

    /// The start step: moves the oldest sealed batch into the pipeline
    /// window if it has room. Returns the shard-local instance the batch
    /// occupies and the id every replica proposes for it.
    pub(crate) fn start_next(&mut self) -> Option<(u64, BatchId)> {
        if self.in_flight() >= self.cfg.pipeline_depth {
            return None;
        }
        // The batch keeps its seal clock: the seal→decide stage covers
        // ready-queue wait + consensus.
        let batch = self.ready.pop_front()?;
        let id = batch.id;
        self.started += 1;
        self.flight.record(FlightKind::InstanceStart, self.started, id.0);
        self.proposals.push(id);
        self.window.push_back(batch);
        Some((self.started, id))
    }

    /// The on-result step: one replica's report for local instance
    /// `local` completes its decision row, and the first decision marks
    /// the batch decided.
    pub(crate) fn on_result(&mut self, local: u64, replica: usize, decision: Option<Decision>) {
        self.results_seen += 1;
        let n = self.cfg.system.n();
        self.results.entry(local).or_insert_with(|| vec![None; n])[replica] = decision;
        // Instances older than the window front have applied: a late
        // replica's result only completes their decision row.
        let front = self.applied_through - self.slot_base + 1;
        let entry = local.checked_sub(front).and_then(|i| self.window.get_mut(i as usize));
        if let (Some(d), Some(batch)) = (decision, entry.filter(|b| b.decided.is_none())) {
            let now = Instant::now();
            self.stats.seal_decide.record(nanos(now - batch.sealed));
            let value = BatchId::from_value(d.value);
            batch.decided = Some((value, now));
            self.flight.record(FlightKind::InstanceDecide, local, value.0);
        }
    }

    /// The apply step: applies decided slots in log order — materialize,
    /// WAL + fsync, only then acknowledge — and checkpoints on the
    /// shard's own cadence.
    pub(crate) fn apply_decided(&mut self, conns: &Conns) {
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
            let every = self.cfg.durability.as_ref().map_or(0, |d| d.snapshot_every);
            if every > 0 && slot - self.base.applied_through >= every {
                let snap = self.checkpoint().expect("a checkpoint cadence implies a disk");
                // Fold the fast reads alongside: replay the history being
                // dropped, latch every read it cannot confirm, and clear —
                // retained records always postdate the last checkpoint.
                self.folded_fast_reads += self.fast_read_records.len() as u64;
                self.fast_read_mismatches +=
                    unconfirmed_reads(self.idx, &self.base, &self.slots, &self.fast_read_records);
                self.fast_read_records.clear();
                self.base = snap;
                self.slots.clear();
                engine_metrics().checkpoints.incr();
                // Refresh the on-disk recording at every checkpoint, so
                // even a kill -9 (uncatchable) leaves a recent black box
                // for the restart-storm artifacts.
                self.dump_flight(FlightKind::Checkpoint, slot, 0);
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
    pub(crate) fn lease_upkeep(&mut self) {
        let Some(ls) = self.lease.as_mut() else { return };
        let now = Instant::now();
        if !ls.renew_due(now) {
            return;
        }
        let acquire = ls.acquire(now);
        for agent in &mut self.agents {
            ls.absorb(&agent.handle(&acquire, now).expect("an agent answers an acquire"));
        }
        let grants = ls.healthy_grants(Instant::now());
        self.flight.record(FlightKind::LeaseRenewed, self.lease_epoch, grants as u64);
    }

    /// The read ladder: serve every pending read at this shard's applied
    /// frontier — lease read when healthy, quorum read after an attest
    /// round, sequenced read at the bottom.
    pub(crate) fn serve_reads(&mut self, conns: &Conns) {
        if self.pending_reads.is_empty() {
            return;
        }
        let now = Instant::now();
        let lease_ok = self.cfg.reads == ReadPath::Lease
            && self.lease.as_ref().is_some_and(|l| l.read_allowed(now));
        let quorum = self.cfg.system.quorum();
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
    pub(crate) fn serve_sync(&self, tx: &Sender<Outbound>) {
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
            encode_record(rec, &mut bytes);
            let _ = tx.send(Outbound::Control(SyncFrame::Record { bytes }.encode()));
        }
        let _ = tx.send(Outbound::Control(
            SyncFrame::Done { applied_through: self.applied_through }.encode(),
        ));
    }

    /// A point-in-time [`LeaseStatus`] dump of this shard.
    pub(crate) fn lease_status(&self, shards: u32) -> LeaseStatus {
        let now = Instant::now();
        LeaseStatus {
            shard: self.idx,
            shards,
            mode: self.cfg.reads.as_wire(),
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
    pub(crate) fn stats_report(&self, shards: u32) -> StatsReport {
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

    /// This shard's audit view (clones of the retained history).
    pub(crate) fn audit(&self) -> ServiceAudit {
        ServiceAudit {
            system: self.cfg.system,
            shard: self.idx,
            base: self.base.clone(),
            live_from: self.slot_base + 1,
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
    pub(crate) fn final_checkpoint(&mut self) {
        self.checkpoint();
        self.dump_flight(FlightKind::Shutdown, self.applied_through, self.committed_commands);
    }
}

/// The reply to an audit request: the replay verdict over every shard
/// (run only once all are at rest) and the service-wide counts. A failed
/// verdict leaves every shard's flight recording on disk — the context
/// the violation lacks.
pub(crate) fn audit_summary(shards: &[ShardState]) -> AuditSummary {
    let complete = shards.iter().all(ShardState::quiesced);
    let ok = complete
        && ShardedAudit { shards: shards.iter().map(ShardState::audit).collect() }.check().is_ok();
    if complete && !ok {
        for sh in shards {
            sh.dump_flight(FlightKind::AuditViolation, u64::from(sh.idx), 0);
        }
    }
    AuditSummary {
        complete,
        ok,
        slots: shards.iter().map(|s| s.applied_through).sum(),
        committed: shards.iter().map(|s| s.committed_commands).sum(),
        dedup_hits: shards.iter().map(|s| s.dedup_hits).sum(),
        fast_reads: shards.iter().map(|s| s.reads_lease + s.reads_quorum).sum(),
        lease_epoch: shards[0].lease_epoch,
        shards: u32::try_from(shards.len()).expect("shard count fits u32"),
    }
}

#[cfg(test)]
mod tests {
    use crossbeam::channel::unbounded;
    use indulgent_model::{ProcessId, Round};

    use super::*;
    use crate::audit::AuditViolation;
    use crate::engine::DurabilityConfig;

    #[test]
    fn router_is_deterministic_and_total() {
        for shards in [1u32, 2, 3, 4, 8] {
            let router = ShardRouter::new(shards);
            for key in 0..=u16::MAX {
                let s = router.shard_of(key);
                assert!(s < shards);
                assert_eq!(s, router.shard_of(key), "placement is a pure function of the key");
            }
        }
    }

    #[test]
    fn router_spreads_the_keyspace() {
        // Not a uniformity proof — just a guard against a degenerate
        // hash that stripes everything onto one shard.
        let router = ShardRouter::new(4);
        let mut counts = [0u32; 4];
        for key in 0..512u16 {
            counts[router.shard_of(key) as usize] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(count >= 64, "shard {shard} owns only {count} of 512 keys");
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let router = ShardRouter::new(1);
        for key in [0u16, 1, 255, u16::MAX] {
            assert_eq!(router.shard_of(key), 0);
        }
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let root = std::env::temp_dir().join(format!("indulgent-manifest-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(load_manifest(&root).unwrap(), None, "fresh root has no manifest");
        store_manifest(&root, 4).unwrap();
        assert_eq!(load_manifest(&root).unwrap(), Some(4));
        store_manifest(&root, 8).unwrap();
        assert_eq!(load_manifest(&root).unwrap(), Some(8));
        // Corruption is an error, not a silent shard-count reset: flip a
        // count byte under the stored checksum, and truncate.
        let mut bytes = std::fs::read(root.join(MANIFEST_FILE)).unwrap();
        bytes[0] ^= 0x04;
        std::fs::write(root.join(MANIFEST_FILE), &bytes).unwrap();
        assert!(load_manifest(&root).is_err());
        std::fs::write(root.join(MANIFEST_FILE), &bytes[..3]).unwrap();
        assert!(load_manifest(&root).is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    /// Starts every sealed batch, lets one replica decide each as
    /// proposed, and applies: the engine's steps without a session.
    fn decide_and_apply(sh: &mut ShardState, conns: &Conns) {
        while let Some((local, batch)) = sh.start_next() {
            let value = batch.as_value();
            let decision = Decision { process: ProcessId::new(0), round: Round::new(2), value };
            sh.on_result(local, 0, Some(decision));
        }
        sh.apply_decided(conns);
    }

    /// A lease-path `Get` submitted on connection 1 and retried on
    /// connection 2 before the ladder serves it: whichever rung answers,
    /// the ack goes to connection 2 alone.
    #[test]
    fn a_retried_parked_read_is_acked_on_the_retrying_connection_only() {
        let cfg = EngineConfig::default_5().with_reads(ReadPath::Lease);
        let get = Request { client: ClientId(7), request: RequestId(0), op: KvOp::Get { key: 3 } };
        let (tx1, rx1) = unbounded();
        let (tx2, rx2) = unbounded();
        let conns = HashMap::from([(ConnId(1), tx1), (ConnId(2), tx2)]);
        let submit_twice = |sh: &mut ShardState| {
            sh.submit(&conns, ConnId(1), get);
            sh.submit(&conns, ConnId(2), get);
            assert_eq!(sh.dedup_hits, 1, "the retry is a dedup hit");
        };

        // Lease rung: the grants are fresh, the read is served at once.
        let mut sh = ShardState::recover(0, &cfg);
        submit_twice(&mut sh);
        sh.lease_upkeep();
        sh.serve_reads(&conns);
        assert_eq!(sh.reads_lease, 1);
        assert!(matches!(rx2.try_recv(), Ok(Outbound::Ack(r)) if r.request == get.request));
        assert!(rx2.try_recv().is_err(), "the read is acked once");
        assert!(rx1.try_recv().is_err(), "the first connection gets no ack");
        assert_eq!(sh.dedup_hits, 1);

        // Ladder bottom: no grants and no vouches, so the read is
        // demoted into the open batch, still addressed to connection 2.
        let mut sh = ShardState::recover(0, &cfg);
        submit_twice(&mut sh);
        sh.serve_reads(&conns);
        assert_eq!((sh.reads_sequenced, sh.open.len()), (1, 1));
        assert!(matches!(
            sh.dedup.get(&(get.client, get.request)),
            Some(DedupState::Waiting(ConnId(2)))
        ));
        // Sequence it: seal, decide the proposed batch, apply.
        sh.seal_lingering(true);
        decide_and_apply(&mut sh, &conns);
        assert!(matches!(
            rx2.try_recv(),
            Ok(Outbound::Ack(Response { outcome: Outcome::Get { slot: 1, .. }, .. }))
        ));
        assert!(rx1.try_recv().is_err(), "the first connection gets no ack");
    }

    /// A lease read whose recorded value is wrong is caught when its
    /// history is folded into a checkpoint, and the count stays latched.
    #[test]
    fn a_tampered_lease_read_is_latched_at_the_checkpoint_fold() {
        let dir = std::env::temp_dir().join(format!("indulgent-fold-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = EngineConfig::default_5()
            .with_reads(ReadPath::Lease)
            .with_batch_size(1)
            .with_durability(DurabilityConfig::new(&dir).with_snapshot_every(2));
        let conns = HashMap::new();
        let mut sh = ShardState::recover(0, &cfg);
        let mut request = 0;
        let mut submit = |sh: &mut ShardState, op| {
            request += 1;
            sh.submit(
                &conns,
                ConnId(1),
                Request { client: ClientId(1), request: RequestId(request), op },
            );
        };
        submit(&mut sh, KvOp::Put { key: 1, value: 10 });
        decide_and_apply(&mut sh, &conns);
        submit(&mut sh, KvOp::Get { key: 1 });
        submit(&mut sh, KvOp::Get { key: 2 });
        sh.lease_upkeep();
        sh.serve_reads(&conns);
        assert_eq!(sh.reads_lease, 2);
        sh.fast_read_records[0].value = Some(99);
        submit(&mut sh, KvOp::Put { key: 2, value: 20 });
        decide_and_apply(&mut sh, &conns);
        assert_eq!((sh.folded_fast_reads, sh.fast_read_mismatches), (2, 1));
        assert!(sh.fast_read_records.is_empty(), "folded records are dropped");
        assert_eq!(sh.audit().check(), Err(AuditViolation::FoldedReadMismatches { count: 1 }));
        std::fs::remove_dir_all(&dir).ok();
    }
}
