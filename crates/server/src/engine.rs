//! The replicated service engine: one shard-multiplexing event loop
//! from intake to ack.
//!
//! Requests arrive from connections (socket readers or in-process
//! [`crate::LocalKv`] sessions) on an intake channel. The driver thread
//! routes each request to the shard group owning its key under the
//! fixed [`ShardRouter`] hash and drives every shard ([`crate::shard`])
//! through the same steps:
//!
//! 1. **submit** — exactly-once dedup against the decided log, then
//!    either park a lease-path `Get` on the read ladder or batch the
//!    command (sealed at `batch_size`, or by the linger timer so a lone
//!    request never waits for a full batch);
//! 2. **on-result** — pump the shard's own replica session and feed
//!    every replica result back to the shard;
//! 3. **apply** — apply decided slots in order: materialize the store,
//!    compute each response from the store at its slot, persist the slot
//!    to the write-ahead log ([`crate::wal`]) and `fdatasync` it
//!    **before** any acknowledgement leaves, then ack;
//! 4. **serve reads** — answer parked reads at the new applied frontier,
//!    or demote them into the open batch;
//! 5. **start** — pipeline consensus: up to `pipeline_depth` instances
//!    of `A_{t+2}` (round-2 fast path) race on the shard's reusable
//!    [`Session`], every replica proposing the same sealed batch id (a
//!    live service has one in-process sequencer, so shared proposals
//!    make double-choosing impossible by construction — the audit still
//!    checks it). Only the id goes through agreement; the batch's
//!    requests wait with it in the shard's in-flight window.
//!
//! Steps 2–5 are one pass per shard, so the window slots an apply frees
//! are refilled in the same loop iteration: the driver only waits once
//! no shard has both a sealed batch and a free slot.
//!
//! Each shard has a session of its own, and a session adds no thread:
//! the driver steps every consensus round inline when it pumps a shard's
//! results (`try_next_result`), and between passes it sleeps until the
//! earliest [`Session::next_deadline`] of any shard, at most `BUSY_NAP`
//! (200 µs). A session's instance ids are its shard's local instance
//! numbers. Shards share nothing: no two shards' logs are ordered
//! against each other.
//! Acks carry the owning shard: the linearization point is
//! `(shard, slot)`, and per-connection session order is per-shard slot
//! monotonicity. Exactly-once dedup is untouched by sharding because a
//! `(ClientId, RequestId)` pair names one key, and a key always routes
//! to the same shard. Cross-shard operations (multi-key transactions)
//! are out of scope — nothing orders two shards' logs.
//!
//! Shutdown drains every shard and returns the service-wide
//! [`ShardedAudit`] ([`crate::audit`]).

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use indulgent_log::{at_plus2_factory, at_plus2_reset, AtSlot};
use indulgent_model::{SystemConfig, Value};
use indulgent_obs::FlightKind;
use indulgent_runtime::{DelayModel, InstanceSpec, Session};
use indulgent_sim::{ModelKind, Schedule};

use crate::audit::ShardedAudit;
use crate::lease::{LeaseConfig, ReadPath};
use crate::proto::{Request, Response};
use crate::shard::{audit_summary, ShardRouter, ShardState, LINGER};

/// Per-instance round budget of the replica session.
const MAX_ROUNDS: u32 = 60;
/// Straggler grace window of the replica session.
const GRACE: Duration = Duration::from_millis(2);
/// Longest the driver sleeps while instances are in flight: a busy
/// driver does not wake on intake, so this bounds how long a new request
/// waits. Waking on intake was measured slower (`write_delay_s4`, 2
/// vCPUs: peak −16 %, CPU per op +28 %): every wake pumps every replica
/// of every instance in flight, due or not.
const BUSY_NAP: Duration = Duration::from_micros(200);
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
    /// The adversary every consensus instance replays (crashes and
    /// message fates by round, see `indulgent_runtime`); `None` runs
    /// failure-free.
    pub schedule: Option<Schedule>,
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
    /// independent log pipeline (batching, slot space, WAL, lease) and
    /// replica session, all stepped on the one driver thread — S shards
    /// add no thread.
    pub shards: usize,
}

impl EngineConfig {
    /// A 5-replica, t = 2 service with service-sized defaults: batches
    /// of 8, pipeline depth 4, instant replica links, no durability.
    /// The 500 µs linger of a partial batch is not a field: it is the
    /// private constant `shard::LINGER`, the same for every config.
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
            schedule: None,
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

/// The registered connections' outbound channels.
pub(crate) type Conns = HashMap<ConnId, Sender<Outbound>>;

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
        let (tx, rx) = channel();
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

    /// Asks the engine to reply one shard's [`crate::LeaseStatus`]
    /// control frame — the lease-state observability hook; `false` if
    /// the engine has shut down. A request naming a shard the service
    /// does not run is dropped (no reply).
    pub fn request_lease_state(&self, shard: u32) -> bool {
        self.control(ControlRequest::LeaseState(shard))
    }

    /// Asks the engine to reply one shard's [`crate::StatsReport`]
    /// control frame — the metrics-scrape observability hook; `false` if
    /// the engine has shut down. A request naming a shard the service
    /// does not run is dropped (no reply).
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
        let (intake, rx) = channel();
        (SubmitHandle { conn, intake }, rx)
    }
}

/// The running service engine: a driver thread owning every shard and
/// its replica session, reachable through [`EngineHandle`]s.
#[derive(Debug)]
pub struct KvEngine {
    handle: EngineHandle,
    driver: JoinHandle<ShardedAudit>,
}

impl KvEngine {
    /// Spawns the driver thread, which recovers every shard from the
    /// durability directory first, if one is configured.
    #[must_use]
    pub fn spawn(config: EngineConfig) -> Self {
        let (intake_tx, intake_rx) = channel();
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

/// What intake leaves for later in the driver loop: control requests,
/// answered at step 3 against the just-applied state, and the lifecycle
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
    conns: &mut Conns,
    shards: &mut [ShardState],
    router: &ShardRouter,
    deferred: &mut Deferred,
) {
    let mut submit = |conn, request: Request| {
        shards[router.shard_of(request.op.key()) as usize].submit(conns, conn, request);
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

/// The driver thread: the event loop described in the module docs.
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

    let failure_free = || Schedule::failure_free(cfg.system, ModelKind::Es);
    let schedule = cfg.schedule.clone().unwrap_or_else(failure_free);
    let spec = InstanceSpec { schedule, delays: cfg.delays, max_rounds: MAX_ROUNDS };
    // Every replica proposes the same batch id: one buffer, refilled per
    // instance start.
    let mut proposals = vec![Value::ZERO; n];

    let mut conns = Conns::new();
    let mut shards: Vec<ShardState> =
        (0..shard_count).map(|i| ShardState::recover(i, cfg)).collect();
    // One recycling session per shard, same index, stepped on this
    // thread by the pumps below: S shards add no thread over one.
    let mut sessions: Vec<Session<AtSlot>> = shards
        .iter()
        .map(|_| {
            Session::with_recycler(
                cfg.system,
                GRACE,
                at_plus2_factory(cfg.system),
                at_plus2_reset(),
            )
        })
        .collect();

    let mut deferred = Deferred::default();
    let mut last_progress = Instant::now();

    // The event loop runs under catch_unwind so a panic (the stall
    // watchdog, a broken invariant) leaves each shard's flight recording
    // on disk before propagating — the black box outlives the crash.
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
        // 1. Drain intake, routing each submit to its key's shard.
        while let Ok(msg) = intake.try_recv() {
            handle(msg, &mut conns, &mut shards, &router, &mut deferred);
        }
        if deferred.died {
            break;
        }

        // 2. One pass per shard: pump its session's results into it,
        // apply decided slots, renew the lease, run the read ladder at
        // the new frontier, seal lingering batches (demoted reads
        // included), then start instances in the window slots the apply
        // freed — before step 5 waits, so a freed slot never idles
        // through a sleep.
        let mut started = false;
        for (sh, session) in shards.iter_mut().zip(&mut sessions) {
            while let Some(r) = session.try_next_result() {
                last_progress = Instant::now();
                sh.on_result(r.instance, r.replica.index(), r.decision);
            }
            sh.apply_decided(&conns);
            sh.lease_upkeep();
            sh.serve_reads(&conns);
            sh.seal_lingering(deferred.shutting_down);
            while let Some((local, batch)) = sh.start_next() {
                proposals.fill(batch.as_value());
                let instance = session.start_instance_recycled(&proposals, &spec);
                assert_eq!(instance, local, "session instance ids track the shard's");
                started = true;
                last_progress = Instant::now();
            }
        }

        // 3. Answer control requests (state transfers, lease probes,
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
                    sh.lease_status(shard_count).encode()
                }
                ControlRequest::Stats(i) => {
                    let Some(sh) = shards.get(i as usize) else { continue };
                    sh.stats_report(shard_count).encode()
                }
                ControlRequest::Audit => audit_summary(&shards).encode(),
            };
            let _ = tx.send(Outbound::Control(reply));
        }

        // 4. Exit once shutdown has drained every shard.
        if deferred.shutting_down && shards.iter().all(ShardState::quiesced) {
            break;
        }

        // 5. Watchdog + idle strategy. Step 2 left no shard able to
        // start. With instances in flight, sleep until the earliest
        // session deadline, at most `BUSY_NAP`; an instance step 2
        // started has sent nothing yet, so then the next pass pumps it
        // at once. Otherwise park briefly on the intake channel (new
        // work wakes us).
        debug_assert!(
            !shards.iter().any(ShardState::can_start),
            "the driver waits with a startable batch and a free pipeline slot"
        );
        if shards.iter().any(ShardState::busy) {
            assert!(
                last_progress.elapsed() < STALL_TIMEOUT,
                "engine stalled: {} instances in flight, no replica progress for {STALL_TIMEOUT:?}",
                shards.iter().map(ShardState::in_flight).sum::<u64>(),
            );
            if !started {
                let cap = Instant::now() + BUSY_NAP;
                let wake =
                    sessions.iter().filter_map(Session::next_deadline).fold(cap, Instant::min);
                std::thread::sleep(wake.saturating_duration_since(Instant::now()));
            }
        } else if !deferred.shutting_down {
            let nap = if shards.iter().any(ShardState::has_open_batch) {
                LINGER
            } else {
                Duration::from_millis(2)
            };
            // Control requests wait in `deferred` for the next
            // iteration's step 3; a Die exits at its step 1.
            if let Ok(msg) = intake.recv_timeout(nap) {
                handle(msg, &mut conns, &mut shards, &router, &mut deferred);
            }
        }
    }));
    if let Err(panic) = crashed {
        for sh in &shards {
            sh.dump_flight(FlightKind::Panic, 0, 0);
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

    ShardedAudit { shards: shards.iter().map(ShardState::audit).collect() }
}

#[cfg(test)]
mod tests {
    use indulgent_model::{ClientId, RequestId};

    use super::*;
    use crate::proto::{KvOp, Outcome};

    /// Over 1 ms links with batch 1, puts submitted together take one
    /// instance each: every apply frees a window slot, and the same
    /// driver pass must start the next put (in debug builds the driver
    /// asserts it never waits with a startable batch). One shard at depth
    /// 1 takes four puts in turn; four shards at depth 2 keep instances
    /// of every shard in flight at once, each on its shard's session.
    #[test]
    fn each_freed_window_slot_is_refilled_over_delayed_links() {
        for (shards, depth) in [(1u32, 1), (4, 2)] {
            let cfg = EngineConfig::default_5()
                .with_delays(DelayModel::Uniform { delay: Duration::from_millis(1) })
                .with_pipeline_depth(depth)
                .with_batch_size(1)
                .with_shards(shards as usize);
            let router = ShardRouter::new(shards);
            // The first key each shard owns; put `i` goes to shard `i % S`.
            let keys: Vec<u16> = (0..shards)
                .map(|s| (0..).find(|&k| router.shard_of(k) == s).expect("every shard owns a key"))
                .collect();
            let puts: Vec<Request> = (0..4 * shards)
                .map(|i| Request {
                    client: ClientId(1),
                    request: RequestId(u64::from(i)),
                    op: KvOp::Put { key: keys[(i % shards) as usize], value: i },
                })
                .collect();
            let mut expected = vec![Vec::new(); shards as usize];
            for put in &puts {
                expected[router.shard_of(put.op.key()) as usize].push(put.request);
            }
            let engine = KvEngine::spawn(cfg);
            let (submit, acks) = engine.handle().connect();
            assert!(submit.submit_batch(puts));
            // Each shard acks its puts in submit order, at slots 1, 2, ...
            let mut acked = vec![Vec::new(); shards as usize];
            for _ in 0..4 * shards {
                match acks.recv_timeout(Duration::from_secs(10)) {
                    Ok(Outbound::Ack(r)) => {
                        let mine = &mut acked[r.shard as usize];
                        mine.push(r.request);
                        assert_eq!(r.outcome, Outcome::Put { slot: mine.len() as u64 }, "{r:?}");
                    }
                    other => panic!("{shards} shard(s): expected an ack, got {other:?}"),
                }
            }
            assert_eq!(acked, expected, "{shards} shard(s): per-shard acks in submit order");
            drop(submit);
            assert_eq!(engine.shutdown().check(), Ok(()));
        }
    }
}
