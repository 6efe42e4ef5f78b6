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
//! 2. **start** — pipeline consensus: up to `pipeline_depth` instances
//!    of `A_{t+2}` (round-2 fast path) per shard race on one reusable
//!    [`Session`], every replica proposing the same sealed batch id (a
//!    live service has one in-process sequencer, so shared proposals
//!    make double-choosing impossible by construction — the audit still
//!    checks it). Only the id goes through agreement; the batch's
//!    requests wait with it in the shard's in-flight window;
//! 3. **on-result** — feed every replica result back to the shard that
//!    proposed the instance;
//! 4. **apply** — apply decided slots in order: materialize the store,
//!    compute each response from the store at its slot, persist the slot
//!    to the write-ahead log ([`crate::wal`]) and `fdatasync` it
//!    **before** any acknowledgement leaves, then ack;
//! 5. **serve reads** — answer parked reads at the new applied frontier.
//!
//! All shards multiplex over the *one* replica session, so S shards
//! share one worker pool. Session instance ids are global; the driver
//! keeps a routing table from instance id to `(shard, local instance)`.
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
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use indulgent_log::{at_plus2_factory, at_plus2_reset, AtSlot};
use indulgent_model::{SystemConfig, Value};
use indulgent_obs::FlightKind;
use indulgent_runtime::{DelayModel, InstanceSpec, ReplicaResult, Session};

use crate::audit::ShardedAudit;
use crate::lease::{LeaseConfig, ReadPath};
use crate::proto::{Request, Response};
use crate::shard::{audit_summary, ShardRouter, ShardState, LINGER};

/// Per-instance round budget of the replica session.
const MAX_ROUNDS: u32 = 60;
/// Straggler grace window of the replica session.
const GRACE: Duration = Duration::from_millis(2);
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
        let (intake, rx) = unbounded();
        (SubmitHandle { conn, intake }, rx)
    }
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

/// Routing entry of one in-flight consensus instance. The shared
/// session numbers instances globally across shards, so the driver maps
/// each id back to the shard that proposed it and the shard-local
/// instance number (= slot offset) it occupies.
struct InstanceRoute {
    shard: usize,
    local: u64,
    arrivals: usize,
}

/// Hands one replica result to the shard that proposed its instance.
/// The route entry is dropped once all `n` replicas have reported — the
/// id can never arrive again.
fn absorb_result(
    shards: &mut [ShardState],
    routes: &mut HashMap<u64, InstanceRoute>,
    n: usize,
    r: &ReplicaResult,
) {
    let route = routes.get_mut(&r.instance).expect("replica result routes to a started instance");
    shards[route.shard].on_result(route.local, r.replica.index(), r.decision);
    route.arrivals += 1;
    if route.arrivals == n {
        routes.remove(&r.instance);
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

/// The driver thread: the shard-multiplexing event loop described in the
/// module docs.
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
    // Every replica proposes the same batch id: one buffer, refilled per
    // instance start.
    let mut proposals = vec![Value::ZERO; n];

    let mut conns = Conns::new();
    let mut shards: Vec<ShardState> =
        (0..shard_count).map(|i| ShardState::recover(i, cfg)).collect();
    let mut routes: HashMap<u64, InstanceRoute> = HashMap::new();

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

        // 2 + 3. Per shard: seal lingering batches, then propose into
        // the shard's pipeline window on the shared session.
        for (si, sh) in shards.iter_mut().enumerate() {
            sh.seal_lingering(deferred.shutting_down);
            while let Some((local, batch)) = sh.start_next() {
                proposals.fill(batch.as_value());
                let instance = session.start_instance_recycled(&proposals, &spec);
                routes.insert(instance, InstanceRoute { shard: si, local, arrivals: 0 });
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
            sh.serve_reads(&conns);
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

        // 6. Exit once shutdown has drained every shard.
        if deferred.shutting_down && shards.iter().all(ShardState::quiesced) {
            break;
        }

        // 7. Watchdog + idle strategy: park briefly on the intake
        // channel (new work wakes us); pending consensus results bound
        // the nap so the apply path stays hot.
        if shards.iter().any(ShardState::busy) {
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
            let nap = if shards.iter().any(ShardState::has_open_batch) {
                LINGER
            } else {
                Duration::from_millis(2)
            };
            // Control requests wait in `deferred` for the next
            // iteration's step 5b; a Die exits at its step 1.
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
