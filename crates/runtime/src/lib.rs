//! Thread-per-process message-passing runtime.
//!
//! The paper's model is abstract; this crate gives it a concrete,
//! wall-clock incarnation: every process is an OS thread, messages travel
//! through per-worker delay lines with an injectable delay model, and
//! round synchronization works the way eventually synchronous systems do
//! in practice — wait for a quorum of `n - t` current-round messages
//! (mandatory, this is the model's t-resilience), then a grace period for
//! stragglers, then move on. A message that misses its round's grace window
//! is *suspected* exactly as in ES: it still arrives later (reliable
//! channels), tagged with the round it was sent in.
//!
//! The same [`RoundProcess`] automatons that run under the deterministic
//! simulator run here unchanged, which is the point: `quickstart` decisions
//! in the simulator carry over to a racing, multi-threaded execution. Use
//! [`DelayModel::AsyncUntil`] to inject an asynchronous prefix (false
//! suspicions) and [`InstanceSpec::crash`] to crash processes at chosen
//! rounds.
//!
//! # Sessions: reusable threads, pipelined instances
//!
//! The runtime's unit of reuse is a [`Session`]: `n` worker threads and
//! their inboxes, spawned **once** and kept alive across any number of
//! consensus instances. [`Session::start_instance`] hands each worker an
//! automaton and a per-instance [`InstanceSpec`] (crash rounds, delay
//! model, round budget); results stream back per replica as
//! [`ReplicaResult`]s. Multiple instances may be in flight at once — every
//! message is tagged with its instance, and each worker interleaves the
//! round protocols of all its active instances in one event loop. This is
//! the substrate of the `indulgent-log` replicated-log subsystem: a
//! pipelined log keeps a window of instances running concurrently and
//! pays thread/inbox setup exactly once, instead of per decision the
//! way the old one-shot entry point did.
//!
//! [`run_network`] survives as the one-shot convenience wrapper: a fresh
//! session, one instance, a [`NetReport`].
//!
//! # Workers: one delay-line inbox each
//!
//! Everything that can make a worker progress arrives in its one *inbox*:
//! jobs (new instances), peer messages, and the shutdown item pushed by
//! [`Session`]'s `Drop`. Each item carries the instant it becomes visible —
//! a message sent over a link of delay `d` is pushed at send time, due
//! `d` later — and the inbox never hands an item out before then. A worker
//! drains what is due, advances every active instance, and parks until the
//! earliest of the next due item and the earliest `quorum_at + grace`
//! among its instances. There is no poll interval: the runtime adds
//! nothing to the delay it models.
//!
//! Under the inbox lock, a pushed message wakes its receiver only when all
//! three hold:
//!
//! 1. the receiver is parked;
//! 2. the message is due before the receiver's wake time (a later one is
//!    picked up when the receiver wakes anyway);
//! 3. the receiver has already taken the job of the message's instance
//!    (until then it could only buffer the message; the job's push wakes
//!    it, and the message is returned with the job).
//!
//! Jobs and shutdown always wake. The test and the park happen under the
//! same lock, so no wake-up is lost. The `runtime_session` metric family
//! counts `worker_parks` and `worker_timed_wakes` (parks that ended on
//! their own timer).
//!
//! # Crash semantics
//!
//! Crashes are *logical*, defined against the per-instance round clock: a
//! spec entry `crash at round r` means the worker participates in rounds
//! `< r` of that instance and is silent from round `r` on — exactly the
//! simulator's `crash_before_send`. With pipelined instances a permanent
//! replica crash is expressed by crashing the replica at its chosen
//! `(instance, round)` and at round 1 of every later instance; because
//! the crash point of each instance is fixed logically rather than by
//! wall-clock coincidence, crash-only log executions remain
//! deterministically comparable to the simulator's multi-shot executor at
//! any pipeline depth (the `indulgent-log` differential tests rely on
//! this).
//!
//! This substrate replaces the tokio-style network harness a reproduction
//! might otherwise reach for: round-based algorithms need no async I/O, so
//! plain threads keep the dependency set small.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use indulgent_model::{
    Decision, DeliveredMsg, Delivery, ProcessFactory, ProcessId, ProcessSet, Round, RoundProcess,
    RunOutcome, Step, SystemConfig, Value,
};

/// The `runtime_session` metric family: what this process's sessions
/// have done, summed across all of them. Instances and results are the
/// session's unit of work, so the first four counters say how much
/// consensus traffic flowed through the runtime and how much of it reused
/// pooled automatons — the recycling hit rate the zero-alloc hot path
/// depends on. The last two say how often workers slept on their inboxes
/// and how many of those sleeps ended on their own timer (a due message or
/// a grace expiry) rather than on a push.
#[derive(Debug)]
struct SessionMetrics {
    instances_started: indulgent_obs::Counter,
    recycled_starts: indulgent_obs::Counter,
    results_delivered: indulgent_obs::Counter,
    decisions_delivered: indulgent_obs::Counter,
    worker_parks: indulgent_obs::Counter,
    worker_timed_wakes: indulgent_obs::Counter,
}

static SESSION_METRICS: SessionMetrics = SessionMetrics {
    instances_started: indulgent_obs::Counter::new(),
    recycled_starts: indulgent_obs::Counter::new(),
    results_delivered: indulgent_obs::Counter::new(),
    decisions_delivered: indulgent_obs::Counter::new(),
    worker_parks: indulgent_obs::Counter::new(),
    worker_timed_wakes: indulgent_obs::Counter::new(),
};

impl indulgent_obs::MetricFamily for SessionMetrics {
    fn name(&self) -> &'static str {
        "runtime_session"
    }

    fn emit(&self, sink: &mut dyn indulgent_obs::MetricSink) {
        sink.counter("instances_started", self.instances_started.get());
        sink.counter("recycled_starts", self.recycled_starts.get());
        sink.counter("results_delivered", self.results_delivered.get());
        sink.counter("decisions_delivered", self.decisions_delivered.get());
        sink.counter("worker_parks", self.worker_parks.get());
        sink.counter("worker_timed_wakes", self.worker_timed_wakes.get());
    }
}

static REGISTER_SESSION_METRICS: std::sync::Once = std::sync::Once::new();

fn session_metrics() -> &'static SessionMetrics {
    REGISTER_SESSION_METRICS.call_once(|| indulgent_obs::register_family(&SESSION_METRICS));
    &SESSION_METRICS
}

/// Tallies one result on its way out of the session's receive paths.
fn note_result(r: ReplicaResult) -> ReplicaResult {
    let metrics = session_metrics();
    metrics.results_delivered.incr();
    if r.decision.is_some() {
        metrics.decisions_delivered.incr();
    }
    r
}

/// What a worker's inbox carries. Jobs and messages are tagged with their
/// instance, which the wake rule reads.
#[derive(Debug)]
enum Item<J, M> {
    /// A new instance for the worker.
    Job(u64, J),
    /// A peer's message of an instance.
    Message(u64, M),
    /// The session is gone: the worker exits.
    Shutdown,
}

/// A queued item and the instant it becomes visible.
struct Pending<T> {
    due: Instant,
    /// Push order: items due at the same instant leave first-in first-out.
    seq: u64,
    item: T,
}

// Reversed, so the max-heap `BinaryHeap` pops the earliest due item first.
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}

impl<T> Eq for Pending<T> {}

struct InboxState<J, M> {
    queue: BinaryHeap<Pending<Item<J, M>>>,
    pushed: u64,
    /// Highest instance whose job the receiver has taken (the session
    /// pushes each worker's jobs in instance order).
    jobs_taken: u64,
    /// Whether the receiver is parked; the push that wakes it clears this,
    /// so later pushes do not wake it again.
    parked: bool,
    /// When a parked receiver wakes on its own (`None`: only a push wakes
    /// it).
    wake_at: Option<Instant>,
}

/// A worker's delay line: jobs, peer messages and shutdown in one queue,
/// each item invisible until its due instant. The wake rule is in the
/// module docs.
struct Inbox<J, M> {
    state: Mutex<InboxState<J, M>>,
    wake: Condvar,
}

impl<J, M> std::fmt::Debug for Inbox<J, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inbox").finish_non_exhaustive()
    }
}

impl<J, M> Inbox<J, M> {
    fn new() -> Self {
        Inbox {
            state: Mutex::new(InboxState {
                queue: BinaryHeap::new(),
                pushed: 0,
                jobs_taken: 0,
                parked: false,
                wake_at: None,
            }),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, InboxState<J, M>> {
        // No critical section can panic halfway through an update, so a
        // poisoned lock still guards a valid state — and `Session::drop`,
        // which pushes, must not panic.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `item`, visible from `due` on, waking the receiver only if
    /// the wake rule says it must.
    fn push(&self, due: Instant, item: Item<J, M>) {
        let mut state = self.lock();
        let wake = state.parked
            && match item {
                Item::Message(instance, _) => {
                    instance <= state.jobs_taken && state.wake_at.is_none_or(|at| due < at)
                }
                Item::Job(..) | Item::Shutdown => true,
            };
        let seq = state.pushed;
        state.pushed += 1;
        state.queue.push(Pending { due, seq, item });
        if wake {
            state.parked = false;
            drop(state);
            self.wake.notify_one();
        }
    }

    /// Moves every due item into `out`, earliest first. If none is due,
    /// parks until the next item falls due or `limit` passes, re-parking
    /// after a push that only moved the wake time earlier; returns with
    /// `out` empty only once `limit` has passed.
    fn pop_until(&self, limit: Option<Instant>, out: &mut Vec<Item<J, M>>) {
        let metrics = session_metrics();
        let mut state = self.lock();
        loop {
            let now = Instant::now();
            while state.queue.peek().is_some_and(|p| p.due <= now) {
                let item = state.queue.pop().expect("peeked").item;
                if let Item::Job(instance, _) = item {
                    state.jobs_taken = state.jobs_taken.max(instance);
                }
                out.push(item);
            }
            if !out.is_empty() || limit.is_some_and(|at| at <= now) {
                return;
            }
            let wake_at = [limit, state.queue.peek().map(|p| p.due)].into_iter().flatten().min();
            state.parked = true;
            state.wake_at = wake_at;
            metrics.worker_parks.incr();
            state = match wake_at {
                Some(at) => {
                    let (state, wait) = self
                        .wake
                        .wait_timeout(state, at.saturating_duration_since(now))
                        .unwrap_or_else(PoisonError::into_inner);
                    if wait.timed_out() {
                        metrics.worker_timed_wakes.incr();
                    }
                    state
                }
                None => self.wake.wait(state).unwrap_or_else(PoisonError::into_inner),
            };
            state.parked = false;
        }
    }
}

/// When messages become visible to their receiver.
#[derive(Debug, Clone, Copy)]
pub enum DelayModel {
    /// Deliver instantly (a synchronous network).
    Instant,
    /// Every message between distinct processes takes `delay` to arrive —
    /// a uniform network RTT. Rounds become latency-bound (nobody is
    /// suspected: all messages arrive together, within the quorum wait),
    /// which is the regime where pipelining consensus instances pays:
    /// the log throughput bench uses this as its realistic network.
    Uniform {
        /// One-way latency applied to every non-self message.
        delay: Duration,
    },
    /// Before `until_round`, each message is independently delayed by
    /// `delay` with probability `probability` (deterministically derived
    /// from `seed` and the message coordinates); from `until_round` on the
    /// network is synchronous. This produces the ES asynchronous prefix:
    /// delayed messages miss their round's grace window and cause false
    /// suspicions, then arrive late.
    AsyncUntil {
        /// First synchronous round (the model's `K`).
        until_round: u32,
        /// Extra latency for delayed messages.
        delay: Duration,
        /// Per-message delay probability in `[0, 1]`.
        probability: f64,
        /// Determinism seed.
        seed: u64,
    },
}

impl DelayModel {
    fn delay_for(&self, round: Round, from: ProcessId, to: ProcessId) -> Duration {
        match *self {
            DelayModel::Instant => Duration::ZERO,
            DelayModel::Uniform { delay } => delay,
            DelayModel::AsyncUntil { until_round, delay, probability, seed } => {
                if round.get() >= until_round {
                    return Duration::ZERO;
                }
                if edge_coin(seed, round.get(), from, to) < probability {
                    delay
                } else {
                    Duration::ZERO
                }
            }
        }
    }
}

/// Deterministic per-edge coin in `[0, 1)` (splitmix64) over a message's
/// `(seed, round, sender, receiver)` coordinates.
///
/// This is the randomness source of [`DelayModel::AsyncUntil`], exported
/// so other adversaries built on the same coordinates (e.g. the
/// `indulgent-log` simulator substrate's seeded delay schedules) share
/// one construction instead of drifting copies.
#[must_use]
pub fn edge_coin(seed: u64, round: u32, from: ProcessId, to: ProcessId) -> f64 {
    let mut x =
        seed ^ (u64::from(round) << 32) ^ ((from.index() as u64) << 16) ^ (to.index() as u64);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Configuration of a one-shot networked run (see [`run_network`]).
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Grace period waited for stragglers after the `n - t` quorum of
    /// current-round messages has arrived. Messages missing the window are
    /// suspected for that round.
    pub grace: Duration,
    /// Hard bound on rounds executed per process.
    pub max_rounds: u32,
    /// The delay model.
    pub delays: DelayModel,
    /// Injected crash rounds per process (crash happens at the start of the
    /// round, before sending).
    pub crashes: Vec<Option<Round>>,
}

impl NetworkConfig {
    /// A synchronous network for `config` with a sensible test-sized grace
    /// window and no crashes.
    #[must_use]
    pub fn synchronous(config: SystemConfig) -> Self {
        NetworkConfig {
            grace: Duration::from_millis(4),
            max_rounds: 200,
            delays: DelayModel::Instant,
            crashes: vec![None; config.n()],
        }
    }

    /// Schedules `process` to crash at the start of `round`.
    #[must_use]
    pub fn crash(mut self, process: ProcessId, round: Round) -> Self {
        self.crashes[process.index()] = Some(round);
        self
    }

    /// Sets the delay model.
    #[must_use]
    pub fn with_delays(mut self, delays: DelayModel) -> Self {
        self.delays = delays;
        self
    }
}

/// Per-instance parameters handed to [`Session::start_instance`].
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    /// Crash round per replica for *this* instance (`Round::FIRST` =
    /// crashed from the start; `None` = correct throughout). Logical
    /// semantics: the replica is silent in this instance from its crash
    /// round on, matching the simulator's `crash_before_send`.
    pub crashes: Vec<Option<Round>>,
    /// The delay model for this instance's messages.
    pub delays: DelayModel,
    /// Hard bound on rounds executed per replica; a replica reaching it
    /// undecided reports `None`.
    pub max_rounds: u32,
}

impl InstanceSpec {
    /// A synchronous, crash-free instance for `config`.
    #[must_use]
    pub fn synchronous(config: SystemConfig) -> Self {
        InstanceSpec {
            crashes: vec![None; config.n()],
            delays: DelayModel::Instant,
            max_rounds: 200,
        }
    }

    /// Crashes `process` at the start of `round` of this instance.
    #[must_use]
    pub fn crash(mut self, process: ProcessId, round: Round) -> Self {
        self.crashes[process.index()] = Some(round);
        self
    }

    /// Sets the delay model.
    #[must_use]
    pub fn with_delays(mut self, delays: DelayModel) -> Self {
        self.delays = delays;
        self
    }

    /// Sets the per-replica round budget.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }
}

/// Outcome of a one-shot networked run.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// The consensus outcome (decisions are tagged with the *round* in
    /// which each process decided, comparable with simulator outcomes).
    pub outcome: RunOutcome,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

/// One replica's terminal report for one instance, streamed back to the
/// session owner: its first decision (or `None` if it crashed or ran out
/// of rounds undecided) and the last round it executed.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaResult {
    /// The instance this result belongs to.
    pub instance: u64,
    /// The reporting replica.
    pub replica: ProcessId,
    /// The replica's first decision, if it reached one.
    pub decision: Option<Decision>,
    /// The last round the replica executed when it reported.
    pub last_round: u32,
}

/// All `n` replica results of one instance, assembled by
/// [`Session::wait_instance`].
#[derive(Debug, Clone)]
pub struct InstanceReport {
    /// The instance id.
    pub instance: u64,
    /// First decision per replica (index = replica id).
    pub decisions: Vec<Option<Decision>>,
    /// Highest round any replica executed before reporting.
    pub rounds_executed: u32,
}

/// Tracks, per instance, which replicas have finished (decided, crashed,
/// or exhausted their round budget); workers retire an instance — and
/// stop relaying its decisions — once every replica is accounted for.
///
/// Entries are evicted once every worker has *observed* the full mask
/// (one retire acknowledgement per worker), so a long-lived session's
/// registry stays bounded by the in-flight window instead of growing
/// with every instance ever run.
#[derive(Debug)]
struct DoneRegistry {
    n: usize,
    full: u64,
    /// instance -> (finished-replica mask, retire acknowledgements).
    masks: Mutex<HashMap<u64, (u64, usize)>>,
}

impl DoneRegistry {
    fn new(n: usize) -> Self {
        DoneRegistry {
            n,
            full: if n == 64 { u64::MAX } else { (1 << n) - 1 },
            masks: Mutex::new(HashMap::new()),
        }
    }

    fn mark(&self, instance: u64, p: ProcessId) {
        let mut masks = self.masks.lock().expect("registry poisoned");
        masks.entry(instance).or_insert((0, 0)).0 |= 1 << p.index();
    }

    /// Whether every replica finished `instance`; a `true` answer counts
    /// as the calling worker's retire acknowledgement (each worker asks
    /// again only until it gets `true`), and the n-th acknowledgement
    /// evicts the entry. A worker's own `mark` precedes its
    /// acknowledgement, so eviction cannot race a late finisher.
    fn is_done_ack(&self, instance: u64) -> bool {
        let mut masks = self.masks.lock().expect("registry poisoned");
        let Some(entry) = masks.get_mut(&instance) else { return false };
        if entry.0 != self.full {
            return false;
        }
        entry.1 += 1;
        if entry.1 == self.n {
            masks.remove(&instance);
        }
        true
    }
}

/// A worker's set of locally retired instances, bounded by the
/// out-of-order retirement window: a watermark covers the dense prefix
/// (instance ids are handed out from 1), a small set holds the gaps.
#[derive(Debug, Default)]
struct RetiredSet {
    /// Every instance `<= below` is retired.
    below: u64,
    /// Retired instances above the watermark.
    above: HashSet<u64>,
}

impl RetiredSet {
    fn insert(&mut self, instance: u64) {
        self.above.insert(instance);
        while self.above.remove(&(self.below + 1)) {
            self.below += 1;
        }
    }

    fn contains(&self, instance: u64) -> bool {
        instance <= self.below || self.above.contains(&instance)
    }
}

/// What a worker streams back to the session owner: replica results in
/// the normal case, a poison marker if the worker thread panics (sent
/// from the sentinel's unwind path so waiters fail loudly instead of
/// blocking forever).
#[derive(Debug)]
enum WorkerEvent {
    Result(ReplicaResult),
    Panicked(ProcessId),
}

/// Reports a worker panic to the session owner on unwind.
struct PanicSentinel {
    id: ProcessId,
    events_tx: Sender<WorkerEvent>,
}

impl Drop for PanicSentinel {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.events_tx.send(WorkerEvent::Panicked(self.id));
        }
    }
}

/// How a worker obtains the automaton of a new instance.
enum JobPayload<P> {
    /// A pre-built automaton shipped by the session owner.
    Built(P),
    /// A bare proposal: the worker recycles a retired automaton through
    /// the session's reset hook (building fresh only when the pool is
    /// empty). Requires [`Session::with_recycler`].
    Proposal(Value),
}

/// The per-instance job handed to a worker thread.
struct Job<P> {
    payload: JobPayload<P>,
    crash_round: Option<Round>,
    delays: DelayModel,
    max_rounds: u32,
}

/// A worker's inbox: jobs and the peer messages of its instances.
type WorkerInbox<P> = Inbox<Job<P>, DeliveredMsg<<P as RoundProcess>::Msg>>;

/// The reset hook of a [`Recycler`]: `(process index, retired automaton,
/// next proposal)`.
type ResetFn<P> = Box<dyn Fn(usize, &mut P, Value) + Send + Sync>;

/// The build + reset hooks of a recycling session, shared with every
/// worker so retired automatons can be reset in place for the next
/// instance instead of being dropped and rebuilt (the same
/// `reset_instance` contract the simulator's multi-shot executor uses).
struct Recycler<P> {
    build: Box<dyn Fn(usize, Value) -> P + Send + Sync>,
    reset: ResetFn<P>,
}

impl<P> std::fmt::Debug for Recycler<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recycler").finish_non_exhaustive()
    }
}

/// A pool of `n` replica threads and their inboxes, reusable across any
/// number of (possibly concurrent) consensus instances.
///
/// Spawning threads and inboxes is the expensive part of a networked
/// run; a `Session` pays it once. Instances are started with
/// [`start_instance`](Session::start_instance) and complete independently;
/// results stream back through [`next_result`](Session::next_result) /
/// [`wait_instance`](Session::wait_instance) /
/// [`wait_decision`](Session::wait_decision). Dropping the session shuts
/// the workers down and joins them.
///
/// # Examples
///
/// ```
/// use indulgent_consensus::{AtPlus2, RotatingCoordinator};
/// use indulgent_model::{ProcessId, Round, SystemConfig, Value};
/// use indulgent_runtime::{InstanceSpec, Session};
///
/// let cfg = SystemConfig::majority(5, 2)?;
/// let mut session = Session::new(cfg);
/// let spec = InstanceSpec::synchronous(cfg);
/// // Two back-to-back instances on the same threads.
/// for proposals in [[6u64, 2, 8, 4, 7], [9, 9, 1, 9, 9]] {
///     let processes = (0..5)
///         .map(|i| {
///             let id = ProcessId::new(i);
///             AtPlus2::new(cfg, id, Value::new(proposals[i]), RotatingCoordinator::new(cfg, id))
///         })
///         .collect();
///     let instance = session.start_instance(processes, &spec);
///     let report = session.wait_instance(instance);
///     assert!(report.decisions.iter().all(Option::is_some));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Session<P: RoundProcess> {
    config: SystemConfig,
    /// One per worker, indexed by replica.
    inboxes: Arc<[WorkerInbox<P>]>,
    results_rx: Receiver<WorkerEvent>,
    handles: Vec<std::thread::JoinHandle<()>>,
    next_instance: u64,
    /// Results received but not yet consumed, grouped by instance.
    collected: HashMap<u64, Vec<ReplicaResult>>,
    /// Whether the workers hold recycler hooks (proposal-only jobs).
    recycling: bool,
}

impl<P> Session<P>
where
    P: RoundProcess + Send + 'static,
    P::Msg: Send + 'static,
{
    /// Spawns the session's `n` worker threads with the default grace
    /// window of [`NetworkConfig::synchronous`].
    #[must_use]
    pub fn new(config: SystemConfig) -> Self {
        Self::with_grace(config, Duration::from_millis(4))
    }

    /// Spawns the session's worker threads with an explicit straggler
    /// grace window (see [`NetworkConfig::grace`]).
    #[must_use]
    pub fn with_grace(config: SystemConfig, grace: Duration) -> Self {
        Self::spawn(config, grace, None)
    }

    /// Spawns a *recycling* session: workers keep retired automatons in
    /// a per-thread pool and reset them in place for the next instance
    /// (`reset` receives the replica index, the pooled automaton, and
    /// the new proposal) instead of dropping per-instance allocations on
    /// the floor; `build` covers the cold start. Instances are started
    /// with [`start_instance_recycled`](Session::start_instance_recycled)
    /// — the built-process [`start_instance`](Session::start_instance)
    /// path also keeps working, feeding its retired automatons into the
    /// same pool.
    #[must_use]
    pub fn with_recycler<B, R>(config: SystemConfig, grace: Duration, build: B, reset: R) -> Self
    where
        B: Fn(usize, Value) -> P + Send + Sync + 'static,
        R: Fn(usize, &mut P, Value) + Send + Sync + 'static,
    {
        Self::spawn(
            config,
            grace,
            Some(Arc::new(Recycler { build: Box::new(build), reset: Box::new(reset) })),
        )
    }

    fn spawn(config: SystemConfig, grace: Duration, recycler: Option<Arc<Recycler<P>>>) -> Self {
        let n = config.n();
        let inboxes: Arc<[WorkerInbox<P>]> = (0..n).map(|_| Inbox::new()).collect();
        let registry = Arc::new(DoneRegistry::new(n));
        let (results_tx, results_rx) = unbounded();
        let handles = (0..n)
            .map(|i| {
                let ctx = WorkerCtx {
                    id: ProcessId::new(i),
                    inboxes: Arc::clone(&inboxes),
                    results_tx: results_tx.clone(),
                    registry: Arc::clone(&registry),
                    grace,
                    quorum: config.quorum(),
                    n,
                    recycler: recycler.clone(),
                };
                std::thread::spawn(move || worker(ctx))
            })
            .collect();

        Session {
            config,
            inboxes,
            results_rx,
            handles,
            next_instance: 1,
            collected: HashMap::new(),
            recycling: recycler.is_some(),
        }
    }

    /// The session's system configuration.
    #[must_use]
    pub fn config(&self) -> SystemConfig {
        self.config
    }

    /// Starts the next consensus instance: one automaton per replica plus
    /// the instance's crash/delay/budget spec. Returns the instance id
    /// (monotonic from 1). The call never blocks; any number of instances
    /// may be in flight concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `processes.len() != n`.
    pub fn start_instance(&mut self, processes: Vec<P>, spec: &InstanceSpec) -> u64 {
        assert_eq!(processes.len(), self.config.n(), "one automaton per replica required");
        let payloads = processes.into_iter().map(JobPayload::Built).collect();
        self.dispatch(payloads, spec)
    }

    /// Starts the next consensus instance from bare proposals: each worker
    /// recycles a pooled automaton through the session's reset hook (or
    /// builds one on a cold pool). Requires a session constructed with
    /// [`with_recycler`](Session::with_recycler). Same contract as
    /// [`start_instance`](Session::start_instance) otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the session has no recycler or `proposals.len() != n`.
    pub fn start_instance_recycled(&mut self, proposals: &[Value], spec: &InstanceSpec) -> u64 {
        assert!(self.recycling, "start_instance_recycled requires Session::with_recycler");
        assert_eq!(proposals.len(), self.config.n(), "one proposal per replica required");
        let payloads = proposals.iter().map(|&v| JobPayload::Proposal(v)).collect();
        self.dispatch(payloads, spec)
    }

    fn dispatch(&mut self, payloads: Vec<JobPayload<P>>, spec: &InstanceSpec) -> u64 {
        assert_eq!(spec.crashes.len(), self.config.n(), "one crash slot per replica required");
        let metrics = session_metrics();
        metrics.instances_started.incr();
        if payloads.iter().any(|p| matches!(p, JobPayload::Proposal(_))) {
            metrics.recycled_starts.incr();
        }
        let instance = self.next_instance;
        self.next_instance += 1;
        let now = Instant::now();
        for (i, payload) in payloads.into_iter().enumerate() {
            let job = Job {
                payload,
                crash_round: spec.crashes[i],
                delays: spec.delays,
                max_rounds: spec.max_rounds,
            };
            self.inboxes[i].push(now, Item::Job(instance, job));
        }
        instance
    }

    /// Receives one worker event, propagating worker panics to the
    /// session owner (mirroring the old joined-thread behavior).
    fn recv_result(&mut self) -> ReplicaResult {
        match self.results_rx.recv() {
            Ok(WorkerEvent::Result(r)) => note_result(r),
            Ok(WorkerEvent::Panicked(id)) => panic!("worker thread {id} panicked"),
            Err(_) => panic!("workers exited with results outstanding"),
        }
    }

    /// Receives the next replica result from any in-flight instance,
    /// blocking until one arrives.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked, or if every worker exited with
    /// results still outstanding.
    pub fn next_result(&mut self) -> ReplicaResult {
        self.recv_result()
    }

    /// Receives the next replica result if one is already queued, without
    /// blocking — the pump an *event loop* layered over a session uses
    /// (the `indulgent-server` engine interleaves socket intake, batch
    /// sealing and decision application on one thread, so it must never
    /// park on the session).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn try_next_result(&mut self) -> Option<ReplicaResult> {
        match self.results_rx.try_recv() {
            Ok(WorkerEvent::Result(r)) => Some(note_result(r)),
            Ok(WorkerEvent::Panicked(id)) => panic!("worker thread {id} panicked"),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => panic!("workers exited with the session alive"),
        }
    }

    /// Receives the next replica result, waiting at most `timeout`;
    /// `None` on timeout. The bounded-blocking variant of
    /// [`try_next_result`](Session::try_next_result) for event loops that
    /// want to sleep when idle without missing a result.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn next_result_timeout(&mut self, timeout: Duration) -> Option<ReplicaResult> {
        match self.results_rx.recv_timeout(timeout) {
            Ok(WorkerEvent::Result(r)) => Some(note_result(r)),
            Ok(WorkerEvent::Panicked(id)) => panic!("worker thread {id} panicked"),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                panic!("workers exited with the session alive")
            }
        }
    }

    /// Blocks until the first *decision* of `instance` is known and
    /// returns it, buffering results of other instances. Returns `None`
    /// only if all `n` replicas reported without any deciding (crashes +
    /// exhausted budgets).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn wait_decision(&mut self, instance: u64) -> Option<Decision> {
        loop {
            let results = self.collected.entry(instance).or_default();
            if let Some(d) = results.iter().find_map(|r| r.decision) {
                return Some(d);
            }
            if results.len() == self.config.n() {
                return None;
            }
            let r = self.recv_result();
            self.collected.entry(r.instance).or_default().push(r);
        }
    }

    /// Blocks until all `n` replicas of `instance` have reported and
    /// assembles the instance report, buffering results of other
    /// instances.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn wait_instance(&mut self, instance: u64) -> InstanceReport {
        loop {
            if self.collected.get(&instance).is_some_and(|rs| rs.len() == self.config.n()) {
                let results = self.collected.remove(&instance).expect("present");
                let mut decisions = vec![None; self.config.n()];
                let mut rounds_executed = 0;
                for r in &results {
                    decisions[r.replica.index()] = r.decision;
                    rounds_executed = rounds_executed.max(r.last_round);
                }
                return InstanceReport { instance, decisions, rounds_executed };
            }
            let r = self.recv_result();
            self.collected.entry(r.instance).or_default().push(r);
        }
    }
}

impl<P: RoundProcess> Drop for Session<P> {
    fn drop(&mut self) {
        // Shutdown is due at once, so delayed messages still queued do
        // not hold a worker back.
        let now = Instant::now();
        for inbox in self.inboxes.iter() {
            inbox.push(now, Item::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Everything a worker thread owns.
struct WorkerCtx<P: RoundProcess> {
    id: ProcessId,
    /// Every worker's inbox: its own at index `id`, its peers' for sends.
    inboxes: Arc<[WorkerInbox<P>]>,
    results_tx: Sender<WorkerEvent>,
    registry: Arc<DoneRegistry>,
    grace: Duration,
    quorum: usize,
    n: usize,
    recycler: Option<Arc<Recycler<P>>>,
}

impl<P: RoundProcess> std::fmt::Debug for WorkerCtx<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerCtx").field("id", &self.id).finish_non_exhaustive()
    }
}

/// One instance's protocol state inside a worker: a small state machine
/// advanced opportunistically by the event loop.
struct ActiveInstance<P: RoundProcess> {
    instance: u64,
    process: P,
    crash_round: Option<Round>,
    delays: DelayModel,
    max_rounds: u32,
    /// Round currently executing.
    round: u32,
    /// Whether this round's send phase has run.
    sent: bool,
    /// When the `n - t` quorum for the current round was first observed;
    /// `None` outside a round's grace wait.
    quorum_at: Option<Instant>,
    decision: Option<Decision>,
    /// Result sent to the session owner.
    reported: bool,
    /// Stopped participating (crashed or budget exhausted); waiting for
    /// the instance to retire globally.
    halted: bool,
    last_round: u32,
}

type Mailbox<M> = BTreeMap<u32, Vec<DeliveredMsg<M>>>;

fn activate<P: RoundProcess>(
    instance: u64,
    job: Job<P>,
    replica: usize,
    recycler: Option<&Recycler<P>>,
    pool: &mut Vec<P>,
) -> ActiveInstance<P> {
    let process = match job.payload {
        JobPayload::Built(p) => p,
        JobPayload::Proposal(v) => {
            let hooks = recycler.expect("proposal job on a session without a recycler");
            match pool.pop() {
                Some(mut p) => {
                    (hooks.reset)(replica, &mut p, v);
                    p
                }
                None => (hooks.build)(replica, v),
            }
        }
    };
    ActiveInstance {
        instance,
        process,
        crash_round: job.crash_round,
        delays: job.delays,
        max_rounds: job.max_rounds,
        round: 1,
        sent: false,
        quorum_at: None,
        decision: None,
        reported: false,
        halted: false,
        last_round: 0,
    }
}

fn worker<P: RoundProcess>(ctx: WorkerCtx<P>) {
    // If anything below panics, tell the session owner on unwind so its
    // blocking waits fail loudly instead of hanging.
    let _sentinel = PanicSentinel { id: ctx.id, events_tx: ctx.results_tx.clone() };
    let replica = ctx.id.index();
    let inbox = &ctx.inboxes[replica];
    let mut active: Vec<ActiveInstance<P>> = Vec::new();
    // Arrived messages, keyed by instance then by the round they were
    // sent in. Entries may exist before the instance's job arrives (a
    // faster peer started it first).
    let mut mailboxes: HashMap<u64, Mailbox<P::Msg>> = HashMap::new();
    // Instances this worker has fully retired; stragglers are dropped.
    let mut retired = RetiredSet::default();
    // Retired automatons awaiting reuse (recycling sessions only).
    let mut pool: Vec<P> = Vec::new();
    let mut due = Vec::new();

    loop {
        // Sleep until an item falls due or a round's grace runs out.
        let grace_ends = active.iter().filter_map(|i| i.quorum_at).min().map(|at| at + ctx.grace);
        inbox.pop_until(grace_ends, &mut due);
        for item in due.drain(..) {
            match item {
                Item::Job(instance, job) => active.push(activate(
                    instance,
                    job,
                    replica,
                    ctx.recycler.as_deref(),
                    &mut pool,
                )),
                Item::Message(instance, msg) => {
                    if !retired.contains(instance) {
                        let mailbox = mailboxes.entry(instance).or_default();
                        mailbox.entry(msg.sent_round.get()).or_default().push(msg);
                    }
                }
                Item::Shutdown => return,
            }
        }

        // Advance every active instance as far as it can go.
        for inst in &mut active {
            advance_instance(&ctx, inst, mailboxes.entry(inst.instance).or_default());
        }

        // Retire instances that are globally done (or locally halted and
        // globally done): free their mailboxes and drop future
        // stragglers. The registry lock is only taken for instances this
        // worker has already finished locally, and a global finish is
        // noticed on the worker's next wake (finishing wakes no one).
        // Retired automatons go back to the pool when the session
        // recycles.
        let mut i = 0;
        while i < active.len() {
            let inst = &active[i];
            let gone =
                (inst.halted || inst.decision.is_some()) && ctx.registry.is_done_ack(inst.instance);
            if gone {
                mailboxes.remove(&inst.instance);
                retired.insert(inst.instance);
                let inst = active.remove(i);
                if ctx.recycler.is_some() {
                    pool.push(inst.process);
                }
            } else {
                i += 1;
            }
        }
    }
}

/// Runs one instance's protocol forward: send if due, deliver every round
/// whose quorum-plus-grace condition is met, repeat until the instance
/// blocks on the network (or halts).
fn advance_instance<P: RoundProcess>(
    ctx: &WorkerCtx<P>,
    inst: &mut ActiveInstance<P>,
    mailbox: &mut Mailbox<P::Msg>,
) {
    while !inst.halted {
        let k = inst.round;
        if !inst.sent {
            // Logical crash: silent in this instance from the crash round
            // on (the simulator's `crash_before_send`).
            if inst.crash_round.is_some_and(|c| k >= c.get()) {
                halt_and_report(ctx, inst);
                return;
            }
            if k > inst.max_rounds {
                halt_and_report(ctx, inst);
                return;
            }
            let round = Round::new(k);
            let msg = inst.process.send(round);
            let now = Instant::now();
            for (j, inbox) in ctx.inboxes.iter().enumerate() {
                let to = ProcessId::new(j);
                let delay = if to == ctx.id {
                    Duration::ZERO
                } else {
                    inst.delays.delay_for(round, ctx.id, to)
                };
                let msg = DeliveredMsg { sender: ctx.id, sent_round: round, msg: msg.clone() };
                inbox.push(now + delay, Item::Message(inst.instance, msg));
            }
            inst.sent = true;
        }

        // Receive phase: the round completes once all `n` current-round
        // messages arrived, or the `n - t` quorum plus the grace window.
        let current = mailbox.get(&k).map_or(0, Vec::len);
        let ready = if current >= ctx.n {
            true
        } else if current >= ctx.quorum {
            let entered = *inst.quorum_at.get_or_insert_with(Instant::now);
            entered.elapsed() >= ctx.grace
        } else {
            false
        };
        if !ready {
            return;
        }

        // Deliver everything sent in rounds <= k that has arrived.
        let round = Round::new(k);
        let ready_rounds: Vec<u32> = mailbox.range(..=k).map(|(&r, _)| r).collect();
        let mut batch: Vec<DeliveredMsg<P::Msg>> = Vec::new();
        for r in ready_rounds {
            batch.extend(mailbox.remove(&r).unwrap_or_default());
        }
        batch.sort_by_key(|m| (m.sent_round, m.sender));
        let delivery = Delivery::new(round, batch);
        let step = inst.process.deliver(round, &delivery);
        inst.last_round = k;
        if let Step::Decide(value) = step {
            if inst.decision.is_none() {
                inst.decision = Some(Decision { process: ctx.id, round, value });
                ctx.registry.mark(inst.instance, ctx.id);
                report(ctx, inst);
            }
        }
        inst.round += 1;
        inst.sent = false;
        inst.quorum_at = None;
    }
}

/// Stops the instance locally (crash or exhausted budget), reporting its
/// terminal state if it has not reported yet.
fn halt_and_report<P: RoundProcess>(ctx: &WorkerCtx<P>, inst: &mut ActiveInstance<P>) {
    inst.halted = true;
    ctx.registry.mark(inst.instance, ctx.id);
    report(ctx, inst);
}

/// Sends the replica's result for this instance to the session owner
/// (at most once).
fn report<P: RoundProcess>(ctx: &WorkerCtx<P>, inst: &mut ActiveInstance<P>) {
    if inst.reported {
        return;
    }
    inst.reported = true;
    let _ = ctx.results_tx.send(WorkerEvent::Result(ReplicaResult {
        instance: inst.instance,
        replica: ctx.id,
        decision: inst.decision,
        last_round: inst.last_round,
    }));
}

/// Runs `factory`-built automatons over real threads and channels: a
/// fresh [`Session`], one instance, joined on completion.
///
/// Every process broadcasts one message per round (including to itself,
/// instantly), waits for the `n - t` quorum of current-round messages plus
/// the grace window, and hands its automaton everything that arrived.
/// Processes keep participating after deciding (relaying their decision)
/// until every process has decided or crashed.
///
/// # Panics
///
/// Panics if `proposals.len() != config.n()`, or if a worker thread
/// panics.
pub fn run_network<F>(
    config: SystemConfig,
    factory: &F,
    proposals: &[Value],
    net: &NetworkConfig,
) -> NetReport
where
    F: ProcessFactory,
    <F::Process as RoundProcess>::Msg: Send + 'static,
    F::Process: Send + 'static,
{
    assert_eq!(proposals.len(), config.n(), "one proposal per process required");
    let start = Instant::now();
    let mut session = Session::with_grace(config, net.grace);
    let processes: Vec<F::Process> =
        (0..config.n()).map(|i| factory.build(i, proposals[i])).collect();
    let spec = InstanceSpec {
        crashes: net.crashes.clone(),
        delays: net.delays,
        max_rounds: net.max_rounds,
    };
    let instance = session.start_instance(processes, &spec);
    let report = session.wait_instance(instance);

    let crashed: ProcessSet =
        config.processes().filter(|p| net.crashes[p.index()].is_some()).collect();
    NetReport {
        outcome: RunOutcome {
            proposals: proposals.to_vec(),
            decisions: report.decisions,
            crashed,
            rounds_executed: report.rounds_executed,
        },
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use indulgent_consensus::{AtPlus2, CoordinatorEcho, RotatingCoordinator};

    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::majority(5, 2).unwrap()
    }

    fn at_factory(
        config: SystemConfig,
    ) -> impl ProcessFactory<Process = AtPlus2<RotatingCoordinator>> {
        move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
        }
    }

    fn vals(vs: &[u64]) -> Vec<Value> {
        vs.iter().copied().map(Value::new).collect()
    }

    #[test]
    fn synchronous_network_decides_at_t_plus_2() {
        let config = cfg();
        let net = NetworkConfig::synchronous(config);
        let report = run_network(config, &at_factory(config), &vals(&[6, 2, 8, 4, 7]), &net);
        report.outcome.check_consensus().unwrap();
        assert_eq!(
            report.outcome.global_decision_round(),
            Some(Round::new(4)),
            "t + 2 fast decision should carry over to the threaded runtime"
        );
        for d in report.outcome.decisions.iter().flatten() {
            assert_eq!(d.value, Value::new(2));
        }
    }

    #[test]
    fn crashed_process_is_tolerated() {
        let config = cfg();
        let net = NetworkConfig::synchronous(config).crash(ProcessId::new(1), Round::new(2));
        let report = run_network(config, &at_factory(config), &vals(&[6, 2, 8, 4, 7]), &net);
        report.outcome.check_consensus().unwrap();
        assert!(report.outcome.crashed.contains(ProcessId::new(1)));
        assert!(report.outcome.decision_of(ProcessId::new(1)).is_none());
    }

    #[test]
    fn asynchronous_prefix_still_terminates_consistently() {
        let config = cfg();
        let net = NetworkConfig::synchronous(config).with_delays(DelayModel::AsyncUntil {
            until_round: 5,
            delay: Duration::from_millis(40),
            probability: 0.3,
            seed: 7,
        });
        let report = run_network(config, &at_factory(config), &vals(&[6, 2, 8, 4, 7]), &net);
        report.outcome.check_consensus().unwrap();
    }

    #[test]
    fn coordinator_echo_runs_on_the_network() {
        let config = cfg();
        let factory = move |i: usize, v: Value| CoordinatorEcho::new(config, ProcessId::new(i), v);
        let net = NetworkConfig::synchronous(config);
        let report = run_network(config, &factory, &vals(&[6, 2, 8, 4, 7]), &net);
        report.outcome.check_consensus().unwrap();
        assert_eq!(report.outcome.global_decision_round(), Some(Round::new(2)));
    }

    #[test]
    fn recycled_session_decides_across_instances() {
        let config = cfg();
        let build = move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
                .with_failure_free_optimization()
        };
        let reset = |_i: usize, p: &mut AtPlus2<RotatingCoordinator>, v: Value| {
            p.reset_instance(v);
        };
        let mut session = Session::with_recycler(config, Duration::from_millis(4), build, reset);
        let spec = InstanceSpec::synchronous(config);
        // Several sequential instances: after the first, every automaton
        // comes out of the worker pools via the reset hook. Decisions must
        // match what fresh automatons would produce (min proposal).
        for (proposals, expect) in
            [([6u64, 2, 8, 4, 7], 2u64), ([9, 9, 1, 9, 9], 1), ([5, 5, 5, 5, 5], 5)]
        {
            let instance = session.start_instance_recycled(&vals(&proposals), &spec);
            let report = session.wait_instance(instance);
            for d in &report.decisions {
                assert_eq!(d.expect("replica must decide").value, Value::new(expect));
            }
        }
    }

    #[test]
    #[should_panic(expected = "start_instance_recycled requires Session::with_recycler")]
    fn recycled_start_requires_recycler() {
        let config = cfg();
        let mut session: Session<AtPlus2<RotatingCoordinator>> = Session::new(config);
        let spec = InstanceSpec::synchronous(config);
        session.start_instance_recycled(&vals(&[1, 1, 1, 1, 1]), &spec);
    }

    #[test]
    fn delay_model_is_deterministic() {
        let m = DelayModel::AsyncUntil {
            until_round: 4,
            delay: Duration::from_millis(10),
            probability: 0.5,
            seed: 42,
        };
        let a = m.delay_for(Round::new(2), ProcessId::new(1), ProcessId::new(3));
        let b = m.delay_for(Round::new(2), ProcessId::new(1), ProcessId::new(3));
        assert_eq!(a, b);
        // After the synchrony round there are no delays.
        assert_eq!(
            m.delay_for(Round::new(4), ProcessId::new(1), ProcessId::new(3)),
            Duration::ZERO
        );
    }

    #[test]
    fn uniform_delay_applies_to_every_round() {
        let m = DelayModel::Uniform { delay: Duration::from_millis(3) };
        for k in [1u32, 7, 100] {
            assert_eq!(
                m.delay_for(Round::new(k), ProcessId::new(0), ProcessId::new(1)),
                Duration::from_millis(3)
            );
        }
    }

    #[test]
    fn wall_clock_is_reported() {
        let config = cfg();
        let net = NetworkConfig::synchronous(config);
        let report = run_network(config, &at_factory(config), &vals(&[1, 1, 1, 1, 1]), &net);
        assert!(report.elapsed > Duration::ZERO);
    }

    #[test]
    fn session_reuses_threads_across_instances() {
        let config = cfg();
        let mut session = Session::new(config);
        let spec = InstanceSpec::synchronous(config);
        for (expected, proposals) in
            [(2u64, [6u64, 2, 8, 4, 7]), (1, [9, 9, 1, 9, 9]), (3, [3, 5, 7, 9, 11])]
        {
            let processes = (0..config.n())
                .map(|i| {
                    let id = ProcessId::new(i);
                    AtPlus2::new(
                        config,
                        id,
                        Value::new(proposals[i]),
                        RotatingCoordinator::new(config, id),
                    )
                })
                .collect();
            let instance = session.start_instance(processes, &spec);
            let report = session.wait_instance(instance);
            for d in report.decisions.iter() {
                assert_eq!(d.expect("decided").value, Value::new(expected));
            }
        }
    }

    #[test]
    fn pipelined_instances_complete_concurrently() {
        let config = cfg();
        let mut session = Session::new(config);
        let spec = InstanceSpec::synchronous(config);
        let mut ids = Vec::new();
        for base in 0..4u64 {
            let processes = (0..config.n())
                .map(|i| {
                    let id = ProcessId::new(i);
                    AtPlus2::new(
                        config,
                        id,
                        Value::new(base * 10 + i as u64),
                        RotatingCoordinator::new(config, id),
                    )
                })
                .collect();
            ids.push(session.start_instance(processes, &spec));
        }
        // Instances decide independently; each decides its own minimum.
        for (base, id) in ids.into_iter().enumerate() {
            let d = session.wait_decision(id).expect("decided");
            assert_eq!(d.value, Value::new(base as u64 * 10));
            let report = session.wait_instance(id);
            for d in report.decisions.iter().flatten() {
                assert_eq!(d.value, Value::new(base as u64 * 10));
            }
        }
    }

    #[test]
    fn non_blocking_result_pump_drains_an_instance() {
        let config = cfg();
        let mut session = Session::new(config);
        let spec = InstanceSpec::synchronous(config);
        assert!(session.try_next_result().is_none(), "nothing in flight yet");
        let processes = (0..config.n())
            .map(|i| {
                let id = ProcessId::new(i);
                AtPlus2::new(
                    config,
                    id,
                    Value::new(i as u64 + 1),
                    RotatingCoordinator::new(config, id),
                )
            })
            .collect();
        let instance = session.start_instance(processes, &spec);
        // Pump with the bounded-wait variant until all n replicas report.
        let mut results = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        while results.len() < config.n() {
            assert!(Instant::now() < deadline, "instance must complete");
            if let Some(r) = session.next_result_timeout(Duration::from_millis(5)) {
                assert_eq!(r.instance, instance);
                results.push(r);
            }
        }
        for r in &results {
            assert_eq!(r.decision.expect("decided").value, Value::new(1));
        }
        assert!(session.try_next_result().is_none(), "exactly n results per instance");
    }

    #[test]
    #[should_panic(expected = "worker thread p2 panicked")]
    fn worker_panic_propagates_to_waiters() {
        // An automaton that panics mid-protocol must not hang the
        // session's blocking waits; the poison marker surfaces it.
        #[derive(Debug, Clone)]
        struct Bomb(ProcessId);
        impl RoundProcess for Bomb {
            type Msg = ();
            fn send(&mut self, _round: Round) {}
            fn deliver(&mut self, _round: Round, _delivery: &Delivery<()>) -> Step {
                assert_ne!(self.0, ProcessId::new(2), "boom");
                Step::Continue
            }
        }
        let config = cfg();
        let mut session = Session::new(config);
        let processes = (0..config.n()).map(|i| Bomb(ProcessId::new(i))).collect();
        let spec = InstanceSpec::synchronous(config).with_max_rounds(5);
        let instance = session.start_instance(processes, &spec);
        let _ = session.wait_instance(instance);
    }

    #[test]
    fn retired_set_watermark_absorbs_in_order_and_gaps() {
        let mut r = RetiredSet::default();
        r.insert(2);
        assert!(r.contains(2));
        assert!(!r.contains(1));
        r.insert(1);
        assert_eq!(r.below, 2);
        assert!(r.above.is_empty(), "dense prefix collapses into the watermark");
        r.insert(4);
        r.insert(3);
        assert_eq!(r.below, 4);
        assert!(r.contains(3) && r.contains(4) && !r.contains(5));
    }

    #[test]
    fn per_instance_crashes_are_isolated() {
        // The same replica crashes in instance 1 but participates fully in
        // instance 2 — crash scope is the instance, not the session.
        let config = cfg();
        let mut session = Session::new(config);
        let build = |proposals: [u64; 5]| {
            (0..config.n())
                .map(|i| {
                    let id = ProcessId::new(i);
                    AtPlus2::new(
                        config,
                        id,
                        Value::new(proposals[i]),
                        RotatingCoordinator::new(config, id),
                    )
                })
                .collect::<Vec<_>>()
        };
        let crashing = InstanceSpec::synchronous(config).crash(ProcessId::new(1), Round::new(2));
        let first = session.start_instance(build([6, 2, 8, 4, 7]), &crashing);
        let clean = InstanceSpec::synchronous(config);
        let second = session.start_instance(build([6, 2, 8, 4, 7]), &clean);

        let r1 = session.wait_instance(first);
        assert!(r1.decisions[1].is_none(), "crashed replica must not decide");
        for d in r1.decisions.iter().flatten() {
            assert_eq!(d.value, Value::new(2));
        }
        let r2 = session.wait_instance(second);
        assert!(r2.decisions.iter().all(Option::is_some), "instance 2 is crash-free");
    }

    /// Spins until the inbox's receiver is parked, so the next push is
    /// made against a sleeping receiver.
    fn wait_parked<J, M>(inbox: &Inbox<J, M>) {
        while !inbox.lock().parked {
            std::thread::yield_now();
        }
    }

    #[test]
    fn delay_line_never_returns_an_item_before_it_is_due() {
        let inbox: Inbox<(), Instant> = Inbox::new();
        let start = Instant::now();
        // Pushed out of due order, 250 µs apart; one is due at once.
        for us in [750u64, 0, 500, 250, 750] {
            let due = start + Duration::from_micros(us);
            inbox.push(due, Item::Message(1, due));
        }
        let mut out = Vec::new();
        let mut seen = Vec::new();
        while seen.len() < 5 {
            inbox.pop_until(None, &mut out);
            let now = Instant::now();
            for item in out.drain(..) {
                let Item::Message(_, due) = item else { panic!("only messages were queued") };
                assert!(due <= now, "returned {:?} before its due time", due - now);
                seen.push(due);
            }
        }
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "earliest due first");
    }

    #[test]
    fn push_due_sooner_cuts_a_parked_wait_short() {
        let inbox: Inbox<(), ()> = Inbox::new();
        let mut taken = Vec::new();
        inbox.push(Instant::now(), Item::Job(1, ()));
        inbox.pop_until(None, &mut taken);
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut out = Vec::new();
                inbox.pop_until(Some(Instant::now() + Duration::from_secs(10)), &mut out);
                (out.len(), Instant::now())
            });
            wait_parked(&inbox);
            let due = Instant::now() + Duration::from_millis(1);
            inbox.push(due, Item::Message(1, ()));
            let (popped, returned) = receiver.join().expect("receiver thread");
            assert_eq!(popped, 1, "the message, not the 10 s limit, ends the wait");
            assert!(returned >= due);
            assert!(
                returned - due < Duration::from_millis(100),
                "returned {:?} after the message fell due",
                returned - due
            );
        });
    }

    #[test]
    fn message_of_an_untaken_job_waits_for_the_job() {
        let inbox: Inbox<&str, &str> = Inbox::new();
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut out = Vec::new();
                inbox.pop_until(None, &mut out);
                out
            });
            wait_parked(&inbox);
            inbox.push(Instant::now(), Item::Message(1, "early"));
            assert!(inbox.lock().parked, "the receiver holds no job of instance 1 yet");
            inbox.push(Instant::now(), Item::Job(1, "job"));
            let out = receiver.join().expect("receiver thread");
            assert!(
                matches!(out[..], [Item::Message(1, "early"), Item::Job(1, "job")]),
                "the job's wake-up returns the waiting message with it: {out:?}"
            );
        });
    }

    #[test]
    fn pipelined_delayed_instances_lose_no_wake_up() {
        // 2 000 instances, 4 in flight, every link 500 µs: a lost wake-up
        // leaves a wait blocked forever, so the run happens on its own
        // thread and the test waits for it with a deadline.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let config = cfg();
            let build = move |i: usize, v: Value| {
                let id = ProcessId::new(i);
                AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
                    .with_failure_free_optimization()
            };
            let reset = |_i: usize, p: &mut AtPlus2<RotatingCoordinator>, v: Value| {
                p.reset_instance(v);
            };
            let mut session =
                Session::with_recycler(config, Duration::from_millis(4), build, reset);
            let spec = InstanceSpec::synchronous(config)
                .with_delays(DelayModel::Uniform { delay: Duration::from_micros(500) });
            let mut window = std::collections::VecDeque::new();
            for i in 0..2_000u64 {
                if window.len() == 4 {
                    let (id, v) = window.pop_front().expect("full window");
                    assert_eq!(session.wait_decision(id).expect("decided").value, v);
                }
                let v = Value::new(i);
                window.push_back((session.start_instance_recycled(&[v; 5], &spec), v));
            }
            // With no later job to wake a lagging replica, the last window
            // completes on every replica only if messages wake receivers.
            for (id, v) in window {
                let report = session.wait_instance(id);
                assert!(report.decisions.iter().all(|d| d.is_some_and(|d| d.value == v)));
            }
            done_tx.send(()).expect("test thread waiting");
        });
        done_rx.recv_timeout(Duration::from_secs(120)).expect("every wait_decision returns");
    }

    #[test]
    fn drop_returns_promptly_with_delayed_messages_pending() {
        let config = cfg();
        let factory = at_factory(config);
        let mut session = Session::new(config);
        let spec = InstanceSpec::synchronous(config)
            .with_delays(DelayModel::Uniform { delay: Duration::from_secs(10) });
        for _ in 0..3 {
            let processes = (0..config.n()).map(|i| factory.build(i, Value::new(7))).collect();
            session.start_instance(processes, &spec);
        }
        // Each worker has taken its three jobs once every inbox holds its
        // peers' round-1 messages, all due 10 s from now.
        let pending = 3 * (config.n() - 1);
        for inbox in session.inboxes.iter() {
            while inbox.lock().queue.len() < pending {
                std::thread::yield_now();
            }
        }
        let start = Instant::now();
        drop(session);
        assert!(start.elapsed() < Duration::from_millis(50), "drop took {:?}", start.elapsed());
    }
}
