//! Multiplexed message-passing runtime: consensus instances on at most
//! one OS thread per core.
//!
//! The paper's model is abstract; this crate gives it a concrete,
//! wall-clock incarnation: every process is a replica stepped by an OS
//! worker thread, delayed messages wait on a per-worker delay line under
//! an injectable delay model, and round synchronization works the way
//! eventually synchronous systems do in practice — wait for a quorum of
//! `n - t` current-round messages (mandatory, this is the model's
//! t-resilience), then a grace period for stragglers, then move on. A
//! message that misses its round's grace window is *suspected* exactly as
//! in ES: it still arrives later (reliable channels), tagged with the
//! round it was sent in.
//!
//! The same [`RoundProcess`] automatons that run under the deterministic
//! simulator run here unchanged, which is the point: `quickstart` decisions
//! in the simulator carry over to a racing, multi-threaded execution. That
//! execution is a *model* of a network in one respect: what races is
//! *instances*, each on its own worker thread, while the `n` replicas of
//! one instance interleave on one thread. Which of their messages make a
//! round's grace window is decided by the delay model and the wall clock,
//! not by the OS scheduling one replica ahead of another. Use
//! [`DelayModel::AsyncUntil`] to inject an asynchronous prefix (false
//! suspicions) and [`InstanceSpec::crash`] to crash processes at chosen
//! rounds.
//!
//! # Sessions: reusable threads, pipelined instances
//!
//! The runtime's unit of reuse is a [`Session`]: `W = min(n,
//! available_parallelism)` worker threads and their inboxes, spawned
//! **once** and kept alive across any number of consensus instances.
//! Placement is by instance: all `n` replicas of instance `i` run on
//! worker `i % W`, so no message ever passes between workers, and the
//! parallelism comes from instances in flight together (a pipelined log
//! or a sharded service keeps several). `W` follows the cores the process
//! may use (`taskset`, cgroup limits), so more threads than that would
//! only take turns on the same cores. A session is spawned with a `build`
//! and a `reset` hook ([`Session::with_recycler`]).
//! [`Session::start_instance_recycled`] hands the instance's worker, in
//! one locked batch, one job per replica: its proposal and its share of
//! the [`InstanceSpec`] (crash rounds, delay model, round budget). The
//! worker keeps one automaton pool per replica index; it resets an
//! automaton that index retired in an earlier instance, and builds one
//! only when the pool is empty. Results stream back per replica as
//! [`ReplicaResult`]s. Multiple instances may be in flight at once, and
//! each worker interleaves the round protocols of all its instances in
//! one event loop. This is the substrate of the `indulgent-log`
//! replicated-log subsystem: a pipelined log keeps a window of instances
//! running concurrently and pays thread/inbox setup exactly once, instead
//! of once per decision.
//!
//! [`run_network`] runs one instance on a fresh session and returns a
//! [`NetReport`]. Its reset hook rebuilds the automaton from the factory,
//! so any [`ProcessFactory`] runs there, with or without an instance
//! reset of its own.
//!
//! # Workers: one delay-line inbox each
//!
//! Everything that can make a worker progress arrives in its one *inbox*:
//! jobs (new instances), the worker's own delayed messages, and the
//! shutdown item pushed by [`Session`]'s `Drop`. Each item carries the
//! instant it becomes visible — a message sent over a link of delay `d`
//! is due `d` after its send — and the inbox never hands an item out
//! before then. A worker drains what is due, then advances every replica
//! of every instance it runs, pass after pass, until a pass delivers
//! nothing to another replica (a send can complete a sibling's round). It
//! then parks until the earliest of the next due item and the earliest
//! `quorum_at + grace` among its replicas. There is no poll interval: the
//! runtime adds nothing to the delay it models.
//!
//! A message sent with zero delay goes straight into its target's
//! mailbox. A delayed one goes onto the worker's own delay line: at the
//! end of each pass, everything the pass delayed is pushed under one lock.
//! A message that falls due after its instance retired is a straggler and
//! is dropped; none can fall due before its instance starts, since only
//! the instance's own replicas, on the same worker, send them.
//!
//! The wake rule is one condition: a push wakes its worker if the worker
//! is parked. Only the session pushes from another thread, and only jobs
//! and shutdown, which must wake; the worker's own pushes happen while it
//! is awake. The test and the park happen under the same lock, so no
//! wake-up is lost. The `runtime_session` metric family counts
//! `worker_parks` and `worker_timed_wakes` (parks that ended on their own
//! timer).
//!
//! A replica that has decided keeps relaying its decision, one broadcast
//! per round, for peers that have not decided yet. The *stop rule* ends
//! that: before each relay the worker counts the instance's finished
//! replicas (decided, crashed or out of rounds). Once all `n` have
//! finished it sends nothing and retires the instance in the same pass,
//! since no one can need the message any more. The rule is all-or-nothing
//! on purpose. A decider that skipped only its finished peers would never
//! complete its round, so it would never send the next relay that a
//! replica still undecided may need for its quorum. The
//! `runtime_session.relays` counter counts the relays that were sent.
//!
//! # Crash semantics
//!
//! Crashes are *logical*, defined against the per-instance round clock: a
//! spec entry `crash at round r` means the replica participates in rounds
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

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use indulgent_model::{
    Decision, DeliveredMsg, Delivery, ProcessFactory, ProcessId, ProcessSet, Round, RoundProcess,
    RunOutcome, Step, SystemConfig, Value,
};

/// The `runtime_session` metric family: what this process's sessions
/// have done, summed across all of them. Instances and results are the
/// session's unit of work, so the first three counters say how much
/// consensus traffic flowed through the runtime. The next two say how
/// often worker threads slept on their inboxes and how many of those
/// sleeps ended on their own timer (a due message or a grace expiry)
/// rather than on a push; a worker parks only once none of its instances
/// can progress, so the messages of an instance's replicas to each other
/// cost no park. `relays` counts broadcasts sent
/// by a replica that had already decided the instance: the work done
/// after the decision, which the stop rule (module docs) keeps to the
/// rounds where some replica has not finished yet.
#[derive(Debug)]
struct SessionMetrics {
    instances_started: indulgent_obs::Counter,
    results_delivered: indulgent_obs::Counter,
    decisions_delivered: indulgent_obs::Counter,
    worker_parks: indulgent_obs::Counter,
    worker_timed_wakes: indulgent_obs::Counter,
    relays: indulgent_obs::Counter,
}

static SESSION_METRICS: SessionMetrics = SessionMetrics {
    instances_started: indulgent_obs::Counter::new(),
    results_delivered: indulgent_obs::Counter::new(),
    decisions_delivered: indulgent_obs::Counter::new(),
    worker_parks: indulgent_obs::Counter::new(),
    worker_timed_wakes: indulgent_obs::Counter::new(),
    relays: indulgent_obs::Counter::new(),
};

impl indulgent_obs::MetricFamily for SessionMetrics {
    fn name(&self) -> &'static str {
        "runtime_session"
    }

    fn emit(&self, sink: &mut dyn indulgent_obs::MetricSink) {
        sink.counter("instances_started", self.instances_started.get());
        sink.counter("results_delivered", self.results_delivered.get());
        sink.counter("decisions_delivered", self.decisions_delivered.get());
        sink.counter("worker_parks", self.worker_parks.get());
        sink.counter("worker_timed_wakes", self.worker_timed_wakes.get());
        sink.counter("relays", self.relays.get());
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
/// instance and name their target replica.
#[derive(Debug)]
enum Item<J, M> {
    /// A new instance for the worker.
    Job(u64, J),
    /// A delayed message of an instance.
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
    /// Whether the receiver is parked; the push that wakes it clears this,
    /// so later pushes do not wake it again.
    parked: bool,
}

/// A worker's delay line: jobs, delayed messages and shutdown in one queue,
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
            state: Mutex::new(InboxState { queue: BinaryHeap::new(), pushed: 0, parked: false }),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, InboxState<J, M>> {
        // No critical section can panic halfway through an update, so a
        // poisoned lock still guards a valid state — and `Session::drop`,
        // which pushes, must not panic.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `item`, visible from `due` on, waking a parked receiver.
    fn push(&self, due: Instant, item: Item<J, M>) {
        self.push_all(std::iter::once((due, item)));
    }

    /// Queues every `(due, item)` under one lock, waking a parked receiver
    /// once (the wake rule in the module docs).
    fn push_all(&self, items: impl IntoIterator<Item = (Instant, Item<J, M>)>) {
        let mut state = self.lock();
        for (due, item) in items {
            let seq = state.pushed;
            state.pushed += 1;
            state.queue.push(Pending { due, seq, item });
        }
        if state.parked {
            state.parked = false;
            drop(state);
            self.wake.notify_one();
        }
    }

    /// Moves every due item into `out`, earliest first. If none is due,
    /// parks until the next item falls due or `limit` passes, re-parking
    /// after a wake-up that finds nothing due; returns with `out` empty
    /// only once `limit` has passed.
    fn pop_until(&self, limit: Option<Instant>, out: &mut Vec<Item<J, M>>) {
        let metrics = session_metrics();
        let mut state = self.lock();
        loop {
            let now = Instant::now();
            while state.queue.peek().is_some_and(|p| p.due <= now) {
                out.push(state.queue.pop().expect("peeked").item);
            }
            if !out.is_empty() || limit.is_some_and(|at| at <= now) {
                return;
            }
            let deadline = [limit, state.queue.peek().map(|p| p.due)].into_iter().flatten().min();
            state.parked = true;
            metrics.worker_parks.incr();
            state = match deadline {
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

/// Per-instance parameters handed to [`Session::start_instance_recycled`].
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

/// What a worker streams back to the session owner: replica results in
/// the normal case, a poison marker naming the replica being stepped if
/// the worker thread panics (sent from the sentinel's unwind path so
/// waiters fail loudly instead of blocking forever).
#[derive(Debug)]
enum WorkerEvent {
    Result(ReplicaResult),
    Panicked(ProcessId),
}

/// Reports a worker panic to the session owner on unwind, naming the
/// replica the worker was stepping at the time.
struct PanicSentinel {
    replica: ProcessId,
    events_tx: Sender<WorkerEvent>,
}

impl Drop for PanicSentinel {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.events_tx.send(WorkerEvent::Panicked(self.replica));
        }
    }
}

/// The per-instance job of one replica, handed to the worker that runs
/// the instance: the replica's proposal and its share of the
/// [`InstanceSpec`].
struct Job {
    replica: ProcessId,
    proposal: Value,
    crash_round: Option<Round>,
    delays: DelayModel,
    max_rounds: u32,
}

/// A delayed message on its way to replica `to`.
struct Envelope<M> {
    to: ProcessId,
    msg: DeliveredMsg<M>,
}

/// What a worker's inbox carries for automatons `P`.
type WorkerItem<P> = Item<Job, Envelope<<P as RoundProcess>::Msg>>;

/// A worker's inbox: the jobs of its instances and their delayed messages.
type WorkerInbox<P> = Inbox<Job, Envelope<<P as RoundProcess>::Msg>>;

/// The reset hook of a [`Recycler`]: `(process index, retired automaton,
/// next proposal)`.
type ResetFn<P> = Box<dyn Fn(usize, &mut P, Value) + Send + Sync>;

/// The build + reset hooks of a session, shared with every worker so
/// retired automatons are reset in place for the next instance instead
/// of being dropped and rebuilt (the same `reset_instance` contract the
/// simulator's multi-shot executor uses).
struct Recycler<P> {
    build: Box<dyn Fn(usize, Value) -> P + Send + Sync>,
    reset: ResetFn<P>,
}

/// `min(n, available_parallelism)` worker threads and their inboxes,
/// reusable across any number of (possibly concurrent) consensus
/// instances of `n` replicas, each instance on one worker.
///
/// Spawning threads and inboxes is the expensive part of a networked
/// run; a `Session` pays it once. Instances are started with
/// [`start_instance_recycled`](Session::start_instance_recycled) and
/// complete independently; results stream back through
/// [`next_result`](Session::next_result) /
/// [`wait_instance`](Session::wait_instance) /
/// [`wait_decision`](Session::wait_decision). Dropping the session shuts
/// the workers down and joins them.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
///
/// use indulgent_consensus::{AtPlus2, RotatingCoordinator};
/// use indulgent_model::{ProcessId, SystemConfig, Value};
/// use indulgent_runtime::{InstanceSpec, Session};
///
/// let cfg = SystemConfig::majority(5, 2)?;
/// let build = move |i: usize, v: Value| {
///     let id = ProcessId::new(i);
///     AtPlus2::new(cfg, id, v, RotatingCoordinator::new(cfg, id))
/// };
/// let reset = |_i: usize, p: &mut AtPlus2<RotatingCoordinator>, v: Value| p.reset_instance(v);
/// let mut session = Session::with_recycler(cfg, Duration::from_millis(4), build, reset);
/// let spec = InstanceSpec::synchronous(cfg);
/// // Two back-to-back instances on the same threads: the second resets
/// // the automatons the first one retired.
/// for proposals in [[6u64, 2, 8, 4, 7], [9, 9, 1, 9, 9]] {
///     let instance = session.start_instance_recycled(&proposals.map(Value::new), &spec);
///     let report = session.wait_instance(instance);
///     assert!(report.decisions.iter().all(Option::is_some));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Session<P: RoundProcess> {
    config: SystemConfig,
    /// One per worker; instance `i` runs on worker `i % inboxes.len()`.
    inboxes: Vec<Arc<WorkerInbox<P>>>,
    results_rx: Receiver<WorkerEvent>,
    handles: Vec<std::thread::JoinHandle<()>>,
    next_instance: u64,
    /// Results received but not yet consumed, grouped by instance.
    collected: HashMap<u64, Vec<ReplicaResult>>,
}

impl<P> Session<P>
where
    P: RoundProcess + Send + 'static,
    P::Msg: Send + 'static,
{
    /// Spawns the session's `W = min(n, available_parallelism)` worker
    /// threads; instance `i` runs all its replicas on worker `i % W`.
    /// Each worker keeps one pool per replica index of the automatons
    /// its retired instances leave, and resets one in place for that
    /// replica of its next instance (`reset` receives the replica index,
    /// the pooled automaton and the new proposal) instead of dropping
    /// per-instance allocations on the floor; `build` covers an empty
    /// pool. `grace` is how long a round
    /// waits for stragglers once the `n - t` quorum of current-round
    /// messages has arrived; a message that misses the window is
    /// suspected for that round.
    #[must_use]
    pub fn with_recycler<B, R>(config: SystemConfig, grace: Duration, build: B, reset: R) -> Self
    where
        B: Fn(usize, Value) -> P + Send + Sync + 'static,
        R: Fn(usize, &mut P, Value) + Send + Sync + 'static,
    {
        let n = config.n();
        let workers = std::thread::available_parallelism().map_or(n, usize::from).min(n);
        let inboxes: Vec<Arc<WorkerInbox<P>>> =
            (0..workers).map(|_| Arc::new(Inbox::new())).collect();
        let recycler = Arc::new(Recycler { build: Box::new(build), reset: Box::new(reset) });
        let (results_tx, results_rx) = channel();
        let handles = inboxes
            .iter()
            .map(|inbox| {
                let ctx = WorkerCtx {
                    inbox: Arc::clone(inbox),
                    results_tx: results_tx.clone(),
                    grace,
                    quorum: config.quorum(),
                    n,
                    recycler: Arc::clone(&recycler),
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
        }
    }

    /// The session's system configuration.
    #[must_use]
    pub fn config(&self) -> SystemConfig {
        self.config
    }

    /// Starts the next consensus instance from one proposal per replica
    /// plus the instance's crash/delay/budget spec. Instance `i` goes to
    /// worker `i % W`, all `n` jobs in one locked batch; for each replica
    /// the worker resets an automaton from that replica index's pool
    /// through the session's reset hook, or builds one on an empty pool.
    /// Returns the instance id (monotonic from 1). The call never blocks;
    /// any number of instances may be in flight concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `proposals.len() != n` or `spec.crashes.len() != n`.
    pub fn start_instance_recycled(&mut self, proposals: &[Value], spec: &InstanceSpec) -> u64 {
        assert_eq!(proposals.len(), self.config.n(), "one proposal per replica required");
        assert_eq!(spec.crashes.len(), self.config.n(), "one crash slot per replica required");
        session_metrics().instances_started.incr();
        let instance = self.next_instance;
        self.next_instance += 1;
        let now = Instant::now();
        let inbox = &self.inboxes[(instance % self.inboxes.len() as u64) as usize];
        inbox.push_all(proposals.iter().zip(&spec.crashes).enumerate().map(
            |(i, (&proposal, &crash_round))| {
                let job = Job {
                    replica: ProcessId::new(i),
                    proposal,
                    crash_round,
                    delays: spec.delays,
                    max_rounds: spec.max_rounds,
                };
                (now, Item::Job(instance, job))
            },
        ));
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
    inbox: Arc<WorkerInbox<P>>,
    results_tx: Sender<WorkerEvent>,
    grace: Duration,
    quorum: usize,
    n: usize,
    recycler: Arc<Recycler<P>>,
}

/// One instance in flight on a worker: all `n` of its replicas.
struct Instance<P: RoundProcess> {
    id: u64,
    delays: DelayModel,
    max_rounds: u32,
    /// Replica `r` at index `r`.
    replicas: Vec<Replica<P>>,
    /// Replicas that have reported: decided, crashed or out of rounds.
    finished: usize,
}

/// One replica's protocol state in one instance: a small state machine
/// advanced opportunistically by the event loop.
struct Replica<P: RoundProcess> {
    process: P,
    crash_round: Option<Round>,
    /// Round currently executing.
    round: u32,
    /// Whether this round's send phase has run.
    sent: bool,
    /// When the `n - t` quorum for the current round was first observed;
    /// `None` outside a round's grace wait.
    quorum_at: Option<Instant>,
    decision: Option<Decision>,
    /// Stopped participating (crashed or budget exhausted).
    halted: bool,
    last_round: u32,
    /// Arrived messages, keyed by the round they were sent in.
    mailbox: BTreeMap<u32, Vec<DeliveredMsg<P::Msg>>>,
}

impl<P: RoundProcess> Replica<P> {
    /// The replica of `job` at round 1, on an automaton reset from `pool`,
    /// or built if the pool is empty.
    fn start(job: Job, recycler: &Recycler<P>, pool: &mut Vec<P>) -> Self {
        let replica = job.replica.index();
        let process = match pool.pop() {
            Some(mut p) => {
                (recycler.reset)(replica, &mut p, job.proposal);
                p
            }
            None => (recycler.build)(replica, job.proposal),
        };
        Replica {
            process,
            crash_round: job.crash_round,
            round: 1,
            sent: false,
            quorum_at: None,
            decision: None,
            halted: false,
            last_round: 0,
            mailbox: BTreeMap::new(),
        }
    }

    fn receive(&mut self, msg: DeliveredMsg<P::Msg>) {
        self.mailbox.entry(msg.sent_round.get()).or_default().push(msg);
    }
}

impl<P: RoundProcess> Instance<P> {
    /// Sends replica `r`'s result to the session owner and counts the
    /// replica as finished. Called once per replica: when it first
    /// decides, or when it halts undecided.
    fn report(&mut self, r: usize, results_tx: &Sender<WorkerEvent>) {
        self.finished += 1;
        let replica = &self.replicas[r];
        let _ = results_tx.send(WorkerEvent::Result(ReplicaResult {
            instance: self.id,
            replica: ProcessId::new(r),
            decision: replica.decision,
            last_round: replica.last_round,
        }));
    }
}

fn worker<P: RoundProcess>(ctx: WorkerCtx<P>) {
    // If anything below panics, tell the session owner on unwind so its
    // blocking waits fail loudly instead of hanging. The loop keeps the
    // sentinel pointed at the replica it is stepping.
    let mut sentinel =
        PanicSentinel { replica: ProcessId::new(0), events_tx: ctx.results_tx.clone() };
    // Instances in flight, in job order.
    let mut active: Vec<Instance<P>> = Vec::new();
    // Retired automatons awaiting reuse, one pool per replica index.
    let mut pools: Vec<Vec<P>> = (0..ctx.n).map(|_| Vec::new()).collect();
    // Messages a pass delayed, pushed onto this worker's inbox once per
    // pass.
    let mut delayed = Vec::new();
    let mut due = Vec::new();

    loop {
        // Sleep until an item falls due or a round's grace runs out.
        let grace_ends = active
            .iter()
            .flat_map(|inst| &inst.replicas)
            .filter_map(|r| r.quorum_at)
            .min()
            .map(|at| at + ctx.grace);
        ctx.inbox.pop_until(grace_ends, &mut due);
        for item in due.drain(..) {
            match item {
                Item::Job(id, job) => {
                    // An instance's jobs arrive together, in replica order.
                    sentinel.replica = job.replica;
                    if active.last().is_none_or(|inst| inst.id != id) {
                        active.push(Instance {
                            id,
                            delays: job.delays,
                            max_rounds: job.max_rounds,
                            replicas: Vec::with_capacity(ctx.n),
                            finished: 0,
                        });
                    }
                    let pool = &mut pools[job.replica.index()];
                    let inst = active.last_mut().expect("pushed above");
                    inst.replicas.push(Replica::start(job, &ctx.recycler, pool));
                }
                Item::Message(id, Envelope { to, msg }) => {
                    // A straggler of a retired instance is dropped.
                    if let Some(inst) = active.iter_mut().find(|inst| inst.id == id) {
                        inst.replicas[to.index()].receive(msg);
                    }
                }
                Item::Shutdown => return,
            }
        }

        for inst in &mut active {
            advance_instance(&ctx, inst, &mut sentinel, &mut delayed);
        }
        if !delayed.is_empty() {
            ctx.inbox.push_all(delayed.drain(..));
        }

        // Retire the instances every replica has finished, pooling their
        // automatons.
        active.retain_mut(|inst| {
            if inst.finished < ctx.n {
                return true;
            }
            for (pool, replica) in pools.iter_mut().zip(inst.replicas.drain(..)) {
                pool.push(replica.process);
            }
            false
        });
    }
}

/// Runs every replica of `inst` forward, pass after pass while a pass
/// delivers to another replica: that message may complete the round of a
/// replica visited earlier in the pass. Delayed messages go into
/// `delayed`.
fn advance_instance<P: RoundProcess>(
    ctx: &WorkerCtx<P>,
    inst: &mut Instance<P>,
    sentinel: &mut PanicSentinel,
    delayed: &mut Vec<(Instant, WorkerItem<P>)>,
) {
    loop {
        let mut delivered = false;
        for r in 0..ctx.n {
            sentinel.replica = ProcessId::new(r);
            delivered |= advance_replica(ctx, inst, r, delayed);
        }
        if !delivered {
            return;
        }
    }
}

/// Runs replica `me` of `inst` forward: send if due, deliver every round
/// whose quorum-plus-grace condition is met, repeat until the replica
/// blocks on the network (or halts). Zero-delay messages go straight into
/// their target's mailbox, delayed ones into `delayed`. Returns whether a
/// message went straight to a replica other than the sender.
fn advance_replica<P: RoundProcess>(
    ctx: &WorkerCtx<P>,
    inst: &mut Instance<P>,
    me: usize,
    delayed: &mut Vec<(Instant, WorkerItem<P>)>,
) -> bool {
    let sender = ProcessId::new(me);
    let mut delivered = false;
    while !inst.replicas[me].halted {
        let replica = &mut inst.replicas[me];
        let k = replica.round;
        if !replica.sent {
            // Logical crash: silent in this instance from the crash round
            // on (the simulator's `crash_before_send`).
            if replica.crash_round.is_some_and(|c| k >= c.get()) || k > inst.max_rounds {
                replica.halted = true;
                if replica.decision.is_none() {
                    inst.report(me, &ctx.results_tx);
                }
                break;
            }
            // The stop rule (module docs): no relay once every replica
            // has finished; the retire pass then takes the instance.
            if replica.decision.is_some() {
                if inst.finished == ctx.n {
                    break;
                }
                session_metrics().relays.incr();
            }
            let round = Round::new(k);
            let msg = replica.process.send(round);
            replica.sent = true;
            let now = Instant::now();
            for (j, receiver) in inst.replicas.iter_mut().enumerate() {
                let to = ProcessId::new(j);
                let delay =
                    if j == me { Duration::ZERO } else { inst.delays.delay_for(round, sender, to) };
                let msg = DeliveredMsg { sender, sent_round: round, msg: msg.clone() };
                if delay.is_zero() {
                    receiver.receive(msg);
                    delivered |= j != me;
                } else {
                    delayed.push((now + delay, Item::Message(inst.id, Envelope { to, msg })));
                }
            }
        }

        // Receive phase: the round completes once all `n` current-round
        // messages arrived, or the `n - t` quorum plus the grace window.
        let replica = &mut inst.replicas[me];
        let current = replica.mailbox.get(&k).map_or(0, Vec::len);
        let ready = if current >= ctx.n {
            true
        } else if current >= ctx.quorum {
            let entered = *replica.quorum_at.get_or_insert_with(Instant::now);
            entered.elapsed() >= ctx.grace
        } else {
            false
        };
        if !ready {
            break;
        }

        // Deliver everything sent in rounds <= k that has arrived.
        let round = Round::new(k);
        let ready_rounds: Vec<u32> = replica.mailbox.range(..=k).map(|(&r, _)| r).collect();
        let mut batch: Vec<DeliveredMsg<P::Msg>> = Vec::new();
        for r in ready_rounds {
            batch.extend(replica.mailbox.remove(&r).unwrap_or_default());
        }
        batch.sort_by_key(|m| (m.sent_round, m.sender));
        let delivery = Delivery::new(round, batch);
        let step = replica.process.deliver(round, &delivery);
        replica.last_round = k;
        replica.round += 1;
        replica.sent = false;
        replica.quorum_at = None;
        if let Step::Decide(value) = step {
            if replica.decision.is_none() {
                replica.decision = Some(Decision { process: sender, round, value });
                inst.report(me, &ctx.results_tx);
            }
        }
    }
    delivered
}

/// Runs `factory`-built automatons over real threads and channels: a
/// fresh [`Session`] with straggler window `grace`, one instance under
/// `spec`, joined on completion. The session's reset hook rebuilds an
/// automaton from `factory`, so automatons without an instance reset of
/// their own run here too.
///
/// Every process broadcasts one message per round (including to itself,
/// instantly), waits for the `n - t` quorum of current-round messages plus
/// the grace window, and hands its automaton everything that arrived.
/// A process that has decided relays its decision in each later round
/// only while some process has not finished; once every process has
/// decided, crashed or run out of rounds, no one sends again (the stop
/// rule of the module docs).
///
/// # Panics
///
/// Panics if `proposals.len()` or `spec.crashes.len()` differs from
/// `config.n()`, or if a worker thread panics.
pub fn run_network<F>(
    config: SystemConfig,
    factory: F,
    proposals: &[Value],
    grace: Duration,
    spec: &InstanceSpec,
) -> NetReport
where
    F: ProcessFactory + Send + Sync + 'static,
    F::Process: Send + 'static,
    <F::Process as RoundProcess>::Msg: Send + 'static,
{
    let start = Instant::now();
    let factory = Arc::new(factory);
    let rebuild = Arc::clone(&factory);
    let mut session = Session::with_recycler(
        config,
        grace,
        move |i, v| factory.build(i, v),
        move |i, p, v| *p = rebuild.build(i, v),
    );
    let instance = session.start_instance_recycled(proposals, spec);
    let report = session.wait_instance(instance);

    let crashed: ProcessSet =
        config.processes().filter(|p| spec.crashes[p.index()].is_some()).collect();
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    use indulgent_consensus::{AtPlus2, CoordinatorEcho, RotatingCoordinator};

    use super::*;

    const GRACE: Duration = Duration::from_millis(4);

    fn cfg() -> SystemConfig {
        SystemConfig::majority(5, 2).unwrap()
    }

    fn at_factory(
        config: SystemConfig,
    ) -> impl Fn(usize, Value) -> AtPlus2<RotatingCoordinator> + Send + Sync + 'static {
        move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
        }
    }

    fn at_reset(_i: usize, p: &mut AtPlus2<RotatingCoordinator>, v: Value) {
        p.reset_instance(v);
    }

    fn at_session(config: SystemConfig) -> Session<AtPlus2<RotatingCoordinator>> {
        Session::with_recycler(config, GRACE, at_factory(config), at_reset)
    }

    fn vals(vs: &[u64]) -> Vec<Value> {
        vs.iter().copied().map(Value::new).collect()
    }

    #[test]
    fn synchronous_network_decides_at_t_plus_2() {
        let config = cfg();
        let spec = InstanceSpec::synchronous(config);
        let report = run_network(config, at_factory(config), &vals(&[6, 2, 8, 4, 7]), GRACE, &spec);
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
        let spec = InstanceSpec::synchronous(config).crash(ProcessId::new(1), Round::new(2));
        let report = run_network(config, at_factory(config), &vals(&[6, 2, 8, 4, 7]), GRACE, &spec);
        report.outcome.check_consensus().unwrap();
        assert!(report.outcome.crashed.contains(ProcessId::new(1)));
        assert!(report.outcome.decision_of(ProcessId::new(1)).is_none());
    }

    #[test]
    fn asynchronous_prefix_still_terminates_consistently() {
        let config = cfg();
        let spec = InstanceSpec::synchronous(config).with_delays(DelayModel::AsyncUntil {
            until_round: 5,
            delay: Duration::from_millis(40),
            probability: 0.3,
            seed: 7,
        });
        let report = run_network(config, at_factory(config), &vals(&[6, 2, 8, 4, 7]), GRACE, &spec);
        report.outcome.check_consensus().unwrap();
    }

    #[test]
    fn coordinator_echo_runs_on_the_network() {
        let config = cfg();
        let factory = move |i: usize, v: Value| CoordinatorEcho::new(config, ProcessId::new(i), v);
        let spec = InstanceSpec::synchronous(config);
        let report = run_network(config, factory, &vals(&[6, 2, 8, 4, 7]), GRACE, &spec);
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
        let mut session = Session::with_recycler(config, GRACE, build, at_reset);
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
    fn recycling_builds_only_to_fill_the_pools() {
        // 200 instances, 4 in flight: once the pools are warm every start
        // goes through `reset`, so `build` runs a number of times that
        // does not depend on the instance count.
        const INSTANCES: usize = 200;
        const WINDOW: usize = 4;
        let config = cfg();
        let builds = Arc::new(AtomicUsize::new(0));
        let resets = Arc::new(AtomicUsize::new(0));
        let (b, r) = (Arc::clone(&builds), Arc::clone(&resets));
        let factory = at_factory(config);
        let mut session = Session::with_recycler(
            config,
            GRACE,
            move |i, v| {
                b.fetch_add(1, Ordering::Relaxed);
                factory(i, v)
            },
            move |i, p, v| {
                r.fetch_add(1, Ordering::Relaxed);
                at_reset(i, p, v);
            },
        );
        let spec = InstanceSpec::synchronous(config);
        let mut window = std::collections::VecDeque::new();
        for i in 0..INSTANCES as u64 {
            if window.len() == WINDOW {
                session.wait_instance(window.pop_front().expect("full window"));
            }
            window.push_back(session.start_instance_recycled(&[Value::new(i); 5], &spec));
        }
        for id in window {
            session.wait_instance(id);
        }
        let (builds, resets) = (builds.load(Ordering::Relaxed), resets.load(Ordering::Relaxed));
        assert!(builds <= config.n() * 2 * WINDOW, "{builds} builds for {INSTANCES} instances");
        assert_eq!(resets, INSTANCES * config.n() - builds, "every other start resets");
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
        let spec = InstanceSpec::synchronous(config);
        let report = run_network(config, at_factory(config), &vals(&[1, 1, 1, 1, 1]), GRACE, &spec);
        assert!(report.elapsed > Duration::ZERO);
    }

    #[test]
    fn session_reuses_threads_across_instances() {
        let config = cfg();
        let mut session = at_session(config);
        let spec = InstanceSpec::synchronous(config);
        for (expected, proposals) in
            [(2u64, [6u64, 2, 8, 4, 7]), (1, [9, 9, 1, 9, 9]), (3, [3, 5, 7, 9, 11])]
        {
            let instance = session.start_instance_recycled(&vals(&proposals), &spec);
            let report = session.wait_instance(instance);
            for d in report.decisions.iter() {
                assert_eq!(d.expect("decided").value, Value::new(expected));
            }
        }
    }

    #[test]
    fn pipelined_instances_complete_concurrently() {
        let config = cfg();
        let mut session = at_session(config);
        let spec = InstanceSpec::synchronous(config);
        let mut ids = Vec::new();
        for base in 0..4u64 {
            let proposals: Vec<Value> = (0..5).map(|i| Value::new(base * 10 + i)).collect();
            ids.push(session.start_instance_recycled(&proposals, &spec));
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
        let mut session = at_session(config);
        let spec = InstanceSpec::synchronous(config);
        assert!(session.try_next_result().is_none(), "nothing in flight yet");
        let instance = session.start_instance_recycled(&vals(&[1, 2, 3, 4, 5]), &spec);
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
        let build = |i: usize, _v: Value| Bomb(ProcessId::new(i));
        let mut session = Session::with_recycler(config, GRACE, build, |_i, _p, _v| {});
        let spec = InstanceSpec::synchronous(config).with_max_rounds(5);
        let instance = session.start_instance_recycled(&vals(&[1, 1, 1, 1, 1]), &spec);
        let _ = session.wait_instance(instance);
    }

    #[test]
    fn an_instance_runs_all_its_replicas_on_one_worker() {
        // An automaton that records the thread each of its sends runs on.
        #[derive(Debug, Clone)]
        struct ThreadProbe(Arc<Mutex<Vec<std::thread::ThreadId>>>);
        impl RoundProcess for ThreadProbe {
            type Msg = ();
            fn send(&mut self, _round: Round) {
                self.0.lock().expect("probe log").push(std::thread::current().id());
            }
            fn deliver(&mut self, _round: Round, _delivery: &Delivery<()>) -> Step {
                Step::Continue
            }
        }
        let config = cfg();
        let sends = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&sends);
        let build = move |_i: usize, _v: Value| ThreadProbe(Arc::clone(&log));
        let mut session = Session::with_recycler(config, GRACE, build, |_i, _p, _v| {});
        let spec = InstanceSpec::synchronous(config).with_max_rounds(2);
        let mut threads = Vec::new();
        for _ in 0..2 {
            let instance = session.start_instance_recycled(&vals(&[1, 1, 1, 1, 1]), &spec);
            session.wait_instance(instance);
            let sent = std::mem::take(&mut *sends.lock().expect("probe log"));
            assert_eq!(sent.len(), 2 * config.n(), "every replica sends in rounds 1 and 2");
            assert!(
                sent.iter().all(|&t| t == sent[0]),
                "instance {instance} sent from several threads: {sent:?}"
            );
            threads.push(sent[0]);
        }
        if std::thread::available_parallelism().map_or(1, usize::from) >= 2 {
            assert_ne!(threads[0], threads[1], "consecutive instances run on different workers");
        }
    }

    #[test]
    fn per_instance_crashes_are_isolated() {
        // The same replica crashes in instance 1 but participates fully in
        // instance 2 — crash scope is the instance, not the session.
        let config = cfg();
        let mut session = at_session(config);
        let proposals = vals(&[6, 2, 8, 4, 7]);
        let crashing = InstanceSpec::synchronous(config).crash(ProcessId::new(1), Round::new(2));
        let first = session.start_instance_recycled(&proposals, &crashing);
        let clean = InstanceSpec::synchronous(config);
        let second = session.start_instance_recycled(&proposals, &clean);

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
    fn a_job_push_cuts_a_timed_park_short() {
        let inbox: Inbox<(), ()> = Inbox::new();
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut out = Vec::new();
                inbox.pop_until(Some(Instant::now() + Duration::from_secs(10)), &mut out);
                (out.len(), Instant::now())
            });
            wait_parked(&inbox);
            let pushed = Instant::now();
            inbox.push(pushed, Item::Job(1, ()));
            let (popped, returned) = receiver.join().expect("receiver thread");
            assert_eq!(popped, 1, "the job, not the 10 s limit, ends the wait");
            assert!(
                returned - pushed < Duration::from_millis(100),
                "returned {:?} after the job was pushed",
                returned - pushed
            );
        });
    }

    #[test]
    fn pipelined_delayed_instances_lose_no_wake_up() {
        // 2 000 instances, 4 in flight, every link 500 µs: a lost wake-up
        // leaves a wait blocked forever, so the run happens on its own
        // thread and the test waits for it with a deadline.
        let (done_tx, done_rx) = channel();
        std::thread::spawn(move || {
            let config = cfg();
            let build = move |i: usize, v: Value| {
                let id = ProcessId::new(i);
                AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
                    .with_failure_free_optimization()
            };
            let mut session = Session::with_recycler(config, GRACE, build, at_reset);
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
        let mut session = at_session(config);
        let spec = InstanceSpec::synchronous(config)
            .with_delays(DelayModel::Uniform { delay: Duration::from_secs(10) });
        for _ in 0..3 {
            session.start_instance_recycled(&[Value::new(7); 5], &spec);
        }
        // Every replica has taken its three jobs once the worker inboxes
        // together hold each replica's round-1 messages to its peers, all
        // due 10 s from now.
        let pending = 3 * config.n() * (config.n() - 1);
        while session.inboxes.iter().map(|inbox| inbox.lock().queue.len()).sum::<usize>() < pending
        {
            std::thread::yield_now();
        }
        let start = Instant::now();
        drop(session);
        assert!(start.elapsed() < Duration::from_millis(50), "drop took {:?}", start.elapsed());
    }
}
