//! Wall-clock message-passing runtime: consensus instances stepped on
//! the caller's thread.
//!
//! The paper's model is abstract; this crate times it by the wall clock.
//! Every process is a replica whose messages travel under an injectable
//! delay model, and a round ends the way it does in an eventually
//! synchronous system: once a quorum of `n - t` current-round messages
//! has arrived (the model's t-resilience), plus a grace period for
//! stragglers. A message that misses its round's grace window is
//! *suspected* exactly as in ES: it still arrives later (reliable
//! channels), tagged with the round it was sent in.
//!
//! The same [`RoundProcess`] automatons that run under the deterministic
//! simulator run here unchanged. This is a *model* of a network, not a
//! distributed system: the replicas are in-process automata stepped on
//! one thread, the caller's, and the delay model and the clock decide
//! which messages make a round's grace window. The adversary is the
//! simulator's: every instance replays an [`indulgent_sim::Schedule`]
//! ([`InstanceSpec::schedule`]), whose crashes and message fates it
//! applies by round, not by the clock. Over [`DelayModel::Instant`] links
//! a replica then receives in each round exactly what the simulator
//! delivers under the same schedule, so any schedule the simulator or the
//! checker explores can be replayed live.
//!
//! # Sessions
//!
//! A [`Session`] spawns no thread. [`Session::start_instance_recycled`]
//! registers an instance, and the result calls *pump* the session on the
//! caller's thread. A pump reads the clock once, moves every due delayed
//! message into its mailbox, advances every replica of every instance in
//! flight as far as it can go, and retires the instances whose replicas
//! have all finished. When a pump leaves no result ready, the call sleeps
//! until the next deadline: the next due delayed message or the earliest
//! `quorum_at + grace` at an instance's lowest round (the lowest-round
//! rule below). There is no poll interval, and over instant links
//! an instance runs from its start to its last result in one pump. The
//! `runtime_session` metric family counts these sleeps as
//! `caller_sleeps`. An event loop that waits on more than a session, such
//! as the `indulgent-server` engine, pumps with
//! [`Session::try_next_result`] and times its own sleep from
//! [`Session::next_deadline`]; its sleeps are not counted.
//!
//! A retired instance keeps its replicas (automatons, mailboxes, vectors)
//! for a later start, which resets each automaton in place through the
//! session's `reset` hook ([`Session::with_recycler`]). Messages wait in
//! one [`RingMailbox`] per replica and reach the automaton through one
//! pooled [`Delivery`], so a warm instance over instant links allocates
//! nothing. [`run_network`] runs one instance on a fresh session.
//!
//! # Messages and rounds
//!
//! Each message meets its fate in the schedule when it is sent: a `Lose`
//! message is dropped, a `Deliver` message arrives in the round it was
//! sent in, and a `Delay(k')` message in round `k'`. A mailbox keys a
//! message by that arrival round, or by the receiver's current round if
//! that has passed, so a late message joins the next receive phase. Over
//! zero-delay links a message goes straight into its target's mailbox;
//! over delayed ones it waits on the session's delay line, a min-heap by
//! due instant (`d` after the pump that sent it). A retiring instance
//! drops its messages still on the line: no replica needs them. The
//! automaton gets its messages in (sent round, sender) order, as under
//! the simulator.
//!
//! A round ends once all `n` current-round messages have arrived, or once
//! the `n - t` quorum has and the grace period has run out since, provided
//! every live replica of the instance has sent that round (the
//! *lowest-round rule*). Without the rule, a replica held back by a late
//! message could send its next round only after its peers' grace ran out
//! in the same pump, and they would suspect it where the simulator
//! delivers its message.
//!
//! A replica that has decided keeps relaying its decision, one broadcast
//! per round, for peers that have not decided yet. The *stop rule* ends
//! that: once all `n` replicas have finished (decided, crashed or out of
//! rounds), no one sends and the instance retires in the same pump. The
//! rule is all-or-nothing on purpose: a decider that skipped only its
//! finished peers would never complete its round, so it would never send
//! the next relay that a replica still undecided may need for its quorum.
//! A replica that has just decided lets its peers take their turn in the
//! pump first, so when all decide in the same round no one relays. The
//! `runtime_session.relays` counter counts the relays sent.
//!
//! # Crash semantics
//!
//! Crashes are *logical*: a replica crashed at round `r` of an instance
//! takes part in its rounds `< r`, sends its round-`r` message according
//! to the schedule's fates, and then halts; under the simulator's
//! `crash_before_send` every copy is lost, so it is silent from `r` on. A
//! permanent crash is that plus round 1 of every later instance. Crash
//! points fixed by round, not by the clock, keep log executions
//! comparable to the simulator's at any pipeline depth (the
//! `indulgent-log` differential tests).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

use indulgent_model::{
    Decision, DeliveredMsg, Delivery, ProcessFactory, ProcessId, RingMailbox, Round, RoundProcess,
    RunOutcome, Step, SystemConfig, Value,
};
use indulgent_sim::{MessageFate, ModelKind, Schedule};

/// The `runtime_session` metric family, summed over this process's
/// sessions: instances and results (how much consensus traffic flowed),
/// the result calls' sleeps, and `relays`, the broadcasts of replicas
/// that had already decided (the stop rule in the module docs bounds
/// them).
#[derive(Debug)]
struct SessionMetrics {
    instances_started: indulgent_obs::Counter,
    results_delivered: indulgent_obs::Counter,
    decisions_delivered: indulgent_obs::Counter,
    caller_sleeps: indulgent_obs::Counter,
    relays: indulgent_obs::Counter,
}

static SESSION_METRICS: SessionMetrics = SessionMetrics {
    instances_started: indulgent_obs::Counter::new(),
    results_delivered: indulgent_obs::Counter::new(),
    decisions_delivered: indulgent_obs::Counter::new(),
    caller_sleeps: indulgent_obs::Counter::new(),
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
        sink.counter("caller_sleeps", self.caller_sleeps.get());
        sink.counter("relays", self.relays.get());
    }
}

static REGISTER_SESSION_METRICS: std::sync::Once = std::sync::Once::new();

fn session_metrics() -> &'static SessionMetrics {
    REGISTER_SESSION_METRICS.call_once(|| indulgent_obs::register_family(&SESSION_METRICS));
    &SESSION_METRICS
}

/// Tallies one result on its way out of the session's result calls.
fn note_result(r: ReplicaResult) -> ReplicaResult {
    let metrics = session_metrics();
    metrics.results_delivered.incr();
    metrics.decisions_delivered.add(u64::from(r.decision.is_some()));
    r
}

/// A delayed message on the delay line: due at `due` for replica `to` of
/// instance `instance`, in round `arrival`.
struct Pending<M> {
    due: Instant,
    instance: u64,
    to: usize,
    arrival: Round,
    msg: DeliveredMsg<M>,
}

// Reversed, so the max-heap `BinaryHeap` pops the earliest due message
// first.
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due)
    }
}

impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}

impl<M> Eq for Pending<M> {}

/// Pops the earliest message of the delay line if it is due at `now`.
fn pop_due<M>(line: &mut BinaryHeap<Pending<M>>, now: Instant) -> Option<Pending<M>> {
    line.peek_mut().filter(|p| p.due <= now).map(PeekMut::pop)
}

/// The wall-clock latency of the links between distinct replicas. Which
/// round a message arrives in is the schedule's business
/// ([`InstanceSpec::schedule`]), not the link's.
#[derive(Debug, Clone, Copy)]
pub enum DelayModel {
    /// Deliver instantly (a synchronous network).
    Instant,
    /// Every message between distinct processes takes `delay` to arrive.
    /// Rounds become latency-bound (nobody is suspected: all messages
    /// arrive together), the regime where pipelining instances pays.
    Uniform {
        /// One-way latency applied to every non-self message.
        delay: Duration,
    },
}

impl DelayModel {
    fn latency(self) -> Duration {
        match self {
            DelayModel::Instant => Duration::ZERO,
            DelayModel::Uniform { delay } => delay,
        }
    }
}

/// Per-instance parameters handed to [`Session::start_instance_recycled`].
#[derive(Debug, Clone)]
pub struct InstanceSpec {
    /// The adversary this instance replays: crash rounds and message
    /// fates, applied by round (module docs).
    pub schedule: Schedule,
    /// The latency of this instance's links.
    pub delays: DelayModel,
    /// Hard bound on rounds executed per replica; a replica reaching it
    /// undecided reports `None`.
    pub max_rounds: u32,
}

impl InstanceSpec {
    /// A synchronous, failure-free instance for `config`.
    #[must_use]
    pub fn synchronous(config: SystemConfig) -> Self {
        InstanceSpec::replaying(Schedule::failure_free(config, ModelKind::Es))
    }

    /// An instance replaying `schedule` over instant links.
    #[must_use]
    pub fn replaying(schedule: Schedule) -> Self {
        InstanceSpec { schedule, delays: DelayModel::Instant, max_rounds: 200 }
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

/// One replica's terminal report for one instance: its first decision
/// (`None` if it crashed or ran out of rounds undecided) and the last
/// round it executed.
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

/// A session's reset hook: `(replica index, retired automaton, next
/// proposal)`.
type ResetFn<P> = Box<dyn Fn(usize, &mut P, Value)>;

/// A reusable home for any number of (possibly concurrent) consensus
/// instances of `n` replicas, stepped on the caller's thread by the
/// result calls (module docs). A start reuses the replicas of a retired
/// instance, so a warm session allocates nothing per instance over
/// instant links.
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
/// // Two back-to-back instances: the second resets the automatons the
/// // first one retired.
/// for proposals in [[6u64, 2, 8, 4, 7], [9, 9, 1, 9, 9]] {
///     let instance = session.start_instance_recycled(&proposals.map(Value::new), &spec);
///     let report = session.wait_instance(instance);
///     assert!(report.decisions.iter().all(Option::is_some));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Session<P: RoundProcess> {
    config: SystemConfig,
    grace: Duration,
    /// `(replica index, proposal)` to a new automaton.
    build: Box<dyn Fn(usize, Value) -> P>,
    reset: ResetFn<P>,
    next_instance: u64,
    /// Instances in flight, in start order.
    active: Vec<Instance<P>>,
    /// Retired instances, whose replicas the next starts reuse.
    retired: Vec<Instance<P>>,
    /// Delayed messages, earliest due first.
    delay_line: BinaryHeap<Pending<P::Msg>>,
    /// The one delivery every receive phase is rebuilt in.
    delivery: Delivery<P::Msg>,
    /// Results produced by pumps and not yet returned.
    ready: VecDeque<ReplicaResult>,
    /// Results taken by `wait_decision`/`wait_instance` for an instance
    /// other than the one waited for, grouped by instance.
    collected: HashMap<u64, Vec<ReplicaResult>>,
}

impl<P: RoundProcess> fmt::Debug for Session<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let in_flight = self.active.len();
        f.debug_struct("Session").field("in_flight", &in_flight).finish_non_exhaustive()
    }
}

impl<P: RoundProcess> Session<P> {
    /// A session whose starts reset retired automatons in place through
    /// `reset(replica index, automaton, proposal)`, and `build` one when
    /// none is retired. `grace` is how long a round waits for stragglers
    /// once the `n - t` quorum of current-round messages has arrived.
    #[must_use]
    pub fn with_recycler<B, R>(config: SystemConfig, grace: Duration, build: B, reset: R) -> Self
    where
        B: Fn(usize, Value) -> P + 'static,
        R: Fn(usize, &mut P, Value) + 'static,
    {
        Session {
            config,
            grace,
            build: Box::new(build),
            reset: Box::new(reset),
            next_instance: 1,
            active: Vec::new(),
            retired: Vec::new(),
            delay_line: BinaryHeap::new(),
            delivery: Delivery::empty(Round::FIRST),
            ready: VecDeque::new(),
            collected: HashMap::new(),
        }
    }

    /// The session's system configuration.
    #[must_use]
    pub fn config(&self) -> SystemConfig {
        self.config
    }

    /// Registers the next instance from one proposal per replica and its
    /// schedule/delay/budget spec, and returns its id (monotonic from 1).
    /// The call steps nothing; the result calls run the instance.
    ///
    /// # Panics
    ///
    /// Panics if `proposals.len() != n` or the schedule is for another
    /// system.
    pub fn start_instance_recycled(&mut self, proposals: &[Value], spec: &InstanceSpec) -> u64 {
        assert_eq!(proposals.len(), self.config.n(), "one proposal per replica required");
        assert_eq!(spec.schedule.config(), self.config, "the schedule is for another system");
        session_metrics().instances_started.incr();
        let id = self.next_instance;
        self.next_instance += 1;
        let inst = match self.retired.pop() {
            Some(mut inst) => {
                for (i, replica) in inst.replicas.iter_mut().enumerate() {
                    (self.reset)(i, &mut replica.process, proposals[i]);
                    replica.restart();
                }
                // Field by field: the crash vector keeps its buffer.
                inst.spec.schedule.clone_from(&spec.schedule);
                (inst.spec.delays, inst.spec.max_rounds) = (spec.delays, spec.max_rounds);
                Instance { id, finished: 0, ..inst }
            }
            None => {
                let build = |i| Replica::new((self.build)(i, proposals[i]));
                let replicas = (0..proposals.len()).map(build).collect();
                Instance { id, spec: spec.clone(), replicas, finished: 0 }
            }
        };
        self.active.push(inst);
        id
    }

    /// Returns the next replica result if one is ready after at most one
    /// pump, without sleeping: the call for an event loop layered over a
    /// session, such as the `indulgent-server` engine.
    ///
    /// # Panics
    ///
    /// Propagates a panic of an automaton or a hook.
    pub fn try_next_result(&mut self) -> Option<ReplicaResult> {
        if self.ready.is_empty() {
            self.pump();
        }
        self.ready.pop_front().map(note_result)
    }

    /// Returns the next replica result of any instance in flight,
    /// pumping, and sleeping to the next deadline in between (module
    /// docs), until one is ready.
    ///
    /// # Panics
    ///
    /// Panics if no result can ever arrive (nothing in flight, or no
    /// instance with a message or a grace period pending), and
    /// propagates a panic of an automaton or a hook.
    pub fn next_result(&mut self) -> ReplicaResult {
        loop {
            if let Some(r) = self.ready.pop_front() {
                return note_result(r);
            }
            self.pump();
            if !self.ready.is_empty() {
                continue;
            }
            let Some(wake) = self.next_deadline() else {
                panic!(
                    "no result can arrive: {} instance(s) in flight, none with a delayed \
                     message or a grace period pending",
                    self.active.len()
                );
            };
            session_metrics().caller_sleeps.incr();
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        }
    }

    /// Blocks until the first *decision* of `instance` is known and
    /// returns it, keeping results of other instances for later waits.
    /// Returns `None` only if all `n` replicas reported without any
    /// deciding (crashes + exhausted budgets).
    ///
    /// # Panics
    ///
    /// As [`next_result`](Session::next_result).
    pub fn wait_decision(&mut self, instance: u64) -> Option<Decision> {
        loop {
            let results = self.collected.entry(instance).or_default();
            if let Some(d) = results.iter().find_map(|r| r.decision) {
                return Some(d);
            }
            if results.len() == self.config.n() {
                return None;
            }
            self.collect_next();
        }
    }

    /// Blocks until all `n` replicas of `instance` have reported and
    /// assembles the instance report, keeping results of other instances
    /// for later waits.
    ///
    /// # Panics
    ///
    /// As [`next_result`](Session::next_result).
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
            self.collect_next();
        }
    }

    /// Keeps the next result for the wait of its instance.
    fn collect_next(&mut self) {
        let r = self.next_result();
        self.collected.entry(r.instance).or_default().push(r);
    }

    /// One pump (module docs): reads the clock once, moves every due
    /// delayed message into its mailbox, advances every instance in
    /// flight and retires the finished ones.
    fn pump(&mut self) {
        let now = Instant::now();
        while let Some(p) = pop_due(&mut self.delay_line, now) {
            let inst = self.active.iter_mut().find(|inst| inst.id == p.instance);
            inst.expect("retiring drops an instance's delayed messages").replicas[p.to]
                .receive(p.arrival, p.msg);
        }
        let mut pump = Pump {
            now,
            grace: self.grace,
            quorum: self.config.quorum(),
            delay_line: &mut self.delay_line,
            delivery: &mut self.delivery,
            ready: &mut self.ready,
        };
        for inst in &mut self.active {
            pump.advance_instance(inst);
        }
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].finished == self.config.n() {
                let inst = self.active.remove(i);
                // Its stragglers (relays nobody needs) would only wake a
                // sleep for nothing.
                self.delay_line.retain(|p| p.instance != inst.id);
                self.retired.push(inst);
            } else {
                i += 1;
            }
        }
    }

    /// When the next pump can make progress that the last one could not:
    /// the next delayed message falls due or a round's grace runs out;
    /// `None` if neither is pending. Only the grace of a replica at its
    /// instance's lowest round counts: the others wait for it (the
    /// lowest-round rule in the module docs). An instance started since
    /// the last pump has sent nothing yet, so it has no deadline: pump
    /// first.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Instant> {
        let grace_ends = self
            .active
            .iter()
            .filter_map(|inst| {
                let lowest = inst.replicas.iter().filter(|r| !r.halted).map(Replica::sent_through);
                let lowest = lowest.min()?;
                inst.replicas.iter().filter(|r| r.round == lowest).filter_map(|r| r.quorum_at).min()
            })
            .min()
            .map(|at| at + self.grace);
        grace_ends.into_iter().chain(self.delay_line.peek().map(|p| p.due)).min()
    }
}

/// One instance in flight: all `n` of its replicas.
struct Instance<P: RoundProcess> {
    id: u64,
    spec: InstanceSpec,
    /// Replica `r` at index `r`.
    replicas: Vec<Replica<P>>,
    /// Replicas that have reported: decided, crashed or out of rounds.
    finished: usize,
}

impl<P: RoundProcess> Instance<P> {
    /// The lowest-round rule (module docs): whether every live replica has
    /// sent round `k`, so that no message of round `k` is still to come.
    fn all_sent(&self, k: u32) -> bool {
        self.replicas.iter().all(|r| r.halted || r.sent_through() >= k)
    }

    /// Queues replica `r`'s result and counts the replica as finished.
    /// Called once per replica: when it first decides, or when it halts
    /// undecided.
    fn report(&mut self, r: usize, ready: &mut VecDeque<ReplicaResult>) {
        self.finished += 1;
        let replica = &self.replicas[r];
        ready.push_back(ReplicaResult {
            instance: self.id,
            replica: ProcessId::new(r),
            decision: replica.decision,
            last_round: replica.last_round,
        });
    }
}

/// One replica's protocol state in one instance: a small state machine
/// advanced opportunistically by the pumps.
struct Replica<P: RoundProcess> {
    process: P,
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
    /// Arrived messages by arrival round (module docs); the ring's due
    /// slot is the current round.
    mailbox: RingMailbox<P::Msg>,
}

impl<P: RoundProcess> Replica<P> {
    fn new(process: P) -> Self {
        Replica {
            process,
            round: 1,
            sent: false,
            quorum_at: None,
            decision: None,
            halted: false,
            last_round: 0,
            mailbox: RingMailbox::new(),
        }
    }

    /// Back to round 1 with an empty mailbox.
    fn restart(&mut self) {
        self.round = 1;
        self.sent = false;
        self.quorum_at = None;
        self.decision = None;
        self.halted = false;
        self.last_round = 0;
        self.mailbox.clear_all();
    }

    /// The last round whose messages this replica has sent.
    fn sent_through(&self) -> u32 {
        self.round - u32::from(!self.sent)
    }

    fn receive(&mut self, arrival: Round, msg: DeliveredMsg<P::Msg>) {
        let offset = arrival.get().saturating_sub(self.round);
        self.mailbox.slot_mut(offset as usize).push(msg);
    }
}

/// What one pump steps the instances with: its clock reading and the
/// session's shared buffers.
struct Pump<'a, M> {
    now: Instant,
    grace: Duration,
    quorum: usize,
    delay_line: &'a mut BinaryHeap<Pending<M>>,
    delivery: &'a mut Delivery<M>,
    ready: &'a mut VecDeque<ReplicaResult>,
}

impl<M: Clone> Pump<'_, M> {
    /// Runs every replica of `inst` forward, pass after pass while a pass
    /// delivers to another replica (that message may complete the round
    /// of a replica visited earlier in the pass) or a replica decides.
    fn advance_instance<P: RoundProcess<Msg = M>>(&mut self, inst: &mut Instance<P>) {
        loop {
            let mut delivered = false;
            for r in 0..inst.replicas.len() {
                delivered |= self.advance_replica(inst, r);
            }
            if !delivered {
                return;
            }
        }
    }

    /// Runs replica `me` of `inst` forward: send if due, deliver every
    /// round whose end condition (module docs) is met, until the replica
    /// blocks on the network or halts. Returns whether another pass may
    /// make progress: a message went straight to another replica, or the
    /// replica has just decided and not yet relayed.
    fn advance_replica<P: RoundProcess<Msg = M>>(
        &mut self,
        inst: &mut Instance<P>,
        me: usize,
    ) -> bool {
        let n = inst.replicas.len();
        let sender = ProcessId::new(me);
        let mut delivered = false;
        while !inst.replicas[me].halted {
            let replica = &mut inst.replicas[me];
            let k = replica.round;
            if !replica.sent {
                let (round, schedule) = (Round::new(k), &inst.spec.schedule);
                if k <= inst.spec.max_rounds {
                    // The stop rule (module docs): no relay once every
                    // replica has finished; the pump then retires the
                    // instance.
                    if replica.decision.is_some() {
                        if inst.finished == n {
                            break;
                        }
                        session_metrics().relays.incr();
                    }
                    let msg = replica.process.send(round);
                    replica.sent = true;
                    let latency = inst.spec.delays.latency();
                    for (j, receiver) in inst.replicas.iter_mut().enumerate() {
                        // A halted replica never receives again.
                        if receiver.halted {
                            continue;
                        }
                        let arrival = match schedule.fate(round, sender, ProcessId::new(j)) {
                            MessageFate::Deliver => round,
                            MessageFate::Delay(arrival) => arrival,
                            MessageFate::Lose => continue,
                        };
                        let msg = DeliveredMsg { sender, sent_round: round, msg: msg.clone() };
                        if j == me || latency.is_zero() {
                            receiver.receive(arrival, msg);
                            delivered |= j != me;
                        } else {
                            let (due, instance) = (self.now + latency, inst.id);
                            self.delay_line.push(Pending { due, instance, to: j, arrival, msg });
                        }
                    }
                }
                // Out of rounds, or a logical crash: the crash round's
                // send, by its fates, is the replica's last act.
                if k > inst.spec.max_rounds || schedule.crash_round(sender) == Some(round) {
                    let replica = &mut inst.replicas[me];
                    replica.halted = true;
                    if replica.decision.is_none() {
                        inst.report(me, self.ready);
                    }
                    break;
                }
            }

            // Receive phase: the round ends once all `n` current-round
            // messages arrived, or on the `n - t` quorum plus the grace
            // window once no live replica is behind (module docs).
            let current = inst.replicas[me].mailbox.due();
            let current = current.iter().filter(|m| m.sent_round.get() == k).count();
            let ready = if current >= n {
                true
            } else if current >= self.quorum {
                let entered = *inst.replicas[me].quorum_at.get_or_insert(self.now);
                self.now.duration_since(entered) >= self.grace && inst.all_sent(k)
            } else {
                false
            };
            if !ready {
                break;
            }

            // Deliver everything due: this round's messages and late ones.
            // Arrival order is wall-clock order; a sender sends once per
            // round, so (sent round, sender) orders them uniquely.
            let replica = &mut inst.replicas[me];
            let round = Round::new(k);
            let due = replica.mailbox.due_mut();
            due.sort_unstable_by_key(|m| (m.sent_round, m.sender));
            self.delivery.reset(round);
            self.delivery.append(due);
            replica.mailbox.advance();
            let step = replica.process.deliver(round, self.delivery);
            replica.last_round = k;
            replica.round += 1;
            replica.sent = false;
            replica.quorum_at = None;
            if let Step::Decide(value) = step {
                if replica.decision.is_none() {
                    replica.decision = Some(Decision { process: sender, round, value });
                    inst.report(me, self.ready);
                    // Let the peers finish this round before relaying: if
                    // they all decide in this pass, the stop rule sends
                    // nothing. Another pass sends the relay otherwise.
                    return true;
                }
            }
        }
        delivered
    }
}

/// Runs one instance of `factory`-built automatons under `spec` on a
/// fresh [`Session`] with straggler window `grace`. The session's reset
/// hook rebuilds from `factory`, so automatons without an instance reset
/// of their own run here too.
///
/// # Panics
///
/// Panics if `proposals.len()` or the schedule's `n` differs from
/// `config.n()`, and propagates a panic of an automaton.
pub fn run_network<F>(
    config: SystemConfig,
    factory: F,
    proposals: &[Value],
    grace: Duration,
    spec: &InstanceSpec,
) -> NetReport
where
    F: ProcessFactory + 'static,
{
    let start = Instant::now();
    let factory = Rc::new(factory);
    let rebuild = Rc::clone(&factory);
    let mut session = Session::with_recycler(
        config,
        grace,
        move |i, v| factory.build(i, v),
        move |i, p, v| *p = rebuild.build(i, v),
    );
    let instance = session.start_instance_recycled(proposals, spec);
    let report = session.wait_instance(instance);

    NetReport {
        outcome: RunOutcome {
            proposals: proposals.to_vec(),
            decisions: report.decisions,
            crashed: spec.schedule.faulty(),
            rounds_executed: report.rounds_executed,
        },
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use indulgent_consensus::{AtPlus2, CoordinatorEcho, RotatingCoordinator};
    use indulgent_sim::{random_run, RandomRunParams, ScheduleBuilder};

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

    /// An instance in which `process` crashes at `round` before sending.
    fn crashing(config: SystemConfig, process: usize, round: u32) -> InstanceSpec {
        let schedule = ScheduleBuilder::new(config, ModelKind::Es)
            .crash_before_send(ProcessId::new(process), Round::new(round))
            .build(round)
            .expect("one crash is within t");
        InstanceSpec::replaying(schedule)
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
            "t + 2 fast decision should carry over to the wall-clock runtime"
        );
        for d in report.outcome.decisions.iter().flatten() {
            assert_eq!(d.value, Value::new(2));
        }
    }

    #[test]
    fn crashed_process_is_tolerated() {
        let config = cfg();
        let spec = crashing(config, 1, 2);
        let report = run_network(config, at_factory(config), &vals(&[6, 2, 8, 4, 7]), GRACE, &spec);
        report.outcome.check_consensus().unwrap();
        assert!(report.outcome.crashed.contains(ProcessId::new(1)));
        assert!(report.outcome.decision_of(ProcessId::new(1)).is_none());
    }

    #[test]
    fn asynchronous_prefix_still_terminates_consistently() {
        let config = cfg();
        let params = RandomRunParams::eventually_synchronous(0, 1, 5);
        let schedule = random_run(config, ModelKind::Es, params, 5, 7);
        assert!(schedule.overrides().next().is_some(), "the prefix delays messages");
        let spec = InstanceSpec::replaying(schedule);
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
        // is a retired one put through the reset hook. Decisions must
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
    fn uniform_delay_applies_to_every_round() {
        // Over 2 ms links a failure-free instance deciding at t + 2 = 4
        // waits one link delay per round.
        let config = cfg();
        let spec = InstanceSpec::synchronous(config)
            .with_delays(DelayModel::Uniform { delay: Duration::from_millis(2) });
        let report = run_network(config, at_factory(config), &vals(&[6, 2, 8, 4, 7]), GRACE, &spec);
        assert_eq!(report.outcome.global_decision_round(), Some(Round::new(4)));
        assert!(report.elapsed >= Duration::from_millis(8), "took {:?}", report.elapsed);
    }

    #[test]
    fn wall_clock_is_reported() {
        let config = cfg();
        let spec = InstanceSpec::synchronous(config);
        let report = run_network(config, at_factory(config), &vals(&[1, 1, 1, 1, 1]), GRACE, &spec);
        assert!(report.elapsed > Duration::ZERO);
    }

    #[test]
    fn one_session_decides_instance_after_instance() {
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
        let spec = InstanceSpec::synchronous(config)
            .with_delays(DelayModel::Uniform { delay: Duration::from_millis(1) });
        assert!(session.try_next_result().is_none(), "nothing in flight yet");
        let instance = session.start_instance_recycled(&vals(&[1, 2, 3, 4, 5]), &spec);
        assert_eq!(session.next_deadline(), None, "an unpumped start has sent nothing yet");
        // Pump, and sleep to the session's own deadline in between, as an
        // event loop layered over the session does, until all n replicas
        // report.
        let mut results = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        while results.len() < config.n() {
            assert!(Instant::now() < deadline, "instance must complete");
            match session.try_next_result() {
                Some(r) => {
                    assert_eq!(r.instance, instance);
                    results.push(r);
                }
                None => {
                    let wake = session.next_deadline().expect("a message is on the delay line");
                    std::thread::sleep(wake.saturating_duration_since(Instant::now()));
                }
            }
        }
        for r in &results {
            assert_eq!(r.decision.expect("decided").value, Value::new(1));
        }
        assert!(session.try_next_result().is_none(), "exactly n results per instance");
        assert_eq!(session.next_deadline(), None, "an idle session has nothing to wait for");
    }

    #[test]
    #[should_panic(expected = "no result can arrive")]
    fn next_result_with_nothing_in_flight_panics_instead_of_hanging() {
        let mut session = at_session(cfg());
        let _ = session.next_result();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn automaton_panic_propagates_to_the_waiting_caller() {
        // An automaton that panics mid-protocol unwinds out of the wait
        // that stepped it, with its own payload.
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
    fn an_instance_runs_all_its_replicas_on_the_callers_thread() {
        // An automaton that records the thread each of its sends runs on.
        // The log is an `Rc`: the session needs no `Send` automaton.
        #[derive(Debug, Clone)]
        struct ThreadProbe(Rc<RefCell<Vec<std::thread::ThreadId>>>);
        impl RoundProcess for ThreadProbe {
            type Msg = ();
            fn send(&mut self, _round: Round) {
                self.0.borrow_mut().push(std::thread::current().id());
            }
            fn deliver(&mut self, _round: Round, _delivery: &Delivery<()>) -> Step {
                Step::Continue
            }
        }
        let config = cfg();
        let sends = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::clone(&sends);
        let build = move |_i: usize, _v: Value| ThreadProbe(Rc::clone(&log));
        let mut session = Session::with_recycler(config, GRACE, build, |_i, _p, _v| {});
        let spec = InstanceSpec::synchronous(config).with_max_rounds(2);
        let caller = std::thread::current().id();
        for _ in 0..2 {
            let instance = session.start_instance_recycled(&vals(&[1, 1, 1, 1, 1]), &spec);
            session.wait_instance(instance);
            let sent = std::mem::take(&mut *sends.borrow_mut());
            assert_eq!(sent.len(), 2 * config.n(), "every replica sends in rounds 1 and 2");
            assert!(
                sent.iter().all(|&t| t == caller),
                "instance {instance} sent off the caller's thread: {sent:?}"
            );
        }
    }

    #[test]
    fn per_instance_crashes_are_isolated() {
        // The same replica crashes in instance 1 but participates fully in
        // instance 2 — crash scope is the instance, not the session.
        let config = cfg();
        let mut session = at_session(config);
        let proposals = vals(&[6, 2, 8, 4, 7]);
        let first = session.start_instance_recycled(&proposals, &crashing(config, 1, 2));
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

    #[test]
    fn delay_line_never_returns_an_item_before_it_is_due() {
        let mut line = BinaryHeap::new();
        let start = Instant::now();
        // Pushed out of due order, 250 µs apart; one is due at once.
        for us in [750u64, 0, 500, 250, 750] {
            let due = start + Duration::from_micros(us);
            let msg = DeliveredMsg { sender: ProcessId::new(0), sent_round: Round::FIRST, msg: () };
            line.push(Pending { due, instance: 1, to: 0, arrival: Round::FIRST, msg });
        }
        let mut seen = Vec::new();
        while let Some(next) = line.peek().map(|p| p.due) {
            let now = Instant::now();
            while let Some(p) = pop_due(&mut line, now) {
                assert!(p.due <= now, "returned {:?} before its due time", p.due - now);
                seen.push(p.due);
            }
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
        }
        assert_eq!(seen.len(), 5);
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "earliest due first");
    }

    #[test]
    fn pipelined_delayed_instances_lose_no_wake_up() {
        // 2 000 instances, 4 in flight, every link 500 µs: a wait that
        // slept past its deadline for good would block, so the run happens
        // on its own thread and the test waits for it with a deadline.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
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
            // With no later start to pump a lagging replica along, the
            // last window completes on every replica only if the sleeps
            // end on the delayed messages' due instants.
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
        // One pump sends every replica's round-1 messages to its peers,
        // all due 10 s from now, and returns without a result.
        assert!(session.try_next_result().is_none());
        assert_eq!(session.delay_line.len(), 3 * config.n() * (config.n() - 1));
        let start = Instant::now();
        drop(session);
        assert!(start.elapsed() < Duration::from_millis(50), "drop took {:?}", start.elapsed());
    }
}
