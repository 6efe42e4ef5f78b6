//! The deterministic round executor and its snapshotable stepper.
//!
//! [`RunState`] holds everything a run accumulates — the `n`
//! [`RoundProcess`] automatons, first decisions, pending mailboxes — and
//! [`RunState::step`] executes exactly one round of a [`Schedule`]: the
//! send phase broadcasts each alive process's message and applies the
//! adversary's per-receiver fates; the receive phase hands every process
//! the messages arriving that round (current and delayed) and records
//! decisions. Execution is completely deterministic: identical inputs
//! produce identical outcomes, which the checker and the property tests
//! rely on.
//!
//! Because [`RoundProcess`] requires `Clone`, a `RunState` is a *snapshot*:
//! cloning it forks the run, and both copies evolve identically under
//! identical subsequent rounds. The incremental prefix-sharing sweep
//! ([`incremental`](crate::incremental)) exploits this to execute each
//! shared schedule prefix exactly once, forking at branch points instead
//! of replaying whole schedules. [`run_schedule`] is the classic
//! run-from-scratch entry point, now a thin wrapper over the stepper; the
//! traced executor ([`run_traced`](crate::run_traced)) drives the same
//! stepper through the [`RoundObserver`] hook, so there is a single
//! send/receive-phase implementation in the workspace.
//!
//! # Zero-allocation steady state
//!
//! The message plumbing is built so that, once warm, stepping a round
//! performs **no heap allocation** (asserted by the counting-allocator
//! test in `crates/integration/tests/zero_alloc.rs`):
//!
//! * **Flat ring mailboxes.** Each receiver's pending messages live in a
//!   [`RingMailbox`] (shared with the wall-clock runtime through
//!   `indulgent-model`): a flat ring of message buffers keyed by
//!   arrival-round *offset* from the round currently executing (offset 0
//!   = due now). Delays are bounded by the schedule horizon, so the ring
//!   grows to the longest in-flight delay span once and then cycles,
//!   reusing its buffers forever; `clone_from` recycles them across the
//!   incremental engine's fork snapshots instead of reallocating tree
//!   nodes the way the former `BTreeMap` mailbox did.
//! * **Pooled deliveries.** The receive phase rebuilds one pooled
//!   [`Delivery`] in place per receiver (`reset` + `append`) instead of
//!   allocating and dropping a fresh `Vec` every process-round. Mailbox
//!   buffers are filled in (sent round, sender) order by construction —
//!   send phases run in ascending round order and iterate senders in
//!   ascending id order — so the former per-round sort is gone.
//! * **Shared-broadcast fast path.** When a round is *clean*
//!   ([`Schedule::round_is_clean`]: no crash, no non-default fate) and no
//!   delayed arrival is due, every completing receiver observes the
//!   identical message multiset. The stepper then builds **one** shared
//!   delivery — every payload moved, none cloned — and hands the same
//!   `&Delivery` to all `n` `deliver()` calls, cutting the round's payload
//!   copies from O(n²) to zero. Serial schedules make this the common
//!   case: every round except the at-most-`t` crash rounds is clean.
//!
//! The engine counts what it does (rounds, fast-path hits, deliveries,
//! clones, forks) in the global [`stats`](crate::stats) counters.

use std::fmt;

use indulgent_model::{
    Decision, DeliveredMsg, Delivery, ProcessFactory, RingMailbox, Round, RoundProcess, RunOutcome,
    Step, Value,
};

use crate::schedule::{MessageFate, Schedule};
use crate::stats::engine_counters;

/// Per-step scratch space owned by a [`RunState`]: buffers whose contents
/// are meaningless between steps but whose *capacity* is the point —
/// reusing them across rounds (and, via `clone_from`, across recycled
/// fork snapshots) is what makes the steady-state step allocation-free.
/// Scratch is never part of the logical snapshot: clones start with fresh
/// empty scratch and still evolve identically.
#[derive(Debug)]
struct StepScratch<M> {
    /// (receiver index, arrival round) of each surviving copy of the
    /// message currently being sent; reused across senders and rounds.
    fates: Vec<(usize, u32)>,
    /// The pooled delivery every receive phase is rebuilt in — one per
    /// receiver on the general path, one shared by all receivers on the
    /// broadcast fast path.
    delivery: Delivery<M>,
}

impl<M> StepScratch<M> {
    fn new() -> Self {
        StepScratch { fates: Vec::new(), delivery: Delivery::empty(Round::FIRST) }
    }
}

/// One receive phase: hand `delivery` to `receiver`, record its first
/// decision, notify the observer — shared by the fast and general paths
/// so their semantics cannot drift apart.
fn deliver_one<P, O>(
    processes: &mut [P],
    decisions: &mut [Option<Decision>],
    observer: &mut O,
    round: Round,
    receiver: indulgent_model::ProcessId,
    delivery: &Delivery<P::Msg>,
) where
    P: RoundProcess,
    O: RoundObserver<P::Msg>,
{
    let step = processes[receiver.index()].deliver(round, delivery);
    let mut decided_now = None;
    if let Step::Decide(value) = step {
        if decisions[receiver.index()].is_none() {
            decisions[receiver.index()] = Some(Decision { process: receiver, round, value });
            decided_now = Some(value);
        }
    }
    observer.on_receive(round, receiver, delivery, decided_now);
}

/// Error from the deterministic executors: the run inputs are inconsistent
/// with the schedule's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorError {
    /// The proposal vector's length differs from the configuration size
    /// (one proposal per process is required).
    ProposalCountMismatch {
        /// The configuration size `n`.
        expected: usize,
        /// The number of proposals supplied.
        got: usize,
    },
}

impl fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutorError::ProposalCountMismatch { expected, got } => {
                write!(f, "one proposal per process required: config has {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ExecutorError {}

/// Validates the run inputs shared by every executor entry point.
fn check_run_inputs(n: usize, proposals: &[Value]) -> Result<(), ExecutorError> {
    if proposals.len() != n {
        return Err(ExecutorError::ProposalCountMismatch { expected: n, got: proposals.len() });
    }
    Ok(())
}

/// Observer of a round's receive phase, for executors that record more
/// than the outcome (the traced executor builds its per-round records
/// here). The plain executors use the no-op `()` implementation.
pub trait RoundObserver<M> {
    /// Called once per process completing `round`, after its `deliver`:
    /// `delivery` is what the process received, `decision` the value
    /// recorded this round (`None` if it continued or had decided before).
    fn on_receive(
        &mut self,
        round: Round,
        process: indulgent_model::ProcessId,
        delivery: &Delivery<M>,
        decision: Option<Value>,
    );
}

impl<M> RoundObserver<M> for () {
    fn on_receive(
        &mut self,
        _round: Round,
        _process: indulgent_model::ProcessId,
        _delivery: &Delivery<M>,
        _decision: Option<Value>,
    ) {
    }
}

/// The complete mid-run state of a deterministic execution: a snapshot.
///
/// A `RunState` is created from a factory and proposals, then driven round
/// by round against a [`Schedule`] with [`step`](RunState::step) or to a
/// horizon with [`run_to`](RunState::run_to). Cloning forks the run: the
/// clone and the original evolve identically when driven by identical
/// schedules — the property the fork-on-branch sweep engine
/// ([`incremental`](crate::incremental)) is built on and the snapshot
/// proptests assert for every algorithm in the workspace.
///
/// A `RunState` may be driven by *different* schedules as long as they
/// agree on all rounds already executed (e.g. serial extensions of a
/// common prefix); the executed prefix is baked into the state, and only
/// future rounds consult the schedule.
#[derive(Debug)]
pub struct RunState<P: RoundProcess> {
    processes: Vec<P>,
    decisions: Vec<Option<Decision>>,
    /// pending[r] -> ring of arriving messages for receiver r.
    pending: Vec<RingMailbox<P::Msg>>,
    rounds_executed: u32,
    /// Latched once every process completing the last executed round had
    /// decided — the executor's early-exit condition.
    halted: bool,
    /// Reusable step buffers; not part of the logical snapshot.
    scratch: StepScratch<P::Msg>,
}

impl<P: RoundProcess> Clone for RunState<P> {
    fn clone(&self) -> Self {
        RunState {
            processes: self.processes.clone(),
            decisions: self.decisions.clone(),
            pending: self.pending.clone(),
            rounds_executed: self.rounds_executed,
            halted: self.halted,
            // Scratch contents are dead between steps; a fork starts cold
            // and warms on its first step.
            scratch: StepScratch::new(),
        }
    }

    /// Overwrites `self` with `source`, reusing existing allocations —
    /// the fork-on-branch DFS forks thousands of snapshots per sweep and
    /// recycles per-depth scratch states through this. `self`'s own warm
    /// step scratch is kept as-is (its contents are meaningless between
    /// steps), so recycled snapshots stay allocation-free.
    fn clone_from(&mut self, source: &Self) {
        self.processes.clone_from(&source.processes);
        self.decisions.clone_from(&source.decisions);
        if self.pending.len() == source.pending.len() {
            for (dst, src) in self.pending.iter_mut().zip(&source.pending) {
                dst.clone_from(src);
            }
        } else {
            self.pending.clone_from(&source.pending);
        }
        self.rounds_executed = source.rounds_executed;
        self.halted = source.halted;
    }
}

impl<P: RoundProcess> RunState<P> {
    /// Builds the initial state (round 0, nothing executed) for `n`
    /// processes from `factory` and `proposals`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecutorError::ProposalCountMismatch`] if
    /// `proposals.len() != n`.
    pub fn new<F>(factory: &F, proposals: &[Value], n: usize) -> Result<Self, ExecutorError>
    where
        F: ProcessFactory<Process = P>,
    {
        check_run_inputs(n, proposals)?;
        Ok(RunState {
            processes: (0..n).map(|i| factory.build(i, proposals[i])).collect(),
            decisions: vec![None; n],
            pending: (0..n).map(|_| RingMailbox::new()).collect(),
            rounds_executed: 0,
            halted: false,
            scratch: StepScratch::new(),
        })
    }

    /// Number of rounds executed so far.
    #[must_use]
    pub fn rounds_executed(&self) -> u32 {
        self.rounds_executed
    }

    /// Rewinds the state to round 0 for the next instance of a multi-shot
    /// execution, keeping every allocation warm: mailbox rings keep their
    /// span and buffer capacity, the step scratch stays hot, and the
    /// automatons are re-fitted in place by `reset` (typically an
    /// instance-reset hook such as `AtPlus2::reset_instance`) instead of
    /// being rebuilt. After the call the state is indistinguishable — up
    /// to buffer capacity — from a fresh [`RunState::new`] whose factory
    /// produced the reset automatons.
    ///
    /// # Errors
    ///
    /// Returns [`ExecutorError::ProposalCountMismatch`] if
    /// `proposals.len()` differs from the state's process count.
    pub fn reset_instance(
        &mut self,
        proposals: &[Value],
        mut reset: impl FnMut(usize, &mut P, Value),
    ) -> Result<(), ExecutorError> {
        check_run_inputs(self.processes.len(), proposals)?;
        for (i, p) in self.processes.iter_mut().enumerate() {
            reset(i, p, proposals[i]);
        }
        for d in &mut self.decisions {
            *d = None;
        }
        for ring in &mut self.pending {
            ring.clear_all();
        }
        self.rounds_executed = 0;
        self.halted = false;
        Ok(())
    }

    /// Returns `true` once every process completing the last executed
    /// round has decided. Executing further rounds cannot change any
    /// decision; [`run_to`](RunState::run_to) stops here, mirroring the
    /// classic executor's early exit.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Executes one round — the next after
    /// [`rounds_executed`](Self::rounds_executed) — of
    /// `schedule`, feeding the receive phases to `observer`.
    ///
    /// The schedule only needs to be defined (and stable) for rounds up to
    /// the one being executed; later rounds are never consulted.
    pub fn step_observed<O>(&mut self, schedule: &Schedule, observer: &mut O)
    where
        O: RoundObserver<P::Msg>,
    {
        let config = schedule.config();
        let k = self.rounds_executed + 1;
        let round = Round::new(k);
        self.rounds_executed = k;
        let Self { processes, decisions, pending, scratch, .. } = &mut *self;
        let mut deliveries_built = 0u64;
        let mut messages_cloned = 0u64;

        // Shared-broadcast fast path: in a clean round
        // ([`Schedule::round_is_clean`]) with no delayed arrival due,
        // every process alive entering the round completes it and every
        // completing receiver observes the identical message multiset —
        // the round-k messages of all alive senders, in ascending sender
        // order, with nothing delayed in or out. Build that delivery once
        // (each payload moved, none cloned) and hand the same reference to
        // every `deliver()`.
        let fast = schedule.round_is_clean(round) && pending.iter().all(RingMailbox::due_is_empty);
        if fast {
            scratch.delivery.reset(round);
            for sender in config.processes() {
                if !schedule.alive_entering(sender, round) {
                    continue;
                }
                let msg = processes[sender.index()].send(round);
                scratch.delivery.push(DeliveredMsg { sender, sent_round: round, msg });
            }
            deliveries_built = 1;
            for ring in pending.iter_mut() {
                ring.advance();
            }
            for receiver in config.processes() {
                if !schedule.alive_entering(receiver, round) {
                    continue;
                }
                deliver_one(processes, decisions, observer, round, receiver, &scratch.delivery);
            }
        } else {
            // General path. Send phase: every process alive *entering* the
            // round sends; the adversary decides each copy's fate.
            // Crashing processes send the subset the schedule dictates.
            // The message is cloned once per receiving mailbox except the
            // last, which takes it by move; if every copy's fate is `Lose`
            // the message is dropped without any clone at all.
            for sender in config.processes() {
                if !schedule.alive_entering(sender, round) {
                    continue;
                }
                let msg = processes[sender.index()].send(round);
                scratch.fates.clear();
                if schedule.sender_has_overrides(round, sender) {
                    for receiver in config.processes() {
                        // Deliveries to processes that crashed strictly
                        // before this round are irrelevant.
                        if !schedule.alive_entering(receiver, round) {
                            continue;
                        }
                        match schedule.fate(round, sender, receiver) {
                            MessageFate::Deliver => scratch.fates.push((receiver.index(), k)),
                            // A past arrival (unvalidated schedules only)
                            // can never be delivered; drop the copy like
                            // the mailbox engines before the ring did.
                            MessageFate::Delay(arrival) if arrival.get() >= k => {
                                scratch.fates.push((receiver.index(), arrival.get()));
                            }
                            MessageFate::Delay(_) | MessageFate::Lose => {}
                        }
                    }
                } else {
                    // No override for this sender: every copy toward a
                    // live receiver is delivered on time.
                    for receiver in config.processes() {
                        if schedule.alive_entering(receiver, round) {
                            scratch.fates.push((receiver.index(), k));
                        }
                    }
                }
                let mut msg = Some(msg);
                let last = scratch.fates.len().checked_sub(1);
                for (i, &(receiver, arrival)) in scratch.fates.iter().enumerate() {
                    let copy = if Some(i) == last {
                        msg.take().expect("message moved at most once")
                    } else {
                        messages_cloned += 1;
                        msg.as_ref().expect("message present until the final receiver").clone()
                    };
                    // Mailbox buffers stay sorted by (sent round, sender)
                    // by construction: send phases run in ascending round
                    // order and senders iterate in ascending id order.
                    pending[receiver].slot_mut((arrival - k) as usize).push(DeliveredMsg {
                        sender,
                        sent_round: round,
                        msg: copy,
                    });
                }
            }

            // Receive phase: only processes completing the round receive;
            // every ring rotates exactly once.
            for receiver in config.processes() {
                let ring = &mut pending[receiver.index()];
                if !schedule.completes(receiver, round) {
                    ring.advance();
                    continue;
                }
                scratch.delivery.reset(round);
                scratch.delivery.append(ring.due_mut());
                ring.advance();
                deliveries_built += 1;
                deliver_one(processes, decisions, observer, round, receiver, &scratch.delivery);
            }
        }

        // Early-exit latch: everyone still alive has decided.
        self.halted = config
            .processes()
            .filter(|&p| schedule.completes(p, round))
            .all(|p| self.decisions[p.index()].is_some());
        engine_counters().record_round(fast, deliveries_built, messages_cloned);
    }

    /// Executes one round of `schedule` without observation.
    pub fn step(&mut self, schedule: &Schedule) {
        self.step_observed(schedule, &mut ());
    }

    /// Drives the run forward until `horizon` rounds have executed or the
    /// run halts (every alive process decided), whichever comes first.
    pub fn run_to(&mut self, schedule: &Schedule, horizon: u32) {
        while self.rounds_executed < horizon && !self.halted {
            self.step(schedule);
        }
    }

    /// The outcome of the run so far under `schedule` (whose crash set
    /// determines the reported `crashed` processes).
    #[must_use]
    pub fn outcome(&self, proposals: &[Value], schedule: &Schedule) -> RunOutcome {
        RunOutcome {
            proposals: proposals.to_vec(),
            decisions: self.decisions.clone(),
            crashed: schedule.faulty(),
            rounds_executed: self.rounds_executed,
        }
    }
}

/// Runs `factory`-built processes with `proposals` under `schedule` for at
/// most `horizon` rounds.
///
/// Execution stops early once every alive process has decided. The returned
/// [`RunOutcome`] records each process's first decision, the crash set and
/// the number of rounds executed.
///
/// # Errors
///
/// Returns [`ExecutorError::ProposalCountMismatch`] if `proposals.len()`
/// differs from the schedule's configuration size. Schedule legality is the
/// caller's concern: run [`Schedule::validate`] first (the builders and
/// generators in this crate only produce validated schedules).
pub fn run_schedule<F>(
    factory: &F,
    proposals: &[Value],
    schedule: &Schedule,
    horizon: u32,
) -> Result<RunOutcome, ExecutorError>
where
    F: ProcessFactory,
{
    let mut state = RunState::new(factory, proposals, schedule.config().n())?;
    state.run_to(schedule, horizon);
    Ok(state.outcome(proposals, schedule))
}

#[cfg(test)]
mod tests {
    use indulgent_model::{ProcessId, SystemConfig};

    use super::*;
    use crate::builder::ScheduleBuilder;
    use crate::schedule::ModelKind;

    /// Broadcasts its estimate every round; decides the minimum seen at the
    /// end of round `rounds`. (A FloodSet skeleton for executor testing —
    /// not fault-tolerant reasoning, just deterministic plumbing.)
    #[derive(Debug, Clone)]
    struct MinAfter {
        est: Value,
        rounds: u32,
        decided: bool,
    }

    impl RoundProcess for MinAfter {
        type Msg = Value;

        fn send(&mut self, _round: Round) -> Value {
            self.est
        }

        fn deliver(&mut self, round: Round, delivery: &Delivery<Value>) -> Step {
            for m in delivery.current() {
                self.est = self.est.min(m.msg);
            }
            if round.get() >= self.rounds && !self.decided {
                self.decided = true;
                Step::Decide(self.est)
            } else {
                Step::Continue
            }
        }
    }

    fn factory(rounds: u32) -> impl ProcessFactory<Process = MinAfter> {
        move |_i: usize, v: Value| MinAfter { est: v, rounds, decided: false }
    }

    fn cfg() -> SystemConfig {
        SystemConfig::majority(3, 1).unwrap()
    }

    fn proposals(vals: &[u64]) -> Vec<Value> {
        vals.iter().copied().map(Value::new).collect()
    }

    #[test]
    fn failure_free_run_floods_minimum() {
        let schedule = Schedule::failure_free(cfg(), ModelKind::Es);
        let outcome = run_schedule(&factory(2), &proposals(&[5, 3, 9]), &schedule, 10).unwrap();
        assert!(outcome.check_consensus().is_ok());
        for d in outcome.decisions.iter().flatten() {
            assert_eq!(d.value, Value::new(3));
            assert_eq!(d.round, Round::new(2));
        }
        assert_eq!(outcome.rounds_executed, 2);
    }

    #[test]
    fn crash_before_send_hides_value() {
        // p1 (value 3) crashes before sending in round 1; with a 1-round
        // horizon the others decide without ever seeing 3.
        let schedule = ScheduleBuilder::new(cfg(), ModelKind::Es)
            .crash_before_send(ProcessId::new(1), Round::FIRST)
            .build(5)
            .unwrap();
        let outcome = run_schedule(&factory(1), &proposals(&[5, 3, 9]), &schedule, 5).unwrap();
        assert_eq!(outcome.decision_of(ProcessId::new(0)).unwrap().value, Value::new(5));
        assert_eq!(outcome.decision_of(ProcessId::new(2)).unwrap().value, Value::new(5));
        assert_eq!(outcome.decision_of(ProcessId::new(1)), None);
        assert!(outcome.crashed.contains(ProcessId::new(1)));
    }

    #[test]
    fn partial_crash_delivery_splits_views() {
        // p1 crashes in round 1 delivering only to p0: p0 sees 3, p2 does
        // not. Deciding after round 1 exposes the classic disagreement that
        // motivates flooding for t+1 rounds.
        let schedule = ScheduleBuilder::new(cfg(), ModelKind::Es)
            .crash_delivering_only(ProcessId::new(1), Round::FIRST, [ProcessId::new(0)])
            .build(5)
            .unwrap();
        let outcome = run_schedule(&factory(1), &proposals(&[5, 3, 9]), &schedule, 5).unwrap();
        assert_eq!(outcome.decision_of(ProcessId::new(0)).unwrap().value, Value::new(3));
        assert_eq!(outcome.decision_of(ProcessId::new(2)).unwrap().value, Value::new(5));
        assert!(outcome.check_safety().is_err());
    }

    #[test]
    fn delayed_message_arrives_later_and_is_tagged() {
        #[derive(Debug, Clone)]
        struct Recorder {
            est: Value,
            delayed_seen: Vec<(u32, u32)>, // (arrival, sent)
        }
        impl RoundProcess for Recorder {
            type Msg = Value;
            fn send(&mut self, _round: Round) -> Value {
                self.est
            }
            fn deliver(&mut self, round: Round, delivery: &Delivery<Value>) -> Step {
                for m in delivery.delayed() {
                    self.delayed_seen.push((round.get(), m.sent_round.get()));
                }
                if round.get() == 3 {
                    Step::Decide(self.est)
                } else {
                    Step::Continue
                }
            }
        }
        let schedule = ScheduleBuilder::new(cfg(), ModelKind::Es)
            .sync_from(Round::new(2))
            .delay(Round::FIRST, ProcessId::new(1), ProcessId::new(0), Round::new(3))
            .build(5)
            .unwrap();
        let factory = |_i: usize, v: Value| Recorder { est: v, delayed_seen: vec![] };
        let outcome = run_schedule(&factory, &proposals(&[5, 3, 9]), &schedule, 5).unwrap();
        assert_eq!(outcome.rounds_executed, 3);
        // We cannot inspect the recorder after the run (owned by executor),
        // so assert via behaviour: the run terminates with decisions.
        assert!(outcome.all_correct_decided());
    }

    #[test]
    fn early_exit_when_all_alive_decided() {
        let schedule = Schedule::failure_free(cfg(), ModelKind::Es);
        let outcome = run_schedule(&factory(1), &proposals(&[1, 2, 3]), &schedule, 100).unwrap();
        assert_eq!(outcome.rounds_executed, 1);
    }

    #[test]
    fn proposal_arity_reported_as_typed_error() {
        let schedule = Schedule::failure_free(cfg(), ModelKind::Es);
        let err = run_schedule(&factory(1), &proposals(&[1, 2]), &schedule, 5).unwrap_err();
        assert_eq!(err, ExecutorError::ProposalCountMismatch { expected: 3, got: 2 });
        assert!(err.to_string().contains("one proposal per process"));
    }

    #[test]
    fn first_decision_is_recorded_once() {
        // MinAfter never decides twice, so emulate with a custom automaton
        // that (incorrectly) decides every round; the executor must keep the
        // first decision only.
        #[derive(Debug, Clone)]
        struct Eager;
        impl RoundProcess for Eager {
            type Msg = ();
            fn send(&mut self, _round: Round) {}
            fn deliver(&mut self, round: Round, _delivery: &Delivery<()>) -> Step {
                Step::Decide(Value::new(u64::from(round.get())))
            }
        }
        // Keep one process undecided forever to avoid early exit.
        let schedule = ScheduleBuilder::new(cfg(), ModelKind::Es)
            .crash_after_send(ProcessId::new(2), Round::new(4))
            .build(5)
            .unwrap();
        let factory = |_i: usize, _v: Value| Eager;
        let outcome = run_schedule(&factory, &proposals(&[0, 0, 0]), &schedule, 3).unwrap();
        assert_eq!(outcome.decision_of(ProcessId::new(0)).unwrap().round, Round::FIRST);
        assert_eq!(outcome.decision_of(ProcessId::new(0)).unwrap().value, Value::new(1));
    }

    #[test]
    fn forked_state_resumes_to_the_same_outcome() {
        // Snapshot after round 1, fork, finish both: identical outcomes,
        // and identical to the one-shot executor.
        let schedule = ScheduleBuilder::new(cfg(), ModelKind::Es)
            .crash_delivering_only(ProcessId::new(1), Round::FIRST, [ProcessId::new(0)])
            .build(5)
            .unwrap();
        let props = proposals(&[5, 3, 9]);
        let mut state = RunState::new(&factory(2), &props, 3).unwrap();
        state.step(&schedule);
        let mut fork = state.clone();
        state.run_to(&schedule, 5);
        fork.run_to(&schedule, 5);
        let reference = run_schedule(&factory(2), &props, &schedule, 5).unwrap();
        assert_eq!(state.outcome(&props, &schedule), reference);
        assert_eq!(fork.outcome(&props, &schedule), reference);
    }

    #[test]
    fn halted_latch_matches_early_exit() {
        let schedule = Schedule::failure_free(cfg(), ModelKind::Es);
        let props = proposals(&[1, 2, 3]);
        let mut state = RunState::new(&factory(1), &props, 3).unwrap();
        assert!(!state.halted());
        state.step(&schedule);
        assert!(state.halted());
        assert_eq!(state.rounds_executed(), 1);
        // run_to after halt is a no-op.
        state.run_to(&schedule, 100);
        assert_eq!(state.rounds_executed(), 1);
    }

    #[test]
    fn delayed_arrivals_survive_ring_growth_and_wrap() {
        // Delays spanning 6 rounds force the 1-slot ring to grow to 8
        // slots during round 1; later delays push and pop after the head
        // has lapped the ring. The traced executor's per-round delayed
        // counts pin every arrival to its scheduled round.
        let schedule = ScheduleBuilder::new(cfg(), ModelKind::Es)
            .sync_from(Round::new(15))
            .delay(Round::new(1), ProcessId::new(1), ProcessId::new(0), Round::new(7))
            .delay(Round::new(2), ProcessId::new(2), ProcessId::new(0), Round::new(3))
            .delay(Round::new(9), ProcessId::new(1), ProcessId::new(0), Round::new(12))
            .delay(Round::new(12), ProcessId::new(2), ProcessId::new(0), Round::new(14))
            .build(20)
            .unwrap();
        let trace =
            crate::trace::run_traced(&factory(18), &proposals(&[5, 3, 9]), &schedule, 18).unwrap();
        let delayed_at = |k: u32| {
            trace.record(Round::new(k), ProcessId::new(0)).expect("p0 completes").delayed_arrivals
        };
        for k in 1..=18u32 {
            let expected = usize::from(matches!(k, 3 | 7 | 12 | 14));
            assert_eq!(delayed_at(k), expected, "round {k}");
        }
        // The delayed senders are suspected in the sending round but not
        // in the arrival round.
        assert!(trace.suspected(Round::new(1), ProcessId::new(0), ProcessId::new(1)));
        assert!(!trace.suspected(Round::new(7), ProcessId::new(0), ProcessId::new(1)));
        assert!(trace.outcome().all_correct_decided());
    }

    #[test]
    fn clone_from_across_diverged_ring_sizes() {
        // A state whose rings grew (delays in flight) and a flat
        // failure-free state overwrite each other via clone_from; both
        // must keep evolving exactly like fresh clones.
        let delayed = ScheduleBuilder::new(cfg(), ModelKind::Es)
            .sync_from(Round::new(4))
            .delay(Round::new(1), ProcessId::new(1), ProcessId::new(0), Round::new(5))
            .build(8)
            .unwrap();
        let flat = Schedule::failure_free(cfg(), ModelKind::Es);
        let props = proposals(&[5, 3, 9]);

        let mut grown = RunState::new(&factory(6), &props, 3).unwrap();
        grown.step(&delayed);
        let mut recycled = RunState::new(&factory(6), &props, 3).unwrap();
        recycled.step(&flat);
        // grown's rings span 5 rounds, recycled's a single slot.
        recycled.clone_from(&grown);
        let mut fresh = grown.clone();
        recycled.run_to(&delayed, 8);
        fresh.run_to(&delayed, 8);
        grown.run_to(&delayed, 8);
        assert_eq!(recycled.outcome(&props, &delayed), grown.outcome(&props, &delayed));
        assert_eq!(fresh.outcome(&props, &delayed), grown.outcome(&props, &delayed));

        // And the reverse: a grown state overwritten by a flat one.
        let mut grown2 = RunState::new(&factory(6), &props, 3).unwrap();
        grown2.step(&delayed);
        let flat_mid = {
            let mut s = RunState::new(&factory(6), &props, 3).unwrap();
            s.step(&flat);
            s
        };
        grown2.clone_from(&flat_mid);
        let mut fresh2 = flat_mid.clone();
        grown2.run_to(&flat, 8);
        fresh2.run_to(&flat, 8);
        assert_eq!(grown2.outcome(&props, &flat), fresh2.outcome(&props, &flat));
    }

    #[test]
    fn fast_path_rounds_are_counted_and_clone_free() {
        use crate::stats::engine_counters;
        // A failure-free synchronous run is clean in every round: each
        // step must take the shared-broadcast fast path and clone no
        // payload. The counters are global (other tests add to them
        // concurrently), so assert on deltas being at least what this run
        // contributes and use a probe automaton that never ends early.
        let schedule = Schedule::failure_free(cfg(), ModelKind::Es);
        let props = proposals(&[5, 3, 9]);
        let mut state = RunState::new(&factory(40), &props, 3).unwrap();
        let before = engine_counters().snapshot();
        state.run_to(&schedule, 40);
        let d = engine_counters().snapshot().since(&before);
        assert!(d.rounds_stepped >= 40);
        assert!(d.fast_path_rounds >= 40);
        assert!(d.deliveries_built >= 40);
    }

    #[test]
    fn crash_round_falls_back_to_the_general_path_then_recovers() {
        // Round 1 is dirty (crash with a partial delivery): the general
        // path runs; rounds 2+ are clean again. The outcome must be what
        // the per-receiver semantics dictate — p0 sees p1's value, p2
        // does not, and both decide after flooding for t+1 rounds.
        let schedule = ScheduleBuilder::new(cfg(), ModelKind::Es)
            .crash_delivering_only(ProcessId::new(1), Round::FIRST, [ProcessId::new(0)])
            .build(5)
            .unwrap();
        let outcome = run_schedule(&factory(2), &proposals(&[5, 3, 9]), &schedule, 5).unwrap();
        assert_eq!(outcome.decision_of(ProcessId::new(0)).unwrap().value, Value::new(3));
        assert_eq!(outcome.decision_of(ProcessId::new(2)).unwrap().value, Value::new(3));
    }

    #[test]
    fn all_lose_round_materializes_no_copies_but_still_sends() {
        // p0 crashes in round 1 delivering to nobody: its `send` must still
        // run (state parity with the paper's model), but no peer mailbox
        // materializes a copy. Behaviour is asserted through the outcome:
        // nobody ever sees p0's minimum value 0.
        let schedule = ScheduleBuilder::new(cfg(), ModelKind::Es)
            .crash_before_send(ProcessId::new(0), Round::FIRST)
            .build(5)
            .unwrap();
        let outcome = run_schedule(&factory(2), &proposals(&[0, 3, 9]), &schedule, 5).unwrap();
        for p in [1, 2] {
            assert_eq!(outcome.decision_of(ProcessId::new(p)).unwrap().value, Value::new(3));
        }
    }
}
