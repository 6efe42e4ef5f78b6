//! The round-based process automaton interface.
//!
//! Every algorithm in this workspace — the paper's `A_{t+2}`, its ◇S
//! variant, `A_{f+2}`, and all baselines — is expressed as a
//! [`RoundProcess`]: a deterministic state machine driven by alternating
//! *send* and *receive* phases. The same automaton runs unchanged under the
//! deterministic simulator (`indulgent-sim`), the exhaustive model checker
//! (`indulgent-checker`) and the wall-clock message-passing runtime
//! (`indulgent-runtime`), which steps its replicas on the caller's thread.

use crate::message::Delivery;
use crate::round::Round;
use crate::value::Value;

/// Outcome of a receive phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The process continues to the next round.
    Continue,
    /// The process decides `Value`. A process decides at most once; the
    /// executors record the first `Decide` and ignore subsequent ones, but a
    /// well-behaved automaton never emits two.
    Decide(Value),
}

impl Step {
    /// The decided value, if this step is a decision.
    #[must_use]
    pub fn decision(self) -> Option<Value> {
        match self {
            Step::Continue => None,
            Step::Decide(v) => Some(v),
        }
    }
}

/// A deterministic round-based process.
///
/// The protocol is the paper's (Sect. 1.2): in the send phase of round `k`
/// the process emits one message, conceptually broadcast to all `n`
/// processes (including itself — self-delivery is never delayed or lost, and
/// a process never suspects itself). In the receive phase it gets a
/// [`Delivery`] of everything that arrived in round `k` and may decide.
///
/// After emitting [`Step::Decide`] the automaton keeps being driven: the
/// model's footnote 1 requires processes to keep sending (dummy) messages so
/// that delivery guarantees hold, and all paper algorithms relay `DECIDE`
/// messages after deciding. Implementations typically switch to broadcasting
/// their decision.
///
/// # Snapshotability
///
/// `RoundProcess` requires [`Clone`]: an automaton's state must be a plain
/// snapshotable value. Cloning a process (together with its pending
/// mailboxes) forks the run — both copies evolve identically under
/// identical subsequent inputs, because automatons are deterministic and
/// hold no hidden shared state. The incremental prefix-sharing sweep engine
/// (`indulgent-sim`'s fork-on-branch executor) relies on exactly this:
/// it executes each shared schedule prefix once and clones the mid-run
/// state at every branch point instead of replaying from round 1.
pub trait RoundProcess: Clone {
    /// The message type broadcast each round.
    type Msg: Clone + std::fmt::Debug;

    /// The message to broadcast in the send phase of `round`.
    ///
    /// Called exactly once per round, with strictly increasing rounds
    /// starting from [`Round::FIRST`].
    fn send(&mut self, round: Round) -> Self::Msg;

    /// Handles the receive phase of `round`.
    ///
    /// `delivery` contains every message arriving in `round` — current-round
    /// messages and delayed ones. Returns [`Step::Decide`] the first time
    /// the process decides.
    fn deliver(&mut self, round: Round, delivery: &Delivery<Self::Msg>) -> Step;
}

/// A factory producing the `n` process automatons of a run.
///
/// Executors (simulator, checker, runtime) construct one automaton per
/// process from the proposal vector. Implemented for closures.
pub trait ProcessFactory {
    /// The automaton type produced.
    type Process: RoundProcess;

    /// Builds the automaton for process `index` proposing `proposal`.
    fn build(&self, index: usize, proposal: Value) -> Self::Process;
}

impl<P: RoundProcess, F: Fn(usize, Value) -> P> ProcessFactory for F {
    type Process = P;

    fn build(&self, index: usize, proposal: Value) -> P {
        self(index, proposal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::DeliveredMsg;
    use crate::process::ProcessId;

    /// A trivial automaton deciding its own proposal in round 1.
    #[derive(Clone)]
    struct Trivial {
        proposal: Value,
    }

    impl RoundProcess for Trivial {
        type Msg = Value;

        fn send(&mut self, _round: Round) -> Value {
            self.proposal
        }

        fn deliver(&mut self, _round: Round, _delivery: &Delivery<Value>) -> Step {
            Step::Decide(self.proposal)
        }
    }

    #[test]
    fn step_decision_accessor() {
        assert_eq!(Step::Continue.decision(), None);
        assert_eq!(Step::Decide(Value::ONE).decision(), Some(Value::ONE));
    }

    #[test]
    fn closure_factory_builds_processes() {
        let factory = |_idx: usize, proposal: Value| Trivial { proposal };
        let mut p = factory.build(0, Value::new(7));
        assert_eq!(p.send(Round::FIRST), Value::new(7));
        let delivery = Delivery::new(
            Round::FIRST,
            vec![DeliveredMsg {
                sender: ProcessId::new(0),
                sent_round: Round::FIRST,
                msg: Value::new(7),
            }],
        );
        assert_eq!(p.deliver(Round::FIRST, &delivery), Step::Decide(Value::new(7)));
    }
}
