//! The pluggable underlying consensus `C` used by `A_{t+2}`.
//!
//! The paper's algorithm assumes "an independent consensus algorithm C in ES
//! when 0 < t < n/2" (assumption 3, Sect. 3) and achieves its fast-decision
//! property *regardless of the time complexity of C*. The
//! [`UnderlyingConsensus`] trait captures exactly the interface `A_{t+2}`
//! needs: propose once, then drive rounds; [`Standalone`] adapts any such
//! algorithm into a [`RoundProcess`] so it can also be run (and measured) on
//! its own, and [`Delayed`] wraps an algorithm to make it artificially slow
//! — used by tests to demonstrate that `A_{t+2}`'s round-`t + 2` decision in
//! synchronous runs does not depend on `C`'s speed.

use indulgent_model::{DeliveredMsg, Delivery, Round, RoundProcess, Step, Value};

/// A consensus algorithm usable as the fallback `C` of `A_{t+2}`.
///
/// Lifecycle: exactly one [`propose`](UnderlyingConsensus::propose) call,
/// then alternating [`send`](UnderlyingConsensus::send) /
/// [`deliver`](UnderlyingConsensus::deliver) with *local* rounds
/// `1, 2, 3, …` (the embedding algorithm translates global rounds). The
/// first `deliver` returning `Some(v)` is the decision; afterwards the
/// algorithm keeps participating (relaying its decision) but further
/// returns are ignored by callers.
///
/// Like [`RoundProcess`], an underlying consensus must be [`Clone`]: it is
/// embedded in `A_{t+2}`'s automaton state, which the incremental sweep
/// engine snapshots and forks at schedule branch points.
pub trait UnderlyingConsensus: Clone {
    /// The message type exchanged by this algorithm.
    type Msg: Clone + std::fmt::Debug;

    /// Fixes the proposal. Called exactly once, before the first `send`
    /// (or once per instance after a [`reset`](UnderlyingConsensus::reset)).
    fn propose(&mut self, value: Value);

    /// Rewinds the algorithm to its pre-[`propose`](UnderlyingConsensus::propose)
    /// state, keeping configuration (and any buffer capacity) intact.
    ///
    /// This is the *instance-reset hook* used by the multi-shot replicated
    /// log: chaining consensus instances reuses one automaton per process
    /// instead of rebuilding it, so per-instance startup allocates nothing.
    /// After `reset`, the lifecycle restarts: one `propose`, then rounds
    /// from local round 1.
    fn reset(&mut self);

    /// The message broadcast in local round `round`.
    fn send(&mut self, round: Round) -> Self::Msg;

    /// Handles the receive phase of local round `round`; returns the
    /// decision the first time one is reached.
    fn deliver(&mut self, round: Round, delivery: &Delivery<Self::Msg>) -> Option<Value>;
}

/// Adapter running an [`UnderlyingConsensus`] as a standalone
/// [`RoundProcess`].
///
/// # Examples
///
/// ```
/// use indulgent_consensus::{RotatingCoordinator, Standalone};
/// use indulgent_model::{SystemConfig, Value, ProcessId};
///
/// let cfg = SystemConfig::majority(3, 1)?;
/// let process = Standalone::new(
///     RotatingCoordinator::new(cfg, ProcessId::new(0)),
///     Value::new(7),
/// );
/// # let _ = process;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Standalone<C> {
    inner: C,
    decided: bool,
}

impl<C: UnderlyingConsensus> Standalone<C> {
    /// Wraps `inner`, proposing `value`.
    #[must_use]
    pub fn new(mut inner: C, value: Value) -> Self {
        inner.propose(value);
        Standalone { inner, decided: false }
    }
}

impl<C: UnderlyingConsensus> RoundProcess for Standalone<C> {
    type Msg = C::Msg;

    fn send(&mut self, round: Round) -> C::Msg {
        self.inner.send(round)
    }

    fn deliver(&mut self, round: Round, delivery: &Delivery<C::Msg>) -> Step {
        match self.inner.deliver(round, delivery) {
            Some(v) if !self.decided => {
                self.decided = true;
                Step::Decide(v)
            }
            _ => Step::Continue,
        }
    }
}

/// Wrapper postponing an underlying consensus by `delay` rounds.
///
/// For the first `delay` local rounds the wrapped algorithm is silent
/// (sending `None`); afterwards it runs normally with shifted rounds. Used
/// to construct a deliberately slow `C` and verify the paper's claim that
/// `A_{t+2}`'s fast decision holds "regardless of the time complexity of C".
#[derive(Debug, Clone)]
pub struct Delayed<C> {
    inner: C,
    delay: u32,
}

impl<C: UnderlyingConsensus> Delayed<C> {
    /// Wraps `inner`, delaying its start by `delay` rounds.
    #[must_use]
    pub fn new(inner: C, delay: u32) -> Self {
        Delayed { inner, delay }
    }
}

impl<C: UnderlyingConsensus> UnderlyingConsensus for Delayed<C> {
    type Msg = Option<C::Msg>;

    fn propose(&mut self, value: Value) {
        self.inner.propose(value);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn send(&mut self, round: Round) -> Option<C::Msg> {
        if round.get() <= self.delay {
            None
        } else {
            Some(self.inner.send(Round::new(round.get() - self.delay)))
        }
    }

    fn deliver(&mut self, round: Round, delivery: &Delivery<Option<C::Msg>>) -> Option<Value> {
        if round.get() <= self.delay {
            return None;
        }
        let local = Round::new(round.get() - self.delay);
        let messages: Vec<DeliveredMsg<C::Msg>> = delivery
            .messages()
            .iter()
            .filter_map(|m| {
                // Messages sent during the silent prefix carry `None`.
                let sent = m.sent_round.get().checked_sub(self.delay)?;
                if sent == 0 {
                    return None;
                }
                m.msg.clone().map(|inner| DeliveredMsg {
                    sender: m.sender,
                    sent_round: Round::new(sent),
                    msg: inner,
                })
            })
            .collect();
        self.inner.deliver(local, &Delivery::new(local, messages))
    }
}

#[cfg(test)]
mod tests {
    use indulgent_model::ProcessId;

    use super::*;

    /// A toy underlying consensus: decides its proposal at local round 3.
    #[derive(Debug, Clone)]
    struct FixedAtThree {
        value: Option<Value>,
    }

    impl UnderlyingConsensus for FixedAtThree {
        type Msg = u8;

        fn propose(&mut self, value: Value) {
            self.value = Some(value);
        }

        fn reset(&mut self) {
            self.value = None;
        }

        fn send(&mut self, round: Round) -> u8 {
            round.get() as u8
        }

        fn deliver(&mut self, round: Round, _delivery: &Delivery<u8>) -> Option<Value> {
            (round.get() == 3).then(|| self.value.expect("proposed"))
        }
    }

    #[test]
    fn standalone_decides_once() {
        let mut p = Standalone::new(FixedAtThree { value: None }, Value::new(9));
        for k in 1..=4u32 {
            let round = Round::new(k);
            let _ = p.send(round);
            let step = p.deliver(round, &Delivery::new(round, vec![]));
            match k {
                3 => assert_eq!(step, Step::Decide(Value::new(9))),
                _ => assert_eq!(step, Step::Continue),
            }
        }
    }

    #[test]
    fn delayed_shifts_rounds_and_messages() {
        let mut d = Delayed::new(FixedAtThree { value: None }, 2);
        d.propose(Value::new(5));
        // Silent prefix.
        assert_eq!(d.send(Round::new(1)), None);
        assert_eq!(d.send(Round::new(2)), None);
        assert_eq!(d.deliver(Round::new(2), &Delivery::new(Round::new(2), vec![])), None);
        // Local round 1 at global 3.
        assert_eq!(d.send(Round::new(3)), Some(1));
        // Local round 3 (decision) at global 5; also check message mapping.
        assert_eq!(d.deliver(Round::new(3), &Delivery::new(Round::new(3), vec![])), None);
        assert_eq!(d.send(Round::new(4)), Some(2));
        assert_eq!(d.deliver(Round::new(4), &Delivery::new(Round::new(4), vec![])), None);
        assert_eq!(d.send(Round::new(5)), Some(3));
        let delivery = Delivery::new(
            Round::new(5),
            vec![
                // A real message sent at global 5 (local 3).
                DeliveredMsg {
                    sender: ProcessId::new(1),
                    sent_round: Round::new(5),
                    msg: Some(3u8),
                },
                // A silent-prefix message: must be dropped.
                DeliveredMsg { sender: ProcessId::new(2), sent_round: Round::new(2), msg: None },
            ],
        );
        assert_eq!(d.deliver(Round::new(5), &delivery), Some(Value::new(5)));
    }
}
