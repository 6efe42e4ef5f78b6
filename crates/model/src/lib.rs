//! Round-based distributed computing model for indulgent consensus.
//!
//! This crate defines the vocabulary shared by the whole workspace, which
//! reproduces *"The inherent price of indulgence"* (Dutta & Guerraoui,
//! PODC 2002 / Distributed Computing 2005):
//!
//! * [`ProcessId`], [`ProcessSet`], [`Round`], [`Value`] — newtypes for the
//!   paper's `Π`, round numbers and totally ordered proposal values;
//! * [`SystemConfig`] — validated `(n, t)` pairs for the paper's three
//!   resilience regimes (`t < n/2`, `t < n/3`, `t ≤ n - 2`);
//! * [`Delivery`] and [`RoundProcess`] — the send/receive round automaton
//!   interface every algorithm implements;
//! * [`RingMailbox`] — the allocation-free per-receiver mailbox the
//!   simulator and the wall-clock runtime both keep pending messages in;
//! * [`SplitMix64`] — the one seeded random stream every adversary of
//!   the workspace draws from;
//! * [`RunOutcome`] — executor-independent run results with checking of the
//!   consensus properties (validity, uniform agreement, termination);
//! * [`Command`], [`Batch`], [`AppliedEntry`] — the multi-shot vocabulary
//!   of the `indulgent-log` replicated-log subsystem, which chains
//!   consensus instances into an agreed sequence of command batches.
//!
//! # The two models
//!
//! The paper considers the synchronous crash-stop model **SCS** and an
//! eventually synchronous model **ES**. Both proceed in rounds: a send phase
//! where each process broadcasts one message, and a receive phase. In SCS a
//! message is either received in the round it was sent or (if the sender
//! crashed that round) lost. In ES messages may additionally be *delayed*
//! for finitely many rounds, subject to:
//!
//! * **t-resilience** — every process completing round `k` receives round-`k`
//!   messages from at least `n - t` processes;
//! * **reliable channels** — messages between correct processes are never
//!   lost;
//! * **eventual synchrony** — from some unknown round `K` on, delivery is
//!   synchronous.
//!
//! A run with `K = 1` is *synchronous*; the paper's headline result is that
//! consensus in ES needs `t + 2` rounds even in synchronous runs, one more
//! than the `t + 1` bound of SCS. The model distinctions themselves live in
//! `indulgent-sim`, which enforces these constraints on adversary schedules;
//! this crate only fixes the interfaces.
//!
//! # Example
//!
//! ```
//! use indulgent_model::{Delivery, Round, RoundProcess, Step, SystemConfig, Value};
//!
//! /// A (non-fault-tolerant!) automaton deciding the minimum of round-1 values.
//! #[derive(Clone)]
//! struct MinOnce {
//!     proposal: Value,
//! }
//!
//! impl RoundProcess for MinOnce {
//!     type Msg = Value;
//!
//!     fn send(&mut self, _round: Round) -> Value {
//!         self.proposal
//!     }
//!
//!     fn deliver(&mut self, _round: Round, delivery: &Delivery<Value>) -> Step {
//!         let min = delivery.current().map(|m| m.msg).min().unwrap_or(self.proposal);
//!         Step::Decide(min)
//!     }
//! }
//!
//! let cfg = SystemConfig::majority(3, 1)?;
//! assert_eq!(cfg.quorum(), 2);
//! # Ok::<(), indulgent_model::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod automaton;
mod command;
mod config;
mod mailbox;
mod message;
mod outcome;
mod process;
mod round;
mod splitmix;
mod value;

pub use automaton::{ProcessFactory, RoundProcess, Step};
pub use command::{AppliedEntry, Batch, BatchId, ClientId, Command, CommandId, RequestId};
pub use config::{ConfigError, Resilience, SystemConfig};
pub use mailbox::RingMailbox;
pub use message::{DeliveredMsg, Delivery};
pub use outcome::{ConsensusViolation, Decision, RunOutcome};
pub use process::{Iter, ProcessId, ProcessSet};
pub use round::Round;
pub use splitmix::SplitMix64;
pub use value::Value;

#[cfg(test)]
mod tests {
    use super::SplitMix64;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
            assert!((0.0..1.0).contains(&rng.next_unit()));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SplitMix64::new(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
