//! Indulgent consensus algorithms with the `t + 2` fast-decision property.
//!
//! This crate is the primary contribution of the workspace's reproduction
//! of *"The inherent price of indulgence"* (Dutta & Guerraoui, PODC 2002 /
//! Distributed Computing 2005). The paper proves that any consensus
//! algorithm tolerating eventual synchrony needs `t + 2` rounds even in
//! runs that happen to be synchronous — one round more than the classic
//! `t + 1` bound of the synchronous model — and exhibits a matching
//! algorithm. Everything here runs on the round automaton interface of
//! [`indulgent_model`], under the deterministic simulator
//! (`indulgent-sim`), the exhaustive checker (`indulgent-checker`) or the
//! wall-clock runtime (`indulgent-runtime`).
//!
//! # The algorithms
//!
//! | Type | Paper artifact | Model | Fast decision |
//! |---|---|---|---|
//! | [`AtPlus2`] | Fig. 2 | ES, `t < n/2` | `t + 2` in every synchronous run |
//! | [`AtPlus2::with_detector`] | Fig. 3 (`A_◇S`) | ◇S rounds | `t + 2` in synchronous runs |
//! | [`AtPlus2::with_failure_free_optimization`] | Fig. 4 | ES | round 2 when failure-free |
//! | [`AfPlus2`] | Fig. 5 | ES, `t < n/3` | `k + f + 2` when synchronous after `k` |
//! | [`FloodSet`] | Lynch's FloodSet | SCS | `t + 1` in every run (contrast) |
//! | [`EarlyFloodSet`] | early-deciding uniform consensus \[4,11\] | SCS | `min(f + 2, t + 1)` |
//! | [`FloodSetWs`] | \[3\]'s FloodSetWS | P rounds | `t + 1`; *not* indulgent (ablation) |
//! | [`RotatingCoordinator`] | "any ◇S algorithm C" | ES, `t < n/2` | — (fallback, `3t + 3` worst case) |
//! | [`CoordinatorEcho`] | Hurfin–Raynal baseline | ES, `t < n/2` | `2t + 2` worst case |
//! | [`LeaderEcho`] | Mostefaoui–Raynal `AMR` | ES, `t < n/3` | `k + 2f + 2` |
//!
//! # Quickstart
//!
//! ```
//! use indulgent_consensus::{AtPlus2, RotatingCoordinator};
//! use indulgent_model::{ProcessId, Round, SystemConfig, Value};
//! use indulgent_sim::{run_schedule, ModelKind, Schedule};
//!
//! let cfg = SystemConfig::majority(5, 2)?;
//! let factory = move |i: usize, v: Value| {
//!     let id = ProcessId::new(i);
//!     AtPlus2::new(cfg, id, v, RotatingCoordinator::new(cfg, id))
//! };
//! let proposals: Vec<Value> = [6, 2, 8, 4, 7].map(Value::new).to_vec();
//! let schedule = Schedule::failure_free(cfg, ModelKind::Es);
//! let outcome = run_schedule(&factory, &proposals, &schedule, 30)?;
//!
//! outcome.check_consensus()?;
//! // Global decision at exactly t + 2 = 4 in this synchronous run.
//! assert_eq!(outcome.global_decision_round(), Some(Round::new(4)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod af_plus2;
mod at_plus2;
mod coordinator_echo;
mod early_floodset;
mod floodset;
mod floodset_ws;
mod leader_echo;
mod rotating;
mod underlying;

pub use af_plus2::{AfMsg, AfPlus2};
pub use at_plus2::{AtMsg, AtPlus2};
pub use coordinator_echo::{CeMsg, CoordinatorEcho};
pub use early_floodset::EarlyFloodSet;
pub use floodset::FloodSet;
pub use floodset_ws::FloodSetWs;
pub use leader_echo::{LeMsg, LeaderEcho};
pub use rotating::{RcMsg, RotatingCoordinator};
pub use underlying::{Delayed, Standalone, UnderlyingConsensus};

/// The `A_◇S` variant of `A_{t+2}` (paper Sect. 5.1): same algorithm,
/// suspicions read from an eventually strong failure detector.
pub type ADiamondS<C> = AtPlus2<C, indulgent_fd::EventuallyStrongDetector>;
