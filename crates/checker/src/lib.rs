//! Exhaustive model checking for round-based consensus algorithms.
//!
//! This crate makes the *proof side* of "The inherent price of indulgence"
//! executable for small systems:
//!
//! * [`worst_case_decision_round`] sweeps **every** serial synchronous run
//!   of an algorithm (at most one crash per round — the run class the
//!   lower-bound proof works with), verifying validity, uniform agreement
//!   and termination in each and reporting the exact worst- and best-case
//!   global-decision rounds. For `A_{t+2}` the result is `t + 2` on the
//!   nose; for FloodSet in SCS it is `t + 1`; for the Hurfin–Raynal-style
//!   baseline it is `2t + 2`.
//! * [`valency`] / [`find_bivalent_initial`] / [`find_bivalent_prefix`]
//!   compute valencies of partial runs of binary consensus exactly, letting
//!   experiments exhibit the objects of the paper's Lemmas 3–5: bivalent
//!   initial configurations and bivalent serial partial runs.
//!
//! Every sweep runs on the **incremental prefix-sharing engine** of
//! `indulgent_sim` (`for_each_serial_run`): enumeration is fused with
//! execution, so each shared schedule prefix in the serial-run tree is
//! executed exactly once and the automaton state is forked at branch
//! points — an algorithmic speedup over replaying every schedule from
//! round 1. Each sweep has one entry point and visits the schedules in
//! serial enumeration order on the caller's thread, stopping at the first
//! run that fails a check; the differential suite checks the engine
//! schedule for schedule against the run-from-scratch loop. The engine
//! makes exhaustive sweeps at `n = 7, t = 2` (~518k serial schedules per
//! proposal vector) practical.
//! Random-adversary searches ([`randomized_worst_case`]) have no prefix
//! structure to share and keep the run-from-scratch executor.
//!
//! # Example: the `t + 2` worst case, exhaustively
//!
//! ```
//! use indulgent_checker::worst_case_decision_round;
//! use indulgent_consensus::{AtPlus2, RotatingCoordinator};
//! use indulgent_model::{ProcessId, Round, SystemConfig, Value};
//! use indulgent_sim::ModelKind;
//!
//! let cfg = SystemConfig::majority(3, 1)?;
//! let factory = move |i: usize, v: Value| {
//!     let id = ProcessId::new(i);
//!     AtPlus2::new(cfg, id, v, RotatingCoordinator::new(cfg, id))
//! };
//! let proposals: Vec<Value> = [4u64, 7, 2].map(Value::new).to_vec();
//! let report = worst_case_decision_round(&factory, cfg, ModelKind::Es, &proposals, 3, 30)?;
//! assert_eq!(report.worst_round, Round::new(3)); // t + 2
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod census;
mod valency;
mod worst_case;

pub use census::{decision_round_census, randomized_worst_case, Census};
pub use valency::{
    find_bivalent_initial, find_bivalent_prefix, initial_valency, reachable_decisions, valency,
    Valency, ValencyParams,
};
pub use worst_case::{
    worst_case_decision_round, worst_case_over_binary_proposals, CheckError, WorstCaseReport,
};
