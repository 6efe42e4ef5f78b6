//! Deterministic round-based simulator for the SCS and ES models.
//!
//! This crate turns the paper's pencil-and-paper runs into executable
//! artifacts:
//!
//! * [`Schedule`] — a complete adversary description (crashes, crash-round
//!   message fates, delays, the eventual-synchrony round `K`), validated
//!   against the model constraints of *"The inherent price of indulgence"*
//!   (t-resilience, reliable channels, eventual synchrony);
//! * [`ScheduleBuilder`] — fluent construction of hand-crafted runs, e.g.
//!   the `s1/s0/a2/a1/a0` runs of the paper's Claim 5.1;
//! * [`run_schedule`] — the deterministic run-from-scratch executor
//!   driving any [`indulgent_model::RoundProcess`] through a schedule;
//!   [`RunState`] is its step-wise core: a snapshotable mid-run state
//!   (processes, decisions, mailboxes) advanced one round at a time, which
//!   both the plain and the traced executor drive;
//! * [`random`] — seeded random adversaries for statistical sweeps (these
//!   runs have no prefix structure to share and always replay from
//!   scratch);
//! * [`serial`] — exhaustive enumeration of serial runs (at most one crash
//!   per round), the run class used by the lower-bound proof;
//! * [`multishot`] — the multi-shot executor: chained consensus instances
//!   on one recycled [`RunState`] (instance-reset hooks instead of
//!   rebuilds), the simulator substrate of the `indulgent-log`
//!   replicated-log subsystem;
//! * [`incremental`] — the prefix-sharing sweep, the one way to run an
//!   exhaustive sweep: enumeration fused with execution.
//!   [`for_each_serial_run`] walks the serial-schedule tree executing each
//!   shared prefix exactly once, forking [`RunState`] snapshots at branch
//!   points, and hands each schedule with its outcome to a visitor that
//!   may stop the sweep with its own value. It visits the same schedules
//!   in the same order, with the same outcomes, as
//!   [`for_each_serial_schedule`] + [`run_schedule`] (the reference the
//!   differential suite compares it against), but algorithmically faster,
//!   which pushes exhaustive sweeps to `n = 7, t = 2`.
//!
//! # Example
//!
//! ```
//! use indulgent_model::{Delivery, Round, RoundProcess, Step, SystemConfig, Value};
//! use indulgent_sim::{run_schedule, ModelKind, Schedule};
//!
//! #[derive(Clone)]
//! struct Echo(Value);
//! impl RoundProcess for Echo {
//!     type Msg = Value;
//!     fn send(&mut self, _round: Round) -> Value { self.0 }
//!     fn deliver(&mut self, _round: Round, d: &Delivery<Value>) -> Step {
//!         let min = d.current().map(|m| m.msg).min().unwrap_or(self.0);
//!         Step::Decide(min)
//!     }
//! }
//!
//! let cfg = SystemConfig::majority(3, 1)?;
//! let schedule = Schedule::failure_free(cfg, ModelKind::Es);
//! let outcome = run_schedule(
//!     &|_i: usize, v: Value| Echo(v),
//!     &[Value::new(4), Value::new(2), Value::new(9)],
//!     &schedule,
//!     5,
//! )?;
//! assert!(outcome.all_correct_decided());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod builder;
mod executor;
pub mod fd_sim;
pub mod incremental;
pub mod multishot;
pub mod random;
mod schedule;
pub mod serial;
pub mod stats;
pub mod trace;

pub use builder::ScheduleBuilder;
pub use executor::{run_schedule, ExecutorError, RoundObserver, RunState};
pub use fd_sim::ScheduleDetector;
pub use incremental::{for_each_serial_run, for_each_serial_run_extension};
pub use multishot::MultiShotRunner;
pub use random::{random_run, RandomRunParams};
pub use schedule::{MessageFate, ModelKind, Schedule, ScheduleError};
pub use serial::{count_serial_schedules, for_each_serial_extension, for_each_serial_schedule};
pub use stats::{engine_counters, EngineCounters, EngineSnapshot};
pub use trace::{run_traced, RoundRecord, RunTrace};
