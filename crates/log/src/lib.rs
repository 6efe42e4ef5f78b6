//! `indulgent-log` — a multi-shot replicated log chaining indulgent
//! consensus instances into a pipelined, batched agreement service.
//!
//! Everything else in this workspace is single-shot: one instance, one
//! decision. Real deployments build *state-machine replication* out of
//! indulgent consensus: clients submit a stream of commands, commands are
//! grouped into batches, and consensus instance `i` decides which batch
//! occupies log slot `i`. This crate is that layer, and it is where the
//! paper's price structure starts paying rent as throughput:
//!
//! * **`t + 2` only on the slow path.** Each slot runs `A_{t+2}` with the
//!   Fig. 4 failure-free optimization: a clean instance globally decides
//!   at **round 2**, so a healthy log pays two rounds per slot and falls
//!   back to `t + 2` (or the ◇S fallback) only when crashes or
//!   asynchrony actually materialize — the indulgence is hedging, not
//!   overhead.
//! * **Batching** amortizes an instance over `batch_size` commands.
//! * **Pipelining** keeps a bounded window of `W` instances in flight:
//!   instance `j` starts as soon as `j - W` has decided, overlapping
//!   round latencies instead of serializing decision waits.
//!
//! # Architecture
//!
//! * [`ClientFrontend`] — command intake, batch sealing, home-replica
//!   assignment, and the batch-content registry (the dissemination side
//!   channel; consensus sequences batch *ids* only);
//! * [`LogDriver`] — the substrate-independent policy: the deterministic
//!   pipelined proposal rule (see `driver` module docs for why no batch
//!   can ever be chosen twice), window gating, apply + dedup, and the
//!   [`LogReport`];
//! * [`InstanceRunner`] — the single trait both substrates implement:
//!   [`SimLogRunner`] runs instances on the deterministic multi-shot
//!   executor (`indulgent_sim::MultiShotRunner`, recycled `RunState`,
//!   instance-reset hooks), [`SessionLogRunner`] pipelines them over a
//!   reusable wall-clock [`indulgent_runtime::Session`], stepped on the
//!   driver's thread, that resets retired automatons through the same
//!   hooks;
//! * [`LogReport::check`] — the total-order invariant checker: per-slot
//!   agreement and validity, identical applied logs on all correct
//!   replicas, exactly-once acknowledged commands.
//!
//! Crash chaos uses *logical* per-instance outage intervals (crash at an
//! `(instance, round)` point, optionally recover at a later instance —
//! the crash-recovery fault model), realized identically by both
//! substrates, so crash-and-recovery runs (any batch size, any pipeline
//! depth) are differentially comparable value-for-value: the runtime's
//! decided log must equal the simulator's. Asynchronous prefixes inject
//! substrate-appropriate delays (schedule delays in the simulator,
//! wall-clock `AsyncUntil` in the runtime) and are validated by the
//! invariants instead.
//!
//! # Example
//!
//! ```
//! use indulgent_log::{
//!     at_plus2_factory, at_plus2_reset, ClientFrontend, IntakePolicy, LogConfig, LogDriver,
//!     LogScenario, SimLogRunner,
//! };
//! use indulgent_model::SystemConfig;
//!
//! let config = SystemConfig::majority(5, 2)?;
//! let mut frontend = ClientFrontend::new(config.n(), 4).with_intake(IntakePolicy::Shared);
//! frontend.submit_all(0..40); // 40 commands -> 10 batches of 4
//! let driver = LogDriver::new(
//!     config,
//!     LogConfig::sequential(12).with_batch_size(4).with_pipeline_depth(3),
//!     LogScenario::failure_free(config.n()),
//!     frontend,
//! );
//! let report = driver.run(SimLogRunner::new(
//!     config,
//!     at_plus2_factory(config),
//!     at_plus2_reset(),
//! ));
//! report.check()?;
//! assert_eq!(report.committed_commands, 40);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod check;
mod driver;
mod frontend;
mod runner_net;
mod runner_sim;

pub use check::LogViolation;
pub use driver::{
    AsyncPrefix, DecidedLog, InstanceRunner, LogConfig, LogDriver, LogReport, LogScenario, Outage,
    ShotAsync, ShotSpec,
};
pub use frontend::{ClientFrontend, IntakePolicy};
pub use runner_net::{NetProfile, SessionLogRunner};
pub use runner_sim::{compile_schedule, SimLogRunner};

use indulgent_consensus::{AfPlus2, AtPlus2, RotatingCoordinator};
use indulgent_model::{ProcessId, SystemConfig, Value};

/// The log's default slot algorithm: `A_{t+2}` over the rotating
/// coordinator fallback, with the Fig. 4 failure-free round-2 fast path.
pub type AtSlot = AtPlus2<RotatingCoordinator>;

/// Builds the per-replica [`AtSlot`] automaton factory (failure-free
/// optimization enabled — the round-2 fast path is what makes a healthy
/// pipelined log fast).
pub fn at_plus2_factory(
    config: SystemConfig,
) -> impl Fn(usize, Value) -> AtSlot + Clone + Send + Sync {
    move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
            .with_failure_free_optimization()
    }
}

/// The [`AtSlot`] instance-reset hook, shared by the simulator's
/// multi-shot executor and the runtime session's recycling pools.
pub fn at_plus2_reset() -> impl Fn(usize, &mut AtSlot, Value) + Clone + Send + Sync {
    |_i, p, v| p.reset_instance(v)
}

/// Builds the per-replica `A_{f+2}` automaton factory (requires
/// `t < n/3`): early decision at `f + 2` — slots pay for the crashes
/// that *happen*, not the crashes tolerated.
pub fn af_plus2_factory(
    config: SystemConfig,
) -> impl Fn(usize, Value) -> AfPlus2 + Clone + Send + Sync {
    move |i: usize, v: Value| AfPlus2::new(config, ProcessId::new(i), v)
}

/// The `A_{f+2}` instance-reset hook (simulator and recycling session).
pub fn af_plus2_reset() -> impl Fn(usize, &mut AfPlus2, Value) + Clone + Send + Sync {
    |_i, p, v| p.reset_instance(v)
}

/// Runs a full log workload on the deterministic simulator substrate
/// with the default `A_{t+2}` slot algorithm.
#[must_use]
pub fn run_log_sim(
    config: SystemConfig,
    log_config: LogConfig,
    scenario: LogScenario,
    frontend: ClientFrontend,
) -> LogReport {
    LogDriver::new(config, log_config, scenario, frontend).run(SimLogRunner::new(
        config,
        at_plus2_factory(config),
        at_plus2_reset(),
    ))
}

/// Runs a full log workload on the wall-clock session substrate with the
/// default `A_{t+2}` slot algorithm.
#[must_use]
pub fn run_log_session(
    config: SystemConfig,
    log_config: LogConfig,
    scenario: LogScenario,
    frontend: ClientFrontend,
    profile: NetProfile,
) -> LogReport {
    LogDriver::new(config, log_config, scenario, frontend).run(SessionLogRunner::recycling(
        config,
        at_plus2_factory(config),
        at_plus2_reset(),
        profile,
    ))
}

#[cfg(test)]
mod tests {
    use indulgent_model::Round;

    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::majority(5, 2).unwrap()
    }

    fn workload(batch: usize, commands: u64) -> ClientFrontend {
        let mut f = ClientFrontend::new(5, batch);
        f.submit_all(0..commands);
        f
    }

    fn shared_workload(batch: usize, commands: u64) -> ClientFrontend {
        let mut f = ClientFrontend::new(5, batch).with_intake(IntakePolicy::Shared);
        f.submit_all(0..commands);
        f
    }

    #[test]
    fn sim_log_commits_every_batch_failure_free() {
        let report = run_log_sim(
            cfg(),
            LogConfig::sequential(10).with_batch_size(2).with_pipeline_depth(1),
            LogScenario::failure_free(5),
            workload(2, 20),
        );
        report.check().unwrap();
        assert_eq!(report.committed_commands, 20);
        assert_eq!(report.noop_slots, 0);
        // Failure-free instances decide on the round-2 fast path.
        for row in &report.decisions {
            for d in row.iter().flatten() {
                assert_eq!(d.round, Round::new(2));
            }
        }
    }

    #[test]
    fn sim_log_pipelined_commits_every_batch() {
        for depth in [2u64, 4] {
            let report = run_log_sim(
                cfg(),
                LogConfig::sequential(12).with_batch_size(1).with_pipeline_depth(depth),
                LogScenario::failure_free(5),
                shared_workload(1, 12),
            );
            report.check().unwrap();
            assert_eq!(report.committed_commands, 12, "depth {depth}");
            assert_eq!(report.duplicate_slots, 0, "depth {depth}");
        }
    }

    #[test]
    fn sim_log_survives_permanent_crashes() {
        // p1 crashes mid-instance 3, p4 from instance 5: ≤ t = 2 total.
        let scenario =
            LogScenario::failure_free(5).crash(1, 3, Round::new(2)).crash(4, 5, Round::FIRST);
        let report = run_log_sim(
            cfg(),
            LogConfig::sequential(8).with_batch_size(2).with_pipeline_depth(2),
            scenario,
            workload(2, 40),
        );
        report.check().unwrap();
        // Correct replicas committed identical logs (checked), and every
        // slot still decided *something* despite the crashes.
        assert!(report.decided_values.iter().all(Option::is_some));
    }

    #[test]
    fn sim_log_survives_async_prefix() {
        let scenario = LogScenario::failure_free(5).with_asynchrony(AsyncPrefix {
            until_instance: 4,
            sync_from: 5,
            probability: 0.4,
            seed: 17,
        });
        let report = run_log_sim(
            cfg(),
            LogConfig::sequential(8).with_batch_size(1).with_pipeline_depth(2),
            scenario,
            workload(1, 8),
        );
        report.check().unwrap();
    }

    #[test]
    fn session_log_matches_sim_log_failure_free() {
        let log_config = LogConfig::sequential(6).with_batch_size(2).with_pipeline_depth(3);
        let sim = run_log_sim(cfg(), log_config, LogScenario::failure_free(5), workload(2, 12));
        let net = run_log_session(
            cfg(),
            log_config,
            LogScenario::failure_free(5),
            workload(2, 12),
            NetProfile::test_sized(),
        );
        sim.check().unwrap();
        net.check().unwrap();
        assert_eq!(sim.decided_values, net.decided_values);
        assert_eq!(sim.canonical, net.canonical);
    }

    #[test]
    fn af_plus2_log_runs_on_the_sim_substrate() {
        // A_{f+2} adopts majority values, so it needs the shared intake:
        // all replicas propose the same batch for the same slot.
        let config = SystemConfig::third(7, 2).unwrap();
        let mut frontend = ClientFrontend::new(7, 1).with_intake(IntakePolicy::Shared);
        frontend.submit_all(0..6);
        let driver = LogDriver::new(
            config,
            LogConfig::sequential(6),
            LogScenario::failure_free(7),
            frontend,
        );
        let report =
            driver.run(SimLogRunner::new(config, af_plus2_factory(config), af_plus2_reset()));
        report.check().unwrap();
        assert_eq!(report.committed_commands, 6);
        // f = 0 crashes: early decision at f + 2 = 2.
        for row in &report.decisions {
            for d in row.iter().flatten() {
                assert!(d.round <= Round::new(2));
            }
        }
    }
}
