//! The wall-clock substrate: log instances pipelined over a reusable
//! runtime [`Session`].
//!
//! The session runs on the caller's thread: every instance registers its
//! proposals, and the driver's waits step the replicas of every instance
//! in flight, resetting automatons that earlier instances retired. A
//! pipelined log thus keeps its whole window of instances in flight on
//! one thread, under the session's delay model (the runtime's module
//! docs label this as a model). Crash specs use the session's logical
//! per-instance semantics (silent from the crash round of the crash
//! instance on), which keeps crash-only executions value-identical to the
//! deterministic [`SimLogRunner`](crate::SimLogRunner) at any pipeline
//! depth.

use std::time::Duration;

use indulgent_model::{Decision, ProcessFactory, RoundProcess, SystemConfig, Value};
use indulgent_runtime::{DelayModel, InstanceSpec, Session};

use crate::driver::{InstanceRunner, ShotSpec};

/// Network timing of a session-backed log run.
#[derive(Debug, Clone, Copy)]
pub struct NetProfile {
    /// Straggler grace window per round (see `indulgent_runtime`).
    pub grace: Duration,
    /// Delay model of instances outside the asynchronous prefix.
    pub base_delays: DelayModel,
    /// Extra latency of a delayed message inside the asynchronous prefix
    /// (must exceed `grace` to actually cause false suspicions).
    pub chaos_delay: Duration,
}

impl NetProfile {
    /// Test-sized defaults: 4 ms grace, instant synchronous delivery,
    /// 30 ms chaos delays.
    #[must_use]
    pub fn test_sized() -> Self {
        NetProfile {
            grace: Duration::from_millis(4),
            base_delays: DelayModel::Instant,
            chaos_delay: Duration::from_millis(30),
        }
    }
}

/// Wall-clock log substrate over one reusable [`Session`].
#[derive(Debug)]
pub struct SessionLogRunner<P: RoundProcess> {
    session: Session<P>,
    profile: NetProfile,
    started: u64,
}

impl<P: RoundProcess> SessionLogRunner<P> {
    /// A runner over a fresh session. Retired automatons are reset in
    /// place through `reset` for the next instance instead of being
    /// rebuilt — the same `reset_instance` contract the simulator's
    /// multi-shot executor uses, on the runtime substrate. `factory` only
    /// covers cold starts (the first instances, up to the pipeline depth,
    /// or bursts that outrun retirement).
    #[must_use]
    pub fn recycling<F, R>(config: SystemConfig, factory: F, reset: R, profile: NetProfile) -> Self
    where
        F: ProcessFactory<Process = P> + 'static,
        R: Fn(usize, &mut P, Value) + 'static,
    {
        let build = move |i, v| factory.build(i, v);
        SessionLogRunner {
            session: Session::with_recycler(config, profile.grace, build, reset),
            profile,
            started: 0,
        }
    }
}

impl<P: RoundProcess> InstanceRunner for SessionLogRunner<P> {
    fn start(&mut self, instance: u64, proposals: &[Value], spec: &ShotSpec) {
        let delays = match spec.asynchrony {
            Some(chaos) => DelayModel::AsyncUntil {
                until_round: chaos.sync_from,
                delay: self.profile.chaos_delay,
                probability: chaos.probability,
                seed: chaos.seed,
            },
            None => self.profile.base_delays,
        };
        let session_spec =
            InstanceSpec { crashes: spec.crashes.clone(), delays, max_rounds: spec.max_rounds };
        let id = self.session.start_instance_recycled(proposals, &session_spec);
        assert_eq!(id, instance, "session instance ids track the driver's");
        self.started = self.started.max(instance);
    }

    fn wait_decided(&mut self, instance: u64) -> Option<Decision> {
        self.session.wait_decision(instance)
    }

    fn finish(mut self) -> Vec<Vec<Option<Decision>>> {
        (1..=self.started).map(|i| self.session.wait_instance(i).decisions).collect()
    }
}
