//! The wall-clock substrate: log instances pipelined over a reusable
//! runtime [`Session`].
//!
//! The session runs on the caller's thread: every instance registers its
//! proposals, and the driver's waits step the replicas of every instance
//! in flight, resetting automatons that earlier instances retired. A
//! pipelined log thus keeps its whole window of instances in flight on
//! one thread, under the session's delay model (the runtime's module
//! docs label this as a model). Each instance replays its [`ShotSpec`]'s
//! schedule, crashes and message fates applied by round, which over
//! instant links keeps executions value- and round-identical to the
//! deterministic [`SimLogRunner`](crate::SimLogRunner) at any pipeline
//! depth.

use std::sync::Arc;
use std::time::Duration;

use indulgent_model::{Decision, ProcessFactory, RoundProcess, SystemConfig, Value};
use indulgent_runtime::{DelayModel, InstanceSpec, Session};

use crate::driver::{InstanceRunner, ShotSpec};

/// Network timing of a session-backed log run.
#[derive(Debug, Clone, Copy)]
pub struct NetProfile {
    /// Straggler grace window per round (see `indulgent_runtime`).
    pub grace: Duration,
    /// Latency of the replica links.
    pub base_delays: DelayModel,
    /// Unread: a message the asynchronous prefix delays arrives in the
    /// round its schedule names, whatever the clock. The field stays while
    /// the benchmark package builds the profile field by field.
    pub chaos_delay: Duration,
}

impl NetProfile {
    /// Test-sized defaults: 4 ms grace, instant links.
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
    /// The spec every start points at its shot's schedule.
    spec: InstanceSpec,
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
            spec: InstanceSpec::synchronous(config).with_delays(profile.base_delays),
            started: 0,
        }
    }
}

impl<P: RoundProcess> InstanceRunner for SessionLogRunner<P> {
    fn start(&mut self, instance: u64, proposals: &[Value], spec: &ShotSpec) {
        self.spec.schedule = Arc::clone(&spec.schedule);
        self.spec.max_rounds = spec.max_rounds;
        let id = self.session.start_instance_recycled(proposals, &self.spec);
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
