//! The wall-clock substrate: log instances pipelined over a reusable
//! runtime [`Session`].
//!
//! Threads and channels are spawned once per runner; every instance ships
//! its automatons to the existing workers as a job, so a pipelined log
//! keeps up to `W` instances racing concurrently on the same threads.
//! Crash specs use the session's logical per-instance semantics
//! (silent from the crash round of the crash instance on), which keeps
//! crash-only executions value-identical to the deterministic
//! [`SimLogRunner`](crate::SimLogRunner) at any pipeline depth.

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
pub struct SessionLogRunner<P, F>
where
    P: RoundProcess + Send + 'static,
    P::Msg: Send + 'static,
{
    config: SystemConfig,
    session: Session<P>,
    factory: F,
    profile: NetProfile,
    started: u64,
    /// Whether the session recycles retired automatons (proposal-only
    /// jobs); `false` builds fresh via `factory` per instance.
    recycled: bool,
}

impl<P, F> SessionLogRunner<P, F>
where
    P: RoundProcess + Send + 'static,
    P::Msg: Send + 'static,
    F: ProcessFactory<Process = P>,
{
    /// Spawns the session threads; `factory` builds one automaton per
    /// `(replica, proposal)` for every instance.
    #[must_use]
    pub fn new(config: SystemConfig, factory: F, profile: NetProfile) -> Self {
        SessionLogRunner {
            config,
            session: Session::with_grace(config, profile.grace),
            factory,
            profile,
            started: 0,
            recycled: false,
        }
    }
}

impl<P, F> SessionLogRunner<P, F>
where
    P: RoundProcess + Send + 'static,
    P::Msg: Send + 'static,
    F: ProcessFactory<Process = P> + Clone + Send + Sync + 'static,
{
    /// Spawns a *recycling* session: retired automatons are reset in
    /// place through `reset` for the next instance instead of being
    /// rebuilt — the same `reset_instance` contract the simulator's
    /// multi-shot executor uses, now on the runtime substrate. `factory`
    /// only covers cold starts (the first `W` instances of a pipeline of
    /// depth `W`, or bursts that outrun retirement).
    #[must_use]
    pub fn recycling<R>(config: SystemConfig, factory: F, reset: R, profile: NetProfile) -> Self
    where
        R: Fn(usize, &mut P, Value) + Send + Sync + 'static,
    {
        let build = factory.clone();
        SessionLogRunner {
            config,
            session: Session::with_recycler(
                config,
                profile.grace,
                move |i, v| build.build(i, v),
                reset,
            ),
            factory,
            profile,
            started: 0,
            recycled: true,
        }
    }
}

impl<P, F> InstanceRunner for SessionLogRunner<P, F>
where
    P: RoundProcess + Send + 'static,
    P::Msg: Send + 'static,
    F: ProcessFactory<Process = P>,
{
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
        let id = if self.recycled {
            self.session.start_instance_recycled(proposals, &session_spec)
        } else {
            let processes: Vec<P> =
                proposals.iter().enumerate().map(|(i, &v)| self.factory.build(i, v)).collect();
            self.session.start_instance(processes, &session_spec)
        };
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

// `config` is carried for symmetry with the sim runner and future
// profile-dependent decisions; keep the accessor public instead of a
// dead field.
impl<P, F> SessionLogRunner<P, F>
where
    P: RoundProcess + Send + 'static,
    P::Msg: Send + 'static,
{
    /// The system configuration this runner's session serves.
    #[must_use]
    pub fn config(&self) -> SystemConfig {
        self.config
    }
}
