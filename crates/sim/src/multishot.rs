//! Deterministic multi-shot executor: chained consensus instances on one
//! reusable [`RunState`].
//!
//! The one-shot executors of this crate decide a single value per run.
//! State-machine replication decides a *sequence*: instance `i` settles
//! log slot `i`, and the proposals of instance `i + 1` may depend on what
//! earlier instances decided. [`MultiShotRunner`] is the simulator-side
//! substrate for such chains: it runs instances back to back on a single
//! [`RunState`], rewinding it between instances with
//! [`RunState::reset_instance`] — mailbox rings, delivery scratch and the
//! automatons themselves are reused, so per-instance startup allocates
//! nothing once the first instance has warmed the buffers (the same
//! zero-allocation discipline the sweep engines rely on).
//!
//! The runner is deliberately policy-free: *which* proposals each instance
//! carries and *which* schedule adversary it faces are the caller's
//! decisions (the `indulgent-log` crate implements the replicated-log
//! batching/pipelining policy on top). What the runner fixes is the
//! execution semantics of one instance — identical to
//! [`run_schedule`](crate::run_schedule) on a fresh state, which the multi-shot
//! determinism tests assert instance by instance.
//!
//! # Permanent crashes
//!
//! A replicated-log crash is permanent: a replica that crashes in instance
//! `j` stays crashed for every instance after `j`. The runner does not
//! enforce this — schedules are caller-supplied — but
//! [`MultiShotRunner::run_instance`] is documented against that
//! convention: model a replica dead from the start of an instance with a
//! round-1 `crash_before_send` in that instance's schedule. The wall-clock
//! runtime's session applies the same convention on its side, which is
//! what makes runtime log executions differentially comparable to this
//! executor on crash-only scenarios.

use indulgent_model::{ProcessFactory, RoundProcess, RunOutcome, Value};

use crate::executor::{ExecutorError, RunState};
use crate::schedule::Schedule;

/// Runs a sequence of consensus instances on one recycled [`RunState`].
///
/// # Examples
///
/// ```
/// use indulgent_model::{Delivery, Round, RoundProcess, Step, SystemConfig, Value};
/// use indulgent_sim::{ModelKind, MultiShotRunner, Schedule};
///
/// /// Decides the minimum current-round value in round 1.
/// #[derive(Clone)]
/// struct MinOnce(Value);
/// impl RoundProcess for MinOnce {
///     type Msg = Value;
///     fn send(&mut self, _round: Round) -> Value { self.0 }
///     fn deliver(&mut self, _round: Round, d: &Delivery<Value>) -> Step {
///         Step::Decide(d.current().map(|m| m.msg).min().unwrap_or(self.0))
///     }
/// }
///
/// let cfg = SystemConfig::majority(3, 1)?;
/// let schedule = Schedule::failure_free(cfg, ModelKind::Es);
/// let mut runner = MultiShotRunner::new(cfg.n());
/// // Instance 1 proposes {4, 2, 9}; instance 2's proposals depend on it.
/// let first = runner.run_instance(
///     &|_i: usize, v: Value| MinOnce(v),
///     &mut |_i, p: &mut MinOnce, v| p.0 = v,
///     &[Value::new(4), Value::new(2), Value::new(9)],
///     &schedule,
///     5,
/// )?;
/// let decided = first.decisions[0].expect("decided").value;
/// let next: Vec<Value> = (0..3).map(|i| Value::new(decided.get() + i)).collect();
/// let second = runner.run_instance(
///     &|_i: usize, v: Value| MinOnce(v),
///     &mut |_i, p: &mut MinOnce, v| p.0 = v,
///     &next,
///     &schedule,
///     5,
/// )?;
/// assert_eq!(second.decisions[0].expect("decided").value, decided);
/// assert_eq!(runner.instances_run(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct MultiShotRunner<P: RoundProcess> {
    n: usize,
    state: Option<RunState<P>>,
    instances_run: u64,
}

impl<P: RoundProcess> MultiShotRunner<P> {
    /// Creates a runner for `n`-process instances. No state is allocated
    /// until the first [`run_instance`](MultiShotRunner::run_instance).
    #[must_use]
    pub fn new(n: usize) -> Self {
        MultiShotRunner { n, state: None, instances_run: 0 }
    }

    /// Number of instances executed so far.
    #[must_use]
    pub fn instances_run(&self) -> u64 {
        self.instances_run
    }

    /// Runs the next instance: `proposals` under `schedule` for at most
    /// `horizon` rounds, returning its outcome.
    ///
    /// The first call builds the automatons with `factory`; every later
    /// call rewinds the recycled state and re-fits the existing automatons
    /// with `reset` (an instance-reset hook) instead of rebuilding them.
    /// The outcome is identical to a fresh [`crate::run_schedule`] of the
    /// same instance, provided `reset` restores exactly the state
    /// `factory` would build — the contract of the core algorithms'
    /// `reset_instance` hooks.
    ///
    /// # Errors
    ///
    /// Returns [`ExecutorError::ProposalCountMismatch`] if
    /// `proposals.len() != n`.
    pub fn run_instance<F>(
        &mut self,
        factory: &F,
        reset: &mut impl FnMut(usize, &mut P, Value),
        proposals: &[Value],
        schedule: &Schedule,
        horizon: u32,
    ) -> Result<RunOutcome, ExecutorError>
    where
        F: ProcessFactory<Process = P>,
    {
        let state = match &mut self.state {
            Some(state) => {
                state.reset_instance(proposals, reset)?;
                state
            }
            None => self.state.insert(RunState::new(factory, proposals, self.n)?),
        };
        state.run_to(schedule, horizon);
        self.instances_run += 1;
        Ok(state.outcome(proposals, schedule))
    }
}

#[cfg(test)]
mod tests {
    use indulgent_model::{ProcessId, Round, SystemConfig};

    use super::*;
    use crate::builder::ScheduleBuilder;
    use crate::executor::run_schedule;
    use crate::schedule::ModelKind;
    use crate::trace::run_traced;

    /// Floods the minimum and decides at a fixed round (same probe as the
    /// executor tests).
    #[derive(Debug, Clone)]
    struct MinAfter {
        est: Value,
        rounds: u32,
        decided: bool,
    }

    impl RoundProcess for MinAfter {
        type Msg = Value;

        fn send(&mut self, _round: Round) -> Value {
            self.est
        }

        fn deliver(
            &mut self,
            round: Round,
            delivery: &indulgent_model::Delivery<Value>,
        ) -> indulgent_model::Step {
            for m in delivery.current() {
                self.est = self.est.min(m.msg);
            }
            if round.get() >= self.rounds && !self.decided {
                self.decided = true;
                indulgent_model::Step::Decide(self.est)
            } else {
                indulgent_model::Step::Continue
            }
        }
    }

    fn factory(rounds: u32) -> impl Fn(usize, Value) -> MinAfter {
        move |_i, v| MinAfter { est: v, rounds, decided: false }
    }

    fn reset(rounds: u32) -> impl FnMut(usize, &mut MinAfter, Value) {
        move |_i, p, v| {
            p.est = v;
            p.rounds = rounds;
            p.decided = false;
        }
    }

    fn cfg() -> SystemConfig {
        SystemConfig::majority(3, 1).unwrap()
    }

    fn vals(vs: &[u64]) -> Vec<Value> {
        vs.iter().copied().map(Value::new).collect()
    }

    #[test]
    fn chained_instances_match_fresh_runs() {
        let config = cfg();
        let schedules = [
            Schedule::failure_free(config, ModelKind::Es),
            ScheduleBuilder::new(config, ModelKind::Es)
                .crash_delivering_only(ProcessId::new(1), Round::FIRST, [ProcessId::new(0)])
                .build(6)
                .unwrap(),
            Schedule::failure_free(config, ModelKind::Es),
        ];
        let proposals = [vals(&[5, 3, 9]), vals(&[7, 8, 2]), vals(&[1, 1, 1])];

        let mut runner = MultiShotRunner::new(config.n());
        for (schedule, props) in schedules.iter().zip(&proposals) {
            let chained =
                runner.run_instance(&factory(2), &mut reset(2), props, schedule, 6).unwrap();
            let fresh = run_schedule(&factory(2), props, schedule, 6).unwrap();
            assert_eq!(chained, fresh, "recycled instance diverged from a fresh run");
        }
        assert_eq!(runner.instances_run(), 3);
    }

    #[test]
    fn instance_reset_discards_stale_delayed_messages() {
        // Instance 1 leaves a message in flight (delayed beyond the
        // executed horizon); the reset must drop it so instance 2 starts
        // with clean mailboxes.
        let config = cfg();
        let delayed = ScheduleBuilder::new(config, ModelKind::Es)
            .sync_from(Round::new(2))
            .delay(Round::FIRST, ProcessId::new(1), ProcessId::new(0), Round::new(5))
            .build(6)
            .unwrap();
        let flat = Schedule::failure_free(config, ModelKind::Es);

        let mut runner = MultiShotRunner::new(config.n());
        // Horizon 1: the delayed copy (arrival round 5) is still pending.
        let first = runner
            .run_instance(&factory(1), &mut reset(1), &vals(&[5, 3, 9]), &delayed, 1)
            .unwrap();
        assert_eq!(first.rounds_executed, 1);
        // Instance 2 must see no ghost of it: identical to a fresh traced
        // run, which records zero delayed arrivals in every round.
        let second =
            runner.run_instance(&factory(3), &mut reset(3), &vals(&[4, 6, 8]), &flat, 5).unwrap();
        let fresh = run_traced(&factory(3), &vals(&[4, 6, 8]), &flat, 5).unwrap();
        assert_eq!(&second, fresh.outcome());
        for k in 1..=second.rounds_executed {
            for p in config.processes() {
                let rec = fresh.record(Round::new(k), p).expect("completes");
                assert_eq!(rec.delayed_arrivals, 0);
            }
        }
    }

    #[test]
    fn proposal_arity_checked_on_reset_too() {
        let config = cfg();
        let schedule = Schedule::failure_free(config, ModelKind::Es);
        let mut runner = MultiShotRunner::new(config.n());
        runner.run_instance(&factory(1), &mut reset(1), &vals(&[1, 2, 3]), &schedule, 3).unwrap();
        let err = runner
            .run_instance(&factory(1), &mut reset(1), &vals(&[1, 2]), &schedule, 3)
            .unwrap_err();
        assert_eq!(err, ExecutorError::ProposalCountMismatch { expected: 3, got: 2 });
    }
}
