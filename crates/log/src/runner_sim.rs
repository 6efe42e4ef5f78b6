//! The simulator substrate: log instances on the deterministic
//! [`MultiShotRunner`].
//!
//! Each [`ShotSpec`] is compiled into a validated adversary [`Schedule`]
//! — permanent crashes become `crash_before_send` entries, the
//! asynchronous prefix becomes seeded per-edge message delays within the
//! model's `t`-resilience budget — and executed on one recycled
//! `RunState` via the algorithms' instance-reset hooks. Execution is
//! fully deterministic: the same scenario always yields the same decided
//! log, which is the reference the runtime differential tests pin the
//! wall-clock [`SessionLogRunner`](crate::SessionLogRunner) against.

use indulgent_model::{
    Decision, ProcessFactory, ProcessId, Round, RoundProcess, RunOutcome, SystemConfig, Value,
};
use indulgent_runtime::edge_coin;
use indulgent_sim::{ModelKind, MultiShotRunner, Schedule, ScheduleBuilder};

use crate::driver::{InstanceRunner, ShotSpec};

/// Deterministic log substrate over the simulator's multi-shot executor.
#[derive(Debug)]
pub struct SimLogRunner<P, F, Rst>
where
    P: RoundProcess,
{
    config: SystemConfig,
    runner: MultiShotRunner<P>,
    factory: F,
    reset: Rst,
    outcomes: Vec<RunOutcome>,
}

impl<P, F, Rst> SimLogRunner<P, F, Rst>
where
    P: RoundProcess,
    F: ProcessFactory<Process = P>,
    Rst: FnMut(usize, &mut P, Value),
{
    /// Creates the substrate: `factory` builds the automatons once,
    /// `reset` re-fits them per instance (the core `reset_instance`
    /// hooks).
    #[must_use]
    pub fn new(config: SystemConfig, factory: F, reset: Rst) -> Self {
        SimLogRunner {
            config,
            runner: MultiShotRunner::new(config.n()),
            factory,
            reset,
            outcomes: Vec::new(),
        }
    }
}

impl<P, F, Rst> InstanceRunner for SimLogRunner<P, F, Rst>
where
    P: RoundProcess,
    F: ProcessFactory<Process = P>,
    Rst: FnMut(usize, &mut P, Value),
{
    fn start(&mut self, instance: u64, proposals: &[Value], spec: &ShotSpec) {
        debug_assert_eq!(instance, self.outcomes.len() as u64 + 1, "instances start in order");
        let schedule = compile_schedule(self.config, spec);
        let outcome = self
            .runner
            .run_instance(&self.factory, &mut self.reset, proposals, &schedule, spec.max_rounds)
            .expect("one proposal per replica");
        self.outcomes.push(outcome);
    }

    fn wait_decided(&mut self, instance: u64) -> Option<Decision> {
        self.outcomes[(instance - 1) as usize].decisions.iter().flatten().next().copied()
    }

    fn finish(self) -> Vec<Vec<Option<Decision>>> {
        self.outcomes.into_iter().map(|o| o.decisions).collect()
    }
}

/// Compiles a substrate-neutral [`ShotSpec`] into a validated simulator
/// [`Schedule`].
///
/// Crash rounds map 1:1 onto `crash_before_send`. The asynchronous prefix
/// delays, per round `k < sync_from` and per receiver, a seeded subset of
/// the senders' messages to arrive at the synchrony round — capped at the
/// round's remaining `t`-resilience budget (`t` minus the replicas
/// already crashed), and never involving a crashing replica, so the
/// schedule always validates.
#[must_use]
pub fn compile_schedule(config: SystemConfig, spec: &ShotSpec) -> Schedule {
    let mut builder = ScheduleBuilder::new(config, ModelKind::Es);
    for (r, crash) in spec.crashes.iter().enumerate() {
        if let Some(round) = crash {
            builder = builder.crash_before_send(ProcessId::new(r), *round);
        }
    }
    if let Some(chaos) = spec.asynchrony {
        builder = builder.sync_from(Round::new(chaos.sync_from));
        let arrival = Round::new(chaos.sync_from);
        for k in 1..chaos.sync_from {
            let crashed_by_k =
                spec.crashes.iter().filter(|c| c.is_some_and(|r| r.get() <= k)).count();
            // Per-receiver delay budget of round k: the receiver must
            // still get `n - t` on-time messages alongside the round's
            // crashed senders.
            let budget = config.t().saturating_sub(crashed_by_k);
            if budget == 0 {
                continue;
            }
            for receiver in config.processes() {
                if spec.crashes[receiver.index()].is_some() {
                    continue;
                }
                let mut delayed = 0usize;
                for sender in config.processes() {
                    if sender == receiver || spec.crashes[sender.index()].is_some() {
                        continue;
                    }
                    if delayed >= budget {
                        break;
                    }
                    if edge_coin(chaos.seed, k, sender, receiver) < chaos.probability {
                        builder = builder.delay(Round::new(k), sender, receiver, arrival);
                        delayed += 1;
                    }
                }
            }
        }
    }
    builder.build(spec.max_rounds).expect("compiled log schedules respect the model constraints")
}

#[cfg(test)]
mod tests {
    use crate::driver::ShotAsync;

    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::majority(5, 2).unwrap()
    }

    #[test]
    fn crash_only_specs_compile_to_valid_schedules() {
        let spec = ShotSpec {
            crashes: vec![None, Some(Round::new(2)), None, Some(Round::FIRST), None],
            asynchrony: None,
            max_rounds: 30,
        };
        let schedule = compile_schedule(cfg(), &spec);
        assert!(schedule.faulty().contains(ProcessId::new(1)));
        assert!(schedule.faulty().contains(ProcessId::new(3)));
    }

    #[test]
    fn chaotic_specs_compile_within_the_resilience_budget() {
        for seed in 0..50u64 {
            let spec = ShotSpec {
                crashes: vec![None, None, None, None, Some(Round::new(2))],
                asynchrony: Some(ShotAsync { sync_from: 5, probability: 0.6, seed }),
                max_rounds: 40,
            };
            // `compile_schedule` expects validation to succeed; a budget
            // bug would panic here.
            let _ = compile_schedule(cfg(), &spec);
        }
    }

    #[test]
    fn compilation_is_deterministic() {
        let spec = ShotSpec {
            crashes: vec![None; 5],
            asynchrony: Some(ShotAsync { sync_from: 4, probability: 0.5, seed: 11 }),
            max_rounds: 40,
        };
        let a = compile_schedule(cfg(), &spec);
        let b = compile_schedule(cfg(), &spec);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
