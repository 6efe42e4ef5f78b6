//! The simulator substrate: log instances on the deterministic
//! [`MultiShotRunner`].
//!
//! Each [`ShotSpec`]'s schedule (see [`compile_schedule`]) is executed
//! on one recycled `RunState` via the algorithms' instance-reset hooks.
//! Execution is fully deterministic: the same scenario always yields the
//! same decided log, which is the reference the runtime differential
//! tests pin the wall-clock [`SessionLogRunner`](crate::SessionLogRunner)
//! against.

use indulgent_model::{
    Decision, ProcessFactory, ProcessId, Round, RoundProcess, RunOutcome, SplitMix64, SystemConfig,
    Value,
};
use indulgent_sim::{ModelKind, MultiShotRunner, Schedule, ScheduleBuilder};

use crate::driver::{InstanceRunner, LogScenario, ShotSpec};

/// Deterministic log substrate over the simulator's multi-shot executor.
#[derive(Debug)]
pub struct SimLogRunner<P, F, Rst>
where
    P: RoundProcess,
{
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
        let outcome = self
            .runner
            .run_instance(
                &self.factory,
                &mut self.reset,
                proposals,
                &spec.schedule,
                spec.max_rounds,
            )
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

/// Compiles instance `instance` of `scenario` into a validated simulator
/// [`Schedule`]: the one adversary both substrates replay.
///
/// An outage covering the instance becomes a `crash_before_send` at its
/// crash round in its first instance and at round 1 in every later
/// covered one. Inside the asynchronous prefix, each round `k < sync_from`
/// delays a seeded subset of every receiver's messages (an edge coin per
/// `(instance seed, k, sender, receiver)`) to the synchrony round, capped
/// at the round's remaining `t`-resilience budget (`t` minus the replicas
/// already crashed) and never involving a crashing replica, so the
/// schedule always validates.
#[must_use]
pub fn compile_schedule(
    config: SystemConfig,
    scenario: &LogScenario,
    instance: u64,
    max_rounds: u32,
) -> Schedule {
    let crashes: Vec<Option<Round>> =
        (0..config.n()).map(|r| scenario.down_round(r, instance)).collect();
    let mut builder = ScheduleBuilder::new(config, ModelKind::Es);
    for (r, crash) in crashes.iter().enumerate() {
        if let Some(round) = crash {
            builder = builder.crash_before_send(ProcessId::new(r), *round);
        }
    }
    if let Some(chaos) = scenario.asynchrony.filter(|a| instance < a.until_instance) {
        let seed = chaos.seed.wrapping_add(instance.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // The per-message coin: the first draw of the stream seeded by the
        // message's coordinates.
        let coin = |k: u32, from: ProcessId, to: ProcessId| {
            let at = (u64::from(k) << 32) ^ ((from.index() as u64) << 16) ^ (to.index() as u64);
            SplitMix64::new(seed ^ at).next_unit()
        };
        let arrival = Round::new(chaos.sync_from);
        builder = builder.sync_from(arrival);
        for k in 1..chaos.sync_from {
            let crashed_by_k = crashes.iter().filter(|c| c.is_some_and(|r| r.get() <= k)).count();
            // Per-receiver delay budget of round k: the receiver must
            // still get `n - t` on-time messages alongside the round's
            // crashed senders.
            let budget = config.t().saturating_sub(crashed_by_k);
            if budget == 0 {
                continue;
            }
            for receiver in config.processes() {
                if crashes[receiver.index()].is_some() {
                    continue;
                }
                let mut delayed = 0usize;
                for sender in config.processes() {
                    if sender == receiver || crashes[sender.index()].is_some() {
                        continue;
                    }
                    if delayed >= budget {
                        break;
                    }
                    if coin(k, sender, receiver) < chaos.probability {
                        builder = builder.delay(Round::new(k), sender, receiver, arrival);
                        delayed += 1;
                    }
                }
            }
        }
    }
    builder.build(max_rounds).expect("compiled log schedules respect the model constraints")
}

#[cfg(test)]
mod tests {
    use crate::driver::AsyncPrefix;

    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::majority(5, 2).unwrap()
    }

    #[test]
    fn crash_only_specs_compile_to_valid_schedules() {
        let scenario =
            LogScenario::failure_free(5).crash(1, 1, Round::new(2)).crash(3, 1, Round::FIRST);
        let schedule = compile_schedule(cfg(), &scenario, 1, 30);
        assert!(schedule.faulty().contains(ProcessId::new(1)));
        assert!(schedule.faulty().contains(ProcessId::new(3)));
    }

    #[test]
    fn chaotic_specs_compile_within_the_resilience_budget() {
        for seed in 0..50u64 {
            let prefix = AsyncPrefix { until_instance: 3, sync_from: 5, probability: 0.6, seed };
            let scenario =
                LogScenario::failure_free(5).crash(4, 1, Round::new(2)).with_asynchrony(prefix);
            // `compile_schedule` expects validation to succeed; a budget
            // bug would panic here.
            for instance in 1..=3 {
                let _ = compile_schedule(cfg(), &scenario, instance, 40);
            }
        }
    }

    #[test]
    fn compilation_is_deterministic() {
        let prefix = AsyncPrefix { until_instance: 2, sync_from: 4, probability: 0.5, seed: 11 };
        let scenario = LogScenario::failure_free(5).with_asynchrony(prefix);
        let a = compile_schedule(cfg(), &scenario, 1, 40);
        let b = compile_schedule(cfg(), &scenario, 1, 40);
        assert_eq!(a, b);
    }

    #[test]
    fn async_prefix_streams_are_pinned() {
        // The schedules of seeds 0..20, folded into one fingerprint: an
        // edge coin that changes a single draw fails here.
        let pin = (0..20u64).fold(0u64, |h, seed| {
            let prefix = AsyncPrefix { until_instance: 4, sync_from: 5, probability: 0.6, seed };
            let scenario =
                LogScenario::failure_free(5).crash(4, 2, Round::new(2)).with_asynchrony(prefix);
            (1..=3).fold(h, |h, j| {
                h.rotate_left(7) ^ compile_schedule(cfg(), &scenario, j, 60).fingerprint()
            })
        });
        assert_eq!(pin, 0xc577_396a_4786_171b);
    }
}
