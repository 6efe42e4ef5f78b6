//! `FloodSetWS`: flooding with suspicion filtering (Charron-Bost,
//! Guerraoui & Schiper).
//!
//! The paper's `A_{t+2}` is "a variant of the FloodSetWS algorithm of [3],
//! modified for exchanging and tracking false suspicions". `FloodSetWS`
//! assumes a *perfect* failure detector P and achieves global decision at
//! round `t + 1` in every run: it floods estimates but only accounts for
//! senders the detector does not suspect.
//!
//! Crucially, `FloodSetWS` is **not** indulgent: fed with unreliable
//! suspicions (for example the delivery-derived suspicions of ES, where a
//! delayed message looks like a crash) it can violate agreement. That
//! failure is exactly the gap `A_{t+2}` closes by *exchanging* the
//! suspicion sets (`Halt`) and paying one extra round — and it is
//! demonstrated by the ablation test below and by `exp_baseline_comparison`.

use indulgent_fd::{FailureDetector, Suspicion};
use indulgent_model::{
    Delivery, ProcessId, ProcessSet, Round, RoundProcess, Step, SystemConfig, Value,
};

/// The FloodSetWS automaton, generic over its suspicion source.
///
/// With [`Suspicion::Detector`] on a [`indulgent_fd::PerfectDetector`] this
/// is the algorithm of \[3\]; with [`Suspicion::Derived`] it becomes the
/// naive "FloodSet in ES" strawman used as an ablation.
#[derive(Debug, Clone)]
pub struct FloodSetWs<D> {
    id: ProcessId,
    n: usize,
    decide_round: Round,
    est: Value,
    halted: ProcessSet,
    suspicion: Suspicion<D>,
    decided: bool,
}

impl<D: FailureDetector> FloodSetWs<D> {
    /// Creates the automaton for process `id` proposing `proposal`, taking
    /// suspicions from `suspicion`.
    #[must_use]
    pub fn new(
        config: SystemConfig,
        id: ProcessId,
        proposal: Value,
        suspicion: Suspicion<D>,
    ) -> Self {
        FloodSetWs {
            id,
            n: config.n(),
            decide_round: Round::new(config.t() as u32 + 1),
            est: proposal,
            halted: ProcessSet::empty(),
            suspicion,
            decided: false,
        }
    }

    /// Processes this automaton has (cumulatively) suspected.
    #[must_use]
    pub fn halted(&self) -> ProcessSet {
        self.halted
    }
}

impl<D: FailureDetector> RoundProcess for FloodSetWs<D> {
    type Msg = Value;

    fn send(&mut self, _round: Round) -> Value {
        self.est
    }

    fn deliver(&mut self, round: Round, delivery: &Delivery<Value>) -> Step {
        let absent = delivery.suspected(self.n);
        let suspected = self.suspicion.suspects(self.id, round, absent);
        self.halted = self.halted.union(suspected);
        for m in delivery.current() {
            if !self.halted.contains(m.sender) {
                self.est = self.est.min(m.msg);
            }
        }
        if round >= self.decide_round && !self.decided {
            self.decided = true;
            Step::Decide(self.est)
        } else {
            Step::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use indulgent_fd::{CrashInfo, NoDetector, PerfectDetector};
    use indulgent_model::ProcessFactory;
    use indulgent_sim::{run_schedule, ModelKind, Schedule, ScheduleBuilder};

    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::majority(5, 2).unwrap()
    }

    fn vals(vs: &[u64]) -> Vec<Value> {
        vs.iter().copied().map(Value::new).collect()
    }

    fn perfect_factory(
        config: SystemConfig,
        schedule: &Schedule,
    ) -> impl ProcessFactory<Process = FloodSetWs<PerfectDetector>> {
        let info = CrashInfo::new(config.processes().map(|p| schedule.crash_round(p)).collect());
        move |i: usize, v: Value| {
            FloodSetWs::new(
                config,
                ProcessId::new(i),
                v,
                Suspicion::Detector(PerfectDetector::new(info.clone())),
            )
        }
    }

    fn derived_factory(
        config: SystemConfig,
    ) -> impl ProcessFactory<Process = FloodSetWs<NoDetector>> {
        move |i: usize, v: Value| FloodSetWs::new(config, ProcessId::new(i), v, Suspicion::Derived)
    }

    #[test]
    fn with_perfect_detector_decides_at_t_plus_one() {
        let schedule = Schedule::failure_free(cfg(), ModelKind::Es);
        let factory = perfect_factory(cfg(), &schedule);
        let outcome = run_schedule(&factory, &vals(&[6, 2, 8, 4, 7]), &schedule, 10)
            .expect("one proposal per process");
        outcome.check_consensus().unwrap();
        assert_eq!(outcome.global_decision_round(), Some(Round::new(3))); // t + 1
    }

    #[test]
    fn with_perfect_detector_survives_serial_crashes() {
        let config = cfg();
        let mut runs = 0;
        let _ = indulgent_sim::for_each_serial_schedule(config, ModelKind::Es, 3, |schedule| {
            let factory = perfect_factory(config, schedule);
            let outcome = run_schedule(&factory, &vals(&[6, 2, 8, 4, 7]), schedule, 10)
                .expect("one proposal per process");
            outcome.check_consensus().unwrap();
            runs += 1;
            if runs > 3000 {
                return std::ops::ControlFlow::Break(());
            }
            std::ops::ControlFlow::Continue(())
        });
        assert!(runs > 1000);
    }

    #[test]
    fn ablation_derived_suspicions_violate_agreement_in_es() {
        // The strawman: FloodSetWS fed with delivery-derived suspicions in
        // an ES run with false suspicions. The minimum-holder p1 is falsely
        // suspected by *everyone* in round 1 (its messages are delayed).
        // From then on every other process filters p1's estimates through
        // its `halted` set, so p1's value 2 never spreads — yet p1 itself
        // keeps it and decides 2 at round t + 1, while the others decide 4:
        // uniform agreement is violated. This is exactly the failure mode
        // `A_{t+2}` repairs by exchanging the suspicion sets.
        let config = cfg();
        let mut builder = ScheduleBuilder::new(config, ModelKind::Es).sync_from(Round::new(4));
        for receiver in [0usize, 2, 3, 4] {
            builder = builder.delay(
                Round::FIRST,
                ProcessId::new(1),
                ProcessId::new(receiver),
                Round::new(4),
            );
        }
        let schedule = builder.build(10).unwrap();
        let split = run_schedule(&derived_factory(config), &vals(&[6, 2, 8, 4, 7]), &schedule, 10)
            .expect("one proposal per process");
        assert!(
            split.check_safety().is_err(),
            "derived-suspicion FloodSetWS should violate agreement: {split:?}"
        );
        assert_eq!(split.decision_of(ProcessId::new(1)).unwrap().value, Value::new(2));
        assert_eq!(split.decision_of(ProcessId::new(0)).unwrap().value, Value::new(4));
    }

    #[test]
    fn derived_suspicions_are_safe_in_synchronous_runs() {
        // Without false suspicions (synchronous run), the derived variant
        // behaves like FloodSet with perfect information and stays safe.
        let config = cfg();
        let schedule = ScheduleBuilder::new(config, ModelKind::Es)
            .crash_delivering_only(ProcessId::new(1), Round::FIRST, [ProcessId::new(0)])
            .build(10)
            .unwrap();
        let outcome =
            run_schedule(&derived_factory(config), &vals(&[6, 2, 8, 4, 7]), &schedule, 10)
                .expect("one proposal per process");
        outcome.check_consensus().unwrap();
    }
}
