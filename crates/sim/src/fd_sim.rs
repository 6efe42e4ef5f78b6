//! The paper's Sect. 4 construction: simulating a failure detector from ES.
//!
//! "To simulate a round-based model enriched with ◇P or ◇S from ES, we give
//! a possible output of the failure detector for every run in ES: … on
//! receiving messages of round k, the simulated failure detector output is
//! changed to the set of processes from which no message was received in
//! round k."
//!
//! [`ScheduleDetector`] computes that output directly from a [`Schedule`]
//! — the set of senders whose round-`k` message does not reach the observer
//! in round `k` — so it can be handed to the `A_◇S` variant (or any other
//! detector-driven algorithm) and *exactly* reproduces the suspicions the
//! derived-suspicion variant would see under the same schedule. The tests
//! verify the paper's claim that this output satisfies the ◇P properties:
//! strong completeness, and eventual strong accuracy from the synchrony
//! round on.

use indulgent_fd::FailureDetector;
use indulgent_model::{ProcessId, ProcessSet, Round};

use crate::schedule::{MessageFate, Schedule};

/// A failure detector whose output is derived from an adversary schedule
/// per the paper's Sect. 4 (suspect exactly the processes whose
/// current-round message does not arrive in the current round).
#[derive(Debug, Clone)]
pub struct ScheduleDetector {
    schedule: Schedule,
}

impl ScheduleDetector {
    /// Builds the detector for `schedule`.
    #[must_use]
    pub fn new(schedule: Schedule) -> Self {
        ScheduleDetector { schedule }
    }

    /// The underlying schedule.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }
}

impl FailureDetector for ScheduleDetector {
    fn suspects(&mut self, observer: ProcessId, round: Round) -> ProcessSet {
        let config = self.schedule.config();
        let mut out = ProcessSet::empty();
        for sender in config.processes() {
            if sender == observer {
                continue;
            }
            let absent = !self.schedule.alive_entering(sender, round)
                || self.schedule.fate(round, sender, observer) != MessageFate::Deliver;
            if absent {
                out.insert(sender);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::ops::ControlFlow;

    use indulgent_model::SystemConfig;

    use super::*;
    use crate::builder::ScheduleBuilder;
    use crate::schedule::ModelKind;

    fn cfg() -> SystemConfig {
        SystemConfig::majority(5, 2).unwrap()
    }

    #[test]
    fn failure_free_schedule_never_suspects() {
        let mut d = ScheduleDetector::new(Schedule::failure_free(cfg(), ModelKind::Es));
        for k in 1..=10 {
            for p in cfg().processes() {
                assert!(d.suspects(p, Round::new(k)).is_empty());
            }
        }
    }

    #[test]
    fn strong_completeness_holds() {
        // A crashed process is suspected by every alive observer from the
        // round after its crash (and possibly in the crash round itself,
        // depending on message fates).
        let schedule = ScheduleBuilder::new(cfg(), ModelKind::Es)
            .crash_after_send(ProcessId::new(1), Round::new(2))
            .build(10)
            .unwrap();
        let mut d = ScheduleDetector::new(schedule);
        // Crash round: message was delivered, so no suspicion yet.
        assert!(!d.suspects(ProcessId::new(0), Round::new(2)).contains(ProcessId::new(1)));
        // Every later round: permanently suspected.
        for k in 3..=10 {
            assert!(d.suspects(ProcessId::new(0), Round::new(k)).contains(ProcessId::new(1)));
        }
    }

    #[test]
    fn eventual_strong_accuracy_from_the_synchrony_round() {
        // Delays before K cause false suspicions; from K on, correct
        // processes are never suspected (the paper's ◇P argument).
        let schedule = ScheduleBuilder::new(cfg(), ModelKind::Es)
            .sync_from(Round::new(4))
            .delay(Round::new(1), ProcessId::new(1), ProcessId::new(0), Round::new(4))
            .delay(Round::new(2), ProcessId::new(2), ProcessId::new(3), Round::new(4))
            .build(10)
            .unwrap();
        let mut d = ScheduleDetector::new(schedule);
        // False suspicion during the asynchronous prefix.
        assert!(d.suspects(ProcessId::new(0), Round::new(1)).contains(ProcessId::new(1)));
        assert!(d.suspects(ProcessId::new(3), Round::new(2)).contains(ProcessId::new(2)));
        // Nobody is faulty, so from K = 4 on the output is empty.
        for k in 4..=10 {
            for p in cfg().processes() {
                assert!(
                    d.suspects(p, Round::new(k)).is_empty(),
                    "false suspicion after the synchrony round ({p}, round {k})"
                );
            }
        }
    }

    #[test]
    fn detector_matches_derived_suspicion_behaviour() {
        use indulgent_consensus::{AtPlus2, RotatingCoordinator};
        use indulgent_model::Value;

        // A_◇S driven by the Sect. 4 simulated detector behaves exactly
        // like the derived-suspicion A_{t+2} under the same schedule: same
        // decisions, same rounds.
        let config = cfg();
        let schedule = ScheduleBuilder::new(config, ModelKind::Es)
            .crash_delivering_only(ProcessId::new(1), Round::new(1), [ProcessId::new(0)])
            .build(30)
            .unwrap();
        let props: Vec<Value> = [6u64, 2, 8, 4, 7].map(Value::new).to_vec();

        let derived = move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
        };
        let a = crate::run_schedule(&derived, &props, &schedule, 30).unwrap();

        let sched2 = schedule.clone();
        let with_detector = move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::with_detector(
                config,
                id,
                v,
                RotatingCoordinator::new(config, id),
                ScheduleDetector::new(sched2.clone()),
            )
        };
        let b = crate::run_schedule(&with_detector, &props, &schedule, 30).unwrap();
        assert_eq!(a.decisions, b.decisions);
    }

    /// Sweeps the whole serial-schedule space and checks the detector's
    /// ◇P properties in *every* schedule: strong completeness (a crashed
    /// process is permanently suspected from the round after its crash)
    /// and, since serial schedules are synchronous, strong accuracy (a
    /// suspicion implies the sender's message really did not arrive: it
    /// crashed by the current round).
    #[test]
    fn detector_properties_hold_over_a_swept_batch() {
        use crate::serial::for_each_serial_schedule;

        let config = SystemConfig::majority(5, 2).unwrap();
        let horizon = 3u32;
        let mut swept = 0u64;
        let _ = for_each_serial_schedule(config, ModelKind::Es, horizon, |schedule| {
            let mut d = ScheduleDetector::new(schedule.clone());
            for k in 1..=horizon + 2 {
                let round = Round::new(k);
                for observer in config.processes() {
                    if !schedule.completes(observer, round) {
                        continue;
                    }
                    let suspects = d.suspects(observer, round);
                    for target in config.processes() {
                        let crashed_by_now =
                            schedule.crash_round(target).is_some_and(|r| r < round);
                        assert!(
                            !crashed_by_now || suspects.contains(target),
                            "completeness: {observer} trusts crashed {target} at {round}"
                        );
                        let crashed_ever = schedule.crash_round(target).is_some();
                        assert!(
                            crashed_ever || !suspects.contains(target),
                            "accuracy: {observer} suspects correct {target} at {round}"
                        );
                    }
                }
            }
            swept += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(swept, crate::serial::count_serial_schedules(config, horizon));
    }

    /// Eventual strong accuracy over a swept batch of *asynchronous*
    /// prefixes: extensions of a delayed prefix (K = 3) may produce false
    /// suspicions before K, but from K on every suspicion implies a crash.
    #[test]
    fn eventual_accuracy_holds_over_swept_extensions_of_a_delayed_prefix() {
        use crate::serial::for_each_serial_extension;

        let config = SystemConfig::majority(5, 2).unwrap();
        let sync_from = Round::new(3);
        let horizon = 4u32;
        let prefix = ScheduleBuilder::new(config, ModelKind::Es)
            .sync_from(sync_from)
            .delay(Round::new(1), ProcessId::new(1), ProcessId::new(0), Round::new(3))
            .delay(Round::new(2), ProcessId::new(2), ProcessId::new(3), Round::new(4))
            .build(horizon)
            .unwrap();

        let mut swept = 0u64;
        let _ = for_each_serial_extension(&prefix, sync_from.get(), horizon, |schedule| {
            assert_eq!(schedule.sync_from(), sync_from, "extensions must preserve K");
            let mut d = ScheduleDetector::new(schedule.clone());
            // False suspicion during the asynchronous prefix is real.
            assert!(
                d.suspects(ProcessId::new(0), Round::new(1)).contains(ProcessId::new(1)),
                "expected a false suspicion before K"
            );
            // From K on: suspicion implies the target crashed.
            for k in sync_from.get()..=horizon + 2 {
                let round = Round::new(k);
                for observer in config.processes() {
                    if !schedule.completes(observer, round) {
                        continue;
                    }
                    for target in d.suspects(observer, round).iter() {
                        assert!(
                            schedule.crash_round(target).is_some(),
                            "eventual accuracy: {observer} suspects correct {target} \
                             at {round} (K = {sync_from})"
                        );
                    }
                }
            }
            swept += 1;
            ControlFlow::Continue(())
        });
        // Bare prefix + one or two crashes in rounds 3..=4 among 5 alive:
        // the batch is non-trivial.
        assert!(swept > 100, "swept only {swept} extensions");
    }

    #[test]
    fn never_suspects_the_observer_itself() {
        let schedule = ScheduleBuilder::new(cfg(), ModelKind::Es)
            .crash_before_send(ProcessId::new(0), Round::new(1))
            .build(10)
            .unwrap();
        let mut d = ScheduleDetector::new(schedule);
        for k in 1..=5 {
            for p in cfg().processes() {
                assert!(!d.suspects(p, Round::new(k)).contains(p));
            }
        }
    }
}
