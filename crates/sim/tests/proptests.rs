//! Property-based tests of the simulator: schedule legality, executor
//! determinism, enumeration invariants, and a differential reference for
//! the flat-ring message plumbing.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use indulgent_model::{
    Decision, DeliveredMsg, Delivery, ProcessFactory, ProcessId, Round, RoundProcess, RunOutcome,
    Step, SystemConfig, Value,
};
use indulgent_sim::{
    count_serial_schedules, for_each_serial_run, for_each_serial_schedule, random_run,
    run_schedule, run_traced, MessageFate, ModelKind, RandomRunParams, Schedule, ScheduleBuilder,
};
use proptest::prelude::*;

/// Deterministic flooding automaton used as a probe.
#[derive(Debug, Clone)]
struct Probe {
    est: Value,
    decide_at: u32,
    decided: bool,
}

impl RoundProcess for Probe {
    type Msg = Value;

    fn send(&mut self, _round: Round) -> Value {
        self.est
    }

    fn deliver(&mut self, round: Round, delivery: &Delivery<Value>) -> Step {
        for m in delivery.current() {
            self.est = self.est.min(m.msg);
        }
        if round.get() >= self.decide_at && !self.decided {
            self.decided = true;
            Step::Decide(self.est)
        } else {
            Step::Continue
        }
    }
}

fn probe_factory(decide_at: u32) -> impl Fn(usize, Value) -> Probe {
    move |_i, v| Probe { est: v, decide_at, decided: false }
}

/// Reference executor: the executor semantics spelled out with the
/// pre-optimization data structures — `BTreeMap` mailboxes keyed by
/// arrival round, a fresh `Delivery` per process-round, an explicit
/// (sent round, sender) sort, no fast path. The production engine
/// (flat ring mailboxes, pooled deliveries, shared-broadcast rounds)
/// must be outcome-identical to this on *every* schedule, delays and
/// ring wrap-arounds included.
fn reference_run<F>(
    factory: &F,
    proposals: &[Value],
    schedule: &Schedule,
    horizon: u32,
) -> RunOutcome
where
    F: ProcessFactory,
{
    type Mailbox<M> = BTreeMap<u32, Vec<DeliveredMsg<M>>>;
    let config = schedule.config();
    let n = config.n();
    let mut processes: Vec<F::Process> = (0..n).map(|i| factory.build(i, proposals[i])).collect();
    let mut decisions: Vec<Option<Decision>> = vec![None; n];
    let mut pending: Vec<Mailbox<<F::Process as RoundProcess>::Msg>> = vec![BTreeMap::new(); n];
    let mut rounds_executed = 0;
    for k in 1..=horizon {
        let round = Round::new(k);
        rounds_executed = k;
        for sender in config.processes() {
            if !schedule.alive_entering(sender, round) {
                continue;
            }
            let msg = processes[sender.index()].send(round);
            for receiver in config.processes() {
                if !schedule.alive_entering(receiver, round) {
                    continue;
                }
                let arrival = match schedule.fate(round, sender, receiver) {
                    MessageFate::Deliver => k,
                    MessageFate::Delay(a) => a.get(),
                    MessageFate::Lose => continue,
                };
                pending[receiver.index()].entry(arrival).or_default().push(DeliveredMsg {
                    sender,
                    sent_round: round,
                    msg: msg.clone(),
                });
            }
        }
        for receiver in config.processes() {
            if !schedule.completes(receiver, round) {
                continue;
            }
            let mut arrived = pending[receiver.index()].remove(&k).unwrap_or_default();
            arrived.sort_by_key(|m| (m.sent_round, m.sender));
            let delivery = Delivery::new(round, arrived);
            if let Step::Decide(value) = processes[receiver.index()].deliver(round, &delivery) {
                if decisions[receiver.index()].is_none() {
                    decisions[receiver.index()] =
                        Some(Decision { process: receiver, round, value });
                }
            }
        }
        let halted = config
            .processes()
            .filter(|&p| schedule.completes(p, round))
            .all(|p| decisions[p.index()].is_some());
        if halted {
            break;
        }
    }
    RunOutcome {
        proposals: proposals.to_vec(),
        decisions,
        crashed: schedule.faulty(),
        rounds_executed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every schedule the random generator produces is legal, with the
    /// requested crash count and synchrony round.
    #[test]
    fn random_runs_are_legal(
        seed in any::<u64>(),
        n in 3usize..10,
        crash_frac in 0usize..3,
        sync_from in 1u32..9,
    ) {
        let t = (n - 1) / 2;
        prop_assume!(t >= 1);
        let config = SystemConfig::majority(n, t).unwrap();
        let crashes = crash_frac.min(t);
        let schedule = random_run(
            config,
            ModelKind::Es,
            RandomRunParams::eventually_synchronous(crashes, 5, sync_from),
            40,
            seed,
        );
        prop_assert!(schedule.validate(40).is_ok());
        prop_assert_eq!(schedule.crash_count(), crashes);
        prop_assert_eq!(schedule.sync_from(), Round::new(sync_from.max(1)));
    }

    /// The executor is a pure function of (factory, proposals, schedule):
    /// re-running produces identical outcomes, and the traced executor
    /// agrees with the plain one.
    #[test]
    fn executor_is_deterministic_and_trace_consistent(
        seed in any::<u64>(),
        props in proptest::collection::vec(0u64..30, 5),
    ) {
        let config = SystemConfig::majority(5, 2).unwrap();
        let proposals: Vec<Value> = props.into_iter().map(Value::new).collect();
        let schedule = random_run(
            config,
            ModelKind::Es,
            RandomRunParams::eventually_synchronous(2, 4, 4),
            40,
            seed,
        );
        let a = run_schedule(&probe_factory(6), &proposals, &schedule, 40).unwrap();
        let b = run_schedule(&probe_factory(6), &proposals, &schedule, 40).unwrap();
        prop_assert_eq!(&a, &b);
        let t = run_traced(&probe_factory(6), &proposals, &schedule, 40).unwrap();
        prop_assert_eq!(t.outcome(), &a);
    }

    /// In a synchronous failure-free run, a one-round flooding probe
    /// decides the global minimum — delivery is truly all-to-all.
    #[test]
    fn failure_free_flood_reaches_global_minimum(
        props in proptest::collection::vec(0u64..100, 4),
    ) {
        let config = SystemConfig::majority(4, 1).unwrap();
        let proposals: Vec<Value> = props.iter().copied().map(Value::new).collect();
        let schedule = indulgent_sim::Schedule::failure_free(config, ModelKind::Es);
        let outcome = run_schedule(&probe_factory(1), &proposals, &schedule, 5).unwrap();
        let min = proposals.iter().copied().min().unwrap();
        for d in outcome.decisions.iter().flatten() {
            prop_assert_eq!(d.value, min);
        }
    }

    /// Serial enumeration visits the closed-form number of schedules for
    /// t = 1, and every visited schedule is distinct.
    #[test]
    fn serial_enumeration_counts_match_closed_form(n in 3usize..6, horizon in 1u32..4) {
        let config = SystemConfig::majority(n, 1).unwrap();
        // t = 1: 1 crash-free + horizon rounds x n victims x 2^(n-1) fates.
        let expected = 1 + u64::from(horizon) * n as u64 * (1u64 << (n - 1));
        prop_assert_eq!(count_serial_schedules(config, horizon), expected);
        let mut seen = std::collections::HashSet::new();
        let _ = for_each_serial_schedule(config, ModelKind::Es, horizon, |s| {
            assert!(seen.insert(format!("{s:?}")), "duplicate schedule");
            ControlFlow::Continue(())
        });
    }

    /// The flat-ring engine is outcome-identical to the reference
    /// `BTreeMap`-mailbox executor on random eventually-synchronous
    /// schedules — crashes, losses and delayed arrivals included.
    #[test]
    fn ring_engine_matches_reference_on_delayed_schedules(
        seed in any::<u64>(),
        n in 3usize..8,
        crash_frac in 0usize..3,
        sync_from in 2u32..11,
        props in proptest::collection::vec(0u64..50, 8),
    ) {
        let t = (n - 1) / 2;
        prop_assume!(t >= 1);
        let config = SystemConfig::majority(n, t).unwrap();
        let proposals: Vec<Value> = props[..n].iter().copied().map(Value::new).collect();
        let schedule = random_run(
            config,
            ModelKind::Es,
            RandomRunParams::eventually_synchronous(crash_frac.min(t), 5, sync_from),
            40,
            seed,
        );
        let factory = probe_factory(sync_from + 2);
        let engine = run_schedule(&factory, &proposals, &schedule, 40).unwrap();
        let reference = reference_run(&factory, &proposals, &schedule, 40);
        prop_assert_eq!(engine, reference);
    }

    /// Long delay spans force the ring mailbox to grow and its head to
    /// lap the buffer repeatedly; arrivals across the wrap boundary must
    /// land exactly where the reference executor lands them.
    #[test]
    fn ring_engine_matches_reference_across_wrap_boundary(
        span in 2u32..12,
        target in 0usize..4,
        stride in 1usize..4,
        props in proptest::collection::vec(0u64..50, 4),
    ) {
        let config = SystemConfig::majority(4, 1).unwrap();
        let proposals: Vec<Value> = props.iter().copied().map(Value::new).collect();
        let mut builder =
            ScheduleBuilder::new(config, ModelKind::Es).sync_from(Round::new(14));
        // One delayed message per round 1..=12 toward `target`, arriving
        // `span` rounds later: the 1-slot ring grows once, then wraps
        // every lap while fresh delays keep landing ahead of the head.
        for k in 1..=12u32 {
            let sender = (target + 1 + (k as usize * stride) % 3) % 4;
            builder = builder.delay(
                Round::new(k),
                ProcessId::new(sender),
                ProcessId::new(target),
                Round::new(k + span),
            );
        }
        let schedule = builder.build(40).unwrap();
        let factory = probe_factory(30);
        let engine = run_schedule(&factory, &proposals, &schedule, 40).unwrap();
        let reference = reference_run(&factory, &proposals, &schedule, 40);
        prop_assert_eq!(engine, reference);
    }

    /// Schedules built via the fluent builder round-trip their crash
    /// plans, and t-resilience rejects over-delaying.
    #[test]
    fn builder_roundtrips_crashes(round in 1u32..6, victim in 0usize..5) {
        let config = SystemConfig::majority(5, 2).unwrap();
        let schedule = ScheduleBuilder::new(config, ModelKind::Es)
            .crash_after_send(ProcessId::new(victim), Round::new(round))
            .build(10)
            .unwrap();
        prop_assert_eq!(schedule.crash_round(ProcessId::new(victim)), Some(Round::new(round)));
        prop_assert_eq!(schedule.crash_count(), 1);
        prop_assert!(schedule.is_synchronous());
    }

    /// Delaying more than t messages towards one receiver in one round is
    /// always rejected (t-resilience), no matter which senders.
    #[test]
    fn over_delaying_is_rejected(receiver in 0usize..5, seed in any::<u64>()) {
        let config = SystemConfig::majority(5, 2).unwrap();
        let mut b = ScheduleBuilder::new(config, ModelKind::Es).sync_from(Round::new(4));
        let mut senders: Vec<usize> = (0..5).filter(|&s| s != receiver).collect();
        // Rotate deterministically by seed to vary which 3 senders delay.
        senders.rotate_left((seed % 4) as usize);
        for &s in senders.iter().take(3) {
            b = b.delay(Round::new(1), ProcessId::new(s), ProcessId::new(receiver), Round::new(3));
        }
        let err = b.build(10).unwrap_err();
        let is_resilience_error =
            matches!(err, indulgent_sim::ScheduleError::NotTResilient { .. });
        prop_assert!(is_resilience_error);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The exhaustive run sweep visits exactly as many schedules as the
    /// serial enumerator.
    #[test]
    fn fused_sweep_count_matches_serial(n in 3usize..6, horizon in 1u32..4) {
        let t = (n - 1) / 2;
        prop_assume!(t >= 1);
        let config = SystemConfig::majority(n, t).unwrap();
        let proposals: Vec<Value> = (0..n as u64).map(Value::new).collect();
        let mut counted = 0u64;
        let flow = for_each_serial_run(
            &probe_factory(2),
            &proposals,
            config,
            ModelKind::Es,
            horizon,
            horizon + 1,
            |_, _| {
                counted += 1;
                ControlFlow::<()>::Continue(())
            },
        );
        prop_assert_eq!(flow, Ok(ControlFlow::Continue(())));
        prop_assert_eq!(counted, count_serial_schedules(config, horizon));
    }
}
