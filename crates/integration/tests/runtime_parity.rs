//! Parity between the deterministic simulator and the threaded runtime:
//! the same automatons, the same decisions.

use std::time::Duration;

use indulgent_consensus::{AfPlus2, AtPlus2, CoordinatorEcho, RotatingCoordinator};
use indulgent_integration::proposals;
use indulgent_model::{ProcessId, Round, SystemConfig, Value};
use indulgent_runtime::{run_network, DelayModel, InstanceSpec};
use indulgent_sim::{run_schedule, ModelKind, Schedule};

const GRACE: Duration = Duration::from_millis(4);

#[test]
fn simulator_and_network_agree_on_synchronous_at_plus2() {
    let config = SystemConfig::majority(5, 2).unwrap();
    let props = proposals(5);
    let factory = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
    };

    let sim = run_schedule(&factory, &props, &Schedule::failure_free(config, ModelKind::Es), 30)
        .expect("one proposal per process");
    sim.check_consensus().unwrap();

    let net = run_network(config, factory, &props, GRACE, &InstanceSpec::synchronous(config));
    net.outcome.check_consensus().unwrap();

    assert_eq!(sim.global_decision_round(), net.outcome.global_decision_round());
    for p in config.processes() {
        assert_eq!(
            sim.decision_of(p).map(|d| d.value),
            net.outcome.decision_of(p).map(|d| d.value),
            "{p} decided differently in the two executors"
        );
    }
}

#[test]
fn network_crash_matches_simulator_crash_semantics() {
    let config = SystemConfig::majority(5, 2).unwrap();
    let props = proposals(5);
    let factory = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
    };
    // Crash p3 before it can send anything in round 2, in both worlds.
    let schedule = indulgent_sim::ScheduleBuilder::new(config, ModelKind::Es)
        .crash_before_send(ProcessId::new(3), Round::new(2))
        .build(30)
        .unwrap();
    let sim = run_schedule(&factory, &props, &schedule, 30).expect("one proposal per process");
    sim.check_consensus().unwrap();

    let spec = InstanceSpec::synchronous(config).crash(ProcessId::new(3), Round::new(2));
    let net = run_network(config, factory, &props, GRACE, &spec);
    net.outcome.check_consensus().unwrap();

    assert_eq!(sim.global_decision_round(), net.outcome.global_decision_round());
    assert_eq!(
        sim.decisions.iter().flatten().next().map(|d| d.value),
        net.outcome.decisions.iter().flatten().next().map(|d| d.value),
    );
}

#[test]
fn network_runs_every_algorithm_family() {
    let config = SystemConfig::majority(5, 2).unwrap();
    let props = proposals(5);

    let ce = move |i: usize, v: Value| CoordinatorEcho::new(config, ProcessId::new(i), v);
    let report = run_network(config, ce, &props, GRACE, &InstanceSpec::synchronous(config));
    report.outcome.check_consensus().unwrap();
    assert_eq!(report.outcome.global_decision_round(), Some(Round::new(2)));

    let third = SystemConfig::third(7, 2).unwrap();
    let props7 = proposals(7);
    let af = move |i: usize, v: Value| AfPlus2::new(third, ProcessId::new(i), v);
    let report = run_network(third, af, &props7, GRACE, &InstanceSpec::synchronous(third));
    report.outcome.check_consensus().unwrap();
    assert!(report.outcome.global_decision_round().unwrap() <= Round::new(2));
}

#[test]
fn network_with_async_prefix_preserves_agreement_across_seeds() {
    let config = SystemConfig::majority(5, 2).unwrap();
    let props = proposals(5);
    let factory = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
    };
    for seed in 0..5u64 {
        let spec = InstanceSpec::synchronous(config).with_delays(DelayModel::AsyncUntil {
            until_round: 4,
            delay: Duration::from_millis(30),
            probability: 0.35,
            seed,
        });
        let report = run_network(config, factory, &props, GRACE, &spec);
        report.outcome.check_consensus().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}
