//! Differential conformance harness for the sweep engine.
//!
//! Runs identical schedule batches through the simulator's two executors
//! — the run-from-scratch loop (`for_each_serial_schedule` +
//! `run_schedule`) and the incremental fork-on-branch sweep — and asserts
//! outcome-for-outcome equality (the wall-clock runtime's differential is
//! `replay_differential.rs`):
//!
//! * the incremental prefix-sharing engine visits the same schedules in
//!   the same order as the run-from-scratch loop and produces the same
//!   outcome for each, schedule for schedule, on the exhaustive
//!   `n = 6, t = 2` space (the fork-on-branch executor changes how runs
//!   execute, never what they compute);
//! * a consensus violation is reported with a deterministic witness: the
//!   first failing schedule of the run-from-scratch loop;
//! * the paper's `t + 2` bound (`k_ES`) survives the engine's headline
//!   workload: an exhaustive `n = 7, t = 2` sweep (~518k serial runs).

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use indulgent_checker::{decision_round_census, worst_case_decision_round, CheckError};
use indulgent_consensus::{AtPlus2, CoordinatorEcho, FloodSet, RotatingCoordinator};
use indulgent_integration::proposals;
use indulgent_model::{ProcessFactory, ProcessId, Round, RunOutcome, SystemConfig, Value};
use indulgent_sim::{for_each_serial_run, for_each_serial_schedule, run_schedule, ModelKind};

fn at_plus2_factory(
    config: SystemConfig,
) -> impl ProcessFactory<Process = AtPlus2<RotatingCoordinator>> {
    move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
    }
}

/// The sweep stops at the first run that fails a check, so the witness
/// of a violation is deterministic: the first schedule, in serial
/// enumeration order, whose run-from-scratch outcome fails
/// `check_consensus`. FloodSet truncated to `t` rounds violates agreement
/// in several serial schedules of `n = 4, t = 2`.
#[test]
fn violation_witness_is_the_first_failing_schedule() {
    let config = SystemConfig::synchronous(4, 2).unwrap();
    let early = config.t() as u32;
    let factory = move |_i: usize, v: Value| FloodSet::deciding_at(Round::new(early), v);
    let props = proposals(4);
    let mut failing = Vec::new();
    let _ = for_each_serial_schedule(config, ModelKind::Scs, 3, |schedule| {
        let outcome = run_schedule(&factory, &props, schedule, 10).unwrap();
        if let Err(violation) = outcome.check_consensus() {
            failing.push(CheckError::Violation { violation, schedule: Box::new(schedule.clone()) });
        }
        ControlFlow::Continue(())
    });
    assert!(failing.len() > 1, "the witness must be picked among several violations");
    let error =
        worst_case_decision_round(&factory, config, ModelKind::Scs, &props, 3, 10).unwrap_err();
    assert_eq!(error, failing[0], "the witness is the first failing schedule");
}

/// Walks the serial space of `config` (crashes in rounds `1..=4`) twice:
/// through the incremental engine (`for_each_serial_run`) and through the
/// run-from-scratch loop (`for_each_serial_schedule` + `run_schedule`).
/// Asserts that both visit the same schedules in the same order with
/// identical outcomes, and returns the replayed outcomes.
fn assert_runs_match_replay<F: ProcessFactory>(
    factory: &F,
    config: SystemConfig,
    props: &[Value],
) -> Vec<RunOutcome> {
    let mut incremental: Vec<(u64, RunOutcome)> = Vec::new();
    let _ =
        for_each_serial_run(factory, props, config, ModelKind::Es, 4, 30, |schedule, outcome| {
            incremental.push((schedule.fingerprint(), outcome.clone()));
            ControlFlow::<()>::Continue(())
        })
        .unwrap();
    let mut replayed = Vec::with_capacity(incremental.len());
    let _ = for_each_serial_schedule(config, ModelKind::Es, 4, |schedule| {
        let outcome = run_schedule(factory, props, schedule, 30).unwrap();
        let Some((fingerprint, expected)) = incremental.get(replayed.len()) else {
            panic!("replay visits more schedules than the incremental engine: {schedule:?}");
        };
        assert_eq!(*fingerprint, schedule.fingerprint(), "visit order diverged at {schedule:?}");
        assert_eq!(*expected, outcome, "outcome diverged on {schedule:?}");
        replayed.push(outcome);
        ControlFlow::Continue(())
    });
    assert_eq!(replayed.len(), incremental.len(), "schedule counts differ");
    replayed
}

/// The tentpole differential: on the exhaustive `n = 6, t = 2` space
/// (~93k serial runs) the incremental engine reproduces the serial
/// run-from-scratch loop schedule for schedule, and the worst-case report
/// agrees with the replayed runs.
#[test]
fn incremental_engine_matches_serial_replay_on_n6_t2() {
    let config = SystemConfig::majority(6, 2).unwrap();
    let factory = at_plus2_factory(config);
    let props = proposals(6);
    let replayed = assert_runs_match_replay(&factory, config, &props);
    let serial = worst_case_decision_round(&factory, config, ModelKind::Es, &props, 4, 30).unwrap();
    assert_eq!(serial.worst_round, Round::new(4), "k_ES = t + 2");
    assert_eq!(serial.runs, replayed.len() as u64);
    let rounds = replayed.iter().map(|o| o.global_decision_round().expect("every run decides"));
    assert_eq!(Some(serial.best_round), rounds.clone().min());
    assert_eq!(Some(serial.worst_round), rounds.max());
}

/// Census differential for `CoordinatorEcho` on the exhaustive
/// `n = 6, t = 2` space: the incremental engine reproduces the
/// run-from-scratch loop schedule for schedule, and the census equals the
/// tally of the replayed runs.
#[test]
fn incremental_census_matches_replay_on_n6_t2() {
    let config = SystemConfig::majority(6, 2).unwrap();
    let factory = move |i: usize, v: Value| CoordinatorEcho::new(config, ProcessId::new(i), v);
    let props = proposals(6);
    let mut replay_counts: BTreeMap<u32, u64> = BTreeMap::new();
    for outcome in assert_runs_match_replay(&factory, config, &props) {
        let round = outcome.global_decision_round().expect("every serial run decides");
        *replay_counts.entry(round.get()).or_default() += 1;
    }
    let census = decision_round_census(&factory, config, ModelKind::Es, &props, 4, 30).unwrap();
    assert_eq!(census.counts, replay_counts, "census must equal replay");
    assert_eq!(census.runs, replay_counts.values().sum::<u64>());
}

/// The engine's headline workload: the exhaustive `n = 7, t = 2` sweep
/// (~518k serial synchronous runs) confirming `k_ES = t + 2` for
/// `A_{t+2}` — exactly the bound of the paper's Proposition 1, attained.
#[test]
fn exhaustive_n7_t2_sweep_confirms_t_plus_2() {
    let config = SystemConfig::majority(7, 2).unwrap();
    let factory = at_plus2_factory(config);
    let props = proposals(7);
    let report = worst_case_decision_round(
        &factory,
        config,
        ModelKind::Es,
        &props,
        4, // crashes anywhere in rounds 1..=t+2
        30,
    )
    .unwrap();
    assert_eq!(report.worst_round, Round::new(4), "k_ES = t + 2");
    assert_eq!(report.best_round, Round::new(4), "A_t+2 never decides earlier either");
    assert_eq!(report.runs, 517_889, "the full serial space was swept");
}
