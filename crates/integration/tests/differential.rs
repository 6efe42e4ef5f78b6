//! Differential conformance harness for the sweep engine.
//!
//! Runs identical schedule batches through the executors the workspace
//! has — the run-from-scratch loop (`for_each_serial_schedule` +
//! `run_schedule`), the incremental fork-on-branch sweep (serial and
//! pooled), and, for sampled schedules, the wall-clock `indulgent_runtime` —
//! and asserts outcome-for-outcome equality:
//!
//! * worst-case reports, censuses and valency sets are **bit-identical**
//!   across backends and thread counts (the engine's determinism
//!   guarantee);
//! * the incremental prefix-sharing engine visits the same schedules in
//!   the same order as the run-from-scratch loop and produces the same
//!   outcome for each, schedule for schedule, on the exhaustive
//!   `n = 6, t = 2` space (the fork-on-branch executor changes how runs
//!   execute, never what they compute);
//! * consensus violations are detected by every backend;
//! * schedules expressible on the real network (crash-before-send) produce
//!   the same decisions under the deterministic simulator and the
//!   wall-clock runtime;
//! * the paper's `t + 2` bound (`k_ES`) survives the engine's headline
//!   workload: an exhaustive `n = 7, t = 2` sweep (~518k serial runs).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::time::Duration;

use indulgent_checker::{
    decision_round_census, reachable_decisions, worst_case_decision_round, SweepBackend,
    ValencyParams,
};
use indulgent_consensus::{AtPlus2, CoordinatorEcho, FloodSet, RotatingCoordinator};
use indulgent_integration::proposals;
use indulgent_model::{ProcessFactory, ProcessId, Round, RunOutcome, SystemConfig, Value};
use indulgent_runtime::{run_network, InstanceSpec};
use indulgent_sim::{
    for_each_serial_run, for_each_serial_schedule, run_schedule, work_units, MessageFate,
    ModelKind, Schedule,
};

fn at_plus2_factory(
    config: SystemConfig,
) -> impl ProcessFactory<Process = AtPlus2<RotatingCoordinator>> + Sync {
    move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
    }
}

#[test]
fn worst_case_reports_identical_across_backends() {
    for (n, t) in [(4usize, 1usize), (5, 2)] {
        let config = SystemConfig::majority(n, t).unwrap();
        let factory = at_plus2_factory(config);
        let props = proposals(n);
        let crash_horizon = t as u32 + 2;
        let serial = worst_case_decision_round(
            &factory,
            config,
            ModelKind::Es,
            &props,
            crash_horizon,
            40,
            SweepBackend::Serial,
        )
        .unwrap();
        assert_eq!(serial.worst_round, Round::new(t as u32 + 2), "k_ES = t + 2 for A_t+2");
        for threads in [2, 4] {
            let parallel = worst_case_decision_round(
                &factory,
                config,
                ModelKind::Es,
                &props,
                crash_horizon,
                40,
                SweepBackend::parallel(threads),
            )
            .unwrap();
            assert_eq!(
                serial, parallel,
                "(n={n}, t={t}) report with {threads} workers must equal serial"
            );
        }
    }
}

#[test]
fn census_identical_across_backends_including_witnesses() {
    let config = SystemConfig::majority(3, 1).unwrap();
    let factory = move |i: usize, v: Value| CoordinatorEcho::new(config, ProcessId::new(i), v);
    let props = proposals(3);
    let serial =
        decision_round_census(&factory, config, ModelKind::Es, &props, 4, 30, SweepBackend::Serial)
            .unwrap();
    for threads in [2, 4] {
        let parallel = decision_round_census(
            &factory,
            config,
            ModelKind::Es,
            &props,
            4,
            30,
            SweepBackend::parallel(threads),
        )
        .unwrap();
        assert_eq!(serial, parallel);
    }
}

#[test]
fn valency_sets_identical_across_backends() {
    let config = SystemConfig::majority(5, 2).unwrap();
    let factory = at_plus2_factory(config);
    let props = vec![Value::ONE, Value::ONE, Value::ONE, Value::ONE, Value::ZERO];
    let prefix = Schedule::failure_free(config, ModelKind::Es);
    let serial: BTreeSet<Value> = reachable_decisions(
        &factory,
        &props,
        &prefix,
        1,
        ValencyParams::new(4, 40).with_backend(SweepBackend::Serial),
    );
    assert_eq!(serial, BTreeSet::from([Value::ZERO, Value::ONE]), "the prefix is bivalent");
    for threads in [2, 4] {
        let parallel = reachable_decisions(
            &factory,
            &props,
            &prefix,
            1,
            ValencyParams::new(4, 40).with_backend(SweepBackend::parallel(threads)),
        );
        assert_eq!(serial, parallel);
    }
}

#[test]
fn violations_detected_by_every_backend() {
    // FloodSet truncated to t rounds violates agreement in some serial
    // schedule; serial and parallel sweeps must both catch it (the
    // witness schedule may legitimately differ).
    let config = SystemConfig::synchronous(4, 2).unwrap();
    let early = config.t() as u32;
    let factory = move |_i: usize, v: Value| FloodSet::deciding_at(Round::new(early), v);
    let props = proposals(4);
    for backend in [SweepBackend::Serial, SweepBackend::parallel(2), SweepBackend::parallel(4)] {
        let result =
            worst_case_decision_round(&factory, config, ModelKind::Scs, &props, 3, 10, backend);
        assert!(result.is_err(), "backend {backend:?} must catch the violation");
    }
}

/// Schedules whose every crash loses all messages (crash strictly before
/// sending) are exactly the ones the wall-clock runtime can express via
/// `InstanceSpec::crash`; sample them from the swept space and compare
/// executor against network, outcome for outcome.
#[test]
fn runtime_spot_checks_match_the_swept_schedules() {
    let config = SystemConfig::majority(5, 2).unwrap();
    let props = proposals(5);
    let horizon = 3u32;

    // Collect the network-expressible schedules from the batch partition.
    let mut expressible: Vec<Schedule> = Vec::new();
    for unit in work_units(config, ModelKind::Es, horizon) {
        let _ = unit.for_each(|schedule| {
            let all_lost = config.processes().all(|p| match schedule.crash_round(p) {
                None => true,
                // Fates toward already-crashed receivers are irrelevant
                // (never delivered); only live receivers must lose.
                Some(r) => config
                    .processes()
                    .filter(|&q| q != p && schedule.alive_entering(q, r))
                    .all(|q| schedule.fate(r, p, q) == MessageFate::Lose),
            });
            if all_lost {
                expressible.push(schedule.clone());
            }
            ControlFlow::Continue(())
        });
    }
    // 1 failure-free + one-crash (3 rounds x 5 victims) + two-crash
    // (3 ordered round pairs x 5 x 4 victims).
    assert_eq!(expressible.len(), 1 + 15 + 60);

    // Spot-check a deterministic sample through the wall-clock runtime.
    for schedule in expressible.iter().step_by(7) {
        let factory = at_plus2_factory(config);
        let sim = run_schedule(&factory, &props, schedule, 30).unwrap();
        sim.check_consensus().unwrap();

        // Round-exact comparison needs a synchronous run: every message
        // inside its round's grace. This binary's sweeps keep both cores
        // busy, and this test's own thread, which steps every replica, then
        // waits up to ~16 ms for a core (measured on 2 vCPUs), past the
        // usual 4 ms grace — a false suspicion the simulator never sees.
        // 50 ms covers the stall.
        let grace = Duration::from_millis(50);
        let mut spec = InstanceSpec::synchronous(config);
        for p in config.processes() {
            if let Some(r) = schedule.crash_round(p) {
                spec = spec.crash(p, r);
            }
        }
        let net = run_network(config, factory, &props, grace, &spec);
        net.outcome.check_consensus().unwrap();

        assert_eq!(
            sim.global_decision_round(),
            net.outcome.global_decision_round(),
            "global decision round diverged on {schedule:?}"
        );
        for p in config.processes() {
            assert_eq!(
                sim.decision_of(p).map(|d| d.value),
                net.outcome.decision_of(p).map(|d| d.value),
                "{p} decided differently under {schedule:?}"
            );
            assert_eq!(
                sim.decision_of(p).map(|d| d.round),
                net.outcome.decision_of(p).map(|d| d.round),
                "{p} decided in a different round under {schedule:?}"
            );
        }
        assert_eq!(sim.crashed, net.outcome.crashed);
    }
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
            ControlFlow::Continue(())
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
/// is bit-identical on the serial and the 4-worker pooled backend.
#[test]
fn incremental_engine_matches_serial_replay_on_n6_t2() {
    let config = SystemConfig::majority(6, 2).unwrap();
    let factory = at_plus2_factory(config);
    let props = proposals(6);
    let replayed = assert_runs_match_replay(&factory, config, &props);
    let serial = worst_case_decision_round(
        &factory,
        config,
        ModelKind::Es,
        &props,
        4,
        30,
        SweepBackend::Serial,
    )
    .unwrap();
    assert_eq!(serial.worst_round, Round::new(4), "k_ES = t + 2");
    assert_eq!(serial.runs, replayed.len() as u64);
    let pooled = worst_case_decision_round(
        &factory,
        config,
        ModelKind::Es,
        &props,
        4,
        30,
        SweepBackend::parallel(4),
    )
    .unwrap();
    assert_eq!(serial, pooled, "the 4-worker report must be bit-identical to serial");
}

/// Census differential for `CoordinatorEcho` on the exhaustive
/// `n = 6, t = 2` space: the incremental engine reproduces the
/// run-from-scratch loop schedule for schedule, and the census (serial and
/// 4-worker pooled) equals the tally of the replayed runs.
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
    for backend in [SweepBackend::Serial, SweepBackend::parallel(4)] {
        let census =
            decision_round_census(&factory, config, ModelKind::Es, &props, 4, 30, backend).unwrap();
        assert_eq!(census.counts, replay_counts, "census ({backend:?}) must equal replay");
        assert_eq!(census.runs, replay_counts.values().sum::<u64>());
    }
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
        SweepBackend::parallel(4),
    )
    .unwrap();
    assert_eq!(report.worst_round, Round::new(4), "k_ES = t + 2");
    assert_eq!(report.best_round, Round::new(4), "A_t+2 never decides earlier either");
    assert_eq!(report.runs, 517_889, "the full serial space was swept");
}
