//! Integration tests for the analysis tooling: traces, censuses, the
//! Sect. 4 detector simulation, and their interplay with the algorithms.

use indulgent_checker::{decision_round_census, randomized_worst_case};
use indulgent_consensus::{AtPlus2, EarlyFloodSet, FloodSet, RotatingCoordinator};
use indulgent_integration::proposals;
use indulgent_model::{ProcessId, Round, SystemConfig, Value};
use indulgent_sim::{
    run_schedule, run_traced, ModelKind, Schedule, ScheduleBuilder, ScheduleDetector,
};

fn at_factory(config: SystemConfig) -> impl Fn(usize, Value) -> AtPlus2<RotatingCoordinator> {
    move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
    }
}

/// The trace of an `A_{t+2}` synchronous run shows the suspicion pattern
/// the Halt mechanism consumes: once a process crashes, every survivor
/// suspects it in all later rounds, and nobody suspects a live process.
#[test]
fn trace_suspicions_mirror_crashes_in_synchronous_runs() {
    let config = SystemConfig::majority(5, 2).unwrap();
    let schedule = ScheduleBuilder::new(config, ModelKind::Es)
        .crash_before_send(ProcessId::new(2), Round::new(2))
        .build(30)
        .unwrap();
    let trace = run_traced(&at_factory(config), &proposals(5), &schedule, 30)
        .expect("one proposal per process");
    trace.outcome().check_consensus().unwrap();
    for rec in trace.records() {
        for suspected in rec.suspected.iter() {
            // Only the genuinely crashed p2 is ever suspected, and only
            // from its crash round on.
            assert_eq!(suspected, ProcessId::new(2), "false suspicion at {rec:?}");
            assert!(rec.round >= Round::new(2));
        }
    }
    // And it *is* suspected by every survivor from round 2 on.
    for k in 2..=4u32 {
        for p in [0usize, 1, 3, 4] {
            assert!(trace.suspected(Round::new(k), ProcessId::new(p), ProcessId::new(2)));
        }
    }
}

/// The timeline renderer produces one row per process and marks the global
/// decision round of every survivor.
#[test]
fn trace_render_is_complete() {
    let config = SystemConfig::majority(5, 2).unwrap();
    let schedule = Schedule::failure_free(config, ModelKind::Es);
    let trace = run_traced(&at_factory(config), &proposals(5), &schedule, 30)
        .expect("one proposal per process");
    let art = trace.render();
    for i in 0..5 {
        assert!(art.contains(&format!("p{i}")), "missing row for p{i}:\n{art}");
    }
    assert_eq!(art.matches('D').count(), 5, "all five decide:\n{art}");
}

/// The census of FloodSet in SCS is a single bar at t + 1 — the exhaustive
/// counterpart of the classic tight bound, next to `A_{t+2}`'s single bar
/// at t + 2 in ES (E8's shape, via the census API).
#[test]
fn censuses_show_the_one_round_price() {
    let scs = SystemConfig::synchronous(4, 1).unwrap();
    let floodset = move |_i: usize, v: Value| FloodSet::new(scs, v);
    let scs_census =
        decision_round_census(&floodset, scs, ModelKind::Scs, &proposals(4), 2, 10).unwrap();
    assert_eq!(scs_census.spread(), 1);
    assert_eq!(scs_census.worst(), Some(Round::new(2))); // t + 1

    let es = SystemConfig::majority(4, 1).unwrap();
    let es_census =
        decision_round_census(&at_factory(es), es, ModelKind::Es, &proposals(4), 3, 30).unwrap();
    assert_eq!(es_census.spread(), 1);
    assert_eq!(es_census.worst(), Some(Round::new(3))); // t + 2

    // The price, computed from the censuses themselves.
    assert_eq!(es_census.worst().unwrap() - scs_census.worst().unwrap(), 1);
}

/// EarlyFloodSet's census spreads between f + 2 and t + 1 — unlike plain
/// FloodSet it actually exploits calm runs.
#[test]
fn early_floodset_census_spreads_with_f() {
    let config = SystemConfig::synchronous(4, 2).unwrap();
    let early = move |_i: usize, v: Value| EarlyFloodSet::new(config, v);
    let census =
        decision_round_census(&early, config, ModelKind::Scs, &proposals(4), 3, 10).unwrap();
    assert_eq!(census.best(), Some(Round::new(2))); // failure-free: f + 2 = 2
    assert_eq!(census.worst(), Some(Round::new(3))); // min(f + 2, t + 1) = 3
    assert!(census.spread() >= 2);
}

/// Randomized worst-case search scales the t + 2 observation to a system
/// far beyond exhaustive reach and returns a synchronous witness schedule.
#[test]
fn randomized_search_on_a_large_system() {
    let config = SystemConfig::majority(11, 5).unwrap();
    let (round, schedule) =
        randomized_worst_case(&at_factory(config), config, &proposals(11), 150, 60, 3).unwrap();
    assert_eq!(round, Round::new(7)); // t + 2
    assert!(schedule.is_synchronous());
    assert!(schedule.validate(60).is_ok());
}

/// The Sect. 4 simulated detector, fed to the `A_◇S` variant, decides at
/// t + 2 in synchronous runs exactly like the derived-suspicion original —
/// and the trace confirms both see the same suspicion pattern.
#[test]
fn section4_detector_equivalence_under_trace() {
    let config = SystemConfig::majority(5, 2).unwrap();
    let schedule = ScheduleBuilder::new(config, ModelKind::Es)
        .crash_delivering_only(ProcessId::new(3), Round::new(1), [ProcessId::new(0)])
        .build(30)
        .unwrap();
    let props = proposals(5);

    let derived =
        run_schedule(&at_factory(config), &props, &schedule, 30).expect("one proposal per process");
    derived.check_consensus().unwrap();

    let sched = schedule.clone();
    let with_detector = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::with_detector(
            config,
            id,
            v,
            RotatingCoordinator::new(config, id),
            ScheduleDetector::new(sched.clone()),
        )
    };
    let simulated =
        run_schedule(&with_detector, &props, &schedule, 30).expect("one proposal per process");
    simulated.check_consensus().unwrap();

    assert_eq!(derived.decisions, simulated.decisions);
    assert_eq!(derived.global_decision_round(), Some(Round::new(4))); // t + 2
}
