//! End-to-end verification of the paper's headline claims, spanning all
//! workspace crates.

use indulgent_checker::{worst_case_decision_round, worst_case_over_binary_proposals};
use indulgent_consensus::{
    AfPlus2, AtPlus2, CoordinatorEcho, FloodSet, RotatingCoordinator, Standalone,
};
use indulgent_integration::proposals;
use indulgent_model::{ProcessFactory, ProcessId, Round, SystemConfig, Value};
use indulgent_sim::{run_schedule, ModelKind, Schedule, ScheduleBuilder};

fn at_plus2_factory(
    config: SystemConfig,
) -> impl ProcessFactory<Process = AtPlus2<RotatingCoordinator>> {
    move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
    }
}

/// Proposition 1 + Lemma 13, exhaustively: over *all* serial synchronous
/// runs and *all* binary proposal vectors, `A_{t+2}` globally decides at
/// exactly round `t + 2` — never earlier, never later.
#[test]
fn t_plus_2_is_tight_for_at_plus_2() {
    for (n, t) in [(3usize, 1usize), (4, 1)] {
        let config = SystemConfig::majority(n, t).unwrap();
        let report = worst_case_over_binary_proposals(
            &at_plus2_factory(config),
            config,
            ModelKind::Es,
            t as u32 + 2,
            30,
        )
        .unwrap();
        assert_eq!(report.worst_round, Round::new(t as u32 + 2), "n={n}, t={t}");
        assert_eq!(report.best_round, Round::new(t as u32 + 2), "n={n}, t={t}");
    }
}

/// The classic contrast: FloodSet's exhaustive worst case in SCS is t + 1.
#[test]
fn t_plus_1_is_tight_for_floodset_in_scs() {
    for (n, t) in [(3usize, 1usize), (4, 2), (5, 2)] {
        let config = SystemConfig::synchronous(n, t).unwrap();
        let factory = move |_i: usize, v: Value| FloodSet::new(config, v);
        let report = worst_case_decision_round(
            &factory,
            config,
            ModelKind::Scs,
            &proposals(n),
            t as u32 + 1,
            t as u32 + 3,
        )
        .unwrap();
        assert_eq!(report.worst_round, Round::new(t as u32 + 1), "n={n}, t={t}");
    }
}

/// The paper's Sect. 1.4: the most efficient previously known indulgent
/// algorithm has a synchronous run needing 2t + 2 rounds, and the
/// CT-style rotating coordinator needs 3t + 3; `A_{t+2}` needs t + 2 in
/// the *same* adversarial schedules.
#[test]
fn baseline_separation_grows_with_t() {
    for t in 1..=4usize {
        let n = 2 * t + 1;
        let config = SystemConfig::majority(n, t).unwrap();
        let props = proposals(n);
        let horizon = 8 * (t as u32 + 2);

        let mut b = ScheduleBuilder::new(config, ModelKind::Es);
        for p in 0..t {
            b = b.crash_before_send(ProcessId::new(p), Round::new(2 * p as u32 + 1));
        }
        let hr_schedule = b.build(horizon).unwrap();
        let hr = move |i: usize, v: Value| CoordinatorEcho::new(config, ProcessId::new(i), v);
        let outcome =
            run_schedule(&hr, &props, &hr_schedule, horizon).expect("one proposal per process");
        outcome.check_consensus().unwrap();
        assert_eq!(outcome.global_decision_round(), Some(Round::new(2 * t as u32 + 2)));

        let mut b = ScheduleBuilder::new(config, ModelKind::Es);
        for p in 0..t {
            b = b.crash_before_send(ProcessId::new(p), Round::new(3 * p as u32 + 2));
        }
        let rc_schedule = b.build(horizon).unwrap();
        let rc = move |i: usize, v: Value| {
            Standalone::new(RotatingCoordinator::new(config, ProcessId::new(i)), v)
        };
        let outcome =
            run_schedule(&rc, &props, &rc_schedule, horizon).expect("one proposal per process");
        outcome.check_consensus().unwrap();
        assert_eq!(outcome.global_decision_round(), Some(Round::new(3 * t as u32 + 3)));

        // A_{t+2} under the HR-worst-case schedule still decides at t + 2.
        let outcome = run_schedule(&at_plus2_factory(config), &props, &hr_schedule, horizon)
            .expect("one proposal per process");
        outcome.check_consensus().unwrap();
        assert_eq!(outcome.global_decision_round(), Some(Round::new(t as u32 + 2)));
    }
}

/// Sect. 5.2: with the Fig. 4 optimization, every failure-free synchronous
/// run decides at round 2, and the decision is the minimum proposal.
#[test]
fn failure_free_optimization_meets_the_two_round_bound() {
    for n in [3usize, 5, 7, 9] {
        let t = (n - 1) / 2;
        let config = SystemConfig::majority(n, t).unwrap();
        let f = move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
                .with_failure_free_optimization()
        };
        let schedule = Schedule::failure_free(config, ModelKind::Es);
        let props = proposals(n);
        let outcome = run_schedule(&f, &props, &schedule, 40).expect("one proposal per process");
        outcome.check_consensus().unwrap();
        assert_eq!(outcome.global_decision_round(), Some(Round::new(2)), "n={n}");
        let min = props.iter().copied().min().unwrap();
        for d in outcome.decisions.iter().flatten() {
            assert_eq!(d.value, min);
        }
    }
}

/// Without Fig. 4, plain `A_{t+2}` pays the full `t + 2` rounds even in
/// the failure-free synchronous run, at every system size up to n = 64.
#[test]
fn plain_at_plus_2_decides_at_t_plus_2_in_the_failure_free_run() {
    for n in [4usize, 8, 16, 32, 64] {
        let t = n / 2 - 1;
        let config = SystemConfig::majority(n, t).unwrap();
        let schedule = Schedule::failure_free(config, ModelKind::Es);
        let bound = t as u32 + 2;
        let outcome = run_schedule(&at_plus2_factory(config), &proposals(n), &schedule, 4 * bound)
            .expect("one proposal per process");
        outcome.check_consensus().unwrap();
        assert!(outcome.all_correct_decided(), "n={n}");
        assert_eq!(outcome.global_decision_round(), Some(Round::new(bound)), "n={n}");
    }
}

/// Lemma 15: `A_{f+2}` decides by `k + f + 2` when the run becomes
/// synchronous after round `k` — here with crafted prefixes and staggered
/// crashes for several `(k, f)`.
#[test]
fn af_plus_2_meets_k_plus_f_plus_2() {
    let config = SystemConfig::third(7, 2).unwrap();
    let props = proposals(7);
    for k in [0u32, 2, 4] {
        for f in 0..=2usize {
            let horizon = k + 20;
            let mut b = ScheduleBuilder::new(config, ModelKind::Es).sync_from(Round::new(k + 1));
            // A deterministic asynchronous prefix: in each round <= k, every
            // receiver r has the messages of senders r+1 and r+2 delayed.
            for round in 1..=k {
                for r in 0..7usize {
                    for off in [1usize, 2] {
                        let s = (r + off) % 7;
                        b = b.delay(
                            Round::new(round),
                            ProcessId::new(s),
                            ProcessId::new(r),
                            Round::new(k + 1),
                        );
                    }
                }
            }
            for c in 0..f {
                b = b.crash_before_send(ProcessId::new(c), Round::new(k + 1 + c as u32));
            }
            let schedule = b.build(horizon).unwrap();
            let factory = move |i: usize, v: Value| AfPlus2::new(config, ProcessId::new(i), v);
            let outcome = run_schedule(&factory, &props, &schedule, horizon)
                .expect("one proposal per process");
            outcome.check_consensus().unwrap();
            assert!(
                outcome.global_decision_round().unwrap() <= Round::new(k + f as u32 + 2),
                "k={k}, f={f}: {:?}",
                outcome.global_decision_round()
            );
        }
    }
}

/// The resilience price (Chandra & Toueg, recalled in the paper's
/// introduction): indulgent consensus requires t < n/2, while the
/// synchronous model tolerates t <= n - 2.
#[test]
fn resilience_price_is_enforced_by_config_validation() {
    assert!(SystemConfig::majority(4, 2).is_err());
    assert!(SystemConfig::synchronous(4, 2).is_ok());
    assert!(SystemConfig::majority(5, 2).is_ok());
}
