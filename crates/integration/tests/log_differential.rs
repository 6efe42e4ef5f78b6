//! Differential conformance of the replicated log across substrates:
//! the wall-clock runtime's decided log must be value-identical to the
//! deterministic simulator's, slot by slot, on every replayable
//! scenario — any batch size, any pipeline depth.
//!
//! Both substrates replay the same compiled schedule per instance
//! (`indulgent_log::compile_schedule`): crashes, and the delayed messages
//! of an asynchronous prefix, applied by round. So this equality is
//! exact, not statistical, and over instant links it extends to the
//! round each replica decides in.

use std::collections::BTreeMap;

use indulgent_log::{
    run_log_session, run_log_sim, AsyncPrefix, ClientFrontend, IntakePolicy, LogConfig, LogReport,
    LogScenario, NetProfile,
};
use indulgent_model::{Round, SystemConfig};

fn cfg() -> SystemConfig {
    SystemConfig::majority(5, 2).unwrap()
}

fn workload(batch: usize, instances: u64, intake: IntakePolicy) -> ClientFrontend {
    let mut f = ClientFrontend::new(5, batch).with_intake(intake);
    f.submit_all(0..instances * batch as u64);
    f
}

fn assert_substrates_agree(
    log_config: LogConfig,
    scenario: &LogScenario,
    intake: IntakePolicy,
    label: &str,
) -> (LogReport, LogReport) {
    let batch = log_config.batch_size;
    let instances = log_config.instances;
    let sim = run_log_sim(cfg(), log_config, scenario.clone(), workload(batch, instances, intake));
    let net = run_log_session(
        cfg(),
        log_config,
        scenario.clone(),
        workload(batch, instances, intake),
        NetProfile::test_sized(),
    );
    sim.check().unwrap_or_else(|e| panic!("{label}: sim invariants: {e}"));
    net.check().unwrap_or_else(|e| panic!("{label}: net invariants: {e}"));
    assert_eq!(sim.decided_values, net.decided_values, "{label}: decided values diverged");
    assert_eq!(sim.canonical, net.canonical, "{label}: applied logs diverged");
    (sim, net)
}

#[test]
fn failure_free_logs_agree_across_batch_and_depth_matrix() {
    for (batch, depth) in [(1usize, 1u64), (1, 3), (4, 1), (4, 3), (2, 5)] {
        let log_config = LogConfig::sequential(8).with_batch_size(batch).with_pipeline_depth(depth);
        let (sim, _) = assert_substrates_agree(
            log_config,
            &LogScenario::failure_free(5),
            IntakePolicy::Shared,
            &format!("batch={batch} depth={depth}"),
        );
        // Healthy slots decide on the Fig. 4 round-2 fast path.
        for row in &sim.decisions {
            for d in row.iter().flatten() {
                assert_eq!(d.round, Round::new(2), "failure-free slots use the fast path");
            }
        }
        assert_eq!(sim.committed_commands, 8 * batch as u64);
    }
}

#[test]
fn crash_scenarios_agree_at_every_pipeline_depth() {
    // A mid-protocol crash (p1 in slot 2, round 2) plus a from-the-start
    // crash later (p3 from slot 4): exactly the t = 2 budget.
    let scenario =
        LogScenario::failure_free(5).crash(1, 2, Round::new(2)).crash(3, 4, Round::FIRST);
    for depth in 1..=4u64 {
        let log_config = LogConfig::sequential(8).with_batch_size(2).with_pipeline_depth(depth);
        let (sim, _) = assert_substrates_agree(
            log_config,
            &scenario,
            IntakePolicy::Shared,
            &format!("crash depth={depth}"),
        );
        // Shared intake: crashes lose no batches, every slot commits.
        assert_eq!(sim.committed_commands, 16, "depth {depth}");
        assert!(sim.decided_values.iter().all(Option::is_some));
    }
}

#[test]
fn crash_round_sweep_is_pinned_replayably() {
    // Sweep the crash point across (instance, round) for one victim: a
    // replayable family of seeds, every member pinned sim == runtime.
    for instance in 1..=3u64 {
        for round in 1..=3u32 {
            let scenario = LogScenario::failure_free(5).crash(2, instance, Round::new(round));
            let log_config = LogConfig::sequential(6).with_batch_size(1).with_pipeline_depth(2);
            assert_substrates_agree(
                log_config,
                &scenario,
                IntakePolicy::Shared,
                &format!("crash p2@({instance},{round})"),
            );
        }
    }
}

/// Materializes the canonical applied log into a toy KV store (payload
/// `p` means `put key = p % 16, value = p`) — the application-state view
/// of the log that recovery must reproduce exactly.
fn materialize(report: &LogReport) -> BTreeMap<u64, u64> {
    let mut store = BTreeMap::new();
    for id in report.canonical.applied_batches() {
        let batch = report.frontend.batch(id).expect("applied batches are registered");
        for cmd in &batch.commands {
            store.insert(cmd.payload % 16, cmd.payload);
        }
    }
    store
}

#[test]
fn crash_recovery_scenarios_agree_at_every_pipeline_depth() {
    // p1 is down from (2, round 2) until instance 4 and crashes AGAIN at
    // (6, round 1) — a double crash; p3 crashes permanently at slot 5.
    // Three crash events: more than a crash-only scenario could spend,
    // legal here because the outages never overlap past the t = 2 budget.
    let scenario = LogScenario::failure_free(5)
        .crash_recover(1, 2, Round::new(2), 4)
        .crash_recover(1, 6, Round::new(1), 7)
        .crash(3, 5, Round::FIRST);
    for depth in 1..=3u64 {
        let log_config = LogConfig::sequential(8).with_batch_size(2).with_pipeline_depth(depth);
        let (sim, net) = assert_substrates_agree(
            log_config,
            &scenario,
            IntakePolicy::Shared,
            &format!("crash-recover depth={depth}"),
        );
        // The recovered state machine, not just the log: both substrates
        // materialize the identical post-recovery KV store.
        assert_eq!(materialize(&sim), materialize(&net), "post-recovery KV state diverged");
        assert_eq!(sim.outages, net.outages, "reports carry the same outage schedule");
        assert_eq!(sim.committed_commands, 16, "depth {depth}");
        assert!(sim.decided_values.iter().all(Option::is_some));
    }
}

#[test]
fn recovery_point_sweep_is_pinned_replayably() {
    // Sweep one victim's outage window across (crash instance, recovery
    // gap): a replayable family of crash-recovery seeds, every member
    // pinned sim == runtime down to the materialized store.
    for crash_at in 1..=3u64 {
        for gap in 1..=2u64 {
            let scenario = LogScenario::failure_free(5).crash_recover(
                2,
                crash_at,
                Round::new(2),
                crash_at + gap,
            );
            let log_config = LogConfig::sequential(6).with_batch_size(1).with_pipeline_depth(2);
            let (sim, net) = assert_substrates_agree(
                log_config,
                &scenario,
                IntakePolicy::Shared,
                &format!("recover p2@({crash_at},+{gap})"),
            );
            assert_eq!(materialize(&sim), materialize(&net));
        }
    }
}

#[test]
fn round_robin_contention_agrees_across_substrates() {
    // Multi-proposer intake (per-replica queues) under a crash: the
    // decided slot sequence — including which proposals lose and get
    // re-proposed — must be identical on both substrates.
    let scenario = LogScenario::failure_free(5).crash(4, 2, Round::new(1));
    for depth in [1u64, 3] {
        let log_config = LogConfig::sequential(8).with_batch_size(1).with_pipeline_depth(depth);
        assert_substrates_agree(
            log_config,
            &scenario,
            IntakePolicy::RoundRobin,
            &format!("round-robin depth={depth}"),
        );
    }
}

#[test]
fn async_prefix_holds_invariants_on_both_substrates() {
    // The runtime replays the prefix's delays by round, so both
    // substrates decide the same log in the same rounds, false
    // suspicions included.
    let scenario =
        LogScenario::failure_free(5).crash(0, 3, Round::new(2)).with_asynchrony(AsyncPrefix {
            until_instance: 4,
            sync_from: 5,
            probability: 0.35,
            seed: 23,
        });
    let log_config = LogConfig::sequential(7).with_batch_size(2).with_pipeline_depth(2);
    let sim =
        run_log_sim(cfg(), log_config, scenario.clone(), workload(2, 7, IntakePolicy::Shared));
    let net = run_log_session(
        cfg(),
        log_config,
        scenario,
        workload(2, 7, IntakePolicy::Shared),
        NetProfile::test_sized(),
    );
    sim.check().unwrap();
    net.check().unwrap();
    assert_eq!(sim.decided_values, net.decided_values, "decided values diverged");
    assert_eq!(sim.canonical, net.canonical, "applied logs diverged");
    assert_eq!(sim.decisions, net.decisions, "decisions or their rounds diverged");
    // Instances 1 and 2 run before the crash: only the prefix's false
    // suspicions keep them off the round-2 fast path.
    let slow = sim.decisions[..2].iter().flatten().flatten().any(|d| d.round > Round::new(2));
    assert!(slow, "the prefix's false suspicions cost rounds");
}
