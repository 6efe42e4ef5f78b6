//! Chaos proptests for the replicated log: random batch sizes, pipeline
//! depths, crash points, intake policies, and asynchronous prefixes must
//! always yield a log satisfying the total-order invariants — per-slot
//! agreement and validity, identical decided logs on all correct
//! replicas, and exactly-once acknowledged commands.
//!
//! The heavy randomized coverage runs on the deterministic simulator
//! substrate (fast, reproducible by seed); a slimmer randomized matrix
//! exercises the session substrate with real clocks, and a
//! crash-only case pins the two substrates to the identical decided log
//! on replayable seeds (the exhaustive pinning lives in the integration
//! differential suite).

use indulgent_log::{
    run_log_session, run_log_sim, AsyncPrefix, ClientFrontend, IntakePolicy, LogConfig, LogReport,
    LogScenario, NetProfile,
};
use indulgent_model::{Round, SystemConfig};
use proptest::prelude::*;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn cfg() -> SystemConfig {
    SystemConfig::majority(5, 2).unwrap()
}

fn workload(batch: usize, commands: u64, intake: IntakePolicy) -> ClientFrontend {
    let mut f = ClientFrontend::new(5, batch).with_intake(intake);
    f.submit_all(0..commands);
    f
}

fn intake_of(pick: u8) -> IntakePolicy {
    match pick % 3 {
        0 => IntakePolicy::RoundRobin,
        1 => IntakePolicy::Leader(usize::from(pick) % 5),
        _ => IntakePolicy::Shared,
    }
}

/// Builds a scenario from raw random material: up to `t` permanent
/// crashes at arbitrary (instance, round) points, optionally an
/// asynchronous prefix.
#[allow(clippy::too_many_arguments)]
fn scenario_of(
    crash_count: usize,
    crash_seed: u64,
    instances: u64,
    with_async: bool,
    async_seed: u64,
) -> LogScenario {
    let mut scenario = LogScenario::failure_free(5);
    let mut x = crash_seed | 1;
    let mut victims: Vec<usize> = Vec::new();
    while victims.len() < crash_count {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let victim = (x >> 33) as usize % 5;
        if !victims.contains(&victim) {
            victims.push(victim);
            let instance = (x >> 17) % instances + 1;
            let round = (x >> 7) as u32 % 4 + 1;
            scenario = scenario.crash(victim, instance, Round::new(round));
        }
    }
    if with_async {
        scenario = scenario.with_asynchrony(AsyncPrefix {
            until_instance: instances / 2 + 1,
            sync_from: 4,
            probability: 0.35,
            seed: async_seed,
        });
    }
    scenario
}

/// Seeded crash-*recovery* chaos: up to `t` victims, each down for a
/// random `(instance, round)` → `recover_instance` window, the first
/// victim crashing **twice** (two disjoint outage intervals) when the
/// run is long enough.
fn recovery_scenario_of(n: usize, t: usize, instances: u64, seed: u64) -> LogScenario {
    let mut scenario = LogScenario::failure_free(n);
    let mut x = seed;
    let mut victims: Vec<usize> = Vec::new();
    while victims.len() < t {
        let v = splitmix(&mut x) as usize % n;
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    for (k, &v) in victims.iter().enumerate() {
        let from = splitmix(&mut x) % instances + 1;
        let round = Round::new((splitmix(&mut x) % 4 + 1) as u32);
        let recover = from + splitmix(&mut x) % 3 + 1;
        scenario = scenario.crash_recover(v, from, round, recover);
        if k == 0 && recover < instances {
            // Double crash: the same replica goes down again after it
            // recovered (disjoint interval, so still within budget).
            let from2 = recover + splitmix(&mut x) % (instances - recover);
            let round2 = Round::new((splitmix(&mut x) % 4 + 1) as u32);
            scenario = scenario.crash_recover(v, from2, round2, from2 + splitmix(&mut x) % 2 + 1);
        }
    }
    scenario
}

/// The invariant gauntlet plus cheap cross-checks every chaotic run must
/// pass.
fn assert_log_healthy(report: &LogReport, commands: u64) {
    report.check().unwrap_or_else(|e| panic!("log invariants violated: {e}"));
    assert_eq!(report.duplicate_slots, 0, "the proposal policy never re-chooses a batch");
    assert!(report.committed_commands <= commands, "cannot commit more than was submitted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Simulator substrate: the full random matrix.
    #[test]
    fn sim_log_chaos_preserves_invariants(
        batch in 1usize..6,
        depth in 1u64..5,
        instances in 2u64..12,
        crash_count in 0usize..3,
        crash_seed in any::<u64>(),
        with_async in any::<bool>(),
        async_seed in any::<u64>(),
        intake_pick in any::<u8>(),
    ) {
        let commands = instances * batch as u64;
        let scenario = scenario_of(crash_count, crash_seed, instances, with_async, async_seed);
        let report = run_log_sim(
            cfg(),
            LogConfig::sequential(instances)
                .with_batch_size(batch)
                .with_pipeline_depth(depth),
            scenario,
            workload(batch, commands, intake_of(intake_pick)),
        );
        assert_log_healthy(&report, commands);
    }

    /// Crash-recovery chaos across group sizes beyond n = 5, t = 2:
    /// seeded outage windows (double crashes included) on the simulator
    /// substrate, with every slot still deciding — a recovering minority
    /// never stalls the log.
    #[test]
    fn sim_log_recovery_chaos_preserves_invariants(
        n_pick in 0usize..3,
        batch in 1usize..4,
        depth in 1u64..4,
        instances in 4u64..10,
        seed in any::<u64>(),
    ) {
        let (n, t) = [(3, 1), (5, 2), (7, 3)][n_pick];
        let config = SystemConfig::majority(n, t).unwrap();
        let commands = instances * batch as u64;
        let scenario = recovery_scenario_of(n, t, instances, seed);
        let mut frontend = ClientFrontend::new(n, batch).with_intake(IntakePolicy::Shared);
        frontend.submit_all(0..commands);
        let report = run_log_sim(
            config,
            LogConfig::sequential(instances)
                .with_batch_size(batch)
                .with_pipeline_depth(depth),
            scenario,
            frontend,
        );
        assert_log_healthy(&report, commands);
        prop_assert!(report.decided_values.iter().all(Option::is_some));
    }

    /// Simulator chaos is deterministic: the same seeds replay to the
    /// identical report (decided values, logs, commit counts).
    #[test]
    fn sim_log_chaos_is_replayable(
        batch in 1usize..4,
        depth in 1u64..4,
        instances in 2u64..8,
        crash_count in 0usize..3,
        crash_seed in any::<u64>(),
        async_seed in any::<u64>(),
    ) {
        let commands = instances * batch as u64;
        let run = || {
            run_log_sim(
                cfg(),
                LogConfig::sequential(instances)
                    .with_batch_size(batch)
                    .with_pipeline_depth(depth),
                scenario_of(crash_count, crash_seed, instances, true, async_seed),
                workload(batch, commands, IntakePolicy::RoundRobin),
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.decided_values, b.decided_values);
        prop_assert_eq!(a.canonical, b.canonical);
        prop_assert_eq!(a.committed_commands, b.committed_commands);
    }
}

proptest! {
    // The session substrate waits out real grace periods and link delays
    // per case; keep the case count wall-clock friendly.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Session substrate: random batch/depth/crash/async combinations
    /// under real clocks still satisfy every invariant.
    #[test]
    fn session_log_chaos_preserves_invariants(
        batch in 1usize..5,
        depth in 1u64..5,
        crash_count in 0usize..3,
        crash_seed in any::<u64>(),
        with_async in any::<bool>(),
        async_seed in any::<u64>(),
    ) {
        let instances = 6u64;
        let commands = instances * batch as u64;
        let scenario = scenario_of(crash_count, crash_seed, instances, with_async, async_seed);
        let report = run_log_session(
            cfg(),
            LogConfig::sequential(instances)
                .with_batch_size(batch)
                .with_pipeline_depth(depth),
            scenario,
            workload(batch, commands, IntakePolicy::Shared),
            NetProfile::test_sized(),
        );
        assert_log_healthy(&report, commands);
    }

    /// Crash-recovery chaos on real threads: seeded outage windows must
    /// hold every invariant on the session substrate too.
    #[test]
    fn session_log_recovery_chaos_preserves_invariants(
        batch in 1usize..4,
        depth in 1u64..4,
        seed in any::<u64>(),
    ) {
        let instances = 6u64;
        let commands = instances * batch as u64;
        let scenario = recovery_scenario_of(5, 2, instances, seed);
        let report = run_log_session(
            cfg(),
            LogConfig::sequential(instances)
                .with_batch_size(batch)
                .with_pipeline_depth(depth),
            scenario,
            workload(batch, commands, IntakePolicy::Shared),
            NetProfile::test_sized(),
        );
        assert_log_healthy(&report, commands);
    }

    /// Crash-only chaos pins the runtime to the simulator: identical
    /// decided logs at any pipeline depth, on replayable seeds.
    #[test]
    fn session_log_crashes_match_sim(
        batch in 1usize..4,
        depth in 1u64..5,
        crash_count in 1usize..3,
        crash_seed in any::<u64>(),
    ) {
        let instances = 6u64;
        let commands = instances * batch as u64;
        let scenario = scenario_of(crash_count, crash_seed, instances, false, 0);
        let log_config = LogConfig::sequential(instances)
            .with_batch_size(batch)
            .with_pipeline_depth(depth);
        let sim = run_log_sim(
            cfg(),
            log_config,
            scenario.clone(),
            workload(batch, commands, IntakePolicy::Shared),
        );
        let net = run_log_session(
            cfg(),
            log_config,
            scenario,
            workload(batch, commands, IntakePolicy::Shared),
            NetProfile::test_sized(),
        );
        prop_assert_eq!(&sim.decided_values, &net.decided_values);
        prop_assert_eq!(&sim.canonical, &net.canonical);
    }
}

/// Rolling restarts: three distinct replicas crash over the run — more
/// crash *events* than t = 2 — but the outage windows are disjoint, so
/// at most one replica is down at any instance and the log never stalls.
#[test]
fn rolling_outages_beyond_t_total_stay_correct() {
    let scenario = LogScenario::failure_free(5)
        .crash_recover(0, 1, Round::new(1), 3)
        .crash_recover(1, 3, Round::new(2), 5)
        .crash_recover(2, 5, Round::new(1), 7);
    assert_eq!(scenario.crash_count(), 3, "more total crash events than t");
    let report = run_log_sim(
        cfg(),
        LogConfig::sequential(8).with_batch_size(2).with_pipeline_depth(2),
        scenario,
        workload(2, 16, IntakePolicy::Shared),
    );
    assert_log_healthy(&report, 16);
    assert!(report.decided_values.iter().all(Option::is_some));
    assert_eq!(report.committed_commands, 16, "shared intake loses nothing to rolling outages");
}
