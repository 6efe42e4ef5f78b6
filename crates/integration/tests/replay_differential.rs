//! Differential conformance of the wall-clock runtime against the
//! simulator: one adversary for both substrates.
//!
//! The runtime replays a simulator [`Schedule`] by round: crashes, lost
//! messages and delayed ones (`indulgent_runtime` module docs). Over
//! instant links every replica must then decide the same value in the
//! same round as under `run_schedule`, and the crashed sets must match,
//! on
//!
//! * every serial schedule of `n = 3, t = 1` (crashes in rounds 1..=3,
//!   each with any subset of its last messages delivered);
//! * every crash-before-send schedule of the `n = 5, t = 2` serial space
//!   over rounds 1..=3;
//! * 200 seeded `random_run` ES schedules of `n = 5, t = 2`: partial
//!   crash-round sends and an asynchronous prefix of delayed messages.

use std::ops::ControlFlow;
use std::time::Duration;

use indulgent_consensus::{AtPlus2, RotatingCoordinator};
use indulgent_integration::proposals;
use indulgent_model::{ProcessId, SystemConfig, Value};
use indulgent_runtime::{run_network, InstanceSpec};
use indulgent_sim::{
    for_each_serial_schedule, random_run, run_schedule, MessageFate, ModelKind, RandomRunParams,
    Schedule,
};

/// Round budget of both substrates.
const HORIZON: u32 = 30;
/// The straggler window. Replay does not depend on it over instant links:
/// a round ends on grace only once every live replica has sent it.
const GRACE: Duration = Duration::from_millis(2);

/// Runs `schedule` on both substrates and compares every replica's
/// decision (value and round) and the crashed set.
fn assert_replays_live(schedule: &Schedule) {
    let config = schedule.config();
    let props = proposals(config.n());
    let factory = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
    };
    let sim = run_schedule(&factory, &props, schedule, HORIZON).expect("one proposal each");
    sim.check_consensus().unwrap_or_else(|e| panic!("simulator: {e} under {schedule:?}"));
    let spec = InstanceSpec::replaying(schedule.clone()).with_max_rounds(HORIZON);
    let net = run_network(config, factory, &props, GRACE, &spec).outcome;
    assert_eq!(sim.decisions, net.decisions, "decisions diverged under {schedule:?}");
    assert_eq!(sim.crashed, net.crashed, "crashed sets diverged under {schedule:?}");
}

#[test]
fn every_serial_schedule_of_n3_t1_replays_live() {
    let config = SystemConfig::majority(3, 1).unwrap();
    let mut replayed = 0;
    let _ = for_each_serial_schedule(config, ModelKind::Es, 3, |schedule| {
        assert_replays_live(schedule);
        replayed += 1;
        ControlFlow::Continue(())
    });
    // Failure-free, plus 3 rounds x 3 victims x 4 subsets of survivors.
    assert_eq!(replayed, 1 + 3 * 3 * 4);
}

#[test]
fn every_crash_before_send_schedule_of_n5_t2_replays_live() {
    let config = SystemConfig::majority(5, 2).unwrap();
    let mut replayed = 0;
    let _ = for_each_serial_schedule(config, ModelKind::Es, 3, |schedule| {
        let silent = config.processes().all(|p| match schedule.crash_round(p) {
            None => true,
            // Fates toward already-crashed receivers are irrelevant
            // (never delivered); only live receivers must lose.
            Some(r) => config
                .processes()
                .filter(|&q| q != p && schedule.alive_entering(q, r))
                .all(|q| schedule.fate(r, p, q) == MessageFate::Lose),
        });
        if silent {
            assert_replays_live(schedule);
            replayed += 1;
        }
        ControlFlow::Continue(())
    });
    // 1 failure-free + one-crash (3 rounds x 5 victims) + two-crash
    // (3 ordered round pairs x 5 x 4 victims).
    assert_eq!(replayed, 1 + 15 + 60);
}

#[test]
fn seeded_es_schedules_replay_live() {
    let config = SystemConfig::majority(5, 2).unwrap();
    let mut delayed = 0;
    for seed in 0..200u64 {
        let crashes = (seed % 3) as usize;
        let sync_from = 2 + (seed % 4) as u32;
        let params = RandomRunParams::eventually_synchronous(crashes, 4, sync_from);
        let schedule = random_run(config, ModelKind::Es, params, HORIZON, seed);
        delayed += schedule.overrides().filter(|o| matches!(o.3, MessageFate::Delay(_))).count();
        assert_replays_live(&schedule);
    }
    assert!(delayed > 200, "the prefixes delay messages: {delayed}");
}
