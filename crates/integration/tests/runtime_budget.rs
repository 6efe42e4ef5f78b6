//! The runtime's sleep budget: how often a warm session's result calls
//! sleep per consensus instance. The check reads the process-global
//! `runtime_session.caller_sleeps` counter, so it lives in a test binary
//! of its own: no sibling test can sleep in a session between its two
//! reads.

use std::collections::VecDeque;
use std::time::Duration;

use indulgent_consensus::{AtPlus2, RotatingCoordinator};
use indulgent_model::{ProcessId, SystemConfig, Value};
use indulgent_runtime::{DelayModel, InstanceSpec, Session};

/// The `runtime_session.caller_sleeps` counter (0 before any session
/// exists).
fn caller_sleeps() -> u64 {
    indulgent_obs::counter_value("runtime_session", "caller_sleeps").unwrap_or(0)
}

/// Runs `instances` instances under `delays` with `depth` of them in
/// flight, each waited for in full before its slot is reused, and
/// returns the caller's sleeps per instance.
fn sleeps_per_instance(
    session: &mut Session<AtPlus2<RotatingCoordinator>>,
    delays: DelayModel,
    instances: u64,
    depth: usize,
) -> f64 {
    let spec = InstanceSpec::synchronous(session.config()).with_delays(delays);
    let n = session.config().n();
    let before = caller_sleeps();
    let mut window = VecDeque::new();
    for i in 0..instances {
        if window.len() == depth {
            let report = session.wait_instance(window.pop_front().expect("full window"));
            assert!(report.decisions.iter().all(Option::is_some), "instance {i} undecided");
        }
        window.push_back(session.start_instance_recycled(&vec![Value::new(i); n], &spec));
    }
    for id in window {
        session.wait_instance(id);
    }
    (caller_sleeps() - before) as f64 / instances as f64
}

/// A result call sleeps only when a pump leaves no result ready, and
/// then only until the session's next deadline.
///
/// Over instant links every message goes straight into its mailbox, and
/// every round completes once the last replica has sent, in the same
/// pump. When every replica decides at round 2, the first result call
/// after a start runs the instance to its last result, so a warm session
/// sleeps 0 times per instance at any depth.
///
/// Over 500 µs links a round's messages all fall due together, 500 µs
/// after the pump that sent them, and a sleep never ends before its
/// deadline: one sleep per round. Every replica decides at round 2, and
/// retiring the instance drops the relays still on the delay line, so
/// nothing else can wake a sleep: 2 sleeps per instance at depth 1. At
/// depth 4 a window's four instances start before the next pump and run
/// in lockstep, sharing each sleep: 0.5 per instance. Exactly 2.00 and
/// 0.50 were recorded on 2 vCPUs, in release and debug and under
/// `taskset -c 0`. The budgets, 2.2 and 0.6, leave 10 % for a rare extra
/// wake-up but not for one per instance (such as a wake-up for relays
/// left on the delay line), and not for a poll, which would sleep once
/// per tick instead of once per round.
#[test]
fn warm_session_parks_within_budget() {
    let config = SystemConfig::majority(5, 2).expect("valid config");
    let build = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
            .with_failure_free_optimization()
    };
    let reset = |_i: usize, p: &mut AtPlus2<RotatingCoordinator>, v: Value| p.reset_instance(v);
    let mut session = Session::with_recycler(config, Duration::from_millis(2), build, reset);
    let instant = DelayModel::Instant;
    let links = DelayModel::Uniform { delay: Duration::from_micros(500) };
    // Warm the automaton pools so every measured start goes through reset.
    sleeps_per_instance(&mut session, instant, 200, 4);

    let instant1 = sleeps_per_instance(&mut session, instant, 2_000, 1);
    let instant4 = sleeps_per_instance(&mut session, instant, 2_000, 4);
    let delayed1 = sleeps_per_instance(&mut session, links, 300, 1);
    let delayed4 = sleeps_per_instance(&mut session, links, 300, 4);
    println!(
        "caller sleeps per instance: instant links depth 1 {instant1:.2}, depth 4 {instant4:.2}; \
         500 us links depth 1 {delayed1:.2}, depth 4 {delayed4:.2}"
    );
    assert_eq!(instant1, 0.0, "{instant1:.2} sleeps per instance at depth 1, instant links");
    assert_eq!(instant4, 0.0, "{instant4:.2} sleeps per instance at depth 4, instant links");
    assert!(delayed1 <= 2.2, "{delayed1:.2} sleeps per instance at depth 1, budget 2.2");
    assert!(delayed4 <= 0.6, "{delayed4:.2} sleeps per instance at depth 4, budget 0.6");
}
