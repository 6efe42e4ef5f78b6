//! The runtime's stop rule: a replica that has decided relays its
//! decision only while some replica of the instance has not finished.
//! The check reads the process-global `runtime_session.relays` counter,
//! so it lives in a test binary of its own: no sibling test can send
//! relays between its two reads.

use std::time::Duration;

use indulgent_consensus::{AtPlus2, RotatingCoordinator};
use indulgent_model::{ProcessId, SystemConfig, Value};
use indulgent_runtime::{InstanceSpec, Session};

/// The `runtime_session.relays` counter (0 before any session exists).
fn relays() -> u64 {
    indulgent_obs::counter_value("runtime_session", "relays").unwrap_or(0)
}

/// When every replica decides at round 2, each one relays at most once:
/// the round-3 broadcast it may send before its last peer has reported.
/// After that the session counts every replica finished and nobody sends
/// again. The long grace keeps a round with only a quorum of relays from
/// completing before the count is full.
#[test]
fn decided_replicas_stop_relaying_once_everyone_finished() {
    let config = SystemConfig::majority(5, 2).expect("valid config");
    let n = config.n() as u64;
    let build = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
            .with_failure_free_optimization()
    };
    let reset = |_i: usize, p: &mut AtPlus2<RotatingCoordinator>, v: Value| p.reset_instance(v);
    let before = relays();
    let mut session = Session::with_recycler(config, Duration::from_millis(50), build, reset);
    let spec = InstanceSpec::synchronous(config);
    // Relays an instance may send: `n` when everyone decided at round 2,
    // one per replica and executed round otherwise.
    let mut allowed = 0;
    let mut late = 0;
    for i in 0..500u64 {
        let proposals: Vec<Value> = (0..n).map(|j| Value::new(i * 10 + j)).collect();
        let instance = session.start_instance_recycled(&proposals, &spec);
        let report = session.wait_instance(instance);
        let decisions: Vec<_> = report.decisions.iter().map(|d| d.expect("decided")).collect();
        if decisions.iter().all(|d| d.round.get() == 2) {
            allowed += n;
        } else {
            late += 1;
            allowed += n * u64::from(report.rounds_executed + 1);
        }
    }
    // Every relay was sent on this thread, inside the result calls above,
    // so the count is final.
    let sent = relays() - before;
    assert!(
        sent <= allowed,
        "{sent} relays over 500 instances ({late} with a later decider), at most {allowed} allowed"
    );
}
