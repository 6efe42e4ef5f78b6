//! A session steps its instances on the caller's thread: it adds no
//! thread while it runs, and dropping it leaves none behind. The check
//! counts this process's live threads via /proc, so it lives in a test
//! binary of its own: no sibling test can spawn or join threads between
//! its counts.

use std::time::Duration;

use indulgent_consensus::{AtPlus2, RotatingCoordinator};
use indulgent_model::{ProcessId, SystemConfig, Value};
use indulgent_runtime::{DelayModel, InstanceSpec, Session};

#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("proc readable").count()
}

#[cfg(target_os = "linux")]
#[test]
fn a_session_adds_no_thread_and_leaves_none_on_drop() {
    for (n, t) in [(3, 1), (5, 2), (7, 3)] {
        let config = SystemConfig::majority(n, t).expect("valid config");
        let build = move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
        };
        let reset = |_i: usize, p: &mut AtPlus2<RotatingCoordinator>, v: Value| {
            p.reset_instance(v);
        };
        let before = live_threads();
        let mut session = Session::with_recycler(config, Duration::from_millis(2), build, reset);
        // One instance over instant links, one whose messages wait on the
        // delay line: neither may hand work to another thread.
        for delays in [DelayModel::Instant, DelayModel::Uniform { delay: Duration::from_millis(1) }]
        {
            let spec = InstanceSpec::synchronous(config).with_delays(delays);
            let instance = session.start_instance_recycled(&vec![Value::new(1); n], &spec);
            let report = session.wait_instance(instance);
            assert!(report.decisions.iter().all(Option::is_some), "n = {n}: every replica decides");
            assert_eq!(live_threads(), before, "n = {n}, {delays:?}: a session adds no thread");
        }
        drop(session);
        assert_eq!(live_threads(), before, "n = {n}: dropping a session leaves no thread");
    }
}
