//! A session runs its instances of `n` replicas on `min(n,
//! available_parallelism)` worker threads, and dropping it ends every one
//! of them. The check
//! counts this process's live threads via /proc, so it lives in a test
//! binary of its own: no sibling test can spawn or join threads between
//! its counts.

use std::time::{Duration, Instant};

use indulgent_consensus::{AtPlus2, RotatingCoordinator};
use indulgent_model::{ProcessId, SystemConfig, Value};
use indulgent_runtime::{InstanceSpec, Session};

#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("proc readable").count()
}

#[cfg(target_os = "linux")]
#[test]
fn session_spawns_one_worker_per_core_and_joins_them_on_drop() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
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
        let instance = session
            .start_instance_recycled(&vec![Value::new(1); n], &InstanceSpec::synchronous(config));
        let report = session.wait_instance(instance);
        assert!(report.decisions.iter().all(Option::is_some), "n = {n}: every replica decides");
        let during = live_threads();
        assert_eq!(during - before, n.min(cores), "n = {n} on {cores} cores: worker threads");

        drop(session);
        // A joined thread leaves /proc a moment after its joiner wakes,
        // so the count may lag the join by a few microseconds.
        let deadline = Instant::now() + Duration::from_secs(1);
        while live_threads() > before {
            assert!(
                Instant::now() < deadline,
                "n = {n}: {} threads outlived the session",
                live_threads() - before
            );
            std::thread::yield_now();
        }
    }
}
