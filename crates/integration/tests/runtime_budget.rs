//! The threaded runtime's wake budget: how often a warm session's worker
//! threads park on their inboxes per consensus instance. The check reads
//! the process-global `runtime_session.worker_parks` counter, so it lives
//! in a test binary of its own: no sibling test can park a worker between
//! its two reads.

use std::collections::VecDeque;
use std::time::Duration;

use indulgent_consensus::{AtPlus2, RotatingCoordinator};
use indulgent_model::{ProcessId, SystemConfig, Value};
use indulgent_runtime::{InstanceSpec, Session};

/// The `runtime_session.worker_parks` counter (0 before any session
/// exists).
fn worker_parks() -> u64 {
    indulgent_obs::dump_to_string()
        .lines()
        .find_map(|line| line.strip_prefix("runtime_session.worker_parks "))
        .map_or(0, |v| v.parse().expect("counter value"))
}

/// Runs `instances` instances with `depth` of them in flight, each waited
/// for in full before its slot is reused, and returns the worker parks
/// per instance.
fn parks_per_instance(
    session: &mut Session<AtPlus2<RotatingCoordinator>>,
    instances: u64,
    depth: usize,
) -> f64 {
    let spec = InstanceSpec::synchronous(session.config());
    let n = session.config().n();
    let before = worker_parks();
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
    (worker_parks() - before) as f64 / instances as f64
}

/// A worker parks only when none of the replicas it hosts can progress.
/// When every replica decides at round 2, a worker waits at most four
/// times per instance at depth 1: for the job, and for the remote
/// messages of rounds 1, 2 and the round-3 relay; replicas on the same
/// worker reach each other without a park. So the budget is four parks
/// per instance per worker thread the session should spawn,
/// `W = min(n, available_parallelism)`. On 2 vCPUs that is 8, against
/// 2.5 to 3.6 recorded (debug and release builds), while five threads,
/// one per replica, park about 18 times.
///
/// At depth 4 one wake serves the round phases of several instances:
/// 0.5 to 1.6 parks per instance were recorded on 2 vCPUs, against about
/// 4.2 with five threads. The budget is two parks per instance per worker,
/// 4 on 2 vCPUs, which leaves room for a scheduler that splits what one
/// wake usually serves; the depth-1 budget is the one that tells the
/// thread counts apart. Under `taskset -c 0` the session spawns one
/// worker, which shares its core with the test thread and parks less than
/// once per instance at either depth.
#[test]
fn warm_session_parks_within_budget() {
    let config = SystemConfig::majority(5, 2).expect("valid config");
    let n = config.n();
    let workers = std::thread::available_parallelism().map_or(n, usize::from).min(n) as f64;
    let build = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
            .with_failure_free_optimization()
    };
    let reset = |_i: usize, p: &mut AtPlus2<RotatingCoordinator>, v: Value| p.reset_instance(v);
    let mut session = Session::with_recycler(config, Duration::from_millis(2), build, reset);
    // Warm the automaton pools so every measured start goes through reset.
    parks_per_instance(&mut session, 200, 4);

    let depth1 = parks_per_instance(&mut session, 2_000, 1);
    let depth4 = parks_per_instance(&mut session, 2_000, 4);
    println!(
        "worker parks per instance on {workers} workers: depth 1 {depth1:.2}, depth 4 {depth4:.2}"
    );
    assert!(
        depth1 <= 4.0 * workers,
        "{depth1:.2} parks per instance at depth 1, budget {} for {workers} workers",
        4.0 * workers
    );
    assert!(
        depth4 <= 2.0 * workers,
        "{depth4:.2} parks per instance at depth 4, budget {} for {workers} workers",
        2.0 * workers
    );
}
