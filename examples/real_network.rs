//! Run `A_{t+2}` against the wall clock — a manual chaos probe.
//!
//! One reusable [`Session`], stepped on this thread, runs three consensus
//! instances back to back: a synchronous network, one with a
//! mid-protocol crash, and one replaying a seeded ES schedule whose
//! asynchronous prefix causes false suspicions. The same automaton code
//! that runs under the deterministic simulator races here against
//! wall-clock timeouts.
//!
//! Flags make it a probe for arbitrary configurations:
//!
//! ```text
//! cargo run --release --example real_network -- --n 7 --t 3 --async-until 6 --seed 11
//! ```
//!
//! * `--n N` / `--t T` — system size and resilience (`t < n/2`);
//! * `--async-until R` — the asynchronous prefix lasts until round `R`;
//! * `--seed S` — seed of the schedule (`indulgent_sim::random_run`).

use std::time::Duration;

use indulgent_consensus::{AtPlus2, RotatingCoordinator};
use indulgent_model::{ProcessId, Round, SystemConfig, Value};
use indulgent_runtime::{InstanceSpec, Session};
use indulgent_sim::{random_run, ModelKind, RandomRunParams, ScheduleBuilder};

fn flag(args: &[String], name: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == name)
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("usage: {name} <integer>"))
        })
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n = flag(&args, "--n", 5) as usize;
    let t = flag(&args, "--t", 2) as usize;
    let async_until = flag(&args, "--async-until", 5) as u32;
    let seed = flag(&args, "--seed", 7);

    let cfg = SystemConfig::majority(n, t)?;
    // Distinct proposals; the minimum (value 1, at p_{n-1}) must win.
    let proposals: Vec<Value> = (0..n).map(|i| Value::new((((i * 7) % n) + 1) as u64)).collect();
    let expected = *proposals.iter().min().expect("nonempty");
    let build = move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(cfg, id, v, RotatingCoordinator::new(cfg, id))
    };
    let reset = |_i: usize, p: &mut AtPlus2<RotatingCoordinator>, v: Value| p.reset_instance(v);

    // The session is built once; the later two instances reset the
    // automatons of the first.
    let mut session = Session::with_recycler(cfg, Duration::from_millis(4), build, reset);
    let overall = std::time::Instant::now();

    // 1. A synchronous network: decisions at round t + 2, in real time.
    let started = std::time::Instant::now();
    let instance = session.start_instance_recycled(&proposals, &InstanceSpec::synchronous(cfg));
    let report = session.wait_instance(instance);
    println!("synchronous network ({:?}):", started.elapsed());
    for d in report.decisions.iter().flatten() {
        assert_eq!(d.value, expected);
        println!("  {} decided {} at {}", d.process, d.value, d.round);
    }

    // 2. Crash one process mid-protocol (same session, next instance).
    let started = std::time::Instant::now();
    let schedule = ScheduleBuilder::new(cfg, ModelKind::Es)
        .crash_before_send(ProcessId::new(1), Round::new(2))
        .build(2)?;
    let spec = InstanceSpec::replaying(schedule);
    let instance = session.start_instance_recycled(&proposals, &spec);
    let report = session.wait_instance(instance);
    for d in report.decisions.iter().flatten() {
        assert_eq!(d.value, expected, "agreement under the crash");
    }
    let decided = report.decisions.iter().flatten().map(|d| d.round).max().expect("decided");
    println!(
        "\nwith p1 crashing at round 2 ({:?}): global decision at {decided}",
        started.elapsed()
    );

    // 3. An asynchronous prefix: a seeded ES schedule delays messages to
    // later rounds until round `async_until`, causing false suspicions;
    // the algorithm falls back to its underlying consensus where needed
    // and still agrees.
    let started = std::time::Instant::now();
    let params = RandomRunParams::eventually_synchronous(0, 1, async_until);
    let spec = InstanceSpec::replaying(random_run(cfg, ModelKind::Es, params, async_until, seed));
    let instance = session.start_instance_recycled(&proposals, &spec);
    let report = session.wait_instance(instance);
    let decided = report.decisions.iter().flatten().map(|d| d.round).max().expect("decided");
    println!(
        "\nasynchronous prefix until round {async_until} ({:?}): global decision at {decided}",
        started.elapsed()
    );

    // Uniform agreement across every instance.
    for d in report.decisions.iter().flatten() {
        assert_eq!(d.value, expected, "agreement under asynchrony");
    }
    println!(
        "\nuniform agreement held in all three executions (n={n}, t={t}, total {:?}, one session)",
        overall.elapsed()
    );
    Ok(())
}
