//! B1b — per-algorithm cost of one failure-free synchronous run, plus the
//! wall-clock runtime for comparison with the simulator.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use indulgent_consensus::{
    AfPlus2, AtPlus2, CoordinatorEcho, FloodSet, LeaderEcho, RotatingCoordinator, Standalone,
};
use indulgent_model::{ProcessId, SystemConfig, Value};
use indulgent_runtime::{run_network, InstanceSpec};
use indulgent_sim::{run_schedule, ModelKind, Schedule};

fn proposals(n: usize) -> Vec<Value> {
    (0..n).map(|i| Value::new((((i + n / 2) % n) as u64) * 2 + 1)).collect()
}

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithms_sync_run");
    let config = SystemConfig::majority(7, 3).expect("valid config");
    let props = proposals(7);
    let schedule = Schedule::failure_free(config, ModelKind::Es);

    group.bench_function("at_plus2", |b| {
        b.iter(|| {
            let f = move |i: usize, v: Value| {
                let id = ProcessId::new(i);
                AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
            };
            run_schedule(&f, &props, &schedule, 40).expect("one proposal per process")
        });
    });
    group.bench_function("coordinator_echo", |b| {
        b.iter(|| {
            let f = move |i: usize, v: Value| CoordinatorEcho::new(config, ProcessId::new(i), v);
            run_schedule(&f, &props, &schedule, 40).expect("one proposal per process")
        });
    });
    group.bench_function("rotating_coordinator", |b| {
        b.iter(|| {
            let f = move |i: usize, v: Value| {
                Standalone::new(RotatingCoordinator::new(config, ProcessId::new(i)), v)
            };
            run_schedule(&f, &props, &schedule, 40).expect("one proposal per process")
        });
    });

    let third = SystemConfig::third(7, 2).expect("valid config");
    group.bench_function("af_plus2", |b| {
        b.iter(|| {
            let f = move |i: usize, v: Value| AfPlus2::new(third, ProcessId::new(i), v);
            run_schedule(&f, &props, &schedule, 40).expect("one proposal per process")
        });
    });
    group.bench_function("leader_echo", |b| {
        b.iter(|| {
            let f = move |i: usize, v: Value| LeaderEcho::new(third, ProcessId::new(i), v);
            run_schedule(&f, &props, &schedule, 40).expect("one proposal per process")
        });
    });

    let scs = SystemConfig::synchronous(7, 3).expect("valid config");
    let scs_schedule = Schedule::failure_free(scs, ModelKind::Scs);
    group.bench_function("floodset_scs", |b| {
        b.iter(|| {
            let f = move |_i: usize, v: Value| FloodSet::new(scs, v);
            run_schedule(&f, &props, &scs_schedule, 20).expect("one proposal per process")
        });
    });
    group.finish();

    // Threaded runtime: one sample per iteration is expensive; keep the
    // sample count small.
    let mut group = c.benchmark_group("threaded_runtime");
    group.sample_size(10);
    group.bench_function("at_plus2_network_n5", |b| {
        let config = SystemConfig::majority(5, 2).expect("valid config");
        let props = proposals(5);
        b.iter(|| {
            let f = move |i: usize, v: Value| {
                let id = ProcessId::new(i);
                AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
            };
            let spec = InstanceSpec::synchronous(config);
            run_network(config, f, &props, Duration::from_millis(4), &spec)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
