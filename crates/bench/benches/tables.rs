//! B1c — table regeneration benches: every experiment table E1–E9 (one per
//! `exp_*` binary, mapped in the crate docs) is regenerated (at reduced
//! parameters) under criterion, so `cargo bench` exercises each end to end
//! and times it.

use criterion::{criterion_group, criterion_main, Criterion};
use indulgent_sim::SweepBackend;

use indulgent_bench::experiments::{
    asynchrony_table, baseline_comparison_table, diamond_s_table, early_decision_table,
    eventual_decision_table, failure_free_table, fast_decision_table, lower_bound_table,
    scs_contrast_table,
};

fn bench_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiment_tables");
    group.sample_size(10);

    group.bench_function("e1_lower_bound", |b| {
        b.iter(|| lower_bound_table(&[(3, 1), (4, 1)], SweepBackend::Serial));
    });
    group.bench_function("e2_fast_decision", |b| {
        b.iter(|| fast_decision_table(&[5, 7], 50));
    });
    group.bench_function("e3_baseline_comparison", |b| {
        b.iter(|| baseline_comparison_table(&[1, 2, 3]));
    });
    group.bench_function("e4_diamond_s", |b| {
        b.iter(|| diamond_s_table(&[(5, 2)], 30));
    });
    group.bench_function("e5_failure_free", |b| {
        b.iter(|| failure_free_table(&[5, 7]));
    });
    group.bench_function("e6_eventual_decision", |b| {
        b.iter(|| eventual_decision_table(&[0, 2], &[0, 1, 2], 10, SweepBackend::Serial));
    });
    group.bench_function("e7_early_decision", |b| {
        b.iter(|| early_decision_table(50, SweepBackend::Serial));
    });
    group.bench_function("e8_scs_contrast", |b| {
        b.iter(|| scs_contrast_table(&[(3, 1), (4, 1)], SweepBackend::Serial));
    });
    group.bench_function("e9_asynchrony", |b| {
        b.iter(|| asynchrony_table(&[1, 3, 5], 30, SweepBackend::Serial));
    });
    group.finish();
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
