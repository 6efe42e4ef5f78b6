//! B4 — sweep throughput: schedules/second of the exhaustive worst-case
//! sweep (the checker's hot loop), across execution engines and backends:
//!
//! * `replay-serial` — the run-from-scratch loop the engine is built from:
//!   every serial schedule enumerated (`for_each_serial_schedule`), then
//!   re-executed from round 1 (`run_schedule`), with runs and the worst
//!   and best decision rounds folded inline;
//! * `incremental-serial` — the fork-on-branch engine: enumeration fused
//!   with execution, each shared prefix executed once (an algorithmic
//!   speedup independent of thread count);
//! * `incremental-parallel-2/4` — the same engine with work units fanned
//!   over the pooled workers.
//!
//! The swept space is the full `n = 5, t = 2` serial-run space with
//! crashes in rounds `1..=4` (15 681 schedules per iteration); every
//! variant computes the same run count and worst and best decision rounds
//! (the incremental ones the identical `WorstCaseReport`), so the timings
//! are apples to apples. Criterion's throughput annotation is the schedule
//! count, so the report reads directly in schedules/second.
//!
//! Besides the criterion output, the bench emits a machine-readable
//! `BENCH_sweep.json` (schedules/second per backend, the
//! incremental-over-replay speedup, and the engine counters of one
//! incremental-serial sweep — rounds stepped, shared-broadcast fast-path
//! hits, deliveries built, payload clones, snapshot forks) at the
//! workspace root, where the committed copy records the last measurement.
//! Set `BENCH_SWEEP_JSON` to redirect the file, or to `0` to skip it (CI
//! does, to run the agreement check without rewriting the file).

use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use indulgent_checker::{worst_case_decision_round, SweepBackend, WorstCaseReport};
use indulgent_consensus::{AtPlus2, RotatingCoordinator};
use indulgent_model::{ProcessId, Round, SystemConfig, Value};
use indulgent_sim::{
    count_serial_schedules, engine_counters, for_each_serial_schedule, run_schedule, ModelKind,
};

const CRASH_HORIZON: u32 = 4;
const RUN_HORIZON: u32 = 30;

/// What every variant computes: runs swept, worst and best global-decision
/// round.
type Summary = (u64, Round, Round);

/// One measured engine/backend combination.
struct Variant {
    name: &'static str,
    engine: &'static str,
    threads: usize,
    run: fn(&Bench) -> Summary,
}

struct Bench {
    config: SystemConfig,
    props: Vec<Value>,
}

impl Bench {
    fn factory(&self) -> impl Fn(usize, Value) -> AtPlus2<RotatingCoordinator> + Sync + '_ {
        let config = self.config;
        move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
        }
    }

    /// The run-from-scratch loop: enumerate every serial schedule and
    /// execute it from round 1, folding the summary inline.
    fn replay(&self) -> Summary {
        let factory = self.factory();
        let mut runs = 0u64;
        let (mut worst, mut best) = (Round::new(1), Round::new(u32::MAX));
        let _ = for_each_serial_schedule(self.config, ModelKind::Es, CRASH_HORIZON, |schedule| {
            let outcome = run_schedule(&factory, &self.props, schedule, RUN_HORIZON)
                .expect("one proposal per process");
            outcome.check_consensus().expect("A_t+2 satisfies consensus");
            let round = outcome.global_decision_round().expect("A_t+2 decides");
            runs += 1;
            worst = worst.max(round);
            best = best.min(round);
            ControlFlow::Continue(())
        });
        (runs, worst, best)
    }

    fn incremental(&self, backend: SweepBackend) -> WorstCaseReport {
        worst_case_decision_round(
            &self.factory(),
            self.config,
            ModelKind::Es,
            &self.props,
            CRASH_HORIZON,
            RUN_HORIZON,
            backend,
        )
        .expect("A_t+2 satisfies consensus")
    }
}

fn summary(report: &WorstCaseReport) -> Summary {
    (report.runs, report.worst_round, report.best_round)
}

const VARIANTS: &[Variant] = &[
    Variant { name: "replay-serial", engine: "replay", threads: 1, run: Bench::replay },
    Variant {
        name: "incremental-serial",
        engine: "incremental",
        threads: 1,
        run: |b| summary(&b.incremental(SweepBackend::Serial)),
    },
    Variant {
        name: "incremental-parallel-2",
        engine: "incremental",
        threads: 2,
        run: |b| summary(&b.incremental(SweepBackend::parallel(2))),
    },
    Variant {
        name: "incremental-parallel-4",
        engine: "incremental",
        threads: 4,
        run: |b| summary(&b.incremental(SweepBackend::parallel(4))),
    },
];

fn bench_sweep_throughput(c: &mut Criterion) {
    let bench = Bench {
        config: SystemConfig::majority(5, 2).expect("valid config"),
        props: (0..5).map(|i| Value::new(i as u64 * 2 + 1)).collect(),
    };
    let schedules = count_serial_schedules(bench.config, CRASH_HORIZON);

    // Sanity: every variant computes the same result before we time
    // anything (the differential suite checks this exhaustively; the bench
    // refuses to publish apples-to-oranges numbers). The pooled reports
    // must equal the serial one, witness schedule included; the
    // run-from-scratch loop must agree on runs, worst and best round.
    let reference = bench.incremental(SweepBackend::Serial);
    for threads in [2, 4] {
        let pooled = bench.incremental(SweepBackend::parallel(threads));
        assert_eq!(pooled, reference, "incremental-parallel-{threads} diverged");
    }
    assert_eq!(bench.replay(), summary(&reference), "replay-serial diverged");

    let mut group = c.benchmark_group("sweep_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(schedules));
    for variant in VARIANTS {
        group.bench_with_input(
            BenchmarkId::new("worst_case_n5_t2", variant.name),
            variant,
            |b, variant| b.iter(|| (variant.run)(&bench)),
        );
    }
    group.finish();

    emit_json(&bench, schedules);
}

/// Times `f` and returns its best wall-clock duration over `iters` runs
/// (after one warmup).
fn best_of(iters: u32, mut f: impl FnMut()) -> Duration {
    f();
    (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("at least one iteration")
}

/// Writes `BENCH_sweep.json`: schedules/second per engine/backend and the
/// single-core incremental-over-replay speedup.
///
/// Cargo runs benches with the working directory set to the owning
/// package (`crates/bench`), so the default path anchors at the workspace
/// root via `CARGO_MANIFEST_DIR`, next to the committed copy.
fn emit_json(bench: &Bench, schedules: u64) {
    let path = std::env::var("BENCH_SWEEP_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json").into());
    if path == "0" {
        return;
    }
    let mut rows = Vec::new();
    for variant in VARIANTS {
        let elapsed = best_of(3, || {
            let _ = (variant.run)(bench);
        });
        let secs = elapsed.as_secs_f64();
        rows.push((variant, secs, schedules as f64 / secs));
    }
    let replay_rate = rows
        .iter()
        .find(|(v, _, _)| v.name == "replay-serial")
        .map(|&(_, _, rate)| rate)
        .expect("replay baseline measured");
    let incremental_rate = rows
        .iter()
        .find(|(v, _, _)| v.name == "incremental-serial")
        .map(|&(_, _, rate)| rate)
        .expect("incremental serial measured");

    // Engine counters over exactly one incremental-serial sweep: *what*
    // the engine did, alongside how fast it did it. The counters are
    // process-wide, so measure while nothing else runs.
    let before = engine_counters().snapshot();
    let _ = bench.incremental(SweepBackend::Serial);
    let counters = engine_counters().snapshot().since(&before);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"sweep_throughput\",\n");
    json.push_str("  \"workload\": \"worst_case_n5_t2\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"n\": 5, \"t\": 2, \"crash_horizon\": {CRASH_HORIZON}, \"run_horizon\": {RUN_HORIZON}}},"
    );
    let _ = writeln!(json, "  \"schedules_per_iter\": {schedules},");
    let _ = writeln!(
        json,
        "  \"incremental_over_replay_single_core\": {:.3},",
        incremental_rate / replay_rate
    );
    let _ = writeln!(
        json,
        "  \"incremental_serial_counters\": {{\"rounds_stepped\": {}, \"fast_path_rounds\": {}, \"deliveries_built\": {}, \"messages_cloned\": {}, \"forks\": {}}},",
        counters.rounds_stepped,
        counters.fast_path_rounds,
        counters.deliveries_built,
        counters.messages_cloned,
        counters.forks
    );
    json.push_str("  \"backends\": [\n");
    for (i, (variant, secs, rate)) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"engine\": \"{}\", \"threads\": {}, \"seconds_per_iter\": {:.6}, \"schedules_per_second\": {:.1}}}",
            variant.name, variant.engine, variant.threads, secs, rate
        );
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    print!("{json}");
}

criterion_group!(benches, bench_sweep_throughput);
criterion_main!(benches);
