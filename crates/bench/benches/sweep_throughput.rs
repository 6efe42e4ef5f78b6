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
//! are apples to apples.
//!
//! A plain program (`harness = false`), run with
//! `cargo bench --bench sweep_throughput`. It first checks that every
//! variant agrees, then times each one over 7 samples after one warm-up
//! and writes `BENCH_sweep.json` at the workspace root, where the
//! committed copy records the last measurement: per variant the median
//! seconds per sweep (`seconds_per_iter`, and `schedules_per_second` from
//! it) with the fastest and slowest sample (`seconds_min`,
//! `seconds_max`); the single-core incremental-over-replay speedup; and
//! the engine counters of one incremental-serial sweep (rounds stepped,
//! shared-broadcast fast-path hits, deliveries built, payload clones,
//! snapshot forks). Set `BENCH_SWEEP_JSON` to redirect the file, or to
//! `0` to run only the agreement check (CI does). A failed write exits
//! non-zero.

use std::fmt::Write as _;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use indulgent_checker::{worst_case_decision_round, SweepBackend, WorstCaseReport};
use indulgent_consensus::{AtPlus2, RotatingCoordinator};
use indulgent_model::{ProcessId, Round, SystemConfig, Value};
use indulgent_sim::{
    count_serial_schedules, engine_counters, for_each_serial_schedule, run_schedule, ModelKind,
};

const CRASH_HORIZON: u32 = 4;
const RUN_HORIZON: u32 = 30;

/// Timed samples per variant, after one untimed warm-up run.
const SAMPLES: usize = 7;

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

fn main() {
    let bench = Bench {
        config: SystemConfig::majority(5, 2).expect("valid config"),
        props: (0..5).map(|i| Value::new(i as u64 * 2 + 1)).collect(),
    };

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
    println!("all {} variants agree", VARIANTS.len());

    emit_json(&bench, count_serial_schedules(bench.config, CRASH_HORIZON));
}

/// Runs `f` once to warm up, then times it `SAMPLES` times; returns the
/// wall-clock durations sorted ascending.
fn sorted_samples(mut f: impl FnMut()) -> [Duration; SAMPLES] {
    f();
    let mut samples = [Duration::ZERO; SAMPLES];
    for sample in &mut samples {
        let start = Instant::now();
        f();
        *sample = start.elapsed();
    }
    samples.sort();
    samples
}

/// Writes `BENCH_sweep.json`: per engine/backend the median, fastest and
/// slowest seconds per sweep and the median schedules/second, plus the
/// single-core incremental-over-replay speedup. Exits non-zero if the file
/// cannot be written.
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
    let rows: Vec<_> = VARIANTS
        .iter()
        .map(|variant| {
            let samples = sorted_samples(|| {
                black_box((variant.run)(bench));
            });
            (variant, samples, schedules as f64 / samples[SAMPLES / 2].as_secs_f64())
        })
        .collect();
    let rate_of = |name: &str| {
        rows.iter().find(|(v, _, _)| v.name == name).map(|&(_, _, rate)| rate).expect("measured")
    };

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
    let _ = writeln!(json, "  \"samples_per_variant\": {SAMPLES},");
    let _ = writeln!(
        json,
        "  \"incremental_over_replay_single_core\": {:.3},",
        rate_of("incremental-serial") / rate_of("replay-serial")
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
    for (i, (variant, samples, rate)) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"engine\": \"{}\", \"threads\": {}, \"seconds_per_iter\": {:.6}, \"seconds_min\": {:.6}, \"seconds_max\": {:.6}, \"schedules_per_second\": {:.1}}}",
            variant.name,
            variant.engine,
            variant.threads,
            samples[SAMPLES / 2].as_secs_f64(),
            samples[0].as_secs_f64(),
            samples[SAMPLES - 1].as_secs_f64(),
            rate
        );
        json.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    print!("{json}");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}
