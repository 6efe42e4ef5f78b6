//! The seeded benchmark of the replicated-KV arc: five workloads, the
//! end-to-end metrics of each, and (traced) the per-layer budget.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --seed N [--workload W] [--seconds S] [--trace 0|1] [--repeat R]
//! ```
//!
//! It is one process; a workload whose correctness gate fails prints the
//! violation and no metrics, and the process exits non-zero. See
//! `benchmark/README.md` for what every metric means.

mod alloc;
mod gen;
mod layers;
mod logcrash;
mod report;
mod service;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

use report::Outcome;
use service::Params;
use spec::{Kind, Workload, RUN_SECONDS, WORKLOADS};

struct Args {
    workloads: Vec<&'static Workload>,
    params: Params,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        params: Params { seed: 0, seconds: RUN_SECONDS as f64, trace: false },
        repeat: 1,
    };
    let mut seeded = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                args.workloads =
                    vec![spec::workload(&value).ok_or_else(|| bad(&format!("one of {known:?}")))?];
            }
            "--seed" => {
                args.params.seed = value.parse().map_err(|_| bad("an unsigned integer"))?;
                seeded = true;
            }
            "--seconds" => {
                args.params.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(1.0..=60.0).contains(&args.params.seconds) {
                    return Err(bad("between 1 and 60 seconds"));
                }
            }
            "--trace" => args.params.trace = value.parse::<u8>().map_err(|_| bad("0 or 1"))? != 0,
            "--repeat" => args.repeat = value.parse().map_err(|_| bad("a count of at least 1"))?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !seeded {
        return Err(
            "usage: --seed N [--workload W] [--seconds S] [--trace 0|1] [--repeat R]".into()
        );
    }
    if args.repeat == 0 {
        return Err("--repeat 0: expected a count of at least 1".into());
    }
    Ok(args)
}

/// Runs one workload once. Untraced: its end-to-end metrics. Traced: its
/// per-layer metrics, and the span tree written to `benchmark/out`.
fn run_once(workload: &Workload, params: Params) -> Result<Outcome, String> {
    let (outcome, observed) = match &workload.kind {
        Kind::Service(spec) => service::run(workload.name, spec, params)?,
        // Its isolation drives run with the first workload's service
        // configuration.
        Kind::LogCrash => logcrash::run(workload.name, spec::isolation_spec(), params)?,
    };
    let outcome = if params.trace {
        layers::per_layer(workload.name, params.seed, &outcome, &observed)?
    } else {
        outcome
    };
    let expected = report::expected_names(params.trace);
    let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    if reported != expected {
        return Err(format!("metrics reported {reported:?} are not the contract's {expected:?}"));
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut agree = true;
    for workload in &args.workloads {
        println!("workload {} exists for: {}", workload.name, workload.why);
        if !workload.listed {
            println!("  BENCHMARK.json does not list it: its numbers follow the host's disk");
        }
        let mut runs: Vec<Outcome> = Vec::new();
        for _ in 0..args.repeat {
            match run_once(workload, args.params) {
                Ok(outcome) => {
                    print!("{}", report::table(workload.name, &outcome));
                    runs.push(outcome);
                }
                Err(violation) => {
                    eprintln!("workload {}: GATE FAILED: {violation}", workload.name);
                    println!("{}", report::FAILED_LINE);
                    return ExitCode::FAILURE;
                }
            }
        }
        for pair in runs.windows(2) {
            let (table, ok) = report::compare(workload.name, &pair[0], &pair[1]);
            print!("repeatability:\n{table}");
            agree &= ok;
        }
        // The driver reads the last line of a one-workload run.
        println!("{}", report::result_line(runs.last().expect("repeat >= 1")));
    }
    if agree {
        ExitCode::SUCCESS
    } else {
        eprintln!("repeated runs disagree by more than a metric's bound");
        ExitCode::FAILURE
    }
}
