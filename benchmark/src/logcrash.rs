//! `log_crash`: the fault run. No sockets — the log driver over the
//! threaded session substrate (what `run_log_session` composes, with the
//! instance runner wrapped to stamp each instance), two permanent
//! crashes mid-run, and the same scenario on the simulator as oracle.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use indulgent_log::{
    at_plus2_factory, at_plus2_reset, run_log_sim, ClientFrontend, InstanceRunner, IntakePolicy,
    LogConfig, LogDriver, LogReport, LogScenario, NetProfile, SessionLogRunner, ShotSpec,
};
use indulgent_model::{Decision, Round, SystemConfig, Value};
use indulgent_runtime::DelayModel;
use indulgent_server::Response;

use crate::alloc::peak_heap_mib;
use crate::gen::OpStream;
use crate::report::Outcome;
use crate::service::{Observed, Params};
use crate::spec::{
    ServiceSpec, KEYS, LOG_BATCH, LOG_CRASH_A, LOG_CRASH_B, LOG_DEPTH, LOG_INSTANCES, LOG_REPS,
    RUN_SECONDS, SETUPS, T_PLUS_2,
};
use crate::stats::{median, percentile, process_cpu};
use crate::trace::Span;

/// The `n = 5, t = 2` group every workload runs.
#[must_use]
pub fn system() -> SystemConfig {
    SystemConfig::majority(5, 2).expect("5/2 is a valid majority config")
}

#[must_use]
pub fn log_config() -> LogConfig {
    LogConfig::sequential(LOG_INSTANCES).with_batch_size(LOG_BATCH).with_pipeline_depth(LOG_DEPTH)
}

/// Replica 1 crashes at round 2 of instance [`LOG_CRASH_A`], replica 3
/// at round 1 of instance [`LOG_CRASH_B`]; both stay down (`f = t = 2`).
#[must_use]
pub fn scenario() -> LogScenario {
    LogScenario::failure_free(system().n()).crash(1, LOG_CRASH_A, Round::new(2)).crash(
        3,
        LOG_CRASH_B,
        Round::FIRST,
    )
}

/// 500 µs one-way replica links and a 2 ms suspicion grace.
#[must_use]
pub fn net_profile() -> NetProfile {
    NetProfile {
        grace: Duration::from_millis(2),
        base_delays: DelayModel::Uniform { delay: Duration::from_micros(500) },
        chaos_delay: Duration::from_millis(8),
    }
}

/// The run's commands: the op stream's post-preload ops, shared intake
/// (every replica proposes the same batch, so no crash strands one).
#[must_use]
pub fn frontend(ops: &OpStream) -> ClientFrontend {
    let mut frontend =
        ClientFrontend::new(system().n(), LOG_BATCH).with_intake(IntakePolicy::Shared);
    let commands = LOG_INSTANCES * LOG_BATCH as u64;
    frontend.submit_all((KEYS..KEYS + commands).map(|k| ops.op(k).to_payload()));
    frontend
}

/// Stamps every instance's start and the moment the driver learned its
/// decision: the request spans of this workload.
struct Stamped<'a, R> {
    inner: R,
    started: &'a mut Vec<Instant>,
    decided: &'a mut Vec<Option<Instant>>,
}

impl<R: InstanceRunner> InstanceRunner for Stamped<'_, R> {
    fn start(&mut self, instance: u64, proposals: &[Value], spec: &ShotSpec) {
        self.started.push(Instant::now());
        self.decided.push(None);
        self.inner.start(instance, proposals, spec);
    }

    fn wait_decided(&mut self, instance: u64) -> Option<Decision> {
        let decision = self.inner.wait_decided(instance);
        self.decided[(instance - 1) as usize] = Some(Instant::now());
        decision
    }

    fn finish(self) -> Vec<Vec<Option<Decision>>> {
        self.inner.finish()
    }
}

/// The round each instance was decided in (its earliest replica
/// decision) → how many instances.
#[must_use]
pub fn round_hist(report: &LogReport) -> BTreeMap<u32, u64> {
    let mut hist = BTreeMap::new();
    for row in &report.decisions {
        if let Some(round) = row.iter().flatten().map(|d| d.round.get()).min() {
            *hist.entry(round).or_default() += 1;
        }
    }
    hist
}

/// Runs the workload; the gate is `LogReport::check` and decided values
/// equal to the simulator's. Decision rounds are compared with the
/// simulator's and reported, not gated: replicas here are threads, and a
/// scheduling stall longer than the 2 ms grace is, to the algorithm, a
/// period of asynchrony in which `t + 2` is not promised.
pub fn run(
    name: &str,
    isolation: ServiceSpec,
    params: Params,
) -> Result<(Outcome, Observed), String> {
    let epoch = Instant::now();
    let ops = OpStream { seed: params.seed, read_pct: 0 };
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let began = Instant::now();
        let frontend = frontend(&ops);
        let oracle = run_log_sim(system(), log_config(), scenario(), frontend.clone());
        oracle.check().map_err(|v| format!("simulator oracle: {v}"))?;
        setups.push(began.elapsed().as_secs_f64());
        prepared = Some((frontend, oracle));
    }
    let (frontend, oracle) = prepared.expect("at least one set-up");
    let oracle_hist = round_hist(&oracle);

    let reps = if params.trace {
        1
    } else {
        ((LOG_REPS as f64 * params.seconds / RUN_SECONDS as f64).round() as usize).max(1)
    };
    let mut observed = Observed::new(name, isolation, ops);
    let mut outcome = Outcome::default();
    let (mut lat_lo, mut lat_hi, mut stalls, mut cps) = (vec![], vec![], vec![], vec![]);
    let (mut lo_p99, mut hi_p99) = (vec![], vec![]);
    let (mut cpu_us, mut committed, mut attempted) = (vec![], 0, 0);
    for rep in 0..reps {
        let (mut started, mut decided) = (Vec::new(), Vec::new());
        let cpu0 = process_cpu();
        let began = Instant::now();
        let runner = SessionLogRunner::recycling(
            system(),
            at_plus2_factory(system()),
            at_plus2_reset(),
            net_profile(),
        );
        let report = LogDriver::new(system(), log_config(), scenario(), frontend.clone())
            .run(Stamped { inner: runner, started: &mut started, decided: &mut decided });
        let ended = Instant::now();
        let cpu = process_cpu() - cpu0;

        report.check().map_err(|v| format!("log invariants: {v}"))?;
        if report.decided_values != oracle.decided_values {
            return Err("decided values differ from the simulator's on the same scenario".into());
        }
        let hist = round_hist(&report);
        if hist != oracle_hist {
            outcome.notes.push(format!(
                "rep {rep}: decision rounds {hist:?} differ from the simulator's {oracle_hist:?}"
            ));
        }
        for (round, count) in hist {
            *observed.round_hist.entry(round).or_default() += count;
        }
        let latest = report.decisions.iter().flatten().flatten().map(|d| d.round.get()).max();
        if latest > Some(T_PLUS_2) {
            outcome.notes.push(format!(
                "rep {rep}: a replica decided in round {latest:?}, after t + 2 = {T_PLUS_2}"
            ));
        }
        attempted += frontend.commands_submitted();
        committed += report.committed_commands;
        cpu_us.push(cpu.busy * 1e6 / report.committed_commands.max(1) as f64);
        cps.push(report.committed_commands as f64 / (ended - began).as_secs_f64());

        // Decision latency per instance: failure-free before the first
        // crash, t + 2 rounds once both replicas are down, and the two
        // instances a crash lands in.
        let latency_ms = |i: u64| {
            let i = (i - 1) as usize;
            decided[i].map(|d| (d - started[i]).as_secs_f64() * 1e3)
        };
        let mut lo: Vec<f64> = (1..LOG_CRASH_A).filter_map(latency_ms).collect();
        let mut hi: Vec<f64> = (LOG_CRASH_B + 1..=LOG_INSTANCES).filter_map(latency_ms).collect();
        lat_lo.push(percentile(&mut lo, 0.50));
        lat_hi.push(percentile(&mut hi, 0.50));
        lo_p99.push(percentile(&mut lo, 0.99));
        hi_p99.push(percentile(&mut hi, 0.99));
        stalls.extend([LOG_CRASH_A, LOG_CRASH_B].into_iter().filter_map(latency_ms));

        if params.trace {
            let mut span = Span::new(format!("rep{rep}"), epoch, began, ended);
            span.count("committed", report.committed_commands as f64);
            let us = |t: Instant| (t - epoch).as_secs_f64() * 1e6;
            span.requests = (0..started.len())
                .map(|i| {
                    let s = us(started[i]);
                    [(i + 1) as f64, s, s, decided[i].map_or(-1.0, us)]
                })
                .collect();
            observed.root.children.push(span);
        }
    }
    observed.root.end_us = epoch.elapsed().as_secs_f64() * 1e6;

    (outcome.attempted, outcome.failed) = (attempted, attempted - committed);
    outcome.put("setup_s", median(&mut setups), SETUPS);
    outcome.put("lat_lo_p50_ms", median(&mut lat_lo), reps);
    outcome.put("lat_hi_p50_ms", median(&mut lat_hi), reps);
    outcome.put("peak_cps", median(&mut cps), reps);
    outcome.put("cpu_us_per_op", median(&mut cpu_us), reps);
    outcome.put("heap_mb", peak_heap_mib(), 1);
    outcome.put("recovery_ms", median(&mut stalls), stalls.len());
    // What the layer drives replay: the run's commands as requests, and
    // the acks a service would have sent for them.
    let commands = LOG_INSTANCES * LOG_BATCH as u64;
    observed.requests = (KEYS..KEYS + commands).map(|k| ops.request(k)).collect();
    observed.acks = (observed.requests.iter().zip(0..))
        .map(|(r, i)| Response {
            request: r.request,
            shard: 0,
            outcome: indulgent_server::Outcome::Put { slot: i / LOG_BATCH as u64 + 1 },
        })
        .collect();
    observed.lat_lo_p99_ms = median(&mut lo_p99);
    observed.lat_hi_p99_ms = median(&mut hi_p99);
    Ok((outcome, observed))
}
