//! Experiment implementations (E1–E9; the crate docs map each to its
//! `exp_*` binary).
//!
//! Every function returns plain data rows so that binaries can print them
//! and tests can assert the paper's *shape*: who wins, by what factor,
//! where the crossovers fall.

use indulgent_checker::{
    find_bivalent_initial, find_bivalent_prefix, worst_case_decision_round, ValencyParams,
};
use indulgent_consensus::{
    AfPlus2, AtPlus2, CoordinatorEcho, EarlyFloodSet, FloodSet, FloodSetWs, LeaderEcho,
    RotatingCoordinator,
};
use indulgent_fd::{CrashInfo, EventuallyStrongDetector, Suspicion, SuspicionScript};
use indulgent_model::{
    Delivery, ProcessFactory, ProcessId, Round, RoundProcess, Step, SystemConfig, Value,
};
use indulgent_sim::{
    random_run, run_schedule, ModelKind, RandomRunParams, Schedule, ScheduleBuilder,
};

/// Standard proposal vector: pairwise distinct odd values, with the
/// minimum held by a middle process (never `p0`, which several adversarial
/// schedules use as the deciding witness).
fn proposals(n: usize) -> Vec<Value> {
    (0..n).map(|i| Value::new((((i + n / 2) % n) as u64) * 2 + 1)).collect()
}

fn at_plus2_factory(
    config: SystemConfig,
) -> impl ProcessFactory<Process = AtPlus2<RotatingCoordinator>> {
    move |i: usize, v: Value| {
        let id = ProcessId::new(i);
        AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
    }
}

// ---------------------------------------------------------------------------
// E1: the t + 2 lower bound, exhaustively (Proposition 1)
// ---------------------------------------------------------------------------

/// One row of the E1 table.
#[derive(Debug, Clone)]
pub struct LowerBoundRow {
    /// System size.
    pub n: usize,
    /// Resilience.
    pub t: usize,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Serial synchronous runs explored.
    pub runs: u64,
    /// Worst global-decision round observed.
    pub worst_round: u32,
    /// The paper's bound `t + 2`.
    pub bound: u32,
    /// Whether a bivalent initial configuration exists (Lemma 3 witness).
    pub bivalent_initial: bool,
    /// Whether bivalence survives through round `t - 1` (Lemma 4 witness).
    pub bivalent_at_t_minus_1: bool,
}

/// E1: exhaustive worst-case decision rounds of the ES algorithms over all
/// serial synchronous runs, plus the bivalency witnesses of the proof.
///
/// Every ES consensus algorithm must have `worst_round >= t + 2`
/// (Proposition 1); `A_{t+2}` attains exactly `t + 2`.
///
/// # Panics
///
/// Panics if a run violates consensus (would indicate an implementation
/// bug).
#[must_use]
pub fn lower_bound_table(configs: &[(usize, usize)]) -> Vec<LowerBoundRow> {
    let mut rows = Vec::new();
    for &(n, t) in configs {
        let config = SystemConfig::majority(n, t).expect("valid majority config");
        let crash_horizon = t as u32 + 2;
        let run_horizon = 12 * (t as u32 + 2);
        let props = proposals(n);
        let vparams = ValencyParams::new(crash_horizon, run_horizon);

        // A_{t+2}.
        let f = at_plus2_factory(config);
        let report = worst_case_decision_round(
            &f,
            config,
            ModelKind::Es,
            &props,
            crash_horizon,
            run_horizon,
        )
        .expect("A_t+2 satisfies consensus in all serial runs");
        let bivalent_initial = find_bivalent_initial(&f, config, ModelKind::Es, vparams).is_some();
        let bivalent_prefix = if t >= 2 {
            find_bivalent_prefix(&f, &binary_mixed(n), config, ModelKind::Es, t as u32 - 1, vparams)
                .is_some()
        } else {
            bivalent_initial // t - 1 = 0 rounds: the initial configuration
        };
        rows.push(LowerBoundRow {
            n,
            t,
            algorithm: "A_t+2",
            runs: report.runs,
            worst_round: report.worst_round.get(),
            bound: t as u32 + 2,
            bivalent_initial,
            bivalent_at_t_minus_1: bivalent_prefix,
        });

        // Hurfin–Raynal-style baseline.
        let f = move |i: usize, v: Value| CoordinatorEcho::new(config, ProcessId::new(i), v);
        let report = worst_case_decision_round(
            &f,
            config,
            ModelKind::Es,
            &props,
            2 * t as u32 + 2,
            run_horizon,
        )
        .expect("CoordinatorEcho satisfies consensus in all serial runs");
        rows.push(LowerBoundRow {
            n,
            t,
            algorithm: "HR-style",
            runs: report.runs,
            worst_round: report.worst_round.get(),
            bound: t as u32 + 2,
            bivalent_initial: true,
            bivalent_at_t_minus_1: true,
        });
    }
    rows
}

fn binary_mixed(n: usize) -> Vec<Value> {
    // One zero among ones: the canonical bivalent configuration for
    // min-flooding algorithms.
    (0..n).map(|i| if i == n - 1 { Value::ZERO } else { Value::ONE }).collect()
}

// ---------------------------------------------------------------------------
// E2: fast decision of A_{t+2} (Lemma 13)
// ---------------------------------------------------------------------------

/// One row of the E2 table.
#[derive(Debug, Clone)]
pub struct FastDecisionRow {
    /// System size.
    pub n: usize,
    /// Resilience.
    pub t: usize,
    /// Crashes injected.
    pub f: usize,
    /// Random synchronous runs executed.
    pub runs: u32,
    /// Worst global-decision round observed.
    pub max_round: u32,
    /// The fast-decision bound `t + 2`.
    pub bound: u32,
}

/// E2: `A_{t+2}` global-decision rounds over seeded random synchronous
/// runs, sweeping `(n, t, f)`. The paper's Lemma 13 says `max_round` is
/// always exactly `t + 2`.
///
/// # Panics
///
/// Panics if a run violates consensus.
#[must_use]
pub fn fast_decision_table(ns: &[usize], runs_per_cell: u32) -> Vec<FastDecisionRow> {
    let mut rows = Vec::new();
    for &n in ns {
        let t_max = n.div_ceil(2) - 1;
        for t in 1..=t_max {
            let config = SystemConfig::majority(n, t).expect("valid config");
            let props = proposals(n);
            for f in 0..=t {
                let mut max_round = 0;
                for seed in 0..runs_per_cell {
                    let schedule = random_run(
                        config,
                        ModelKind::Es,
                        RandomRunParams::synchronous(f, t as u32 + 2),
                        40,
                        u64::from(seed) * 31 + n as u64,
                    );
                    let outcome = run_schedule(&at_plus2_factory(config), &props, &schedule, 40)
                        .expect("one proposal per process");
                    outcome.check_consensus().expect("consensus holds");
                    max_round =
                        max_round.max(outcome.global_decision_round().expect("decided").get());
                }
                rows.push(FastDecisionRow {
                    n,
                    t,
                    f,
                    runs: runs_per_cell,
                    max_round,
                    bound: t as u32 + 2,
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E3: A_{t+2} vs the 2t+2 baseline (Sect. 1.4 comparison) + ablation
// ---------------------------------------------------------------------------

/// One row of the E3 table.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Resilience (with `n = 2t + 1`).
    pub t: usize,
    /// Worst-case synchronous rounds of `A_{t+2}`.
    pub at_plus2: u32,
    /// Worst-case synchronous rounds of the HR-style baseline.
    pub hr_style: u32,
    /// Worst-case synchronous rounds of the rotating-coordinator fallback.
    pub rotating: u32,
    /// Whether the no-Halt strawman (FloodSetWS on derived suspicions)
    /// stays safe in ES (it must not — the ablation).
    pub strawman_safe_in_es: bool,
}

/// E3: worst-case synchronous decision rounds, `A_{t+2}` (t + 2) against
/// the Hurfin–Raynal-style baseline (2t + 2) and the rotating-coordinator
/// fallback (3t + 3), with the Halt-exchange ablation.
///
/// The baselines' worst cases come from their adversarial coordinator-crash
/// schedules (crash each phase's coordinator before it proposes).
///
/// # Panics
///
/// Panics if a baseline violates consensus in its adversarial run.
#[must_use]
pub fn baseline_comparison_table(ts: &[usize]) -> Vec<BaselineRow> {
    let mut rows = Vec::new();
    for &t in ts {
        let n = 2 * t + 1;
        let config = SystemConfig::majority(n, t).expect("valid config");
        let props = proposals(n);
        let horizon = 6 * (t as u32 + 2);

        // A_{t+2} decides at t + 2 in every synchronous run; measure the
        // coordinator-crash schedule for apples-to-apples.
        let mut at_worst = 0;
        {
            let mut b = ScheduleBuilder::new(config, ModelKind::Es);
            for p in 0..t {
                b = b.crash_before_send(ProcessId::new(p), Round::new(p as u32 + 1));
            }
            let schedule = b.build(horizon).expect("legal schedule");
            let outcome = run_schedule(&at_plus2_factory(config), &props, &schedule, horizon)
                .expect("one proposal per process");
            outcome.check_consensus().expect("consensus holds");
            at_worst = at_worst.max(outcome.global_decision_round().expect("decided").get());
        }

        // HR-style: crash coordinator p of phase p+1 before its propose
        // round 2p+1.
        let hr_worst = {
            let mut b = ScheduleBuilder::new(config, ModelKind::Es);
            for p in 0..t {
                b = b.crash_before_send(ProcessId::new(p), Round::new(2 * p as u32 + 1));
            }
            let schedule = b.build(horizon).expect("legal schedule");
            let f = move |i: usize, v: Value| CoordinatorEcho::new(config, ProcessId::new(i), v);
            let outcome =
                run_schedule(&f, &props, &schedule, horizon).expect("one proposal per process");
            outcome.check_consensus().expect("consensus holds");
            outcome.global_decision_round().expect("decided").get()
        };

        // Rotating coordinator: crash coordinator p before its propose
        // round 3p+2.
        let rc_worst = {
            let mut b = ScheduleBuilder::new(config, ModelKind::Es);
            for p in 0..t {
                b = b.crash_before_send(ProcessId::new(p), Round::new(3 * p as u32 + 2));
            }
            let schedule = b.build(horizon).expect("legal schedule");
            let f = move |i: usize, v: Value| {
                indulgent_consensus::Standalone::new(
                    RotatingCoordinator::new(config, ProcessId::new(i)),
                    v,
                )
            };
            let outcome =
                run_schedule(&f, &props, &schedule, horizon).expect("one proposal per process");
            outcome.check_consensus().expect("consensus holds");
            outcome.global_decision_round().expect("decided").get()
        };

        // Ablation: FloodSetWS without the Halt exchange, on derived
        // suspicions, in an ES run where the minimum-holder is falsely
        // suspected by everyone.
        let strawman_safe_in_es = {
            let mut b =
                ScheduleBuilder::new(config, ModelKind::Es).sync_from(Round::new(t as u32 + 3));
            for r in 0..n {
                if r != 1 {
                    b = b.delay(
                        Round::FIRST,
                        ProcessId::new(1),
                        ProcessId::new(r),
                        Round::new(t as u32 + 3),
                    );
                }
            }
            let schedule = b.build(horizon).expect("legal schedule");
            let f = move |i: usize, v: Value| {
                FloodSetWs::<indulgent_fd::NoDetector>::new(
                    config,
                    ProcessId::new(i),
                    v,
                    Suspicion::Derived,
                )
            };
            // Give p1 the global minimum so isolation splits the estimates.
            let mut split_props = props.clone();
            split_props[1] = Value::new(0);
            let outcome = run_schedule(&f, &split_props, &schedule, horizon)
                .expect("one proposal per process");
            outcome.check_safety().is_ok()
        };

        rows.push(BaselineRow {
            t,
            at_plus2: at_worst,
            hr_style: hr_worst,
            rotating: rc_worst,
            strawman_safe_in_es,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E4: the ◇S variant (Fig. 3)
// ---------------------------------------------------------------------------

/// One row of the E4 table.
#[derive(Debug, Clone)]
pub struct DiamondSRow {
    /// System size.
    pub n: usize,
    /// Resilience.
    pub t: usize,
    /// Worst decision round over random synchronous runs.
    pub sync_max_round: u32,
    /// The bound `t + 2`.
    pub bound: u32,
    /// Decision round under persistent false suspicions (◇S weak accuracy
    /// only): decided via the underlying C, later than `t + 2` but safe.
    pub noisy_round: u32,
}

/// E4: `A_◇S` keeps the `t + 2` fast decision in synchronous runs and
/// stays correct when the detector falsely suspects all but one process
/// forever.
///
/// # Panics
///
/// Panics if a run violates consensus.
#[must_use]
pub fn diamond_s_table(configs: &[(usize, usize)], runs_per_cell: u32) -> Vec<DiamondSRow> {
    let mut rows = Vec::new();
    for &(n, t) in configs {
        let config = SystemConfig::majority(n, t).expect("valid config");
        let props = proposals(n);
        let horizon = 14 * (t as u32 + 2);

        let mut sync_max_round = 0;
        for seed in 0..runs_per_cell {
            let schedule = random_run(
                config,
                ModelKind::Es,
                RandomRunParams::synchronous((seed as usize) % (t + 1), t as u32 + 2),
                horizon,
                u64::from(seed) * 17 + 5,
            );
            let info =
                CrashInfo::new(config.processes().map(|p| schedule.crash_round(p)).collect());
            let trusted = config
                .processes()
                .find(|p| schedule.crash_round(*p).is_none())
                .expect("some correct process");
            let f = move |i: usize, v: Value| {
                let id = ProcessId::new(i);
                let detector = EventuallyStrongDetector::new(
                    info.clone(),
                    Round::FIRST,
                    trusted,
                    SuspicionScript::new(),
                );
                AtPlus2::with_detector(
                    config,
                    id,
                    v,
                    RotatingCoordinator::new(config, id),
                    detector,
                )
            };
            let outcome =
                run_schedule(&f, &props, &schedule, horizon).expect("one proposal per process");
            outcome.check_consensus().expect("consensus holds");
            sync_max_round =
                sync_max_round.max(outcome.global_decision_round().expect("decided").get());
        }

        // Persistent false suspicions of one correct process.
        let noisy_round = {
            let mut script = SuspicionScript::new();
            for k in 1..=horizon {
                for obs in 0..n {
                    if obs != 1 {
                        script.insert((k, obs), [ProcessId::new(1)].into_iter().collect());
                    }
                }
            }
            let info = CrashInfo::none(n);
            let f = move |i: usize, v: Value| {
                let id = ProcessId::new(i);
                let detector = EventuallyStrongDetector::new(
                    info.clone(),
                    Round::FIRST,
                    ProcessId::new(0),
                    script.clone(),
                );
                AtPlus2::with_detector(
                    config,
                    id,
                    v,
                    RotatingCoordinator::new(config, id),
                    detector,
                )
            };
            let schedule = Schedule::failure_free(config, ModelKind::Es);
            let outcome =
                run_schedule(&f, &props, &schedule, horizon).expect("one proposal per process");
            outcome.check_consensus().expect("consensus holds");
            outcome.global_decision_round().expect("decided").get()
        };

        rows.push(DiamondSRow { n, t, sync_max_round, bound: t as u32 + 2, noisy_round });
    }
    rows
}

// ---------------------------------------------------------------------------
// E5: the failure-free optimization (Fig. 4) and the 2-round bound
// ---------------------------------------------------------------------------

/// One row of the E5 table.
#[derive(Debug, Clone)]
pub struct FailureFreeRow {
    /// System size.
    pub n: usize,
    /// Resilience.
    pub t: usize,
    /// Variant name.
    pub variant: &'static str,
    /// Decision round in the failure-free synchronous run.
    pub failure_free_round: u32,
    /// Whether the variant stays safe in adversarial ES runs.
    pub safe: bool,
}

/// A deliberately unsound "decide in round 1" variant used to demonstrate
/// that 2 rounds is a *lower bound* for well-behaved runs: it decides at
/// round 1 on a complete view and violates agreement in an ES run where
/// only one process got the complete view.
#[derive(Debug, Clone)]
struct EagerMin {
    config: SystemConfig,
    est: Value,
    decided: bool,
}

impl RoundProcess for EagerMin {
    type Msg = Value;

    fn send(&mut self, _round: Round) -> Value {
        self.est
    }

    fn deliver(&mut self, round: Round, delivery: &Delivery<Value>) -> Step {
        let min = delivery.current().map(|m| m.msg).min().unwrap_or(self.est);
        self.est = self.est.min(min);
        if self.decided {
            return Step::Continue;
        }
        if round == Round::FIRST && delivery.current().count() == self.config.n() {
            self.decided = true;
            return Step::Decide(self.est);
        }
        if round.get() == self.config.t() as u32 + 2 {
            self.decided = true;
            return Step::Decide(self.est);
        }
        Step::Continue
    }
}

/// E5: the Fig. 4 optimization decides at round 2 in failure-free
/// synchronous runs and remains safe; a hypothetical round-1 variant is
/// shown to violate agreement (the 2-round bound of \[11\] in action).
///
/// # Panics
///
/// Panics if the Fig. 4 variant misbehaves.
#[must_use]
pub fn failure_free_table(ns: &[usize]) -> Vec<FailureFreeRow> {
    let mut rows = Vec::new();
    for &n in ns {
        let t = (n - 1) / 2;
        let config = SystemConfig::majority(n, t).expect("valid config");
        let props = proposals(n);
        let horizon = 10 * (t as u32 + 2);

        // Fig. 4 optimized A_{t+2}.
        let f = move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
                .with_failure_free_optimization()
        };
        let schedule = Schedule::failure_free(config, ModelKind::Es);
        let outcome =
            run_schedule(&f, &props, &schedule, horizon).expect("one proposal per process");
        outcome.check_consensus().expect("consensus holds");
        let ff_round = outcome.global_decision_round().expect("decided").get();
        // Safety under adversarial ES runs.
        let mut safe = true;
        for seed in 0..60u64 {
            let schedule = random_run(
                config,
                ModelKind::Es,
                RandomRunParams::eventually_synchronous(t.min(1), 3, 5),
                horizon,
                seed,
            );
            let outcome =
                run_schedule(&f, &props, &schedule, horizon).expect("one proposal per process");
            safe &= outcome.check_consensus().is_ok();
        }
        rows.push(FailureFreeRow {
            n,
            t,
            variant: "A_t+2 + Fig.4",
            failure_free_round: ff_round,
            safe,
        });

        // The unsound round-1 variant: fast but wrong.
        let f = move |_i: usize, v: Value| EagerMin { config, est: v, decided: false };
        let outcome =
            run_schedule(&f, &props, &schedule, horizon).expect("one proposal per process");
        let eager_round = outcome.global_decision_round().expect("decided").get();
        // Adversarial ES run: p0 sees a complete round 1 and decides the
        // minimum; the minimum-holder's message to everyone else is delayed,
        // and then *both* the holder and the decider crash (t = 2), so the
        // minimum never reaches the survivors.
        let min_holder = props
            .iter()
            .enumerate()
            .min_by_key(|&(_, v)| *v)
            .map(|(i, _)| ProcessId::new(i))
            .expect("nonempty");
        assert_ne!(min_holder, ProcessId::new(0), "decider and holder must differ");
        let mut b = ScheduleBuilder::new(config, ModelKind::Es).sync_from(Round::new(2));
        for r in 0..n {
            let receiver = ProcessId::new(r);
            if receiver != min_holder && receiver != ProcessId::new(0) {
                b = b.delay(Round::FIRST, min_holder, receiver, Round::new(horizon));
            }
        }
        b = b
            .crash_before_send(min_holder, Round::new(2))
            .crash_before_send(ProcessId::new(0), Round::new(2));
        let schedule = b.build(horizon).expect("legal schedule");
        let outcome =
            run_schedule(&f, &props, &schedule, horizon).expect("one proposal per process");
        rows.push(FailureFreeRow {
            n,
            t,
            variant: "round-1 gambler",
            failure_free_round: eager_round,
            safe: outcome.check_safety().is_ok(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E6: fast eventual decision, A_{f+2} vs AMR (Fig. 5, Lemma 15)
// ---------------------------------------------------------------------------

/// One row of the E6 table.
#[derive(Debug, Clone)]
pub struct EventualDecisionRow {
    /// Last asynchronous round (the run is synchronous after `k`).
    pub k: u32,
    /// Crashes injected after round `k`.
    pub f: usize,
    /// Worst global-decision round of `A_{f+2}` over the seeds.
    pub af_plus2: u32,
    /// Its bound `k + f + 2`.
    pub af_bound: u32,
    /// Worst global-decision round of the leader-based AMR baseline.
    pub amr: u32,
    /// Its bound `k + 2f + 2`.
    pub amr_bound: u32,
}

/// E6: decision latency after the network stabilizes: `A_{f+2}` meets
/// `k + f + 2`; the AMR-style baseline pays two rounds per crashed leader
/// (up to `k + 2f + 2`). Each `(k, f)` cell reports the worst round over
/// its seeded runs.
///
/// Runs use `n = 7, t = 2`: an asynchronous prefix of `k` rounds (seeded
/// random delays), then `f` staggered crashes of the lowest-id processes
/// (the worst victims: they are the next leaders).
///
/// # Panics
///
/// Panics if a run violates consensus.
#[must_use]
pub fn eventual_decision_table(ks: &[u32], fs: &[usize], seeds: u32) -> Vec<EventualDecisionRow> {
    let config = SystemConfig::third(7, 2).expect("valid config");
    let props = proposals(7);
    let mut rows = Vec::new();
    for &k in ks {
        for &f in fs {
            assert!(f <= config.t(), "f must be at most t");
            let horizon = k + 30;
            let (mut af_worst, mut amr_worst) = (0, 0);
            for seed in 0..u64::from(seeds) {
                // Asynchronous prefix: random delays in rounds 1..=k; then
                // staggered crashes at rounds k+1, k+2, ... (before send).
                let base = random_run(
                    config,
                    ModelKind::Es,
                    RandomRunParams::eventually_synchronous(0, 1, k + 1),
                    horizon,
                    seed * 13 + u64::from(k),
                );
                let mut b =
                    ScheduleBuilder::new(config, ModelKind::Es).sync_from(Round::new(k + 1));
                for (r, s, d, fate) in base.overrides() {
                    if let indulgent_sim::MessageFate::Delay(a) = fate {
                        b = b.delay(r, s, d, a);
                    }
                }
                for c in 0..f {
                    b = b.crash_before_send(ProcessId::new(c), Round::new(k + 1 + c as u32));
                }
                let schedule = b.build(horizon).expect("legal schedule");

                let af = move |i: usize, v: Value| AfPlus2::new(config, ProcessId::new(i), v);
                let outcome = run_schedule(&af, &props, &schedule, horizon)
                    .expect("one proposal per process");
                outcome.check_consensus().expect("consensus holds");
                let af_round = outcome.global_decision_round().expect("decided").get();

                let amr = move |i: usize, v: Value| LeaderEcho::new(config, ProcessId::new(i), v);
                let outcome = run_schedule(&amr, &props, &schedule, horizon)
                    .expect("one proposal per process");
                outcome.check_consensus().expect("consensus holds");
                let amr_round = outcome.global_decision_round().expect("decided").get();
                af_worst = af_worst.max(af_round);
                amr_worst = amr_worst.max(amr_round);
            }
            rows.push(EventualDecisionRow {
                k,
                f,
                af_plus2: af_worst,
                af_bound: k + f as u32 + 2,
                amr: amr_worst,
                amr_bound: k + 2 * f as u32 + 2,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// E7: early decision (Sect. 6 first paragraph)
// ---------------------------------------------------------------------------

/// One row of the E7 table.
#[derive(Debug, Clone)]
pub struct EarlyDecisionRow {
    /// Actual number of crashes in the runs.
    pub f: usize,
    /// Worst decision round of `A_{t+2}` (t = 2, n = 5) with `f` crashes.
    pub at_plus2: u32,
    /// Worst decision round of `A_{f+2}` (t = 2, n = 7) with `f` crashes.
    pub af_plus2: u32,
    /// Worst decision round of the SCS early-deciding uniform consensus
    /// (`EarlyFloodSet`, t = 2, n = 5) with `f` crashes — bound
    /// `min(f + 2, t + 1)`.
    pub early_scs: u32,
    /// The early-decision lower bound `f + 2`.
    pub bound: u32,
}

/// E7: the `f + 2` early-decision bound in synchronous runs. `A_{t+2}`
/// always pays `t + 2` regardless of the actual `f` (the paper notes
/// early-decision tightness was open, resolved in \[5\]); `A_{f+2}` (when
/// `t < n/3`) already meets `f + 2`.
///
/// # Panics
///
/// Panics if a run violates consensus.
#[must_use]
pub fn early_decision_table(seeds: u32) -> Vec<EarlyDecisionRow> {
    let at_config = SystemConfig::majority(5, 2).expect("valid config");
    let af_config = SystemConfig::third(7, 2).expect("valid config");
    let mut rows = Vec::new();
    let scs_config = SystemConfig::synchronous(5, 2).expect("valid config");
    for f in 0..=2usize {
        let (mut at_worst, mut af_worst, mut scs_worst) = (0, 0, 0);
        for seed in 0..u64::from(seeds) {
            let schedule = random_run(
                at_config,
                ModelKind::Es,
                RandomRunParams::synchronous(f, 3),
                40,
                seed * 7 + f as u64,
            );
            let outcome = run_schedule(&at_plus2_factory(at_config), &proposals(5), &schedule, 40)
                .expect("one proposal per process");
            outcome.check_consensus().expect("consensus holds");
            let at_round = outcome.global_decision_round().expect("decided").get();

            let schedule = random_run(
                af_config,
                ModelKind::Es,
                RandomRunParams::synchronous(f, f.max(1) as u32),
                40,
                seed * 11 + f as u64,
            );
            let af = move |i: usize, v: Value| AfPlus2::new(af_config, ProcessId::new(i), v);
            let outcome =
                run_schedule(&af, &proposals(7), &schedule, 40).expect("one proposal per process");
            outcome.check_consensus().expect("consensus holds");
            let af_round = outcome.global_decision_round().expect("decided").get();

            let schedule = random_run(
                scs_config,
                ModelKind::Scs,
                RandomRunParams::synchronous(f, f.max(1) as u32),
                40,
                seed * 19 + f as u64,
            );
            let early = move |_i: usize, v: Value| EarlyFloodSet::new(scs_config, v);
            let outcome = run_schedule(&early, &proposals(5), &schedule, 40)
                .expect("one proposal per process");
            outcome.check_consensus().expect("consensus holds");
            let scs_round = outcome.global_decision_round().expect("decided").get();
            at_worst = at_worst.max(at_round);
            af_worst = af_worst.max(af_round);
            scs_worst = scs_worst.max(scs_round);
        }
        rows.push(EarlyDecisionRow {
            f,
            at_plus2: at_worst,
            af_plus2: af_worst,
            early_scs: scs_worst,
            bound: f as u32 + 2,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E8: the SCS contrast (t + 1 vs t + 2)
// ---------------------------------------------------------------------------

/// One row of the E8 table.
#[derive(Debug, Clone)]
pub struct ScsContrastRow {
    /// System size.
    pub n: usize,
    /// Resilience.
    pub t: usize,
    /// FloodSet's exhaustive worst case in SCS (`t + 1`).
    pub floodset_scs: u32,
    /// `A_{t+2}`'s exhaustive worst case in ES (`t + 2`), when `t < n/2`
    /// admits an indulgent algorithm at all (`None` otherwise — itself a
    /// price of indulgence: SCS tolerates `t <= n - 2`).
    pub at_plus2_es: Option<u32>,
    /// Whether the t-round truncated FloodSet was caught violating
    /// agreement (the `t + 1` bound is tight from below).
    pub truncated_violates: bool,
}

/// E8: the price of indulgence, head to head: FloodSet's exhaustive `t+1`
/// in SCS against `A_{t+2}`'s exhaustive `t+2` in ES, plus the witness
/// that deciding at round `t` in SCS is impossible.
///
/// # Panics
///
/// Panics if FloodSet or `A_{t+2}` misbehave in any serial run.
#[must_use]
pub fn scs_contrast_table(configs: &[(usize, usize)]) -> Vec<ScsContrastRow> {
    let mut rows = Vec::new();
    for &(n, t) in configs {
        let scs_config = SystemConfig::synchronous(n, t).expect("valid SCS config");
        let props = proposals(n);
        let fs = move |_i: usize, v: Value| FloodSet::new(scs_config, v);
        let fs_report = worst_case_decision_round(
            &fs,
            scs_config,
            ModelKind::Scs,
            &props,
            t as u32 + 1,
            t as u32 + 3,
        )
        .expect("FloodSet satisfies consensus in SCS");

        let es_worst = SystemConfig::majority(n, t).ok().map(|es_config| {
            worst_case_decision_round(
                &at_plus2_factory(es_config),
                es_config,
                ModelKind::Es,
                &props,
                t as u32 + 2,
                12 * (t as u32 + 2),
            )
            .expect("A_t+2 satisfies consensus in ES")
            .worst_round
            .get()
        });

        // Truncated FloodSet deciding at round t must be caught.
        let early = t as u32;
        let trunc = move |_i: usize, v: Value| FloodSet::deciding_at(Round::new(early), v);
        let caught = worst_case_decision_round(
            &trunc,
            scs_config,
            ModelKind::Scs,
            &props,
            t as u32 + 1,
            t as u32 + 3,
        )
        .is_err();

        rows.push(ScsContrastRow {
            n,
            t,
            floodset_scs: fs_report.worst_round.get(),
            at_plus2_es: es_worst,
            truncated_violates: caught,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// E9: decision latency vs the synchrony round K
// ---------------------------------------------------------------------------

/// One row of the E9 table.
#[derive(Debug, Clone)]
pub struct AsynchronyRow {
    /// The eventual-synchrony round `K` of the runs.
    pub k: u32,
    /// Mean global-decision round over the seeds.
    pub mean_round: f64,
    /// Median global-decision round.
    pub p50: u32,
    /// 99th-percentile global-decision round.
    pub p99: u32,
    /// Worst global-decision round over the seeds.
    pub max_round: u32,
}

/// E9: how `A_{t+2}`'s decision latency degrades with the length of the
/// asynchronous prefix (`n = 5, t = 2`, seeded random delays, one crash).
/// `K = 1` gives the synchronous `t + 2 = 4`; longer prefixes push
/// decisions into the fallback consensus.
///
/// # Panics
///
/// Panics if a run violates consensus.
#[must_use]
pub fn asynchrony_table(ks: &[u32], seeds: u32) -> Vec<AsynchronyRow> {
    let config = SystemConfig::majority(5, 2).expect("valid config");
    let props = proposals(5);
    let mut rows = Vec::new();
    for &k in ks {
        let horizon = k + 40;
        let mut rounds = Vec::new();
        for seed in 0..u64::from(seeds) {
            let schedule = random_run(
                config,
                ModelKind::Es,
                RandomRunParams::eventually_synchronous(1, k.max(1), k),
                horizon,
                seed * 3 + u64::from(k),
            );
            let outcome = run_schedule(&at_plus2_factory(config), &props, &schedule, horizon)
                .expect("one proposal per process");
            outcome.check_consensus().expect("consensus holds");
            rounds.push(outcome.global_decision_round().expect("decided").get());
        }
        rounds.sort_unstable();
        // Nearest rank: the `ceil(p/100 · len)`-th smallest sample.
        let percentile = |p: usize| rounds[(p * rounds.len()).div_ceil(100) - 1];
        rows.push(AsynchronyRow {
            k,
            mean_round: rounds.iter().map(|&r| u64::from(r)).sum::<u64>() as f64
                / rounds.len() as f64,
            p50: percentile(50),
            p99: percentile(99),
            max_round: *rounds.last().expect("samples recorded"),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_shape_holds_for_smallest_config() {
        let rows = lower_bound_table(&[(3, 1)]);
        let at = rows.iter().find(|r| r.algorithm == "A_t+2").unwrap();
        assert_eq!(at.worst_round, at.bound); // exactly t + 2
        assert!(at.bivalent_initial);
        let hr = rows.iter().find(|r| r.algorithm == "HR-style").unwrap();
        assert!(hr.worst_round >= hr.bound); // >= t + 2 (it is 2t + 2)
    }

    #[test]
    fn e2_shape_holds_for_one_cell() {
        let rows = fast_decision_table(&[5], 20);
        for row in rows {
            assert_eq!(row.max_round, row.bound, "A_t+2 decides exactly at t+2: {row:?}");
        }
    }

    #[test]
    fn e3_shape_t1_and_t2() {
        let rows = baseline_comparison_table(&[1, 2]);
        for row in &rows {
            assert_eq!(row.at_plus2, row.t as u32 + 2);
            assert_eq!(row.hr_style, 2 * row.t as u32 + 2);
            assert_eq!(row.rotating, 3 * row.t as u32 + 3);
            assert!(!row.strawman_safe_in_es, "the ablation must break: {row:?}");
        }
    }

    #[test]
    fn e4_shape() {
        for row in diamond_s_table(&[(3, 1), (5, 2)], 20) {
            assert_eq!(row.sync_max_round, row.bound, "t+2 when synchronous: {row:?}");
            assert!(row.noisy_round > row.bound, "false suspicions defer to C: {row:?}");
        }
    }

    #[test]
    fn e5_shape() {
        let rows = failure_free_table(&[5]);
        let opt = rows.iter().find(|r| r.variant == "A_t+2 + Fig.4").unwrap();
        assert_eq!(opt.failure_free_round, 2);
        assert!(opt.safe);
        let gambler = rows.iter().find(|r| r.variant == "round-1 gambler").unwrap();
        assert_eq!(gambler.failure_free_round, 1);
        assert!(!gambler.safe, "round-1 decision must violate agreement: {gambler:?}");
    }

    #[test]
    fn e6_shape_small() {
        let rows = eventual_decision_table(&[0, 2], &[0, 2], 10);
        for row in &rows {
            assert!(row.af_plus2 <= row.af_bound, "A_f+2 exceeded k+f+2: {row:?}");
            assert!(row.amr <= row.amr_bound, "AMR exceeded k+2f+2: {row:?}");
        }
        // The separation at f = 2, k = 0: AMR needs more rounds than A_f+2.
        let sep = rows.iter().find(|r| r.k == 0 && r.f == 2).unwrap();
        assert!(sep.amr > sep.af_plus2, "expected separation: {sep:?}");
    }

    #[test]
    fn e7_shape() {
        for row in early_decision_table(20) {
            assert_eq!(row.at_plus2, 4, "A_t+2 pays t+2 whatever f is: {row:?}");
            assert!(row.af_plus2 <= row.bound, "A_f+2 exceeded f+2: {row:?}");
            assert!(row.early_scs <= (row.f as u32 + 2).min(3), "EarlyFloodSet late: {row:?}");
        }
    }

    #[test]
    fn e8_shape() {
        let rows = scs_contrast_table(&[(3, 1), (4, 1), (4, 2)]);
        for row in &rows {
            let t = row.t as u32;
            assert_eq!(row.floodset_scs, t + 1, "{row:?}");
            assert_eq!(row.at_plus2_es, (2 * row.t < row.n).then_some(t + 2), "{row:?}");
            assert!(row.truncated_violates, "deciding at round t must be caught: {row:?}");
        }
        assert_eq!(rows[2].at_plus2_es, None, "t = n/2 admits no indulgent algorithm");
    }

    #[test]
    fn e9_synchronous_baseline() {
        let rows = asynchrony_table(&[1], 10);
        assert_eq!(rows[0].max_round, 4); // t + 2
    }
}
