//! The incremental prefix-sharing sweep: enumeration fused with execution.
//!
//! The serial enumerators of [`serial`](crate::serial) materialize every
//! schedule and hand it to a visitor, which classically re-executes the
//! run from round 1 ([`run_schedule`](crate::run_schedule)). But the
//! serial-schedule space is a *tree*: schedules sharing a crash prefix
//! share their entire execution up to the branch point, and a
//! run-from-scratch sweep replays that shared prefix once per leaf —
//! thousands of times for the checker's exhaustive sweeps.
//!
//! This module executes the tree instead of its leaves. The DFS of
//! [`for_each_serial_run`] mirrors the serial enumeration exactly — same
//! branch order (no crash first, then victims by ascending id, keep-masks
//! ascending), same schedules — but it carries a [`RunState`] snapshot
//! down the tree: each round of a shared prefix is executed **once**, and
//! at every branch point the state is forked (cloned) rather than rebuilt
//! from round 1. Leaves receive the finished [`RunOutcome`] together with
//! the schedule, bit-identical to what `run_schedule` would produce on
//! that schedule — including the early-exit `rounds_executed` and the
//! full-schedule crash set. The run-from-scratch loop
//! ([`for_each_serial_schedule`](crate::for_each_serial_schedule) +
//! `run_schedule`) stays the reference: the differential suite compares
//! the two schedule for schedule.
//!
//! Three structural facts make the fusion sound:
//!
//! 1. round `k`'s execution depends only on crash/fate choices for rounds
//!    `<= k` (serial schedules fix crash-round fates at the crash round and
//!    delay nothing else), so a partial schedule suffices to step;
//! 2. [`RoundProcess`](indulgent_model::RoundProcess) automatons are
//!    `Clone`, so a mid-run state is a
//!    true snapshot — forks evolve exactly like fresh runs (the snapshot
//!    proptests assert this per algorithm);
//! 3. once every alive process has decided ([`RunState::halted`]), no
//!    extension changes decisions — the DFS stops stepping and shares one
//!    frozen state across the whole subtree, mirroring `run_schedule`'s
//!    early exit.
//!
//! [`sweep_runs`] / [`sweep_run_extensions`] are the backend-aware folds:
//! serial runs the DFS directly; parallel partitions the space into
//! first-crash work units ([`batch`](crate::batch)) and runs one DFS per
//! unit on the worker pool of [`parallel`](crate::parallel), merging
//! per-unit accumulators in serial visit order.
//! Random-adversary runs (delays, arbitrary crash patterns outside the
//! serial tree) have no shared prefix structure to exploit and keep using
//! the run-from-scratch executor.
//!
//! The DFS is tuned for the zero-allocation steady state of the
//! executor ([`RunState`]): per-depth scratch snapshots are
//! recycled with `clone_from` (rewriting process states and the flat
//! ring mailboxes in place), the alive/receiver sets of the crash
//! branches are walked as bitmasks, and each fork is tallied in the
//! global engine counters ([`stats`](crate::stats)) alongside the
//! executor's round, fast-path and clone counts.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use indulgent_model::{ProcessFactory, Round, RunOutcome, SystemConfig, Value};

use crate::batch::extension_work_units;
use crate::executor::{check_run_inputs, ExecutorError, RunState};
use crate::parallel::{pooled_fold, SweepBackend, UnitResult};
use crate::schedule::{MessageFate, ModelKind, Schedule};

/// Enumerates every serial schedule of `config` over crash rounds
/// `1..=crash_horizon` — exactly the space of
/// [`for_each_serial_schedule`](crate::for_each_serial_schedule), in the
/// same order — and *executes* each under `factory`/`proposals` with the
/// prefix-sharing DFS, invoking `visit` with the schedule and its
/// finished outcome. Each run executes at most `run_horizon` rounds
/// (early-exiting once all alive processes decide, like
/// [`run_schedule`](crate::run_schedule)).
///
/// Returning [`ControlFlow::Break`] from the visitor aborts the sweep.
///
/// # Errors
///
/// Returns [`ExecutorError::ProposalCountMismatch`] if `proposals.len()`
/// differs from `config.n()`.
pub fn for_each_serial_run<F, V>(
    factory: &F,
    proposals: &[Value],
    config: SystemConfig,
    kind: ModelKind,
    crash_horizon: u32,
    run_horizon: u32,
    visit: V,
) -> Result<ControlFlow<()>, ExecutorError>
where
    F: ProcessFactory,
    V: FnMut(&Schedule, &RunOutcome) -> ControlFlow<()>,
{
    let prefix = Schedule::failure_free(config, kind);
    for_each_serial_run_extension(factory, proposals, &prefix, 1, crash_horizon, run_horizon, visit)
}

/// Enumerates and executes every serial extension of `prefix` whose
/// additional crashes lie in `from_round..=crash_horizon` — the space of
/// [`for_each_serial_extension`](crate::for_each_serial_extension), in the
/// same order. The prefix rounds `1..from_round` are executed exactly
/// once; the DFS forks the resulting snapshot at every branch point.
///
/// # Errors
///
/// Returns [`ExecutorError::ProposalCountMismatch`] if `proposals.len()`
/// differs from the prefix's configuration size.
///
/// # Panics
///
/// Panics if `prefix` schedules a crash at or after `from_round` (same
/// contract as the serial extension enumerator).
pub fn for_each_serial_run_extension<F, V>(
    factory: &F,
    proposals: &[Value],
    prefix: &Schedule,
    from_round: u32,
    crash_horizon: u32,
    run_horizon: u32,
    mut visit: V,
) -> Result<ControlFlow<()>, ExecutorError>
where
    F: ProcessFactory,
    V: FnMut(&Schedule, &RunOutcome) -> ControlFlow<()>,
{
    let config = prefix.config();
    let mut crash_rounds: Vec<Option<Round>> =
        config.processes().map(|p| prefix.crash_round(p)).collect();
    assert!(
        crash_rounds.iter().flatten().all(|r| r.get() < from_round),
        "prefix crashes must be confined to rounds before the extension"
    );
    let mut overrides: BTreeMap<(u32, usize, usize), MessageFate> =
        prefix.overrides().map(|(r, s, d, f)| ((r.get(), s.index(), d.index()), f)).collect();
    let crashes = crash_rounds.iter().flatten().count();

    // Execute the shared prefix once; every branch below forks from here.
    let mut state: RunState<F::Process> = RunState::new(factory, proposals, config.n())?;
    state.run_to(prefix, (from_round - 1).min(run_horizon));

    // One scratch snapshot per recursion depth (rounds `from_round..=
    // crash_horizon`, plus the leaf tail): forks overwrite their depth's
    // slot via `clone_from`, recycling allocations across the thousands of
    // branch points of a sweep instead of allocating per fork.
    let depth = ((crash_horizon + 2).saturating_sub(from_round)).max(1) as usize;
    let mut scratch: Vec<Option<RunState<F::Process>>> = (0..depth).map(|_| None).collect();

    let ctx = DfsCtx {
        config,
        kind: prefix.kind(),
        sync_from: prefix.sync_from(),
        crash_horizon,
        run_horizon,
    };
    Ok(recurse(
        &ctx,
        from_round,
        crashes,
        &state,
        &mut scratch,
        prefix,
        &mut crash_rounds,
        &mut overrides,
        proposals,
        &mut visit,
    ))
}

/// Fills `slot` with a copy of `src` (reusing the slot's allocations when
/// it already holds a state) and returns it. Every call is one fork of
/// the DFS, tallied in the engine counters; the recycled case rewrites
/// the slot's process states, ring mailboxes and buffers in place, so a
/// warm sweep forks without allocating.
fn clone_into<'a, P: indulgent_model::RoundProcess>(
    slot: &'a mut Option<RunState<P>>,
    src: &RunState<P>,
) -> &'a mut RunState<P> {
    crate::stats::engine_counters().record_fork();
    match slot {
        Some(state) => {
            state.clone_from(src);
            state
        }
        None => slot.insert(src.clone()),
    }
}

/// Immutable parameters of one fork-on-branch DFS.
struct DfsCtx {
    config: SystemConfig,
    kind: ModelKind,
    sync_from: Round,
    crash_horizon: u32,
    run_horizon: u32,
}

/// One DFS node: `state` has executed rounds `1..round` of `schedule`
/// (stopping early at a halt or the run horizon), and
/// `crash_rounds`/`overrides` hold the choices baked into `schedule` so
/// far. Children extend the schedule at `round` and step the fork by one
/// round; leaves (past the crash horizon) finish the run and visit.
#[allow(clippy::too_many_arguments)]
fn recurse<P, V>(
    ctx: &DfsCtx,
    round: u32,
    crashes: usize,
    state: &RunState<P>,
    scratch: &mut [Option<RunState<P>>],
    schedule: &Schedule,
    crash_rounds: &mut Vec<Option<Round>>,
    overrides: &mut BTreeMap<(u32, usize, usize), MessageFate>,
    proposals: &[Value],
    visit: &mut V,
) -> ControlFlow<()>
where
    P: indulgent_model::RoundProcess,
    V: FnMut(&Schedule, &RunOutcome) -> ControlFlow<()>,
{
    if round > ctx.crash_horizon || crashes >= ctx.config.t() {
        // Leaf: no further choice is possible — every crash round is
        // behind us, or the crash budget is spent (the subtree from here
        // is a no-crash chain with exactly this one schedule in it) — so
        // `schedule` is final. Finish the run in one go on a last fork,
        // or straight from the shared state when it already halted or hit
        // the run horizon.
        return if state.halted() || state.rounds_executed() >= ctx.run_horizon {
            visit(schedule, &state.outcome(proposals, schedule))
        } else {
            let (slot, _) = scratch.split_first_mut().expect("scratch sized for the leaf");
            let tail = clone_into(slot, state);
            tail.run_to(schedule, ctx.run_horizon);
            visit(schedule, &tail.outcome(proposals, schedule))
        };
    }

    // A branch only needs a step when the run is still live; a halted (or
    // horizon-capped) state is shared by the entire subtree without
    // cloning — run_schedule would never execute those rounds either.
    let live = !state.halted() && state.rounds_executed() < ctx.run_horizon;
    let (slot, rest) = scratch.split_first_mut().expect("scratch sized for recursion depth");

    // Option 1: no crash this round. The partial schedule is unchanged, so
    // the child reuses it by reference.
    if live {
        let next = clone_into(slot, state);
        next.step(schedule);
        recurse(
            ctx,
            round + 1,
            crashes,
            next,
            rest,
            schedule,
            crash_rounds,
            overrides,
            proposals,
            visit,
        )?;
    } else {
        recurse(
            ctx,
            round + 1,
            crashes,
            state,
            rest,
            schedule,
            crash_rounds,
            overrides,
            proposals,
            visit,
        )?;
    }

    // Option 2: crash one alive process, choosing the receiver subset that
    // still gets its message among the processes alive entering this
    // round. Identical choice order to the serial enumerator (victims by
    // ascending id, keep-masks ascending over receivers by ascending id);
    // the alive/receiver sets are walked as bitmasks so the enumeration
    // itself allocates nothing per node (`ProcessSet` guarantees
    // `n <= 64`).
    let mut alive_mask = 0u64;
    for p in ctx.config.processes() {
        let alive = match crash_rounds[p.index()] {
            None => true,
            Some(r) => r.get() >= round,
        };
        if alive {
            alive_mask |= 1 << p.index();
        }
    }
    let mut victims = alive_mask;
    while victims != 0 {
        let victim_idx = victims.trailing_zeros() as usize;
        victims &= victims - 1;
        let receivers_mask = alive_mask & !(1u64 << victim_idx);
        let m = receivers_mask.count_ones();
        for keep_mask in 0u32..(1 << m) {
            crash_rounds[victim_idx] = Some(Round::new(round));
            let mut rs = receivers_mask;
            let mut bit = 0u32;
            while rs != 0 {
                let q = rs.trailing_zeros() as usize;
                rs &= rs - 1;
                if keep_mask & (1 << bit) == 0 {
                    overrides.insert((round, victim_idx, q), MessageFate::Lose);
                }
                bit += 1;
            }
            let branched = Schedule::from_parts(
                ctx.config,
                ctx.kind,
                crash_rounds.clone(),
                overrides.clone(),
                ctx.sync_from,
            );
            if live {
                let next = clone_into(slot, state);
                next.step(&branched);
                recurse(
                    ctx,
                    round + 1,
                    crashes + 1,
                    next,
                    rest,
                    &branched,
                    crash_rounds,
                    overrides,
                    proposals,
                    visit,
                )?;
            } else {
                recurse(
                    ctx,
                    round + 1,
                    crashes + 1,
                    state,
                    rest,
                    &branched,
                    crash_rounds,
                    overrides,
                    proposals,
                    visit,
                )?;
            }
            // Undo.
            crash_rounds[victim_idx] = None;
            let mut rs = receivers_mask;
            while rs != 0 {
                let q = rs.trailing_zeros() as usize;
                rs &= rs - 1;
                overrides.remove(&(round, victim_idx, q));
            }
        }
    }
    ControlFlow::Continue(())
}

/// Folds `step` over every serial run of `config` — each schedule paired
/// with its executed [`RunOutcome`] — using `backend`.
///
/// This is the one exhaustive sweep. It folds the same outcomes, in the
/// same order, as [`for_each_serial_schedule`] + [`run_schedule`] per
/// schedule, and its result is identical for every backend and thread
/// count (per-unit accumulators merged in serial visit order); but each
/// shared schedule prefix is executed once by the fork-on-branch DFS
/// instead of once per schedule.
///
/// # Errors
///
/// Returns `E::from` of the executor's input validation error if the
/// proposal arity is wrong, or the error of a failing `step` (the
/// parallel backend stops claiming work as soon as any worker fails).
///
/// # Panics
///
/// Panics (resuming the worker's panic) if `step` panics on any schedule.
///
/// [`for_each_serial_schedule`]: crate::for_each_serial_schedule
/// [`run_schedule`]: crate::run_schedule
#[allow(clippy::too_many_arguments)]
pub fn sweep_runs<F, Acc, E, I, S, M>(
    factory: &F,
    proposals: &[Value],
    config: SystemConfig,
    kind: ModelKind,
    crash_horizon: u32,
    run_horizon: u32,
    backend: SweepBackend,
    init: I,
    step: S,
    merge: M,
) -> Result<Acc, E>
where
    F: ProcessFactory + Sync,
    Acc: Send,
    E: Send + From<ExecutorError>,
    I: Fn() -> Acc + Sync,
    S: Fn(&mut Acc, &Schedule, &RunOutcome) -> Result<(), E> + Sync,
    M: Fn(Acc, Acc) -> Acc,
{
    let prefix = Schedule::failure_free(config, kind);
    sweep_run_extensions(
        factory,
        proposals,
        &prefix,
        1,
        crash_horizon,
        run_horizon,
        backend,
        init,
        step,
        merge,
    )
}

/// Folds `step` over every serial extension of `prefix` (additional
/// crashes in `from_round..=crash_horizon`), each paired with its executed
/// [`RunOutcome`], using `backend`. See [`sweep_runs`].
///
/// # Errors
///
/// Returns `E::from` of the executor's input validation error, or the
/// error of a failing `step`.
///
/// # Panics
///
/// Panics if `prefix` schedules a crash at or after `from_round`, or
/// (resuming the worker's panic) if `step` panics.
#[allow(clippy::too_many_arguments)]
pub fn sweep_run_extensions<F, Acc, E, I, S, M>(
    factory: &F,
    proposals: &[Value],
    prefix: &Schedule,
    from_round: u32,
    crash_horizon: u32,
    run_horizon: u32,
    backend: SweepBackend,
    init: I,
    step: S,
    merge: M,
) -> Result<Acc, E>
where
    F: ProcessFactory + Sync,
    Acc: Send,
    E: Send + From<ExecutorError>,
    I: Fn() -> Acc + Sync,
    S: Fn(&mut Acc, &Schedule, &RunOutcome) -> Result<(), E> + Sync,
    M: Fn(Acc, Acc) -> Acc,
{
    // Validate once up front so the per-unit engines cannot fail: every
    // unit shares the same factory/proposals/config.
    check_run_inputs(prefix.config().n(), proposals).map_err(E::from)?;
    match backend {
        SweepBackend::Serial => {
            let mut acc = init();
            let mut failure = None;
            let _ = for_each_serial_run_extension(
                factory,
                proposals,
                prefix,
                from_round,
                crash_horizon,
                run_horizon,
                |schedule, outcome| match step(&mut acc, schedule, outcome) {
                    Ok(()) => ControlFlow::Continue(()),
                    Err(e) => {
                        failure = Some(e);
                        ControlFlow::Break(())
                    }
                },
            )
            .expect("run inputs validated above");
            match failure {
                Some(e) => Err(e),
                None => Ok(acc),
            }
        }
        SweepBackend::Parallel(threads) => {
            let units = extension_work_units(prefix, from_round, crash_horizon);
            pooled_fold(
                &units,
                threads,
                &|unit, abort| {
                    let mut acc = init();
                    let mut failure = None;
                    let mut aborted = false;
                    let _ = for_each_serial_run_extension(
                        factory,
                        proposals,
                        unit.prefix(),
                        unit.from_round(),
                        crash_horizon,
                        run_horizon,
                        |schedule, outcome| {
                            if abort.load(std::sync::atomic::Ordering::Relaxed) {
                                aborted = true;
                                return ControlFlow::Break(());
                            }
                            match step(&mut acc, schedule, outcome) {
                                Ok(()) => ControlFlow::Continue(()),
                                Err(e) => {
                                    failure = Some(e);
                                    ControlFlow::Break(())
                                }
                            }
                        },
                    )
                    .expect("run inputs validated above");
                    match (failure, aborted) {
                        (Some(e), _) => UnitResult::Failed(e),
                        (None, true) => UnitResult::Aborted,
                        (None, false) => UnitResult::Complete(acc),
                    }
                },
                &init,
                merge,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use indulgent_model::{Delivery, ProcessId, RoundProcess, Step};

    use super::*;
    use crate::builder::ScheduleBuilder;
    use crate::executor::run_schedule;
    use crate::serial::{for_each_serial_extension, for_each_serial_schedule};

    /// Deterministic flooding probe deciding the running minimum.
    #[derive(Debug, Clone)]
    struct Probe {
        est: Value,
        decide_at: u32,
        decided: bool,
    }

    impl RoundProcess for Probe {
        type Msg = Value;

        fn send(&mut self, _round: Round) -> Value {
            self.est
        }

        fn deliver(&mut self, round: Round, delivery: &Delivery<Value>) -> Step {
            for m in delivery.current() {
                self.est = self.est.min(m.msg);
            }
            if round.get() >= self.decide_at && !self.decided {
                self.decided = true;
                Step::Decide(self.est)
            } else {
                Step::Continue
            }
        }
    }

    fn probe_factory(decide_at: u32) -> impl ProcessFactory<Process = Probe> + Sync {
        move |_i: usize, v: Value| Probe { est: v, decide_at, decided: false }
    }

    fn props(n: usize) -> Vec<Value> {
        (0..n).map(|i| Value::new(((i * 7) % 11) as u64 + 1)).collect()
    }

    /// The incremental engine visits exactly the serial schedule sequence
    /// and produces, for each, the outcome `run_schedule` computes from
    /// scratch.
    #[test]
    fn incremental_matches_replay_schedule_for_schedule() {
        let config = SystemConfig::majority(4, 1).unwrap();
        let proposals = props(4);
        let mut replay: Vec<(u64, RunOutcome)> = Vec::new();
        let _ = for_each_serial_schedule(config, ModelKind::Es, 3, |s| {
            let outcome = run_schedule(&probe_factory(3), &proposals, s, 6).unwrap();
            replay.push((s.fingerprint(), outcome));
            ControlFlow::Continue(())
        });
        let mut incremental: Vec<(u64, RunOutcome)> = Vec::new();
        let _ = for_each_serial_run(
            &probe_factory(3),
            &proposals,
            config,
            ModelKind::Es,
            3,
            6,
            |s, o| {
                incremental.push((s.fingerprint(), o.clone()));
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        assert_eq!(replay.len(), incremental.len());
        assert_eq!(replay, incremental, "fused sweep must be bit-identical to replay");
    }

    /// Early-exiting runs (all alive decided before the crash horizon)
    /// must report the same truncated `rounds_executed` as replay, with
    /// the full schedule's crash set.
    #[test]
    fn early_exit_parity_with_late_crashes() {
        let config = SystemConfig::majority(3, 1).unwrap();
        let proposals = props(3);
        // decide_at = 1: everyone decides in round 1, crashes at rounds 2-3
        // never execute but still appear in the schedule and crash set.
        let mut pairs: Vec<(Schedule, RunOutcome)> = Vec::new();
        let _ = for_each_serial_run(
            &probe_factory(1),
            &proposals,
            config,
            ModelKind::Es,
            3,
            10,
            |s, o| {
                pairs.push((s.clone(), o.clone()));
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        for (schedule, outcome) in &pairs {
            let replayed = run_schedule(&probe_factory(1), &proposals, schedule, 10).unwrap();
            assert_eq!(outcome, &replayed, "diverged on {schedule:?}");
        }
        assert!(pairs.iter().any(|(s, o)| s.crash_count() == 1 && o.rounds_executed == 1));
    }

    /// Extension sweeps share the prefix execution and agree with the
    /// serial extension enumerator + replay.
    #[test]
    fn extension_sweep_matches_replay() {
        let config = SystemConfig::majority(5, 2).unwrap();
        let proposals = props(5);
        let prefix = ScheduleBuilder::new(config, ModelKind::Es)
            .crash_delivering_only(ProcessId::new(1), Round::FIRST, [ProcessId::new(0)])
            .build(4)
            .unwrap();
        let mut replay: Vec<RunOutcome> = Vec::new();
        let _ = for_each_serial_extension(&prefix, 2, 4, |s| {
            replay.push(run_schedule(&probe_factory(4), &proposals, s, 8).unwrap());
            ControlFlow::Continue(())
        });
        let mut incremental: Vec<RunOutcome> = Vec::new();
        let _ = for_each_serial_run_extension(
            &probe_factory(4),
            &proposals,
            &prefix,
            2,
            4,
            8,
            |_, o| {
                incremental.push(o.clone());
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        assert_eq!(replay, incremental);
    }

    /// The backend-aware fold is identical across serial and parallel
    /// backends, including an order-sensitive fingerprint chain.
    #[test]
    fn sweep_runs_identical_across_backends() {
        let config = SystemConfig::majority(5, 2).unwrap();
        let proposals = props(5);
        let fold = |backend: SweepBackend| -> Vec<(u64, u32)> {
            let folded: Result<Vec<(u64, u32)>, ExecutorError> = sweep_runs(
                &probe_factory(3),
                &proposals,
                config,
                ModelKind::Es,
                3,
                8,
                backend,
                Vec::new,
                |acc, s, o| {
                    acc.push((s.fingerprint(), o.rounds_executed));
                    Ok(())
                },
                |mut a, b| {
                    a.extend(b);
                    a
                },
            );
            folded.expect("valid inputs")
        };
        let serial = fold(SweepBackend::Serial);
        assert_eq!(serial, fold(SweepBackend::parallel(2)));
        assert_eq!(serial, fold(SweepBackend::parallel(4)));
    }

    /// A failing step aborts every backend with an error.
    #[test]
    fn failing_step_reports_on_every_backend() {
        let config = SystemConfig::majority(4, 1).unwrap();
        let proposals = props(4);
        #[derive(Debug)]
        enum E {
            #[allow(dead_code)]
            Exec(ExecutorError),
            TwoCrashesNever,
        }
        impl From<ExecutorError> for E {
            fn from(e: ExecutorError) -> Self {
                E::Exec(e)
            }
        }
        for backend in [SweepBackend::Serial, SweepBackend::parallel(3)] {
            let result: Result<u64, E> = sweep_runs(
                &probe_factory(2),
                &proposals,
                config,
                ModelKind::Es,
                2,
                6,
                backend,
                || 0u64,
                |acc, s, _| {
                    *acc += 1;
                    if s.crash_count() == 1 {
                        Err(E::TwoCrashesNever)
                    } else {
                        Ok(())
                    }
                },
                |a, b| a + b,
            );
            assert!(matches!(result, Err(E::TwoCrashesNever)), "backend {backend:?}");
        }
    }

    /// Proposal arity is validated once, before any unit runs.
    #[test]
    fn arity_mismatch_is_a_typed_error() {
        let config = SystemConfig::majority(4, 1).unwrap();
        let short = props(2);
        let result: Result<u64, ExecutorError> = sweep_runs(
            &probe_factory(2),
            &short,
            config,
            ModelKind::Es,
            2,
            6,
            SweepBackend::Serial,
            || 0u64,
            |acc, _, _| {
                *acc += 1;
                Ok(())
            },
            |a, b| a + b,
        );
        assert_eq!(
            result.unwrap_err(),
            ExecutorError::ProposalCountMismatch { expected: 4, got: 2 }
        );
    }

    /// A run horizon *below* the crash horizon still matches replay (the
    /// DFS must not step rounds the classic executor would never reach).
    #[test]
    fn run_horizon_below_crash_horizon_parity() {
        let config = SystemConfig::majority(3, 1).unwrap();
        let proposals = props(3);
        let mut pairs: Vec<(Schedule, RunOutcome)> = Vec::new();
        let _ = for_each_serial_run(
            &probe_factory(10),
            &proposals,
            config,
            ModelKind::Es,
            4,
            2,
            |s, o| {
                pairs.push((s.clone(), o.clone()));
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        for (schedule, outcome) in &pairs {
            let replayed = run_schedule(&probe_factory(10), &proposals, schedule, 2).unwrap();
            assert_eq!(outcome, &replayed, "diverged on {schedule:?}");
        }
    }

    /// Break from the visitor aborts the sweep.
    #[test]
    fn break_aborts() {
        let config = SystemConfig::majority(4, 1).unwrap();
        let proposals = props(4);
        let mut seen = 0u32;
        let flow = for_each_serial_run(
            &probe_factory(2),
            &proposals,
            config,
            ModelKind::Es,
            3,
            6,
            |_, _| {
                seen += 1;
                if seen == 5 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
        .unwrap();
        assert_eq!(flow, ControlFlow::Break(()));
        assert_eq!(seen, 5);
    }

    /// Counting through the fused engine equals the schedule-space count.
    #[test]
    fn fused_count_equals_schedule_count() {
        let config = SystemConfig::majority(5, 2).unwrap();
        let proposals = props(5);
        let counted: Result<u64, ExecutorError> = sweep_runs(
            &probe_factory(3),
            &proposals,
            config,
            ModelKind::Es,
            3,
            8,
            SweepBackend::parallel(2),
            || 0u64,
            |acc, _, _| {
                *acc += 1;
                Ok(())
            },
            |a, b| a + b,
        );
        assert_eq!(
            counted.expect("valid inputs"),
            crate::serial::count_serial_schedules(config, 3)
        );
    }
}
