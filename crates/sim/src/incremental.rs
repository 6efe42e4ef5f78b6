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
//! The visitor returns [`ControlFlow`]: a fold that rejects a run breaks
//! with its own value (the checker breaks with its error), and the sweep
//! stops at the first such schedule in serial visit order and hands the
//! value back.
//!
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

use crate::executor::{ExecutorError, RunState};
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
/// Returning `ControlFlow::Break(b)` from the visitor stops the sweep at
/// that schedule, and the sweep returns `Ok(ControlFlow::Break(b))`.
///
/// # Errors
///
/// Returns [`ExecutorError::ProposalCountMismatch`] if `proposals.len()`
/// differs from `config.n()`.
pub fn for_each_serial_run<F, B, V>(
    factory: &F,
    proposals: &[Value],
    config: SystemConfig,
    kind: ModelKind,
    crash_horizon: u32,
    run_horizon: u32,
    visit: V,
) -> Result<ControlFlow<B>, ExecutorError>
where
    F: ProcessFactory,
    V: FnMut(&Schedule, &RunOutcome) -> ControlFlow<B>,
{
    let prefix = Schedule::failure_free(config, kind);
    for_each_serial_run_extension(factory, proposals, &prefix, 1, crash_horizon, run_horizon, visit)
}

/// Enumerates and executes every serial extension of `prefix` whose
/// additional crashes lie in `from_round..=crash_horizon` — the space of
/// [`for_each_serial_extension`](crate::for_each_serial_extension), in the
/// same order. The prefix rounds `1..from_round` are executed exactly
/// once; the DFS forks the resulting snapshot at every branch point.
/// The visitor stops the sweep as in [`for_each_serial_run`].
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
pub fn for_each_serial_run_extension<F, B, V>(
    factory: &F,
    proposals: &[Value],
    prefix: &Schedule,
    from_round: u32,
    crash_horizon: u32,
    run_horizon: u32,
    mut visit: V,
) -> Result<ControlFlow<B>, ExecutorError>
where
    F: ProcessFactory,
    V: FnMut(&Schedule, &RunOutcome) -> ControlFlow<B>,
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
fn recurse<P, B, V>(
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
) -> ControlFlow<B>
where
    P: indulgent_model::RoundProcess,
    V: FnMut(&Schedule, &RunOutcome) -> ControlFlow<B>,
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

    fn probe_factory(decide_at: u32) -> impl ProcessFactory<Process = Probe> {
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
                ControlFlow::<()>::Continue(())
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
                ControlFlow::<()>::Continue(())
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
                ControlFlow::<()>::Continue(())
            },
        )
        .unwrap();
        assert_eq!(replay, incremental);
    }

    /// A visitor that rejects a run breaks with its own value: the sweep
    /// stops at the first rejected schedule in serial visit order and
    /// returns that value.
    #[test]
    fn failing_step_reports_its_error() {
        let config = SystemConfig::majority(4, 1).unwrap();
        let proposals = props(4);
        let mut first_crash = None;
        let _ = for_each_serial_schedule(config, ModelKind::Es, 2, |s| {
            if s.crash_count() == 1 {
                first_crash = Some(s.fingerprint());
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        let mut visited = 0u64;
        let flow = for_each_serial_run(
            &probe_factory(2),
            &proposals,
            config,
            ModelKind::Es,
            2,
            6,
            |s, _| {
                visited += 1;
                if s.crash_count() == 1 {
                    ControlFlow::Break(s.fingerprint())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
        .unwrap();
        assert_eq!(flow, ControlFlow::Break(first_crash.expect("a one-crash schedule exists")));
        assert_eq!(visited, 2, "the crash-free run, then the first one-crash run");
    }

    /// Proposal arity is validated before any run executes.
    #[test]
    fn arity_mismatch_is_a_typed_error() {
        let config = SystemConfig::majority(4, 1).unwrap();
        let short = props(2);
        let result = for_each_serial_run(
            &probe_factory(2),
            &short,
            config,
            ModelKind::Es,
            2,
            6,
            |_, _| -> ControlFlow<()> { panic!("no run executes on a rejected input") },
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
                ControlFlow::<()>::Continue(())
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
        let mut counted = 0u64;
        let flow = for_each_serial_run(
            &probe_factory(3),
            &proposals,
            config,
            ModelKind::Es,
            3,
            8,
            |_, _| {
                counted += 1;
                ControlFlow::<()>::Continue(())
            },
        )
        .unwrap();
        assert_eq!(flow, ControlFlow::Continue(()));
        assert_eq!(counted, crate::serial::count_serial_schedules(config, 3));
    }
}
