//! Worst-case decision-round search over the serial synchronous runs.
//!
//! The paper's time-complexity measure `k_ES` asks for the worst round, over
//! all synchronous runs, at which a global decision happens. For small
//! systems the space of *serial* runs (at most one crash per round — the
//! run class the lower-bound proof manipulates) is exhaustively enumerable,
//! which lets us measure the exact worst case of every implemented
//! algorithm and verify the consensus properties in every single run.
//!
//! Sweeps run on the **incremental prefix-sharing engine** of
//! `indulgent_sim` ([`sweep_runs`]): the serial-schedule tree is executed
//! once per shared prefix, with automaton snapshots forked at branch
//! points, instead of replaying every schedule from round 1. Every entry
//! point takes a [`SweepBackend`]; pass [`SweepBackend::parallel`] to
//! additionally fan the work units out over a worker pool. Reports are
//! identical across backends and thread counts.

use indulgent_model::{ConsensusViolation, ProcessFactory, Round, RunOutcome, SystemConfig, Value};
use indulgent_sim::{sweep_runs, ExecutorError, ModelKind, Schedule, SweepBackend};

/// Result of an exhaustive serial-run sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorstCaseReport {
    /// Number of serial runs executed.
    pub runs: u64,
    /// The worst (largest) global-decision round over all runs.
    pub worst_round: Round,
    /// The best (smallest) global-decision round over all runs.
    pub best_round: Round,
    /// The first schedule (in serial enumeration order) attaining the
    /// worst round.
    pub worst_schedule: Schedule,
}

/// Error from a worst-case sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// A run violated a consensus property; the offending schedule is
    /// attached.
    Violation {
        /// The violated property.
        violation: ConsensusViolation,
        /// The run that violated it.
        schedule: Box<Schedule>,
    },
    /// A run reached the execution horizon without a global decision.
    NoDecision {
        /// The run that failed to decide.
        schedule: Box<Schedule>,
    },
    /// The executor rejected the run inputs (wrong proposal arity).
    Executor(ExecutorError),
}

impl From<ExecutorError> for CheckError {
    fn from(error: ExecutorError) -> Self {
        CheckError::Executor(error)
    }
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Violation { violation, .. } => write!(f, "consensus violated: {violation}"),
            CheckError::NoDecision { .. } => write!(f, "no global decision within the horizon"),
            CheckError::Executor(error) => write!(f, "executor rejected the run: {error}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Folds one run outcome into a partial report; shared by every backend.
fn fold_run(
    report: &mut Option<WorstCaseReport>,
    schedule: &Schedule,
    outcome: &RunOutcome,
) -> Result<(), CheckError> {
    if let Err(violation) = outcome.check_consensus() {
        return Err(CheckError::Violation { violation, schedule: Box::new(schedule.clone()) });
    }
    let Some(round) = outcome.global_decision_round() else {
        return Err(CheckError::NoDecision { schedule: Box::new(schedule.clone()) });
    };
    match report {
        None => {
            *report = Some(WorstCaseReport {
                runs: 1,
                worst_round: round,
                best_round: round,
                worst_schedule: schedule.clone(),
            });
        }
        Some(r) => {
            r.runs += 1;
            if round > r.worst_round {
                r.worst_round = round;
                r.worst_schedule = schedule.clone();
            }
            r.best_round = r.best_round.min(round);
        }
    }
    Ok(())
}

/// Merges two partial reports whose runs come from consecutive slices of
/// the serial visit order (`left` strictly before `right`): the earlier
/// witness wins ties, so the merged report equals the serial fold.
fn merge_reports(
    left: Option<WorstCaseReport>,
    right: Option<WorstCaseReport>,
) -> Option<WorstCaseReport> {
    match (left, right) {
        (None, r) => r,
        (l, None) => l,
        (Some(mut l), Some(r)) => {
            if r.worst_round > l.worst_round {
                l.worst_round = r.worst_round;
                l.worst_schedule = r.worst_schedule;
            }
            l.best_round = l.best_round.min(r.best_round);
            l.runs += r.runs;
            Some(l)
        }
    }
}

/// Exhaustively runs `factory` under every serial schedule of `config`
/// (crashes in rounds `1..=crash_horizon`) on `backend`, checking the
/// consensus properties in each run and reporting the worst and best
/// global-decision rounds.
///
/// `run_horizon` bounds each run's execution; it must be generous enough
/// for the algorithm to decide in every serial run (serial runs are
/// synchronous, so for the paper's algorithms `t + 3` already suffices).
/// The returned report is identical for every backend and thread count
/// (the engine merges per-unit partials in serial visit order).
///
/// # Errors
///
/// Returns [`CheckError`] on a property violation or undecided run. With a
/// parallel backend the reported witness schedule may differ from the
/// serial backend's (the sweep aborts early on the first failure a worker
/// hits), but an error is reported if and only if the serial sweep would
/// report one.
pub fn worst_case_decision_round<F>(
    factory: &F,
    config: SystemConfig,
    kind: ModelKind,
    proposals: &[Value],
    crash_horizon: u32,
    run_horizon: u32,
    backend: SweepBackend,
) -> Result<WorstCaseReport, CheckError>
where
    F: ProcessFactory + Sync,
{
    let report = sweep_runs(
        factory,
        proposals,
        config,
        kind,
        crash_horizon,
        run_horizon,
        backend,
        || None,
        fold_run,
        merge_reports,
    )?;
    Ok(report.expect("serial enumeration visits at least the crash-free run"))
}

/// Runs [`worst_case_decision_round`] on `backend` over every binary
/// proposal vector (all `2^n` assignments of `{0, 1}`), returning the
/// overall worst case.
///
/// # Errors
///
/// Returns the first [`CheckError`] encountered.
pub fn worst_case_over_binary_proposals<F>(
    factory: &F,
    config: SystemConfig,
    kind: ModelKind,
    crash_horizon: u32,
    run_horizon: u32,
    backend: SweepBackend,
) -> Result<WorstCaseReport, CheckError>
where
    F: ProcessFactory + Sync,
{
    let n = config.n();
    let mut overall: Option<WorstCaseReport> = None;
    for bits in 0u64..(1 << n) {
        let proposals: Vec<Value> = (0..n).map(|i| Value::binary(bits & (1 << i) != 0)).collect();
        let report = worst_case_decision_round(
            factory,
            config,
            kind,
            &proposals,
            crash_horizon,
            run_horizon,
            backend,
        )?;
        overall = merge_reports(overall, Some(report));
    }
    Ok(overall.expect("at least one proposal vector"))
}

#[cfg(test)]
mod tests {
    use std::ops::ControlFlow;

    use indulgent_consensus::{AtPlus2, FloodSet, RotatingCoordinator};
    use indulgent_model::ProcessId;
    use indulgent_sim::{for_each_serial_schedule, run_schedule};

    use super::*;

    #[test]
    fn at_plus2_worst_case_is_exactly_t_plus_2() {
        let config = SystemConfig::majority(4, 1).unwrap();
        let factory = move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
        };
        let proposals: Vec<Value> = [5u64, 3, 8, 1].map(Value::new).to_vec();
        let report = worst_case_decision_round(
            &factory,
            config,
            ModelKind::Es,
            &proposals,
            3,
            30,
            SweepBackend::Serial,
        )
        .unwrap();
        assert_eq!(report.worst_round, Round::new(3)); // t + 2
        assert_eq!(report.best_round, Round::new(3)); // never earlier either
        assert_eq!(report.runs, 97);
    }

    #[test]
    fn floodset_worst_case_is_exactly_t_plus_1_in_scs() {
        let config = SystemConfig::synchronous(4, 2).unwrap();
        let factory = move |_i: usize, v: Value| FloodSet::new(config, v);
        let proposals: Vec<Value> = [5u64, 3, 8, 1].map(Value::new).to_vec();
        let report = worst_case_decision_round(
            &factory,
            config,
            ModelKind::Scs,
            &proposals,
            3,
            10,
            SweepBackend::Serial,
        )
        .unwrap();
        assert_eq!(report.worst_round, Round::new(3)); // t + 1
        assert_eq!(report.best_round, Round::new(3));
    }

    #[test]
    fn binary_sweep_covers_all_vectors() {
        let config = SystemConfig::majority(3, 1).unwrap();
        let factory = move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
        };
        let report = worst_case_over_binary_proposals(
            &factory,
            config,
            ModelKind::Es,
            3,
            30,
            SweepBackend::Serial,
        )
        .unwrap();
        assert_eq!(report.worst_round, Round::new(3)); // t + 2 with t = 1
                                                       // 8 proposal vectors x 37 serial schedules each.
        assert_eq!(report.runs, 8 * 37);
    }

    #[test]
    fn coordinator_echo_exhaustive_worst_case_is_2t_plus_2() {
        use indulgent_consensus::CoordinatorEcho;
        let config = SystemConfig::majority(3, 1).unwrap();
        let factory = move |i: usize, v: Value| CoordinatorEcho::new(config, ProcessId::new(i), v);
        let proposals: Vec<Value> = [5u64, 3, 8].map(Value::new).to_vec();
        // Crashes may land anywhere in the first 2t + 2 rounds.
        let report = worst_case_decision_round(
            &factory,
            config,
            ModelKind::Es,
            &proposals,
            4,
            30,
            SweepBackend::Serial,
        )
        .unwrap();
        assert_eq!(report.worst_round, Round::new(4)); // 2t + 2
        assert_eq!(report.best_round, Round::new(2)); // failure-free phase 1
    }

    #[test]
    fn early_floodset_exhaustive_worst_case_is_min_f2_t1() {
        use indulgent_consensus::EarlyFloodSet;
        let config = SystemConfig::synchronous(4, 2).unwrap();
        let factory = move |_i: usize, v: Value| EarlyFloodSet::new(config, v);
        let proposals: Vec<Value> = [5u64, 3, 8, 1].map(Value::new).to_vec();
        let report = worst_case_decision_round(
            &factory,
            config,
            ModelKind::Scs,
            &proposals,
            3,
            10,
            SweepBackend::Serial,
        )
        .unwrap();
        assert_eq!(report.worst_round, Round::new(3)); // min(f+2, t+1) with f = t = 2
        assert_eq!(report.best_round, Round::new(2)); // failure-free f + 2
    }

    #[test]
    fn truncated_floodset_is_caught_violating_agreement() {
        // An algorithm deciding one round too early (at round t instead of
        // t + 1) must be caught by the sweep: the t + 1 bound is real.
        let config = SystemConfig::synchronous(4, 2).unwrap();
        let early = config.t() as u32; // decide at round t
        let factory = move |_i: usize, v: Value| FloodSet::deciding_at(Round::new(early), v);
        let proposals: Vec<Value> = [5u64, 3, 8, 1].map(Value::new).to_vec();
        let err = worst_case_decision_round(
            &factory,
            config,
            ModelKind::Scs,
            &proposals,
            3,
            10,
            SweepBackend::Serial,
        )
        .unwrap_err();
        assert!(matches!(err, CheckError::Violation { .. }));
    }

    #[test]
    fn parallel_backend_reproduces_the_serial_report_exactly() {
        let config = SystemConfig::majority(4, 1).unwrap();
        let factory = move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
        };
        let proposals: Vec<Value> = [5u64, 3, 8, 1].map(Value::new).to_vec();
        let serial = worst_case_decision_round(
            &factory,
            config,
            ModelKind::Es,
            &proposals,
            3,
            30,
            SweepBackend::Serial,
        )
        .unwrap();
        for threads in [2, 4] {
            let parallel = worst_case_decision_round(
                &factory,
                config,
                ModelKind::Es,
                &proposals,
                3,
                30,
                SweepBackend::parallel(threads),
            )
            .unwrap();
            assert_eq!(serial, parallel, "{threads}-thread report must match serial");
        }
    }

    #[test]
    fn incremental_report_equals_replay_report() {
        let config = SystemConfig::majority(5, 2).unwrap();
        let factory = move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
        };
        let proposals: Vec<Value> = [5u64, 3, 8, 1, 9].map(Value::new).to_vec();
        // The reference: every schedule replayed from round 1.
        let mut replay = None;
        let _ = for_each_serial_schedule(config, ModelKind::Es, 4, |schedule| {
            let outcome = run_schedule(&factory, &proposals, schedule, 30).unwrap();
            fold_run(&mut replay, schedule, &outcome).unwrap();
            ControlFlow::Continue(())
        });
        let replay = replay.unwrap();
        for backend in [SweepBackend::Serial, SweepBackend::parallel(4)] {
            let incremental = worst_case_decision_round(
                &factory,
                config,
                ModelKind::Es,
                &proposals,
                4,
                30,
                backend,
            )
            .unwrap();
            assert_eq!(replay, incremental, "incremental {backend:?} must equal replay");
        }
    }

    #[test]
    fn proposal_arity_mismatch_is_a_typed_error() {
        let config = SystemConfig::majority(4, 1).unwrap();
        let factory = move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
        };
        let short: Vec<Value> = [5u64, 3].map(Value::new).to_vec();
        let err = worst_case_decision_round(
            &factory,
            config,
            ModelKind::Es,
            &short,
            3,
            30,
            SweepBackend::Serial,
        )
        .unwrap_err();
        assert_eq!(
            err,
            CheckError::Executor(ExecutorError::ProposalCountMismatch { expected: 4, got: 2 })
        );
    }
}
