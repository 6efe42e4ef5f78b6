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
//! `indulgent_sim` ([`for_each_serial_run`]): the serial-schedule tree is
//! executed once per shared prefix, with automaton snapshots forked at
//! branch points, instead of replaying every schedule from round 1. A
//! sweep visits the schedules in serial enumeration order and stops at
//! the first run that fails a check, so its report and its error witness
//! are those of that order.

use std::ops::ControlFlow;

use indulgent_model::{ConsensusViolation, ProcessFactory, Round, RunOutcome, SystemConfig, Value};
use indulgent_sim::{for_each_serial_run, ExecutorError, ModelKind, Schedule};

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

/// The global-decision round of a checked run: a consensus violation or a
/// run without a global decision is the sweep's error, witnessed by
/// `schedule`.
pub(crate) fn checked_decision_round(
    schedule: &Schedule,
    outcome: &RunOutcome,
) -> Result<Round, CheckError> {
    if let Err(violation) = outcome.check_consensus() {
        return Err(CheckError::Violation { violation, schedule: Box::new(schedule.clone()) });
    }
    outcome
        .global_decision_round()
        .ok_or_else(|| CheckError::NoDecision { schedule: Box::new(schedule.clone()) })
}

/// Folds one run outcome into the report, or breaks with the run's error.
fn fold_run(
    report: &mut Option<WorstCaseReport>,
    schedule: &Schedule,
    outcome: &RunOutcome,
) -> ControlFlow<CheckError> {
    let round = match checked_decision_round(schedule, outcome) {
        Ok(round) => round,
        Err(error) => return ControlFlow::Break(error),
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
    ControlFlow::Continue(())
}

/// Merges two reports, `left` swept before `right`: the earlier witness
/// wins ties.
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
/// (crashes in rounds `1..=crash_horizon`), checking the consensus
/// properties in each run and reporting the worst and best
/// global-decision rounds.
///
/// `run_horizon` bounds each run's execution; it must be generous enough
/// for the algorithm to decide in every serial run (serial runs are
/// synchronous, so for the paper's algorithms `t + 3` already suffices).
///
/// # Errors
///
/// Returns [`CheckError`] on a property violation or undecided run; its
/// witness is the first such schedule in serial enumeration order.
pub fn worst_case_decision_round<F>(
    factory: &F,
    config: SystemConfig,
    kind: ModelKind,
    proposals: &[Value],
    crash_horizon: u32,
    run_horizon: u32,
) -> Result<WorstCaseReport, CheckError>
where
    F: ProcessFactory,
{
    let mut report = None;
    let flow = for_each_serial_run(
        factory,
        proposals,
        config,
        kind,
        crash_horizon,
        run_horizon,
        |schedule, outcome| fold_run(&mut report, schedule, outcome),
    )?;
    if let ControlFlow::Break(error) = flow {
        return Err(error);
    }
    Ok(report.expect("serial enumeration visits at least the crash-free run"))
}

/// Runs [`worst_case_decision_round`] over every binary proposal vector
/// (all `2^n` assignments of `{0, 1}`), returning the
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
) -> Result<WorstCaseReport, CheckError>
where
    F: ProcessFactory,
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
        )?;
        overall = merge_reports(overall, Some(report));
    }
    Ok(overall.expect("at least one proposal vector"))
}

#[cfg(test)]
mod tests {
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
        let report =
            worst_case_decision_round(&factory, config, ModelKind::Es, &proposals, 3, 30).unwrap();
        assert_eq!(report.worst_round, Round::new(3)); // t + 2
        assert_eq!(report.best_round, Round::new(3)); // never earlier either
        assert_eq!(report.runs, 97);
    }

    #[test]
    fn floodset_worst_case_is_exactly_t_plus_1_in_scs() {
        let config = SystemConfig::synchronous(4, 2).unwrap();
        let factory = move |_i: usize, v: Value| FloodSet::new(config, v);
        let proposals: Vec<Value> = [5u64, 3, 8, 1].map(Value::new).to_vec();
        let report =
            worst_case_decision_round(&factory, config, ModelKind::Scs, &proposals, 3, 10).unwrap();
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
        let report =
            worst_case_over_binary_proposals(&factory, config, ModelKind::Es, 3, 30).unwrap();
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
        let report =
            worst_case_decision_round(&factory, config, ModelKind::Es, &proposals, 4, 30).unwrap();
        assert_eq!(report.worst_round, Round::new(4)); // 2t + 2
        assert_eq!(report.best_round, Round::new(2)); // failure-free phase 1
    }

    #[test]
    fn early_floodset_exhaustive_worst_case_is_min_f2_t1() {
        use indulgent_consensus::EarlyFloodSet;
        let config = SystemConfig::synchronous(4, 2).unwrap();
        let factory = move |_i: usize, v: Value| EarlyFloodSet::new(config, v);
        let proposals: Vec<Value> = [5u64, 3, 8, 1].map(Value::new).to_vec();
        let report =
            worst_case_decision_round(&factory, config, ModelKind::Scs, &proposals, 3, 10).unwrap();
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
        let err = worst_case_decision_round(&factory, config, ModelKind::Scs, &proposals, 3, 10)
            .unwrap_err();
        assert!(matches!(err, CheckError::Violation { .. }));
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
            assert!(fold_run(&mut replay, schedule, &outcome).is_continue());
            ControlFlow::Continue(())
        });
        let incremental =
            worst_case_decision_round(&factory, config, ModelKind::Es, &proposals, 4, 30).unwrap();
        assert_eq!(replay.unwrap(), incremental, "incremental must equal replay");
    }

    #[test]
    fn proposal_arity_mismatch_is_a_typed_error() {
        let config = SystemConfig::majority(4, 1).unwrap();
        let factory = move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
        };
        let short: Vec<Value> = [5u64, 3].map(Value::new).to_vec();
        let err =
            worst_case_decision_round(&factory, config, ModelKind::Es, &short, 3, 30).unwrap_err();
        assert_eq!(
            err,
            CheckError::Executor(ExecutorError::ProposalCountMismatch { expected: 4, got: 2 })
        );
    }
}
