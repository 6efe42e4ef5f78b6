//! Run outcomes and consensus property verification.
//!
//! Every executor in the workspace (deterministic simulator, exhaustive
//! checker, wall-clock runtime) reports a [`RunOutcome`]: who proposed what,
//! who crashed, and who decided what in which round. The consensus
//! properties of Sect. 1.3 — validity, uniform agreement, termination — are
//! checked directly on outcomes.

use std::fmt;

use crate::process::{ProcessId, ProcessSet};
use crate::round::Round;
use crate::value::Value;

/// A recorded decision: which process decided which value in which round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The deciding process.
    pub process: ProcessId,
    /// The round at whose end the decision was taken.
    pub round: Round,
    /// The decided value.
    pub value: Value,
}

/// The observable outcome of one run.
///
/// # Examples
///
/// ```
/// use indulgent_model::{Decision, ProcessId, ProcessSet, Round, RunOutcome, Value};
///
/// let outcome = RunOutcome {
///     proposals: vec![Value::ZERO, Value::ONE, Value::ONE],
///     decisions: vec![
///         Some(Decision { process: ProcessId::new(0), round: Round::new(3), value: Value::ONE }),
///         Some(Decision { process: ProcessId::new(1), round: Round::new(3), value: Value::ONE }),
///         None,
///     ],
///     crashed: ProcessSet::from_ids([ProcessId::new(2)]),
///     rounds_executed: 4,
/// };
/// assert!(outcome.check_consensus().is_ok());
/// assert_eq!(outcome.global_decision_round(), Some(Round::new(3)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Proposal of each process (index = process id).
    pub proposals: Vec<Value>,
    /// First decision of each process, if it decided.
    pub decisions: Vec<Option<Decision>>,
    /// Processes that crashed during the run.
    pub crashed: ProcessSet,
    /// Number of rounds the executor ran.
    pub rounds_executed: u32,
}

impl RunOutcome {
    /// Number of processes in the run.
    #[must_use]
    pub fn n(&self) -> usize {
        self.proposals.len()
    }

    /// The correct processes of this run (those that never crashed).
    #[must_use]
    pub fn correct(&self) -> ProcessSet {
        self.crashed.complement(self.n())
    }

    /// The decision of process `id`, if any.
    #[must_use]
    pub fn decision_of(&self, id: ProcessId) -> Option<Decision> {
        self.decisions.get(id.index()).copied().flatten()
    }

    /// The round at which the run achieves a *global decision* (Sect. 1.3):
    /// the highest round in which any process decides, provided at least one
    /// process decided. Returns `None` if no process ever decided.
    ///
    /// Note the paper's definition also requires that all deciding processes
    /// decide at that round or lower, which holds trivially for a maximum.
    #[must_use]
    pub fn global_decision_round(&self) -> Option<Round> {
        self.decisions.iter().flatten().map(|d| d.round).max()
    }

    /// The earliest decision round among deciders, if any decided.
    #[must_use]
    pub fn first_decision_round(&self) -> Option<Round> {
        self.decisions.iter().flatten().map(|d| d.round).min()
    }

    /// Returns `true` if every correct (non-crashed) process decided.
    #[must_use]
    pub fn all_correct_decided(&self) -> bool {
        self.correct().iter().all(|p| self.decision_of(p).is_some())
    }

    /// Checks validity, uniform agreement and termination.
    ///
    /// Termination here is the executor-level property "every correct
    /// process decided within the executed horizon"; for runs truncated
    /// before the algorithm's fallback completes, use
    /// [`RunOutcome::check_safety`] instead.
    ///
    /// # Errors
    ///
    /// Returns the first violated property.
    pub fn check_consensus(&self) -> Result<(), ConsensusViolation> {
        self.check_safety()?;
        if !self.all_correct_decided() {
            let undecided = self
                .correct()
                .iter()
                .find(|p| self.decision_of(*p).is_none())
                .expect("some undecided");
            return Err(ConsensusViolation::Termination { process: undecided });
        }
        Ok(())
    }

    /// Checks the safety properties only: validity and uniform agreement.
    ///
    /// # Errors
    ///
    /// Returns the first violated property.
    pub fn check_safety(&self) -> Result<(), ConsensusViolation> {
        // Validity: every decided value was proposed by some process.
        for d in self.decisions.iter().flatten() {
            if !self.proposals.contains(&d.value) {
                return Err(ConsensusViolation::Validity { decision: *d });
            }
        }
        // Uniform agreement: no two processes (correct or not) decide
        // differently.
        let mut deciders = self.decisions.iter().flatten();
        if let Some(first) = deciders.next() {
            for d in deciders {
                if d.value != first.value {
                    return Err(ConsensusViolation::Agreement { a: *first, b: *d });
                }
            }
        }
        Ok(())
    }
}

/// A violated consensus property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsensusViolation {
    /// A process decided a value nobody proposed.
    Validity {
        /// The offending decision.
        decision: Decision,
    },
    /// Two processes decided differently (uniform agreement is violated even
    /// if one of them later crashed).
    Agreement {
        /// One decision.
        a: Decision,
        /// A conflicting decision.
        b: Decision,
    },
    /// A correct process never decided within the executed horizon.
    Termination {
        /// The undecided correct process.
        process: ProcessId,
    },
}

impl fmt::Display for ConsensusViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsensusViolation::Validity { decision } => write!(
                f,
                "validity violated: {} decided {} at {} but no process proposed it",
                decision.process, decision.value, decision.round
            ),
            ConsensusViolation::Agreement { a, b } => write!(
                f,
                "uniform agreement violated: {} decided {} at {} but {} decided {} at {}",
                a.process, a.value, a.round, b.process, b.value, b.round
            ),
            ConsensusViolation::Termination { process } => {
                write!(f, "termination violated: correct process {process} never decided")
            }
        }
    }
}

impl std::error::Error for ConsensusViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(
        proposals: Vec<u64>,
        decisions: Vec<Option<(u32, u64)>>,
        crashed: &[usize],
    ) -> RunOutcome {
        RunOutcome {
            proposals: proposals.into_iter().map(Value::new).collect(),
            decisions: decisions
                .into_iter()
                .enumerate()
                .map(|(i, d)| {
                    d.map(|(r, v)| Decision {
                        process: ProcessId::new(i),
                        round: Round::new(r),
                        value: Value::new(v),
                    })
                })
                .collect(),
            crashed: crashed.iter().map(|&i| ProcessId::new(i)).collect(),
            rounds_executed: 10,
        }
    }

    #[test]
    fn valid_run_passes() {
        let o = outcome(vec![0, 1, 1], vec![Some((3, 1)), Some((3, 1)), Some((4, 1))], &[]);
        assert!(o.check_consensus().is_ok());
        assert_eq!(o.global_decision_round(), Some(Round::new(4)));
        assert_eq!(o.first_decision_round(), Some(Round::new(3)));
    }

    #[test]
    fn validity_violation_detected() {
        let o = outcome(vec![0, 1, 1], vec![Some((3, 9)), None, None], &[]);
        assert!(matches!(o.check_consensus(), Err(ConsensusViolation::Validity { .. })));
    }

    #[test]
    fn agreement_violation_detected() {
        let o = outcome(vec![0, 1, 1], vec![Some((3, 0)), Some((3, 1)), None], &[2]);
        assert!(matches!(o.check_safety(), Err(ConsensusViolation::Agreement { .. })));
    }

    #[test]
    fn uniform_agreement_counts_crashed_deciders() {
        // p0 decided then crashed; its decision still counts.
        let o = outcome(vec![0, 1, 1], vec![Some((2, 0)), Some((3, 1)), Some((3, 1))], &[0]);
        assert!(matches!(o.check_safety(), Err(ConsensusViolation::Agreement { .. })));
    }

    #[test]
    fn termination_violation_detected() {
        let o = outcome(vec![0, 1, 1], vec![Some((3, 1)), None, None], &[]);
        assert_eq!(
            o.check_consensus(),
            Err(ConsensusViolation::Termination { process: ProcessId::new(1) })
        );
        // Safety alone passes.
        assert!(o.check_safety().is_ok());
    }

    #[test]
    fn crashed_processes_exempt_from_termination() {
        let o = outcome(vec![0, 1, 1], vec![Some((3, 1)), Some((3, 1)), None], &[2]);
        assert!(o.check_consensus().is_ok());
    }

    #[test]
    fn no_decisions_is_safe_but_nonterminating() {
        let o = outcome(vec![0, 1, 1], vec![None, None, None], &[]);
        assert!(o.check_safety().is_ok());
        assert!(o.check_consensus().is_err());
        assert_eq!(o.global_decision_round(), None);
    }

    #[test]
    fn violation_display() {
        let o = outcome(vec![0, 1, 1], vec![Some((3, 0)), Some((3, 1)), None], &[]);
        let err = o.check_safety().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("uniform agreement violated"));
    }
}
