//! Decision-round census and randomized worst-case search.
//!
//! The exhaustive sweeps of [`worst_case`](crate::worst_case_decision_round)
//! blow up beyond `n ≈ 6`; for larger systems [`randomized_worst_case`]
//! samples random synchronous runs instead. [`decision_round_census`]
//! complements both with the full distribution of global-decision rounds
//! over the serial-run space — useful to see, e.g., that `A_{t+2}` decides
//! at *exactly* `t + 2` in every serial run (a single-bar histogram) while
//! the Hurfin–Raynal-style baseline spreads over `2..=2t+2`.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use indulgent_model::{ProcessFactory, Round, SystemConfig, Value};
use indulgent_sim::{
    for_each_serial_run, random_run, run_schedule, ModelKind, RandomRunParams, Schedule,
};

use crate::worst_case::{checked_decision_round, CheckError};

/// The distribution of global-decision rounds over all serial runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Census {
    /// `round → number of serial runs deciding globally at that round`.
    pub counts: BTreeMap<u32, u64>,
    /// Total serial runs explored.
    pub runs: u64,
}

impl Census {
    /// The worst (largest) decision round in the census.
    #[must_use]
    pub fn worst(&self) -> Option<Round> {
        self.counts.keys().next_back().map(|&r| Round::new(r))
    }

    /// The best (smallest) decision round in the census.
    #[must_use]
    pub fn best(&self) -> Option<Round> {
        self.counts.keys().next().map(|&r| Round::new(r))
    }

    /// Number of distinct decision rounds observed.
    #[must_use]
    pub fn spread(&self) -> usize {
        self.counts.len()
    }
}

/// Runs `factory` under every serial schedule (the incremental
/// prefix-sharing engine) and tallies the global-decision rounds.
///
/// # Errors
///
/// Returns [`CheckError`] on a consensus violation or undecided run; its
/// witness is the first such schedule in serial enumeration order.
pub fn decision_round_census<F>(
    factory: &F,
    config: SystemConfig,
    kind: ModelKind,
    proposals: &[Value],
    crash_horizon: u32,
    run_horizon: u32,
) -> Result<Census, CheckError>
where
    F: ProcessFactory,
{
    let mut census = Census { counts: BTreeMap::new(), runs: 0 };
    let flow = for_each_serial_run(
        factory,
        proposals,
        config,
        kind,
        crash_horizon,
        run_horizon,
        |schedule, outcome| match checked_decision_round(schedule, outcome) {
            Ok(round) => {
                *census.counts.entry(round.get()).or_default() += 1;
                census.runs += 1;
                ControlFlow::Continue(())
            }
            Err(error) => ControlFlow::Break(error),
        },
    )?;
    match flow {
        ControlFlow::Continue(()) => Ok(census),
        ControlFlow::Break(error) => Err(error),
    }
}

/// Samples `samples` random synchronous runs (up to `t` crashes each) and
/// reports the worst global-decision round found, verifying consensus in
/// every sampled run.
///
/// A sampling fallback for systems too large to enumerate; the returned
/// schedule witnesses the worst round found (not necessarily the true
/// worst case).
///
/// # Errors
///
/// Returns [`CheckError`] on the first consensus violation or undecided
/// run.
pub fn randomized_worst_case<F>(
    factory: &F,
    config: SystemConfig,
    proposals: &[Value],
    samples: u64,
    run_horizon: u32,
    seed: u64,
) -> Result<(Round, Schedule), CheckError>
where
    F: ProcessFactory,
{
    let mut worst: Option<(Round, Schedule)> = None;
    for i in 0..samples {
        let crashes = (i % (config.t() as u64 + 1)) as usize;
        let schedule = random_run(
            config,
            ModelKind::Es,
            RandomRunParams::synchronous(crashes, config.t() as u32 + 2),
            run_horizon,
            seed.wrapping_mul(0x9e37_79b9).wrapping_add(i),
        );
        let outcome = run_schedule(factory, proposals, &schedule, run_horizon)?;
        let round = checked_decision_round(&schedule, &outcome)?;
        if worst.as_ref().is_none_or(|(w, _)| round > *w) {
            worst = Some((round, schedule));
        }
    }
    Ok(worst.expect("at least one sample"))
}

#[cfg(test)]
mod tests {
    use indulgent_consensus::{AtPlus2, CoordinatorEcho, RotatingCoordinator};
    use indulgent_model::ProcessId;

    use super::*;

    fn proposals(n: usize) -> Vec<Value> {
        (0..n).map(|i| Value::new((((i + n / 2) % n) as u64) * 2 + 1)).collect()
    }

    #[test]
    fn at_plus2_census_is_a_single_bar_at_t_plus_2() {
        let config = SystemConfig::majority(4, 1).unwrap();
        let factory = move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
        };
        let census =
            decision_round_census(&factory, config, ModelKind::Es, &proposals(4), 3, 30).unwrap();
        assert_eq!(census.spread(), 1);
        assert_eq!(census.worst(), Some(Round::new(3))); // t + 2
        assert_eq!(census.runs, 97);
        assert_eq!(census.counts[&3], 97);
    }

    #[test]
    fn coordinator_echo_census_spreads_to_2t_plus_2() {
        let config = SystemConfig::majority(3, 1).unwrap();
        let factory = move |i: usize, v: Value| CoordinatorEcho::new(config, ProcessId::new(i), v);
        let census =
            decision_round_census(&factory, config, ModelKind::Es, &proposals(3), 4, 30).unwrap();
        assert_eq!(census.best(), Some(Round::new(2)));
        assert_eq!(census.worst(), Some(Round::new(4))); // 2t + 2
        assert!(census.spread() >= 2);
    }

    #[test]
    fn randomized_search_finds_t_plus_2_for_larger_systems() {
        // n = 9, t = 4: far beyond exhaustive reach, but sampling confirms
        // the t + 2 behaviour and consensus safety across samples.
        let config = SystemConfig::majority(9, 4).unwrap();
        let factory = move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
        };
        let (round, schedule) =
            randomized_worst_case(&factory, config, &proposals(9), 300, 40, 11).unwrap();
        assert_eq!(round, Round::new(6)); // t + 2
        assert!(schedule.is_synchronous());
    }
}
