//! Valency computation: the lower-bound proof's machinery, made executable.
//!
//! The paper's Proposition 1 is proved with the bivalency technique: the
//! valency of a (serial, partial) run is the set of values still reachable
//! in its serial extensions. The proof shows (for a hypothetical algorithm
//! deciding by `t + 1` in synchronous runs) that a bivalent initial
//! configuration exists (Lemma 3), can be pushed to a bivalent
//! `(t-1)`-round partial run (Lemma 4) and then to a bivalent `t`-round run
//! (Lemma 5) — contradicting Lemma 2.
//!
//! For *concrete* algorithms and small systems we can compute valencies
//! exactly by enumerating all serial extensions. This lets experiments
//! exhibit the paper's objects: bivalent initial configurations of binary
//! consensus, the growth of univalent prefixes, and the round at which
//! every serial partial run becomes univalent (which for a `t + 2`-deciding
//! algorithm like `A_{t+2}` may stay bivalent through round `t`, exactly
//! the room the lower bound exploits).

use std::collections::BTreeSet;
use std::ops::ControlFlow;

use indulgent_model::{ProcessFactory, SystemConfig, Value};
use indulgent_sim::{
    for_each_serial_extension, for_each_serial_run_extension, ModelKind, Schedule,
};

/// The valency of a partial run of a *binary* consensus algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Valency {
    /// Every serial extension decides 0.
    Zero,
    /// Every serial extension decides 1.
    One,
    /// Both decisions are reachable.
    Bivalent,
}

impl Valency {
    /// Returns `true` for [`Valency::Bivalent`].
    #[must_use]
    pub fn is_bivalent(self) -> bool {
        matches!(self, Valency::Bivalent)
    }
}

/// Exploration parameters for valency computations.
#[derive(Debug, Clone, Copy)]
pub struct ValencyParams {
    /// Crashes are enumerated in rounds `from_round..=crash_horizon`.
    pub crash_horizon: u32,
    /// Each extension run executes at most this many rounds (must suffice
    /// for the algorithm to decide in every serial run).
    pub run_horizon: u32,
}

impl ValencyParams {
    /// Parameters sweeping crashes up to `crash_horizon` with runs capped
    /// at `run_horizon` rounds.
    #[must_use]
    pub fn new(crash_horizon: u32, run_horizon: u32) -> Self {
        ValencyParams { crash_horizon, run_horizon }
    }
}

/// The set of decision values reachable in serial extensions of
/// `(proposals, prefix)` with further crashes confined to
/// `from_round..=params.crash_horizon`.
///
/// Runs on the incremental prefix-sharing engine: the partial run
/// `(proposals, prefix)` is executed once and its snapshot forked across
/// the extension tree — exactly the object the paper's valency arguments
/// manipulate.
///
/// # Panics
///
/// Panics if `proposals` does not match the configuration size, or if
/// some serial extension fails to reach a decision within
/// `params.run_horizon` — valency is undefined for non-deciding runs, so
/// the caller must size the horizon to the algorithm.
#[must_use]
pub fn reachable_decisions<F>(
    factory: &F,
    proposals: &[Value],
    prefix: &Schedule,
    from_round: u32,
    params: ValencyParams,
) -> BTreeSet<Value>
where
    F: ProcessFactory,
{
    let mut decisions = BTreeSet::new();
    let _ = for_each_serial_run_extension(
        factory,
        proposals,
        prefix,
        from_round,
        params.crash_horizon,
        params.run_horizon,
        |schedule, outcome| {
            outcome
                .global_decision_round()
                .unwrap_or_else(|| panic!("serial extension did not decide: {schedule:?}"));
            let value = outcome
                .decisions
                .iter()
                .flatten()
                .next()
                .expect("decided run has a decision")
                .value;
            decisions.insert(value);
            ControlFlow::<()>::Continue(())
        },
    )
    .expect("one proposal per process required");
    decisions
}

/// Computes the valency of a partial run of a binary consensus algorithm.
///
/// # Panics
///
/// Panics if an extension decides a non-binary value or never decides.
#[must_use]
pub fn valency<F>(
    factory: &F,
    proposals: &[Value],
    prefix: &Schedule,
    from_round: u32,
    params: ValencyParams,
) -> Valency
where
    F: ProcessFactory,
{
    let decisions = reachable_decisions(factory, proposals, prefix, from_round, params);
    let zero = decisions.contains(&Value::ZERO);
    let one = decisions.contains(&Value::ONE);
    assert!(
        decisions.is_subset(&BTreeSet::from([Value::ZERO, Value::ONE])),
        "binary consensus decided outside {{0, 1}}: {decisions:?}"
    );
    match (zero, one) {
        (true, true) => Valency::Bivalent,
        (true, false) => Valency::Zero,
        (false, true) => Valency::One,
        (false, false) => unreachable!("reachable_decisions panics on undecided runs"),
    }
}

/// The valency of an *initial configuration* (no rounds fixed).
#[must_use]
pub fn initial_valency<F>(
    factory: &F,
    config: SystemConfig,
    kind: ModelKind,
    proposals: &[Value],
    params: ValencyParams,
) -> Valency
where
    F: ProcessFactory,
{
    let prefix = Schedule::failure_free(config, kind);
    valency(factory, proposals, &prefix, 1, params)
}

/// Searches the `2^n` binary initial configurations for a bivalent one —
/// the executable counterpart of the paper's Lemma 3.
///
/// Returns the proposal vector of the first bivalent configuration found,
/// or `None` if every initial configuration is univalent (which, by
/// Lemma 3, cannot happen for a correct consensus algorithm unless the
/// exploration parameters are too tight).
#[must_use]
pub fn find_bivalent_initial<F>(
    factory: &F,
    config: SystemConfig,
    kind: ModelKind,
    params: ValencyParams,
) -> Option<Vec<Value>>
where
    F: ProcessFactory,
{
    let n = config.n();
    for bits in 0u64..(1 << n) {
        let proposals: Vec<Value> = (0..n).map(|i| Value::binary(bits & (1 << i) != 0)).collect();
        if initial_valency(factory, config, kind, &proposals, params).is_bivalent() {
            return Some(proposals);
        }
    }
    None
}

/// Searches for a bivalent `rounds`-round serial partial run starting from
/// a bivalent initial configuration — the executable counterpart of the
/// paper's Lemma 4 (and, when it succeeds for `rounds = t`, of Lemma 5's
/// conclusion that such runs force decisions beyond round `t + 1`).
///
/// Returns the prefix schedule of the first bivalent `rounds`-round partial
/// run found for `proposals`, or `None` if all are univalent.
#[must_use]
pub fn find_bivalent_prefix<F>(
    factory: &F,
    proposals: &[Value],
    config: SystemConfig,
    kind: ModelKind,
    rounds: u32,
    params: ValencyParams,
) -> Option<Schedule>
where
    F: ProcessFactory,
{
    let empty = Schedule::failure_free(config, kind);
    let mut found: Option<Schedule> = None;
    // Enumerate `rounds`-round serial prefixes: crashes confined to
    // 1..=rounds; we reuse the extension enumerator with that horizon and
    // deduplicate by the prefix's crash content automatically (every
    // distinct schedule visited *is* a distinct prefix).
    let _ = for_each_serial_extension(&empty, 1, rounds, |prefix| {
        if valency(factory, proposals, prefix, rounds + 1, params).is_bivalent() {
            found = Some(prefix.clone());
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    });
    found
}

#[cfg(test)]
mod tests {
    use indulgent_consensus::{AtPlus2, RotatingCoordinator};
    use indulgent_model::ProcessId;

    use super::*;

    fn config() -> SystemConfig {
        SystemConfig::majority(3, 1).unwrap()
    }

    fn factory(
        config: SystemConfig,
    ) -> impl ProcessFactory<Process = AtPlus2<RotatingCoordinator>> {
        move |i: usize, v: Value| {
            let id = ProcessId::new(i);
            AtPlus2::new(config, id, v, RotatingCoordinator::new(config, id))
        }
    }

    fn params() -> ValencyParams {
        // Crashes up to round t + 2 = 3; serial runs decide by then.
        ValencyParams::new(3, 30)
    }

    #[test]
    fn unanimous_configurations_are_univalent() {
        let f = factory(config());
        let zeros = vec![Value::ZERO; 3];
        let ones = vec![Value::ONE; 3];
        assert_eq!(initial_valency(&f, config(), ModelKind::Es, &zeros, params()), Valency::Zero);
        assert_eq!(initial_valency(&f, config(), ModelKind::Es, &ones, params()), Valency::One);
    }

    #[test]
    fn mixed_configuration_with_minority_zero_is_bivalent() {
        // {1, 1, 0}: if the 0-proposer crashes before sending, serial runs
        // decide 1; failure-free runs decide 0 (the minimum). Bivalent —
        // the paper's Lemma 3 witness.
        let f = factory(config());
        let proposals = vec![Value::ONE, Value::ONE, Value::ZERO];
        assert_eq!(
            initial_valency(&f, config(), ModelKind::Es, &proposals, params()),
            Valency::Bivalent
        );
    }

    #[test]
    fn majority_zero_is_zero_valent_for_min_flooding() {
        // {0, 0, 1}: with t = 1 at most one 0-proposer can crash; the other
        // zero always floods, so every serial run decides 0.
        let f = factory(config());
        let proposals = vec![Value::ZERO, Value::ZERO, Value::ONE];
        assert_eq!(
            initial_valency(&f, config(), ModelKind::Es, &proposals, params()),
            Valency::Zero
        );
    }

    #[test]
    fn lemma3_finds_a_bivalent_initial_configuration() {
        let f = factory(config());
        let found = find_bivalent_initial(&f, config(), ModelKind::Es, params());
        assert!(found.is_some(), "Lemma 3: some initial configuration must be bivalent");
    }

    #[test]
    fn one_round_prefixes_univalent_when_t_is_one() {
        // With t = 1 the single allowed crash is spent inside a 1-round
        // prefix, so every serial extension is forced: all 1-round serial
        // partial runs of A_{t+2} are univalent (Lemma 4 only guarantees
        // bivalence through round t - 1 = 0, i.e. the initial config).
        let f = factory(config());
        let proposals = vec![Value::ONE, Value::ONE, Value::ZERO];
        let prefix = find_bivalent_prefix(&f, &proposals, config(), ModelKind::Es, 1, params());
        assert!(prefix.is_none(), "t = 1 admits no 1-round bivalent prefix: {prefix:?}");
    }

    #[test]
    fn bivalence_survives_to_round_t_minus_1_when_t_is_two() {
        // With t = 2 (n = 5), Lemma 4's guarantee is non-trivial: there is
        // a bivalent 1-round serial partial run (a first crash whose
        // message reached only part of the system, leaving both outcomes
        // reachable via the second crash).
        let cfg5 = SystemConfig::majority(5, 2).unwrap();
        let f = factory(cfg5);
        let proposals = vec![Value::ONE, Value::ONE, Value::ONE, Value::ONE, Value::ZERO];
        let p = ValencyParams::new(4, 40);
        let prefix = find_bivalent_prefix(&f, &proposals, cfg5, ModelKind::Es, 1, p);
        assert!(prefix.is_some(), "a bivalent 1-round prefix must exist for t = 2");
    }

    #[test]
    fn reachable_decisions_for_unanimity() {
        let f = factory(config());
        let prefix = Schedule::failure_free(config(), ModelKind::Es);
        let set = reachable_decisions(&f, &[Value::ONE; 3], &prefix, 1, params());
        assert_eq!(set, BTreeSet::from([Value::ONE]));
    }
}
