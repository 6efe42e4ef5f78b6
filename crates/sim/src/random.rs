//! Seeded random adversaries.
//!
//! These generators produce *legal* schedules (they are validated before
//! being returned) with randomized crash patterns and, for ES runs, a
//! randomized asynchronous prefix with message delays causing false
//! suspicions. All generators are deterministic functions of their seed.

use std::collections::BTreeMap;

use indulgent_model::{ProcessId, Round, SplitMix64, SystemConfig};

use crate::schedule::{MessageFate, ModelKind, Schedule};

/// Parameters for [`random_run`].
#[derive(Debug, Clone, Copy)]
pub struct RandomRunParams {
    /// Number of crashes to schedule (must be `<= t`).
    pub crashes: usize,
    /// Latest round in which a crash may be scheduled.
    pub crash_window: u32,
    /// The eventual-synchrony round `K`. `1` produces a synchronous run.
    pub sync_from: u32,
    /// Probability that a crash-round message copy is lost (vs delivered).
    pub crash_loss_probability: f64,
    /// Probability that a message copy in the asynchronous prefix is
    /// delayed, budget permitting.
    pub delay_probability: f64,
}

impl RandomRunParams {
    /// Parameters for a random *synchronous* run with `crashes` crashes in
    /// rounds `1..=crash_window`.
    #[must_use]
    pub fn synchronous(crashes: usize, crash_window: u32) -> Self {
        RandomRunParams {
            crashes,
            crash_window,
            sync_from: 1,
            crash_loss_probability: 0.5,
            delay_probability: 0.0,
        }
    }

    /// Parameters for a run that is asynchronous until round `sync_from`.
    #[must_use]
    pub fn eventually_synchronous(crashes: usize, crash_window: u32, sync_from: u32) -> Self {
        RandomRunParams {
            crashes,
            crash_window,
            sync_from,
            crash_loss_probability: 0.5,
            delay_probability: 0.35,
        }
    }
}

/// Generates a random legal schedule.
///
/// The schedule crashes `params.crashes` distinct processes at uniformly
/// random rounds within the crash window, losing each crash-round message
/// copy with `crash_loss_probability`. In ES runs with `sync_from > 1`,
/// messages in rounds before `K` are additionally delayed with
/// `delay_probability`, respecting the model's t-resilience constraint
/// (a receiver never loses more current messages than the quorum allows).
///
/// # Panics
///
/// Panics if `params.crashes > config.t()` or the produced schedule fails
/// validation (which would be a bug in this generator).
#[must_use]
pub fn random_run(
    config: SystemConfig,
    kind: ModelKind,
    params: RandomRunParams,
    horizon: u32,
    seed: u64,
) -> Schedule {
    assert!(params.crashes <= config.t(), "cannot schedule more than t crashes");
    let mut rng = SplitMix64::new(seed);
    let n = config.n();

    // Pick distinct crash victims and rounds.
    let mut ids: Vec<ProcessId> = config.processes().collect();
    rng.shuffle(&mut ids);
    let mut crash_rounds: Vec<Option<Round>> = vec![None; n];
    for victim in ids.iter().take(params.crashes) {
        let r = 1 + rng.below(u64::from(params.crash_window.max(1))) as u32;
        crash_rounds[victim.index()] = Some(Round::new(r));
    }

    let mut overrides: BTreeMap<(u32, usize, usize), MessageFate> = BTreeMap::new();

    let alive_entering =
        |crash_rounds: &Vec<Option<Round>>, p: ProcessId, k: u32| match crash_rounds[p.index()] {
            None => true,
            Some(r) => r.get() >= k,
        };

    // Crash-round fates.
    for sender in config.processes() {
        if let Some(cr) = crash_rounds[sender.index()] {
            for receiver in config.processes() {
                if receiver == sender || !alive_entering(&crash_rounds, receiver, cr.get()) {
                    continue;
                }
                if rng.chance(params.crash_loss_probability) {
                    overrides
                        .insert((cr.get(), sender.index(), receiver.index()), MessageFate::Lose);
                }
            }
        }
    }

    // Asynchronous-prefix delays (rounds 1..sync_from).
    if kind == ModelKind::Es && params.sync_from > 1 && params.delay_probability > 0.0 {
        for k in 1..params.sync_from.min(horizon + 1) {
            for receiver in config.processes() {
                // Receivers that do not complete round k need no budget.
                let completes = match crash_rounds[receiver.index()] {
                    None => true,
                    Some(r) => r.get() > k,
                };
                if !completes {
                    continue;
                }
                // Count current deliveries so far (crash fates applied).
                let delivered: Vec<ProcessId> = config
                    .processes()
                    .filter(|&s| {
                        alive_entering(&crash_rounds, s, k)
                            && !overrides.contains_key(&(k, s.index(), receiver.index()))
                    })
                    .collect();
                let budget = delivered.len().saturating_sub(config.quorum());
                let mut delayed = 0usize;
                for s in delivered {
                    if s == receiver || delayed >= budget {
                        continue;
                    }
                    // A sender crashing in round k already has its fate
                    // decided by the crash plan.
                    if crash_rounds[s.index()].map(Round::get) == Some(k) {
                        continue;
                    }
                    if rng.chance(params.delay_probability) {
                        let arrival = k + 1 + rng.below(u64::from(params.sync_from - k)) as u32;
                        overrides.insert(
                            (k, s.index(), receiver.index()),
                            MessageFate::Delay(Round::new(arrival)),
                        );
                        delayed += 1;
                    }
                }
            }
        }
    }

    let schedule = Schedule::from_parts(
        config,
        kind,
        crash_rounds,
        overrides,
        Round::new(params.sync_from.max(1)),
    );
    schedule.validate(horizon).expect("random generator must produce legal schedules");
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::majority(7, 3).unwrap()
    }

    #[test]
    fn synchronous_runs_are_synchronous_and_legal() {
        for seed in 0..50 {
            let s = random_run(cfg(), ModelKind::Es, RandomRunParams::synchronous(3, 5), 10, seed);
            assert!(s.is_synchronous());
            assert_eq!(s.crash_count(), 3);
            assert!(s.validate(10).is_ok());
        }
    }

    #[test]
    fn es_runs_validate_and_respect_k() {
        for seed in 0..50 {
            let s = random_run(
                cfg(),
                ModelKind::Es,
                RandomRunParams::eventually_synchronous(2, 6, 5),
                12,
                seed,
            );
            assert_eq!(s.sync_from(), Round::new(5));
            assert!(s.validate(12).is_ok());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = random_run(
            cfg(),
            ModelKind::Es,
            RandomRunParams::eventually_synchronous(2, 4, 4),
            8,
            7,
        );
        let b = random_run(
            cfg(),
            ModelKind::Es,
            RandomRunParams::eventually_synchronous(2, 4, 4),
            8,
            7,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn zero_crashes_allowed() {
        let s = random_run(cfg(), ModelKind::Es, RandomRunParams::synchronous(0, 1), 5, 3);
        assert_eq!(s.crash_count(), 0);
    }

    #[test]
    #[should_panic(expected = "more than t")]
    fn too_many_crashes_panics() {
        let _ = random_run(cfg(), ModelKind::Es, RandomRunParams::synchronous(4, 5), 10, 0);
    }

    #[test]
    fn seeded_streams_are_pinned() {
        // The schedules of seeds 0..20, folded into one fingerprint per
        // model: a generator that changes a single draw fails here.
        let pin = |kind, params| {
            (0..20).fold(0u64, |h, seed| {
                h.rotate_left(7) ^ random_run(cfg(), kind, params, 10, seed).fingerprint()
            })
        };
        let es = RandomRunParams::eventually_synchronous(2, 4, 5);
        assert_eq!(pin(ModelKind::Es, es), 0x6078_6430_a0f7_f746);
        assert_eq!(pin(ModelKind::Scs, RandomRunParams::synchronous(3, 4)), 0x4dc7_c0c0_4b62_6a6c);
    }

    #[test]
    fn scs_runs_have_no_delays() {
        for seed in 0..20 {
            let s = random_run(cfg(), ModelKind::Scs, RandomRunParams::synchronous(2, 3), 8, seed);
            assert!(s.overrides().all(|(_, _, _, f)| !matches!(f, MessageFate::Delay(_))));
            assert!(s.validate(8).is_ok());
        }
    }
}
