//! Exhaustive enumeration of *serial* runs.
//!
//! The paper's lower-bound proof works with serial runs: synchronous runs in
//! which at most one process crashes per round. For small systems the space
//! of serial runs is finite and enumerable — a crash schedule chooses, for
//! each round, either no crash or a crashing process together with the
//! subset of (alive) receivers that still get its last message, all other
//! copies being lost.
//!
//! [`for_each_serial_schedule`] enumerates exactly that space; the checker
//! crate layers decision-round searches and valency computations on top.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use indulgent_model::{ProcessId, Round, SystemConfig};

use crate::schedule::{MessageFate, ModelKind, Schedule};

/// Enumerates every serial schedule of `config` over rounds `1..=horizon`,
/// invoking `visit` on each. Returning [`ControlFlow::Break`] from the
/// visitor aborts the enumeration.
///
/// A serial schedule crashes at most one process per round and at most
/// `config.t()` processes overall. The crashing process's round message is
/// delivered to an arbitrary subset of the processes alive in that round and
/// lost to the rest (an empty subset is a crash before sending; the full
/// subset is a crash just after sending). All other messages are delivered
/// in the round they are sent, so every enumerated schedule is a legal
/// *synchronous* run of both SCS and ES.
///
/// The number of schedules grows as `O((n · 2^(n-1) · horizon)^t)`. This
/// enumerator handles `n ≤ 6, t ≤ 2` comfortably. When every visited
/// schedule is also *executed*, use the incremental engine in
/// [`incremental`](crate::incremental): it fuses this enumeration with
/// execution, running each shared schedule prefix once instead of once
/// per schedule, which reaches `n = 7, t = 2` (roughly half a million
/// schedules).
pub fn for_each_serial_schedule<F>(
    config: SystemConfig,
    kind: ModelKind,
    horizon: u32,
    mut visit: F,
) -> ControlFlow<()>
where
    F: FnMut(&Schedule) -> ControlFlow<()>,
{
    let mut crash_rounds: Vec<Option<Round>> = vec![None; config.n()];
    let mut overrides: BTreeMap<(u32, usize, usize), MessageFate> = BTreeMap::new();
    recurse(
        config,
        kind,
        Round::FIRST,
        horizon,
        1,
        0,
        &mut crash_rounds,
        &mut overrides,
        &mut visit,
    )
}

/// Enumerates every serial extension of `prefix` whose additional crashes
/// happen in rounds `from_round..=horizon`, invoking `visit` on each.
///
/// `prefix` must itself be a serial schedule with crashes confined to
/// rounds `< from_round`; the enumeration preserves its crashes, message
/// fates and synchrony round `K` and adds at most one crash per round
/// beyond, up to the resilience bound. This is the workhorse of the checker's valency computations: a
/// *partial run* in the paper's sense is `(proposals, prefix, from_round)`,
/// and its extensions are exactly what this function enumerates.
///
/// # Panics
///
/// Panics if `prefix` schedules a crash at or after `from_round` (such a
/// crash would conflict with the enumeration's choices).
pub fn for_each_serial_extension<F>(
    prefix: &Schedule,
    from_round: u32,
    horizon: u32,
    mut visit: F,
) -> ControlFlow<()>
where
    F: FnMut(&Schedule) -> ControlFlow<()>,
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
    recurse(
        config,
        prefix.kind(),
        prefix.sync_from(),
        horizon,
        from_round,
        crashes,
        &mut crash_rounds,
        &mut overrides,
        &mut visit,
    )
}

/// Counts the serial schedules of `config` over rounds `1..=horizon`.
#[must_use]
pub fn count_serial_schedules(config: SystemConfig, horizon: u32) -> u64 {
    let mut count = 0u64;
    let _ = for_each_serial_schedule(config, ModelKind::Es, horizon, |_| {
        count += 1;
        ControlFlow::Continue(())
    });
    count
}

#[allow(clippy::too_many_arguments)]
fn recurse<F>(
    config: SystemConfig,
    kind: ModelKind,
    sync_from: Round,
    horizon: u32,
    round: u32,
    crashes: usize,
    crash_rounds: &mut Vec<Option<Round>>,
    overrides: &mut BTreeMap<(u32, usize, usize), MessageFate>,
    visit: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&Schedule) -> ControlFlow<()>,
{
    if round > horizon {
        let schedule =
            Schedule::from_parts(config, kind, crash_rounds.clone(), overrides.clone(), sync_from);
        return visit(&schedule);
    }

    // Option 1: no crash this round.
    recurse(config, kind, sync_from, horizon, round + 1, crashes, crash_rounds, overrides, visit)?;

    if crashes >= config.t() {
        return ControlFlow::Continue(());
    }

    // Option 2: crash one alive process, choosing the receiver subset that
    // still gets its message among the processes alive entering this round.
    let alive: Vec<ProcessId> = config
        .processes()
        .filter(|p| match crash_rounds[p.index()] {
            None => true,
            Some(r) => r.get() >= round,
        })
        .collect();
    for &victim in &alive {
        let receivers: Vec<ProcessId> = alive.iter().copied().filter(|&q| q != victim).collect();
        let m = receivers.len();
        for keep_mask in 0u32..(1 << m) {
            crash_rounds[victim.index()] = Some(Round::new(round));
            for (bit, &q) in receivers.iter().enumerate() {
                if keep_mask & (1 << bit) == 0 {
                    overrides.insert((round, victim.index(), q.index()), MessageFate::Lose);
                }
            }
            recurse(
                config,
                kind,
                sync_from,
                horizon,
                round + 1,
                crashes + 1,
                crash_rounds,
                overrides,
                visit,
            )?;
            // Undo.
            crash_rounds[victim.index()] = None;
            for &q in &receivers {
                overrides.remove(&(round, victim.index(), q.index()));
            }
        }
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_matches_closed_form_for_one_crash() {
        // n=3, t=1, horizon=2: either no crash (1), or one crash in one of
        // 2 rounds. Round 1: 3 victims x 2^2 subsets = 12. Round 2 likewise
        // 12. Total 25.
        let cfg = SystemConfig::majority(3, 1).unwrap();
        assert_eq!(count_serial_schedules(cfg, 2), 25);
    }

    #[test]
    fn all_schedules_are_valid_synchronous_runs() {
        let cfg = SystemConfig::majority(4, 1).unwrap();
        let mut total = 0;
        let _ = for_each_serial_schedule(cfg, ModelKind::Es, 3, |s| {
            assert!(s.validate(3).is_ok(), "serial schedule must be legal: {s:?}");
            assert!(s.is_synchronous());
            assert!(s.crash_count() <= 1);
            total += 1;
            ControlFlow::Continue(())
        });
        assert!(total > 0);
    }

    #[test]
    fn at_most_one_crash_per_round() {
        let cfg = SystemConfig::majority(5, 2).unwrap();
        let _ = for_each_serial_schedule(cfg, ModelKind::Es, 3, |s| {
            for k in 1..=3u32 {
                let crashes_in_k =
                    cfg.processes().filter(|&p| s.crash_round(p) == Some(Round::new(k))).count();
                assert!(crashes_in_k <= 1);
            }
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn break_aborts_enumeration() {
        let cfg = SystemConfig::majority(5, 2).unwrap();
        let mut seen = 0;
        let flow = for_each_serial_schedule(cfg, ModelKind::Es, 4, |_| {
            seen += 1;
            if seen == 10 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(flow, ControlFlow::Break(()));
        assert_eq!(seen, 10);
    }

    #[test]
    fn extensions_preserve_prefix() {
        use crate::builder::ScheduleBuilder;
        let cfg = SystemConfig::majority(4, 1).unwrap();
        // Prefix: p0 crashes in round 1 losing everything. With t = 1 no
        // further crash is possible: all extensions equal the prefix runs.
        let prefix = ScheduleBuilder::new(cfg, ModelKind::Es)
            .crash_before_send(ProcessId::new(0), Round::FIRST)
            .build(3)
            .unwrap();
        let mut count = 0;
        let _ = for_each_serial_extension(&prefix, 2, 3, |s| {
            assert_eq!(s.crash_round(ProcessId::new(0)), Some(Round::FIRST));
            assert_eq!(s.crash_count(), 1);
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn extensions_add_serial_crashes() {
        let cfg = SystemConfig::majority(5, 2).unwrap();
        let prefix = Schedule::failure_free(cfg, ModelKind::Es);
        let mut max_crashes = 0;
        let mut count = 0u64;
        let _ = for_each_serial_extension(&prefix, 2, 3, |s| {
            assert!(s.validate(3).is_ok());
            assert!(s.crash_round(ProcessId::new(0)).is_none_or(|r| r.get() >= 2));
            max_crashes = max_crashes.max(s.crash_count());
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(max_crashes, 2);
        // Rounds 2 and 3, each optionally one crash: 1 + 80 + 80 + 80*4*8.
        assert_eq!(count, 1 + 80 + 80 + 80 * 32);
    }

    #[test]
    #[should_panic(expected = "confined to rounds before")]
    fn extension_rejects_conflicting_prefix() {
        use crate::builder::ScheduleBuilder;
        let cfg = SystemConfig::majority(4, 1).unwrap();
        let prefix = ScheduleBuilder::new(cfg, ModelKind::Es)
            .crash_after_send(ProcessId::new(0), Round::new(3))
            .build(4)
            .unwrap();
        let _ = for_each_serial_extension(&prefix, 2, 4, |_| ControlFlow::Continue(()));
    }

    #[test]
    fn scs_schedules_also_valid() {
        let cfg = SystemConfig::synchronous(3, 1).unwrap();
        let _ = for_each_serial_schedule(cfg, ModelKind::Scs, 2, |s| {
            assert!(s.validate(2).is_ok());
            ControlFlow::Continue(())
        });
    }
}
