//! Work-unit partitioning of the serial-schedule space.
//!
//! The serial enumeration of [`serial`](crate::serial) visits a tree of
//! schedules. Splitting that tree at its *first crash* — the earliest
//! round in which a crash is scheduled, together with the crashing process
//! and the subset of receivers that still get its last message — yields
//! independent work units:
//!
//! * one unit holding exactly the bare prefix (no further crashes), and
//! * one unit per `(round, victim, keep-subset)` choice of the first
//!   additional crash, covering every schedule whose earliest additional
//!   crash is exactly that choice.
//!
//! The units are **disjoint** (a serial schedule has at most one crash per
//! round, so its earliest crash is unique) and their union is exactly the
//! set of schedules [`for_each_serial_schedule`] visits. Concatenating the
//! units' enumerations in the order [`work_units`] returns them reproduces
//! the serial visit order *exactly* — the property the deterministic
//! merge of the parallel sweep (one incremental fork-on-branch DFS per
//! unit, [`incremental`](crate::incremental), on the pool of
//! [`parallel`](crate::parallel)) relies on, and one the partition tests
//! assert.
//!
//! [`for_each_serial_schedule`]: crate::for_each_serial_schedule

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use indulgent_model::{ProcessId, Round, SystemConfig};

use crate::schedule::{MessageFate, ModelKind, Schedule};
use crate::serial::for_each_serial_extension;

/// One independent slice of a serial-schedule space: all serial extensions
/// of `prefix` whose additional crashes lie in `from_round..=horizon`.
///
/// Build units with [`work_units`] or [`extension_work_units`]; enumerate
/// a unit's schedules with [`WorkUnit::for_each`].
#[derive(Debug, Clone)]
pub struct WorkUnit {
    prefix: Schedule,
    from_round: u32,
    horizon: u32,
}

impl WorkUnit {
    /// The unit's prefix schedule (its crashes and message fates are shared
    /// by every schedule in the unit).
    #[must_use]
    pub fn prefix(&self) -> &Schedule {
        &self.prefix
    }

    /// The first round in which this unit schedules additional crashes
    /// (`horizon + 1` for the bare-prefix unit, which contains exactly one
    /// schedule).
    #[must_use]
    pub fn from_round(&self) -> u32 {
        self.from_round
    }

    /// Enumerates the unit's schedules in serial order, invoking `visit`
    /// on each; `ControlFlow::Break` aborts.
    pub fn for_each<F>(&self, visit: F) -> ControlFlow<()>
    where
        F: FnMut(&Schedule) -> ControlFlow<()>,
    {
        for_each_serial_extension(&self.prefix, self.from_round, self.horizon, visit)
    }

    /// Counts the schedules in this unit.
    #[must_use]
    pub fn count(&self) -> u64 {
        let mut count = 0;
        let _ = self.for_each(|_| {
            count += 1;
            ControlFlow::Continue(())
        });
        count
    }
}

/// Partitions the full serial-schedule space of `config` over rounds
/// `1..=horizon` into independent work units by first crash.
///
/// Concatenating the units' enumerations in the returned order yields
/// exactly the schedule sequence of
/// [`for_each_serial_schedule`](crate::for_each_serial_schedule).
#[must_use]
pub fn work_units(config: SystemConfig, kind: ModelKind, horizon: u32) -> Vec<WorkUnit> {
    extension_work_units(&Schedule::failure_free(config, kind), 1, horizon)
}

/// Partitions the serial extensions of `prefix` (additional crashes in
/// `from_round..=horizon`) into independent work units by first additional
/// crash.
///
/// Concatenating the units' enumerations in the returned order yields
/// exactly the schedule sequence of
/// [`for_each_serial_extension`] over the same arguments.
///
/// # Panics
///
/// Panics if `prefix` schedules a crash at or after `from_round` (same
/// contract as the serial extension enumerator).
#[must_use]
pub fn extension_work_units(prefix: &Schedule, from_round: u32, horizon: u32) -> Vec<WorkUnit> {
    let config = prefix.config();
    assert!(
        config.processes().filter_map(|p| prefix.crash_round(p)).all(|r| r.get() < from_round),
        "prefix crashes must be confined to rounds before the extension"
    );

    // Serial visit order puts the bare prefix first (the all-"no crash"
    // recursion branch bottoms out before any crash is tried)...
    let mut units = vec![WorkUnit { prefix: prefix.clone(), from_round: horizon + 1, horizon }];
    if prefix.crash_count() >= config.t() {
        return units;
    }

    let alive: Vec<ProcessId> =
        config.processes().filter(|&p| prefix.crash_round(p).is_none()).collect();
    let base_crashes: Vec<Option<Round>> =
        config.processes().map(|p| prefix.crash_round(p)).collect();
    let base_overrides: BTreeMap<(u32, usize, usize), MessageFate> =
        prefix.overrides().map(|(r, s, d, f)| ((r.get(), s.index(), d.index()), f)).collect();

    // ... and then unwinds from the deepest round back to `from_round`, so
    // first-crash groups appear in *descending* round order, with victims
    // in ascending id order and keep-subsets in ascending mask order.
    for round in (from_round..=horizon).rev() {
        for &victim in &alive {
            let receivers: Vec<ProcessId> =
                alive.iter().copied().filter(|&q| q != victim).collect();
            for keep_mask in 0u32..(1 << receivers.len()) {
                let mut crash_rounds = base_crashes.clone();
                crash_rounds[victim.index()] = Some(Round::new(round));
                let mut overrides = base_overrides.clone();
                for (bit, &q) in receivers.iter().enumerate() {
                    if keep_mask & (1 << bit) == 0 {
                        overrides.insert((round, victim.index(), q.index()), MessageFate::Lose);
                    }
                }
                let unit_prefix = Schedule::from_parts(
                    config,
                    prefix.kind(),
                    crash_rounds,
                    overrides,
                    prefix.sync_from(),
                );
                units.push(WorkUnit { prefix: unit_prefix, from_round: round + 1, horizon });
            }
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::{count_serial_schedules, for_each_serial_schedule};

    #[test]
    fn units_cover_the_space_in_serial_order() {
        let cfg = SystemConfig::majority(5, 2).unwrap();
        let mut serial: Vec<Schedule> = Vec::new();
        let _ = for_each_serial_schedule(cfg, ModelKind::Es, 3, |s| {
            serial.push(s.clone());
            ControlFlow::Continue(())
        });
        let mut unioned: Vec<Schedule> = Vec::new();
        for unit in work_units(cfg, ModelKind::Es, 3) {
            let _ = unit.for_each(|s| {
                unioned.push(s.clone());
                ControlFlow::Continue(())
            });
        }
        assert_eq!(serial, unioned, "unit concatenation must equal the serial visit sequence");
    }

    #[test]
    fn unit_counts_sum_to_the_space_size() {
        let cfg = SystemConfig::majority(5, 2).unwrap();
        let units = work_units(cfg, ModelKind::Es, 3);
        let total: u64 = units.iter().map(WorkUnit::count).sum();
        assert_eq!(total, count_serial_schedules(cfg, 3));
    }

    #[test]
    fn exhausted_crash_budget_yields_only_the_bare_prefix() {
        use crate::builder::ScheduleBuilder;
        let cfg = SystemConfig::majority(3, 1).unwrap();
        let prefix = ScheduleBuilder::new(cfg, ModelKind::Es)
            .crash_before_send(ProcessId::new(0), Round::FIRST)
            .build(3)
            .unwrap();
        let units = extension_work_units(&prefix, 2, 3);
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].count(), 1);
    }

    #[test]
    fn unit_sizes_match_the_closed_form_for_one_crash() {
        // n=3, t=1, horizon=2: the bare unit (1 schedule) plus one unit per
        // (round, victim, mask): 2 rounds x 3 victims x 4 masks = 24 units
        // of one schedule each (the single crash exhausts the budget).
        let cfg = SystemConfig::majority(3, 1).unwrap();
        let units = work_units(cfg, ModelKind::Es, 2);
        assert_eq!(units.len(), 25);
        assert!(units.iter().all(|u| u.count() == 1));
    }

    #[test]
    #[should_panic(expected = "confined to rounds before")]
    fn conflicting_prefix_rejected() {
        use crate::builder::ScheduleBuilder;
        let cfg = SystemConfig::majority(4, 1).unwrap();
        let prefix = ScheduleBuilder::new(cfg, ModelKind::Es)
            .crash_after_send(ProcessId::new(0), Round::new(3))
            .build(4)
            .unwrap();
        let _ = extension_work_units(&prefix, 2, 4);
    }
}
