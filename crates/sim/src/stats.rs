//! Cheap engine counters: what the round executor actually did.
//!
//! The zero-allocation round engine ([`RunState`]) is
//! tuned around two fast paths — the shared-broadcast delivery and the
//! recycled fork snapshots — whose hit rates determine sweep throughput.
//! This module exposes a handful of global, process-wide counters the
//! engine bumps as it runs, so benches (`sweep_throughput` emits them into
//! `BENCH_sweep.json`) and ad-hoc diagnostics can see *why* a sweep is
//! fast or slow without attaching a profiler:
//!
//! * `rounds_stepped` — rounds executed by [`RunState::step`];
//! * `fast_path_rounds` — rounds taking the shared-broadcast fast path
//!   (one pooled [`Delivery`](indulgent_model::Delivery) handed to every
//!   receiver, zero payload clones);
//! * `deliveries_built` — deliveries materialized (1 per fast-path round,
//!   one per completing receiver otherwise);
//! * `messages_cloned` — message payload clones performed by the send
//!   phase (a fast-path round clones nothing: every payload moves);
//! * `forks` — [`RunState`] snapshots forked by the incremental
//!   fork-on-branch sweep ([`incremental`](crate::incremental)).
//!
//! The counters are [`indulgent_obs::Counter`]s — relaxed atomics whose
//! increments are a few nanoseconds, never synchronize, and never
//! allocate. The set also registers as the `sim_engine` [metric family]
//! (indulgent_obs::MetricFamily), so registry-wide dumps see the round
//! engine next to the server-side families. They monotonically increase
//! for the lifetime of the process; measure a region by
//! [`reset`](EngineCounters::reset)ting first or by diffing two
//! [`snapshot`](EngineCounters::snapshot)s. Resets race against
//! concurrently running sweeps, so only reset while no sweep is in flight.
//!
//! [`RunState`]: crate::RunState
//! [`RunState::step`]: crate::RunState::step

indulgent_obs::metric_family! {
    /// The process-wide engine counters. See the module docs for the meaning
    /// of each counter.
    pub struct EngineCounters = "sim_engine" {
        rounds_stepped,
        fast_path_rounds,
        deliveries_built,
        messages_cloned,
        forks,
    }
    /// The global counters of this process's round engine.
    #[must_use]
    pub fn engine_counters();
}

/// A point-in-time copy of the [`EngineCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineSnapshot {
    /// Rounds executed by the stepper.
    pub rounds_stepped: u64,
    /// Rounds that took the shared-broadcast fast path.
    pub fast_path_rounds: u64,
    /// Deliveries materialized by receive phases.
    pub deliveries_built: u64,
    /// Message payload clones performed by send phases.
    pub messages_cloned: u64,
    /// Snapshots forked by the incremental sweep engine.
    pub forks: u64,
}

impl EngineCounters {
    /// Copies the current counter values.
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            rounds_stepped: self.rounds_stepped.get(),
            fast_path_rounds: self.fast_path_rounds.get(),
            deliveries_built: self.deliveries_built.get(),
            messages_cloned: self.messages_cloned.get(),
            forks: self.forks.get(),
        }
    }

    /// Zeroes every counter. Only meaningful while no sweep is running.
    pub fn reset(&self) {
        self.rounds_stepped.reset();
        self.fast_path_rounds.reset();
        self.deliveries_built.reset();
        self.messages_cloned.reset();
        self.forks.reset();
    }

    /// Flushes one executed round's tallies (called once per
    /// `step_observed`, so the per-message hot loops stay atomics-free).
    pub(crate) fn record_round(&self, fast_path: bool, deliveries: u64, cloned: u64) {
        self.rounds_stepped.incr();
        if fast_path {
            self.fast_path_rounds.incr();
        }
        self.deliveries_built.add(deliveries);
        if cloned != 0 {
            self.messages_cloned.add(cloned);
        }
    }

    /// Records one snapshot fork of the incremental sweep.
    pub(crate) fn record_fork(&self) {
        self.forks.incr();
    }
}

impl EngineSnapshot {
    /// The difference `self - earlier`, counter by counter (saturating, in
    /// case a reset happened in between).
    #[must_use]
    pub fn since(&self, earlier: &EngineSnapshot) -> EngineSnapshot {
        EngineSnapshot {
            rounds_stepped: self.rounds_stepped.saturating_sub(earlier.rounds_stepped),
            fast_path_rounds: self.fast_path_rounds.saturating_sub(earlier.fast_path_rounds),
            deliveries_built: self.deliveries_built.saturating_sub(earlier.deliveries_built),
            messages_cloned: self.messages_cloned.saturating_sub(earlier.messages_cloned),
            forks: self.forks.saturating_sub(earlier.forks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_is_per_counter() {
        let a = EngineSnapshot {
            rounds_stepped: 10,
            fast_path_rounds: 4,
            deliveries_built: 20,
            messages_cloned: 7,
            forks: 3,
        };
        let b = EngineSnapshot {
            rounds_stepped: 25,
            fast_path_rounds: 9,
            deliveries_built: 41,
            messages_cloned: 7,
            forks: 5,
        };
        let d = b.since(&a);
        assert_eq!(d.rounds_stepped, 15);
        assert_eq!(d.fast_path_rounds, 5);
        assert_eq!(d.deliveries_built, 21);
        assert_eq!(d.messages_cloned, 0);
        assert_eq!(d.forks, 2);
    }

    #[test]
    fn recording_accumulates() {
        // The counters are global and other tests step executors
        // concurrently, so assert on deltas of what we add here.
        let before = engine_counters().snapshot();
        engine_counters().record_round(true, 1, 0);
        engine_counters().record_round(false, 5, 12);
        engine_counters().record_fork();
        let d = engine_counters().snapshot().since(&before);
        assert!(d.rounds_stepped >= 2);
        assert!(d.fast_path_rounds >= 1);
        assert!(d.deliveries_built >= 6);
        assert!(d.messages_cloned >= 12);
        assert!(d.forks >= 1);
    }

    #[test]
    fn counters_register_as_the_sim_engine_family() {
        engine_counters().record_round(true, 1, 0);
        let rounds = indulgent_obs::counter_value("sim_engine", "rounds_stepped");
        assert!(rounds >= Some(1), "engine_counters() registers the sim_engine family");
    }
}
