//! The worker pool behind every parallel sweep.
//!
//! Exhaustive serial-run sweeps are embarrassingly parallel: the schedule
//! space partitions into independent work units by first crash
//! ([`batch`](crate::batch)), each unit can be swept without coordination,
//! and per-unit partial results merge associatively. This module provides
//! the pool that exploits that structure:
//!
//! * [`SweepBackend`] selects serial or parallel execution (and the thread
//!   count); every exhaustive sweep takes it as an explicit argument.
//! * `pooled_fold` distributes work items over scoped worker threads that
//!   claim item indices from one shared counter, with early-abort
//!   propagation, and merges the per-item partial accumulators **in item
//!   order** — which equals serial visit order — so the result is
//!   bit-identical regardless of thread count. The incremental engine's
//!   [`sweep_runs`](crate::sweep_runs) runs one fork-on-branch DFS per
//!   work unit on it; [`pooled_map_indexed`] exposes it for structureless
//!   index/seed fan-outs.
//!
//! The engine counters ([`stats`](crate::stats)) are process-wide relaxed
//! atomics, so a pooled sweep's workers aggregate into the same tallies a
//! serial sweep writes — `rounds_stepped`, fast-path hits, forks and
//! clone counts are totals across every worker thread.
//!
//! # Determinism
//!
//! For a sweep that completes without error, the merged accumulator equals
//! the serial fold exactly, for any thread count, provided `merge` is
//! associative and agrees with `step` (for every pair of sub-sequences `a`
//! then `b` of the visit order, folding `a ++ b` equals
//! `merge(fold(a), fold(b))`). All the folds in this workspace (counts,
//! histograms, min/max with first-witness tie-breaking on the left) have
//! this property. When `step` fails, every backend reports an error
//! produced by `step` on some schedule; the parallel pool aborts
//! outstanding work early, so *which* failing schedule is reported may
//! differ from the serial backend's (it is the first failure within the
//! lowest-indexed failing unit among those processed).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Execution strategy for exhaustive schedule sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepBackend {
    /// Single-threaded, in-order sweep (the reference semantics and the
    /// default).
    #[default]
    Serial,
    /// Fan the work units out over this many pooled worker threads.
    Parallel(NonZeroUsize),
}

impl SweepBackend {
    /// A parallel backend with `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn parallel(threads: usize) -> Self {
        SweepBackend::Parallel(NonZeroUsize::new(threads.max(1)).expect("clamped to >= 1"))
    }

    /// The number of worker threads this backend uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        match self {
            SweepBackend::Serial => 1,
            SweepBackend::Parallel(n) => n.get(),
        }
    }
}

/// What a worker reports for one work item.
pub(crate) enum UnitResult<Acc, E> {
    /// The item was swept completely.
    Complete(Acc),
    /// `step` failed on a schedule in this item (the first one, in visit
    /// order).
    Failed(E),
    /// The sweep was aborted mid-item (another worker failed); the partial
    /// accumulator is discarded.
    Aborted,
}

/// The shared worker pool behind every parallel fan-out: distributes
/// `items` over `threads` scoped workers, processes each with
/// `sweep_item` (which should poll `abort` and report
/// [`UnitResult::Aborted`] when it fires), and merges completed
/// accumulators **in item order** — the property that makes parallel
/// folds bit-identical to serial ones. The incremental fork-on-branch
/// sweeps ([`incremental`](crate::incremental)) and the seeded index maps
/// ([`pooled_map_indexed`]) both run on this pool.
///
/// A panicking `sweep_item` sets the abort flag (stopping the other
/// workers) and its own panic payload is resumed once every worker has
/// stopped.
pub(crate) fn pooled_fold<T, Acc, E, U, I, M>(
    items: &[T],
    threads: NonZeroUsize,
    sweep_item: &U,
    init: &I,
    merge: M,
) -> Result<Acc, E>
where
    T: Sync,
    Acc: Send,
    E: Send,
    U: Fn(&T, &AtomicBool) -> UnitResult<Acc, E> + Sync,
    I: Fn() -> Acc,
    M: Fn(Acc, Acc) -> Acc,
{
    let workers = threads.get().min(items.len()).max(1);
    let abort = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        while !abort.load(Ordering::Relaxed) {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(idx) else { break };
            let outcome = {
                let _panic_guard = AbortOnPanic(&abort);
                sweep_item(item, &abort)
            };
            if matches!(outcome, UnitResult::Failed(_)) {
                abort.store(true, Ordering::Relaxed);
            }
            done.push((idx, outcome));
        }
        done
    };

    let mut partials = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        let mut partials = Vec::new();
        for handle in handles {
            match handle.join() {
                Ok(done) => partials.extend(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        partials
    });
    partials.sort_by_key(|(idx, _)| *idx);
    let mut merged: Option<Acc> = None;
    for (_, outcome) in partials {
        match outcome {
            UnitResult::Complete(acc) => {
                merged = Some(match merged {
                    None => acc,
                    Some(m) => merge(m, acc),
                });
            }
            // In item order, so the first failure met is the lowest-indexed.
            UnitResult::Failed(e) => return Err(e),
            UnitResult::Aborted => {}
        }
    }
    Ok(merged.unwrap_or_else(init))
}

/// Maps `f` over the index range `0..count` on `backend`'s worker pool,
/// returning the results **in index order** regardless of thread count.
///
/// This is the engine's escape hatch for workloads without serial-tree
/// structure to share — the seeded random-adversary experiments
/// (`exp_early_decision`, `exp_eventual_decision`, `exp_asynchrony` and
/// friends) map independent seeds through it, so their `--threads N` flag
/// rides the same [`SweepBackend`] as the exhaustive sweeps. Each index is
/// computed exactly once; determinism is the caller's business (seeded
/// computations are).
///
/// # Panics
///
/// Panics (resuming the worker's panic) if `f` panics on any index.
#[must_use]
pub fn pooled_map_indexed<T, F>(count: u64, backend: SweepBackend, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    match backend {
        SweepBackend::Serial => (0..count).map(f).collect(),
        SweepBackend::Parallel(threads) => {
            let indices: Vec<u64> = (0..count).collect();
            let mapped: Result<Vec<T>, std::convert::Infallible> = pooled_fold(
                &indices,
                threads,
                &|&idx, _abort| UnitResult::Complete(vec![f(idx)]),
                &Vec::new,
                |mut a, b| {
                    a.extend(b);
                    a
                },
            );
            match mapped {
                Ok(values) => values,
                Err(never) => match never {},
            }
        }
    }
}

/// Sets the abort flag if dropped while panicking, so a panicking `step`
/// stops the other workers just like a failing one (the pool re-raises
/// the panic once every worker has stopped).
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failing_step_aborts_and_reports() {
        // Item 3 fails; every backend reports its error, and the parallel
        // pool reports the lowest-indexed failure among those it processed.
        let items: Vec<u64> = (0..16).collect();
        let sweep = |&item: &u64, _abort: &AtomicBool| {
            if item == 3 {
                UnitResult::Failed(format!("item {item}"))
            } else {
                UnitResult::Complete(item)
            }
        };
        for threads in [1, 2, 4] {
            let threads = NonZeroUsize::new(threads).unwrap();
            let result = pooled_fold(&items, threads, &sweep, &|| 0u64, |a, b| a + b);
            assert_eq!(result, Err("item 3".to_owned()), "{threads} workers");
        }
    }

    #[test]
    fn pooled_map_returns_in_index_order_for_every_backend() {
        let expected: Vec<u64> = (0..100).map(|i| i * i).collect();
        for backend in [SweepBackend::Serial, SweepBackend::parallel(3), SweepBackend::parallel(7)]
        {
            assert_eq!(pooled_map_indexed(100, backend, |i| i * i), expected, "{backend:?}");
        }
        assert!(pooled_map_indexed(0, SweepBackend::parallel(2), |i| i).is_empty());
    }

    #[test]
    fn panicking_step_propagates() {
        let result = std::panic::catch_unwind(|| {
            pooled_map_indexed(32, SweepBackend::parallel(2), |i| {
                assert!(i != 17, "boom at {i}");
                i
            })
        });
        let payload = result.expect_err("the step's panic propagates");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("boom at 17"), "the worker's own payload is re-raised");
    }
}
