//! `indulgent-obs`: the observability layer — lock-free metrics and a
//! bounded flight recorder for the whole indulgent stack.
//!
//! The repo proves its claims with *external* harnesses (client-side
//! timers, post-hoc audits); this crate makes the running system
//! observable from the *inside* without perturbing what it measures:
//!
//! * [`Counter`] — a relaxed-atomic monotonic counter. Increments are a
//!   few nanoseconds, never synchronize, and **never allocate** — safe
//!   on the allocation-free hot paths the zero-alloc regression test
//!   guards (generalizing the sim crate's `EngineCounters` idiom).
//! * [`Histogram`] — a fixed-bucket log2 latency histogram: 64
//!   power-of-two buckets, each a relaxed atomic. [`Histogram::record`]
//!   is two `fetch_add`s and a `fetch_max` — no locks, **zero
//!   allocations** — and p50/p95/p99/max are derived from the bucket
//!   counts at *read* time by [`HistogramSnapshot::percentile`], so the
//!   record path pays nothing for the percentiles the scrape reports.
//! * the **registry** — named [`MetricFamily`]s registered once at
//!   startup ([`register_family`]) and walked at dump time
//!   ([`dump_to_string`], [`visit_families`], [`counter_value`]).
//!   Registration takes a lock and may allocate; recording into a
//!   registered family never does. Each family is declared once with
//!   [`metric_family!`]: adding a counter is one name in its list. The
//!   sim round engine, the runtime session, the log driver, the lease
//!   agents, the server engine and the server's front door each
//!   register one family.
//! * [`FlightRecorder`] — a bounded ring of recent structured
//!   [`FlightEvent`]s (instance starts/decisions, lease transitions,
//!   WAL and snapshot operations, recovery steps). The ring is
//!   pre-allocated at construction and overwrites its oldest entry when
//!   full; [`FlightRecorder::dump_to`] writes the retained window in
//!   chronological order, so a crashed or audit-failed server ships a
//!   black-box recording instead of just its final state.
//!
//! # Bucket layout
//!
//! Bucket `0` counts zero values; bucket `i >= 1` counts values in
//! `[2^(i-1), 2^i)` (the last bucket absorbs everything above). A
//! percentile reports its bucket's inclusive upper bound, clamped to
//! the observed maximum — an over-approximation by at most 2x, which
//! is the precision a log2 sketch buys for 64 words of storage. Record
//! nanoseconds and the buckets span 1 ns to ~584 years; record queue
//! depths and they span 0 to `u64::MAX`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of log2 buckets a [`Histogram`] holds (enough for any `u64`).
pub const BUCKETS: usize = 64;

/// A relaxed-atomic monotonic counter: the cheapest possible metric.
///
/// `const`-constructible, so families are plain `static`s with no
/// lazy-init branch on the record path.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` (relaxed; never synchronizes, never allocates).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (only meaningful while nothing records).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// The log2 bucket a value falls into: 0 for 0, else `floor(log2(v)) + 1`,
/// capped at the last bucket (which absorbs values at and above `2^62`).
#[must_use]
const fn bucket_of(value: u64) -> usize {
    let b = (u64::BITS - value.leading_zeros()) as usize;
    if b >= BUCKETS {
        BUCKETS - 1
    } else {
        b
    }
}

/// The inclusive upper bound of bucket `i` (`u64::MAX` for the last).
#[must_use]
const fn bucket_upper(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free fixed-bucket log2 histogram.
///
/// [`record`](Histogram::record) is wait-free and allocation-free:
/// one bucket `fetch_add`, one sum `fetch_add`, one `fetch_max`.
/// Percentiles are *not* computed here — take a
/// [`snapshot`](Histogram::snapshot) and ask it.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        // `[const { ... }; N]` repeats the const block, not a shared value.
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Zero allocations, no locks.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    ///
    /// Buckets are read one by one (relaxed), so a snapshot taken while
    /// recorders run may tear by a few in-flight observations — fine
    /// for monitoring, which is what this is for.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut count = 0u64;
        for (b, a) in buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
            count += *b;
        }
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every bucket (only meaningful while nothing records).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A point-in-time copy of a [`Histogram`]: plain data, wire- and
/// JSON-friendly, mergeable across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see the module docs for layout).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// The largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    #[must_use]
    pub const fn empty() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound
    /// of the bucket where the cumulative count crosses `q * count`,
    /// clamped to the observed maximum. Zero when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The arithmetic mean of the observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self` — the cross-shard aggregate. Bucket
    /// counts and sums add; maxima take the larger.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The difference `self - earlier`, bucket by bucket (saturating,
    /// in case a reset happened in between). `max` is kept from `self`:
    /// maxima do not subtract.
    #[must_use]
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (d, (a, b)) in buckets.iter_mut().zip(self.buckets.iter().zip(&earlier.buckets)) {
            *d = a.saturating_sub(*b);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

/// A named group of metrics a subsystem exposes to the registry.
///
/// Implementors are `static`s: the registry stores `&'static dyn`
/// references, so families live for the process and recording into
/// them is untouched by the registry's lock. Declare one with
/// [`metric_family!`] rather than by hand.
pub trait MetricFamily: Sync {
    /// The family's name, e.g. `"sim_engine"` or `"server_engine"`.
    fn name(&self) -> &'static str;
    /// Passes every counter of the family to `sink` as `(name, value)`.
    fn emit(&self, sink: &mut dyn FnMut(&'static str, u64));
}

/// Declares a metric family once: the struct of [`Counter`]s (deriving
/// `Debug`), its `static`, the [`MetricFamily`] impl that emits the
/// counters in declaration order, and the accessor that registers the
/// family on its first call.
///
/// After the first call the accessor costs one `Once` check, and
/// recording is a relaxed atomic add on the returned counters. The
/// struct's fields are private to the declaring module.
///
/// ```
/// indulgent_obs::metric_family! {
///     /// The `doc_example` family.
///     pub struct DocMetrics = "doc_example" {
///         /// Requests seen.
///         requests,
///         /// Requests refused.
///         refusals,
///     }
///     /// The process's `doc_example` counters.
///     pub fn doc_metrics();
/// }
///
/// doc_metrics().requests.add(3);
/// assert_eq!(indulgent_obs::counter_value("doc_example", "requests"), Some(3));
/// assert_eq!(indulgent_obs::counter_value("doc_example", "refusals"), Some(0));
/// ```
#[macro_export]
macro_rules! metric_family {
    (
        $(#[$meta:meta])*
        $vis:vis struct $ty:ident = $family:literal {
            $($(#[$counter_meta:meta])* $counter:ident),+ $(,)?
        }
        $(#[$accessor_meta:meta])*
        $accessor_vis:vis fn $accessor:ident();
    ) => {
        $(#[$meta])*
        #[derive(Debug)]
        $vis struct $ty {
            $($(#[$counter_meta])* $counter: $crate::Counter,)+
        }

        impl $crate::MetricFamily for $ty {
            fn name(&self) -> &'static str { $family }
            fn emit(&self, sink: &mut dyn FnMut(&'static str, u64)) {
                $(sink(stringify!($counter), self.$counter.get());)+
            }
        }

        $(#[$accessor_meta])*
        $accessor_vis fn $accessor() -> &'static $ty {
            static FAMILY: $ty = $ty { $($counter: $crate::Counter::new(),)+ };
            static REGISTER: ::std::sync::Once = ::std::sync::Once::new();
            REGISTER.call_once(|| $crate::register_family(&FAMILY));
            &FAMILY
        }
    };
}

static REGISTRY: Mutex<Vec<&'static dyn MetricFamily>> = Mutex::new(Vec::new());

/// Registers a family (idempotent by name: a second registration under
/// an already-registered name is ignored). Takes a lock and may
/// allocate — call it from startup paths, not record paths.
pub fn register_family(family: &'static dyn MetricFamily) {
    let mut reg = REGISTRY.lock().expect("metric registry poisoned");
    if reg.iter().all(|f| f.name() != family.name()) {
        reg.push(family);
    }
}

/// Walks every registered family in registration order.
pub fn visit_families(mut visit: impl FnMut(&'static dyn MetricFamily)) {
    let reg = REGISTRY.lock().expect("metric registry poisoned");
    for f in reg.iter() {
        visit(*f);
    }
}

/// The current value of counter `name` of the registered family
/// `family`, or `None` if no such family has registered yet or it has no
/// such counter.
#[must_use]
pub fn counter_value(family: &str, name: &str) -> Option<u64> {
    let mut found = None;
    visit_families(|f| {
        if f.name() == family {
            f.emit(&mut |counter, value| {
                if counter == name {
                    found = Some(value);
                }
            });
        }
    });
    found
}

/// Renders every registered family as `family.counter value` lines —
/// the `--stats-every` dump format.
#[must_use]
pub fn dump_to_string() -> String {
    let mut out = String::new();
    visit_families(|f| {
        f.emit(&mut |counter, value| {
            let _ = writeln!(out, "{}.{counter} {value}", f.name());
        });
    });
    out
}

/// What a [`FlightEvent`] records — the black-box vocabulary shared by
/// every subsystem that carries a recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant names are the documentation
pub enum FlightKind {
    /// A consensus instance was started (`a` = local instance, `b` = batch id).
    InstanceStart,
    /// An instance's first decision arrived (`a` = local instance, `b` = batch id).
    InstanceDecide,
    /// A decided slot was applied (`a` = slot, `b` = commands in it).
    SlotApplied,
    /// The WAL was fsynced at a slot boundary (`a` = slot, `b` = sync nanos).
    WalSync,
    /// A checkpoint folded the prefix (`a` = applied-through slot).
    Checkpoint,
    /// The leader lease was renewed (`a` = epoch, `b` = healthy grants).
    LeaseRenewed,
    /// Reads fell off the lease/quorum ladder to sequencing (`a` = reads demoted).
    ReadsDemoted,
    /// Recovery loaded a snapshot (`a` = its applied-through slot).
    RecoveredSnapshot,
    /// Recovery replayed the WAL tail (`a` = records replayed).
    RecoveredWal,
    /// A strictly newer lease epoch was burned to disk (`a` = epoch).
    EpochBurned,
    /// The replay audit failed (`a` = shard).
    AuditViolation,
    /// The subsystem is unwinding from a panic (stall watchdog, broken
    /// invariant); the dump that follows is the crash recording.
    Panic,
    /// Clean shutdown reached this subsystem.
    Shutdown,
}

impl FlightKind {
    /// The event's dump label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::InstanceStart => "instance_start",
            FlightKind::InstanceDecide => "instance_decide",
            FlightKind::SlotApplied => "slot_applied",
            FlightKind::WalSync => "wal_sync",
            FlightKind::Checkpoint => "checkpoint",
            FlightKind::LeaseRenewed => "lease_renewed",
            FlightKind::ReadsDemoted => "reads_demoted",
            FlightKind::RecoveredSnapshot => "recovered_snapshot",
            FlightKind::RecoveredWal => "recovered_wal",
            FlightKind::EpochBurned => "epoch_burned",
            FlightKind::AuditViolation => "audit_violation",
            FlightKind::Panic => "panic",
            FlightKind::Shutdown => "shutdown",
        }
    }
}

/// One recorded event: a kind plus two integer operands (see each
/// [`FlightKind`] variant for what `a`/`b` carry). Fixed-size on
/// purpose — recording never formats or allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic sequence number (total events recorded, not retained).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub micros: u64,
    /// What happened.
    pub kind: FlightKind,
    /// First operand.
    pub a: u64,
    /// Second operand.
    pub b: u64,
}

#[derive(Debug)]
struct FlightRing {
    events: Vec<FlightEvent>,
    /// Next write position once the ring is full (wrap cursor).
    next: usize,
    seq: u64,
}

/// A bounded ring of recent [`FlightEvent`]s — the black-box recorder.
///
/// The ring is allocated once at construction; recording overwrites the
/// oldest event when full and never allocates. The mutex is uncontended
/// in the engine (one driver thread records) and exists so dumps from a
/// panic hook or another thread are safe.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    start: Instant,
    ring: Mutex<FlightRing>,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a flight recorder retains at least one event");
        FlightRecorder {
            capacity,
            start: Instant::now(),
            ring: Mutex::new(FlightRing { events: Vec::with_capacity(capacity), next: 0, seq: 0 }),
        }
    }

    /// Records one event (allocation-free: the ring is pre-sized).
    pub fn record(&self, kind: FlightKind, a: u64, b: u64) {
        let micros = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        let seq = ring.seq;
        ring.seq += 1;
        let event = FlightEvent { seq, micros, kind, a, b };
        if ring.events.len() < self.capacity {
            ring.events.push(event);
        } else {
            let next = ring.next;
            ring.events[next] = event;
            ring.next = (next + 1) % self.capacity;
        }
    }

    /// Total events ever recorded (retained or overwritten).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.ring.lock().expect("flight ring poisoned").seq
    }

    /// The retained window in chronological order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let ring = self.ring.lock().expect("flight ring poisoned");
        let mut out = Vec::with_capacity(ring.events.len());
        out.extend_from_slice(&ring.events[ring.next..]);
        out.extend_from_slice(&ring.events[..ring.next]);
        out
    }

    /// Writes the retained window as one `+micros seq kind a b` line per
    /// event, oldest first, headed by a `# flight-recorder` banner —
    /// the `flight-<shard>.log` format CI ships on failure.
    pub fn dump_to(&self, w: &mut dyn Write) -> io::Result<()> {
        let events = self.snapshot();
        let total = self.recorded();
        writeln!(w, "# flight-recorder: {} of {total} events retained", events.len())?;
        for e in &events {
            writeln!(w, "+{}us seq={} {} a={} b={}", e.micros, e.seq, e.kind.label(), e.a, e.b)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of((1 << 62) - 1), 62);
        assert_eq!(bucket_of(1 << 62), BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_percentiles_come_from_buckets() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1110);
        assert_eq!(s.max, 1000);
        // p50 lands in the bucket of 3..4; upper bounds clamp to max.
        assert!(s.percentile(0.5) >= 3 && s.percentile(0.5) <= 7);
        assert_eq!(s.percentile(1.0), 1000);
        assert_eq!(s.percentile(0.0), 1); // rank clamps to the first observation
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s, HistogramSnapshot::empty());
    }

    #[test]
    fn snapshots_merge_and_diff() {
        let h = Histogram::new();
        h.record(8);
        h.record(16);
        let a = h.snapshot();
        h.record(1_000_000);
        let b = h.snapshot();
        let d = b.since(&a);
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 1_000_000);
        let mut m = a;
        m.merge(&d);
        assert_eq!(m.count, b.count);
        assert_eq!(m.sum, b.sum);
        assert_eq!(m.max, 1_000_000);
    }

    #[test]
    fn max_value_records_into_the_last_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[BUCKETS - 1], 1);
        assert_eq!(s.percentile(0.5), u64::MAX);
    }

    crate::metric_family! {
        struct TestFamily = "obs_test_family" {
            hits,
            misses,
        }
        fn test_family();
    }

    #[test]
    fn registry_walks_registered_families_once() {
        test_family().hits.add(7);
        register_family(test_family()); // idempotent by name
        let dump = dump_to_string();
        let lines: Vec<&str> = dump.lines().filter(|l| l.starts_with("obs_test_family.")).collect();
        // `misses` is the counter `counter_value`'s test bumps concurrently.
        assert_eq!(lines.len(), 2, "one line per counter, in declaration order: {lines:?}");
        assert_eq!(lines[0], "obs_test_family.hits 7");
        assert!(lines[1].starts_with("obs_test_family.misses "));
    }

    #[test]
    fn counter_value_reads_one_registered_counter() {
        test_family().misses.add(2);
        assert_eq!(counter_value("obs_test_family", "misses"), Some(2));
        assert_eq!(counter_value("obs_test_family", "absent"), None);
        assert_eq!(counter_value("obs_unregistered_family", "hits"), None);
    }

    #[test]
    fn flight_recorder_retains_the_most_recent_window() {
        let r = FlightRecorder::new(4);
        for i in 0..10u64 {
            r.record(FlightKind::SlotApplied, i, 0);
        }
        let events = r.snapshot();
        assert_eq!(r.recorded(), 10);
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9], "oldest events were overwritten, order preserved");
        let mut dump = Vec::new();
        r.dump_to(&mut dump).unwrap();
        let text = String::from_utf8(dump).unwrap();
        assert!(text.starts_with("# flight-recorder: 4 of 10 events retained"));
        assert!(text.contains("slot_applied a=9"));
    }
}
