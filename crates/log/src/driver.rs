//! The pipelined instance driver: the policy layer of the replicated log.
//!
//! The driver owns everything substrate-independent: which batch each
//! replica proposes for which slot, when the next instance may start
//! (the bounded in-flight window), and how decided values are applied to
//! the log. Execution itself goes through the [`InstanceRunner`] trait,
//! implemented by the deterministic simulator
//! ([`SimLogRunner`](crate::SimLogRunner)) and the wall-clock runtime
//! ([`SessionLogRunner`](crate::SessionLogRunner)) — one policy, two
//! substrates, differentially comparable executions.
//!
//! # The proposal policy, and why it is deterministic
//!
//! With pipeline depth `W`, instance `j` starts once the decision of
//! instance `j - W` is known; its proposals may therefore rely on the
//! decided values of instances `≤ j - W` only. Decisions of the
//! still-pending instances `j - W + 1 .. j - 1` may well be known already
//! on a fast substrate — the driver *deliberately ignores them*:
//! determinism over opportunism. Replica `r` proposes its oldest
//! outstanding batch that is neither chosen by a settled instance nor
//! tentatively proposed by `r` for a pending instance. Because a batch
//! has exactly one home replica, this exclusion makes double-choosing a
//! batch impossible: a chosen batch is either settled (removed from its
//! queue) or pending (excluded by its home), so every slot applies a
//! fresh batch — the apply-time [`DecidedLog`] deduplication exists as a
//! defense-in-depth safety net, and the invariant checker asserts it
//! never fires.
//!
//! # Crash, recovery, and asynchrony scenarios
//!
//! A [`LogScenario`] holds per-replica [`Outage`] intervals over the
//! *logical* timeline: an outage silences a replica from a `(instance,
//! round)` point — from that round of that instance on, and from round 1
//! of every later covered instance — until it recovers at
//! `until_instance` (or forever, the crash-stop special case). Because
//! both substrates run each instance with fresh per-instance automatons,
//! recovery is free: the replica simply participates again from the
//! recovery instance on, with no in-instance state to restore. An
//! asynchronous prefix adds seeded message delays (and the false
//! suspicions they cause) to the early instances. [`compile_schedule`]
//! turns the scenario into one simulator [`Schedule`] per instance, and
//! both substrates replay it, which is what keeps crash, recovery *and*
//! asynchrony chaos deterministically comparable between them at any
//! pipeline depth.
//!
//! The fault budget is per-*instance*, not per-run: at every instance at
//! most `t` replicas may be down simultaneously, but across the run the
//! total number of crash events may exceed `t` — the crash-recovery
//! model of the wider indulgent literature, where `A_{t+2}`'s safety
//! only ever needs a majority up per decision.

use std::collections::{BTreeMap, HashSet, VecDeque};

use indulgent_model::{AppliedEntry, BatchId, Decision, ProcessSet, Round, SystemConfig, Value};
use indulgent_sim::Schedule;

use crate::frontend::ClientFrontend;
use crate::runner_sim::compile_schedule;

/// The `log_driver` metric family: what this process's log runs decided
/// and applied, summed across every [`LogDriver::run`]. Slot-level
/// tallies (noops, apply-time duplicates) surface here so a registry
/// dump shows whether the proposal policy is holding up without waiting
/// for the invariant suite.
#[derive(Debug)]
struct DriverMetrics {
    runs_completed: indulgent_obs::Counter,
    instances_run: indulgent_obs::Counter,
    slots_applied: indulgent_obs::Counter,
    committed_commands: indulgent_obs::Counter,
    noop_slots: indulgent_obs::Counter,
    duplicate_slots: indulgent_obs::Counter,
}

static DRIVER_METRICS: DriverMetrics = DriverMetrics {
    runs_completed: indulgent_obs::Counter::new(),
    instances_run: indulgent_obs::Counter::new(),
    slots_applied: indulgent_obs::Counter::new(),
    committed_commands: indulgent_obs::Counter::new(),
    noop_slots: indulgent_obs::Counter::new(),
    duplicate_slots: indulgent_obs::Counter::new(),
};

impl indulgent_obs::MetricFamily for DriverMetrics {
    fn name(&self) -> &'static str {
        "log_driver"
    }

    fn emit(&self, sink: &mut dyn indulgent_obs::MetricSink) {
        sink.counter("runs_completed", self.runs_completed.get());
        sink.counter("instances_run", self.instances_run.get());
        sink.counter("slots_applied", self.slots_applied.get());
        sink.counter("committed_commands", self.committed_commands.get());
        sink.counter("noop_slots", self.noop_slots.get());
        sink.counter("duplicate_slots", self.duplicate_slots.get());
    }
}

static REGISTER_DRIVER_METRICS: std::sync::Once = std::sync::Once::new();

fn driver_metrics() -> &'static DriverMetrics {
    REGISTER_DRIVER_METRICS.call_once(|| indulgent_obs::register_family(&DRIVER_METRICS));
    &DRIVER_METRICS
}

/// Sizing of a log run: how much work, how wide the batches, how deep the
/// pipeline.
#[derive(Debug, Clone, Copy)]
pub struct LogConfig {
    /// Number of consensus instances (log slots) to run.
    pub instances: u64,
    /// Commands per sealed batch.
    pub batch_size: usize,
    /// Bounded in-flight window `W ≥ 1`: instance `j` starts once the
    /// decision of `j - W` is known (`W = 1` is strictly sequential).
    pub pipeline_depth: u64,
    /// Per-instance round budget handed to the substrate.
    pub max_rounds: u32,
}

impl LogConfig {
    /// A sequential, unbatched baseline configuration.
    #[must_use]
    pub fn sequential(instances: u64) -> Self {
        LogConfig { instances, batch_size: 1, pipeline_depth: 1, max_rounds: 60 }
    }

    /// Sets the batch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the pipeline depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    #[must_use]
    pub fn with_pipeline_depth(mut self, depth: u64) -> Self {
        assert!(depth >= 1, "pipeline depth is at least 1");
        self.pipeline_depth = depth;
        self
    }
}

/// One logical down interval of a replica: crashed at `(from_instance,
/// from_round)`, recovered (participating again) from `until_instance`
/// on — or never, the crash-stop special case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// The instance in which the replica goes down.
    pub from_instance: u64,
    /// The round of `from_instance` from which it is silent.
    pub from_round: Round,
    /// First instance the replica participates in again; `None` = the
    /// outage is permanent (crash-stop).
    pub until_instance: Option<u64>,
}

impl Outage {
    /// The round from which this outage silences the replica in
    /// `instance`, if the outage covers it: the crash round in the crash
    /// instance, round 1 in every later covered instance.
    #[must_use]
    pub fn covers(&self, instance: u64) -> Option<Round> {
        if instance == self.from_instance {
            Some(self.from_round)
        } else if instance > self.from_instance
            && self.until_instance.is_none_or(|until| instance < until)
        {
            Some(Round::FIRST)
        } else {
            None
        }
    }
}

/// Chaos injected into a log run.
#[derive(Debug, Clone, Default)]
pub struct LogScenario {
    /// Per-replica outage intervals (multiple = the replica crashes,
    /// recovers, and crashes again).
    pub outages: Vec<Vec<Outage>>,
    /// Asynchronous prefix over the early instances.
    pub asynchrony: Option<AsyncPrefix>,
}

impl LogScenario {
    /// A failure-free scenario for `n` replicas.
    #[must_use]
    pub fn failure_free(n: usize) -> Self {
        LogScenario { outages: vec![Vec::new(); n], asynchrony: None }
    }

    /// Crashes `replica` permanently at `(instance, round)`.
    #[must_use]
    pub fn crash(mut self, replica: usize, instance: u64, round: Round) -> Self {
        self.outages[replica].push(Outage {
            from_instance: instance,
            from_round: round,
            until_instance: None,
        });
        self
    }

    /// Crashes `replica` at `(instance, round)` and recovers it at
    /// `recover_instance` (it participates in `recover_instance` and
    /// later instances again). Chain multiple calls per replica for
    /// repeated crash/recover cycles.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty or overlaps an existing outage of
    /// the same replica.
    #[must_use]
    pub fn crash_recover(
        mut self,
        replica: usize,
        instance: u64,
        round: Round,
        recover_instance: u64,
    ) -> Self {
        assert!(recover_instance > instance, "recovery happens after the crash");
        let outage = Outage {
            from_instance: instance,
            from_round: round,
            until_instance: Some(recover_instance),
        };
        for existing in &self.outages[replica] {
            for j in instance..recover_instance {
                assert!(
                    existing.covers(j).is_none(),
                    "outage intervals of replica {replica} overlap at instance {j}"
                );
            }
        }
        self.outages[replica].push(outage);
        self
    }

    /// Adds an asynchronous prefix.
    #[must_use]
    pub fn with_asynchrony(mut self, prefix: AsyncPrefix) -> Self {
        self.asynchrony = Some(prefix);
        self
    }

    /// The round from which `replica` is silent in `instance`, if any
    /// outage covers it.
    #[must_use]
    pub fn down_round(&self, replica: usize, instance: u64) -> Option<Round> {
        self.outages[replica].iter().find_map(|o| o.covers(instance))
    }

    /// Whether `instance` replays the adversary of `instance - 1`: no
    /// outage starts or ends between them, and neither lies in the
    /// asynchronous prefix, whose seed changes with the instance.
    fn repeats_previous(&self, instance: u64) -> bool {
        instance > 1
            && self.asynchrony.is_none_or(|a| instance > a.until_instance)
            && (0..self.outages.len())
                .all(|r| self.down_round(r, instance) == self.down_round(r, instance - 1))
    }

    /// How many replicas are down (covered by an outage) at `instance`.
    #[must_use]
    pub fn down_at(&self, instance: u64) -> usize {
        (0..self.outages.len()).filter(|&r| self.down_round(r, instance).is_some()).count()
    }

    /// The set of replicas this scenario ever crashes (including ones
    /// that recover).
    #[must_use]
    pub fn crashed_set(&self) -> ProcessSet {
        self.outages
            .iter()
            .enumerate()
            .filter(|(_, o)| !o.is_empty())
            .map(|(i, _)| indulgent_model::ProcessId::new(i))
            .collect()
    }

    /// Number of replicas this scenario ever crashes.
    #[must_use]
    pub fn crash_count(&self) -> usize {
        self.outages.iter().filter(|o| !o.is_empty()).count()
    }
}

/// An asynchronous prefix: instances `1 .. until_instance` run with
/// seeded message delays causing false suspicions.
#[derive(Debug, Clone, Copy)]
pub struct AsyncPrefix {
    /// First instance free of injected delays.
    pub until_instance: u64,
    /// Within an affected instance, rounds `< sync_from` may delay
    /// messages; the instance is synchronous from `sync_from` on.
    pub sync_from: u32,
    /// Per-message delay probability in `[0, 1]`.
    pub probability: f64,
    /// Determinism seed (mixed with the instance number per instance).
    pub seed: u64,
}

/// One instance's adversary, compiled by the driver from the
/// [`LogScenario`] ([`compile_schedule`]) and replayed by either
/// substrate.
#[derive(Debug, Clone)]
pub struct ShotSpec {
    /// The instance's crashes and message fates.
    pub schedule: Schedule,
    /// Round budget.
    pub max_rounds: u32,
}

/// One consensus substrate driving log instances — the single trait both
/// the deterministic simulator and the wall-clock runtime implement.
///
/// Instances are started in id order (`1, 2, …`), possibly several in
/// flight at once (the driver's pipeline window). `wait_decided` may be
/// called for any started instance; `finish` completes everything and
/// returns the full per-replica decision matrix.
pub trait InstanceRunner {
    /// Starts instance `instance` with one proposal per replica under the
    /// given adversary.
    fn start(&mut self, instance: u64, proposals: &[Value], spec: &ShotSpec);

    /// Blocks until some replica's decision for `instance` is known;
    /// `None` if every replica reported without deciding (all crashed or
    /// out of budget).
    fn wait_decided(&mut self, instance: u64) -> Option<Decision>;

    /// Completes all started instances: element `i` holds instance
    /// `i + 1`'s first decision per replica (index = replica id).
    fn finish(self) -> Vec<Vec<Option<Decision>>>;
}

/// A replica's applied log: one [`AppliedEntry`] per decided slot, with
/// apply-time deduplication.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecidedLog {
    entries: Vec<AppliedEntry>,
    applied: HashSet<BatchId>,
}

impl DecidedLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies the decided batch id of the next slot and returns the
    /// entry recorded: `Applied` for a fresh batch, `Noop` for the
    /// reserved no-op, `Duplicate` for an id already applied.
    pub fn apply(&mut self, decided: BatchId) -> AppliedEntry {
        let entry = if decided.is_noop() {
            AppliedEntry::Noop
        } else if self.applied.insert(decided) {
            AppliedEntry::Applied(decided)
        } else {
            AppliedEntry::Duplicate(decided)
        };
        self.entries.push(entry);
        entry
    }

    /// The applied entries, slot order.
    #[must_use]
    pub fn entries(&self) -> &[AppliedEntry] {
        &self.entries
    }

    /// Number of slots applied.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no slot has been applied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `batch` has been applied.
    #[must_use]
    pub fn contains(&self, batch: BatchId) -> bool {
        self.applied.contains(&batch)
    }

    /// Iterates over the applied (fresh) batch ids in slot order.
    pub fn applied_batches(&self) -> impl Iterator<Item = BatchId> + '_ {
        self.entries.iter().filter_map(|e| e.applied())
    }
}

/// Everything a completed log run reports.
#[derive(Debug, Clone)]
pub struct LogReport {
    /// The run's sizing.
    pub config: LogConfig,
    /// Per-instance proposals (index 0 = instance 1), one per replica.
    pub proposals: Vec<Vec<Value>>,
    /// Per-instance, per-replica first decisions.
    pub decisions: Vec<Vec<Option<Decision>>>,
    /// The decided value the driver settled each instance with (first
    /// reported decision), `None` if the slot never decided.
    pub decided_values: Vec<Option<Value>>,
    /// Per-replica applied logs (over each replica's own decisions).
    pub logs: Vec<DecidedLog>,
    /// The driver's canonical applied log (over `decided_values`).
    pub canonical: DecidedLog,
    /// Commands in the canonical log's applied batches — the acknowledged
    /// work of the run.
    pub committed_commands: u64,
    /// Slots that decided the reserved no-op.
    pub noop_slots: u64,
    /// Slots whose decided batch was already applied (policy violation if
    /// nonzero; checked by the invariant suite).
    pub duplicate_slots: u64,
    /// Replicas the scenario ever crashed (including recovered ones).
    pub crashed: ProcessSet,
    /// The scenario's per-replica outage intervals — the invariant
    /// checker holds recovered replicas to their guarantees outside
    /// their outages.
    pub outages: Vec<Vec<Outage>>,
    /// The workload's frontend (batch content lookups for appliers and
    /// the invariant checker).
    pub frontend: ClientFrontend,
}

/// The replicated-log driver: batching frontend + pipelined instance
/// policy over any [`InstanceRunner`].
#[derive(Debug)]
pub struct LogDriver {
    config: SystemConfig,
    log_config: LogConfig,
    scenario: LogScenario,
    frontend: ClientFrontend,
}

impl LogDriver {
    /// Creates a driver for `config.n()` replicas; `frontend` supplies
    /// the batched workload (its queues are taken over by the driver).
    ///
    /// # Panics
    ///
    /// Panics if the scenario's outage vector length differs from `n`,
    /// if more than `t` replicas are down simultaneously at any instance
    /// of the run (the per-instance fault budget — *total* crash events
    /// may exceed `t` when outages recover), or if
    /// `pipeline_depth == 0`.
    #[must_use]
    pub fn new(
        config: SystemConfig,
        log_config: LogConfig,
        scenario: LogScenario,
        frontend: ClientFrontend,
    ) -> Self {
        assert_eq!(scenario.outages.len(), config.n(), "one outage list per replica");
        for j in 1..=log_config.instances {
            assert!(
                scenario.down_at(j) <= config.t(),
                "a scenario may have at most t = {} replicas down at once (instance {j} has {})",
                config.t(),
                scenario.down_at(j)
            );
        }
        assert!(log_config.pipeline_depth >= 1, "pipeline depth is at least 1");
        LogDriver { config, log_config, scenario, frontend }
    }

    /// The adversary of instance `j` under this driver's scenario.
    #[must_use]
    pub fn shot_spec(&self, instance: u64) -> ShotSpec {
        let max_rounds = self.log_config.max_rounds;
        ShotSpec {
            schedule: compile_schedule(self.config, &self.scenario, instance, max_rounds),
            max_rounds,
        }
    }

    /// Runs the log to completion on `runner` and reports.
    pub fn run<R: InstanceRunner>(mut self, mut runner: R) -> LogReport {
        let n = self.config.n();
        let depth = self.log_config.pipeline_depth;
        let instances = self.log_config.instances;
        let mut queues: Vec<VecDeque<BatchId>> = self.frontend.take_queues();
        // Tentative proposals of the pending (in-flight) instances.
        let mut pending: BTreeMap<u64, Vec<BatchId>> = BTreeMap::new();
        let mut proposals: Vec<Vec<Value>> = Vec::with_capacity(instances as usize);
        let mut decided_values: Vec<Option<Value>> = vec![None; instances as usize];
        let mut canonical = DecidedLog::new();
        // Compiled only when the adversary changes: a crash-only run has a
        // handful of distinct schedules however many instances it runs.
        let mut spec: Option<ShotSpec> = None;

        let settle = |instance: u64,
                      decision: Option<Decision>,
                      queues: &mut Vec<VecDeque<BatchId>>,
                      pending: &mut BTreeMap<u64, Vec<BatchId>>,
                      decided_values: &mut Vec<Option<Value>>,
                      canonical: &mut DecidedLog| {
            pending.remove(&instance);
            let Some(d) = decision else { return };
            decided_values[(instance - 1) as usize] = Some(d.value);
            let batch = BatchId::from_value(d.value);
            canonical.apply(batch);
            if !batch.is_noop() {
                // Retire the chosen batch from every queue holding it
                // (one under round-robin/leader intake, all under shared).
                for q in queues.iter_mut() {
                    if let Some(pos) = q.iter().position(|&b| b == batch) {
                        q.remove(pos);
                    }
                }
            }
        };

        for j in 1..=instances {
            // The window gate: settle instance j - depth before proposing j.
            if j > depth {
                let i = j - depth;
                let d = runner.wait_decided(i);
                settle(i, d, &mut queues, &mut pending, &mut decided_values, &mut canonical);
            }
            // Proposals: each replica's oldest batch not tentatively
            // proposed for a still-pending instance (settled choices are
            // already gone from the queues).
            let mut tentative = Vec::with_capacity(n);
            let props: Vec<Value> = (0..n)
                .map(|r| {
                    let used = pending.values().map(|ps| ps[r]).collect::<HashSet<_>>();
                    let batch = queues[r]
                        .iter()
                        .copied()
                        .find(|b| !used.contains(b))
                        .unwrap_or(BatchId::NOOP);
                    tentative.push(batch);
                    batch.as_value()
                })
                .collect();
            pending.insert(j, tentative);
            if !self.scenario.repeats_previous(j) {
                spec = None;
            }
            runner.start(j, &props, spec.get_or_insert_with(|| self.shot_spec(j)));
            proposals.push(props);
        }
        // Drain the tail of the window.
        let first_unsettled = instances.saturating_sub(depth - 1).max(1);
        for i in first_unsettled..=instances {
            let d = runner.wait_decided(i);
            settle(i, d, &mut queues, &mut pending, &mut decided_values, &mut canonical);
        }

        let decisions = runner.finish();
        assert_eq!(decisions.len(), instances as usize, "one decision row per instance");

        // Per-replica applied logs over each replica's own decisions.
        let mut logs: Vec<DecidedLog> = vec![DecidedLog::new(); n];
        for row in &decisions {
            for (r, d) in row.iter().enumerate() {
                if let Some(d) = d {
                    logs[r].apply(BatchId::from_value(d.value));
                }
            }
        }

        let committed_commands = canonical
            .applied_batches()
            .map(|b| self.frontend.batch(b).map_or(0, |batch| batch.commands.len() as u64))
            .sum();
        let noop_slots =
            canonical.entries().iter().filter(|e| matches!(e, AppliedEntry::Noop)).count() as u64;
        let duplicate_slots =
            canonical.entries().iter().filter(|e| matches!(e, AppliedEntry::Duplicate(_))).count()
                as u64;

        let metrics = driver_metrics();
        metrics.runs_completed.incr();
        metrics.instances_run.add(instances);
        metrics.slots_applied.add(canonical.len() as u64);
        metrics.committed_commands.add(committed_commands);
        metrics.noop_slots.add(noop_slots);
        metrics.duplicate_slots.add(duplicate_slots);

        LogReport {
            config: self.log_config,
            proposals,
            decisions,
            decided_values,
            logs,
            canonical,
            committed_commands,
            noop_slots,
            duplicate_slots,
            crashed: self.scenario.crashed_set(),
            outages: self.scenario.outages,
            frontend: self.frontend,
        }
    }
}

#[cfg(test)]
mod tests {
    use indulgent_model::ProcessId;

    use super::*;

    /// A stub substrate deciding the minimum proposal instantly — enough
    /// to exercise the driver's policy in isolation.
    struct MinRunner {
        n: usize,
        decided: Vec<Value>,
        specs: Vec<ShotSpec>,
    }

    impl InstanceRunner for MinRunner {
        fn start(&mut self, _instance: u64, proposals: &[Value], spec: &ShotSpec) {
            self.decided.push(proposals.iter().copied().min().expect("nonempty"));
            self.specs.push(spec.clone());
        }

        fn wait_decided(&mut self, instance: u64) -> Option<Decision> {
            Some(Decision {
                process: ProcessId::new(0),
                round: Round::new(2),
                value: self.decided[(instance - 1) as usize],
            })
        }

        fn finish(self) -> Vec<Vec<Option<Decision>>> {
            self.decided
                .iter()
                .map(|&v| {
                    (0..self.n)
                        .map(|r| {
                            Some(Decision {
                                process: ProcessId::new(r),
                                round: Round::new(2),
                                value: v,
                            })
                        })
                        .collect()
                })
                .collect()
        }
    }

    fn driver_with(
        instances: u64,
        batch: usize,
        depth: u64,
        commands: u64,
        intake: crate::frontend::IntakePolicy,
    ) -> LogDriver {
        let config = SystemConfig::majority(3, 1).unwrap();
        let mut frontend = ClientFrontend::new(3, batch).with_intake(intake);
        frontend.submit_all(0..commands);
        LogDriver::new(
            config,
            LogConfig::sequential(instances).with_batch_size(batch).with_pipeline_depth(depth),
            LogScenario::failure_free(3),
            frontend,
        )
    }

    fn driver(instances: u64, batch: usize, depth: u64, commands: u64) -> LogDriver {
        driver_with(instances, batch, depth, commands, crate::frontend::IntakePolicy::RoundRobin)
    }

    #[test]
    fn sequential_log_commits_batches_in_id_order() {
        let report = driver(6, 2, 1, 12).run(MinRunner { n: 3, decided: vec![], specs: vec![] });
        // 12 commands / batch 2 = 6 batches; min-first policy = id order.
        let applied: Vec<BatchId> = report.canonical.applied_batches().collect();
        assert_eq!(applied, (0..6).map(BatchId).collect::<Vec<_>>());
        assert_eq!(report.committed_commands, 12);
        assert_eq!(report.noop_slots, 0);
        assert_eq!(report.duplicate_slots, 0);
    }

    #[test]
    fn pipelined_proposals_are_distinct_and_duplicate_free() {
        // Shared intake, depth 4: instances 1-4 start before any decision
        // settles; every replica spreads distinct batches across the
        // window, so all 8 batches commit in id order with no duplicates.
        let report = driver_with(8, 1, 4, 8, crate::frontend::IntakePolicy::Shared)
            .run(MinRunner { n: 3, decided: vec![], specs: vec![] });
        assert_eq!(report.duplicate_slots, 0);
        let applied: Vec<BatchId> = report.canonical.applied_batches().collect();
        assert_eq!(applied, (0..8).map(BatchId).collect::<Vec<_>>());
        assert_eq!(report.committed_commands, 8);
    }

    #[test]
    fn round_robin_contention_never_duplicates() {
        // Round-robin intake with a deep pipeline: losing proposals stay
        // excluded while pending and are re-proposed after settling. A
        // fixed budget may strand late batches (no-ops), but nothing is
        // ever chosen twice and what commits is consistent.
        let report = driver(8, 1, 4, 8).run(MinRunner { n: 3, decided: vec![], specs: vec![] });
        assert_eq!(report.duplicate_slots, 0);
        let applied: HashSet<BatchId> = report.canonical.applied_batches().collect();
        // The oldest batch always wins slot 1; total slots = applied + noops.
        assert!(applied.contains(&BatchId(0)));
        assert_eq!(applied.len() as u64 + report.noop_slots, 8);
        assert_eq!(report.committed_commands, applied.len() as u64);
    }

    #[test]
    fn exhausted_queues_propose_noop() {
        // 2 batches over 5 instances: 3 slots decide the no-op.
        let report = driver(5, 1, 2, 2).run(MinRunner { n: 3, decided: vec![], specs: vec![] });
        assert_eq!(report.noop_slots, 3);
        assert_eq!(report.committed_commands, 2);
    }

    /// Replica `r`'s crash round in instance `j` of `scenario` (n = 3).
    fn crash_of(scenario: &LogScenario, j: u64, r: usize) -> Option<Round> {
        let config = SystemConfig::majority(3, 1).unwrap();
        compile_schedule(config, scenario, j, 60).crash_round(ProcessId::new(r))
    }

    #[test]
    fn shot_specs_project_permanent_crashes() {
        let scenario = LogScenario::failure_free(3).crash(1, 3, Round::new(2));
        assert_eq!(crash_of(&scenario, 2, 1), None);
        assert_eq!(crash_of(&scenario, 3, 1), Some(Round::new(2)));
        assert_eq!(crash_of(&scenario, 4, 1), Some(Round::FIRST));
    }

    #[test]
    fn async_prefix_covers_early_instances_with_distinct_seeds() {
        let config = SystemConfig::majority(3, 1).unwrap();
        let scenario = LogScenario::failure_free(3).with_asynchrony(AsyncPrefix {
            until_instance: 3,
            sync_from: 4,
            probability: 0.3,
            seed: 9,
        });
        let s1 = compile_schedule(config, &scenario, 1, 60);
        let s2 = compile_schedule(config, &scenario, 2, 60);
        assert!(s1.overrides().next().is_some(), "the prefix delays messages");
        assert_ne!(s1, s2, "each instance draws from its own seed");
        assert!(compile_schedule(config, &scenario, 3, 60).is_synchronous());
    }

    #[test]
    fn a_run_compiles_once_per_distinct_adversary() {
        // Clean until instance 3, p1 down from its round 2 on, back at 6,
        // an asynchronous prefix over instances 1 and 2: instances 1, 2, 3,
        // 4 and 6 each bring a new adversary, 5 and 7 repeat.
        let prefix = AsyncPrefix { until_instance: 3, sync_from: 4, probability: 0.3, seed: 9 };
        let scenario = LogScenario::failure_free(3).crash_recover(1, 3, Round::new(2), 6);
        let scenario = scenario.with_asynchrony(prefix);
        let repeats: Vec<u64> = (1..=7).filter(|&j| scenario.repeats_previous(j)).collect();
        assert_eq!(repeats, [5, 7]);
    }

    #[test]
    #[should_panic(expected = "at most t")]
    fn scenario_crash_budget_is_enforced() {
        let config = SystemConfig::majority(3, 1).unwrap();
        let frontend = ClientFrontend::new(3, 1);
        let scenario =
            LogScenario::failure_free(3).crash(0, 1, Round::FIRST).crash(1, 1, Round::FIRST);
        let _ = LogDriver::new(config, LogConfig::sequential(2), scenario, frontend);
    }

    #[test]
    fn shot_specs_project_recovering_outages() {
        // Down from (2, r3) through instance 3, back at 4; down again
        // from (6, r1) permanently.
        let scenario = LogScenario::failure_free(3).crash_recover(0, 2, Round::new(3), 4).crash(
            0,
            6,
            Round::FIRST,
        );
        assert_eq!(crash_of(&scenario, 1, 0), None);
        assert_eq!(crash_of(&scenario, 2, 0), Some(Round::new(3)));
        assert_eq!(crash_of(&scenario, 3, 0), Some(Round::FIRST));
        assert_eq!(crash_of(&scenario, 4, 0), None);
        assert_eq!(crash_of(&scenario, 5, 0), None);
        assert_eq!(crash_of(&scenario, 7, 0), Some(Round::FIRST));
    }

    #[test]
    fn disjoint_outages_may_exceed_t_in_total() {
        // t = 1, but two different replicas go down at non-overlapping
        // times: 3 crash events, never more than one replica down at
        // once. The per-instance budget accepts this; the old per-run
        // budget could not express it.
        let config = SystemConfig::majority(3, 1).unwrap();
        let frontend = ClientFrontend::new(3, 1);
        let scenario = LogScenario::failure_free(3)
            .crash_recover(0, 1, Round::FIRST, 3)
            .crash_recover(1, 3, Round::new(2), 5)
            .crash_recover(0, 5, Round::FIRST, 7);
        assert_eq!(scenario.crash_count(), 2);
        assert_eq!(scenario.down_at(1), 1);
        assert_eq!(scenario.down_at(4), 1);
        let _ = LogDriver::new(config, LogConfig::sequential(8), scenario, frontend);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_outages_of_one_replica_are_rejected() {
        let _ = LogScenario::failure_free(3).crash_recover(0, 2, Round::FIRST, 5).crash_recover(
            0,
            4,
            Round::FIRST,
            6,
        );
    }
}
