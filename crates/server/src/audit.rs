//! Verification: the replay audit that gates every finished run.
//!
//! The engine records what it did — each applied slot with the acks it
//! sent ([`SlotRecord`]), each read it answered off the log
//! ([`FastReadRecord`]), each replica's decision per live instance — and
//! [`ServiceAudit::check`] re-derives it with code the engine does not
//! share. One replay rebuilds the store from the shard's last checkpoint,
//! slot by slot, recomputes every response, and compares every fast read
//! with the store at its read index: acks that match the decided total
//! order are linearized at their slots. With durability the replay spans
//! incarnations, since the recovered checkpoint seeds its base. The same
//! replay verifies the fast reads each checkpoint folds away, so the
//! audit spans the whole run although the records do not accumulate.
//! [`ShardedAudit::check`] walks each shard once, with one service-wide
//! exactly-once ledger and the key routing checked in the same walk.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use indulgent_model::{BatchId, ClientId, Decision, RequestId, SystemConfig};

use crate::proto::{KvOp, Outcome, Response};
use crate::shard::ShardRouter;
use crate::snapshot::Snapshot;
use crate::wal::{AckRecord, SlotRecord};

/// One read served off the log (lease or quorum fast path), as the
/// engine recorded it for the audit: the audit replays the decided log
/// to the record's read index and requires the value to match — a fast
/// read must equal what a sequenced read at that slot would have
/// answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastReadRecord {
    /// The submitting session.
    pub client: ClientId,
    /// The session's request number.
    pub request: RequestId,
    /// The key read.
    pub key: u16,
    /// The read index: the applied frontier at serve time.
    pub index: u64,
    /// The lease epoch the read was served under.
    pub epoch: u64,
    /// `true` if the read needed a quorum attest round (ladder step 2);
    /// `false` for a pure lease read.
    pub attested: bool,
    /// The value answered.
    pub value: Option<u32>,
}

/// Everything one shard of a finished service run exposes for
/// verification.
///
/// The audit is the server-side ground truth the load generator's gate
/// runs against: [`check`](ServiceAudit::check) re-derives every
/// response from the decided log with independent replay code and
/// verifies the exactly-once bookkeeping, per-slot replica agreement,
/// and store consistency.
#[derive(Debug, Clone)]
pub struct ServiceAudit {
    /// The replica group.
    pub system: SystemConfig,
    /// The shard group this audit covers (its slot space, store slice,
    /// and lease are all shard-local; [`ShardedAudit`] adds the
    /// cross-shard checks).
    pub shard: u32,
    /// The shard's last checkpoint: slots up to `base.applied_through`
    /// are folded into it, and the replay starts from its store, session
    /// table and commit count.
    pub base: Snapshot,
    /// The first slot decided by *this incarnation* (slots from
    /// `base.applied_through + 1` to `live_from - 1` were recovered from
    /// the WAL: they carry full records but no live consensus evidence).
    pub live_from: u64,
    /// The retained slots in log order (`base.applied_through + 1 ..`).
    pub slots: Vec<SlotRecord>,
    /// The batch id every replica was asked to propose, per live slot
    /// (index 0 = slot `live_from`).
    pub proposals: Vec<BatchId>,
    /// Per-live-slot, per-replica first decisions.
    pub replica_decisions: Vec<Vec<Option<Decision>>>,
    /// The store materialized by the engine at shutdown.
    pub final_store: BTreeMap<u16, u32>,
    /// Commands applied over the service lifetime (folded + retained).
    pub committed_commands: u64,
    /// Requests answered from the dedup cache or re-targeted while in
    /// flight — retries absorbed without a second apply.
    pub dedup_hits: u64,
    /// Slots whose batch was already applied (must be zero; the shared
    /// single-sequencer proposal rule cannot produce one).
    pub duplicate_applies: u64,
    /// Fast reads retained since the last checkpoint, in serve order
    /// (read indices non-decreasing, all within the retained history).
    pub fast_reads: Vec<FastReadRecord>,
    /// Fast reads already verified and folded away at checkpoints.
    pub folded_fast_reads: u64,
    /// Folded fast reads whose checkpoint-time verification failed
    /// (latched: must be zero for the audit to pass).
    pub fast_read_mismatches: u64,
    /// The lease epoch this incarnation served under (0 = leases off;
    /// every fast read must carry exactly this epoch).
    pub lease_epoch: u64,
}

/// A violated service invariant found by [`ServiceAudit::check`] or
/// [`ShardedAudit::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// A replica decided a different value than the canonical one (or
    /// never decided) for a slot.
    SlotDisagreement {
        /// The slot.
        slot: u64,
        /// The offending replica.
        replica: usize,
    },
    /// A slot decided a value that was never proposed for it.
    SlotInvalid {
        /// The slot.
        slot: u64,
    },
    /// A `(client, request)` pair was applied more than once.
    DoubleApply {
        /// The submitting session.
        client: ClientId,
        /// The replayed request number.
        request: RequestId,
    },
    /// A recorded response differs from the log replay's answer.
    ResponseMismatch {
        /// The slot whose replay disagrees.
        slot: u64,
        /// The request whose ack is wrong.
        request: RequestId,
    },
    /// The engine's final store differs from the replayed store.
    StoreDivergence,
    /// The engine counted duplicate applies (defense-in-depth net fired).
    DuplicateApplies {
        /// How many times.
        count: u64,
    },
    /// The retained slots are not contiguous from the base.
    SlotGap {
        /// The slot expected at the gap.
        expected: u64,
        /// The slot found instead.
        found: u64,
    },
    /// A fast read's value differs from the decided-prefix replay at
    /// its read index — the stale-read detector fired.
    StaleFastRead {
        /// The request whose read is stale.
        request: RequestId,
        /// The read index it was served at.
        index: u64,
    },
    /// Fast reads were served with decreasing read indices.
    ReadIndexRegression {
        /// The regressing index.
        index: u64,
        /// The index it regressed below.
        after: u64,
    },
    /// A fast read's index is past the retained history.
    ReadIndexOutOfRange {
        /// The offending read index.
        index: u64,
    },
    /// A fast read was served under the wrong lease epoch (stale
    /// incarnation, or leases off entirely).
    EpochMismatch {
        /// The epoch the read carried.
        epoch: u64,
    },
    /// Checkpoint-time verification of folded fast reads failed.
    FoldedReadMismatches {
        /// How many folded reads failed replay.
        count: u64,
    },
    /// A command or fast read landed on a shard its key does not route
    /// to under the service's [`ShardRouter`].
    ShardRouting {
        /// The shard that served the key.
        shard: u32,
        /// The misrouted key.
        key: u16,
    },
    /// A `(client, request)` pair appears in more than one shard's
    /// history — the cross-shard exactly-once space is not disjoint.
    CrossShardDuplicate {
        /// The submitting session.
        client: ClientId,
        /// The duplicated request number.
        request: RequestId,
    },
    /// A per-shard audit carries the wrong shard label for its position.
    ShardMislabel {
        /// The label the audit carries.
        shard: u32,
        /// The shard it actually sits at.
        expected: u32,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::SlotDisagreement { slot, replica } => {
                write!(f, "replica p{replica} disagrees with the canonical decision of slot {slot}")
            }
            AuditViolation::SlotInvalid { slot } => {
                write!(f, "slot {slot} decided a value that was not proposed for it")
            }
            AuditViolation::DoubleApply { client, request } => {
                write!(f, "{client}/{request} applied more than once")
            }
            AuditViolation::ResponseMismatch { slot, request } => {
                write!(f, "ack of {request} at slot {slot} differs from the log replay")
            }
            AuditViolation::StoreDivergence => {
                write!(f, "engine store differs from the replayed store")
            }
            AuditViolation::DuplicateApplies { count } => {
                write!(f, "{count} duplicate batch applies (safety net fired)")
            }
            AuditViolation::SlotGap { expected, found } => {
                write!(f, "retained history skips from slot {found} where {expected} was expected")
            }
            AuditViolation::StaleFastRead { request, index } => {
                write!(f, "fast read {request} at read-index {index} differs from the log replay")
            }
            AuditViolation::ReadIndexRegression { index, after } => {
                write!(f, "fast read served at read-index {index} after index {after}")
            }
            AuditViolation::ReadIndexOutOfRange { index } => {
                write!(f, "fast read at read-index {index} is past the retained history")
            }
            AuditViolation::EpochMismatch { epoch } => {
                write!(f, "fast read served under unexpected lease epoch {epoch}")
            }
            AuditViolation::FoldedReadMismatches { count } => {
                write!(f, "{count} checkpoint-folded fast reads failed replay verification")
            }
            AuditViolation::ShardRouting { shard, key } => {
                write!(f, "key {key} was served by shard {shard}, which it does not route to")
            }
            AuditViolation::CrossShardDuplicate { client, request } => {
                write!(f, "{client}/{request} appears in more than one shard's history")
            }
            AuditViolation::ShardMislabel { shard, expected } => {
                write!(f, "audit labeled shard {shard} sits at shard position {expected}")
            }
        }
    }
}

impl std::error::Error for AuditViolation {}

/// One step of a [`replay`], in log order.
enum Step<'a> {
    /// A sequenced command and the response the replay computes for it.
    Ack { slot: u64, ack: &'a AckRecord, replayed: Response },
    /// A fast read and the value the replayed store held at its read
    /// index; `None` when the read is not at the replay's current slot
    /// (served out of order, or past the replayed history).
    Read { read: &'a FastReadRecord, replayed: Option<Option<u32>> },
}

/// The one replay of a shard's history: rebuilds the store from `base`
/// slot by slot through `slots`, computes the response each recorded
/// command should have received, and pairs every fast read (in serve
/// order) with the store at its read index. `visit` judges each step;
/// its first error, or a gap in the slots, stops the replay. Returns the
/// replayed store.
fn replay<'a>(
    shard: u32,
    base: &Snapshot,
    slots: &'a [SlotRecord],
    reads: &'a [FastReadRecord],
    mut visit: impl FnMut(Step<'a>) -> Result<(), AuditViolation>,
) -> Result<BTreeMap<u16, u32>, AuditViolation> {
    let mut store = base.store.clone();
    let mut reads = reads.iter().peekable();
    let mut slots = slots.iter();
    let mut at = base.applied_through;
    loop {
        while let Some(read) = reads.next_if(|r| r.index <= at) {
            let replayed = (read.index == at).then(|| store.get(&read.key).copied());
            visit(Step::Read { read, replayed })?;
        }
        let Some(rec) = slots.next() else { break };
        if rec.slot != at + 1 {
            return Err(AuditViolation::SlotGap { expected: at + 1, found: rec.slot });
        }
        at = rec.slot;
        for ack in &rec.commands {
            let outcome = match ack.op {
                KvOp::Put { key, value } => {
                    store.insert(key, value);
                    Outcome::Put { slot: at }
                }
                KvOp::Get { key } => Outcome::Get { slot: at, value: store.get(&key).copied() },
            };
            let replayed = Response { request: ack.request, shard, outcome };
            visit(Step::Ack { slot: at, ack, replayed })?;
        }
    }
    for read in reads {
        visit(Step::Read { read, replayed: None })?;
    }
    Ok(store)
}

/// How many of the fast reads served since the checkpoint `base` the
/// replay of `slots` cannot confirm: a wrong value, or an index outside
/// the folded history. The shard latches the count when it folds them.
pub(crate) fn unconfirmed_reads(
    shard: u32,
    base: &Snapshot,
    slots: &[SlotRecord],
    reads: &[FastReadRecord],
) -> u64 {
    let mut confirmed = 0u64;
    // A replay that stops early leaves the reads after it unconfirmed.
    let _ = replay(shard, base, slots, reads, |step| {
        if let Step::Read { read, replayed } = step {
            confirmed += u64::from(replayed == Some(read.value));
        }
        Ok(())
    });
    reads.len() as u64 - confirmed
}

/// The exactly-once ledger of one audit: the shard that applied or
/// served each `(client, request)` pair, and — for a service-wide check
/// — the router every key must obey.
#[derive(Default)]
struct Ledger {
    owners: HashMap<(ClientId, RequestId), u32>,
    router: Option<ShardRouter>,
}

impl Ledger {
    /// Claims `(client, request)` for `shard`, whose `key` (if the pair
    /// names one) must route there.
    fn claim(
        &mut self,
        shard: u32,
        client: ClientId,
        request: RequestId,
        key: Option<u16>,
    ) -> Result<(), AuditViolation> {
        if let (Some(router), Some(key)) = (self.router, key) {
            if router.shard_of(key) != shard {
                return Err(AuditViolation::ShardRouting { shard, key });
            }
        }
        match self.owners.insert((client, request), shard) {
            None => Ok(()),
            Some(owner) if owner == shard => Err(AuditViolation::DoubleApply { client, request }),
            Some(_) => Err(AuditViolation::CrossShardDuplicate { client, request }),
        }
    }
}

impl ServiceAudit {
    /// Verifies the run end to end: per-slot replica agreement and
    /// validity (for the slots this incarnation decided), exactly-once
    /// applies across incarnations, and — by replaying the retained
    /// decided log on top of the checkpointed base — that every
    /// acknowledged response, every fast read and the final store are
    /// exactly what the total order dictates.
    pub fn check(&self) -> Result<(), AuditViolation> {
        self.check_in(&mut Ledger::default())
    }

    /// [`check`](Self::check), claiming every pair this shard applied or
    /// served in `ledger`.
    fn check_in(&self, ledger: &mut Ledger) -> Result<(), AuditViolation> {
        if self.duplicate_applies > 0 {
            return Err(AuditViolation::DuplicateApplies { count: self.duplicate_applies });
        }
        if self.fast_read_mismatches > 0 {
            return Err(AuditViolation::FoldedReadMismatches { count: self.fast_read_mismatches });
        }
        // Total order: every replica decided every live slot with the
        // proposed (hence canonical) value.
        let base_slot = self.base.applied_through;
        for (idx, row) in self.replica_decisions.iter().enumerate() {
            let slot = self.live_from + idx as u64;
            let Some(&proposed) = self.proposals.get(idx) else {
                return Err(AuditViolation::SlotInvalid { slot });
            };
            for (replica, d) in row.iter().enumerate() {
                match d {
                    Some(d) if BatchId::from_value(d.value) == proposed => {}
                    _ => return Err(AuditViolation::SlotDisagreement { slot, replica }),
                }
            }
            // Validity against the retained record (live slots folded by
            // a later checkpoint keep their decision evidence only).
            if slot > base_slot {
                let recorded = self.slots.get((slot - base_slot - 1) as usize).map(|s| s.batch);
                if recorded != Some(proposed) {
                    return Err(AuditViolation::SlotInvalid { slot });
                }
            }
        }
        // Exactly-once and the replay, in one walk.
        for s in &self.base.sessions {
            ledger.claim(self.shard, s.client, s.request, None)?;
        }
        let mut commands = self.base.committed;
        // Serve order is linearization order: read indices never fall.
        let mut after = base_slot;
        let judge = |step| match step {
            Step::Ack { slot, ack, replayed } => {
                ledger.claim(self.shard, ack.client, ack.request, Some(ack.op.key()))?;
                if replayed != ack.response {
                    return Err(AuditViolation::ResponseMismatch { slot, request: ack.request });
                }
                commands += 1;
                Ok(())
            }
            Step::Read { read, replayed } => {
                if self.lease_epoch == 0 || read.epoch != self.lease_epoch {
                    return Err(AuditViolation::EpochMismatch { epoch: read.epoch });
                }
                if read.index < after {
                    return Err(AuditViolation::ReadIndexRegression { index: read.index, after });
                }
                after = read.index;
                // A pair answered off the log can never also occupy a slot.
                ledger.claim(self.shard, read.client, read.request, Some(read.key))?;
                let (request, index) = (read.request, read.index);
                match replayed {
                    None => Err(AuditViolation::ReadIndexOutOfRange { index }),
                    Some(value) if value != read.value => {
                        Err(AuditViolation::StaleFastRead { request, index })
                    }
                    Some(_) => Ok(()),
                }
            }
        };
        let store = replay(self.shard, &self.base, &self.slots, &self.fast_reads, judge)?;
        if store != self.final_store || commands != self.committed_commands {
            return Err(AuditViolation::StoreDivergence);
        }
        Ok(())
    }
}

/// Everything a finished sharded service run exposes for verification:
/// one [`ServiceAudit`] per shard group plus the cross-shard invariants
/// no single group can see.
///
/// [`check`](ShardedAudit::check) is the service-wide gate: each shard's
/// replay must pass, every sequenced command and fast read must sit on
/// the shard its key routes to under the [`ShardRouter`], and the
/// `(ClientId, RequestId)` exactly-once key space must be disjoint
/// across shards. Accessors aggregate the per-shard counters so
/// single-group call sites read the same way they did before sharding.
#[derive(Debug, Clone)]
pub struct ShardedAudit {
    /// The per-shard audits, indexed by shard id.
    pub shards: Vec<ServiceAudit>,
}

impl ShardedAudit {
    /// Commands applied over the service lifetime, across all shards.
    #[must_use]
    pub fn committed_commands(&self) -> u64 {
        self.shards.iter().map(|s| s.committed_commands).sum()
    }

    /// Retries absorbed by the dedup layers, across all shards.
    #[must_use]
    pub fn dedup_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.dedup_hits).sum()
    }

    /// Duplicate batch applies (must be zero), across all shards.
    #[must_use]
    pub fn duplicate_applies(&self) -> u64 {
        self.shards.iter().map(|s| s.duplicate_applies).sum()
    }

    /// Fast reads already verified and folded at checkpoints, across all
    /// shards.
    #[must_use]
    pub fn folded_fast_reads(&self) -> u64 {
        self.shards.iter().map(|s| s.folded_fast_reads).sum()
    }

    /// The retained fast-read records of every shard, in shard order
    /// (within a shard, serve order).
    #[must_use]
    pub fn fast_reads(&self) -> Vec<&FastReadRecord> {
        self.shards.iter().flat_map(|s| s.fast_reads.iter()).collect()
    }

    /// The lease epoch the run served under (shard 0's; all shards of an
    /// incarnation boot together, so their epochs advance in lockstep).
    ///
    /// # Panics
    ///
    /// Panics if the audit holds no shards.
    #[must_use]
    pub fn lease_epoch(&self) -> u64 {
        self.shards.first().expect("an engine always runs at least one shard").lease_epoch
    }

    /// Slots applied over the service lifetime, summed across shards
    /// (each shard numbers its own slot space).
    #[must_use]
    pub fn applied_slots(&self) -> u64 {
        self.shards.iter().map(|s| s.base.applied_through + s.slots.len() as u64).sum()
    }

    /// The materialized KV store, merged across shards. Shards own
    /// disjoint key sets (the router is a partition), so the merge is
    /// collision-free.
    #[must_use]
    pub fn final_store(&self) -> BTreeMap<u16, u32> {
        let mut merged = BTreeMap::new();
        for s in &self.shards {
            merged.extend(s.final_store.iter().map(|(&k, &v)| (k, v)));
        }
        merged
    }

    /// Verifies the sharded run end to end: every shard's replay audit,
    /// key-to-shard routing of every sequenced command and fast read,
    /// and cross-shard disjointness of the exactly-once key space — one
    /// walk per shard.
    pub fn check(&self) -> Result<(), AuditViolation> {
        let shards = u32::try_from(self.shards.len()).expect("shard count fits u32");
        let mut ledger = Ledger { owners: HashMap::new(), router: Some(ShardRouter::new(shards)) };
        for (i, audit) in self.shards.iter().enumerate() {
            let shard = u32::try_from(i).expect("shard count fits u32");
            if audit.shard != shard {
                return Err(AuditViolation::ShardMislabel { shard: audit.shard, expected: shard });
            }
            audit.check_in(&mut ledger)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use indulgent_model::{ProcessId, Round};

    use super::*;
    use crate::snapshot::SessionEntry;

    /// A clean single-shard audit: a checkpointed base (slot 1), two
    /// live slots decided by every replica, and two lease reads.
    fn clean_audit() -> ServiceAudit {
        let put = |slot| Outcome::Put { slot };
        let ack = |client, request, op, outcome| AckRecord {
            client: ClientId(client),
            request: RequestId(request),
            op,
            response: Response { request: RequestId(request), shard: 0, outcome },
        };
        let read = |request, key, index, value| FastReadRecord {
            client: ClientId(3),
            request: RequestId(request),
            key,
            index,
            epoch: 1,
            attested: false,
            value,
        };
        let decided = |batch: BatchId| {
            (0..5)
                .map(|i| {
                    Some(Decision {
                        process: ProcessId::new(i),
                        round: Round::new(2),
                        value: batch.as_value(),
                    })
                })
                .collect()
        };
        ServiceAudit {
            system: SystemConfig::majority(5, 2).expect("valid config"),
            shard: 0,
            base: Snapshot {
                applied_through: 1,
                next_batch: 1,
                committed: 1,
                store: BTreeMap::from([(1, 10)]),
                sessions: vec![SessionEntry {
                    client: ClientId(1),
                    request: RequestId(0),
                    response: Response { request: RequestId(0), shard: 0, outcome: put(1) },
                }],
            },
            live_from: 2,
            slots: vec![
                SlotRecord {
                    slot: 2,
                    batch: BatchId(1),
                    commands: vec![
                        ack(1, 1, KvOp::Put { key: 2, value: 20 }, put(2)),
                        ack(2, 0, KvOp::Get { key: 1 }, Outcome::Get { slot: 2, value: Some(10) }),
                    ],
                },
                SlotRecord {
                    slot: 3,
                    batch: BatchId(2),
                    commands: vec![ack(1, 2, KvOp::Put { key: 1, value: 11 }, put(3))],
                },
            ],
            proposals: vec![BatchId(1), BatchId(2)],
            replica_decisions: vec![decided(BatchId(1)), decided(BatchId(2))],
            final_store: BTreeMap::from([(1, 11), (2, 20)]),
            committed_commands: 4,
            dedup_hits: 0,
            duplicate_applies: 0,
            fast_reads: vec![read(0, 1, 2, Some(10)), read(1, 2, 3, Some(20))],
            folded_fast_reads: 0,
            fast_read_mismatches: 0,
            lease_epoch: 1,
        }
    }

    /// One row of the violation table: a minimal tamper of the clean
    /// audit, and the violation it must produce.
    type Row = (fn(&mut ServiceAudit), AuditViolation);

    /// Every per-shard violation fires: one minimal tamper per row, and
    /// the audit names exactly that variant.
    #[test]
    fn every_per_shard_violation_fires() {
        clean_audit().check().expect("the clean audit passes");
        let (c1, r) = (ClientId(1), RequestId);
        let rows: [Row; 13] = [
            (
                |a| a.replica_decisions[1][4] = None,
                AuditViolation::SlotDisagreement { slot: 3, replica: 4 },
            ),
            (|a| a.slots[1].batch = BatchId(9), AuditViolation::SlotInvalid { slot: 3 }),
            (
                |a| {
                    a.proposals.pop();
                },
                AuditViolation::SlotInvalid { slot: 3 },
            ),
            (
                |a| (a.fast_reads[0].client, a.fast_reads[0].request) = (ClientId(1), RequestId(1)),
                AuditViolation::DoubleApply { client: c1, request: r(1) },
            ),
            (
                |a| {
                    a.slots[0].commands[1].response.outcome =
                        Outcome::Get { slot: 2, value: Some(11) };
                },
                AuditViolation::ResponseMismatch { slot: 2, request: r(0) },
            ),
            (
                |a| {
                    a.final_store.insert(3, 30);
                },
                AuditViolation::StoreDivergence,
            ),
            (|a| a.duplicate_applies = 1, AuditViolation::DuplicateApplies { count: 1 }),
            (|a| a.slots[1].slot = 4, AuditViolation::SlotGap { expected: 3, found: 4 }),
            (
                |a| a.fast_reads[1].value = Some(21),
                AuditViolation::StaleFastRead { request: r(1), index: 3 },
            ),
            (
                |a| a.fast_reads[1].index = 1,
                AuditViolation::ReadIndexRegression { index: 1, after: 2 },
            ),
            (|a| a.fast_reads[1].index = 4, AuditViolation::ReadIndexOutOfRange { index: 4 }),
            (|a| a.fast_reads[0].epoch = 2, AuditViolation::EpochMismatch { epoch: 2 }),
            (|a| a.fast_read_mismatches = 1, AuditViolation::FoldedReadMismatches { count: 1 }),
        ];
        for (tamper, expected) in rows {
            let mut audit = clean_audit();
            tamper(&mut audit);
            assert_eq!(audit.check(), Err(expected));
        }
    }

    fn empty_audit(shard: u32) -> ServiceAudit {
        ServiceAudit {
            system: SystemConfig::majority(5, 2).expect("valid config"),
            shard,
            base: Snapshot::default(),
            live_from: 1,
            slots: Vec::new(),
            proposals: Vec::new(),
            replica_decisions: Vec::new(),
            final_store: BTreeMap::new(),
            committed_commands: 0,
            dedup_hits: 0,
            duplicate_applies: 0,
            fast_reads: Vec::new(),
            folded_fast_reads: 0,
            fast_read_mismatches: 0,
            lease_epoch: 1,
        }
    }

    #[test]
    fn cross_shard_checks_fire() {
        // A fast read parked on the wrong shard trips the routing check.
        let router = ShardRouter::new(2);
        let key = (0..u16::MAX).find(|&k| router.shard_of(k) == 0).expect("some key maps to 0");
        let read = FastReadRecord {
            client: ClientId(1),
            request: RequestId(0),
            key,
            index: 0,
            epoch: 1,
            attested: false,
            value: None,
        };
        let mut wrong = empty_audit(1);
        wrong.fast_reads.push(read);
        let audit = ShardedAudit { shards: vec![empty_audit(0), wrong] };
        assert!(matches!(audit.check(), Err(AuditViolation::ShardRouting { shard: 1, .. })));

        // The same (client, request) pair in two shards trips
        // cross-shard exactly-once.
        let key0 = key;
        let key1 = (0..u16::MAX).find(|&k| router.shard_of(k) == 1).expect("some key maps to 1");
        let mut a = empty_audit(0);
        a.fast_reads.push(FastReadRecord { key: key0, ..read });
        let mut b = empty_audit(1);
        b.fast_reads.push(FastReadRecord { key: key1, ..read });
        let audit = ShardedAudit { shards: vec![a, b] };
        assert!(matches!(audit.check(), Err(AuditViolation::CrossShardDuplicate { .. })));

        // A mislabeled shard audit is rejected outright.
        let audit = ShardedAudit { shards: vec![empty_audit(1)] };
        assert!(matches!(audit.check(), Err(AuditViolation::ShardMislabel { .. })));

        // And the clean two-shard layout passes.
        let audit = ShardedAudit { shards: vec![empty_audit(0), empty_audit(1)] };
        audit.check().expect("clean sharded audit passes");
        assert_eq!(audit.committed_commands(), 0);
        assert_eq!(audit.lease_epoch(), 1);
    }
}
