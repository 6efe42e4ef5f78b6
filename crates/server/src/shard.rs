//! Keyspace sharding: the router, the durability-root manifest, and the
//! cross-shard audit.
//!
//! Single-key KV commands on different keys never need a shared total
//! order, so the service partitions its keyspace across `S` independent
//! `A_{t+2}` log pipelines — *shard groups* — that run concurrently
//! inside one engine. The pieces here are shard-count-global:
//!
//! * [`ShardRouter`] — the fixed multiplicative hash mapping every key
//!   to its owning shard. Deterministic and stateless, so the client,
//!   the engine, and the audit all agree on placement by construction,
//!   and a `(ClientId, RequestId)` pair always lands on the same shard
//!   (its operation names one key), which is what keeps exactly-once
//!   dedup correct under sharding.
//! * [`load_manifest`]/[`store_manifest`] — the fsynced `shards.manifest`
//!   at the durability root recording how many `shard-<i>/`
//!   subdirectories the on-disk layout was written for. Boot recovery
//!   refuses to start when the configured shard count disagrees:
//!   rehashing a durable keyspace silently would route recovered keys to
//!   the wrong groups.
//! * [`ShardedAudit`] — the service-wide verdict: every per-shard
//!   [`ServiceAudit`] must pass its own replay, every command and fast
//!   read must sit on the shard its key routes to, and no
//!   `(ClientId, RequestId)` pair may appear in two shards' histories.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};

use indulgent_model::{ClientId, RequestId};

use crate::engine::{AuditViolation, FastReadRecord, ServiceAudit};
use crate::wal::{load_checked, store_checked, MANIFEST_FILE};

/// Maps keys to shard groups with a fixed multiplicative hash.
///
/// The hash is deterministic across processes and incarnations — the
/// routing rule *is* the data layout, so it must never drift between a
/// client computing placement, the engine applying a command, and a
/// recovery replaying yesterday's WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u32,
}

impl ShardRouter {
    /// A router over `shards` groups.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(shards: u32) -> Self {
        assert!(shards >= 1, "a service has at least one shard");
        ShardRouter { shards }
    }

    /// How many shards this router spreads the keyspace over.
    #[must_use]
    pub fn shards(self) -> u32 {
        self.shards
    }

    /// The shard owning `key`. Fixed multiplicative hash (a Murmur-style
    /// xor fold through the 64-bit golden ratio), taking the high bits
    /// so consecutive keys spread instead of striping.
    #[must_use]
    pub fn shard_of(self, key: u16) -> u32 {
        let mixed = (u64::from(key) ^ 0x5bd1_e995).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        u32::try_from((mixed >> 32) % u64::from(self.shards)).expect("residue fits u32")
    }
}

/// The subdirectory of the durability root holding shard `idx`'s WAL,
/// snapshots, and lease epoch.
#[must_use]
pub fn shard_dir(root: &Path, idx: u32) -> PathBuf {
    root.join(format!("shard-{idx}"))
}

/// Loads the shard count recorded at `root`; `Ok(None)` if no manifest
/// was ever written (a fresh root). A corrupt manifest is an error, not
/// a silent default — booting with the wrong shard count rehashes the
/// keyspace.
pub fn load_manifest(root: &Path) -> io::Result<Option<u32>> {
    Ok(load_checked(&root.join(MANIFEST_FILE))?.map(u32::from_le_bytes))
}

/// Durably records `shards` at `root` (atomic temp-write + fsync +
/// rename, the snapshot idiom). Must complete before any shard serves
/// so a crash mid-boot cannot leave an unlabeled multi-shard layout.
pub fn store_manifest(root: &Path, shards: u32) -> io::Result<()> {
    store_checked(&root.join(MANIFEST_FILE), &shards.to_le_bytes())
}

/// Everything a finished sharded service run exposes for verification:
/// one [`ServiceAudit`] per shard group plus the cross-shard invariants
/// no single group can see.
///
/// [`check`](ShardedAudit::check) is the service-wide gate: each shard's
/// replay must pass on its own, every sequenced command and fast read
/// must sit on the shard its key routes to under the [`ShardRouter`],
/// and the `(ClientId, RequestId)` exactly-once key space must be
/// disjoint across shards. Accessors aggregate the per-shard counters so
/// single-group call sites read the same way they did before sharding.
#[derive(Debug, Clone)]
pub struct ShardedAudit {
    /// The per-shard audits, indexed by shard id.
    pub shards: Vec<ServiceAudit>,
}

impl ShardedAudit {
    /// The router this run partitioned keys with.
    ///
    /// # Panics
    ///
    /// Panics if the audit holds no shards (an engine always runs at
    /// least one).
    #[must_use]
    pub fn router(&self) -> ShardRouter {
        ShardRouter::new(u32::try_from(self.shards.len()).expect("shard count fits u32"))
    }

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
        self.shards.iter().map(|s| s.base_slot + s.slots.len() as u64).sum()
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

    /// Verifies the sharded run end to end: every shard's own replay
    /// audit, key-to-shard routing of every sequenced command and fast
    /// read, and cross-shard disjointness of the exactly-once key space.
    pub fn check(&self) -> Result<(), AuditViolation> {
        let router = self.router();
        let mut owners: HashMap<(ClientId, RequestId), u32> = HashMap::new();
        for (i, audit) in self.shards.iter().enumerate() {
            let shard = u32::try_from(i).expect("shard count fits u32");
            if audit.shard != shard {
                return Err(AuditViolation::ShardMislabel { shard: audit.shard, expected: shard });
            }
            audit.check()?;
            let mut claim = |client: ClientId, request: RequestId| match owners
                .insert((client, request), shard)
            {
                Some(prev) if prev != shard => {
                    Err(AuditViolation::CrossShardDuplicate { client, request })
                }
                _ => Ok(()),
            };
            for s in &audit.base_sessions {
                claim(s.client, s.request)?;
            }
            for rec in &audit.slots {
                for ack in &rec.commands {
                    if router.shard_of(ack.op.key()) != shard {
                        return Err(AuditViolation::ShardRouting { shard, key: ack.op.key() });
                    }
                    claim(ack.client, ack.request)?;
                }
            }
            for r in &audit.fast_reads {
                if router.shard_of(r.key) != shard {
                    return Err(AuditViolation::ShardRouting { shard, key: r.key });
                }
                claim(r.client, r.request)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use indulgent_model::SystemConfig;

    use super::*;

    #[test]
    fn router_is_deterministic_and_total() {
        for shards in [1u32, 2, 3, 4, 8] {
            let router = ShardRouter::new(shards);
            for key in 0..=u16::MAX {
                let s = router.shard_of(key);
                assert!(s < shards);
                assert_eq!(s, router.shard_of(key), "placement is a pure function of the key");
            }
        }
    }

    #[test]
    fn router_spreads_the_keyspace() {
        // Not a uniformity proof — just a guard against a degenerate
        // hash that stripes everything onto one shard.
        let router = ShardRouter::new(4);
        let mut counts = [0u32; 4];
        for key in 0..512u16 {
            counts[router.shard_of(key) as usize] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(count >= 64, "shard {shard} owns only {count} of 512 keys");
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let router = ShardRouter::new(1);
        for key in [0u16, 1, 255, u16::MAX] {
            assert_eq!(router.shard_of(key), 0);
        }
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let root = std::env::temp_dir().join(format!("indulgent-manifest-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(load_manifest(&root).unwrap(), None, "fresh root has no manifest");
        store_manifest(&root, 4).unwrap();
        assert_eq!(load_manifest(&root).unwrap(), Some(4));
        store_manifest(&root, 8).unwrap();
        assert_eq!(load_manifest(&root).unwrap(), Some(8));
        // Corruption is an error, not a silent shard-count reset: flip a
        // count byte under the stored checksum, and truncate.
        let mut bytes = std::fs::read(root.join(MANIFEST_FILE)).unwrap();
        bytes[0] ^= 0x04;
        std::fs::write(root.join(MANIFEST_FILE), &bytes).unwrap();
        assert!(load_manifest(&root).is_err());
        std::fs::write(root.join(MANIFEST_FILE), &bytes[..3]).unwrap();
        assert!(load_manifest(&root).is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    fn empty_audit(shard: u32) -> ServiceAudit {
        ServiceAudit {
            system: SystemConfig::majority(5, 2).expect("valid config"),
            shard,
            base_slot: 0,
            base_store: BTreeMap::new(),
            base_sessions: Vec::new(),
            base_commands: 0,
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
