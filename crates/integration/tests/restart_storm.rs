//! Chaos restart storms over the durable service engine: seeded
//! kill/restart sequences — including kills with requests still in
//! flight, double-crashes of the same instance, and recovery under
//! injected asynchrony — across replica-group sizes beyond the fixed
//! n = 5, t = 2, and across shard counts. After every storm the
//! [`ShardedAudit`] replay check must stay green over the *combined*
//! pre/post-restart history, and the on-disk state (per-shard snapshot +
//! WAL replay) must agree with the engine's final materialized store —
//! the disk-state divergence check.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use indulgent_model::{ClientId, RequestId, SplitMix64, SystemConfig};
use indulgent_server::wal::replay_bytes;
use indulgent_server::{
    load_manifest, shard_dir, DurabilityConfig, EngineConfig, KvEngine, KvOp, LocalKv, Request,
    ShardedAudit, Snapshot,
};
use indulgent_sim::{random_run, MessageFate, ModelKind, RandomRunParams, Schedule};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn storm_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "indulgent-storm-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn cfg(n: usize, t: usize, shards: usize, dir: &Path, snapshot_every: u64) -> EngineConfig {
    EngineConfig {
        system: SystemConfig::majority(n, t).expect("valid majority config"),
        ..EngineConfig::default_5()
    }
    .with_batch_size(3)
    .with_pipeline_depth(2)
    .with_shards(shards)
    .with_durability(DurabilityConfig::new(dir).with_snapshot_every(snapshot_every))
}

/// A seeded op, so the storm is seeded chaos, not flaky chaos.
fn random_op(rng: &mut SplitMix64) -> KvOp {
    let r = rng.next_u64();
    let key = (r % 11) as u16;
    if r.is_multiple_of(3) {
        KvOp::Get { key }
    } else {
        KvOp::Put { key, value: (r >> 8) as u32 }
    }
}

/// Validates one shard's durable state between incarnations: the
/// snapshot verifies, the WAL replays cleanly (any torn tail is the
/// crash artifact `Wal::open` repairs — here we only require the
/// checksummed prefix to parse), and the records are slot-contiguous
/// past the snapshot.
fn check_shard_disk(dir: &Path) {
    let snap = Snapshot::load(&dir.join("state.snap")).expect("snapshot readable");
    let base = snap.as_ref().map_or(0, |s| s.applied_through);
    let bytes = std::fs::read(dir.join("wal.log")).unwrap_or_default();
    let replay = replay_bytes(&bytes).expect("wal prefix parses");
    for (expected, rec) in (base + 1..).zip(replay.records.iter().filter(|r| r.slot > base)) {
        assert_eq!(rec.slot, expected, "wal records contiguous past the snapshot");
    }
}

/// Validates the whole durability root: the manifest records the
/// expected shard count, and every shard subdirectory passes the
/// per-shard disk check.
fn check_disk(root: &Path, shards: usize) {
    let on_disk = load_manifest(root).expect("manifest readable").expect("manifest present");
    assert_eq!(on_disk as usize, shards, "manifest records the shard count");
    for i in 0..shards {
        check_shard_disk(&shard_dir(root, i as u32));
    }
}

/// Replays one shard's durable state into a store — the independent
/// disk-side materialization the final audit is compared against.
fn shard_disk_store(dir: &Path) -> (u64, BTreeMap<u16, u32>) {
    let snap =
        Snapshot::load(&dir.join("state.snap")).expect("snapshot readable").unwrap_or_default();
    let mut store = snap.store;
    let base = snap.applied_through;
    let mut through = base;
    let bytes = std::fs::read(dir.join("wal.log")).unwrap_or_default();
    let replay = replay_bytes(&bytes).expect("wal prefix parses");
    for rec in replay.records.iter().filter(|r| r.slot > base) {
        for ack in &rec.commands {
            if let KvOp::Put { key, value } = ack.op {
                store.insert(key, value);
            }
        }
        through = rec.slot;
    }
    (through, store)
}

/// Merges every shard's disk replay: total applied slots across shards
/// plus the merged store. Keys are disjoint across shards (the router is
/// a function of the key), so the merge order cannot matter.
fn disk_store(root: &Path, shards: usize) -> (u64, BTreeMap<u16, u32>) {
    let mut total = 0u64;
    let mut merged = BTreeMap::new();
    for i in 0..shards {
        let (through, store) = shard_disk_store(&shard_dir(root, i as u32));
        total += through;
        merged.extend(store);
    }
    (total, merged)
}

/// One seeded storm: `phases` incarnations of the engine on the same
/// durability root, each killed hard with requests possibly still in
/// flight, clients replaying their in-doubt ids into the next
/// incarnation; every incarnation after the first replays `recovery`'s
/// adversary, if any. Returns the final (clean-shutdown) audit.
#[allow(clippy::too_many_arguments)]
fn run_storm(
    n: usize,
    t: usize,
    shards: usize,
    phases: usize,
    ops_per_phase: usize,
    seed: u64,
    snapshot_every: u64,
    recovery: Option<&Schedule>,
) -> ShardedAudit {
    let dir = storm_dir("storm");
    let clients = 3usize;
    let mut rng = SplitMix64::new(seed);
    let mut next_id = vec![0u64; clients];
    // At most one in-doubt (submitted, never acked) request per client,
    // replayed first thing in the next incarnation.
    let mut pending: Vec<Option<(u64, KvOp)>> = vec![None; clients];

    let mut final_audit = None;
    for phase in 0..phases {
        let mut config = cfg(n, t, shards, &dir, snapshot_every);
        // Recovery may happen while the network is misbehaving.
        config.schedule = recovery.filter(|_| phase > 0).cloned();
        let engine = KvEngine::spawn(config);
        let handle = engine.handle();
        let mut sessions: Vec<LocalKv> =
            (0..clients).map(|c| LocalKv::connect(&handle, ClientId(c as u64))).collect();

        // Replay in-doubt requests: each must be acked exactly once —
        // either from the recovered dedup cache (it committed before the
        // kill) or by a fresh apply (it died in flight).
        for (c, slot) in pending.iter_mut().enumerate() {
            if let Some((id, op)) = slot.take() {
                let resp = sessions[c].call_with(RequestId(id), op).expect("replay acked");
                assert_eq!(resp.request, RequestId(id));
            }
        }

        for _ in 0..ops_per_phase {
            let c = rng.below(clients as u64) as usize;
            let op = random_op(&mut rng);
            let id = next_id[c];
            next_id[c] += 1;
            let resp = sessions[c].call_with(RequestId(id), op).expect("acked");
            assert_eq!(resp.request, RequestId(id));
        }

        if phase + 1 == phases {
            drop(sessions);
            final_audit = Some(engine.shutdown());
        } else {
            // Leave one in-doubt request per client (submitted raw, ack
            // never awaited), let the engine race it briefly, then pull
            // the plug.
            let (raw, _outbound) = handle.connect();
            for (c, slot) in pending.iter_mut().enumerate() {
                let id = next_id[c];
                next_id[c] += 1;
                let op = random_op(&mut rng);
                assert!(raw.submit(Request {
                    client: ClientId(c as u64),
                    request: RequestId(id),
                    op,
                }));
                *slot = Some((id, op));
            }
            std::thread::sleep(Duration::from_millis(rng.below(4)));
            drop(sessions);
            drop(raw);
            engine.kill();
            check_disk(&dir, shards);
        }
    }

    let audit = final_audit.expect("storm ran at least one phase");
    audit.check().expect("combined pre/post-restart history audits clean");

    // Disk-state divergence check: after the clean shutdown the durable
    // state, independently replayed shard by shard, must equal the
    // engine's final merged store.
    let (through, store) = disk_store(&dir, shards);
    assert_eq!(store, audit.final_store(), "disk replay diverges from the engine store");
    assert_eq!(through, audit.applied_slots());

    std::fs::remove_dir_all(&dir).ok();
    audit
}

/// The headline storm: three incarnations on one directory (the same
/// logical replica instance crashes twice — a double crash), kills with
/// requests in flight, frequent checkpoints so the WAL is truncated
/// mid-storm.
#[test]
fn restart_storm_survives_seeded_kill_sequences() {
    for seed in [11u64, 29, 73] {
        let audit = run_storm(5, 2, 1, 3, 12, seed, 4, None);
        assert!(audit.committed_commands() >= 36, "every submitted request committed");
    }
}

/// The storm holds beyond the fixed n = 5, t = 2 service configuration.
#[test]
fn restart_storm_across_group_sizes() {
    for (n, t) in [(3, 1), (5, 2), (7, 3)] {
        let audit = run_storm(n, t, 1, 2, 8, 1000 + n as u64, 3, None);
        assert_eq!(audit.shards[0].system.n(), n);
        assert!(audit.committed_commands() >= 16);
    }
}

/// The sharded storm: every incarnation hosts multiple shard groups on
/// one durability root, the kill lands with requests in flight on
/// several shards at once, and every shard must recover from its own
/// subdirectory with exactly-once intact across the whole keyspace.
#[test]
fn restart_storm_recovers_every_shard() {
    for shards in [2usize, 4] {
        let audit = run_storm(5, 2, shards, 3, 12, 4242 + shards as u64, 4, None);
        assert_eq!(audit.shards.len(), shards);
        assert!(audit.committed_commands() >= 36, "every submitted request committed");
        // Keys 0..11 spread over the shards, so with 2+ shards more than
        // one group must have sequenced work.
        let busy = audit.shards.iter().filter(|s| s.committed_commands > 0).count();
        assert!(busy >= 2, "the workload exercised at least two shard groups");
    }
}

/// Recovery while the network is asynchronous: the restarted incarnation
/// runs its early rounds under seeded message delays (false suspicions
/// included) and must still recover, dedup, and audit clean.
#[test]
fn recovery_during_asynchrony_stays_correct() {
    let config = SystemConfig::majority(5, 2).expect("valid majority config");
    let params = RandomRunParams {
        delay_probability: 0.4,
        ..RandomRunParams::eventually_synchronous(0, 1, 4)
    };
    let schedule = random_run(config, ModelKind::Es, params, 4, 0xDEC1DE);
    let late = schedule.overrides().filter(|o| matches!(o.3, MessageFate::Delay(_))).count();
    assert!(late > 0, "the prefix delays messages");
    let audit = run_storm(5, 2, 2, 3, 10, 7, 5, Some(&schedule));
    audit.check().expect("audit clean under recovery asynchrony");
}

/// Exactly-once across the crash: a request acknowledged before the kill
/// is answered from the recovered session table when retried after the
/// restart — same response bytes, counted as a dedup hit, never
/// re-applied.
#[test]
fn precrash_ack_is_replayed_from_recovered_sessions() {
    let dir = storm_dir("dedup");
    let engine = KvEngine::spawn(cfg(5, 2, 1, &dir, 0));
    let mut session = LocalKv::connect(&engine.handle(), ClientId(9));
    let first = session.call_with(RequestId(0), KvOp::Put { key: 2, value: 77 }).expect("acked");
    drop(session);
    engine.kill();

    let engine = KvEngine::spawn(cfg(5, 2, 1, &dir, 0));
    let mut session = LocalKv::connect(&engine.handle(), ClientId(9));
    let replayed =
        session.call_with(RequestId(0), KvOp::Put { key: 2, value: 77 }).expect("acked again");
    assert_eq!(replayed, first, "the recovered cache replays the original ack");
    let after = session.call_with(RequestId(1), KvOp::Get { key: 2 }).expect("acked");
    drop(session);
    let audit = engine.shutdown();
    audit.check().expect("audit clean");
    assert!(audit.dedup_hits() >= 1, "the replay was a dedup hit");
    assert_eq!(audit.committed_commands(), 2, "the put applied exactly once");
    match after.outcome {
        indulgent_server::Outcome::Get { value, .. } => assert_eq!(value, Some(77)),
        other => panic!("expected a get outcome, found {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Batch ids are never reused across incarnations: a restarted shard
/// mints past both the snapshot's `next_batch` and every batch its WAL
/// tail recovered, so no id it proposes can collide with an applied one.
#[test]
fn batch_ids_are_never_reused_across_incarnations() {
    let dir = storm_dir("batch-ids");
    let put = |i: u64| Request {
        client: ClientId(5),
        request: RequestId(i),
        op: KvOp::Put { key: 1, value: i as u32 },
    };

    // Six sequential puts, one batch each: the checkpoint at slot 4 folds
    // batches 0..4 into the snapshot, slots 5 and 6 stay in the WAL.
    let engine = KvEngine::spawn(cfg(5, 2, 1, &dir, 4));
    let mut session = LocalKv::connect(&engine.handle(), ClientId(5));
    for i in 0..6 {
        session.call_with(RequestId(i), put(i).op).expect("acked");
    }
    drop(session);
    engine.kill();

    let shard = shard_dir(&dir, 0);
    let snap = Snapshot::load(&shard.join("state.snap"))
        .expect("snapshot readable")
        .expect("a checkpoint ran");
    let wal = replay_bytes(&std::fs::read(shard.join("wal.log")).expect("wal readable"))
        .expect("wal parses");
    let recovered: Vec<u64> =
        wal.records.iter().filter(|r| r.slot > snap.applied_through).map(|r| r.batch.0).collect();
    assert!(
        recovered.iter().any(|&b| b >= snap.next_batch),
        "the WAL tail holds ids past the snapshot's high-water mark"
    );

    let engine = KvEngine::spawn(cfg(5, 2, 1, &dir, 4));
    let (raw, acks) = engine.handle().connect();
    for i in 6..8 {
        assert!(raw.submit(put(i)));
    }
    let audit = engine.shutdown();
    drop(raw);
    let proposals = &audit.shards[0].proposals;
    assert!(!proposals.is_empty(), "the new incarnation proposed batches");
    for id in proposals {
        assert!(id.0 >= snap.next_batch, "{id} reuses an id below the snapshot's next_batch");
        assert!(recovered.iter().all(|&b| id.0 > b), "{id} reuses an id the WAL recovered");
    }
    audit.check().expect("audit clean");
    assert_eq!(audit.duplicate_applies(), 0);
    let acked = std::iter::from_fn(|| acks.try_recv().ok()).count();
    assert_eq!(acked, 2, "both new puts were acked");
    std::fs::remove_dir_all(&dir).ok();
}

/// Boot refusal on a shard-count mismatch: a durability root laid out
/// for S shards (recorded in the fsynced manifest) must not be
/// reinterpreted by an engine configured for a different count — slot
/// histories and session tables would be split across the wrong groups.
/// The driver panics instead of booting; the panic surfaces at
/// `shutdown`.
#[test]
fn boot_refuses_shard_count_mismatch() {
    let dir = storm_dir("mismatch");
    let engine = KvEngine::spawn(cfg(5, 2, 2, &dir, 0));
    let mut session = LocalKv::connect(&engine.handle(), ClientId(1));
    session.call_with(RequestId(0), KvOp::Put { key: 3, value: 30 }).expect("acked");
    drop(session);
    let audit = engine.shutdown();
    audit.check().expect("audit clean");

    let engine = KvEngine::spawn(cfg(5, 2, 4, &dir, 0));
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.shutdown()));
    assert!(refused.is_err(), "booting 4 shards on a 2-shard layout must refuse");
    std::fs::remove_dir_all(&dir).ok();
}
