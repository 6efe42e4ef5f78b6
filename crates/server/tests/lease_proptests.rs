//! Lease-safety tests: the fast-read path under expiry, renewal,
//! fallback, concurrent writes, and crash recovery.
//!
//! The stale-read detector is the audit itself — every fast read is
//! recorded with its read index and replayed against the decided-log
//! prefix by [`ServiceAudit::check`], so any interleaving that produced
//! a value a sequenced read at that index would not have answered fails
//! the run. The proptest below drives randomized lease timings (TTLs
//! short enough to lapse mid-run, renew cadences that sometimes miss)
//! against concurrent writer+reader sessions and requires the audit to
//! stay clean.

use std::time::Duration;

use indulgent_model::ClientId;
use indulgent_server::{
    lease, shard_dir, EngineConfig, KvEngine, KvService, LeaseConfig, LocalKv, Outcome, ReadPath,
};
use proptest::prelude::*;

fn lease_config(reads: ReadPath) -> EngineConfig {
    EngineConfig::default_5().with_batch_size(1).with_pipeline_depth(2).with_reads(reads)
}

#[test]
fn lease_reads_bypass_the_log_and_pass_the_audit() {
    let engine = KvEngine::spawn(lease_config(ReadPath::Lease));
    let mut kv = LocalKv::connect(&engine.handle(), ClientId(1));
    let put = kv.put(7, 42).expect("put acked");
    let Outcome::Put { slot } = put.outcome else { panic!("unexpected {put:?}") };
    let get = kv.get(7).expect("get acked");
    match get.outcome {
        Outcome::Read { index, value } => {
            assert_eq!(value, Some(42));
            assert!(index >= slot, "read index covers the acked write");
        }
        other => panic!("expected a fast read, got {other:?}"),
    }
    let audit = engine.shutdown();
    assert_eq!(audit.committed_commands(), 1, "the read occupied no slot");
    assert_eq!(audit.fast_reads().len(), 1);
    assert!(!audit.fast_reads()[0].attested, "a healthy lease needs no attest round");
    assert_eq!(audit.fast_reads()[0].epoch, audit.lease_epoch());
    audit.check().expect("audit clean");
}

#[test]
fn expired_lease_falls_back_to_the_quorum_rung() {
    // A 1 ms TTL with a 60 s renew cadence guarantees the lease has
    // lapsed by the time any read is served, so every read must take
    // the attest fallback — and still verify against the log replay.
    let timing = LeaseConfig::default()
        .with_ttl(Duration::from_millis(1))
        .with_renew_every(Duration::from_secs(60));
    let engine = KvEngine::spawn(lease_config(ReadPath::Lease).with_lease(timing));
    let mut kv = LocalKv::connect(&engine.handle(), ClientId(3));
    kv.put(5, 50).expect("put acked");
    std::thread::sleep(Duration::from_millis(5));
    let get = kv.get(5).expect("get acked");
    assert!(matches!(get.outcome, Outcome::Read { value: Some(50), .. }));
    let audit = engine.shutdown();
    assert!(!audit.fast_reads().is_empty());
    assert!(audit.fast_reads().iter().all(|r| r.attested), "lapsed lease must attest");
    audit.check().expect("audit clean");
}

#[test]
fn sequenced_escape_hatch_keeps_reads_in_the_log() {
    let engine = KvEngine::spawn(lease_config(ReadPath::Sequenced));
    let mut kv = LocalKv::connect(&engine.handle(), ClientId(4));
    kv.put(9, 90).expect("put acked");
    let get = kv.get(9).expect("get acked");
    assert!(
        matches!(get.outcome, Outcome::Get { value: Some(90), .. }),
        "`--reads log` sequences reads exactly as before"
    );
    let audit = engine.shutdown();
    assert_eq!(audit.committed_commands(), 2, "the read occupied a slot");
    assert!(audit.fast_reads().is_empty());
    assert_eq!(audit.lease_epoch(), 0, "no lease machinery runs at all");
    audit.check().expect("audit clean");
}

#[test]
fn fast_read_retries_replay_the_cached_ack() {
    use indulgent_model::RequestId;
    use indulgent_server::KvOp;
    let engine = KvEngine::spawn(lease_config(ReadPath::Lease));
    let mut kv = LocalKv::connect(&engine.handle(), ClientId(5));
    kv.put(2, 20).expect("put acked");
    let first = kv.call_with(RequestId(10), KvOp::Get { key: 2 }).expect("read acked");
    let retry = kv.call_with(RequestId(10), KvOp::Get { key: 2 }).expect("retry acked");
    assert_eq!(first, retry, "a read retry replays the original read index and value");
    let audit = engine.shutdown();
    assert_eq!(audit.fast_reads().len(), 1, "the retry served no second fast read");
    assert!(audit.dedup_hits() >= 1);
    audit.check().expect("audit clean");
}

#[test]
fn rebooted_leader_serves_only_under_a_fresh_epoch() {
    // The restart-storm safety case: a `kill -9`'d leader must not serve
    // fast reads on the promises made to its previous incarnation. Each
    // boot burns epoch+1 to disk before serving, so the killed
    // incarnation's epoch is invalidated by its successor's first act.
    let dir = std::env::temp_dir().join(format!("indulgent-lease-reboot-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = || {
        lease_config(ReadPath::Lease)
            .with_durability(indulgent_server::DurabilityConfig::new(&dir).with_snapshot_every(4))
    };

    let engine = KvEngine::spawn(config());
    let mut kv = LocalKv::connect(&engine.handle(), ClientId(6));
    kv.put(1, 11).expect("put acked");
    let read = kv.get(1).expect("fast read acked");
    assert!(matches!(read.outcome, Outcome::Read { value: Some(11), .. }));
    let first_epoch = lease::load_epoch(&shard_dir(&dir, 0)).expect("epoch burned");
    assert!(first_epoch >= 1, "serving burned an epoch first");
    drop(kv);
    engine.kill();

    // The stored epoch is exactly what the killed incarnation served
    // under — nothing newer was burned by dying.
    assert_eq!(
        lease::load_epoch(&shard_dir(&dir, 0)).expect("epoch survives the kill"),
        first_epoch
    );

    let engine = KvEngine::spawn(config());
    let mut kv = LocalKv::connect(&engine.handle(), ClientId(7));
    let read = kv.get(1).expect("fast read after reboot");
    assert!(matches!(read.outcome, Outcome::Read { value: Some(11), .. }));
    let second_epoch = lease::load_epoch(&shard_dir(&dir, 0)).expect("epoch re-burned");
    assert!(second_epoch > first_epoch, "the reboot invalidated the old epoch before serving");
    let audit = engine.shutdown();
    assert_eq!(audit.lease_epoch(), second_epoch);
    assert!(audit.fast_reads().iter().all(|r| r.epoch == second_epoch));
    audit.check().expect("audit clean across the reboot");
    std::fs::remove_dir_all(&dir).ok();
}

/// One randomized interleaving: a writer hammering shared keys while a
/// reader mixes private read-your-writes probes with shared-key reads,
/// under lease timings short enough to lapse and renew mid-run.
fn run_interleaving(ttl_micros: u64, renew_micros: u64, ops: u32) {
    let timing = LeaseConfig::default()
        .with_ttl(Duration::from_micros(ttl_micros))
        .with_renew_every(Duration::from_micros(renew_micros));
    let engine = KvEngine::spawn(
        EngineConfig::default_5()
            .with_batch_size(2)
            .with_pipeline_depth(3)
            .with_reads(ReadPath::Lease)
            .with_lease(timing),
    );
    let handle = engine.handle();
    let writer = std::thread::spawn({
        let handle = handle.clone();
        move || {
            let mut kv = LocalKv::connect(&handle, ClientId(100));
            for i in 0..ops {
                kv.put(u16::try_from(i % 4).unwrap(), i).expect("write acked");
            }
        }
    });
    let reader = std::thread::spawn(move || {
        let mut kv = LocalKv::connect(&handle, ClientId(200));
        for i in 0..ops {
            if i % 3 == 0 {
                // Read-your-writes on a private key nobody else touches.
                kv.put(1000, i).expect("private write acked");
                let got = kv.get(1000).expect("private read acked");
                let value = match got.outcome {
                    Outcome::Read { value, .. } | Outcome::Get { value, .. } => value,
                    other => panic!("unexpected outcome {other:?}"),
                };
                assert_eq!(value, Some(i), "a session reads its own writes");
            } else {
                // Shared-key read: any decided value is fine — the audit
                // replay decides whether it was fresh enough.
                let _ = kv.get(u16::try_from(i % 4).unwrap()).expect("shared read acked");
            }
        }
    });
    writer.join().expect("writer clean");
    reader.join().expect("reader clean");
    let audit = engine.shutdown();
    audit.check().expect("no stale fast read survived the replay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized lease expiry/renewal racing concurrent writes: every
    /// fast read the engine dares to serve must match the sequenced
    /// replay at its read index, whatever the timing.
    #[test]
    fn interleaved_lease_timings_never_serve_stale_reads(
        ttl_micros in 200u64..20_000,
        renew_div in 1u64..8,
        ops in 6u32..18,
    ) {
        run_interleaving(ttl_micros, ttl_micros / renew_div, ops);
    }
}
