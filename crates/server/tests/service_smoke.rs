//! In-crate smoke tests of the engine + server stack (the heavier
//! differential and fault-injection suites live in
//! `crates/integration/tests/server.rs`).

use std::time::{Duration, Instant};

use indulgent_model::{ClientId, RequestId};
use indulgent_runtime::DelayModel;
use indulgent_server::{
    EngineConfig, KvEngine, KvOp, KvServer, KvService, LocalKv, Outcome, RemoteKv, ServiceError,
};

/// Small, deterministic engine sizing for tests: batch of 1 so every
/// request occupies its own slot immediately.
fn test_config() -> EngineConfig {
    EngineConfig::default_5().with_batch_size(1).with_pipeline_depth(2)
}

#[test]
fn local_session_reads_its_own_writes() {
    let engine = KvEngine::spawn(test_config());
    let mut kv = LocalKv::connect(&engine.handle(), ClientId(1));
    let put = kv.put(7, 42).expect("put acked");
    let get = kv.get(7).expect("get acked");
    match (put.outcome, get.outcome) {
        (Outcome::Put { slot: ps }, Outcome::Get { slot: gs, value }) => {
            assert_eq!(value, Some(42));
            assert!(gs > ps, "the read is sequenced after the write");
        }
        other => panic!("unexpected outcomes: {other:?}"),
    }
    let audit = engine.shutdown();
    assert_eq!(audit.committed_commands(), 2);
    audit.check().expect("audit clean");
}

#[test]
fn duplicate_request_ids_apply_once() {
    let engine = KvEngine::spawn(test_config());
    let mut kv = LocalKv::connect(&engine.handle(), ClientId(3));
    let first = kv.call_with(RequestId(0), KvOp::Put { key: 1, value: 10 }).expect("acked");
    // Same (client, request) again: the cached ack replays, no new slot.
    let retry = kv.call_with(RequestId(0), KvOp::Put { key: 1, value: 10 }).expect("acked");
    assert_eq!(first, retry, "retries replay the original acknowledgement");
    let audit = engine.shutdown();
    assert_eq!(audit.committed_commands(), 1, "the retry did not re-apply");
    assert!(audit.dedup_hits() >= 1);
    audit.check().expect("audit clean");
}

#[test]
fn remote_session_matches_local_semantics_over_tcp() {
    let server = KvServer::bind("127.0.0.1:0", test_config()).expect("bind");
    let addr = server.addr();
    let mut remote = RemoteKv::connect(addr, ClientId(7)).expect("connect");
    remote.put(5, 55).expect("put over tcp");
    let got = remote.get(5).expect("get over tcp");
    match got.outcome {
        Outcome::Get { value, .. } => assert_eq!(value, Some(55)),
        other => panic!("unexpected outcome: {other:?}"),
    }
    // A local session against the same engine observes the write too.
    let mut local = LocalKv::connect(&server.engine(), ClientId(8));
    let local_got = local.get(5).expect("get locally");
    match local_got.outcome {
        Outcome::Get { value, .. } => assert_eq!(value, Some(55)),
        other => panic!("unexpected outcome: {other:?}"),
    }
    drop((remote, local));
    let audit = server.shutdown();
    assert_eq!(audit.committed_commands(), 3);
    audit.check().expect("audit clean");
}

#[test]
fn batched_pipeline_commits_everything_on_shutdown() {
    // Bigger batches + linger: interleave many clients, rely on the
    // shutdown drain to seal the trailing partial batch.
    let engine =
        KvEngine::spawn(EngineConfig::default_5().with_batch_size(4).with_pipeline_depth(3));
    let handle = engine.handle();
    let mut sessions: Vec<LocalKv> =
        (0..3).map(|c| LocalKv::connect(&handle, ClientId(c))).collect();
    for round in 0..5u32 {
        for kv in &mut sessions {
            kv.put(round as u16, round * 100 + kv.client().0 as u32).expect("put acked");
        }
    }
    let audit = engine.shutdown();
    assert_eq!(audit.committed_commands(), 15);
    audit.check().expect("audit clean");
}

#[test]
fn engine_drains_within_a_bounded_shutdown() {
    // Shutdown with work still in the open batch: the drain seals and
    // commits it rather than hanging.
    let engine =
        KvEngine::spawn(EngineConfig::default_5().with_batch_size(64).with_pipeline_depth(2));
    let handle = engine.handle();
    let (submit, acks) = handle.connect();
    use indulgent_server::Request;
    assert!(submit.submit(Request {
        client: ClientId(1),
        request: RequestId(0),
        op: KvOp::Put { key: 1, value: 1 },
    }));
    // Don't wait for the ack; shut down immediately.
    let audit = engine.shutdown();
    assert_eq!(audit.committed_commands(), 1, "open batch sealed on shutdown");
    audit.check().expect("audit clean");
    // The ack was still delivered before the drain finished.
    let ack = acks.recv_timeout(Duration::from_secs(1)).expect("ack delivered");
    let indulgent_server::Outbound::Ack(resp) = ack else { panic!("expected an ack, got {ack:?}") };
    assert_eq!(resp.request, RequestId(0));
}

#[test]
fn a_call_waiting_on_a_killed_engine_reports_disconnected() {
    // Replica links slower than the call's 10 s timeout: no instance
    // decides, so the put is still waiting for its ack when the engine
    // dies under it.
    let config = test_config().with_delays(DelayModel::Uniform { delay: Duration::from_secs(10) });
    let engine = KvEngine::spawn(config);
    let mut kv = LocalKv::connect(&engine.handle(), ClientId(1));
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        engine.kill();
    });
    let start = Instant::now();
    let waited = kv.put(1, 1);
    assert!(
        matches!(waited, Err(ServiceError::Disconnected)),
        "a dead engine is not a slow one: {waited:?}"
    );
    assert!(start.elapsed() < Duration::from_secs(5), "failed after {:?}", start.elapsed());
    killer.join().expect("kill returns");
    let next = kv.put(2, 2);
    assert!(matches!(next, Err(ServiceError::Disconnected)), "next call: {next:?}");
}
