//! Integration tests of the networked replicated-KV service: the
//! layered Local/Remote differential and the fault cases the wire layer
//! introduces (clients dying mid-request, reconnect replays, slow-ack
//! retries racing their own first submission).

use std::net::TcpStream;
use std::time::Duration;

use indulgent_model::{ClientId, RequestId};
use indulgent_server::{
    remote_lease_state, remote_stats, EngineConfig, KvOp, KvServer, KvService, LocalKv, Outcome,
    PipeClient, ReadPath, RemoteKv, Response,
};

/// Deterministic sizing: batch of 1 so sequential calls sequence one
/// slot each and both layers must answer byte-identically.
fn deterministic() -> EngineConfig {
    EngineConfig::default_5().with_batch_size(1).with_pipeline_depth(2)
}

/// A scripted workload of puts and gets over a small key space.
fn script() -> Vec<KvOp> {
    (0..30u64)
        .map(|i| {
            let key = (i * 13 % 7) as u16;
            if i % 3 == 0 {
                KvOp::Get { key }
            } else {
                KvOp::Put { key, value: 1_000 + i as u32 }
            }
        })
        .collect()
}

fn drive<S: KvService>(s: &mut S, ops: &[KvOp]) -> Vec<Response> {
    ops.iter()
        .map(|op| match *op {
            KvOp::Put { key, value } => s.put(key, value).expect("put acked"),
            KvOp::Get { key } => s.get(key).expect("get acked"),
        })
        .collect()
}

/// The tentpole differential: the same workload through the in-process
/// service layer and through the framed-TCP layer produces *identical*
/// responses — slots included — and both runs pass the full audit.
#[test]
fn local_and_remote_layers_answer_identically() {
    let ops = script();

    let local_server = KvServer::bind("127.0.0.1:0", deterministic()).expect("bind");
    let mut local = LocalKv::connect(&local_server.engine(), ClientId(42));
    let local_responses = drive(&mut local, &ops);
    drop(local);
    let local_audit = local_server.shutdown();
    local_audit.check().expect("local audit");

    let remote_server = KvServer::bind("127.0.0.1:0", deterministic()).expect("bind");
    let mut remote = RemoteKv::connect(remote_server.addr(), ClientId(42)).expect("connect");
    let remote_responses = drive(&mut remote, &ops);
    drop(remote);
    let remote_audit = remote_server.shutdown();
    remote_audit.check().expect("remote audit");

    assert_eq!(local_responses, remote_responses, "the transport must add no semantics");
    assert_eq!(local_audit.committed_commands(), remote_audit.committed_commands());
    assert_eq!(local_audit.final_store(), remote_audit.final_store());
}

/// The value a response answered, whatever path served it (`None` for
/// writes).
fn value_of(r: &Response) -> Option<Option<u32>> {
    match r.outcome {
        Outcome::Get { value, .. } | Outcome::Read { value, .. } => Some(value),
        Outcome::Put { .. } => None,
    }
}

/// The read-path differential: with leases on, the same mixed workload
/// answers byte-identically through the in-process and framed-TCP
/// layers (read indices included), and value-identically to the
/// sequenced escape hatch — the fast path changes latency, never
/// answers.
#[test]
fn lease_reads_are_transport_and_mode_transparent() {
    let ops = script();
    let leased = || deterministic().with_reads(ReadPath::Lease);

    let local_server = KvServer::bind("127.0.0.1:0", leased()).expect("bind");
    let mut local = LocalKv::connect(&local_server.engine(), ClientId(42));
    let local_responses = drive(&mut local, &ops);
    drop(local);
    let local_audit = local_server.shutdown();
    local_audit.check().expect("local lease audit");
    assert!(!local_audit.fast_reads().is_empty(), "the workload exercised the fast path");

    let remote_server = KvServer::bind("127.0.0.1:0", leased()).expect("bind");
    let mut remote = RemoteKv::connect(remote_server.addr(), ClientId(42)).expect("connect");
    let remote_responses = drive(&mut remote, &ops);
    drop(remote);
    let remote_audit = remote_server.shutdown();
    remote_audit.check().expect("remote lease audit");

    assert_eq!(local_responses, remote_responses, "the transport must add no read semantics");

    // The sequenced escape hatch answers the same values for every read;
    // only the linearization metadata (slot vs read index) differs.
    let seq_server = KvServer::bind("127.0.0.1:0", deterministic()).expect("bind");
    let mut seq = LocalKv::connect(&seq_server.engine(), ClientId(42));
    let seq_responses = drive(&mut seq, &ops);
    drop(seq);
    seq_server.shutdown().check().expect("sequenced audit");
    for (leased, sequenced) in local_responses.iter().zip(&seq_responses) {
        assert_eq!(value_of(leased), value_of(sequenced), "fast reads answer the same values");
    }
}

/// The lease-state dump is queryable over the wire mid-service: mode,
/// epoch, and the read-path counters come back on a dedicated
/// connection (this is what CI failure artifacts capture).
#[test]
fn lease_state_is_queryable_over_the_wire() {
    let server =
        KvServer::bind("127.0.0.1:0", deterministic().with_reads(ReadPath::Lease)).expect("bind");
    let addr = server.addr();
    let mut kv = RemoteKv::connect(addr, ClientId(9)).expect("connect");
    kv.put(3, 33).expect("put");
    kv.get(3).expect("get");
    let status = remote_lease_state(addr, 0, Duration::from_secs(5)).expect("lease state");
    assert_eq!(status.mode, ReadPath::Lease.as_wire());
    assert_eq!((status.shard, status.shards), (0, 1));
    assert!(status.epoch >= 1, "an epoch was burned before serving");
    assert!(
        status.reads_lease + status.reads_quorum >= 1,
        "the read went down the fast path: {status}"
    );
    drop(kv);
    server.shutdown().check().expect("audit clean");
}

/// The observability differential: the same scripted workload through
/// the in-process layer and through framed TCP leaves *identical*
/// scraped counters — slots, committed commands, dedup hits, read-path
/// tallies, and every stage histogram's observation count. Latencies
/// differ run to run; what was counted must not.
#[test]
fn stats_scrapes_match_across_transports() {
    let ops = script();

    let local_server = KvServer::bind("127.0.0.1:0", deterministic()).expect("bind");
    let mut local = LocalKv::connect(&local_server.engine(), ClientId(42));
    drive(&mut local, &ops);
    let local_stats =
        remote_stats(local_server.addr(), 0, Duration::from_secs(5)).expect("local scrape");
    drop(local);
    local_server.shutdown().check().expect("local audit");

    let remote_server = KvServer::bind("127.0.0.1:0", deterministic()).expect("bind");
    let mut remote = RemoteKv::connect(remote_server.addr(), ClientId(42)).expect("connect");
    drive(&mut remote, &ops);
    let remote_stats_report =
        remote_stats(remote_server.addr(), 0, Duration::from_secs(5)).expect("remote scrape");
    drop(remote);
    remote_server.shutdown().check().expect("remote audit");

    let counters = |s: &indulgent_server::StatsReport| {
        (s.slots, s.committed, s.dedup_hits, s.reads_lease, s.reads_quorum, s.reads_sequenced)
    };
    assert_eq!(
        counters(&local_stats),
        counters(&remote_stats_report),
        "the transport must not change what gets counted"
    );
    assert_eq!(local_stats.committed, ops.len() as u64, "batch of 1: every op took a slot");
    for ((name, local_h), (_, remote_h)) in
        local_stats.stages().iter().zip(remote_stats_report.stages().iter())
    {
        assert_eq!(
            local_h.count, remote_h.count,
            "stage {name} observed a different number of events across transports"
        );
    }
    // Every sequenced command passed through every pipeline stage.
    assert_eq!(local_stats.submit_seal.count, ops.len() as u64);
    assert_eq!(local_stats.apply_ack.count, local_stats.slots);
    assert_eq!(local_stats.wal_fsync.count, 0, "no durability configured, no fsyncs");
}

/// A durable engine leaves its flight recording on disk: checkpoints
/// and the clean shutdown both dump the ring to `flight-<shard>.log`
/// in the shard's durability directory, so a post-mortem (CI failure
/// artifact, `kill -9` autopsy) always has the recent event history.
#[test]
fn flight_recorder_dumps_land_in_the_durability_dir() {
    let dir = std::env::temp_dir().join(format!("indulgent-flight-dump-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = deterministic()
        .with_durability(indulgent_server::DurabilityConfig::new(&dir).with_snapshot_every(4));
    let server = KvServer::bind("127.0.0.1:0", config).expect("bind");
    let mut kv = LocalKv::connect(&server.engine(), ClientId(77));
    for i in 0..10u32 {
        kv.put(u16::try_from(i % 3).unwrap(), i).expect("put acked");
    }
    drop(kv);
    server.shutdown().check().expect("audit clean");

    let path = dir.join("flight-0.log");
    let dump = std::fs::read_to_string(&path).expect("flight recording dumped");
    assert!(dump.starts_with("# flight-recorder:"), "dump carries its banner: {dump}");
    for label in ["slot_applied", "wal_sync", "checkpoint", "shutdown"] {
        assert!(dump.contains(label), "flight dump is missing {label} events:\n{dump}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Killing a client mid-request must neither hang the server nor apply
/// the command twice when the client reconnects with the same request
/// id. This is the satellite fault-injection case from the issue.
#[test]
fn killed_client_reconnect_applies_exactly_once() {
    let server = KvServer::bind("127.0.0.1:0", deterministic()).expect("bind");
    let addr = server.addr();

    // Client sends a put and dies before reading the ack — repeatedly,
    // at slightly different points of the request lifecycle.
    for (i, pause) in [0u64, 1, 5, 20].iter().enumerate() {
        let client = ClientId(100 + i as u64);
        let key = 50 + i as u16;
        let mut doomed =
            PipeClient::connect(addr, client, Duration::from_millis(1)).expect("connect");
        doomed.send(RequestId(0), KvOp::Put { key, value: 7_000 + i as u32 }).expect("send");
        // Let the command progress a varying distance (unbatched, batched,
        // possibly decided) before the socket dies.
        std::thread::sleep(Duration::from_millis(*pause));
        drop(doomed);

        // Reconnect as the same session and replay the in-doubt request.
        let mut revived = RemoteKv::connect_from(addr, client, RequestId(0)).expect("reconnect");
        let ack = revived
            .call_with(RequestId(0), KvOp::Put { key, value: 7_000 + i as u32 })
            .expect("acked");
        assert!(matches!(ack.outcome, Outcome::Put { .. }));
        // The session stays usable and observes its own write.
        match revived.get(key).expect("get acked").outcome {
            Outcome::Get { value, .. } => assert_eq!(value, Some(7_000 + i as u32)),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    let audit = server.shutdown();
    audit.check().expect("audit clean");
    // 4 sessions x (1 put applied once + 1 get).
    assert_eq!(audit.committed_commands(), 8, "no replayed put applied twice");
    assert_eq!(audit.duplicate_applies(), 0);
}

/// A connection that sends garbage (a non-protocol frame) is dropped
/// without wedging the server; well-behaved sessions keep working.
#[test]
fn garbage_frames_drop_the_connection_not_the_server() {
    let server = KvServer::bind("127.0.0.1:0", deterministic()).expect("bind");
    let addr = server.addr();

    {
        let mut sock = TcpStream::connect(addr).expect("connect");
        indulgent_server::wire::write_frame(&mut sock, b"not a protocol message").expect("write");
        // The server drops us; the socket sees EOF (or reset) eventually.
        sock.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut buf = [0u8; 16];
        use std::io::Read;
        let _ = sock.read(&mut buf);
    }

    let mut kv = RemoteKv::connect(addr, ClientId(1)).expect("connect");
    kv.put(1, 11).expect("server still serving");
    drop(kv);
    let audit = server.shutdown();
    audit.check().expect("audit clean");
    assert_eq!(audit.committed_commands(), 1);
}

/// Retries racing their own first submission (duplicate ids sent while
/// the original is still in flight) collapse to one slot.
#[test]
fn in_flight_duplicates_collapse_to_one_slot() {
    // A big batch + no other traffic keeps the first submission in the
    // open batch while duplicates arrive.
    let config = EngineConfig::default_5().with_batch_size(32).with_pipeline_depth(2);
    let server = KvServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.addr();

    let mut pipe =
        PipeClient::connect(addr, ClientId(5), Duration::from_millis(5)).expect("connect");
    for _ in 0..5 {
        pipe.send(RequestId(0), KvOp::Put { key: 1, value: 99 }).expect("send");
    }
    // Collect the ack (the linger timer seals the partial batch). All
    // duplicates were absorbed while in flight, so exactly one ack comes.
    let mut acks = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while acks.is_empty() && std::time::Instant::now() < deadline {
        acks.extend(pipe.drain_acks().expect("drain"));
    }
    assert_eq!(acks.len(), 1, "five duplicate submissions produce one ack");
    assert_eq!(acks[0].request, RequestId(0));
    drop(pipe);

    let audit = server.shutdown();
    audit.check().expect("audit clean");
    assert_eq!(audit.committed_commands(), 1, "one slot for five duplicate submissions");
    assert!(audit.dedup_hits() >= 4, "the in-flight duplicates were absorbed");
}

/// Sessions on both layers interleave against one server and every
/// acknowledged read is consistent with the audit's replay (the
/// linearizability gate at integration scale).
#[test]
fn mixed_local_and_remote_sessions_stay_linearizable() {
    let config = EngineConfig::default_5().with_batch_size(4).with_pipeline_depth(3);
    let server = KvServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.addr();
    let engine = server.engine();

    let remote_worker = std::thread::spawn(move || {
        let mut kv = RemoteKv::connect(addr, ClientId(1)).expect("connect");
        for i in 0..20u32 {
            kv.put((i % 5) as u16, i).expect("put");
            kv.get(((i + 1) % 5) as u16).expect("get");
        }
    });
    let local_worker = std::thread::spawn(move || {
        let mut kv = LocalKv::connect(&engine, ClientId(2));
        for i in 0..20u32 {
            kv.put((i % 5) as u16, 1_000 + i).expect("put");
            kv.get((i % 5) as u16).expect("get");
        }
    });
    remote_worker.join().expect("remote worker");
    local_worker.join().expect("local worker");

    let audit = server.shutdown();
    audit.check().expect("linearizability-by-replay holds across mixed layers");
    assert_eq!(audit.committed_commands(), 80);
}

/// The cross-shard differential: the same seeded multi-key workload
/// routed through 1, 2, and 4 shard groups materializes byte-identical
/// KV stores and answers every per-key read with the same value. Slots
/// are per-shard and so differ across shard counts; the *values* — the
/// linearized answers — may not.
#[test]
fn sharded_runs_match_single_group_key_for_key() {
    let ops: Vec<KvOp> = (0..60u64)
        .map(|i| {
            let key = (i * 29 % 23) as u16;
            if i % 3 == 0 {
                KvOp::Get { key }
            } else {
                KvOp::Put { key, value: 5_000 + i as u32 }
            }
        })
        .collect();

    let mut runs = Vec::new();
    for shards in [1usize, 2, 4] {
        let config = deterministic().with_shards(shards);
        let server = KvServer::bind("127.0.0.1:0", config).expect("bind");
        let mut kv = RemoteKv::connect(server.addr(), ClientId(7)).expect("connect");
        let responses = drive(&mut kv, &ops);
        drop(kv);
        let audit = server.shutdown();
        audit.check().expect("sharded audit clean");
        assert_eq!(audit.shards.len(), shards);
        runs.push((shards, responses, audit.final_store(), audit.committed_commands()));
    }

    let (_, baseline_responses, baseline_store, baseline_committed) = &runs[0];
    for (shards, responses, store, committed) in &runs[1..] {
        assert_eq!(
            store, baseline_store,
            "{shards}-shard run materializes a different store than the single group"
        );
        assert_eq!(committed, baseline_committed);
        for (op, (sharded, single)) in ops.iter().zip(responses.iter().zip(baseline_responses)) {
            assert_eq!(
                value_of(sharded),
                value_of(single),
                "{op:?} answered differently through {shards} shards"
            );
        }
    }
}
