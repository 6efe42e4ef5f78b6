//! Integration tests of the networked replicated-KV service: the
//! layered Local/Remote differential and the fault cases the wire layer
//! introduces (clients dying mid-request, reconnect replays, slow-ack
//! retries racing their own first submission).

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use indulgent_model::{ClientId, RequestId};
use indulgent_server::wire::encode_frame;
use indulgent_server::{
    remote_lease_state, remote_stats, shard_dir, stats_request_frame, sync_all_from_peer,
    DurabilityConfig, EngineConfig, FrameReader, KvOp, KvServer, KvService, LocalKv, Outcome,
    PipeClient, ReadPath, RemoteKv, Request, Response, StatsReport, SyncFrame, TAG_STATS,
};

/// Deterministic sizing: batch of 1 so sequential calls sequence one
/// slot each and both layers must answer byte-identically.
fn deterministic() -> EngineConfig {
    EngineConfig::default_5().with_batch_size(1).with_pipeline_depth(2)
}

/// A scripted workload of puts and gets over a small key space.
fn script() -> Vec<KvOp> {
    script_of(30)
}

fn script_of(len: u64) -> Vec<KvOp> {
    (0..len)
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

/// Writes `requests` to `addr` in one `write` on a raw socket and reads
/// back `count` response frames, in arrival order; with `trailer`, that
/// frame follows the requests in the same write.
fn burst(
    addr: SocketAddr,
    requests: &[Request],
    trailer: Option<&[u8]>,
    count: usize,
) -> Vec<Vec<u8>> {
    let mut sock = TcpStream::connect(addr).expect("connect");
    let mut wire = Vec::new();
    for r in requests {
        encode_frame(&r.encode(), &mut wire);
    }
    if let Some(t) = trailer {
        encode_frame(t, &mut wire);
    }
    sock.write_all(&wire).expect("one write");
    sock.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut reader = FrameReader::new(sock);
    (0..count).map(|_| reader.read_frame().expect("a frame").expect("not EOF")).collect()
}

/// The tentpole differential: the same workload through the in-process
/// service layer, through the framed-TCP layer one call at a time, and
/// as one burst written to a raw socket in a single `write`, produces
/// *identical* responses — slots included, byte for byte — and every
/// run passes the full audit.
#[test]
fn local_and_remote_layers_answer_identically() {
    let ops = script_of(200);

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

    let burst_server = KvServer::bind("127.0.0.1:0", deterministic()).expect("bind");
    let requests: Vec<Request> = (0..)
        .zip(&ops)
        .map(|(i, &op)| Request { client: ClientId(42), request: RequestId(i), op })
        .collect();
    let burst_acks = burst(burst_server.addr(), &requests, None, ops.len());
    let burst_audit = burst_server.shutdown();
    burst_audit.check().expect("burst audit");

    assert_eq!(local_responses, remote_responses, "the transport must add no semantics");
    let local_bytes: Vec<Vec<u8>> = local_responses.iter().map(Response::encode).collect();
    assert_eq!(burst_acks, local_bytes, "a burst in one write must add no semantics");
    for audit in [&remote_audit, &burst_audit] {
        assert_eq!(local_audit.committed_commands(), audit.committed_commands());
        assert_eq!(local_audit.final_store(), audit.final_store());
    }
}

/// Valid requests and a garbage frame in one `write`: the connection is
/// dropped, but only after the requests ahead of the garbage went in —
/// each commits exactly once. The garbage is a request frame cut short,
/// so the reader fails while the valid requests are still queued.
#[test]
fn garbage_after_requests_in_one_write_commits_the_requests_once() {
    let server = KvServer::bind("127.0.0.1:0", deterministic()).expect("bind");
    let mut sock = TcpStream::connect(server.addr()).expect("connect");
    let mut wire = Vec::new();
    for i in 0..5u64 {
        let op = KvOp::Put { key: i as u16, value: 100 + i as u32 };
        encode_frame(
            &Request { client: ClientId(8), request: RequestId(i), op }.encode(),
            &mut wire,
        );
    }
    let mut cut =
        Request { client: ClientId(8), request: RequestId(5), op: KvOp::Get { key: 0 } }.encode();
    cut.truncate(5);
    encode_frame(&cut, &mut wire);
    sock.write_all(&wire).expect("one write");

    // The server hangs up: reads end in EOF (or a reset) within the
    // timeout, whatever acks made it out first.
    sock.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut sink = Vec::new();
    let hung_up = match sock.read_to_end(&mut sink) {
        Ok(_) => true,
        Err(e) => !matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
    };
    assert!(hung_up, "the connection is dropped");

    let audit = server.shutdown();
    audit.check().expect("audit clean");
    assert_eq!(audit.committed_commands(), 5, "every request ahead of the garbage committed");
    assert_eq!(audit.duplicate_applies(), 0);
}

/// Requests and a stats request pipelined in one `write` are all handled,
/// in order: the scrape sees every request ahead of it sealed.
#[test]
fn requests_and_a_stats_request_in_one_write_are_handled_in_order() {
    let server = KvServer::bind("127.0.0.1:0", deterministic()).expect("bind");
    let requests: Vec<Request> = (0..20u64)
        .map(|i| Request {
            client: ClientId(9),
            request: RequestId(i),
            op: KvOp::Put { key: i as u16, value: i as u32 },
        })
        .collect();
    let frames = burst(server.addr(), &requests, Some(&stats_request_frame(0)), 21);
    let (stats, acks): (Vec<_>, Vec<_>) =
        frames.iter().partition(|f| f.first() == Some(&TAG_STATS));
    let stats = StatsReport::decode(stats[0]).expect("one stats report");
    assert_eq!(stats.submit_seal.count, 20, "the scrape ran after the requests ahead of it");
    let acked: Vec<RequestId> =
        acks.iter().map(|f| Response::decode(f).expect("an ack").request).collect();
    assert_eq!(acked, (0..20).map(RequestId).collect::<Vec<_>>());
    server.shutdown().check().expect("audit clean");
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
        let mut doomed = PipeClient::connect(addr, client).expect("connect");
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

/// A client that pipelines requests and never reads its replies must not
/// stall the service. The driver writes every connection's output
/// itself; once the stuck client's socket buffers are full, a `write` to
/// it waits out the 20 ms send timeout with a partial send, the next
/// pass's write waits it out with nothing sent, and the connection is
/// shut down. The other client's slowest put was measured at 140 to
/// 200 ms in debug on 2 vCPUs and 80 ms in release: the two timeouts
/// plus the pass that answers all the stuck client's requests. The
/// bound, 1 s, leaves room for a loaded one-core box; a driver that
/// blocked on the stuck socket would hold every put for good.
#[test]
fn a_client_that_never_reads_is_disconnected_and_stalls_no_one() {
    const STALL_BOUND: Duration = Duration::from_secs(1);
    const SYNCS: usize = 300;
    let server = KvServer::bind("127.0.0.1:0", deterministic()).expect("bind");
    let addr = server.addr();
    let mut kv = RemoteKv::connect(addr, ClientId(1)).expect("connect");
    // A log of 200 slots: every state-transfer reply re-sends all of it.
    for i in 0..200u32 {
        kv.put(u16::try_from(i % 50).unwrap(), i).expect("put acked");
    }

    // The stuck client asks for the shard's state SYNCS times in one
    // write and never reads: the replies (about 40 KiB each) outgrow
    // what the kernel's socket buffers take in on loopback (about 4 MiB
    // was measured) several times over.
    let mut stuck = TcpStream::connect(addr).expect("connect");
    let mut wire = Vec::new();
    for _ in 0..SYNCS {
        encode_frame(&SyncFrame::Request { from_slot: 0, shard: 0 }.encode(), &mut wire);
    }
    stuck.write_all(&wire).expect("one write");

    let mut slowest = Duration::ZERO;
    for i in 0..300u32 {
        let start = Instant::now();
        kv.put(60, i).expect("put acked while the stuck client is served");
        slowest = slowest.max(start.elapsed());
    }
    assert!(slowest < STALL_BOUND, "a put waited {slowest:?} behind the stuck client");

    // The server hung up: reading now reaches the end of the stream (or
    // a reset) instead of every reply.
    let reply = sync_reply_len(addr);
    stuck.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut buf = vec![0u8; 1 << 16];
    let mut got = 0;
    loop {
        match stuck.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("the stuck client is still connected after {got} bytes: {e}"),
        }
    }
    assert!(got < SYNCS * reply, "{got} bytes of {} sent before the hang-up", SYNCS * reply);
    assert!(SYNCS * reply > 8 << 20, "the replies outgrow the socket buffers");
    drop(kv);
    server.shutdown().check().expect("audit clean");
}

/// The bytes of one reply to a shard-0 state-transfer request, read on
/// a connection of its own up to the closing `Done` frame.
fn sync_reply_len(addr: SocketAddr) -> usize {
    let mut sock = TcpStream::connect(addr).expect("connect");
    indulgent_server::wire::write_frame(
        &mut sock,
        &SyncFrame::Request { from_slot: 0, shard: 0 }.encode(),
    )
    .expect("write");
    sock.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut reader = FrameReader::new(sock);
    let mut len = 0;
    loop {
        let frame = reader.read_frame().expect("a frame").expect("not EOF");
        len += 4 + frame.len();
        if matches!(SyncFrame::decode(&frame), Ok(SyncFrame::Done { .. })) {
            return len;
        }
    }
}

/// A rejoin stream whose snapshot spans several 48 KiB chunks leaves the
/// driver in buffered writes, and still arrives whole: a service booted
/// on the transferred state answers every key as the peer does.
#[test]
fn a_multi_chunk_sync_stream_arrives_whole() {
    const PUTS: u64 = 3_000;
    let root = std::env::temp_dir().join(format!("indulgent-sync-chunks-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let peer_root = root.join("peer");
    let config = EngineConfig::default_5()
        .with_batch_size(64)
        .with_durability(DurabilityConfig::new(&peer_root).with_snapshot_every(4));
    let server = KvServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.addr();

    // Distinct keys and one session entry per put grow the checkpoint.
    let mut pipe = PipeClient::connect(addr, ClientId(9)).expect("connect");
    let value = |i: u64| u32::try_from(i * 3).unwrap();
    let (mut sent, mut acked) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs(60);
    while acked < PUTS {
        assert!(Instant::now() < deadline, "{acked} of {PUTS} puts acked");
        while sent < PUTS && sent - acked < 256 {
            let key = u16::try_from(sent).unwrap();
            pipe.send(RequestId(sent), KvOp::Put { key, value: value(sent) }).expect("send");
            sent += 1;
        }
        acked += pipe.drain_acks().expect("drain").len() as u64;
    }
    let snapshot =
        std::fs::metadata(shard_dir(&peer_root, 0).join("state.snap")).expect("a checkpoint");
    assert!(snapshot.len() > 2 * 48 * 1024, "{} snapshot bytes: at least 3 chunks", snapshot.len());

    let rejoined_root = root.join("rejoined");
    let applied = sync_all_from_peer(addr, 1, &rejoined_root).expect("sync");
    assert!(applied >= PUTS / 64, "{applied} slots transferred");
    drop(pipe);
    server.shutdown().check().expect("peer audit clean");

    let rejoined_config =
        EngineConfig::default_5().with_durability(DurabilityConfig::new(&rejoined_root));
    let rejoined = KvServer::bind("127.0.0.1:0", rejoined_config).expect("boot on the sync");
    let mut kv = LocalKv::connect(&rejoined.engine(), ClientId(10));
    for i in (0..PUTS).step_by(7) {
        let key = u16::try_from(i).unwrap();
        assert_eq!(value_of(&kv.get(key).expect("get acked")), Some(Some(value(i))), "key {key}");
    }
    drop(kv);
    rejoined.shutdown().check().expect("rejoined audit clean");
    std::fs::remove_dir_all(&root).ok();
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

    let mut pipe = PipeClient::connect(addr, ClientId(5)).expect("connect");
    for _ in 0..5 {
        pipe.send(RequestId(0), KvOp::Put { key: 1, value: 99 }).expect("send");
    }
    // Collect the ack (the linger timer seals the partial batch). All
    // duplicates were absorbed while in flight, so exactly one ack comes.
    let mut acks = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while acks.is_empty() && Instant::now() < deadline {
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

const FLEET_CONNS: u64 = 16;
const FLEET_REQUESTS: u64 = 8;
/// One request every 500 µs across the fleet, so a connection sends every
/// 8 ms: its write is usually acked before the read that follows it,
/// which is what makes a stale read index visible.
const FLEET_GAP: Duration = Duration::from_micros(500);

/// One connection of the fleet: alternates a `Put` with a `Get` of the
/// key it just wrote, each request sent when due whether or not earlier
/// acks came back, and checks every ack as it arrives — acked once, and
/// the linearization point (slot or read index) never behind the last
/// one this connection saw on the same shard.
fn drive_fleet_connection(addr: SocketAddr, c: u64, start_line: &Barrier) {
    let mut pipe = PipeClient::connect(addr, ClientId(c)).expect("connect");
    start_line.wait();
    let start = Instant::now();
    let due = |i: u64| FLEET_GAP * u32::try_from(c + i * FLEET_CONNS).expect("small schedule");
    let mut sent = 0u64;
    let mut pending = HashSet::new();
    let mut last_point: HashMap<u32, u64> = HashMap::new();
    while sent < FLEET_REQUESTS || !pending.is_empty() {
        assert!(start.elapsed() < Duration::from_secs(60), "conn {c}: {pending:?} unacked");
        while sent < FLEET_REQUESTS && start.elapsed() >= due(sent) {
            let key = ((c * 7 + sent / 2) % 32) as u16;
            let op = if sent.is_multiple_of(2) {
                KvOp::Put { key, value: (c * 100 + sent) as u32 }
            } else {
                KvOp::Get { key }
            };
            pipe.send(RequestId(sent), op).expect("send");
            pending.insert(RequestId(sent));
            sent += 1;
        }
        for ack in pipe.drain_acks().expect("drain") {
            assert!(pending.remove(&ack.request), "conn {c}: unknown or duplicate {ack:?}");
            let point = ack.outcome.slot();
            let last = last_point.entry(ack.shard).or_insert(0);
            assert!(
                point >= *last,
                "conn {c}: shard {} went backwards ({point} after {last})",
                ack.shard
            );
            *last = point;
        }
    }
}

/// A concurrent fleet of pipelined connections over two leased shard
/// groups, half the requests `Get`s: besides each connection's own
/// checks, the audit passes and every submitted command either committed
/// or was served as a fast read.
#[test]
fn concurrent_pipelined_fleet_keeps_per_connection_order() {
    let config = EngineConfig::default_5().with_reads(ReadPath::Lease).with_shards(2);
    let server = KvServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.addr();
    let start_line = Barrier::new(FLEET_CONNS as usize);
    std::thread::scope(|s| {
        for c in 0..FLEET_CONNS {
            let start_line = &start_line;
            s.spawn(move || drive_fleet_connection(addr, c, start_line));
        }
    });

    let audit = server.shutdown();
    audit.check().expect("audit clean");
    let fast_reads = audit.folded_fast_reads() + audit.fast_reads().len() as u64;
    assert!(fast_reads > 0, "the fleet exercised the fast path");
    assert_eq!(
        audit.committed_commands() + fast_reads,
        FLEET_CONNS * FLEET_REQUESTS,
        "every submitted command commits or fast-reads exactly once"
    );
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
