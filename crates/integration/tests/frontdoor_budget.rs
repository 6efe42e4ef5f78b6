//! The front door's budget: threads per socket connection, and frames
//! per socket read and per socket write at a fixed pipelining depth.
//! Both read process-wide state (`/proc/self/task` and the
//! `server_frontdoor` counters), so they live in a test binary of their
//! own, with one test: the harness starts a thread per test, which a
//! sibling test would start between two thread counts.

use std::time::{Duration, Instant};

use indulgent_model::{ClientId, RequestId};
use indulgent_server::{EngineConfig, KvOp, KvServer, KvService, PipeClient, RemoteKv};

#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("proc readable").count()
}

/// A `server_frontdoor` counter (0 before any server socket exists).
fn frontdoor(name: &str) -> u64 {
    indulgent_obs::counter_value("server_frontdoor", name).unwrap_or(0)
}

/// A socket connection costs one thread, its reader: the engine's driver
/// writes its acks, and a writer thread per connection would make it 2.
/// Each connection is counted once a put has been acked over it, when
/// its reader is up and the engine has registered it.
#[cfg(target_os = "linux")]
fn a_socket_connection_adds_exactly_one_thread() {
    let server = KvServer::bind("127.0.0.1:0", EngineConfig::default_5()).expect("bind");
    let before = live_threads();
    let mut first = RemoteKv::connect(server.addr(), ClientId(1)).expect("connect");
    first.put(1, 10).expect("put acked");
    let one = live_threads();
    let mut second = RemoteKv::connect(server.addr(), ClientId(2)).expect("connect");
    second.put(2, 20).expect("put acked");
    let two = live_threads();
    assert_eq!((one - before, two - one), (1, 1), "threads per socket connection");
    drop((first, second));
    server.shutdown().check().expect("audit clean");
}

/// Requests kept outstanding by the closed-loop client below.
const DEPTH: u64 = 64;
/// Requests the client sends in all.
const REQUESTS: u64 = 4_000;
/// The floor on acks per socket write at `DEPTH`.
///
/// The engine runs batches of 8 at pipeline depth 4, and the client
/// keeps 64 requests outstanding, so batches seal full and a driver pass
/// applies up to 4 slots of 8 acks each; the acks of a pass leave in one
/// write. Recorded on 2 vCPUs, 4 000 requests: 30.8 to 31.8 frames per
/// write in debug and 26.5 to 28.8 in release, under `taskset -c 0` too,
/// and 28.8 to 31.0 with a busy loop sharing that core (a slower pass
/// applies more slots). The floor, 20, is the lowest reading less a
/// quarter. It fails a write per ack (1.0), a write per slot (at most
/// 8), and the per-connection writer threads the driver's writes
/// replaced, which read 13.6 to 17.7 in release.
const MIN_FRAMES_PER_WRITE: f64 = 20.0;
/// The floor on requests per socket read at `DEPTH`.
///
/// The client writes each request with a `write` of its own, in bursts
/// as acks free its window, and a connection's reader takes everything
/// the socket holds in one `read` of up to 4 KiB (146 28-byte puts).
/// Recorded on 2 vCPUs, 4 000 requests: 12.5 to 18.0 frames per read in
/// debug and 6.2 to 9.2 in release, under `taskset -c 0` too, and 30 to
/// 50 with a busy loop sharing that core (a slower reader finds more
/// waiting). The floor, 4, is the lowest reading less about a third. It
/// fails a reader that reads one frame per `read` (1.0) and one that
/// reads a frame's header and its payload in separate `read`s (at most
/// 0.5).
const MIN_FRAMES_PER_READ: f64 = 4.0;

/// Requests arrive and acks leave in bursts: over a pipelined loopback
/// run, `frames_in / socket_reads` stays at or above
/// `MIN_FRAMES_PER_READ` and `frames_out / socket_writes` at or above
/// `MIN_FRAMES_PER_WRITE`.
fn frames_move_in_bursts() {
    let server = KvServer::bind("127.0.0.1:0", EngineConfig::default_5()).expect("bind");
    let mut pipe = PipeClient::connect(server.addr(), ClientId(7)).expect("connect");
    let (reads, requests) = (frontdoor("socket_reads"), frontdoor("frames_in"));
    let (writes, frames) = (frontdoor("socket_writes"), frontdoor("frames_out"));
    let (mut sent, mut acked) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs(120);
    while acked < REQUESTS {
        assert!(Instant::now() < deadline, "{acked} of {REQUESTS} acked");
        while sent < REQUESTS && sent - acked < DEPTH {
            let op = KvOp::Put { key: (sent % 100) as u16, value: sent as u32 };
            pipe.send(RequestId(sent), op).expect("send");
            sent += 1;
        }
        acked += pipe.drain_acks().expect("drain").len() as u64;
    }
    let reads = frontdoor("socket_reads") - reads;
    let requests = frontdoor("frames_in") - requests;
    let writes = frontdoor("socket_writes") - writes;
    let frames = frontdoor("frames_out") - frames;
    assert_eq!(requests, REQUESTS, "one frame per request");
    assert_eq!(frames, REQUESTS, "one frame per ack");
    let per_read = requests as f64 / reads as f64;
    assert!(
        per_read >= MIN_FRAMES_PER_READ,
        "{per_read:.2} frames per read ({requests} frames, {reads} reads), \
         floor {MIN_FRAMES_PER_READ}"
    );
    let per_write = frames as f64 / writes as f64;
    assert!(
        per_write >= MIN_FRAMES_PER_WRITE,
        "{per_write:.2} frames per write ({frames} frames, {writes} writes), \
         floor {MIN_FRAMES_PER_WRITE}"
    );
    drop(pipe);
    server.shutdown().check().expect("audit clean");
}

#[test]
fn front_door_stays_within_budget() {
    #[cfg(target_os = "linux")]
    a_socket_connection_adds_exactly_one_thread();
    frames_move_in_bursts();
}
