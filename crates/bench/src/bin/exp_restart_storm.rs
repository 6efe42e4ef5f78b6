//! S2 — crash-recovery smoke against the real service *process*: spawn
//! `indulgent_server` with a durability directory, drive open-loop load
//! over framed TCP, `kill -9` it mid-load, restart it on the same
//! directory, and hold the recovered process to the service guarantees:
//!
//! * **exactly-once across the crash** — every request left in doubt at
//!   the kill (submitted, ack never seen) is replayed into the new
//!   incarnation and acknowledged exactly once; a *write* acked before
//!   the kill is re-sent as a dedup probe and must replay a
//!   byte-identical acknowledgement from the recovered session table
//!   (probes target writes because fast-read acks are deliberately not
//!   WAL-durable — a cross-crash read retry re-executes at a read index
//!   at least as new, which is linearizable but not byte-identical);
//! * **audit gate on the recovered process** — the in-engine
//!   [`ServiceAudit`](indulgent_server::ServiceAudit) replay check,
//!   fetched over the wire with [`remote_audit`], must report a clean,
//!   complete history spanning every incarnation, with exactly the
//!   storm's writes committed (reads ride the lease fast path and
//!   occupy no slots);
//! * **lease-epoch gate** — every incarnation burns a strictly newer
//!   lease epoch before serving, so after the storm the epoch equals
//!   the number of incarnations; a lease-state dump is written per
//!   phase (CI uploads them with the failure artifacts);
//! * **rejoin gate** — [`sync_from_peer`](indulgent_server::sync_from_peer)
//!   pulls a snapshot + log catch-up from the survivor, and a fresh
//!   server booted on the transferred state must answer every key
//!   identically.
//!
//! The server binary is found next to this executable (same target
//! profile) or via `INDULGENT_SERVER_BIN`; durable state lives under
//! `target/restart-storm/` (`RESTART_STORM_DIR` overrides) so CI can
//! upload it when a gate trips.
//!
//! ```text
//! cargo run --release --bin exp_restart_storm -- [--phases N] [--ops N]
//! ```

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use indulgent_model::{ClientId, RequestId};
use indulgent_server::{
    remote_audit, remote_lease_state, sync_all_from_peer, KvOp, KvService, Outcome, PipeClient,
    RemoteKv, Response,
};

const CLIENTS: u64 = 4;

/// Deterministic op mix over a small shared key space so incarnations
/// contend on the same keys and gets observe recovered writes.
fn op_for(c: u64, i: u64) -> KvOp {
    let key = ((c * 13 + i * 5) % 32) as u16;
    if (c + i).is_multiple_of(2) {
        KvOp::Put { key, value: (c * 1_000_000 + i) as u32 }
    } else {
        KvOp::Get { key }
    }
}

fn server_bin() -> PathBuf {
    if let Ok(path) = std::env::var("INDULGENT_SERVER_BIN") {
        return path.into();
    }
    let mut path = std::env::current_exe().expect("current exe");
    path.pop();
    path.push("indulgent_server");
    path
}

struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn spawn(dir: &Path, snapshot_every: u64, shards: u64) -> Server {
        let mut child = Command::new(server_bin())
            .arg("127.0.0.1:0")
            .arg("4")
            .arg("2")
            .arg("--dir")
            .arg(dir)
            .arg("--snapshot-every")
            .arg(snapshot_every.to_string())
            .arg("--shards")
            .arg(shards.to_string())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn indulgent_server (set INDULGENT_SERVER_BIN if it is not a sibling)");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("read listen line");
        // "indulgent_server listening on 127.0.0.1:PORT (...)"
        let addr = line
            .split_whitespace()
            .nth(3)
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
            .parse()
            .expect("parse listen address");
        Server { child, addr }
    }

    /// SIGKILL — the process gets no chance to flush or checkpoint.
    fn kill(mut self) {
        self.child.kill().expect("kill server");
        self.child.wait().expect("reap server");
    }
}

/// One client's history across incarnations.
#[derive(Default)]
struct SessionState {
    next: u64,
    ops: HashMap<u64, KvOp>,
    acked: HashMap<u64, Response>,
    /// Submitted before the last kill, ack never seen.
    in_doubt: Vec<u64>,
}

/// Drives one incarnation: replays dedup probes + in-doubt requests,
/// pours `new_ops` fresh requests per client, and either drains
/// everything (`finish`) or leaves roughly half the fresh load in flight
/// for the caller to kill. Returns the number of dedup probes verified.
fn run_phase(addr: SocketAddr, states: &mut [SessionState], new_ops: u64, finish: bool) -> u64 {
    let mut pipes: Vec<PipeClient> = (0..states.len())
        .map(|c| PipeClient::connect(addr, ClientId(c as u64)).expect("connect"))
        .collect();
    // In-flight per client: id -> the prior response if this is a replay
    // of an already-acked request (a dedup probe).
    let mut in_flight: Vec<HashMap<u64, Option<Response>>> =
        (0..states.len()).map(|_| HashMap::new()).collect();
    let mut probes = 0u64;

    for (c, st) in states.iter_mut().enumerate() {
        // Dedup probe: the most recent acked *write* must replay
        // byte-identically. Reads are excluded on purpose: fast-read
        // acks are not WAL-durable, so a cross-crash read retry is
        // re-served at a newer read index rather than replayed.
        if let Some((&id, resp)) = st
            .acked
            .iter()
            .filter(|(id, _)| matches!(st.ops[id], KvOp::Put { .. }))
            .max_by_key(|(id, _)| **id)
        {
            pipes[c].send(RequestId(id), st.ops[&id]).expect("send probe");
            in_flight[c].insert(id, Some(*resp));
        }
        for id in st.in_doubt.drain(..) {
            pipes[c].send(RequestId(id), st.ops[&id]).expect("replay in-doubt");
            in_flight[c].insert(id, None);
        }
    }

    let mut launched = vec![0u64; states.len()];
    let kill_target = states.len() as u64 * new_ops / 2;
    let mut acked_fresh = 0u64;
    loop {
        let mut all_launched = true;
        for (c, st) in states.iter_mut().enumerate() {
            if launched[c] < new_ops {
                let id = st.next;
                let op = op_for(c as u64, id);
                pipes[c].send(RequestId(id), op).expect("send");
                st.ops.insert(id, op);
                in_flight[c].insert(id, None);
                st.next += 1;
                launched[c] += 1;
            }
            all_launched &= launched[c] == new_ops;
            for ack in pipes[c].drain_acks().expect("drain acks") {
                let prior = in_flight[c]
                    .remove(&ack.request.0)
                    .unwrap_or_else(|| panic!("client {c}: unknown or duplicate ack {ack:?}"));
                if let Some(prev) = prior {
                    assert_eq!(ack, prev, "client {c}: replayed ack must be byte-identical");
                    probes += 1;
                } else {
                    acked_fresh += 1;
                }
                st.acked.insert(ack.request.0, ack);
            }
        }
        if finish {
            if all_launched && in_flight.iter().all(HashMap::is_empty) {
                break;
            }
        } else if acked_fresh >= kill_target {
            // Burst the rest of the load without draining, so the kill
            // lands with real requests in flight, then hand back.
            for (c, st) in states.iter_mut().enumerate() {
                while launched[c] < new_ops {
                    let id = st.next;
                    let op = op_for(c as u64, id);
                    pipes[c].send(RequestId(id), op).expect("burst send");
                    st.ops.insert(id, op);
                    in_flight[c].insert(id, None);
                    st.next += 1;
                    launched[c] += 1;
                }
                st.in_doubt = in_flight[c].keys().copied().collect();
                st.in_doubt.sort_unstable();
            }
            break;
        }
    }
    probes
}

fn value_of(resp: &Response) -> Option<u32> {
    match resp.outcome {
        Outcome::Get { value, .. } | Outcome::Read { value, .. } => value,
        Outcome::Put { .. } => panic!("expected a get outcome"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |name: &str, default: u64| {
        args.iter()
            .position(|a| a == name)
            .map(|i| args[i + 1].parse::<u64>().unwrap_or_else(|_| panic!("usage: {name} N")))
            .unwrap_or(default)
    };
    let phases = arg("--phases", 3).max(2);
    let new_ops = arg("--ops", 40).max(4);
    let snapshot_every = arg("--snapshot-every", 16).max(1);
    let shards = arg("--shards", 2).max(1);

    let root: PathBuf = std::env::var("RESTART_STORM_DIR")
        .unwrap_or_else(|_| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/restart-storm").into()
        })
        .into();
    let dir = root.join("primary");
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&dir).expect("create durability dir");

    let mut states: Vec<SessionState> = (0..CLIENTS).map(|_| SessionState::default()).collect();
    let mut probes = 0u64;
    let mut final_probes = 0u64;

    // Per-phase lease-state dump, one line per shard: written into the
    // storm directory so a tripped gate ships every incarnation's lease
    // view with the CI failure artifacts. The round trip also
    // synchronizes with the driver, so recovery (and every shard's epoch
    // burn) has finished once each shard answers. All shards boot
    // together, so their epochs must agree — the common value is
    // returned.
    let dump_lease = |phase: u64, addr: SocketAddr| -> u64 {
        let mut all = String::new();
        let mut epoch = None;
        for shard in 0..u32::try_from(shards).expect("shards fit u32") {
            let state =
                remote_lease_state(addr, shard, Duration::from_secs(30)).expect("lease state");
            all.push_str(&state.to_string());
            all.push('\n');
            if let Some(prev) = epoch.replace(state.epoch) {
                assert_eq!(prev, state.epoch, "shards booted together must burn matching epochs");
            }
        }
        let _ = std::fs::write(root.join(format!("lease-state-phase{phase}.txt")), &all);
        epoch.expect("at least one shard")
    };

    // ── The storm: kill -9 between every phase, recover on the same dir ──
    let mut server = Server::spawn(&dir, snapshot_every, shards);
    let mut epoch = dump_lease(0, server.addr);
    assert!(epoch >= 1, "the first incarnation burned an epoch before serving");
    for phase in 0..phases {
        let finish = phase + 1 == phases;
        let phase_probes = run_phase(server.addr, &mut states, new_ops, finish);
        probes += phase_probes;
        if finish {
            final_probes = phase_probes;
        } else {
            let in_doubt: usize = states.iter().map(|s| s.in_doubt.len()).sum();
            println!(
                "phase {}: killed -9 at {} with {in_doubt} requests in doubt (lease epoch {epoch})",
                phase + 1,
                server.addr
            );
            server.kill();
            server = Server::spawn(&dir, snapshot_every, shards);
            let reborn = dump_lease(phase + 1, server.addr);
            assert!(
                reborn > epoch,
                "phase {}: rebooted incarnation kept a stale lease epoch ({epoch} -> {reborn})",
                phase + 1
            );
            epoch = reborn;
        }
    }

    assert_eq!(
        epoch, phases,
        "each incarnation burns exactly one epoch: {phases} boots -> epoch {epoch}"
    );

    // ── Gate 1: exactly-once bookkeeping ──
    let total: u64 = states.iter().map(|s| s.next).sum();
    let acked: u64 = states.iter().map(|s| s.acked.len() as u64).sum();
    assert_eq!(acked, total, "every distinct request acked exactly once across the storm");
    assert!(probes >= phases - 1, "every restart verified at least one dedup probe");

    // ── Gate 2: the recovered process audits its combined history ──
    // Writes are the only slot consumers now: every read rode the lease
    // fast path, so committed-across-incarnations must equal the storm's
    // distinct puts exactly.
    let puts: u64 = states
        .iter()
        .flat_map(|s| s.ops.values())
        .filter(|op| matches!(op, KvOp::Put { .. }))
        .count() as u64;
    let summary = remote_audit(server.addr, Duration::from_secs(30)).expect("audit over the wire");
    assert!(summary.complete, "audit quiesced");
    assert!(summary.ok, "recovered process fails its replay audit");
    assert_eq!(summary.committed, puts, "distinct writes committed exactly once, reads off-log");
    assert!(summary.fast_reads > 0, "the final incarnation served reads off the log");
    assert_eq!(summary.lease_epoch, epoch, "the audit reports the serving epoch");
    // The dedup counter is per-incarnation state, so only the final
    // incarnation's probes (and replayed in-doubt requests that had
    // committed pre-kill) are visible in it.
    assert!(
        summary.dedup_hits >= final_probes,
        "dedup probes were absorbed by the recovered session table"
    );

    // ── Gate 3: rejoin — per-shard snapshot transfer + catch-up into a
    // fresh root (manifest included), then key-for-key agreement ──
    let sync_dir = root.join("synced");
    std::fs::create_dir_all(&sync_dir).expect("create sync dir");
    let through =
        sync_all_from_peer(server.addr, u32::try_from(shards).expect("shards fit"), &sync_dir)
            .expect("snapshot transfer");
    let replica = Server::spawn(&sync_dir, snapshot_every, shards);
    let mut a = RemoteKv::connect(server.addr, ClientId(900)).expect("connect survivor");
    let mut b = RemoteKv::connect(replica.addr, ClientId(901)).expect("connect rejoined");
    for key in 0..32u16 {
        let va = value_of(&a.get(key).expect("survivor get"));
        let vb = value_of(&b.get(key).expect("rejoined get"));
        assert_eq!(va, vb, "rejoined replica diverges at key {key}");
    }
    drop((a, b));
    replica.kill();
    server.kill();

    println!(
        "S2 — restart storm passed (phases {phases}, {shards} shards, {total} distinct commands, \
         {puts} writes, {} slots, {} fast reads, lease epoch {epoch}, {} dedup hits, \
         {probes} probes, synced through {through} total slots)",
        summary.slots, summary.fast_reads, summary.dedup_hits
    );
    std::fs::remove_dir_all(&root).ok();
}
