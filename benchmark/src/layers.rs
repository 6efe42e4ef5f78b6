//! The per-layer metrics of a traced pass. Each layer is measured from
//! outside: a scrape or audit read-out of the traced run, or a short
//! isolation drive that calls the layer's public functions with that
//! pass's own inputs (its requests and acks, its audit's slot records,
//! its final store and session table).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use indulgent_log::{at_plus2_factory, at_plus2_reset, run_log_sim, ClientFrontend, IntakePolicy};
use indulgent_model::{BatchId, ClientId, Value};
use indulgent_obs::HistogramSnapshot;
use indulgent_runtime::{InstanceSpec, Session};
use indulgent_server::wire::{encode_frame, write_frame};
use indulgent_server::{
    AckRecord, FrameDecoder, FrameReader, KvEngine, KvOp, KvServer, KvService, LeaseFrame, LocalKv,
    Outcome as Ack, ReadPath, RemoteKv, ReplicaLeaseAgent, Request, Response, SessionEntry,
    ShardRouter, SlotRecord, Snapshot, Wal, WalError,
};
use indulgent_sim::{ModelKind, MultiShotRunner, Schedule};

use crate::gen::{Conn, OpStream, Pace};
use crate::logcrash::{self, system};
use crate::report::Outcome;
use crate::service::{with_scratch, Observed, HI, LO, PEAK};
use crate::spec::{ServiceSpec, DURABLE_COMMAND_CAP, KEYS, LOG_BATCH, LOG_INSTANCES};
use crate::stats::{hist_quantile, median, median_of, ns, peak_rss_mib, percentile};
use crate::trace::write_trace;

/// How long an isolation drive samples.
const DRIVE: Duration = Duration::from_millis(200);

/// Runs `pass` (which performs `ops` operations) repeatedly for
/// [`DRIVE`] and returns the median pass's nanoseconds per operation.
fn ns_per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    let began = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 3 || began.elapsed() < DRIVE {
        let t = Instant::now();
        pass();
        passes.push(ns(t.elapsed()) / ops.max(1) as f64);
    }
    median(&mut passes)
}

/// The codec layers, nanoseconds per frame or message.
struct Codec {
    wire_encode: f64,
    wire_decode: f64,
    bytes_per_op: f64,
    request_encode: f64,
    request_decode: f64,
    response_encode: f64,
    response_decode: f64,
}

impl Codec {
    /// Replays the pass's requests and acks through `wire` and `proto`.
    fn replay(requests: &[Request], acks: &[Response]) -> Codec {
        let payloads: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
        let ack_payloads: Vec<Vec<u8>> = acks.iter().map(Response::encode).collect();
        let mut stream = Vec::new();
        payloads.iter().for_each(|p| encode_frame(p, &mut stream));
        let ack_bytes: usize = ack_payloads.iter().map(|p| p.len() + 4).sum();
        let mut out = Vec::with_capacity(stream.len());
        Codec {
            wire_encode: ns_per_op(payloads.len(), || {
                out.clear();
                payloads.iter().for_each(|p| encode_frame(p, &mut out));
                black_box(&out);
            }),
            // The server reads its sockets in 4 KiB chunks; so does this.
            wire_decode: ns_per_op(payloads.len(), || {
                let mut decoder = FrameDecoder::new();
                for chunk in stream.chunks(4096) {
                    decoder.feed(chunk);
                    while let Ok(Some(frame)) = decoder.next_frame() {
                        black_box(frame);
                    }
                }
            }),
            bytes_per_op: (stream.len() + ack_bytes) as f64 / requests.len().max(1) as f64,
            request_encode: ns_per_op(requests.len(), || {
                requests.iter().for_each(|r| {
                    black_box(r.encode());
                });
            }),
            request_decode: ns_per_op(payloads.len(), || {
                payloads.iter().for_each(|p| {
                    let _ = black_box(Request::decode(p));
                });
            }),
            response_encode: ns_per_op(acks.len(), || {
                acks.iter().for_each(|a| {
                    black_box(a.encode());
                });
            }),
            response_decode: ns_per_op(ack_payloads.len(), || {
                ack_payloads.iter().for_each(|p| {
                    let _ = black_box(Response::decode(p));
                });
            }),
        }
    }

    fn total_us(&self) -> f64 {
        (self.wire_encode
            + self.wire_decode
            + self.request_encode
            + self.request_decode
            + self.response_encode
            + self.response_decode)
            / 1e3
    }
}

const FRONTDOOR_PROBES: usize = 2000;

/// What the TCP front door adds to one request: the p50 of window-1
/// lease reads through `RemoteKv` minus the same through `LocalKv`, on
/// one server.
fn frontdoor_us(spec: &ServiceSpec) -> Result<f64, String> {
    let spec = ServiceSpec { reads: ReadPath::Lease, ..*spec };
    let server = KvServer::bind("127.0.0.1:0", spec.engine_config(None))
        .map_err(|e| format!("front-door probe bind: {e}"))?;
    let probe = |kv: &mut dyn KvService| -> Result<f64, String> {
        kv.put(1, 1).map_err(|e| e.to_string())?;
        let mut rtts = Vec::with_capacity(FRONTDOOR_PROBES);
        for i in 0..FRONTDOOR_PROBES {
            let t = Instant::now();
            kv.get((i % 64) as u16).map_err(|e| e.to_string())?;
            rtts.push(ns(t.elapsed()) / 1e3);
        }
        Ok(percentile(&mut rtts, 0.50))
    };
    let probed = (|| {
        let local = probe(&mut LocalKv::connect(&server.engine(), ClientId(2)))?;
        let mut remote =
            RemoteKv::connect(server.addr(), ClientId(3)).map_err(|e| e.to_string())?;
        Ok::<f64, String>(probe(&mut remote)? - local)
    })();
    server.shutdown().check().map_err(|v| format!("front-door probe audit: {v}"))?;
    probed
}

/// The engine with no sockets: `EngineHandle::connect` +
/// `SubmitHandle::submit`.
struct EngineLocal {
    /// Closed loop at the workload's window.
    peak_cps: f64,
    acked: usize,
    /// Window-1 round trips.
    rtt_p50_us: f64,
    rtts: usize,
}

fn engine_local(spec: &ServiceSpec, ops: &OpStream) -> Result<EngineLocal, String> {
    let engine = KvEngine::spawn(spec.engine_config(None));
    let (submit, acks) = engine.handle().connect();
    let mut next = KEYS;
    let mut request = || {
        next += 1;
        Request { client: ClientId(4), ..ops.request(next) }
    };
    let await_ack = || {
        acks.recv_timeout(Duration::from_secs(10)).map_err(|_| "engine drive: no ack".to_string())
    };
    let (mut outstanding, mut acked, began) = (0, 0usize, Instant::now());
    while began.elapsed() < 2 * DRIVE {
        while outstanding < spec.window {
            submit.submit(request());
            outstanding += 1;
        }
        await_ack()?;
        (outstanding, acked) = (outstanding - 1, acked + 1);
    }
    let peak_cps = acked as f64 / began.elapsed().as_secs_f64();
    for _ in 0..outstanding {
        await_ack()?;
    }
    let mut rtts = Vec::new();
    let began = Instant::now();
    while began.elapsed() < 2 * DRIVE {
        let t = Instant::now();
        submit.submit(request());
        await_ack()?;
        rtts.push(ns(t.elapsed()) / 1e3);
    }
    drop(submit);
    engine.shutdown().check().map_err(|v| format!("engine drive audit: {v}"))?;
    Ok(EngineLocal { peak_cps, acked, rtt_p50_us: percentile(&mut rtts, 0.50), rtts: rtts.len() })
}

/// The batching intake alone: `submit` + `pop_sealed`, ns per command.
fn frontend_ns_per_cmd(ops: &OpStream) -> f64 {
    let commands = LOG_INSTANCES * LOG_BATCH as u64;
    let payloads: Vec<u64> = (KEYS..KEYS + commands).map(|k| ops.op(k).to_payload()).collect();
    ns_per_op(payloads.len(), || {
        let mut frontend =
            ClientFrontend::new(system().n(), LOG_BATCH).with_intake(IntakePolicy::Shared);
        for &p in &payloads {
            frontend.submit(p);
            while let Some(batch) = frontend.pop_sealed() {
                black_box(batch);
            }
        }
    })
}

/// The `log_crash` scenario on the deterministic simulator, instances/s.
fn sim_instances_per_s(ops: &OpStream) -> f64 {
    let frontend = logcrash::frontend(ops);
    1e9 / ns_per_op(LOG_INSTANCES as usize, || {
        let report =
            run_log_sim(system(), logcrash::log_config(), logcrash::scenario(), frontend.clone());
        black_box(report);
    })
}

/// The CPU price of one `A_{t+2}` decision on the threaded runtime with
/// instant links: `start_instance_recycled` → first decision, `depth`
/// instances in flight. Returns (instances/s, p50 µs, samples).
fn runtime_drive(depth: usize) -> (f64, f64, usize) {
    let config = system();
    let spec = InstanceSpec::synchronous(config);
    let mut session = Session::with_recycler(
        config,
        Duration::from_millis(2),
        at_plus2_factory(config),
        at_plus2_reset(),
    );
    // Indexed by instance id, which the session counts from 1.
    let mut started = vec![Instant::now()];
    let mut decided = vec![true];
    let mut latencies = Vec::new();
    let began = Instant::now();
    let mut in_flight = 0;
    while began.elapsed() < DRIVE {
        while in_flight < depth {
            let proposals = vec![Value::new(started.len() as u64); config.n()];
            started.push(Instant::now());
            decided.push(false);
            session.start_instance_recycled(&proposals, &spec);
            in_flight += 1;
        }
        let r = session.next_result();
        let i = r.instance as usize;
        if r.decision.is_some() && !decided[i] {
            decided[i] = true;
            latencies.push(ns(started[i].elapsed()) / 1e3);
            in_flight -= 1;
        }
    }
    let rate = latencies.len() as f64 / began.elapsed().as_secs_f64();
    (rate, percentile(&mut latencies, 0.50), latencies.len())
}

const MULTISHOT_INSTANCES: usize = 2000;

/// One failure-free `A_{t+2}` instance on the simulator's recycled
/// zero-allocation path, ns.
fn multishot_ns_per_instance() -> f64 {
    let config = system();
    let schedule = Schedule::failure_free(config, ModelKind::Es);
    let factory = at_plus2_factory(config);
    let reset = at_plus2_reset();
    let mut runner = MultiShotRunner::new(config.n());
    ns_per_op(MULTISHOT_INSTANCES, || {
        for i in 0..MULTISHOT_INSTANCES {
            let proposals = vec![Value::new(i as u64); config.n()];
            let outcome = runner.run_instance(
                &factory,
                &mut |r, p, v| reset(r, p, v),
                &proposals,
                &schedule,
                12,
            );
            black_box(outcome.expect("one proposal per replica"));
        }
    })
}

/// The slot records to replay through the WAL: the audit's own, or —
/// `log_crash` has no audit — the pass's commands as the log batched
/// them.
fn slot_records(obs: &Observed) -> Vec<SlotRecord> {
    let retained: Vec<SlotRecord> =
        obs.audit.shards.iter().flat_map(|s| s.slots.iter().cloned()).take(4096).collect();
    if !retained.is_empty() {
        return retained;
    }
    obs.requests
        .chunks(LOG_BATCH)
        .zip(obs.acks.chunks(LOG_BATCH))
        .enumerate()
        .map(|(slot, (requests, acks))| SlotRecord {
            slot: slot as u64 + 1,
            batch: BatchId(slot as u64),
            commands: requests
                .iter()
                .zip(acks)
                .map(|(r, &response)| AckRecord {
                    client: r.client,
                    request: r.request,
                    op: r.op,
                    response,
                })
                .collect(),
        })
        .collect()
}

const WAL_SYNCS: usize = 64;
const SNAPSHOT_WRITES: usize = 15;

/// The durability layer alone, on the checkout's file system.
struct Durability {
    records: usize,
    append_ns_per_record: f64,
    sync_p50_us: f64,
    bytes_per_cmd: f64,
    replay_ms: f64,
    snapshot_write_p50_us: f64,
    snapshot_bytes: usize,
}

impl Durability {
    /// Replays `records` through `Wal::append` / `sync` / `open`, then
    /// writes the state at the last checkpoint — the final store and the
    /// session table those records imply — through `Snapshot::write_to`.
    fn drive(
        records: &[SlotRecord],
        store: BTreeMap<u16, u32>,
        dir: &Path,
    ) -> Result<Durability, String> {
        let err = |e: WalError| format!("durability drive: {e}");
        let path = dir.join("wal.log");
        let (mut wal, _) = Wal::open(&path).map_err(err)?;
        let began = Instant::now();
        for rec in records {
            wal.append(rec).map_err(err)?;
        }
        let append_ns_per_record = ns(began.elapsed()) / records.len().max(1) as f64;
        let mut syncs = Vec::with_capacity(WAL_SYNCS);
        let mut commands: usize = records.iter().map(|r| r.commands.len()).sum();
        for rec in records.iter().cycle().take(WAL_SYNCS) {
            wal.append(rec).map_err(err)?;
            let t = Instant::now();
            wal.sync().map_err(err)?;
            syncs.push(ns(t.elapsed()) / 1e3);
            commands += rec.commands.len();
        }
        drop(wal);
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        let began = Instant::now();
        let (_, replay) = Wal::open(&path).map_err(err)?;
        let replay_ms = began.elapsed().as_secs_f64() * 1e3;
        if replay.records.len() != records.len() + WAL_SYNCS {
            return Err(format!("wal replay returned {} records", replay.records.len()));
        }

        // Bounded as a durable incarnation's table is (see the cap).
        let sessions: Vec<SessionEntry> = records
            .iter()
            .flat_map(|r| &r.commands)
            .map(|c| SessionEntry { client: c.client, request: c.request, response: c.response })
            .take(DURABLE_COMMAND_CAP as usize)
            .collect();
        let snapshot = Snapshot {
            applied_through: records.last().map_or(0, |r| r.slot),
            next_batch: records.len() as u64,
            committed: sessions.len() as u64,
            store,
            sessions,
        };
        let mut writes = Vec::with_capacity(SNAPSHOT_WRITES);
        for _ in 0..SNAPSHOT_WRITES {
            let t = Instant::now();
            snapshot.write_to(&dir.join("state.snap")).map_err(err)?;
            writes.push(ns(t.elapsed()) / 1e3);
        }
        Ok(Durability {
            records: records.len(),
            append_ns_per_record,
            sync_p50_us: percentile(&mut syncs, 0.50),
            bytes_per_cmd: bytes as f64 / commands.max(1) as f64,
            replay_ms,
            snapshot_write_p50_us: percentile(&mut writes, 0.50),
            snapshot_bytes: snapshot.to_framed_bytes().len(),
        })
    }
}

/// The generator against a null server: an echo loop built from
/// `FrameReader` and `Response::encode` that answers every request at
/// once. A service peak near this figure measured the generator.
fn null_peak_cps(ops: OpStream, window: u64) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::Builder::new()
        .name("bench-echo".into())
        .spawn(move || -> Result<(), String> {
            let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let mut out = stream.try_clone().map_err(|e| e.to_string())?;
            let mut reader = FrameReader::new(stream);
            let mut slot = 0;
            while let Ok(Some(frame)) = reader.read_frame() {
                let request = Request::decode(&frame).map_err(|e| e.to_string())?;
                slot += 1;
                let outcome = match request.op {
                    KvOp::Put { .. } => Ack::Put { slot },
                    KvOp::Get { .. } => Ack::Read { index: slot, value: None },
                };
                let ack = Response { request: request.request, shard: 0, outcome };
                if write_frame(&mut out, &ack.encode()).is_err() {
                    break;
                }
            }
            Ok(())
        })
        .map_err(|e| format!("spawn echo thread: {e}"))?;
    let driven = (|| {
        let mut conn = Conn::connect(addr, ops)?;
        conn.next = KEYS;
        let run = conn.run_phase(Pace::Closed { window, budget: u64::MAX }, 3 * DRIVE)?;
        if let Some(v) = conn.gate.violations.first() {
            return Err(format!("echo gate: {v}"));
        }
        Ok(run.acked() as f64 / (run.last_ack().max(1) as f64 / 1e9))
    })();
    // The connection is closed by now, so the echo loop has seen EOF.
    echo.join().map_err(|_| "echo thread panicked".to_string())??;
    driven
}

fn lease_agent_handle_ns() -> f64 {
    const CALLS: usize = 10_000;
    let mut agent = ReplicaLeaseAgent::new(0);
    let frame = LeaseFrame::Acquire { holder: 1, epoch: 1, ttl_micros: 2_000_000 };
    let now = Instant::now();
    ns_per_op(CALLS, || {
        (0..CALLS).for_each(|_| {
            let _ = black_box(agent.handle(black_box(&frame), now));
        });
    })
}

fn route_ns_per_key(requests: &[Request], shards: usize) -> f64 {
    let router = ShardRouter::new(u32::try_from(shards).expect("shard count fits u32"));
    ns_per_op(requests.len(), || {
        requests.iter().for_each(|r| {
            black_box(router.shard_of(black_box(r.op.key())));
        });
    })
}

const OBS_RECORDS: usize = 100_000;

fn obs_record_ns() -> f64 {
    let hist = indulgent_obs::Histogram::new();
    ns_per_op(OBS_RECORDS, || (0..OBS_RECORDS as u64).for_each(|v| hist.record(black_box(v * 37))))
}

/// `server_engine.checkpoints` from the process-wide registry dump.
fn checkpoints() -> f64 {
    indulgent_obs::dump_to_string()
        .lines()
        .find_map(|l| l.strip_prefix("server_engine.checkpoints "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Turns a traced pass into the per-layer metrics, in `PER_LAYER` order,
/// and writes its span tree.
pub fn per_layer(name: &str, seed: u64, e2e: &Outcome, obs: &Observed) -> Result<Outcome, String> {
    let (lo, hi, peak) = (&obs.phases[LO], &obs.phases[HI], &obs.phases[PEAK]);
    let e2e_of = |metric: &str| e2e.get(metric).unwrap_or(0.0);
    let p50_us = |h: &HistogramSnapshot| hist_quantile(h, 0.5) / 1e3;
    let mut m = Outcome { attempted: e2e.attempted, failed: e2e.failed, ..Outcome::default() };

    let null_peak = null_peak_cps(obs.ops, obs.spec.window)?;
    m.put("client.send_lag_p50_us", median_of(&hi.windows, |w| w.lag_p50_us), hi.windows.len());
    m.put("client.send_lag_p99_us", median_of(&hi.windows, |w| w.lag_p99_us), hi.windows.len());
    let hi_cpu = hi.cpu.busy;
    m.put("client.cpu_share", if hi_cpu > 0.0 { hi.client_cpu_s / hi_cpu } else { 0.0 }, 1);
    m.put("client.null_peak_cps", null_peak, 1);
    m.put("client.lat_lo_p99_ms", obs.lat_lo_p99_ms, lo.windows.len());
    m.put("client.lat_hi_p99_ms", obs.lat_hi_p99_ms, hi.windows.len());
    m.put("client.lat_peak_p50_ms", median_of(&peak.windows, |w| w.lat_p50_ms), peak.windows.len());
    m.put("client.backlog_windows", obs.backlog_windows as f64, hi.windows.len());
    // Only a socket workload's peak can be the generator's.
    if !peak.windows.is_empty() && e2e_of("peak_cps") > 0.7 * null_peak {
        m.notes.push(format!(
            "generator_bound: peak_cps {:.0} is above 0.7 x client.null_peak_cps {null_peak:.0}",
            e2e_of("peak_cps")
        ));
    }

    let codec = Codec::replay(&obs.requests, &obs.acks);
    let (requests, acks) = (obs.requests.len(), obs.acks.len());
    m.put("wire.encode_ns_per_frame", codec.wire_encode, requests);
    m.put("wire.decode_ns_per_frame", codec.wire_decode, requests);
    m.put("wire.bytes_per_op", codec.bytes_per_op, requests);
    m.put("proto.request_encode_ns", codec.request_encode, requests);
    m.put("proto.request_decode_ns", codec.request_decode, requests);
    m.put("proto.response_encode_ns", codec.response_encode, acks);
    m.put("proto.response_decode_ns", codec.response_decode, acks);

    let frontdoor = frontdoor_us(&obs.spec)?;
    m.put("server.frontdoor_us", frontdoor, FRONTDOOR_PROBES);
    m.put("server.threads", obs.threads, 1);
    m.put("server.sys_us_per_op", hi.cpu.sys * 1e6 / hi.acked.max(1) as f64, hi.acked as usize);
    m.put("server.rss_mb", peak_rss_mib(), 1);

    let local = engine_local(&obs.spec, &obs.ops)?;
    m.put("engine.local_peak_cps", local.peak_cps, local.acked);
    m.put("engine.local_rtt_p50_us", local.rtt_p50_us, local.rtts);
    // The stages of the lo phase: they are the budget of lat_lo_p50_ms.
    let stages = [
        ("engine.submit_seal_p50_us", &lo.scrape.submit_seal),
        ("engine.seal_decide_p50_us", &lo.scrape.seal_decide),
        ("engine.decide_apply_p50_us", &lo.scrape.decide_apply),
        ("engine.apply_ack_p50_us", &lo.scrape.apply_ack),
    ];
    for (metric, hist) in stages {
        m.put(metric, p50_us(hist), hist.count as usize);
    }
    let depth = &lo.scrape.seal_depth;
    m.put("engine.seal_depth_p50", hist_quantile(depth, 0.5), depth.count as usize);
    let slots = hi.scrape.slots;
    m.put("engine.cmds_per_slot", hi.scrape.committed as f64 / slots.max(1) as f64, slots as usize);
    m.put("engine.dedup_hits", obs.total.dedup_hits as f64, 1);
    m.put("engine.audit_check_ms", obs.audit_check_ms, 1);

    let commands = LOG_INSTANCES as usize * LOG_BATCH;
    m.put("log.frontend_ns_per_cmd", frontend_ns_per_cmd(&obs.ops), commands);
    m.put("log.sim_instances_per_s", sim_instances_per_s(&obs.ops), LOG_INSTANCES as usize);

    let (d1_rate, d1_p50, d1_n) = runtime_drive(1);
    let (d4_rate, _, d4_n) = runtime_drive(4);
    m.put("runtime.instances_per_s_d1", d1_rate, d1_n);
    m.put("runtime.instances_per_s_d4", d4_rate, d4_n);
    m.put("runtime.decide_p50_us", d1_p50, d1_n);

    let decisions: u64 = obs.round_hist.values().sum();
    let in_round = |r: u32| obs.round_hist.get(&r).copied().unwrap_or(0) as f64;
    let latest = obs.round_hist.keys().max().copied().unwrap_or(0);
    m.put("core.round2_share", in_round(2) / decisions.max(1) as f64, decisions as usize);
    m.put("core.decide_round_hist_r2", in_round(2), decisions as usize);
    m.put("core.decide_round_hist_r4", in_round(4), decisions as usize);
    m.put("core.decide_round_max", f64::from(latest), decisions as usize);
    m.put("sim.multishot_ns_per_instance", multishot_ns_per_instance(), MULTISHOT_INSTANCES);

    let records = slot_records(obs);
    let d =
        with_scratch("layers", |dir| Durability::drive(&records, obs.audit.final_store(), dir))?;
    let fsyncs = obs.total.wal_fsync.count;
    m.put("wal.append_ns_per_record", d.append_ns_per_record, d.records);
    m.put("wal.sync_p50_us", d.sync_p50_us, WAL_SYNCS);
    m.put("wal.fsync_count", fsyncs as f64, 1);
    let per_sync = if fsyncs > 0 { obs.total.committed as f64 / fsyncs as f64 } else { 0.0 };
    m.put("wal.cmds_per_sync", per_sync, fsyncs as usize);
    m.put("wal.bytes_per_cmd", d.bytes_per_cmd, d.records);
    m.put("wal.replay_ms", d.replay_ms, 1);
    m.put("snapshot.write_p50_us", d.snapshot_write_p50_us, SNAPSHOT_WRITES);
    m.put("snapshot.bytes", d.snapshot_bytes as f64, 1);
    m.put("snapshot.checkpoints", checkpoints(), 1);

    let reads = obs.total.reads_lease + obs.total.reads_quorum + obs.total.reads_sequenced;
    m.put(
        "lease.fast_read_share",
        obs.total.reads_lease as f64 / reads.max(1) as f64,
        reads as usize,
    );
    m.put("lease.reads_quorum", obs.total.reads_quorum as f64, 1);
    m.put("lease.reads_sequenced", obs.total.reads_sequenced as f64, 1);
    m.put("lease.agent_handle_ns", lease_agent_handle_ns(), 10_000);

    m.put("shard.route_ns_per_key", route_ns_per_key(&obs.requests, obs.spec.shards), requests);
    let mean = obs.shard_slots.iter().sum::<u64>() as f64 / obs.shard_slots.len().max(1) as f64;
    let imbalance = obs.shard_slots.iter().max().map_or(0.0, |&max| max as f64 / mean.max(1.0));
    m.put("shard.imbalance", imbalance, obs.shard_slots.len());
    m.put("obs.record_ns", obs_record_ns(), OBS_RECORDS);

    // What the measured stages explain of lat_lo_p50_ms; the rest is
    // itself a number.
    let attributed =
        frontdoor + stages.iter().map(|(_, h)| p50_us(h)).sum::<f64>() + codec.total_us();
    m.put("budget.attributed_us", attributed, 1);
    m.put("budget.unattributed_us", e2e_of("lat_lo_p50_ms") * 1e3 - attributed, 1);
    let plain = median(&mut obs.peak_plain_cps.clone());
    let traced = median(&mut obs.peak_traced_cps.clone());
    let overhead = if plain > 0.0 { (1.0 - traced / plain) * 100.0 } else { 0.0 };
    m.put("trace.overhead_pct", overhead, obs.peak_traced_cps.len());

    let path = write_trace(name, seed, &obs.root)?;
    m.notes.push(format!("spans written to {}", path.display()));
    Ok(m)
}
