//! The four service workloads: set-up, lo / hi / peak phases against a
//! real `KvServer` over TCP, the recovery cycles, and the correctness
//! gate (server-side replay audit plus client-side accounting).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use indulgent_server::{
    remote_lease_state, remote_stats, KvServer, ReadPath, Request, Response, ShardedAudit,
    StatsReport,
};

use crate::alloc::peak_heap_mib;
use crate::gen::{window_stat, Conn, OpStream, Pace, WindowStat};
use crate::report::Outcome;
use crate::spec::{
    ServiceSpec, DURABLE_COMMAND_CAP, IN_WINDOW_ACK_SHARE, KEYS, RECOVERY_CYCLES, TRACED_WINDOWS,
    WARM_UP, WINDOWS,
};
use crate::stats::{median, median_of, splitmix64, thread_count, Cpu};
use crate::trace::{out_dir, Span};

/// One invocation's knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Seconds of measurement, split evenly over the phases' windows.
    pub seconds: f64,
    pub trace: bool,
}

impl Params {
    /// Windows per phase and the length of one.
    #[must_use]
    pub fn windows(&self) -> (usize, Duration) {
        let window = Duration::from_secs_f64(self.seconds / (3 * WINDOWS) as f64);
        (if self.trace { TRACED_WINDOWS } else { WINDOWS }, window)
    }
}

const PHASES: [&str; 3] = ["lo", "hi", "peak"];
pub const LO: usize = 0;
pub const HI: usize = 1;
pub const PEAK: usize = 2;

/// What one phase accumulated over its windows (and, for
/// `write_durable`, over its incarnations).
#[derive(Debug)]
pub struct PhaseAcc {
    pub windows: Vec<WindowStat>,
    pub cpu: Cpu,
    pub client_cpu_s: f64,
    pub acked: u64,
    /// The server's stage histograms and counters over the phase.
    pub scrape: StatsReport,
}

/// What a run observed, for the layer drives of a traced pass to read
/// out and replay. `log_crash` fills in what a socket-free run has.
#[derive(Debug)]
pub struct Observed {
    /// The service configuration the isolation drives run with.
    pub spec: ServiceSpec,
    pub ops: OpStream,
    /// Indexed by [`LO`], [`HI`], [`PEAK`].
    pub phases: Vec<PhaseAcc>,
    /// Slots applied per shard over the run.
    pub shard_slots: Vec<u64>,
    /// Counters over the whole run (all phases, all incarnations).
    pub total: StatsReport,
    /// The audit with the most retained slot records.
    pub audit: ShardedAudit,
    /// Round in which each correct replica first decided → how often.
    pub round_hist: BTreeMap<u32, u64>,
    /// The acks of the traced hi phase in arrival order, and the
    /// requests they answer.
    pub acks: Vec<Response>,
    pub requests: Vec<Request>,
    pub lat_lo_p99_ms: f64,
    pub lat_hi_p99_ms: f64,
    pub audit_check_ms: f64,
    /// Live threads of the process while the server ran.
    pub threads: f64,
    /// Hi windows with a growing backlog.
    pub backlog_windows: u64,
    /// Closed-loop throughput of the peak windows that kept per-request
    /// rows, and of those that did not.
    pub peak_traced_cps: Vec<f64>,
    pub peak_plain_cps: Vec<f64>,
    pub root: Span,
}

impl Observed {
    /// Nothing observed yet.
    #[must_use]
    pub fn new(name: &str, spec: ServiceSpec, ops: OpStream) -> Self {
        let shards = u32::try_from(spec.shards).expect("shard count fits u32");
        let phase = || PhaseAcc {
            windows: Vec::new(),
            cpu: Cpu::default(),
            client_cpu_s: 0.0,
            acked: 0,
            scrape: StatsReport::zero(0, shards),
        };
        Observed {
            spec,
            ops,
            phases: vec![phase(), phase(), phase()],
            shard_slots: Vec::new(),
            total: StatsReport::zero(0, shards),
            audit: ShardedAudit { shards: Vec::new() },
            round_hist: BTreeMap::new(),
            acks: Vec::new(),
            requests: Vec::new(),
            lat_lo_p99_ms: 0.0,
            lat_hi_p99_ms: 0.0,
            audit_check_ms: 0.0,
            threads: 0.0,
            backlog_windows: 0,
            peak_traced_cps: Vec::new(),
            peak_plain_cps: Vec::new(),
            root: Span { name: name.into(), ..Span::default() },
        }
    }
}

/// Requests sent and acked over every connection of the run.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    acked: u64,
}

impl Tally {
    fn absorb(&mut self, conn: &Conn) {
        self.attempted += conn.attempted;
        self.acked += conn.acked;
    }
}

/// A scratch directory under `benchmark/out`, removed on success and
/// kept (path printed) when a gate fails.
fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = out_dir().join(format!(
        "tmp-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn with_scratch<T>(
    tag: &str,
    body: impl FnOnce(&Path) -> Result<T, String>,
) -> Result<T, String> {
    let dir = scratch_dir(tag)?;
    match body(&dir) {
        Ok(v) => {
            let _ = std::fs::remove_dir_all(&dir);
            Ok(v)
        }
        Err(e) => Err(format!("{e} (state kept in {})", dir.display())),
    }
}

fn bind(spec: &ServiceSpec, dir: Option<&Path>) -> Result<KvServer, String> {
    KvServer::bind("127.0.0.1:0", spec.engine_config(dir)).map_err(|e| format!("bind: {e}"))
}

/// All shards' scrapes folded into one report, plus slots per shard.
fn scrape(server: &KvServer, spec: &ServiceSpec) -> Result<(StatsReport, Vec<u64>), String> {
    let shards = u32::try_from(spec.shards).expect("shard count fits u32");
    let mut merged = StatsReport::zero(0, shards);
    let mut slots = Vec::new();
    for shard in 0..shards {
        let one = remote_stats(server.addr(), shard, Duration::from_secs(5))
            .map_err(|e| format!("stats scrape of shard {shard}: {e}"))?;
        slots.push(one.slots);
        merged.merge(&one);
    }
    Ok((merged, slots))
}

/// `after − before`, counter by counter and bucket by bucket.
fn since(after: &StatsReport, before: &StatsReport) -> StatsReport {
    StatsReport {
        slots: after.slots - before.slots,
        committed: after.committed - before.committed,
        dedup_hits: after.dedup_hits - before.dedup_hits,
        reads_lease: after.reads_lease - before.reads_lease,
        reads_quorum: after.reads_quorum - before.reads_quorum,
        reads_sequenced: after.reads_sequenced - before.reads_sequenced,
        submit_seal: after.submit_seal.since(&before.submit_seal),
        seal_decide: after.seal_decide.since(&before.seal_decide),
        decide_apply: after.decide_apply.since(&before.decide_apply),
        apply_ack: after.apply_ack.since(&before.apply_ack),
        wal_fsync: after.wal_fsync.since(&before.wal_fsync),
        seal_depth: after.seal_depth.since(&before.seal_depth),
        ..*after
    }
}

/// The state of one workload run.
struct Run<'a> {
    spec: &'a ServiceSpec,
    params: Params,
    windows: usize,
    window: Duration,
    epoch: Instant,
    tally: Tally,
    failed: u64,
    setups: Vec<f64>,
    recoveries: Vec<f64>,
    obs: Observed,
}

impl Run<'_> {
    /// Binds a server, connects, preloads every key closed-loop, waits
    /// for lease mode where the workload reads on leases, and warms up
    /// at `rate_lo`. The elapsed time is one `setup_s` sample.
    fn start(&mut self, ops: OpStream, dir: Option<&Path>) -> Result<(KvServer, Conn), String> {
        let began = Instant::now();
        let server = bind(self.spec, dir)?;
        let warmed = (|| {
            let mut conn = Conn::connect(server.addr(), ops)?;
            let preload = conn.run_phase(
                Pace::Closed { window: self.spec.window, budget: KEYS },
                Duration::from_secs(60),
            )?;
            if preload.unacked() > 0 {
                return Err(format!("preload: {} keys never acked", preload.unacked()));
            }
            if self.spec.reads == ReadPath::Lease {
                await_lease(&server, self.spec)?;
            }
            let warm = conn.run_phase(Pace::Open { rate: self.spec.rate_lo }, WARM_UP)?;
            self.failed += warm.unacked();
            Ok(conn)
        })();
        match warmed {
            Ok(conn) => {
                self.setups.push(began.elapsed().as_secs_f64());
                Ok((server, conn))
            }
            Err(e) => {
                server.kill();
                Err(e)
            }
        }
    }

    /// Runs one window of phase `p` on `conn` and folds it into the
    /// phase's accumulator. `traced` keeps the per-request rows and acks,
    /// scrapes the server around the window and records its span.
    fn measure(
        &mut self,
        server: &KvServer,
        conn: &mut Conn,
        (p, traced): (usize, bool),
    ) -> Result<(), String> {
        let mut window = self.window;
        // A durable incarnation leaves one command for the recovery probe.
        let room = if self.spec.durable {
            DURABLE_COMMAND_CAP.saturating_sub(conn.attempted + 1)
        } else {
            u64::MAX
        };
        let pace = if p == PEAK {
            // A fixed count, not a fixed time: every run then applies
            // the same commands, so its memory is comparable.
            let budget = (self.spec.peak_requests as f64 * window.as_secs_f64()) as u64;
            if room < 2 * self.spec.window {
                return Err(durable_cap_hit(conn.attempted));
            }
            Pace::Closed { window: self.spec.window, budget: budget.min(room) }
        } else {
            let rate = if p == LO { self.spec.rate_lo } else { self.spec.rate_hi };
            // A window the cap cannot hold is cut short, not run into
            // the snapshot panic.
            window = window.min(Duration::from_secs_f64(room as f64 / rate as f64));
            if room < rate / 10 {
                return Err(durable_cap_hit(conn.attempted));
            }
            Pace::Open { rate }
        };
        let before = if traced { Some(scrape(server, self.spec)?.0) } else { None };
        conn.gate.keep(traced && p == HI);
        let began = Instant::now();
        // A closed loop ends on its count; the time is a safety net.
        let limit = if p == PEAK { 8 * window } else { window };
        let run = conn.run_phase(pace, limit)?;
        if p == PEAK {
            window = Duration::from_nanos(run.last_ack());
        }
        self.failed += run.unacked();
        let stat = window_stat(&run, window);
        match p {
            HI => {
                let backlog =
                    (stat.acked_inside as f64) < IN_WINDOW_ACK_SHARE * stat.offered as f64;
                self.obs.backlog_windows += u64::from(backlog);
                let requests = conn.gate.kept.iter().map(|a| conn.ops.request(a.request.0));
                self.obs.requests.extend(requests);
                self.obs.acks.append(&mut conn.gate.kept);
                self.obs.threads = thread_count();
            }
            PEAK if traced => self.obs.peak_traced_cps.push(stat.cps),
            PEAK => self.obs.peak_plain_cps.push(stat.cps),
            _ => {}
        }
        let acc = &mut self.obs.phases[p];
        acc.windows.push(stat);
        acc.cpu += run.cpu;
        acc.client_cpu_s += run.client_cpu_s;
        acc.acked += run.acked();
        if let Some(before) = before {
            acc.scrape.merge(&since(&scrape(server, self.spec)?.0, &before));
            let mut span = Span::phase(PHASES[p], self.epoch, began, &run, window);
            span.count("acked", run.acked() as f64);
            self.obs.root.children.push(span);
        }
        Ok(())
    }

    /// Adds the server's whole-life counters to the run's totals.
    fn absorb_totals(&mut self, server: &KvServer) -> Result<(), String> {
        let (total, slots) = scrape(server, self.spec)?;
        self.obs.total.merge(&total);
        self.obs.shard_slots.resize(slots.len(), 0);
        self.obs.shard_slots.iter_mut().zip(&slots).for_each(|(a, s)| *a += s);
        Ok(())
    }

    /// Stops the server cleanly, runs the replay audit, and squares the
    /// audit's counts with what the clients saw acked.
    fn finish(&mut self, server: KvServer, tally: Tally) -> Result<(), String> {
        let audit = server.shutdown();
        let began = Instant::now();
        audit.check().map_err(|v| format!("service audit: {v}"))?;
        self.obs.audit_check_ms += began.elapsed().as_secs_f64() * 1e3;
        let fast_reads = audit.folded_fast_reads() + audit.fast_reads().len() as u64;
        let served = audit.committed_commands() + fast_reads;
        // Every acked request was committed or fast-read exactly once;
        // a request that went unacked may or may not have been.
        if served < tally.acked || served > tally.attempted {
            return Err(format!(
                "accounting: {} committed + {fast_reads} fast reads, but {} acked of {} sent",
                audit.committed_commands(),
                tally.acked,
                tally.attempted
            ));
        }
        if audit.duplicate_applies() > 0 {
            return Err(format!("{} batches applied twice", audit.duplicate_applies()));
        }
        for shard in &audit.shards {
            for row in &shard.replica_decisions {
                for d in row.iter().flatten() {
                    *self.obs.round_hist.entry(d.round.get()).or_default() += 1;
                }
            }
        }
        let retained = |a: &ShardedAudit| a.shards.iter().map(|s| s.slots.len()).sum::<usize>();
        if retained(&audit) >= retained(&self.obs.audit) {
            self.obs.audit = audit;
        }
        self.tally.attempted += tally.attempted;
        self.tally.acked += tally.acked;
        Ok(())
    }

    fn gate(&self, conn: &Conn) -> Result<(), String> {
        match conn.gate.violations.first() {
            Some(v) => Err(format!("client gate: {v}")),
            None => Ok(()),
        }
    }

    /// Every window is a fresh incarnation of the service, lo, hi and
    /// peak by turns: thread placement and a noisy neighbour differ from
    /// one incarnation and one second to the next, and the median over
    /// windows should see each of them at most twice. (`write_durable`
    /// could not do otherwise: see [`DURABLE_COMMAND_CAP`].)
    fn run_windows(&mut self) -> Result<(), String> {
        let mut incarnation = 0;
        for _ in 0..self.windows {
            for p in [LO, HI, PEAK] {
                // Traced, a peak window runs once without rows too, so
                // the overhead of tracing is a measurement.
                let plain_twin = self.params.trace && p == PEAK;
                for traced in [false, true].into_iter().skip(usize::from(!plain_twin)) {
                    incarnation += 1;
                    let seed = splitmix64(self.params.seed ^ incarnation);
                    let ops = OpStream { seed, read_pct: self.spec.read_pct };
                    let traced = traced && self.params.trace;
                    if self.spec.durable {
                        with_scratch("durable", |dir| self.window(ops, Some(dir), (p, traced)))?;
                    } else {
                        self.window(ops, None, (p, traced))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// One incarnation: set-up, one window of phase `p`, the gate. On a
    /// durability directory it ends `kill` → `bind` on the same directory
    /// → first acked `Put`, and the audit is the recovered incarnation's:
    /// it spans both, slots replayed from disk are audited like live
    /// ones, so an ack the crash lost would break the accounting.
    fn window(
        &mut self,
        ops: OpStream,
        dir: Option<&Path>,
        (p, traced): (usize, bool),
    ) -> Result<(), String> {
        let (mut server, mut conn) = self.start(ops, dir)?;
        let measured = self
            .measure(&server, &mut conn, (p, traced))
            .and_then(|()| self.gate(&conn))
            .and_then(|()| if traced { self.absorb_totals(&server) } else { Ok(()) });
        if let Err(e) = measured {
            server.kill();
            return Err(e);
        }
        let mut tally = Tally::default();
        tally.absorb(&conn);
        if dir.is_some() {
            let began = Instant::now();
            server.kill();
            server = bind(self.spec, dir)?;
            let mut probe = Conn::connect(server.addr(), ops)?;
            probe.next = conn.next;
            if let Err(e) = probe.call().and_then(|()| self.gate(&probe)) {
                server.kill();
                return Err(format!("recovery: {e}"));
            }
            self.recoveries.push(began.elapsed().as_secs_f64() * 1e3);
            tally.absorb(&probe);
        }
        drop(conn);
        self.finish(server, tally)
    }

    /// Recovery of an in-memory service, which comes back empty: `kill`
    /// → `bind` → connect → first acked `Put`, [`RECOVERY_CYCLES`] times.
    fn recover_in_memory(&mut self, ops: OpStream) -> Result<(), String> {
        let mut server = bind(self.spec, None)?;
        let mut next = 0;
        for cycle in 0..=RECOVERY_CYCLES {
            let began = Instant::now();
            if cycle > 0 {
                server.kill();
                server = bind(self.spec, None)?;
            }
            let mut conn = Conn::connect(server.addr(), ops)?;
            conn.next = next;
            if let Err(e) = conn.call().and_then(|()| self.gate(&conn)) {
                server.kill();
                return Err(format!("recovery cycle {cycle}: {e}"));
            }
            if cycle > 0 {
                self.recoveries.push(began.elapsed().as_secs_f64() * 1e3);
            }
            next = conn.next;
            self.tally.absorb(&conn);
        }
        server.shutdown().check().map_err(|v| format!("service audit after recovery: {v}"))
    }
}

fn durable_cap_hit(sent: u64) -> String {
    format!(
        "write_durable: an incarnation reached {sent} of its {DURABLE_COMMAND_CAP} commands; past \
         about 26 000 the engine's snapshot exceeds wal::MAX_RECORD and panics (known limit, see \
         benchmark/README.md) - run with fewer --seconds"
    )
}

/// Waits until every shard reports a healthy lease in lease mode.
fn await_lease(server: &KvServer, spec: &ServiceSpec) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    for shard in 0..u32::try_from(spec.shards).expect("shard count fits u32") {
        loop {
            let state = remote_lease_state(server.addr(), shard, Duration::from_secs(5))
                .map_err(|e| format!("lease state of shard {shard}: {e}"))?;
            if state.mode == ReadPath::Lease.as_wire() && state.healthy {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("shard {shard} never reached lease mode: {state:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    Ok(())
}

/// Runs one service workload: the end-to-end metrics, and what the run
/// observed for the layer drives of a traced pass.
pub fn run(name: &str, spec: &ServiceSpec, params: Params) -> Result<(Outcome, Observed), String> {
    let (windows, window) = params.windows();
    let ops = OpStream { seed: params.seed, read_pct: spec.read_pct };
    let epoch = Instant::now();
    let mut run = Run {
        spec,
        params,
        windows,
        window,
        epoch,
        tally: Tally::default(),
        failed: 0,
        setups: Vec::new(),
        recoveries: Vec::new(),
        obs: Observed::new(name, *spec, ops),
    };
    run.run_windows()?;
    if !spec.durable {
        run.recover_in_memory(ops)?;
    }
    run.obs.root.end_us = epoch.elapsed().as_secs_f64() * 1e6;

    let mut outcome =
        Outcome { attempted: run.tally.attempted, failed: run.failed, ..Outcome::default() };
    run.obs.lat_lo_p99_ms = median_of(&run.obs.phases[LO].windows, |w| w.lat_p99_ms);
    run.obs.lat_hi_p99_ms = median_of(&run.obs.phases[HI].windows, |w| w.lat_p99_ms);
    let ph = &run.obs.phases;
    let hi = &ph[HI];
    outcome.put("setup_s", median(&mut run.setups), run.setups.len());
    outcome.put(
        "lat_lo_p50_ms",
        median_of(&ph[LO].windows, |w| w.lat_p50_ms),
        ph[LO].windows.len(),
    );
    outcome.put("lat_hi_p50_ms", median_of(&hi.windows, |w| w.lat_p50_ms), hi.windows.len());
    outcome.put("peak_cps", median_of(&ph[PEAK].windows, |w| w.cps), ph[PEAK].windows.len());
    outcome.put("cpu_us_per_op", median_of(&hi.windows, |w| w.cpu_us_per_op), hi.windows.len());
    outcome.put("heap_mb", peak_heap_mib(), 1);
    outcome.put("recovery_ms", median(&mut run.recoveries), run.recoveries.len());
    if run.obs.backlog_windows > 0 {
        outcome.notes.push(format!(
            "backlog: {} hi window(s) had under {:.1}% of their requests acked inside them",
            run.obs.backlog_windows,
            IN_WINDOW_ACK_SHARE * 100.0
        ));
    }
    Ok((outcome, run.obs))
}
