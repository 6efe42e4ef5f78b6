//! The benchmark's constants: workloads, frozen rates, metric names,
//! units and regression bounds. `BENCHMARK.json` at the repository root
//! restates the names, units and bounds; a unit test keeps the two equal.

use std::path::Path;
use std::time::Duration;

use indulgent_runtime::DelayModel;
use indulgent_server::{DurabilityConfig, EngineConfig, ReadPath};

/// Distinct keys the op stream draws from; every one is preloaded.
pub const KEYS: u64 = 4096;

/// Windows per phase of an untraced run; `--seconds` is split evenly
/// over lo, hi and peak windows.
pub const WINDOWS: usize = 10;
/// Windows per phase of a traced run.
pub const TRACED_WINDOWS: usize = 4;
/// Open-loop warm-up at `rate_lo` that ends every set-up.
pub const WARM_UP: Duration = Duration::from_millis(250);
/// Set-ups `log_crash` times (a service workload sets up every window).
pub const SETUPS: usize = 21;
/// `kill` → `bind` → first acked `Put` cycles of an in-memory workload
/// (`write_durable` recovers at the end of every window instead).
pub const RECOVERY_CYCLES: usize = 51;
/// A hi window with fewer of its requests acked inside it has a growing
/// backlog and is reported as such.
pub const IN_WINDOW_ACK_SHARE: f64 = 0.995;
/// Requests still unacked this long after a phase's last send count as
/// failed.
pub const ACK_DEADLINE: Duration = Duration::from_secs(5);

/// Commands one durable incarnation may apply. The engine's dedup table
/// keeps every `(ClientId, RequestId)` ever applied and the snapshot
/// holding it must fit `wal::MAX_RECORD` (1 MiB): a durable shard panics
/// with "snapshot exceeds MAX_RECORD" after about 26 000 commands.
pub const DURABLE_COMMAND_CAP: u64 = 16_000;

/// `log_crash`: instances per repetition (× `LOG_BATCH` commands).
pub const LOG_INSTANCES: u64 = 2000;
/// `log_crash`: commands per batch.
pub const LOG_BATCH: usize = 8;
/// `log_crash`: pipeline depth.
pub const LOG_DEPTH: u64 = 4;
/// `log_crash`: repetitions of an untraced run at the reference
/// `run_seconds`; scaled with `--seconds`, never below 1.
pub const LOG_REPS: usize = 3;
/// `log_crash`: replica 1 crashes at round 2 of this instance.
pub const LOG_CRASH_A: u64 = 500;
/// `log_crash`: replica 3 crashes at round 1 of this instance.
pub const LOG_CRASH_B: u64 = 1000;
/// `t + 2` for the `n = 5, t = 2` group every workload runs.
pub const T_PLUS_2: u32 = 4;
/// `run_seconds` of `BENCHMARK.json`, the default of `--seconds`.
pub const RUN_SECONDS: u64 = 15;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: what a user of the service sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "lat_lo_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "lat_hi_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_cps", unit: "cmd/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "cpu_us_per_op", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "heap_mb", unit: "MiB", better: Better::Lower, bound: 0.1 },
    EndToEnd { name: "recovery_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
];

/// A per-layer metric `(name, unit, better)`: measured from outside the
/// layer, unbounded, there to explain an end-to-end move.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("client.send_lag_p50_us", "us", Better::Lower),
    ("client.send_lag_p99_us", "us", Better::Lower),
    ("client.cpu_share", "ratio", Better::Lower),
    ("client.null_peak_cps", "cmd/s", Better::Higher),
    ("client.lat_lo_p99_ms", "ms", Better::Lower),
    ("client.lat_hi_p99_ms", "ms", Better::Lower),
    ("client.lat_peak_p50_ms", "ms", Better::Lower),
    ("client.backlog_windows", "count", Better::Lower),
    ("wire.encode_ns_per_frame", "ns", Better::Lower),
    ("wire.decode_ns_per_frame", "ns", Better::Lower),
    ("wire.bytes_per_op", "B", Better::Lower),
    ("proto.request_encode_ns", "ns", Better::Lower),
    ("proto.request_decode_ns", "ns", Better::Lower),
    ("proto.response_encode_ns", "ns", Better::Lower),
    ("proto.response_decode_ns", "ns", Better::Lower),
    ("server.frontdoor_us", "us", Better::Lower),
    ("server.threads", "count", Better::Lower),
    ("server.sys_us_per_op", "us", Better::Lower),
    ("server.rss_mb", "MiB", Better::Lower),
    ("engine.local_peak_cps", "cmd/s", Better::Higher),
    ("engine.local_rtt_p50_us", "us", Better::Lower),
    ("engine.submit_seal_p50_us", "us", Better::Lower),
    ("engine.seal_decide_p50_us", "us", Better::Lower),
    ("engine.decide_apply_p50_us", "us", Better::Lower),
    ("engine.apply_ack_p50_us", "us", Better::Lower),
    ("engine.seal_depth_p50", "count", Better::Lower),
    ("engine.cmds_per_slot", "count", Better::Higher),
    ("engine.dedup_hits", "count", Better::Lower),
    ("engine.audit_check_ms", "ms", Better::Lower),
    ("log.frontend_ns_per_cmd", "ns", Better::Lower),
    ("log.sim_instances_per_s", "1/s", Better::Higher),
    ("runtime.instances_per_s_d1", "1/s", Better::Higher),
    ("runtime.instances_per_s_d4", "1/s", Better::Higher),
    ("runtime.decide_p50_us", "us", Better::Lower),
    ("core.round2_share", "ratio", Better::Higher),
    ("core.decide_round_hist_r2", "count", Better::Higher),
    ("core.decide_round_hist_r4", "count", Better::Lower),
    ("core.decide_round_max", "rounds", Better::Lower),
    ("sim.multishot_ns_per_instance", "ns", Better::Lower),
    ("wal.append_ns_per_record", "ns", Better::Lower),
    ("wal.sync_p50_us", "us", Better::Lower),
    ("wal.fsync_count", "count", Better::Lower),
    ("wal.cmds_per_sync", "count", Better::Higher),
    ("wal.bytes_per_cmd", "B", Better::Lower),
    ("wal.replay_ms", "ms", Better::Lower),
    ("snapshot.write_p50_us", "us", Better::Lower),
    ("snapshot.bytes", "B", Better::Lower),
    ("snapshot.checkpoints", "count", Better::Lower),
    ("lease.fast_read_share", "ratio", Better::Higher),
    ("lease.reads_quorum", "count", Better::Lower),
    ("lease.reads_sequenced", "count", Better::Lower),
    ("lease.agent_handle_ns", "ns", Better::Lower),
    ("shard.route_ns_per_key", "ns", Better::Lower),
    ("shard.imbalance", "ratio", Better::Lower),
    ("obs.record_ns", "ns", Better::Lower),
    ("budget.attributed_us", "us", Better::Higher),
    ("budget.unattributed_us", "us", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
];

/// A service workload: one traffic mix against one server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceSpec {
    /// Percent of requests that are `Get`s.
    pub read_pct: u64,
    pub reads: ReadPath,
    /// WAL + snapshots on a scratch directory, one incarnation per window.
    pub durable: bool,
    /// One-way replica link delay; `None` = instant links, so latency is
    /// processor time plus linger only.
    pub link_delay: Option<Duration>,
    pub shards: usize,
    /// Open-loop rates, requests per second: about 20 % and 45 % of the
    /// closed-loop peak measured once on the reference box (2 vCPU),
    /// rounded to 1 000 and frozen so parent and change see equal load.
    pub rate_lo: u64,
    pub rate_hi: u64,
    /// Requests outstanding in the closed-loop peak phase.
    pub window: u64,
    /// Requests of a peak window per second of window length: a fixed
    /// count (about what the reference box serves in that time), so that
    /// every run applies the same commands and its memory is comparable.
    pub peak_requests: u64,
}

impl ServiceSpec {
    /// The engine configuration of this workload (`n = 5, t = 2`, batch
    /// 8, depth 4, linger 500 µs), durable on `dir` when given.
    #[must_use]
    pub fn engine_config(&self, dir: Option<&Path>) -> EngineConfig {
        let mut config = EngineConfig::default_5().with_reads(self.reads).with_shards(self.shards);
        if let Some(delay) = self.link_delay {
            config = config.with_delays(DelayModel::Uniform { delay });
        }
        if let Some(dir) = dir {
            config = config.with_durability(DurabilityConfig::new(dir));
        }
        config
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Service(ServiceSpec),
    /// The socket-free fault run over the session-backed log driver.
    LogCrash,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Whether `BENCHMARK.json` lists it, so that the driver runs it and
    /// holds later changes to its numbers. `write_durable` is not: every
    /// number of it follows the `fdatasync` of the host's disk, which on
    /// the reference box changes between 0.35 and 0.6 ms for minutes at
    /// a time (`peak_cps` 8 200 to 17 100 over ten consecutive runs of
    /// the same code). It runs by name, and with the others when no
    /// workload is named.
    pub listed: bool,
}

const WRITE_MEM: ServiceSpec = ServiceSpec {
    read_pct: 0,
    reads: ReadPath::Sequenced,
    durable: false,
    link_delay: None,
    shards: 1,
    rate_lo: 10_000,
    rate_hi: 25_000,
    window: 64,
    peak_requests: 60_000,
};

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "write_mem",
        why: "all Puts, 1 shard, instant links, no disk: engine, log, runtime and core do the work",
        kind: Kind::Service(WRITE_MEM),
        listed: true,
    },
    Workload {
        name: "read_lease",
        why: "95% Gets on the lease path: front door, wire, proto and lease work, consensus sees 1 op in 20",
        kind: Kind::Service(ServiceSpec {
            read_pct: 95,
            reads: ReadPath::Lease,
            rate_lo: 20_000,
            rate_hi: 40_000,
            peak_requests: 120_000,
            ..WRITE_MEM
        }),
        listed: true,
    },
    Workload {
        name: "write_durable",
        why: "write_mem with WAL fdatasync before ack and checkpoints, killed and recovered every window",
        kind: Kind::Service(ServiceSpec {
            durable: true,
            rate_lo: 3_000,
            rate_hi: 6_000,
            peak_requests: 16_000,
            ..WRITE_MEM
        }),
        listed: false,
    },
    Workload {
        name: "write_delay_s4",
        why: "write_mem over 500 us replica links and 4 shards: latency is rounds x delay, CPU layers idle",
        kind: Kind::Service(ServiceSpec {
            link_delay: Some(Duration::from_micros(500)),
            shards: 4,
            rate_lo: 5_000,
            rate_hi: 15_000,
            window: 256,
            peak_requests: 50_000,
            ..WRITE_MEM
        }),
        listed: true,
    },
    Workload {
        name: "log_crash",
        why: "no sockets: 2 permanent crashes mid-run, so decisions take t+2 rounds and pay the grace",
        kind: Kind::LogCrash,
        listed: true,
    },
];

/// The service configuration `log_crash`, which has none of its own,
/// hands the per-layer isolation drives: `write_mem`'s.
#[must_use]
pub fn isolation_spec() -> ServiceSpec {
    WRITE_MEM
}

#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json` as these tables dictate it.
#[cfg(test)]
fn manifest_json() -> String {
    let better = |b: Better| if b == Better::Lower { "lower" } else { "higher" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.listed)
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|&(name, unit, b)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(b)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_restates_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, manifest_json(), "regenerate BENCHMARK.json from spec.rs");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn open_loop_windows_fit_the_durable_cap() {
        // Preload + warm-up + one hi window must stay under the cap at
        // the reference window length, with room for the peak window.
        for w in WORKLOADS {
            if let Kind::Service(s) = w.kind {
                if s.durable {
                    let window = RUN_SECONDS as f64 / (3 * WINDOWS) as f64;
                    let planned = KEYS as f64
                        + s.rate_lo as f64 * WARM_UP.as_secs_f64()
                        + s.rate_hi as f64 * window;
                    assert!(planned < DURABLE_COMMAND_CAP as f64, "{}: {planned}", w.name);
                }
            }
        }
    }
}
