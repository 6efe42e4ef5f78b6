//! The dump's names: every metric family this workspace registers, and
//! every `family.counter` line it prints, in each family's emit order.
//!
//! Scrapers (`--stats-every`, the benchmark's `server_engine.checkpoints`
//! read, the budget tests) find counters by these names, so adding,
//! dropping or renaming one must edit this list on purpose. Families
//! register lazily and process-wide, so the test touches each one and
//! then compares names per family, never the order families registered.

use std::time::{Duration, Instant};

use indulgent_integration::proposals;
use indulgent_log::{at_plus2_factory, run_log_sim, ClientFrontend, LogConfig, LogScenario};
use indulgent_model::{ClientId, SystemConfig};
use indulgent_server::{EngineConfig, KvEngine, KvServer, KvService, LocalKv, ReadPath, RemoteKv};
use indulgent_sim::{run_schedule, ModelKind, Schedule};

/// Every family and its counters, in the order each family emits them.
const FAMILIES: [(&str, &[&str]); 6] = [
    (
        "runtime_session",
        &[
            "instances_started",
            "results_delivered",
            "decisions_delivered",
            "caller_sleeps",
            "relays",
        ],
    ),
    (
        "log_driver",
        &[
            "runs_completed",
            "instances_run",
            "slots_applied",
            "committed_commands",
            "noop_slots",
            "duplicate_slots",
        ],
    ),
    (
        "server_engine",
        &[
            "slots_applied",
            "commands_applied",
            "dedup_hits",
            "wal_syncs",
            "checkpoints",
            "reads_lease",
            "reads_quorum",
            "reads_demoted",
        ],
    ),
    ("lease_agent", &["grants", "denials", "vouches_valid", "vouches_invalid"]),
    (
        "server_frontdoor",
        &["socket_reads", "frames_in", "intake_batches", "socket_writes", "frames_out"],
    ),
    (
        "sim_engine",
        &["rounds_stepped", "fast_path_rounds", "deliveries_built", "messages_cloned", "forks"],
    ),
];

/// The dump's `family.counter` names, grouped by family in dump order.
fn dumped_names() -> Vec<(String, Vec<String>)> {
    let mut families: Vec<(String, Vec<String>)> = Vec::new();
    for line in indulgent_obs::dump_to_string().lines() {
        let (name, value) = line.split_once(' ').expect("`name value` line");
        value.parse::<u64>().unwrap_or_else(|_| panic!("counter value in {line:?}"));
        let (family, counter) = name.split_once('.').expect("`family.counter` name");
        match families.iter_mut().find(|(f, _)| f == family) {
            Some((_, counters)) => counters.push(counter.to_owned()),
            None => families.push((family.to_owned(), vec![counter.to_owned()])),
        }
    }
    families
}

/// Touches every family: an in-process put (runtime session, server
/// engine), socket round trips against a lease-mode server (front door,
/// lease agents), one simulated log run (log driver) and one simulated
/// schedule (sim engine).
fn touch_every_family() {
    let engine = KvEngine::spawn(EngineConfig::default_5());
    let mut local = LocalKv::connect(&engine.handle(), ClientId(1));
    local.put(1, 10).expect("put acked");
    drop(local);
    engine.shutdown().check().expect("audit clean");

    let lease = EngineConfig::default_5().with_reads(ReadPath::Lease);
    let server = KvServer::bind("127.0.0.1:0", lease).expect("bind");
    let mut remote = RemoteKv::connect(server.addr(), ClientId(2)).expect("connect");
    remote.put(2, 20).expect("put acked");
    // The leader's first renewal registers `lease_agent`; it runs on the
    // lease's own cadence, so wait for it rather than assume it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !dumped_names().iter().any(|(f, _)| f == "lease_agent") {
        assert!(Instant::now() < deadline, "no lease renewal within 10 s");
        remote.get(2).expect("get answered");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(remote);
    server.shutdown().check().expect("audit clean");

    let config = SystemConfig::majority(5, 2).expect("valid config");
    let mut frontend = ClientFrontend::new(5, 2);
    frontend.submit_all(0..8);
    let log_config = LogConfig::sequential(4).with_batch_size(2);
    let report = run_log_sim(config, log_config, LogScenario::failure_free(5), frontend);
    report.check().expect("log invariants");

    let schedule = Schedule::failure_free(config, ModelKind::Es);
    run_schedule(&at_plus2_factory(config), &proposals(5), &schedule, 10).expect("run");
}

#[test]
fn the_dump_prints_exactly_the_pinned_names() {
    touch_every_family();
    let dumped = dumped_names();
    let mut families: Vec<&str> = dumped.iter().map(|(f, _)| f.as_str()).collect();
    families.sort_unstable();
    let mut expected: Vec<&str> = FAMILIES.iter().map(|(f, _)| *f).collect();
    expected.sort_unstable();
    assert_eq!(families, expected, "registered families");
    for (family, counters) in FAMILIES {
        let (_, printed) = dumped.iter().find(|(f, _)| f == family).expect("family dumped");
        assert_eq!(printed, counters, "{family}'s counters, in emit order");
    }
}
