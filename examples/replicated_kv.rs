//! A replicated key-value store on the `indulgent-log` subsystem.
//!
//! Client writes `key := value` are encoded into command payloads,
//! batched by the frontend, and sequenced through pipelined `A_{t+2}`
//! instances (round-2 fast path when healthy). Every replica applies the
//! decided log in slot order, so all correct replicas materialize the
//! identical map — even when a replica crashes mid-run, and identically
//! on the wall-clock runtime and the deterministic simulator.
//!
//! ```text
//! cargo run --release --example replicated_kv
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use indulgent_log::{
    run_log_session, run_log_sim, ClientFrontend, IntakePolicy, LogConfig, LogReport, LogScenario,
    NetProfile,
};
use indulgent_model::{Round, SystemConfig};

/// Encodes `key := value` into a command payload.
fn write(key: u16, value: u32) -> u64 {
    (u64::from(key) << 32) | u64::from(value)
}

/// Applies a replica's decided log to an empty store.
fn materialize(report: &LogReport) -> BTreeMap<u16, u32> {
    let mut store = BTreeMap::new();
    for batch in report.canonical.applied_batches() {
        let batch = report.frontend.batch(batch).expect("disseminated");
        for cmd in &batch.commands {
            let key = (cmd.payload >> 32) as u16;
            let value = (cmd.payload & 0xffff_ffff) as u32;
            store.insert(key, value);
        }
    }
    store
}

fn workload(n: usize) -> ClientFrontend {
    let mut frontend = ClientFrontend::new(n, 4).with_intake(IntakePolicy::Shared);
    // 40 writes over 10 keys; later writes win, so the final store keeps
    // each key's last sequenced value.
    frontend.submit_all((0..40u64).map(|i| write((i % 10) as u16, 100 + i as u32)));
    frontend
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig::majority(5, 2)?;
    let log_config = LogConfig::sequential(10).with_batch_size(4).with_pipeline_depth(3);

    // 1. Healthy service on the wall-clock runtime: 10 slots, 4 writes per
    // batch, 3 instances pipelined.
    let start = Instant::now();
    let healthy = run_log_session(
        config,
        log_config,
        LogScenario::failure_free(config.n()),
        workload(config.n()),
        NetProfile::test_sized(),
    );
    healthy.check()?;
    let store = materialize(&healthy);
    println!(
        "healthy run ({:?}): {} commands committed over {} slots, store holds {} keys",
        start.elapsed(),
        healthy.committed_commands,
        healthy.canonical.len(),
        store.len()
    );
    for (k, v) in store.iter().take(3) {
        println!("  key {k} = {v}");
    }

    // 2. Crash a replica mid-run: the remaining majority keeps deciding,
    // and the survivors' store is identical.
    let crashed = run_log_session(
        config,
        log_config,
        LogScenario::failure_free(config.n()).crash(1, 3, Round::new(2)),
        workload(config.n()),
        NetProfile::test_sized(),
    );
    crashed.check()?;
    println!(
        "\nwith p1 crashing in slot 3: {} commands still committed, invariants hold",
        crashed.committed_commands
    );

    // 3. The same crash scenario on the deterministic simulator: the
    // decided log — and therefore the store — is identical, slot by slot.
    let simulated = run_log_sim(
        config,
        log_config,
        LogScenario::failure_free(config.n()).crash(1, 3, Round::new(2)),
        workload(config.n()),
    );
    simulated.check()?;
    assert_eq!(simulated.canonical, crashed.canonical, "substrates agree on the log");
    assert_eq!(materialize(&simulated), materialize(&crashed), "and hence on the store");
    println!("simulator replay materializes the identical store ({} keys)", store.len());

    println!("\nall replicas agree: one log, one store, on both substrates");
    Ok(())
}
