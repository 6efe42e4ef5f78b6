//! Standalone service entry point: bind the replicated-KV server on an
//! address and serve until killed (SIGINT/SIGTERM terminate the
//! process; replicas live in-process, so nothing needs cleanup beyond
//! the OS reclaiming the sockets — with `--dir` the WAL and snapshot
//! survive the kill and the next start recovers from them).
//!
//! ```text
//! indulgent_server [ADDR] [BATCH] [DEPTH] [--dir DIR] [--snapshot-every N] [--reads MODE] [--shards S]
//! ```
//!
//! * `ADDR`  — listen address (default `127.0.0.1:7171`; port 0 picks an
//!   ephemeral port and prints it)
//! * `BATCH` — commands per batch (default 8)
//! * `DEPTH` — pipeline depth (default 4)
//! * `--dir DIR` — durability root (per-shard WAL + snapshots under
//!   `shard-<i>/`); omitting it runs the server in-memory, as before
//! * `--snapshot-every N` — checkpoint cadence in slots (default 256;
//!   only meaningful with `--dir`)
//! * `--shards S` — number of independent shard groups the keyspace is
//!   hash-partitioned across (default 1); with `--dir` the root must
//!   have been laid out for the same count
//! * `--reads MODE` — read path: `lease` (default; leader-lease fast
//!   reads with quorum/sequenced fallback) or `log` (sequence every
//!   read — the pre-lease behavior, kept as an escape hatch)
//! * `--stats-every SECS` — periodically scrape the engine's own stats
//!   port (per-shard [`StatsReport`]s plus the whole-service aggregate)
//!   and dump the process-wide metrics registry to stdout; 0 (default)
//!   disables the scraper

use std::time::Duration;

use indulgent_server::{
    remote_stats, DurabilityConfig, EngineConfig, KvServer, ReadPath, StatsReport,
};

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut dir: Option<String> = None;
    let mut snapshot_every: u64 = 256;
    let mut reads = ReadPath::Lease;
    let mut shards: usize = 1;
    let mut stats_every: u64 = 0;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--dir" => dir = Some(argv.next().expect("--dir needs a path")),
            "--shards" => {
                shards = argv
                    .next()
                    .expect("--shards needs a count")
                    .parse()
                    .expect("--shards must be a positive integer");
            }
            "--snapshot-every" => {
                snapshot_every = argv
                    .next()
                    .expect("--snapshot-every needs a count")
                    .parse()
                    .expect("--snapshot-every must be an integer");
            }
            "--stats-every" => {
                stats_every = argv
                    .next()
                    .expect("--stats-every needs a period in seconds")
                    .parse()
                    .expect("--stats-every must be an integer");
            }
            "--reads" => {
                reads = match argv.next().expect("--reads needs a mode").as_str() {
                    "lease" => ReadPath::Lease,
                    "log" | "sequenced" => ReadPath::Sequenced,
                    other => panic!("--reads must be lease|log, got {other:?}"),
                };
            }
            _ => positional.push(arg),
        }
    }
    let addr = positional.first().cloned().unwrap_or_else(|| "127.0.0.1:7171".to_string());
    let batch: usize =
        positional.get(1).map_or(8, |s| s.parse().expect("BATCH must be an integer"));
    let depth: u64 = positional.get(2).map_or(4, |s| s.parse().expect("DEPTH must be an integer"));

    let mut config = EngineConfig::default_5()
        .with_batch_size(batch)
        .with_pipeline_depth(depth)
        .with_reads(reads)
        .with_shards(shards);
    if let Some(dir) = &dir {
        config =
            config.with_durability(DurabilityConfig::new(dir).with_snapshot_every(snapshot_every));
    }
    let server = KvServer::bind(&addr, config).expect("bind listener");
    println!(
        "indulgent_server listening on {} (n=5 t=2, batch {batch}, pipeline depth {depth}, reads {reads:?}, shards {shards}{})",
        server.addr(),
        dir.as_deref().map_or_else(String::new, |d| format!(", durable in {d}")),
    );
    if stats_every == 0 {
        loop {
            std::thread::sleep(Duration::from_secs(60));
        }
    }
    // Scrape our own stats port the way an external monitor would, so
    // the printed numbers exercise the same wire path clients use.
    let self_addr = server.addr();
    let period = Duration::from_secs(stats_every);
    loop {
        std::thread::sleep(period);
        let mut aggregate: Option<StatsReport> = None;
        for shard in 0..shards as u32 {
            match remote_stats(self_addr, shard, Duration::from_secs(2)) {
                Ok(report) => {
                    println!("stats: {report}");
                    match aggregate.as_mut() {
                        Some(agg) => agg.merge(&report),
                        None => aggregate = Some(report),
                    }
                }
                Err(e) => println!("stats: shard {shard} scrape failed: {e}"),
            }
        }
        if shards > 1 {
            if let Some(agg) = aggregate {
                println!("stats: aggregate {agg}");
            }
        }
        print!("{}", indulgent_obs::dump_to_string());
    }
}
