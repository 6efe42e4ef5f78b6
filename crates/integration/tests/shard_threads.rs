//! Shards add no thread: every shard group is an instance stream of one
//! replica session, stepped on the engine's driver thread. The check
//! counts this process's live threads via /proc, so it lives in a test
//! binary of its own: no sibling test can spawn or join threads between
//! its two counts.

use indulgent_model::ClientId;
use indulgent_server::{EngineConfig, KvServer, KvService, LocalKv};

#[cfg(target_os = "linux")]
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("proc readable").count()
}

/// S shards must not cost S threads: the engine multiplexes every shard
/// group onto one replica session that its driver thread steps, so the
/// thread bill for `--shards 4` equals the bill for `--shards 1`.
#[cfg(target_os = "linux")]
#[test]
fn shards_add_no_thread() {
    let delta_for = |shards: usize| {
        let before = live_threads();
        let config =
            EngineConfig::default_5().with_batch_size(1).with_pipeline_depth(2).with_shards(shards);
        let server = KvServer::bind("127.0.0.1:0", config).expect("bind");
        let mut kv = LocalKv::connect(&server.engine(), ClientId(3));
        kv.put(1, 10).expect("put");
        // Threads are all up once a command has committed.
        let during = live_threads();
        drop(kv);
        server.shutdown().check().expect("audit clean");
        during - before
    };
    let one = delta_for(1);
    let four = delta_for(4);
    assert_eq!(four, one, "4 shards spawned extra threads over 1 shard ({four} vs {one})");
}
