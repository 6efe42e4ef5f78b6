//! The replicated key-value store as a *networked service*.
//!
//! Where `replicated_kv` drives the log subsystem with an in-process
//! workload, this example runs the full `indulgent-server` stack: an
//! ephemeral TCP server hosting the 5-replica `A_{t+2}` group, clients
//! speaking the length-framed wire protocol over real sockets, and the
//! exactly-once session contract exercised end to end — a retried
//! request id, and a client killed mid-request whose reconnecting
//! session replays the in-doubt command without it applying twice.
//!
//! ```text
//! cargo run --release --example kv_service
//! ```

use indulgent_model::{ClientId, RequestId};
use indulgent_server::{
    EngineConfig, KvOp, KvServer, KvService, LocalKv, Outcome, PipeClient, RemoteKv,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Batch size 1 keeps the slot arithmetic legible in the output.
    let config = EngineConfig::default_5().with_batch_size(1).with_pipeline_depth(2);
    let server = KvServer::bind("127.0.0.1:0", config)?;
    let addr = server.addr();
    println!("replicated-KV service on {addr} (n=5, t=2, A_t+2 round-2 fast path)\n");

    // A networked session: puts and gets over framed TCP. Reads are
    // sequenced through the log too — the returned slot is the read's
    // linearization point.
    let mut alice = RemoteKv::connect(addr, ClientId(1))?;
    let put = alice.put(7, 700)?;
    let get = alice.get(7)?;
    println!("alice  put 7 := 700      -> slot {}", put.outcome.slot());
    match get.outcome {
        Outcome::Get { slot, value } => {
            println!("alice  get 7             -> slot {slot}, value {value:?}")
        }
        other => panic!("unexpected outcome {other:?}"),
    }

    // Retrying a request id replays the original acknowledgement from
    // the dedup cache instead of applying the write again.
    let first = alice.call_with(RequestId(10), KvOp::Put { key: 8, value: 800 })?;
    let retry = alice.call_with(RequestId(10), KvOp::Put { key: 8, value: 800 })?;
    assert_eq!(first, retry, "a retry replays the original ack");
    println!("alice  put 8 := 800 (x2) -> slot {} both times (dedup)", first.outcome.slot());

    // Kill a client mid-request: send the frame, drop the socket without
    // ever reading the ack. The service must neither hang nor apply the
    // command twice when the session reconnects and replays it.
    let mut doomed = PipeClient::connect(addr, ClientId(2))?;
    doomed.send(RequestId(0), KvOp::Put { key: 9, value: 900 })?;
    drop(doomed);
    let mut revived = RemoteKv::connect_from(addr, ClientId(2), RequestId(0))?;
    let replayed = revived.call_with(RequestId(0), KvOp::Put { key: 9, value: 900 })?;
    println!("bob    killed mid-put, reconnected, replayed -> slot {}", replayed.outcome.slot());

    // The in-process layer sees the same store the sockets built.
    let mut local = LocalKv::connect(&server.engine(), ClientId(3));
    for key in [7u16, 8, 9] {
        match local.get(key)?.outcome {
            Outcome::Get { value, .. } => {
                println!("local  get {key}             -> value {value:?}")
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    drop((alice, revived, local));
    let audit = server.shutdown();
    audit.check()?;
    println!(
        "\naudit: {} slots, {} commands applied exactly once, {} retries absorbed, replay matches every ack",
        audit.applied_slots(),
        audit.committed_commands(),
        audit.dedup_hits()
    );
    Ok(())
}
