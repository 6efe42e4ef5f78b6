//! `indulgent-server`: the replicated key-value log as a networked
//! service.
//!
//! This crate promotes the repo's replicated-KV example into a real
//! service: a TCP server hosting an `n`-replica group running the
//! paper's indulgent consensus (`A_{t+2}` with the failure-free round-2
//! fast path) behind a length-framed wire protocol. The pieces, bottom
//! to top:
//!
//! * [`wire`] — the vendored length-framed codec. 4-byte little-endian
//!   length header, [`MAX_FRAME`] bound enforced before buffering,
//!   chunking-independent incremental decoding.
//! * [`proto`] — the request/response vocabulary. Requests carry the
//!   `(ClientId, RequestId)` exactly-once key; responses carry the
//!   `(shard, slot)` linearization point: the shard group that sequenced
//!   the command and the slot it occupies in that shard's log.
//! * [`shard`] — one shard group: the fixed [`ShardRouter`] hash mapping
//!   every key to one of `S` independent groups, the fsynced
//!   `shards.manifest` refusing boots against a mismatched disk layout,
//!   and the per-shard state machine — exactly-once dedup against the
//!   decided log, batching, the in-flight window, in-order apply with
//!   WAL + checkpoints, crash recovery, and the lease read ladder —
//!   driven step by step (submit, start, on-result, apply, serve reads).
//! * [`engine`] — the event loop: routes intake to shard groups,
//!   pipelines consensus instances of every shard on *one* reusable
//!   replica session (shared worker pool — S shards, one set of
//!   threads), feeds replica results back to their shards, and answers
//!   control requests. Shutdown returns a [`ShardedAudit`].
//! * [`audit`] — verification: [`ServiceAudit::check`] replays a shard's
//!   log with independent code, re-derives every acknowledgement and
//!   fast read, and checks replica agreement; [`ShardedAudit::check`]
//!   adds cross-shard routing and exactly-once disjointness in the same
//!   walk.
//! * [`service`] — the layered client interface: [`KvService`]
//!   implemented by [`LocalKv`] (in-process, the reference layer) and
//!   [`RemoteKv`] (framed TCP). The integration suite runs the same
//!   workload against both and asserts identical results, so the
//!   transport provably adds no semantics.
//! * [`lease`] — leader leases and the linearizable fast-read path:
//!   while a quorum of replicas has promised not to grant a newer lease,
//!   `Get`s are answered from the leader's applied store at a *read
//!   index* without occupying a log slot, falling down the ladder
//!   (lease read → quorum read → sequenced read) when the lease is
//!   suspect. Lease epochs are burned to disk before serving, so a
//!   `kill -9`'d leader can never fast-read under its old epoch.
//! * [`server`] — the TCP front door bridging sockets to the engine, a
//!   reader and a writer thread per connection that move bursts, not
//!   frames: one intake message per socket read, one `write` per run of
//!   queued acks. Besides requests it answers stats scrapes: a
//!   [`remote_stats`] request returns a [`StatsReport`] — per-shard
//!   pipeline-stage latency histograms (submit→seal, seal→decide,
//!   decide→apply, apply→ack, WAL fsync, queue depth) recorded by the
//!   zero-allocation `indulgent-obs` registry, point-in-time and usable
//!   mid-load. Each shard also keeps a bounded flight recorder of recent structured
//!   events, dumped to `flight-<shard>.log` on audit violation, panic,
//!   or shutdown.
//! * [`wal`] + [`snapshot`] — the durability layer: every applied slot
//!   is written to a checksummed write-ahead log and fsynced *before*
//!   its acknowledgements leave, and periodic checkpoints fold the
//!   prefix into an atomically-written snapshot (store + session dedup
//!   table), truncating the WAL. A killed server restarts from disk with
//!   its sessions intact — exactly-once survives the crash — and a
//!   replica that lost its disk rejoins via snapshot transfer + record
//!   catch-up over the same framed TCP port ([`sync_from_peer`]).
//!   [`wal`] owns every byte the server persists: the slot record and
//!   its codec, the one checksummed record framing, the checksummed
//!   lease-epoch and shard-manifest files, the one atomic file
//!   replacement, the shard directory's file names, and the shard open
//!   step; [`snapshot`] keeps only the checkpoint's payload codec.
//!
//! # The exactly-once session contract
//!
//! A client session is a [`ClientId`](indulgent_model::ClientId) plus a
//! monotonic [`RequestId`](indulgent_model::RequestId) counter. Sending
//! the same `(client, request)` pair again — a timeout retry on the same
//! connection, or a replay after reconnecting — never re-applies the
//! command: if it already sits in the decided log the service replays
//! the original acknowledgement from its cache, and if it is still in
//! flight the retry merely re-targets where the ack will be delivered.
//! Acknowledgements carry linearization points — the log slot of a
//! sequenced command, or the *read index* of a lease-path fast read —
//! and the audit replays both against the decided log (a fast read must
//! equal what a sequenced read at its read index would have answered),
//! so matching the replay is a linearizability proof, not a heuristic.
//! Fast-read acks are cached for retry idempotence but not WAL-durable:
//! a read retried across a crash re-executes at a read index at least
//! as new as the original, which is still linearizable.
//!
//! # Running the service
//!
//! ```text
//! cargo run --release -p indulgent-server --bin indulgent_server -- 127.0.0.1:7171
//! ```
//!
//! and drive it with [`RemoteKv`] from any process. Performance is
//! measured by the seeded benchmark package (`cargo run --release
//! --offline --manifest-path benchmark/Cargo.toml`), which audits every
//! run before it reports a number.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod engine;
pub mod lease;
pub mod proto;
pub mod server;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod wal;
pub mod wire;

pub use audit::{AuditViolation, FastReadRecord, ServiceAudit, ShardedAudit};
pub use engine::{
    ConnId, DurabilityConfig, EngineConfig, EngineHandle, KvEngine, Outbound, SubmitHandle,
};
pub use lease::{
    fresh_holder, load_epoch, store_epoch, LeaderLease, LeaseConfig, LeaseFrame, ReadPath,
    ReplicaLeaseAgent,
};
pub use proto::{
    stats_request_frame, stats_request_shard, AuditSummary, KvOp, LeaseStatus, Outcome, ProtoError,
    Request, Response, StatsReport, SyncFrame, TAG_STATS, TAG_STATS_REQUEST,
};
pub use server::KvServer;
pub use service::{
    remote_audit, remote_lease_state, remote_stats, sync_all_from_peer, sync_from_peer, KvService,
    LocalKv, PipeClient, RemoteKv, ServiceError,
};
pub use shard::{load_manifest, shard_dir, store_manifest, ShardRouter};
pub use snapshot::{SessionEntry, Snapshot};
pub use wal::{AckRecord, SlotRecord, Wal, WalError, WalReplay, WalTail};
pub use wire::{FrameDecoder, FrameReader, WireError, MAX_FRAME};
