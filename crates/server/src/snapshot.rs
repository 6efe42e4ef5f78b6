//! Checkpointed state snapshots: the durable base the WAL replays on
//! top of.
//!
//! A snapshot captures everything the engine needs to resume as if it
//! had applied every slot up to `applied_through`: the materialized KV
//! store, the session dedup table (so exactly-once survives a restart —
//! a retried request from before the crash is still answered from the
//! cache, not re-applied), the batch-id high-water mark (so a recovered
//! incarnation never reuses a batch id), and the cumulative commit
//! count. The file is one checksummed record in the WAL's framing
//! ([`crate::wal`]) and is written atomically — serialize to a sibling
//! temp file, fsync, rename — so a crash mid-checkpoint leaves the
//! previous snapshot intact.

use std::collections::BTreeMap;
use std::path::Path;

use indulgent_model::{ClientId, RequestId};

use crate::proto::{from_bytes, layout, to_bytes, Prefixed, ProtoError, Response};
use crate::wal::{atomic_replace, frame_record, read_if_exists, WalDecoder, WalError, WalTail};

/// One cached session acknowledgement: the dedup table entry that makes
/// a pre-crash retry idempotent after recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionEntry {
    /// The submitting session.
    pub client: ClientId,
    /// The request number answered.
    pub request: RequestId,
    /// The acknowledgement to replay on retry.
    pub response: Response,
}

/// A checkpointed engine state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Every slot `<= applied_through` is folded into this snapshot.
    pub applied_through: u64,
    /// The next batch id a recovered shard may mint (ids below it are
    /// burned — possibly applied, never reusable).
    pub next_batch: u64,
    /// Commands committed over the service's whole lifetime, across
    /// every incarnation up to `applied_through`.
    pub committed: u64,
    /// The KV store materialized by slots `1..=applied_through`.
    pub store: BTreeMap<u16, u32>,
    /// The session dedup table at `applied_through`.
    pub sessions: Vec<SessionEntry>,
}

layout!(SessionEntry; client, request, response: Prefixed);
layout!(Snapshot; applied_through, next_batch, committed, store, sessions);

impl Snapshot {
    /// Encodes the snapshot payload (no framing).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        to_bytes(self)
    }

    /// Decodes a snapshot payload produced by [`encode`](Snapshot::encode).
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        from_bytes(bytes)
    }

    /// Serializes the snapshot as one checksummed, framed record — the
    /// byte form written to disk and shipped over the sync channel.
    #[must_use]
    pub fn to_framed_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        frame_record(self, &mut out);
        out
    }

    /// Parses and checksum-verifies a framed snapshot byte blob: exactly
    /// one whole record.
    pub fn from_framed_bytes(bytes: &[u8]) -> Result<Self, WalError> {
        let mut decoder = WalDecoder::new();
        decoder.feed(bytes);
        match (decoder.next_payload(), decoder.tail()) {
            (Some(payload), WalTail::Clean) => Ok(Self::decode(&payload)?),
            _ => Err(WalError::Malformed(ProtoError::Truncated)),
        }
    }

    /// Writes the snapshot atomically: temp file, fsync, rename over the
    /// target.
    pub fn write_to(&self, path: &Path) -> Result<(), WalError> {
        Ok(atomic_replace(path, &self.to_framed_bytes())?)
    }

    /// Loads the snapshot at `path`; `Ok(None)` if none was ever written.
    pub fn load(path: &Path) -> Result<Option<Self>, WalError> {
        read_if_exists(path)?.map(|bytes| Self::from_framed_bytes(&bytes)).transpose()
    }
}

#[cfg(test)]
mod tests {
    use crate::proto::Outcome;

    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            applied_through: 42,
            next_batch: 7,
            committed: 99,
            store: [(1u16, 10u32), (65535, 4_000_000_000)].into_iter().collect(),
            sessions: vec![SessionEntry {
                client: ClientId(3),
                request: RequestId(11),
                response: Response {
                    request: RequestId(11),
                    shard: 0,
                    outcome: Outcome::Get { slot: 40, value: Some(10) },
                },
            }],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let s = sample();
        assert_eq!(Snapshot::decode(&s.encode()).unwrap(), s);
        assert_eq!(Snapshot::from_framed_bytes(&s.to_framed_bytes()).unwrap(), s);
    }

    #[test]
    fn corrupt_framed_snapshot_is_rejected() {
        let mut bytes = sample().to_framed_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(Snapshot::from_framed_bytes(&bytes).is_err());
    }

    #[test]
    fn atomic_write_and_load() {
        let dir = std::env::temp_dir().join(format!("indulgent-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        assert!(Snapshot::load(&path).unwrap().is_none());
        let s = sample();
        s.write_to(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), Some(s.clone()));
        // Overwrite with a newer snapshot; the rename replaces atomically.
        let mut newer = s;
        newer.applied_through = 100;
        newer.write_to(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap().unwrap().applied_through, 100);
        std::fs::remove_dir_all(&dir).ok();
    }
}
