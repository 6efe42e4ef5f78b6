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
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use indulgent_model::{ClientId, RequestId};

use crate::proto::{ProtoError, Response};
use crate::wal::{crc32, WalError, MAX_RECORD, RECORD_HEADER_LEN};

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

impl Snapshot {
    /// Encodes the snapshot payload (no framing).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.store.len() * 6 + self.sessions.len() * 40);
        out.extend_from_slice(&self.applied_through.to_le_bytes());
        out.extend_from_slice(&self.next_batch.to_le_bytes());
        out.extend_from_slice(&self.committed.to_le_bytes());
        out.extend_from_slice(
            &u32::try_from(self.store.len()).expect("u16-keyed store").to_le_bytes(),
        );
        for (&key, &value) in &self.store {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
        }
        out.extend_from_slice(
            &u32::try_from(self.sessions.len()).expect("bounded session table").to_le_bytes(),
        );
        for s in &self.sessions {
            out.extend_from_slice(&s.client.0.to_le_bytes());
            out.extend_from_slice(&s.request.0.to_le_bytes());
            let resp = s.response.encode();
            out.extend_from_slice(
                &u16::try_from(resp.len()).expect("responses are tens of bytes").to_le_bytes(),
            );
            out.extend_from_slice(&resp);
        }
        out
    }

    /// Decodes a snapshot payload produced by [`encode`](Snapshot::encode).
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8], ProtoError> {
            if bytes.len() < n {
                return Err(ProtoError::Truncated);
            }
            let (head, rest) = bytes.split_at(n);
            *bytes = rest;
            Ok(head)
        }
        fn u64_of(bytes: &mut &[u8]) -> Result<u64, ProtoError> {
            Ok(u64::from_le_bytes(take(bytes, 8)?.try_into().expect("8 bytes")))
        }
        fn u32_of(bytes: &mut &[u8]) -> Result<u32, ProtoError> {
            Ok(u32::from_le_bytes(take(bytes, 4)?.try_into().expect("4 bytes")))
        }
        let mut c = bytes;
        let applied_through = u64_of(&mut c)?;
        let next_batch = u64_of(&mut c)?;
        let committed = u64_of(&mut c)?;
        let store_len = u32_of(&mut c)?;
        let mut store = BTreeMap::new();
        for _ in 0..store_len {
            let key = u16::from_le_bytes(take(&mut c, 2)?.try_into().expect("2 bytes"));
            let value = u32_of(&mut c)?;
            store.insert(key, value);
        }
        let sessions_len = u32_of(&mut c)?;
        let mut sessions = Vec::with_capacity(sessions_len as usize);
        for _ in 0..sessions_len {
            let client = ClientId(u64_of(&mut c)?);
            let request = RequestId(u64_of(&mut c)?);
            let resp_len = u16::from_le_bytes(take(&mut c, 2)?.try_into().expect("2 bytes"));
            let response = Response::decode(take(&mut c, resp_len as usize)?)?;
            sessions.push(SessionEntry { client, request, response });
        }
        if !c.is_empty() {
            return Err(ProtoError::TrailingBytes);
        }
        Ok(Snapshot { applied_through, next_batch, committed, store, sessions })
    }

    /// Serializes the snapshot as one checksummed, framed record — the
    /// byte form written to disk and shipped over the sync channel.
    #[must_use]
    pub fn to_framed_bytes(&self) -> Vec<u8> {
        let payload = self.encode();
        assert!(payload.len() <= MAX_RECORD, "snapshot exceeds MAX_RECORD");
        let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        out.extend_from_slice(
            &u32::try_from(payload.len()).expect("bounded by MAX_RECORD").to_le_bytes(),
        );
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses and checksum-verifies a framed snapshot byte blob.
    pub fn from_framed_bytes(bytes: &[u8]) -> Result<Self, WalError> {
        if bytes.len() < RECORD_HEADER_LEN {
            return Err(WalError::Malformed(ProtoError::Truncated));
        }
        let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
        let stored = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD || bytes.len() != RECORD_HEADER_LEN + len {
            return Err(WalError::Malformed(ProtoError::Truncated));
        }
        let payload = &bytes[RECORD_HEADER_LEN..];
        if crc32(payload) != stored {
            return Err(WalError::Malformed(ProtoError::Truncated));
        }
        Ok(Self::decode(payload)?)
    }

    /// Writes the snapshot atomically: temp file, fsync, rename over the
    /// target.
    pub fn write_to(&self, path: &Path) -> Result<(), WalError> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&self.to_framed_bytes())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, path)?;
        // Durably record the rename itself where the platform allows.
        if let Some(parent) = path.parent() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_data();
            }
        }
        Ok(())
    }

    /// Loads the snapshot at `path`; `Ok(None)` if none was ever written.
    pub fn load(path: &Path) -> Result<Option<Self>, WalError> {
        let mut file = match OpenOptions::new().read(true).open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        Ok(Some(Self::from_framed_bytes(&bytes)?))
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
