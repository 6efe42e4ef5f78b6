//! Every byte the server persists: the write-ahead log of decided slots,
//! and the framing, checksums and file operations the snapshot
//! ([`crate::snapshot`]), the lease epoch ([`crate::lease`]) and the
//! shard manifest ([`crate::shard`]) share with it.
//!
//! Every applied slot is persisted as one *record* before its
//! acknowledgements leave the engine: a 4-byte little-endian payload
//! length, a 4-byte CRC32 of the payload, then the payload — the
//! [`crate::wire`] framing discipline with a checksum on top, because a
//! disk (unlike a TCP stream) hands back whatever bytes survived a
//! crash, torn and bit-rotten included. Records are appended and
//! `fdatasync`'d at slot boundaries, so the durable prefix always ends
//! on a whole slot. The snapshot file is one record in the same framing.
//!
//! Recovery reads the file through the same incremental [`WalDecoder`]
//! the proptests chunk-feed: the longest valid prefix of records is
//! recovered, and the tail is classified —
//!
//! * [`WalTail::Clean`] — the file ends exactly at a record boundary;
//! * [`WalTail::Torn`] — the file ends mid-record (the crash interrupted
//!   an append); the partial record is discarded and truncated away;
//! * [`WalTail::Corrupt`] — a record body fails its checksum or a header
//!   announces an impossible length (bit rot, not a torn append).
//!
//! A shard directory holds `wal.log`, `state.snap` and `lease.epoch`;
//! the durability root holds `shards.manifest`. The epoch and the
//! manifest are one fixed-width value followed by its CRC32. Every file
//! but the WAL is written whole by one atomic temp-file + fsync + rename.
//!
//! The CRC32 is implemented in-tree (IEEE polynomial, byte-wise table):
//! the workspace vendors its dependencies by design, and eight lines of
//! table generation keep the WAL's integrity story auditable next to the
//! codec it protects.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use indulgent_model::{BatchId, ClientId, RequestId};

use crate::proto::{
    from_bytes, layout, to_bytes, Cursor, Field, KvOp, Prefixed, ProtoError, Response,
};
use crate::snapshot::Snapshot;

/// One acknowledged command inside a slot, as the engine recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRecord {
    /// The submitting session.
    pub client: ClientId,
    /// The session's request number.
    pub request: RequestId,
    /// The operation sequenced.
    pub op: KvOp,
    /// The response the engine sent when it applied the slot.
    pub response: Response,
}

/// One applied log slot: the batch that occupied it and the commands it
/// carried. The WAL persists one per record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotRecord {
    /// The slot (1-based, monotonic across incarnations).
    pub slot: u64,
    /// The decided batch.
    pub batch: BatchId,
    /// The batch's commands in order, with their recorded acks.
    pub commands: Vec<AckRecord>,
}

layout!(AckRecord; client, request, op: Payload, response: Prefixed);
layout!(SlotRecord; slot, batch, commands);

/// An operation as the `u64` command payload the log carries
/// ([`KvOp::to_payload`]): its form inside a slot record.
struct Payload(KvOp);

impl Field for Payload {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.to_payload().put(out);
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        c.get().map(|payload| Payload(KvOp::from_payload(payload)))
    }
}

/// Hard bound on a WAL record's payload size (1 MiB).
///
/// Real records are `batch_size` commands of ~40 bytes each; the bound
/// exists to reject corrupt length headers before allocating.
pub const MAX_RECORD: usize = 1024 * 1024;

/// Bytes of the record header: u32 payload length + u32 CRC32.
pub const RECORD_HEADER_LEN: usize = 8;

/// The write-ahead log inside a shard directory.
const WAL_FILE: &str = "wal.log";
/// The last checkpoint inside a shard directory.
const SNAPSHOT_FILE: &str = "state.snap";
/// The burned lease epoch inside a shard directory.
pub(crate) const EPOCH_FILE: &str = "lease.epoch";
/// The shard count at the durability root.
pub(crate) const MANIFEST_FILE: &str = "shards.manifest";

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table,
/// generated at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 checksum of `bytes` (IEEE polynomial — the WAL record checksum).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// How the byte stream ended after the last whole record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The stream ends exactly at a record boundary.
    Clean,
    /// The stream ends mid-record at `offset` — a torn append; the
    /// partial record is discarded.
    Torn {
        /// Byte offset of the incomplete record's header.
        offset: u64,
    },
    /// The record at `offset` is damaged: checksum mismatch or an
    /// impossible length header.
    Corrupt {
        /// Byte offset of the damaged record's header.
        offset: u64,
    },
}

/// A WAL-level error surfaced to the engine.
#[derive(Debug)]
pub enum WalError {
    /// A record payload does not decode as a slot record.
    Malformed(ProtoError),
    /// An underlying file operation failed.
    Io(io::Error),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Malformed(e) => write!(f, "malformed slot record: {e}"),
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<ProtoError> for WalError {
    fn from(e: ProtoError) -> Self {
        WalError::Malformed(e)
    }
}

/// Appends `value` to `out` as one record: length, CRC32, payload.
pub(crate) fn frame_record<T: Field>(value: &T, out: &mut Vec<u8>) {
    let header = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER_LEN]);
    value.put(out);
    let payload = &out[header + RECORD_HEADER_LEN..];
    assert!(payload.len() <= MAX_RECORD, "record payload exceeds MAX_RECORD");
    let len = u32::try_from(payload.len()).expect("bounded by MAX_RECORD");
    let crc = crc32(payload);
    out[header..header + 4].copy_from_slice(&len.to_le_bytes());
    out[header + 4..header + RECORD_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes a slot record's payload (no framing): slot, batch id, and the
/// commands with their recorded acknowledgements.
#[must_use]
pub fn encode_payload(rec: &SlotRecord) -> Vec<u8> {
    to_bytes(rec)
}

/// Decodes a slot record payload produced by [`encode_payload`].
pub fn decode_payload(bytes: &[u8]) -> Result<SlotRecord, ProtoError> {
    from_bytes(bytes)
}

/// Encodes one framed record (header + checksum + payload) appended to
/// `out`.
pub fn encode_record(rec: &SlotRecord, out: &mut Vec<u8>) {
    frame_record(rec, out);
}

/// Incremental WAL record decoder: feed file bytes in any chunking, pop
/// whole validated payloads.
///
/// Decoding is chunking independent (any partition of the same byte
/// stream yields the same record sequence), stops permanently at the
/// first damaged record, and classifies the stream's end via
/// [`tail`](WalDecoder::tail).
#[derive(Debug, Default)]
pub struct WalDecoder {
    buf: Vec<u8>,
    pos: usize,
    /// Absolute stream offset of `buf[pos]`.
    offset: u64,
    /// Set once a damaged record is found; decoding never resumes.
    corrupt: Option<u64>,
}

impl WalDecoder {
    /// A decoder with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete, checksum-valid record payload; `None` if
    /// the buffered bytes do not hold one (or the stream is poisoned by
    /// an earlier corrupt record).
    pub fn next_payload(&mut self) -> Option<Vec<u8>> {
        if self.corrupt.is_some() {
            return None;
        }
        let mut c = Cursor(&self.buf[self.pos..]);
        // The length field alone condemns the record: a header announcing
        // more than MAX_RECORD can never complete into a valid frame, so
        // corruption is flagged before waiting for (or allocating) the
        // announced payload.
        let len = c.get::<u32>().ok()? as usize;
        if len > MAX_RECORD {
            self.corrupt = Some(self.offset);
            return None;
        }
        let stored: u32 = c.get().ok()?;
        let payload = c.bytes(len).ok()?;
        if crc32(payload) != stored {
            self.corrupt = Some(self.offset);
            return None;
        }
        let payload = payload.to_vec();
        self.pos += RECORD_HEADER_LEN + len;
        self.offset += (RECORD_HEADER_LEN + len) as u64;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Some(payload)
    }

    /// Byte offset of the first byte after the last valid record — the
    /// length recovery truncates the file to.
    #[must_use]
    pub fn valid_len(&self) -> u64 {
        self.offset
    }

    /// Classifies the stream's end, assuming no more bytes are coming.
    #[must_use]
    pub fn tail(&self) -> WalTail {
        if let Some(offset) = self.corrupt {
            WalTail::Corrupt { offset }
        } else if self.pos == self.buf.len() {
            WalTail::Clean
        } else {
            WalTail::Torn { offset: self.offset }
        }
    }
}

/// The outcome of replaying a WAL byte stream: the longest valid prefix
/// of slot records and how the stream ended.
#[derive(Debug)]
pub struct WalReplay {
    /// The recovered records, in append order.
    pub records: Vec<SlotRecord>,
    /// How the stream ended after the last whole record.
    pub tail: WalTail,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
}

/// Replays a complete WAL byte stream.
pub fn replay_bytes(bytes: &[u8]) -> Result<WalReplay, WalError> {
    let mut decoder = WalDecoder::new();
    decoder.feed(bytes);
    let mut records = Vec::new();
    while let Some(payload) = decoder.next_payload() {
        records.push(decode_payload(&payload)?);
    }
    Ok(WalReplay { records, tail: decoder.tail(), valid_len: decoder.valid_len() })
}

/// An open write-ahead log file.
#[derive(Debug)]
pub struct Wal {
    file: File,
}

impl Wal {
    /// Opens (or creates) the WAL at `path`, replays it, repairs a torn
    /// tail by truncating to the valid prefix, and positions the file
    /// for appending.
    ///
    /// A [`WalTail::Corrupt`] tail is *not* silently repaired — the
    /// replay reports it so the caller can decide (the engine refuses to
    /// start on bit rot; a torn append is the expected crash artifact).
    pub fn open(path: &Path) -> Result<(Self, WalReplay), WalError> {
        // truncate(false): existing records are the point of a WAL.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let replay = replay_bytes(&bytes)?;
        if matches!(replay.tail, WalTail::Torn { .. }) {
            file.set_len(replay.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(replay.valid_len))?;
        Ok((Wal { file }, replay))
    }

    /// Appends one framed record (not yet durable — call
    /// [`sync`](Wal::sync) at the slot boundary).
    pub fn append(&mut self, rec: &SlotRecord) -> Result<(), WalError> {
        let mut buf = Vec::with_capacity(64);
        encode_record(rec, &mut buf);
        self.file.write_all(&buf)?;
        Ok(())
    }

    /// Makes every appended record durable (`fdatasync`).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Prefix truncation at a checkpoint: every retained record is now
    /// covered by the snapshot, so the log restarts empty.
    pub fn reset(&mut self) -> Result<(), WalError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// Replaces the file at `path` with `bytes` atomically: a sibling temp
/// file is written and fsynced, then renamed over `path`, so a crash
/// leaves either the old file or the new one. Creates the parent
/// directory if needed.
pub(crate) fn atomic_replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().unwrap_or(Path::new(""));
    fs::create_dir_all(dir)?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    // Durably record the rename itself where the platform allows.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_data();
    }
    Ok(())
}

/// The whole file at `path`; `Ok(None)` if it was never written.
pub(crate) fn read_if_exists(path: &Path) -> io::Result<Option<Vec<u8>>> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

fn damaged(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Loads a value stored by [`store_checked`]; `Ok(None)` if none was
/// ever stored. A wrong length or checksum is an error, never a silent
/// default.
pub(crate) fn load_checked<T: Field>(path: &Path) -> io::Result<Option<T>> {
    let Some(bytes) = read_if_exists(path)? else { return Ok(None) };
    let (body, crc) = bytes.split_at(bytes.len().saturating_sub(4));
    match (from_bytes(body), from_bytes::<u32>(crc)) {
        (Ok(value), Ok(stored)) if crc32(body) == stored => Ok(Some(value)),
        _ => Err(damaged(format!("{} is malformed or fails its checksum", path.display()))),
    }
}

/// Durably stores `value` followed by its CRC32 at `path`.
pub(crate) fn store_checked<T: Field>(path: &Path, value: &T) -> io::Result<()> {
    let mut bytes = to_bytes(value);
    crc32(&bytes).put(&mut bytes);
    atomic_replace(path, &bytes)
}

/// The files of one shard directory opened for serving: the WAL being
/// appended to, and where its checkpoints go.
#[derive(Debug)]
pub(crate) struct ShardFiles {
    pub(crate) wal: Wal,
    snapshot: PathBuf,
}

impl ShardFiles {
    /// Opens the shard directory `dir` (created if missing): loads the
    /// last checkpoint, opens the WAL (a torn tail is truncated away),
    /// and returns the records past the checkpoint. A corrupt WAL or a
    /// slot gap is refused: a shard never serves from damaged state.
    pub(crate) fn open(dir: &Path) -> Result<(Self, Snapshot, Vec<SlotRecord>), WalError> {
        fs::create_dir_all(dir)?;
        let snapshot = dir.join(SNAPSHOT_FILE);
        let base = Snapshot::load(&snapshot)?.unwrap_or_default();
        let (wal, replay) = Wal::open(&dir.join(WAL_FILE))?;
        if let WalTail::Corrupt { offset } = replay.tail {
            return Err(damaged(format!("wal record at byte {offset} is corrupt")).into());
        }
        // Records at or below the checkpoint are already folded into it
        // (a crash between snapshot write and WAL reset leaves them).
        let through = base.applied_through;
        let records: Vec<SlotRecord> =
            replay.records.into_iter().filter(|r| r.slot > through).collect();
        if (through + 1..).zip(&records).any(|(slot, r)| r.slot != slot) {
            return Err(damaged("wal records skip a slot past the snapshot".into()).into());
        }
        Ok((ShardFiles { wal, snapshot }, base, records))
    }

    /// Checkpoints: writes `snapshot`, then truncates the WAL it covers.
    pub(crate) fn checkpoint(&mut self, snapshot: &Snapshot) -> Result<(), WalError> {
        snapshot.write_to(&self.snapshot)?;
        self.wal.reset()
    }

    /// Materializes a transferred shard in `dir`: the checkpoint, then
    /// the WAL bytes past it.
    pub(crate) fn install(dir: &Path, snapshot: &Snapshot, wal: &[u8]) -> Result<(), WalError> {
        snapshot.write_to(&dir.join(SNAPSHOT_FILE))?;
        atomic_replace(&dir.join(WAL_FILE), wal)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(slot: u64) -> SlotRecord {
        let response = Response {
            request: RequestId(slot),
            shard: 0,
            outcome: crate::proto::Outcome::Put { slot },
        };
        SlotRecord {
            slot,
            batch: BatchId(slot - 1),
            commands: vec![AckRecord {
                client: ClientId(7),
                request: RequestId(slot),
                op: KvOp::Put { key: 1, value: 2 },
                response,
            }],
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn payload_round_trips() {
        for slot in [1u64, 2, 900] {
            let rec = record(slot);
            let decoded = decode_payload(&encode_payload(&rec)).unwrap();
            assert_eq!(decoded.slot, rec.slot);
            assert_eq!(decoded.batch, rec.batch);
            assert_eq!(decoded.commands, rec.commands);
        }
    }

    #[test]
    fn replay_recovers_clean_streams() {
        let mut wire = Vec::new();
        for slot in 1..=5 {
            encode_record(&record(slot), &mut wire);
        }
        let replay = replay_bytes(&wire).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.tail, WalTail::Clean);
        assert_eq!(replay.valid_len, wire.len() as u64);
    }

    #[test]
    fn torn_tail_recovers_longest_prefix() {
        let mut wire = Vec::new();
        encode_record(&record(1), &mut wire);
        let boundary = wire.len();
        encode_record(&record(2), &mut wire);
        let replay = replay_bytes(&wire[..wire.len() - 3]).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.tail, WalTail::Torn { offset: boundary as u64 });
        assert_eq!(replay.valid_len, boundary as u64);
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut wire = Vec::new();
        encode_record(&record(1), &mut wire);
        encode_record(&record(2), &mut wire);
        let boundary = wire.len();
        encode_record(&record(3), &mut wire);
        // Flip one payload bit of the third record.
        let idx = boundary + RECORD_HEADER_LEN + 2;
        wire[idx] ^= 0x10;
        let replay = replay_bytes(&wire).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.tail, WalTail::Corrupt { offset: boundary as u64 });
    }

    #[test]
    fn oversized_header_is_corrupt() {
        let mut wire = Vec::new();
        encode_record(&record(1), &mut wire);
        let boundary = wire.len();
        wire.extend_from_slice(&u32::try_from(MAX_RECORD + 1).unwrap().to_le_bytes());
        wire.extend_from_slice(&[0u8; 4]);
        let replay = replay_bytes(&wire).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.tail, WalTail::Corrupt { offset: boundary as u64 });
    }

    #[test]
    fn file_append_replay_and_torn_repair() {
        let dir = std::env::temp_dir().join(format!("indulgent-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        {
            let (mut wal, replay) = Wal::open(&path).unwrap();
            assert!(replay.records.is_empty());
            for slot in 1..=3 {
                wal.append(&record(slot)).unwrap();
                wal.sync().unwrap();
            }
        }
        // Tear the tail: chop two bytes off the file.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);
        {
            let (mut wal, replay) = Wal::open(&path).unwrap();
            assert_eq!(replay.records.len(), 2, "torn third record discarded");
            assert!(matches!(replay.tail, WalTail::Torn { .. }));
            // The tail was truncated away; appending continues cleanly.
            wal.append(&record(3)).unwrap();
            wal.sync().unwrap();
        }
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.tail, WalTail::Clean);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_open_skips_folded_records_and_refuses_damage() {
        let dir = std::env::temp_dir().join(format!("indulgent-shard-open-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let base = Snapshot { applied_through: 1, ..Snapshot::default() };
        let mut wal = Vec::new();
        for slot in 1..=3 {
            encode_record(&record(slot), &mut wal);
        }
        ShardFiles::install(&dir, &base, &wal).unwrap();
        let (mut files, snapshot, records) = ShardFiles::open(&dir).unwrap();
        assert_eq!(snapshot, base);
        assert_eq!(records.iter().map(|r| r.slot).collect::<Vec<_>>(), [2, 3]);

        // A checkpoint empties the WAL; reopening finds the snapshot alone.
        let newer = Snapshot { applied_through: 3, ..Snapshot::default() };
        files.checkpoint(&newer).unwrap();
        drop(files);
        let (_, snapshot, records) = ShardFiles::open(&dir).unwrap();
        assert_eq!((snapshot, records.len()), (newer, 0));

        // A slot gap and a bit flip are both refused.
        let mut gap = Vec::new();
        encode_record(&record(5), &mut gap);
        ShardFiles::install(&dir, &base, &gap).unwrap();
        assert!(ShardFiles::open(&dir).is_err());
        let mut flipped = wal;
        flipped[RECORD_HEADER_LEN] ^= 1;
        ShardFiles::install(&dir, &base, &flipped).unwrap();
        assert!(ShardFiles::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
