//! Golden-byte pins of everything the server persists or sends.
//!
//! The round-trip tests elsewhere pass even when an encoder and its
//! decoder change the format together; these do not. Each test compares
//! the exact bytes of a fixed value against a hand-derived layout
//! (fields separated by spaces, integers little-endian), so a format
//! change has to be made here on purpose. Frames too large to spell out
//! are pinned by length plus CRC32.

use std::path::PathBuf;

use indulgent_model::{BatchId, ClientId, RequestId};
use indulgent_obs::BUCKETS;
use indulgent_server::proto::{audit_request_frame, lease_state_request_frame};
use indulgent_server::wal::{crc32, encode_record};
use indulgent_server::{
    stats_request_frame, store_epoch, store_manifest, AckRecord, AuditSummary, KvOp, LeaseStatus,
    Outcome, Request, Response, SessionEntry, SlotRecord, Snapshot, StatsReport, SyncFrame,
};

/// Parses a spaced hex layout into bytes.
fn hex(layout: &str) -> Vec<u8> {
    let digits: Vec<u8> = layout.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("indulgent-golden-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn requests() {
    let request =
        |op| Request { client: ClientId(0x0102_0304_0506_0708), request: RequestId(9), op };
    assert_eq!(
        request(KvOp::Put { key: 0x0a0b, value: 0x0c0d_0e0f }).encode(),
        hex("01 0807060504030201 0900000000000000 01 0b0a 0f0e0d0c")
    );
    assert_eq!(
        request(KvOp::Get { key: 0x0a0b }).encode(),
        hex("01 0807060504030201 0900000000000000 02 0b0a")
    );
}

#[test]
fn responses_for_every_outcome() {
    let cases = [
        (Outcome::Put { slot: 0x11 }, "01 1100000000000000"),
        (Outcome::Get { slot: 0x12, value: None }, "02 1200000000000000 00"),
        (Outcome::Get { slot: 0x13, value: Some(0x0c0d_0e0f) }, "02 1300000000000000 01 0f0e0d0c"),
        (Outcome::Read { index: 0x14, value: None }, "03 1400000000000000 00"),
        (Outcome::Read { index: 0x15, value: Some(7) }, "03 1500000000000000 01 07000000"),
    ];
    for (outcome, tail) in cases {
        let response = Response { request: RequestId(9), shard: 2, outcome };
        assert_eq!(
            response.encode(),
            hex(&format!("02 0900000000000000 02000000 {tail}")),
            "{outcome:?}"
        );
    }
}

#[test]
fn sync_frames() {
    let cases = [
        (SyncFrame::Request { from_slot: 17, shard: 3 }, "03 1100000000000000 03000000"),
        (
            SyncFrame::SnapshotChunk { index: 2, total: 5, bytes: vec![0xaa, 0xbb, 0xcc] },
            "04 02000000 05000000 aabbcc",
        ),
        (SyncFrame::Record { bytes: vec![0xde, 0xad, 0xbe, 0xef] }, "05 deadbeef"),
        (SyncFrame::Done { applied_through: 0x0102 }, "06 0201000000000000"),
    ];
    for (frame, layout) in cases {
        assert_eq!(frame.encode(), hex(layout), "{frame:?}");
    }
}

#[test]
fn control_frames() {
    assert_eq!(audit_request_frame(), hex("07"));
    assert_eq!(lease_state_request_frame(3), hex("0e 03000000"));
    assert_eq!(stats_request_frame(3), hex("10 03000000"));
    let audit = AuditSummary {
        complete: true,
        ok: false,
        slots: 9,
        committed: 72,
        dedup_hits: 3,
        fast_reads: 41,
        lease_epoch: 2,
        shards: 4,
    };
    assert_eq!(
        audit.encode(),
        hex("08 01 00 0900000000000000 4800000000000000 0300000000000000 \
             2900000000000000 0200000000000000 04000000")
    );
    let lease = LeaseStatus {
        shard: 2,
        shards: 4,
        mode: 2,
        epoch: 5,
        healthy: true,
        grants: 4,
        read_index: 1234,
        reads_lease: 900,
        reads_quorum: 3,
        reads_sequenced: 97,
    };
    assert_eq!(
        lease.encode(),
        hex("0f 02000000 04000000 02 0500000000000000 01 04000000 d204000000000000 \
             8403000000000000 0300000000000000 6100000000000000")
    );
}

#[test]
fn stats_report_by_length_and_checksum() {
    let mut report = StatsReport::zero(1, 4);
    report.slots = 100;
    report.committed = 400;
    report.dedup_hits = 3;
    report.reads_lease = 900;
    report.reads_quorum = 5;
    report.reads_sequenced = 95;
    report.submit_seal.buckets[3] = 2;
    report.submit_seal.count = 2;
    report.submit_seal.sum = 17;
    report.submit_seal.max = 9;
    report.wal_fsync.buckets[20] = 17;
    report.wal_fsync.count = 17;
    report.wal_fsync.sum = 17 * 700_000;
    report.wal_fsync.max = 1_100_000;
    let bytes = report.encode();
    // 1 tag + 2 u32 + 6 u64 counters + 6 histograms of (buckets + sum + max) u64.
    assert_eq!(BUCKETS, 64);
    assert_eq!(bytes.len(), 1 + 8 + 48 + 6 * (BUCKETS + 2) * 8);
    assert_eq!(
        bytes[..57],
        hex("11 01000000 04000000 6400000000000000 9001000000000000 0300000000000000 \
             8403000000000000 0500000000000000 5f00000000000000")[..]
    );
    assert_eq!(crc32(&bytes), 0x245f_247a);
}

fn slot_record() -> SlotRecord {
    SlotRecord {
        slot: 5,
        batch: BatchId(4),
        commands: vec![
            AckRecord {
                client: ClientId(7),
                request: RequestId(5),
                op: KvOp::Put { key: 1, value: 2 },
                response: Response {
                    request: RequestId(5),
                    shard: 1,
                    outcome: Outcome::Put { slot: 5 },
                },
            },
            AckRecord {
                client: ClientId(8),
                request: RequestId(6),
                op: KvOp::Get { key: 3 },
                response: Response {
                    request: RequestId(6),
                    shard: 1,
                    outcome: Outcome::Get { slot: 5, value: None },
                },
            },
        ],
    }
}

#[test]
fn wal_record() {
    let mut bytes = Vec::new();
    encode_record(&slot_record(), &mut bytes);
    let payload = hex("0500000000000000 0400000000000000 02000000 \
         0700000000000000 0500000000000000 0200000001000080 \
         1600 02 0500000000000000 01000000 01 0500000000000000 \
         0800000000000000 0600000000000000 0000000003000000 \
         1700 02 0600000000000000 01000000 02 0500000000000000 00");
    assert_eq!(payload.len(), 0x75);
    let mut expected = hex("75000000 4cc52fdb");
    expected.extend_from_slice(&payload);
    assert_eq!(bytes, expected);
}

#[test]
fn snapshot_file() {
    let snapshot = Snapshot {
        applied_through: 42,
        next_batch: 7,
        committed: 99,
        store: [(1u16, 10u32), (0xffff, 4_000_000_000)].into_iter().collect(),
        sessions: vec![SessionEntry {
            client: ClientId(3),
            request: RequestId(11),
            response: Response {
                request: RequestId(11),
                shard: 0,
                outcome: Outcome::Get { slot: 40, value: Some(10) },
            },
        }],
    };
    let payload = hex("2a00000000000000 0700000000000000 6300000000000000 \
         02000000 0100 0a000000 ffff 00286bee \
         01000000 0300000000000000 0b00000000000000 \
         1b00 02 0b00000000000000 00000000 02 2800000000000000 01 0a000000");
    assert_eq!(payload.len(), 0x59);
    let mut expected = hex("59000000 fdf7b746");
    expected.extend_from_slice(&payload);
    assert_eq!(snapshot.to_framed_bytes(), expected);

    // The file on disk is exactly the framed bytes.
    let dir = scratch_dir("snapshot");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.snap");
    snapshot.write_to(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn epoch_and_manifest_files() {
    let dir = scratch_dir("fixed");
    store_epoch(&dir, 0x0102_0304_0506_0708).unwrap();
    assert_eq!(std::fs::read(dir.join("lease.epoch")).unwrap(), hex("0807060504030201 25edcca5"));
    store_manifest(&dir, 4).unwrap();
    assert_eq!(std::fs::read(dir.join("shards.manifest")).unwrap(), hex("04000000 4b4826ae"));
    std::fs::remove_dir_all(&dir).ok();
}
