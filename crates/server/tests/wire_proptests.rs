//! Property-based tests of the frame codec: byte-identical round-trips
//! through arbitrary read-chunkings, and oversized-frame rejection —
//! plus the stats scrape payload riding the same framing, and the
//! contract every fixed layout inside a frame or a file keeps (one table,
//! one row per layout).

use indulgent_model::{BatchId, ClientId, RequestId};
use indulgent_obs::Histogram;
use indulgent_server::wal::{decode_payload, encode_payload};
use indulgent_server::wire::{encode_frame, FrameDecoder, FrameReader, MAX_FRAME};
use indulgent_server::{
    AckRecord, AuditSummary, KvOp, LeaseStatus, Outcome, ProtoError, Request, Response,
    SessionEntry, SlotRecord, Snapshot, StatsReport, SyncFrame,
};
use proptest::prelude::*;

/// A batch of frame payloads of assorted sizes (empty frames included).
fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..12)
}

/// Splits `wire` into chunks whose sizes are driven by `cuts`, covering
/// partial (byte-by-byte), exact, and coalesced (many frames per read)
/// deliveries of the same byte stream.
fn chunkings(wire: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut chunks = Vec::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < wire.len() {
        let step = if cuts.is_empty() { wire.len() } else { cuts[i % cuts.len()] % 97 + 1 };
        let end = (pos + step).min(wire.len());
        chunks.push(wire[pos..end].to_vec());
        pos = end;
        i += 1;
    }
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Any chunking of the same byte stream decodes to the same frames:
    // the decoder is chunking-independent by construction.
    #[test]
    fn round_trip_through_any_chunking(
        frames in payloads(),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame(f, &mut wire);
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for chunk in chunkings(&wire, &cuts) {
            decoder.feed(&chunk);
            while let Some(frame) = decoder.next_frame().expect("well-formed stream") {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(&decoded, &frames);
        prop_assert_eq!(decoder.pending(), 0);
    }

    // The blocking reader agrees with the incremental decoder on the
    // same stream (it is the per-connection wrapper the server uses).
    #[test]
    fn reader_matches_decoder(frames in payloads()) {
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame(f, &mut wire);
        }
        let mut reader = FrameReader::new(&wire[..]);
        let mut decoded = Vec::new();
        while let Some(frame) = reader.read_frame().expect("well-formed stream") {
            decoded.push(frame);
        }
        prop_assert_eq!(&decoded, &frames);
    }

    // A header announcing more than MAX_FRAME bytes errors immediately —
    // before any of the announced payload arrives — regardless of how
    // many valid frames preceded it.
    #[test]
    fn oversized_header_rejected_after_any_prefix(
        frames in payloads(),
        excess in 1u32..1_000_000,
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame(f, &mut wire);
        }
        let announced = u32::try_from(MAX_FRAME).expect("fits") + excess;
        wire.extend_from_slice(&announced.to_le_bytes());
        // Note: no payload bytes follow the poisoned header.
        let mut decoder = FrameDecoder::new();
        decoder.feed(&wire);
        let mut popped = 0;
        let err = loop {
            match decoder.next_frame() {
                Ok(Some(_)) => popped += 1,
                Ok(None) => prop_assert!(false, "oversized header must error, got None"),
                Err(e) => break e,
            }
        };
        prop_assert_eq!(popped, frames.len());
        prop_assert!(
            matches!(err, indulgent_server::WireError::Oversized { announced: a } if a == u64::from(announced))
        );
    }

    // Truncating a stream mid-frame leaves the tail pending (the reader
    // turns that into TruncatedFrame at EOF); truncating at a boundary
    // leaves nothing.
    #[test]
    fn truncation_is_detected(frames in payloads(), cut_back in any::<usize>()) {
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame(f, &mut wire);
        }
        prop_assume!(!wire.is_empty());
        let cut = wire.len() - (cut_back % wire.len() + 1); // strictly shorter
        let mut reader = FrameReader::new(&wire[..cut]);
        let result = loop {
            match reader.read_frame() {
                Ok(Some(_)) => {}
                other => break other,
            }
        };
        // Whether this is a clean EOF or a truncation depends on where
        // the cut fell; what must never happen is a successful decode of
        // a frame the stream didn't finish, or a hang.
        match result {
            Ok(None) => {}
            Err(indulgent_server::WireError::TruncatedFrame) => {}
            other => prop_assert!(false, "unexpected terminal state: {:?}", other.map(|_| "frame")),
        }
    }
}

/// Builds a stats report the way the engine does: by recording samples
/// into live histograms and snapshotting, so the `count == Σ buckets`
/// invariant the wire format relies on holds by construction.
fn report_from(counters: &[u64], samples: &[u64]) -> StatsReport {
    let hists: [Histogram; 6] = std::array::from_fn(|_| Histogram::new());
    for (i, &v) in samples.iter().enumerate() {
        hists[i % hists.len()].record(v);
    }
    let mut report = StatsReport::zero(counters[0] as u32, counters[1] as u32 | 1);
    report.slots = counters[2];
    report.committed = counters[3];
    report.dedup_hits = counters[4];
    report.reads_lease = counters[5];
    report.reads_quorum = counters[6];
    report.reads_sequenced = counters[7];
    report.submit_seal = hists[0].snapshot();
    report.seal_decide = hists[1].snapshot();
    report.decide_apply = hists[2].snapshot();
    report.apply_ack = hists[3].snapshot();
    report.wal_fsync = hists[4].snapshot();
    report.seal_depth = hists[5].snapshot();
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // A stats scrape survives the full wire path — encode, frame, any
    // read-chunking, decode — bit-for-bit, histograms included.
    #[test]
    fn stats_report_round_trips_through_any_chunking(
        counters in proptest::collection::vec(any::<u64>(), 8..9),
        samples in proptest::collection::vec(any::<u64>(), 0..60),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let report = report_from(&counters, &samples);
        let mut wire = Vec::new();
        encode_frame(&report.encode(), &mut wire);
        let mut decoder = FrameDecoder::new();
        let mut payloads = Vec::new();
        for chunk in chunkings(&wire, &cuts) {
            decoder.feed(&chunk);
            while let Some(frame) = decoder.next_frame().expect("well-formed stream") {
                payloads.push(frame);
            }
        }
        prop_assert_eq!(payloads.len(), 1);
        let decoded = StatsReport::decode(&payloads[0]).expect("valid payload");
        prop_assert_eq!(decoded, report);
    }

    // The payload is fixed-size: any strict prefix is rejected as
    // truncated, and any appended garbage as trailing bytes — a scrape
    // can never silently mis-parse into a different report.
    #[test]
    fn stats_report_rejects_truncation_and_padding(
        counters in proptest::collection::vec(any::<u64>(), 8..9),
        samples in proptest::collection::vec(any::<u64>(), 0..30),
        cut_back in any::<usize>(),
        pad in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let payload = report_from(&counters, &samples).encode();
        let cut = payload.len() - (cut_back % payload.len() + 1);
        prop_assert_eq!(StatsReport::decode(&payload[..cut]), Err(ProtoError::Truncated));
        let mut padded = payload;
        padded.extend_from_slice(&pad);
        prop_assert_eq!(StatsReport::decode(&padded), Err(ProtoError::TrailingBytes));
    }
}

/// A decoder that reports whether it read back one particular value.
type ReadsBack = Box<dyn Fn(&[u8]) -> Result<bool, ProtoError>>;

/// One fixed layout under the codec contract: the bytes of a valid value,
/// and its decoder, which reports whether it read back exactly that value.
struct Row {
    name: &'static str,
    bytes: Vec<u8>,
    decode: ReadsBack,
    /// Where an open-ended trailing byte field starts, if the layout ends
    /// in one: a longer prefix, or one more byte, decodes to another value.
    open_from: Option<usize>,
    /// `(offset, byte)` overwrites the decoder refuses as `BadTag(byte)`.
    refusals: Vec<(usize, u8)>,
}

impl Row {
    fn new<T: PartialEq + 'static>(
        name: &'static str,
        value: T,
        encode: impl Fn(&T) -> Vec<u8>,
        decode: fn(&[u8]) -> Result<T, ProtoError>,
    ) -> Self {
        let bytes = encode(&value);
        let decode = Box::new(move |bytes: &[u8]| decode(bytes).map(|v| v == value));
        Row { name, bytes, decode, open_from: None, refusals: Vec::new() }
    }

    fn open_from(self, offset: usize) -> Self {
        Row { open_from: Some(offset), ..self }
    }

    fn refusing(self, refusals: Vec<(usize, u8)>) -> Self {
        Row { refusals, ..self }
    }
}

fn op_from(w: &[u64]) -> KvOp {
    if w[0] & 1 == 0 {
        KvOp::Put { key: w[1] as u16, value: w[2] as u32 }
    } else {
        KvOp::Get { key: w[1] as u16 }
    }
}

fn outcome_from(w: &[u64]) -> Outcome {
    let value = (w[1] & 1 == 0).then_some(w[2] as u32);
    match w[0] % 3 {
        0 => Outcome::Put { slot: w[3] },
        1 => Outcome::Get { slot: w[3], value },
        _ => Outcome::Read { index: w[3], value },
    }
}

fn response_from(w: &[u64]) -> Response {
    Response { request: RequestId(w[4]), shard: w[5] as u32, outcome: outcome_from(w) }
}

/// One row per fixed layout the server writes, each holding a value built
/// from the random words `w`, the histogram `samples` and the byte `blob`.
fn contract_rows(w: &[u64], samples: &[u64], blob: &[u8]) -> Vec<Row> {
    let request =
        Request { client: ClientId(w[0]), request: RequestId(w[1]), op: op_from(&w[2..]) };
    let response = response_from(&w[3..]);
    let mut response_refusals = vec![(0, 0x77), (13, 0x04)];
    if !matches!(response.outcome, Outcome::Put { .. }) {
        // The presence byte of the value a read returns.
        response_refusals.push((22, 0x02));
    }
    let audit = AuditSummary {
        complete: w[0] & 1 == 1,
        ok: w[0] & 2 == 2,
        slots: w[1],
        committed: w[2],
        dedup_hits: w[3],
        fast_reads: w[4],
        lease_epoch: w[5],
        shards: w[6] as u32,
    };
    let lease = LeaseStatus {
        shard: w[0] as u32,
        shards: w[1] as u32,
        // A `ReadPath` wire byte: 0 (sequenced) or 2 (lease).
        mode: (w[2] % 2 * 2) as u8,
        epoch: w[3],
        healthy: w[4] & 1 == 1,
        grants: w[5] as u32,
        read_index: w[6],
        reads_lease: w[7],
        reads_quorum: w[8],
        reads_sequenced: w[9],
    };
    let snapshot = Snapshot {
        applied_through: w[0],
        next_batch: w[1],
        committed: w[2],
        store: w[3..3 + (w[10] % 5) as usize]
            .iter()
            .map(|&x| (x as u16, (x >> 16) as u32))
            .collect(),
        sessions: (0..(w[11] % 4) as usize)
            .map(|i| SessionEntry {
                client: ClientId(w[i]),
                request: RequestId(w[i + 1]),
                response: response_from(&w[i..]),
            })
            .collect(),
    };
    let slot = SlotRecord {
        slot: w[0],
        batch: BatchId(w[1]),
        commands: (0..(w[12] % 4) as usize)
            .map(|i| AckRecord {
                client: ClientId(w[i]),
                request: RequestId(w[i + 1]),
                op: op_from(&w[i + 2..]),
                response: response_from(&w[i + 3..]),
            })
            .collect(),
    };
    let chunk =
        SyncFrame::SnapshotChunk { index: w[0] as u32, total: w[1] as u32, bytes: blob.to_vec() };
    vec![
        Row::new("Request", request, Request::encode, Request::decode)
            .refusing(vec![(0, 0x77), (17, 0x03)]),
        Row::new("Response", response, Response::encode, Response::decode)
            .refusing(response_refusals),
        Row::new(
            "SyncFrame::Request",
            SyncFrame::Request { from_slot: w[0], shard: w[1] as u32 },
            SyncFrame::encode,
            SyncFrame::decode,
        )
        .refusing(vec![(0, 0x7f)]),
        Row::new("SyncFrame::SnapshotChunk", chunk, SyncFrame::encode, SyncFrame::decode)
            .open_from(9),
        Row::new(
            "SyncFrame::Record",
            SyncFrame::Record { bytes: blob.to_vec() },
            SyncFrame::encode,
            SyncFrame::decode,
        )
        .open_from(1),
        Row::new(
            "SyncFrame::Done",
            SyncFrame::Done { applied_through: w[0] },
            SyncFrame::encode,
            SyncFrame::decode,
        ),
        // `complete` and `ok` are bools: only 0 and 1.
        Row::new("AuditSummary", audit, AuditSummary::encode, AuditSummary::decode).refusing(vec![
            (0, 0x07),
            (1, 2),
            (1, 0xff),
            (2, 2),
            (2, 0x80),
        ]),
        // `mode` is 0 or 2; `healthy` is a bool.
        Row::new("LeaseStatus", lease, LeaseStatus::encode, LeaseStatus::decode).refusing(vec![
            (0, 0x0e),
            (9, 1),
            (9, 3),
            (9, 0xff),
            (18, 2),
            (18, 0xff),
        ]),
        Row::new("StatsReport", report_from(w, samples), StatsReport::encode, StatsReport::decode)
            .refusing(vec![(0, 0x70)]),
        Row::new("Snapshot payload", snapshot, Snapshot::encode, Snapshot::decode),
        Row::new("WAL slot payload", slot, encode_payload, decode_payload),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The contract every fixed layout keeps: a valid value reads back
    // unchanged, every strict prefix is truncated, one more byte is
    // trailing, and a bad tag, bool or mode byte is refused by name — so
    // no input can silently mis-parse into another value.
    #[test]
    fn every_layout_keeps_the_codec_contract(
        w in proptest::collection::vec(any::<u64>(), 16..17),
        samples in proptest::collection::vec(any::<u64>(), 0..60),
        blob in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        for row in contract_rows(&w, &samples, &blob) {
            let open_from = row.open_from.unwrap_or(row.bytes.len());
            for cut in 0..row.bytes.len() {
                let expected = if cut < open_from { Err(ProtoError::Truncated) } else { Ok(false) };
                let got = (row.decode)(&row.bytes[..cut]);
                prop_assert!(got == expected, "{}: cut at {} decoded to {:?}", row.name, cut, got);
            }
            let mut cases = vec![(row.bytes.clone(), Ok(true))];
            let mut longer = row.bytes.clone();
            longer.push(w[15] as u8);
            let expected =
                if row.open_from.is_some() { Ok(false) } else { Err(ProtoError::TrailingBytes) };
            cases.push((longer, expected));
            for &(offset, byte) in &row.refusals {
                let mut bad = row.bytes.clone();
                bad[offset] = byte;
                cases.push((bad, Err(ProtoError::BadTag(byte))));
            }
            for (bytes, expected) in cases {
                let got = (row.decode)(&bytes);
                prop_assert!(
                    got == expected,
                    "{}: {:?} decoded to {:?}, expected {:?}",
                    row.name,
                    bytes,
                    got,
                    expected
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // A decoder refuses what it cannot read and never panics or aborts:
    // neither on arbitrary bytes nor on a valid encoding with a run of
    // its bytes overwritten (a peer's bug, or rot the CRC did not catch).
    #[test]
    fn no_input_panics_a_decoder(
        w in proptest::collection::vec(any::<u64>(), 16..17),
        samples in proptest::collection::vec(any::<u64>(), 0..60),
        blob in proptest::collection::vec(any::<u8>(), 0..40),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
        at in any::<usize>(),
    ) {
        for row in contract_rows(&w, &samples, &blob) {
            let _ = (row.decode)(&noise);
            let mut damaged = row.bytes.clone();
            let at = at % damaged.len();
            for (byte, n) in damaged[at..].iter_mut().zip(&noise) {
                *byte = *n;
            }
            let _ = (row.decode)(&damaged);
        }
    }
}

#[test]
fn counts_that_no_input_backs_are_truncated() {
    // Three u64 counters, an empty store, then u32::MAX session entries.
    let mut snapshot = vec![0; 28];
    snapshot.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(Snapshot::decode(&snapshot), Err(ProtoError::Truncated));
    // Slot and batch, then u32::MAX commands.
    let mut slot = vec![0; 16];
    slot.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(decode_payload(&slot), Err(ProtoError::Truncated));
}

#[test]
fn histogram_buckets_that_overflow_their_count_are_refused() {
    let mut report = StatsReport::zero(0, 1);
    report.wal_fsync.buckets[0] = u64::MAX;
    report.wal_fsync.buckets[1] = 1;
    assert_eq!(StatsReport::decode(&report.encode()), Err(ProtoError::CountOverflow));
}
