//! The length-framed wire codec.
//!
//! Every message on a service connection travels as one *frame*: a
//! 4-byte little-endian payload length followed by the payload bytes.
//! TCP is a byte stream — a frame may arrive split across any number of
//! reads, and several frames may coalesce into one read — so decoding is
//! incremental: feed whatever bytes arrived into a [`FrameDecoder`] and
//! pop complete frames as they materialize. A frame must round-trip
//! byte-identically through *any* read-chunking (the codec proptests
//! enumerate splits), and a header announcing more than [`MAX_FRAME`]
//! bytes is rejected immediately — before buffering the payload — so a
//! corrupt or hostile peer cannot make the server allocate unboundedly.
//!
//! The codec is vendored by design: a u32 length prefix needs no
//! registry dependency, and keeping it in-tree keeps the service's wire
//! surface auditable next to the protocol it carries ([`crate::proto`]).

use std::fmt;
use std::io::{self, Read, Write};

/// Hard bound on a frame's payload size (64 KiB).
///
/// Service messages are tens of bytes; the bound exists to reject
/// corrupt length headers, not to size real traffic.
pub const MAX_FRAME: usize = 64 * 1024;

/// Bytes of the frame header (little-endian u32 payload length).
pub const HEADER_LEN: usize = 4;

/// A wire-level error: oversized frame or a failed socket operation.
#[derive(Debug)]
pub enum WireError {
    /// A frame header announced `announced` bytes, above [`MAX_FRAME`].
    Oversized {
        /// The length the corrupt/hostile header announced.
        announced: u64,
    },
    /// The peer closed the connection mid-frame.
    TruncatedFrame,
    /// An underlying socket read/write failed.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Oversized { announced } => {
                write!(f, "frame header announces {announced} bytes (max {MAX_FRAME})")
            }
            WireError::TruncatedFrame => write!(f, "connection closed mid-frame"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Encodes `payload` as one frame appended to `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    assert!(payload.len() <= MAX_FRAME, "frame payload exceeds MAX_FRAME");
    out.extend_from_slice(
        &u32::try_from(payload.len()).expect("bounded by MAX_FRAME").to_le_bytes(),
    );
    out.extend_from_slice(payload);
}

/// Writes `payload` as one frame to `w` (header + payload, flushed).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_frame(payload, &mut buf);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Incremental frame decoder: buffers stream bytes, yields complete
/// payloads.
///
/// `feed` accepts bytes in whatever chunks the socket produced;
/// [`next_frame`](FrameDecoder::next_frame) pops the oldest complete
/// frame, or `None` until more bytes arrive. Decoding is chunking
/// independent: any partition of the same byte stream yields the same
/// frame sequence.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read position inside `buf` (consumed bytes are compacted away
    /// lazily, once the buffer is fully drained).
    pos: usize,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame payload, `None` if the buffered bytes
    /// do not yet hold one. An oversized length header errors without
    /// consuming it (the connection is poisoned and should be dropped).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..HEADER_LEN].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Oversized { announced: len as u64 });
        }
        if avail.len() < HEADER_LEN + len {
            self.compact();
            return Ok(None);
        }
        let payload = avail[HEADER_LEN..HEADER_LEN + len].to_vec();
        self.pos += HEADER_LEN + len;
        self.compact();
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed (a nonzero value at EOF means
    /// the peer died mid-frame).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > MAX_FRAME {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Blocking frame reader over an `io::Read` stream (one decoder per
/// connection). Returns `Ok(None)` on a clean EOF at a frame boundary,
/// [`WireError::TruncatedFrame`] on EOF mid-frame.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    decoder: FrameDecoder,
    chunk: [u8; 4096],
}

impl<R: Read> FrameReader<R> {
    /// Wraps a stream.
    pub fn new(inner: R) -> Self {
        FrameReader { inner, decoder: FrameDecoder::new(), chunk: [0; 4096] }
    }

    /// Reads the next complete frame payload.
    ///
    /// `WouldBlock`/`TimedOut` socket errors surface as `Err(Io(..))` so
    /// callers using read timeouts can poll.
    pub fn read_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(Some(frame));
            }
            let n = self.inner.read(&mut self.chunk)?;
            if n == 0 {
                return if self.decoder.pending() == 0 {
                    Ok(None)
                } else {
                    Err(WireError::TruncatedFrame)
                };
            }
            self.decoder.feed(&self.chunk[..n]);
        }
    }

    /// Pops the next complete frame already buffered by earlier reads,
    /// without reading the stream: `Ok(None)` means the buffer holds no
    /// whole frame. After [`read_frame`](FrameReader::read_frame), this
    /// drains the rest of what that read brought in.
    pub fn buffered_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        self.decoder.next_frame()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_one_feed() {
        let mut wire = Vec::new();
        encode_frame(b"hello", &mut wire);
        encode_frame(b"", &mut wire);
        encode_frame(&[0xff; 300], &mut wire);
        let mut d = FrameDecoder::new();
        d.feed(&wire);
        assert_eq!(d.next_frame().unwrap().unwrap(), b"hello");
        assert_eq!(d.next_frame().unwrap().unwrap(), b"");
        assert_eq!(d.next_frame().unwrap().unwrap(), vec![0xff; 300]);
        assert_eq!(d.next_frame().unwrap(), None);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn split_reads_reassemble() {
        let mut wire = Vec::new();
        encode_frame(b"split me", &mut wire);
        let mut d = FrameDecoder::new();
        for b in &wire {
            assert!(d.pending() < wire.len());
            d.feed(std::slice::from_ref(b));
        }
        assert_eq!(d.next_frame().unwrap().unwrap(), b"split me");
    }

    #[test]
    fn oversized_header_is_rejected_before_payload() {
        let mut d = FrameDecoder::new();
        d.feed(&u32::try_from(MAX_FRAME + 1).unwrap().to_le_bytes());
        assert!(matches!(d.next_frame(), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn max_sized_frame_is_accepted() {
        let payload = vec![7u8; MAX_FRAME];
        let mut wire = Vec::new();
        encode_frame(&payload, &mut wire);
        let mut d = FrameDecoder::new();
        d.feed(&wire);
        assert_eq!(d.next_frame().unwrap().unwrap(), payload);
    }

    #[test]
    fn reader_reports_clean_eof_and_truncation() {
        let mut wire = Vec::new();
        encode_frame(b"whole", &mut wire);
        let mut r = FrameReader::new(&wire[..]);
        assert_eq!(r.read_frame().unwrap().unwrap(), b"whole");
        assert!(r.read_frame().unwrap().is_none(), "EOF at a boundary is clean");

        let mut r = FrameReader::new(&wire[..wire.len() - 2]);
        assert!(matches!(r.read_frame(), Err(WireError::TruncatedFrame)));
    }

    /// A stream that hands out its bytes in fixed reads and counts them.
    struct Chunked<'a> {
        reads: Vec<&'a [u8]>,
        calls: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let Some(next) = self.reads.get(self.calls - 1) else { return Ok(0) };
            buf[..next.len()].copy_from_slice(next);
            Ok(next.len())
        }
    }

    #[test]
    fn buffered_frames_drain_one_read_without_reading_again() {
        let mut wire = Vec::new();
        for payload in [&b"one"[..], b"two", b"three"] {
            encode_frame(payload, &mut wire);
        }
        // The first read ends two bytes into the third frame's payload.
        let (first, rest) = wire.split_at(wire.len() - 3);
        let mut r = FrameReader::new(Chunked { reads: vec![first, rest], calls: 0 });
        assert_eq!(r.read_frame().unwrap().unwrap(), b"one");
        assert_eq!(r.buffered_frame().unwrap().unwrap(), b"two");
        assert_eq!(r.buffered_frame().unwrap(), None, "the split frame is not whole yet");
        assert_eq!(r.inner.calls, 1, "buffered_frame never reads the stream");
        assert_eq!(r.read_frame().unwrap().unwrap(), b"three");
        assert_eq!(r.inner.calls, 2);

        let mut bad = Vec::new();
        encode_frame(b"ok", &mut bad);
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = FrameReader::new(&bad[..]);
        assert_eq!(r.read_frame().unwrap().unwrap(), b"ok");
        assert!(matches!(r.buffered_frame(), Err(WireError::Oversized { .. })));
    }
}
