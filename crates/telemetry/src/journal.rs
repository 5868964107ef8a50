//! Append-only length-prefixed record journal.
//!
//! The trace plane ([`TraceSink`](crate::TraceSink)) emits human-oriented
//! JSON lines; the *journal* is its durable sibling: a binary, append-only
//! record log meant to survive a process kill and be re-read verbatim.  The
//! engine layers its tick codec on top — this module knows nothing about
//! ticks, only about framing bytes.
//!
//! Frame layout, little-endian, no padding:
//!
//! ```text
//! [payload_len: u32][crc64(payload): u64][payload bytes...]
//! ```
//!
//! The CRC is CRC-64/XZ over the payload only, so every record is
//! independently verifiable.  A reader distinguishes three end states:
//!
//! * **clean** — the byte stream ends exactly on a frame boundary;
//! * **truncated** — the stream ends mid-frame (the classic torn tail after
//!   a crash during an append); the complete prefix is still usable and the
//!   torn bytes are reported, not silently dropped;
//! * **corrupt** — a complete frame fails its checksum; that is damage, not
//!   a torn write, and the reader refuses the whole journal.

use std::io::{self, Write};

/// Bytes of framing overhead per record: `u32` length + `u64` checksum.
/// This is also the frame-header size of the TCP service plane, which
/// reuses the journal's exact frame layout (see [`encode_frame_header`]).
pub const FRAME_HEADER_BYTES: usize = 4 + 8;

const HEADER_BYTES: usize = FRAME_HEADER_BYTES;

/// Build the `[payload_len: u32][crc64(payload): u64]` header that frames
/// `payload`, both in the journal and on the service plane's sockets —
/// one frame layout, one implementation.
pub fn encode_frame_header(payload: &[u8]) -> [u8; FRAME_HEADER_BYTES] {
    let len = u32::try_from(payload.len()).expect("frame payload over 4 GiB");
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc64(payload).to_le_bytes());
    header
}

/// Split a frame header into `(payload_len, expected_crc)`.  The caller
/// reads that many payload bytes and verifies them with [`crc64`].
pub fn decode_frame_header(header: &[u8; FRAME_HEADER_BYTES]) -> (u32, u64) {
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    let crc = u64::from_le_bytes(header[4..].try_into().unwrap());
    (len, crc)
}

/// Slice-by-8 tables for CRC-64/XZ (reflected polynomial
/// `0xC96C_5795_D787_0F42`), after Kounavis & Berry, *A Systematic
/// Approach to Building High Performance Software-Based CRC Generators*
/// (ISCC 2005).  `CRC64_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC64_TABLES[k][b]` is the CRC contribution of byte `b` followed by
/// `k` zero bytes, so one 8-byte word folds in with eight independent
/// lookups.  Built at compile time: 16 KiB of static data, no lazy init.
static CRC64_TABLES: [[u64; 256]; 8] = {
    let poly: u64 = 0xC96C_5795_D787_0F42;
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ poly } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-64/XZ of `bytes`.  Detects any single-bit or single-byte change and
/// any error burst up to 64 bits, which is the property the snapshot and
/// journal planes lean on: one flipped byte can never decode cleanly.
///
/// Slice-by-8: eight bytes per step through the `CRC64_TABLES`, then a
/// byte-at-a-time tail.  The values are those of the textbook bitwise
/// CRC-64/XZ, so journal records and snapshot containers written by any
/// earlier build still verify.
pub fn crc64(bytes: &[u8]) -> u64 {
    let t = &CRC64_TABLES;
    let mut crc = !0u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let x = crc ^ u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"));
        crc = t[7][(x & 0xFF) as usize]
            ^ t[6][((x >> 8) & 0xFF) as usize]
            ^ t[5][((x >> 16) & 0xFF) as usize]
            ^ t[4][((x >> 24) & 0xFF) as usize]
            ^ t[3][((x >> 32) & 0xFF) as usize]
            ^ t[2][((x >> 40) & 0xFF) as usize]
            ^ t[1][((x >> 48) & 0xFF) as usize]
            ^ t[0][(x >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u64) & 0xFF) as usize];
    }
    !crc
}

/// Append-only writer half of the journal.
///
/// Wraps any [`Write`] target (a file, a [`MemorySink`](crate::MemorySink),
/// a `Vec<u8>`) and frames each payload as described in the module docs.
/// Every append flushes, so after `append` returns the record is out of
/// this process's buffers — the journal's whole point is surviving a kill.
#[derive(Debug)]
pub struct JournalWriter<W: Write> {
    inner: W,
    records: u64,
}

impl<W: Write> JournalWriter<W> {
    /// Start journalling onto `inner`.  The target is treated as
    /// append-only; the writer never seeks.
    pub fn new(inner: W) -> Self {
        JournalWriter { inner, records: 0 }
    }

    /// Frame `payload` and append it.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if u32::try_from(payload.len()).is_err() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "journal record over 4 GiB"));
        }
        self.inner.write_all(&encode_frame_header(payload))?;
        self.inner.write_all(payload)?;
        self.inner.flush()?;
        self.records += 1;
        Ok(())
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Borrow the underlying writer.
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// Unwrap the underlying writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// How a journal byte stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalTail {
    /// The stream ended exactly on a frame boundary.
    Clean,
    /// The stream ended mid-frame: a torn write.  The complete records
    /// before it are intact; `dropped_bytes` partial bytes were ignored.
    Truncated {
        /// Bytes of the torn trailing frame that were discarded.
        dropped_bytes: usize,
    },
}

/// A complete frame failed its checksum; record numbering is zero-based.
/// Unlike a torn tail this is damage inside the supposedly-durable prefix,
/// so the reader rejects the journal instead of guessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalCorrupt {
    /// Index of the offending record.
    pub record: usize,
}

impl std::fmt::Display for JournalCorrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal record {} failed its checksum", self.record)
    }
}

impl std::error::Error for JournalCorrupt {}

/// The intact payloads of a journal plus how its byte stream ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalContents<'a> {
    /// Checksummed payloads, in append order, borrowed from the input.
    pub records: Vec<&'a [u8]>,
    /// Whether the stream ended cleanly or with a torn trailing frame.
    pub tail: JournalTail,
}

/// Parse a journal byte stream back into its records.
///
/// A torn trailing frame (crash mid-append) is tolerated and reported via
/// [`JournalTail::Truncated`]; a checksum failure on a *complete* frame is
/// an error.
pub fn read_journal(bytes: &[u8]) -> Result<JournalContents<'_>, JournalCorrupt> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= HEADER_BYTES {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u64::from_le_bytes(bytes[pos + 4..pos + HEADER_BYTES].try_into().unwrap());
        let start = pos + HEADER_BYTES;
        if bytes.len() - start < len {
            return Ok(JournalContents {
                records,
                tail: JournalTail::Truncated { dropped_bytes: bytes.len() - pos },
            });
        }
        let payload = &bytes[start..start + len];
        if crc64(payload) != crc {
            return Err(JournalCorrupt { record: records.len() });
        }
        records.push(payload);
        pos = start + len;
    }
    let tail = if pos == bytes.len() {
        JournalTail::Clean
    } else {
        JournalTail::Truncated { dropped_bytes: bytes.len() - pos }
    };
    Ok(JournalContents { records, tail })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_matches_the_xz_check_value() {
        // The standard check string for CRC-64/XZ.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    /// CRC-64/XZ one bit at a time: the definition, with no tables.
    fn crc64_bitwise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in bytes {
            crc ^= b as u64;
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ 0xC96C_5795_D787_0F42 } else { crc >> 1 };
            }
        }
        !crc
    }

    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc64_equals_the_bitwise_reference_at_every_length_and_alignment() {
        let buf = noise(4096);
        // Every length across the word boundary and its byte tail.
        for len in 0..=64 {
            assert_eq!(crc64(&buf[..len]), crc64_bitwise(&buf[..len]), "length {len}");
        }
        // Unaligned sub-slices: every start offset within a word, lengths
        // that leave every possible tail.
        for offset in 0..8 {
            for len in [1, 7, 8, 9, 63, 64, 65, 1000, 4096 - 8] {
                let slice = &buf[offset..offset + len];
                assert_eq!(crc64(slice), crc64_bitwise(slice), "offset {offset}, length {len}");
            }
        }
    }

    #[test]
    fn crc64_keeps_the_checksum_of_a_fixed_pattern() {
        // The value the earlier nibble-table implementation gave this
        // 1 KiB pattern.  Journal records and snapshot containers are
        // sealed with `crc64`, so a change here would orphan every file
        // already written.
        let pattern: Vec<u8> =
            (0..1024u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        assert_eq!(crc64(&pattern), 0xB9F6_6763_9BCC_3CAB);
    }

    #[test]
    fn round_trip_preserves_records_and_order() {
        let mut w = JournalWriter::new(Vec::new());
        let payloads: Vec<Vec<u8>> = vec![b"".to_vec(), b"a".to_vec(), vec![0xFF; 300]];
        for p in &payloads {
            w.append(p).unwrap();
        }
        assert_eq!(w.records(), 3);
        let bytes = w.into_inner();
        let contents = read_journal(&bytes).unwrap();
        assert_eq!(contents.tail, JournalTail::Clean);
        let got: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        assert_eq!(contents.records, got);
    }

    #[test]
    fn torn_tail_is_reported_not_fatal() {
        let mut w = JournalWriter::new(Vec::new());
        w.append(b"first").unwrap();
        w.append(b"second-record").unwrap();
        let bytes = w.into_inner();
        // Cut the stream at every byte length: the intact prefix must
        // always parse, and the tail must be classified correctly.
        let first_frame = HEADER_BYTES + 5;
        for cut in 0..bytes.len() {
            let contents = read_journal(&bytes[..cut]).unwrap();
            if cut < first_frame {
                assert!(contents.records.is_empty(), "cut {cut}");
            } else {
                assert_eq!(contents.records[0], b"first", "cut {cut}");
            }
            let on_boundary = cut == 0 || cut == first_frame;
            assert_eq!(contents.tail == JournalTail::Clean, on_boundary, "cut {cut}");
        }
    }

    #[test]
    fn corrupt_complete_record_is_an_error() {
        let mut w = JournalWriter::new(Vec::new());
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        let mut bytes = w.into_inner();
        // Flip a payload byte of the first record.
        bytes[HEADER_BYTES] ^= 0x01;
        assert_eq!(read_journal(&bytes), Err(JournalCorrupt { record: 0 }));
    }
}
