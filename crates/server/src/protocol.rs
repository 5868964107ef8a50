//! The wire protocol of the service plane.
//!
//! # Frame layout
//!
//! Every message travels in exactly the frame the tick journal uses
//! (`plis-telemetry`'s [`encode_frame_header`] — one layout, one
//! implementation):
//!
//! ```text
//! [payload_len: u32][crc64(payload): u64][payload bytes...]
//! ```
//!
//! The CRC covers the payload, so a corrupted frame is detected before a
//! single payload byte is interpreted.  Frames carry their own length, so
//! any number of them can share one socket write or one socket read:
//! [`append_frame`] frames into a buffer that goes out in one
//! `write_all`, and [`read_frame`] reads through a buffered reader.  Both
//! ends batch their I/O this way; the bytes on the wire are the same as
//! frame-at-a-time I/O would produce.  Inside the payload:
//!
//! ```text
//! [message tag: u8][request_id: u64][body...]
//! ```
//!
//! | tag    | direction | body                                          |
//! |--------|-----------|-----------------------------------------------|
//! | `0x01` | request   | sealed tick ([`plis_engine::encode_tick`])    |
//! | `0x02` | request   | sealed read tick ([`plis_engine::encode_read_tick`])       |
//! | `0x81` | response  | sealed tick outcome ([`plis_engine::encode_tick_outcome`]) |
//! | `0x82` | response  | sealed read outcome ([`plis_engine::encode_read_outcome`]) |
//! | `0xEE` | response  | `[code: u8][detail: u64-length-prefixed str]` |
//!
//! `request_id` is chosen by the client and echoed verbatim; the server
//! never interprets it beyond routing the response.  Responses to one
//! connection come back in that connection's submission order, so a
//! strictly closed-loop client does not even need the id — it exists for
//! pipelined clients multiplexing many in-flight ops on one socket.
//!
//! # Errors close the connection
//!
//! A malformed frame (bad checksum, oversized length, unknown tag,
//! undecodable sealed payload) earns a typed [`ProtocolError`] frame with
//! the best-known `request_id` (0 when the damage precedes the id) and a
//! clean connection close — never a panic, and never an engine-state
//! change.  Other connections are unaffected.

use plis_engine::SnapshotError;
use plis_telemetry::{crc64, decode_frame_header, encode_frame_header, FRAME_HEADER_BYTES};
use std::io::{self, Read, Write};

/// Message tag: a write request carrying a sealed tick.
pub const TAG_SUBMIT: u8 = 0x01;
/// Message tag: a read request carrying a sealed read tick.
pub const TAG_READ: u8 = 0x02;
/// Message tag: a response carrying a sealed tick outcome.
pub const TAG_TICK_OUTCOME: u8 = 0x81;
/// Message tag: a response carrying a sealed read outcome.
pub const TAG_READ_OUTCOME: u8 = 0x82;
/// Message tag: a typed protocol-error response; the server closes the
/// connection after sending it.
pub const TAG_ERROR: u8 = 0xEE;

/// Capacity of the buffered reader each end of a connection reads its
/// socket through: one `read` pulls in every frame that arrived together,
/// up to this many bytes.
pub(crate) const READ_BUF_BYTES: usize = 64 << 10;

/// Default cap on a single frame's payload (64 MiB).  A frame announcing
/// more is rejected *before* allocation with
/// [`ProtocolError::Oversized`].
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 64 << 20;

/// Why a connection was refused further service.  The `code` byte of an
/// error frame is the discriminant; the detail string is informational.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A frame's payload failed its CRC.
    BadChecksum,
    /// A frame announced a payload larger than the server accepts.
    Oversized {
        /// The announced payload length.
        announced: u32,
        /// The server's cap.
        max: u32,
    },
    /// The payload carried a message tag this build does not know.
    UnknownTag(u8),
    /// The payload ended before the message tag and request id did.
    ShortMessage,
    /// The sealed tick / read tick inside a request failed to decode.
    BadPayload(SnapshotError),
}

impl ProtocolError {
    /// The stable discriminant byte carried in an error frame.
    pub fn code(&self) -> u8 {
        match self {
            ProtocolError::BadChecksum => 1,
            ProtocolError::Oversized { .. } => 2,
            ProtocolError::UnknownTag(_) => 3,
            ProtocolError::ShortMessage => 4,
            ProtocolError::BadPayload(_) => 5,
        }
    }

    /// Rebuild the typed error from a received `code` + detail string.
    /// Parameters that do not survive the wire (the exact snapshot error,
    /// the announced length) land in the detail string only.
    pub fn from_code(code: u8, detail: &str) -> ProtocolError {
        match code {
            1 => ProtocolError::BadChecksum,
            2 => ProtocolError::Oversized { announced: 0, max: 0 },
            3 => ProtocolError::UnknownTag(0),
            4 => ProtocolError::ShortMessage,
            _ => ProtocolError::BadPayload(SnapshotError::Malformed(if detail.is_empty() {
                "peer rejected the payload"
            } else {
                "see detail"
            })),
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadChecksum => write!(f, "frame checksum mismatch"),
            ProtocolError::Oversized { announced, max } => {
                write!(f, "frame of {announced} bytes exceeds the {max}-byte cap")
            }
            ProtocolError::UnknownTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            ProtocolError::ShortMessage => write!(f, "message too short for tag and request id"),
            ProtocolError::BadPayload(e) => write!(f, "sealed payload rejected: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// How reading one frame from a socket ended.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete, checksum-verified payload.
    Payload(Vec<u8>),
    /// The peer closed the connection exactly on a frame boundary.
    Closed,
    /// The peer closed mid-frame: a torn write.  No payload bytes were
    /// interpreted.
    Torn,
    /// The frame was structurally rejected; the payload (if any) was
    /// drained but must not be interpreted.
    Rejected(ProtocolError),
}

/// Read one frame.  Blocks until a full frame arrives, the peer closes,
/// or an I/O error occurs; a checksum failure or oversized announcement
/// comes back as [`FrameRead::Rejected`], not `Err`.
///
/// `r` is read in small pieces (header, then payload), so hand it a
/// buffered reader over a socket: then one `read` syscall serves every
/// frame that arrived together.
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> io::Result<FrameRead> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    match read_exact_or_eof(r, &mut header)? {
        Fill::Empty => return Ok(FrameRead::Closed),
        Fill::Partial => return Ok(FrameRead::Torn),
        Fill::Full => {}
    }
    let (len, crc) = decode_frame_header(&header);
    if len > max_payload {
        return Ok(FrameRead::Rejected(ProtocolError::Oversized {
            announced: len,
            max: max_payload,
        }));
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_or_eof(r, &mut payload)? {
        Fill::Full => {}
        _ => return Ok(FrameRead::Torn),
    }
    if crc64(&payload) != crc {
        return Ok(FrameRead::Rejected(ProtocolError::BadChecksum));
    }
    Ok(FrameRead::Payload(payload))
}

enum Fill {
    Full,
    Partial,
    Empty,
}

/// `read_exact`, but distinguishing "closed before any byte" and "closed
/// mid-buffer" from hard I/O errors.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<Fill> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(if filled == 0 { Fill::Empty } else { Fill::Partial }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Full)
}

/// Append `payload`, framed, to `out`.  Many frames appended to one
/// buffer go out in one write: the batcher frames every reply a
/// connection earned in a batch this way, and the client its queued
/// requests.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&encode_frame_header(payload));
    out.extend_from_slice(payload);
}

/// Frame `payload` and write it with one `write_all`, flushed.  Header
/// and payload leave together, so a frame never costs two syscalls and
/// never straddles another writer's frame on a shared stream.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::new();
    append_frame(&mut frame, payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Build a request/response message payload: tag, request id, body.
pub fn message(tag: u8, request_id: u64, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9 + body.len());
    payload.push(tag);
    payload.extend_from_slice(&request_id.to_le_bytes());
    payload.extend_from_slice(body);
    payload
}

/// Build an error-message payload for `error`, echoing `request_id`
/// (0 when the damage preceded the id).
pub fn error_message(request_id: u64, error: &ProtocolError) -> Vec<u8> {
    let detail = error.to_string();
    let mut body = Vec::with_capacity(9 + detail.len());
    body.push(error.code());
    body.extend_from_slice(&(detail.len() as u64).to_le_bytes());
    body.extend_from_slice(detail.as_bytes());
    message(TAG_ERROR, request_id, &body)
}

/// A parsed message payload: tag, request id, borrowed body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message<'a> {
    /// The message tag (one of the `TAG_*` constants, or unknown).
    pub tag: u8,
    /// The client-chosen request id this message belongs to.
    pub request_id: u64,
    /// The tag-specific body bytes.
    pub body: &'a [u8],
}

/// Split a verified frame payload into tag, request id and body.
pub fn parse_message(payload: &[u8]) -> Result<Message<'_>, ProtocolError> {
    if payload.len() < 9 {
        return Err(ProtocolError::ShortMessage);
    }
    Ok(Message {
        tag: payload[0],
        request_id: u64::from_le_bytes(payload[1..9].try_into().unwrap()),
        body: &payload[9..],
    })
}

/// Parse the body of a [`TAG_ERROR`] message into `(code, detail)`.
pub fn parse_error_body(body: &[u8]) -> (u8, String) {
    if body.is_empty() {
        return (0, String::new());
    }
    let code = body[0];
    let detail = if body.len() >= 9 {
        let len = u64::from_le_bytes(body[1..9].try_into().unwrap()) as usize;
        let end = 9usize.saturating_add(len).min(body.len());
        String::from_utf8_lossy(&body[9..end]).into_owned()
    } else {
        String::new()
    };
    (code, detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &message(TAG_SUBMIT, 7, b"body")).unwrap();
        write_frame(&mut wire, &message(TAG_READ, 8, b"")).unwrap();
        let mut cursor = io::Cursor::new(wire);
        for (tag, id, body) in [(TAG_SUBMIT, 7u64, b"body" as &[u8]), (TAG_READ, 8, b"")] {
            let FrameRead::Payload(p) = read_frame(&mut cursor, 1 << 20).unwrap() else {
                panic!("payload expected");
            };
            let m = parse_message(&p).unwrap();
            assert_eq!((m.tag, m.request_id, m.body), (tag, id, body));
        }
        assert!(matches!(read_frame(&mut cursor, 1 << 20).unwrap(), FrameRead::Closed));
    }

    #[test]
    fn corrupted_and_oversized_frames_are_rejected_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &message(TAG_SUBMIT, 1, b"payload")).unwrap();
        let mut corrupt = wire.clone();
        *corrupt.last_mut().unwrap() ^= 0x40;
        let got = read_frame(&mut io::Cursor::new(corrupt), 1 << 20).unwrap();
        assert!(matches!(got, FrameRead::Rejected(ProtocolError::BadChecksum)));

        let got = read_frame(&mut io::Cursor::new(&wire), 4).unwrap();
        assert!(matches!(
            got,
            FrameRead::Rejected(ProtocolError::Oversized { announced: 16, max: 4 })
        ));

        // Every strict prefix is a clean close or a torn frame, never Err.
        for cut in 0..wire.len() {
            let got = read_frame(&mut io::Cursor::new(&wire[..cut]), 1 << 20).unwrap();
            match got {
                FrameRead::Closed => assert_eq!(cut, 0),
                FrameRead::Torn => assert!(cut > 0),
                other => panic!("prefix {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn error_messages_round_trip_their_code() {
        for err in [
            ProtocolError::BadChecksum,
            ProtocolError::Oversized { announced: 9, max: 4 },
            ProtocolError::UnknownTag(0x33),
            ProtocolError::ShortMessage,
            ProtocolError::BadPayload(SnapshotError::BadMagic),
        ] {
            let payload = error_message(42, &err);
            let m = parse_message(&payload).unwrap();
            assert_eq!(m.tag, TAG_ERROR);
            assert_eq!(m.request_id, 42);
            let (code, detail) = parse_error_body(m.body);
            assert_eq!(code, err.code());
            assert_eq!(detail, err.to_string());
            assert_eq!(ProtocolError::from_code(code, &detail).code(), err.code());
        }
    }
}
