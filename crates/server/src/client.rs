//! A blocking client for the service plane.
//!
//! [`Client::submit`] / [`Client::submit_read`] are the closed-loop
//! calls: one request, block for its response.  Pipelined callers (the
//! load generator) use the split [`Client::send_tick`] /
//! [`Client::send_read`] / [`Client::recv`] surface to keep many
//! requests in flight on one socket; responses arrive in submission
//! order and carry the echoed request id.
//!
//! # Batched I/O
//!
//! `send_*` only queue the framed request in the client; the socket
//! write happens when [`Client::recv`] would otherwise block, when the
//! caller calls [`Client::flush`], or before [`Client::finish_sending`]
//! and [`Client::stream`].  So every request sent between two blocking
//! receives leaves in one write.  Responses are read through a 64 KiB
//! buffer, so one read serves every response that arrived together.

use crate::protocol::{
    append_frame, message, parse_error_body, parse_message, read_frame, FrameRead, ProtocolError,
    DEFAULT_MAX_FRAME_BYTES, READ_BUF_BYTES, TAG_ERROR, TAG_READ, TAG_READ_OUTCOME, TAG_SUBMIT,
    TAG_TICK_OUTCOME,
};
use plis_engine::{
    decode_read_outcome, decode_tick_outcome, encode_read_tick, encode_tick, ReadOutcome, ReadTick,
    SnapshotError, Tick, TickOutcome,
};
use plis_telemetry::{decode_frame_header, FRAME_HEADER_BYTES};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// A socket-level failure.
    Io(io::Error),
    /// The server closed the connection (cleanly or mid-frame) before
    /// the expected response arrived.
    Closed,
    /// A response frame from the server failed its own framing checks.
    Frame(ProtocolError),
    /// The server rejected the connection's traffic with a typed error
    /// frame (and closed it).
    Server {
        /// The echoed request id (0 when the damage preceded the id).
        request_id: u64,
        /// The typed error, rebuilt from its wire code.
        error: ProtocolError,
        /// The server's human-readable detail line.
        detail: String,
    },
    /// A response payload failed to decode.
    Decode(SnapshotError),
    /// The server answered with a message tag this client doesn't know.
    UnknownTag(u8),
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Frame(e) => write!(f, "bad response frame: {e}"),
            ClientError::Server { request_id, error, detail } => {
                write!(f, "server rejected request {request_id}: {error} ({detail})")
            }
            ClientError::Decode(e) => write!(f, "undecodable response payload: {e}"),
            ClientError::UnknownTag(tag) => write!(f, "unknown response tag {tag:#04x}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One decoded response.
#[derive(Debug)]
pub enum Response {
    /// The outcome of a write request.
    Tick {
        /// The echoed request id.
        request_id: u64,
        /// The reassembled outcome slice for that request.
        outcome: TickOutcome,
    },
    /// The outcome of a read request.
    Read {
        /// The echoed request id.
        request_id: u64,
        /// The reassembled outcome slice for that request.
        outcome: ReadOutcome,
    },
}

impl Response {
    /// The echoed request id, whatever the kind.
    pub fn request_id(&self) -> u64 {
        match self {
            Response::Tick { request_id, .. } | Response::Read { request_id, .. } => *request_id,
        }
    }
}

/// A blocking connection to a `plis-server`.
///
/// Requests are queued by `send_*` and written in batches (see the
/// module docs); dropping the client writes whatever is still queued.
#[derive(Debug)]
pub struct Client {
    /// The socket, read through a buffer; writes go to the inner stream.
    reader: BufReader<TcpStream>,
    /// Framed requests queued by `send_*`, not yet written.
    unsent: Vec<u8>,
    next_id: u64,
    max_frame: u32,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            reader: BufReader::with_capacity(READ_BUF_BYTES, stream),
            unsent: Vec::new(),
            next_id: 1,
            max_frame: DEFAULT_MAX_FRAME_BYTES,
        })
    }

    /// Queue a write request; returns its request id.
    ///
    /// Nothing is written yet: the request goes out with every other
    /// queued one when [`Client::recv`] would block, or on
    /// [`Client::flush`], [`Client::finish_sending`] or
    /// [`Client::stream`].  A caller that sends and then waits for the
    /// answer some other way than `recv` must call `flush` first.
    /// Queuing itself cannot fail; socket errors surface when the queue
    /// is written.
    pub fn send_tick(&mut self, tick: &Tick) -> io::Result<u64> {
        Ok(self.queue(TAG_SUBMIT, &encode_tick(tick)))
    }

    /// Queue a read request; returns its request id.  Written in batches
    /// exactly like [`Client::send_tick`].
    pub fn send_read(&mut self, tick: &ReadTick) -> io::Result<u64> {
        Ok(self.queue(TAG_READ, &encode_read_tick(tick)))
    }

    fn queue(&mut self, tag: u8, body: &[u8]) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        append_frame(&mut self.unsent, &message(tag, id, body));
        id
    }

    /// Write every queued request now, in one write.
    ///
    /// On failure the queue is dropped: the socket is broken, and how
    /// much of the queue reached the server is unknown.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.unsent.is_empty() {
            return Ok(());
        }
        let written = self.reader.get_mut().write_all(&self.unsent);
        self.unsent.clear();
        written
    }

    /// Whether a whole response frame is already buffered, so reading it
    /// cannot block.
    fn response_buffered(&self) -> bool {
        let buffered = self.reader.buffer();
        let Some(header) = buffered.first_chunk::<FRAME_HEADER_BYTES>() else {
            return false;
        };
        let (len, _) = decode_frame_header(header);
        buffered.len() - FRAME_HEADER_BYTES >= len as usize
    }

    /// Block for the next response on this connection.  Queued requests
    /// are written first unless a whole response is already buffered.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        if !self.response_buffered() {
            self.flush()?;
        }
        let payload = match read_frame(&mut self.reader, self.max_frame)? {
            FrameRead::Payload(p) => p,
            FrameRead::Closed | FrameRead::Torn => return Err(ClientError::Closed),
            FrameRead::Rejected(e) => return Err(ClientError::Frame(e)),
        };
        let msg = parse_message(&payload).map_err(ClientError::Frame)?;
        match msg.tag {
            TAG_TICK_OUTCOME => Ok(Response::Tick {
                request_id: msg.request_id,
                outcome: decode_tick_outcome(msg.body).map_err(ClientError::Decode)?,
            }),
            TAG_READ_OUTCOME => Ok(Response::Read {
                request_id: msg.request_id,
                outcome: decode_read_outcome(msg.body).map_err(ClientError::Decode)?,
            }),
            TAG_ERROR => {
                let (code, detail) = parse_error_body(msg.body);
                Err(ClientError::Server {
                    request_id: msg.request_id,
                    error: ProtocolError::from_code(code, &detail),
                    detail,
                })
            }
            other => Err(ClientError::UnknownTag(other)),
        }
    }

    /// Closed-loop write: send one tick, block for its outcome.
    pub fn submit(&mut self, tick: &Tick) -> Result<TickOutcome, ClientError> {
        let id = self.send_tick(tick)?;
        match self.recv()? {
            Response::Tick { request_id, outcome } if request_id == id => Ok(outcome),
            other => Err(ClientError::UnknownTag(match other {
                Response::Tick { .. } => TAG_TICK_OUTCOME,
                Response::Read { .. } => TAG_READ_OUTCOME,
            })),
        }
    }

    /// Closed-loop read: send one read tick, block for its outcome.
    pub fn submit_read(&mut self, tick: &ReadTick) -> Result<ReadOutcome, ClientError> {
        let id = self.send_read(tick)?;
        match self.recv()? {
            Response::Read { request_id, outcome } if request_id == id => Ok(outcome),
            other => Err(ClientError::UnknownTag(match other {
                Response::Tick { .. } => TAG_TICK_OUTCOME,
                Response::Read { .. } => TAG_READ_OUTCOME,
            })),
        }
    }

    /// Write the queued requests, then half-close the send side: the
    /// server sees EOF (a clean close) while responses already in flight
    /// can still be received.
    pub fn finish_sending(&mut self) -> io::Result<()> {
        self.flush()?;
        self.reader.get_ref().shutdown(Shutdown::Write)
    }

    /// Raw access to the underlying stream, for tests that need to write
    /// deliberately damaged or partial frames.  Queued requests are
    /// written first, so raw bytes follow them on the wire.  Read
    /// responses through [`Client::recv`]: bytes it already buffered are
    /// not visible on the raw stream.
    pub fn stream(&mut self) -> &mut TcpStream {
        // A failed write means the socket is broken; the caller's next
        // write or `recv` on it reports that.
        let _ = self.flush();
        self.reader.get_mut()
    }
}

impl Drop for Client {
    /// Write whatever is still queued, like a `BufWriter`; errors are
    /// ignored because there is no caller left to report them to.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}
