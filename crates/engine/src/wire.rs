//! The engine's **wire codec**: the one binary encoding shared by the
//! persistence plane (tick journal, snapshot files) and the service plane
//! (`plis-server`'s TCP protocol).
//!
//! Historically the tick codec lived inside [`crate::snapshot`]; serving
//! the command plane over a network needs the same byte layout on both
//! sides of a socket, so the codec moved here and grew the remaining
//! message kinds: read ticks and both outcome types.  The journal and the
//! server now frame through *one* implementation — there is no second
//! copy to drift.
//!
//! # Format
//!
//! Every artifact is a *sealed container*, little-endian throughout:
//!
//! ```text
//! [magic "PLISSNAP": 8][version: u8][payload kind: u8]
//! [crc64(payload): u64][payload bytes...]
//! ```
//!
//! The CRC is CRC-64/XZ ([`plis_telemetry::crc64`]) over the payload, so
//! any single mutated byte — header or payload — fails decode with a typed
//! [`SnapshotError`]; nothing in this module panics on foreign bytes.
//! Payload kinds: `0` = one session, `1` = a whole engine, `2` = one tick,
//! `3` = one read tick, `4` = one tick outcome, `5` = one read outcome.
//! The version byte is bumped on any layout change, and a reader accepts
//! exactly its own version: artifacts of any other version, older or
//! newer, fail with [`SnapshotError::UnsupportedVersion`] instead of being
//! misparsed.  There is no migration arm.
//!
//! Inside a payload, integers are fixed-width little-endian and every
//! array is length-prefixed with a `u64`.  Outcome payloads carry every
//! *algorithmic* field of [`TickOutcome`] / [`ReadOutcome`] plus the
//! observational `worker_threads` / `elapsed_ns` gauges, so a remote
//! client sees exactly what a library caller would; decode reassembles the
//! aggregate counters through the same constructor the executor uses.

use crate::engine::{SessionId, SessionKind};
use crate::op::{Op, OpError, OpOutput, ReadOutcome, ReadTick, Tick, TickOutcome};
use crate::query::{Certificate, Query, QueryAnswer, QueryBatch, QueryReport};
use crate::session::{IngestPath, IngestReport};
use crate::snapshot::{SessionSnapshot, SnapshotError};
use crate::wsession::WeightedIngestReport;
use crate::{BatchReport, DominantMaxKind};
use plis_lis::TailRoute;
use plis_telemetry::crc64;

/// Leading magic of every sealed artifact.
pub(crate) const MAGIC: &[u8; 8] = b"PLISSNAP";

/// Current format version; bumped on any layout change.
pub const FORMAT_VERSION: u8 = 2;

/// Sealed-container header length: magic + version + payload kind + CRC.
pub(crate) const HEADER_LEN: usize = 8 + 1 + 1 + 8;

/// Payload kind byte: one session.
pub(crate) const PAYLOAD_SESSION: u8 = 0;
/// Payload kind byte: a whole engine.
pub(crate) const PAYLOAD_ENGINE: u8 = 1;
/// Payload kind byte: one tick.
pub(crate) const PAYLOAD_TICK: u8 = 2;
/// Payload kind byte: one read-only tick.
pub(crate) const PAYLOAD_READ_TICK: u8 = 3;
/// Payload kind byte: one tick outcome.
pub(crate) const PAYLOAD_TICK_OUTCOME: u8 = 4;
/// Payload kind byte: one read outcome.
pub(crate) const PAYLOAD_READ_OUTCOME: u8 = 5;

// ---------------------------------------------------------------------------
// Byte-level helpers.

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64s(out: &mut Vec<u8>, xs: &[u64]) {
    put_u64(out, xs.len() as u64);
    for &x in xs {
        put_u64(out, x);
    }
}

pub(crate) fn put_pairs(out: &mut Vec<u8>, xs: &[(u64, u64)]) {
    put_u64(out, xs.len() as u64);
    for &(a, b) in xs {
        put_u64(out, a);
        put_u64(out, b);
    }
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(b as u8);
}

/// A bounds-checked reader over a payload slice.  Every accessor returns
/// [`SnapshotError::Truncated`] instead of slicing out of range, and the
/// array readers verify the announced length fits the remaining bytes
/// *before* allocating, so a corrupted length can never trigger a huge
/// allocation.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() - self.pos < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Malformed("usize overflow"))
    }

    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("flag byte must be 0 or 1")),
        }
    }

    /// Read an array length and check `len * elem_size` fits the bytes
    /// that are actually left.
    pub(crate) fn len(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let n = usize::try_from(self.u64()?).map_err(|_| SnapshotError::Truncated)?;
        match n.checked_mul(elem_size) {
            Some(bytes) if bytes <= self.bytes.len() - self.pos => Ok(n),
            _ => Err(SnapshotError::Truncated),
        }
    }

    pub(crate) fn u64s(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    pub(crate) fn pairs(&mut self) -> Result<Vec<(u64, u64)>, SnapshotError> {
        let n = self.len(16)?;
        (0..n).map(|_| Ok((self.u64()?, self.u64()?))).collect()
    }

    pub(crate) fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let n = self.len(1)?;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| SnapshotError::Malformed("session id is not valid UTF-8"))
    }

    pub(crate) fn finish(&self) -> Result<(), SnapshotError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes)
        }
    }
}

/// Wrap `payload` in the sealed container (magic, version, kind, CRC).
pub(crate) fn seal(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.push(FORMAT_VERSION);
    out.push(kind);
    put_u64(&mut out, crc64(payload));
    out.extend_from_slice(payload);
    out
}

/// Check the sealed container around `bytes` and return the verified
/// payload slice.
pub(crate) fn open(bytes: &[u8], kind: u8) -> Result<&[u8], SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    if &bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes[8] != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(bytes[8]));
    }
    let crc = u64::from_le_bytes(bytes[10..18].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    if crc64(payload) != crc {
        return Err(SnapshotError::ChecksumMismatch);
    }
    if bytes[9] != kind {
        return Err(SnapshotError::Malformed("sealed payload is of a different kind"));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// The tick codec.

/// Serialize one tick into a sealed, checksummed byte stream — the record
/// format of the tick journal and the request format of the service plane.
pub fn encode_tick(tick: &Tick) -> Vec<u8> {
    let mut payload = Vec::new();
    put_bool(&mut payload, tick.creates_missing());
    put_u64(&mut payload, tick.slots().len() as u64);
    for (id, op) in tick.slots() {
        put_str(&mut payload, id.as_str());
        encode_op(&mut payload, op);
    }
    seal(PAYLOAD_TICK, &payload)
}

/// Decode a sealed byte stream produced by [`encode_tick`].  Never
/// panics; nested [`Op::Restore`] snapshots are validated like any other.
pub fn decode_tick(bytes: &[u8]) -> Result<Tick, SnapshotError> {
    let mut r = Reader::new(open(bytes, PAYLOAD_TICK)?);
    let create_missing = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(SnapshotError::Malformed("create_missing must be 0 or 1")),
    };
    let mut tick = if create_missing { Tick::new().auto_create() } else { Tick::new() };
    // Each slot costs at least an id length and an op tag.
    let n = r.len(9)?;
    for _ in 0..n {
        let id = r.str()?.to_string();
        let op = decode_op(&mut r)?;
        tick.push(id, op);
    }
    r.finish()?;
    Ok(tick)
}

/// Serialize one read-only tick into a sealed, checksummed byte stream —
/// the read-request format of the service plane.
pub fn encode_read_tick(tick: &ReadTick) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, tick.slots().len() as u64);
    for (id, batch) in tick.slots() {
        put_str(&mut payload, id.as_str());
        put_queries(&mut payload, batch);
    }
    seal(PAYLOAD_READ_TICK, &payload)
}

/// Decode a sealed byte stream produced by [`encode_read_tick`].
pub fn decode_read_tick(bytes: &[u8]) -> Result<ReadTick, SnapshotError> {
    let mut r = Reader::new(open(bytes, PAYLOAD_READ_TICK)?);
    let mut tick = ReadTick::new();
    // Each slot costs at least an id length and a batch length.
    let n = r.len(16)?;
    for _ in 0..n {
        let id = r.str()?.to_string();
        let batch = read_queries(&mut r)?;
        tick.push(id, batch);
    }
    r.finish()?;
    Ok(tick)
}

fn encode_kind(out: &mut Vec<u8>, kind: SessionKind) {
    out.push(match kind {
        SessionKind::Unweighted => 0,
        SessionKind::Weighted => 1,
    });
}

fn decode_kind(r: &mut Reader<'_>) -> Result<SessionKind, SnapshotError> {
    match r.u8()? {
        0 => Ok(SessionKind::Unweighted),
        1 => Ok(SessionKind::Weighted),
        _ => Err(SnapshotError::Malformed("unknown session kind byte")),
    }
}

fn put_queries(out: &mut Vec<u8>, batch: &QueryBatch) {
    put_u64(out, batch.queries().len() as u64);
    for &q in batch.queries() {
        match q {
            Query::RankOf(i) => {
                out.push(0);
                put_u64(out, i as u64);
            }
            Query::CountAt(x) => {
                out.push(1);
                put_u64(out, x);
            }
            Query::TopK(k) => {
                out.push(2);
                put_u64(out, k as u64);
            }
            Query::Certificate => out.push(3),
        }
    }
}

fn read_queries(r: &mut Reader<'_>) -> Result<QueryBatch, SnapshotError> {
    let n = r.len(1)?;
    let mut queries = Vec::with_capacity(n);
    for _ in 0..n {
        queries.push(match r.u8()? {
            0 => Query::RankOf(
                usize::try_from(r.u64()?)
                    .map_err(|_| SnapshotError::Malformed("rank-of index overflow"))?,
            ),
            1 => Query::CountAt(r.u64()?),
            2 => Query::TopK(
                usize::try_from(r.u64()?)
                    .map_err(|_| SnapshotError::Malformed("top-k overflow"))?,
            ),
            3 => Query::Certificate,
            _ => return Err(SnapshotError::Malformed("unknown query tag")),
        });
    }
    Ok(QueryBatch::new(queries))
}

fn encode_op(out: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Append(batch) => {
            out.push(0);
            put_u64s(out, batch);
        }
        Op::AppendWeighted(batch) => {
            out.push(1);
            put_pairs(out, batch);
        }
        Op::Query(batch) => {
            out.push(2);
            put_queries(out, batch);
        }
        Op::CreateSession { kind } => {
            out.push(3);
            encode_kind(out, *kind);
        }
        Op::RemoveSession => out.push(4),
        Op::Snapshot => out.push(5),
        Op::Restore(snapshot) => {
            out.push(6);
            snapshot.encode_payload(out);
        }
    }
}

fn decode_op(r: &mut Reader<'_>) -> Result<Op, SnapshotError> {
    Ok(match r.u8()? {
        0 => Op::Append(r.u64s()?),
        1 => Op::AppendWeighted(r.pairs()?),
        2 => Op::Query(read_queries(r)?),
        3 => Op::CreateSession { kind: decode_kind(r)? },
        4 => Op::RemoveSession,
        5 => Op::Snapshot,
        6 => Op::Restore(Box::new(SessionSnapshot::decode_payload(r)?)),
        _ => return Err(SnapshotError::Malformed("unknown op tag")),
    })
}

// ---------------------------------------------------------------------------
// The outcome codec.

/// The closed set of [`SnapshotError::Malformed`] messages an
/// [`OpError::InvalidSnapshot`] can carry: those of
/// [`SessionSnapshot::validate`], the error's only source, in a fixed
/// order the wire codec indexes into.  `&'static str` cannot round-trip
/// arbitrary remote strings, so the codec ships a table index instead; any
/// other message, such as one from a build with more checks, decodes to
/// [`UNKNOWN_MALFORMED`] rather than failing.
const MALFORMED_MESSAGES: &[&str] = &[
    "stream exceeds u32 element addressing",
    "universe must be non-empty",
    "value outside the universe",
];

/// What a [`SnapshotError::Malformed`] message outside
/// [`MALFORMED_MESSAGES`] decodes to — a forward-compat stand-in, not an
/// error.
const UNKNOWN_MALFORMED: &str = "validation failure from a newer peer";

fn encode_snapshot_error(out: &mut Vec<u8>, e: &SnapshotError) {
    match e {
        SnapshotError::Truncated => out.push(0),
        SnapshotError::BadMagic => out.push(1),
        SnapshotError::UnsupportedVersion(v) => {
            out.push(2);
            out.push(*v);
        }
        SnapshotError::ChecksumMismatch => out.push(3),
        SnapshotError::Malformed(msg) => {
            out.push(4);
            let index = MALFORMED_MESSAGES.iter().position(|m| m == msg);
            put_u64(out, index.map_or(u64::MAX, |i| i as u64));
        }
        SnapshotError::TrailingBytes => out.push(5),
    }
}

fn decode_snapshot_error(r: &mut Reader<'_>) -> Result<SnapshotError, SnapshotError> {
    Ok(match r.u8()? {
        0 => SnapshotError::Truncated,
        1 => SnapshotError::BadMagic,
        2 => SnapshotError::UnsupportedVersion(r.u8()?),
        3 => SnapshotError::ChecksumMismatch,
        4 => {
            let index = r.u64()?;
            let msg = usize::try_from(index)
                .ok()
                .and_then(|i| MALFORMED_MESSAGES.get(i).copied())
                .unwrap_or(UNKNOWN_MALFORMED);
            SnapshotError::Malformed(msg)
        }
        5 => SnapshotError::TrailingBytes,
        _ => return Err(SnapshotError::Malformed("unknown snapshot-error tag")),
    })
}

fn encode_op_error(out: &mut Vec<u8>, e: &OpError) {
    match e {
        OpError::UnknownSession => out.push(0),
        OpError::KindMismatch { session, batch } => {
            out.push(1);
            encode_kind(out, *session);
            encode_kind(out, *batch);
        }
        OpError::UniverseOverflow { value, universe } => {
            out.push(2);
            put_u64(out, *value);
            put_u64(out, *universe);
        }
        OpError::SessionExists { kind } => {
            out.push(3);
            encode_kind(out, *kind);
        }
        OpError::UniverseMismatch { snapshot, universe } => {
            out.push(4);
            put_u64(out, *snapshot);
            put_u64(out, *universe);
        }
        OpError::InvalidSnapshot(inner) => {
            out.push(5);
            encode_snapshot_error(out, inner);
        }
    }
}

fn decode_op_error(r: &mut Reader<'_>) -> Result<OpError, SnapshotError> {
    Ok(match r.u8()? {
        0 => OpError::UnknownSession,
        1 => OpError::KindMismatch { session: decode_kind(r)?, batch: decode_kind(r)? },
        2 => OpError::UniverseOverflow { value: r.u64()?, universe: r.u64()? },
        3 => OpError::SessionExists { kind: decode_kind(r)? },
        4 => OpError::UniverseMismatch { snapshot: r.u64()?, universe: r.u64()? },
        5 => OpError::InvalidSnapshot(decode_snapshot_error(r)?),
        _ => return Err(SnapshotError::Malformed("unknown op-error tag")),
    })
}

fn encode_ingest_path(out: &mut Vec<u8>, path: IngestPath) {
    out.push(match path {
        IngestPath::Sequential => 0,
        IngestPath::ParallelMerge => 1,
    });
}

fn decode_ingest_path(r: &mut Reader<'_>) -> Result<IngestPath, SnapshotError> {
    match r.u8()? {
        0 => Ok(IngestPath::Sequential),
        1 => Ok(IngestPath::ParallelMerge),
        _ => Err(SnapshotError::Malformed("unknown ingest-path byte")),
    }
}

fn encode_batch_report(out: &mut Vec<u8>, report: &BatchReport) {
    match report {
        BatchReport::Unweighted(r) => {
            out.push(0);
            put_u64(out, r.ingested as u64);
            put_u32(out, r.lis_before);
            put_u32(out, r.lis_after);
            encode_ingest_path(out, r.path);
            put_u64(out, r.tail_inserts as u64);
            put_u64(out, r.tail_removals as u64);
            out.push(match r.tail_store {
                None => 0,
                Some(TailRoute::Veb) => 1,
                Some(TailRoute::SortedVec) => 2,
            });
        }
        BatchReport::Weighted(r) => {
            out.push(1);
            put_u64(out, r.ingested as u64);
            put_u64(out, r.score_before);
            put_u64(out, r.score_after);
            encode_ingest_path(out, r.path);
            put_u64(out, r.frontier_len as u64);
            out.push(match r.dommax_used {
                None => 0,
                Some(DominantMaxKind::Auto) => 1,
                Some(DominantMaxKind::RangeTree) => 2,
                Some(DominantMaxKind::RangeVeb) => 3,
            });
            put_u64(out, r.dommax_queries);
            put_u64(out, r.dommax_writeback_elems);
        }
    }
}

fn decode_batch_report(r: &mut Reader<'_>) -> Result<BatchReport, SnapshotError> {
    Ok(match r.u8()? {
        0 => BatchReport::Unweighted(IngestReport {
            ingested: r.usize()?,
            lis_before: r.u32()?,
            lis_after: r.u32()?,
            path: decode_ingest_path(r)?,
            tail_inserts: r.usize()?,
            tail_removals: r.usize()?,
            tail_store: match r.u8()? {
                0 => None,
                1 => Some(TailRoute::Veb),
                2 => Some(TailRoute::SortedVec),
                _ => return Err(SnapshotError::Malformed("unknown tail-route byte")),
            },
        }),
        1 => BatchReport::Weighted(WeightedIngestReport {
            ingested: r.usize()?,
            score_before: r.u64()?,
            score_after: r.u64()?,
            path: decode_ingest_path(r)?,
            frontier_len: r.usize()?,
            dommax_used: match r.u8()? {
                0 => None,
                1 => Some(DominantMaxKind::Auto),
                2 => Some(DominantMaxKind::RangeTree),
                3 => Some(DominantMaxKind::RangeVeb),
                _ => return Err(SnapshotError::Malformed("unknown dominant-max byte")),
            },
            dommax_queries: r.u64()?,
            dommax_writeback_elems: r.u64()?,
        }),
        _ => return Err(SnapshotError::Malformed("unknown batch-report kind byte")),
    })
}

fn encode_query_report(out: &mut Vec<u8>, report: &QueryReport) {
    encode_kind(out, report.kind);
    put_u64(out, report.answers.len() as u64);
    for answer in &report.answers {
        match answer {
            QueryAnswer::Rank(rank) => {
                out.push(0);
                match rank {
                    None => put_bool(out, false),
                    Some(v) => {
                        put_bool(out, true);
                        put_u64(out, *v);
                    }
                }
            }
            QueryAnswer::Count(n) => {
                out.push(1);
                put_u64(out, *n as u64);
            }
            QueryAnswer::TopK(pairs) => {
                out.push(2);
                put_u64(out, pairs.len() as u64);
                for &(index, dp) in pairs {
                    put_u64(out, index as u64);
                    put_u64(out, dp);
                }
            }
            QueryAnswer::Certificate(cert) => {
                out.push(3);
                put_u64(out, cert.indices.len() as u64);
                for &i in &cert.indices {
                    put_u64(out, i as u64);
                }
                put_u64(out, cert.claimed);
            }
        }
    }
}

fn decode_query_report(r: &mut Reader<'_>) -> Result<QueryReport, SnapshotError> {
    let kind = decode_kind(r)?;
    let n = r.len(1)?;
    let mut answers = Vec::with_capacity(n);
    for _ in 0..n {
        answers.push(match r.u8()? {
            0 => QueryAnswer::Rank(if r.bool()? { Some(r.u64()?) } else { None }),
            1 => QueryAnswer::Count(r.usize()?),
            2 => {
                let k = r.len(16)?;
                let mut pairs = Vec::with_capacity(k);
                for _ in 0..k {
                    pairs.push((r.usize()?, r.u64()?));
                }
                QueryAnswer::TopK(pairs)
            }
            3 => {
                let k = r.len(8)?;
                let mut indices = Vec::with_capacity(k);
                for _ in 0..k {
                    indices.push(r.usize()?);
                }
                QueryAnswer::Certificate(Certificate { indices, claimed: r.u64()? })
            }
            _ => return Err(SnapshotError::Malformed("unknown answer tag")),
        });
    }
    Ok(QueryReport { kind, answers })
}

fn encode_op_output(out: &mut Vec<u8>, output: &OpOutput) {
    match output {
        OpOutput::Appended(report) => {
            out.push(0);
            encode_batch_report(out, report);
        }
        OpOutput::Answered(report) => {
            out.push(1);
            encode_query_report(out, report);
        }
        OpOutput::Created => out.push(2),
        OpOutput::Removed => out.push(3),
        OpOutput::Snapshotted(snapshot) => {
            out.push(4);
            snapshot.encode_payload(out);
        }
        OpOutput::Restored => out.push(5),
    }
}

fn decode_op_output(r: &mut Reader<'_>) -> Result<OpOutput, SnapshotError> {
    Ok(match r.u8()? {
        0 => OpOutput::Appended(decode_batch_report(r)?),
        1 => OpOutput::Answered(decode_query_report(r)?),
        2 => OpOutput::Created,
        3 => OpOutput::Removed,
        4 => OpOutput::Snapshotted(Box::new(SessionSnapshot::decode_payload(r)?)),
        5 => OpOutput::Restored,
        _ => return Err(SnapshotError::Malformed("unknown op-output tag")),
    })
}

/// Serialize one [`TickOutcome`] into a sealed, checksummed byte stream —
/// the write-response format of the service plane.  Observational fields
/// (`worker_threads`, `elapsed_ns`) ride along so a remote client sees
/// what a library caller would.
pub fn encode_tick_outcome(outcome: &TickOutcome) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, outcome.outcomes.len() as u64);
    for (id, result) in &outcome.outcomes {
        put_str(&mut payload, id.as_str());
        match result {
            Ok(output) => {
                payload.push(0);
                encode_op_output(&mut payload, output);
            }
            Err(e) => {
                payload.push(1);
                encode_op_error(&mut payload, e);
            }
        }
    }
    put_u64(&mut payload, outcome.worker_threads as u64);
    put_u64(&mut payload, outcome.elapsed_ns);
    seal(PAYLOAD_TICK_OUTCOME, &payload)
}

/// Decode a sealed byte stream produced by [`encode_tick_outcome`].  The
/// aggregate counters are reassembled from the per-op results through the
/// same constructor the executor uses, so they can never disagree with
/// the payload.
pub fn decode_tick_outcome(bytes: &[u8]) -> Result<TickOutcome, SnapshotError> {
    let mut r = Reader::new(open(bytes, PAYLOAD_TICK_OUTCOME)?);
    // Each outcome costs at least an id length and two tag bytes.
    let n = r.len(10)?;
    let mut outcomes = Vec::with_capacity(n);
    for _ in 0..n {
        let id: SessionId = r.str()?.to_string().into();
        let result = match r.u8()? {
            0 => Ok(decode_op_output(&mut r)?),
            1 => Err(decode_op_error(&mut r)?),
            _ => return Err(SnapshotError::Malformed("unknown result tag")),
        };
        outcomes.push((id, result));
    }
    let worker_threads = r.usize()?;
    let elapsed_ns = r.u64()?;
    r.finish()?;
    Ok(TickOutcome::from_parts(outcomes, worker_threads, elapsed_ns))
}

/// Serialize one [`ReadOutcome`] into a sealed, checksummed byte stream —
/// the read-response format of the service plane.
pub fn encode_read_outcome(outcome: &ReadOutcome) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, outcome.outcomes.len() as u64);
    for (id, result) in &outcome.outcomes {
        put_str(&mut payload, id.as_str());
        match result {
            Ok(report) => {
                payload.push(0);
                encode_query_report(&mut payload, report);
            }
            Err(e) => {
                payload.push(1);
                encode_op_error(&mut payload, e);
            }
        }
    }
    put_u64(&mut payload, outcome.worker_threads as u64);
    put_u64(&mut payload, outcome.elapsed_ns);
    seal(PAYLOAD_READ_OUTCOME, &payload)
}

/// Decode a sealed byte stream produced by [`encode_read_outcome`].
pub fn decode_read_outcome(bytes: &[u8]) -> Result<ReadOutcome, SnapshotError> {
    let mut r = Reader::new(open(bytes, PAYLOAD_READ_OUTCOME)?);
    // Each outcome costs at least an id length and two tag bytes.
    let n = r.len(10)?;
    let mut outcomes = Vec::with_capacity(n);
    for _ in 0..n {
        let id: SessionId = r.str()?.to_string().into();
        let result = match r.u8()? {
            0 => Ok(decode_query_report(&mut r)?),
            1 => Err(decode_op_error(&mut r)?),
            _ => return Err(SnapshotError::Malformed("unknown result tag")),
        };
        outcomes.push((id, result));
    }
    let worker_threads = r.usize()?;
    let elapsed_ns = r.u64()?;
    r.finish()?;
    Ok(ReadOutcome::from_parts(outcomes, worker_threads, elapsed_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};

    fn config() -> EngineConfig {
        EngineConfig { universe: 1 << 16, ..EngineConfig::default() }
    }

    fn traffic_tick() -> Tick {
        Tick::new()
            .create("plain", SessionKind::Unweighted)
            .append("plain", vec![52, 31, 45, 26, 61, 10, 39, 44])
            .create("heavy", SessionKind::Weighted)
            .append_weighted("heavy", vec![(1, 1), (2, 100), (3, 1), (4, 1)])
            .query(
                "plain",
                vec![Query::RankOf(0), Query::CountAt(1), Query::TopK(2), Query::Certificate],
            )
            .snapshot("heavy")
    }

    #[test]
    fn read_tick_round_trips() {
        let tick = ReadTick::new()
            .query("a", vec![Query::RankOf(3), Query::CountAt(7)])
            .query("b", Query::Certificate);
        assert_eq!(decode_read_tick(&encode_read_tick(&tick)), Ok(tick));
        let empty = ReadTick::new();
        assert_eq!(decode_read_tick(&encode_read_tick(&empty)), Ok(empty));
    }

    #[test]
    fn tick_outcome_round_trips_with_observational_fields() {
        let mut engine = Engine::new(config());
        let mut outcome = engine.execute(&traffic_tick());
        outcome.worker_threads = 3;
        outcome.elapsed_ns = 12_345;
        let decoded = decode_tick_outcome(&encode_tick_outcome(&outcome)).unwrap();
        assert_eq!(decoded, outcome);
        // `==` excludes the observational fields; check them explicitly.
        assert_eq!(decoded.worker_threads, 3);
        assert_eq!(decoded.elapsed_ns, 12_345);
        assert_eq!(decoded.total_ingested, outcome.total_ingested);
        assert_eq!(decoded.sessions_snapshotted, 1);
    }

    #[test]
    fn error_outcomes_round_trip() {
        let mut engine = Engine::new(config());
        engine.execute(&traffic_tick());
        // A tick of nothing but typed failures.
        let bad = Tick::new()
            .append("ghost", vec![1])
            .append_weighted("plain", vec![(1, 2)])
            .append("plain", vec![u64::MAX])
            .create("plain", SessionKind::Unweighted);
        let outcome = engine.execute(&bad);
        assert_eq!(outcome.failed_ops, 4);
        let decoded = decode_tick_outcome(&encode_tick_outcome(&outcome)).unwrap();
        assert_eq!(decoded, outcome);
    }

    #[test]
    fn invalid_snapshot_errors_round_trip_through_the_message_table() {
        let through_a_frame = |inner: SnapshotError| {
            let outcome = TickOutcome::from_parts(
                vec![(SessionId::from("s"), Err(OpError::InvalidSnapshot(inner)))],
                1,
                0,
            );
            let decoded = decode_tick_outcome(&encode_tick_outcome(&outcome)).unwrap();
            decoded.outcomes[0].1.clone()
        };
        for inner in [
            SnapshotError::Truncated,
            SnapshotError::BadMagic,
            SnapshotError::UnsupportedVersion(9),
            SnapshotError::ChecksumMismatch,
            SnapshotError::Malformed("value outside the universe"),
            SnapshotError::TrailingBytes,
        ] {
            assert_eq!(through_a_frame(inner), Err(OpError::InvalidSnapshot(inner)), "{inner:?}");
        }
        // Every table entry decodes to itself, never to the stand-in.
        for &msg in MALFORMED_MESSAGES {
            let inner = SnapshotError::Malformed(msg);
            assert_eq!(through_a_frame(inner), Err(OpError::InvalidSnapshot(inner)), "{msg}");
        }
        // The table covers what `validate` returns.
        for snapshot in [
            SessionSnapshot::Unweighted { universe: 0, values: Vec::new() },
            SessionSnapshot::Unweighted { universe: 8, values: vec![3, 8] },
            SessionSnapshot::Weighted { universe: 8, pairs: vec![(9, 1)] },
        ] {
            match snapshot.validate() {
                Err(SnapshotError::Malformed(msg)) => {
                    assert!(MALFORMED_MESSAGES.contains(&msg), "{msg:?} missing from the table")
                }
                other => panic!("{snapshot:?} validated to {other:?}"),
            }
        }
        // A message outside the table decodes to the forward-compat
        // stand-in instead of failing.
        assert_eq!(
            through_a_frame(SnapshotError::Malformed("from the future")),
            Err(OpError::InvalidSnapshot(SnapshotError::Malformed(UNKNOWN_MALFORMED)))
        );
    }

    #[test]
    fn malformed_message_table_is_sorted_and_unique() {
        // Index stability matters: a duplicate entry would alias two
        // encodings, an unsorted table invites drift on edits.
        for pair in MALFORMED_MESSAGES.windows(2) {
            assert!(pair[0] < pair[1], "{:?} out of order", pair);
        }
    }

    #[test]
    fn read_outcome_round_trips() {
        let mut engine = Engine::new(config());
        engine.execute(&traffic_tick());
        let tick = ReadTick::new()
            .query("plain", vec![Query::TopK(3), Query::Certificate])
            .query("ghost", Query::RankOf(0))
            .query("heavy", Query::CountAt(100));
        let mut outcome = engine.execute_read(&tick);
        outcome.worker_threads = 2;
        outcome.elapsed_ns = 777;
        let decoded = decode_read_outcome(&encode_read_outcome(&outcome)).unwrap();
        assert_eq!(decoded, outcome);
        assert_eq!(decoded.worker_threads, 2);
        assert_eq!(decoded.elapsed_ns, 777);
        assert_eq!(decoded.sessions_missing, 1);
    }

    #[test]
    fn outcome_kinds_do_not_cross_decode() {
        let mut engine = Engine::new(config());
        let outcome = engine.execute(&traffic_tick());
        let read = engine.execute_read(&ReadTick::new().query("plain", Query::Certificate));
        let tick_bytes = encode_tick_outcome(&outcome);
        let read_bytes = encode_read_outcome(&read);
        assert!(decode_read_outcome(&tick_bytes).is_err());
        assert!(decode_tick_outcome(&read_bytes).is_err());
        assert!(decode_tick(&tick_bytes).is_err());
    }
}
