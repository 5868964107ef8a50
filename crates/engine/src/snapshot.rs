//! The engine's **persistence plane**: versioned binary snapshots of
//! session state, plus the tick codec and replay driver that pair them
//! with the append-only journal in `plis-telemetry`.
//!
//! # Why hand-rolled
//!
//! The build environment has no registry access, so `serde`/`bincode` are
//! unavailable; the codec here is written by hand against a fixed byte
//! layout.  That also keeps the format honest: every field is spelled out
//! below, and the proptest layer round-trips it.
//!
//! # Format
//!
//! The sealed-container framing (magic, version, payload kind, CRC) and
//! the tick codec live in [`crate::wire`] — one byte layout shared by
//! this persistence plane and the service plane, so the journal and the
//! TCP server can never drift apart.  This module layers the snapshot
//! payloads, the journal driver and replay on top.  Any single mutated
//! byte fails decode with a typed [`SnapshotError`]; nothing here panics
//! on foreign bytes.
//!
//! Inside a payload, integers are fixed-width little-endian and every
//! array is length-prefixed with a `u64`.  A session payload is the
//! ingested stream and nothing else:
//!
//! ```text
//! kind 0 (unweighted): [0][universe: u64][values]
//! kind 1 (weighted):   [1][universe: u64][(value, weight) pairs]
//! ```
//!
//! # Restore is ingest
//!
//! Everything a session holds past its input — the dp values (ranks, or
//! the weighted scores of Equation 2), the patience tails, the Pareto
//! frontier and the indexes over them — is a pure function of the
//! ingested stream.  So a snapshot persists the stream, and restore
//! re-ingests it: one ingest into a fresh session over the engine's
//! universe.  Derived state is rebuilt, never stored, so there is nothing
//! to forge and nothing to cross-check.  [`SessionSnapshot::validate`]
//! keeps only the checks that stop that ingest from panicking on outside
//! input: a non-empty universe, every value inside it, at most `u32::MAX`
//! elements in an unweighted stream, and weights that sum within `u64` in
//! a weighted one.  Decode runs it, and the restore paths run it again on
//! snapshots built in code, so a snapshot that decodes restores.  Restore is all-or-nothing: a rejected snapshot
//! creates no session.
//!
//! # Snapshot + journal ≡ never stopped
//!
//! The engine is deterministic tick-for-tick (the `determinism.rs` layer
//! pins this), and ingest is exact under any batching (the streaming
//! correctness argument in `DESIGN.md`), so one ingest of the captured
//! stream reaches exactly the state the live session reached
//! batch by batch.  Replaying the journal suffix from that state applies
//! the exact same per-session op sequences the uninterrupted engine saw;
//! the `snapshot_replay.rs` differential suite asserts the resulting
//! outcomes, answers and certificates are bit-identical.

use crate::engine::{Engine, EngineConfig, SessionKind, SessionState};
use crate::op::{OpError, Tick, TickOutcome};
use crate::session::StreamingLis;
use crate::wire::{
    open, put_pairs, put_str, put_u64, put_u64s, seal, Reader, PAYLOAD_ENGINE, PAYLOAD_SESSION,
};
use crate::wsession::{weight_sum, WeightedStreamingLis};
use plis_telemetry::{read_journal, JournalTail, JournalWriter};
use std::io::{self, Write};

pub use crate::wire::{decode_tick, encode_tick, FORMAT_VERSION};

/// Why a byte stream failed to decode (or a snapshot failed validation).
/// Decoding foreign bytes never panics: every failure is one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The stream ended before the announced data did.
    Truncated,
    /// The stream does not start with the `PLISSNAP` magic.
    BadMagic,
    /// The stream announces a format version this build cannot read.
    UnsupportedVersion(u8),
    /// A checksum failed: some byte of the stream was altered.
    ChecksumMismatch,
    /// The framing is intact but the content is inconsistent — the
    /// message names the first violated property.
    Malformed(&'static str),
    /// The payload decoded completely but bytes remain after it.
    TrailingBytes,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "byte stream truncated"),
            SnapshotError::BadMagic => write!(f, "not a plis snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported format version {v} (this build reads {FORMAT_VERSION})")
            }
            SnapshotError::ChecksumMismatch => write!(f, "checksum mismatch"),
            SnapshotError::Malformed(what) => write!(f, "malformed payload: {what}"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after payload"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// Session snapshots.

/// Point-in-time state of one session: its universe and the stream it
/// ingested.  Everything else a live session holds is a pure function of
/// these and is rebuilt on restore by ingesting the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionSnapshot {
    /// An unweighted (plain LIS) session.
    Unweighted {
        /// Value universe the session runs over.
        universe: u64,
        /// Every ingested value, in arrival order.
        values: Vec<u64>,
    },
    /// A weighted (Algorithm-2) session.
    Weighted {
        /// Value universe the session runs over.
        universe: u64,
        /// Every ingested `(value, weight)` pair, in arrival order.
        pairs: Vec<(u64, u64)>,
    },
}

impl SessionSnapshot {
    /// Capture the ingested stream of a live session.
    pub fn capture(state: &SessionState) -> SessionSnapshot {
        match state {
            SessionState::Unweighted(s) => {
                SessionSnapshot::Unweighted { universe: s.universe(), values: s.values().to_vec() }
            }
            SessionState::Weighted(s) => SessionSnapshot::Weighted {
                universe: s.universe(),
                pairs: s.values().iter().copied().zip(s.weights().iter().copied()).collect(),
            },
        }
    }

    /// Which session kind this snapshot restores to.
    pub fn kind(&self) -> SessionKind {
        match self {
            SessionSnapshot::Unweighted { .. } => SessionKind::Unweighted,
            SessionSnapshot::Weighted { .. } => SessionKind::Weighted,
        }
    }

    /// The universe the snapshot was captured over.
    pub fn universe(&self) -> u64 {
        match self {
            SessionSnapshot::Unweighted { universe, .. }
            | SessionSnapshot::Weighted { universe, .. } => *universe,
        }
    }

    /// Number of stream elements the snapshot holds.
    pub fn len(&self) -> usize {
        match self {
            SessionSnapshot::Unweighted { values, .. } => values.len(),
            SessionSnapshot::Weighted { pairs, .. } => pairs.len(),
        }
    }

    /// True when the captured stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize into a sealed, checksummed byte stream.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(16 * self.len() + 64);
        self.encode_payload(&mut payload);
        seal(PAYLOAD_SESSION, &payload)
    }

    /// Decode a sealed byte stream produced by [`SessionSnapshot::encode`].
    ///
    /// Never panics: framing damage, version skew and out-of-range
    /// streams all come back as typed [`SnapshotError`]s, and a snapshot
    /// that decodes is guaranteed restorable (see the module docs).
    pub fn decode(bytes: &[u8]) -> Result<SessionSnapshot, SnapshotError> {
        let mut r = Reader::new(open(bytes, PAYLOAD_SESSION)?);
        let snapshot = SessionSnapshot::decode_payload(&mut r)?;
        r.finish()?;
        Ok(snapshot)
    }

    /// Write the (unsealed) session payload; used directly when nesting
    /// inside engine snapshots, tick records and outcome frames.
    pub(crate) fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            SessionSnapshot::Unweighted { universe, values } => {
                out.push(0);
                put_u64(out, *universe);
                put_u64s(out, values);
            }
            SessionSnapshot::Weighted { universe, pairs } => {
                out.push(1);
                put_u64(out, *universe);
                put_pairs(out, pairs);
            }
        }
    }

    /// Read one session payload (validated) from `r`.
    pub(crate) fn decode_payload(r: &mut Reader<'_>) -> Result<SessionSnapshot, SnapshotError> {
        let snapshot = match r.u8()? {
            0 => SessionSnapshot::Unweighted { universe: r.u64()?, values: r.u64s()? },
            1 => SessionSnapshot::Weighted { universe: r.u64()?, pairs: r.pairs()? },
            _ => return Err(SnapshotError::Malformed("unknown session kind byte")),
        };
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Check that ingesting the captured stream cannot panic: the
    /// universe is non-empty, every value lies inside it, an unweighted
    /// stream fits the session's 32-bit element addressing (its parent
    /// pointers and rank summaries hold `u32` indices, and no index
    /// reaches the `u32::MAX` that marks a rank-1 element), and a
    /// weighted stream's weight total fits `u64` — the bound every live
    /// append is held to ([`WeightedStreamingLis::admits`]), so any
    /// stream the engine accepted validates, and restore's one ingest of
    /// it into an empty session passes the same check.
    /// [`SessionSnapshot::decode`] runs this on every decode, and the
    /// restore paths run it again on snapshots handed to them directly.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        let universe = self.universe();
        if universe == 0 {
            return Err(SnapshotError::Malformed("universe must be non-empty"));
        }
        let inside = match self {
            SessionSnapshot::Unweighted { values, .. } => {
                if values.len() > u32::MAX as usize {
                    return Err(SnapshotError::Malformed("stream exceeds u32 element addressing"));
                }
                values.iter().all(|&v| v < universe)
            }
            SessionSnapshot::Weighted { pairs, .. } => {
                if weight_sum(pairs).is_none() {
                    return Err(SnapshotError::Malformed("weights sum past u64::MAX"));
                }
                pairs.iter().all(|&(v, _)| v < universe)
            }
        };
        if !inside {
            return Err(SnapshotError::Malformed("value outside the universe"));
        }
        Ok(())
    }

    /// Build the live session this snapshot describes by ingesting its
    /// stream, as one batch, into a fresh session over the engine's
    /// universe.  Validates first; all-or-nothing.
    pub(crate) fn restore_state(&self, config: &EngineConfig) -> Result<SessionState, OpError> {
        if self.universe() != config.universe {
            return Err(OpError::UniverseMismatch {
                snapshot: self.universe(),
                universe: config.universe,
            });
        }
        self.validate().map_err(OpError::InvalidSnapshot)?;
        Ok(match self {
            SessionSnapshot::Unweighted { universe, values } => {
                let mut s = StreamingLis::new(*universe);
                s.ingest(values);
                SessionState::Unweighted(s)
            }
            SessionSnapshot::Weighted { universe, pairs } => {
                let mut s = WeightedStreamingLis::new(*universe);
                s.ingest(pairs);
                SessionState::Weighted(s)
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Engine snapshots.

/// Point-in-time state of a whole engine: every live session's snapshot,
/// keyed by id and sorted by it (the same order `session_ids()` reports),
/// plus the configured universe.
///
/// The shard count is *not* stored: it is configuration, not state, and a
/// snapshot may legitimately be restored into an engine with a different
/// shard count — outcomes are bit-identical either way (the determinism
/// layers pin this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// The engine's value universe.
    pub universe: u64,
    /// `(id, snapshot)` per live session, sorted by id.
    pub sessions: Vec<(String, SessionSnapshot)>,
}

impl EngineSnapshot {
    /// Serialize into a sealed, checksummed byte stream.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u64(&mut payload, self.universe);
        put_u64(&mut payload, self.sessions.len() as u64);
        for (id, snapshot) in &self.sessions {
            put_str(&mut payload, id);
            snapshot.encode_payload(&mut payload);
        }
        seal(PAYLOAD_ENGINE, &payload)
    }

    /// Decode a sealed byte stream produced by [`EngineSnapshot::encode`].
    /// Every nested session is validated; never panics.
    pub fn decode(bytes: &[u8]) -> Result<EngineSnapshot, SnapshotError> {
        let mut r = Reader::new(open(bytes, PAYLOAD_ENGINE)?);
        let universe = r.u64()?;
        // Each session costs at least an id length and a kind byte.
        let n = r.len(9)?;
        let mut sessions = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.str()?.to_string();
            if let Some((last, _)) = sessions.last() {
                if *last >= id {
                    return Err(SnapshotError::Malformed("session ids must be sorted and unique"));
                }
            }
            let snapshot = SessionSnapshot::decode_payload(&mut r)?;
            if snapshot.universe() != universe {
                return Err(SnapshotError::Malformed(
                    "session universe differs from the engine universe",
                ));
            }
            sessions.push((id, snapshot));
        }
        r.finish()?;
        Ok(EngineSnapshot { universe, sessions })
    }

    /// Number of sessions captured.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }
}

// ---------------------------------------------------------------------------
// The tick journal and the replay driver.

/// Append-only journal of executed ticks: [`encode_tick`] records framed
/// by the generic [`JournalWriter`] of `plis-telemetry` (each record
/// independently checksummed, torn tails recoverable).  Write every tick
/// *before* executing it — the recovery contract replays journalled ticks
/// after the last snapshot, so a tick that executed but never reached the
/// journal would be lost.
#[derive(Debug)]
pub struct TickJournal<W: Write> {
    writer: JournalWriter<W>,
}

impl<W: Write> TickJournal<W> {
    /// Start journalling onto `target` (a file, a
    /// [`MemorySink`](plis_telemetry::MemorySink), a `Vec<u8>`, …).
    pub fn new(target: W) -> Self {
        TickJournal { writer: JournalWriter::new(target) }
    }

    /// Append one tick; flushed before returning.
    pub fn record(&mut self, tick: &Tick) -> io::Result<()> {
        self.writer.append(&encode_tick(tick))
    }

    /// Ticks recorded so far.
    pub fn records(&self) -> u64 {
        self.writer.records()
    }

    /// Borrow the underlying writer.
    pub fn get_ref(&self) -> &W {
        self.writer.get_ref()
    }

    /// Unwrap the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer.into_inner()
    }
}

/// What one journal replay did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// One outcome per replayed tick, in journal order.
    pub outcomes: Vec<TickOutcome>,
    /// Complete journal records skipped (the prefix a snapshot already
    /// covers).
    pub skipped: usize,
    /// Bytes of a torn trailing record that were ignored (0 for a clean
    /// journal) — the crash-recovery case.
    pub truncated_bytes: usize,
}

/// Re-execute a tick journal against `engine`, starting after the first
/// `skip` records (the ticks a restored snapshot already covers).
///
/// A torn trailing record — the classic kill-during-append — is ignored
/// and reported via [`ReplayReport::truncated_bytes`]; a checksum failure
/// on a *complete* record, or an undecodable tick, aborts with a typed
/// error before executing anything further.
pub fn replay_journal_from(
    engine: &mut Engine,
    journal: &[u8],
    skip: usize,
) -> Result<ReplayReport, SnapshotError> {
    let contents = read_journal(journal).map_err(|_| SnapshotError::ChecksumMismatch)?;
    let mut outcomes = Vec::new();
    for record in contents.records.iter().skip(skip) {
        let tick = decode_tick(record)?;
        outcomes.push(engine.execute(&tick));
    }
    let truncated_bytes = match contents.tail {
        JournalTail::Clean => 0,
        JournalTail::Truncated { dropped_bytes } => dropped_bytes,
    };
    Ok(ReplayReport { outcomes, skipped: skip.min(contents.records.len()), truncated_bytes })
}

/// Re-execute a whole tick journal against `engine` (no skipping) — the
/// from-scratch recovery path, equivalent to
/// [`replay_journal_from`]`(engine, journal, 0)`.
pub fn replay_journal(engine: &mut Engine, journal: &[u8]) -> Result<ReplayReport, SnapshotError> {
    replay_journal_from(engine, journal, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;

    fn config() -> EngineConfig {
        EngineConfig { universe: 1 << 16, ..EngineConfig::default() }
    }

    fn warm_engine() -> Engine {
        let mut engine = Engine::new(config());
        let tick = Tick::new()
            .create("plain", SessionKind::Unweighted)
            .append("plain", vec![52, 31, 45, 26, 61, 10, 39, 44])
            .create("heavy", SessionKind::Weighted)
            .append_weighted("heavy", vec![(1, 1), (2, 100), (3, 1), (4, 1)]);
        assert!(engine.execute(&tick).fully_applied());
        engine
    }

    #[test]
    fn session_snapshot_round_trips() {
        let engine = warm_engine();
        for id in ["plain", "heavy"] {
            let snapshot = engine.snapshot_session(id).unwrap();
            let bytes = snapshot.encode();
            assert_eq!(SessionSnapshot::decode(&bytes), Ok(snapshot), "{id}");
        }
    }

    #[test]
    fn engine_snapshot_round_trips_and_orders_ids() {
        let engine = warm_engine();
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.session_count(), 2);
        let ids: Vec<&str> = snapshot.sessions.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, ["heavy", "plain"], "sorted by id");
        let decoded = EngineSnapshot::decode(&snapshot.encode()).unwrap();
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn decode_rejects_header_damage_with_typed_errors() {
        let engine = warm_engine();
        let bytes = engine.snapshot_session("plain").unwrap().encode();
        assert_eq!(SessionSnapshot::decode(&bytes[..4]), Err(SnapshotError::Truncated));
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(SessionSnapshot::decode(&bad_magic), Err(SnapshotError::BadMagic));
        let mut bad_version = bytes.clone();
        bad_version[8] = FORMAT_VERSION + 1;
        assert_eq!(
            SessionSnapshot::decode(&bad_version),
            Err(SnapshotError::UnsupportedVersion(FORMAT_VERSION + 1))
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(SessionSnapshot::decode(&trailing).is_err());
        // A session stream is not an engine stream.
        assert!(EngineSnapshot::decode(&bytes).is_err());
    }

    #[test]
    fn validate_rejects_inconsistent_state() {
        let engine = warm_engine();
        let snapshot = engine.snapshot_session("plain").unwrap();
        let SessionSnapshot::Unweighted { universe, mut values } = snapshot else {
            panic!("plain session must snapshot unweighted");
        };
        values[0] = universe;
        let forged = SessionSnapshot::Unweighted { universe, values };
        assert!(matches!(forged.validate(), Err(SnapshotError::Malformed(_))));
        // And the restore paths reject it instead of building a session.
        let mut target = Engine::new(config());
        assert!(matches!(
            target.restore_session("forged", &forged),
            Err(OpError::InvalidSnapshot(_))
        ));
        assert_eq!(target.session_count(), 0);
    }

    #[test]
    fn tick_codec_round_trips_every_op() {
        let snapshot = warm_engine().snapshot_session("heavy").unwrap();
        let tick = Tick::new()
            .create("a", SessionKind::Unweighted)
            .append("a", vec![1, 2, 3])
            .append_weighted("w", vec![(5, 2), (6, 1)])
            .query(
                "a",
                vec![Query::RankOf(0), Query::CountAt(7), Query::TopK(2), Query::Certificate],
            )
            .snapshot("a")
            .restore("w2", snapshot)
            .remove("a");
        let bytes = encode_tick(&tick);
        assert_eq!(decode_tick(&bytes), Ok(tick));
        let auto = Tick::new().auto_create().append("x", vec![9]);
        assert_eq!(decode_tick(&encode_tick(&auto)), Ok(auto));
    }

    #[test]
    fn replay_reproduces_the_journalled_engine() {
        let mut journal = TickJournal::new(Vec::new());
        let ticks = [
            Tick::new().auto_create().append("s", vec![5, 3, 8]),
            Tick::new().append("s", vec![1, 9, 2]).query("s", Query::Certificate),
        ];
        let mut live = Engine::new(config());
        for tick in &ticks {
            journal.record(tick).unwrap();
            live.execute(tick);
        }
        let bytes = journal.into_inner();
        let mut recovered = Engine::new(config());
        let report = replay_journal(&mut recovered, &bytes).unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(recovered.session_ids(), live.session_ids());
        assert_eq!(recovered.session("s").unwrap().ranks(), live.session("s").unwrap().ranks());
    }
}
