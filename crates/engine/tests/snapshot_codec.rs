//! Property layer over the persistence codec: `decode(encode(s)) == s`
//! for arbitrary session states, engine snapshots and ticks; truncated,
//! corrupted and wrong-version streams yield typed [`SnapshotError`]s —
//! never a panic, never a partial restore.  Includes the clean-vs-dirty
//! differential: an engine fed invalid restore ops in between valid
//! traffic ends in exactly the state of an engine that never saw them.

mod common;

use plis_engine::snapshot::FORMAT_VERSION;
use plis_engine::{
    decode_read_outcome, decode_read_tick, decode_tick, decode_tick_outcome, encode_read_outcome,
    encode_read_tick, encode_tick, encode_tick_outcome, Engine, EngineConfig, EngineSnapshot,
    Query, ReadTick, SessionKind, SessionSnapshot, SnapshotError, Tick,
};
use proptest::prelude::*;

const UNIVERSE: u64 = 1 << 14;

fn config() -> EngineConfig {
    EngineConfig { universe: UNIVERSE, shards: 3, ..EngineConfig::default() }
}

/// Capture an unweighted session snapshot by actually ingesting the
/// stream — the only way honest snapshots come to exist.
fn unweighted_snapshot(values: &[u64]) -> SessionSnapshot {
    let mut engine = Engine::new(config());
    engine.create_session_kind("s", SessionKind::Unweighted);
    engine.execute(&Tick::new().append("s", values.to_vec()));
    engine.snapshot_session("s").unwrap()
}

fn weighted_snapshot(pairs: &[(u64, u64)]) -> SessionSnapshot {
    let mut engine = Engine::new(config());
    engine.create_session_kind("w", SessionKind::Weighted);
    engine.execute(&Tick::new().append_weighted("w", pairs.to_vec()));
    engine.snapshot_session("w").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unweighted_session_round_trips(
        values in proptest::collection::vec(0u64..UNIVERSE, 0..200),
    ) {
        let snapshot = unweighted_snapshot(&values);
        prop_assert_eq!(SessionSnapshot::decode(&snapshot.encode()), Ok(snapshot));
    }

    #[test]
    fn weighted_session_round_trips(
        pairs in proptest::collection::vec((0u64..UNIVERSE, 1u64..100), 0..160),
    ) {
        let snapshot = weighted_snapshot(&pairs);
        prop_assert_eq!(SessionSnapshot::decode(&snapshot.encode()), Ok(snapshot));
    }

    #[test]
    fn engine_snapshot_round_trips(
        a in proptest::collection::vec(0u64..UNIVERSE, 0..80),
        b in proptest::collection::vec((0u64..UNIVERSE, 1u64..50), 0..80),
    ) {
        let mut engine = Engine::new(config());
        engine.execute(
            &Tick::new()
                .create("plain", SessionKind::Unweighted)
                .append("plain", a)
                .create("heavy", SessionKind::Weighted)
                .append_weighted("heavy", b),
        );
        let snapshot = engine.snapshot();
        prop_assert_eq!(EngineSnapshot::decode(&snapshot.encode()), Ok(snapshot));
    }

    #[test]
    fn tick_codec_round_trips(
        batch in proptest::collection::vec(0u64..UNIVERSE, 0..60),
        pairs in proptest::collection::vec((0u64..UNIVERSE, 1u64..40), 0..40),
        probe in 0u64..UNIVERSE,
        auto in any::<bool>(),
    ) {
        let mut tick = Tick::new()
            .create("u", SessionKind::Unweighted)
            .append("u", batch)
            .append_weighted("w", pairs.clone())
            .query("u", vec![
                Query::RankOf(probe as usize),
                Query::CountAt(probe),
                Query::TopK(3),
                Query::Certificate,
            ])
            .snapshot("u")
            .restore("w2", weighted_snapshot(&pairs))
            .remove("u");
        if auto {
            tick = tick.auto_create();
        }
        prop_assert_eq!(decode_tick(&encode_tick(&tick)), Ok(tick));
    }

    /// Outcome frames — the service plane's response payloads — round
    /// trip honestly-produced outcomes, including per-op errors and a
    /// nested session snapshot, and survive hostile bytes the same way
    /// the request frames do: truncation at every length and every
    /// single-byte XOR mutation is a typed error, never a panic.
    #[test]
    fn outcome_frames_round_trip_and_reject_mutations(
        batch in proptest::collection::vec(0u64..UNIVERSE, 1..48),
        pairs in proptest::collection::vec((0u64..UNIVERSE, 1u64..40), 1..32),
        probe in 0u64..UNIVERSE,
        flip in 1u8..255,
    ) {
        let mut engine = Engine::new(config());
        // A tick whose outcome exercises every output arm: ingest
        // reports for both kinds, query answers, a snapshot riding back
        // in the outcome, and typed errors (kind mismatch, unknown id).
        let tick = Tick::new()
            .create("u", SessionKind::Unweighted)
            .append("u", batch)
            .create("w", SessionKind::Weighted)
            .append_weighted("w", pairs)
            .query("u", vec![
                Query::RankOf(probe as usize),
                Query::CountAt(probe),
                Query::TopK(3),
                Query::Certificate,
            ])
            .snapshot("w")
            .append_weighted("u", vec![(1, 1)])
            .append("ghost", vec![2]);
        let outcome = engine.execute(&tick);
        prop_assert!(!outcome.fully_applied(), "the poison ops must fail");
        let bytes = encode_tick_outcome(&outcome);
        prop_assert_eq!(decode_tick_outcome(&bytes).as_ref(), Ok(&outcome));

        let read = ReadTick::new()
            .query("u", vec![Query::RankOf(0), Query::TopK(2)])
            .query("w", Query::Certificate)
            .query("missing", Query::CountAt(probe));
        prop_assert_eq!(
            decode_read_tick(&encode_read_tick(&read)).as_ref(), Ok(&read)
        );
        let read_outcome = engine.execute_read(&read);
        let read_bytes = encode_read_outcome(&read_outcome);
        prop_assert_eq!(decode_read_outcome(&read_bytes).as_ref(), Ok(&read_outcome));

        for bytes in [&bytes, &read_bytes] {
            for len in 0..bytes.len() {
                prop_assert!(
                    decode_tick_outcome(&bytes[..len]).is_err(),
                    "outcome prefix of length {} decoded", len
                );
                prop_assert!(
                    decode_read_outcome(&bytes[..len]).is_err(),
                    "read-outcome prefix of length {} decoded", len
                );
            }
        }
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= flip;
            prop_assert!(
                decode_tick_outcome(&mutated).is_err(),
                "mutating outcome byte {} (xor {:#04x}) decoded", i, flip
            );
        }
        for i in 0..read_bytes.len() {
            let mut mutated = read_bytes.clone();
            mutated[i] ^= flip;
            prop_assert!(
                decode_read_outcome(&mutated).is_err(),
                "mutating read-outcome byte {} (xor {:#04x}) decoded", i, flip
            );
        }
        // The two outcome kinds never cross-decode.
        prop_assert!(decode_read_outcome(&bytes).is_err());
        prop_assert!(decode_tick_outcome(&read_bytes).is_err());
    }

    #[test]
    fn truncation_at_every_length_is_a_typed_error(
        values in proptest::collection::vec(0u64..UNIVERSE, 1..40),
    ) {
        let bytes = unweighted_snapshot(&values).encode();
        for len in 0..bytes.len() {
            prop_assert!(
                SessionSnapshot::decode(&bytes[..len]).is_err(),
                "prefix of length {} decoded", len
            );
        }
    }

    #[test]
    fn every_single_byte_mutation_is_a_typed_error(
        values in proptest::collection::vec(0u64..UNIVERSE, 1..32),
        flip in 1u8..255,
    ) {
        let bytes = unweighted_snapshot(&values).encode();
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= flip;
            // Decode must return Err — reaching this assert at all means
            // it did not panic.
            prop_assert!(
                SessionSnapshot::decode(&mutated).is_err(),
                "mutating byte {} (xor {:#04x}) decoded", i, flip
            );
        }
    }
}

#[test]
fn header_damage_maps_to_the_right_variants() {
    let bytes = unweighted_snapshot(&[5, 1, 9, 2]).encode();
    assert_eq!(SessionSnapshot::decode(&[]), Err(SnapshotError::Truncated));
    assert_eq!(SessionSnapshot::decode(&bytes[..10]), Err(SnapshotError::Truncated));
    let mut bad = bytes.clone();
    bad[3] = b'X';
    assert_eq!(SessionSnapshot::decode(&bad), Err(SnapshotError::BadMagic));
    let mut future = bytes.clone();
    future[8] = 200;
    assert_eq!(SessionSnapshot::decode(&future), Err(SnapshotError::UnsupportedVersion(200)));
    let mut v1 = bytes.clone();
    v1[8] = 1;
    assert_eq!(SessionSnapshot::decode(&v1), Err(SnapshotError::UnsupportedVersion(1)));
    let mut v2 = bytes.clone();
    v2[8] = 2;
    assert_eq!(SessionSnapshot::decode(&v2), Err(SnapshotError::UnsupportedVersion(2)));
    let mut v3 = bytes.clone();
    v3[8] = 3;
    assert_eq!(SessionSnapshot::decode(&v3), Err(SnapshotError::UnsupportedVersion(3)));
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 1;
    assert_eq!(SessionSnapshot::decode(&flipped), Err(SnapshotError::ChecksumMismatch));
    // Trailing bytes after a payload whose checksum was recomputed to
    // match: exercise the dedicated variant through the tick codec, whose
    // sealed payload we can rebuild.
    let engine_bytes = {
        let mut engine = Engine::new(config());
        engine.create_session("s");
        engine.snapshot().encode()
    };
    assert_eq!(
        EngineSnapshot::decode(&bytes),
        Err(SnapshotError::Malformed("sealed payload is of a different kind"))
    );
    assert!(SessionSnapshot::decode(&engine_bytes).is_err());
}

/// The format is the stream and nothing derived: a session snapshot is
/// the 18-byte sealed header, the kind byte, the universe and the stream
/// length, then 8 bytes per value or 16 per weighted pair.
#[test]
fn session_snapshot_size_is_pinned_to_the_stream() {
    assert_eq!(FORMAT_VERSION, 4);
    for n in [0usize, 1, 7, 100] {
        let values: Vec<u64> = (0..n as u64).map(|i| i * 7919 % UNIVERSE).collect();
        let pairs: Vec<(u64, u64)> = values.iter().map(|&v| (v, v % 5 + 1)).collect();
        let plain = unweighted_snapshot(&values).encode();
        assert_eq!(plain.len(), 35 + 8 * n, "unweighted, n = {n}");
        assert_eq!(plain[8], FORMAT_VERSION);
        assert_eq!(weighted_snapshot(&pairs).encode().len(), 35 + 16 * n, "weighted, n = {n}");
    }
}

/// Snapshots whose streams leave their universe, or whose weights sum
/// past `u64::MAX` — structurally well-formed, but impossible to ingest —
/// are rejected by validation and therefore by decode
/// (`snapshot_replay.rs` covers the restore paths).
#[test]
fn inconsistent_snapshots_are_rejected() {
    let snapshot = unweighted_snapshot(&[10, 4, 12, 3, 20]);
    let SessionSnapshot::Unweighted { universe, values } = snapshot else {
        panic!("unweighted expected");
    };

    // The last value at the universe bound.
    let mut at_bound = values.clone();
    at_bound[4] = universe;
    let forged = SessionSnapshot::Unweighted { universe, values: at_bound };
    assert!(matches!(forged.validate(), Err(SnapshotError::Malformed(_))));
    assert!(SessionSnapshot::decode(&forged.encode()).is_err());

    // A value far past it, mid-stream.
    let mut far = values.clone();
    far[2] = u64::MAX;
    let forged = SessionSnapshot::Unweighted { universe, values: far };
    assert!(SessionSnapshot::decode(&forged.encode()).is_err());

    // Value outside the universe.
    let mut bad_values = values.clone();
    bad_values[0] = UNIVERSE;
    let forged = SessionSnapshot::Unweighted { universe, values: bad_values };
    assert!(SessionSnapshot::decode(&forged.encode()).is_err());

    // Weighted: a pair whose value leaves the universe.
    let snapshot = weighted_snapshot(&[(3, 5), (7, 2), (1, 9)]);
    let SessionSnapshot::Weighted { universe, mut pairs } = snapshot else {
        panic!("weighted expected");
    };
    let mut far = pairs.clone();
    far[2].0 = universe + 1;
    let forged = SessionSnapshot::Weighted { universe, pairs: far };
    assert!(SessionSnapshot::decode(&forged.encode()).is_err());

    // Weighted: weights that sum past u64::MAX, a stream no engine accepts
    // (the weight total every append is held to would overflow).
    pairs[1].1 = u64::MAX - 10;
    let forged = SessionSnapshot::Weighted { universe, pairs };
    let overflow = SnapshotError::Malformed("weights sum past u64::MAX");
    assert_eq!(forged.validate(), Err(overflow));
    assert_eq!(SessionSnapshot::decode(&forged.encode()), Err(overflow));
}

/// Clean-vs-dirty differential: interleaving invalid restore ops
/// (out-of-universe streams, occupied ids) with valid traffic leaves the
/// dirty engine in exactly the clean engine's state — rejected ops have no
/// side effects.
#[test]
fn invalid_restores_leave_no_trace() {
    let mut state = 0x5EEDu64;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let forged = {
        let snapshot = unweighted_snapshot(&[8, 3, 9]);
        let SessionSnapshot::Unweighted { universe, mut values } = snapshot else {
            panic!("unweighted expected");
        };
        values[0] = universe;
        SessionSnapshot::Unweighted { universe, values }
    };
    let valid = unweighted_snapshot(&[8, 3, 9]);

    let mut clean = Engine::new(config());
    let mut dirty = Engine::new(config());
    for round in 0..8 {
        let batch: Vec<u64> = (0..40).map(|_| rand() % UNIVERSE).collect();
        let good = Tick::new().append(format!("s{}", round % 3), batch.clone()).auto_create();
        let outcome = clean.execute(&good);
        // The dirty engine sees the same traffic plus poison ops that
        // must all fail typed: an out-of-universe stream, and a restore
        // onto an id occupied earlier in the same tick.
        let poisoned = Tick::new()
            .append(format!("s{}", round % 3), batch)
            .restore("poison", forged.clone())
            .restore(format!("s{}", round % 3), valid.clone())
            .auto_create();
        let dirty_outcome = dirty.execute(&poisoned);
        assert_eq!(outcome.outcomes[0].1, dirty_outcome.outcomes[0].1, "round {round}");
        assert!(dirty_outcome.outcomes[1].1.is_err(), "forged restore must fail");
        assert!(dirty_outcome.outcomes[2].1.is_err(), "occupied-id restore must fail");
    }
    assert!(!dirty.remove_session("poison"), "poison session must not exist");
    assert_eq!(clean.snapshot(), dirty.snapshot(), "dirty engine diverged from clean");
    common::assert_same_derived_state(&clean, &dirty, "dirty vs clean");
    clean.check_invariants();
    dirty.check_invariants();
}

/// A tick containing an op the decoder does not know is a forward-compat
/// story for later versions; today, an unknown op tag is a typed error.
#[test]
fn unknown_tick_bytes_fail_typed() {
    let tick = Tick::new().append("s", vec![1, 2, 3]).auto_create();
    let bytes = encode_tick(&tick);
    for len in 0..bytes.len() {
        assert!(decode_tick(&bytes[..len]).is_err(), "tick prefix {len} decoded");
    }
    // A session snapshot is not a tick.
    let session = unweighted_snapshot(&[1, 2]);
    assert!(decode_tick(&session.encode()).is_err());
}
