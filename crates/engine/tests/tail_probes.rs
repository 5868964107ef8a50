//! The session's value-domain probes — `tail_pred`, `tail_succ` and
//! `lis_length_below`, which binary-search the patience tails — against a
//! van Emde Boas oracle: after every ingest, a `VebTree` built from the
//! session's tails (`VebTree::from_sorted`) must give the same answers.
//!
//! The streams are the ones the probes lean on hardest: an empty session,
//! single-element sessions at both ends of small universes, a constant
//! stream, duplicate blocks touching both universe boundaries, and random
//! duplicate-heavy streams whose tails churn in place.  Every stream is
//! ingested in batches of varying size.  Probes cover 0, 1, every tail ±1,
//! `universe - 1`, `universe` and `u64::MAX`.

use plis_engine::StreamingLis;
use plis_veb::VebTree;

/// Largest key strictly below `x`; probes past the universe ask for the
/// predecessor of "one past the end".
fn oracle_pred(tree: &VebTree, x: u64) -> Option<u64> {
    tree.pred(x.min(tree.universe()))
}

/// Smallest key at or above `x`; nothing lies at or beyond the universe.
fn oracle_succ(tree: &VebTree, x: u64) -> Option<u64> {
    if x >= tree.universe() {
        None
    } else if tree.contains(x) {
        Some(x)
    } else {
        tree.succ(x)
    }
}

/// Number of keys strictly below `x`, counted by walking predecessors.
fn oracle_below(tree: &VebTree, x: u64) -> u32 {
    let mut count = 0;
    let mut cursor = oracle_pred(tree, x);
    while let Some(key) = cursor {
        count += 1;
        cursor = tree.pred(key);
    }
    count
}

/// Check every probe of `session` against a vEB tree over its tails.
fn cross_probe(session: &StreamingLis, label: &str) {
    let universe = session.universe();
    let tails = session.tails();
    let tree = VebTree::from_sorted(universe, tails);
    assert_eq!(tree.iter_keys(), tails, "{label}: oracle built from the tails");
    let mut probes = vec![0, 1, universe - 1, universe, u64::MAX];
    for &t in tails {
        probes.extend([t.saturating_sub(1), t, t + 1]);
    }
    for x in probes {
        assert_eq!(session.tail_pred(x), oracle_pred(&tree, x), "{label}: pred {x}");
        assert_eq!(session.tail_succ(x), oracle_succ(&tree, x), "{label}: succ {x}");
        assert_eq!(session.lis_length_below(x), oracle_below(&tree, x), "{label}: below {x}");
    }
}

/// Ingest `input` in batches of 1, 2, 5 and 13 elements in turn, probing
/// after every ingest.
fn drive(input: &[u64], universe: u64, label: &str) {
    let mut session = StreamingLis::new(universe);
    cross_probe(&session, &format!("{label}/empty"));
    let mut rest = input;
    for size in [1usize, 2, 5, 13].into_iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (batch, tail) = rest.split_at(size.min(rest.len()));
        session.ingest(batch);
        cross_probe(&session, &format!("{label}/{} elems", session.len()));
        rest = tail;
    }
    session.check_invariants();
}

fn xorshift_stream(n: usize, universe: u64, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % universe
        })
        .collect()
}

#[test]
fn empty_sessions_answer_none() {
    for universe in [1u64, 2, 16, 1 << 12] {
        drive(&[], universe, &format!("empty U={universe}"));
    }
}

#[test]
fn single_element_sessions_answer_from_one_tail() {
    for universe in [1u64, 2, 7, 64] {
        for key in [0, universe / 2, universe - 1] {
            drive(&[key], universe, &format!("single {key} U={universe}"));
            let mut s = StreamingLis::new(universe);
            s.ingest(&[key]);
            // The only tail is its own successor-at and has no strict
            // predecessor.
            assert_eq!(s.tail_succ(key), Some(key));
            assert_eq!(s.tail_pred(key), None);
        }
    }
}

#[test]
fn constant_stream_keeps_one_tail() {
    drive(&[5u64; 300], 16, "constant");
}

#[test]
fn duplicate_blocks_with_interleaved_extremes() {
    // Blocks of duplicates touching both universe boundaries.
    let universe = 1u64 << 10;
    let mut input = Vec::new();
    for _ in 0..40 {
        input.extend_from_slice(&[0, 0, universe - 1, universe - 1, 512, 512, 0, universe - 1]);
    }
    drive(&input, universe, "extremes");
    // Two distinct values: the tails never exceed two entries, and every
    // repeat takes the displacement path.
    let input: Vec<u64> = (0..500u64).map(|i| [7, 7, 19, 7, 19][(i % 5) as usize]).collect();
    drive(&input, 32, "two values");
}

#[test]
fn random_duplicate_heavy_streams_match_the_oracle() {
    // A tiny universe makes nearly every element a duplicate; a wider one
    // grows longer tails that still churn.
    drive(&xorshift_stream(600, 8, 0x1357_9BDF), 8, "random U=8");
    drive(&xorshift_stream(600, 1 << 9, 0x2468_ACE0), 1 << 9, "random U=512");
}
