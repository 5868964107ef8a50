//! Integration tests for the parallel batch operations of the vEB tree
//! (Algorithms 4–6 of the paper), checked against `BTreeSet` oracles.
//!
//! Batches below `POINT_OP_CUTOFF` run as point operations, so the cases
//! that must reach Algorithms 4 and 5 use batches at and above the cutoff,
//! and the dense cases put at least that many keys into clusters two
//! levels below the root.

use plis_primitives::GRAIN;
use plis_veb::{VebTree, POINT_OP_CUTOFF};
use std::collections::BTreeSet;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn random_sorted_batch(state: &mut u64, universe: u64, max_len: usize) -> Vec<u64> {
    let len = (xorshift(state) as usize % max_len) + 1;
    let mut batch: Vec<u64> = (0..len).map(|_| xorshift(state) % universe).collect();
    batch.sort_unstable();
    batch.dedup();
    batch
}

fn assert_same(tree: &VebTree, oracle: &BTreeSet<u64>, context: &str) {
    assert_eq!(tree.len(), oracle.len(), "{context}: length mismatch");
    assert_eq!(
        tree.iter_keys(),
        oracle.iter().copied().collect::<Vec<_>>(),
        "{context}: key set mismatch"
    );
    assert_eq!(tree.min(), oracle.first().copied(), "{context}: min mismatch");
    assert_eq!(tree.max(), oracle.last().copied(), "{context}: max mismatch");
    assert_eq!(tree.recount(), oracle.len(), "{context}: structural count mismatch");
}

#[test]
fn from_sorted_matches_inserts() {
    let keys: Vec<u64> =
        (0..3000u64).map(|i| i * 7 % 8192).collect::<BTreeSet<_>>().into_iter().collect();
    let bulk = VebTree::from_sorted(8192, &keys);
    let mut incremental = VebTree::new(8192);
    for &k in &keys {
        incremental.insert(k);
    }
    assert_eq!(bulk.iter_keys(), incremental.iter_keys());
    assert_eq!(bulk.len(), keys.len());
}

#[test]
fn batch_insert_empty_and_duplicates() {
    let mut v = VebTree::new(1024);
    assert_eq!(v.batch_insert(&[]), 0);
    assert_eq!(v.batch_insert(&[5, 10, 15]), 3);
    // Re-inserting the same keys inserts nothing.
    assert_eq!(v.batch_insert(&[5, 10, 15]), 0);
    // Mixed batch only inserts the new keys.
    assert_eq!(v.batch_insert(&[4, 5, 11, 15, 20]), 3);
    assert_eq!(v.iter_keys(), vec![4, 5, 10, 11, 15, 20]);
}

#[test]
fn batch_delete_empty_missing_and_all() {
    let mut v = VebTree::new(1024);
    assert_eq!(v.batch_delete(&[1, 2, 3]), 0);
    v.batch_insert(&[1, 2, 3, 4, 5]);
    // Deleting keys that are absent is a no-op for those keys.
    assert_eq!(v.batch_delete(&[0, 2, 9]), 1);
    assert_eq!(v.iter_keys(), vec![1, 3, 4, 5]);
    // Deleting everything empties the tree.
    assert_eq!(v.batch_delete(&[1, 3, 4, 5]), 4);
    assert!(v.is_empty());
    assert_eq!(v.min(), None);
}

#[test]
fn batch_delete_min_max_replacement() {
    let mut v = VebTree::new(4096);
    v.batch_insert(&[10, 100, 200, 300, 4000]);
    // Delete both extremes; the survivors must be promoted correctly.
    v.batch_delete(&[10, 4000]);
    assert_eq!(v.min(), Some(100));
    assert_eq!(v.max(), Some(300));
    assert_eq!(v.iter_keys(), vec![100, 200, 300]);
    // Delete everything but one key.
    v.batch_delete(&[100, 300]);
    assert_eq!(v.iter_keys(), vec![200]);
    assert_eq!(v.min(), Some(200));
    assert_eq!(v.max(), Some(200));
}

#[test]
fn batch_delete_leaves_single_survivor_between_batch_keys() {
    let mut v = VebTree::new(1 << 16);
    let keys: Vec<u64> =
        (0..200u64).map(|i| i * 317 % 65536).collect::<BTreeSet<_>>().into_iter().collect();
    v.batch_insert(&keys);
    // Delete everything except one key in the middle.
    let survivor = keys[keys.len() / 2];
    let batch: Vec<u64> = keys.iter().copied().filter(|&k| k != survivor).collect();
    v.batch_delete(&batch);
    assert_eq!(v.iter_keys(), vec![survivor]);
}

#[test]
fn random_batch_operations_match_btreeset() {
    let mut state = 0x0123456789ABCDEFu64;
    for trial in 0..12 {
        let universe = 1u64 << (8 + (trial % 5) * 3); // 256 .. 1M
        let mut tree = VebTree::new(universe);
        let mut oracle: BTreeSet<u64> = BTreeSet::new();
        for round in 0..30 {
            let batch = random_sorted_batch(&mut state, universe, 400);
            if xorshift(&mut state).is_multiple_of(3) {
                tree.batch_delete(&batch);
                for k in &batch {
                    oracle.remove(k);
                }
            } else {
                tree.batch_insert(&batch);
                oracle.extend(batch.iter().copied());
            }
            assert_same(&tree, &oracle, &format!("trial {trial} round {round}"));
        }
    }
}

#[test]
fn random_mixed_single_and_batch_operations() {
    let mut state = 0xFEEDFACECAFEBEEFu64;
    let universe = 1u64 << 14;
    let mut tree = VebTree::new(universe);
    let mut oracle: BTreeSet<u64> = BTreeSet::new();
    for round in 0..200 {
        match xorshift(&mut state) % 4 {
            0 => {
                let batch = random_sorted_batch(&mut state, universe, 100);
                tree.batch_insert(&batch);
                oracle.extend(batch.iter().copied());
            }
            1 => {
                let batch = random_sorted_batch(&mut state, universe, 100);
                tree.batch_delete(&batch);
                for k in &batch {
                    oracle.remove(k);
                }
            }
            2 => {
                let k = xorshift(&mut state) % universe;
                assert_eq!(tree.insert(k), oracle.insert(k), "round {round}");
            }
            _ => {
                let k = xorshift(&mut state) % universe;
                assert_eq!(tree.delete(k), oracle.remove(&k), "round {round}");
            }
        }
        if round % 10 == 0 {
            assert_same(&tree, &oracle, &format!("round {round}"));
            // Spot-check pred/succ and range against the oracle.
            for _ in 0..20 {
                let q = xorshift(&mut state) % universe;
                assert_eq!(tree.pred(q), oracle.range(..q).next_back().copied());
                assert_eq!(tree.succ(q), oracle.range(q + 1..).next().copied());
            }
            let a = xorshift(&mut state) % universe;
            let b = xorshift(&mut state) % universe;
            let (lo, hi) = (a.min(b), a.max(b));
            let want: Vec<u64> = oracle.range(lo..=hi).copied().collect();
            assert_eq!(tree.range(lo, hi), want);
        }
    }
}

#[test]
fn batch_delete_dense_prefix_and_suffix() {
    // Deleting a dense prefix exercises repeated min-replacement; a dense
    // suffix exercises max-replacement.
    let universe = 1u64 << 12;
    let keys: Vec<u64> = (0..universe).collect();
    let mut v = VebTree::from_sorted(universe, &keys);
    let prefix: Vec<u64> = (0..universe / 2).collect();
    v.batch_delete(&prefix);
    assert_eq!(v.len() as u64, universe / 2);
    assert_eq!(v.min(), Some(universe / 2));
    let suffix: Vec<u64> = (universe * 3 / 4..universe).collect();
    v.batch_delete(&suffix);
    assert_eq!(v.min(), Some(universe / 2));
    assert_eq!(v.max(), Some(universe * 3 / 4 - 1));
    assert_eq!(v.len() as u64, universe / 4);
    assert_eq!(v.iter_keys(), (universe / 2..universe * 3 / 4).collect::<Vec<_>>());
}

#[test]
fn alternating_batches_interleave_correctly() {
    // Insert the evens in one batch, the odds in another, delete every
    // multiple of four, and check the survivors.
    let universe = 1u64 << 10;
    let mut v = VebTree::new(universe);
    let evens: Vec<u64> = (0..universe).step_by(2).collect();
    let odds: Vec<u64> = (1..universe).step_by(2).collect();
    v.batch_insert(&evens);
    v.batch_insert(&odds);
    assert_eq!(v.len() as u64, universe);
    let fours: Vec<u64> = (0..universe).step_by(4).collect();
    v.batch_delete(&fours);
    let want: Vec<u64> = (0..universe).filter(|k| k % 4 != 0).collect();
    assert_eq!(v.iter_keys(), want);
}

#[test]
fn delta_churn_large_universe_matches_btreeset() {
    // The usage shape of the streaming-LIS engine: a resident "tails" set
    // over a huge universe receives, every round, a batch_delete of
    // displaced keys followed by a batch_insert of their replacements.
    let mut state = 0x9E3779B97F4A7C15u64;
    let universe = 1u64 << 40;
    let mut tree = VebTree::new(universe);
    let mut oracle: BTreeSet<u64> = BTreeSet::new();
    let seedset = random_sorted_batch(&mut state, universe, 600);
    tree.batch_insert(&seedset);
    oracle.extend(seedset.iter().copied());
    for round in 0..40 {
        // Displace a random subset of the residents...
        let resident: Vec<u64> = oracle.iter().copied().collect();
        let removed: Vec<u64> =
            resident.iter().copied().filter(|_| xorshift(&mut state).is_multiple_of(3)).collect();
        tree.batch_delete(&removed);
        for k in &removed {
            oracle.remove(k);
        }
        // ...and replace them with fresh keys.
        let added = random_sorted_batch(&mut state, universe, removed.len().max(1));
        tree.batch_insert(&added);
        oracle.extend(added.iter().copied());
        assert_same(&tree, &oracle, &format!("churn round {round}"));
        // Predecessor/successor stay consistent at the far ends of the
        // universe, where high bits exercise the deep recursion levels.
        for probe in [0u64, 1, universe / 2, universe - 2, universe - 1] {
            assert_eq!(tree.pred(probe), oracle.range(..probe).next_back().copied());
            assert_eq!(tree.succ(probe), oracle.range(probe + 1..).next().copied());
        }
    }
}

/// `size` distinct keys of `[0, universe)`, sorted.
fn exact_sorted_batch(state: &mut u64, universe: u64, size: usize) -> Vec<u64> {
    let mut keys = BTreeSet::new();
    while keys.len() < size {
        keys.insert(xorshift(state) % universe);
    }
    keys.into_iter().collect()
}

/// `tree` and `reference` hold the same keys and answer `pred`/`succ` alike
/// at every probe.
fn assert_same_tree(tree: &VebTree, reference: &VebTree, probes: &[u64], context: &str) {
    assert_eq!(tree.len(), reference.len(), "{context}: length mismatch");
    assert_eq!(tree.iter_keys(), reference.iter_keys(), "{context}: key set mismatch");
    assert_eq!(tree.min(), reference.min(), "{context}: min mismatch");
    assert_eq!(tree.max(), reference.max(), "{context}: max mismatch");
    assert_eq!(tree.recount(), reference.recount(), "{context}: structural count mismatch");
    for &q in probes {
        assert_eq!(tree.pred(q), reference.pred(q), "{context}: pred({q})");
        assert_eq!(tree.succ(q), reference.succ(q), "{context}: succ({q})");
    }
}

#[test]
fn batches_around_the_cutoff_match_point_operations() {
    let c = POINT_OP_CUTOFF;
    let mut state = 0x5DEECE66D1234567u64;
    for universe in [1u64 << 12, 1 << 20, 1 << 32] {
        for size in [c - 1, c, c + 1, 2 * c, 3 * c + 7, 8 * c, 16 * c] {
            let context = format!("universe {universe}, batch {size}");
            // Bulk build against point inserts.
            let resident = exact_sorted_batch(&mut state, universe, size);
            let mut tree = VebTree::from_sorted(universe, &resident);
            let mut reference = VebTree::new(universe);
            for &k in &resident {
                reference.insert(k);
            }
            let mut probes = exact_sorted_batch(&mut state, universe, 32);
            probes.extend(resident.iter().step_by(7));
            assert_same_tree(&tree, &reference, &probes, &format!("{context}, from_sorted"));

            // A batch insert of `size` keys, a quarter of them resident.
            let mut batch: BTreeSet<u64> = resident.iter().copied().step_by(4).collect();
            while batch.len() < size {
                batch.insert(xorshift(&mut state) % universe);
            }
            let batch: Vec<u64> = batch.into_iter().collect();
            let fresh = batch.iter().filter(|&&k| reference.insert(k)).count();
            assert_eq!(tree.batch_insert(&batch), fresh, "{context}: inserted count");
            assert_same_tree(&tree, &reference, &probes, &format!("{context}, batch_insert"));

            // A batch delete of `size` keys, all present but the last few.
            let keys = tree.iter_keys();
            let mut batch: BTreeSet<u64> = BTreeSet::new();
            while batch.len() < size - 3 {
                batch.insert(keys[xorshift(&mut state) as usize % keys.len()]);
            }
            while batch.len() < size {
                batch.insert(xorshift(&mut state) % universe);
            }
            let batch: Vec<u64> = batch.into_iter().collect();
            let gone = batch.iter().filter(|&&k| reference.delete(k)).count();
            assert_eq!(tree.batch_delete(&batch), gone, "{context}: deleted count");
            assert_same_tree(&tree, &reference, &probes, &format!("{context}, batch_delete"));

            // Deleting every remaining key empties the tree.
            let rest = tree.iter_keys();
            assert_eq!(tree.batch_delete(&rest), rest.len(), "{context}: delete all");
            assert!(tree.is_empty(), "{context}: not empty after deleting all");
        }
    }
}

#[test]
fn dense_batches_reach_inner_clusters() {
    // A 2^28 universe splits 14/14 at the root and 7/7 one level down, so
    // the clusters two levels below the root are internal nodes over 128
    // keys.  Dense blocks give each of them far more than the cutoff.
    const LEVEL1: u64 = 1 << 14;
    const LEVEL2: u64 = 1 << 7;
    assert!(LEVEL2 as usize > POINT_OP_CUTOFF + 2);
    let universe = 1u64 << 28;
    let mut state = 0x0DDB1A5E5BAD5EEDu64;
    let mut tree = VebTree::new(universe);
    let mut oracle: BTreeSet<u64> = BTreeSet::new();
    let bases: Vec<u64> = (0..4).map(|i| (3 + 1000 * i) * LEVEL1).collect();
    let probes: Vec<u64> = bases
        .iter()
        .flat_map(|&b| (0..4 * LEVEL1).step_by(LEVEL2 as usize / 2).map(move |o| b + o))
        .chain([0, universe / 2, universe - 1])
        .collect();
    let check = |tree: &VebTree, oracle: &BTreeSet<u64>, context: &str| {
        assert_same(tree, oracle, context);
        for &q in &probes {
            assert_eq!(
                tree.pred(q),
                oracle.range(..q).next_back().copied(),
                "{context}: pred({q})"
            );
            assert_eq!(tree.succ(q), oracle.range(q + 1..).next().copied(), "{context}: succ({q})");
        }
    };

    // Three dense level-1 clusters per base, about 60% full, plus sparse
    // keys across the universe so the root summary also gets a batch.
    let mut dense = BTreeSet::new();
    for &base in &bases {
        for k in base..base + 3 * LEVEL1 {
            if xorshift(&mut state) % 10 < 6 {
                dense.insert(k);
            }
        }
    }
    dense.extend(exact_sorted_batch(&mut state, universe, 4 * POINT_OP_CUTOFF));
    let batch: Vec<u64> = dense.iter().copied().collect();
    assert_eq!(tree.batch_insert(&batch), batch.len());
    oracle.extend(batch.iter().copied());
    check(&tree, &oracle, "dense insert");

    // Delete whole level-2 clusters, a whole level-1 cluster, the min and
    // max of many level-2 and level-1 clusters, and the global min and max.
    let mut doomed = BTreeSet::new();
    let block = |oracle: &BTreeSet<u64>, lo: u64, len: u64| -> Vec<u64> {
        oracle.range(lo..lo + len).copied().collect()
    };
    for &base in &bases {
        for j in [0u64, 5, 6, 7, 40, 127] {
            doomed.extend(block(&oracle, base + j * LEVEL2, LEVEL2));
        }
        doomed.extend(block(&oracle, base + LEVEL1, LEVEL1));
        for j in (0..3 * LEVEL1 / LEVEL2).step_by(3) {
            let keys = block(&oracle, base + j * LEVEL2, LEVEL2);
            doomed.extend(keys.first().copied());
            doomed.extend(keys.last().copied());
        }
        for j in [0u64, 2] {
            let keys = block(&oracle, base + j * LEVEL1, LEVEL1);
            doomed.extend(keys.first().copied());
            doomed.extend(keys.last().copied());
        }
    }
    doomed.extend(oracle.first().copied());
    doomed.extend(oracle.last().copied());
    let batch: Vec<u64> = doomed.iter().copied().collect();
    assert_eq!(tree.batch_delete(&batch), batch.len());
    for k in &batch {
        oracle.remove(k);
    }
    check(&tree, &oracle, "dense delete");

    // Refill: new keys below and above the surviving cluster headers and
    // into the emptied clusters.
    let mut refill = BTreeSet::new();
    for &base in &bases {
        for k in base..base + 3 * LEVEL1 {
            if !oracle.contains(&k) && xorshift(&mut state) % 10 < 3 {
                refill.insert(k);
            }
        }
    }
    let batch: Vec<u64> = refill.iter().copied().collect();
    assert_eq!(tree.batch_insert(&batch), batch.len());
    oracle.extend(batch.iter().copied());
    check(&tree, &oracle, "dense refill");

    // Delete every key but one per level-1 cluster, then everything.
    let keep: BTreeSet<u64> =
        bases.iter().filter_map(|&b| block(&oracle, b + LEVEL1 / 2, LEVEL1).pop()).collect();
    let batch: Vec<u64> = oracle.iter().copied().filter(|k| !keep.contains(k)).collect();
    assert_eq!(tree.batch_delete(&batch), batch.len());
    oracle.retain(|k| keep.contains(k));
    check(&tree, &oracle, "delete all but a few");
    let batch: Vec<u64> = oracle.iter().copied().collect();
    tree.batch_delete(&batch);
    oracle.clear();
    check(&tree, &oracle, "delete all");
}

/// Keys in the root clusters `clusters` of a `2^universe_bits` universe,
/// `per_cluster` in each at the even low halves (the odd ones stay absent),
/// and the tree built from them by point inserts.
fn clustered(universe_bits: u32, clusters: &[u64], per_cluster: u64) -> (Vec<u64>, VebTree) {
    let lo_bits = universe_bits / 2;
    let keys: Vec<u64> = clusters
        .iter()
        .flat_map(|&h| (0..per_cluster).map(move |i| (h << lo_bits) + 2 * i))
        .collect();
    let mut reference = VebTree::new(1 << universe_bits);
    for &k in &keys {
        reference.insert(k);
    }
    (keys, reference)
}

/// Batch-delete `batch` from a bulk-built copy of `reference` and
/// point-delete it from `reference`: the counts and the resulting trees
/// must agree.
fn batch_delete_matches_points(reference: &mut VebTree, batch: &[u64], context: &str) {
    let mut tree = VebTree::from_sorted(reference.universe(), &reference.iter_keys());
    let mut probes = batch.to_vec();
    probes.extend(reference.iter_keys().iter().map(|k| k.saturating_sub(1)));
    let gone = batch.iter().filter(|&&k| reference.delete(k)).count();
    assert_eq!(tree.batch_delete(batch), gone, "{context}: deleted count");
    assert_same_tree(&tree, reference, &probes, context);
}

#[test]
fn batch_delete_skips_absent_keys_on_the_batch_path() {
    for bits in [12u32, 20, 32] {
        let lo_bits = bits / 2;
        let top = (1u64 << (bits - lo_bits)) - 1;
        let key = |h: u64, l: u64| (h << lo_bits) + l;
        // Six occupied clusters; the root's min and max are keys of
        // clusters 2 and `top - 2`.  From 2^20 on, cluster 3's share of the
        // batch below reaches the batch path too.
        let per = (1u64 << lo_bits).min(200) / 2;
        let (keys, mut reference) = clustered(bits, &[2, 3, 9, 10, top - 3, top - 2], per);
        // Present: every third key, and the root's min and max.
        let mut batch: BTreeSet<u64> = keys.iter().copied().step_by(3).collect();
        batch.insert(*keys.last().unwrap());
        let present = batch.len();
        // Absent: below min, above max, in clusters that do not exist, and
        // the odd low halves of two existing clusters.
        for h in [0, 1, 5, top / 2, top - 1, top] {
            batch.extend((0..8).map(|l| key(h, 3 * l)));
        }
        for h in [3, 10] {
            batch.extend((0..per).map(|i| key(h, 2 * i + 1)));
        }
        let batch: Vec<u64> = batch.into_iter().collect();
        assert!(present >= POINT_OP_CUTOFF, "2^{bits}: {present} present keys");
        batch_delete_matches_points(&mut reference, &batch, &format!("2^{bits}, half absent"));

        // A batch of absent keys only: nothing changes.
        let absent: Vec<u64> = (0..POINT_OP_CUTOFF as u64).map(|i| key(3, 2 * i + 1)).collect();
        batch_delete_matches_points(&mut reference, &absent, &format!("2^{bits}, all absent"));
    }
}

#[test]
fn batch_delete_refills_the_header_from_a_later_cluster() {
    for bits in [12u32, 20, 32] {
        let lo_bits = bits / 2;
        let top = (1u64 << (bits - lo_bits)) - 1;
        let key = |h: u64, l: u64| (h << lo_bits) + l;
        // The first and last clusters hold 32 keys each (the root's min and
        // max among them); clusters 3 and `top - 3` hold one key each.
        // Deleting the first and last clusters whole makes the refill of
        // min (max) pull that one key, which empties its cluster and
        // removes its summary entry.
        let (_, mut reference) = clustered(bits, &[1, 6, 7, top - 6, top - 1], 32);
        reference.insert(key(3, 5));
        reference.insert(key(top - 3, 5));
        let ends: Vec<u64> = reference
            .iter_keys()
            .into_iter()
            .filter(|&k| k >> lo_bits == 1 || k >> lo_bits == top - 1)
            .collect();
        assert!(ends.len() >= POINT_OP_CUTOFF);
        batch_delete_matches_points(&mut reference, &ends, &format!("2^{bits}, end clusters"));
        assert_eq!(reference.min(), Some(key(3, 5)));
        assert_eq!(reference.max(), Some(key(top - 3, 5)));

        // Every key but one: the refill of min takes the last cluster key,
        // the summary empties, and max falls back to the new min.
        let (_, mut reference) = clustered(bits, &[1, 6, top - 1], 32);
        reference.insert(key(3, 5));
        let doomed: Vec<u64> =
            reference.iter_keys().into_iter().filter(|&k| k != key(3, 5)).collect();
        batch_delete_matches_points(&mut reference, &doomed, &format!("2^{bits}, one survivor"));
        assert_eq!(reference.iter_keys(), vec![key(3, 5)]);

        // Every key but the max (then but the min): no cluster key is left
        // to pull, so the surviving header key fills both header slots.
        for keep_max in [true, false] {
            let (keys, mut reference) = clustered(bits, &[1, 6, top - 1], 32);
            let kept = if keep_max { keys[keys.len() - 1] } else { keys[0] };
            let doomed: Vec<u64> = keys.iter().copied().filter(|&k| k != kept).collect();
            let context = format!("2^{bits}, all but {kept}");
            batch_delete_matches_points(&mut reference, &doomed, &context);
            assert_eq!(reference.iter_keys(), vec![kept]);
        }
    }
}

/// Pool size for the parallel leg: `PLIS_BENCH_THREADS`, else 2.
fn pool_threads() -> usize {
    std::env::var("PLIS_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(2)
}

fn on_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
}

#[test]
fn batch_operations_agree_across_thread_counts() {
    let universe = 1u64 << 32;
    let mut state = 0x7F4A7C159E3779B9u64;
    let resident = exact_sorted_batch(&mut state, universe, 12 * GRAIN);
    let inserted = exact_sorted_batch(&mut state, universe, 10 * GRAIN);
    let mut probes = exact_sorted_batch(&mut state, universe, 256);
    probes.extend(resident.iter().step_by(97));
    // Ranges over the built tree holding GRAIN - 1 .. 2 GRAIN + 1 keys,
    // with bounds on keys and just inside the gaps next to them.
    let run = |threads: usize| {
        on_pool(threads, || {
            let built = VebTree::from_sorted(universe, &resident);
            let mut tree = built.clone();
            tree.batch_insert(&inserted);
            let keys = tree.iter_keys();
            let ranges: Vec<Vec<u64>> = [GRAIN - 1, GRAIN, GRAIN + 1, 2 * GRAIN + 1]
                .iter()
                .flat_map(|&n| {
                    let want = &keys[1000..1000 + n];
                    let on_keys = tree.range(want[0], want[n - 1]);
                    let in_gaps = tree.range(keys[999] + 1, keys[1000 + n] - 1);
                    assert_eq!(on_keys, want, "range of {n} keys, bounds on keys");
                    assert_eq!(in_gaps, want, "range of {n} keys, bounds in the gaps");
                    [on_keys, in_gaps]
                })
                .collect();
            let mut deleted = tree.clone();
            let doomed: Vec<u64> = keys.iter().copied().step_by(3).collect();
            assert_eq!(deleted.batch_delete(&doomed), doomed.len());
            (built, tree, deleted, ranges)
        })
    };
    let one = run(1);
    let many = run(pool_threads());
    let union: BTreeSet<u64> = resident.iter().chain(&inserted).copied().collect();
    assert_eq!(one.1.iter_keys(), union.into_iter().collect::<Vec<_>>());
    for (a, b, what) in [
        (&one.0, &many.0, "from_sorted"),
        (&one.1, &many.1, "batch_insert"),
        (&one.2, &many.2, "batch_delete"),
    ] {
        assert_same_tree(b, a, &probes, &format!("{what}, 1 vs {} threads", pool_threads()));
    }
    assert!(one.3 == many.3, "range differs across thread counts");
}
