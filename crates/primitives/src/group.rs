//! Grouping by small integer keys (parallel counting sort).
//!
//! Algorithm 2 needs the frontiers `F_1..k`: all indices grouped by their
//! rank.  Ranks lie in `1..=k`, so a counting sort achieves the `O(n)` work /
//! `O(log n + k)`-ish span grouping the paper calls for, instead of a full
//! comparison sort.

/// Histogram of key occurrences: `out[key]` = number of `i` with
/// `keys[i] == key`.  `num_keys` must be strictly greater than every key.
/// A plain sequential count; [`group_by_rank`] runs one per chunk of its
/// input, in parallel over the chunks.
pub fn histogram(keys: &[usize], num_keys: usize) -> Vec<usize> {
    let mut h = vec![0usize; num_keys];
    for &k in keys {
        assert!(k < num_keys, "key {k} out of range (num_keys = {num_keys})");
        h[k] += 1;
    }
    h
}

/// Group the indices `0..keys.len()` by key: returns `groups` where
/// `groups[key]` lists, in increasing order, every index `i` with
/// `keys[i] == key`.
///
/// This is how the WLIS driver turns the rank array produced by the LIS pass
/// into frontiers (`groups[r]` = indices of all objects with rank `r`).
///
/// The fill itself runs in parallel (a two-pass counting sort: per-chunk
/// histograms → per-(chunk, key) write cursors → disjoint scatter), so the
/// whole grouping keeps `O(n)` work and polylogarithmic span.  With one
/// chunk or a 1-thread pool it degrades to the plain sequential pass; the
/// output is identical either way because every chunk writes its indices in
/// increasing order at precomputed cursor positions.
pub fn group_by_rank(keys: &[usize], num_keys: usize) -> Vec<Vec<usize>> {
    use crate::par::par_map_collect_with_grain;
    use std::sync::atomic::{AtomicUsize, Ordering};

    if num_keys == 0 {
        assert!(keys.is_empty(), "non-empty keys with num_keys == 0");
        return Vec::new();
    }
    let n = keys.len();
    // Per-chunk histograms stay O(n) total because chunks are at least
    // num_keys/4 wide.
    let chunk = crate::par::GRAIN.max(num_keys / 4 + 1);
    let nchunks = n.div_ceil(chunk);
    if rayon::current_num_threads() <= 1 || nchunks <= 1 {
        let counts = histogram(keys, num_keys);
        let mut groups: Vec<Vec<usize>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (i, &k) in keys.iter().enumerate() {
            groups[k].push(i);
        }
        return groups;
    }

    // Pass 1: per-chunk histograms (each index is a coarse block ⇒ grain 1).
    let chunk_hists: Vec<Vec<usize>> = par_map_collect_with_grain(nchunks, 1, |c| {
        histogram(&keys[c * chunk..((c + 1) * chunk).min(n)], num_keys)
    });
    // Per-key totals, block offsets, and per-(key, chunk) write cursors.
    // Each key index costs O(nchunks) (and the final gather O(counts[k])),
    // i.e. far more than one element of an ordinary map — so use a small
    // explicit grain instead of the element-calibrated default floor, which
    // would serialize these stages whenever num_keys < 512.
    let key_grain = crate::par::adaptive_grain(num_keys, 64);
    let counts: Vec<usize> =
        par_map_collect_with_grain(num_keys, key_grain, |k| chunk_hists.iter().map(|h| h[k]).sum());
    let mut offsets = counts.clone();
    let total = crate::scan::scan_inplace(&mut offsets);
    debug_assert_eq!(total, n);
    let starts_by_key: Vec<Vec<usize>> = par_map_collect_with_grain(num_keys, key_grain, |k| {
        let mut run = offsets[k];
        chunk_hists
            .iter()
            .map(|h| {
                let s = run;
                run += h[k];
                s
            })
            .collect()
    });

    // Pass 2: scatter every index into its key's block.  Slots are disjoint
    // by construction; the atomics only provide shared writable storage.
    let flat: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    par_map_collect_with_grain(nchunks, 1, |c| {
        let base = c * chunk;
        let part = &keys[base..(base + chunk).min(n)];
        let mut cursors: Vec<usize> = (0..num_keys).map(|k| starts_by_key[k][c]).collect();
        for (i, &k) in part.iter().enumerate() {
            flat[cursors[k]].store(base + i, Ordering::Relaxed);
            cursors[k] += 1;
        }
    });

    // Slice the flat array back into one Vec per key.
    par_map_collect_with_grain(num_keys, key_grain, |k| {
        flat[offsets[k]..offsets[k] + counts[k]].iter().map(|s| s.load(Ordering::Relaxed)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_small() {
        let keys = vec![0, 1, 1, 2, 2, 2];
        assert_eq!(histogram(&keys, 4), vec![1, 2, 3, 0]);
    }

    #[test]
    fn histogram_empty() {
        assert_eq!(histogram(&[], 3), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn histogram_rejects_out_of_range() {
        histogram(&[5], 3);
    }

    #[test]
    fn histogram_large_matches_naive() {
        let n = 200_000usize;
        let num_keys = 97;
        let keys: Vec<usize> = (0..n).map(|i| (i * i + 3 * i) % num_keys).collect();
        let got = histogram(&keys, num_keys);
        let mut want = vec![0usize; num_keys];
        for &k in &keys {
            want[k] += 1;
        }
        assert_eq!(got, want);
    }

    #[test]
    fn group_by_rank_collects_sorted_indices() {
        let keys = vec![2, 0, 1, 0, 2, 2];
        let groups = group_by_rank(&keys, 3);
        assert_eq!(groups[0], vec![1, 3]);
        assert_eq!(groups[1], vec![2]);
        assert_eq!(groups[2], vec![0, 4, 5]);
    }

    #[test]
    fn group_by_rank_total_size_preserved() {
        let n = 50_000usize;
        let k = 513usize;
        let keys: Vec<usize> = (0..n).map(|i| (i * 7919) % k).collect();
        let groups = group_by_rank(&keys, k);
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), n);
        for (key, g) in groups.iter().enumerate() {
            assert!(g.windows(2).all(|w| w[0] < w[1]), "indices must be increasing");
            assert!(g.iter().all(|&i| keys[i] == key));
        }
    }

    #[test]
    fn group_by_rank_parallel_matches_sequential() {
        let n = 300_000usize;
        let k = 733usize;
        let keys: Vec<usize> = (0..n).map(|i| (i * 48271 + i / 7) % k).collect();
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| group_by_rank(&keys, k))
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq, par, "grouping must be identical for any thread count");
        assert_eq!(par.iter().map(Vec::len).sum::<usize>(), n);
    }

    #[test]
    fn group_by_rank_empty() {
        assert!(group_by_rank(&[], 0).is_empty());
        let g = group_by_rank(&[], 5);
        assert_eq!(g.len(), 5);
        assert!(g.iter().all(Vec::is_empty));
    }
}
