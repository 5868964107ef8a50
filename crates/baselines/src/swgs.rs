//! A reimplementation of the **SWGS** baseline (Shen, Wan, Gu, Sun,
//! SPAA 2022) in the form this paper characterises it (Section 2):
//! a phase-parallel algorithm that identifies each round's frontier with an
//! auxiliary search structure and a *wake-up scheme*, paying extra
//! logarithmic factors of work compared to Algorithm 1/2.
//!
//! # What is reproduced, and what is substituted
//!
//! The original SWGS uses a range tree for frontier identification plus a
//! randomized wake-up scheme in which every object is re-examined `O(log n)`
//! times w.h.p., for `O(n log³ n)` work w.h.p. and `Õ(k)` span.  This
//! reimplementation keeps the architecture — a segment tree over positions
//! for the readiness test, per-object *blocker registration* for the
//! wake-up scheme, and (for WLIS) a dominant-max range tree for the dp
//! computation — but uses a deterministic blocker choice (the rightmost
//! remaining smaller object before the candidate) instead of the randomized
//! sampling of the original.  Every readiness test and blocker lookup costs
//! `O(log n)`, every object is examined at least once per registration, and
//! the WLIS path pays the same `O(log² n)` per dominant-max query as SWGS,
//! so the implementation retains the qualitative property the paper's
//! comparison rests on: strictly more work per object than Algorithm 1,
//! with the same `Õ(k)`-style round structure.  The substitution is
//! recorded in `DESIGN.md`.

use plis_primitives::par::{maybe_join, par_map_collect, GRAIN};
use plis_rangetree::{Point2, RangeMaxTree, ScoreUpdate};

/// A segment tree over positions storing the current value of every
/// *remaining* object (removed objects hold `u64::MAX`), supporting the
/// prefix-min readiness test, the rightmost-smaller-blocker query, and
/// parallel batch removal.
struct SegMinTree {
    /// Contiguous-subtree layout, `2n − 1` slots.
    tree: Vec<u64>,
    n: usize,
}

impl SegMinTree {
    fn new(values: &[u64]) -> Self {
        let n = values.len();
        assert!(n > 0);
        let mut tree = vec![u64::MAX; 2 * n - 1];
        fn build(tree: &mut [u64], values: &[u64]) {
            let m = values.len();
            if m == 1 {
                tree[0] = values[0];
                return;
            }
            let half = m.div_ceil(2);
            let (root, rest) = tree.split_first_mut().expect("non-empty");
            let (l, r) = rest.split_at_mut(2 * half - 1);
            maybe_join(m, GRAIN, || build(l, &values[..half]), || build(r, &values[half..]));
            *root = l[0].min(r[0]);
        }
        build(&mut tree, values);
        SegMinTree { tree, n }
    }

    /// Minimum remaining value among positions `< i` (`u64::MAX` if none).
    fn prefix_min(&self, i: usize) -> u64 {
        fn go(tree: &[u64], m: usize, i: usize) -> u64 {
            if i == 0 {
                return u64::MAX;
            }
            if i >= m {
                return tree[0];
            }
            let half = m.div_ceil(2);
            let (left, right) = (&tree[1..2 * half], &tree[2 * half..]);
            if i <= half {
                go(left, half, i)
            } else {
                left[0].min(go(right, m - half, i - half))
            }
        }
        go(&self.tree, self.n, i)
    }

    /// Largest position `j < i` whose remaining value is `< x`, if any.
    fn rightmost_smaller_before(&self, i: usize, x: u64) -> Option<usize> {
        fn go(tree: &[u64], m: usize, base: usize, i: usize, x: u64) -> Option<usize> {
            if i == 0 || tree[0] >= x {
                return None;
            }
            if m == 1 {
                return Some(base);
            }
            let half = m.div_ceil(2);
            let (left, right) = (&tree[1..2 * half], &tree[2 * half..]);
            if i > half {
                // Prefer the right subtree (larger positions).
                if let Some(j) = go(right, m - half, base + half, i - half, x) {
                    return Some(j);
                }
            }
            go(left, half, base, i.min(half), x)
        }
        go(&self.tree, self.n, 0, i, x)
    }

    /// Remove the (sorted, distinct) positions: set them to `u64::MAX` and
    /// refresh the affected internal nodes, in parallel.
    fn batch_remove(&mut self, positions: &[usize]) {
        fn go(tree: &mut [u64], m: usize, base: usize, positions: &[usize]) {
            if positions.is_empty() {
                return;
            }
            if m == 1 {
                tree[0] = u64::MAX;
                return;
            }
            let half = m.div_ceil(2);
            let cut = positions.partition_point(|&p| p < base + half);
            let (pl, pr) = positions.split_at(cut);
            let (root, rest) = tree.split_first_mut().expect("non-empty");
            let (l, r) = rest.split_at_mut(2 * half - 1);
            maybe_join(
                positions.len(),
                GRAIN / 8,
                || go(l, half, base, pl),
                || go(r, m - half, base + half, pr),
            );
            *root = l[0].min(r[0]);
        }
        let tree = &mut self.tree[..];
        go(tree, self.n, 0, positions);
    }
}

/// Outcome of one candidate examination.
enum Verdict {
    Ready,
    Blocked(usize),
}

/// The SWGS-style phase-parallel LIS: returns the dp values and the LIS
/// length.  Values must be `< u64::MAX`.
pub fn swgs_lis(values: &[u64]) -> (Vec<u32>, u32) {
    run(values, None).0
}

/// The SWGS-style phase-parallel weighted LIS: returns the dp values.
pub fn swgs_wlis(values: &[u64], weights: &[u64]) -> Vec<u64> {
    assert_eq!(values.len(), weights.len(), "one weight per value is required");
    run(values, Some(weights)).1
}

/// Shared driver: computes LIS ranks, and weighted dp values when weights
/// are supplied.
fn run(values: &[u64], weights: Option<&[u64]>) -> ((Vec<u32>, u32), Vec<u64>) {
    let n = values.len();
    if n == 0 {
        return ((Vec::new(), 0), Vec::new());
    }
    assert!(values.iter().all(|&v| v < u64::MAX), "u64::MAX is reserved");
    let mut seg = SegMinTree::new(values);

    // Dominant-max structure for the weighted variant.
    let xranks = weights.map(|_| compress(values));
    let dominant = xranks.as_ref().map(|xr| {
        let pts: Vec<Point2> = (0..n).map(|i| Point2 { x: xr[i], y: i as u64 }).collect();
        RangeMaxTree::new(&pts)
    });

    let mut rank = vec![0u32; n];
    let mut dp = vec![0u64; n];
    // wake[j] = candidates to re-examine once object j is finalised.
    let mut wake: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut candidates: Vec<usize> = (0..n).collect();
    let mut remaining = n;
    let mut round = 0u32;

    while remaining > 0 {
        round += 1;
        assert!(
            !candidates.is_empty(),
            "the wake-up scheme must always supply candidates while objects remain"
        );
        // Examine all candidates in parallel: ready iff no remaining smaller
        // object precedes them (the prefix-min readiness test).
        let verdicts: Vec<Verdict> = par_map_collect(candidates.len(), |c| {
            let i = candidates[c];
            if seg.prefix_min(i) >= values[i] {
                Verdict::Ready
            } else {
                let blocker = seg
                    .rightmost_smaller_before(i, values[i])
                    .expect("a smaller remaining predecessor must exist when not ready");
                Verdict::Blocked(blocker)
            }
        });

        let mut ready: Vec<usize> = Vec::new();
        for (slot, &i) in verdicts.iter().zip(candidates.iter()) {
            match slot {
                Verdict::Ready => ready.push(i),
                Verdict::Blocked(b) => wake[*b].push(i),
            }
        }
        ready.sort_unstable();

        // Weighted dp values via dominant-max queries (all independent).
        if let (Some(structure), Some(xr), Some(w)) = (&dominant, &xranks, weights) {
            let updates: Vec<(usize, u64)> = par_map_collect(ready.len(), |r| {
                let i = ready[r];
                (i, structure.dominant_max(xr[i], i as u64) + w[i])
            });
            let score_updates: Vec<ScoreUpdate> = updates
                .iter()
                .map(|&(i, value)| ScoreUpdate {
                    point: Point2 { x: xr[i], y: i as u64 },
                    score: value,
                })
                .collect();
            structure.update_batch(&score_updates);
            for (i, value) in updates {
                dp[i] = value;
            }
        }

        for &i in &ready {
            rank[i] = round;
        }
        seg.batch_remove(&ready);
        remaining -= ready.len();

        // Wake the objects registered on this round's frontier.
        let mut next: Vec<usize> = Vec::new();
        for &i in &ready {
            next.append(&mut wake[i]);
        }
        candidates = next;
    }
    ((rank, round), dp)
}

/// Sequential coordinate compression (ties share ranks).
fn compress(values: &[u64]) -> Vec<u64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| values[i]);
    let mut ranks = vec![0u64; n];
    let mut current = 0u64;
    for w in 0..n {
        if w > 0 && values[order[w]] > values[order[w - 1]] {
            current += 1;
        }
        ranks[order[w]] = current;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{lis_dp_quadratic, wlis_dp_quadratic};

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn seg_min_tree_queries() {
        let v = [5u64, 3, 8, 1, 9];
        let mut t = SegMinTree::new(&v);
        assert_eq!(t.prefix_min(0), u64::MAX);
        assert_eq!(t.prefix_min(1), 5);
        assert_eq!(t.prefix_min(3), 3);
        assert_eq!(t.prefix_min(5), 1);
        assert_eq!(t.rightmost_smaller_before(4, 2), Some(3));
        assert_eq!(t.rightmost_smaller_before(3, 4), Some(1));
        assert_eq!(t.rightmost_smaller_before(1, 5), None);
        t.batch_remove(&[1, 3]);
        assert_eq!(t.prefix_min(5), 5);
        assert_eq!(t.rightmost_smaller_before(4, 6), Some(0));
    }

    #[test]
    fn paper_example() {
        let a = [52u64, 31, 45, 26, 61, 10, 39, 44];
        let (dp, k) = swgs_lis(&a);
        assert_eq!(dp, vec![1, 1, 2, 1, 3, 1, 2, 3]);
        assert_eq!(k, 3);
    }

    #[test]
    fn empty_and_monotone_inputs() {
        assert_eq!(swgs_lis(&[]), (vec![], 0));
        assert_eq!(swgs_lis(&[(1u64)]), (vec![1], 1));
        let inc: Vec<u64> = (0..300).collect();
        assert_eq!(swgs_lis(&inc).1, 300);
        let dec: Vec<u64> = (0..300).rev().collect();
        assert_eq!(swgs_lis(&dec).1, 1);
    }

    #[test]
    fn lis_matches_oracle_on_random_inputs() {
        let mut state = 0x7F4A7C159E3779B9u64;
        for trial in 0..10 {
            let n = 200 + trial * 80;
            let a: Vec<u64> = (0..n).map(|_| xorshift(&mut state) % 500).collect();
            let (dp, k) = swgs_lis(&a);
            let want = lis_dp_quadratic(&a);
            assert_eq!(dp, want, "trial {trial}");
            assert_eq!(k, *want.iter().max().unwrap());
        }
    }

    #[test]
    fn wlis_matches_oracle_on_random_inputs() {
        let mut state = 0x2545F4914F6CDD1Du64;
        // The last input has three distinct values, so each round's ready
        // set (over a thousand points) is written back in parallel chunks
        // on the 2-thread pool.
        let shapes = (0..8).map(|trial| (150 + trial * 60, 300)).chain([(4000, 3)]);
        for (trial, (n, distinct)) in shapes.enumerate() {
            let a: Vec<u64> = (0..n).map(|_| xorshift(&mut state) % distinct).collect();
            let w: Vec<u64> = (0..n).map(|_| 1 + xorshift(&mut state) % 40).collect();
            let want = wlis_dp_quadratic(&a, &w);
            for threads in [1, 2] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let got = pool.install(|| swgs_wlis(&a, &w));
                assert_eq!(got, want, "trial {trial}, {threads} thread(s)");
            }
        }
    }

    #[test]
    fn wlis_unit_weights_match_lis() {
        let a: Vec<u64> = vec![9, 2, 7, 4, 1, 8, 3, 6, 5];
        let w = vec![1u64; a.len()];
        let dp = swgs_wlis(&a, &w);
        let (ranks, _) = swgs_lis(&a);
        assert_eq!(dp, ranks.iter().map(|&r| r as u64).collect::<Vec<_>>());
    }
}
