//! Parallel batch insertion and deletion (Algorithms 4 and 5 of the paper).
//!
//! * [`VebTree::batch_insert`] inserts a sorted batch in `O(m log log U)`
//!   work and `O(log U)` span (Theorem 5.1).
//! * [`VebTree::batch_delete`] deletes a sorted batch in `O(m log log U)`
//!   work and `O(log U log log U)` span (Theorem 5.2).  The difficult part —
//!   restoring the `min`/`max` of every affected subtree without touching
//!   keys that are themselves being deleted — uses the paper's *survivor
//!   mappings* (Definition 5.1): for every batch key `x`, `P(x)` / `S(x)`
//!   are the nearest keys of the tree *not in the batch* on either side.
//!   They are computed once at the root with predecessor/successor queries
//!   plus a parallel prefix pass, and then translated for every cluster and
//!   for the summary (`SurvivorLow` / `SurvivorHigh`) as the recursion
//!   descends, with `SurvivorRedirect` patching them whenever a survivor is
//!   promoted into a node header.
//!
//! Both operations recurse into distinct clusters in parallel by splitting
//! the cluster slot vector with `split_at_mut`, so no locks are needed.
//!
//! Below [`POINT_OP_CUTOFF`] keys, a batch (at the root or at any node of
//! the recursion) is applied with the sequential point operations instead.
//! The result is the same tree: a vEB node's header, clusters and summary
//! are a function of its key set, not of the order the keys arrived in.
//! Each point operation is `O(log log U)`, so the work bounds still hold.

use crate::node::{high, low, split_bits, Internal, Node, LEAF_BITS};
use crate::tree::VebTree;
use plis_primitives::par::maybe_join;
use rayon::prelude::*;

/// Batches (and per-node sub-batches) smaller than this run as loops of
/// point operations.  On the `offline-lis` vEB job only the ~65,500-key
/// root batch reaches it; the root's clusters get 16 keys on average and
/// at most 33 on the seeds counted.  16, which sent about half of them
/// down the batch path, was slower; 64, 256 and 1024 all run every
/// cluster as point operations and measured alike (DESIGN.md,
/// "Granularity in the vEB family").
pub const POINT_OP_CUTOFF: usize = 64;
// The batch paths below rely on batches of three or more keys.
const _: () = assert!(POINT_OP_CUTOFF > 2);

impl VebTree {
    /// Build a tree directly from a sorted, duplicate-free slice of keys.
    /// `O(m log log U)` work, `O(log U)` span — equivalent to batch-inserting
    /// into an empty tree.
    ///
    /// # Panics
    /// Panics if the keys are not strictly increasing or fall outside the
    /// universe.
    pub fn from_sorted(universe: u64, keys: &[u64]) -> Self {
        let mut tree = VebTree::new(universe);
        if keys.is_empty() {
            return tree;
        }
        assert_sorted_unique(keys);
        tree.check(*keys.last().unwrap());
        tree.root = Some(from_sorted_node(tree.bits, keys));
        tree.len = keys.len();
        tree
    }

    /// `BatchInsert` (Algorithm 4).  `batch` must be sorted and
    /// duplicate-free; keys already present are skipped.  Returns the number
    /// of keys actually inserted.
    pub fn batch_insert(&mut self, batch: &[u64]) -> usize {
        if batch.is_empty() {
            return 0;
        }
        assert_sorted_unique(batch);
        self.check(*batch.last().unwrap());
        if batch.len() < POINT_OP_CUTOFF {
            return batch.iter().filter(|&&k| self.insert(k)).count();
        }
        // The paper assumes B ∩ V = ∅; enforce it by filtering (parallel
        // lookups, O(m log log U)).
        let fresh: Vec<u64> = match &self.root {
            None => batch.to_vec(),
            Some(root) => batch.par_iter().copied().filter(|&k| !root.contains(k)).collect(),
        };
        if fresh.is_empty() {
            return 0;
        }
        match &mut self.root {
            None => self.root = Some(from_sorted_node(self.bits, &fresh)),
            Some(root) => node_batch_insert(root, self.bits, fresh.clone()),
        }
        self.len += fresh.len();
        fresh.len()
    }

    /// `BatchDelete` (Algorithm 5).  `batch` must be sorted and
    /// duplicate-free; keys not present are skipped.  Returns the number of
    /// keys actually removed.
    pub fn batch_delete(&mut self, batch: &[u64]) -> usize {
        if batch.is_empty() || self.root.is_none() {
            return 0;
        }
        assert_sorted_unique(batch);
        self.check(*batch.last().unwrap());
        if batch.len() < POINT_OP_CUTOFF {
            return batch.iter().filter(|&&k| self.delete(k)).count();
        }
        let root = self.root.as_mut().expect("checked non-empty");
        let present: Vec<u64> = {
            let r = &*root;
            batch.par_iter().copied().filter(|&k| r.contains(k)).collect()
        };
        if present.is_empty() {
            return 0;
        }
        // Survivor mappings at the root (Definition 5.1): nearest keys on
        // either side of each batch element that are *not* being deleted.
        let (mut p, mut s) = survivor_maps(&*root, &present);
        let emptied = node_batch_delete(root, &present, &mut p, &mut s);
        if emptied {
            self.root = None;
        }
        self.len -= present.len();
        present.len()
    }
}

/// Panic unless `keys` is strictly increasing.
fn assert_sorted_unique(keys: &[u64]) {
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "batch must be sorted and duplicate-free");
}

/// Build a node directly from a sorted, duplicate-free, non-empty key slice.
fn from_sorted_node(bits: u32, keys: &[u64]) -> Node {
    debug_assert!(!keys.is_empty());
    if bits <= LEAF_BITS {
        let mut mask = 0u64;
        for &k in keys {
            mask |= 1u64 << k;
        }
        return Node::Leaf(mask);
    }
    if keys.len() < POINT_OP_CUTOFF {
        let mut node = Node::singleton(bits, keys[0]);
        for &k in &keys[1..] {
            node.insert(k);
        }
        return node;
    }
    let (hi_bits, lo_bits) = split_bits(bits);
    let min = keys[0];
    let max = *keys.last().unwrap();
    let mid = &keys[1..keys.len() - 1];
    let mut node = match crate::pool::take(bits) {
        Some(mut n) => {
            n.min = min;
            n.max = max;
            n
        }
        None => {
            Box::new(Internal { lo_bits, hi_bits, min, max, summary: None, clusters: Vec::new() })
        }
    };
    if node.clusters.is_empty() {
        node.clusters = (0..(1usize << hi_bits)).map(|_| None).collect();
    }
    let groups = group_by_high(mid, lo_bits);
    let hs: Vec<u64> = groups.iter().map(|g| g.0).collect();
    let clusters = &mut node.clusters;
    let (summary, ()) = maybe_join(
        mid.len(),
        plis_primitives::par::GRAIN,
        || Some(from_sorted_node(hi_bits, &hs)),
        || {
            par_for_groups(clusters, 0, &groups, &|slot, (_, lows)| {
                *slot = Some(from_sorted_node(lo_bits, lows));
            });
        },
    );
    node.summary = summary;
    Node::Internal(node)
}

/// Group a sorted slice of keys by their high halves.  Returns
/// `(h, lows)` pairs with `h` increasing and each `lows` sorted.
fn group_by_high(keys: &[u64], lo_bits: u32) -> Vec<(u64, Vec<u64>)> {
    let mut groups: Vec<(u64, Vec<u64>)> = Vec::new();
    for &k in keys {
        let h = high(k, lo_bits);
        let l = low(k, lo_bits);
        match groups.last_mut() {
            Some((gh, lows)) if *gh == h => lows.push(l),
            _ => groups.push((h, vec![l])),
        }
    }
    groups
}

/// Apply `f` to the cluster slot of every group, in parallel.  `groups` must
/// be sorted by their high half and `slots` is the cluster vector offset by
/// `base` (so `groups[i]` targets `slots[h_i - base]`).  Disjointness of the
/// slots lets us split with `split_at_mut` and hand the halves to rayon.
fn par_for_groups<G, F>(slots: &mut [Option<Node>], base: u64, groups: &[G], f: &F)
where
    G: GroupKey + Sync,
    F: Fn(&mut Option<Node>, &G) + Sync,
{
    match groups.len() {
        0 => {}
        1 => f(&mut slots[(groups[0].h() - base) as usize], &groups[0]),
        len => {
            let mid = len / 2;
            let split_h = groups[mid].h();
            let (gl, gr) = groups.split_at(mid);
            let (sl, sr) = slots.split_at_mut((split_h - base) as usize);
            maybe_join(
                len,
                8,
                || par_for_groups(sl, base, gl, f),
                || par_for_groups(sr, split_h, gr, f),
            );
        }
    }
}

/// Mutable variant of [`par_for_groups`], used by batch deletion where the
/// per-group state (the `emptied` flag) must be written back.
fn par_for_groups_mut<G, F>(slots: &mut [Option<Node>], base: u64, groups: &mut [G], f: &F)
where
    G: GroupKey + Send,
    F: Fn(&mut Option<Node>, &mut G) + Sync,
{
    match groups.len() {
        0 => {}
        1 => f(&mut slots[(groups[0].h() - base) as usize], &mut groups[0]),
        len => {
            let mid = len / 2;
            let split_h = groups[mid].h();
            let (gl, gr) = groups.split_at_mut(mid);
            let (sl, sr) = slots.split_at_mut((split_h - base) as usize);
            maybe_join(
                len,
                8,
                || par_for_groups_mut(sl, base, gl, f),
                || par_for_groups_mut(sr, split_h, gr, f),
            );
        }
    }
}

/// Anything that exposes the high half it targets (so the split helpers can
/// cut the cluster vector at the right place).
trait GroupKey {
    fn h(&self) -> u64;
}
impl GroupKey for (u64, Vec<u64>) {
    fn h(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Batch insertion (Algorithm 4)
// ---------------------------------------------------------------------------

/// Insert the sorted batch `b` (disjoint from the node's keys, non-empty)
/// into `node`, whose universe has `bits` bits.
fn node_batch_insert(node: &mut Node, bits: u32, b: Vec<u64>) {
    match node {
        Node::Leaf(mask) => {
            for k in b {
                *mask |= 1u64 << k;
            }
        }
        Node::Internal(_) if b.len() < POINT_OP_CUTOFF => {
            for k in b {
                node.insert(k);
            }
        }
        Node::Internal(n) => {
            debug_assert!(bits > LEAF_BITS);
            // Lines 2–5 of Alg. 4: fold the old header keys into the batch,
            // pick the new global min/max as the new header, and everything
            // in between must live in the clusters.
            let old_min = n.min;
            let old_max = n.max;
            let single = old_min == old_max;
            let mut merged: Vec<u64> = Vec::with_capacity(b.len() + 2);
            {
                // Merge `b` with the (at most two) displaced header keys.
                let headers: [u64; 2] = [old_min, old_max];
                let headers = if single { &headers[..1] } else { &headers[..] };
                let mut i = 0;
                let mut j = 0;
                while i < b.len() || j < headers.len() {
                    if j >= headers.len() || (i < b.len() && b[i] < headers[j]) {
                        merged.push(b[i]);
                        i += 1;
                    } else {
                        merged.push(headers[j]);
                        j += 1;
                    }
                }
            }
            n.min = merged[0];
            n.max = *merged.last().unwrap();
            let mid = &merged[1..merged.len() - 1];
            // Lines 6–16: group the remaining keys by high half, initialise
            // brand-new clusters, insert the rest recursively, and insert the
            // new high halves into the summary — clusters and summary in
            // parallel.
            if n.clusters.is_empty() {
                n.clusters = (0..(1usize << n.hi_bits)).map(|_| None).collect();
            }
            let groups = group_by_high(mid, n.lo_bits);
            let new_hs: Vec<u64> = groups
                .iter()
                .filter(|(h, _)| n.clusters[*h as usize].is_none())
                .map(|(h, _)| *h)
                .collect();
            let lo_bits = n.lo_bits;
            let hi_bits = n.hi_bits;
            let clusters = &mut n.clusters;
            let summary = &mut n.summary;
            let total = mid.len();
            maybe_join(
                total,
                plis_primitives::par::GRAIN,
                || {
                    if new_hs.is_empty() {
                        return;
                    }
                    match summary {
                        Some(sumr) => node_batch_insert(sumr, hi_bits, new_hs.clone()),
                        None => *summary = Some(from_sorted_node(hi_bits, &new_hs)),
                    }
                },
                || {
                    par_for_groups(clusters, 0, &groups, &|slot, (_, lows)| match slot {
                        Some(c) => node_batch_insert(c, lo_bits, lows.clone()),
                        None => *slot = Some(from_sorted_node(lo_bits, lows)),
                    });
                },
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Batch deletion (Algorithm 5)
// ---------------------------------------------------------------------------

/// Compute the survivor mappings `P`/`S` (Definition 5.1) of `batch`
/// with respect to the keys of `root`.  `None` plays the role of ±∞.
fn survivor_maps(root: &Node, batch: &[u64]) -> (Vec<Option<u64>>, Vec<Option<u64>>) {
    let m = batch.len();
    // Raw predecessor/successor queries, in parallel.  An entry is
    // *resolved* if the neighbour is not itself being deleted (or does not
    // exist at all, the genuine ±∞ case); it is *unresolved* if the
    // neighbour is a batch key, in which case it shares its survivor with
    // that neighbour — i.e. with the adjacent batch entry.
    #[derive(Clone, Copy)]
    struct Entry {
        value: Option<u64>,
        resolved: bool,
    }
    // `batch ⊆ root` and is sorted, so a neighbour that is a batch key is
    // the adjacent batch key: pred(batch[i]) >= batch[i - 1] and
    // succ(batch[i]) <= batch[i + 1].
    let raw = |neighbor: Option<u64>, adjacent: Option<u64>| -> Entry {
        match neighbor {
            Some(x) if Some(x) == adjacent => Entry { value: None, resolved: false },
            other => Entry { value: other, resolved: true },
        }
    };
    let p_raw: Vec<Entry> = (0..m)
        .into_par_iter()
        .map(|i| raw(root.pred(batch[i]), i.checked_sub(1).map(|j| batch[j])))
        .collect();
    let s_raw: Vec<Entry> = (0..m)
        .into_par_iter()
        .map(|i| raw(root.succ(batch[i]), batch.get(i + 1).copied()))
        .collect();
    // Propagate resolved values across unresolved runs with a prefix scan
    // (the paper's "compute prefix-max of P"): left-to-right for P,
    // right-to-left for S.  The first element's predecessor can never be in
    // the batch, so after the pass `None` genuinely means −∞ (dually +∞).
    let carry = |a: &Entry, b: &Entry| if b.resolved { *b } else { *a };
    let p_scanned =
        plis_primitives::inclusive_scan(&p_raw, Entry { value: None, resolved: false }, carry);
    let s_rev: Vec<Entry> = s_raw.iter().rev().copied().collect();
    let mut s_scanned =
        plis_primitives::inclusive_scan(&s_rev, Entry { value: None, resolved: false }, carry);
    s_scanned.reverse();
    let p = p_scanned.into_iter().map(|e| e.value).collect();
    let s = s_scanned.into_iter().map(|e| e.value).collect();
    (p, s)
}

/// One per-cluster slice of a deletion batch, together with its translated
/// survivor mappings and (after the recursion) whether the cluster emptied.
struct DelGroup {
    h: u64,
    lows: Vec<u64>,
    p: Vec<Option<u64>>,
    s: Vec<Option<u64>>,
    /// Index (into the parent batch) of the first / last key of this group —
    /// used by `SurvivorHigh` to build the summary's survivor maps.
    first_idx: usize,
    last_idx: usize,
    emptied: bool,
}
impl GroupKey for DelGroup {
    fn h(&self) -> u64 {
        self.h
    }
}

/// Delete the sorted batch `b ⊆ node` from `node`.  `p`/`s` are the survivor
/// mappings of `b` with respect to the node's key set (values are keys of
/// this node's universe; `None` = no survivor on that side *within this
/// node*).  Returns `true` if the node became empty.
fn node_batch_delete(
    node: &mut Node,
    b: &[u64],
    p: &mut [Option<u64>],
    s: &mut [Option<u64>],
) -> bool {
    debug_assert_eq!(b.len(), p.len());
    debug_assert_eq!(b.len(), s.len());
    match node {
        Node::Leaf(mask) => {
            for &k in b {
                *mask &= !(1u64 << k);
            }
            *mask == 0
        }
        // `b ⊆ node`, so only the last point delete can empty the node.
        Node::Internal(_) if b.len() < POINT_OP_CUTOFF => {
            b.iter().fold(false, |_, &k| node.delete(k).1)
        }
        Node::Internal(n) => internal_batch_delete(n, b, p, s),
    }
}

fn internal_batch_delete(
    n: &mut Internal,
    b: &[u64],
    p: &mut [Option<u64>],
    s: &mut [Option<u64>],
) -> bool {
    // `b ⊆ node` has at least `POINT_OP_CUTOFF` keys, so the node holds
    // more than one key and `b` more than its two header keys.
    let vmin = n.min;
    let vmax = n.max;
    let min_deleted = b[0] == vmin;
    let max_deleted = *b.last().unwrap() == vmax;

    // New header values after the deletion (Lines 5–14 of Alg. 5).
    let new_min = if min_deleted { s[0] } else { Some(vmin) };
    let Some(new_min) = new_min else {
        // The minimum is deleted and it has no survivor successor: nothing
        // survives, the whole subtree disappears.
        return true;
    };
    let new_max = if max_deleted {
        p[b.len() - 1].expect("a survivor exists, so the max has a survivor predecessor")
    } else {
        vmax
    };

    // Range of batch entries that refer to cluster keys (header keys are
    // handled directly and never recurse).
    let lo_trim = usize::from(min_deleted);
    let hi_trim = b.len() - usize::from(max_deleted);

    // Promote the survivor that replaces a deleted min (and symmetrically a
    // deleted max) out of the clusters and into the header, redirecting any
    // survivor-map entries that pointed at it (SurvivorRedirect).
    if min_deleted {
        if new_min != vmax {
            let (rp, rs) = survivor_neighbors(n, new_min, b, p, s);
            delete_from_clusters(n, new_min);
            redirect(&mut p[lo_trim..hi_trim], &mut s[lo_trim..hi_trim], new_min, rp, rs);
        }
        n.min = new_min;
    }
    if max_deleted {
        if new_max != n.min {
            let (rp, rs) = survivor_neighbors(n, new_max, b, p, s);
            delete_from_clusters(n, new_max);
            redirect(&mut p[lo_trim..hi_trim], &mut s[lo_trim..hi_trim], new_max, rp, rs);
            n.max = new_max;
        } else {
            n.max = n.min;
        }
    }

    let b_mid = &b[lo_trim..hi_trim];
    let p_mid = &p[lo_trim..hi_trim];
    let s_mid = &s[lo_trim..hi_trim];

    // SurvivorLow: translate the survivor maps into each cluster's universe.
    let cur_min = n.min;
    let cur_max = n.max;
    let lo_bits = n.lo_bits;
    let mut groups: Vec<DelGroup> = Vec::new();
    for (i, &x) in b_mid.iter().enumerate() {
        let h = high(x, lo_bits);
        let l = low(x, lo_bits);
        let pl = match p_mid[i] {
            Some(pp) if high(pp, lo_bits) == h && pp != cur_min => Some(low(pp, lo_bits)),
            _ => None,
        };
        let sl = match s_mid[i] {
            Some(ss) if high(ss, lo_bits) == h && ss != cur_max => Some(low(ss, lo_bits)),
            _ => None,
        };
        match groups.last_mut() {
            Some(g) if g.h == h => {
                g.lows.push(l);
                g.p.push(pl);
                g.s.push(sl);
                g.last_idx = i;
            }
            _ => groups.push(DelGroup {
                h,
                lows: vec![l],
                p: vec![pl],
                s: vec![sl],
                first_idx: i,
                last_idx: i,
                emptied: false,
            }),
        }
    }

    // Recurse into all affected clusters in parallel (Lines 18–20).
    par_for_groups_mut(&mut n.clusters, 0, &mut groups, &|slot, g| {
        let cluster = slot.as_mut().expect("batch keys must live in an existing cluster");
        let emptied = node_batch_delete(cluster, &g.lows, &mut g.p, &mut g.s);
        if emptied {
            crate::pool::recycle(slot.take());
            g.emptied = true;
        }
    });

    // SurvivorHigh + summary recursion (Lines 21–23): remove the high halves
    // of the clusters that just became empty from the summary.
    let emptied_groups: Vec<&DelGroup> = groups.iter().filter(|g| g.emptied).collect();
    if !emptied_groups.is_empty() {
        let hs: Vec<u64> = emptied_groups.iter().map(|g| g.h).collect();
        let mut ph: Vec<Option<u64>> = emptied_groups
            .iter()
            .map(|g| match p_mid[g.first_idx] {
                Some(pp) if pp != cur_min && pp != cur_max => Some(high(pp, lo_bits)),
                _ => None,
            })
            .collect();
        let mut sh: Vec<Option<u64>> = emptied_groups
            .iter()
            .map(|g| match s_mid[g.last_idx] {
                Some(ss) if ss != cur_min && ss != cur_max => Some(high(ss, lo_bits)),
                _ => None,
            })
            .collect();
        let summary = n.summary.as_mut().expect("non-empty clusters imply a summary");
        let summary_empty = node_batch_delete(summary, &hs, &mut ph, &mut sh);
        if summary_empty {
            n.summary = None;
        }
    }
    false
}

/// Find the survivor predecessor and successor of the key `y` (a survivor
/// about to be promoted into the header), expressed with respect to the
/// *current* structure and the batch `b` (Lines 24–31 of Alg. 5).
fn survivor_neighbors(
    n: &Internal,
    y: u64,
    b: &[u64],
    p: &[Option<u64>],
    s: &[Option<u64>],
) -> (Option<u64>, Option<u64>) {
    let mut rp = n.pred(y);
    if let Some(x) = rp {
        if let Ok(j) = b.binary_search(&x) {
            rp = p[j];
        }
    }
    let mut rs = n.succ(y);
    if let Some(x) = rs {
        if let Ok(j) = b.binary_search(&x) {
            rs = s[j];
        }
    }
    (rp, rs)
}

/// Redirect survivor-map entries equal to `y` to `rp`/`rs` (SurvivorRedirect,
/// Lines 28–30).
fn redirect(
    p: &mut [Option<u64>],
    s: &mut [Option<u64>],
    y: u64,
    rp: Option<u64>,
    rs: Option<u64>,
) {
    let m = p.len();
    for i in 0..m {
        if p[i] == Some(y) {
            p[i] = rp;
        }
        if s[i] == Some(y) {
            s[i] = rs;
        }
    }
}

/// Delete a key that lives in the clusters (never a header key) the
/// sequential way: remove it from its cluster and fix the summary if the
/// cluster empties (Line 9 of Alg. 5).
fn delete_from_clusters(n: &mut Internal, key: u64) {
    let h = high(key, n.lo_bits);
    let l = low(key, n.lo_bits);
    let slot = n.clusters[h as usize].as_mut().expect("key must live in a cluster");
    let (_present, emptied) = slot.delete(l);
    if emptied {
        n.clusters[h as usize] = None;
        if let Some(sumr) = &mut n.summary {
            let (_, sempty) = sumr.delete(h);
            if sempty {
                n.summary = None;
            }
        }
    }
}
