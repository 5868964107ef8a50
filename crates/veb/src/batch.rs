//! Parallel batch insertion and deletion (Algorithms 4 and 5 of the paper),
//! both run bottom-up.
//!
//! * [`VebTree::batch_delete`] deletes a sorted batch in `O(m log log U)`
//!   work (Theorem 5.2).  A node trims the batch to its `[min, max]`,
//!   deletes the keys between its header keys from the clusters in
//!   parallel, batch-deletes the clusters that emptied from the summary,
//!   and only then refills a deleted `min` (`max`) with one pull from the
//!   first (last) cluster left.  By then every batch key is gone, so the
//!   pulled key is a survivor.  The paper finds that survivor before it
//!   recurses, through survivor mappings (Definition 5.1) built with `2m`
//!   predecessor/successor queries at the root and translated at every
//!   node; the bottom-up order needs none of that.
//! * [`VebTree::batch_insert`] inserts a sorted batch in `O(m log log U)`
//!   work (Theorem 5.1).  A node pushes its two header keys down into the
//!   clusters, inserts the batch into the clusters (and the high halves of
//!   brand-new clusters into the summary) in parallel, and then pulls the
//!   new `min` and `max` back up.
//!
//! Every call returns how many keys it inserted or deleted, so keys
//! already present (absent) need no membership filter at the root: a leaf
//! counts them with a popcount, and a point operation reports them.
//!
//! Why Theorems 5.1 and 5.2 still hold: the clusters and the summary of a
//! node get the same batches as in the paper's top-down order, except that
//! an insertion's new header keys pass through the clusters on their way
//! up.  The extra work per node is at most two pushes and two pulls, each
//! one point operation of `O(log log U)`, like the paper's own point
//! deletions of the promoted survivors (Line 9 of Alg. 5).  A node takes the batch path only with at
//! least [`POINT_OP_CUTOFF`] keys, so they add `O(1)` work per batch key
//! at that node (`log log U` is at most 6 for 64-bit keys).  A key that is
//! absent from a deletion (present at an insertion) stops at the first node
//! whose range or clusters exclude it, or at a leaf or point operation,
//! after `O(1)` work per level.
//!
//! A batch goes down the tree as slices of the caller's batch: a node reads
//! its keys as the low bits of the keys it is handed ([`key_mask`]), so no
//! node copies its batch.  A node groups its slice by high half with one
//! sequential pass, into one [`Span`] per cluster, and recurses into
//! distinct clusters in parallel by splitting the cluster slot vector with
//! `split_at_mut`, so no locks are needed.  A fork needs at least `GRAIN`
//! keys on the spans being split, so each fork has thousands of keys'
//! worth of work to amortise (ParlayLib-style granularity control).
//!
//! Below [`POINT_OP_CUTOFF`] keys, a batch (at the root or at any node of
//! the recursion) is applied with the sequential point operations instead.
//! The result is the same tree: a vEB node's header, clusters and summary
//! are a function of its key set, not of the order the keys arrived in.
//! Each point operation is `O(log log U)`, so the work bounds still hold.

use crate::node::{high, Internal, Node, LEAF_BITS};
use crate::tree::VebTree;
use plis_primitives::par::{maybe_join, GRAIN};

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
    /// `O(m log log U)` work — equivalent to batch-inserting into an empty
    /// tree.
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

    /// `BatchInsert` (Algorithm 4, bottom-up).  `batch` must be sorted and
    /// duplicate-free; keys already present are skipped.  Returns the
    /// number of keys actually inserted.
    pub fn batch_insert(&mut self, batch: &[u64]) -> usize {
        if batch.is_empty() {
            return 0;
        }
        assert_sorted_unique(batch);
        self.check(*batch.last().unwrap());
        let inserted = match &mut self.root {
            Some(root) => node_batch_insert(root, self.bits, batch),
            None => {
                self.root = Some(from_sorted_node(self.bits, batch));
                batch.len()
            }
        };
        self.len += inserted;
        inserted
    }

    /// `BatchDelete` (Algorithm 5, bottom-up).  `batch` must be sorted and
    /// duplicate-free; keys not present are skipped.  Returns the number of
    /// keys actually removed.
    pub fn batch_delete(&mut self, batch: &[u64]) -> usize {
        if batch.is_empty() || self.root.is_none() {
            return 0;
        }
        assert_sorted_unique(batch);
        self.check(*batch.last().unwrap());
        let root = self.root.as_mut().expect("checked non-empty");
        let (deleted, emptied) = node_batch_delete(root, self.bits, batch);
        if emptied {
            crate::pool::recycle(self.root.take());
        }
        self.len -= deleted;
        deleted
    }
}

/// Panic unless `keys` is strictly increasing.
fn assert_sorted_unique(keys: &[u64]) {
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "batch must be sorted and duplicate-free");
}

/// The low `bits` bits.  A node over a `bits`-bit universe reads its keys
/// as the low `bits` bits of the batch keys it is handed: the keys of one
/// call agree on every bit above those, so masking keeps them sorted, and
/// a batch goes down the tree as slices of the caller's batch.
fn key_mask(bits: u32) -> u64 {
    u64::MAX >> (64 - bits)
}

/// The keys of one cluster within a node's batch: `batch[start..end]`, all
/// with high half `h`.
struct Span {
    h: u64,
    start: usize,
    end: usize,
}

/// Group the sorted `keys` of a batch for node `n` by high half: one
/// [`Span`] per cluster, in increasing order of `h`.
fn group_by_high(keys: &[u64], n: &Internal) -> Vec<Span> {
    let mask = key_mask(n.hi_bits + n.lo_bits);
    let mut spans: Vec<Span> = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        let h = high(k & mask, n.lo_bits);
        match spans.last_mut() {
            Some(s) if s.h == h => s.end = i + 1,
            _ => spans.push(Span { h, start: i, end: i + 1 }),
        }
    }
    spans
}

/// Apply `f` to the cluster slot of every span, in parallel, and return its
/// results in span order.  `slots` is the node's cluster vector.  A fork
/// splits the spans at their middle key and needs at least `GRAIN` keys
/// on the spans being split; the disjoint slot ranges go to the two sides
/// with `split_at_mut`.
fn par_spans<R, F>(slots: &mut [Option<Node>], spans: &[Span], f: F) -> Vec<R>
where
    R: Clone + Default + Send,
    F: Fn(&mut Option<Node>, &Span) -> R + Sync,
{
    fn go<R: Send, F: Fn(&mut Option<Node>, &Span) -> R + Sync>(
        slots: &mut [Option<Node>],
        base: u64,
        spans: &[Span],
        out: &mut [R],
        f: &F,
    ) {
        let keys = spans.last().map_or(0, |s| s.end) - spans.first().map_or(0, |s| s.start);
        if spans.len() < 2 || keys < GRAIN {
            for (s, o) in spans.iter().zip(out) {
                *o = f(&mut slots[(s.h - base) as usize], s);
            }
            return;
        }
        let half = spans[0].start + keys / 2;
        let mid = spans.partition_point(|s| s.end <= half).clamp(1, spans.len() - 1);
        let split_h = spans[mid].h;
        let (sl, sr) = slots.split_at_mut((split_h - base) as usize);
        let (gl, gr) = spans.split_at(mid);
        let (ol, or) = out.split_at_mut(mid);
        rayon::join(|| go(sl, base, gl, ol, f), || go(sr, split_h, gr, or, f));
    }
    let mut out = vec![R::default(); spans.len()];
    go(slots, 0, spans, &mut out, &f);
    out
}

/// Build a node over a `bits`-bit universe from a sorted, duplicate-free,
/// non-empty slice of keys (read through [`key_mask`]).
fn from_sorted_node(bits: u32, keys: &[u64]) -> Node {
    debug_assert!(!keys.is_empty());
    let mask = key_mask(bits);
    if bits <= LEAF_BITS {
        return Node::Leaf(keys.iter().fold(0, |leaf, &k| leaf | 1u64 << (k & mask)));
    }
    if keys.len() < POINT_OP_CUTOFF {
        let mut node = Node::singleton(bits, keys[0] & mask);
        for &k in &keys[1..] {
            node.insert(k & mask);
        }
        return node;
    }
    let mut node = Internal::with_header(bits, keys[0] & mask, keys[keys.len() - 1] & mask);
    node.ensure_clusters();
    let inner = &keys[1..keys.len() - 1];
    let spans = group_by_high(inner, &node);
    let hs: Vec<u64> = spans.iter().map(|s| s.h).collect();
    let (hi_bits, lo_bits) = (node.hi_bits, node.lo_bits);
    let clusters = &mut node.clusters;
    let (summary, _) = maybe_join(
        inner.len(),
        GRAIN,
        || from_sorted_node(hi_bits, &hs),
        || {
            par_spans(clusters, &spans, |slot, s| {
                *slot = Some(from_sorted_node(lo_bits, &inner[s.start..s.end]));
            })
        },
    );
    node.summary = Some(summary);
    Node::Internal(node)
}

// ---------------------------------------------------------------------------
// Batch insertion (Algorithm 4)
// ---------------------------------------------------------------------------

/// Insert the keys of the sorted batch `b` (read through [`key_mask`]) into
/// `node`, a node over a `bits`-bit universe, skipping present ones.
/// Returns how many keys were inserted.
fn node_batch_insert(node: &mut Node, bits: u32, b: &[u64]) -> usize {
    let mask = key_mask(bits);
    match node {
        Node::Leaf(leaf) => {
            let fresh = b.iter().fold(0, |m, &k| m | 1u64 << (k & mask)) & !*leaf;
            *leaf |= fresh;
            fresh.count_ones() as usize
        }
        Node::Internal(n) if b.len() < POINT_OP_CUTOFF => {
            b.iter().filter(|&&k| n.insert(k & mask)).count()
        }
        Node::Internal(n) => internal_batch_insert(n, b),
    }
}

/// The batch path of [`node_batch_insert`]: `b` holds at least
/// [`POINT_OP_CUTOFF`] keys.
fn internal_batch_insert(n: &mut Internal, b: &[u64]) -> usize {
    // Lines 2–5 of Alg. 4: the old header keys join the batch.  Here they
    // are pushed down into the clusters, the batch follows them, and the
    // new min and max are pulled back up afterwards.
    let (min, max) = (n.min, n.max);
    n.cluster_insert(min);
    if max != min {
        n.cluster_insert(max);
    }
    // Lines 6–16: initialise brand-new clusters, insert the rest
    // recursively, and insert the new high halves into the summary,
    // clusters and summary in parallel.
    let spans = group_by_high(b, n);
    let new_hs: Vec<u64> =
        spans.iter().map(|s| s.h).filter(|&h| n.clusters[h as usize].is_none()).collect();
    let (hi_bits, lo_bits) = (n.hi_bits, n.lo_bits);
    let Internal { summary, clusters, .. } = n;
    let (_, inserted) = maybe_join(
        b.len(),
        GRAIN,
        || match summary {
            _ if new_hs.is_empty() => {}
            Some(s) => {
                node_batch_insert(s, hi_bits, &new_hs);
            }
            None => *summary = Some(from_sorted_node(hi_bits, &new_hs)),
        },
        || {
            par_spans(clusters, &spans, |slot, s| {
                let keys = &b[s.start..s.end];
                match slot {
                    Some(c) => node_batch_insert(c, lo_bits, keys),
                    None => {
                        *slot = Some(from_sorted_node(lo_bits, keys));
                        keys.len()
                    }
                }
            })
        },
    );
    // The clusters hold at least POINT_OP_CUTOFF keys, so both pulls take
    // a cluster key.
    n.pull_min();
    n.pull_max();
    inserted.iter().sum()
}

// ---------------------------------------------------------------------------
// Batch deletion (Algorithm 5)
// ---------------------------------------------------------------------------

/// Delete the keys of the sorted batch `b` (read through [`key_mask`]) from
/// `node`, a node over a `bits`-bit universe, skipping absent ones.
/// Returns how many keys were deleted and whether the node is now empty,
/// in which case the caller must drop it.
fn node_batch_delete(node: &mut Node, bits: u32, b: &[u64]) -> (usize, bool) {
    let mask = key_mask(bits);
    match node {
        Node::Leaf(leaf) => {
            let gone = *leaf & b.iter().fold(0, |m, &k| m | 1u64 << (k & mask));
            *leaf &= !gone;
            (gone.count_ones() as usize, *leaf == 0)
        }
        Node::Internal(n) => {
            let mut b = b;
            if b.len() >= POINT_OP_CUTOFF {
                // Only keys in [min, max] can be present.
                let lo = b.partition_point(|&k| k & mask < n.min);
                let hi = b.partition_point(|&k| k & mask <= n.max);
                b = &b[lo..hi];
                if b.len() >= POINT_OP_CUTOFF {
                    return internal_batch_delete(n, b);
                }
            }
            let (mut deleted, mut emptied) = (0, false);
            for &k in b {
                let (present, empty) = n.delete(k & mask);
                deleted += usize::from(present);
                emptied |= empty;
            }
            (deleted, emptied)
        }
    }
}

/// The batch path of [`node_batch_delete`]: `b` lies within `[n.min, n.max]`
/// and holds at least [`POINT_OP_CUTOFF`] keys, so `n` holds two or more.
fn internal_batch_delete(n: &mut Internal, b: &[u64]) -> (usize, bool) {
    let mask = key_mask(n.hi_bits + n.lo_bits);
    let min_deleted = b[0] & mask == n.min;
    let max_deleted = b[b.len() - 1] & mask == n.max;
    let mut deleted = usize::from(min_deleted) + usize::from(max_deleted);
    // Lines 18–20 of Alg. 5: the keys between the header keys leave their
    // clusters, all clusters in parallel.
    if n.summary.is_some() {
        let inner = &b[usize::from(min_deleted)..b.len() - usize::from(max_deleted)];
        let spans = group_by_high(inner, n);
        let lo_bits = n.lo_bits;
        let results = par_spans(&mut n.clusters, &spans, |slot, s| {
            let Some(cluster) = slot else { return (0, false) };
            let (deleted, emptied) = node_batch_delete(cluster, lo_bits, &inner[s.start..s.end]);
            if emptied {
                crate::pool::recycle(slot.take());
            }
            (deleted, emptied)
        });
        deleted += results.iter().map(|r| r.0).sum::<usize>();
        // Lines 21–23: the clusters that emptied leave the summary.
        let emptied: Vec<u64> =
            spans.iter().zip(&results).filter(|(_, r)| r.1).map(|(s, _)| s.h).collect();
        if !emptied.is_empty() {
            let summary = n.summary.as_mut().expect("non-empty clusters imply a summary");
            if node_batch_delete(summary, n.hi_bits, &emptied).1 {
                crate::pool::recycle(n.summary.take());
            }
        }
    }
    // Lines 5–14: refill a deleted header key from the clusters, which now
    // hold only survivors.
    if min_deleted && max_deleted && n.summary.is_none() {
        return (deleted, true);
    }
    if min_deleted {
        n.pull_min();
    }
    if max_deleted {
        n.pull_max();
    }
    (deleted, false)
}
