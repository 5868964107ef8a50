//! Thread-local recycling pool for emptied internal vEB nodes.
//!
//! The point operations of [`crate::node`] and the batch operations of
//! [`crate::batch`] create and drop boxed [`Internal`] nodes every time a
//! cluster gains its first key or loses its last one.  Under key churn
//! (insert one key, delete another, in a loop — or a batch delete followed
//! by a batch insert into the same clusters) that is a malloc/free pair
//! per cluster touched, and allocator churn that gets worse when many
//! threads share one heap.  Today's users are the Mono-vEB staircases
//! inside Range-vEB (Algorithm 2's `RangeVeb` store), whose small updates
//! run as point operations; the offline vEB batch jobs (`perfbench`'s
//! `offline-lis` and the `veb_scaling` binary); and `plis-engine`'s
//! `tail_probes` test oracle.  An `offline-lis` A/B
//! without the pool was inconclusive, so it stays.
//!
//! Instead of handing emptied nodes back to the allocator, every drop site
//! pushes them here and every creation site pops first.  The pool is
//! thread-local so the parallel batch algorithms (which recurse into
//! disjoint clusters from different rayon workers) can recycle without
//! locks; a node freed on one worker simply becomes available to the next
//! operation that worker performs.  Reuse changes no observable behaviour —
//! a popped node is re-initialised exactly like a fresh one, except that it
//! keeps its (all-`None`) cluster-slot vector, which is precisely the
//! allocation worth saving.
//!
//! Pools are keyed by the node's universe width in bits (the split into
//! `hi_bits`/`lo_bits` is a pure function of the width, so every node of a
//! class is interchangeable) and capped per class so a transient deletion
//! wave cannot pin unbounded memory: wide nodes carry a large slot vector,
//! so their class keeps only a handful.

use crate::node::Internal;
use std::cell::RefCell;

/// Retained nodes per class for narrow universes (slot vectors ≤ 2^8).
const CAP_NARROW: usize = 256;
/// Retained nodes per class for wide universes (slot vectors up to 2^16
/// slots, 1 MiB each at the 32-bit root split).
const CAP_WIDE: usize = 4;
/// Widths above this use [`CAP_WIDE`].
const NARROW_BITS: u32 = 16;

struct Pool {
    /// `(width_bits, nodes)` — a handful of distinct widths per process
    /// (one per recursion level actually used), so linear scan beats a map.
    /// The `Box` IS the recycled allocation, so `Vec<Box<_>>` is the point.
    #[allow(clippy::vec_box)]
    classes: Vec<(u32, Vec<Box<Internal>>)>,
}

thread_local! {
    static POOL: RefCell<Pool> = const { RefCell::new(Pool { classes: Vec::new() }) };
}

/// Pop a recycled node of universe width `bits`, if one is pooled on this
/// thread.  The caller must re-initialise `min`/`max`; `summary` is `None`
/// and every cluster slot is `None` (capacity retained) by construction.
pub(crate) fn take(bits: u32) -> Option<Box<Internal>> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.classes.iter_mut().find(|(b, _)| *b == bits).and_then(|(_, nodes)| nodes.pop())
    })
}

/// Recycle an emptied internal node.  Point and batch deletions both hand
/// over a *clean* node (summary `None`, every cluster slot `None` — the vEB
/// single-key invariant): batch deletion empties a node only after its
/// clusters and summary have emptied and been recycled themselves.
/// Dropped instead of pooled once the class cap is reached.
pub(crate) fn put(node: Box<Internal>) {
    debug_assert!(
        node.summary.is_none() && node.clusters.iter().all(Option::is_none),
        "only clean nodes are recycled"
    );
    let bits = node.hi_bits + node.lo_bits;
    let cap = if bits <= NARROW_BITS { CAP_NARROW } else { CAP_WIDE };
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        match p.classes.iter_mut().find(|(b, _)| *b == bits) {
            Some((_, nodes)) => {
                if nodes.len() < cap {
                    nodes.push(node);
                }
            }
            None => p.classes.push((bits, vec![node])),
        }
    });
}

/// Recycle the internal node inside a just-emptied cluster slot, if any
/// (leaves live inline in the slot and carry no heap).  Inlined: most
/// emptied slots hold leaves, for which this is a no-op.
#[inline]
pub(crate) fn recycle(slot: Option<crate::node::Node>) {
    if let Some(crate::node::Node::Internal(node)) = slot {
        put(node);
    }
}

#[cfg(test)]
mod tests {
    use crate::VebTree;

    #[test]
    fn churned_nodes_are_reused_not_reallocated() {
        // Alternate creating and destroying the same cluster: after the
        // first cycle the pool serves every subsequent creation, which we
        // can only observe indirectly — behaviour must be identical.
        let mut v = VebTree::new(1 << 20);
        v.insert(3);
        v.insert(1 << 19);
        for _ in 0..1000 {
            // 4096 lands in a cluster of its own; inserting and deleting it
            // churns that cluster's internal node.
            assert!(v.insert(4096));
            assert!(v.insert(4097));
            assert!(v.delete(4096));
            assert!(v.delete(4097));
        }
        assert_eq!(v.len(), 2);
        assert_eq!(v.iter_keys(), vec![3, 1 << 19]);
    }

    #[test]
    fn pooled_reuse_survives_batch_ops() {
        let mut v = VebTree::new(1 << 16);
        let keys: Vec<u64> = (0..256u64).map(|i| i * 251 % (1 << 16)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        for _ in 0..50 {
            v.batch_insert(&sorted);
            assert_eq!(v.len(), sorted.len());
            v.batch_delete(&sorted);
            assert!(v.is_empty());
        }
    }
}
