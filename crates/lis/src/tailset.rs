//! The *tail set* abstraction: a value-domain mirror of the patience tails
//! array, factored behind a trait so streaming sessions are generic over
//! the mirror structure instead of hard-coding an enum of backends.
//!
//! A streaming-LIS session owns the canonical `tails` array (`tails[r]` =
//! smallest value ending an increasing subsequence of length `r + 1`,
//! strictly increasing).  A [`TailSet`] mirrors that set in the *value*
//! domain so predecessor/successor probes don't have to binary-search the
//! rank domain:
//!
//! * [`VebTailSet`] maintains a [`VebTree`] over the session universe and
//!   applies every ingest's tail-set delta with the paper's parallel
//!   `batch_insert` / `batch_delete` (Theorems 5.1/5.2); probes cost
//!   `O(log log U)`.
//! * [`SortedVecTailSet`] keeps no extra state at all and answers probes by
//!   binary search over the `tails` array itself — the right choice for
//!   small universes where the vEB constant factors dominate.  This is why
//!   every query method receives the current `tails` slice: a stateless
//!   backend answers from it, a stateful one ignores it.
//! * [`AnyTailSet`] is the closed enum-dispatch combination of the two —
//!   the zero-cost factory behind the engine's `Backend` selector — while
//!   the trait itself stays open: a new mirror structure plugs into
//!   `StreamingLisOn` by implementing [`TailSet`] in its own file.
//!
//! A mirror is derived state.  Session snapshots persist only the ingested
//! stream and restore rebuilds every mirror through ordinary ingest, so the
//! trait has no export or import surface.

use plis_veb::VebTree;

/// Which concrete structure serves a tail-set delta: the value recorded on
/// ingest reports and counted by the engine's telemetry plane.  Fixed
/// backends always report their own kind; [`AutoTailSet`] switches between
/// the two per parallel ingest under the engine's cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailRoute {
    /// A vEB mirror applies the delta and serves probes in `O(log log U)`.
    Veb,
    /// No mirror: the delta is a no-op and probes binary-search `tails`.
    SortedVec,
}

impl TailRoute {
    /// Stable lowercase name (report / bench column vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            TailRoute::Veb => "veb",
            TailRoute::SortedVec => "sorted-vec",
        }
    }
}

/// Value-domain mirror of a strictly increasing tail array.
///
/// Mutations (`insert`/`delete`/`batch_insert`/`batch_delete`) keep the
/// mirror in sync with the tail-set delta of an ingest; queries receive the
/// canonical `tails` slice so stateless implementations can answer from it.
/// `check_invariants` is the hook the oracle test layers call to cross-check
/// mirror-vs-tails consistency after every batch.
pub trait TailSet: std::fmt::Debug + Clone {
    /// Short human-readable name used by reports and benchmarks.
    fn name(&self) -> &'static str;
    /// Mirror a single tail insertion.
    fn insert(&mut self, key: u64);
    /// Mirror a single tail removal.
    fn delete(&mut self, key: u64);
    /// Mirror a sorted batch of insertions (the added side of a delta).
    fn batch_insert(&mut self, keys: &[u64]);
    /// Mirror a sorted batch of removals (the removed side of a delta).
    fn batch_delete(&mut self, keys: &[u64]);
    /// Largest tail value strictly below `x`, if any.
    fn pred(&self, tails: &[u64], x: u64) -> Option<u64>;
    /// Smallest tail value at or above `x`, if any.  Probes at or beyond
    /// the universe return `None` (all tails are inside the universe).
    fn succ(&self, tails: &[u64], x: u64) -> Option<u64>;
    /// Number of mirrored tails.
    fn len(&self, tails: &[u64]) -> usize;
    /// The mirrored keys in increasing order.
    fn collect_keys(&self, tails: &[u64]) -> Vec<u64>;
    /// Assert every internal invariant against the canonical tails.
    fn check_invariants(&self, tails: &[u64]);
    /// Rough heap footprint of the mirror structure in bytes (0 for
    /// stateless backends, which answer from the canonical `tails` the
    /// session already accounts for).  Used by the engine's per-session
    /// memory accounting; `O(structure)` — call at snapshot time, not per
    /// op.
    fn approx_bytes(&self) -> usize {
        0
    }
    /// Route selection hook, called once per *parallel* ingest before the
    /// delta is applied.  `route` is the cost model's pick and `tails` is
    /// the canonical array the mirror must represent if it switches
    /// structure.  Fixed backends ignore the hint; [`AutoTailSet`] builds
    /// or drops its vEB mirror here.  Returns the route actually in effect
    /// for the coming delta (what the ingest report records).
    fn route_parallel(&mut self, route: Option<TailRoute>, tails: &[u64]) -> TailRoute;
    /// Whether this store actually consults the cost model's route hint.
    /// Fixed backends return `false`, which lets sessions skip computing
    /// the hint entirely — load-bearing during cost calibration, which
    /// drives fixed-backend sessions from *inside* the model's one-time
    /// initialisation (asking for the model there would deadlock).
    fn wants_route_hint(&self) -> bool {
        false
    }
    /// Pre-size for up to `additional` net-new keys so steady-state point
    /// operations stay off the allocator (the vEB mirror stocks its node
    /// pool; stateless stores have nothing to do).  Called from the
    /// sessions' `reserve`.
    fn reserve(&mut self, additional: usize) {
        let _ = additional;
    }
}

/// [`TailSet`] backed by a parallel van Emde Boas tree over the session
/// universe (Theorems 5.1/5.2 for the batch delta application).
#[derive(Debug, Clone)]
pub struct VebTailSet(VebTree);

impl VebTailSet {
    /// Empty mirror over the value universe `[0, universe)`.
    pub fn new(universe: u64) -> Self {
        VebTailSet(VebTree::new(universe))
    }

    /// The underlying vEB tree (read-only; used by value-domain probes that
    /// want the raw structure).
    pub fn tree(&self) -> &VebTree {
        &self.0
    }
}

impl TailSet for VebTailSet {
    fn name(&self) -> &'static str {
        "veb"
    }
    fn reserve(&mut self, additional: usize) {
        self.0.reserve_nodes(additional);
    }
    fn insert(&mut self, key: u64) {
        self.0.insert(key);
    }
    fn delete(&mut self, key: u64) {
        self.0.delete(key);
    }
    fn batch_insert(&mut self, keys: &[u64]) {
        self.0.batch_insert(keys);
    }
    fn batch_delete(&mut self, keys: &[u64]) {
        self.0.batch_delete(keys);
    }
    fn pred(&self, _tails: &[u64], x: u64) -> Option<u64> {
        self.0.pred(x.min(self.0.universe()))
    }
    fn succ(&self, _tails: &[u64], x: u64) -> Option<u64> {
        if x >= self.0.universe() {
            None
        } else if self.0.contains(x) {
            Some(x)
        } else {
            self.0.succ(x)
        }
    }
    fn len(&self, _tails: &[u64]) -> usize {
        self.0.len()
    }
    fn collect_keys(&self, _tails: &[u64]) -> Vec<u64> {
        self.0.iter_keys()
    }
    fn check_invariants(&self, tails: &[u64]) {
        assert_eq!(self.0.iter_keys(), tails, "vEB mirror out of sync with tails");
    }
    fn approx_bytes(&self) -> usize {
        self.0.approx_bytes()
    }
    fn route_parallel(&mut self, _route: Option<TailRoute>, _tails: &[u64]) -> TailRoute {
        TailRoute::Veb
    }
}

/// Stateless [`TailSet`]: no mirror structure at all; every probe
/// binary-searches the canonical `tails` array (`O(log k)`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SortedVecTailSet;

impl TailSet for SortedVecTailSet {
    fn name(&self) -> &'static str {
        "sorted-vec"
    }
    fn insert(&mut self, _key: u64) {}
    fn delete(&mut self, _key: u64) {}
    fn batch_insert(&mut self, _keys: &[u64]) {}
    fn batch_delete(&mut self, _keys: &[u64]) {}
    fn pred(&self, tails: &[u64], x: u64) -> Option<u64> {
        let p = tails.partition_point(|&t| t < x);
        p.checked_sub(1).map(|i| tails[i])
    }
    fn succ(&self, tails: &[u64], x: u64) -> Option<u64> {
        let p = tails.partition_point(|&t| t < x);
        tails.get(p).copied()
    }
    fn len(&self, tails: &[u64]) -> usize {
        tails.len()
    }
    fn collect_keys(&self, tails: &[u64]) -> Vec<u64> {
        tails.to_vec()
    }
    fn check_invariants(&self, _tails: &[u64]) {}
    fn route_parallel(&mut self, _route: Option<TailRoute>, _tails: &[u64]) -> TailRoute {
        TailRoute::SortedVec
    }
}

/// Cost-routed [`TailSet`]: keeps a vEB mirror only while the caller's cost
/// model says the per-ingest delta work pays for itself, and otherwise
/// keeps no state at all (probes binary-search the canonical `tails`, like
/// [`SortedVecTailSet`]).
///
/// The store starts mirror-less.  Every parallel ingest the session passes
/// the cost model's pick to [`TailSet::route_parallel`]: switching *to* the
/// vEB route rebuilds the mirror from the current tails with the paper's
/// `O(k log log U)` bulk construction; switching away drops it.  Sequential
/// (point) ingests never build the mirror — they keep a live mirror in sync
/// with `O(log log U)` point updates and are free when no mirror exists.
/// Probe answers are exact on both routes, so sessions behave identically
/// to a fixed backend; only the constant factors move.
#[derive(Debug, Clone)]
pub struct AutoTailSet {
    universe: u64,
    mirror: Option<VebTree>,
}

impl AutoTailSet {
    /// A mirror-less cost-routed store over `[0, universe)`.
    pub fn new(universe: u64) -> Self {
        AutoTailSet { universe, mirror: None }
    }

    /// The route currently in effect (which structure answers probes now).
    pub fn active(&self) -> TailRoute {
        if self.mirror.is_some() {
            TailRoute::Veb
        } else {
            TailRoute::SortedVec
        }
    }
}

impl TailSet for AutoTailSet {
    fn name(&self) -> &'static str {
        "auto"
    }
    fn insert(&mut self, key: u64) {
        if let Some(m) = &mut self.mirror {
            m.insert(key);
        }
    }
    fn delete(&mut self, key: u64) {
        if let Some(m) = &mut self.mirror {
            m.delete(key);
        }
    }
    fn batch_insert(&mut self, keys: &[u64]) {
        if let Some(m) = &mut self.mirror {
            m.batch_insert(keys);
        }
    }
    fn batch_delete(&mut self, keys: &[u64]) {
        if let Some(m) = &mut self.mirror {
            m.batch_delete(keys);
        }
    }
    fn pred(&self, tails: &[u64], x: u64) -> Option<u64> {
        match &self.mirror {
            Some(m) => m.pred(x.min(m.universe())),
            None => SortedVecTailSet.pred(tails, x),
        }
    }
    fn succ(&self, tails: &[u64], x: u64) -> Option<u64> {
        match &self.mirror {
            Some(m) => {
                if x >= m.universe() {
                    None
                } else if m.contains(x) {
                    Some(x)
                } else {
                    m.succ(x)
                }
            }
            None => SortedVecTailSet.succ(tails, x),
        }
    }
    fn len(&self, tails: &[u64]) -> usize {
        tails.len()
    }
    fn collect_keys(&self, tails: &[u64]) -> Vec<u64> {
        tails.to_vec()
    }
    fn check_invariants(&self, tails: &[u64]) {
        if let Some(m) = &self.mirror {
            assert_eq!(m.iter_keys(), tails, "auto vEB mirror out of sync with tails");
        }
    }
    fn approx_bytes(&self) -> usize {
        self.mirror.as_ref().map_or(0, VebTree::approx_bytes)
    }
    fn wants_route_hint(&self) -> bool {
        true
    }
    fn reserve(&mut self, additional: usize) {
        if let Some(m) = &self.mirror {
            m.reserve_nodes(additional);
        }
    }
    fn route_parallel(&mut self, route: Option<TailRoute>, tails: &[u64]) -> TailRoute {
        match route {
            Some(TailRoute::Veb) => {
                if self.mirror.is_none() {
                    self.mirror = Some(VebTree::from_sorted(self.universe, tails));
                }
                TailRoute::Veb
            }
            Some(TailRoute::SortedVec) => {
                self.mirror = None;
                TailRoute::SortedVec
            }
            None => self.active(),
        }
    }
}

/// Enum dispatch over the built-in tail-set backends: the concrete store
/// type behind the engine's non-generic `StreamingLis` alias, so sessions
/// with different backends share one type (and one shard map) at zero
/// virtual-call cost.
#[derive(Debug, Clone)]
pub enum AnyTailSet {
    /// vEB-mirrored tails.
    Veb(VebTailSet),
    /// Stateless binary-search tails.
    SortedVec(SortedVecTailSet),
    /// Cost-routed: vEB mirror only while it pays for itself.
    Auto(AutoTailSet),
}

impl AnyTailSet {
    /// A vEB-backed store over `[0, universe)`.
    pub fn veb(universe: u64) -> Self {
        AnyTailSet::Veb(VebTailSet::new(universe))
    }

    /// The stateless sorted-vec store.
    pub fn sorted_vec() -> Self {
        AnyTailSet::SortedVec(SortedVecTailSet)
    }

    /// The cost-routed store over `[0, universe)`.
    pub fn auto(universe: u64) -> Self {
        AnyTailSet::Auto(AutoTailSet::new(universe))
    }
}

macro_rules! dispatch {
    ($self:expr, $inner:ident => $e:expr) => {
        match $self {
            AnyTailSet::Veb($inner) => $e,
            AnyTailSet::SortedVec($inner) => $e,
            AnyTailSet::Auto($inner) => $e,
        }
    };
}

impl TailSet for AnyTailSet {
    fn name(&self) -> &'static str {
        dispatch!(self, s => s.name())
    }
    fn insert(&mut self, key: u64) {
        dispatch!(self, s => s.insert(key))
    }
    fn delete(&mut self, key: u64) {
        dispatch!(self, s => s.delete(key))
    }
    fn batch_insert(&mut self, keys: &[u64]) {
        dispatch!(self, s => s.batch_insert(keys))
    }
    fn batch_delete(&mut self, keys: &[u64]) {
        dispatch!(self, s => s.batch_delete(keys))
    }
    fn pred(&self, tails: &[u64], x: u64) -> Option<u64> {
        dispatch!(self, s => s.pred(tails, x))
    }
    fn succ(&self, tails: &[u64], x: u64) -> Option<u64> {
        dispatch!(self, s => s.succ(tails, x))
    }
    fn len(&self, tails: &[u64]) -> usize {
        dispatch!(self, s => s.len(tails))
    }
    fn collect_keys(&self, tails: &[u64]) -> Vec<u64> {
        dispatch!(self, s => s.collect_keys(tails))
    }
    fn check_invariants(&self, tails: &[u64]) {
        dispatch!(self, s => s.check_invariants(tails))
    }
    fn approx_bytes(&self) -> usize {
        dispatch!(self, s => s.approx_bytes())
    }
    fn route_parallel(&mut self, route: Option<TailRoute>, tails: &[u64]) -> TailRoute {
        dispatch!(self, s => s.route_parallel(route, tails))
    }
    fn wants_route_hint(&self) -> bool {
        dispatch!(self, s => s.wants_route_hint())
    }
    fn reserve(&mut self, additional: usize) {
        dispatch!(self, s => s.reserve(additional))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a mirror through inserts/deletes mirroring a tails array and
    /// compare probes against the stateless reference.
    fn cross_check(mut store: impl TailSet, tails: &[u64], universe: u64) {
        let reference = SortedVecTailSet;
        for &t in tails {
            store.insert(t);
        }
        store.check_invariants(tails);
        assert_eq!(store.len(tails), tails.len());
        assert_eq!(store.collect_keys(tails), tails);
        for probe in [0, 1, 2, 3, 5, 7, 8, 14, 15, universe - 1, universe, u64::MAX] {
            assert_eq!(store.pred(tails, probe), reference.pred(tails, probe), "pred {probe}");
            assert_eq!(store.succ(tails, probe), reference.succ(tails, probe), "succ {probe}");
        }
    }

    #[test]
    fn veb_and_sorted_vec_agree_on_probes() {
        let tails = [2u64, 5, 7, 11, 13];
        cross_check(VebTailSet::new(16), &tails, 16);
        cross_check(AnyTailSet::veb(16), &tails, 16);
        cross_check(AnyTailSet::sorted_vec(), &tails, 16);
    }

    #[test]
    fn batch_delta_keeps_mirror_in_sync() {
        let mut store = VebTailSet::new(64);
        store.batch_insert(&[3, 9, 20, 40]);
        store.batch_delete(&[9, 40]);
        store.insert(10);
        store.delete(3);
        let tails = [10u64, 20];
        store.check_invariants(&tails);
        assert_eq!(store.collect_keys(&tails), &tails);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(AnyTailSet::veb(8).name(), "veb");
        assert_eq!(AnyTailSet::sorted_vec().name(), "sorted-vec");
        assert_eq!(AnyTailSet::auto(8).name(), "auto");
        assert_eq!(TailRoute::Veb.name(), "veb");
        assert_eq!(TailRoute::SortedVec.name(), "sorted-vec");
    }

    #[test]
    fn auto_probes_agree_on_both_routes() {
        let tails = [2u64, 5, 7, 11, 13];
        // Mirror-less: answers come from binary search.
        cross_check(AutoTailSet::new(16), &tails, 16);
        // Mirrored: build the mirror first, then replay the same probes.
        let mut auto = AutoTailSet::new(16);
        assert_eq!(auto.route_parallel(Some(TailRoute::Veb), &[]), TailRoute::Veb);
        assert_eq!(auto.active(), TailRoute::Veb);
        cross_check(auto, &tails, 16);
    }

    #[test]
    fn auto_route_switching_rebuilds_and_drops_the_mirror() {
        let tails = [3u64, 9, 20, 40];
        let mut auto = AutoTailSet::new(64);
        assert_eq!(auto.active(), TailRoute::SortedVec);
        assert_eq!(auto.approx_bytes(), 0);
        // Point updates on the sorted-vec route keep no state.
        auto.insert(3);
        assert_eq!(auto.approx_bytes(), 0);

        // Switch to the vEB route: the mirror is rebuilt from `tails`.
        assert_eq!(auto.route_parallel(Some(TailRoute::Veb), &tails), TailRoute::Veb);
        auto.check_invariants(&tails);
        assert!(auto.approx_bytes() > 0);
        assert_eq!(auto.pred(&tails, 10), Some(9));
        assert_eq!(auto.succ(&tails, 10), Some(20));

        // A delta now maintains the mirror.
        auto.batch_delete(&[9]);
        auto.batch_insert(&[8]);
        auto.check_invariants(&[3, 8, 20, 40]);

        // Switch away: state dropped, probes still exact via binary search.
        assert_eq!(
            auto.route_parallel(Some(TailRoute::SortedVec), &[3, 8, 20, 40]),
            TailRoute::SortedVec
        );
        assert_eq!(auto.approx_bytes(), 0);
        assert_eq!(auto.pred(&[3, 8, 20, 40], 10), Some(8));
        // A `None` hint (sequential ingests) keeps the current route.
        assert_eq!(auto.route_parallel(None, &[3, 8, 20, 40]), TailRoute::SortedVec);
    }

    #[test]
    fn approx_bytes_reflects_mirror_state() {
        assert_eq!(AnyTailSet::sorted_vec().approx_bytes(), 0);
        let mut veb = AnyTailSet::veb(1 << 16);
        let empty = veb.approx_bytes();
        veb.batch_insert(&[1, 100, 5_000, 40_000]);
        assert!(veb.approx_bytes() > empty, "populated mirror must account more bytes");
    }

    #[test]
    #[should_panic(expected = "out of sync")]
    fn veb_invariant_check_catches_divergence() {
        let mut store = VebTailSet::new(32);
        store.insert(4);
        store.check_invariants(&[4, 9]);
    }
}
