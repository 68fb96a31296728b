//! Dynamic capacity on top of fixed-capacity list labeling.
//!
//! Definition 1 of the paper fixes the capacity `n` in advance — the right
//! setting for the theory, but a library user wants a structure that grows.
//! [`Growable`] wraps any [`LabelingBuilder`] with the standard global
//! doubling/halving technique: when the inner structure fills, rebuild into
//! one of twice the capacity (and shrink at quarter load). Each element
//! keeps a **stable handle** across rebuilds, so applications can hold
//! references to elements without tracking migrations.
//!
//! A handle *is* the element's [`ElemId`]: `Growable` allocates every id it
//! hands to the inner structure, from an [`IdAllocator`], and passes the
//! survivors' ids into the rebuilt one. The id's index part is reused after
//! a deletion, under the next generation, so indices stay below the peak
//! population and callers can keep per-element data in a `Vec` indexed by
//! [`ElemId::index`] (as `lll-api`'s `LabelMap` does, and as the inner
//! structures do with an [`IdTable`](crate::ids::IdTable)). The generation
//! keeps a reused index from repeating a whole id that the inner structure
//! may still track (the embedding's ghosts) or that a caller may still
//! hold.
//!
//! Rebuild costs amortize: a rebuild of size `n` happens only after Ω(n)
//! operations, adding amortized O(polylog n) per operation on top of the
//! inner structure's own bound (the appends performed during the rebuild
//! are the inner structure's cheapest workload).

use crate::ids::{ElemId, IdAllocator};
use crate::metrics::{ListMetrics, MetricsHandle};
use crate::ops::Op;
use crate::report::{BulkReport, OpReport};
use crate::traits::{LabelingBuilder, ListLabeling};

/// A stable, rebuild-surviving element handle: the element's [`ElemId`].
pub type Handle = ElemId;

/// Statistics for the growth machinery.
#[derive(Clone, Copy, Debug, Default)]
pub struct GrowableStats {
    /// Rebuilds that grew the structure.
    pub grows: u64,
    /// Rebuilds that shrank the structure.
    pub shrinks: u64,
}

/// A dynamically sized sorted list over any list-labeling algorithm.
pub struct Growable<B: LabelingBuilder> {
    builder: B,
    inner: B::Structure,
    /// Issues every element id; a deletion releases its id, and the next
    /// insertion takes that index under the next generation.
    ids: IdAllocator,
    min_capacity: usize,
    stats: GrowableStats,
    /// The physical moves of the structures that rebuilds replaced: with
    /// the current one's, [`total_moves`](Self::total_moves).
    retired_moves: u64,
    /// Bumped on every rebuild. All labels (slot positions) are invalidated
    /// when this changes; see [`Growable::epoch`].
    epoch: u64,
    /// Reusable report buffer for report-free entry points
    /// ([`insert`](Self::insert)/[`delete`](Self::delete)): steady-state
    /// operations through them allocate nothing for move logging.
    scratch: OpReport,
    /// Shared observability sink: counters (including label→rank
    /// resolutions — instrumentation for callers that promise label-native
    /// navigation, the `lll-api` cursors, and want to prove they keep it),
    /// and the moves-per-op and rebalance-window histograms. Installed
    /// into the inner structure's physical array (and re-installed across
    /// rebuilds), so its counts are that array's across every rebuild.
    metrics: MetricsHandle,
}

impl<B: LabelingBuilder> Growable<B> {
    /// New empty list with an initial capacity floor.
    pub fn new(builder: B, initial_capacity: usize) -> Self {
        Self::with_metrics(builder, initial_capacity, ListMetrics::handle(true))
    }

    /// [`new`](Self::new) with a caller-provided metrics handle — pass
    /// [`ListMetrics::disabled`] to make every recording path a no-op
    /// (overhead benchmarks pin the enabled/disabled gap via this knob).
    pub fn with_metrics(builder: B, initial_capacity: usize, metrics: MetricsHandle) -> Self {
        let cap = initial_capacity.max(16);
        let mut inner = builder.build_default(cap);
        inner.set_metrics(metrics.clone());
        Self {
            builder,
            inner,
            ids: IdAllocator::new(),
            min_capacity: cap,
            stats: GrowableStats::default(),
            retired_moves: 0,
            epoch: 0,
            scratch: OpReport::default(),
            metrics,
        }
    }

    /// The metrics handle this structure (and its inner layers) report
    /// into.
    #[inline]
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Current element count.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Current capacity (changes across rebuilds).
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Growth statistics.
    pub fn stats(&self) -> GrowableStats {
        self.stats
    }

    /// The rebuild epoch. Labels returned before the epoch last changed are
    /// stale: a rebuild rewrites every slot position. Callers maintaining
    /// label tables from operation reports (see `lll-api`) compare epochs
    /// around each operation and resynchronize with one occupancy sweep of
    /// the new slot array after a rebuild.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The inner fixed-capacity structure of the current epoch (for
    /// introspection — diagnostics, views, slot-array access). It is
    /// replaced wholesale on every rebuild.
    pub fn inner(&self) -> &B::Structure {
        &self.inner
    }

    /// The rank of the element whose label (slot position) is `label`.
    pub fn rank_at_label(&self, label: usize) -> usize {
        self.metrics.note_rank_resolution();
        self.inner.slots().rank_at(label)
    }

    /// How many label→rank resolutions ([`rank_at_label`]) this structure
    /// has served. Cursors navigate the occupancy structure label-to-label
    /// and perform none per step; tests pin that here.
    ///
    /// [`rank_at_label`]: Self::rank_at_label
    pub fn rank_resolutions(&self) -> u64 {
        self.metrics.rank_resolutions.get()
    }

    /// The inner algorithm's name (stable across rebuilds).
    pub fn backend_name(&self) -> &'static str {
        self.inner.name()
    }

    /// Rebuild into a structure of the given capacity, preserving order and
    /// handles.
    fn rebuild(&mut self, new_capacity: usize) {
        self.rebuild_merged(new_capacity, 0, 0);
    }

    /// Rebuild into a structure of `new_capacity`, splicing `count` brand
    /// new elements in at `rank` on the way through. The whole population —
    /// survivors and newcomers — lands via **one** bulk
    /// [`splice_into`](ListLabeling::splice_into) into the fresh structure
    /// (a single evenly-spread sweep on PMA-skeleton backends), and the
    /// epoch bumps exactly once. The survivors' ids come from one
    /// left-to-right occupancy sweep. Returns the newcomers' handles in
    /// rank order.
    fn rebuild_merged(&mut self, new_capacity: usize, rank: usize, count: usize) -> Vec<Handle> {
        let mut order: Vec<ElemId> = Vec::with_capacity(self.len() + count);
        order.extend(self.inner.slots().iter_occupied().map(|(_, e)| e));
        let fresh = self.ids.fresh_n(count);
        order.splice(rank..rank, fresh.iter().copied());
        self.rebuild_with_order(new_capacity, &order);
        fresh
    }

    /// The shared rebuild tail: land `order` (every element's id, in final
    /// rank order) in a fresh structure of `new_capacity` via one bulk
    /// splice, and bump the epoch exactly once. Both the growth/shrink
    /// rebuilds and the snapshot-restore path go through here, so their
    /// semantics cannot drift apart.
    fn rebuild_with_order(&mut self, new_capacity: usize, order: &[ElemId]) {
        let mut fresh = self.builder.build_default(new_capacity);
        // Install the shared handle before the bulk splice so the rebuild's
        // own moves are observed too.
        fresh.set_metrics(self.metrics.clone());
        fresh.splice_into(0, order, &mut BulkReport::default());
        self.retired_moves += self.inner.slots().lifetime_moves();
        self.inner = fresh;
        self.epoch += 1;
        self.metrics.note_epoch_bump();
    }

    /// Insert a new element at `rank`, growing if necessary. The move log
    /// drains through an internal reusable buffer: no per-op allocation.
    pub fn insert(&mut self, rank: usize) -> Handle {
        let mut rep = std::mem::take(&mut self.scratch);
        let h = self.insert_reported_into(rank, &mut rep);
        self.scratch = rep;
        h
    }

    /// [`insert`](Self::insert), also returning the operation's move log.
    ///
    /// Allocating convenience over
    /// [`insert_reported_into`](Self::insert_reported_into), which hot
    /// paths call with a reused buffer instead.
    pub fn insert_reported(&mut self, rank: usize) -> (Handle, OpReport) {
        let mut rep = OpReport::default();
        let h = self.insert_reported_into(rank, &mut rep);
        (h, rep)
    }

    /// Insert at `rank`, draining the operation's move log into `out`
    /// (cleared, then its move buffer traded for the log's).
    ///
    /// The report covers the insertion itself, not any growth rebuild that
    /// preceded it: a rebuild rewrites *every* label, which the report
    /// format cannot express compactly. Callers detect rebuilds by
    /// comparing [`epoch`](Self::epoch) around the call and resynchronize
    /// from the new slot array.
    pub fn insert_reported_into(&mut self, rank: usize, out: &mut OpReport) -> Handle {
        assert!(rank <= self.len(), "insert rank {rank} > len {}", self.len());
        if self.len() == self.capacity() {
            self.stats.grows += 1;
            self.rebuild(self.capacity() * 2);
        }
        let id = self.ids.fresh();
        self.inner.insert_into(rank, id, out);
        self.metrics.note_op_moves(out.cost());
        id
    }

    /// Delete the element of `rank`, shrinking at quarter load. Move
    /// logging reuses the internal buffer (no per-op allocation).
    pub fn delete(&mut self, rank: usize) -> Handle {
        let mut rep = std::mem::take(&mut self.scratch);
        let h = self.delete_reported_into(rank, &mut rep);
        self.scratch = rep;
        h
    }

    /// [`delete`](Self::delete), also returning the operation's move log —
    /// the allocating convenience over
    /// [`delete_reported_into`](Self::delete_reported_into).
    pub fn delete_reported(&mut self, rank: usize) -> (Handle, OpReport) {
        let mut rep = OpReport::default();
        let h = self.delete_reported_into(rank, &mut rep);
        (h, rep)
    }

    /// Delete at `rank`, draining the move log into `out` (same rebuild
    /// caveat as [`insert_reported_into`](Self::insert_reported_into): a
    /// shrink that follows the deletion is signalled by the epoch, not by
    /// the report).
    pub fn delete_reported_into(&mut self, rank: usize, out: &mut OpReport) -> Handle {
        assert!(rank < self.len(), "delete rank {rank} >= len {}", self.len());
        self.inner.delete_into(rank, out);
        self.metrics.note_op_moves(out.cost());
        let (gone, _) = out.removed.expect("delete removes");
        self.ids.release(gone);
        if self.capacity() > self.min_capacity && self.len() * 4 <= self.capacity() {
            self.stats.shrinks += 1;
            let target = (self.capacity() / 2).max(self.min_capacity);
            self.rebuild(target);
        }
        gone
    }

    /// Batch-insert `count` new elements at consecutive final ranks
    /// `rank .. rank + count`, growing at most once. Returns the new
    /// handles in rank order plus one [`BulkReport`] move log for the whole
    /// batch.
    ///
    /// Two regimes, both a single logical operation:
    ///
    /// * **Fits in place** — the inner structure's
    ///   [`splice`](ListLabeling::splice) interleaves the run in one
    ///   evenly-spread sweep (PMA-skeleton backends) or per-insert
    ///   (fallback); the report carries the move log, the epoch is
    ///   untouched.
    /// * **Needs growth** — the batch rides the rebuild: survivors and
    ///   newcomers land together in one sweep into a structure sized for
    ///   the combined population (capacity doubles until it fits, so a
    ///   bulk load never pays the incremental doubling cascade). The
    ///   report is empty and the **epoch bumps once**; label-table callers
    ///   resync exactly as for any rebuild.
    pub fn splice_at(&mut self, rank: usize, count: usize) -> (Vec<Handle>, BulkReport) {
        assert!(rank <= self.len(), "splice rank {rank} > len {}", self.len());
        if count == 0 {
            return (Vec::new(), BulkReport::default());
        }
        if self.len() + count > self.capacity() {
            let mut cap = self.capacity();
            while cap < self.len() + count {
                cap *= 2;
            }
            self.stats.grows += 1;
            let handles = self.rebuild_merged(cap, rank, count);
            return (handles, BulkReport::default());
        }
        let ids = self.ids.fresh_n(count);
        let mut bulk = BulkReport::default();
        self.inner.splice_into(rank, &ids, &mut bulk);
        self.metrics.note_op_moves(bulk.cost());
        (ids, bulk)
    }

    /// Bulk-load `count` new elements at the tail (final ranks
    /// `len .. len + count`) — the sorted-ingest path: a caller holding a
    /// pre-sorted run appends it here in one sweep instead of `count`
    /// point insertions. Equivalent to `splice_at(len, count)`.
    pub fn bulk_load(&mut self, count: usize) -> (Vec<Handle>, BulkReport) {
        self.splice_at(self.len(), count)
    }

    /// Restore an **empty** structure to `handles.len()` elements in one
    /// O(n) bulk sweep, binding `handles[r]` to rank `r` — the
    /// snapshot-restore path: handles persisted before the snapshot stay
    /// valid in the restored structure, so no caller has to re-key. The
    /// whole population lands via a single
    /// [`splice_into`](ListLabeling::splice_into) into a structure sized
    /// for it (~1 move per element) and the epoch bumps exactly once. New
    /// ids then take indices above every restored one: the generations of
    /// the indices in between were not persisted, so they are not reused.
    ///
    /// Panics if the structure is non-empty or if any handle has the
    /// reserved index `u32::MAX` (the index of [`ElemId::NONE`]). The
    /// handles' indices must also be distinct — decoders (see `lll-api`'s
    /// `persist` module) validate this before calling, so it is re-checked
    /// in debug builds only, keeping the restore hot path to one pass.
    pub fn load_with_handles(&mut self, handles: &[Handle]) {
        // Validate before touching any state, so the panic paths leave the
        // structure exactly as it was.
        assert!(self.is_empty(), "load_with_handles requires an empty structure");
        let max_index = handles.iter().map(|h| h.index()).max();
        assert!(
            max_index < Some(u32::MAX as usize),
            "load_with_handles rejects the reserved index u32::MAX"
        );
        #[cfg(debug_assertions)]
        {
            let distinct: std::collections::HashSet<usize> =
                handles.iter().map(|h| h.index()).collect();
            assert_eq!(
                distinct.len(),
                handles.len(),
                "load_with_handles requires distinct indices"
            );
        }
        let Some(max_index) = max_index else { return };
        let mut cap = self.capacity();
        while cap < handles.len() {
            cap *= 2;
        }
        self.rebuild_with_order(cap, handles);
        self.ids.skip_through(max_index as u32);
    }

    /// Remove every element in one reset: release every live id, rebuild
    /// the inner structure empty at the initial capacity, and bump the
    /// epoch once. No element moves. A released id's index is issued again
    /// only under its next generation, so no id issued after the reset
    /// repeats one from before it.
    pub fn reset(&mut self) {
        for (_, id) in self.inner.slots().iter_occupied() {
            self.ids.release(id);
        }
        self.rebuild_with_order(self.min_capacity, &[]);
    }

    /// Apply an [`Op`].
    pub fn apply(&mut self, op: Op) -> Handle {
        match op {
            Op::Insert(r) => self.insert(r),
            Op::Delete(r) => self.delete(r),
        }
    }

    /// Iterate handles in rank order.
    pub fn iter(&self) -> impl Iterator<Item = Handle> + '_ {
        self.inner.slots().iter_occupied().map(|(_, e)| e)
    }

    /// Every physical element move since construction, rebuilds included:
    /// the [`lifetime_moves`](crate::slot_array::SlotArray::lifetime_moves)
    /// of the structures that rebuilds replaced plus the current one's. It
    /// counts with metrics disabled too.
    pub fn total_moves(&self) -> u64 {
        self.retired_moves + self.inner.slots().lifetime_moves()
    }
}

/// A convenience: run an op sequence through a growable list, verifying
/// handles stay consistent (used by tests).
pub fn check_growable<B: LabelingBuilder>(builder: B, ops: &[Op]) -> Growable<B> {
    let mut g = Growable::new(builder, 16);
    let mut reference: Vec<Handle> = Vec::new();
    for &op in ops {
        match op {
            Op::Insert(r) => {
                let h = g.insert(r);
                reference.insert(r, h);
            }
            Op::Delete(r) => {
                let h = g.delete(r);
                assert_eq!(reference.remove(r), h, "deleted wrong handle");
            }
        }
        assert_eq!(g.len(), reference.len());
    }
    let got: Vec<Handle> = g.iter().collect();
    assert_eq!(got, reference, "handle order diverged");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pma::ClassicBuilder;
    use rand::{Rng, SeedableRng};

    #[test]
    fn grows_past_initial_capacity() {
        let mut g = Growable::new(ClassicBuilder, 16);
        for i in 0..1000 {
            g.insert(i / 2);
        }
        assert_eq!(g.len(), 1000);
        assert!(g.capacity() >= 1000);
        assert!(g.stats().grows >= 5, "expected several doublings");
    }

    #[test]
    fn shrinks_at_quarter_load() {
        let mut g = Growable::new(ClassicBuilder, 16);
        for i in 0..512 {
            g.insert(i);
        }
        let grown = g.capacity();
        for _ in 0..500 {
            g.delete(0);
        }
        assert!(g.capacity() < grown, "expected shrink");
        assert!(g.stats().shrinks >= 1);
        assert_eq!(g.len(), 12);
    }

    #[test]
    fn handles_survive_rebuilds() {
        let mut g = Growable::new(ClassicBuilder, 16);
        let mut handles = Vec::new();
        for i in 0..300 {
            handles.push(g.insert(i));
        }
        // several growths happened; order must match insertion order
        let got: Vec<Handle> = g.iter().collect();
        assert_eq!(got, handles);
        assert_eq!(g.inner().elem_at_rank(137), handles[137]);
        let (label, _) = g.inner().slots().iter_occupied().nth(42).expect("rank 42");
        assert_eq!(g.rank_at_label(label), 42);
    }

    #[test]
    fn random_churn_consistency() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut ops = Vec::new();
        let mut len = 0usize;
        for _ in 0..2000 {
            if len == 0 || rng.gen_bool(0.6) {
                ops.push(Op::Insert(rng.gen_range(0..=len)));
                len += 1;
            } else {
                ops.push(Op::Delete(rng.gen_range(0..len)));
                len -= 1;
            }
        }
        check_growable(ClassicBuilder, &ops);
    }

    #[test]
    fn reported_ops_epoch_and_snapshot() {
        let mut g = Growable::new(ClassicBuilder, 16);
        let e0 = g.epoch();
        let (h0, rep) = g.insert_reported(0);
        // The placement reaches the report under the handle itself.
        assert_eq!(rep.placed_elem(), Some(h0));
        assert_eq!(g.epoch(), e0, "no rebuild yet");
        // Fill past capacity: epoch must bump, the new layout must keep
        // the handles in order.
        let mut handles = vec![h0];
        for i in 1..40 {
            handles.push(g.insert(i));
        }
        assert!(g.epoch() > e0, "growth must bump the epoch");
        for (rank, (pos, h)) in g.inner().slots().iter_occupied().enumerate() {
            assert_eq!((h, g.rank_at_label(pos)), (handles[rank], rank));
        }
        // The inner structure is reachable for introspection.
        assert_eq!(g.inner().len(), g.len());
        assert_eq!(g.backend_name(), g.inner().name());
        // Deleting returns the handle and its report.
        let (gone, rep) = g.delete_reported(0);
        assert_eq!(gone, handles[0]);
        assert_eq!(rep.removed.map(|(e, _)| e), rep.removed_elem());
    }

    #[test]
    fn bulk_load_matches_incremental_with_fewer_moves() {
        let n = 4096;
        let mut bulk = Growable::new(ClassicBuilder, 16);
        let e0 = bulk.epoch();
        let (handles, _) = bulk.bulk_load(n);
        assert_eq!(bulk.len(), n);
        assert_eq!(handles.len(), n);
        assert_eq!(bulk.epoch(), e0 + 1, "one growth rebuild, one epoch bump");
        assert_eq!(bulk.iter().collect::<Vec<_>>(), handles, "rank order == load order");

        let mut inc = Growable::new(ClassicBuilder, 16);
        for i in 0..n {
            inc.insert(i);
        }
        assert!(
            bulk.total_moves() < inc.total_moves(),
            "bulk {} !< incremental {}",
            bulk.total_moves(),
            inc.total_moves()
        );
        // The bulk path is a true one-pass load: ~1 move per element.
        assert!(bulk.total_moves() <= 2 * n as u64, "bulk load not O(n): {}", bulk.total_moves());
    }

    #[test]
    fn splice_at_interleaves_and_reports() {
        let mut g = Growable::new(ClassicBuilder, 64);
        let mut reference: Vec<Handle> = Vec::new();
        for i in 0..20 {
            reference.push(g.insert(i));
        }
        // In-place splice (fits in capacity): report carries the batch.
        let e0 = g.epoch();
        let (mid, rep) = g.splice_at(10, 8);
        assert_eq!(g.epoch(), e0, "no growth, no epoch bump");
        assert_eq!(mid.len(), 8);
        assert!(rep.cost() >= 8, "each newcomer costs at least its placement");
        for (i, h) in mid.iter().enumerate() {
            reference.insert(10 + i, *h);
        }
        assert_eq!(g.iter().collect::<Vec<_>>(), reference);
        // Growth splice: epoch bumps once, report is empty, order holds.
        let (tail, rep) = g.splice_at(5, 100);
        assert_eq!(g.epoch(), e0 + 1);
        assert_eq!(rep.cost(), 0, "growth splice reports via the epoch");
        for (i, h) in tail.iter().enumerate() {
            reference.insert(5 + i, *h);
        }
        assert_eq!(g.iter().collect::<Vec<_>>(), reference);
        assert_eq!(g.len(), 128);
    }

    #[test]
    fn empty_splice_is_free() {
        let mut g = Growable::new(ClassicBuilder, 16);
        let (handles, rep) = g.splice_at(0, 0);
        assert!(handles.is_empty());
        assert_eq!(rep.cost(), 0);
        assert_eq!(g.total_moves(), 0);
    }

    #[test]
    fn load_with_handles_restores_identities_in_one_sweep() {
        let n = 1000usize;
        // Persisted handles are arbitrary distinct u64s, not necessarily
        // contiguous — mimic a restored snapshot with gaps.
        let handles: Vec<Handle> = (0..n as u64).map(|i| ElemId(i * 3 + 5)).collect();
        let mut g = Growable::new(ClassicBuilder, 16);
        let e0 = g.epoch();
        g.load_with_handles(&handles);
        assert_eq!(g.len(), n);
        assert_eq!(g.epoch(), e0 + 1, "exactly one epoch bump");
        assert_eq!(g.iter().collect::<Vec<_>>(), handles, "rank order == handle order");
        // O(n) restore: exactly one move (placement) per element.
        assert_eq!(g.total_moves(), n as u64, "restore must be 1 move/element");
        // Fresh insertions never reuse a restored handle value.
        let fresh = g.insert(0);
        assert!(fresh.0 > handles.iter().map(|h| h.0).max().unwrap());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn load_with_handles_rejects_non_empty() {
        let mut g = Growable::new(ClassicBuilder, 16);
        g.insert(0);
        g.load_with_handles(&[ElemId(9)]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn load_with_handles_rejects_reserved_handle() {
        // Index u32::MAX is the sentinel's: the allocator cannot issue
        // past it.
        let mut g = Growable::new(ClassicBuilder, 16);
        g.load_with_handles(&[ElemId(3), ElemId::new(u32::MAX, 1)]);
    }

    #[test]
    fn fixed_size_churn_reuses_indices_under_new_generations() {
        // Each deletion frees an index that the next insertion takes under
        // the next generation: indices stay below the peak population while
        // no whole id is ever issued twice.
        let peak = 1000;
        let mut g = Growable::new(ClassicBuilder, 16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut live: Vec<Handle> = (0..peak).map(|i| g.insert(i)).collect();
        let mut issued: std::collections::HashSet<Handle> = live.iter().copied().collect();
        let mut max_index = 0;
        for _ in 0..50_000 {
            let r = rng.gen_range(0..live.len());
            assert_eq!(g.delete(r), live.remove(r));
            let r = rng.gen_range(0..=live.len());
            let h = g.insert(r);
            assert!(issued.insert(h), "{h:?} issued twice");
            max_index = max_index.max(h.index());
            live.insert(r, h);
        }
        assert!(max_index < 2 * peak, "index {max_index} outgrew peak population {peak}");
        assert_eq!(g.iter().collect::<Vec<_>>(), live);
    }

    #[test]
    fn amortized_cost_stays_polylog_through_growth() {
        let n = 1 << 12;
        let mut g = Growable::new(ClassicBuilder, 16);
        for _ in 0..n {
            g.insert(0);
        }
        let per_op = g.total_moves() as f64 / n as f64;
        assert!(per_op < 150.0, "growth overhead too high: {per_op}");
    }
}
