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
//! [`RawList`] is the growable list's interface, declared once here:
//! `Growable` implements it over every builder, and `lll-api`'s
//! `ErasedList` boxes one behind it, so containers name no algorithm in
//! their types.
//!
//! `Growable` allocates every element index it hands to the inner
//! structure, from an [`IdAllocator`], and passes the survivors' indices
//! into the rebuilt one. A deleted element's index is reused by a later
//! insertion, so indices stay below the peak population and callers can
//! keep per-element data in a `Vec` indexed by [`ElemId::index`] (as
//! `lll-api`'s `LabelMap` does, and as the inner structures do with an
//! [`IdTable`](crate::ids::IdTable), which holds no generation). The inner
//! structure stores, moves and logs bare indices; a [`Handle`] adds the
//! generation of the index's lifetime, which `Growable` keeps in its
//! [`Generations`] table and attaches wherever it hands out a handle, so a
//! handle a caller keeps past its element's deletion never names the
//! element that took the index next.
//!
//! Rebuild costs amortize: a rebuild of size `n` happens only after Ω(n)
//! operations, adding amortized O(polylog n) per operation on top of the
//! inner structure's own bound (the appends performed during the rebuild
//! are the inner structure's cheapest workload).
//!
//! An operation hands its moves to the caller in one [`OpReport`]:
//! [`insert_reported_into`](RawList::insert_reported_into) and
//! [`delete_reported_into`](RawList::delete_reported_into) drain the log
//! into the caller's report, [`splice_reported`](RawList::splice_reported)
//! returns one, and the report-free [`insert`](RawList::insert) and
//! [`delete`](RawList::delete) drain it into a reused scratch report. A
//! rebuild hands out no log: it bumps the [`epoch`](RawList::epoch). Every
//! drained log, a rebuild's included, adds its length to the metrics
//! handle's `moves`, and the handle outlives every rebuild, so
//! [`total_moves`](RawList::total_moves) reads it.

use crate::ids::{ElemId, Generations, IdAllocator, Stamp};
use crate::metrics::{ListMetrics, MetricsHandle};
use crate::ops::Op;
use crate::report::OpReport;
use crate::slot_array::SlotArray;
use crate::traits::{LabelingBuilder, ListLabeling};

/// A stable, rebuild-surviving element handle: the element's index and
/// the generation of its lifetime, a [`Stamp`] (index in the low 32 bits,
/// generation in the high 32). A handle of a deleted element stays stale
/// after its index is reissued: the new element's handle has the next
/// generation.
pub type Handle = Stamp;

/// Statistics for the growth machinery.
#[derive(Clone, Copy, Debug, Default)]
pub struct GrowableStats {
    /// Rebuilds that grew the structure.
    pub grows: u64,
    /// Rebuilds that shrank the structure.
    pub shrinks: u64,
}

/// The rank-addressed operations of a dynamically sized list-labeling
/// list: what `lll-api`'s containers need from their backend.
///
/// [`Growable`] implements it, over every [`LabelingBuilder`] in the
/// workspace, and nothing else does. It is object-safe: `lll-api`'s
/// `ErasedList` boxes a `Growable` behind `dyn RawList` and derefs to it,
/// so each call a container makes into its backend is one virtual call.
pub trait RawList {
    /// Current element count.
    fn len(&self) -> usize;

    /// True if no elements are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current capacity (changes across rebuilds).
    fn capacity(&self) -> usize;

    /// The rebuild epoch. Labels returned before the epoch last changed are
    /// stale: a rebuild rewrites every slot position. Callers maintaining
    /// label tables from operation reports (see `lll-api`) compare epochs
    /// around each operation and resynchronize with one occupancy sweep of
    /// the new slot array after a rebuild.
    fn epoch(&self) -> u64;

    /// Insert a new element at `rank`, growing if necessary, and return its
    /// handle. The move log drains through an internal reusable buffer: no
    /// per-op allocation. Callers that need the log use
    /// [`insert_reported_into`](Self::insert_reported_into).
    fn insert(&mut self, rank: usize) -> Handle;

    /// Delete the element of `rank`, shrinking at quarter load, and return
    /// its handle. Move logging reuses the internal buffer, as for
    /// [`insert`](Self::insert).
    fn delete(&mut self, rank: usize) -> Handle;

    /// Insert at `rank`, draining the operation's move log into `out`
    /// (cleared, then its move buffer traded for the log's — the
    /// zero-allocation label-table maintenance path).
    ///
    /// The report covers the insertion itself, not any growth rebuild that
    /// preceded it: a rebuild rewrites *every* label, which the report
    /// format cannot express compactly. Callers detect rebuilds by
    /// comparing [`epoch`](Self::epoch) around the call and resynchronize
    /// from the new slot array.
    fn insert_reported_into(&mut self, rank: usize, out: &mut OpReport) -> Handle;

    /// Delete at `rank`, draining the move log into `out` (same rebuild
    /// caveat as [`insert_reported_into`](Self::insert_reported_into): a
    /// shrink that follows the deletion is signalled by the epoch, not by
    /// the report).
    fn delete_reported_into(&mut self, rank: usize, out: &mut OpReport) -> Handle;

    /// Batch-insert `count` new elements at consecutive final ranks
    /// `rank .. rank + count`, growing at most once — the bulk-ingest path.
    /// Returns the new elements' indices in rank order
    /// ([`handle`](Self::handle) attaches their generations) plus one
    /// [`OpReport`] for the whole batch, its moves in time order (see
    /// [`ListLabeling::splice_into`]).
    ///
    /// Two regimes, both a single logical operation:
    ///
    /// * **Fits in place** — the inner structure's
    ///   [`splice_into`](ListLabeling::splice_into) interleaves the run in
    ///   one evenly-spread sweep (PMA-skeleton backends) or per-insert
    ///   (fallback); the report carries the move log, the epoch is
    ///   untouched.
    /// * **Needs growth** — the batch rides the rebuild: survivors and
    ///   newcomers land together in one sweep into a structure sized for
    ///   the combined population (capacity doubles until it fits, so a
    ///   bulk load never pays the incremental doubling cascade). The
    ///   report is empty and the **epoch bumps once**; label-table callers
    ///   resync exactly as for any rebuild.
    fn splice_reported(&mut self, rank: usize, count: usize) -> (Vec<ElemId>, OpReport);

    /// The physical slot array of the current epoch: a label is a position
    /// in it, and what it stores there is the element's bare index, the
    /// [`ElemId`] of its handle (move logs therefore name elements by
    /// index; [`handle`](Self::handle) attaches the generation).
    fn slots(&self) -> &SlotArray;

    /// The handle of the stored element `elem`: its index with the
    /// generation of its lifetime attached.
    fn handle(&self, elem: ElemId) -> Handle;

    /// The rank of the element whose label (slot position) is `label` —
    /// the one label→rank resolution, counted in the metrics handle's
    /// `rank_resolutions`. Cursors navigate the occupancy structure
    /// label-to-label and perform none per step, which the cursor tests
    /// pin through that counter.
    fn rank_at_label(&self, label: usize) -> usize;

    /// The label of the first element, if any.
    fn first_label(&self) -> Option<usize> {
        self.slots().next_occupied_at_or_after(0)
    }

    /// The label of the last element, if any.
    fn last_label(&self) -> Option<usize> {
        self.slots()
            .num_slots()
            .checked_sub(1)
            .and_then(|l| self.slots().prev_occupied_at_or_before(l))
    }

    /// The label of the next element strictly after `label` — one
    /// occupancy query, no rank resolution (the cursor walking primitive).
    fn next_label_after(&self, label: usize) -> Option<usize> {
        self.slots().next_occupied_at_or_after(label + 1)
    }

    /// The label of the previous element strictly before `label`.
    fn prev_label_before(&self, label: usize) -> Option<usize> {
        label.checked_sub(1).and_then(|l| self.slots().prev_occupied_at_or_before(l))
    }

    /// The handle of the element stored at `label` (`None` on a free slot
    /// or past the end).
    fn handle_at_label(&self, label: usize) -> Option<Handle> {
        let elem = (label < self.slots().num_slots()).then(|| self.slots().get(label)).flatten();
        elem.map(|e| self.handle(e))
    }

    /// The handle of the element of `rank`.
    fn handle_at_rank(&self, rank: usize) -> Handle {
        self.handle(self.slots().get(self.label_of_rank(rank)).expect("select lands on an element"))
    }

    /// The label (slot position) of the element of `rank`.
    fn label_of_rank(&self, rank: usize) -> usize {
        self.slots().select(rank)
    }

    /// Restore an **empty** list to `handles.len()` elements in one O(n)
    /// bulk sweep, binding `handles[r]` to rank `r` — the snapshot-restore
    /// path: handles persisted before the snapshot stay valid in the
    /// restored list, so no caller has to re-key. The whole population
    /// lands via a single [`splice_into`](ListLabeling::splice_into) into a
    /// structure sized for it (~1 move per element), each handle's
    /// generation is kept, and the epoch bumps exactly once. New ids then
    /// take indices above every restored one: the generations of the
    /// indices in between were not persisted, so they are not reused.
    ///
    /// Panics if the list is non-empty or if any handle has the reserved
    /// index `u32::MAX` (the index of [`ElemId::NONE`]). The handles'
    /// indices must also be distinct — decoders (see `lll-api`'s `persist`
    /// module) validate this before calling, so it is re-checked in debug
    /// builds only, keeping the restore hot path to one pass.
    fn load_with_handles(&mut self, handles: &[Handle]);

    /// Remove every element in one reset: release every live id, rebuild
    /// the inner structure empty at the initial capacity, and bump the
    /// epoch once. No element moves. A released id's index is issued again
    /// only under its next generation, so no id issued after the reset
    /// repeats one from before it.
    fn reset(&mut self);

    /// The inner algorithm's name (stable across rebuilds).
    fn backend_name(&self) -> &'static str;

    /// Every physical element move since construction, rebuilds included:
    /// the metrics handle's `moves`, which every drained log adds to and
    /// every rebuild keeps. It reads 0 on a disabled handle.
    fn total_moves(&self) -> u64;

    /// Grow/shrink statistics.
    fn grow_stats(&self) -> GrowableStats;

    /// The observability handle this list and its inner layers report
    /// into: counters and the moves-per-op and rebalance-window histograms
    /// (see [`ListMetrics`]).
    fn metrics_handle(&self) -> MetricsHandle;
}

/// A dynamically sized sorted list over any list-labeling algorithm.
///
/// The inner structure comes first (`repr(C)`): a keyed read goes through
/// it to its physical slot array, whose read fields then share the cache
/// line that starts the list (see [`SlotArray`](crate::slot_array)).
#[repr(C)]
pub struct Growable<B: LabelingBuilder> {
    inner: B::Structure,
    builder: B,
    /// Issues every element index; a deletion releases its index, and the
    /// next insertion takes it.
    ids: IdAllocator,
    /// Each issued index's generation: its current lifetime's while live,
    /// its next one's while free. Dense below the largest capacity the
    /// list has had.
    generations: Generations,
    min_capacity: usize,
    stats: GrowableStats,
    /// Bumped on every rebuild. All labels (slot positions) are invalidated
    /// when this changes; see [`RawList::epoch`].
    epoch: u64,
    /// Reusable report buffer for report-free entry points
    /// ([`insert`](RawList::insert)/[`delete`](RawList::delete)):
    /// steady-state operations through them allocate nothing for move
    /// logging.
    scratch: OpReport,
    /// Shared observability sink: counters (the move total, and label→rank
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
        Self::with_room_for(builder, initial_capacity, 0)
    }

    /// New empty list whose first structure already has room for `len`
    /// elements: the initial capacity doubled until `len` fits, the
    /// capacity a [`splice_reported`](RawList::splice_reported) of `len`
    /// elements into a new list grows it to. That load then lands in
    /// place, and no structure is built only to be replaced. The list
    /// still shrinks down to the initial capacity.
    pub fn with_room_for(builder: B, initial_capacity: usize, len: usize) -> Self {
        Self::construct(builder, initial_capacity, len, ListMetrics::handle(true))
    }

    /// [`new`](Self::new) with a caller-provided metrics handle — pass
    /// [`ListMetrics::disabled`] to make every recording path a no-op
    /// (overhead benchmarks pin the enabled/disabled gap via this knob);
    /// [`total_moves`](RawList::total_moves) then reads 0.
    pub fn with_metrics(builder: B, initial_capacity: usize, metrics: MetricsHandle) -> Self {
        Self::construct(builder, initial_capacity, 0, metrics)
    }

    fn construct(builder: B, initial_capacity: usize, len: usize, metrics: MetricsHandle) -> Self {
        let floor = initial_capacity.max(16);
        let mut inner = builder.build_default(doubled_to_fit(floor, len));
        inner.set_metrics(metrics.clone());
        Self {
            generations: Generations::new(inner.capacity()),
            inner,
            builder,
            ids: IdAllocator::new(),
            min_capacity: floor,
            stats: GrowableStats::default(),
            epoch: 0,
            scratch: OpReport::default(),
            metrics,
        }
    }

    /// The inner fixed-capacity structure of the current epoch (for
    /// introspection — diagnostics, views, slot-array access). It is
    /// replaced wholesale on every rebuild.
    pub fn inner(&self) -> &B::Structure {
        &self.inner
    }

    /// Iterate handles in rank order.
    pub fn iter(&self) -> impl Iterator<Item = Handle> + '_ {
        self.inner.slots().iter_occupied().map(|(_, e)| self.handle(e))
    }

    /// Make the deleted element `elem`'s index reusable: its next lifetime
    /// takes the next generation. An index whose generation is spent
    /// (`u32::MAX`) is retired instead, so no handle is ever issued twice.
    fn release(ids: &mut IdAllocator, generations: &mut Generations, elem: ElemId) {
        let generation = generations.get(elem);
        if generation < u32::MAX {
            generations.set(elem, generation + 1);
            ids.release(elem);
        }
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
    /// left-to-right occupancy sweep. Returns the newcomers' indices in
    /// rank order.
    fn rebuild_merged(&mut self, new_capacity: usize, rank: usize, count: usize) -> Vec<ElemId> {
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
        // The splice's log is dropped unread: a rebuild tells the caller
        // through the epoch instead. The backend read what it needed before
        // handing the log out (the PMA skeleton feeds `on_insert` from it,
        // the deamortized PMA its position table, and the embedding places
        // its simulation's splice log as its layout). Only this copy goes
        // unread, at 12 bytes per element (ROADMAP item 3).
        fresh.splice_into(0, order, &mut OpReport::default());
        self.inner = fresh;
        self.generations.raise_dense_limit(new_capacity);
        self.epoch += 1;
        self.metrics.note_epoch_bump();
    }
}

impl<B: LabelingBuilder> RawList for Growable<B> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn insert(&mut self, rank: usize) -> Handle {
        let mut rep = std::mem::take(&mut self.scratch);
        let h = self.insert_reported_into(rank, &mut rep);
        self.scratch = rep;
        h
    }

    fn delete(&mut self, rank: usize) -> Handle {
        let mut rep = std::mem::take(&mut self.scratch);
        let h = self.delete_reported_into(rank, &mut rep);
        self.scratch = rep;
        h
    }

    fn insert_reported_into(&mut self, rank: usize, out: &mut OpReport) -> Handle {
        assert!(rank <= self.len(), "insert rank {rank} > len {}", self.len());
        if self.len() == self.capacity() {
            self.stats.grows += 1;
            self.rebuild(self.capacity() * 2);
        }
        let id = self.ids.fresh();
        self.inner.insert_into(rank, id, out);
        self.metrics.note_op_moves(out.cost());
        self.handle(id)
    }

    fn delete_reported_into(&mut self, rank: usize, out: &mut OpReport) -> Handle {
        assert!(rank < self.len(), "delete rank {rank} >= len {}", self.len());
        self.inner.delete_into(rank, out);
        self.metrics.note_op_moves(out.cost());
        let (gone, _) = out.removed.expect("delete removes");
        let handle = self.handle(gone);
        Self::release(&mut self.ids, &mut self.generations, gone);
        if self.capacity() > self.min_capacity && self.len() * 4 <= self.capacity() {
            self.stats.shrinks += 1;
            let target = (self.capacity() / 2).max(self.min_capacity);
            self.rebuild(target);
        }
        handle
    }

    fn splice_reported(&mut self, rank: usize, count: usize) -> (Vec<ElemId>, OpReport) {
        assert!(rank <= self.len(), "splice rank {rank} > len {}", self.len());
        if count == 0 {
            return (Vec::new(), OpReport::default());
        }
        if self.len() + count > self.capacity() {
            let cap = doubled_to_fit(self.capacity(), self.len() + count);
            self.stats.grows += 1;
            return (self.rebuild_merged(cap, rank, count), OpReport::default());
        }
        let ids = self.ids.fresh_n(count);
        let mut bulk = OpReport::default();
        self.inner.splice_into(rank, &ids, &mut bulk);
        self.metrics.note_op_moves(bulk.cost());
        (ids, bulk)
    }

    fn slots(&self) -> &SlotArray {
        self.inner.slots()
    }

    #[inline]
    fn handle(&self, elem: ElemId) -> Handle {
        Stamp::new(elem, self.generations.get(elem))
    }

    fn rank_at_label(&self, label: usize) -> usize {
        self.metrics.note_rank_resolution();
        self.inner.slots().rank_at(label)
    }

    fn load_with_handles(&mut self, handles: &[Handle]) {
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
        let order: Vec<ElemId> = handles.iter().map(|h| h.elem()).collect();
        self.rebuild_with_order(doubled_to_fit(self.capacity(), handles.len()), &order);
        for h in handles {
            self.generations.set(h.elem(), h.generation());
        }
        self.ids.skip_through(max_index as u32);
    }

    fn reset(&mut self) {
        let Self { inner, ids, generations, .. } = self;
        for (_, id) in inner.slots().iter_occupied() {
            Self::release(ids, generations, id);
        }
        self.rebuild_with_order(self.min_capacity, &[]);
    }

    fn backend_name(&self) -> &'static str {
        self.inner.name()
    }

    fn total_moves(&self) -> u64 {
        self.metrics.moves.get()
    }

    fn grow_stats(&self) -> GrowableStats {
        self.stats
    }

    fn metrics_handle(&self) -> MetricsHandle {
        self.metrics.clone()
    }
}

/// `capacity` doubled until `len` fits: the capacity every growth that
/// lands many elements at once sizes its structure to.
fn doubled_to_fit(mut capacity: usize, len: usize) -> usize {
    while capacity < len {
        capacity *= 2;
    }
    capacity
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
        assert!(g.grow_stats().grows >= 5, "expected several doublings");
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
        assert!(g.grow_stats().shrinks >= 1);
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
        assert_eq!(g.inner().elem_at_rank(137), handles[137].elem());
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
        let mut rep = OpReport::default();
        let h0 = g.insert_reported_into(0, &mut rep);
        // The placement reaches the report under the handle's index.
        assert_eq!(rep.placed_elem(), Some(h0.elem()));
        assert_eq!(g.epoch(), e0, "no rebuild yet");
        // Fill past capacity: epoch must bump, the new layout must keep
        // the handles in order.
        let mut handles = vec![h0];
        for i in 1..40 {
            handles.push(g.insert(i));
        }
        assert!(g.epoch() > e0, "growth must bump the epoch");
        for (rank, (pos, e)) in g.inner().slots().iter_occupied().enumerate() {
            assert_eq!((g.handle(e), g.rank_at_label(pos)), (handles[rank], rank));
        }
        // The inner structure is reachable for introspection.
        assert_eq!(g.inner().len(), g.len());
        assert_eq!(g.backend_name(), g.inner().name());
        // Deleting returns the handle and reports it.
        let gone = g.delete_reported_into(0, &mut rep);
        assert_eq!(gone, handles[0]);
        assert_eq!(rep.removed_elem(), Some(gone.elem()));
    }

    #[test]
    fn bulk_load_matches_incremental_with_fewer_moves() {
        let n = 4096;
        let mut bulk = Growable::new(ClassicBuilder, 16);
        let e0 = bulk.epoch();
        let (elems, _) = bulk.splice_reported(0, n);
        assert_eq!(bulk.len(), n);
        assert_eq!(elems.len(), n);
        assert_eq!(bulk.epoch(), e0 + 1, "one growth rebuild, one epoch bump");
        assert_eq!(
            bulk.iter().map(|h| h.elem()).collect::<Vec<_>>(),
            elems,
            "rank order == load order"
        );

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
    fn room_for_a_bulk_load_builds_its_structure_once() {
        let n = 1500;
        let mut grown = Growable::new(ClassicBuilder, 64);
        let (_, rep) = grown.splice_reported(0, n);
        assert_eq!(rep.cost(), 0, "a growth splice reports through the epoch");
        let mut roomy = Growable::with_room_for(ClassicBuilder, 64, n);
        assert_eq!(roomy.capacity(), 2048, "64 doubled until 1,500 fits");
        let (elems, rep) = roomy.splice_reported(0, n);
        assert_eq!((roomy.epoch(), roomy.grow_stats().grows), (0, 0), "the load landed in place");
        assert_eq!(rep.cost(), n as u64, "one placement per element");
        assert_eq!(roomy.iter().map(|h| h.elem()).collect::<Vec<_>>(), elems);
        // The same layout and moves as the load that grew a new list.
        assert_eq!(roomy.capacity(), grown.capacity());
        assert_eq!(roomy.total_moves(), grown.total_moves());
        let slots = |g: &Growable<ClassicBuilder>| -> Vec<usize> {
            g.inner().slots().iter_occupied().map(|(pos, _)| pos).collect()
        };
        assert_eq!(slots(&roomy), slots(&grown));
        // The shrink floor is still the initial capacity.
        while roomy.len() > 1 {
            roomy.delete(0);
        }
        assert_eq!(roomy.capacity(), 64);
    }

    #[test]
    fn splice_reported_interleaves_and_reports() {
        let mut g = Growable::new(ClassicBuilder, 64);
        let mut reference: Vec<Handle> = Vec::new();
        for i in 0..20 {
            reference.push(g.insert(i));
        }
        // In-place splice (fits in capacity): report carries the batch.
        let e0 = g.epoch();
        let (mid, rep) = g.splice_reported(10, 8);
        assert_eq!(g.epoch(), e0, "no growth, no epoch bump");
        assert_eq!(mid.len(), 8);
        assert!(rep.cost() >= 8, "each newcomer costs at least its placement");
        for (i, &e) in mid.iter().enumerate() {
            reference.insert(10 + i, g.handle(e));
        }
        assert_eq!(g.iter().collect::<Vec<_>>(), reference);
        // Growth splice: epoch bumps once, report is empty, order holds.
        let (tail, rep) = g.splice_reported(5, 100);
        assert_eq!(g.epoch(), e0 + 1);
        assert_eq!(rep.cost(), 0, "growth splice reports via the epoch");
        for (i, &e) in tail.iter().enumerate() {
            reference.insert(5 + i, g.handle(e));
        }
        assert_eq!(g.iter().collect::<Vec<_>>(), reference);
        assert_eq!(g.len(), 128);
    }

    #[test]
    fn empty_splice_is_free() {
        let mut g = Growable::new(ClassicBuilder, 16);
        let (elems, rep) = g.splice_reported(0, 0);
        assert!(elems.is_empty());
        assert_eq!(rep.cost(), 0);
        assert_eq!(g.total_moves(), 0);
    }

    #[test]
    fn load_with_handles_restores_identities_in_one_sweep() {
        let n = 1000usize;
        // Persisted handles are arbitrary distinct u64s, not necessarily
        // contiguous — mimic a restored snapshot with gaps.
        let handles: Vec<Handle> =
            (0..n as u32).map(|i| Stamp::new(ElemId(i * 3 + 5), i % 4)).collect();
        let mut g = Growable::new(ClassicBuilder, 16);
        let e0 = g.epoch();
        g.load_with_handles(&handles);
        assert_eq!(g.len(), n);
        assert_eq!(g.epoch(), e0 + 1, "exactly one epoch bump");
        assert_eq!(g.iter().collect::<Vec<_>>(), handles, "rank order == handle order");
        // O(n) restore: exactly one move (placement) per element.
        assert_eq!(g.total_moves(), n as u64, "restore must be 1 move/element");
        // Fresh insertions never reuse a restored index.
        let fresh = g.insert(0);
        assert!(fresh.index() > handles.iter().map(|h| h.index()).max().unwrap());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn load_with_handles_rejects_non_empty() {
        let mut g = Growable::new(ClassicBuilder, 16);
        g.insert(0);
        g.load_with_handles(&[Stamp(9)]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn load_with_handles_rejects_reserved_handle() {
        // Index u32::MAX is the sentinel's: the allocator cannot issue
        // past it.
        let mut g = Growable::new(ClassicBuilder, 16);
        g.load_with_handles(&[Stamp(3), Stamp::new(ElemId::NONE, 1)]);
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
    fn a_reissued_index_takes_the_next_generation() {
        // Against a model that keeps every index's generation: each handle
        // the list hands out, by insertion, deletion, splice, iteration or
        // lookup, carries its index's current generation, and a spent
        // generation retires its index.
        let mut g = Growable::new(ClassicBuilder, 16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let mut model: std::collections::HashMap<ElemId, u32> = Default::default();
        let mut live: Vec<Handle> = Vec::new();
        for step in 0..4000 {
            if live.is_empty() || rng.gen_bool(0.5) {
                let r = rng.gen_range(0..=live.len());
                let h = g.insert(r);
                assert_eq!(h.generation(), model.get(&h.elem()).copied().unwrap_or(0), "{step}");
                live.insert(r, h);
            } else {
                let r = rng.gen_range(0..live.len());
                let h = g.delete(r);
                assert_eq!(h, live.remove(r), "{step}");
                *model.entry(h.elem()).or_default() += 1;
            }
        }
        assert!(live.iter().any(|h| h.generation() > 0), "no index was reissued");
        assert_eq!(g.iter().collect::<Vec<_>>(), live);
        for (pos, e) in g.inner().slots().iter_occupied() {
            assert_eq!(g.handle(e), live[g.rank_at_label(pos)]);
        }
        // A handle whose generation is spent retires its index.
        let mut g = Growable::new(ClassicBuilder, 16);
        g.load_with_handles(&[Stamp::new(ElemId(0), u32::MAX)]);
        assert_eq!(g.delete(0), Stamp::new(ElemId(0), u32::MAX));
        assert_eq!(g.insert(0).elem(), ElemId(1), "a spent index was reissued");
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
