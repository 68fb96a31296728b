//! [`OrderedList`]: order maintenance with stable handles and O(1) order
//! queries — Dietz '82, the application the paper's footnote 1 motivates.
//!
//! The list stores values in a list-labeling backend and keeps a **label
//! table** (handle → slot position) maintained *incrementally from the
//! move logs*: each operation's [`OpReport`] lists exactly the elements
//! whose labels changed, so the total label-maintenance work equals the
//! backend's move cost — precisely why low-cost list labeling matters for
//! order maintenance. `order(a, b)` is then a single label comparison.
//! Growth/shrink rebuilds (which relabel everything) are detected via the
//! backend's epoch and resynchronized with one O(n) sweep, amortized free
//! against the Ω(n) operations between rebuilds.

use crate::backend::{ErasedList, ListBuilder, RawList};
use crate::cursor::{Cursor, CursorMut};
use crate::persist::{Codec, ContainerKind, Header, SnapshotError};
use lll_core::growable::Handle;
use lll_core::ids::ElemId;
use lll_core::report::OpReport;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{Read, Write};

/// A dynamically sized ordered list with stable handles, O(1) `order`
/// queries, and handle-relative insertion.
///
/// ```
/// use lll_api::OrderedList;
///
/// let mut list = OrderedList::new();
/// let b = list.push_front("b");
/// let a = list.insert_before(b, "a");
/// let c = list.insert_after(b, "c");
/// assert!(list.precedes(a, b) && list.precedes(b, c));
/// assert_eq!(list.remove(b), Some("b"));
/// assert!(list.precedes(a, c));
/// assert_eq!(list.iter().map(|(_, v)| *v).collect::<Vec<_>>(), ["a", "c"]);
/// ```
pub struct OrderedList<V, L: RawList = ErasedList> {
    list: L,
    /// Each live element's label (slot position) and value, by handle:
    /// following a move costs one hash.
    entries: HashMap<Handle, (u32, V)>,
    /// Reusable report buffer: point operations drain the backend's move
    /// log into it and apply the label updates in place, so steady-state
    /// inserts allocate nothing on the logging path.
    scratch: OpReport,
}

impl<V> OrderedList<V> {
    /// An empty list on the default backend (Corollary 11, erased).
    pub fn new() -> Self {
        ListBuilder::new().ordered_list()
    }
}

impl<V> Default for OrderedList<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, L: RawList> OrderedList<V, L> {
    /// Wrap an already-built backend — erased ([`ListBuilder::build`]) or
    /// concrete ([`Growable::new`](lll_core::growable::Growable::new)) for
    /// static dispatch.
    ///
    /// Panics if the backend is non-empty: the label table must observe
    /// every operation.
    pub fn with_backend(list: L) -> Self {
        assert!(list.is_empty(), "OrderedList requires an empty backend");
        Self { list, entries: HashMap::new(), scratch: OpReport::default() }
    }

    /// Current element count.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// The underlying algorithm's name.
    pub fn backend_name(&self) -> &'static str {
        self.list.backend_name()
    }

    /// Total element moves the backend has performed — equal to the total
    /// number of label-table rewrites outside rebuild resyncs (the paper's
    /// cost model, surfaced).
    pub fn total_moves(&self) -> u64 {
        self.list.total_moves()
    }

    /// Growth/shrink rebuild statistics of the backend.
    pub fn grow_stats(&self) -> lll_core::growable::GrowableStats {
        self.list.grow_stats()
    }

    /// The backend's observability handle: counters and the moves-per-op
    /// and rebalance-window histograms (see
    /// [`lll_core::metrics::ListMetrics`]).
    pub fn metrics(&self) -> lll_core::metrics::MetricsHandle {
        self.list.metrics_handle()
    }

    /// True if `h` refers to a live element.
    pub fn contains(&self, h: Handle) -> bool {
        self.entries.contains_key(&h)
    }

    /// The value of `h`.
    pub fn get(&self, h: Handle) -> Option<&V> {
        self.entries.get(&h).map(|(_, v)| v)
    }

    /// Mutable access to the value of `h`.
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut V> {
        self.entries.get_mut(&h).map(|(_, v)| v)
    }

    /// The handle of the first element.
    pub fn front(&self) -> Option<Handle> {
        (!self.is_empty()).then(|| self.list.handle_at_rank(0))
    }

    /// The handle of the last element.
    pub fn back(&self) -> Option<Handle> {
        (!self.is_empty()).then(|| self.list.handle_at_rank(self.len() - 1))
    }

    /// The current rank of `h` — O(log m) via its label. Ranks shift as
    /// neighbors are inserted/deleted; handles don't.
    pub fn rank(&self, h: Handle) -> Option<usize> {
        self.label_of(h).map(|l| self.list.rank_at_label(l as usize))
    }

    /// The handle of the element of `rank`.
    ///
    /// **Panics** if `rank >= len`;
    /// [`get_handle_at_rank`](Self::get_handle_at_rank) is the checked
    /// variant.
    pub fn handle_at_rank(&self, rank: usize) -> Handle {
        self.list.handle_at_rank(rank)
    }

    /// The handle of the element of `rank`, or `None` if `rank >= len` —
    /// the checked form of [`handle_at_rank`](Self::handle_at_rank).
    pub fn get_handle_at_rank(&self, rank: usize) -> Option<Handle> {
        (rank < self.len()).then(|| self.handle_at_rank(rank))
    }

    /// Read-only access to the underlying backend (cost counters, labels,
    /// slot-array introspection).
    pub fn backend(&self) -> &L {
        &self.list
    }

    pub(crate) fn label_of(&self, h: Handle) -> Option<u32> {
        self.entries.get(&h).map(|&(l, _)| l)
    }

    /// How `a` and `b` compare in list order — O(1), one label comparison.
    ///
    /// Panics if either handle is stale (use [`contains`](Self::contains)
    /// to probe).
    pub fn order(&self, a: Handle, b: Handle) -> Ordering {
        self.entries[&a].0.cmp(&self.entries[&b].0)
    }

    /// True if `a` precedes `b` in list order — O(1).
    pub fn precedes(&self, a: Handle, b: Handle) -> bool {
        self.order(a, b) == Ordering::Less
    }

    /// Absorb one operation's or batch's label churn, or resync after a
    /// rebuild. Move logs name elements by handle. Updates apply in time
    /// order, last write winning — a batch's log may relocate a just-placed
    /// element — and skip an element the operation deleted after moving it.
    fn sync(&mut self, pre_epoch: u64, rep: &OpReport) {
        if self.list.epoch() != pre_epoch {
            self.resync();
            return;
        }
        for (h, pos) in rep.label_updates() {
            if let Some(entry) = self.entries.get_mut(&h) {
                entry.0 = pos as u32;
            }
        }
    }

    /// Relabel every entry from one occupancy sweep of the backend's slot
    /// array (the post-rebuild path: a rebuild rewrites every label).
    fn resync(&mut self) {
        let Self { list, entries, .. } = self;
        for (pos, h) in list.slots().iter_occupied() {
            if let Some(entry) = entries.get_mut(&h) {
                entry.0 = pos as u32;
            }
        }
    }

    /// Insert `value` at `rank`, returning its stable handle.
    ///
    /// Panics if `rank > len`.
    pub fn insert_at(&mut self, rank: usize, value: V) -> Handle {
        let mut rep = std::mem::take(&mut self.scratch);
        let pre_epoch = self.list.epoch();
        let h = self.list.insert_reported_into(rank, &mut rep);
        // The label comes with the report's updates.
        self.entries.insert(h, (0, value));
        self.sync(pre_epoch, &rep);
        self.scratch = rep;
        h
    }

    /// Insert `value` as the new first element.
    pub fn push_front(&mut self, value: V) -> Handle {
        self.insert_at(0, value)
    }

    /// Insert `value` as the new last element.
    pub fn push_back(&mut self, value: V) -> Handle {
        self.insert_at(self.len(), value)
    }

    /// Insert `value` immediately after `after`.
    ///
    /// Panics if `after` is stale.
    pub fn insert_after(&mut self, after: Handle, value: V) -> Handle {
        let rank = self.rank(after).expect("insert_after on a stale handle");
        self.insert_at(rank + 1, value)
    }

    /// Insert `value` immediately before `before`.
    ///
    /// Panics if `before` is stale.
    pub fn insert_before(&mut self, before: Handle, value: V) -> Handle {
        let rank = self.rank(before).expect("insert_before on a stale handle");
        self.insert_at(rank, value)
    }

    /// Batch-insert `values` at consecutive ranks starting at `rank`, as
    /// **one** backend operation: the run lands via a single evenly-spread
    /// sweep (or rides a single growth rebuild) instead of per-element
    /// rebalance cascades, and the label table absorbs one batch report.
    /// Returns the new handles in list order.
    ///
    /// Panics if `rank > len`.
    pub fn splice_at<I: IntoIterator<Item = V>>(&mut self, rank: usize, values: I) -> Vec<Handle> {
        let vals: Vec<V> = values.into_iter().collect();
        let pre_epoch = self.list.epoch();
        let (handles, rep) = self.list.splice_reported(rank, vals.len());
        for (&h, v) in handles.iter().zip(vals) {
            self.entries.insert(h, (0, v));
        }
        self.sync(pre_epoch, &rep);
        handles
    }

    /// Append `values` at the back in one bulk operation — the sorted
    /// ingest path. Returns the new handles in list order.
    ///
    /// ```
    /// use lll_api::OrderedList;
    ///
    /// let mut list = OrderedList::new();
    /// let handles = list.extend_back(0..100);
    /// assert_eq!(list.len(), 100);
    /// assert!(list.precedes(handles[0], handles[99]));
    /// ```
    pub fn extend_back<I: IntoIterator<Item = V>>(&mut self, values: I) -> Vec<Handle> {
        self.splice_at(self.len(), values)
    }

    /// Batch-insert `values` immediately after `after`, as one backend
    /// operation. Returns the new handles in list order.
    ///
    /// Panics if `after` is stale.
    pub fn splice_after<I: IntoIterator<Item = V>>(
        &mut self,
        after: Handle,
        values: I,
    ) -> Vec<Handle> {
        let rank = self.rank(after).expect("splice_after on a stale handle");
        self.splice_at(rank + 1, values)
    }

    /// Batch-insert `values` immediately before `before`, as one backend
    /// operation. Returns the new handles in list order.
    ///
    /// Panics if `before` is stale.
    pub fn splice_before<I: IntoIterator<Item = V>>(
        &mut self,
        before: Handle,
        values: I,
    ) -> Vec<Handle> {
        let rank = self.rank(before).expect("splice_before on a stale handle");
        self.splice_at(rank, values)
    }

    /// Remove the element `h`, returning its value (`None` if stale).
    pub fn remove(&mut self, h: Handle) -> Option<V> {
        let rank = self.rank(h)?;
        let mut rep = std::mem::take(&mut self.scratch);
        let pre_epoch = self.list.epoch();
        let gone = self.list.delete_reported_into(rank, &mut rep);
        debug_assert_eq!(gone, h, "label table pointed at the wrong rank");
        let value = self.entries.remove(&h).map(|(_, v)| v);
        self.sync(pre_epoch, &rep);
        self.scratch = rep;
        value
    }

    /// Remove and return the first element's `(handle, value)`.
    pub fn pop_front(&mut self) -> Option<(Handle, V)> {
        let h = self.front()?;
        let v = self.remove(h)?;
        Some((h, v))
    }

    /// Remove and return the last element's `(handle, value)`.
    pub fn pop_back(&mut self) -> Option<(Handle, V)> {
        let h = self.back()?;
        let v = self.remove(h)?;
        Some((h, v))
    }

    /// Remove every element, invalidating all handles, with one backend
    /// [`reset`](RawList::reset): no element moves, the epoch bumps once,
    /// and no handle issued afterwards repeats one from before. The backend
    /// (and its cost counters) stays alive.
    pub fn clear(&mut self) {
        self.list.reset();
        self.entries.clear();
    }

    /// Iterate `(handle, &value)` in list order — a label-to-label walk of
    /// the backend's occupancy structure: O(1) space, no per-step rank
    /// resolution.
    pub fn iter(&self) -> Iter<'_, V, L> {
        Iter {
            list: &self.list,
            entries: &self.entries,
            label: self.list.first_label(),
            remaining: self.len(),
        }
    }

    /// Iterate values in list order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// A read-only cursor parked on the first element (exhausted if the
    /// list is empty). Cursors walk the backend's occupancy structure
    /// label-to-label — no per-step rank→label resolution.
    pub fn cursor_front(&self) -> Cursor<'_, V, L> {
        Cursor::new(self, self.list.first_label())
    }

    /// A read-only cursor parked on the last element.
    pub fn cursor_back(&self) -> Cursor<'_, V, L> {
        Cursor::new(self, self.list.last_label())
    }

    /// A read-only cursor parked on `h`, or `None` if `h` is stale.
    /// Positioning is one O(1) label-table lookup.
    pub fn cursor_at(&self, h: Handle) -> Option<Cursor<'_, V, L>> {
        let label = self.label_of(h)?;
        Some(Cursor::new(self, Some(label as usize)))
    }

    /// A mutating cursor parked on the first element (on the end ghost if
    /// the list is empty): walk with `move_next`/`move_prev`, and edit in
    /// place with `insert_before_here`/`insert_after_here`/`remove_here`.
    pub fn cursor_front_mut(&mut self) -> CursorMut<'_, V, L> {
        CursorMut::new_front(self)
    }

    /// A mutating cursor parked on `h`, or `None` if `h` is stale. One
    /// rank resolution at creation; walking is label-native from there.
    pub fn cursor_at_mut(&mut self, h: Handle) -> Option<CursorMut<'_, V, L>> {
        let rank = self.rank(h)?;
        Some(CursorMut::new_at(self, h, rank))
    }

    /// Verify the label table exactly mirrors the backend (O(n); used by
    /// tests).
    pub fn check_labels(&self) {
        let slots = self.list.slots();
        assert_eq!(slots.len(), self.entries.len(), "label table size diverged");
        for (pos, h) in slots.iter_occupied() {
            assert_eq!(self.label_of(h), Some(pos as u32), "stale label for {h:?}");
        }
    }
}

impl<V: Codec> OrderedList<V> {
    /// Write a durable snapshot of the list: the versioned header (backend,
    /// seed, element count) followed by every `(handle, value)` pair in
    /// **rank order** — the handle↔rank table rides along, so handles
    /// issued before the snapshot stay valid in the restored list. Labels
    /// are not persisted (only rank order is semantic; the restored layout
    /// is rebuilt by the bulk sweep).
    ///
    /// Writing to a `File`? Wrap it in a [`std::io::BufWriter`] — the
    /// encoder issues one small write per field.
    ///
    /// ```
    /// use lll_api::OrderedList;
    ///
    /// let mut list = OrderedList::new();
    /// let a = list.push_back("a".to_string());
    /// let b = list.push_back("b".to_string());
    /// let mut buf = Vec::new();
    /// list.write_snapshot(&mut buf).unwrap();
    /// let back: OrderedList<String> = OrderedList::read_snapshot(&mut buf.as_slice()).unwrap();
    /// // Pre-snapshot handles resolve to the same elements after restore.
    /// assert_eq!(back.get(a), Some(&"a".to_string()));
    /// assert!(back.precedes(a, b));
    /// ```
    pub fn write_snapshot<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), SnapshotError> {
        Header::new(ContainerKind::OrderedList, self.list.config(), self.len() as u64)
            .write_to(w)?;
        for (h, v) in self.iter() {
            h.0.encode(w)?;
            v.encode(w)?;
        }
        Ok(())
    }

    /// Restore a list from a snapshot written by
    /// [`write_snapshot`](Self::write_snapshot): rebuild the recorded
    /// backend, land the decoded run through the O(n) handle-preserving
    /// bulk sweep ([`Growable::load_with_handles`]), and resync the label
    /// table once. Handles held from before the snapshot resolve to the
    /// same elements — same values, same relative order — and fresh
    /// insertions never collide with restored handles.
    ///
    /// Never panics on bad input: truncated, corrupted, version- or
    /// container-mismatched streams return the matching [`SnapshotError`]
    /// variant (handles that share an [index](ElemId::index), or carry the
    /// reserved index `u32::MAX`, are [`SnapshotError::Corrupt`]). Reading
    /// from a `File`? Wrap it in a [`std::io::BufReader`].
    ///
    /// [`Growable::load_with_handles`]: lll_core::growable::Growable::load_with_handles
    pub fn read_snapshot<R: Read + ?Sized>(r: &mut R) -> Result<Self, SnapshotError> {
        let header = Header::read_expecting(r, ContainerKind::OrderedList)?;
        let count = usize::try_from(header.count)
            .map_err(|_| SnapshotError::Corrupt("element count exceeds host width".into()))?;
        let mut handles: Vec<Handle> = Vec::with_capacity(count.min(1 << 16));
        let mut entries: HashMap<Handle, (u32, V)> = HashMap::with_capacity(count.min(1 << 16));
        let mut indices: HashSet<usize> = HashSet::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let h = ElemId(u64::decode(r)?);
            if h.index() == ElemId::NONE.index() {
                return Err(SnapshotError::Corrupt("reserved handle index".into()));
            }
            let v = V::decode(r)?;
            // Live elements never share an index: the backend's id
            // allocator gives each index to one element at a time.
            if !indices.insert(h.index()) {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate handle index {}",
                    h.index()
                )));
            }
            entries.insert(h, (0, v));
            handles.push(h);
        }
        let mut list = ListBuilder::from_config(header.config()).build();
        list.load_with_handles(&handles);
        let mut restored = Self { list, entries, scratch: OpReport::default() };
        restored.resync();
        Ok(restored)
    }
}

/// Iterator over `(Handle, &V)` in list order (see [`OrderedList::iter`]):
/// a label-to-label occupancy walk, O(1) space.
pub struct Iter<'a, V, L: RawList = ErasedList> {
    list: &'a L,
    entries: &'a HashMap<Handle, (u32, V)>,
    label: Option<usize>,
    remaining: usize,
}

impl<'a, V, L: RawList> Iterator for Iter<'a, V, L> {
    type Item = (Handle, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let l = self.label?;
        let h = self.list.handle_at_label(l)?;
        self.label = self.list.next_label_after(l);
        self.remaining -= 1;
        Some((h, &self.entries[&h].1))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<V, L: RawList> ExactSizeIterator for Iter<'_, V, L> {}

/// Owning iterator over values in list order (see
/// [`OrderedList::into_iter`](IntoIterator)).
pub struct IntoIter<V, L: RawList = ErasedList> {
    list: L,
    label: Option<usize>,
    entries: HashMap<Handle, (u32, V)>,
}

impl<V, L: RawList> Iterator for IntoIter<V, L> {
    type Item = V;

    fn next(&mut self) -> Option<Self::Item> {
        let l = self.label?;
        let h = self.list.handle_at_label(l)?;
        self.label = self.list.next_label_after(l);
        self.entries.remove(&h).map(|(_, v)| v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.entries.len(), Some(self.entries.len()))
    }
}

impl<V, L: RawList> ExactSizeIterator for IntoIter<V, L> {}

impl<'a, V, L: RawList> IntoIterator for &'a OrderedList<V, L> {
    type Item = (Handle, &'a V);
    type IntoIter = Iter<'a, V, L>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<V, L: RawList> IntoIterator for OrderedList<V, L> {
    type Item = V;
    type IntoIter = IntoIter<V, L>;

    /// Consume the list, yielding owned values in list order — the same
    /// O(1)-space occupancy walk as [`OrderedList::iter`], over the
    /// moved-in backend.
    fn into_iter(self) -> Self::IntoIter {
        let label = self.list.first_label();
        IntoIter { list: self.list, label, entries: self.entries }
    }
}

impl<V, L: RawList> Extend<V> for OrderedList<V, L> {
    /// Append values at the back via the bulk path
    /// ([`extend_back`](OrderedList::extend_back)).
    fn extend<I: IntoIterator<Item = V>>(&mut self, iter: I) {
        self.extend_back(iter);
    }
}

impl<V> FromIterator<V> for OrderedList<V> {
    /// Collect values in order on the default backend, via one bulk load.
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        let mut list = Self::new();
        list.extend_back(iter);
        list
    }
}

impl<V: fmt::Debug, L: RawList> fmt::Debug for OrderedList<V, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;

    #[test]
    fn clear_empties_by_reset_on_every_backend() {
        use rand::{Rng, SeedableRng};
        for backend in Backend::ALL {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xC1EA);
            let mut list: OrderedList<u32> =
                ListBuilder::new().backend(backend).seed(5).ordered_list();
            // A bulk-loaded, then churned list.
            let mut handles = list.extend_back(0..2048);
            for v in 0..500 {
                let i = rng.gen_range(0..handles.len());
                if rng.gen_bool(0.5) {
                    let h = list.insert_after(handles[i], v);
                    handles.push(h);
                } else {
                    assert!(list.remove(handles.swap_remove(i)).is_some());
                }
            }
            list.check_labels();

            let before: HashSet<Handle> = handles.iter().copied().collect();
            let (moves, epoch) = (list.total_moves(), list.backend().epoch());
            list.clear();
            assert_eq!(list.total_moves(), moves, "{backend}: clear moved elements");
            assert_eq!(list.backend().epoch(), epoch + 1, "{backend}: one epoch bump");
            assert!(list.is_empty() && list.iter().next().is_none());
            list.check_labels();
            assert!(handles.iter().all(|&h| !list.contains(h)), "{backend}: a handle survived");

            // The cleared list is usable, and its new handles are fresh ids.
            let mut fresh = list.extend_back(0..300);
            for v in 300..600 {
                fresh.push(list.push_front(v));
            }
            list.check_labels();
            let expected: Vec<u32> = (300..600).rev().chain(0..300).collect();
            assert!(list.values().copied().eq(expected), "{backend}: reuse after clear diverged");
            let reissued = fresh.iter().filter(|h| before.contains(h)).count();
            assert_eq!(reissued, 0, "{backend}: a handle issued after clear repeats an old one");
        }
    }

    #[test]
    fn order_queries_match_ground_truth() {
        let mut ol: OrderedList<usize> = ListBuilder::new().seed(5).ordered_list();
        let mut handles = Vec::new();
        for i in 0..500 {
            let h = match handles.last() {
                None => ol.push_back(i),
                Some(&last) => ol.insert_after(last, i),
            };
            handles.push(h);
        }
        for i in (0..handles.len()).step_by(31) {
            for j in (0..handles.len()).step_by(29) {
                if i != j {
                    assert_eq!(ol.precedes(handles[i], handles[j]), i < j);
                }
            }
        }
        ol.check_labels();
    }

    #[test]
    fn labels_survive_growth_rebuilds() {
        for backend in Backend::ALL {
            let mut ol: OrderedList<u32> =
                ListBuilder::new().backend(backend).initial_capacity(16).ordered_list();
            let mut handles = Vec::new();
            for i in 0..200 {
                handles.push(ol.push_back(i));
            }
            assert!(ol.list.grow_stats().grows >= 1, "{} never grew", backend.name());
            ol.check_labels();
            for w in handles.windows(2) {
                assert!(ol.precedes(w[0], w[1]), "{} order broke", backend.name());
            }
            // shrink back down and re-verify
            for _ in 0..180 {
                ol.pop_front();
            }
            ol.check_labels();
            let rest: Vec<u32> = ol.values().copied().collect();
            assert_eq!(rest, (180..200).collect::<Vec<u32>>(), "{}", backend.name());
        }
    }

    #[test]
    fn remove_returns_values_and_invalidates_handles() {
        let mut ol = OrderedList::new();
        let a = ol.push_back("a");
        let b = ol.push_back("b");
        assert_eq!(ol.remove(a), Some("a"));
        assert_eq!(ol.remove(a), None);
        assert!(!ol.contains(a));
        assert!(ol.contains(b));
        assert_eq!(ol.get(b), Some(&"b"));
    }

    #[test]
    fn bulk_splices_keep_order_and_labels() {
        for backend in Backend::ALL {
            let mut ol: OrderedList<u32> =
                ListBuilder::new().backend(backend).initial_capacity(16).ordered_list();
            let front = ol.extend_back(0..50); // forces growth: bulk rebuild path
            ol.check_labels();
            let mid = ol.splice_after(front[9], 100..103); // in-place batch
            let pre = ol.splice_before(front[0], 200..202);
            ol.check_labels();
            let got: Vec<u32> = ol.values().copied().collect();
            let mut want: Vec<u32> = (200..202).collect();
            want.extend(0..10);
            want.extend(100..103);
            want.extend(10..50);
            assert_eq!(got, want, "{}", backend.name());
            assert!(ol.precedes(pre[1], front[0]), "{}", backend.name());
            assert!(ol.precedes(front[9], mid[0]), "{}", backend.name());
            assert!(ol.precedes(mid[2], front[10]), "{}", backend.name());
        }
    }

    #[test]
    fn bulk_append_is_cheaper_than_point_appends() {
        let mk = || -> OrderedList<u32> {
            ListBuilder::new().backend(Backend::Classic).initial_capacity(16).ordered_list()
        };
        let mut bulk = mk();
        bulk.extend_back(0..2000);
        let mut inc = mk();
        for i in 0..2000 {
            inc.push_back(i);
        }
        assert_eq!(bulk.values().collect::<Vec<_>>(), inc.values().collect::<Vec<_>>());
        assert!(
            bulk.total_moves() < inc.total_moves(),
            "bulk {} !< incremental {}",
            bulk.total_moves(),
            inc.total_moves()
        );
    }

    #[test]
    fn std_traits_roundtrip() {
        let list: OrderedList<char> = "layered".chars().collect();
        assert_eq!(format!("{list:?}"), "['l', 'a', 'y', 'e', 'r', 'e', 'd']");
        let pairs: Vec<(Handle, char)> = (&list).into_iter().map(|(h, c)| (h, *c)).collect();
        assert_eq!(pairs.len(), 7);
        assert_eq!(list.get_handle_at_rank(3), Some(pairs[3].0));
        assert_eq!(list.get_handle_at_rank(7), None);
        let back: String = list.into_iter().collect();
        assert_eq!(back, "layered");
    }

    #[test]
    fn cursor_mut_edits_under_churn() {
        let mut ol: OrderedList<i32> =
            ListBuilder::new().backend(Backend::Classic).initial_capacity(16).ordered_list();
        ol.extend_back([10, 20, 30, 40]);
        {
            let mut cur = ol.cursor_front_mut();
            assert_eq!(cur.value(), Some(&10));
            cur.move_next();
            cur.insert_before_here(15); // before the 20
            assert_eq!(cur.value(), Some(&20));
            assert_eq!(cur.rank(), 2);
            cur.insert_after_here(25);
            assert_eq!(cur.remove_here(), Some(20)); // cursor lands on 25
            assert_eq!(cur.value(), Some(&25));
            *cur.value_mut().unwrap() += 1;
            // Walk to the ghost and append there.
            while cur.handle().is_some() {
                cur.move_next();
            }
            cur.insert_before_here(50);
            cur.move_prev();
            assert_eq!(cur.value(), Some(&50));
        }
        ol.check_labels();
        let got: Vec<i32> = ol.values().copied().collect();
        assert_eq!(got, [10, 15, 26, 30, 40, 50]);
    }

    #[test]
    fn cursor_mut_survives_growth_rebuilds() {
        let mut ol: OrderedList<usize> =
            ListBuilder::new().backend(Backend::Classic).initial_capacity(16).ordered_list();
        let h = ol.push_back(0);
        {
            let mut cur = ol.cursor_at_mut(h).expect("live handle");
            // Insert far past the initial capacity through the cursor
            // alone: every growth rebuild must leave the cursor usable.
            for i in 1..200 {
                cur.insert_before_here(i);
            }
            assert_eq!(cur.handle(), Some(h));
            assert_eq!(cur.rank(), 199);
        }
        ol.check_labels();
        assert_eq!(ol.rank(h), Some(199));
        assert_eq!(ol.len(), 200);
    }

    #[test]
    fn steady_state_ops_trade_move_log_buffers() {
        // Zero-allocation logging through the whole stack: OrderedList's
        // scratch report → Growable → the slot array's move log, which a
        // drain swaps with the report's buffer. A pop/push cycle at the
        // tail keeps the layout, so after one warm-up cycle the scratch
        // report must alternate between the same two buffers at unchanged
        // capacities: one drain per operation, no reallocation.
        use lll_classic::ClassicBuilder;
        use lll_core::growable::Growable;
        let backend = Growable::new(ClassicBuilder, 1024);
        let mut ol: OrderedList<u32, _> = OrderedList::with_backend(backend);
        for i in 0..512 {
            ol.push_back(i);
        }
        let mut cycle = |i| {
            ol.pop_back();
            let after_pop = (ol.scratch.moves.as_ptr(), ol.scratch.moves.capacity());
            ol.push_back(i);
            [after_pop, (ol.scratch.moves.as_ptr(), ol.scratch.moves.capacity())]
        };
        let bufs = cycle(0);
        assert_ne!(bufs[0].0, bufs[1].0, "one drain per operation");
        for i in 1..500 {
            assert_eq!(cycle(i), bufs, "cycle {i}: a buffer changed");
        }
    }

    #[test]
    fn iter_walks_labels_without_rank_resolution() {
        use lll_classic::ClassicBuilder;
        use lll_core::growable::Growable;
        let backend = Growable::new(ClassicBuilder, 64);
        let mut ol: OrderedList<u32, _> = OrderedList::with_backend(backend);
        for i in 0..400 {
            ol.insert_at(i / 2, i as u32);
        }
        let before = ol.backend().rank_resolutions();
        let walked: Vec<u32> = ol.iter().map(|(_, v)| *v).collect();
        assert_eq!(walked.len(), 400);
        assert_eq!(
            ol.backend().rank_resolutions(),
            before,
            "iter must walk labels, not resolve ranks"
        );
        let mut it = ol.iter();
        assert_eq!(it.len(), 400);
        it.next();
        assert_eq!(it.len(), 399);
    }

    #[test]
    fn snapshot_roundtrip_keeps_handles_valid() {
        for backend in Backend::ALL {
            let mut ol: OrderedList<u64> =
                ListBuilder::new().backend(backend).seed(3).initial_capacity(16).ordered_list();
            let mut handles = Vec::new();
            for i in 0..300u64 {
                handles.push(ol.insert_at((i / 3) as usize, i));
            }
            // Churn so handle ids are non-contiguous.
            for i in (0..300).step_by(7) {
                ol.remove(handles[i]);
            }
            let live: Vec<(Handle, u64)> = ol.iter().map(|(h, v)| (h, *v)).collect();
            let mut buf = Vec::new();
            ol.write_snapshot(&mut buf).unwrap();
            let back: OrderedList<u64> = OrderedList::read_snapshot(&mut buf.as_slice()).unwrap();
            assert_eq!(back.len(), ol.len(), "{backend}");
            back.check_labels();
            // Pre-snapshot handles resolve to the same elements, in the
            // same order, with O(1) order queries intact.
            assert_eq!(back.iter().map(|(h, v)| (h, *v)).collect::<Vec<_>>(), live, "{backend}");
            for w in live.windows(2) {
                assert!(back.precedes(w[0].0, w[1].0), "{backend} order broke");
            }
            for (i, &(h, v)) in live.iter().enumerate() {
                assert_eq!(back.get(h), Some(&v), "{backend} value moved");
                assert_eq!(back.rank(h), Some(i), "{backend} rank moved");
            }
            // Removed handles stay invalid after restore.
            assert_eq!(back.get(handles[0]), None, "{backend}");
        }
    }

    #[test]
    fn restored_list_keeps_growing_without_handle_collisions() {
        let mut ol: OrderedList<u32> = OrderedList::new();
        let old = ol.extend_back(0..50);
        let mut buf = Vec::new();
        ol.write_snapshot(&mut buf).unwrap();
        let mut back: OrderedList<u32> = OrderedList::read_snapshot(&mut buf.as_slice()).unwrap();
        let fresh = back.extend_back(50..100);
        for h in &fresh {
            assert!(!old.contains(h), "restored allocator reused a persisted handle");
        }
        assert_eq!(back.len(), 100);
        back.check_labels();
        assert!(back.precedes(old[49], fresh[0]));
        let values: Vec<u32> = back.values().copied().collect();
        assert_eq!(values, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn mid_list_edits_keep_order() {
        let mut ol = OrderedList::new();
        let mut cursor = ol.push_back(0);
        for i in 1..100 {
            cursor = ol.insert_after(cursor, i);
        }
        let mid = ol.handle_at_rank(50);
        let x = ol.insert_after(mid, 1000);
        let y = ol.insert_before(mid, 2000);
        assert!(ol.precedes(y, mid) && ol.precedes(mid, x));
        assert_eq!(ol.rank(y), Some(50));
        assert_eq!(ol.rank(mid), Some(51));
        assert_eq!(ol.rank(x), Some(52));
        ol.remove(mid);
        assert!(ol.precedes(y, x));
        ol.check_labels();
    }
}
