//! [`LabelMap`]: a keyed sorted map over a list-labeling backend — the
//! database-index application the paper opens with (list labeling was
//! proposed for database indexing at PODS '99; packed-memory arrays power
//! cache-friendly indexes because a range scan is a contiguous sweep of
//! one physical array).
//!
//! Keys are kept physically sorted in the backend's slot array, and each
//! entry lives in a slab indexed by its element id
//! ([`ElemId::index`](lll_core::ids::ElemId::index)). Beside the slot
//! array sits a sparse **fence-key index**, a search index kept next to
//! the packed-memory array as in De Leo and Boncz's "Packed Memory
//! Arrays – Rewired" (ICDE 2019): for every group of 64 slots (one
//! occupancy-bitmap word) up to the last element's, a copy of the key of
//! the first element at or after the group's first slot. An empty group
//! carries its successor's key, so the fences ascend. A top level holds
//! every 8th fence, so that each level of a search reads about one cache
//! line, as in Khuong and Morin's "Array Layouts for Comparison-Based
//! Searching" (ACM JEA 2017). A keyed search is
//!
//! 1. a lower bound over the top level (at most 26 keys for a shard of
//!    4,096 entries), which finds the first top key that fails the
//!    search. The standard library's `partition_point` steps without a
//!    data-dependent branch, so an unpredictable compare costs no
//!    misprediction;
//! 2. a count of the passing fences among the at most 7 that lie between
//!    the last passing top key and the first failing one, one contiguous
//!    run, which finds the first fence that fails;
//! 3. a check, through the slab, of the occupied slots (at most 64) of the
//!    group just before it, read off its bitmap word;
//! 4. else the first element at or after the failing group.
//!
//! No step resolves a rank or hashes. Only an insertion or removal
//! resolves one rank, for the backend. Range scans walk label to label,
//! which the backend lays out left-to-right in memory.
//!
//! The index follows the backend's physical move log, as `OrderedList`'s
//! label table does. Every move's source and destination slot, and a
//! deletion's slot, mark their groups dirty. Each dirty group is then
//! refreshed, highest first, with one slab read and one fill that also
//! covers the empty groups before it and the top entries among them. A
//! growth or shrink rebuild bumps the backend's epoch, and a bulk load
//! into an empty map fills every group; both re-lay the two levels in one
//! pass. Keeping copies of keys is why the map requires `K: Clone` to
//! insert. The index costs one key per 64 slots plus one per 512 (about
//! 9 B per 64 slots for a `u64` key), where a per-slot key column would
//! cost one key per slot.

use crate::backend::{ErasedList, ListBuilder};
use crate::cursor::MapCursor;
use crate::persist::{Codec, ContainerKind, Header, SnapshotError};
use lll_core::ids::ElemId;
use lll_core::report::{MoveRec, OpReport};
use lll_core::slot_array::SlotArray;
use std::borrow::Borrow;
use std::fmt;
use std::io::{Read, Write};
use std::ops::{Bound, RangeBounds};

/// Slots per fence-key group: one occupancy-bitmap word, so group `g`'s
/// occupied slots are the set bits of `word(g)`.
const GROUP: usize = 64;
/// Fences per top-level key: the top level holds fences `0, 8, 16, …`, so
/// a search counts at most 7 fences past it, 56 bytes for 8-byte keys.
const STRIDE: usize = 8;

/// A dynamically sized sorted map with `BTreeMap`-shaped point operations
/// and PMA-backed range scans.
///
/// ```
/// use lll_api::LabelMap;
///
/// let mut map = LabelMap::new();
/// map.insert(3, "c");
/// map.insert(1, "a");
/// map.insert(2, "b");
/// assert_eq!(map.get(&2), Some(&"b"));
/// let scanned: Vec<i32> = map.range(2..).map(|(k, _)| *k).collect();
/// assert_eq!(scanned, [2, 3]);
/// assert_eq!(map.remove(&1), Some("a"));
/// assert_eq!(map.len(), 2);
/// ```
///
/// Reads (lookups, bounds, ranges, iteration, cursors) work for any
/// `K: Ord`. Building and changing a map also needs `K: Clone`: its
/// search index keeps a copy of one key per 64 slots (see the
/// [module docs](crate::label_map)). `ShardedMap` asks the same of its keys.
///
/// The fields keep their declaration order (`repr(C)`): first the three a
/// keyed read touches, then the state only writes touch, so the
/// ascending-run counter a point insertion bumps lies more than a cache
/// line past the read fields.
#[repr(C)]
pub struct LabelMap<K: Ord, V> {
    list: ErasedList,
    /// Entries by element-id index. The backend gives a deleted element's
    /// index to a later insertion, so the slab stays at the map's peak
    /// population.
    slab: Vec<Option<(K, V)>>,
    /// The search index over the slot array.
    fences: Fences<K>,
    /// The reused move log of point insertions and deletions.
    report: OpReport,
    /// The ascending run of point insertions the map is taking.
    run: AscendingRun,
}

/// The point insertions in a row that each landed directly after the one
/// before it: the run's length and the rank just past its last insertion.
/// Zeroed, it is no run at all.
#[derive(Default)]
struct AscendingRun {
    len: usize,
    next_rank: usize,
}

impl AscendingRun {
    /// Count an insertion at `rank`: the run's next one, or the first of a
    /// new run.
    fn note_insert(&mut self, rank: usize) {
        self.len = if rank == self.next_rank { self.len + 1 } else { 1 };
        self.next_rank = rank + 1;
    }
}

/// The fence-key index of a [`LabelMap`]: `keys[g]` is a copy of the key
/// of the first element at or after slot `GROUP * g`, for every group `g`
/// up to the last element's, and `top[t]` is a copy of `keys[STRIDE * t]`.
/// Between operations it is exact; an operation marks the groups its
/// moves touched and refreshes them before it returns.
struct Fences<K> {
    keys: Vec<K>,
    /// The top level: every `STRIDE`-th fence, `keys.len().div_ceil(STRIDE)`
    /// of them.
    top: Vec<K>,
    /// Groups marked since the last refresh, one bit each, sized for the
    /// slot array of the current epoch.
    dirty: Vec<u64>,
    /// The lowest and the highest marked group (`lo > hi`: none).
    lo: usize,
    hi: usize,
}

/// The key of the element at the occupied slot `label`.
fn key_at<'a, K, V>(slots: &SlotArray, slab: &'a [Option<(K, V)>], label: usize) -> &'a K {
    let h = slots.get(label).expect("label of a live element");
    &slab[h.index()].as_ref().expect("slab entry for live element").0
}

impl<K> Fences<K> {
    /// The first fence that fails `before`, or the fence count if every
    /// fence passes; the keys that pass must be a prefix of the key order.
    /// A lower bound over the top level, then a count of the passing
    /// fences in the one run of at most `STRIDE - 1` between the last
    /// passing top key and the first failing one.
    #[inline]
    fn partition_point(&self, mut before: impl FnMut(&K) -> bool) -> usize {
        let t = self.top.partition_point(&mut before);
        t.checked_sub(1).map_or(0, |t| {
            let first = STRIDE * t + 1;
            let run = &self.keys[first..self.keys.len().min(first + STRIDE - 1)];
            first + run.iter().map(|k| usize::from(before(k))).sum::<usize>()
        })
    }
}

impl<K: Clone> Fences<K> {
    /// An index for an empty slot array of `slots` positions.
    fn new(slots: usize) -> Self {
        let dirty = vec![0; slots.div_ceil(GROUP).div_ceil(64)];
        Self { keys: Vec::new(), top: Vec::new(), dirty, lo: 1, hi: 0 }
    }

    /// Mark the group of slot `pos`.
    #[inline]
    fn mark(&mut self, pos: u32) {
        let g = pos as usize / GROUP;
        self.dirty[g / 64] |= 1 << (g % 64);
        self.lo = self.lo.min(g);
        self.hi = self.hi.max(g);
    }

    /// Mark the groups of every move's source and destination slot.
    fn mark_moves(&mut self, moves: &[MoveRec]) {
        for mv in moves {
            self.mark(mv.from);
            self.mark(mv.to);
        }
    }

    /// Refresh every marked group, highest first, and clear the marks.
    fn refresh<V>(&mut self, slots: &SlotArray, slab: &[Option<(K, V)>]) {
        if self.lo > self.hi {
            return;
        }
        // Groups at or above `floor` are exact already: a refresh fills
        // the empty groups before the one it refreshes.
        let mut floor = usize::MAX;
        for w in (self.lo / 64..=self.hi / 64).rev() {
            let mut word = std::mem::take(&mut self.dirty[w]);
            while word != 0 {
                let bit = 63 - word.leading_zeros() as usize;
                word &= !(1 << bit);
                let g = w * 64 + bit;
                if g < floor {
                    floor = self.refresh_group(g, slots, slab);
                }
            }
        }
        (self.lo, self.hi) = (1, 0);
    }

    /// Recompute the fence of group `g` and of the empty groups just
    /// before it, and the top keys among them, with one slab read and one
    /// fill; if no element sits at or after the group, end the fences at
    /// the last element's group. Returns the first group the fill covered.
    /// The fill clones with `clone_from`, so a key that owns a buffer (a
    /// `String`) reuses the fence's.
    fn refresh_group<V>(&mut self, g: usize, slots: &SlotArray, slab: &[Option<(K, V)>]) -> usize {
        let start = g * GROUP;
        let run = start
            .checked_sub(1)
            .and_then(|s| slots.prev_occupied_at_or_before(s))
            .map_or(0, |p| p / GROUP + 1);
        match slots.next_occupied_at_or_after(start) {
            Some(p) => {
                let key = key_at(slots, slab, p);
                if self.keys.len() <= g {
                    self.keys.resize(g + 1, key.clone());
                    self.top.resize((g + 1).div_ceil(STRIDE), key.clone());
                }
                let fences = self.keys[run..=g].iter_mut();
                let tops = self.top[run.div_ceil(STRIDE)..=g / STRIDE].iter_mut();
                for fence in fences.chain(tops) {
                    fence.clone_from(key);
                }
            }
            None => {
                self.keys.truncate(run);
                self.top.truncate(run.div_ceil(STRIDE));
            }
        }
        run
    }

    /// Re-lay both levels from the slot array, in buffers sized for this
    /// epoch's: the operations of an epoch then allocate nothing. The mark
    /// bitset is cleared and resized in its own buffer: a fresh one per
    /// re-lay placed the heap so that a bulk-loaded `ShardedMap` held
    /// about 2.5 B per entry more.
    fn relay<V>(&mut self, slots: &SlotArray, slab: &[Option<(K, V)>]) {
        let groups = slots.num_slots().div_ceil(GROUP);
        let words = groups.div_ceil(64);
        self.dirty.clear();
        self.dirty.reserve_exact(words);
        self.dirty.resize(words, 0);
        (self.lo, self.hi) = (1, 0);
        self.keys = Vec::with_capacity(groups);
        self.top = Vec::with_capacity(groups.div_ceil(STRIDE));
        let mut g = 0;
        while let Some(p) = slots.next_occupied_at_or_after(g * GROUP) {
            let pg = p / GROUP;
            self.keys.resize(pg + 1, key_at(slots, slab, p).clone());
            g = pg + 1;
        }
        self.top.extend(self.keys.iter().step_by(STRIDE).cloned());
    }
}

impl<K: Ord + Clone, V> LabelMap<K, V> {
    /// An empty map on the default backend (Corollary 11, erased).
    pub fn new() -> Self {
        ListBuilder::new().label_map()
    }

    /// Build a map from entries **already sorted ascending by key** in one
    /// bulk load ([`ListBuilder::label_map_from_sorted`]): the whole run
    /// lands as a single evenly-spread sweep (~one move per element) in a
    /// backend built once with room for it, instead of `n` point
    /// insertions through the doubling cascade — O(n) ingest instead of
    /// O(n · polylog n).
    ///
    /// Equal adjacent keys collapse to the last occurrence (the
    /// `BTreeMap`-shaped "last write wins"). Panics if a key is smaller
    /// than its predecessor; use `collect()` for unordered input, which
    /// sorts it first.
    ///
    /// ```
    /// use lll_api::LabelMap;
    ///
    /// let map = LabelMap::from_sorted_iter((0..1000).map(|k| (k, k * 2)));
    /// assert_eq!(map.len(), 1000);
    /// assert_eq!(map.get(&720), Some(&1440));
    /// ```
    pub fn from_sorted_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        ListBuilder::new().label_map_from_sorted(iter.into_iter().collect())
    }
}

impl<K: Ord + Clone, V> Default for LabelMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> LabelMap<K, V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// The underlying algorithm's name.
    pub fn backend_name(&self) -> &'static str {
        self.list.backend_name()
    }

    /// Total element moves the backend has performed (the paper's cost
    /// model, surfaced for accounting).
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

    /// The entry of the live element `e`.
    fn entry(&self, e: ElemId) -> &(K, V) {
        self.slab[e.index()].as_ref().expect("slab entry for live element")
    }

    fn entry_mut(&mut self, e: ElemId) -> &mut (K, V) {
        self.slab[e.index()].as_mut().expect("slab entry for live element")
    }

    /// The element stored at the occupied slot `label`.
    fn elem_at(&self, label: usize) -> ElemId {
        self.list.slots().get(label).expect("label of a live element")
    }

    /// The entry stored at the occupied slot `label`.
    pub(crate) fn entry_at(&self, label: usize) -> (&K, &V) {
        let (k, v) = self.entry(self.elem_at(label));
        (k, v)
    }

    /// How many point insertions in a row have each landed directly after
    /// the one before it (ranks r, r+1, r+2, …), the first of them
    /// included: the length of the ascending run the map is taking, 0 if
    /// none. A removal, a sorted batch ([`extend_sorted`](Self::extend_sorted),
    /// [`append`](Self::append), [`Extend`]), [`clear`](Self::clear) or an
    /// insertion anywhere else starts the count again; overwriting the
    /// value of a present key leaves it as it is. `lll-sharded` splits a
    /// shard that is taking a long run early.
    pub fn ascending_run(&self) -> usize {
        self.run.len
    }

    /// Read-only access to the underlying backend (cost counters, labels,
    /// slot-array introspection).
    pub fn backend(&self) -> &ErasedList {
        &self.list
    }

    /// The key of rank `rank` (0-based, sorted order).
    ///
    /// **Panics** if `rank >= len`; [`get_key_at_rank`](Self::get_key_at_rank)
    /// is the checked variant.
    pub fn key_at_rank(&self, rank: usize) -> &K {
        &self.entry(self.elem_at(self.list.label_of_rank(rank))).0
    }

    /// The key of rank `rank`, or `None` if `rank >= len` — the checked
    /// form of [`key_at_rank`](Self::key_at_rank).
    pub fn get_key_at_rank(&self, rank: usize) -> Option<&K> {
        (rank < self.len()).then(|| self.key_at_rank(rank))
    }

    /// The label of the first entry whose key fails `before`, or `None` if
    /// every key passes; the keys that pass must be a prefix of the key
    /// order. A search of the fence-key index (see the module docs):
    ///
    /// 1. a lower bound over the top level, then a count over at most 7
    ///    fences, finds `g`, the first group whose fence fails;
    /// 2. group `g - 1`'s fence passes, so the group holds an element, and
    ///    the answer is its first element that fails, if any. Its occupied
    ///    slots are the set bits of its bitmap word and their keys come
    ///    through the slab; the first of them is the fence itself, so it is
    ///    skipped;
    /// 3. else the answer is the first element at or after group `g`,
    ///    whose key is fence `g`, or `None` past the last fence.
    ///
    /// About log₂(slots / 512) + 1 top-level compares, 7 fence compares
    /// (fewer in the last run) and at most 63 in-group compares, with no
    /// rank resolution and no scan-word accounting.
    fn partition_label(&self, mut before: impl FnMut(&K) -> bool) -> Option<usize> {
        let g = self.fences.partition_point(&mut before);
        debug_assert_eq!(g, self.fences.keys.partition_point(&mut before), "two-level search");
        let slots = self.list.slots();
        if let Some(prev) = g.checked_sub(1) {
            let mut occupied = slots.bitmap().word(prev);
            occupied &= occupied.wrapping_sub(1);
            while occupied != 0 {
                let p = prev * GROUP + occupied.trailing_zeros() as usize;
                if !before(key_at(slots, &self.slab, p)) {
                    return Some(p);
                }
                occupied &= occupied - 1;
            }
        }
        if g < self.fences.keys.len() {
            slots.next_occupied_at_or_after(g * GROUP)
        } else {
            None
        }
    }

    /// The label of the first key ≥ `key`.
    fn lower_bound_label<Q>(&self, key: &Q) -> Option<usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.partition_label(|k| k.borrow() < key)
    }

    /// The label of the first key > `key`.
    fn upper_bound_label<Q>(&self, key: &Q) -> Option<usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.partition_label(|k| k.borrow() <= key)
    }

    /// The label of `key` if present. Like `BTreeMap`, equality is judged
    /// by `Ord::cmp` alone (never `PartialEq`), so keys whose `Eq`
    /// disagrees with their ordering still behave consistently.
    fn label_of_key<Q>(&self, key: &Q) -> Option<usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let label = self.lower_bound_label(key)?;
        self.entry_at(label).0.borrow().cmp(key).is_eq().then_some(label)
    }

    /// The rank of the element at `label`, or `len` for `None` (past the
    /// last element).
    fn rank_of_label(&self, label: Option<usize>) -> usize {
        label.map_or(self.len(), |l| self.list.rank_at_label(l))
    }

    /// The rank of the first key ≥ `key` (== `len` if no such key).
    pub fn lower_bound<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.rank_of_label(self.lower_bound_label(key))
    }

    /// The rank of the first key > `key` (== `len` if no such key).
    pub fn upper_bound<Q>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.rank_of_label(self.upper_bound_label(key))
    }

    /// The value of `key`. Accepts any borrowed form of the key type
    /// (`&str` for `String` keys, like `BTreeMap`).
    ///
    /// ```
    /// use lll_api::LabelMap;
    ///
    /// let mut map: LabelMap<String, u32> = LabelMap::new();
    /// map.insert("ten".to_string(), 10);
    /// assert_eq!(map.get("ten"), Some(&10));
    /// assert!(map.contains_key("ten"));
    /// ```
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.label_of_key(key).map(|l| self.entry_at(l).1)
    }

    /// Mutable access to the value of `key`.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let h = self.elem_at(self.label_of_key(key)?);
        Some(&mut self.entry_mut(h).1)
    }

    /// True if `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.label_of_key(key).is_some()
    }

    /// The smallest entry.
    pub fn first_key_value(&self) -> Option<(&K, &V)> {
        self.list.first_label().map(|l| self.entry_at(l))
    }

    /// The largest entry.
    pub fn last_key_value(&self) -> Option<(&K, &V)> {
        self.list.last_label().map(|l| self.entry_at(l))
    }

    /// Consume the map into its entries, sorted ascending by key — the
    /// shard **export** hook: the receiving side replays the run through
    /// [`from_sorted_iter`](LabelMap::from_sorted_iter) /
    /// [`extend_sorted`](LabelMap::extend_sorted) in one O(n) sweep.
    pub fn into_sorted_vec(self) -> Vec<(K, V)> {
        self.into_iter().collect()
    }

    /// Iterate the entries with keys in `range`, in ascending key order —
    /// physically, a left-to-right sweep of the backend's slot array. The
    /// bounds accept any borrowed form of the key type. Creating the range
    /// is two label searches; stepping is one occupancy query per entry.
    ///
    /// Unlike `BTreeMap::range`, an inverted range (start > end) yields an
    /// empty iterator instead of panicking.
    pub fn range<Q, R>(&self, range: R) -> Range<'_, K, V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
        R: RangeBounds<Q>,
    {
        let next = match range.start_bound() {
            Bound::Included(k) => self.lower_bound_label(k),
            Bound::Excluded(k) => self.upper_bound_label(k),
            Bound::Unbounded => self.list.first_label(),
        };
        // `None`: no entry past the range's end.
        let end = match range.end_bound() {
            Bound::Included(k) => self.upper_bound_label(k),
            Bound::Excluded(k) => self.lower_bound_label(k),
            Bound::Unbounded => None,
        };
        Range { map: self, next, end }
    }

    /// Iterate all entries in ascending key order — a label-to-label walk
    /// of the backend's occupancy structure, allocating nothing and
    /// resolving no ranks.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter { map: self, label: self.list.first_label(), remaining: self.len() }
    }

    /// Iterate keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterate values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// A read-only cursor parked on the smallest entry (or exhausted if the
    /// map is empty). Cursors step through the backend's occupancy
    /// structure label-to-label — no per-step rank→label resolution.
    pub fn cursor_front(&self) -> MapCursor<'_, K, V> {
        MapCursor::new(self, self.list.first_label())
    }

    /// A read-only cursor parked on the largest entry.
    pub fn cursor_back(&self) -> MapCursor<'_, K, V> {
        MapCursor::new(self, self.list.last_label())
    }

    /// A read-only cursor parked on the first entry with key ≥ `key`
    /// (exhausted if every key is smaller). One label search at creation;
    /// stepping is label-native from there.
    pub fn cursor_at<Q>(&self, key: &Q) -> MapCursor<'_, K, V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        MapCursor::new(self, self.lower_bound_label(key))
    }
}

impl<K: Ord + Clone, V> LabelMap<K, V> {
    /// Wrap an already-built, empty backend ([`ListBuilder::build`]).
    ///
    /// Panics if the backend is non-empty.
    pub fn with_backend(list: ErasedList) -> Self {
        assert!(list.is_empty(), "LabelMap requires an empty backend");
        let fences = Fences::new(list.slots().num_slots());
        let report = OpReport::default();
        Self { list, slab: Vec::new(), fences, report, run: AscendingRun::default() }
    }

    /// Store the entry of the new element `e`.
    fn put(&mut self, e: ElemId, kv: (K, V)) {
        let i = e.index();
        if i >= self.slab.len() {
            self.slab.resize_with(i + 1, || None);
        }
        debug_assert!(self.slab[i].is_none(), "slab index {i} already holds an entry");
        self.slab[i] = Some(kv);
    }

    /// Bring the fences up to date after a change to the backend that
    /// began at epoch `pre_epoch`: re-lay them all if the change rebuilt
    /// the backend, else refresh the groups marked since it began.
    fn sync_fences(&mut self, pre_epoch: u64) {
        if self.list.epoch() != pre_epoch {
            self.fences.relay(self.list.slots(), &self.slab);
        } else {
            self.fences.refresh(self.list.slots(), &self.slab);
        }
    }

    /// [`sync_fences`](Self::sync_fences) after a point operation: mark
    /// the groups of the reused report's moves and removed slot first.
    fn sync_fences_after_point_op(&mut self, pre_epoch: u64) {
        if self.list.epoch() == pre_epoch {
            self.fences.mark_moves(&self.report.moves);
            if let Some((_, pos)) = self.report.removed {
                self.fences.mark(pos);
            }
        }
        self.sync_fences(pre_epoch);
    }

    /// Delete the entry of `rank` and return it.
    fn delete_at(&mut self, rank: usize) -> (K, V) {
        self.run = AscendingRun::default();
        let pre_epoch = self.list.epoch();
        let h = self.list.delete_reported_into(rank, &mut self.report);
        let kv = self.slab[h.index()].take().expect("slab entry for deleted element");
        self.sync_fences_after_point_op(pre_epoch);
        kv
    }

    /// Insert `key → value`. Returns the previous value if the key was
    /// present (like `BTreeMap`, the entry keeps its position, handle, and
    /// originally stored key).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let label = self.lower_bound_label(&key);
        if let Some(l) = label {
            let entry = self.entry_mut(self.elem_at(l));
            if entry.0.cmp(&key).is_eq() {
                return Some(std::mem::replace(&mut entry.1, value));
            }
        }
        let rank = self.rank_of_label(label);
        self.run.note_insert(rank);
        let pre_epoch = self.list.epoch();
        let h = self.list.insert_reported_into(rank, &mut self.report);
        self.put(h.elem(), (key, value));
        self.sync_fences_after_point_op(pre_epoch);
        None
    }

    /// Remove `key`, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let label = self.label_of_key(key)?;
        Some(self.delete_at(self.list.rank_at_label(label)).1)
    }

    /// Remove and return the smallest entry.
    pub fn pop_first(&mut self) -> Option<(K, V)> {
        (!self.is_empty()).then(|| self.delete_at(0))
    }

    /// Remove and return the largest entry.
    pub fn pop_last(&mut self) -> Option<(K, V)> {
        (!self.is_empty()).then(|| self.delete_at(self.len() - 1))
    }

    /// Remove every entry in one backend [`reset`](crate::RawList::reset): no
    /// element moves and the epoch bumps once. The backend returns to its
    /// initial capacity and keeps its cost counters.
    pub fn clear(&mut self) {
        self.run = AscendingRun::default();
        let pre_epoch = self.list.epoch();
        self.list.reset();
        self.slab = Vec::new();
        self.sync_fences(pre_epoch);
    }

    /// Take every entry, sorted ascending, with one label walk, then
    /// [`clear`](Self::clear) the map.
    fn take_sorted(&mut self) -> Vec<(K, V)> {
        let mut entries = Vec::with_capacity(self.len());
        let mut label = self.list.first_label();
        while let Some(l) = label {
            let h = self.elem_at(l);
            entries.push(self.slab[h.index()].take().expect("slab entry for live element"));
            label = self.list.next_label_after(l);
        }
        self.clear();
        entries
    }

    /// Drain the entries of ranks `at..len` (the upper part of the key
    /// space), returning them sorted ascending. The retained prefix keeps
    /// its handles and layout. The tail is deleted one element at a time,
    /// so each deletion pays the backend's rebalances and shrink rebuilds;
    /// to move a whole map, [`into_sorted_vec`](Self::into_sorted_vec)
    /// walks its labels with no moves.
    ///
    /// Panics if `at > len`.
    pub fn split_off_at_rank(&mut self, at: usize) -> Vec<(K, V)> {
        assert!(at <= self.len(), "split_off_at_rank {at} > len {}", self.len());
        let mut tail = Vec::with_capacity(self.len() - at);
        while self.len() > at {
            tail.push(self.delete_at(at));
        }
        tail
    }

    /// Drain every entry with key ≥ `key`, returning them sorted ascending
    /// (the key-addressed form of
    /// [`split_off_at_rank`](Self::split_off_at_rank), shaped like
    /// `BTreeMap::split_off`).
    pub fn split_off<Q>(&mut self, key: &Q) -> Vec<(K, V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let at = self.lower_bound(key);
        self.split_off_at_rank(at)
    }

    /// Move every entry of `other` into `self`, leaving `other` empty.
    /// `other` is emptied by one label walk and one backend
    /// [`reset`](crate::RawList::reset), with no element moves. Runs of
    /// `other`'s keys that fall between `self`'s keys land as single
    /// backend splices (equal keys replace the value, last write wins, as
    /// with sequential inserts).
    pub fn append(&mut self, other: &mut LabelMap<K, V>) {
        let drained = other.take_sorted();
        self.extend_sorted(drained);
    }

    /// Merge a batch of entries **sorted ascending by key** in bulk: runs of
    /// new keys that land in the same gap between existing keys become one
    /// backend splice (one evenly-spread sweep) instead of per-key
    /// insertions. Keys equal to existing ones replace the value in place;
    /// equal adjacent batch keys collapse to the last occurrence
    /// ([`dedup_sorted_batch`]).
    ///
    /// This is the engine under [`from_sorted_iter`](LabelMap::from_sorted_iter)
    /// and sorted [`extend`](Extend::extend); call it directly when you
    /// already hold a sorted `Vec`. Panics if the batch is not ascending.
    pub fn extend_sorted(&mut self, mut batch: Vec<(K, V)>) {
        dedup_sorted_batch(&mut batch);
        self.extend_deduped(batch);
    }

    /// [`extend_sorted`](Self::extend_sorted) of a batch that
    /// [`dedup_sorted_batch`] has already checked and deduplicated.
    pub(crate) fn extend_deduped(&mut self, mut batch: Vec<(K, V)>) {
        self.run = AscendingRun::default();
        // Into an empty map the whole batch is one run of new keys, landed
        // from the batch itself.
        if self.is_empty() {
            if !batch.is_empty() {
                self.splice_pending(None, &mut batch);
            }
            return;
        }
        // The open gap's run and the label of its successor (`None`: the
        // gap is at the end). Labels stay valid until the run lands: nothing
        // else changes the backend meanwhile.
        let mut pending: Vec<(K, V)> = Vec::new();
        let mut pending_succ = None;
        for (k, v) in batch {
            if !pending.is_empty() {
                // Still strictly below the successor of the open gap?
                let continues = pending_succ.is_none_or(|l| k.cmp(self.entry_at(l).0).is_lt());
                if continues {
                    pending.push((k, v));
                    continue;
                }
                self.splice_pending(pending_succ, &mut pending);
            }
            let label = self.lower_bound_label(&k);
            match label {
                // Existing key: replace the value, keep position and handle.
                Some(l) if self.entry_at(l).0.cmp(&k).is_eq() => {
                    self.entry_mut(self.elem_at(l)).1 = v;
                }
                _ => {
                    pending_succ = label;
                    pending.push((k, v));
                }
            }
        }
        if !pending.is_empty() {
            self.splice_pending(pending_succ, &mut pending);
        }
    }

    /// Land an accumulated run of brand-new keys, just before the element
    /// at `succ` (at the end for `None`), as one backend splice.
    fn splice_pending(&mut self, succ: Option<usize>, run: &mut Vec<(K, V)>) {
        let rank = self.rank_of_label(succ);
        // A load into an empty map fills every group it lands in, so its
        // fences are re-laid in one pass, as after a rebuild.
        let relay = self.is_empty();
        let pre_epoch = self.list.epoch();
        let (elems, rep) = self.list.splice_reported(rank, run.len());
        debug_assert_eq!(elems.len(), run.len());
        // Unless re-laying, mark the groups the splice's moves touched; then
        // free its log, 12 bytes a move, before the slab grows. (A splice
        // that rebuilt the backend logs nothing: its fences are re-laid.)
        // A re-lay reads no log: the backend read what it needed before
        // handing the log out (see `Growable::rebuild_with_order`), so a
        // load into an empty map drops this copy unread (ROADMAP item 3).
        if !relay {
            self.fences.mark_moves(&rep.moves);
        }
        drop(rep);
        let slab_len = elems.iter().map(|e| e.index() + 1).max().unwrap_or(0);
        self.slab.reserve(slab_len.saturating_sub(self.slab.len()));
        for (e, kv) in elems.into_iter().zip(run.drain(..)) {
            self.put(e, kv);
        }
        if relay {
            self.fences.relay(self.list.slots(), &self.slab);
        } else {
            self.sync_fences(pre_epoch);
        }
    }
}

/// Check that `batch` ascends by key, then keep the last of each run of
/// equal keys: last write wins, as with sequential inserts. Keys are equal
/// when [`Ord::cmp`] says so, as everywhere in [`LabelMap`], so a key type
/// whose `Eq` reads more than its `Ord` still leaves one entry per map key.
/// [`LabelMap::extend_sorted`] runs every batch through here, and so does
/// a caller that cuts or counts a batch before it lands.
///
/// Panics if the keys are not ascending.
pub fn dedup_sorted_batch<K: Ord, V>(batch: &mut Vec<(K, V)>) {
    assert!(
        batch.windows(2).all(|w| w[0].0.cmp(&w[1].0).is_le()),
        "a sorted batch requires keys in ascending order"
    );
    batch.dedup_by(|next, kept| {
        let equal = next.0.cmp(&kept.0).is_eq();
        if equal {
            std::mem::swap(next, kept);
        }
        equal
    });
}

impl<K: Ord + Clone + Codec, V: Codec> LabelMap<K, V> {
    /// Write a durable snapshot of the map: the versioned header (backend,
    /// seed, entry count) followed by every `(key, value)` pair in
    /// ascending key order — one label-to-label sweep of the slot array,
    /// no intermediate buffers. Labels themselves are **not** persisted:
    /// they are ephemeral artifacts of the rebalancing scheme, and only
    /// rank order is semantic (see the [`persist`](crate::persist) module
    /// docs).
    ///
    /// Writing to a `File`? Wrap it in a [`std::io::BufWriter`] — the
    /// encoder issues one small write per field.
    ///
    /// ```
    /// use lll_api::LabelMap;
    ///
    /// let map = LabelMap::from_sorted_iter((0..100u64).map(|k| (k, k * 2)));
    /// let mut buf = Vec::new();
    /// map.write_snapshot(&mut buf).unwrap();
    /// let back: LabelMap<u64, u64> = LabelMap::read_snapshot(&mut buf.as_slice()).unwrap();
    /// assert_eq!(back.len(), 100);
    /// assert_eq!(back.get(&42), Some(&84));
    /// ```
    pub fn write_snapshot<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), SnapshotError> {
        Header::new(ContainerKind::LabelMap, self.list.config(), self.len() as u64).write_to(w)?;
        for (k, v) in self.iter() {
            k.encode(w)?;
            v.encode(w)?;
        }
        Ok(())
    }

    /// Restore a map from a snapshot written by
    /// [`write_snapshot`](Self::write_snapshot): rebuild the recorded
    /// backend (same algorithm and seed), then land the decoded sorted
    /// run through the O(n) bulk-load sweep — exactly one move per element,
    /// no per-op replay, regardless of the backend's per-operation movement
    /// bound.
    ///
    /// Never panics on bad input: truncated, corrupted, version- or
    /// container-mismatched streams return the matching
    /// [`SnapshotError`] variant (keys out of order are
    /// [`SnapshotError::Corrupt`]). Reading from a `File`? Wrap it in a
    /// [`std::io::BufReader`].
    pub fn read_snapshot<R: Read + ?Sized>(r: &mut R) -> Result<Self, SnapshotError> {
        let header = Header::read_expecting(r, ContainerKind::LabelMap)?;
        let count = usize::try_from(header.count)
            .map_err(|_| SnapshotError::Corrupt("entry count exceeds host width".into()))?;
        let entries = crate::persist::decode_sorted_run::<K, V, R>(r, count, "LabelMap")?;
        Ok(ListBuilder::from_config(header.config()).label_map_from_sorted(entries))
    }
}

impl<K: Ord + Clone, V> Extend<(K, V)> for LabelMap<K, V> {
    /// Bulk extension in any order: the input is buffered, stably sorted
    /// by key and merged via the bulk path
    /// ([`extend_sorted`](LabelMap::extend_sorted)). Among keys that
    /// [`Ord`] calls equal, the last value wins, as with sequential
    /// inserts; unlike them, a key new to the map keeps the last of those
    /// key objects, not the first. A key already in the map keeps its key
    /// object and takes the last value.
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        let mut batch: Vec<(K, V)> = iter.into_iter().collect();
        batch.sort_by(|a, b| a.0.cmp(&b.0));
        self.extend_sorted(batch);
    }
}

impl<K: Ord + Clone, V> FromIterator<(K, V)> for LabelMap<K, V> {
    /// Collects through the bulk-load path (see [`Extend::extend`]).
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = Self::new();
        map.extend(iter);
        map
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a LabelMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over all entries of a [`LabelMap`] in ascending key order (see
/// [`LabelMap::iter`]): a label-to-label occupancy walk, O(1) space.
pub struct Iter<'a, K: Ord, V> {
    map: &'a LabelMap<K, V>,
    label: Option<usize>,
    remaining: usize,
}

impl<'a, K: Ord, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let l = self.label?;
        self.label = self.map.list.next_label_after(l);
        self.remaining -= 1;
        Some(self.map.entry_at(l))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K: Ord, V> ExactSizeIterator for Iter<'_, K, V> {}

impl<K: Ord, V> IntoIterator for LabelMap<K, V> {
    type Item = (K, V);
    type IntoIter = IntoIter<K, V>;

    /// Consume the map, yielding owned entries in ascending key order —
    /// the same O(1)-space occupancy walk as [`LabelMap::iter`], over the
    /// moved-in backend.
    fn into_iter(self) -> Self::IntoIter {
        let (label, remaining) = (self.list.first_label(), self.len());
        IntoIter { list: self.list, label, slab: self.slab, remaining }
    }
}

/// Owning iterator over a [`LabelMap`]'s entries in ascending key order.
pub struct IntoIter<K, V> {
    list: ErasedList,
    label: Option<usize>,
    slab: Vec<Option<(K, V)>>,
    remaining: usize,
}

impl<K, V> Iterator for IntoIter<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<Self::Item> {
        let l = self.label?;
        let e = self.list.slots().get(l)?;
        self.label = self.list.next_label_after(l);
        self.remaining -= 1;
        self.slab[e.index()].take()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K, V> ExactSizeIterator for IntoIter<K, V> {}

impl<K: Ord + fmt::Debug, V: fmt::Debug> fmt::Debug for LabelMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Iterator over a key range of a [`LabelMap`], in ascending key order: a
/// label-to-label walk. Its exact [`len`](ExactSizeIterator::len) costs up
/// to two rank resolutions per call; stepping costs none.
pub struct Range<'a, K: Ord, V> {
    map: &'a LabelMap<K, V>,
    /// The label of the next entry to yield.
    next: Option<usize>,
    /// The label of the first entry past the range (`None`: the range runs
    /// to the last entry).
    end: Option<usize>,
}

impl<K: Ord, V> Range<'_, K, V> {
    /// The next label, if it is still inside the range.
    fn pending(&self) -> Option<usize> {
        self.next.filter(|&l| self.end.is_none_or(|e| l < e))
    }
}

impl<'a, K: Ord, V> Iterator for Range<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let l = self.pending()?;
        self.next = self.map.list.next_label_after(l);
        Some(self.map.entry_at(l))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self
            .pending()
            .map_or(0, |l| self.map.rank_of_label(self.end) - self.map.list.rank_at_label(l));
        (n, Some(n))
    }
}

impl<K: Ord, V> ExactSizeIterator for Range<'_, K, V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use lll_core::growable::Handle;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, HashSet};

    /// Recompute every fence from the slot array and the slab, and check
    /// the index against them: one fence per group up to the last
    /// element's, each equal to the key of the first element at or after
    /// its group, a top level of every `STRIDE`-th fence, and no group
    /// left marked. Returns the longest run of empty groups under the
    /// fences.
    fn check_fences<K: Ord + fmt::Debug, V>(map: &LabelMap<K, V>) -> usize {
        let slots = map.list.slots();
        let groups = map.list.last_label().map_or(0, |l| l / GROUP + 1);
        assert_eq!(map.fences.keys.len(), groups, "one fence per group up to the last element's");
        let (mut run, mut longest) = (0, 0);
        for (g, fence) in map.fences.keys.iter().enumerate() {
            let p = slots.next_occupied_at_or_after(g * GROUP).expect("an element after a fence");
            let key = key_at(slots, &map.slab, p);
            assert!(
                fence.cmp(key).is_eq(),
                "fence {g} is {fence:?}, the first key after it {key:?}"
            );
            run = if p / GROUP == g { 0 } else { run + 1 };
            longest = longest.max(run);
        }
        let top = &map.fences.top;
        assert_eq!(top.len(), groups.div_ceil(STRIDE), "one top key per {STRIDE} fences");
        for (t, key) in top.iter().enumerate() {
            let fence = &map.fences.keys[STRIDE * t];
            assert!(
                key.cmp(fence).is_eq(),
                "top key {t} is {key:?}, fence {} {fence:?}",
                STRIDE * t
            );
        }
        let words = slots.num_slots().div_ceil(GROUP).div_ceil(64);
        assert_eq!(map.fences.dirty.len(), words, "marks sized for this epoch's slot array");
        assert!(map.fences.dirty.iter().all(|&w| w == 0), "groups left marked");
        assert!(map.fences.lo > map.fences.hi, "a marked range left open");
        longest
    }

    /// The map against its model at `probes`, through every read the index
    /// serves; the ranks, which the model counts in O(n), only if `ranks`.
    fn check_against(
        map: &LabelMap<u32, u32>,
        model: &BTreeMap<u32, u32>,
        probes: &[u32],
        ranks: bool,
    ) {
        assert_eq!(map.len(), model.len());
        let key = |label: Option<usize>| label.map(|l| *map.entry_at(l).0);
        for &k in probes {
            assert_eq!(map.get(&k), model.get(&k), "get({k})");
            let above = model.range((Bound::Excluded(k), Bound::Unbounded)).next();
            assert_eq!(key(map.lower_bound_label(&k)), model.range(k..).next().map(|e| *e.0));
            assert_eq!(key(map.upper_bound_label(&k)), above.map(|e| *e.0), "upper({k})");
            if ranks {
                assert_eq!(map.lower_bound(&k), model.range(..k).count(), "lower_bound({k})");
                assert_eq!(map.upper_bound(&k), model.range(..=k).count(), "upper_bound({k})");
            }
        }
    }

    /// One seeded differential of every operation that moves elements,
    /// with the fences recomputed after each. Returns the longest run of
    /// empty groups seen during the ascending runs.
    fn fences_follow_every_op(backend: Backend) -> usize {
        let name = backend.name();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFE4CE);
        let builder = ListBuilder::new().backend(backend).seed(0xFE4CE);
        let mut map: LabelMap<u32, u32> = builder.label_map();
        let mut model = BTreeMap::new();
        let mut checks = 0;
        let mut check = |map: &LabelMap<u32, u32>, model: &BTreeMap<u32, u32>, probes: &[u32]| {
            checks += 1;
            check_against(map, model, probes, checks % 16 == 0);
            check_fences(map)
        };

        // Point inserts and removes.
        for i in 0..3000 {
            let k = rng.gen_range(0..4000);
            if rng.gen_range(0..5) < 3 {
                assert_eq!(map.insert(k, i), model.insert(k, i), "[{name}] insert({k})");
            } else {
                assert_eq!(map.remove(&k), model.remove(&k), "[{name}] remove({k})");
            }
            check(&map, &model, &[k, rng.gen_range(0..4100)]);
        }

        // A sorted batch into the non-empty map: first one that fits in
        // place, then one that forces a growth rebuild. Each mixes keys
        // already present with new ones in many gaps.
        let grows = map.grow_stats().grows;
        let free = map.backend().capacity() - map.len();
        let batch: Vec<(u32, u32)> = (0..free as u32 / 2).map(|i| (1000 + 7 * i, i)).collect();
        model.extend(batch.iter().copied());
        map.extend_sorted(batch);
        check(&map, &model, &[999, 1000, 1007, 2000]);
        assert_eq!(map.grow_stats().grows, grows, "[{name}] the first batch fit in place");
        let batch: Vec<(u32, u32)> = (0..3000).map(|i| (2 * i + 1, i)).collect();
        model.extend(batch.iter().copied());
        map.extend_sorted(batch);
        check(&map, &model, &[0, 1, 2, 5999, 6000]);
        assert!(map.grow_stats().grows > grows, "[{name}] the second batch grew the map");

        // split_off and append, with one key on both sides.
        let tail = map.split_off(&2500);
        let mut model_tail = model.split_off(&2500);
        assert!(tail.iter().map(|(k, v)| (k, v)).eq(model_tail.iter()), "[{name}] split_off");
        check(&map, &model, &[2499, 2500]);
        let mut other: LabelMap<u32, u32> = builder.clone().seed(7).label_map();
        other.extend_sorted(tail);
        other.insert(11, 11);
        model_tail.insert(11, 11);
        check_fences(&other);
        map.append(&mut other);
        model.append(&mut model_tail);
        assert!(other.is_empty());
        check_fences(&other);
        check(&map, &model, &[11, 2499, 2500, 5000]);

        // pop_first and pop_last.
        for _ in 0..200 {
            assert_eq!(map.pop_first(), model.pop_first(), "[{name}] pop_first");
            check(&map, &model, &[]);
            assert_eq!(map.pop_last(), model.pop_last(), "[{name}] pop_last");
            check(&map, &model, &[]);
        }

        // Removes down to a tenth of the population, through shrink
        // rebuilds.
        let shrinks = map.grow_stats().shrinks;
        let mut keys: Vec<u32> = model.keys().copied().collect();
        let tenth = keys.len() / 10;
        while keys.len() > tenth {
            let k = keys.swap_remove(rng.gen_range(0..keys.len()));
            assert_eq!(map.remove(&k), model.remove(&k), "[{name}] remove({k})");
            check(&map, &model, &[k]);
        }
        assert!(map.grow_stats().shrinks > shrinks, "[{name}] no shrink rebuild");

        // clear, and the map still serves.
        map.clear();
        model.clear();
        check(&map, &model, &[0]);
        assert_eq!(map.insert(3, 3), None);
        model.insert(3, 3);
        check(&map, &model, &[2, 3, 4]);

        // Ascending runs of 1,000 keys from random starts, the clustered
        // ingest pattern.
        let mut longest = 0;
        for run in 0..8 {
            let base = rng.gen_range(0..1_000_000u32);
            for i in 0..1000 {
                let k = base + 3 * i;
                assert_eq!(map.insert(k, run), model.insert(k, run), "[{name}] insert({k})");
                longest = longest.max(check(&map, &model, &[k, k + 1]));
            }
        }
        longest
    }

    /// Keys that own a buffer: fences reuse it through `clone_from`, and a
    /// shorter or longer key over it must still read back exactly.
    #[test]
    fn fences_of_string_keys_follow_every_op() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5791);
        for backend in [Backend::Classic, Backend::Corollary11] {
            let mut map: LabelMap<String, u32> = ListBuilder::new().backend(backend).label_map();
            let mut model = BTreeMap::new();
            for i in 0..2000 {
                let n: u32 = rng.gen_range(0..600);
                let k = format!("{n:0width$}", width = (n % 7) as usize + 1);
                if rng.gen_range(0..3) < 2 {
                    assert_eq!(map.insert(k.clone(), i), model.insert(k.clone(), i));
                } else {
                    assert_eq!(map.remove(&k), model.remove(&k));
                }
                check_fences(&map);
                assert_eq!(map.get(&k), model.get(&k), "[{backend}] get({k})");
            }
        }
    }

    #[test]
    fn fences_follow_every_op_on_every_backend() {
        for backend in Backend::ALL {
            let longest = fences_follow_every_op(backend);
            // Corollary 11's ascending runs leave empty stretches of more
            // than 64 groups (83 at this seed), each refilled from the
            // group after it.
            if backend == Backend::Corollary11 {
                assert!(longest >= 64, "ascending runs left no long empty stretch ({longest})");
            }
        }
    }

    /// The two-level search against a lower bound over every fence, for
    /// every fence count from 0 to 80 (so every multiple of `STRIDE` and
    /// its neighbours), on `u32` and `String` keys, with repeated fences as
    /// empty groups leave them, and predicates that pass no fence, some
    /// fences and every fence.
    #[test]
    fn two_level_search_matches_partition_point() {
        fn check<K: Ord + Clone + fmt::Debug>(keys: Vec<K>, probes: &[K]) {
            let top = keys.iter().step_by(STRIDE).cloned().collect();
            let fences = Fences { keys, top, dirty: Vec::new(), lo: 1, hi: 0 };
            for probe in probes {
                for strict in [true, false] {
                    let before = |k: &K| if strict { k < probe } else { k <= probe };
                    assert_eq!(
                        fences.partition_point(before),
                        fences.keys.partition_point(before),
                        "{} fences, probe {probe:?}, strict {strict}",
                        fences.keys.len()
                    );
                }
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x70F);
        for n in 0..=80 {
            let mut keys = Vec::with_capacity(n);
            let mut key = 10u32;
            for _ in 0..n {
                keys.push(key);
                key += 2 * rng.gen_range(0..3u32);
            }
            // From below every fence to above every fence, between and on.
            let probes: Vec<u32> = (0..=key + 1).collect();
            let text = |k: &u32| format!("{k:05}");
            check(keys.iter().map(text).collect(), &probes.iter().map(text).collect::<Vec<_>>());
            check(keys, &probes);
        }
    }

    /// A search that lands in the last group of a slot array whose length
    /// is not a multiple of 64 reads that group's bitmap word, whose bits
    /// past the end are clear: no slot past the end is taken for an
    /// element.
    #[test]
    fn searches_in_a_partial_last_group_stay_in_the_array() {
        const N: u32 = 2048;
        let builder = ListBuilder::new().backend(Backend::Corollary11).seed(3);
        let map = builder.label_map_from_sorted((0..N).map(|k| (2 * k, k)).collect());
        check_fences(&map);
        let slots = map.backend().slots();
        assert_eq!(slots.num_slots(), 6442, "Corollary 11 at capacity {N}");
        let g = slots.num_slots() / GROUP;
        let word = slots.bitmap().word(g);
        assert_eq!(word >> (slots.num_slots() % GROUP), 0, "no bit past the end");
        assert!(word.count_ones() > 1, "the last group holds {} elements", word.count_ones());
        for label in (g * GROUP..slots.num_slots()).filter(|&l| slots.is_occupied(l)) {
            let (&k, &v) = map.entry_at(label);
            assert_eq!(map.get(&k), Some(&v));
            assert_eq!(map.lower_bound_label(&k), Some(label));
            assert_eq!(map.lower_bound_label(&(k + 1)), map.upper_bound_label(&k), "after {k}");
            assert_eq!(map.get(&(k + 1)), None);
        }
        assert_eq!(map.lower_bound_label(&(2 * N - 2)), map.backend().last_label());
        assert_eq!(map.upper_bound_label(&(2 * N - 2)), None, "past the last key");
    }

    #[test]
    fn point_ops_match_btreemap() {
        let mut map: LabelMap<u64, u64> = LabelMap::new();
        let mut model = BTreeMap::new();
        // deterministic mixed workload with duplicate keys
        let mut x = 9u64;
        for i in 0..800u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = x % 200;
            match x % 3 {
                0 | 1 => {
                    assert_eq!(map.insert(k, i), model.insert(k, i), "insert({k}) diverged");
                }
                _ => {
                    assert_eq!(map.remove(&k), model.remove(&k), "remove({k}) diverged");
                }
            }
            assert_eq!(map.len(), model.len());
        }
        for k in 0..200 {
            assert_eq!(map.get(&k), model.get(&k), "get({k}) diverged");
        }
        assert_eq!(map.first_key_value(), model.first_key_value());
        assert_eq!(map.last_key_value(), model.last_key_value());
    }

    #[test]
    fn range_scans_match_btreemap() {
        let mut map: LabelMap<u32, String> = LabelMap::new();
        let mut model = BTreeMap::new();
        for k in (0..300).step_by(3) {
            map.insert(k, format!("v{k}"));
            model.insert(k, format!("v{k}"));
        }
        let collect =
            |it: Vec<(&u32, &String)>| -> Vec<u32> { it.iter().map(|(k, _)| **k).collect() };
        for (lo, hi) in [(0, 100), (7, 8), (50, 250), (299, 300), (100, 100)] {
            assert_eq!(
                collect(map.range(lo..hi).collect()),
                collect(model.range(lo..hi).collect()),
                "[{lo}, {hi}) diverged"
            );
            assert_eq!(
                collect(map.range(lo..=hi).collect()),
                collect(model.range(lo..=hi).collect()),
                "[{lo}, {hi}] diverged"
            );
        }
        assert_eq!(collect(map.range(..).collect()), collect(model.range(..).collect()));
        assert_eq!(map.iter().len(), model.len());
    }

    #[test]
    fn every_backend_serves_a_map() {
        for backend in Backend::ALL {
            let mut map: LabelMap<u32, u32> =
                ListBuilder::new().backend(backend).seed(13).label_map();
            for k in (0..300u32).rev() {
                map.insert(k, k * 2);
            }
            assert_eq!(map.len(), 300, "{}", backend.name());
            assert_eq!(map.get(&123), Some(&246), "{}", backend.name());
            let keys: Vec<u32> = map.keys().copied().collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{} unsorted", backend.name());
        }
    }

    #[test]
    fn from_iterator_and_extend() {
        let map: LabelMap<i32, i32> = (0..50).map(|k| (k, -k)).collect();
        assert_eq!(map.len(), 50);
        assert_eq!(map.get(&30), Some(&-30));
        // Unsorted input with repeated keys, collected and then extended
        // into the non-empty map: the values a `BTreeMap` holds, the last
        // write winning.
        let batch: Vec<(i32, i32)> = (0..200).map(|i| ((i * 37) % 61, i)).collect();
        let mut map: LabelMap<i32, i32> = batch.iter().copied().collect();
        let mut model: BTreeMap<i32, i32> = batch.iter().copied().collect();
        assert!(map.iter().eq(model.iter()));
        let shifted = batch.iter().map(|&(k, v)| (k + 30, v + 1000));
        map.extend(shifted.clone());
        model.extend(shifted);
        assert!(map.iter().eq(model.iter()));
        assert_eq!(map.get(&60), Some(&1197), "the last of the batch's four writes to 60");
    }

    #[test]
    fn borrowed_key_lookups() {
        let mut map: LabelMap<String, u32> = LabelMap::new();
        for (i, name) in ["ash", "beech", "cedar", "elm", "oak"].iter().enumerate() {
            map.insert(name.to_string(), i as u32);
        }
        assert_eq!(map.get("cedar"), Some(&2));
        assert!(map.contains_key("oak"));
        assert!(!map.contains_key("yew"));
        *map.get_mut("elm").unwrap() += 10;
        assert_eq!(map.get("elm"), Some(&13));
        assert_eq!(map.lower_bound("c"), 2);
        assert_eq!(map.upper_bound("cedar"), 3);
        // Unsized-key ranges take the tuple-of-bounds form, as with BTreeMap.
        let bounds = (Bound::Included("beech"), Bound::Excluded("oak"));
        let mid: Vec<&str> = map.range::<str, _>(bounds).map(|(k, _)| k.as_str()).collect();
        assert_eq!(mid, ["beech", "cedar", "elm"]);
        assert_eq!(map.remove("ash"), Some(0));
        assert_eq!(map.remove("ash"), None);
        assert_eq!(map.len(), 4);
    }

    #[test]
    fn from_sorted_iter_matches_btreemap_with_fewer_moves() {
        let n = 3000u32;
        let bulk: LabelMap<u32, u32> = LabelMap::from_sorted_iter((0..n).map(|k| (k, k * 7)));
        let mut inc: LabelMap<u32, u32> = LabelMap::new();
        let mut model = BTreeMap::new();
        for k in 0..n {
            inc.insert(k, k * 7);
            model.insert(k, k * 7);
        }
        assert_eq!(bulk.len(), model.len());
        assert!(bulk.iter().map(|(k, v)| (*k, *v)).eq(model.iter().map(|(k, v)| (*k, *v))));
        assert!(
            bulk.total_moves() < inc.total_moves(),
            "bulk {} !< incremental {}",
            bulk.total_moves(),
            inc.total_moves()
        );
    }

    #[test]
    fn from_sorted_iter_duplicates_last_write_wins() {
        let map = LabelMap::from_sorted_iter([(1, "a"), (1, "b"), (2, "c"), (2, "d"), (2, "e")]);
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&1), Some(&"b"));
        assert_eq!(map.get(&2), Some(&"e"));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn from_sorted_iter_rejects_descending_input() {
        let _ = LabelMap::from_sorted_iter([(3, ()), (1, ())]);
    }

    #[test]
    fn extend_sorted_merges_into_existing_map() {
        let mut map: LabelMap<u32, &str> = LabelMap::new();
        let mut model = BTreeMap::new();
        for k in (0..400).step_by(4) {
            map.insert(k, "old");
            model.insert(k, "old");
        }
        // Sorted batch: interleaving new keys, existing keys (replaced),
        // head and tail extensions.
        let batch: Vec<(u32, &str)> = (0..500).filter(|k| k % 3 == 0).map(|k| (k, "new")).collect();
        map.extend(batch.clone());
        model.extend(batch);
        assert_eq!(map.len(), model.len());
        assert!(map.iter().map(|(k, v)| (*k, *v)).eq(model.iter().map(|(k, v)| (*k, *v))));
    }

    #[test]
    fn ascending_run_counts_insertions_at_consecutive_ranks() {
        // The run's length after each insertion of `keys`.
        let runs = |map: &mut LabelMap<u32, u32>, keys: &[u32]| -> Vec<usize> {
            keys.iter()
                .map(|&k| {
                    map.insert(k, k);
                    map.ascending_run()
                })
                .collect()
        };
        let mut map = LabelMap::new();
        assert_eq!(map.ascending_run(), 0, "a new map takes no run");
        assert_eq!(runs(&mut map, &[10, 20, 30, 40]), [1, 2, 3, 4], "appends");
        assert_eq!(runs(&mut map, &[11, 12, 13]), [1, 2, 3], "between present keys");
        assert_eq!(runs(&mut map, &[9, 8, 7]), [1, 1, 1], "descending keys");
        // 14 lands elsewhere and starts a run; overwriting 20 inserts
        // nothing and leaves the run as it is.
        assert_eq!(runs(&mut map, &[14, 15, 20, 16]), [1, 2, 2, 3]);
        map.remove(&40);
        assert_eq!(map.ascending_run(), 0, "a removal ends the run");
        assert_eq!(runs(&mut map, &[17, 18]), [1, 2]);
        map.extend_sorted(vec![(18, 0)]);
        assert_eq!(map.ascending_run(), 0, "a sorted batch ends the run");
        assert_eq!(runs(&mut map, &[51, 52]), [1, 2]);
        map.append(&mut LabelMap::from_sorted_iter([(60, 60)]));
        assert_eq!(map.ascending_run(), 0, "a merge ends the run");
        assert_eq!(runs(&mut map, &[61, 62]), [1, 2]);
        map.pop_last();
        assert_eq!(map.ascending_run(), 0, "a pop ends the run");
        map.insert(63, 63);
        map.clear();
        assert_eq!(map.ascending_run(), 0, "clear ends the run");
    }

    #[test]
    fn the_run_counter_sits_a_cache_line_past_the_read_fields() {
        use std::mem::{offset_of, size_of};
        type M = LabelMap<u64, [u8; 32]>;
        let read_fields_end = [
            offset_of!(M, list) + size_of::<ErasedList>(),
            offset_of!(M, slab) + size_of::<Vec<Option<(u64, [u8; 32])>>>(),
            offset_of!(M, fences) + offset_of!(Fences<u64>, keys) + size_of::<Vec<u64>>(),
            offset_of!(M, fences) + offset_of!(Fences<u64>, top) + size_of::<Vec<u64>>(),
        ];
        let read_fields_end = read_fields_end.into_iter().max().expect("four fields");
        assert!(
            offset_of!(M, run) >= read_fields_end + 64,
            "the run counter at byte {} is within a cache line of the read fields, which end \
             at byte {read_fields_end}",
            offset_of!(M, run)
        );
    }

    #[test]
    fn checked_rank_accessor() {
        let map = LabelMap::from_sorted_iter((0..5).map(|k| (k, ())));
        assert_eq!(map.get_key_at_rank(0), Some(&0));
        assert_eq!(map.get_key_at_rank(4), Some(&4));
        assert_eq!(map.get_key_at_rank(5), None);
        let empty: LabelMap<u8, ()> = LabelMap::new();
        assert_eq!(empty.get_key_at_rank(0), None);
    }

    #[test]
    fn owned_iteration_and_debug() {
        let map = LabelMap::from_sorted_iter((0..10).map(|k| (k, k * k)));
        assert_eq!(
            format!("{:?}", map.range(0..3).collect::<Vec<_>>()),
            "[(0, 0), (1, 1), (2, 4)]"
        );
        let dbg = format!("{map:?}");
        assert!(dbg.starts_with('{') && dbg.contains("3: 9"), "unexpected Debug: {dbg}");
        let by_ref: Vec<(i32, i32)> = (&map).into_iter().map(|(k, v)| (*k, *v)).collect();
        let owned: Vec<(i32, i32)> = map.into_iter().collect();
        assert_eq!(owned, by_ref);
        assert_eq!(owned.len(), 10);
        assert!(owned.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn pop_clear_and_export_hooks() {
        let mut map = LabelMap::from_sorted_iter((0..100u32).map(|k| (k, k * 3)));
        assert_eq!(map.pop_first(), Some((0, 0)));
        assert_eq!(map.pop_last(), Some((99, 297)));
        assert_eq!(map.len(), 98);
        // split_off drains the suffix sorted, keeping the prefix intact.
        let tail = map.split_off(&50);
        assert_eq!(tail.first(), Some(&(50, 150)));
        assert_eq!(tail.last(), Some(&(98, 294)));
        assert!(tail.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(map.len(), 49);
        assert_eq!(map.last_key_value(), Some((&49, &147)));
        // append moves everything back (bulk path), last write wins.
        let mut other = LabelMap::from_sorted_iter(tail);
        other.insert(10, 9999); // overlaps the retained prefix
        map.append(&mut other);
        assert!(other.is_empty());
        assert_eq!(map.len(), 98);
        assert_eq!(map.get(&10), Some(&9999));
        assert_eq!(map.get(&98), Some(&294));
        // into_sorted_vec is the full export.
        let dump = map.into_sorted_vec();
        assert_eq!(dump.len(), 98);
        assert!(dump.windows(2).all(|w| w[0].0 < w[1].0));
        // clear empties but keeps the map usable.
        let mut map = LabelMap::from_sorted_iter((0..500u32).map(|k| (k, ())));
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.pop_first(), None);
        assert_eq!(map.pop_last(), None);
        map.insert(7, ());
        assert_eq!(map.len(), 1);
    }

    /// The live handles of `map`'s backend.
    fn live_handles(map: &LabelMap<u32, u32>) -> Vec<Handle> {
        map.backend().slots().iter_occupied().map(|(_, e)| map.backend().handle(e)).collect()
    }

    #[test]
    fn append_and_clear_empty_by_reset_on_every_backend() {
        for backend in Backend::ALL {
            let builder = ListBuilder::new().backend(backend).seed(5);
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xA99E);
            // A bulk-loaded, then churned map, and a second one with
            // overlapping keys.
            let mut other = builder.label_map::<u32, u32>();
            let mut other_ref = BTreeMap::new();
            other.extend_sorted((0..2048).map(|k| (k * 3, k)).collect());
            other_ref.extend((0..2048).map(|k| (k * 3, k)));
            for _ in 0..500 {
                let k = rng.gen_range(0..6144);
                if rng.gen_bool(0.5) {
                    assert_eq!(other.insert(k, k), other_ref.insert(k, k));
                } else {
                    assert_eq!(other.remove(&k), other_ref.remove(&k));
                }
            }
            let mut map = builder.label_map::<u32, u32>();
            let mut map_ref = BTreeMap::new();
            for k in (0..3000).step_by(7) {
                assert_eq!(map.insert(k, k + 1), map_ref.insert(k, k + 1));
            }

            let before: HashSet<Handle> = live_handles(&other).into_iter().collect();
            let (moves, epoch) = (other.total_moves(), other.backend().epoch());
            map.append(&mut other);
            map_ref.append(&mut other_ref);
            assert_eq!(other.total_moves(), moves, "{backend}: append moved other's elements");
            assert_eq!(other.backend().epoch(), epoch + 1, "{backend}: one epoch bump");
            assert!(other.is_empty() && other.iter().next().is_none());
            assert!(map.iter().eq(map_ref.iter()), "{backend}: append diverged from BTreeMap");

            // The emptied map is usable, and its new handles are fresh ids.
            for k in 0..600 {
                assert_eq!(other.insert(k, k), other_ref.insert(k, k));
            }
            assert!(other.iter().eq(other_ref.iter()), "{backend}: reuse after append diverged");
            let reissued = live_handles(&other).into_iter().filter(|h| before.contains(h)).count();
            assert_eq!(
                reissued, 0,
                "{backend}: a handle issued after the reset repeats an old one"
            );

            let (moves, epoch) = (map.total_moves(), map.backend().epoch());
            map.clear();
            map_ref.clear();
            assert_eq!(map.total_moves(), moves, "{backend}: clear moved elements");
            assert_eq!(map.backend().epoch(), epoch + 1, "{backend}: one epoch bump");
            assert!(map.is_empty() && map.first_key_value().is_none());
            for k in (0..900).rev() {
                assert_eq!(map.insert(k, 1), map_ref.insert(k, 1));
            }
            assert!(map.iter().eq(map_ref.iter()), "{backend}: reuse after clear diverged");
            check_fences(&map);
            check_fences(&other);
        }
    }

    #[test]
    fn iter_walks_labels_without_rank_resolution_or_snapshot_allocs() {
        let mut map: LabelMap<u32, u32> = ListBuilder::new().backend(Backend::Classic).label_map();
        for k in 0..500 {
            map.insert(k * 2, k);
        }
        let resolutions = |map: &LabelMap<u32, u32>| map.metrics().rank_resolutions.get();
        let before = resolutions(&map);
        let collected: Vec<(u32, u32)> = map.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(collected.len(), 500);
        assert!(collected.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(resolutions(&map), before, "iter must walk labels, not resolve ranks");
        // ExactSizeIterator stays honest mid-walk.
        let mut it = map.iter();
        assert_eq!(it.len(), 500);
        it.next();
        it.next();
        assert_eq!(it.len(), 498);
        // Keyed lookups search labels: they resolve no rank at all.
        let r0 = resolutions(&map);
        for k in 0..1000 {
            assert_eq!(map.get(&k).is_some(), map.contains_key(&k));
        }
        assert_eq!(resolutions(&map), r0, "get/contains_key must not resolve ranks");
        // A fresh insertion or a removal resolves exactly one, for the
        // backend; replacing a value or missing a key resolves none.
        for (op, want) in [(0, 1), (1, 0), (2, 1), (3, 0)] {
            let r0 = resolutions(&map);
            match op {
                0 => assert_eq!(map.insert(7, 0), None),
                1 => assert_eq!(map.insert(7, 1), Some(0)),
                2 => assert_eq!(map.remove(&7), Some(1)),
                _ => assert_eq!(map.remove(&7), None),
            }
            assert_eq!(resolutions(&map) - r0, want, "op {op}");
        }
        // A range walks labels: at most two resolutions (for its exact
        // length), however far it goes.
        for k in [0, 1, 10, 100, 1000] {
            let r0 = resolutions(&map);
            let got: Vec<(&u32, &u32)> = map.range(10..).take(k).collect();
            assert_eq!(got.len(), k.min(495));
            assert!(resolutions(&map) - r0 <= 2, "range().take({k}) resolved too many ranks");
        }
        // The owning iterator walks the same way.
        let owned: Vec<(u32, u32)> = map.into_iter().collect();
        assert_eq!(owned, collected);
    }

    #[test]
    fn snapshot_roundtrip_preserves_entries_and_order() {
        for backend in Backend::ALL {
            let mut map: LabelMap<u64, String> =
                ListBuilder::new().backend(backend).seed(21).label_map();
            for k in 0..300u64 {
                map.insert(k * 7 % 1024, format!("v{k}"));
            }
            let mut buf = Vec::new();
            map.write_snapshot(&mut buf).unwrap();
            let back: LabelMap<u64, String> = LabelMap::read_snapshot(&mut buf.as_slice()).unwrap();
            assert_eq!(back.len(), map.len(), "{backend}");
            assert_eq!(back.backend_name(), map.backend_name(), "{backend}");
            assert!(back.iter().eq(map.iter()), "{backend} iteration diverged");
        }
    }

    #[test]
    fn snapshot_of_empty_map_roundtrips() {
        let map: LabelMap<u8, u8> = LabelMap::new();
        let mut buf = Vec::new();
        map.write_snapshot(&mut buf).unwrap();
        let back: LabelMap<u8, u8> = LabelMap::read_snapshot(&mut buf.as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.iter().len(), 0);
    }

    #[test]
    fn map_cursor_walks_and_seeks() {
        let map = LabelMap::from_sorted_iter((0..300).filter(|k| k % 3 == 0).map(|k| (k, k + 1)));
        // Full forward walk == iter().
        let mut cur = map.cursor_front();
        let mut walked = Vec::new();
        while let Some((k, v)) = cur.entry() {
            walked.push((*k, *v));
            cur.move_next();
        }
        assert!(walked.iter().copied().eq(map.iter().map(|(k, v)| (*k, *v))));
        // Walking off the back is recoverable.
        assert!(cur.move_next().is_none());
        assert_eq!(cur.move_prev(), Some((&297, &298)));
        // Seek lands on the lower bound.
        assert_eq!(map.cursor_at(&100).key(), Some(&102));
        assert_eq!(map.cursor_at(&102).key(), Some(&102));
        assert!(map.cursor_at(&298).entry().is_none());
        assert_eq!(map.cursor_back().key(), Some(&297));
        // Backward walk mirrors forward.
        let mut cur = map.cursor_back();
        let mut rev = Vec::new();
        while let Some((k, v)) = cur.entry() {
            rev.push((*k, *v));
            cur.move_prev();
        }
        rev.reverse();
        assert_eq!(rev, walked);
    }
}
