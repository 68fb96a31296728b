//! Element indices, element lifetimes, their allocator, and tables indexed
//! by them.
//!
//! List-labeling algorithms treat stored elements as black boxes (paper §2:
//! "the only information that it knows about the elements is their relative
//! ranks"). An [`ElemId`] is that black box: a 4-byte index that the
//! *caller* hands to each insertion and that comes back in move logs.
//! Structures store, move and log indices; they never allocate them. The
//! two layers that number elements for the structure below them
//! (`Growable`, and the layered embedding for its R-shell) each draw them
//! from an [`IdAllocator`], which reissues a deleted element's index to the
//! next insertion, so indices stay below the peak population and
//! per-element data can live in a `Vec` (or an [`IdTable`]) at
//! [`ElemId::index`].
//!
//! ## Index against lifetime
//!
//! An index names one element while it is stored, and no two stored
//! elements share one, so every slot array, move log, per-element table
//! and read of a live element uses the bare index. A [`Stamp`] adds a
//! 4-byte generation and names one *lifetime* of an index: the pair is
//! needed only where an id outlives its element and the index may
//! meanwhile come back as another element. Two places keep generations,
//! each for that reason:
//!
//! * `Growable` hands its callers [`Handle`](crate::growable::Handle)s,
//!   which a caller may keep past the element's deletion: its allocator
//!   keeps each issued index's generation in a [`Generations`] table and
//!   attaches it wherever it hands out a handle.
//! * The deamortized PMA (`lll-deamortized`) queues a frozen plan whose
//!   entries may outlive their elements: queue entries hold stamps, and
//!   the PMA keeps each index's generation beside its slot, in its own
//!   table's 8-byte entry.
//!
//! An [`IdTable`] numbers no lifetimes: it holds a value per held index
//! and nothing for a vacant one. The layered embedding (`lll-embedding`'s
//! `Embed`) keeps deleted elements too, as ghosts and as a pending
//! checkpoint's deleted targets, but names each by a ticket its deletion
//! takes from a per-embedding counter, so its table holds no generation.

use std::collections::HashMap;
use std::fmt;

/// The index of one stored element: 4 bytes in every slot and move record.
///
/// Indices are issued by an [`IdAllocator`] (or, in tests and experiments,
/// an [`IdGen`]); no two elements a structure stores share one, and a
/// deleted element's index may be issued again at once. Equality/ordering
/// on `ElemId` is identity only — it says nothing about element rank.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElemId(pub u32);

impl ElemId {
    /// Sentinel for "no element" in packed slot storage (the
    /// [`SlotArray`](crate::slot_array::SlotArray) contents array stores
    /// bare `ElemId`s at 4 bytes per slot instead of 8-byte
    /// `Option<ElemId>`s). Index `u32::MAX` is never issued.
    pub const NONE: ElemId = ElemId(u32::MAX);

    /// The index, for per-element tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ElemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for ElemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One lifetime of an element index: the [`ElemId`] in the low 32 bits and
/// a generation in the high 32 bits. Two lifetimes of one index differ in
/// generation, so a stamp held past its element's deletion never matches
/// the element that takes the index next.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Stamp(pub u64);

impl Stamp {
    /// The lifetime `generation` of `elem`'s index.
    #[inline]
    pub fn new(elem: ElemId, generation: u32) -> Self {
        Stamp(u64::from(generation) << 32 | u64::from(elem.0))
    }

    /// The element index (low 32 bits).
    #[inline]
    pub fn elem(self) -> ElemId {
        ElemId(self.0 as u32)
    }

    /// The element index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.elem().index()
    }

    /// The generation (high 32 bits).
    #[inline]
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl fmt::Debug for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}g{}", self.elem().0, self.generation())
    }
}

/// The index allocator: a deleted element's index is issued again, most
/// recently freed first, so the indices in use stay below the peak number
/// of live elements. Index `u32::MAX` belongs to [`ElemId::NONE`] and is
/// never issued.
#[derive(Clone, Debug, Default)]
pub struct IdAllocator {
    /// Released indices, most recent last.
    free: Vec<ElemId>,
    /// One past the largest index issued so far.
    next_index: u32,
}

impl IdAllocator {
    /// An allocator that has issued nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh index: the most recently released one, else the next
    /// unissued one.
    #[inline]
    pub fn fresh(&mut self) -> ElemId {
        if let Some(id) = self.free.pop() {
            return id;
        }
        let index = self.next_index;
        assert!(index < u32::MAX, "element id space exhausted");
        self.next_index += 1;
        ElemId(index)
    }

    /// `count` fresh indices, in allocation order.
    pub fn fresh_n(&mut self, count: usize) -> Vec<ElemId> {
        (0..count).map(|_| self.fresh()).collect()
    }

    /// Make a deleted element's index reusable.
    #[inline]
    pub fn release(&mut self, id: ElemId) {
        self.free.push(id);
    }

    /// Never issue an index at or below `max_index` again, and forget the
    /// released ones: indices minted elsewhere (a restored snapshot's
    /// handles) now hold values this allocator did not issue.
    pub fn skip_through(&mut self, max_index: u32) {
        self.free.clear();
        self.next_index = self.next_index.max(max_index.saturating_add(1));
    }
}

/// Monotone id generator for tests and experiments that drive a
/// fixed-capacity structure directly. It never reuses an index, so its
/// indices grow with every call; structures that number their own
/// elements use [`IdAllocator`].
#[derive(Clone, Debug, Default)]
pub struct IdGen {
    next: u32,
}

impl IdGen {
    /// Create a generator starting at id 0.
    pub fn new() -> Self {
        Self { next: 0 }
    }

    /// Allocate the next fresh id.
    #[inline]
    pub fn fresh(&mut self) -> ElemId {
        let id = ElemId(self.next);
        self.next += 1;
        id
    }

    /// `count` fresh ids, in allocation order.
    pub fn fresh_n(&mut self, count: usize) -> Vec<ElemId> {
        (0..count).map(|_| self.fresh()).collect()
    }
}

/// The capacity a dense `Vec` that doubles on demand reaches to hold index
/// `i`, from `cap`, never past `limit` (which `i` is below).
#[inline]
fn doubled_for(cap: usize, i: usize, limit: usize) -> usize {
    (2 * cap).clamp(i + 1, limit)
}

/// Grow `dense` to hold index `i`: its capacity doubles, clamped to
/// `limit`, so a full table holds exactly `limit` entries, not the next
/// power of two.
#[inline]
fn grow_to<E>(dense: &mut Vec<E>, i: usize, limit: usize, vacant: impl FnMut() -> E) {
    if i >= dense.len() {
        if i >= dense.capacity() {
            let want = doubled_for(dense.capacity(), i, limit);
            dense.reserve_exact(want - dense.len());
        }
        dense.resize_with(i + 1, vacant);
    }
}

/// The generation of every index an [`IdAllocator`] issues: the
/// generation of the index's current lifetime while it is live, of its
/// next one while it is free. A generation of 0 is not stored, so a table
/// over indices that were never reused holds nothing: every index a bulk
/// load issues is in its first lifetime.
///
/// Indices below the dense limit live in a `Vec` grown on demand to the
/// largest one with a nonzero generation (doubling, but never past the
/// limit); larger ones go to a `HashMap`, so the table never allocates in
/// proportion to an index a restored snapshot brought in.
#[derive(Clone, Debug, Default)]
pub struct Generations {
    dense: Vec<u32>,
    sparse: HashMap<ElemId, u32>,
    dense_limit: usize,
}

impl Generations {
    /// A table in which every index has generation 0, dense below
    /// `dense_limit`.
    pub fn new(dense_limit: usize) -> Self {
        Self { dense: Vec::new(), sparse: HashMap::new(), dense_limit }
    }

    /// The generation of `id`'s index.
    #[inline]
    pub fn get(&self, id: ElemId) -> u32 {
        let i = id.index();
        if i < self.dense_limit {
            self.dense.get(i).copied().unwrap_or(0)
        } else {
            self.sparse.get(&id).copied().unwrap_or(0)
        }
    }

    /// Set the generation of `id`'s index.
    pub fn set(&mut self, id: ElemId, generation: u32) {
        let i = id.index();
        if i >= self.dense_limit {
            if generation == 0 {
                self.sparse.remove(&id);
            } else {
                self.sparse.insert(id, generation);
            }
        } else if generation != 0 || i < self.dense.len() {
            grow_to(&mut self.dense, i, self.dense_limit, || 0);
            self.dense[i] = generation;
        }
    }

    /// Keep indices below `limit` dense from now on, moving those the map
    /// holds into the `Vec`. A lower limit changes nothing: the table stays
    /// dense below the largest limit it has had.
    pub fn raise_dense_limit(&mut self, limit: usize) {
        if limit <= self.dense_limit {
            return;
        }
        self.dense_limit = limit;
        let moved: Vec<(ElemId, u32)> = self
            .sparse
            .iter()
            .filter(|(id, _)| id.index() < limit)
            .map(|(&id, &g)| (id, g))
            .collect();
        for (id, generation) in moved {
            self.sparse.remove(&id);
            self.set(id, generation);
        }
    }
}

/// Data of type `T` for each element a structure currently holds, stored
/// at the element's [`index`](ElemId::index): a lookup of a held element
/// is a bounds check and one read, no hashing.
///
/// An entry is an `Option<T>`, `None` while its index is vacant, and holds
/// nothing else: the table does not number an index's lifetimes. A `T`
/// with a niche (a `NonZeroU32`, say) puts the `None` in it, so an entry
/// takes exactly `size_of::<T>()` bytes. A structure that must tell two
/// lifetimes of an index apart keeps that in its own `T` or names the
/// lifetime some other way (see the module docs).
///
/// Indices below `dense_limit` (which the owner sets to its own capacity)
/// live in a `Vec` grown on demand to the largest one inserted. Its
/// capacity doubles as it grows but never passes `dense_limit`, so a full
/// table holds exactly `dense_limit` entries, not the next power of two.
/// Larger indices go to a `HashMap`, so the table never allocates in
/// proportion to an index. Indices from an [`IdAllocator`] stay below the
/// peak number of live ids; only ids that outlived a shrink, or came in
/// from a restored snapshot, can land there.
#[derive(Clone, Debug)]
pub struct IdTable<T> {
    /// `dense[i]`: the value of index `i`, if held.
    dense: Vec<Option<T>>,
    /// Values of held indices at `dense_limit` or more.
    sparse: HashMap<ElemId, T>,
    dense_limit: usize,
}

impl<T> IdTable<T> {
    /// An empty table, dense below `dense_limit`.
    pub fn new(dense_limit: usize) -> Self {
        Self { dense: Vec::new(), sparse: HashMap::new(), dense_limit }
    }

    /// The value of `id`, if the table holds it.
    #[inline]
    pub fn get(&self, id: ElemId) -> Option<&T> {
        let i = id.index();
        if i < self.dense_limit {
            self.dense.get(i)?.as_ref()
        } else {
            self.sparse.get(&id)
        }
    }

    /// Mutable access to the value of `id`, if the table holds it.
    #[inline]
    pub fn get_mut(&mut self, id: ElemId) -> Option<&mut T> {
        let i = id.index();
        if i < self.dense_limit {
            self.dense.get_mut(i)?.as_mut()
        } else {
            self.sparse.get_mut(&id)
        }
    }

    /// Set the value of `id`.
    #[inline]
    pub fn insert(&mut self, id: ElemId, value: T) {
        let i = id.index();
        if i >= self.dense_limit {
            self.sparse.insert(id, value);
            return;
        }
        grow_to(&mut self.dense, i, self.dense_limit, || None);
        self.dense[i] = Some(value);
    }

    /// Reserve, in one allocation, the dense capacity that inserting `ids`
    /// in this order would reach by doubling, so a bulk insert neither
    /// reallocates nor leaves the doubling's smaller buffers behind. The
    /// capacity reached is the same either way.
    pub fn reserve_for(&mut self, ids: impl IntoIterator<Item = ElemId>) {
        let mut cap = self.dense.capacity();
        for i in ids.into_iter().map(ElemId::index) {
            if i < self.dense_limit && i >= cap {
                cap = doubled_for(cap, i, self.dense_limit);
            }
        }
        self.dense.reserve_exact(cap - self.dense.len());
    }

    /// Remove `id`, returning its value if the table held it.
    #[inline]
    pub fn remove(&mut self, id: ElemId) -> Option<T> {
        let i = id.index();
        if i < self.dense_limit {
            self.dense.get_mut(i)?.take()
        } else {
            self.sparse.remove(&id)
        }
    }

    /// Every held id with its value: dense indices ascending, then the
    /// sparse ones in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (ElemId, &T)> + '_ {
        let dense = self.dense.iter().enumerate();
        dense
            .filter_map(|(i, v)| v.as_ref().map(|value| (ElemId(i as u32), value)))
            .chain(self.sparse.iter().map(|(&id, value)| (id, value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_fresh_and_monotone() {
        let mut g = IdGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert_ne!(a, b);
        assert!(a < b);
        assert_eq!(g.fresh_n(2), [ElemId(2), ElemId(3)]);
    }

    #[test]
    fn ids_are_four_bytes_and_stamps_eight() {
        assert_eq!(std::mem::size_of::<ElemId>(), 4);
        assert_eq!(std::mem::size_of::<Stamp>(), 8);
        assert_eq!(ElemId::NONE.index(), u32::MAX as usize);
    }

    /// A `Growable` handle is a stamp: this is its bit layout, which
    /// `OrderedList` snapshots persist.
    #[test]
    fn a_stamp_keeps_the_index_low_and_the_generation_high() {
        let s = Stamp::new(ElemId(7), 3);
        assert_eq!(s.0, 3 << 32 | 7);
        assert_eq!((s.elem(), s.index(), s.generation()), (ElemId(7), 7, 3));
        assert_eq!(Stamp(5).elem(), ElemId(5));
        assert_eq!(Stamp(5).generation(), 0);
        assert_eq!(format!("{s:?}"), "e7g3");
    }

    #[test]
    fn allocator_reuses_indices_most_recent_first() {
        let mut ids = IdAllocator::new();
        let (a, b) = (ids.fresh(), ids.fresh());
        assert_eq!((a, b), (ElemId(0), ElemId(1)));
        ids.release(a);
        ids.release(b);
        assert_eq!(ids.fresh_n(3), [ElemId(1), ElemId(0), ElemId(2)]);
        // Restored ids push new indices past them and void the free list.
        ids.release(ElemId(0));
        ids.skip_through(9);
        assert_eq!(ids.fresh(), ElemId(10));
    }

    #[test]
    fn generations_store_only_nonzero_values() {
        let mut g = Generations::new(8);
        assert_eq!(g.get(ElemId(3)), 0);
        g.set(ElemId(3), 0);
        assert_eq!(g.dense.capacity(), 0, "a zero generation allocated");
        g.set(ElemId(3), 2);
        g.set(ElemId(u32::MAX - 1), 5);
        assert_eq!((g.get(ElemId(3)), g.get(ElemId(u32::MAX - 1))), (2, 5));
        assert!(g.dense.len() <= 8, "the far index reached the dense table");
        g.set(ElemId(u32::MAX - 1), 0);
        assert!(g.sparse.is_empty());
        // Raising the limit moves the map's entries below it into the Vec.
        g.set(ElemId(12), 4);
        g.raise_dense_limit(16);
        assert!(g.sparse.is_empty());
        assert_eq!((g.get(ElemId(12)), g.get(ElemId(3)), g.get(ElemId(13))), (4, 2, 0));
        g.raise_dense_limit(4);
        assert_eq!(g.get(ElemId(12)), 4, "a lower limit moved an entry");
    }

    #[test]
    fn table_holds_values_of_held_indices_only() {
        let mut t: IdTable<u32> = IdTable::new(16);
        let e = ElemId(3);
        assert_eq!(t.get(e), None);
        t.insert(e, 7);
        *t.get_mut(e).unwrap() += 1;
        assert_eq!(t.get(e), Some(&8));
        t.insert(e, 9);
        assert_eq!(t.remove(e), Some(9));
        assert_eq!((t.remove(e), t.get(e)), (None, None));
        assert_eq!(t.get_mut(e), None);
        // A reissued index starts from nothing: the table keeps no trace of
        // the lifetime before it.
        t.insert(e, 10);
        assert_eq!(t.iter().collect::<Vec<_>>(), [(e, &10)]);
    }

    /// An entry is the value's own size when the value has a niche: the
    /// table stores no generation beside it.
    #[test]
    fn an_entry_with_a_niche_costs_its_value_alone() {
        use std::num::NonZeroU32;
        let mut t: IdTable<NonZeroU32> = IdTable::new(4);
        t.insert(ElemId(3), NonZeroU32::MIN);
        assert_eq!(std::mem::size_of_val(&t.dense[..]), 4 * t.dense.len());
    }

    #[test]
    fn table_keeps_large_indices_sparse() {
        let mut t: IdTable<u64> = IdTable::new(8);
        let far = ElemId(u32::MAX - 1);
        t.insert(far, 1);
        t.insert(ElemId(2), 2);
        assert_eq!(t.get(far), Some(&1));
        // Nothing was allocated for the far index.
        assert!(t.dense.len() <= 8);
        assert_eq!(t.remove(far), Some(1));
        assert_eq!(t.iter().count(), 1);
        assert!(t.sparse.is_empty(), "a removed far index left an entry behind");
        t.insert(far, 3);
        assert_eq!(t.get(far), Some(&3));
    }

    #[test]
    fn reserve_for_reaches_the_doubling_capacity_at_once() {
        // Ascending, shuffled and sparse index orders, onto empty and
        // partly grown tables, with and without a limit in reach.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for (limit, held, n) in [(6828, 0, 6828), (4096, 0, 2049), (4096, 300, 2048), (100, 0, 150)]
        {
            let mut order: Vec<ElemId> = (held..held + n).map(ElemId).collect();
            for shuffled in [false, true] {
                if shuffled {
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_range(0..=i));
                    }
                }
                let (mut doubled, mut reserved) = (IdTable::new(limit), IdTable::new(limit));
                for t in [&mut doubled, &mut reserved] {
                    for i in 0..held.min(20) {
                        t.insert(ElemId(i), i);
                    }
                }
                reserved.reserve_for(order.iter().copied());
                let buffer = reserved.dense.as_ptr();
                for &id in &order {
                    doubled.insert(id, id.0);
                    reserved.insert(id, id.0);
                }
                let what = format!("limit {limit}, {held} held, {n} new, shuffled {shuffled}");
                assert_eq!(reserved.dense.capacity(), doubled.dense.capacity(), "{what}");
                assert_eq!(reserved.dense.as_ptr(), buffer, "{what}: reallocated after reserving");
                let sorted = |t: &IdTable<u32>| {
                    let mut v: Vec<(ElemId, u32)> = t.iter().map(|(id, &x)| (id, x)).collect();
                    v.sort_unstable();
                    v
                };
                assert_eq!(sorted(&reserved), sorted(&doubled), "{what}");
            }
        }
    }

    #[test]
    fn table_growth_stops_at_the_dense_limit() {
        let limit = 4838;
        let mut t: IdTable<u32> = IdTable::new(limit);
        for i in 0..limit as u32 {
            t.insert(ElemId(i), i);
        }
        // Doubling alone would end at 8,192 entries.
        assert_eq!(t.dense.capacity(), limit);
        assert_eq!(t.get(ElemId(4837)), Some(&4837));
        // The limit itself and beyond go to the side map.
        t.insert(ElemId(limit as u32), 1);
        t.insert(ElemId(9000), 2);
        assert_eq!(t.dense.capacity(), limit);
        assert_eq!(t.sparse.len(), 2);
        assert_eq!(t.get(ElemId(limit as u32)), Some(&1));
    }

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", ElemId(7)), "e7");
        assert_eq!(format!("{}", ElemId(7)), "e7");
    }
}
