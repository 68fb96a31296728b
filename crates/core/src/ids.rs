//! Opaque element identities, their allocator, and tables indexed by them.
//!
//! List-labeling algorithms treat stored elements as black boxes (paper §2:
//! "the only information that it knows about the elements is their relative
//! ranks"). An [`ElemId`] is that black box: a unique, copyable token that
//! the *caller* hands to each insertion and that comes back in move logs.
//! Structures store ids; they never allocate them. The two layers that
//! number elements for the structure below them (`Growable`, and the
//! layered embedding for its R-shell) share one [`IdAllocator`], and a
//! structure that keeps data per element keeps it in an [`IdTable`].

use std::collections::HashMap;
use std::fmt;

/// A unique identity for one stored element.
///
/// The low 32 bits are a slab index and the high 32 bits a generation.
/// [`IdAllocator`] is the one allocator that issues them, and it has two
/// users: [`Growable`](crate::growable::Growable) numbers the stored
/// elements with it (so a handle is an `ElemId`), and the layered
/// embedding (`lll-embedding`'s `Embed`) numbers the slots of its R-shell.
/// Both reuse a deleted element's index under the next generation, so the
/// indices in use stay below the peak population and per-element data can
/// live in a `Vec` (or an [`IdTable`]) indexed by [`index`](Self::index),
/// while no live element, and no deleted one a structure may still track,
/// ever shares a whole id with another. Equality/ordering on `ElemId` is
/// identity only — it says nothing about element rank.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElemId(pub u64);

impl ElemId {
    /// Sentinel for "no element" in packed slot storage (the
    /// [`SlotArray`](crate::slot_array::SlotArray) contents array stores
    /// bare `ElemId`s at 8 bytes per slot instead of 16-byte
    /// `Option<ElemId>`s). Its index, `u32::MAX`, is never issued.
    pub const NONE: ElemId = ElemId(u64::MAX);

    /// The id with the given slab index and generation.
    #[inline]
    pub fn new(index: u32, generation: u32) -> Self {
        ElemId(u64::from(generation) << 32 | u64::from(index))
    }

    /// The slab index (low 32 bits).
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }

    /// The generation (high 32 bits).
    #[inline]
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
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

/// The generational id allocator: a deleted id's index is issued again
/// under the next generation, most recently freed first, so the indices
/// in use stay below the peak number of live ids. An index whose
/// generation is spent (`u32::MAX`) is retired instead, so no id is ever
/// issued twice; index `u32::MAX` belongs to [`ElemId::NONE`] and is never
/// issued.
#[derive(Clone, Debug, Default)]
pub struct IdAllocator {
    /// Released ids, most recent last.
    free: Vec<ElemId>,
    /// One past the largest index issued so far.
    next_index: u32,
}

impl IdAllocator {
    /// An allocator that has issued nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh id: the most recently released index under its next
    /// generation, else the next unissued index.
    #[inline]
    pub fn fresh(&mut self) -> ElemId {
        if let Some(old) = self.free.pop() {
            return ElemId::new(old.index() as u32, old.generation() + 1);
        }
        let index = self.next_index;
        assert!(index < u32::MAX, "element id space exhausted");
        self.next_index += 1;
        ElemId::new(index, 0)
    }

    /// `count` fresh ids, in allocation order.
    pub fn fresh_n(&mut self, count: usize) -> Vec<ElemId> {
        (0..count).map(|_| self.fresh()).collect()
    }

    /// Make a deleted id's index reusable.
    #[inline]
    pub fn release(&mut self, id: ElemId) {
        if id.generation() < u32::MAX {
            self.free.push(id);
        }
    }

    /// Never issue an index at or below `max_index` again, and forget the
    /// released ones: ids minted elsewhere (a restored snapshot's handles)
    /// now hold indices whose generations this allocator does not know.
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
    next: u64,
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

/// Data of type `T` for each id a structure currently holds, stored at the
/// id's [`index`](ElemId::index) and checked against its generation: a
/// lookup is a bounds check and one compare, no hashing. An entry whose
/// index now belongs to a newer generation answers `None` for the old id.
///
/// Indices below `dense_limit` (which the owner sets to its own capacity)
/// live in a `Vec` grown on demand to the largest one inserted. Its
/// capacity doubles as it grows but never passes `dense_limit`, so a full
/// table holds exactly `dense_limit` entries, not the next power of two.
/// Larger indices go to a `HashMap`, so the table never allocates in
/// proportion to an index. Ids from an [`IdAllocator`] stay below the peak
/// number of live ids; only ids that outlived a shrink, or came in from a
/// restored snapshot, can land there.
#[derive(Clone, Debug)]
pub struct IdTable<T> {
    /// `dense[i]`: the generation and value of the held id of index `i`.
    dense: Vec<Option<(u32, T)>>,
    /// Entries of ids whose index is `dense_limit` or more.
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
        if i >= self.dense_limit {
            return self.sparse.get(&id);
        }
        match self.dense.get(i) {
            Some(Some((generation, value))) if *generation == id.generation() => Some(value),
            _ => None,
        }
    }

    /// Mutable access to the value of `id`, if the table holds it.
    #[inline]
    pub fn get_mut(&mut self, id: ElemId) -> Option<&mut T> {
        let i = id.index();
        if i >= self.dense_limit {
            return self.sparse.get_mut(&id);
        }
        match self.dense.get_mut(i) {
            Some(Some((generation, value))) if *generation == id.generation() => Some(value),
            _ => None,
        }
    }

    /// Does the table hold `id`?
    #[inline]
    pub fn contains(&self, id: ElemId) -> bool {
        self.get(id).is_some()
    }

    /// Set the value of `id`. The id's index must not be held by another
    /// generation (remove the old id first).
    #[inline]
    pub fn insert(&mut self, id: ElemId, value: T) {
        let i = id.index();
        if i >= self.dense_limit {
            self.sparse.insert(id, value);
            return;
        }
        if i >= self.dense.len() {
            if i >= self.dense.capacity() {
                let want = (2 * self.dense.capacity()).clamp(i + 1, self.dense_limit);
                self.dense.reserve_exact(want - self.dense.len());
            }
            self.dense.resize_with(i + 1, || None);
        }
        let slot = &mut self.dense[i];
        debug_assert!(
            !matches!(slot, Some((g, _)) if *g != id.generation()),
            "index {i} is still held by another generation"
        );
        *slot = Some((id.generation(), value));
    }

    /// Reserve, in one allocation, the dense capacity that inserting `ids`
    /// in this order would reach by doubling, so a bulk insert neither
    /// reallocates nor leaves the doubling's smaller buffers behind. The
    /// capacity reached is the same either way.
    pub fn reserve_for(&mut self, ids: impl IntoIterator<Item = ElemId>) {
        let mut cap = self.dense.capacity();
        for i in ids.into_iter().map(ElemId::index) {
            if i < self.dense_limit && i >= cap {
                cap = (2 * cap).clamp(i + 1, self.dense_limit);
            }
        }
        self.dense.reserve_exact(cap - self.dense.len());
    }

    /// Remove `id`, returning its value if the table held it.
    #[inline]
    pub fn remove(&mut self, id: ElemId) -> Option<T> {
        let i = id.index();
        if i >= self.dense_limit {
            return self.sparse.remove(&id);
        }
        let slot = self.dense.get_mut(i)?;
        match slot {
            Some((generation, _)) if *generation == id.generation() => {
                slot.take().map(|(_, value)| value)
            }
            _ => None,
        }
    }

    /// Every held id with its value: dense indices ascending, then the
    /// sparse ones in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (ElemId, &T)> + '_ {
        let dense = self.dense.iter().enumerate().filter_map(|(i, slot)| {
            slot.as_ref().map(|(generation, value)| (ElemId::new(i as u32, *generation), value))
        });
        dense.chain(self.sparse.iter().map(|(&id, value)| (id, value)))
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
    fn index_and_generation_split_the_id() {
        let id = ElemId::new(7, 3);
        assert_eq!((id.index(), id.generation()), (7, 3));
        assert_eq!(ElemId(5).index(), 5);
        assert_eq!(ElemId(5).generation(), 0);
        assert_eq!(ElemId::NONE.index(), u32::MAX as usize);
    }

    #[test]
    fn allocator_reuses_indices_under_new_generations() {
        let mut ids = IdAllocator::new();
        let (a, b) = (ids.fresh(), ids.fresh());
        assert_eq!((a, b), (ElemId::new(0, 0), ElemId::new(1, 0)));
        ids.release(a);
        ids.release(b);
        // Most recently released first, one generation up.
        assert_eq!(ids.fresh_n(3), [ElemId::new(1, 1), ElemId::new(0, 1), ElemId::new(2, 0)]);
        // A spent generation retires its index.
        ids.release(ElemId::new(1, u32::MAX));
        assert_eq!(ids.fresh(), ElemId::new(3, 0));
        // Restored ids push new indices past them and void the free list.
        ids.release(ElemId::new(0, 1));
        ids.skip_through(9);
        assert_eq!(ids.fresh(), ElemId::new(10, 0));
    }

    #[test]
    fn table_checks_generations() {
        let mut t: IdTable<u32> = IdTable::new(16);
        let old = ElemId::new(3, 0);
        t.insert(old, 7);
        assert_eq!(t.get(old), Some(&7));
        *t.get_mut(old).unwrap() += 1;
        assert_eq!(t.remove(old), Some(8));
        // The index comes back under the next generation: the old id
        // misses, even where the slot is occupied.
        let new = ElemId::new(3, 1);
        t.insert(new, 9);
        assert!(t.contains(new) && !t.contains(old));
        assert_eq!(t.get(old), None);
        assert_eq!(t.remove(old), None);
        assert_eq!(t.iter().collect::<Vec<_>>(), [(new, &9)]);
    }

    #[test]
    fn table_keeps_large_indices_sparse() {
        let mut t: IdTable<u64> = IdTable::new(8);
        let far = ElemId::new(u32::MAX - 1, 2);
        t.insert(far, 1);
        t.insert(ElemId::new(2, 0), 2);
        assert_eq!(t.get(far), Some(&1));
        assert_eq!(t.get(ElemId::new(u32::MAX - 1, 1)), None);
        // Nothing was allocated for the far index.
        assert!(t.dense.len() <= 8);
        assert_eq!(t.remove(far), Some(1));
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn reserve_for_reaches_the_doubling_capacity_at_once() {
        // Ascending, shuffled and sparse index orders, onto empty and
        // partly grown tables, with and without a limit in reach.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for (limit, held, n) in [(6828, 0, 6828), (4096, 0, 2049), (4096, 300, 2048), (100, 0, 150)]
        {
            let mut order: Vec<ElemId> = (held..held + n).map(|i| ElemId::new(i, 0)).collect();
            for shuffled in [false, true] {
                if shuffled {
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_range(0..=i));
                    }
                }
                let (mut doubled, mut reserved) = (IdTable::new(limit), IdTable::new(limit));
                for t in [&mut doubled, &mut reserved] {
                    for i in 0..held.min(20) {
                        t.insert(ElemId::new(i, 0), i);
                    }
                }
                reserved.reserve_for(order.iter().copied());
                let buffer = reserved.dense.as_ptr();
                for &id in &order {
                    doubled.insert(id, id.index() as u32);
                    reserved.insert(id, id.index() as u32);
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
        for i in 0..limit {
            t.insert(ElemId::new(i as u32, 0), i as u32);
        }
        // Doubling alone would end at 8,192 entries.
        assert_eq!(t.dense.capacity(), limit);
        assert_eq!(t.get(ElemId::new(4837, 0)), Some(&4837));
        // The limit itself and beyond go to the side map.
        t.insert(ElemId::new(limit as u32, 0), 1);
        t.insert(ElemId::new(9000, 0), 2);
        assert_eq!(t.dense.capacity(), limit);
        assert_eq!(t.sparse.len(), 2);
        assert_eq!(t.get(ElemId::new(limit as u32, 0)), Some(&1));
    }

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", ElemId(7)), "e7");
        assert_eq!(format!("{}", ElemId(7)), "e7");
    }
}
