//! Cursors: positional iteration that walks the slot array's occupancy
//! structure directly.
//!
//! Rank-addressed navigation re-resolves rank → label on every step — a
//! bitmap select (an O(log m) descent over block counts, then one block's
//! words) per element, paid `n` times for a full scan.
//! A cursor instead remembers *where it is* (the label of its current
//! element) and steps to the physical neighbor with one occupancy query
//! ([`next_label_after`](crate::RawList::next_label_after) /
//! [`prev_label_before`](crate::RawList::prev_label_before)), so a full
//! walk performs **zero** rank→label resolutions — the property
//! `tests/api_properties.rs` pins with the backend's resolution counter.
//!
//! Three flavors:
//!
//! * [`Cursor`] — read-only, over an [`OrderedList`]; the shared borrow
//!   freezes the structure, so labels stay valid for the cursor's lifetime.
//! * [`MapCursor`] — read-only, over a [`LabelMap`]; same idea, plus key
//!   access ([`LabelMap::cursor_at`] seeks with one keyed search and walks
//!   label-native from there).
//! * [`CursorMut`] — mutating, over an [`OrderedList`]:
//!   `insert_before_here` / `insert_after_here` / `remove_here` edit at the
//!   cursor without re-finding the position. Mutations may trigger
//!   rebalances or growth rebuilds; the cursor addresses its element by
//!   **handle** and re-reads the label from the list's epoch-resynced label
//!   table on the next step, so it stays valid across both.

use crate::backend::ErasedList;
use crate::label_map::LabelMap;
use crate::ordered_list::OrderedList;
use lll_core::growable::Handle;

/// Where a read-only cursor stands: before the first element, on the
/// element at a label, or past the last element.
#[derive(Clone, Copy, Debug)]
enum Pos {
    Before,
    On(usize),
    After,
}

impl Pos {
    fn of(label: Option<usize>) -> Pos {
        match label {
            Some(l) => Pos::On(l),
            None => Pos::After,
        }
    }

    /// One step toward the back: from the start ghost onto the first
    /// element, from an element to its successor, sticking at the end
    /// ghost.
    fn step_next(self, list: &ErasedList) -> Pos {
        match self {
            Pos::Before => Pos::of(list.first_label()),
            Pos::On(l) => Pos::of(list.next_label_after(l)),
            Pos::After => Pos::After,
        }
    }

    /// One step toward the front; the mirror of
    /// [`step_next`](Self::step_next).
    fn step_prev(self, list: &ErasedList) -> Pos {
        match self {
            Pos::After => match list.last_label() {
                Some(l) => Pos::On(l),
                None => Pos::Before,
            },
            Pos::On(l) => match list.prev_label_before(l) {
                Some(p) => Pos::On(p),
                None => Pos::Before,
            },
            Pos::Before => Pos::Before,
        }
    }
}

/// A read-only cursor over an [`OrderedList`], stepping label-to-label.
///
/// ```
/// use lll_api::OrderedList;
///
/// let mut list = OrderedList::new();
/// list.extend_back(["a", "b", "c"]);
/// let mut cur = list.cursor_front();
/// let mut seen = Vec::new();
/// while let Some((_, v)) = cur.current() {
///     seen.push(*v);
///     cur.move_next();
/// }
/// assert_eq!(seen, ["a", "b", "c"]);
/// ```
pub struct Cursor<'a, V> {
    list: &'a OrderedList<V>,
    pos: Pos,
}

impl<'a, V> Cursor<'a, V> {
    pub(crate) fn new(list: &'a OrderedList<V>, label: Option<usize>) -> Self {
        Self { list, pos: Pos::of(label) }
    }

    /// The element under the cursor, or `None` off either end.
    pub fn current(&self) -> Option<(Handle, &'a V)> {
        match self.pos {
            Pos::On(l) => {
                let h = self.list.backend().handle_at_label(l)?;
                Some((h, self.list.get(h)?))
            }
            _ => None,
        }
    }

    /// The handle under the cursor.
    pub fn handle(&self) -> Option<Handle> {
        self.current().map(|(h, _)| h)
    }

    /// The value under the cursor.
    pub fn value(&self) -> Option<&'a V> {
        self.current().map(|(_, v)| v)
    }

    /// Step to the next element (one occupancy query). Walking past the
    /// back parks the cursor on the end ghost; `move_prev` returns.
    pub fn move_next(&mut self) -> Option<(Handle, &'a V)> {
        self.pos = self.pos.step_next(self.list.backend());
        self.current()
    }

    /// Step to the previous element. Walking past the front parks the
    /// cursor on the start ghost; `move_next` returns.
    pub fn move_prev(&mut self) -> Option<(Handle, &'a V)> {
        self.pos = self.pos.step_prev(self.list.backend());
        self.current()
    }
}

/// A read-only cursor over a [`LabelMap`], stepping label-to-label in key
/// order.
///
/// ```
/// use lll_api::LabelMap;
///
/// let map = LabelMap::from_sorted_iter((0..100).map(|k| (k, k * 3)));
/// let mut cur = map.cursor_at(&40);
/// assert_eq!(cur.key(), Some(&40));
/// cur.move_next();
/// assert_eq!(cur.entry(), Some((&41, &123)));
/// cur.move_prev();
/// cur.move_prev();
/// assert_eq!(cur.key(), Some(&39));
/// ```
pub struct MapCursor<'a, K: Ord, V> {
    map: &'a LabelMap<K, V>,
    pos: Pos,
}

impl<'a, K: Ord, V> MapCursor<'a, K, V> {
    pub(crate) fn new(map: &'a LabelMap<K, V>, label: Option<usize>) -> Self {
        Self { map, pos: Pos::of(label) }
    }

    /// The entry under the cursor, or `None` off either end.
    pub fn entry(&self) -> Option<(&'a K, &'a V)> {
        match self.pos {
            Pos::On(l) => Some(self.map.entry_at(l)),
            _ => None,
        }
    }

    /// The key under the cursor.
    pub fn key(&self) -> Option<&'a K> {
        self.entry().map(|(k, _)| k)
    }

    /// The value under the cursor.
    pub fn value(&self) -> Option<&'a V> {
        self.entry().map(|(_, v)| v)
    }

    /// Step to the next entry in key order (one occupancy query).
    pub fn move_next(&mut self) -> Option<(&'a K, &'a V)> {
        self.pos = self.pos.step_next(self.map.backend());
        self.entry()
    }

    /// Step to the previous entry in key order.
    pub fn move_prev(&mut self) -> Option<(&'a K, &'a V)> {
        self.pos = self.pos.step_prev(self.map.backend());
        self.entry()
    }
}

/// A mutating cursor over an [`OrderedList`]: walk and edit in place.
///
/// The cursor tracks its element by stable handle plus a running rank
/// (maintained arithmetically — never re-resolved while walking). `None`
/// as the current handle is the **end ghost**, one past the last element;
/// `insert_before_here` there appends.
///
/// ```
/// use lll_api::OrderedList;
///
/// let mut list: OrderedList<i32> = OrderedList::new();
/// list.extend_back([1, 2, 4]);
/// let mut cur = list.cursor_front_mut();
/// cur.move_next();
/// cur.move_next(); // on the 4
/// cur.insert_before_here(3);
/// assert_eq!(cur.value(), Some(&4));
/// cur.remove_here(); // now on the end ghost
/// assert_eq!(cur.value(), None);
/// drop(cur);
/// let vals: Vec<i32> = list.into_iter().collect();
/// assert_eq!(vals, [1, 2, 3]);
/// ```
pub struct CursorMut<'a, V> {
    list: &'a mut OrderedList<V>,
    /// The current element; `None` is the end ghost.
    cur: Option<Handle>,
    /// Rank of the current element (`len` on the end ghost), maintained
    /// incrementally so in-place edits never re-resolve it.
    rank: usize,
}

impl<'a, V> CursorMut<'a, V> {
    pub(crate) fn new_front(list: &'a mut OrderedList<V>) -> Self {
        let cur = list.front();
        Self { list, cur, rank: 0 }
    }

    pub(crate) fn new_at(list: &'a mut OrderedList<V>, h: Handle, rank: usize) -> Self {
        Self { list, cur: Some(h), rank }
    }

    /// The handle under the cursor (`None` on the end ghost).
    pub fn handle(&self) -> Option<Handle> {
        self.cur
    }

    /// The rank of the element under the cursor (`len` on the end ghost) —
    /// tracked, not recomputed.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The value under the cursor.
    pub fn value(&self) -> Option<&V> {
        self.cur.and_then(|h| self.list.get(h))
    }

    /// Mutable access to the value under the cursor.
    pub fn value_mut(&mut self) -> Option<&mut V> {
        let h = self.cur?;
        self.list.get_mut(h)
    }

    /// Step to the next element (one occupancy query); walking past the
    /// back parks on the end ghost.
    pub fn move_next(&mut self) -> Option<Handle> {
        if let Some(h) = self.cur {
            let label = self.list.label_of(h).expect("cursor handle is live") as usize;
            match self.list.backend().next_label_after(label) {
                Some(l) => {
                    self.cur = self.list.backend().handle_at_label(l);
                    self.rank += 1;
                }
                None => {
                    self.cur = None;
                    self.rank = self.list.len();
                }
            }
        }
        self.cur
    }

    /// Step to the previous element; from the end ghost this returns to
    /// the last element. At the front it stays put.
    pub fn move_prev(&mut self) -> Option<Handle> {
        match self.cur {
            Some(h) if self.rank > 0 => {
                let label = self.list.label_of(h).expect("cursor handle is live") as usize;
                let l = self.list.backend().prev_label_before(label).expect("rank > 0");
                self.cur = self.list.backend().handle_at_label(l);
                self.rank -= 1;
            }
            None if self.rank > 0 => {
                let l = self.list.backend().last_label().expect("ghost rank > 0");
                self.cur = self.list.backend().handle_at_label(l);
                self.rank -= 1;
            }
            _ => {}
        }
        self.cur
    }

    /// Insert `value` immediately before the cursor's element (appends on
    /// the end ghost). The cursor stays on its element. Returns the new
    /// element's handle.
    pub fn insert_before_here(&mut self, value: V) -> Handle {
        let h = self.list.insert_at(self.rank, value);
        self.rank += 1;
        h
    }

    /// Insert `value` immediately after the cursor's element (appends on
    /// the end ghost). The cursor stays on its element.
    pub fn insert_after_here(&mut self, value: V) -> Handle {
        match self.cur {
            Some(_) => self.list.insert_at(self.rank + 1, value),
            None => {
                let h = self.list.insert_at(self.rank, value);
                self.rank += 1;
                h
            }
        }
    }

    /// Remove the cursor's element, returning its value; the cursor moves
    /// to the next element (the end ghost if there is none). `None` on the
    /// end ghost.
    pub fn remove_here(&mut self) -> Option<V> {
        let h = self.cur?;
        let v = self.list.remove(h);
        debug_assert!(v.is_some(), "cursor handle was live");
        self.cur = self.list.get_handle_at_rank(self.rank);
        if self.cur.is_none() {
            self.rank = self.list.len();
        }
        v
    }
}
