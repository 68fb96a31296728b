//! The embedding's slot taxonomy (Figure 1 of the paper).
//!
//! The physical array `A` of the embedding `F ⊳ R` has three kinds of
//! slots:
//!
//! * **F-slots** (blue) — the slots of the F-emulator's array `A_F`. The
//!   i-th F-slot (in position order) is F-coordinate `i`. May be occupied
//!   or free; from the R-shell's view they are always occupied.
//! * **Buffer slots** (green) — R-shell slots holding either a buffered
//!   real element or a *buffer dummy*. Also always occupied in R's view.
//! * **R-empty slots** (white) — the only slots R considers free.
//!
//! [`TagArray`] maintains the real-element contents (a [`SlotArray`], so
//! every physical move is order-checked and cost-logged) and four
//! rank/select [`Bitmap`]s for navigation between the three coordinate
//! systems (positions, F-indices, R-slot-ranks): a rank or select reads
//! O(log(m/512)) block counts and one 512-bit block. The bitmaps are the
//! tags: a slot is an F-slot when its `f` bit is set, a buffer slot when
//! only its `nonwhite` bit is, and white otherwise, so no per-slot tag is
//! stored beside them.
//!
//! The initial tags come from the R-shell's final layout after its
//! initial bulk splice, not from a replay of that splice's moves
//! ([`TagArray::tag_shell_layout`]): the non-white bitmap is a copy of the
//! shell's occupancy bitmap, and one walk over it picks the buffer slots
//! with a stepped counter, evenly by slot rank. A bulk splice into an
//! empty embedding places its elements the same way, in one walk over the
//! F-slots ([`TagArray::place_f_run`]).
//!
//! The hot translation, F-coordinate → position, also runs from a finger.
//! An [`FCursor`] remembers the last F-slot it resolved, and
//! [`TagArray::f_pos_via`] walks from there with
//! [`Bitmap::select_near`]: the next coordinate of a sweep is a few
//! F-slots away, so the lookup is a short hop over set bits that touches
//! no block count. `retag` bumps an epoch whenever an F-bit changes, and
//! a cursor from an older epoch is not trusted, so every answer equals
//! [`TagArray::f_pos`]'s. The count of buffered reals inside a span (the
//! paper's a₁) runs from a finger too: a [`RealGap`] remembers the last
//! window found between two buffered reals, and while no buffered real
//! appears, any span inside that window counts zero without reading the
//! index. Buffered reals are few, so a sweep's spans mostly fall in one
//! gap; finding a new gap costs one rank and a finger select each way.

use lll_core::bitmap::Bitmap;
use lll_core::ids::ElemId;
use lll_core::slot_array::SlotArray;

/// A slot's tag in the embedding's taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotTag {
    /// R-empty (white): free from the R-shell's perspective.
    White,
    /// F-emulator slot (blue).
    F,
    /// R-shell buffer slot (green).
    Buf,
}

/// The tagged physical array of the embedding. The contents come first
/// (`repr(C)`; see [`SlotArray`]'s read fields).
#[derive(Clone, Debug)]
#[repr(C)]
pub struct TagArray {
    /// Real-element contents; all physical motion flows through this.
    pub contents: SlotArray,
    /// Set ⟺ tag ≠ White.
    nonwhite: Bitmap,
    /// Set ⟺ tag == F.
    f: Bitmap,
    /// Set ⟺ tag == Buf and the slot holds a real element.
    buf_real: Bitmap,
    /// Set ⟺ tag == Buf and the slot is a dummy.
    buf_dummy: Bitmap,
    /// Bumped whenever an F-bit changes; an [`FCursor`] from an older
    /// epoch is stale.
    f_epoch: u64,
    /// Bumped whenever a buffered real appears at a position (a
    /// `buf_real` bit is set); a [`RealGap`] from an older epoch is stale.
    real_epoch: u64,
}

/// A finger into the F-coordinates: a position and its F-rank (the last
/// F-slot that [`TagArray::f_pos_via`] resolved through it), valid while
/// no F-bit changes. The default cursor is position 0, F-rank 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct FCursor {
    pos: usize,
    fidx: usize,
    /// `TagArray::f_epoch` when the finger was set.
    epoch: u64,
}

/// A window of positions `[lo, hi)` known to hold no buffered real
/// element, valid while no buffered real appears anywhere (see
/// [`TagArray::buffered_reals_in`]). The default window is empty.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealGap {
    lo: usize,
    hi: usize,
    /// `TagArray::real_epoch` when the window was found.
    epoch: u64,
}

impl TagArray {
    /// All-white array of `m` slots.
    pub fn new(m: usize) -> Self {
        Self {
            contents: SlotArray::new(m),
            nonwhite: Bitmap::new(m),
            f: Bitmap::new(m),
            buf_real: Bitmap::new(m),
            buf_dummy: Bitmap::new(m),
            f_epoch: 0,
            real_epoch: 0,
        }
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.contents.num_slots()
    }

    /// The tag at `pos`, read from the `f` and `nonwhite` bitmaps.
    #[inline]
    pub fn tag(&self, pos: usize) -> SlotTag {
        if self.f.get(pos) {
            SlotTag::F
        } else if self.nonwhite.get(pos) {
            SlotTag::Buf
        } else {
            SlotTag::White
        }
    }

    /// Count of F-slots.
    pub fn f_count(&self) -> usize {
        self.f.count_ones()
    }

    /// Count of buffer slots (dummy + real).
    pub fn buf_count(&self) -> usize {
        self.buf_real.count_ones() + self.buf_dummy.count_ones()
    }

    /// Count of buffer slots holding real elements.
    pub fn buffered_real_count(&self) -> usize {
        self.buf_real.count_ones()
    }

    /// Count of dummy buffer slots.
    pub fn buf_dummy_count(&self) -> usize {
        self.buf_dummy.count_ones()
    }

    // ----- coordinate translations -----------------------------------------

    /// Physical position of F-coordinate `fidx`.
    #[inline]
    pub fn f_pos(&self, fidx: usize) -> usize {
        self.f.select(fidx).expect("F-index out of range")
    }

    /// [`f_pos`](Self::f_pos) from the finger `cur`, which then points at
    /// the answer: a short walk from the finger's F-slot while no F-bit
    /// has changed since it was set, else a select from the root.
    #[inline]
    pub fn f_pos_via(&self, fidx: usize, cur: &mut FCursor) -> usize {
        let pos = if cur.epoch == self.f_epoch {
            self.f.select_near(fidx, cur.pos, cur.fidx)
        } else {
            self.f.select(fidx)
        };
        let pos = pos.expect("F-index out of range");
        *cur = FCursor { pos, fidx, epoch: self.f_epoch };
        pos
    }

    /// F-coordinate of the F-slot at `pos` (which must be an F-slot).
    #[inline]
    pub fn f_index_of(&self, pos: usize) -> usize {
        debug_assert_eq!(self.tag(pos), SlotTag::F);
        self.f.rank(pos)
    }

    /// R-slot-rank of the non-white slot at `pos` (number of non-white
    /// slots strictly before it).
    #[inline]
    pub fn slot_rank(&self, pos: usize) -> usize {
        self.nonwhite.rank(pos)
    }

    /// Position of the slot with R-slot-rank `rank`.
    #[inline]
    pub fn slot_pos(&self, rank: usize) -> usize {
        self.nonwhite.select(rank).expect("slot rank out of range")
    }

    /// Count of buffered real elements strictly inside `(a, b)`: zero,
    /// without reading the index, while nothing is buffered or while `gap`
    /// still covers the span. Otherwise one rank and a finger select each
    /// way find the gap between buffered reals around `a + 1`, and `gap`
    /// keeps it; a span that holds buffered reals costs one more rank.
    #[inline]
    pub fn buffered_reals_in(&self, a: usize, b: usize, gap: &mut RealGap) -> usize {
        if self.buf_real.count_ones() == 0 || a + 1 >= b {
            return 0;
        }
        if gap.epoch == self.real_epoch && gap.lo <= a + 1 && b <= gap.hi {
            return 0;
        }
        let r = self.buf_real.rank(a + 1);
        let hi = self.buf_real.select_near(r, a + 1, r).unwrap_or(self.num_slots());
        if hi < b {
            return self.buf_real.rank(b) - r;
        }
        let lo = r.checked_sub(1).and_then(|k| self.buf_real.select_near(k, a + 1, r));
        *gap = RealGap { lo: lo.map_or(0, |p| p + 1), hi, epoch: self.real_epoch };
        0
    }

    /// Number of dummy buffer slots at positions strictly before `pos`.
    #[inline]
    pub fn dummies_before(&self, pos: usize) -> usize {
        self.buf_dummy.rank(pos)
    }

    /// Position of the `k`-th (0-based) dummy buffer slot.
    #[inline]
    pub fn dummy_pos(&self, k: usize) -> Option<usize> {
        self.buf_dummy.select(k)
    }

    /// Number of buffered real elements at positions strictly before `pos`.
    #[inline]
    pub fn buffered_reals_before(&self, pos: usize) -> usize {
        self.buf_real.rank(pos)
    }

    /// Position of the `k`-th (0-based) buffered real element.
    #[inline]
    pub fn buffered_real_pos(&self, k: usize) -> Option<usize> {
        self.buf_real.select(k)
    }

    /// The dummy buffer slot nearest to `pos` **in slot-rank (truncated
    /// state) distance**, if any.
    ///
    /// The distance must be measured in the space of non-white slots, not
    /// physical slots: physical gaps depend on where the R-shell keeps its
    /// free slots, i.e. on rand(R). Choosing by physical distance would
    /// leak R's randomness back into the operation sequence fed to R,
    /// violating Lemma 4 (the embedding's tests verify this operationally).
    pub fn nearest_dummy(&self, pos: usize) -> Option<usize> {
        let k = self.buf_dummy.rank(pos);
        let right = self.buf_dummy.select(k);
        let left = k.checked_sub(1).and_then(|k| self.buf_dummy.select(k));
        match (left, right) {
            (Some(l), Some(r)) => {
                let sr = self.slot_rank(pos);
                let dl = sr - self.slot_rank(l); // left dummy is before pos
                let dr = self.slot_rank(r) - sr;
                Some(if dl <= dr { l } else { r })
            }
            (l, r) => l.or(r),
        }
    }

    // ----- mutations ---------------------------------------------------------

    /// Tag an all-white, empty array from the R-shell's final layout after
    /// its initial bulk splice: the shell's occupied slots are the
    /// non-white ones, and the `i`-th of them (by position, i.e. by slot
    /// rank) is a buffer slot when a counter stepped by `buf_count` wraps
    /// past their number, else an F-slot. This spreads the buffer slots
    /// evenly: the `i`-th slot is a buffer slot exactly when
    /// `⌊(i+1)·buf_count/r⌋ ≠ ⌊i·buf_count/r⌋` for `r` shell slots. Every
    /// buffer slot starts as a dummy.
    ///
    /// The non-white and F bitmaps start as copies of the shell's; one walk
    /// over its set bits then moves each buffer slot from `f` to
    /// `buf_dummy`.
    pub fn tag_shell_layout(&mut self, shell: &Bitmap, buf_count: usize) {
        debug_assert_eq!(self.nonwhite.count_ones(), 0, "tagging a tagged array");
        debug_assert!(self.contents.is_empty(), "tagging an occupied array");
        let slots = shell.count_ones();
        self.nonwhite.clone_from(shell);
        self.f.clone_from(shell);
        let (f, mut acc) = (&mut self.f, 0);
        self.buf_dummy.set_ascending(shell.ones_in(0, shell.len()).filter(|&pos| {
            acc += buf_count;
            let wraps = acc >= slots;
            if wraps {
                acc -= slots;
                f.clear(pos);
            }
            wraps
        }));
        self.f_epoch += 1;
    }

    /// Place a run of new elements into empty F-slots, given as
    /// `(F-coordinate, elem)` at ascending coordinates, in one walk over
    /// the F-slots: each coordinate's position is found by stepping from
    /// the previous one's, and the contents take the whole run as one
    /// [`SlotArray::place_run`]. Same checks, log records and cost as one
    /// placement per element.
    pub fn place_f_run(&mut self, run: impl IntoIterator<Item = (usize, ElemId)>) {
        let mut f_slots = self.f.ones_in(0, self.f.len());
        let mut next_fidx = 0;
        self.contents.place_run(run.into_iter().map(|(fidx, e)| {
            debug_assert!(fidx >= next_fidx, "F-coordinates out of order");
            let pos = f_slots.nth(fidx - next_fidx).expect("F-coordinate out of range");
            next_fidx = fidx + 1;
            (pos, e)
        }));
    }

    /// Change the tag at `pos`, updating all indexes. The slot's content (if
    /// any) is untouched; callers must keep content/tag compatible (real
    /// content on White is illegal).
    pub fn retag(&mut self, pos: usize, new: SlotTag) {
        let old = self.tag(pos);
        if old == new {
            return;
        }
        let occupied = self.contents.is_occupied(pos);
        if old == SlotTag::F || new == SlotTag::F {
            self.f_epoch += 1;
        }
        if occupied && new == SlotTag::Buf {
            self.real_epoch += 1;
        }
        match old {
            SlotTag::White => {}
            SlotTag::F => {
                self.f.clear(pos);
                self.nonwhite.clear(pos);
            }
            SlotTag::Buf => {
                self.nonwhite.clear(pos);
                if occupied {
                    self.buf_real.clear(pos);
                } else {
                    self.buf_dummy.clear(pos);
                }
            }
        }
        match new {
            SlotTag::White => {
                debug_assert!(!occupied, "cannot whiten an occupied slot");
            }
            SlotTag::F => {
                self.f.set(pos);
                self.nonwhite.set(pos);
            }
            SlotTag::Buf => {
                self.nonwhite.set(pos);
                if occupied {
                    self.buf_real.set(pos);
                } else {
                    self.buf_dummy.set(pos);
                }
            }
        }
    }

    /// Move a whole slot (tag + content) from `from` to the white slot `to`
    /// — this is what mirroring an R-shell move does. Returns the moved
    /// element if the slot was occupied (cost 1) or `None` (dummy/free slot,
    /// cost 0).
    pub fn move_slot(&mut self, from: usize, to: usize) -> Option<ElemId> {
        let tag = self.tag(from);
        debug_assert_ne!(tag, SlotTag::White, "moving a white slot");
        debug_assert_eq!(self.tag(to), SlotTag::White, "target of slot move not white");
        let elem = if self.contents.is_occupied(from) {
            // The content move is order-safe: R only moves its elements
            // across its own free (white) slots, which hold no content.
            Some(self.contents.move_elem(from, to))
        } else {
            None
        };
        // The content has left `from`; reconcile the buffered-real index
        // before retagging (retag reads current occupancy).
        if tag == SlotTag::Buf && elem.is_some() {
            self.buf_emptied(from);
        }
        self.retag(from, SlotTag::White);
        self.retag(to, tag);
        elem
    }

    /// Move real content between two non-white slots (emulator motion).
    /// The buffered-real and dummy bitmaps are updated from the tags at
    /// both endpoints.
    pub fn move_content(&mut self, from: usize, to: usize) -> ElemId {
        debug_assert_ne!(self.tag(from), SlotTag::White);
        debug_assert_ne!(self.tag(to), SlotTag::White);
        if self.tag(from) == SlotTag::Buf {
            self.buf_emptied(from);
        }
        let e = self.contents.move_elem(from, to);
        if self.tag(to) == SlotTag::Buf {
            self.buf_filled(to);
        }
        e
    }

    /// Place a new element (cost 1) into an empty non-white slot.
    pub fn place_content(&mut self, pos: usize, elem: ElemId) {
        debug_assert_ne!(self.tag(pos), SlotTag::White);
        self.contents.place(pos, elem);
        if self.tag(pos) == SlotTag::Buf {
            self.buf_filled(pos);
        }
    }

    /// Remove the element at `pos` (cost 0).
    pub fn remove_content(&mut self, pos: usize) -> ElemId {
        let e = self.contents.remove(pos);
        if self.tag(pos) == SlotTag::Buf {
            self.buf_emptied(pos);
        }
        e
    }

    /// The buffer slot at `pos` received an element: a dummy no more.
    fn buf_filled(&mut self, pos: usize) {
        self.buf_dummy.clear(pos);
        self.buf_real.set(pos);
        self.real_epoch += 1;
    }

    /// The element left the buffer slot at `pos`: a dummy again. (A gap
    /// between buffered reals stays one when a real leaves.)
    fn buf_emptied(&mut self, pos: usize) {
        self.buf_real.clear(pos);
        self.buf_dummy.set(pos);
    }

    /// Full consistency audit (tests only): the four bitmaps agree with
    /// one another and with the contents.
    pub fn check_consistent(&self) {
        self.contents.check_consistent();
        for bits in [&self.nonwhite, &self.f, &self.buf_real, &self.buf_dummy] {
            bits.check_consistent();
        }
        for pos in 0..self.num_slots() {
            let t = self.tag(pos);
            let occ = self.contents.is_occupied(pos);
            assert!(!self.f.get(pos) || self.nonwhite.get(pos), "F-slot {pos} is white");
            assert_eq!(
                self.buf_real.get(pos),
                t == SlotTag::Buf && occ,
                "bufreal mismatch at {pos}"
            );
            assert_eq!(
                self.buf_dummy.get(pos),
                t == SlotTag::Buf && !occ,
                "bufdummy mismatch at {pos}"
            );
            if t == SlotTag::White {
                assert!(!occ, "white slot {pos} holds content");
            }
        }
    }

    /// The four tag bitmaps: non-white, F, buffered real, dummy.
    #[cfg(test)]
    pub(crate) fn bitmaps(&self) -> [&Bitmap; 4] {
        [&self.nonwhite, &self.f, &self.buf_real, &self.buf_dummy]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_core::ids::IdGen;

    fn tagged(pattern: &[(usize, SlotTag)], m: usize) -> TagArray {
        let mut t = TagArray::new(m);
        for &(pos, tag) in pattern {
            t.retag(pos, tag);
        }
        t
    }

    #[test]
    fn coordinate_translations() {
        use SlotTag::*;
        let t = tagged(&[(0, F), (2, Buf), (3, F), (5, F), (7, Buf)], 9);
        assert_eq!(t.f_count(), 3);
        assert_eq!(t.buf_count(), 2);
        assert_eq!(t.f_pos(0), 0);
        assert_eq!(t.f_pos(1), 3);
        assert_eq!(t.f_pos(2), 5);
        assert_eq!(t.f_index_of(5), 2);
        assert_eq!(t.slot_rank(3), 2);
        assert_eq!(t.slot_pos(4), 7);
    }

    #[test]
    fn f_cursor_is_not_trusted_across_an_f_change() {
        use SlotTag::*;
        // 40 F-slots with gaps, across a word edge.
        let pattern: Vec<(usize, SlotTag)> =
            (0..40).map(|i| (i * 3 + i % 2, if i % 5 == 4 { Buf } else { F })).collect();
        let mut t = tagged(&pattern, 130);
        let answers_match = |t: &TagArray, cur: FCursor| {
            for fidx in 0..t.f_count() {
                let mut probe = cur;
                assert_eq!(t.f_pos_via(fidx, &mut probe), t.f_pos(fidx), "fidx {fidx}");
            }
        };
        let mut cur = FCursor::default();
        answers_match(&t, cur);
        t.f_pos_via(12, &mut cur);
        answers_match(&t, cur);
        // Whiten an F-slot left of the finger, then F-tag a white one.
        let before = t.f_pos(3);
        t.retag(before, White);
        answers_match(&t, cur);
        t.f_pos_via(12, &mut cur);
        t.retag(before, F);
        answers_match(&t, cur);
        // Move an F-slot (a mirrored shell move) across the finger.
        t.f_pos_via(20, &mut cur);
        let from = t.f_pos(5);
        let to = (from + 1..130).find(|&p| t.tag(p) == White && p > t.f_pos(25)).unwrap();
        t.move_slot(from, to);
        answers_match(&t, cur);
        // A buffer slot's move changes no F-rank: the finger stays exact.
        t.f_pos_via(20, &mut cur);
        let buf = (0..130).find(|&p| t.tag(p) == Buf).unwrap();
        let white = (0..130).find(|&p| t.tag(p) == White).unwrap();
        t.move_slot(buf, white);
        answers_match(&t, cur);
        t.check_consistent();
    }

    #[test]
    fn real_gap_is_not_trusted_after_a_buffer_change() {
        use SlotTag::*;
        let naive = |t: &TagArray, a: usize, b: usize| {
            (a + 1..b).filter(|&p| t.tag(p) == Buf && t.contents.is_occupied(p)).count()
        };
        // Each step puts a buffered real into (5, 120) another way.
        let steps: [fn(&mut TagArray, &mut IdGen); 4] = [
            |t, ids| t.place_content(50, ids.fresh()),
            |t, ids| {
                t.place_content(31, ids.fresh());
                t.move_content(31, 70);
            },
            |t, _| {
                t.move_slot(140, 107);
            },
            |t, ids| {
                t.place_content(64, ids.fresh());
                t.retag(64, Buf);
            },
        ];
        for step in steps {
            // Buffer slots at multiples of 10, white slots at 2 mod 3,
            // F-slots elsewhere; one buffered real, right of the window.
            let pattern: Vec<(usize, SlotTag)> = (0..150)
                .filter_map(|p| match (p % 10, p % 3) {
                    (0, _) => Some((p, Buf)),
                    (_, 2) => None,
                    _ => Some((p, F)),
                })
                .collect();
            let mut t = tagged(&pattern, 160);
            let mut ids = IdGen::new();
            t.place_content(140, ids.fresh());
            let mut gap = RealGap::default();
            assert_eq!(t.buffered_reals_in(5, 120, &mut gap), 0);
            step(&mut t, &mut ids);
            assert_eq!(naive(&t, 5, 120), 1);
            assert_eq!(t.buffered_reals_in(5, 120, &mut gap), 1);
            t.check_consistent();
        }
    }

    #[test]
    fn buffered_real_tracking() {
        use SlotTag::*;
        let mut t = tagged(&[(0, F), (2, Buf), (4, Buf), (6, F)], 8);
        let mut ids = IdGen::new();
        assert_eq!(t.buf_dummy_count(), 2);
        let e = ids.fresh();
        t.place_content(2, e);
        assert_eq!(t.buffered_real_count(), 1);
        assert_eq!(t.buf_dummy_count(), 1);
        let reals_in = |t: &TagArray, a, b| t.buffered_reals_in(a, b, &mut RealGap::default());
        assert_eq!(reals_in(&t, 0, 6), 1);
        assert_eq!(reals_in(&t, 2, 6), 0); // strictly inside
        assert_eq!(reals_in(&t, 1, 2), 0); // empty span
        t.move_content(2, 4); // to the other buffer slot
        assert_eq!(reals_in(&t, 3, 6), 1);
        assert_eq!(reals_in(&t, 0, 4), 0);
        t.check_consistent();
        // remove makes it a dummy again
        t.remove_content(4);
        assert_eq!(t.buffered_real_count(), 0);
        assert_eq!(t.buf_dummy_count(), 2);
        t.check_consistent();
    }

    #[test]
    fn nearest_dummy_picks_closest() {
        use SlotTag::*;
        let mut t = tagged(&[(1, Buf), (5, Buf), (9, Buf)], 10);
        assert_eq!(t.nearest_dummy(0), Some(1));
        assert_eq!(t.nearest_dummy(4), Some(5));
        assert_eq!(t.nearest_dummy(8), Some(9));
        let mut ids = IdGen::new();
        t.place_content(5, ids.fresh());
        assert_eq!(t.nearest_dummy(4), Some(1)); // 5 no longer a dummy
    }

    #[test]
    fn move_slot_carries_tag_and_content() {
        use SlotTag::*;
        let mut t = tagged(&[(2, Buf), (4, F)], 8);
        let mut ids = IdGen::new();
        let e = ids.fresh();
        t.place_content(2, e);
        // mirror an R move of the buffer slot from 2 to 3
        let moved = t.move_slot(2, 3);
        assert_eq!(moved, Some(e));
        assert_eq!(t.tag(2), White);
        assert_eq!(t.tag(3), Buf);
        assert_eq!(t.buffered_real_count(), 1);
        // moving the F slot (free): zero cost, tag travels
        let before = t.contents.pending_log_len();
        assert_eq!(t.move_slot(4, 6), None);
        assert_eq!(t.contents.pending_log_len(), before);
        assert_eq!(t.tag(6), F);
        t.check_consistent();
    }

    #[test]
    fn retag_respects_content() {
        use SlotTag::*;
        let mut t = tagged(&[(0, Buf)], 4);
        let mut ids = IdGen::new();
        t.place_content(0, ids.fresh());
        // Buf(real) -> F: bufreal count drops
        t.retag(0, F);
        assert_eq!(t.buffered_real_count(), 0);
        assert_eq!(t.f_count(), 1);
        t.check_consistent();
    }
}
