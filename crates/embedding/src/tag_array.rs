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
//! [`TagArray`] maintains the tags, the real-element contents (a
//! [`SlotArray`], so every physical move is order-checked and cost-logged),
//! and four rank/select [`Bitmap`]s for navigation between the three
//! coordinate systems (positions, F-indices, R-slot-ranks): a rank or
//! select reads O(log(m/512)) block counts and one 512-bit block.

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

/// The tagged physical array of the embedding.
#[derive(Clone, Debug)]
pub struct TagArray {
    tags: Vec<SlotTag>,
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
}

impl TagArray {
    /// All-white array of `m` slots.
    pub fn new(m: usize) -> Self {
        Self {
            tags: vec![SlotTag::White; m],
            contents: SlotArray::new(m),
            nonwhite: Bitmap::new(m),
            f: Bitmap::new(m),
            buf_real: Bitmap::new(m),
            buf_dummy: Bitmap::new(m),
        }
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.tags.len()
    }

    /// The tag at `pos`.
    #[inline]
    pub fn tag(&self, pos: usize) -> SlotTag {
        self.tags[pos]
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

    /// F-coordinate of the F-slot at `pos` (which must be an F-slot).
    #[inline]
    pub fn f_index_of(&self, pos: usize) -> usize {
        debug_assert_eq!(self.tags[pos], SlotTag::F);
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

    /// First buffered real element strictly inside `(a, b)`, if any.
    pub fn first_buffered_real_in(&self, a: usize, b: usize) -> Option<usize> {
        if a + 1 >= b {
            return None;
        }
        let pos = self.buf_real.select(self.buf_real.rank(a + 1))?;
        (pos < b).then_some(pos)
    }

    /// Last buffered real element strictly inside `(a, b)`, if any.
    pub fn last_buffered_real_in(&self, a: usize, b: usize) -> Option<usize> {
        if a + 1 >= b {
            return None;
        }
        let pos = self.buf_real.select(self.buf_real.rank(b).checked_sub(1)?)?;
        (pos > a).then_some(pos)
    }

    /// Count of buffered real elements strictly inside `(a, b)`.
    pub fn buffered_reals_in(&self, a: usize, b: usize) -> usize {
        if a + 1 >= b {
            return 0;
        }
        self.buf_real.rank(b) - self.buf_real.rank(a + 1)
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

    /// Change the tag at `pos`, updating all indexes. The slot's content (if
    /// any) is untouched; callers must keep content/tag compatible (real
    /// content on White is illegal).
    pub fn retag(&mut self, pos: usize, new: SlotTag) {
        let old = self.tags[pos];
        if old == new {
            return;
        }
        let occupied = self.contents.is_occupied(pos);
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
        self.tags[pos] = new;
    }

    /// Move a whole slot (tag + content) from `from` to the white slot `to`
    /// — this is what mirroring an R-shell move does. Returns the moved
    /// element if the slot was occupied (cost 1) or `None` (dummy/free slot,
    /// cost 0).
    pub fn move_slot(&mut self, from: usize, to: usize) -> Option<ElemId> {
        debug_assert_ne!(self.tags[from], SlotTag::White, "moving a white slot");
        debug_assert_eq!(self.tags[to], SlotTag::White, "target of slot move not white");
        let tag = self.tags[from];
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
            self.buf_real.clear(from);
            self.buf_dummy.set(from);
        }
        self.retag(from, SlotTag::White);
        self.retag(to, tag);
        elem
    }

    /// Move real content between two non-white slots (emulator motion).
    /// The buffered-real and dummy bitmaps are updated from the tags at
    /// both endpoints.
    pub fn move_content(&mut self, from: usize, to: usize) -> ElemId {
        debug_assert_ne!(self.tags[from], SlotTag::White);
        debug_assert_ne!(self.tags[to], SlotTag::White);
        if self.tags[from] == SlotTag::Buf {
            self.buf_real.clear(from);
            self.buf_dummy.set(from);
        }
        let e = self.contents.move_elem(from, to);
        if self.tags[to] == SlotTag::Buf {
            self.buf_real.set(to);
            self.buf_dummy.clear(to);
        }
        e
    }

    /// Place a new element (cost 1) into an empty non-white slot.
    pub fn place_content(&mut self, pos: usize, elem: ElemId) {
        debug_assert_ne!(self.tags[pos], SlotTag::White);
        self.contents.place(pos, elem);
        if self.tags[pos] == SlotTag::Buf {
            self.buf_real.set(pos);
            self.buf_dummy.clear(pos);
        }
    }

    /// Remove the element at `pos` (cost 0).
    pub fn remove_content(&mut self, pos: usize) -> ElemId {
        let e = self.contents.remove(pos);
        if self.tags[pos] == SlotTag::Buf {
            self.buf_real.clear(pos);
            self.buf_dummy.set(pos);
        }
        e
    }

    /// Full consistency audit (tests only): every index agrees with tags
    /// and contents.
    pub fn check_consistent(&self) {
        self.contents.check_consistent();
        for bits in [&self.nonwhite, &self.f, &self.buf_real, &self.buf_dummy] {
            bits.check_consistent();
        }
        for pos in 0..self.tags.len() {
            let t = self.tags[pos];
            let occ = self.contents.is_occupied(pos);
            assert_eq!(self.nonwhite.get(pos), t != SlotTag::White);
            assert_eq!(self.f.get(pos), t == SlotTag::F);
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
    fn buffered_real_tracking() {
        use SlotTag::*;
        let mut t = tagged(&[(0, F), (2, Buf), (4, Buf), (6, F)], 8);
        let mut ids = IdGen::new();
        assert_eq!(t.buf_dummy_count(), 2);
        let e = ids.fresh();
        t.place_content(2, e);
        assert_eq!(t.buffered_real_count(), 1);
        assert_eq!(t.buf_dummy_count(), 1);
        assert_eq!(t.first_buffered_real_in(0, 6), Some(2));
        assert_eq!(t.last_buffered_real_in(0, 6), Some(2));
        assert_eq!(t.buffered_reals_in(0, 6), 1);
        assert_eq!(t.buffered_reals_in(2, 6), 0); // strictly inside
                                                  // move content to the other buffer slot
        t.move_content(2, 4);
        assert_eq!(t.first_buffered_real_in(0, 6), Some(4));
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
        let before = t.contents.lifetime_moves();
        assert_eq!(t.move_slot(4, 6), None);
        assert_eq!(t.contents.lifetime_moves(), before);
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
