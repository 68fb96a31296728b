//! The `ListLabeling` trait and composable builders.
//!
//! Every algorithm in this workspace — the classical PMA, its deamortized,
//! randomized, adaptive and learning-augmented variants, and the paper's
//! embedding `F ⊳ R` itself — implements [`ListLabeling`]. That uniformity
//! is what makes Theorem 3's double composition `X ⊳ (Y ⊳ Z)` a one-liner:
//! `Embed<X, Embed<Y, Z>>`.
//!
//! [`LabelingBuilder`] abstracts construction: a structure is built for a
//! given `(capacity, num_slots)` pair. The embedding needs this because §3
//! of the paper prescribes exact slot budgets for its inner structures
//! (F gets `(1+ε)n` slots; R gets all `(1+3ε)n` slots with capacity
//! `(1+2ε)n`).

use crate::ids::{ElemId, IdGen};
use crate::metrics::MetricsHandle;
use crate::ops::Op;
use crate::report::OpReport;
use crate::slot_array::SlotArray;

/// A list-labeling data structure of fixed capacity `n` over `m` slots
/// (Definition 1 of the paper, 0-based ranks).
pub trait ListLabeling {
    /// Maximum number of elements the structure may hold.
    fn capacity(&self) -> usize;

    /// Number of physical slots (`m = (1+Θ(1))·n`).
    fn num_slots(&self) -> usize;

    /// Current number of stored elements.
    fn len(&self) -> usize;

    /// True if no elements are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert the new element `id` at 0-based `rank` (`rank ∈ 0..=len`),
    /// reporting into a caller-provided buffer: `out` is cleared and its
    /// move buffer traded for the slot array's log
    /// ([`SlotArray::drain_log_into`]), so in steady state a point insert
    /// touches the heap not at all.
    ///
    /// The caller allocates ids: `id` must differ from every element the
    /// structure stores or still tracks (the embedding keeps deleted
    /// elements as ghosts until a rebuild drops them).
    ///
    /// Panics if `rank > len` or the structure is full.
    fn insert_into(&mut self, rank: usize, id: ElemId, out: &mut OpReport);

    /// Delete the element of 0-based `rank` (`rank ∈ 0..len`), reporting
    /// into `out` (see [`insert_into`](Self::insert_into)).
    ///
    /// Panics if `rank >= len`.
    fn delete_into(&mut self, rank: usize, out: &mut OpReport);

    /// Insert the new elements `ids` at consecutive final ranks
    /// `rank .. rank + ids.len()`, in that order — the batch-ingest
    /// primitive — reporting the whole batch into `out` (cleared first):
    /// its `moves` in time order, placements included, and `placed` and
    /// `removed` left `None`.
    ///
    /// The default decomposes into single insertions (always correct,
    /// never cheaper). Algorithms with a native bulk path override it: the
    /// PMA skeleton ([`PmaBase`](crate::pma::PmaBase)) interleaves the run
    /// into one window rebalance via
    /// [`merge_sorted`](crate::slot_array::merge_sorted), costing one
    /// evenly-spread sweep instead of `ids.len()` independent rebalance
    /// cascades.
    ///
    /// Panics if `rank > len` or `len + ids.len() > capacity`.
    fn splice_into(&mut self, rank: usize, ids: &[ElemId], out: &mut OpReport) {
        assert!(rank <= self.len(), "splice rank {rank} > len {}", self.len());
        assert!(
            self.len() + ids.len() <= self.capacity(),
            "splice of {} overflows capacity {} (len {})",
            ids.len(),
            self.capacity(),
            self.len()
        );
        out.clear();
        let mut rep = OpReport::default();
        for (i, &id) in ids.iter().enumerate() {
            self.insert_into(rank + i, id, &mut rep);
            out.moves.extend_from_slice(&rep.moves);
        }
    }

    /// [`insert_into`](Self::insert_into) into a fresh report (allocates).
    fn insert(&mut self, rank: usize, id: ElemId) -> OpReport {
        let mut out = OpReport::default();
        self.insert_into(rank, id, &mut out);
        out
    }

    /// [`delete_into`](Self::delete_into) into a fresh report (allocates).
    fn delete(&mut self, rank: usize) -> OpReport {
        let mut out = OpReport::default();
        self.delete_into(rank, &mut out);
        out
    }

    /// [`splice_into`](Self::splice_into) into a fresh report (allocates).
    fn splice(&mut self, rank: usize, ids: &[ElemId]) -> OpReport {
        let mut out = OpReport::default();
        self.splice_into(rank, ids, &mut out);
        out
    }

    /// Apply one operation, drawing an insertion's id from `ids`.
    fn apply(&mut self, op: Op, ids: &mut IdGen) -> OpReport {
        match op {
            Op::Insert(r) => self.insert(r, ids.fresh()),
            Op::Delete(r) => self.delete(r),
        }
    }

    /// The physical slot array (the authoritative layout). The label of an
    /// element, in the classical list-labeling formulation, is its position
    /// here.
    fn slots(&self) -> &SlotArray;

    /// Install a shared [`MetricsHandle`] into this structure's physical
    /// slot array — the one [`slots`](Self::slots) returns, whose moves are
    /// the paper's cost. A composite structure (the embedding) installs it
    /// there only: its simulation and shell report into nothing, so the
    /// handle's `moves` counts that array's moves alone. The default ignores the handle, which keeps the trait
    /// object-safe and lets minimal implementations opt out; every
    /// PMA-skeleton backend overrides it.
    fn set_metrics(&mut self, metrics: MetricsHandle) {
        let _ = metrics;
    }

    /// The label (slot position) of the element with the given rank.
    fn label_of_rank(&self, rank: usize) -> usize {
        self.slots().select(rank)
    }

    /// The element with the given rank.
    fn elem_at_rank(&self, rank: usize) -> ElemId {
        let pos = self.slots().select(rank);
        self.slots().get(pos).expect("select returned empty slot")
    }

    /// Iterate `(rank, label, element)` over the rank range `lo..hi` — a
    /// physically contiguous left-to-right sweep of the slot array, which
    /// is what makes PMA-backed range scans cache-friendly.
    fn iter_range(&self, lo: usize, hi: usize) -> RangeIter<'_> {
        let hi = hi.min(self.len());
        let start = if lo >= hi { None } else { Some(self.slots().select(lo)) };
        RangeIter { slots: self.slots(), next_rank: lo, end_rank: hi, next_pos: start }
    }

    /// Short human-readable algorithm name (for tables and plots).
    fn name(&self) -> &'static str;
}

/// A recipe for building a [`ListLabeling`] with prescribed capacity and
/// slot count. Builders are cheap, cloneable value types; composite
/// builders (the embedding's) contain their inner builders.
pub trait LabelingBuilder: Clone {
    /// The structure this builder produces.
    type Structure: ListLabeling;

    /// Build a structure holding up to `capacity` elements on exactly
    /// `num_slots` slots. Implementations must accept any
    /// `num_slots ≥ ceil(min_slack() · capacity)`.
    fn build(&self, capacity: usize, num_slots: usize) -> Self::Structure;

    /// The minimum slot-to-capacity ratio this algorithm needs (e.g. 1.25
    /// means `m ≥ 1.25·n`). Used by callers that pick `m` for you.
    fn min_slack(&self) -> f64 {
        1.25
    }

    /// Build with a default slot budget of `ceil(min_slack() · capacity)`.
    fn build_default(&self, capacity: usize) -> Self::Structure {
        let m = ((capacity as f64) * self.min_slack()).ceil() as usize + 2;
        self.build(capacity, m)
    }

    /// A hint for the structure's expected amortized cost per operation at
    /// this capacity — the `E_R` of Theorem 2. The embedding uses this to
    /// budget rebuild work. (Shape matters, constants are calibrated by the
    /// embedding's own configuration.)
    fn expected_cost_hint(&self, capacity: usize) -> f64;

    /// A hint for the structure's worst-case cost per operation — the `W_R`
    /// of Theorem 2.
    fn worst_case_hint(&self, capacity: usize) -> f64 {
        let lg = (capacity.max(2) as f64).log2();
        lg * lg
    }
}

/// Iterator over a rank range: yields `(rank, label, element)` in rank
/// order by walking occupied slots left to right.
pub struct RangeIter<'a> {
    slots: &'a SlotArray,
    next_rank: usize,
    end_rank: usize,
    next_pos: Option<usize>,
}

impl Iterator for RangeIter<'_> {
    type Item = (usize, usize, ElemId);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next_rank >= self.end_rank {
            return None;
        }
        let pos = self.next_pos?;
        let elem = self.slots.get(pos).expect("range iterator on free slot");
        let item = (self.next_rank, pos, elem);
        self.next_rank += 1;
        self.next_pos = if self.next_rank < self.end_rank {
            self.slots.next_occupied_at_or_after(pos + 1)
        } else {
            None
        };
        Some(item)
    }
}

/// log₂ clamped below at 1.0 — common in cost hints.
pub fn log2f(n: usize) -> f64 {
    (n.max(2) as f64).log2().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal trait implementation used to exercise the defaults: an
    /// unsorted-capable but order-maintaining shift array (O(n) moves).
    struct Shifty {
        slots: SlotArray,
        cap: usize,
    }

    impl Shifty {
        fn new(cap: usize, m: usize) -> Self {
            Self { slots: SlotArray::new(m), cap }
        }
    }

    impl ListLabeling for Shifty {
        fn capacity(&self) -> usize {
            self.cap
        }
        fn num_slots(&self) -> usize {
            self.slots.num_slots()
        }
        fn len(&self) -> usize {
            self.slots.len()
        }
        fn insert_into(&mut self, rank: usize, id: ElemId, out: &mut OpReport) {
            assert!(rank <= self.len());
            assert!(self.len() < self.cap);
            // keep elements packed in a prefix: shift suffix right by one
            let len = self.len();
            for r in (rank..len).rev() {
                self.slots.move_elem(r, r + 1);
            }
            self.slots.place(rank, id);
            out.clear();
            self.slots.drain_log_into(&mut out.moves);
            out.placed = Some((id, rank as u32));
        }
        fn delete_into(&mut self, rank: usize, out: &mut OpReport) {
            assert!(rank < self.len());
            let id = self.slots.remove(rank);
            let len = self.len();
            for r in rank..len {
                self.slots.move_elem(r + 1, r);
            }
            out.clear();
            self.slots.drain_log_into(&mut out.moves);
            out.removed = Some((id, rank as u32));
        }
        fn slots(&self) -> &SlotArray {
            &self.slots
        }
        fn name(&self) -> &'static str {
            "shifty"
        }
    }

    #[test]
    fn trait_defaults_work() {
        let mut s = Shifty::new(6, 8);
        let mut ids = IdGen::new();
        assert!(s.is_empty());
        let r = s.insert(0, ids.fresh());
        assert_eq!(r.cost(), 1);
        s.apply(Op::Insert(0), &mut ids); // new smallest
        s.insert(2, ids.fresh()); // new largest
        assert_eq!(s.len(), 3);
        assert_eq!(s.label_of_rank(0), 0);
        let first = s.elem_at_rank(0);
        let r = s.apply(Op::Delete(0), &mut ids);
        assert_eq!(r.removed.map(|(e, _)| e), Some(first));
        assert_eq!(s.len(), 2);
        // The default splice lands the batch in rank order, as insertions.
        let batch = ids.fresh_n(3);
        let bulk = s.splice(1, &batch);
        assert_eq!(bulk.cost(), 3 + 3, "three placements plus three shifts of the tail");
        assert_eq!((1..4).map(|r| s.elem_at_rank(r)).collect::<Vec<_>>(), batch);
    }

    #[test]
    fn a_splice_report_is_chronological() {
        // The default splice inserts one by one, and each insert shifts the
        // packed tail: the element after the batch moves once per newcomer.
        let mut s = Shifty::new(8, 8);
        let mut ids = IdGen::new();
        s.insert(0, ids.fresh());
        let tail = ids.fresh();
        s.insert(1, tail);
        let rep = s.splice(1, &ids.fresh_n(3));
        assert_eq!((rep.placed, rep.removed), (None, None));
        let ups: Vec<(ElemId, usize)> = rep.label_updates().collect();
        assert_eq!(ups.len(), 6, "three placements plus three shifts");
        assert_eq!(ups.iter().filter(|&&(e, _)| e == tail).count(), 3);
        // Applied in order, the last entry of each element wins: every
        // label lands where the array holds the element.
        let last: std::collections::HashMap<ElemId, usize> = ups.into_iter().collect();
        assert_eq!(last.len(), 4);
        for (pos, e) in s.slots().iter_occupied().skip(1) {
            assert_eq!(last[&e], pos, "{e:?}");
        }
    }

    #[test]
    fn shift_costs_are_linear() {
        // inserting at rank 0 repeatedly shifts the whole prefix
        let mut t = Shifty::new(8, 16);
        let mut ids = IdGen::new();
        let mut costs = Vec::new();
        for _ in 0..8 {
            costs.push(t.insert(0, ids.fresh()).cost());
        }
        assert_eq!(costs, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn iter_range_walks_ranks() {
        let mut s = Shifty::new(8, 16);
        let mut ids = IdGen::new();
        for i in 0..6 {
            s.insert(i, ids.fresh());
        }
        let items: Vec<(usize, usize, ElemId)> = s.iter_range(1, 4).collect();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].0, 1);
        assert_eq!(items[2].0, 3);
        // labels increase, elements match elem_at_rank
        assert!(items.windows(2).all(|w| w[0].1 < w[1].1));
        for &(r, _, e) in &items {
            assert_eq!(e, s.elem_at_rank(r));
        }
        // degenerate ranges
        assert_eq!(s.iter_range(4, 4).count(), 0);
        assert_eq!(s.iter_range(5, 100).count(), 1);
    }

    #[test]
    fn log2f_clamps() {
        assert_eq!(log2f(0), 1.0);
        assert_eq!(log2f(2), 1.0);
        assert!((log2f(1024) - 10.0).abs() < 1e-9);
    }
}
