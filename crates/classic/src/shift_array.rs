//! The naive baseline: a packed array with O(n) shifting.
//!
//! Elements are kept contiguous in a prefix of the slot array; an insertion
//! at rank r shifts the `len - r` elements above it one slot right, a
//! deletion shifts them left. This is exactly what a sorted `Vec` does, and
//! it anchors the experiment plots: every PMA variant must beat its linear
//! per-operation cost by orders of magnitude.

use lll_core::ids::ElemId;
use lll_core::report::OpReport;
use lll_core::slot_array::SlotArray;
use lll_core::traits::{LabelingBuilder, ListLabeling};

/// Naive packed array: O(n) moves per operation.
#[derive(Clone, Debug)]
pub struct ShiftArray {
    slots: SlotArray,
    capacity: usize,
}

impl ShiftArray {
    /// New empty array with `capacity` elements over `num_slots ≥ capacity`
    /// slots.
    pub fn new(capacity: usize, num_slots: usize) -> Self {
        assert!(num_slots >= capacity);
        Self { slots: SlotArray::new(num_slots), capacity }
    }
}

impl ListLabeling for ShiftArray {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn num_slots(&self) -> usize {
        self.slots.num_slots()
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn insert_into(&mut self, rank: usize, id: ElemId, out: &mut OpReport) {
        out.clear();
        let len = self.len();
        assert!(rank <= len, "insert rank {rank} > len {len}");
        assert!(len < self.capacity, "at capacity");
        for r in (rank..len).rev() {
            self.slots.move_elem(r, r + 1);
        }
        self.slots.place(rank, id);
        self.slots.drain_log_into(&mut out.moves);
        out.placed = Some((id, rank as u32));
    }

    fn delete_into(&mut self, rank: usize, out: &mut OpReport) {
        out.clear();
        let len = self.len();
        assert!(rank < len, "delete rank {rank} >= len {len}");
        let id = self.slots.remove(rank);
        for r in rank + 1..len {
            self.slots.move_elem(r, r - 1);
        }
        self.slots.drain_log_into(&mut out.moves);
        out.removed = Some((id, rank as u32));
    }

    fn slots(&self) -> &SlotArray {
        &self.slots
    }

    fn name(&self) -> &'static str {
        "naive-shift"
    }
}

/// Builder for [`ShiftArray`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ShiftArrayBuilder;

impl LabelingBuilder for ShiftArrayBuilder {
    type Structure = ShiftArray;

    fn build(&self, capacity: usize, num_slots: usize) -> Self::Structure {
        ShiftArray::new(capacity, num_slots)
    }

    fn min_slack(&self) -> f64 {
        1.0
    }

    fn expected_cost_hint(&self, capacity: usize) -> f64 {
        capacity as f64 / 2.0
    }

    fn worst_case_hint(&self, capacity: usize) -> f64 {
        capacity as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_core::ops::Op;
    use lll_core::testkit::run_against_oracle;
    use rand::{Rng, SeedableRng};

    #[test]
    fn oracle_agreement() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let n = 100;
        let mut ops = Vec::new();
        let mut len = 0usize;
        for _ in 0..600 {
            if len == 0 || (len < n && rng.gen_bool(0.6)) {
                ops.push(Op::Insert(rng.gen_range(0..=len)));
                len += 1;
            } else {
                ops.push(Op::Delete(rng.gen_range(0..len)));
                len -= 1;
            }
        }
        let mut s = ShiftArray::new(n, n);
        run_against_oracle(&mut s, &ops, 50);
    }

    #[test]
    fn head_insert_costs_are_linear() {
        let mut s = ShiftArray::new(64, 64);
        let costs: Vec<u64> = (0..64).map(|i| s.insert(0, ElemId(i)).cost()).collect();
        assert_eq!(costs[0], 1);
        assert_eq!(costs[63], 64);
    }

    #[test]
    fn tail_insert_costs_are_constant() {
        let mut s = ShiftArray::new(64, 64);
        let costs: Vec<u64> = (0..64).map(|i| s.insert(i, ElemId(i as u64)).cost()).collect();
        assert!(costs.iter().all(|&c| c == 1));
    }
}
