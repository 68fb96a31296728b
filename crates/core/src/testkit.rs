//! Reference oracle and shared test utilities.
//!
//! The [`Oracle`] maintains the ground-truth rank sequence as a plain
//! vector. Every structure in the workspace is validated against it: after
//! any operation, the structure's layout must list exactly the oracle's
//! elements, in oracle order, and agree on length. Because all element
//! motion flows through [`SlotArray`](crate::slot_array::SlotArray) (which
//! checks that moves never cross occupied slots), oracle agreement plus the
//! move discipline implies the sorted-order invariant held throughout.

use crate::ids::{ElemId, IdGen};
use crate::ops::Op;
use crate::traits::ListLabeling;

/// Ground-truth model of a list-labeling instance.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    seq: Vec<ElemId>,
}

impl Oracle {
    /// Empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an insertion: the structure reported placing `elem` at `rank`.
    pub fn insert(&mut self, rank: usize, elem: ElemId) {
        self.seq.insert(rank, elem);
    }

    /// Record a deletion, checking the structure removed the right element.
    pub fn delete(&mut self, rank: usize, reported: ElemId) {
        let expect = self.seq.remove(rank);
        assert_eq!(expect, reported, "structure deleted the wrong element at rank {rank}");
    }

    /// Current ground-truth length.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// The ground-truth element sequence.
    pub fn sequence(&self) -> &[ElemId] {
        &self.seq
    }

    /// Assert that `l`'s layout matches the ground truth exactly.
    pub fn check<L: ListLabeling>(&self, l: &L) {
        assert_eq!(l.len(), self.seq.len(), "length mismatch");
        let got: Vec<ElemId> = l.slots().iter_occupied().map(|(_, e)| e).collect();
        assert_eq!(got, self.seq, "layout order does not match ground truth");
    }
}

/// Drive a structure through an operation sequence while continuously
/// checking it against a fresh oracle. Returns total cost. Checks the full
/// layout every `check_every` operations (and at the end).
pub fn run_against_oracle<L: ListLabeling>(l: &mut L, ops: &[Op], check_every: usize) -> u64 {
    let mut oracle = Oracle::new();
    let mut ids = IdGen::new();
    let mut total = 0u64;
    for (i, &op) in ops.iter().enumerate() {
        assert!(
            op.valid_for_len(oracle.len()),
            "op {op:?} invalid at len {} (step {i})",
            oracle.len()
        );
        let rep = l.apply(op, &mut ids);
        total += rep.cost();
        match op {
            Op::Insert(r) => {
                let (e, _) = rep.placed.expect("insert must report placement");
                oracle.insert(r, e);
            }
            Op::Delete(r) => {
                let (e, _) = rep.removed.expect("delete must report removal");
                oracle.delete(r, e);
            }
        }
        if check_every > 0 && i % check_every == 0 {
            oracle.check(l);
        }
    }
    oracle.check(l);
    total
}

/// Fit the exponent `p` in `cost ≈ c · (log₂ n)^p` from `(n, cost)` points
/// by least squares on log-log of the log. Used by scaling-shape tests:
/// classical PMAs should fit p ≈ 2, adaptive-on-hammer p ≈ 1.
pub fn fit_log_exponent(points: &[(usize, f64)]) -> f64 {
    assert!(points.len() >= 2);
    let xs: Vec<f64> = points.iter().map(|&(n, _)| (n.max(2) as f64).log2().ln()).collect();
    let ys: Vec<f64> = points.iter().map(|&(_, c)| c.max(1e-9).ln()).collect();
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pma::{run_ops, ClassicBuilder};
    use crate::traits::LabelingBuilder;

    #[test]
    fn oracle_detects_order() {
        let mut pma = ClassicBuilder.build(50, 80);
        let ops: Vec<Op> = (0..50).map(Op::Insert).collect();
        run_against_oracle(&mut pma, &ops, 10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn oracle_catches_length_divergence() {
        let mut pma = ClassicBuilder.build(10, 16);
        pma.insert(0, ElemId(0));
        let oracle = Oracle::new(); // empty
        oracle.check(&pma);
    }

    #[test]
    fn run_ops_totals_cost() {
        let mut pma = ClassicBuilder.build(10, 16);
        let total = run_ops(&mut pma, &[Op::Insert(0), Op::Insert(1), Op::Delete(0)]);
        assert!(total >= 2);
    }

    #[test]
    fn exponent_fit_recovers_shape() {
        // synthetic: cost = 3·(log n)²
        let pts: Vec<(usize, f64)> = [1 << 8, 1 << 10, 1 << 12, 1 << 14]
            .iter()
            .map(|&n| (n, 3.0 * ((n as f64).log2().powi(2))))
            .collect();
        let p = fit_log_exponent(&pts);
        assert!((p - 2.0).abs() < 0.05, "fit {p} should be ≈ 2");
        let pts1: Vec<(usize, f64)> = [1 << 8, 1 << 10, 1 << 12, 1 << 14]
            .iter()
            .map(|&n| (n, 7.0 * (n as f64).log2()))
            .collect();
        let p1 = fit_log_exponent(&pts1);
        assert!((p1 - 1.0).abs() < 0.05, "fit {p1} should be ≈ 1");
    }
}
