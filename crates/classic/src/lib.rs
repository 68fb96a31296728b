//! # lll-classic — the classical packed-memory array
//!
//! The 1981 Itai–Konheim–Rodeh algorithm [31 in the paper]: elements live in
//! an array of `(1+Θ(1))n` slots organized as a calibrator tree with
//! linearly interpolated density thresholds; an insertion that pushes a leaf
//! past its threshold rebalances (evenly re-spreads) the smallest
//! within-threshold ancestor window. Amortized cost **O(log² n)** per
//! operation — the baseline every improvement in the paper is measured
//! against, and the default reliable substrate `R` for the embedding.
//!
//! Also provided: [`ShiftArray`], the naive O(n)-per-operation baseline that
//! keeps elements packed in a prefix (what you get with a plain `Vec`), used
//! by experiment E10 to anchor the scaling plots.

#![forbid(unsafe_code)]

pub mod shift_array;

pub use lll_core::pma::{ClassicBuilder, ClassicPolicy, PmaBase};
pub use shift_array::{ShiftArray, ShiftArrayBuilder};

/// The classical PMA type.
pub type ClassicPma = PmaBase<ClassicPolicy>;

#[cfg(test)]
mod tests {
    use super::*;
    use lll_core::ids::{ElemId, IdGen};
    use lll_core::ops::Op;
    use lll_core::testkit::{fit_log_exponent, run_against_oracle};
    use lll_core::traits::{LabelingBuilder, ListLabeling};
    use rand::{Rng, SeedableRng};

    fn random_insert_ops(n: usize, seed: u64) -> Vec<Op> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|len| Op::Insert(rng.gen_range(0..=len))).collect()
    }

    #[test]
    fn oracle_random_inserts() {
        let n = 1000;
        let mut pma = ClassicBuilder.build(n, n * 13 / 10);
        run_against_oracle(&mut pma, &random_insert_ops(n, 7), 97);
    }

    #[test]
    fn oracle_mixed_churn() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 400;
        let mut ops = Vec::new();
        let mut len = 0usize;
        for _ in 0..4000 {
            if len == 0 || (len < n && rng.gen_bool(0.55)) {
                ops.push(Op::Insert(rng.gen_range(0..=len)));
                len += 1;
            } else {
                ops.push(Op::Delete(rng.gen_range(0..len)));
                len -= 1;
            }
        }
        let mut pma = ClassicBuilder.build(n, n * 13 / 10);
        run_against_oracle(&mut pma, &ops, 211);
    }

    #[test]
    fn head_insert_cost_scales_like_log_squared() {
        // Sustained head inserts are the canonical workload exhibiting the
        // classical PMA's Θ(log² n) amortized growth (on uniform-random
        // inserts rebalances are rare and the cost is nearly flat — E10
        // plots both). Fit cost/op ≈ c·(log n)^p and check the superlinear-
        // in-log shape; also check absolute polylog sanity.
        let mut points = Vec::new();
        for &n in &[1usize << 10, 1 << 12, 1 << 14] {
            let mut pma = ClassicBuilder.build(n, n * 13 / 10);
            let mut total = 0u64;
            for i in 0..n {
                total += pma.insert(0, ElemId(i as u64)).cost();
            }
            points.push((n, total as f64 / n as f64));
        }
        let p = fit_log_exponent(&points);
        assert!(
            (1.0..=3.5).contains(&p),
            "classical PMA head-insert scaling exponent {p} off (points: {points:?})"
        );
        // absolute sanity: within a small constant of log²n, far from linear
        assert!(points.iter().all(|&(n, c)| c < 3.0 * (n as f64).log2().powi(2)));
    }

    #[test]
    fn capacity_is_respected() {
        let n = 100;
        let mut pma = ClassicBuilder.build(n, 130);
        for i in 0..n {
            pma.insert(i, ElemId(i as u64));
        }
        assert_eq!(pma.len(), n);
        let overflow = std::panic::AssertUnwindSafe(|| pma.insert(0, ElemId(n as u64)));
        assert!(std::panic::catch_unwind(overflow).is_err());
    }

    #[test]
    fn labels_strictly_increase_with_rank() {
        let n = 300;
        let mut pma = ClassicBuilder.build(n, 400);
        let mut ids = IdGen::new();
        for op in random_insert_ops(n, 5) {
            pma.apply(op, &mut ids);
        }
        let labels: Vec<usize> = (0..n).map(|r| pma.label_of_rank(r)).collect();
        assert!(labels.windows(2).all(|w| w[0] < w[1]));
    }
}
