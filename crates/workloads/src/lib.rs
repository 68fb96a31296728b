//! # lll-workloads — deterministic workload generators
//!
//! Every experiment in this workspace consumes operation sequences from
//! here. All generators are seeded and deterministic (the paper's oblivious
//! adversary: inputs are fixed before the structures' random tapes are
//! drawn), and every sequence is validated by construction (ranks are
//! always legal for the running length).
//!
//! Workload catalogue (mapping to the experiment ids indexed in the
//! `lll_bench::experiments` module docs):
//!
//! * [`uniform_random_inserts`] / [`uniform_churn`] — the oblivious random
//!   workloads under which the randomized structure `Y` shines (E4, E5,
//!   E10, E11).
//! * [`hammer_inserts`] — the Bender–Hu hammer-insert workload (insertions
//!   repeatedly at one rank) on which the adaptive `X` achieves O(log n)
//!   (Corollary 11; E5, E10).
//! * [`sequential_inserts`] / [`descending_inserts`] — sorted bulk loads,
//!   the databases' bulk-load motivation from §1 (E5, E6, E10).
//! * [`random_walk_inserts`], [`zipf_inserts`], [`bulk_runs`] — skewed and
//!   clustered patterns used for coverage.
//! * [`adversarial_packed`] — a semi-adaptive dense-region attack used to
//!   probe worst-case behavior (E4, E11).
//! * [`with_predictions`] — wraps an insert-only workload with an oracle
//!   rank predictor of bounded error η (Corollary 12; E6).

#![forbid(unsafe_code)]

use lll_core::ops::Op;
use lll_core::rng::rng_from_seed;
use rand::Rng;

/// A named operation sequence.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Human-readable name (appears in experiment tables).
    pub name: String,
    /// The operations, valid from an empty structure.
    pub ops: Vec<Op>,
    /// The maximum live size reached (structures need at least this
    /// capacity).
    pub peak: usize,
}

impl Workload {
    fn new(name: impl Into<String>, ops: Vec<Op>) -> Self {
        let mut len = 0usize;
        let mut peak = 0usize;
        for op in &ops {
            assert!(op.valid_for_len(len), "generated invalid op {op:?} at len {len}");
            len = (len as isize + op.delta_len()) as usize;
            peak = peak.max(len);
        }
        Self { name: name.into(), ops, peak }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if there are no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// `n` insertions at uniformly random ranks (the canonical oblivious
/// workload).
pub fn uniform_random_inserts(n: usize, seed: u64) -> Workload {
    let mut rng = rng_from_seed(seed);
    let ops = (0..n).map(|len| Op::Insert(rng.gen_range(0..=len))).collect();
    Workload::new(format!("uniform-random(n={n})"), ops)
}

/// Fill to `n`, then `steady` alternating random delete/insert pairs
/// keeping the size at `n` (steady-state churn).
pub fn uniform_churn(n: usize, steady: usize, seed: u64) -> Workload {
    let mut rng = rng_from_seed(seed);
    let mut ops: Vec<Op> = (0..n).map(|len| Op::Insert(rng.gen_range(0..=len))).collect();
    for _ in 0..steady {
        ops.push(Op::Delete(rng.gen_range(0..n)));
        ops.push(Op::Insert(rng.gen_range(0..n)));
    }
    Workload::new(format!("uniform-churn(n={n},steady={steady})"), ops)
}

/// `n` insertions all at the same rank — the hammer-insert workload of
/// Bender–Hu \[18\] (rank 0 = always-new-smallest).
pub fn hammer_inserts(n: usize, rank: usize) -> Workload {
    let ops = (0..n).map(|len| Op::Insert(rank.min(len))).collect();
    Workload::new(format!("hammer(n={n},rank={rank})"), ops)
}

/// `n` insertions at the end (ascending sorted bulk load).
pub fn sequential_inserts(n: usize) -> Workload {
    let ops = (0..n).map(Op::Insert).collect();
    Workload::new(format!("sequential(n={n})"), ops)
}

/// `n` insertions at the front (descending sorted bulk load; every insert
/// is rank 0, and arrival `i` has final rank `n-1-i`).
pub fn descending_inserts(n: usize) -> Workload {
    let ops = vec![Op::Insert(0); n];
    Workload::new(format!("descending(n={n})"), ops)
}

/// Insertions whose rank performs a reflected ±step random walk — locally
/// clustered but drifting.
pub fn random_walk_inserts(n: usize, max_step: usize, seed: u64) -> Workload {
    let mut rng = rng_from_seed(seed);
    let mut pos = 0isize;
    let mut ops = Vec::with_capacity(n);
    for len in 0..n {
        let step = rng.gen_range(0..=max_step) as isize;
        pos += if rng.gen_bool(0.5) { step } else { -step };
        pos = pos.clamp(0, len as isize);
        ops.push(Op::Insert(pos as usize));
    }
    Workload::new(format!("random-walk(n={n},step={max_step})"), ops)
}

/// Insertions at ranks drawn from a Zipf-like distribution over the current
/// prefix (heavily skewed toward the front).
pub fn zipf_inserts(n: usize, exponent: f64, seed: u64) -> Workload {
    let mut rng = rng_from_seed(seed);
    let mut ops = Vec::with_capacity(n);
    for len in 0..n {
        // inverse-CDF sample of a bounded Pareto over [1, len+1]
        let u: f64 = rng.gen_range(0.0..1.0);
        let max = (len + 1) as f64;
        let r = if exponent == 1.0 {
            max.powf(u)
        } else {
            let a = 1.0 - exponent;
            ((max.powf(a) - 1.0) * u + 1.0).powf(1.0 / a)
        };
        let rank = (r.floor() as usize - 1).min(len);
        ops.push(Op::Insert(rank));
    }
    Workload::new(format!("zipf(n={n},s={exponent})"), ops)
}

/// Bulk loads: `runs` sorted runs of length `run_len`, each inserted
/// ascending at a random anchor (database batch ingestion).
pub fn bulk_runs(runs: usize, run_len: usize, seed: u64) -> Workload {
    let mut rng = rng_from_seed(seed);
    let mut ops = Vec::with_capacity(runs * run_len);
    let mut len = 0usize;
    for _ in 0..runs {
        let anchor = rng.gen_range(0..=len);
        for j in 0..run_len {
            ops.push(Op::Insert((anchor + j).min(len)));
            len += 1;
        }
    }
    Workload::new(format!("bulk(runs={runs},len={run_len})"), ops)
}

/// A semi-adaptive attack: insertions concentrate into an ever-narrowing
/// band of ranks, packing one region as densely as the structure allows.
/// (Still oblivious — the sequence is fixed in advance — but shaped to
/// stress rebalance cascades.)
pub fn adversarial_packed(n: usize, seed: u64) -> Workload {
    let mut rng = rng_from_seed(seed);
    let mut ops = Vec::with_capacity(n);
    let mut lo = 0usize;
    for len in 0..n {
        // band tightens as the structure fills
        let width = (n - len).max(1).ilog2() as usize + 1;
        let band_lo = lo.min(len);
        let band_hi = (band_lo + width).min(len);
        let rank = rng.gen_range(band_lo..=band_hi);
        ops.push(Op::Insert(rank));
        if len % 64 == 63 {
            lo = rng.gen_range(0..=len / 2); // relocate the attack band
        }
    }
    Workload::new(format!("adversarial-packed(n={n})"), ops)
}

/// An insert-only workload together with per-insertion predicted final
/// ranks whose maximum error is at most `eta` (Corollary 12's setup).
#[derive(Clone, Debug)]
pub struct PredictedWorkload {
    /// The operations.
    pub workload: Workload,
    /// One predicted final rank per insertion, in arrival order.
    pub predictions: Vec<usize>,
    /// The error bound used to generate the predictions.
    pub eta: usize,
}

/// Compute the true final ranks of an insert-only sequence, then perturb
/// them by ±η uniformly.
///
/// Final ranks are computed by replaying the sequence and tracking where
/// each arrival ends after all later insertions shift it.
pub fn with_predictions(workload: Workload, eta: usize, seed: u64) -> PredictedWorkload {
    assert!(workload.ops.iter().all(|op| op.is_insert()), "predictions need insert-only");
    let n = workload.ops.len();
    // Replay: maintain the arrival index of each current rank.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for (i, op) in workload.ops.iter().enumerate() {
        order.insert(op.rank(), i);
    }
    // order[r] = arrival index of the element with final rank r
    let mut final_rank = vec![0usize; n];
    for (r, &arrival) in order.iter().enumerate() {
        final_rank[arrival] = r;
    }
    let mut rng = rng_from_seed(seed);
    let predictions = final_rank
        .iter()
        .map(|&f| {
            if eta == 0 {
                f
            } else {
                let noise = rng.gen_range(0..=2 * eta) as isize - eta as isize;
                (f as isize + noise).clamp(0, n as isize - 1) as usize
            }
        })
        .collect();
    PredictedWorkload { workload, predictions, eta }
}

/// The standard experiment suite at size `n` (E4/E5/E10 use exactly these).
pub fn standard_suite(n: usize, seed: u64) -> Vec<Workload> {
    vec![
        uniform_random_inserts(n, seed),
        hammer_inserts(n, 0),
        sequential_inserts(n),
        random_walk_inserts(n, 4, seed.wrapping_add(1)),
        zipf_inserts(n, 1.2, seed.wrapping_add(2)),
        adversarial_packed(n, seed.wrapping_add(3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_core::ops::check_sequence;

    #[test]
    fn all_generators_produce_valid_sequences() {
        let n = 500;
        for w in standard_suite(n, 42) {
            assert_eq!(check_sequence(0, &w.ops), Some(w.peak), "{} invalid", w.name);
            assert_eq!(w.len(), n);
        }
        let churn = uniform_churn(200, 300, 1);
        assert!(check_sequence(0, &churn.ops).is_some());
        assert_eq!(churn.peak, 200);
        let bulk = bulk_runs(10, 50, 2);
        assert!(check_sequence(0, &bulk.ops).is_some());
    }

    #[test]
    fn generators_are_deterministic() {
        let a = uniform_random_inserts(300, 7);
        let b = uniform_random_inserts(300, 7);
        assert_eq!(a.ops, b.ops);
        let c = uniform_random_inserts(300, 8);
        assert_ne!(a.ops, c.ops);
    }

    #[test]
    fn hammer_is_constant_rank() {
        let w = hammer_inserts(100, 0);
        assert!(w.ops.iter().all(|op| matches!(op, Op::Insert(0))));
        let w5 = hammer_inserts(100, 5);
        // once len > 5, rank is exactly 5
        assert!(w5.ops[6..].iter().all(|op| matches!(op, Op::Insert(5))));
    }

    #[test]
    fn predictions_have_bounded_error() {
        let n = 400;
        let eta = 25;
        let w = with_predictions(descending_inserts(n), eta, 3);
        // descending arrival i has true final rank n-1-i
        for (i, &p) in w.predictions.iter().enumerate() {
            let truth = n - 1 - i;
            let err = (p as isize - truth as isize).unsigned_abs();
            assert!(err <= eta, "prediction error {err} > η={eta}");
        }
    }

    #[test]
    fn perfect_predictions_match_truth_for_sequential() {
        let n = 300;
        let w = with_predictions(sequential_inserts(n), 0, 1);
        // ascending arrival i has final rank i
        for (i, &p) in w.predictions.iter().enumerate() {
            assert_eq!(p, i);
        }
    }

    #[test]
    fn zipf_is_skewed_frontward() {
        let w = zipf_inserts(2000, 1.5, 5);
        let front = w.ops.iter().filter(|op| op.rank() < 10).count();
        assert!(front > w.len() / 4, "zipf should hit the front often: {front}");
    }

    #[test]
    fn random_walk_moves_locally() {
        let w = random_walk_inserts(1000, 3, 9);
        let mut prev = 0isize;
        let mut big_jumps = 0;
        for op in &w.ops {
            let r = op.rank() as isize;
            if (r - prev).abs() > 3 {
                big_jumps += 1;
            }
            prev = r;
        }
        assert_eq!(big_jumps, 0, "walk steps exceed max_step");
    }
}
