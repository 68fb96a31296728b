//! # lll-predictions — a learning-augmented packed-memory array
//!
//! McCauley, Moseley, Niaparast, Singh, *Online List Labeling with
//! Predictions* (2023) — reference \[35\] of the layered-list-labeling paper
//! and the `X` of its Corollary 12.
//!
//! Each inserted element arrives with a **predicted final rank**; if the
//! predictor's maximum error is `η`, the algorithm achieves amortized cost
//! **O(log² η)** — beating the classical O(log² n) whenever predictions are
//! good, degrading gracefully to the classical bound as η → n.
//!
//! The mechanism (see "Substitutions" in `lll_bench::experiments`): an
//! element predicted to end at final rank `p` is placed near slot `p·m/n`
//! — its slot in the *final* layout — subject to staying between its
//! current rank neighbors. Good predictions therefore keep the occupied
//! density uniform **with respect to final order**, so density violations
//! are confined to η-sized neighborhoods: rebalance windows are capped at
//! `Θ(η·m/n)` slots (with a growing-window fallback that restores the
//! classical behavior when predictions lie).
//!
//! The [`RankPredictor`] trait abstracts the prediction source; workloads
//! provide [`VecPredictor`] (an oracle with injected bounded error). The
//! O(log² η) bound needs a real prediction for every insert: there is no
//! no-information default, and without good predictions a classical PMA is
//! the cheaper structure.

#![forbid(unsafe_code)]

use lll_core::density::{even_targets, SegTree, Thresholds};
use lll_core::ids::ElemId;
use lll_core::report::OpReport;
use lll_core::slot_array::{spread_moves, SlotArray};
use lll_core::traits::{log2f, LabelingBuilder, ListLabeling};

/// A source of predicted final ranks, consulted once per insertion in
/// arrival order.
pub trait RankPredictor: Clone {
    /// Predict the final rank of the element being inserted now at current
    /// `rank`, given the structure's current `len` and `capacity`.
    fn predict(&mut self, rank: usize, len: usize, capacity: usize) -> usize;
}

/// An oracle predictor: a pre-computed prediction per insertion, consumed
/// in arrival order (past the end it predicts the current rank). Workload
/// generators produce these with a controlled maximum error η (experiment
/// E6).
#[derive(Clone, Debug, Default)]
pub struct VecPredictor {
    preds: Vec<usize>,
    next: usize,
}

impl VecPredictor {
    /// Wrap a per-insertion prediction sequence.
    pub fn new(preds: Vec<usize>) -> Self {
        Self { preds, next: 0 }
    }
}

impl RankPredictor for VecPredictor {
    fn predict(&mut self, rank: usize, _len: usize, _capacity: usize) -> usize {
        let p = self.preds.get(self.next).copied().unwrap_or(rank);
        self.next += 1;
        p
    }
}

/// Counters exposed for experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct PredictedStats {
    /// Rebalances within the η-capped window family.
    pub local_rebalances: u64,
    /// Rebalances that needed the growing-window fallback (prediction
    /// quality worse than the configured η).
    pub grown_rebalances: u64,
}

/// The learning-augmented PMA.
#[derive(Clone, Debug)]
pub struct PredictedPma<P: RankPredictor> {
    slots: SlotArray,
    tree: SegTree,
    thresholds: Thresholds,
    capacity: usize,
    predictor: P,
    /// Rebalance windows are capped at this many slots (≈ 4·η·m/n).
    cap_window: usize,
    stats: PredictedStats,
}

impl<P: RankPredictor> PredictedPma<P> {
    /// New structure for `capacity` elements on `num_slots` slots, tuned for
    /// maximum prediction error `eta` (in rank units), with the given
    /// predictor.
    pub fn new(capacity: usize, num_slots: usize, eta: usize, predictor: P) -> Self {
        assert!(num_slots > capacity);
        let tree = SegTree::new(num_slots);
        let seg = num_slots / tree.num_segs().max(1);
        let slots_per_rank = num_slots as f64 / capacity as f64;
        let cap_window =
            ((4.0 * eta.max(1) as f64 * slots_per_rank).ceil() as usize).max(4 * seg.max(2));
        Self {
            slots: SlotArray::new(num_slots),
            tree,
            thresholds: Thresholds::for_capacity(capacity, num_slots),
            capacity,
            predictor,
            cap_window,
            stats: PredictedStats::default(),
        }
    }

    /// Experiment counters.
    pub fn stats(&self) -> PredictedStats {
        self.stats
    }

    /// The configured rebalance-window cap in slots.
    pub fn cap_window(&self) -> usize {
        self.cap_window
    }

    fn rebalance(&mut self, a: usize, b: usize) {
        let k = self.slots.occupied_in(a, b);
        let targets = even_targets(a, b, k);
        let mut pairs = Vec::with_capacity(k);
        for (i, (pos, _)) in self.slots.iter_occupied_in(a, b).enumerate() {
            pairs.push((pos, targets[i]));
        }
        spread_moves(&mut self.slots, &pairs);
    }

    /// Make room near `probe` for one more element: smallest within-cap
    /// calibrator window within threshold, else geometrically grown
    /// neighborhoods (the bad-prediction fallback), else the root.
    fn ensure_room(&mut self, probe: usize) {
        let m = self.slots.num_slots();
        let h = self.tree.height();
        let seg = self.tree.seg_of(probe);
        // Leaf fast path: within threshold and physically roomy.
        let (la, lb) = self.tree.window(0, seg);
        let leaf_occ = self.slots.occupied_in(la, lb);
        if (leaf_occ + 1) as f64 <= self.thresholds.upper(0, h) * (lb - la) as f64
            && leaf_occ < lb - la
        {
            return;
        }
        for level in 1..=h {
            let (a, b) = self.tree.window(level, seg);
            if b - a > self.cap_window {
                break;
            }
            if (self.slots.occupied_in(a, b) + 1) as f64
                <= self.thresholds.upper(level, h) * (b - a) as f64
            {
                self.rebalance(a, b);
                self.stats.local_rebalances += 1;
                return;
            }
        }
        // Growing-neighborhood fallback: predictions were worse than η here.
        let mut half = self.cap_window.max(1);
        loop {
            let a = probe.saturating_sub(half);
            let b = (probe + half).min(m);
            if (self.slots.occupied_in(a, b) + 1) as f64
                <= self.thresholds.root_upper * (b - a) as f64
                || (a == 0 && b == m)
            {
                assert!(self.len() < m, "array physically full: len={} m={m}", self.len());
                self.rebalance(a, b);
                self.stats.grown_rebalances += 1;
                return;
            }
            half *= 2;
        }
    }

    fn neighbors(&self, rank: usize) -> (Option<usize>, Option<usize>) {
        let len = self.len();
        let pred = if rank > 0 { Some(self.slots.select(rank - 1)) } else { None };
        let succ = if rank < len { Some(self.slots.select(rank)) } else { None };
        (pred, succ)
    }

    /// The slot the prediction asks for, clamped into the legal gap.
    fn desired_slot(&self, prediction: usize, rank: usize) -> usize {
        let m = self.slots.num_slots();
        let ideal = ((prediction.min(self.capacity) as u128 * m as u128)
            / self.capacity.max(1) as u128) as usize;
        let ideal = ideal.min(m - 1);
        let (pred, succ) = self.neighbors(rank);
        let lo = pred.map(|p| p + 1).unwrap_or(0);
        let hi = succ.unwrap_or(m); // exclusive
        if lo >= hi {
            // adjacent neighbors: no legal slot without shifting; aim at the
            // boundary, place_at will shift
            return lo.min(m - 1);
        }
        ideal.clamp(lo, hi - 1)
    }

    /// Place a fresh element as close to `want` as the gap allows,
    /// shifting minimally when the gap is saturated.
    fn place_at(&mut self, rank: usize, want: usize, id: ElemId) -> usize {
        let (pred, succ) = self.neighbors(rank);
        let m = self.slots.num_slots();
        let (lo, hi) = match (pred, succ) {
            (None, None) => (0, m),
            (Some(p), None) => (p + 1, m),
            (None, Some(q)) => (0, q),
            (Some(p), Some(q)) => (p + 1, q),
        };
        if lo < hi && !self.slots.is_occupied(want.clamp(lo, hi - 1)) {
            let pos = want.clamp(lo, hi - 1);
            self.slots.place(pos, id);
            return pos;
        }
        // Saturated gap: shift toward the nearest free slot.
        let anchor = pred.or(succ).unwrap_or(m / 2);
        let left = match (pred, succ) {
            (None, Some(q)) => {
                if q > 0 {
                    self.slots.prev_free(q - 1)
                } else {
                    None
                }
            }
            (Some(p), _) => self.slots.prev_free(p),
            _ => None,
        };
        let right = match (pred, succ) {
            (Some(p), None) => self.slots.next_free(p + 1),
            (_, Some(q)) => self.slots.next_free(q),
            _ => None,
        };
        let dl = left.map(|l| anchor.saturating_sub(l)).unwrap_or(usize::MAX);
        let dr = right.map(|r| r.saturating_sub(anchor)).unwrap_or(usize::MAX);
        let pos = if dl <= dr {
            let l = left.expect("no free slot");
            let p = pred.expect("left shift requires predecessor");
            for q in l + 1..=p {
                self.slots.move_elem(q, q - 1);
            }
            p
        } else {
            let r = right.expect("no free slot");
            let q = succ.expect("right shift requires successor");
            for t in (q..r).rev() {
                self.slots.move_elem(t, t + 1);
            }
            q
        };
        self.slots.place(pos, id);
        pos
    }
}

impl<P: RankPredictor> ListLabeling for PredictedPma<P> {
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
        let prediction = self.predictor.predict(rank, len, self.capacity);
        if len > 0 {
            let probe = self.desired_slot(prediction, rank);
            self.ensure_room(probe);
            // positions may have moved; the desired slot is recomputed below
        }
        let want = self.desired_slot(prediction, rank);
        let pos = self.place_at(rank, want, id);
        out.placed = Some((id, pos as u32));
        self.slots.drain_log_into(&mut out.moves);
    }

    fn delete_into(&mut self, rank: usize, out: &mut OpReport) {
        out.clear();
        let len = self.len();
        assert!(rank < len, "delete rank {rank} >= len {len}");
        let pos = self.slots.select(rank);
        let elem = self.slots.remove(pos);
        // Local lower-threshold patrol, capped like the upper side.
        if self.len() >= 8 {
            let h = self.tree.height();
            let seg = self.tree.seg_of(pos);
            let (la, lb) = self.tree.window(0, seg);
            let d = self.slots.occupied_in(la, lb) as f64 / (lb - la) as f64;
            if d < self.thresholds.lower(0, h) {
                for level in 1..=h {
                    let (a, b) = self.tree.window(level, seg);
                    if b - a > self.cap_window {
                        break;
                    }
                    let dd = self.slots.occupied_in(a, b) as f64 / (b - a) as f64;
                    if dd >= self.thresholds.lower(level, h) {
                        self.rebalance(a, b);
                        self.stats.local_rebalances += 1;
                        break;
                    }
                }
            }
        }
        self.slots.drain_log_into(&mut out.moves);
        out.removed = Some((elem, pos as u32));
    }

    fn slots(&self) -> &SlotArray {
        &self.slots
    }

    fn set_metrics(&mut self, metrics: lll_core::metrics::MetricsHandle) {
        self.slots.set_metrics(metrics);
    }

    fn name(&self) -> &'static str {
        "predicted-pma"
    }
}

/// Builder for [`PredictedPma`]: carries the error budget η and a prototype
/// predictor cloned into each built structure.
#[derive(Clone, Debug)]
pub struct PredictedBuilder<P: RankPredictor> {
    /// Maximum prediction error the structure is tuned for (rank units).
    pub eta: usize,
    /// Prototype predictor, cloned per build.
    pub predictor: P,
}

impl<P: RankPredictor> LabelingBuilder for PredictedBuilder<P> {
    type Structure = PredictedPma<P>;

    fn build(&self, capacity: usize, num_slots: usize) -> Self::Structure {
        PredictedPma::new(capacity, num_slots, self.eta, self.predictor.clone())
    }

    fn expected_cost_hint(&self, _capacity: usize) -> f64 {
        let lg = log2f(self.eta.max(2));
        (lg * lg).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_core::ids::IdGen;
    use lll_core::ops::Op;
    use lll_core::testkit::run_against_oracle;
    use rand::{Rng, SeedableRng};

    /// Descending-value insertion: arrival i ends at final rank n-1-i, so
    /// every insert is at current rank 0 — the classical PMA's hammer case,
    /// the predicted PMA's best case (perfect predictions spread arrivals).
    fn descending(n: usize) -> (Vec<Op>, Vec<usize>) {
        let ops = vec![Op::Insert(0); n];
        let preds = (0..n).rev().collect();
        (ops, preds)
    }

    #[test]
    fn oracle_with_perfect_predictions() {
        let n = 600;
        let (ops, preds) = descending(n);
        let b = PredictedBuilder { eta: 1, predictor: VecPredictor::new(preds) };
        let mut s = b.build(n, n * 14 / 10);
        run_against_oracle(&mut s, &ops, 53);
    }

    #[test]
    fn oracle_with_noisy_predictions() {
        let n = 600;
        let eta = 40usize;
        let (ops, mut preds) = descending(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for p in &mut preds {
            let noise = rng.gen_range(0..=2 * eta) as isize - eta as isize;
            *p = (*p as isize + noise).clamp(0, n as isize - 1) as usize;
        }
        let b = PredictedBuilder { eta, predictor: VecPredictor::new(preds) };
        let mut s = b.build(n, n * 14 / 10);
        run_against_oracle(&mut s, &ops, 53);
    }

    #[test]
    fn oracle_without_predictions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let n = 500;
        let mut ops = Vec::new();
        let mut len = 0usize;
        for _ in 0..3000 {
            if len == 0 || (len < n && rng.gen_bool(0.6)) {
                ops.push(Op::Insert(rng.gen_range(0..=len)));
                len += 1;
            } else {
                ops.push(Op::Delete(rng.gen_range(0..len)));
                len -= 1;
            }
        }
        let mut s =
            PredictedBuilder { eta: 64, predictor: VecPredictor::default() }.build(n, n * 14 / 10);
        run_against_oracle(&mut s, &ops, 97);
    }

    #[test]
    fn perfect_predictions_beat_classic_on_descending() {
        use lll_classic::ClassicBuilder;
        let n = 1 << 13;
        let (ops, preds) = descending(n);
        let b = PredictedBuilder { eta: 1, predictor: VecPredictor::new(preds) };
        let mut s = b.build(n, n * 14 / 10);
        let mut c = ClassicBuilder.build(n, n * 14 / 10);
        let mut cost_s = 0u64;
        let mut cost_c = 0u64;
        let (mut ids_s, mut ids_c) = (IdGen::new(), IdGen::new());
        for &op in &ops {
            cost_s += s.apply(op, &mut ids_s).cost();
            cost_c += c.apply(op, &mut ids_c).cost();
        }
        let (a, b2) = (cost_s as f64 / n as f64, cost_c as f64 / n as f64);
        assert!(a < 0.4 * b2, "predicted ({a:.2}/op) should be far below classical ({b2:.2}/op)");
    }

    #[test]
    fn cost_grows_with_eta() {
        // Corollary 12's shape: amortized cost increases with predictor
        // error (≈ log² η).
        let n = 1 << 12;
        let run = |eta: usize, seed: u64| -> f64 {
            let (ops, mut preds) = descending(n);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            if eta > 1 {
                for p in &mut preds {
                    let noise = rng.gen_range(0..=2 * eta) as isize - eta as isize;
                    *p = (*p as isize + noise).clamp(0, n as isize - 1) as usize;
                }
            }
            let b = PredictedBuilder { eta, predictor: VecPredictor::new(preds) };
            let mut s = b.build(n, n * 14 / 10);
            let mut ids = IdGen::new();
            let total: u64 = ops.iter().map(|&op| s.apply(op, &mut ids).cost()).sum();
            total as f64 / n as f64
        };
        let low = run(1, 1);
        let high = run(n / 4, 1);
        assert!(low < high, "cost should grow with η: η=1 → {low:.2}, η=n/4 → {high:.2}");
    }

    #[test]
    fn grown_rebalances_fire_only_on_bad_predictions() {
        let n = 4096;
        // Perfect predictions, η configured honestly: no grown rebalances.
        let (ops, preds) = descending(n);
        let b = PredictedBuilder { eta: 1, predictor: VecPredictor::new(preds) };
        let mut s = b.build(n, n * 14 / 10);
        let mut ids = IdGen::new();
        for &op in &ops {
            s.apply(op, &mut ids);
        }
        assert_eq!(s.stats().grown_rebalances, 0, "perfect predictions should stay local");
    }

    #[test]
    fn fills_to_capacity() {
        let n = 500;
        let mut s =
            PredictedBuilder { eta: 64, predictor: VecPredictor::default() }.build(n, n * 14 / 10);
        for i in 0..n {
            s.insert(i / 2, ElemId(i as u64));
        }
        assert_eq!(s.len(), n);
    }
}
