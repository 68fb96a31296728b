//! # lll-adaptive — the adaptive packed-memory array (APMA)
//!
//! Bender & Hu, *An adaptive packed-memory array* (TODS 2007) — reference
//! \[18\] of the layered-list-labeling paper, and the `X` of its Corollary 11.
//!
//! The classical PMA spreads elements **evenly** when it rebalances, which
//! is provably wasteful on skewed insertion patterns: a *hammer-insert*
//! workload (all insertions hitting one rank) refills the same leaf over and
//! over, paying Θ(log² n) amortized. The APMA instead:
//!
//! 1. **learns** where insertions land — a per-segment counter bank with
//!    periodic halving approximates Bender–Hu's predictor of recent
//!    insertion frequency; and
//! 2. **rebalances unevenly** — when a window is re-spread, free slots are
//!    allocated to segments proportionally to their predicted insertion
//!    pressure, so the hammered region receives almost all the headroom.
//!
//! On hammer-insert workloads this drops the amortized cost to O(log n)
//! (experiments E5/E10 verify the measured separation from the classical
//! PMA), while on arbitrary workloads it retains the classical O(log² n)
//! amortized bound (the uneven layout still respects every window's density
//! thresholds).

#![forbid(unsafe_code)]

use lll_core::density::{even_targets_into, SegTree, Thresholds};
use lll_core::pma::{PmaBase, RebalancePolicy};
use lll_core::slot_array::SlotArray;
use lll_core::traits::{log2f, LabelingBuilder};

/// Halve all predictor counters after this many insertions (keeps the
/// predictor focused on the *recent* workload; amortized O(1)/op).
const DECAY_EVERY: u32 = 4096;
/// Weight of one recorded insertion relative to the baseline weight 1.
/// Larger values chase the workload harder.
const HOTNESS_WEIGHT: f64 = 8.0;
/// Fraction of a segment's slots that must stay occupied-capable: a
/// segment never receives so many gaps that it cannot hold its current
/// elements.
const MIN_FILL: f64 = 0.1;

/// The APMA rebalance policy: classical thresholds, uneven target layouts.
#[derive(Clone, Debug)]
pub struct AdaptivePolicy {
    thresholds: Thresholds,
    /// Per-segment recent-insert counters (the predictor).
    counts: Vec<f64>,
    inserts_since_decay: u32,
}

impl AdaptivePolicy {
    /// Policy for a structure of `capacity` elements on `num_slots` slots.
    pub fn new(capacity: usize, num_slots: usize) -> Self {
        Self {
            thresholds: Thresholds::for_capacity(capacity, num_slots),
            counts: Vec::new(),
            inserts_since_decay: 0,
        }
    }

    /// The predictor's current counter for a segment (test instrumentation).
    pub fn segment_heat(&self, seg: usize) -> f64 {
        self.counts.get(seg).copied().unwrap_or(0.0)
    }

    fn ensure_counts(&mut self, num_segs: usize) {
        if self.counts.len() < num_segs {
            self.counts.resize(num_segs, 0.0);
        }
    }

    /// Allocate `k` elements across the segments of `[a, b)` so that hot
    /// segments keep more free slots, then lay each segment's share out
    /// evenly inside it. Appends strictly increasing in-window targets to
    /// `out` (which arrives empty).
    fn uneven_targets_into(
        &mut self,
        tree: &SegTree,
        a: usize,
        b: usize,
        k: usize,
        out: &mut Vec<usize>,
    ) {
        let s0 = tree.seg_of(a);
        let s1 = tree.seg_of(b - 1);
        let segs = s1 - s0 + 1;
        if segs <= 1 || k == 0 {
            return even_targets_into(a, b, k, out);
        }
        self.ensure_counts(tree.num_segs());
        let widths: Vec<usize> =
            (s0..=s1).map(|s| tree.seg_start(s + 1).min(b) - tree.seg_start(s).max(a)).collect();
        let total_width: usize = widths.iter().sum();
        debug_assert_eq!(total_width, b - a);
        let gaps_total = total_width - k;

        // Gap shares ∝ 1 + HOTNESS_WEIGHT · predictor count.
        let weights: Vec<f64> = (s0..=s1).map(|s| 1.0 + HOTNESS_WEIGHT * self.counts[s]).collect();
        let wsum: f64 = weights.iter().sum();

        // Provisional per-segment gap allocation (largest-remainder method),
        // clamped so each segment keeps at least MIN_FILL·width occupancy
        // *capacity* and no segment gets more gaps than its width.
        let mut gaps: Vec<usize> = Vec::with_capacity(segs);
        let mut rema: Vec<(f64, usize)> = Vec::with_capacity(segs);
        let mut assigned = 0usize;
        for (i, w) in weights.iter().enumerate() {
            let ideal = gaps_total as f64 * w / wsum;
            let fl = ideal.floor() as usize;
            let max_gap = widths[i].saturating_sub(((widths[i] as f64) * MIN_FILL).ceil() as usize);
            let g = fl.min(max_gap);
            gaps.push(g);
            assigned += g;
            if g < max_gap {
                rema.push((ideal - fl as f64, i));
            }
        }
        // Distribute the remainder to segments with the largest fractional
        // parts (that still have room for another gap).
        rema.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap());
        let mut left = gaps_total.saturating_sub(assigned);
        let mut pass = 0usize;
        while left > 0 {
            let mut progressed = false;
            for &(_, i) in &rema {
                if left == 0 {
                    break;
                }
                let max_gap = widths[i].saturating_sub(1);
                if gaps[i] < max_gap {
                    gaps[i] += 1;
                    left -= 1;
                    progressed = true;
                }
            }
            pass += 1;
            if !progressed || pass > total_width {
                // Fall back to any segment with spare width.
                for i in 0..segs {
                    while left > 0 && gaps[i] < widths[i].saturating_sub(1) {
                        gaps[i] += 1;
                        left -= 1;
                    }
                }
                break;
            }
        }
        if left > 0 {
            // The clamps were collectively too tight (tiny windows); even
            // spread is always feasible.
            return even_targets_into(a, b, k, out);
        }

        // Per-segment element counts, then even layout inside each segment.
        let mut placed = 0usize;
        for (i, s) in (s0..=s1).enumerate() {
            let seg_a = tree.seg_start(s).max(a);
            let seg_b = tree.seg_start(s + 1).min(b);
            let elems = (widths[i] - gaps[i]).min(k - placed);
            even_targets_into(seg_a, seg_b, elems, out);
            placed += elems;
        }
        if placed < k {
            // Rounding starved the tail; redo evenly (rare, small windows).
            out.clear();
            return even_targets_into(a, b, k, out);
        }
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
    }
}

impl RebalancePolicy for AdaptivePolicy {
    fn upper(&mut self, level: usize, height: usize, _window: (usize, usize)) -> f64 {
        self.thresholds.upper(level, height)
    }

    fn lower(&mut self, level: usize, height: usize, _window: (usize, usize)) -> f64 {
        self.thresholds.lower(level, height)
    }

    fn targets_into(
        &mut self,
        tree: &SegTree,
        slots: &SlotArray,
        a: usize,
        b: usize,
        out: &mut Vec<usize>,
    ) {
        let k = slots.occupied_in(a, b);
        self.uneven_targets_into(tree, a, b, k, out);
    }

    fn on_insert(&mut self, tree: &SegTree, pos: usize) {
        self.ensure_counts(tree.num_segs());
        let seg = tree.seg_of(pos);
        self.counts[seg] += 1.0;
        self.inserts_since_decay += 1;
        if self.inserts_since_decay >= DECAY_EVERY {
            for c in &mut self.counts {
                *c *= 0.5;
            }
            self.inserts_since_decay = 0;
        }
    }

    fn name(&self) -> &'static str {
        "adaptive-apma"
    }
}

/// The adaptive PMA.
pub type AdaptivePma = PmaBase<AdaptivePolicy>;

/// Builder for [`AdaptivePma`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AdaptiveBuilder;

impl LabelingBuilder for AdaptiveBuilder {
    type Structure = AdaptivePma;

    fn build(&self, capacity: usize, num_slots: usize) -> Self::Structure {
        PmaBase::new(capacity, num_slots, AdaptivePolicy::new(capacity, num_slots))
    }

    fn expected_cost_hint(&self, capacity: usize) -> f64 {
        let lg = log2f(capacity);
        lg * lg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_core::ids::ElemId;
    use lll_core::ops::Op;
    use lll_core::testkit::run_against_oracle;
    use lll_core::traits::ListLabeling;
    use rand::{Rng, SeedableRng};

    #[test]
    fn oracle_random_workload() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
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
        let mut apma = AdaptiveBuilder.build(n, n * 13 / 10);
        run_against_oracle(&mut apma, &ops, 173);
    }

    #[test]
    fn oracle_hammer_workload() {
        let n = 600;
        let ops: Vec<Op> = (0..n).map(|_| Op::Insert(0)).collect();
        let mut apma = AdaptiveBuilder.build(n, n * 13 / 10);
        run_against_oracle(&mut apma, &ops, 101);
    }

    #[test]
    fn hammer_beats_classic() {
        // The headline adaptive claim: on hammer inserts (fixed rank) the
        // APMA's amortized cost is well below the classical PMA's.
        use lll_classic::ClassicBuilder;
        let n = 1 << 13;
        let m = n * 13 / 10;
        let hammer_rank = 0usize;

        let mut apma = AdaptiveBuilder.build(n, m);
        let mut classic = ClassicBuilder.build(n, m);
        let mut cost_a = 0u64;
        let mut cost_c = 0u64;
        for i in 0..n as u64 {
            cost_a += apma.insert(hammer_rank, ElemId(i)).cost();
            cost_c += classic.insert(hammer_rank, ElemId(i)).cost();
        }
        let (a, c) = (cost_a as f64 / n as f64, cost_c as f64 / n as f64);
        assert!(
            a < 0.75 * c,
            "APMA ({a:.2}/op) should beat classical ({c:.2}/op) on hammer inserts"
        );
    }

    #[test]
    fn predictor_tracks_hot_segment() {
        let n = 2048;
        let mut apma = AdaptiveBuilder.build(n, n * 13 / 10);
        for i in 0..n / 2 {
            apma.insert(0, ElemId(i as u64));
        }
        // The head of the array should be the hottest region.
        let tree = apma.tree().clone();
        let hot = apma.policy().segment_heat(tree.seg_of(apma.slots().select(0)));
        let cold = apma.policy().segment_heat(tree.num_segs() - 1);
        assert!(hot > cold, "predictor hot={hot} cold={cold}");
    }

    #[test]
    fn uneven_layout_is_valid() {
        // After hammering, a rebalance must still produce a legal layout
        // (strictly increasing targets, all in window) — checked by the
        // debug assertions inside PmaBase; here we just exercise it hard.
        let n = 4096;
        let mut apma = AdaptiveBuilder.build(n, n * 13 / 10);
        for i in 0..n / 2 {
            apma.insert(i / 7, ElemId(i as u64));
        }
        assert_eq!(apma.len(), n / 2);
        let labels: Vec<usize> = (0..apma.len()).map(|r| apma.label_of_rank(r)).collect();
        assert!(labels.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn random_workload_cost_stays_polylog() {
        let n = 1 << 12;
        let mut apma = AdaptiveBuilder.build(n, n * 13 / 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut total = 0u64;
        for len in 0..n {
            total += apma.insert(rng.gen_range(0..=len), ElemId(len as u64)).cost();
        }
        let amortized = total as f64 / n as f64;
        assert!(amortized < 80.0, "adaptive amortized {amortized} too high on random input");
    }
}
