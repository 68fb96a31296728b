//! # lll-randomized — a history-independent randomized PMA
//!
//! The `Y` of the paper's Corollary 11 is the randomized algorithm of
//! Bender, Conway, Farach-Colton, Komlós, Kuszmaul, Wein (FOCS 2022,
//! reference \[8\]), which breaks the O(log² n) barrier with expected cost
//! O(log^{3/2} n) — at the price of *"almost pessimal tail bounds (the cost
//! is k with probability ~1/k)"* (paper §1) and no worst-case guarantee.
//!
//! **Substitution note** (see "Substitutions" in `lll_bench::experiments`).
//! We implement a faithful *profile equivalent* rather than the full
//! FOCS'22 machinery: a history-independence-styled PMA (after Bender et
//! al., PODS 2016 \[4\]) with two randomized mechanisms:
//!
//! 1. **Randomized per-node density thresholds.** Each calibrator-tree node
//!    draws a uniform jitter subtracted from its upper threshold, redrawn
//!    every time the node is rebalanced. Cascades across levels therefore
//!    desynchronize: an oblivious adversary cannot aim insertions at a
//!    window that is deterministically about to overflow, which lowers
//!    expected cost on oblivious inputs while *widening* the per-operation
//!    cost distribution (the heavy tail experiment E11 measures).
//! 2. **Jittered layouts.** A rebalanced window is spread to a random
//!    order-preserving layout (each element placed uniformly within its
//!    even-spread stride) instead of the deterministic even layout, so the
//!    post-rebalance state depends on fresh randomness rather than on the
//!    insertion history.
//!
//! What Theorems 2/3 consume from `Y` is exactly this profile: good
//! lightly-amortized *expected* cost against an oblivious adversary, bad
//! tails, no worst-case bound. The embedding (the paper's contribution)
//! then restores worst-case bounds by layering `Y` over `Z`.

#![forbid(unsafe_code)]

use lll_core::density::{SegTree, Thresholds};
use lll_core::pma::{PmaBase, RebalancePolicy};
use lll_core::slot_array::SlotArray;
use lll_core::traits::{log2f, LabelingBuilder};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

/// Per-node threshold jitter, as a fraction of the per-level threshold gap
/// (0 = deterministic thresholds, 1 = jitter can consume the whole gap).
/// Values around 0.5 give good desynchronization while keeping every
/// node's effective threshold sound.
const JITTER_FRAC: f64 = 0.5;

/// Randomized-threshold, jittered-layout rebalance policy.
#[derive(Clone, Debug)]
pub struct RandomizedPolicy {
    thresholds: Thresholds,
    rng: StdRng,
    /// Lazily drawn per-node upper-threshold jitters, keyed by window;
    /// removed (⇒ redrawn) whenever the node is rebalanced.
    jitters: HashMap<(usize, usize), f64>,
}

impl RandomizedPolicy {
    /// Policy for `capacity` elements on `num_slots` slots with the given
    /// random tape (`rand(Y)` in the paper's notation).
    pub fn new(capacity: usize, num_slots: usize, rng: StdRng) -> Self {
        Self {
            thresholds: Thresholds::for_capacity(capacity, num_slots),
            rng,
            jitters: HashMap::new(),
        }
    }

    /// Replace the random tape with `rng`, before the first draw: from
    /// then on the policy behaves exactly like one built on `rng`. A bulk
    /// build draws nothing, so a copy of an empty structure can take the
    /// tape of another seed this way.
    pub fn replace_tape(&mut self, rng: StdRng) {
        debug_assert!(self.jitters.is_empty(), "the tape was drawn from before its replacement");
        self.rng = rng;
    }

    /// The magnitude of one level's threshold gap.
    fn level_gap(&self, height: usize) -> f64 {
        if height == 0 {
            return 0.0;
        }
        (self.thresholds.leaf_upper - self.thresholds.root_upper) / height as f64
    }
}

impl RebalancePolicy for RandomizedPolicy {
    fn upper(&mut self, level: usize, height: usize, window: (usize, usize)) -> f64 {
        let base = self.thresholds.upper(level, height);
        // Leaves keep their deterministic threshold (they must be able to
        // fill completely); the root keeps its (capacity-driven) threshold.
        if level == 0 || level == height {
            return base;
        }
        let gap = self.level_gap(height) * JITTER_FRAC;
        let jitter = *self
            .jitters
            .entry(window)
            .or_insert_with(|| self.rng.gen_range(0.0..=gap.max(f64::MIN_POSITIVE)));
        (base - jitter).max(self.thresholds.root_upper)
    }

    fn lower(&mut self, level: usize, height: usize, _window: (usize, usize)) -> f64 {
        self.thresholds.lower(level, height)
    }

    fn targets_into(
        &mut self,
        _tree: &SegTree,
        slots: &SlotArray,
        a: usize,
        b: usize,
        out: &mut Vec<usize>,
    ) {
        let k = slots.occupied_in(a, b);
        // Element i is placed uniformly at random within its stride
        // [⌊i·w/k⌋, ⌊(i+1)·w/k⌋): strictly increasing by construction, and
        // the layout distribution depends only on (a, b, k) — a
        // history-independent state distribution.
        let w = b - a;
        out.extend((0..k).map(|i| {
            let lo = (i * w) / k;
            let hi = ((i + 1) * w) / k;
            a + self.rng.gen_range(lo..hi.max(lo + 1))
        }));
    }

    fn on_rebalance(&mut self, _level: usize, window: (usize, usize)) {
        // Redraw this node's jitter the next time it is consulted.
        self.jitters.remove(&window);
        // A rebalance of a window invalidates the jitters of descendants it
        // engulfed; cheap heuristic: drop jitters of windows nested in it.
        let (a, b) = window;
        self.jitters.retain(|&(x, y), _| !(a <= x && y <= b));
    }

    fn name(&self) -> &'static str {
        "randomized-hipma"
    }
}

/// The randomized history-independent PMA.
pub type RandomizedPma = PmaBase<RandomizedPolicy>;

/// Builder for [`RandomizedPma`]. Carries the seed for the structure's
/// private random tape, so builds are reproducible and independent copies
/// can be given independent tapes (Lemma 4's requirement).
#[derive(Clone, Copy, Debug)]
pub struct RandomizedBuilder {
    /// Seed for the structure's random tape.
    pub seed: u64,
}

impl RandomizedBuilder {
    /// Builder with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Self { seed }
    }

    /// The random tape a build from this builder starts on.
    pub fn tape(&self) -> StdRng {
        lll_core::rng::rng_from_seed(self.seed)
    }
}

impl Default for RandomizedBuilder {
    fn default() -> Self {
        Self::with_seed(0xFACADE)
    }
}

impl LabelingBuilder for RandomizedBuilder {
    type Structure = RandomizedPma;

    fn build(&self, capacity: usize, num_slots: usize) -> Self::Structure {
        PmaBase::new(capacity, num_slots, RandomizedPolicy::new(capacity, num_slots, self.tape()))
    }

    fn expected_cost_hint(&self, capacity: usize) -> f64 {
        // The profile this structure stands in for: O(log^{3/2} n).
        log2f(capacity).powf(1.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_core::ids::{ElemId, IdGen};
    use lll_core::ops::Op;
    use lll_core::testkit::run_against_oracle;
    use lll_core::traits::ListLabeling;
    use rand::SeedableRng;

    #[test]
    fn oracle_random_workload() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
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
        let mut pma = RandomizedBuilder::with_seed(1).build(n, n * 13 / 10);
        run_against_oracle(&mut pma, &ops, 149);
    }

    #[test]
    fn deterministic_given_seed() {
        let n = 800;
        let ops: Vec<Op> = (0..n).map(|i| Op::Insert(i / 3)).collect();
        let run = |seed| {
            let mut pma = RandomizedBuilder::with_seed(seed).build(n, n * 13 / 10);
            let mut ids = IdGen::new();
            let cost: u64 = ops.iter().map(|&op| pma.apply(op, &mut ids).cost()).sum();
            let layout: Vec<_> = pma.slots().iter_occupied().collect();
            (cost, layout)
        };
        assert_eq!(run(5), run(5), "same seed must reproduce exactly");
        let (c5, _) = run(5);
        let (c6, _) = run(6);
        // different tapes almost surely cost differently
        assert_ne!(c5, c6, "different seeds should diverge (same cost is astronomically unlikely)");
    }

    #[test]
    fn a_replaced_tape_behaves_as_if_built_on_it() {
        let n = 800;
        let ops: Vec<Op> = (0..n).map(|i| Op::Insert(i / 3)).collect();
        let run = |mut pma: RandomizedPma| {
            let mut ids = IdGen::new();
            let costs: Vec<u64> = ops.iter().map(|&op| pma.apply(op, &mut ids).cost()).collect();
            (costs, pma.slots().layout())
        };
        let mut retaped = RandomizedBuilder::with_seed(5).build(n, n * 13 / 10);
        retaped.policy_mut().replace_tape(RandomizedBuilder::with_seed(6).tape());
        let built_on_6 = run(RandomizedBuilder::with_seed(6).build(n, n * 13 / 10));
        assert_eq!(run(retaped), built_on_6);
        assert_ne!(run(RandomizedBuilder::with_seed(5).build(n, n * 13 / 10)), built_on_6);
    }

    #[test]
    fn jittered_layouts_differ_across_seeds() {
        let n = 512;
        let build_layout = |seed| {
            let mut pma = RandomizedBuilder::with_seed(seed).build(n, n * 13 / 10);
            for i in 0..n / 2 {
                pma.insert(i, ElemId(i as u32));
            }
            pma.slots().layout()
        };
        assert_ne!(build_layout(1), build_layout(2));
    }

    #[test]
    fn fills_to_capacity() {
        let n = 600;
        let mut pma = RandomizedBuilder::with_seed(3).build(n, n * 13 / 10);
        for i in 0..n {
            pma.insert(0, ElemId(i as u32));
        }
        assert_eq!(pma.len(), n);
    }

    #[test]
    fn cost_stays_polylog_on_random_input() {
        use rand::Rng;
        let n = 1 << 12;
        let mut pma = RandomizedBuilder::with_seed(4).build(n, n * 13 / 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut total = 0u64;
        for len in 0..n {
            total += pma.insert(rng.gen_range(0..=len), ElemId(len as u32)).cost();
        }
        let amortized = total as f64 / n as f64;
        assert!(amortized < 80.0, "randomized amortized {amortized} too high");
    }

    #[test]
    fn has_heavier_tail_than_its_mean() {
        // The motivating profile: occasional operations far above the mean.
        let n = 1 << 12;
        let mut pma = RandomizedBuilder::with_seed(9).build(n, n * 13 / 10);
        let mut max = 0u64;
        let mut total = 0u64;
        for i in 0..n {
            let c = pma.insert(0, ElemId(i as u32)).cost();
            max = max.max(c);
            total += c;
        }
        let mean = total as f64 / n as f64;
        assert!(max as f64 > 8.0 * mean, "expected spiky costs: max {max} vs mean {mean:.1}");
    }
}
