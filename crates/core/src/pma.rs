//! A reusable packed-memory-array skeleton.
//!
//! The classical PMA of Itai–Konheim–Rodeh and its adaptive and randomized
//! descendants share one skeleton: a slot array viewed through a calibrator
//! tree, where an out-of-threshold window is rebalanced to a target layout.
//! They differ only in *policy*: what the thresholds are (fixed,
//! interpolated, or randomized) and what the target layout is (even,
//! unevenly weighted toward predicted hotspots, or randomly jittered).
//!
//! [`PmaBase`] is the skeleton; [`RebalancePolicy`] is the policy. The
//! concrete crates in this workspace (`lll-classic`, `lll-adaptive`,
//! `lll-randomized`) are policies plugged into this type.
//!
//! The insertion flow (mirrors the classical algorithm):
//!
//! 1. locate the insertion point between the rank's predecessor and
//!    successor;
//! 2. if the containing leaf would exceed its upper threshold, walk up to
//!    the smallest ancestor window that (counting the new element) is within
//!    threshold, and rebalance it to the policy's target layout;
//! 3. place the element — directly into a free slot of the gap if one
//!    exists, otherwise shift the minimal run of elements aside.
//!
//! Deletions mirror this with lower thresholds. All motion goes through
//! [`SlotArray`], so every atomic move preserves sorted order and is
//! cost-logged.

use crate::density::{even_targets_into, SegTree, Thresholds};
use crate::ids::{ElemId, IdGen};
use crate::ops::Op;
use crate::report::OpReport;
use crate::slot_array::{merge_sorted, spread_moves, SlotArray};
use crate::traits::{LabelingBuilder, ListLabeling};

/// A window rebalancing policy: thresholds plus target layouts.
pub trait RebalancePolicy {
    /// Upper density threshold for a window at `level` (0 = leaf) in a tree
    /// of the given `height`. `window` identifies the node (for stateful,
    /// e.g. randomized-per-node, policies).
    fn upper(&mut self, level: usize, height: usize, window: (usize, usize)) -> f64;

    /// Lower density threshold (deletion side).
    fn lower(&mut self, level: usize, height: usize, window: (usize, usize)) -> f64;

    /// Target positions for the `k` elements currently in `[a, b)`, in rank
    /// order, appended to `out` (which arrives empty — the PMA owns it as a
    /// reusable scratch buffer, so steady-state rebalances allocate nothing).
    /// Must append `k` strictly increasing positions within `[a, b)`.
    /// The default is the canonical even spread.
    fn targets_into(
        &mut self,
        tree: &SegTree,
        slots: &SlotArray,
        a: usize,
        b: usize,
        out: &mut Vec<usize>,
    ) {
        let k = slots.occupied_in(a, b);
        let _ = tree;
        even_targets_into(a, b, k, out);
    }

    /// Hook: an element was just placed at `pos` (adaptive policies learn
    /// insertion pressure from this).
    fn on_insert(&mut self, tree: &SegTree, pos: usize) {
        let _ = (tree, pos);
    }

    /// Hook: the window `[a, b)` at `level` was just rebalanced.
    fn on_rebalance(&mut self, level: usize, window: (usize, usize)) {
        let _ = (level, window);
    }

    /// Algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// The PMA skeleton parameterized by a rebalance policy. The slot array
/// comes first (`repr(C)`; see [`SlotArray`]'s read fields).
#[derive(Clone, Debug)]
#[repr(C)]
pub struct PmaBase<P: RebalancePolicy> {
    slots: SlotArray,
    tree: SegTree,
    capacity: usize,
    rebalances: u64,
    /// Reusable `(from, to)` buffer for rebalance sweeps (no per-rebalance
    /// allocation).
    pairs_scratch: Vec<(usize, usize)>,
    /// Reusable buffer handed to [`RebalancePolicy::targets_into`] — the
    /// other half of the zero-alloc steady-state rebalance.
    targets_scratch: Vec<usize>,
    policy: P,
}

impl<P: RebalancePolicy> PmaBase<P> {
    /// Build an empty PMA of `capacity` elements over `num_slots` slots.
    pub fn new(capacity: usize, num_slots: usize, policy: P) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        assert!(num_slots > capacity, "PMA needs slack: capacity={capacity} num_slots={num_slots}");
        Self {
            slots: SlotArray::new(num_slots),
            tree: SegTree::new(num_slots),
            capacity,
            policy,
            rebalances: 0,
            pairs_scratch: Vec::new(),
            targets_scratch: Vec::new(),
        }
    }

    /// The calibrator-tree geometry.
    pub fn tree(&self) -> &SegTree {
        &self.tree
    }

    /// Immutable access to the policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the policy (tests / instrumentation).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Number of window rebalances performed so far.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Density of `[a, b)` counting `extra` hypothetical elements.
    #[inline]
    fn density_with(&self, a: usize, b: usize, extra: usize) -> f64 {
        (self.slots.occupied_in(a, b) + extra) as f64 / (b - a) as f64
    }

    /// Rebalance the window `[a, b)` to the policy's target layout. The
    /// window's occupants are enumerated via
    /// [`iter_occupied_in`](SlotArray::iter_occupied_in) — O(window) work,
    /// never an O(m) full-array scan.
    fn rebalance(&mut self, level: usize, a: usize, b: usize) {
        let mut targets = std::mem::take(&mut self.targets_scratch);
        targets.clear();
        self.policy.targets_into(&self.tree, &self.slots, a, b, &mut targets);
        debug_assert!(targets.windows(2).all(|w| w[0] < w[1]), "targets not increasing");
        debug_assert!(targets.iter().all(|&t| a <= t && t < b), "target outside window");
        let mut pairs = std::mem::take(&mut self.pairs_scratch);
        pairs.clear();
        for (i, (pos, _)) in self.slots.iter_occupied_in(a, b).enumerate() {
            pairs.push((pos, targets[i]));
        }
        debug_assert_eq!(targets.len(), pairs.len(), "policy returned wrong target count");
        spread_moves(&mut self.slots, &pairs);
        self.pairs_scratch = pairs;
        self.targets_scratch = targets;
        self.rebalances += 1;
        self.slots.metrics().note_rebalance((b - a) as u64);
        self.policy.on_rebalance(level, (a, b));
    }

    /// Find the smallest window containing `pos` that can absorb `extra`
    /// more elements within its upper threshold; rebalance it if the leaf
    /// itself cannot. Returns true if a rebalance happened.
    fn ensure_room(&mut self, pos: usize, extra: usize) -> bool {
        let height = self.tree.height();
        let seg = self.tree.seg_of(pos);
        let (leaf_a, leaf_b) = self.tree.window(0, seg);
        // One occupancy count serves both the threshold check and the
        // physical-room check.
        let leaf_occ = self.slots.occupied_in(leaf_a, leaf_b);
        let leaf_cap = self.policy.upper(0, height, (leaf_a, leaf_b)) * (leaf_b - leaf_a) as f64;
        if (leaf_occ + extra) as f64 <= leaf_cap && leaf_occ < leaf_b - leaf_a {
            return false;
        }
        for level in 1..=height {
            let (a, b) = self.tree.window(level, seg);
            let cap = self.policy.upper(level, height, (a, b)) * (b - a) as f64;
            if (self.slots.occupied_in(a, b) + extra) as f64 <= cap {
                self.rebalance(level, a, b);
                return true;
            }
        }
        // The root always has room: capacity ≤ root_upper · m by contract.
        let (a, b) = self.tree.root_window();
        assert!(
            self.len() + extra <= b - a,
            "array physically full: len={} extra={extra} m={}",
            self.len(),
            b - a
        );
        self.rebalance(height, a, b);
        true
    }

    /// After a deletion at `pos`, merge/rebalance if the leaf fell below its
    /// lower threshold.
    fn rebalance_after_delete(&mut self, pos: usize) {
        if self.len() < 8 {
            return; // too small for thresholds to be meaningful
        }
        let height = self.tree.height();
        let seg = self.tree.seg_of(pos);
        let (leaf_a, leaf_b) = self.tree.window(0, seg);
        let lo = self.policy.lower(0, height, (leaf_a, leaf_b));
        if self.density_with(leaf_a, leaf_b, 0) >= lo {
            return;
        }
        for level in 1..=height {
            let (a, b) = self.tree.window(level, seg);
            let lo = self.policy.lower(level, height, (a, b));
            let hi = self.policy.upper(level, height, (a, b));
            let d = self.density_with(a, b, 0);
            if d >= lo && d <= hi {
                self.rebalance(level, a, b);
                return;
            }
        }
        let (a, b) = self.tree.root_window();
        self.rebalance(height, a, b);
    }

    /// The insertion point for `rank`: `(pred_pos, succ_pos)` with `None`
    /// at the boundaries.
    fn neighbors(&self, rank: usize) -> (Option<usize>, Option<usize>) {
        let len = self.len();
        let pred = if rank > 0 { Some(self.slots.select(rank - 1)) } else { None };
        let succ = if rank < len { Some(self.slots.select(rank)) } else { None };
        (pred, succ)
    }

    /// Place the new element `id` for `rank`, shifting minimally if the gap
    /// is fully occupied. Returns the placement position.
    fn place_at_rank(&mut self, rank: usize, id: ElemId) -> usize {
        let m = self.slots.num_slots();
        let (pred, succ) = self.neighbors(rank);
        let id_pos = match (pred, succ) {
            (None, None) => {
                let pos = m / 2;
                return self.do_place(pos, id);
            }
            (Some(p), None) => {
                // after the last element: any free slot right of p, else shift left
                if let Some(f) = self.slots.next_free(p + 1) {
                    return self.do_place(f, id);
                }
                // no free slot right of p: shift [f..p] left into the free slot
                let f = self.slots.prev_free(p).expect("no free slot anywhere");
                for q in f + 1..=p {
                    self.slots.move_elem(q, q - 1);
                }
                return self.do_place(p, id);
            }
            (None, Some(q)) => {
                // before the first element
                if q > 0 {
                    if let Some(f) = self.slots.prev_free(q - 1) {
                        return self.do_place(f, id);
                    }
                }
                // no free slot left of q: shift [q..f] right
                let f = self.slots.next_free(q).expect("no free slot anywhere");
                for t in (q..f).rev() {
                    self.slots.move_elem(t, t + 1);
                }
                return self.do_place(q, id);
            }
            (Some(p), Some(q)) => (p, q),
        };
        let (p, q) = id_pos;
        if q > p + 1 {
            // gap has at least one slot; find a free one (the gap may contain
            // nothing else, so every slot in (p, q) is free)
            let mid = p + (q - p) / 2;
            return self.do_place(mid, id);
        }
        // adjacent: shift toward the nearest free slot
        let left = self.slots.prev_free(p);
        let right = self.slots.next_free(q);
        match (left, right) {
            (Some(l), Some(r)) if p - l <= r - q => self.shift_left_and_place(l, p, id),
            (Some(_), Some(r)) => self.shift_right_and_place(q, r, id),
            (Some(l), None) => self.shift_left_and_place(l, p, id),
            (None, Some(r)) => self.shift_right_and_place(q, r, id),
            (None, None) => unreachable!("ensure_room guarantees a free slot"),
        }
    }

    /// Shift `[l+1 ..= p]` one slot left (into free slot `l`), then place at `p`.
    fn shift_left_and_place(&mut self, l: usize, p: usize, id: ElemId) -> usize {
        for q in l + 1..=p {
            self.slots.move_elem(q, q - 1);
        }
        self.do_place(p, id)
    }

    /// Shift `[q .. r)` one slot right (into free slot `r`), then place at `q`.
    fn shift_right_and_place(&mut self, q: usize, r: usize, id: ElemId) -> usize {
        for t in (q..r).rev() {
            self.slots.move_elem(t, t + 1);
        }
        self.do_place(q, id)
    }

    fn do_place(&mut self, pos: usize, id: ElemId) -> usize {
        self.slots.place(pos, id);
        pos
    }
}

impl<P: RebalancePolicy> ListLabeling for PmaBase<P> {
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
        assert!(rank <= self.len(), "insert rank {rank} > len {}", self.len());
        assert!(self.len() < self.capacity, "structure at capacity {}", self.capacity);
        // Pre-placement threshold check at the would-be insertion point.
        if self.len() > 0 {
            let probe = match self.neighbors(rank) {
                (_, Some(q)) => q,
                (Some(p), None) => p,
                (None, None) => unreachable!(),
            };
            self.ensure_room(probe, 1);
        }
        let pos = self.place_at_rank(rank, id);
        self.policy.on_insert(&self.tree, pos);
        self.slots.drain_log_into(&mut out.moves);
        out.placed = Some((id, pos as u32));
    }

    fn delete_into(&mut self, rank: usize, out: &mut OpReport) {
        out.clear();
        assert!(rank < self.len(), "delete rank {rank} >= len {}", self.len());
        let pos = self.slots.select(rank);
        let elem = self.slots.remove(pos);
        self.rebalance_after_delete(pos);
        self.slots.drain_log_into(&mut out.moves);
        out.removed = Some((elem, pos as u32));
    }

    /// Native bulk insert: interleave the run into the smallest calibrator
    /// window around the insertion gap that absorbs `count` extra elements
    /// within its upper threshold, as **one** evenly-spread sweep — at most
    /// one move per resident of the window plus one placement per new
    /// element, instead of `count` independent rebalance cascades.
    fn splice_into(&mut self, rank: usize, ids: &[ElemId], out: &mut OpReport) {
        let count = ids.len();
        assert!(rank <= self.len(), "splice rank {rank} > len {}", self.len());
        assert!(
            self.len() + count <= self.capacity,
            "splice of {count} overflows capacity {} (len {})",
            self.capacity,
            self.len()
        );
        out.clear();
        if count == 0 {
            return;
        }
        if count == 1 {
            // A run of one is an ordinary insertion — same cost either way.
            self.insert_into(rank, ids[0], out);
            out.placed = None;
            return;
        }
        let height = self.tree.height();
        let (level, a, b) = if self.is_empty() {
            let (a, b) = self.tree.root_window();
            (height, a, b)
        } else {
            // The gap sits just before the successor (or after the last
            // element for an append); walk up from its leaf.
            let probe = if rank < self.len() {
                self.slots.select(rank)
            } else {
                self.slots.select(self.len() - 1)
            };
            let seg = self.tree.seg_of(probe);
            let mut choice = None;
            for level in 0..=height {
                let (a, b) = self.tree.window(level, seg);
                let cap = self.policy.upper(level, height, (a, b)) * (b - a) as f64;
                let occ = self.slots.occupied_in(a, b);
                if (occ + count) as f64 <= cap && occ + count <= b - a {
                    choice = Some((level, a, b));
                    break;
                }
            }
            choice.unwrap_or_else(|| {
                // The root always fits physically: capacity < num_slots.
                let (a, b) = self.tree.root_window();
                (height, a, b)
            })
        };
        let at = rank - self.slots.rank_at(a);
        merge_sorted(&mut self.slots, a, b, at, ids);
        self.slots.drain_log_into(&mut out.moves);
        for mv in out.moves.iter().filter(|mv| mv.from == mv.to) {
            self.policy.on_insert(&self.tree, mv.to as usize);
        }
        self.rebalances += 1;
        self.slots.metrics().note_rebalance((b - a) as u64);
        self.policy.on_rebalance(level, (a, b));
    }

    fn slots(&self) -> &SlotArray {
        &self.slots
    }

    fn set_metrics(&mut self, metrics: crate::metrics::MetricsHandle) {
        self.slots.set_metrics(metrics);
    }

    fn name(&self) -> &'static str {
        self.policy.name()
    }
}

/// The classical fixed-threshold, even-spread policy (Itai–Konheim–Rodeh).
/// Exposed here because other crates build on it (and `lll-classic` wraps
/// it as its public API).
#[derive(Clone, Copy, Debug)]
pub struct ClassicPolicy {
    /// The interpolated thresholds.
    pub thresholds: Thresholds,
}

impl ClassicPolicy {
    /// Policy sized for `capacity` elements over `num_slots` slots.
    pub fn for_capacity(capacity: usize, num_slots: usize) -> Self {
        Self { thresholds: Thresholds::for_capacity(capacity, num_slots) }
    }
}

impl RebalancePolicy for ClassicPolicy {
    fn upper(&mut self, level: usize, height: usize, _window: (usize, usize)) -> f64 {
        self.thresholds.upper(level, height)
    }

    fn lower(&mut self, level: usize, height: usize, _window: (usize, usize)) -> f64 {
        self.thresholds.lower(level, height)
    }

    fn name(&self) -> &'static str {
        "classic-pma"
    }
}

/// Builder for the classical PMA (used pervasively as a default substrate).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassicBuilder;

impl LabelingBuilder for ClassicBuilder {
    type Structure = PmaBase<ClassicPolicy>;

    fn build(&self, capacity: usize, num_slots: usize) -> Self::Structure {
        PmaBase::new(capacity, num_slots, ClassicPolicy::for_capacity(capacity, num_slots))
    }

    fn expected_cost_hint(&self, capacity: usize) -> f64 {
        let lg = crate::traits::log2f(capacity);
        lg * lg
    }
}

/// Run an operation sequence through any structure, returning total cost.
/// Convenience for tests and examples.
pub fn run_ops<L: ListLabeling>(l: &mut L, ops: &[Op]) -> u64 {
    let mut ids = IdGen::new();
    ops.iter().map(|&op| l.apply(op, &mut ids).cost()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ListMetrics;
    use crate::testkit::Oracle;

    #[test]
    fn classic_pma_random_ops_match_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = 300;
        let mut pma = ClassicBuilder.build(n, (n as f64 * 1.3) as usize);
        let mut ids = IdGen::new();
        let mut oracle = Oracle::new();
        for step in 0..2000 {
            let len = pma.len();
            let insert = len == 0 || (len < n && rng.gen_bool(0.7));
            if insert {
                let r = rng.gen_range(0..=len);
                let id = ids.fresh();
                let rep = pma.insert(r, id);
                assert_eq!(rep.placed_elem(), Some(id));
                oracle.insert(r, id);
            } else {
                let r = rng.gen_range(0..len);
                let rep = pma.delete(r);
                oracle.delete(r, rep.removed.unwrap().0);
            }
            if step % 100 == 0 {
                oracle.check(&pma);
            }
        }
        oracle.check(&pma);
    }

    #[test]
    fn classic_pma_fills_to_capacity() {
        let n = 200;
        let mut pma = ClassicBuilder.build(n, 260);
        let mut ids = IdGen::new();
        for i in 0..n {
            pma.insert(i, ids.fresh());
        }
        assert_eq!(pma.len(), n);
    }

    #[test]
    fn classic_pma_sequential_head_inserts() {
        let n = 500;
        let mut pma = ClassicBuilder.build(n, 700);
        let mut ids = IdGen::new();
        let mut total = 0;
        for _ in 0..n {
            total += pma.insert(0, ids.fresh()).cost();
        }
        assert_eq!(pma.len(), n);
        // amortized cost should be polylog, far below the O(n) of shifting
        let amortized = total as f64 / n as f64;
        assert!(amortized < 60.0, "amortized {amortized} too high");
    }

    #[test]
    fn classic_pma_delete_to_empty() {
        let n = 64;
        let mut pma = ClassicBuilder.build(n, 96);
        let mut ids = IdGen::new();
        for i in 0..n {
            pma.insert(i, ids.fresh());
        }
        for _ in 0..n {
            pma.delete(0);
        }
        assert!(pma.is_empty());
    }

    #[test]
    fn splice_matches_incremental_semantics() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut ids = IdGen::new();
        for _ in 0..20 {
            let n = 400;
            let mut spliced = ClassicBuilder.build(n, 520);
            let mut stepped = ClassicBuilder.build(n, 520);
            // Same logical sequence: batches against singles.
            let mut len = 0usize;
            while len < n {
                let rank = rng.gen_range(0..=len);
                let count = rng.gen_range(1..=(n - len).min(17));
                let bulk = spliced.splice(rank, &ids.fresh_n(count));
                assert!(bulk.cost() >= count as u64, "each newcomer costs its placement");
                for i in 0..count {
                    stepped.insert(rank + i, ids.fresh());
                }
                len += count;
                assert_eq!(spliced.len(), stepped.len());
            }
            // Identical rank structure: labels strictly increase and both
            // hold the same population.
            let labels: Vec<usize> = (0..len).map(|r| spliced.label_of_rank(r)).collect();
            assert!(labels.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn splice_placed_ids_are_in_rank_order() {
        let mut pma = ClassicBuilder.build(100, 140);
        let mut ids = IdGen::new();
        for i in 0..10 {
            pma.insert(i, ids.fresh());
        }
        let batch = ids.fresh_n(6);
        pma.splice(4, &batch);
        // The 6 newcomers occupy ranks 4..10 in batch order.
        for (i, &e) in batch.iter().enumerate() {
            assert_eq!(pma.elem_at_rank(4 + i), e);
        }
    }

    #[test]
    fn splice_is_cheaper_than_point_inserts() {
        let n = 2048;
        let mut bulk = ClassicBuilder.build(n, n + n / 4 + 2);
        let mut ids = IdGen::new();
        let rep = bulk.splice(0, &ids.fresh_n(n));
        let bulk_cost = rep.cost();
        assert_eq!(bulk.len(), n);
        assert_eq!(bulk_cost, n as u64, "empty-array bulk load is exactly one placement each");
        let mut inc = ClassicBuilder.build(n, n + n / 4 + 2);
        let mut inc_cost = 0u64;
        for i in 0..n {
            inc_cost += inc.insert(i, ids.fresh()).cost();
        }
        assert!(bulk_cost < inc_cost, "bulk {bulk_cost} !< incremental {inc_cost}");
    }

    #[test]
    fn costs_derive_from_move_log() {
        let mut pma = ClassicBuilder.build(10, 16);
        let rep = pma.insert(0, ElemId(0));
        assert_eq!(rep.cost(), rep.moves.len() as u64);
        assert_eq!(rep.cost(), 1); // empty array: a single placement
    }

    #[test]
    fn rebalance_work_is_window_bounded_not_linear() {
        // The counter pin that keeps the O(m)-scan-per-rebalance regression
        // buried: every window enumeration on the rebalance path goes
        // through the occupancy bitmap, and `SlotArray::scan_words` counts
        // the words those scans touch. On a ~2^20-slot array, a single
        // full-array enumeration costs ≥ m/64 ≈ 21k words; a leaf-level
        // operation must stay orders of magnitude below that.
        let n = 1 << 20;
        let m = n * 13 / 10;
        let full_scan_words = m / 64; // what one O(m) enumeration would cost
        let mut pma = ClassicBuilder.build(n, m);
        pma.set_metrics(ListMetrics::handle(true));
        let mut ids = IdGen::new();
        pma.splice(0, &ids.fresh_n(n / 2)); // bulk prefill: one (big, legitimate) sweep
        let rebalances_before = pma.rebalances();

        // A small splice rebalances the smallest window that absorbs it —
        // low-level, a few hundred slots.
        let scan0 = pma.slots().scan_words();
        pma.splice(n / 4, &ids.fresh_n(8));
        let splice_scan = pma.slots().scan_words() - scan0;
        assert!(pma.rebalances() > rebalances_before, "splice must count as a rebalance");
        assert!(
            (splice_scan as usize) < full_scan_words / 8,
            "small splice scanned {splice_scan} words (full-array scan ≈ {full_scan_words})"
        );

        // A point insert into the evenly-spread array: gap placement, no
        // rebalance, word-local occupancy questions only.
        let scan0 = pma.slots().scan_words();
        pma.insert(n / 4, ids.fresh());
        let insert_scan = pma.slots().scan_words() - scan0;
        assert!(
            (insert_scan as usize) < full_scan_words / 16,
            "point insert scanned {insert_scan} words (full-array scan ≈ {full_scan_words})"
        );
    }

    #[test]
    fn steady_state_ops_trade_move_log_buffers() {
        // The zero-allocation pin: each operation drains its log once, and
        // a drain swaps the log's buffer with the report's. A delete/insert
        // cycle at the tail keeps the layout, so the report must alternate
        // between the same two buffers at unchanged capacities: an even
        // number of drains repeats a buffer, a reallocation changes one.
        let n = 2048;
        let mut pma = ClassicBuilder.build(n, n * 13 / 10);
        let mut rep = OpReport::default();
        for i in 0..n / 2 {
            pma.insert_into(i / 2, ElemId(i as u32), &mut rep);
        }
        let mut cycle = || {
            let last = pma.len() - 1;
            pma.delete_into(last, &mut rep);
            let after_delete = (rep.moves.as_ptr(), rep.moves.capacity());
            let (id, _) = rep.removed.expect("delete reports its element");
            pma.insert_into(last, id, &mut rep);
            [after_delete, (rep.moves.as_ptr(), rep.moves.capacity())]
        };
        let bufs = cycle();
        assert_ne!(bufs[0].0, bufs[1].0, "one drain per operation");
        for i in 0..500 {
            assert_eq!(cycle(), bufs, "cycle {i}: a buffer changed");
        }
    }

    #[test]
    fn rebalance_counters_advance() {
        let n = 256;
        let mut pma = ClassicBuilder.build(n, 320);
        let mut ids = IdGen::new();
        for _ in 0..n {
            pma.insert(0, ids.fresh());
        }
        assert!(pma.rebalances() > 0);
    }
}
