//! # lll-deamortized — a worst-case-bounded packed-memory array
//!
//! The `Z` of the paper's Corollary 11 is a list-labeling algorithm with
//! **worst-case** cost O(log² n) per operation (Willard 1992 \[49\]; see also
//! the simplified constructions of Bender et al. [7, 16]). Where the
//! classical PMA occasionally stops the world to re-spread a huge window,
//! a deamortized PMA pays a bounded amount on *every* operation.
//!
//! This implementation follows the staggered-incremental-rebalance approach
//! (see "Substitutions" in `lll_bench::experiments`):
//!
//! * **Soft/hard thresholds.** Each calibrator-tree level has the classical
//!   interpolated *hard* threshold plus a tighter *soft* threshold. Soft
//!   violations enqueue an incremental **job**; the hard gap is the slack
//!   the window may consume while its job drains.
//! * **Incremental jobs.** A job freezes an even-spread target layout for
//!   its window and executes it a few moves at a time: left-movers
//!   left-to-right, then right-movers right-to-left — the order under which
//!   no move ever crosses an occupied slot. Every operation performs at
//!   most `work_quota ≈ c·log² n` moves of job work. Concurrent inserts,
//!   deletes and local shifts are tolerated: stale pair entries are skipped
//!   and blocked moves clamp to the nearest safe slot.
//! * **Bounded placement.** An insertion shifts at most `shift_cap ≈
//!   4·log n` slots to reach a gap; failing that it synchronously rebalances
//!   a window of at most `inline_cap ≈ c·log² n` slots around the insertion
//!   point. Only if even that window is hard-saturated does the structure
//!   fall back to a counted **forced sync** (classical full rebalance) —
//!   the safety valve that keeps the structure correct under adversarial
//!   timing. Experiments E10/E11 measure the realized worst case and the
//!   forced-sync count (zero on all evaluated workloads at realistic sizes).
//!
//! **Substitution note** (see "Substitutions" in `lll_bench::experiments`):
//! Willard's original construction is substantially more intricate; what
//! Theorem 3 consumes from `Z` — a hard cap on every single operation's
//! cost — is preserved and *measured* rather than proven.

#![forbid(unsafe_code)]

use lll_core::density::{even_targets_into, SegTree, Thresholds};
use lll_core::ids::{ElemId, IdTable};
use lll_core::report::OpReport;
use lll_core::slot_array::{merge_sorted, SlotArray};
use lll_core::traits::{log2f, LabelingBuilder, ListLabeling};
use std::num::NonZeroU32;

/// Per-operation incremental job work, as a multiple of log²(m) moves.
const WORK_MULT: f64 = 1.0;
/// Max shift distance during placement, as a multiple of log(m).
const SHIFT_CAP_MULT: f64 = 4.0;
/// Max window size for synchronous inline rebalances, as a multiple of
/// log²(m) slots.
const INLINE_CAP_MULT: f64 = 4.0;
/// Absolute density margin reserved below the hard threshold at the
/// leaves, tapering to zero at the root: the slack a window may consume
/// while its background job drains.
const SOFT_MARGIN: f64 = 0.10;

/// One incremental rebalance job: a frozen relocation plan for a window.
#[derive(Clone, Debug)]
struct Job {
    a: usize,
    b: usize,
    /// Remaining `(elem, target)` entries in safe execution order.
    queue: Vec<(ElemId, usize)>,
    /// Next queue index to execute.
    cursor: usize,
}

impl Job {
    fn remaining(&self) -> usize {
        self.queue.len() - self.cursor
    }
}

/// Counters exposed for experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeamortizedStats {
    /// Jobs created.
    pub jobs_created: u64,
    /// Jobs completed (including cancelled-by-absorption).
    pub jobs_completed: u64,
    /// Synchronous inline (small-window) rebalances.
    pub inline_rebalances: u64,
    /// Forced full-window synchronizations (the safety valve; should be 0).
    pub forced_syncs: u64,
    /// Job moves that had to clamp short of their target.
    pub clamped_moves: u64,
}

/// The deamortized PMA.
#[derive(Clone, Debug)]
pub struct DeamortizedPma {
    slots: SlotArray,
    tree: SegTree,
    thresholds: Thresholds,
    capacity: usize,
    jobs: Vec<Job>,
    /// Each stored element's slot plus one, by id: the generation check is
    /// what lets a queued plan entry whose element was deleted (and its
    /// index reissued) be skipped. The offset gives the entry a niche, so
    /// it takes 8 bytes with its generation instead of 12.
    elem_pos: IdTable<NonZeroU32>,
    stats: DeamortizedStats,
    work_quota: usize,
    shift_cap: usize,
    inline_cap: usize,
    /// Reusable buffer for the even-spread plan in [`Self::create_job`].
    targets_scratch: Vec<usize>,
    /// Reusable buffer for the right-moving half of a plan.
    movers_scratch: Vec<(ElemId, usize)>,
    /// Retired job queues, recycled by [`Self::create_job`] — steady-state
    /// churn creates and completes jobs constantly, and reusing their
    /// queues keeps that cycle allocation-free once warm.
    queue_pool: Vec<Vec<(ElemId, usize)>>,
}

impl DeamortizedPma {
    /// New empty structure for `capacity` elements on `num_slots` slots.
    pub fn new(capacity: usize, num_slots: usize) -> Self {
        assert!(num_slots as f64 >= capacity as f64 * 1.05, "deamortized PMA needs ≥1.05x slack");
        assert!(num_slots <= u32::MAX as usize, "slot positions must fit in u32");
        let lg = log2f(num_slots);
        Self {
            slots: SlotArray::new(num_slots),
            tree: SegTree::new(num_slots),
            thresholds: Thresholds::for_capacity(capacity, num_slots),
            capacity,
            jobs: Vec::new(),
            elem_pos: IdTable::new(capacity),
            stats: DeamortizedStats::default(),
            work_quota: ((WORK_MULT * lg * lg).ceil() as usize).max(4),
            shift_cap: ((SHIFT_CAP_MULT * lg).ceil() as usize).max(4),
            inline_cap: ((INLINE_CAP_MULT * lg * lg).ceil() as usize).max(16),
            targets_scratch: Vec::new(),
            movers_scratch: Vec::new(),
            queue_pool: Vec::new(),
        }
    }

    /// Experiment counters.
    pub fn stats(&self) -> DeamortizedStats {
        self.stats
    }

    /// Number of currently active incremental jobs.
    pub fn active_jobs(&self) -> usize {
        self.jobs.len()
    }

    // ----- threshold helpers ------------------------------------------------

    fn hard_upper(&self, level: usize) -> f64 {
        self.thresholds.upper(level, self.tree.height())
    }

    /// Soft (patrol) threshold: `hard - margin·(1 - level/height)`. Full
    /// margin at the leaves, zero at the root (whose hard threshold is
    /// capacity-driven and cannot be tightened without rejecting legal
    /// loads).
    fn soft_upper(&self, level: usize) -> f64 {
        let h = self.tree.height().max(1);
        let taper = 1.0 - level as f64 / h as f64;
        self.hard_upper(level) - SOFT_MARGIN * taper
    }

    fn soft_lower(&self, level: usize) -> f64 {
        self.thresholds.lower(level, self.tree.height())
    }

    fn density_with(&self, a: usize, b: usize, extra: usize) -> f64 {
        (self.slots.occupied_in(a, b) + extra) as f64 / (b - a) as f64
    }

    // ----- tracked movement -------------------------------------------------

    /// The slot of the stored element `e`, if it is stored.
    #[inline]
    fn pos_of(&self, e: ElemId) -> Option<usize> {
        self.elem_pos.get(e).map(|p| p.get() as usize - 1)
    }

    /// Record that `e` now sits at slot `pos`.
    #[inline]
    fn track(&mut self, e: ElemId, pos: usize) {
        // `pos < num_slots <= u32::MAX`, so `pos + 1` fits and is nonzero.
        self.elem_pos.insert(e, NonZeroU32::new(pos as u32 + 1).expect("slot + 1 is nonzero"));
    }

    fn place_tracked(&mut self, pos: usize, id: ElemId) {
        self.slots.place(pos, id);
        self.track(id, pos);
    }

    fn move_tracked(&mut self, from: usize, to: usize) {
        let e = self.slots.move_elem(from, to);
        self.track(e, to);
    }

    fn remove_tracked(&mut self, pos: usize) -> ElemId {
        let e = self.slots.remove(pos);
        self.elem_pos.remove(e);
        e
    }

    // ----- incremental jobs -------------------------------------------------

    /// Freeze an even-spread plan for `[a, b)` into a job (or execute small
    /// plans inline when `sync` is set).
    ///
    /// Jobs at different levels may coexist even when nested: small jobs
    /// provide fast local relief while a large ancestor job drains slowly in
    /// the background. Stale plan entries are resolved through `elem_pos`
    /// and blocked moves clamp, so coexistence is safe.
    fn create_job(&mut self, a: usize, b: usize, sync: bool) {
        if !sync {
            // One plan per window is enough.
            if self.jobs.iter().any(|j| j.a == a && j.b == b) {
                return;
            }
        } else {
            // A synchronous rebalance invalidates any plan nested in it.
            self.invalidate_jobs_within(a, b);
        }

        let k = self.slots.occupied_in(a, b);
        let mut targets = std::mem::take(&mut self.targets_scratch);
        targets.clear();
        even_targets_into(a, b, k, &mut targets);
        // Left-movers go straight into the (recycled) queue ascending; the
        // right-movers collect in scratch and append reversed.
        let mut queue = self.queue_pool.pop().unwrap_or_default();
        queue.clear();
        let mut right_movers = std::mem::take(&mut self.movers_scratch);
        right_movers.clear();
        for (i, (pos, elem)) in self.slots.iter_occupied_in(a, b).enumerate() {
            let t = targets[i];
            if t < pos {
                queue.push((elem, t));
            } else if t > pos {
                right_movers.push((elem, t));
            }
        }
        // Safe order: left-movers ascending, then right-movers descending.
        queue.extend(right_movers.drain(..).rev());
        self.targets_scratch = targets;
        self.movers_scratch = right_movers;
        let mut job = Job { a, b, queue, cursor: 0 };
        self.stats.jobs_created += 1;
        if sync {
            self.drain_job(&mut job, usize::MAX);
            self.stats.jobs_completed += 1;
            self.recycle_queue(job.queue);
        } else if job.remaining() == 0 {
            self.stats.jobs_completed += 1;
            self.recycle_queue(job.queue);
        } else {
            self.jobs.push(job);
            // Backstop: never let the job set grow unboundedly; complete the
            // smallest plan synchronously if it does.
            let cap = 2 * self.tree.height() + 8;
            if self.jobs.len() > cap {
                self.jobs.sort_by_key(|j| j.b - j.a);
                let mut smallest = self.jobs.remove(0);
                self.drain_job(&mut smallest, usize::MAX);
                self.stats.jobs_completed += 1;
                self.recycle_queue(smallest.queue);
            }
        }
    }

    /// Complete-by-invalidation every job nested in `[a, b)`, recycling
    /// their queues.
    fn invalidate_jobs_within(&mut self, a: usize, b: usize) {
        let mut i = 0;
        while i < self.jobs.len() {
            if a <= self.jobs[i].a && self.jobs[i].b <= b {
                let job = self.jobs.remove(i);
                self.stats.jobs_completed += 1;
                self.recycle_queue(job.queue);
            } else {
                i += 1;
            }
        }
    }

    /// Return a finished job's queue to the pool (bounded; excess is freed).
    fn recycle_queue(&mut self, mut queue: Vec<(ElemId, usize)>) {
        if queue.capacity() > 0 && self.queue_pool.len() < 16 {
            queue.clear();
            self.queue_pool.push(queue);
        }
    }

    /// Execute up to `budget` moves of `job`; returns moves performed.
    fn drain_job(&mut self, job: &mut Job, budget: usize) -> usize {
        let mut done = 0usize;
        while job.cursor < job.queue.len() && done < budget {
            let (elem, target) = job.queue[job.cursor];
            job.cursor += 1;
            let Some(cur) = self.pos_of(elem) else {
                continue; // deleted since the plan froze
            };
            if cur == target {
                continue;
            }
            let dest = if cur < target {
                // rightward: clamp at the first occupied slot in (cur, target]
                match self.slots.next_occupied_at_or_after(cur + 1) {
                    Some(fb) if fb <= target => {
                        self.stats.clamped_moves += 1;
                        if fb == cur + 1 {
                            continue;
                        }
                        fb - 1
                    }
                    _ => target,
                }
            } else {
                // leftward: clamp at the last occupied slot in [target, cur)
                match self.slots.prev_occupied_at_or_before(cur - 1) {
                    Some(fb) if fb >= target => {
                        self.stats.clamped_moves += 1;
                        if fb == cur - 1 {
                            continue;
                        }
                        fb + 1
                    }
                    _ => target,
                }
            };
            self.move_tracked(cur, dest);
            done += 1;
        }
        done
    }

    /// Perform one operation's worth of background job work.
    fn run_jobs(&mut self) {
        let mut budget = self.work_quota;
        // Smallest windows first: they unblock local density fastest.
        self.jobs.sort_by_key(|j| j.b - j.a);
        let mut i = 0;
        while i < self.jobs.len() && budget > 0 {
            let mut job = std::mem::replace(
                &mut self.jobs[i],
                Job { a: 0, b: 0, queue: Vec::new(), cursor: 0 },
            );
            let done = self.drain_job(&mut job, budget);
            budget -= done;
            if job.remaining() == 0 {
                self.stats.jobs_completed += 1;
                self.jobs.remove(i);
                self.recycle_queue(job.queue);
            } else {
                self.jobs[i] = job;
                i += 1;
            }
        }
    }

    /// Run every active job to completion (forced path only).
    fn complete_all_jobs(&mut self) {
        let jobs = std::mem::take(&mut self.jobs);
        for mut job in jobs {
            self.drain_job(&mut job, usize::MAX);
            self.stats.jobs_completed += 1;
            self.recycle_queue(job.queue);
        }
    }

    // ----- placement --------------------------------------------------------

    /// Synchronously rebalance `[a, b)` to an even spread (small windows).
    fn inline_rebalance(&mut self, a: usize, b: usize) {
        self.stats.inline_rebalances += 1;
        self.create_job(a, b, true);
    }

    /// Current predecessor/successor positions for inserting at `rank`.
    fn rank_neighbors(&self, rank: usize) -> (Option<usize>, Option<usize>) {
        let len = self.len();
        let pred = if rank > 0 { Some(self.slots.select(rank - 1)) } else { None };
        let succ = if rank < len { Some(self.slots.select(rank)) } else { None };
        (pred, succ)
    }

    /// Find the placement slot for an insert at `rank`. Returns the chosen
    /// free slot after any shifting. Neighbor positions are recomputed from
    /// the rank after every rebalance (positions go stale).
    fn make_room(&mut self, rank: usize) -> usize {
        let (pred, succ) = self.rank_neighbors(rank);
        let m = self.slots.num_slots();
        // 1. A free slot already inside the gap?
        let (lo, hi) = match (pred, succ) {
            (None, None) => return m / 2,
            (Some(p), None) => (p + 1, m),
            (None, Some(q)) => (0, q),
            (Some(p), Some(q)) => (p + 1, q),
        };
        if lo < hi {
            if let Some(f) = self.slots.next_free(lo) {
                if f < hi {
                    // choose the free slot closest to the middle of the gap
                    let mid = lo + (hi - lo) / 2;
                    let f2 = if mid > f {
                        self.slots.next_free(mid).filter(|&x| x < hi).unwrap_or(f)
                    } else {
                        f
                    };
                    return f2;
                }
            }
        }
        // 2. Shift within shift_cap.
        let anchor = pred.or(succ).unwrap();
        let left = succ.map(|q| q.saturating_sub(1)).or(pred).and_then(|s| self.slots.prev_free(s));
        let right = pred.map(|p| p + 1).or(succ).and_then(|s| self.slots.next_free(s));
        let dl = left.map(|l| anchor.saturating_sub(l)).unwrap_or(usize::MAX);
        let dr = right.map(|r| r.saturating_sub(anchor)).unwrap_or(usize::MAX);
        if dl.min(dr) <= self.shift_cap {
            return if dl <= dr {
                self.shift_left(left.unwrap(), pred, succ)
            } else {
                self.shift_right(right.unwrap(), pred, succ)
            };
        }
        // 3. Inline rebalance around the insertion point, capped at
        //    inline_cap slots: prefer the smallest hard-feasible window, but
        //    accept any sub-cap window with physical room (the background
        //    jobs will restore global thresholds; what placement needs here
        //    is bounded-cost local room).
        let probe = succ.or(pred).unwrap();
        let seg = self.tree.seg_of(probe);
        let mut fallback: Option<(usize, usize)> = None;
        for level in 0..=self.tree.height() {
            let (a, b) = self.tree.window(level, seg);
            if b - a > self.inline_cap {
                break;
            }
            let w = b - a;
            let occ = self.slots.occupied_in(a, b);
            if (occ + 1) as f64 <= self.hard_upper(level) * w as f64 {
                self.inline_rebalance(a, b);
                return self.make_room_at(rank);
            }
            if occ + 1 < w {
                fallback = Some((a, b)); // largest sub-cap window with room
            }
        }
        if let Some((a, b)) = fallback {
            self.inline_rebalance(a, b);
            return self.make_room_at(rank);
        }
        // 3.5 Directed drain: every sub-cap window is saturated, which means
        // background jobs covering this region are lagging. Push the jobs
        // that contain the probe, bounded by inline_cap moves, then rescan.
        {
            let mut budget = self.inline_cap;
            self.jobs.sort_by_key(|j| j.b - j.a);
            let mut i = 0;
            while i < self.jobs.len() && budget > 0 {
                if self.jobs[i].a <= probe && probe < self.jobs[i].b {
                    let mut job = std::mem::replace(
                        &mut self.jobs[i],
                        Job { a: 0, b: 0, queue: Vec::new(), cursor: 0 },
                    );
                    budget -= self.drain_job(&mut job, budget);
                    if job.remaining() == 0 {
                        self.stats.jobs_completed += 1;
                        self.jobs.remove(i);
                        self.recycle_queue(job.queue);
                        continue;
                    }
                    self.jobs[i] = job;
                }
                i += 1;
            }
            for level in 0..=self.tree.height() {
                let (a, b) = self.tree.window(level, seg);
                if b - a > self.inline_cap {
                    break;
                }
                if self.slots.occupied_in(a, b) + 1 < b - a {
                    self.inline_rebalance(a, b);
                    return self.make_room_at(rank);
                }
            }
        }
        // 4. Forced sync: classical full ensure-room (counted).
        self.stats.forced_syncs += 1;
        self.complete_all_jobs();
        for level in 0..=self.tree.height() {
            let (a, b) = self.tree.window(level, seg);
            let cap = self.hard_upper(level) * (b - a) as f64;
            if (self.slots.occupied_in(a, b) + 1) as f64 <= cap {
                self.inline_rebalance(a, b);
                return self.make_room_at(rank);
            }
        }
        let (a, b) = self.tree.root_window();
        self.inline_rebalance(a, b);
        self.make_room_at(rank)
    }

    /// After a rebalance: recompute neighbors from the rank and find the
    /// (now nearby) free slot without caps.
    fn make_room_at(&mut self, rank: usize) -> usize {
        let (pred, succ) = self.rank_neighbors(rank);
        self.make_room_simple(pred, succ)
    }

    /// A free slot is near; find it without caps.
    fn make_room_simple(&mut self, pred: Option<usize>, succ: Option<usize>) -> usize {
        let m = self.slots.num_slots();
        let (lo, hi) = match (pred, succ) {
            (None, None) => return m / 2,
            (Some(p), None) => (p + 1, m),
            (None, Some(q)) => (0, q),
            (Some(p), Some(q)) => (p + 1, q),
        };
        if lo < hi {
            if let Some(f) = self.slots.next_free(lo) {
                if f < hi {
                    return f;
                }
            }
        }
        let left = succ.map(|q| q.saturating_sub(1)).or(pred).and_then(|s| self.slots.prev_free(s));
        let right = pred.map(|p| p + 1).or(succ).and_then(|s| self.slots.next_free(s));
        let anchor = pred.or(succ).unwrap();
        let dl = left.map(|l| anchor.saturating_sub(l)).unwrap_or(usize::MAX);
        let dr = right.map(|r| r.saturating_sub(anchor)).unwrap_or(usize::MAX);
        assert!(dl != usize::MAX || dr != usize::MAX, "no free slot in array");
        if dl <= dr {
            self.shift_left(left.unwrap(), pred, succ)
        } else {
            self.shift_right(right.unwrap(), pred, succ)
        }
    }

    /// Shift `(l, p]` one slot left into free `l`; returns the vacated slot
    /// adjacent to the gap (where the new element belongs).
    fn shift_left(&mut self, l: usize, pred: Option<usize>, _succ: Option<usize>) -> usize {
        let p = pred.expect("left shift requires a predecessor");
        for q in l + 1..=p {
            self.move_tracked(q, q - 1);
        }
        p
    }

    /// Shift `[q, r)` one slot right into free `r`; returns the vacated slot.
    fn shift_right(&mut self, r: usize, _pred: Option<usize>, succ: Option<usize>) -> usize {
        let q = succ.expect("right shift requires a successor");
        for t in (q..r).rev() {
            self.move_tracked(t, t + 1);
        }
        q
    }

    // ----- post-op threshold patrol ------------------------------------------

    /// After an insert at `pos`: enqueue a job for the smallest soft-feasible
    /// ancestor if any soft threshold is violated.
    fn patrol_upper(&mut self, pos: usize) {
        let seg = self.tree.seg_of(pos);
        let h = self.tree.height();
        let mut violated = false;
        for level in 0..=h {
            let (a, b) = self.tree.window(level, seg);
            let d = self.density_with(a, b, 0);
            if d > self.soft_upper(level) {
                violated = true;
            } else if violated {
                self.create_job(a, b, false);
                return;
            } else {
                return;
            }
        }
        if violated {
            let (a, b) = self.tree.root_window();
            self.create_job(a, b, false);
        }
    }

    /// After a delete at `pos`: mirror patrol with lower thresholds.
    fn patrol_lower(&mut self, pos: usize) {
        if self.len() < 32 {
            return;
        }
        let seg = self.tree.seg_of(pos);
        let h = self.tree.height();
        let mut violated = false;
        for level in 0..=h {
            let (a, b) = self.tree.window(level, seg);
            let d = self.density_with(a, b, 0);
            if d < self.soft_lower(level) {
                violated = true;
            } else if violated {
                self.create_job(a, b, false);
                return;
            } else {
                return;
            }
        }
        if violated {
            let (a, b) = self.tree.root_window();
            self.create_job(a, b, false);
        }
    }
}

impl ListLabeling for DeamortizedPma {
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
        self.run_jobs();
        let pos = self.make_room(rank);
        self.place_tracked(pos, id);
        self.patrol_upper(pos);
        self.slots.drain_log_into(&mut out.moves);
        out.placed = Some((id, pos as u32));
    }

    fn delete_into(&mut self, rank: usize, out: &mut OpReport) {
        out.clear();
        let len = self.len();
        assert!(rank < len, "delete rank {rank} >= len {len}");
        self.run_jobs();
        let pos = self.slots.select(rank);
        let id = self.remove_tracked(pos);
        self.patrol_lower(pos);
        self.slots.drain_log_into(&mut out.moves);
        out.removed = Some((id, pos as u32));
    }

    /// Native bulk insert: interleave the run into the smallest window
    /// around the insertion gap that stays within its **soft** threshold
    /// (so the sweep leaves no immediate patrol debt), as one evenly-spread
    /// sweep. Plans nested inside the swept window are completed by
    /// absorption (the sweep achieves their even layout); overlapping
    /// outer plans tolerate the motion as they do any concurrent edit —
    /// stale entries resolve through `elem_pos` and blocked moves clamp.
    ///
    /// The per-operation worst-case bound applies to single operations; a
    /// batch of `count` is one operation costing at most one sweep of its
    /// window (≤ window population + `count` moves).
    fn splice_into(&mut self, rank: usize, ids: &[ElemId], out: &mut OpReport) {
        let (len, count) = (self.len(), ids.len());
        assert!(rank <= len, "splice rank {rank} > len {len}");
        assert!(len + count <= self.capacity, "splice of {count} overflows capacity");
        out.clear();
        if count == 0 {
            return;
        }
        if count == 1 {
            self.insert_into(rank, ids[0], out);
            out.placed = None;
            return;
        }
        let height = self.tree.height();
        let (a, b) = if len == 0 {
            self.tree.root_window()
        } else {
            let probe =
                if rank < len { self.slots.select(rank) } else { self.slots.select(len - 1) };
            let seg = self.tree.seg_of(probe);
            let mut choice = None;
            for level in 0..=height {
                let (a, b) = self.tree.window(level, seg);
                let occ = self.slots.occupied_in(a, b);
                if occ + count <= b - a
                    && (occ + count) as f64 <= self.soft_upper(level) * (b - a) as f64
                {
                    choice = Some((a, b));
                    break;
                }
            }
            // The root always fits physically (capacity < num_slots).
            choice.unwrap_or_else(|| self.tree.root_window())
        };
        self.invalidate_jobs_within(a, b);
        self.stats.inline_rebalances += 1;
        let at = rank - self.slots.rank_at(a);
        merge_sorted(&mut self.slots, a, b, at, ids);
        self.slots.drain_log_into(&mut out.moves);
        self.elem_pos.reserve_for(ids.iter().copied());
        for mv in &out.moves {
            self.track(mv.elem, mv.to as usize);
        }
    }

    fn slots(&self) -> &SlotArray {
        &self.slots
    }

    fn set_metrics(&mut self, metrics: lll_core::metrics::MetricsHandle) {
        self.slots.set_metrics(metrics);
    }

    fn name(&self) -> &'static str {
        "deamortized-pma"
    }
}

/// Builder for [`DeamortizedPma`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DeamortizedBuilder;

impl LabelingBuilder for DeamortizedBuilder {
    type Structure = DeamortizedPma;

    fn build(&self, capacity: usize, num_slots: usize) -> Self::Structure {
        DeamortizedPma::new(capacity, num_slots)
    }

    fn min_slack(&self) -> f64 {
        1.3
    }

    fn expected_cost_hint(&self, capacity: usize) -> f64 {
        let lg = log2f(capacity);
        lg * lg
    }

    fn worst_case_hint(&self, capacity: usize) -> f64 {
        let lg = log2f(capacity);
        // job quota + placement shift + inline rebalance, in move units
        (WORK_MULT + INLINE_CAP_MULT) * lg * lg + SHIFT_CAP_MULT * lg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lll_core::ids::{IdAllocator, IdGen};
    use lll_core::ops::Op;
    use lll_core::testkit::run_against_oracle;
    use rand::{Rng, SeedableRng};

    fn mixed_ops(n: usize, total: usize, seed: u64) -> Vec<Op> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ops = Vec::new();
        let mut len = 0usize;
        for _ in 0..total {
            if len == 0 || (len < n && rng.gen_bool(0.6)) {
                ops.push(Op::Insert(rng.gen_range(0..=len)));
                len += 1;
            } else {
                ops.push(Op::Delete(rng.gen_range(0..len)));
                len -= 1;
            }
        }
        ops
    }

    #[test]
    fn oracle_random_workload() {
        let n = 500;
        let mut z = DeamortizedBuilder.build(n, n * 14 / 10);
        run_against_oracle(&mut z, &mixed_ops(n, 4000, 13), 137);
    }

    #[test]
    fn oracle_hammer_workload() {
        let n = 800;
        let ops: Vec<Op> = (0..n).map(|_| Op::Insert(0)).collect();
        let mut z = DeamortizedBuilder.build(n, n * 14 / 10);
        run_against_oracle(&mut z, &ops, 101);
    }

    #[test]
    fn oracle_tail_then_head() {
        let n = 600;
        let mut ops: Vec<Op> = (0..n / 2).map(Op::Insert).collect();
        ops.extend((0..n / 2).map(|_| Op::Insert(0)));
        let mut z = DeamortizedBuilder.build(n, n * 14 / 10);
        run_against_oracle(&mut z, &ops, 97);
    }

    #[test]
    fn per_op_cost_is_capped() {
        // The deamortization claim: on the workload that gives the classical
        // PMA its worst spikes (sustained head inserts), every single
        // operation stays under the configured worst-case budget.
        let n = 1 << 13;
        let builder = DeamortizedBuilder;
        let mut z = builder.build(n, n * 14 / 10);
        let budget = builder.worst_case_hint(n) * 3.0; // generous constant
        let mut max = 0u64;
        for i in 0..n as u64 {
            max = max.max(z.insert(0, ElemId(i)).cost());
        }
        assert!((max as f64) < budget, "worst op {max} exceeded deamortized budget {budget}");
        assert_eq!(z.stats().forced_syncs, 0, "safety valve should not fire");
    }

    #[test]
    fn spikes_are_smaller_than_classic() {
        use lll_classic::ClassicBuilder;
        use lll_core::traits::LabelingBuilder as _;
        let n = 1 << 13;
        let mut z = DeamortizedBuilder.build(n, n * 14 / 10);
        let mut c = ClassicBuilder.build(n, n * 14 / 10);
        let (mut max_z, mut max_c) = (0u64, 0u64);
        for i in 0..n as u64 {
            max_z = max_z.max(z.insert(0, ElemId(i)).cost());
            max_c = max_c.max(c.insert(0, ElemId(i)).cost());
        }
        assert!(
            max_z < max_c / 2,
            "deamortized max {max_z} should be far below classical max {max_c}"
        );
    }

    #[test]
    fn jobs_eventually_drain() {
        let n = 2048;
        let mut z = DeamortizedBuilder.build(n, n * 14 / 10);
        let mut ids = IdGen::new();
        for _ in 0..n / 2 {
            z.insert(0, ids.fresh());
        }
        // A quiet period of deletes/inserts lets the queue drain.
        for _ in 0..n / 4 {
            z.delete(0);
            z.insert(0, ids.fresh());
        }
        assert!(z.active_jobs() <= 4, "jobs piled up: {}", z.active_jobs());
    }

    #[test]
    fn stale_plan_entry_skips_a_reissued_index() {
        // Delete the element of a queued plan entry and give its index to a
        // new element under the next generation before the job drains: the
        // entry is stale and must be skipped, never applied to the newcomer.
        let n = 2048;
        let mut z = DeamortizedBuilder.build(n, n * 14 / 10);
        let mut ids = IdAllocator::new();
        // Hammer the head until some plan has more entries queued than two
        // operations' work quota can drain.
        while z.jobs.iter().all(|j| j.remaining() <= 3 * z.work_quota) {
            z.insert(0, ids.fresh());
        }
        let entries: Vec<(ElemId, usize)> =
            z.jobs.iter().flat_map(|j| j.queue[j.cursor..].iter().copied()).collect();
        let mut checked = 0;
        for (old, target) in entries {
            let mut z = z.clone();
            let mut ids = ids.clone();
            let Some(pos) = z.pos_of(old) else { continue };
            let rank = z.slots.rank_at(pos);
            z.delete(rank);
            ids.release(old);
            let new = ids.fresh();
            assert_eq!((new.index(), new.generation()), (old.index(), old.generation() + 1));
            z.insert(rank, new);
            // Keep only cases where the stale entry is still queued and
            // applying it to the newcomer would move it.
            let Some(j) = z.jobs.iter().position(|j| j.queue[j.cursor..].contains(&(old, target)))
            else {
                continue;
            };
            let cur = z.pos_of(new).expect("newcomer is tracked");
            let step = if target > cur { cur + 1 } else { cur.wrapping_sub(1) };
            if cur == target || step >= z.num_slots() || z.slots.is_occupied(step) {
                continue;
            }
            let mut job = z.jobs.remove(j);
            z.drain_job(&mut job, usize::MAX);
            let log = z.slots.drain_log();
            assert!(log.iter().all(|mv| mv.elem != new), "stale entry moved {new:?}");
            assert_eq!(z.pos_of(new), Some(cur));
            checked += 1;
        }
        assert!(checked > 0, "no stale entry survived to be checked");
    }

    #[test]
    fn fills_to_capacity_and_empties() {
        let n = 1000;
        let mut z = DeamortizedBuilder.build(n, n * 14 / 10);
        for i in 0..n {
            z.insert(i / 2, ElemId(i as u64));
        }
        assert_eq!(z.len(), n);
        for _ in 0..n {
            z.delete(z.len() / 2);
        }
        assert!(z.is_empty());
    }
}
