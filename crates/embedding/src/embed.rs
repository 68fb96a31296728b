//! The embedding `F ⊳ R` (paper §3) and its analysis instrumentation.
//!
//! `Embed<F, R>` runs a **simulated copy** of `F` (the planner: it processes
//! every operation at its true time, which is what makes Lemma 4's
//! input-independence hold), an **R-shell** `R` whose elements are the
//! array's non-white slots, and a physical tagged array holding the real
//! elements. Operations take the paper's fast path (mirror the simulation)
//! or slow path (buffer the element in an R-shell buffer slot and perform
//! Θ(E_R) of checkpointed rebuild work), with the Figure-2 move mechanics
//! translating F-emulator moves into physical moves whose extra cost is
//! exactly the *deadweight* the paper analyzes (Lemma 5 bounds it at 4
//! moves per element; `EmbedStats` records the realized histogram).
//!
//! `Embed<F, R>` itself implements [`ListLabeling`], so Theorem 3's double
//! embedding is literally `Embed<X, Embed<Y, Z>>` — see
//! [`crate::layered`].
//!
//! ## Per-element tables
//!
//! The insert, delete, relocate and checkpoint paths index what they keep
//! per element; none hashes a live element's id:
//!
//! * `elem_loc`, an [`IdTable`] at the id's [`index`](ElemId::index): each
//!   live element's [`Loc`] and, while it is buffered, its deadweight count
//!   (12 bytes per id, generation included);
//! * `cur_f_occ`, a bitmap over F-coordinates marking those the physical
//!   F-layout occupies, ghosts included. Who occupies one is not stored
//!   again: a live occupant is the tagged array's content at that F-slot,
//!   read through the finger the relocation walks anyway, and an occupied
//!   coordinate whose F-slot is empty holds a ghost;
//! * `dirty`, a bitmap over F-coordinates marking those the simulation
//!   touched. The next checkpoint's freeze visits the marked coordinates
//!   in order, each a finger select from the last, clearing as it goes.
//!   It decides "unchanged" from `elem_loc` (the simulation's occupant is
//!   live, not buffered, and at the same coordinate) or, for a coordinate
//!   the simulation leaves free, from `cur_f_occ`, so it resolves no
//!   position. That checkpoint's targets come from one walk of the
//!   simulation's occupancy bitmap.
//!
//! Ghosts stay in two small `HashMap`s, `ghosts` by id and `ghost_at` by
//! F-coordinate. A ghost is a deleted element whose slot the pending
//! rebuild has not cleared yet, and its index may already be reissued to a
//! live element under the next generation, so it cannot share that
//! element's table entry. The maps are consulted only for ids that are not
//! live and for occupied F-slots with no content — a few per deletion,
//! never per move of a live element — and a ghost records the rebuild
//! count at its deletion, which tells the pending checkpoint whether it
//! still holds the ghost as a target.
//!
//! Which ids each level sees, in `X ⊳ (Y ⊳ Z)`: the outer embedding and
//! its simulated `X` see the caller's ids (from `Growable`, dense below the
//! peak population). The inner `Y ⊳ Z` sees the outer R-shell's slot ids,
//! and `Z` the inner shell's: each embedding numbers its shell's slots
//! with its own [`IdAllocator`] and hands the index of the dummy slot a
//! slow-path insert deletes to the buffer slot it inserts, so those ids
//! stay below the shell's capacity. Only caller ids can be sparse (the
//! survivors of a shrink, or a restored snapshot's handles); the table
//! keeps indices at or above the embedding's capacity in a side map.
//!
//! ## Coordinate translations
//!
//! Every mirrored move and every placement turns F-coordinates into
//! positions. Two fingers ([`FCursor`]s) remember the last source and the
//! last destination, so the consecutive lookups of one simulated rebalance
//! or one rebuild phase, a few F-slots apart, are short walks from the
//! previous answer instead of selects from the index root; a retag that
//! changes the F-layout (rare: it takes a move that crosses a buffered
//! element, or a mirrored shell move) sends the next lookup to the root.
//! Each move's a₁ runs from a third finger, a [`RealGap`]: the sweep's
//! spans mostly fall between the same two buffered reals.

use crate::tag_array::{FCursor, RealGap, SlotTag, TagArray};
use lll_core::bitmap::Bitmap;
use lll_core::ids::{ElemId, IdAllocator, IdTable};
use lll_core::metrics::MetricsHandle;
use lll_core::report::{MoveRec, OpReport};
use lll_core::slot_array::SlotArray;
use lll_core::traits::{LabelingBuilder, ListLabeling};
use std::collections::HashMap;

/// Where a live element physically lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loc {
    /// In the F-emulator's array, at this F-coordinate.
    F(usize),
    /// Buffered in the R-shell, at this physical position.
    Buffer(usize),
}

/// A live element's [`Loc`] and, while it is buffered, the deadweight
/// moves it has suffered: 8 bytes, 12 with the generation that
/// [`Embed`]'s id table keeps beside it.
#[derive(Clone, Copy, Debug)]
struct Placed {
    /// F-coordinate, or physical position when `buffered`.
    pos: u32,
    /// Saturating; Lemma 5 bounds it by 4.
    deadweight: u16,
    buffered: bool,
}

impl Placed {
    fn f(fidx: usize) -> Self {
        Self { pos: fidx as u32, deadweight: 0, buffered: false }
    }

    fn buffer(pos: usize) -> Self {
        Self { pos: pos as u32, deadweight: 0, buffered: true }
    }

    fn loc(self) -> Loc {
        if self.buffered {
            Loc::Buffer(self.pos as usize)
        } else {
            Loc::F(self.pos as usize)
        }
    }
}

/// A deleted element still present in the physical F-layout.
#[derive(Clone, Copy, Debug)]
struct Ghost {
    /// Its F-coordinate.
    fidx: usize,
    /// `stats.rebuilds_started` when it was deleted. It equals the count
    /// while a checkpoint is pending exactly when the element was deleted
    /// after that checkpoint froze, i.e. when the checkpoint still holds
    /// it as a target.
    deleted_during: u64,
}

/// Tuning parameters of the embedding.
#[derive(Clone, Copy, Debug)]
pub struct EmbedConfig {
    /// The paper's ε: the F-emulator gets `(1+ε)n` slots, the shell `εn`
    /// buffer slots and `εn` free slots.
    pub epsilon: f64,
    /// Scales R's `expected_cost_hint` into the fast/slow-path threshold
    /// `E_R`.
    pub er_mult: f64,
    /// Rebuild work per slow-path operation, as a multiple of `E_R`
    /// (the paper's "Θ(E_R) rebuild work").
    pub rebuild_mult: f64,
}

impl Default for EmbedConfig {
    fn default() -> Self {
        Self { epsilon: 1.0 / 3.0, er_mult: 1.0, rebuild_mult: 2.0 }
    }
}

/// Observable counters for the paper's lemma-level experiments.
#[derive(Clone, Debug, Default)]
pub struct EmbedStats {
    /// Operations that took the fast path.
    pub fast_ops: u64,
    /// Operations that took the slow path.
    pub slow_ops: u64,
    /// Rebuilds started / completed (checkpoints).
    pub rebuilds_started: u64,
    /// Rebuilds completed.
    pub rebuilds_completed: u64,
    /// Max elements simultaneously buffered in the R-shell (Lemma 7).
    pub max_buffered: usize,
    /// Max operations spanned by one rebuild (Lemma 6).
    pub max_rebuild_span: u64,
    /// Histogram of total deadweight moves per element, recorded at
    /// incorporation/deletion: index d counts elements that suffered d
    /// deadweight moves (last bucket = "that many or more"). Lemma 5 says
    /// everything lands in buckets 0..=4.
    pub deadweight_hist: [u64; 9],
    /// Maximum deadweight moves suffered by any single element (Lemma 5
    /// bounds this by 4).
    pub max_deadweight: u32,
    /// Physical moves caused by mirroring R-shell rebalances.
    pub r_shell_moves: u64,
    /// Deadweight moves (buffered elements displaced by emulator motion).
    pub deadweight_moves: u64,
    /// Buffered elements incorporated into the F-emulator.
    pub incorporations: u64,
    /// Emergency full catch-ups because no dummy buffer slot was available
    /// (the paper's Lemma 7 halting condition; should stay 0).
    pub forced_catchups: u64,
    /// R-shell cost of the Θ(n) initialization inserts (reported separately,
    /// as the paper's light-amortization argument requires).
    pub init_cost: u64,
}

impl EmbedStats {
    fn record_deadweight(&mut self, d: u32) {
        self.max_deadweight = self.max_deadweight.max(d);
        let idx = (d as usize).min(self.deadweight_hist.len() - 1);
        self.deadweight_hist[idx] += 1;
    }
}

/// One interval `I_j` of a rebuild (Figure 3), with its two-phase cursor
/// (Figure 4).
#[derive(Clone, Debug)]
struct IntervalJob {
    f_hi: usize,
    /// Target layout within the interval: `(f_index, element)` ascending.
    targets: Vec<(usize, ElemId)>,
    /// 0 = left-align (pack), 1 = rightward placement (descending),
    /// 2 = deferred leftward incorporations (ascending).
    phase: u8,
    /// Phase-0 read cursor (next F-index to examine).
    scan: usize,
    /// Phase-0 write cursor (next packed F-index).
    pack_next: usize,
    /// Phase-1 progress (targets placed, from the right).
    placed: usize,
    /// Buffered elements whose slot lies right of their target, deferred
    /// out of the descending pass (pushed in descending target order) and
    /// incorporated in ascending order — under which no deadweight element
    /// is crossed twice (see `run_checkpoint`).
    deferred: Vec<(usize, ElemId)>,
    /// Phase-2 progress (deferred entries placed, from the back = ascending).
    placed2: usize,
}

/// A pending rebuild: transform the physical F-layout into the frozen
/// checkpoint `C(t) = F(t₀)`.
#[derive(Clone, Debug)]
struct Checkpoint {
    jobs: Vec<IntervalJob>,
    job_idx: usize,
}

impl Checkpoint {
    /// Upper-bound estimate of the moves left (each unplaced target costs
    /// ≤ 1 pack move + 1 placement move, modulo deadweight).
    fn planned_remaining(&self) -> u64 {
        self.jobs[self.job_idx..]
            .iter()
            .map(|j| {
                2 * (j.targets.len() - j.placed) as u64 + 2 * (j.deferred.len() - j.placed2) as u64
            })
            .sum()
    }
}

/// The embedding `F ⊳ R` of a fast structure `F` into a reliable structure
/// `R` (paper §3, Theorem 2).
///
/// A clone is an independent copy in the same state, random tapes
/// included; its physical array records into a detached copy of the
/// metrics (see [`SlotArray`]'s `Clone`).
#[derive(Clone)]
pub struct Embed<F: ListLabeling, R: ListLabeling> {
    capacity: usize,
    tags: TagArray,
    /// The simulated copy of F (processes every operation immediately,
    /// under the same element ids as the physical array).
    sim: F,
    /// The R-shell (its elements are the non-white slots of the array).
    shell: R,
    /// Occupancy of the physical F-layout, by F-coordinate, ghosts
    /// included. A live occupant is the content of its F-slot; an occupied
    /// coordinate whose F-slot is empty holds a ghost.
    cur_f_occ: Bitmap,
    /// Live elements → location and deadweight, indexed by id.
    elem_loc: IdTable<Placed>,
    /// Deleted elements still present in the physical F-layout (ghosts).
    /// Looked up only for ids that are not live, so hashing here costs
    /// nothing per move.
    ghosts: HashMap<ElemId, Ghost>,
    /// `ghosts` inverted: the ghost at each F-coordinate that holds one.
    /// Looked up only for occupied F-slots with no content.
    ghost_at: HashMap<usize, ElemId>,
    /// The element of the in-flight insertion, between its simulation
    /// insert and its physical placement. A checkpoint created in that
    /// window (e.g. by a forced catch-up inside `buffer_insert`) must not
    /// treat it as deleted.
    pending_insert: Option<ElemId>,
    /// F-coordinates touched by the simulation since the last checkpoint
    /// froze — the diff candidates for the next one.
    dirty: Bitmap,
    /// Fingers for the source and the destination F-coordinates of
    /// emulator moves and placements.
    src_finger: FCursor,
    dst_finger: FCursor,
    /// The last gap between buffered reals that an emulator move's a₁
    /// found.
    real_gap: RealGap,
    checkpoint: Option<Checkpoint>,
    /// The fast/slow threshold E_R.
    er_budget: f64,
    /// Rebuild moves per slow-path op (Θ(E_R)).
    rebuild_budget: u64,
    /// Ids of the R-shell's elements (slots, not stored elements; the
    /// caller's ids go to the simulation and the physical array). Each
    /// slow-path insert releases the dummy slot it deletes and reissues its
    /// index to the buffer slot it inserts, so the shell sees indices below
    /// its capacity.
    shell_ids: IdAllocator,
    stats: EmbedStats,
    /// Operations since the pending rebuild started (Lemma 6 metric).
    rebuild_span: u64,
    /// Optional trace of the operation sequence fed to the R-shell
    /// (`(is_insert, slot_rank)`), for Lemma 4 experiments: this sequence
    /// must be identical across different R random tapes.
    shell_trace: Option<Vec<(bool, usize)>>,
    /// Reusable buffer for the simulation's per-op reports (the mirror
    /// path replays them move by move; reusing the buffer keeps
    /// steady-state operations allocation-free on the logging side).
    sim_scratch: OpReport,
    /// Reusable buffer for the R-shell's per-op reports (buffer-slot
    /// rotation on the slow path).
    shell_scratch: OpReport,
}

impl<F: ListLabeling, R: ListLabeling> Embed<F, R> {
    /// Assemble an embedding from an (empty) simulated F and an (empty)
    /// R-shell. `sim.num_slots()` is the F-emulator size `(1+ε)n`;
    /// `shell.capacity() - sim.num_slots()` buffer slots are created.
    ///
    /// Performs the Θ(n) R-shell initialization the paper describes: every
    /// F-slot and buffer slot enters the shell through one bulk splice,
    /// whose cost is recorded as `init_cost`. The tags are then read off
    /// the shell's final layout, not replayed from its move log: the
    /// shell's occupied slots are the non-white ones, and buffer slots are
    /// interleaved evenly among them by slot rank
    /// ([`TagArray::tag_shell_layout`]).
    pub fn new(capacity: usize, sim: F, shell: R, er_budget: f64, rebuild_mult: f64) -> Self {
        let f_count = sim.num_slots();
        let r_cap = shell.capacity();
        let m = shell.num_slots();
        assert!(r_cap > f_count, "shell must hold F-slots plus buffer slots");
        assert!(m > r_cap, "shell needs free slots");
        assert!(sim.is_empty() && shell.is_empty(), "sim and shell must start empty");
        let buf_count = r_cap - f_count;
        assert!(m <= u32::MAX as usize, "slot positions must fit in u32");
        let mut this = Self {
            capacity,
            tags: TagArray::new(m),
            sim,
            shell,
            cur_f_occ: Bitmap::new(f_count),
            elem_loc: IdTable::new(capacity),
            ghosts: HashMap::new(),
            ghost_at: HashMap::new(),
            pending_insert: None,
            dirty: Bitmap::new(f_count),
            src_finger: FCursor::default(),
            dst_finger: FCursor::default(),
            real_gap: RealGap::default(),
            checkpoint: None,
            er_budget: er_budget.max(1.0),
            rebuild_budget: ((er_budget * rebuild_mult).ceil() as u64).max(1),
            shell_ids: IdAllocator::new(),
            stats: EmbedStats::default(),
            rebuild_span: 0,
            shell_trace: None,
            sim_scratch: OpReport::default(),
            shell_scratch: OpReport::default(),
        };
        // The paper's cost is the physical array's moves; the simulation's
        // and the shell's are computation, so they keep the disabled
        // metrics handle every slot array starts on, and record nothing.
        // The whole shell population enters through one bulk splice (one
        // evenly-spread sweep when R has a native bulk path).
        let slot_ids = this.shell_ids.fresh_n(r_cap);
        let bulk = this.shell.splice(0, &slot_ids);
        this.stats.init_cost += bulk.cost();
        debug_assert_eq!(this.shell.len(), r_cap);
        this.tags.tag_shell_layout(this.shell.slots().bitmap(), buf_count);
        debug_assert_eq!(this.tags.f_count(), f_count);
        debug_assert_eq!(this.tags.buf_count(), buf_count);
        this
    }

    /// The instrumentation counters.
    pub fn stats(&self) -> &EmbedStats {
        &self.stats
    }

    /// Currently buffered elements (Lemma 7 metric).
    pub fn buffered(&self) -> usize {
        self.tags.buffered_real_count()
    }

    /// Is a rebuild pending?
    pub fn rebuild_pending(&self) -> bool {
        self.checkpoint.is_some()
    }

    /// The fast/slow threshold E_R in use.
    pub fn er_budget(&self) -> f64 {
        self.er_budget
    }

    /// The simulated copy of F (read-only).
    pub fn sim(&self) -> &F {
        &self.sim
    }

    /// The R-shell (read-only).
    pub fn shell(&self) -> &R {
        &self.shell
    }

    /// The simulated copy of F, for installing its random tape into a copy
    /// of an empty embedding ([`crate::layered::install_y_tape`]).
    pub(crate) fn sim_mut(&mut self) -> &mut F {
        &mut self.sim
    }

    /// The R-shell, for the same purpose as [`sim_mut`](Self::sim_mut).
    pub(crate) fn shell_mut(&mut self) -> &mut R {
        &mut self.shell
    }

    /// The tagged array (read-only; used by the views renderer).
    pub fn tag_array(&self) -> &TagArray {
        &self.tags
    }

    /// Start recording the operation sequence fed to the R-shell. Lemma 4
    /// of the paper says this sequence is fully determined by the input and
    /// rand(F) — independent of rand(R); `shell_trace()` lets tests verify
    /// it operationally.
    pub fn enable_shell_trace(&mut self) {
        self.shell_trace = Some(Vec::new());
    }

    /// The recorded R-shell operation sequence (empty if not enabled).
    pub fn shell_trace(&self) -> &[(bool, usize)] {
        self.shell_trace.as_deref().unwrap_or(&[])
    }

    // ----- emulator motion (Figure 2) ---------------------------------------

    /// Record one deadweight displacement of buffered element `e`, now at
    /// position `pos`.
    fn note_deadweight(&mut self, e: ElemId, pos: usize) {
        let placed = self.elem_loc.get_mut(e).expect("deadweight of a live element");
        debug_assert!(placed.buffered, "deadweight of an unbuffered element");
        placed.pos = pos as u32;
        placed.deadweight = placed.deadweight.saturating_add(1);
        self.stats.deadweight_moves += 1;
    }

    /// A buffered element moved to physical position `pos`.
    fn note_buffer_pos(&mut self, e: ElemId, pos: usize) {
        let placed = self.elem_loc.get_mut(e).expect("buffered element is live");
        debug_assert!(placed.buffered);
        placed.pos = pos as u32;
    }

    /// Move the real element at `start` so it becomes the content of
    /// F-slot `dst_fidx`, which sits at position `p_dst`.
    fn emulator_move(&mut self, start: usize, p_dst: usize, dst_fidx: usize) {
        if start < p_dst {
            self.emulator_move_right(start, p_dst, dst_fidx);
        } else {
            self.emulator_move_left(start, p_dst, dst_fidx);
        }
    }

    /// Move the real element at `start` rightward so it becomes the content
    /// of F-slot `dst_fidx` at `p_dst` — the coalesced Figure-2 mechanics.
    /// Every buffered real element strictly inside the span moves exactly
    /// once (its deadweight move) into the span's tail `(q, p_dst]`; x
    /// lands at the pivot slot `q`; O(a₁) retags keep every F-index outside
    /// the span (and x's landing index) exact. Total cost `1 + a₁`.
    fn emulator_move_right(&mut self, start: usize, p_dst: usize, dst_fidx: usize) {
        debug_assert!(start < p_dst, "not a rightward move");
        let a1 = self.tags.buffered_reals_in(start, p_dst, &mut self.real_gap);
        if a1 == 0 {
            self.tags.move_content(start, p_dst);
            return;
        }
        let f_total = self.cur_f_occ.len();
        // The pivot q: exactly a1 non-white slots lie in (q, p_dst].
        let q = self.tags.slot_pos(self.tags.slot_rank(p_dst) - a1);
        debug_assert!(q > start, "span too small for its blocking reals");
        // 1. Relocate the span's reals into the a1 tail slots (q, p_dst],
        //    order-preserving: the i-th real (by position) goes to the i-th
        //    tail slot. Right-to-left; rightward-or-stay moves only. Tail
        //    slots that were (free) F-slots become buffer slots.
        let first_real = self.tags.buffered_reals_before(start + 1);
        let tail_rank0 = self.tags.slot_rank(q) + 1;
        for i in (0..a1).rev() {
            let p = self.tags.buffered_real_pos(first_real + i).expect("real vanished");
            let slot = self.tags.slot_pos(tail_rank0 + i);
            debug_assert!(slot >= p);
            if slot != p {
                if self.tags.tag(slot) == SlotTag::F {
                    debug_assert!(!self.tags.contents.is_occupied(slot));
                    self.tags.retag(slot, SlotTag::Buf);
                }
                let e = self.tags.move_content(p, slot);
                self.note_deadweight(e, slot);
            }
        }
        // 2. Move x to the pivot; the pivot becomes an F-slot.
        self.tags.move_content(start, q);
        if self.tags.tag(q) != SlotTag::F {
            self.tags.retag(q, SlotTag::F);
        }
        // 3. Restore the F-count on dummies strictly inside (start, q):
        //    this simultaneously fixes x's landing index (= #F-tags before
        //    q) and every F-index outside the span.
        while self.tags.f_count() < f_total {
            let k = self.tags.dummies_before(q);
            debug_assert!(k > 0, "no dummy available to restore F-count");
            let dpos = self.tags.dummy_pos(k - 1).expect("dummy rank valid");
            debug_assert!(dpos > start, "restore slot outside span");
            self.tags.retag(dpos, SlotTag::F);
        }
        debug_assert_eq!(self.tags.f_count(), f_total);
        debug_assert_eq!(self.tags.f_index_of(q), dst_fidx, "landing index off");
    }

    /// Mirror image of [`Self::emulator_move_right`]: reals compact into the
    /// span's head `[p_dst, q)`, x lands at the pivot `q`, and the F-count
    /// is restored on dummies strictly inside `(q, start)`.
    fn emulator_move_left(&mut self, start: usize, p_dst: usize, dst_fidx: usize) {
        debug_assert!(p_dst < start, "not a leftward move");
        let a1 = self.tags.buffered_reals_in(p_dst, start, &mut self.real_gap);
        if a1 == 0 {
            self.tags.move_content(start, p_dst);
            return;
        }
        let f_total = self.cur_f_occ.len();
        // The pivot q: exactly a1 non-white slots lie in [p_dst, q).
        let q = self.tags.slot_pos(self.tags.slot_rank(p_dst) + a1);
        debug_assert!(q < start);
        // 1. Relocate the span's reals into the a1 head slots [p_dst, q),
        //    order-preserving, left-to-right; leftward-or-stay moves only.
        let first_real = self.tags.buffered_reals_before(p_dst);
        let head_rank0 = self.tags.slot_rank(p_dst);
        for i in 0..a1 {
            let p = self.tags.buffered_real_pos(first_real + i).expect("real vanished");
            let slot = self.tags.slot_pos(head_rank0 + i);
            debug_assert!(slot <= p);
            if slot != p {
                if self.tags.tag(slot) == SlotTag::F {
                    debug_assert!(!self.tags.contents.is_occupied(slot));
                    self.tags.retag(slot, SlotTag::Buf);
                }
                let e = self.tags.move_content(p, slot);
                self.note_deadweight(e, slot);
            }
        }
        // 2. Move x to the pivot; the pivot becomes an F-slot. (#F-tags
        //    before q is now exactly dst_fidx: the head retags removed the
        //    span's below-q F-tags, including p_dst's.)
        self.tags.move_content(start, q);
        if self.tags.tag(q) != SlotTag::F {
            self.tags.retag(q, SlotTag::F);
        }
        // 3. Restore the F-count on dummies strictly inside (q, start):
        //    above the pivot so x's landing index stays exact, inside the
        //    span so outside F-indices are unchanged.
        while self.tags.f_count() < f_total {
            let k = self.tags.dummies_before(q + 1);
            let dpos = self.tags.dummy_pos(k).expect("no dummy right of the pivot");
            debug_assert!(dpos < start || self.tags.tag(start) == SlotTag::Buf);
            debug_assert!(dpos <= start, "restore slot outside span");
            self.tags.retag(dpos, SlotTag::F);
        }
        debug_assert_eq!(self.tags.f_count(), f_total);
        debug_assert_eq!(self.tags.f_index_of(q), dst_fidx, "landing index off");
    }

    /// Relocate the occupant of F-coordinate `from_fidx` to the empty
    /// F-slot `to_fidx`: physically for live elements, bookkeeping-only
    /// for ghosts.
    fn emulator_relocate(&mut self, from_fidx: usize, to_fidx: usize) {
        if from_fidx == to_fidx {
            return;
        }
        let src = self.tags.f_pos_via(from_fidx, &mut self.src_finger);
        self.relocate_from(src, from_fidx, to_fidx);
    }

    /// [`emulator_relocate`](Self::emulator_relocate), for a caller that
    /// already holds the position `src` of F-coordinate `from_fidx`. The
    /// slot's content is the live occupant; an empty slot holds a ghost.
    fn relocate_from(&mut self, src: usize, from_fidx: usize, to_fidx: usize) {
        debug_assert!(self.cur_f_occ.get(from_fidx), "relocate from empty F-slot");
        if let Some(e) = self.tags.contents.get(src) {
            let dst = self.tags.f_pos_via(to_fidx, &mut self.dst_finger);
            self.emulator_move(src, dst, to_fidx);
            self.elem_loc.insert(e, Placed::f(to_fidx));
        } else {
            let e = self.ghost_at.remove(&from_fidx).expect("dead F-slot occupant is a ghost");
            self.ghosts.get_mut(&e).expect("ghost of its coordinate").fidx = to_fidx;
            self.ghost_at.insert(to_fidx, e);
        }
        self.cur_f_occ.move_bit(from_fidx, to_fidx);
    }

    /// Keep the deleted element `e` as a ghost at the occupied
    /// F-coordinate `fidx`.
    fn add_ghost(&mut self, e: ElemId, fidx: usize) {
        let deleted_during = self.stats.rebuilds_started;
        self.ghosts.insert(e, Ghost { fidx, deleted_during });
        self.ghost_at.insert(fidx, e);
    }

    /// Place the new element `e` physically at the free F-coordinate `fidx`
    /// (fast-path and bulk placements).
    fn place_f(&mut self, fidx: usize, e: ElemId) {
        let pos = self.tags.f_pos_via(fidx, &mut self.dst_finger);
        self.tags.place_content(pos, e);
        self.cur_f_occ.set(fidx);
        self.elem_loc.insert(e, Placed::f(fidx));
    }

    /// The body of [`splice_into`](ListLabeling::splice_into). `one_walk`
    /// permits the one-walk placement into an empty embedding; the tests
    /// turn it off to compare against the per-move mirror.
    fn splice_with(&mut self, rank: usize, ids: &[ElemId], out: &mut OpReport, one_walk: bool) {
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
        // Catch-up moves are part of the batch: they are drained into the
        // same report below.
        self.force_catch_up();
        debug_assert_eq!(self.buffered(), 0);
        debug_assert!(self.ghosts.is_empty());
        let sim_bulk = self.sim.splice(rank, ids);
        self.stats.fast_ops += count as u64;
        let placed_in_order = |moves: &[MoveRec]| {
            moves.iter().all(|mv| mv.from == mv.to) && moves.windows(2).all(|w| w[0].to < w[1].to)
        };
        if one_walk && len == 0 && placed_in_order(&sim_bulk.moves) {
            self.place_sim_layout(&sim_bulk.moves);
        } else {
            for mv in &sim_bulk.moves {
                if mv.from == mv.to {
                    // Placement of a new element.
                    self.place_f(mv.from as usize, mv.elem);
                } else {
                    self.emulator_relocate(mv.from as usize, mv.to as usize);
                }
            }
        }
        self.tags.contents.drain_log_into(&mut out.moves);
    }

    /// Place the simulation's whole F-layout into the empty physical array
    /// in one walk. `placements` is the log of a simulated splice into an
    /// empty simulation that only placed elements, at ascending
    /// F-coordinates, so it is that layout. Each placement is paired with
    /// its F-slot and entered into the contents and `elem_loc`, and
    /// `cur_f_occ` becomes a copy of the simulation's occupancy bitmap. The
    /// log records the same placements, in the same order, as mirroring
    /// them one by one does.
    fn place_sim_layout(&mut self, placements: &[MoveRec]) {
        debug_assert_eq!(self.cur_f_occ.count_ones(), 0, "placing into an occupied F-layout");
        self.cur_f_occ.clone_from(self.sim.slots().bitmap());
        self.elem_loc.reserve_for(placements.iter().map(|mv| mv.elem));
        let elem_loc = &mut self.elem_loc;
        self.tags.place_f_run(placements.iter().map(|mv| {
            elem_loc.insert(mv.elem, Placed::f(mv.to as usize));
            (mv.to as usize, mv.elem)
        }));
    }

    /// [`splice_into`](ListLabeling::splice_into) through the per-move
    /// mirror only: the reference for the one-walk placement.
    #[cfg(test)]
    pub(crate) fn splice_per_move(&mut self, rank: usize, ids: &[ElemId]) -> OpReport {
        let mut out = OpReport::default();
        self.splice_with(rank, ids, &mut out, false);
        out
    }

    /// The physical F-occupancy, and every live element's location and
    /// deadweight in id order.
    #[cfg(test)]
    pub(crate) fn placements(&self) -> (&Bitmap, Vec<(ElemId, Loc, u16)>) {
        let locs = self.elem_loc.iter().map(|(e, p)| (e, p.loc(), p.deadweight)).collect();
        (&self.cur_f_occ, locs)
    }

    /// Mirror the simulated copy's moves onto the physical array (fast path
    /// only: the physical F-layout matches the simulation's pre-op state).
    fn mirror_sim_moves(&mut self, rep: &OpReport) {
        for mv in &rep.moves {
            if mv.from == mv.to {
                continue; // placement, handled by the caller
            }
            self.emulator_relocate(mv.from as usize, mv.to as usize);
        }
    }

    /// Record the simulation's touched F-coordinates for the next diff.
    fn note_dirty(&mut self, rep: &OpReport) {
        for mv in &rep.moves {
            self.mark_dirty(mv.from as usize);
            self.mark_dirty(mv.to as usize);
        }
        for &(_, p) in rep.placed.iter().chain(&rep.removed) {
            self.mark_dirty(p as usize);
        }
    }

    /// Mark one F-coordinate for the next diff.
    #[inline]
    fn mark_dirty(&mut self, fidx: usize) {
        if !self.dirty.get(fidx) {
            self.dirty.set(fidx);
        }
    }

    // ----- R-shell interaction ----------------------------------------------

    /// Mirror an R-shell report in stream order. Slot moves relocate tags
    /// and contents; when the report contains a placement, the placed slot
    /// is retagged `placed_tag` at its position in the stream (later moves
    /// may relocate the new slot, e.g. when the shell is itself an
    /// embedding doing rebuild work after buffering).
    /// Returns the *final* position of the placed slot (the shell may move
    /// a freshly placed slot again within the same operation, e.g. when the
    /// shell is itself an embedding doing rebuild work after buffering).
    fn mirror_shell(&mut self, rep: &OpReport, placed_tag: Option<SlotTag>) -> Option<usize> {
        let pid = rep.placed.map(|(id, _)| id);
        let mut placed_pos: Option<usize> = None;
        for mv in &rep.moves {
            if mv.from == mv.to {
                if let (Some(tag), Some(pid)) = (placed_tag, pid) {
                    if mv.elem == pid {
                        self.tags.retag(mv.from as usize, tag);
                        placed_pos = Some(mv.from as usize);
                    }
                }
                continue;
            }
            if let Some(e) = self.tags.move_slot(mv.from as usize, mv.to as usize) {
                self.stats.r_shell_moves += 1;
                if self.tags.tag(mv.to as usize) == SlotTag::Buf {
                    self.note_buffer_pos(e, mv.to as usize);
                }
            }
            if placed_pos == Some(mv.from as usize) {
                placed_pos = Some(mv.to as usize);
            }
        }
        assert!(
            placed_tag.is_none() || pid.is_none() || placed_pos.is_some(),
            "every slot array logs a placement as a from == to move, but the shell's stream \
             lacks one"
        );
        placed_pos
    }

    /// Mirror an R-shell *delete* report. The shell may move the doomed
    /// slot before removing it and may move other slots into the vacated
    /// position afterwards, so the white-out is sequenced by tracking the
    /// doomed slot's position through the stream.
    fn mirror_shell_delete(&mut self, rep: &OpReport, dummy_start: usize) {
        let mut dpos = dummy_start;
        let mut whitened = false;
        for mv in &rep.moves {
            if mv.from == mv.to {
                continue;
            }
            let (from, to) = (mv.from as usize, mv.to as usize);
            if !whitened && from == dpos {
                // The doomed slot itself is being relocated (pre-removal).
                self.tags.move_slot(from, to);
                dpos = to;
                continue;
            }
            if !whitened && to == dpos {
                // Someone moves into the doomed position: the removal must
                // have happened before this move.
                self.tags.retag(dpos, SlotTag::White);
                whitened = true;
            }
            if let Some(e) = self.tags.move_slot(from, to) {
                self.stats.r_shell_moves += 1;
                if self.tags.tag(to) == SlotTag::Buf {
                    self.note_buffer_pos(e, to);
                }
            }
        }
        if !whitened {
            debug_assert_eq!(rep.removed.map(|(_, p)| p as usize), Some(dpos));
            self.tags.retag(dpos, SlotTag::White);
        }
    }

    /// Slow-path part (a): buffer a new element in the R-shell at `rank`.
    fn buffer_insert(&mut self, rank: usize, emb_id: ElemId) -> usize {
        // (i) delete an arbitrary (nearest) dummy buffer slot via R.
        let anchor = if rank > 0 { self.tags.contents.select(rank - 1) } else { 0 };
        let dummy = match self.tags.nearest_dummy(anchor) {
            Some(d) => d,
            None => {
                // Lemma 7 says this cannot happen asymptotically; as an
                // engineering safety valve we force a full catch-up, which
                // incorporates every buffered element.
                self.stats.forced_catchups += 1;
                self.force_catch_up();
                self.tags.nearest_dummy(anchor).expect("no dummy even after full catch-up")
            }
        };
        let dummy_rank = self.tags.slot_rank(dummy);
        if let Some(t) = &mut self.shell_trace {
            t.push((false, dummy_rank));
        }
        let mut rep_d = std::mem::take(&mut self.shell_scratch);
        self.shell.delete_into(dummy_rank, &mut rep_d);
        self.mirror_shell_delete(&rep_d, dummy);
        self.shell_ids.release(rep_d.removed_elem().expect("shell delete removes a slot"));
        self.shell_scratch = rep_d;
        // (ii) insert a fresh buffer slot at x's slot rank via R.
        let slot_rank = if rank == 0 {
            0
        } else {
            self.tags.slot_rank(self.tags.contents.select(rank - 1)) + 1
        };
        if let Some(t) = &mut self.shell_trace {
            t.push((true, slot_rank));
        }
        let mut rep_i = std::mem::take(&mut self.shell_scratch);
        let slot_id = self.shell_ids.fresh();
        self.shell.insert_into(slot_rank, slot_id, &mut rep_i);
        let p_new = self.mirror_shell(&rep_i, Some(SlotTag::Buf)).expect("shell insert must place");
        self.shell_scratch = rep_i;
        debug_assert_eq!(self.tags.tag(p_new), SlotTag::Buf);
        // (iii) put x into the new buffer slot.
        self.tags.place_content(p_new, emb_id);
        self.elem_loc.insert(emb_id, Placed::buffer(p_new));
        self.stats.max_buffered = self.stats.max_buffered.max(self.buffered());
        p_new
    }

    // ----- checkpoints and rebuilds (Figures 3–4) ----------------------------

    /// If no rebuild is pending but the physical layout diverged from the
    /// simulation, freeze a new checkpoint (Figure 3's interval
    /// decomposition, computed from the dirty set).
    fn ensure_checkpoint(&mut self) {
        if self.checkpoint.is_some() || self.dirty.count_ones() == 0 {
            return;
        }
        // Walk the marked coordinates in ascending order, clearing each,
        // and group those where the layouts differ into maximal intervals
        // separated by fixed (blocking) elements: an occupied coordinate in
        // the gap between an interval's last difference and the next one.
        // Every mark below `next` is cleared, so the next one is the first
        // set bit, found from `next` (rank 0) by a finger select.
        let mut jobs: Vec<IntervalJob> = Vec::new();
        let mut open: Option<(usize, usize)> = None;
        let mut next = 0;
        while let Some(d) = self.dirty.select_near(0, next, 0) {
            self.dirty.clear(d);
            next = d + 1;
            // Unchanged iff the physical layout holds the simulation's
            // occupant at `d`, or nothing where the simulation holds none.
            let unchanged = match self.sim.slots().get(d) {
                Some(e) => {
                    matches!(self.elem_loc.get(e), Some(p) if !p.buffered && p.pos as usize == d)
                }
                None => !self.cur_f_occ.get(d),
            };
            if unchanged {
                continue;
            }
            open = Some(match open {
                Some((lo, hi)) if self.cur_f_occ.ones_in(hi + 1, d).next().is_none() => (lo, d),
                Some((lo, hi)) => {
                    jobs.push(self.make_job(lo, hi));
                    (d, d)
                }
                None => (d, d),
            });
        }
        let Some((lo, hi)) = open else { return };
        jobs.push(self.make_job(lo, hi));
        self.checkpoint = Some(Checkpoint { jobs, job_idx: 0 });
        self.stats.rebuilds_started += 1;
        self.rebuild_span = 0;
    }

    /// Freeze the target layout of one interval: one walk over the
    /// simulation's occupancy bitmap (not `iter_occupied_in`, which would
    /// count the walk as the simulation's own scan work).
    fn make_job(&self, f_lo: usize, f_hi: usize) -> IntervalJob {
        let slots = self.sim.slots();
        let targets = slots
            .bitmap()
            .ones_in(f_lo, f_hi + 1)
            .map(|pos| (pos, slots.get(pos).expect("occupied sim slot")))
            .collect();
        IntervalJob {
            f_hi,
            targets,
            phase: 0,
            scan: f_lo,
            pack_next: f_lo,
            placed: 0,
            deferred: Vec::new(),
            placed2: 0,
        }
    }

    /// Execute pending rebuild work, spending at most `budget` physical
    /// moves (deadweight included, as the paper specifies). Completes the
    /// checkpoint and immediately freezes the next one when done. The
    /// moves spent are the physical array's log growth: the operation
    /// drains that log only when it ends.
    fn run_checkpoint(&mut self, budget: u64) {
        let Some(mut cp) = self.checkpoint.take() else { return };
        let start = self.tags.contents.pending_log_len() as u64;
        while cp.job_idx < cp.jobs.len() {
            if self.tags.contents.pending_log_len() as u64 - start >= budget {
                break;
            }
            let job = &mut cp.jobs[cp.job_idx];
            if job.phase == 0 {
                if job.scan > job.f_hi {
                    job.phase = 1;
                    continue;
                }
                let i = job.scan;
                job.scan += 1;
                if !self.cur_f_occ.get(i) {
                    continue;
                }
                let src = self.tags.f_pos_via(i, &mut self.src_finger);
                if !self.tags.contents.is_occupied(src) {
                    // A ghost. The checkpoint holds it (as a target of
                    // this interval) iff it was deleted after the
                    // checkpoint froze; otherwise drop it.
                    let e = self.ghost_at[&i];
                    let held = self.ghosts[&e].deleted_during == self.stats.rebuilds_started;
                    debug_assert_eq!(held, job.targets.iter().any(|&(_, t)| t == e));
                    if !held {
                        self.cur_f_occ.clear(i);
                        self.ghost_at.remove(&i);
                        self.ghosts.remove(&e);
                        continue;
                    }
                }
                let dest = job.pack_next;
                job.pack_next += 1;
                if dest != i {
                    self.relocate_from(src, i, dest);
                }
            } else if job.phase == 1 {
                if job.placed >= job.targets.len() {
                    job.phase = 2;
                    continue;
                }
                let idx = job.targets.len() - 1 - job.placed;
                let (t_fidx, e) = job.targets[idx];
                job.placed += 1;
                // Defer buffered elements whose slot is right of their
                // target: incorporating them leftward now would park their
                // crossed deadweight into the path of the next leftward
                // incorporation (re-crossing). They run in ascending order
                // in phase 2 instead.
                if let Some(Loc::Buffer(pos)) = self.elem_loc.get(e).map(|p| p.loc()) {
                    if pos > self.tags.f_pos_via(t_fidx, &mut self.dst_finger) {
                        job.deferred.push((t_fidx, e));
                        continue;
                    }
                }
                self.place_target(t_fidx, e);
            } else {
                if job.placed2 >= job.deferred.len() {
                    cp.job_idx += 1;
                    continue;
                }
                // deferred was pushed in descending target order; consume
                // from the back for ascending incorporation.
                let idx = job.deferred.len() - 1 - job.placed2;
                let (t_fidx, e) = job.deferred[idx];
                job.placed2 += 1;
                self.place_target(t_fidx, e);
            }
        }
        if cp.job_idx >= cp.jobs.len() {
            self.stats.rebuilds_completed += 1;
            self.stats.max_rebuild_span = self.stats.max_rebuild_span.max(self.rebuild_span);
            self.checkpoint = None;
            // Paper step (b)(iii): freeze the next checkpoint immediately.
            self.ensure_checkpoint();
        } else {
            self.checkpoint = Some(cp);
        }
    }

    /// Phase-1 placement of one checkpoint target (rightward placement /
    /// incorporation of Figure 4).
    fn place_target(&mut self, t_fidx: usize, e: ElemId) {
        match self.elem_loc.get(e).copied() {
            Some(Placed { pos: fidx, buffered: false, .. }) => {
                self.emulator_relocate(fidx as usize, t_fidx);
            }
            Some(Placed { pos, deadweight, buffered: true }) => {
                // Incorporation: the buffer slot stays a buffer slot (it
                // becomes a dummy); the element enters A_F. (Its own move
                // displaces other buffered elements, never itself.)
                let p_dst = self.tags.f_pos_via(t_fidx, &mut self.dst_finger);
                self.emulator_move(pos as usize, p_dst, t_fidx);
                self.elem_loc.insert(e, Placed::f(t_fidx));
                self.cur_f_occ.set(t_fidx);
                self.stats.incorporations += 1;
                self.stats.record_deadweight(deadweight.into());
            }
            None => {
                if self.pending_insert == Some(e) {
                    // The in-flight insertion: it exists in the simulation
                    // but has no physical slot yet. Leave its target to the
                    // next checkpoint (re-mark it dirty so that checkpoint
                    // is created).
                    self.mark_dirty(t_fidx);
                    return;
                }
                // Deleted element that the frozen checkpoint still contains.
                if let Some(g) = self.ghosts.get(&e) {
                    self.emulator_relocate(g.fidx, t_fidx);
                } else {
                    // Deleted while buffered (its deadweight was recorded
                    // then): materialize as a ghost.
                    self.cur_f_occ.set(t_fidx);
                    self.add_ghost(e, t_fidx);
                }
            }
        }
    }

    /// Slow-path part (b): Θ(E_R) rebuild work, plus the paper's steps
    /// (ii)–(iv) (finish rebuilds that have < E_R work left, so a pending
    /// rebuild always has Ω(E_R) work remaining).
    fn rebuild_work(&mut self) {
        self.ensure_checkpoint();
        self.run_checkpoint(self.rebuild_budget);
        for _ in 0..4 {
            match &self.checkpoint {
                Some(cp) if (cp.planned_remaining() as f64) < self.er_budget => {
                    self.run_checkpoint(u64::MAX);
                }
                _ => break,
            }
        }
    }

    /// Complete every pending rebuild (and the next, which incorporates all
    /// still-buffered elements).
    fn force_catch_up(&mut self) {
        self.ensure_checkpoint();
        self.run_checkpoint(u64::MAX);
        self.ensure_checkpoint();
        self.run_checkpoint(u64::MAX);
        debug_assert_eq!(self.buffered(), 0, "catch-up left buffered elements");
    }

    /// Test/diagnostic invariant audit (O(m); not used on hot paths).
    pub fn check_invariants(&self) {
        self.tags.check_consistent();
        // Physical F contents agree with the occupancy and the ghosts.
        assert_eq!(self.ghosts.len(), self.ghost_at.len(), "ghost maps disagree");
        for fidx in 0..self.cur_f_occ.len() {
            let pos = self.tags.f_pos(fidx);
            let phys = self.tags.contents.get(pos);
            let ghost = self.ghost_at.get(&fidx).copied();
            if let Some(e) = ghost {
                assert!(self.cur_f_occ.get(fidx), "ghost {e:?} at free F-slot {fidx}");
                assert_eq!(self.ghosts.get(&e).map(|g| g.fidx), Some(fidx), "ghost maps disagree");
                assert_eq!(phys, None, "ghost slot {fidx} has physical content");
                assert!(!self.elem_loc.contains(e), "ghost {e:?} is also live");
            } else if let Some(e) = phys {
                assert!(self.cur_f_occ.get(fidx), "free F-slot {fidx} has content");
                assert_eq!(self.elem_loc.get(e).map(|p| p.loc()), Some(Loc::F(fidx)));
            } else {
                assert!(!self.cur_f_occ.get(fidx), "occupied F-slot {fidx} has no occupant");
            }
        }
        // Buffered elements agree with elem_loc.
        for (e, placed) in self.elem_loc.iter() {
            if let Loc::Buffer(pos) = placed.loc() {
                assert_eq!(self.tags.contents.get(pos), Some(e));
                assert_eq!(self.tags.tag(pos), SlotTag::Buf);
            }
        }
        // No pending rebuild ⟹ fully caught up (Lemma 10's precondition).
        if self.checkpoint.is_none() && self.dirty.count_ones() == 0 {
            assert_eq!(self.buffered(), 0, "caught up but elements still buffered");
            assert!(self.ghosts.is_empty(), "caught up but ghosts remain");
        }
    }
}

impl<F: ListLabeling, R: ListLabeling> ListLabeling for Embed<F, R> {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn num_slots(&self) -> usize {
        self.tags.num_slots()
    }

    fn len(&self) -> usize {
        self.tags.contents.len()
    }

    fn insert_into(&mut self, rank: usize, emb_id: ElemId, out: &mut OpReport) {
        out.clear();
        let len = self.len();
        assert!(rank <= len, "insert rank {rank} > len {len}");
        assert!(len < self.capacity, "at capacity");
        if self.checkpoint.is_some() {
            self.rebuild_span += 1;
        }
        let mut sim_rep = std::mem::take(&mut self.sim_scratch);
        self.sim.insert_into(rank, emb_id, &mut sim_rep);
        let c_e = sim_rep.cost();
        assert!(sim_rep.placed.is_some(), "sim insert must place");
        let placed_pos;
        if self.checkpoint.is_none() && (c_e as f64) <= self.er_budget {
            // Fast path: emulate F directly, interleaving the placement at
            // its position in the simulation's move stream (a simulated F
            // that is itself an embedding places mid-operation and may move
            // the new element again before the operation ends).
            self.stats.fast_ops += 1;
            debug_assert_eq!(self.buffered(), 0);
            let mut placed = false;
            for mv in &sim_rep.moves {
                if mv.from == mv.to {
                    if mv.elem == emb_id {
                        self.place_f(mv.from as usize, emb_id);
                        placed = true;
                    }
                    continue;
                }
                self.emulator_relocate(mv.from as usize, mv.to as usize);
            }
            assert!(
                placed,
                "every slot array logs a placement as a from == to move, but the simulation's \
                 stream lacks one"
            );
            let fidx_now = match self.elem_loc.get(emb_id).map(|p| p.loc()) {
                Some(Loc::F(f)) => f,
                _ => unreachable!("fast path cannot buffer"),
            };
            placed_pos = self.tags.f_pos_via(fidx_now, &mut self.dst_finger);
        } else {
            // Slow path: buffer in the R-shell, then do rebuild work. The
            // rebuild may incorporate the fresh element immediately, so the
            // reported placement is its final slot at the end of the op.
            self.stats.slow_ops += 1;
            self.note_dirty(&sim_rep);
            self.pending_insert = Some(emb_id);
            self.buffer_insert(rank, emb_id);
            self.pending_insert = None;
            self.rebuild_work();
            placed_pos = match self.elem_loc.get(emb_id).expect("inserted element").loc() {
                Loc::F(f) => self.tags.f_pos_via(f, &mut self.dst_finger),
                Loc::Buffer(p) => p,
            };
        }
        self.sim_scratch = sim_rep;
        self.tags.contents.drain_log_into(&mut out.moves);
        out.placed = Some((emb_id, placed_pos as u32));
    }

    /// Native bulk insert: complete any pending rebuild so the physical
    /// array mirrors the simulation exactly (the fast-path precondition),
    /// run the simulation's own [`splice`](ListLabeling::splice) — one
    /// evenly-spread sweep when `F` is a PMA skeleton — and mirror it. With
    /// no buffered elements there is no deadweight, so the physical cost
    /// equals the simulation's: the batch inherits `F`'s O(1)-per-element
    /// bulk bound instead of paying `count` full operations.
    ///
    /// Into an empty embedding whose simulation only placed elements, at
    /// ascending F-coordinates (every build, growth rebuild, split half and
    /// restore), the simulation's final F-layout is placed in one walk over
    /// the F-slots ([`TagArray::place_f_run`]). Otherwise its move log is
    /// mirrored 1:1, exactly as the fast path does per operation. Both give
    /// the same layout, tables and move log.
    fn splice_into(&mut self, rank: usize, ids: &[ElemId], out: &mut OpReport) {
        self.splice_with(rank, ids, out, true);
    }

    fn delete_into(&mut self, rank: usize, out: &mut OpReport) {
        out.clear();
        let len = self.len();
        assert!(rank < len, "delete rank {rank} >= len {len}");
        if self.checkpoint.is_some() {
            self.rebuild_span += 1;
        }
        let pos = self.tags.contents.select(rank);
        let e = self.tags.contents.get(pos).expect("selected slot empty");
        let mut sim_rep = std::mem::take(&mut self.sim_scratch);
        self.sim.delete_into(rank, &mut sim_rep);
        let c_e = sim_rep.cost();
        debug_assert_eq!(sim_rep.removed_elem(), Some(e), "sim deleted a different element");
        let placed = self.elem_loc.remove(e).expect("deleting unknown element");
        if self.checkpoint.is_none() && (c_e as f64) <= self.er_budget {
            // Fast path.
            self.stats.fast_ops += 1;
            let Loc::F(fidx) = placed.loc() else { unreachable!("buffered element on fast path") };
            self.tags.remove_content(pos);
            self.cur_f_occ.clear(fidx);
            self.mirror_sim_moves(&sim_rep);
        } else {
            // Slow path: remove physically, leave a ghost if it was in A_F.
            self.stats.slow_ops += 1;
            self.note_dirty(&sim_rep);
            self.tags.remove_content(pos);
            match placed.loc() {
                Loc::F(fidx) => self.add_ghost(e, fidx),
                Loc::Buffer(_) => self.stats.record_deadweight(placed.deadweight.into()),
            }
            self.rebuild_work();
        }
        self.sim_scratch = sim_rep;
        self.tags.contents.drain_log_into(&mut out.moves);
        out.removed = Some((e, pos as u32));
    }

    fn slots(&self) -> &SlotArray {
        &self.tags.contents
    }

    fn set_metrics(&mut self, metrics: MetricsHandle) {
        // Only the physical tag array reports (see `Embed::new`).
        self.tags.contents.set_metrics(metrics);
    }

    fn name(&self) -> &'static str {
        "embed"
    }
}

/// Builder for [`Embed`], wiring the paper's §3 slot budgets: the
/// F-emulator gets `(1+ε)n` slots, the shell capacity `(1+2ε)n` on all
/// `m ≥ (1+3ε)n` slots.
#[derive(Clone, Debug)]
pub struct EmbedBuilder<FB, RB> {
    /// Builder for the fast structure F.
    pub f: FB,
    /// Builder for the reliable structure R.
    pub r: RB,
    /// Embedding parameters.
    pub cfg: EmbedConfig,
}

impl<FB: LabelingBuilder, RB: LabelingBuilder> EmbedBuilder<FB, RB> {
    /// Builder with default configuration.
    pub fn new(f: FB, r: RB) -> Self {
        Self { f, r, cfg: EmbedConfig::default() }
    }
}

impl<FB: LabelingBuilder, RB: LabelingBuilder> LabelingBuilder for EmbedBuilder<FB, RB> {
    type Structure = Embed<FB::Structure, RB::Structure>;

    fn build(&self, capacity: usize, num_slots: usize) -> Self::Structure {
        let eps_n = ((capacity as f64 * self.cfg.epsilon).ceil() as usize).max(1);
        // F gets (1+ε)n slots, or more if F itself needs extra slack (e.g.
        // when F is another embedding).
        let f_slots =
            (capacity + eps_n).max((capacity as f64 * self.f.min_slack()).ceil() as usize + 1);
        let r_cap = f_slots + eps_n;
        assert!(
            num_slots >= r_cap + eps_n,
            "embedding needs ≥ {} slots for n={capacity}, ε={}: got m={num_slots}",
            r_cap + eps_n,
            self.cfg.epsilon
        );
        let sim = self.f.build(capacity, f_slots);
        let shell = self.r.build(r_cap, num_slots);
        let er = self.r.expected_cost_hint(r_cap) * self.cfg.er_mult;
        Embed::new(capacity, sim, shell, er, self.cfg.rebuild_mult)
    }

    fn min_slack(&self) -> f64 {
        // F's slot share (≥ 1+ε), plus a buffer and a free share of ε each,
        // and enough total room for R's own slack at capacity (1+2ε)n.
        let eps = self.cfg.epsilon;
        let f_share = (1.0 + eps).max(self.f.min_slack() + 0.01);
        let own = f_share + 2.0 * eps;
        let r_need = self.r.min_slack() * (f_share + eps);
        own.max(r_need) + 0.02
    }

    fn expected_cost_hint(&self, capacity: usize) -> f64 {
        // The embedding's good-case guarantee tracks F (Theorem 2); when the
        // result is used as an R, its lightly-amortized expected cost is
        // F's input-independent bound.
        self.f.expected_cost_hint(capacity)
    }

    fn worst_case_hint(&self, capacity: usize) -> f64 {
        // Worst case tracks R (Theorem 2), plus the Θ(E_R) rebuild work.
        self.r.worst_case_hint(capacity)
            + self.cfg.rebuild_mult * self.r.expected_cost_hint(capacity)
    }
}
