//! The physical slot array.
//!
//! A [`SlotArray`] is an array of `m` slots, each either free or holding one
//! [`ElemId`]. Every structure in this workspace performs **all** element
//! motion through this type, which gives three guarantees:
//!
//! 1. **Cost integrity** — each move/placement is appended to an internal
//!    move log; an operation's cost is the length of the log it drains,
//!    so algorithms cannot misreport their cost. Each drain adds that
//!    length to the installed metrics' `moves`, the one running total.
//! 2. **Safety discipline** — each move targets a free slot and (checked in
//!    debug builds) crosses no occupied slot, which is exactly the condition
//!    under which a single move preserves sorted order. Rebalances that obey
//!    the standard "rightmost-first when spreading right" discipline keep
//!    the array sorted after *every* atomic move — a property the paper's
//!    embedding relies on when it mirrors moves between layers.
//! 3. **Navigation** — one occupancy [`Bitmap`] (one bit per slot plus a
//!    set-bit count per 512-slot block) answers window-local questions in
//!    O(window/64) words, and rank ↔ position and free-slot queries in
//!    O(log(m/512)) count reads plus one block's words.
//!
//! The contents array is sentinel-packed (`ElemId::NONE` marks a free
//! slot): 8 bytes per slot plus one bitmap bit, where a `Vec<Option<ElemId>>`
//! would spend 16 — half the memory, double the cache density on the scans
//! that dominate rebalances.

use crate::bitmap::Bitmap;
use crate::density::EvenTargets;
use crate::ids::ElemId;
use crate::metrics::{ListMetrics, MetricsHandle};
use crate::report::MoveRec;
use std::sync::Arc;

/// Windows at most this wide answer [`SlotArray::occupied_in`] by bitmap
/// popcount (≤ 32 words touched); wider windows subtract two ranks.
const POPCOUNT_WINDOW_MAX: usize = 2048;

/// An array of slots holding at most one element each, with an occupancy
/// index and an append-only move log.
#[derive(Debug)]
pub struct SlotArray {
    /// Sentinel-packed contents: `ElemId::NONE` marks a free slot.
    contents: Vec<ElemId>,
    /// Occupancy index, one bit per slot.
    bits: Bitmap,
    log: Vec<MoveRec>,
    /// Shared observability sink: moves (added once per drained log) and
    /// scan words (the instrumentation that pins rebalance work to
    /// O(window), not O(m) — counters are atomic/relaxed only so `&self`
    /// iterators can record). Starts on the shared
    /// [`ListMetrics::disabled`] handle; the owning structure installs its
    /// own via [`set_metrics`](Self::set_metrics) into its physical array,
    /// and an embedding's inner arrays keep the disabled one.
    metrics: MetricsHandle,
}

impl Clone for SlotArray {
    fn clone(&self) -> Self {
        Self {
            contents: self.contents.clone(),
            bits: self.bits.clone(),
            log: self.log.clone(),
            // Detach: the clone keeps the current readings but records
            // independently from here on. A disabled handle records
            // nothing, so the clone shares it and allocates none.
            metrics: if self.metrics.enabled() {
                Arc::new(self.metrics.snapshot())
            } else {
                Arc::clone(&self.metrics)
            },
        }
    }
}

impl SlotArray {
    /// An empty array of `m` slots.
    pub fn new(m: usize) -> Self {
        Self {
            contents: vec![ElemId::NONE; m],
            bits: Bitmap::new(m),
            log: Vec::new(),
            metrics: ListMetrics::disabled(),
        }
    }

    /// Install a shared metrics handle (replacing the disabled default),
    /// so this array reports into the same instance as the structure
    /// wrapping it. Existing readings on the old handle are not carried
    /// over.
    pub fn set_metrics(&mut self, metrics: MetricsHandle) {
        self.metrics = metrics;
    }

    /// The metrics handle this array reports into.
    #[inline]
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Number of slots.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.contents.len()
    }

    /// Number of stored elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.count_ones()
    }

    /// True if no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element at `pos`, if any.
    #[inline]
    pub fn get(&self, pos: usize) -> Option<ElemId> {
        let e = self.contents[pos];
        (e != ElemId::NONE).then_some(e)
    }

    /// True if `pos` holds an element.
    #[inline]
    pub fn is_occupied(&self, pos: usize) -> bool {
        self.contents[pos] != ElemId::NONE
    }

    /// The occupancy index (read-only).
    #[inline]
    pub fn bitmap(&self) -> &Bitmap {
        &self.bits
    }

    #[inline]
    fn note_scan(&self, words: usize) {
        self.metrics.note_scan(words as u64);
    }

    /// Bitmap words examined by window scans so far — the counter that
    /// regression tests pin to prove rebalance work is O(window).
    pub fn scan_words(&self) -> u64 {
        self.metrics.scan_words.get()
    }

    /// Number of occupied slots in `[a, b)`: bitmap popcount for word-local
    /// windows, a difference of two ranks for wide ones.
    #[inline]
    pub fn occupied_in(&self, a: usize, b: usize) -> usize {
        if b.saturating_sub(a) <= POPCOUNT_WINDOW_MAX {
            self.note_scan(Bitmap::words_spanned(a, b.min(self.num_slots())));
            self.bits.count_in(a, b)
        } else {
            self.bits.rank(b) - self.bits.rank(a)
        }
    }

    /// Position of the element of 0-based `rank`.
    ///
    /// Panics if `rank >= len`.
    #[inline]
    pub fn select(&self, rank: usize) -> usize {
        self.bits.select(rank).unwrap_or_else(|| {
            panic!(
                "select: rank {rank} out of range ({} occupied of {} slots)",
                self.len(),
                self.num_slots()
            )
        })
    }

    /// Rank of the element at `pos` (number of elements strictly before it).
    ///
    /// `pos` itself need not be occupied; this returns how many elements
    /// precede position `pos`.
    #[inline]
    pub fn rank_at(&self, pos: usize) -> usize {
        self.bits.rank(pos)
    }

    /// First free slot at or after `pos`: the word holding `pos`, else a
    /// select over free slots.
    #[inline]
    pub fn next_free(&self, pos: usize) -> Option<usize> {
        self.bits.next_zero(pos)
    }

    /// Last free slot at or before `pos` (same strategy as
    /// [`next_free`](Self::next_free)).
    #[inline]
    pub fn prev_free(&self, pos: usize) -> Option<usize> {
        self.bits.prev_zero(pos)
    }

    /// First occupied slot at or after `pos` — a word-level bitmap walk
    /// (O(distance/64)), the iteration primitive behind range scans and
    /// label-native cursors.
    #[inline]
    pub fn next_occupied_at_or_after(&self, pos: usize) -> Option<usize> {
        self.bits.next_one(pos)
    }

    /// Last occupied slot at or before `pos`.
    #[inline]
    pub fn prev_occupied_at_or_before(&self, pos: usize) -> Option<usize> {
        self.bits.prev_one(pos)
    }

    /// Place a brand-new element into a free slot. Logged as a move
    /// (`from == to`): the element is moved into the array, cost 1.
    pub fn place(&mut self, pos: usize, elem: ElemId) {
        debug_assert_ne!(elem, ElemId::NONE, "placing the sentinel");
        assert!(
            self.contents[pos] == ElemId::NONE,
            "place into occupied slot {pos} ({:?}; {} occupied of {} slots)",
            self.contents[pos],
            self.len(),
            self.num_slots()
        );
        self.contents[pos] = elem;
        self.bits.set(pos);
        self.log.push(MoveRec { elem, from: pos as u32, to: pos as u32 });
    }

    /// Place a run of brand-new elements, given as `(position, elem)` at
    /// ascending positions: the same occupancy check and the same log
    /// record (cost 1 each) as one [`place`](Self::place) per element, but
    /// the occupancy index updates each 512-slot block's count once for
    /// the whole run ([`Bitmap::set_ascending`]).
    pub fn place_run(&mut self, run: impl IntoIterator<Item = (usize, ElemId)>) {
        let Self { contents, bits, log, .. } = self;
        let (occupied, m) = (bits.count_ones(), contents.len());
        let run = run.into_iter();
        log.reserve(run.size_hint().0);
        bits.set_ascending(run.map(|(pos, elem)| {
            debug_assert_ne!(elem, ElemId::NONE, "placing the sentinel");
            assert!(
                contents[pos] == ElemId::NONE,
                "place into occupied slot {pos} ({:?}; {occupied} occupied of {m} slots \
                 before the run)",
                contents[pos]
            );
            contents[pos] = elem;
            log.push(MoveRec { elem, from: pos as u32, to: pos as u32 });
            pos
        }));
    }

    /// Remove and return the element at `pos`. Cost 0 (removal is not a
    /// move in the paper's cost model).
    pub fn remove(&mut self, pos: usize) -> ElemId {
        let elem = self.contents[pos];
        if elem == ElemId::NONE {
            panic!(
                "remove from empty slot {pos} ({} occupied of {} slots)",
                self.len(),
                self.num_slots()
            );
        }
        self.contents[pos] = ElemId::NONE;
        self.bits.clear(pos);
        elem
    }

    /// Move the element at `from` into the free slot `to`. Cost 1.
    ///
    /// Debug builds verify the move crosses no occupied slot — the local
    /// condition that guarantees sorted order is preserved.
    pub fn move_elem(&mut self, from: usize, to: usize) -> ElemId {
        if from == to {
            let elem = self.contents[from];
            assert_ne!(elem, ElemId::NONE, "move from empty slot");
            return elem;
        }
        let elem = self.contents[from];
        if elem == ElemId::NONE {
            panic!(
                "move {from}->{to} from empty slot ({} occupied of {} slots)",
                self.len(),
                self.num_slots()
            );
        }
        assert!(
            self.contents[to] == ElemId::NONE,
            "move into occupied slot {to} ({:?}; {} occupied of {} slots)",
            self.contents[to],
            self.len(),
            self.num_slots()
        );
        debug_assert!(
            {
                let (a, b) = if from < to { (from + 1, to) } else { (to + 1, from) };
                self.bits.count_in(a, b) == 0
            },
            "move {from}->{to} crosses an occupied slot"
        );
        self.contents[from] = ElemId::NONE;
        self.contents[to] = elem;
        self.bits.move_bit(from, to);
        self.log.push(MoveRec { elem, from: from as u32, to: to as u32 });
        elem
    }

    /// Drain all moves logged since the last drain into `dst`: `dst` is
    /// cleared and then trades buffers with the log, so a drain never
    /// allocates or copies. In steady state the log and the caller's buffer
    /// swap places on every drain and both stop growing; the buffer of a
    /// bulk log leaves with its drain instead of staying pinned here. The
    /// drained moves are added to the metrics' `moves` counter, once per
    /// drain.
    pub fn drain_log_into(&mut self, dst: &mut Vec<MoveRec>) {
        dst.clear();
        std::mem::swap(&mut self.log, dst);
        self.metrics.note_log_drain(dst.len() as u64);
    }

    /// Drain all moves logged since the last drain into a fresh `Vec`,
    /// which takes the log's buffer with it.
    pub fn drain_log(&mut self) -> Vec<MoveRec> {
        let mut v = Vec::new();
        self.drain_log_into(&mut v);
        v
    }

    /// Moves logged since the last drain, without draining.
    #[inline]
    pub fn pending_log_len(&self) -> usize {
        self.log.len()
    }

    /// Iterate `(position, elem)` over occupied slots in position order —
    /// a word-level bitmap walk over the whole array.
    pub fn iter_occupied(&self) -> OccupiedIn<'_> {
        self.iter_occupied_in(0, self.num_slots())
    }

    /// Iterate `(position, elem)` over occupied slots of the window
    /// `[a, b)` in position order, touching **only** the window's bitmap
    /// words — the O(window) enumeration primitive every rebalance path
    /// uses (an O(m) full-array scan per rebalance is exactly the
    /// superlinear drag the paper's cost model excludes).
    pub fn iter_occupied_in(&self, a: usize, b: usize) -> OccupiedIn<'_> {
        OccupiedIn { slots: self, ones: self.bits.ones_in(a, b), flushed: 0 }
    }

    /// Snapshot of the full layout.
    pub fn layout(&self) -> Vec<Option<ElemId>> {
        self.contents.iter().map(|&e| (e != ElemId::NONE).then_some(e)).collect()
    }

    /// Heap bytes held by the physical representation (contents + bitmap),
    /// for memory accounting in benches.
    pub fn memory_bytes(&self) -> usize {
        self.contents.capacity() * std::mem::size_of::<ElemId>() + self.bits.memory_bytes()
    }

    /// Verify internal consistency: contents and bitmap must agree at every
    /// position, and the bitmap's block counts with its words. One O(m)
    /// sweep; test/diagnostic use only.
    pub fn check_consistent(&self) {
        for (i, &c) in self.contents.iter().enumerate() {
            assert_eq!(c != ElemId::NONE, self.bits.get(i), "bitmap mismatch at {i}");
        }
        self.bits.check_consistent();
    }
}

/// Iterator over occupied slots of a window (see
/// [`SlotArray::iter_occupied_in`]). Flushes the number of bitmap words it
/// examined into the array's scan instrumentation when dropped.
pub struct OccupiedIn<'a> {
    slots: &'a SlotArray,
    ones: crate::bitmap::OnesIn<'a>,
    flushed: usize,
}

impl Iterator for OccupiedIn<'_> {
    type Item = (usize, ElemId);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let pos = self.ones.next()?;
        Some((pos, self.slots.contents[pos]))
    }
}

impl Drop for OccupiedIn<'_> {
    fn drop(&mut self) {
        let scanned = self.ones.words_scanned();
        self.slots.note_scan(scanned - self.flushed);
        self.flushed = scanned;
    }
}

/// Move a set of elements within a window to new target positions, in an
/// order that keeps the array sorted after every atomic move.
///
/// `pairs` is a slice of `(current_pos, target_pos)` sorted by
/// `current_pos`, encoding an order-preserving relocation (targets are
/// strictly increasing too). Left-movers are executed left-to-right first,
/// then right-movers right-to-left; this never moves an element across an
/// occupied slot (see module docs).
pub fn spread_moves(slots: &mut SlotArray, pairs: &[(usize, usize)]) {
    debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
    for &(from, to) in pairs.iter() {
        if to < from {
            slots.move_elem(from, to);
        }
    }
    for &(from, to) in pairs.iter().rev() {
        if to > from {
            slots.move_elem(from, to);
        }
    }
}

/// Interleave a sorted run of new elements into the window `[a, b)` in one
/// evenly-spread sweep.
///
/// The `new_ids.len()` new elements enter at local rank `at` (0-based among
/// the window's current occupants, so `at == 0` prepends and `at == k`
/// appends), all consecutive. The window's occupants and the new elements
/// are re-spread together to the canonical even layout, old elements first
/// via the [`spread_moves`] discipline (their targets are free or vacated,
/// never crossing an occupied slot) and new elements placed afterwards into
/// the reserved — by then free — gaps, as one [`SlotArray::place_run`].
/// One pass, at most one move per old element plus one placement per new
/// element.
///
/// The new elements' placements are the run's log records with
/// `from == to`, in rank order. Panics if the combined population exceeds
/// the window.
pub fn merge_sorted(slots: &mut SlotArray, a: usize, b: usize, at: usize, new_ids: &[ElemId]) {
    let (k, n) = (slots.occupied_in(a, b), new_ids.len());
    let total = k + n;
    assert!(total <= b - a, "merge_sorted: {total} elements into {} slots", b - a);
    assert!(at <= k, "merge_sorted: local rank {at} > window population {k}");
    // Old occupants keep their order; targets at `at..at + n` are reserved
    // for the incoming run.
    let mut targets = EvenTargets::new(a, b, total, 0);
    let mut pairs = Vec::with_capacity(k);
    for (i, (pos, _)) in slots.iter_occupied_in(a, b).enumerate() {
        if i == at {
            targets = EvenTargets::new(a, b, total, at + n);
        }
        pairs.push((pos, targets.next().expect("one target per occupant")));
    }
    spread_moves(slots, &pairs);
    slots.place_run(EvenTargets::new(a, b, total, at).zip(new_ids.iter().copied()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdGen;

    fn filled(positions: &[usize], m: usize) -> (SlotArray, Vec<ElemId>) {
        let mut s = SlotArray::new(m);
        let mut g = IdGen::new();
        let mut ids = Vec::new();
        for &p in positions {
            let id = g.fresh();
            s.place(p, id);
            ids.push(id);
        }
        (s, ids)
    }

    #[test]
    fn place_remove_move() {
        let (mut s, ids) = filled(&[2, 5], 8);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(2), Some(ids[0]));
        s.move_elem(5, 7);
        assert_eq!(s.get(5), None);
        assert_eq!(s.get(7), Some(ids[1]));
        let e = s.remove(2);
        assert_eq!(e, ids[0]);
        assert_eq!(s.len(), 1);
        s.check_consistent();
    }

    #[test]
    fn move_log_records_everything() {
        let (mut s, _) = filled(&[0], 4);
        s.move_elem(0, 2);
        let log = s.drain_log();
        assert_eq!(log.len(), 2); // place + move
        assert_eq!(log[1].from, 0);
        assert_eq!(log[1].to, 2);
        assert_eq!(s.drain_log().len(), 0);
    }

    #[test]
    fn drain_log_into_trades_buffers_with_the_caller() {
        let (mut s, _) = filled(&[0], 64);
        let mut buf = Vec::new();
        s.drain_log_into(&mut buf);
        s.move_elem(0, 1);
        s.drain_log_into(&mut buf);
        // Warm: both buffers hold an allocation. From here every drain
        // swaps them, so the caller sees the two alternate, each with its
        // capacity unchanged.
        let bufs = [(buf.as_ptr(), buf.capacity()), (s.log.as_ptr(), s.log.capacity())];
        assert_ne!(bufs[0].0, bufs[1].0);
        for i in 0..100 {
            s.move_elem((i + 1) % 2, i % 2);
            s.drain_log_into(&mut buf);
            assert_eq!(buf.len(), 1);
            assert_eq!((buf.as_ptr(), buf.capacity()), bufs[(i + 1) % 2], "drain {i}");
            assert_eq!((s.log.as_ptr(), s.log.capacity()), bufs[i % 2], "drain {i}");
        }
    }

    #[test]
    fn a_bulk_log_leaves_with_its_drain() {
        let mut s = SlotArray::new(8192);
        for i in 0..4096 {
            s.place(2 * i, ElemId(i as u64));
        }
        let mut dst = Vec::new();
        s.drain_log_into(&mut dst);
        assert_eq!(dst.len(), 4096);
        assert_eq!(s.log.capacity(), 0, "the slot array kept the bulk log's buffer");
    }

    #[test]
    fn place_run_equals_one_place_per_element() {
        // A run across 512-slot blocks into an array that already holds
        // elements: same contents, index, log and cost as single places.
        let (mut single, _) = filled(&[3, 701, 1501], 2048);
        let (mut run, _) = filled(&[3, 701, 1501], 2048);
        let placed: Vec<(usize, ElemId)> =
            (0..2048).step_by(5).filter(|p| p % 3 != 0).map(|p| (p, ElemId(p as u64))).collect();
        for &(pos, e) in &placed {
            single.place(pos, e);
        }
        run.place_run(placed.iter().copied());
        run.check_consistent();
        assert_eq!(run.layout(), single.layout());
        assert_eq!(run.bitmap(), single.bitmap());
        assert_eq!(run.drain_log(), single.drain_log());
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn place_run_into_occupied_panics() {
        let (mut s, _) = filled(&[4], 8);
        s.place_run([(2, ElemId(10)), (4, ElemId(11))]);
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn move_into_occupied_panics() {
        let (mut s, _) = filled(&[0, 1], 4);
        s.move_elem(0, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "crosses")]
    fn crossing_move_panics_in_debug() {
        let (mut s, _) = filled(&[0, 1], 4);
        s.move_elem(0, 3); // crosses occupied slot 1
    }

    #[test]
    fn rank_navigation() {
        let (s, ids) = filled(&[1, 4, 6], 8);
        assert_eq!(s.select(0), 1);
        assert_eq!(s.select(2), 6);
        assert_eq!(s.rank_at(5), 2);
        assert_eq!(s.rank_at(0), 0);
        assert_eq!(s.next_free(1), Some(2));
        assert_eq!(s.prev_free(6), Some(5));
        assert_eq!(s.next_occupied_at_or_after(2), Some(4));
        assert_eq!(s.prev_occupied_at_or_before(5), Some(4));
        let got: Vec<ElemId> = s.iter_occupied().map(|(_, e)| e).collect();
        assert_eq!(got, ids);
    }

    #[test]
    fn windowed_iteration_matches_filtered_full_iteration() {
        let positions = [0, 3, 63, 64, 65, 127, 200, 255];
        let (s, _) = filled(&positions, 256);
        for (a, b) in [(0, 256), (1, 64), (63, 66), (64, 128), (100, 100), (128, 256), (250, 999)] {
            let got: Vec<(usize, ElemId)> = s.iter_occupied_in(a, b).collect();
            let want: Vec<(usize, ElemId)> =
                s.iter_occupied().filter(|&(p, _)| a <= p && p < b).collect();
            assert_eq!(got, want, "window [{a}, {b})");
            assert_eq!(s.occupied_in(a, b.min(256)), got.len());
        }
    }

    #[test]
    fn windowed_iteration_scans_only_the_window() {
        let m = 1 << 16; // 1024 words
        let positions: Vec<usize> = (0..m).step_by(7).collect();
        let (mut s, _) = filled(&positions, m);
        s.set_metrics(ListMetrics::handle(true));
        let before = s.scan_words();
        let count = s.iter_occupied_in(4096, 4096 + 128).count();
        let scanned = s.scan_words() - before;
        assert_eq!(count, 18);
        assert!(scanned <= 4, "128-slot window scanned {scanned} words");
    }

    #[test]
    fn free_search_crosses_a_long_full_run() {
        // One long fully-occupied run: the search leaves the first word and
        // finds the free slot through the block counts.
        let m = 4096;
        let mut s = SlotArray::new(m);
        let mut g = IdGen::new();
        let free = m - 3;
        for p in 0..m {
            if p != free {
                s.place(p, g.fresh());
            }
        }
        assert_eq!(s.next_free(0), Some(free));
        assert_eq!(s.prev_free(m - 1), Some(free));
        assert_eq!(s.next_free(free + 1), None);
        assert_eq!(s.prev_free(free - 1), None);
    }

    #[test]
    fn spread_moves_keeps_order() {
        // Elements at 3,4,5 spread out to 1,4,7: left-mover, stay, right-mover.
        let (mut s, ids) = filled(&[3, 4, 5], 9);
        spread_moves(&mut s, &[(3, 1), (4, 4), (5, 7)]);
        let got: Vec<(usize, ElemId)> = s.iter_occupied().collect();
        assert_eq!(got, vec![(1, ids[0]), (4, ids[1]), (7, ids[2])]);
    }

    #[test]
    fn spread_moves_compaction() {
        // Pack 0,3,6 -> 0,1,2 (all left-movers).
        let (mut s, ids) = filled(&[0, 3, 6], 8);
        spread_moves(&mut s, &[(0, 0), (3, 1), (6, 2)]);
        let got: Vec<(usize, ElemId)> = s.iter_occupied().collect();
        assert_eq!(got, vec![(0, ids[0]), (1, ids[1]), (2, ids[2])]);
    }

    #[test]
    fn merge_sorted_interleaves_a_run() {
        // Occupants at 1, 4, 9; merge three new elements at local rank 1:
        // final order must be old0, new0, new1, new2, old1, old2.
        let (mut s, old) = filled(&[1, 4, 9], 12);
        let fresh: Vec<ElemId> = (100..103).map(ElemId).collect();
        s.drain_log();
        merge_sorted(&mut s, 0, 12, 1, &fresh);
        let placed: Vec<u32> =
            s.drain_log().iter().filter(|m| m.from == m.to).map(|m| m.to).collect();
        assert_eq!(placed, vec![2, 4, 6]);
        s.check_consistent();
        assert_eq!(s.len(), 6);
        let order: Vec<ElemId> = s.iter_occupied().map(|(_, e)| e).collect();
        assert_eq!(order[0], old[0]);
        assert_eq!(&order[1..4], &fresh[..]);
        assert_eq!(order[4], old[1]);
        assert_eq!(order[5], old[2]);
        // Even spread: positions are the canonical targets for 6-of-12.
        let pos: Vec<usize> = s.iter_occupied().map(|(p, _)| p).collect();
        assert_eq!(pos, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn merge_sorted_costs_one_sweep() {
        // 4 occupants, 4 new: at most 4 old moves + exactly 4 placements.
        let (mut s, _) = filled(&[0, 1, 2, 3], 16);
        let fresh: Vec<ElemId> = (100..104).map(ElemId).collect();
        let before = s.pending_log_len();
        merge_sorted(&mut s, 0, 16, 4, &fresh);
        let swept = s.pending_log_len() - before;
        assert!(swept <= 8, "one sweep should cost ≤ n moves, got {swept}");
        s.check_consistent();
    }

    #[test]
    fn merge_sorted_append_and_prepend_windows() {
        let (mut s, old) = filled(&[5, 6], 10);
        let head = [ElemId(100)];
        merge_sorted(&mut s, 0, 10, 0, &head); // prepend
        let tail = [ElemId(101)];
        merge_sorted(&mut s, 0, 10, 3, &tail); // append
        let order: Vec<ElemId> = s.iter_occupied().map(|(_, e)| e).collect();
        assert_eq!(order, vec![head[0], old[0], old[1], tail[0]]);
        s.check_consistent();
    }

    #[test]
    #[should_panic(expected = "merge_sorted")]
    fn merge_sorted_overflow_panics() {
        let (mut s, _) = filled(&[0, 1], 4);
        let fresh: Vec<ElemId> = (100..103).map(ElemId).collect();
        merge_sorted(&mut s, 0, 4, 2, &fresh);
    }

    #[test]
    fn spread_moves_expansion() {
        // Spread 0,1,2 -> 2,5,7 (all right-movers).
        let (mut s, ids) = filled(&[0, 1, 2], 8);
        spread_moves(&mut s, &[(0, 2), (1, 5), (2, 7)]);
        let got: Vec<(usize, ElemId)> = s.iter_occupied().collect();
        assert_eq!(got, vec![(2, ids[0]), (5, ids[1]), (7, ids[2])]);
    }

    #[test]
    fn bitmap_queries_agree_with_a_linear_scan_under_churn() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let m = 1300;
        let mut s = SlotArray::new(m);
        let mut g = IdGen::new();
        for _ in 0..3000 {
            let p = rng.gen_range(0..m);
            if s.is_occupied(p) {
                s.remove(p);
            } else {
                s.place(p, g.fresh());
            }
            let q = rng.gen_range(0..m);
            let r = rng.gen_range(0..=m);
            let occupied = |i: &usize| s.is_occupied(*i);
            assert_eq!(s.occupied_in(q.min(r), r), (q.min(r)..r).filter(occupied).count());
            assert_eq!(s.rank_at(q), (0..q).filter(occupied).count());
            assert_eq!(s.next_occupied_at_or_after(q), (q..m).find(occupied));
            assert_eq!(s.prev_occupied_at_or_before(q), (0..=q).rev().find(occupied));
            assert_eq!(s.next_free(q), (q..m).find(|i| !occupied(i)));
            assert_eq!(s.prev_free(q), (0..=q).rev().find(|i| !occupied(i)));
        }
        s.check_consistent();
    }

    #[test]
    fn memory_is_eight_bytes_and_a_bit_per_slot() {
        let m = 1 << 12;
        let s = SlotArray::new(m);
        let per_slot = s.memory_bytes() as f64 / m as f64;
        // 8 (contents) + 1/8 (bitmap) + 4 bytes per 512-slot block count.
        assert!(per_slot < 8.25, "per-slot memory {per_slot} too high");
        assert!(per_slot >= 8.125, "per-slot memory {per_slot} suspiciously low");
    }
}
