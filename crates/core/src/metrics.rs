//! Per-instance structural metrics for list-labeling structures.
//!
//! [`ListMetrics`] unifies what used to be ad-hoc counters scattered across
//! `SlotArray` (`scan_words`, `log_sink_drains`) and `Growable`
//! (`rank_resolutions`) into one shared handle, and extends them with the
//! distributional views the paper's analysis is actually about: histograms
//! of rebalance window widths, moves per rebalance, and moves per
//! operation, plus a bounded [`TraceRing`] of recent structural events.
//!
//! A [`MetricsHandle`] (`Arc<ListMetrics>`) is installed into a structure
//! and all of its inner layers, so a `Growable` and the `SlotArray` inside
//! whichever PMA it currently wraps report into the same instance — and
//! the handle survives the capacity-doubling rebuilds that replace the
//! inner structure wholesale.
//!
//! Every recording path is an inlined early-return when the handle was
//! built disabled, and a few relaxed atomic RMWs when enabled — no locks,
//! no allocation. None runs per element move: `moves` takes each drained
//! move log's length once per drain, while the slot array's plain
//! `lifetime_moves` counts the moves themselves. The workspace zero-alloc
//! harness pins steady-state churn at 0 allocations/round *with metrics
//! enabled*.

use std::sync::Arc;

use lll_obs::{Counter, Histogram, TraceKind, TraceRing};

/// Shared reference to one structure's metrics. Cheap to clone; installed
/// into every layer of a composed structure via
/// [`ListLabeling::set_metrics`](crate::traits::ListLabeling::set_metrics).
pub type MetricsHandle = Arc<ListMetrics>;

/// How many recent structural events a [`ListMetrics`] trace ring retains.
const TRACE_CAPACITY: usize = 128;

/// Unified per-instance counters, histograms, and structural trace for one
/// list-labeling structure (see the [module docs](self)).
#[derive(Debug)]
pub struct ListMetrics {
    enabled: bool,
    /// Element moves (the paper's cost unit), added once per move-log drain.
    pub moves: Counter,
    /// Batch splice calls.
    pub splices: Counter,
    /// Elements placed by splice calls.
    pub spliced_elems: Counter,
    /// Window rebalances triggered.
    pub rebalances: Counter,
    /// Occupancy-bitmap words touched by window scans.
    pub scan_words: Counter,
    /// Label → rank resolutions served.
    pub rank_resolutions: Counter,
    /// Capacity-changing rebuilds (each invalidates outstanding labels).
    pub epoch_bumps: Counter,
    /// Move-log drains into a caller buffer.
    pub log_sink_drains: Counter,
    /// Drains that reused the caller buffer's capacity (no allocation).
    pub log_sink_reuses: Counter,
    /// Rebalance window widths, in slots.
    pub rebalance_window: Histogram,
    /// Element moves per rebalance.
    pub rebalance_moves: Histogram,
    /// Element moves per mutating operation (insert/delete/splice).
    pub moves_per_op: Histogram,
    /// Recent structural events (rebalances, grows/shrinks).
    pub trace: TraceRing,
}

impl ListMetrics {
    /// A fresh instance; `enabled = false` turns every recording method
    /// into an inlined early return.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            moves: Counter::new(),
            splices: Counter::new(),
            spliced_elems: Counter::new(),
            rebalances: Counter::new(),
            scan_words: Counter::new(),
            rank_resolutions: Counter::new(),
            epoch_bumps: Counter::new(),
            log_sink_drains: Counter::new(),
            log_sink_reuses: Counter::new(),
            rebalance_window: Histogram::moves(),
            rebalance_moves: Histogram::moves(),
            moves_per_op: Histogram::moves(),
            trace: TraceRing::new(TRACE_CAPACITY),
        }
    }

    /// A shareable handle to a fresh instance.
    pub fn handle(enabled: bool) -> MetricsHandle {
        Arc::new(Self::new(enabled))
    }

    /// Whether recording is live (false = every `note_*` is a no-op).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A detached copy of the current values (counts independently from
    /// here on; the trace starts empty).
    pub fn snapshot(&self) -> Self {
        Self {
            enabled: self.enabled,
            moves: self.moves.clone(),
            splices: self.splices.clone(),
            spliced_elems: self.spliced_elems.clone(),
            rebalances: self.rebalances.clone(),
            scan_words: self.scan_words.clone(),
            rank_resolutions: self.rank_resolutions.clone(),
            epoch_bumps: self.epoch_bumps.clone(),
            log_sink_drains: self.log_sink_drains.clone(),
            log_sink_reuses: self.log_sink_reuses.clone(),
            rebalance_window: self.rebalance_window.clone(),
            rebalance_moves: self.rebalance_moves.clone(),
            moves_per_op: self.moves_per_op.clone(),
            trace: TraceRing::new(TRACE_CAPACITY),
        }
    }

    /// `words` occupancy-bitmap words scanned.
    // lll-check: no-alloc
    #[inline]
    pub fn note_scan(&self, words: u64) {
        if !self.enabled {
            return;
        }
        self.scan_words.add(words);
    }

    /// A move-log drain of `moves` moves; `reused` = the caller buffer had
    /// capacity.
    // lll-check: no-alloc
    #[inline]
    pub fn note_log_drain(&self, moves: u64, reused: bool) {
        if !self.enabled {
            return;
        }
        self.moves.add(moves);
        self.log_sink_drains.inc();
        if reused {
            self.log_sink_reuses.inc();
        }
    }

    /// One label → rank resolution.
    // lll-check: no-alloc
    #[inline]
    pub fn note_rank_resolution(&self) {
        if !self.enabled {
            return;
        }
        self.rank_resolutions.inc();
    }

    /// A mutating operation finished with `cost` element moves.
    // lll-check: no-alloc
    #[inline]
    pub fn note_op_moves(&self, cost: u64) {
        if !self.enabled {
            return;
        }
        self.moves_per_op.record(cost);
    }

    /// A splice placed `count` elements.
    // lll-check: no-alloc
    #[inline]
    pub fn note_splice(&self, count: u64) {
        if !self.enabled {
            return;
        }
        self.splices.inc();
        self.spliced_elems.add(count);
    }

    /// A window rebalance of `window` slots moved `moved` elements.
    // lll-check: no-alloc
    #[inline]
    pub fn note_rebalance(&self, window: u64, moved: u64) {
        if !self.enabled {
            return;
        }
        self.rebalances.inc();
        self.rebalance_window.record(window);
        self.rebalance_moves.record(moved);
        self.trace.record(TraceKind::Rebalance, window, moved, self.epoch_bumps.get());
    }

    /// A capacity-changing rebuild to `new_capacity` performed
    /// `rebuild_moves` moves; `grow` distinguishes doubling from halving.
    // lll-check: no-alloc
    #[inline]
    pub fn note_epoch_bump(&self, grow: bool, new_capacity: u64, rebuild_moves: u64) {
        if !self.enabled {
            return;
        }
        self.epoch_bumps.inc();
        let kind = if grow { TraceKind::Grow } else { TraceKind::Shrink };
        self.trace.record(kind, new_capacity, rebuild_moves, self.epoch_bumps.get());
    }
}

impl Default for ListMetrics {
    fn default() -> Self {
        Self::new(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let m = ListMetrics::new(false);
        m.note_log_drain(4, true);
        m.note_scan(10);
        m.note_rebalance(64, 12);
        m.note_op_moves(3);
        m.note_epoch_bump(true, 128, 40);
        assert_eq!(m.moves.get(), 0);
        assert_eq!(m.scan_words.get(), 0);
        assert_eq!(m.rebalances.get(), 0);
        assert_eq!(m.moves_per_op.count(), 0);
        assert_eq!(m.trace.recorded(), 0);
        assert!(!m.enabled());
    }

    #[test]
    fn enabled_handle_records_counters_histograms_and_trace() {
        let m = ListMetrics::new(true);
        m.note_scan(7);
        m.note_log_drain(2, true);
        m.note_log_drain(0, false);
        m.note_rank_resolution();
        m.note_splice(100);
        m.note_op_moves(5);
        m.note_rebalance(64, 12);
        m.note_epoch_bump(true, 256, 90);
        assert_eq!(m.moves.get(), 2);
        assert_eq!(m.scan_words.get(), 7);
        assert_eq!((m.log_sink_drains.get(), m.log_sink_reuses.get()), (2, 1));
        assert_eq!(m.rank_resolutions.get(), 1);
        assert_eq!((m.splices.get(), m.spliced_elems.get()), (1, 100));
        assert_eq!(m.moves_per_op.count(), 1);
        assert_eq!(m.rebalances.get(), 1);
        assert_eq!(m.rebalance_window.max(), 64);
        assert_eq!(m.rebalance_moves.max(), 12);
        assert_eq!(m.epoch_bumps.get(), 1);
        let events = m.trace.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, TraceKind::Rebalance);
        assert_eq!((events[0].a, events[0].b), (64, 12));
        assert_eq!(events[1].kind, TraceKind::Grow);
        assert_eq!((events[1].a, events[1].b, events[1].c), (256, 90, 1));
    }

    #[test]
    fn snapshot_detaches() {
        let m = ListMetrics::new(true);
        m.note_log_drain(1, true);
        let snap = m.snapshot();
        m.note_log_drain(1, true);
        assert_eq!(snap.moves.get(), 1);
        assert_eq!(m.moves.get(), 2);
    }
}
