//! Per-instance structural metrics for list-labeling structures.
//!
//! [`ListMetrics`] unifies what used to be ad-hoc counters scattered across
//! `SlotArray` (`scan_words`) and `Growable` (`rank_resolutions`) into one
//! shared handle, and extends them with the distributional views the
//! paper's analysis is actually about: histograms of rebalance window
//! widths and of moves per operation.
//!
//! A [`MetricsHandle`] (`Arc<ListMetrics>`) is installed into a structure's
//! physical `SlotArray`, so a `Growable` and the array of whichever
//! structure it currently wraps report into the same instance — and the
//! handle survives the capacity-doubling rebuilds that replace the inner
//! structure wholesale. Only the physical array reports: the paper's cost
//! is its moves (Definition 1), so an embedding's simulation and shell,
//! whose moves are computation, report into the process-wide
//! [`disabled`](ListMetrics::disabled) handle. Every count here, `moves`
//! included, is therefore the physical array's.
//!
//! `moves` is the one running total of the paper's cost: it takes each
//! drained move log's length once per drain, and nothing else counts the
//! moves, so a structure on the disabled handle keeps no total.
//!
//! Every recording path is an inlined early-return when the handle was
//! built disabled, and a few relaxed atomic RMWs when enabled — no locks,
//! no allocation. None runs per element move. The workspace zero-alloc
//! harness pins steady-state churn at 0 allocations/round *with metrics
//! enabled*.

use std::sync::{Arc, LazyLock};

use lll_obs::{Counter, Histogram};

/// Shared reference to one structure's metrics. Cheap to clone; installed
/// into a structure's physical slot array via
/// [`ListLabeling::set_metrics`](crate::traits::ListLabeling::set_metrics).
pub type MetricsHandle = Arc<ListMetrics>;

/// The one disabled instance behind [`ListMetrics::disabled`].
static DISABLED: LazyLock<MetricsHandle> = LazyLock::new(|| ListMetrics::handle(false));

/// Unified per-instance counters and histograms for one list-labeling
/// structure (see the [module docs](self)).
#[derive(Debug)]
pub struct ListMetrics {
    enabled: bool,
    /// Element moves of the physical array (the paper's cost unit), added
    /// once per move-log drain: the one move total (0 when disabled).
    pub moves: Counter,
    /// Window rebalances triggered.
    pub rebalances: Counter,
    /// Occupancy-bitmap words touched by window scans.
    pub scan_words: Counter,
    /// Label → rank resolutions served.
    pub rank_resolutions: Counter,
    /// Capacity-changing rebuilds (each invalidates outstanding labels).
    pub epoch_bumps: Counter,
    /// Rebalance window widths, in slots.
    pub rebalance_window: Histogram,
    /// Element moves per mutating operation (insert/delete/splice).
    pub moves_per_op: Histogram,
}

impl ListMetrics {
    /// A fresh instance; `enabled = false` turns every recording method
    /// into an inlined early return.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            moves: Counter::new(),
            rebalances: Counter::new(),
            scan_words: Counter::new(),
            rank_resolutions: Counter::new(),
            epoch_bumps: Counter::new(),
            rebalance_window: Histogram::moves(),
            moves_per_op: Histogram::moves(),
        }
    }

    /// A shareable handle to a fresh instance.
    pub fn handle(enabled: bool) -> MetricsHandle {
        Arc::new(Self::new(enabled))
    }

    /// The process-wide disabled handle: slot arrays whose moves are not
    /// the cost (an embedding's simulation and shell) report here, record
    /// nothing and own no instance of their own.
    pub fn disabled() -> MetricsHandle {
        DISABLED.clone()
    }

    /// Whether recording is live (false = every `note_*` is a no-op).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A detached copy of the current values (counts independently from
    /// here on).
    pub fn snapshot(&self) -> Self {
        Self {
            enabled: self.enabled,
            moves: self.moves.clone(),
            rebalances: self.rebalances.clone(),
            scan_words: self.scan_words.clone(),
            rank_resolutions: self.rank_resolutions.clone(),
            epoch_bumps: self.epoch_bumps.clone(),
            rebalance_window: self.rebalance_window.clone(),
            moves_per_op: self.moves_per_op.clone(),
        }
    }

    /// `words` occupancy-bitmap words scanned.
    #[inline]
    pub fn note_scan(&self, words: u64) {
        if !self.enabled {
            return;
        }
        self.scan_words.add(words);
    }

    /// A move-log drain of `moves` moves.
    #[inline]
    pub fn note_log_drain(&self, moves: u64) {
        if !self.enabled {
            return;
        }
        self.moves.add(moves);
    }

    /// One label → rank resolution.
    #[inline]
    pub fn note_rank_resolution(&self) {
        if !self.enabled {
            return;
        }
        self.rank_resolutions.inc();
    }

    /// A mutating operation finished with `cost` element moves.
    #[inline]
    pub fn note_op_moves(&self, cost: u64) {
        if !self.enabled {
            return;
        }
        self.moves_per_op.record(cost);
    }

    /// A window rebalance over `window` slots.
    #[inline]
    pub fn note_rebalance(&self, window: u64) {
        if !self.enabled {
            return;
        }
        self.rebalances.inc();
        self.rebalance_window.record(window);
    }

    /// A capacity-changing rebuild.
    #[inline]
    pub fn note_epoch_bump(&self) {
        if !self.enabled {
            return;
        }
        self.epoch_bumps.inc();
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
        m.note_log_drain(4);
        m.note_scan(10);
        m.note_rebalance(64);
        m.note_op_moves(3);
        m.note_epoch_bump();
        assert_eq!(m.moves.get(), 0);
        assert_eq!(m.scan_words.get(), 0);
        assert_eq!(m.rebalances.get(), 0);
        assert_eq!(m.moves_per_op.count(), 0);
        assert_eq!(m.epoch_bumps.get(), 0);
        assert!(!m.enabled());
    }

    #[test]
    fn disabled_handle_is_one_shared_instance() {
        let (a, b) = (ListMetrics::disabled(), ListMetrics::disabled());
        assert!(Arc::ptr_eq(&a, &b) && !a.enabled());
    }

    #[test]
    fn enabled_handle_records_counters_and_histograms() {
        let m = ListMetrics::new(true);
        m.note_scan(7);
        m.note_log_drain(2);
        m.note_log_drain(0);
        m.note_rank_resolution();
        m.note_op_moves(5);
        m.note_rebalance(64);
        m.note_epoch_bump();
        assert_eq!(m.moves.get(), 2);
        assert_eq!(m.scan_words.get(), 7);
        assert_eq!(m.rank_resolutions.get(), 1);
        assert_eq!(m.moves_per_op.count(), 1);
        assert_eq!(m.rebalances.get(), 1);
        assert_eq!(m.rebalance_window.max(), 64);
        assert_eq!(m.epoch_bumps.get(), 1);
    }

    #[test]
    fn snapshot_detaches() {
        let m = ListMetrics::new(true);
        m.note_log_drain(1);
        let snap = m.snapshot();
        m.note_log_drain(1);
        assert_eq!(snap.moves.get(), 1);
        assert_eq!(m.moves.get(), 2);
    }
}
