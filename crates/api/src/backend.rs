//! Backend selection and construction: [`Backend`], [`ListBuilder`],
//! [`RawList`] and the type-erased [`ErasedList`].
//!
//! Every algorithm in the workspace is a fixed-capacity
//! [`ListLabeling`]; production callers want dynamic capacity and a
//! runtime-selectable algorithm. [`ListBuilder`] provides both: it wraps
//! the chosen algorithm in [`Growable`] (global doubling/halving with
//! stable handles) and erases the concrete type behind [`RawList`], so
//! [`OrderedList`](crate::OrderedList) and [`LabelMap`](crate::LabelMap)
//! never name an algorithm in their types. Callers who want static
//! dispatch instead pass any [`LabelingBuilder`] to
//! [`ListBuilder::build_growable`] (or construct [`Growable`] directly) —
//! both container types are generic over [`RawList`] and accept either
//! form.

use lll_adaptive::AdaptiveBuilder;
use lll_classic::ClassicBuilder;
use lll_core::growable::{Growable, GrowableStats, Handle};
use lll_core::metrics::{ListMetrics, MetricsHandle};
use lll_core::report::{BulkReport, OpReport};
use lll_core::rng::derive_seed;
use lll_core::slot_array::SlotArray;
use lll_core::traits::{LabelingBuilder, ListLabeling};
use lll_deamortized::DeamortizedBuilder;
use lll_embedding::layered::corollary11_builder;
use lll_randomized::RandomizedBuilder;
use std::sync::Arc;

use crate::templates::{TemplateSize, TemplateStore, TemplatedCorollary11};

/// The rank-addressed operations the API layer needs from a dynamically
/// sized list-labeling backend. Implemented by [`Growable`] over every
/// algorithm in the workspace; object-safe, so backends can be erased
/// ([`ErasedList`]) or kept concrete for static dispatch.
pub trait RawList {
    /// Current element count.
    fn len(&self) -> usize;

    /// True if no elements are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current capacity (changes across rebuilds).
    fn capacity(&self) -> usize;

    /// The rebuild epoch: labels from before the last epoch change are
    /// stale (see [`Growable::epoch`]).
    fn epoch(&self) -> u64;

    /// Insert at `rank`, returning the new element's stable handle; the
    /// move log drains through the backend's internal reusable buffer (no
    /// per-op allocation). Callers that need the log use
    /// [`insert_reported_into`](Self::insert_reported_into).
    fn insert(&mut self, rank: usize) -> Handle;

    /// Delete at `rank`, returning the removed element's handle (log
    /// discarded through the internal buffer, as for
    /// [`insert`](Self::insert)).
    fn delete(&mut self, rank: usize) -> Handle;

    /// Insert at `rank`, draining the operation's move log into `out`
    /// (cleared, then its move buffer traded for the log's — the
    /// zero-allocation label-table maintenance path). The log excludes any
    /// growth rebuild, which is signalled by the epoch instead.
    fn insert_reported_into(&mut self, rank: usize, out: &mut OpReport) -> Handle;

    /// Delete at `rank`, draining the move log into `out` (same epoch
    /// caveat for shrink rebuilds).
    fn delete_reported_into(&mut self, rank: usize, out: &mut OpReport) -> Handle;

    /// Insert at `rank`, returning the new element's stable handle and the
    /// operation's move log — allocating convenience over
    /// [`insert_reported_into`](Self::insert_reported_into).
    fn insert_reported(&mut self, rank: usize) -> (Handle, OpReport) {
        let mut rep = OpReport::default();
        let h = self.insert_reported_into(rank, &mut rep);
        (h, rep)
    }

    /// Delete at `rank`, returning the removed element's handle and the
    /// operation's move log — allocating convenience over
    /// [`delete_reported_into`](Self::delete_reported_into).
    fn delete_reported(&mut self, rank: usize) -> (Handle, OpReport) {
        let mut rep = OpReport::default();
        let h = self.delete_reported_into(rank, &mut rep);
        (h, rep)
    }

    /// Batch-insert `count` new elements at consecutive final ranks
    /// `rank .. rank + count` as one logical operation — the bulk-ingest
    /// path ([`Growable::splice_at`]). Returns the new handles in rank
    /// order and one move log for the whole batch; if the batch forced a
    /// growth rebuild the log is empty and the epoch bumps once instead.
    fn splice_reported(&mut self, rank: usize, count: usize) -> (Vec<Handle>, BulkReport);

    /// The physical slot array of the current epoch: a label is a position
    /// in it, and the element stored there is the element's handle (move
    /// logs therefore name elements by handle).
    fn slots(&self) -> &SlotArray;

    /// The rank of the element whose label is `label` — the one
    /// label→rank resolution, counted in the backend's metrics.
    fn rank_at_label(&self, label: usize) -> usize;

    /// The label of the first element, if any.
    fn first_label(&self) -> Option<usize> {
        self.slots().next_occupied_at_or_after(0)
    }

    /// The label of the last element, if any.
    fn last_label(&self) -> Option<usize> {
        self.slots()
            .num_slots()
            .checked_sub(1)
            .and_then(|l| self.slots().prev_occupied_at_or_before(l))
    }

    /// The label of the next element strictly after `label` — one
    /// occupancy query, no rank resolution (the cursor walking primitive).
    fn next_label_after(&self, label: usize) -> Option<usize> {
        self.slots().next_occupied_at_or_after(label + 1)
    }

    /// The label of the previous element strictly before `label`.
    fn prev_label_before(&self, label: usize) -> Option<usize> {
        label.checked_sub(1).and_then(|l| self.slots().prev_occupied_at_or_before(l))
    }

    /// The handle of the element stored at `label` (`None` on a free slot
    /// or past the end).
    fn handle_at_label(&self, label: usize) -> Option<Handle> {
        (label < self.slots().num_slots()).then(|| self.slots().get(label)).flatten()
    }

    /// The handle of the element of `rank`.
    fn handle_at_rank(&self, rank: usize) -> Handle {
        self.slots().get(self.label_of_rank(rank)).expect("select lands on an element")
    }

    /// The label (slot position) of the element of `rank`.
    fn label_of_rank(&self, rank: usize) -> usize {
        self.slots().select(rank)
    }

    /// Restore an **empty** backend to `handles.len()` elements in one
    /// O(n) bulk sweep, binding `handles[r]` to rank `r` — the
    /// snapshot-restore path ([`Growable::load_with_handles`]): persisted
    /// handles stay valid and future insertions never collide with them.
    ///
    /// Panics if the backend is non-empty or any handle has the reserved
    /// index `u32::MAX`. Handle indices must be distinct (checked in debug
    /// builds; decode paths validate before calling).
    fn load_with_handles(&mut self, handles: &[Handle]);

    /// Remove every element in one reset ([`Growable::reset`]): every id is
    /// released, the backend is rebuilt empty at its initial capacity, and
    /// the epoch bumps once. No element moves, and no handle issued
    /// afterwards repeats one from before.
    fn reset(&mut self);

    /// The underlying algorithm's name.
    fn backend_name(&self) -> &'static str;

    /// Total element moves performed (operations + rebuilds).
    fn total_moves(&self) -> u64;

    /// Grow/shrink statistics.
    fn grow_stats(&self) -> GrowableStats;

    /// The observability handle this backend's physical slot array reports
    /// into: counters and the moves-per-op and rebalance-window histograms
    /// (see [`lll_core::metrics::ListMetrics`]).
    fn metrics_handle(&self) -> MetricsHandle;
}

impl<B: LabelingBuilder> RawList for Growable<B> {
    fn len(&self) -> usize {
        Growable::len(self)
    }

    fn capacity(&self) -> usize {
        Growable::capacity(self)
    }

    fn epoch(&self) -> u64 {
        Growable::epoch(self)
    }

    fn insert(&mut self, rank: usize) -> Handle {
        Growable::insert(self, rank)
    }

    fn delete(&mut self, rank: usize) -> Handle {
        Growable::delete(self, rank)
    }

    fn insert_reported_into(&mut self, rank: usize, out: &mut OpReport) -> Handle {
        Growable::insert_reported_into(self, rank, out)
    }

    fn delete_reported_into(&mut self, rank: usize, out: &mut OpReport) -> Handle {
        Growable::delete_reported_into(self, rank, out)
    }

    fn splice_reported(&mut self, rank: usize, count: usize) -> (Vec<Handle>, BulkReport) {
        Growable::splice_at(self, rank, count)
    }

    fn slots(&self) -> &SlotArray {
        self.inner().slots()
    }

    fn rank_at_label(&self, label: usize) -> usize {
        Growable::rank_at_label(self, label)
    }

    fn load_with_handles(&mut self, handles: &[Handle]) {
        Growable::load_with_handles(self, handles)
    }

    fn reset(&mut self) {
        Growable::reset(self)
    }

    fn backend_name(&self) -> &'static str {
        Growable::backend_name(self)
    }

    fn total_moves(&self) -> u64 {
        Growable::total_moves(self)
    }

    fn grow_stats(&self) -> GrowableStats {
        Growable::stats(self)
    }

    fn metrics_handle(&self) -> MetricsHandle {
        Growable::metrics(self).clone()
    }
}

/// The algorithms a [`ListBuilder`] can instantiate at runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Classical Itai–Konheim–Rodeh PMA: amortized O(log² n).
    Classic,
    /// Worst-case-bounded PMA (the `Z` layer).
    Deamortized,
    /// History-independent randomized PMA (the `Y` layer): great expected
    /// cost, heavy tails.
    Randomized,
    /// Bender–Hu adaptive PMA (the `X` layer): O(log n) on hammer inserts.
    Adaptive,
    /// The paper's Corollary 11: adaptive ⊳ (randomized ⊳ deamortized),
    /// whose move bounds combine all three layers' (Theorem 3).
    ///
    /// Building one empty is the paper's Θ(n) R-shell initialization on
    /// both levels. [`ListBuilder::build`] serves the third and later
    /// builds of one size by cloning a template of the empty structure,
    /// kept by the builder and shared by its clones; see
    /// [`ListBuilder::template_sizes`].
    ///
    /// The default because it is the paper's reproduction, not because it
    /// is fastest: end to end it trails each of its own layers. On
    /// ladderbench (`ShardedMap`, n = 2^18, `--seconds 10`, 2-vCPU x86-64
    /// VM; medians over ten seeds) a clustered-ingest insert costs 38× a
    /// `BTreeMap` insert and a uniform-mix insert 2.2×. Adaptive,
    /// randomized or deamortized alone read 9.7–13.5× and 1.9–2.1×
    /// (medians over three seeds, measured before the `LabelMap` search
    /// index made every backend's uniform-mix operations cheaper). It takes
    /// 0.13–0.14 s to set up against 0.05–0.08 s, and holds 174 resident
    /// bytes per entry against 40. Pick a single layer when time or memory
    /// matters more than the combined move bounds.
    Corollary11,
}

impl Backend {
    /// Every selectable backend, for exhaustive sweeps in tests and
    /// experiments.
    pub const ALL: [Backend; 5] = [
        Backend::Classic,
        Backend::Deamortized,
        Backend::Randomized,
        Backend::Adaptive,
        Backend::Corollary11,
    ];

    /// A short stable name (for tables, logs, plots, and the snapshot
    /// header's backend field — [`FromStr`](std::str::FromStr) round-trips
    /// it).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Classic => "classic",
            Backend::Deamortized => "deamortized",
            Backend::Randomized => "randomized",
            Backend::Adaptive => "adaptive",
            Backend::Corollary11 => "corollary11",
        }
    }
}

impl std::fmt::Display for Backend {
    /// Formats as [`name`](Backend::name); `to_string()` and
    /// [`str::parse`] round-trip.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when [`Backend::from_str`](std::str::FromStr) meets a
/// string that is no backend's [`name`](Backend::name).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBackendError {
    /// The string that failed to parse.
    pub unknown: String,
}

impl std::fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown backend {:?} (expected one of: ", self.unknown)?;
        for (i, b) in Backend::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(b.name())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for ParseBackendError {}

impl std::str::FromStr for Backend {
    type Err = ParseBackendError;

    /// Parses the exact strings [`name`](Backend::name) produces — the
    /// stable identifiers used by tables, CLI flags, and snapshot headers.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Backend::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| ParseBackendError { unknown: s.to_string() })
    }
}

/// The resolved configuration of a [`ListBuilder`] — everything needed to
/// rebuild an equivalent backend later, which is exactly what a snapshot
/// header records (see the [`persist`](crate::persist) module). Every
/// [`ErasedList`] carries the config it was built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ListConfig {
    /// The selected algorithm.
    pub backend: Backend,
    /// The random-tape seed.
    pub seed: u64,
    /// The pre-growth capacity floor (a hint, not persisted state).
    pub initial_capacity: usize,
}

/// Configuration entry point for every container in this crate.
///
/// ```
/// use lll_api::{Backend, ListBuilder, RawList};
///
/// let mut list = ListBuilder::new().backend(Backend::Corollary11).seed(42).build();
/// let first = list.insert(0);
/// let second = list.insert(1);
/// assert_eq!(list.len(), 2);
/// assert!(list.label_of_rank(0) < list.label_of_rank(1));
/// let _ = (first, second);
/// ```
///
/// A builder and its clones share one store of Corollary 11 templates (see
/// [`Backend::Corollary11`]): a `ShardedMap` clones its builder for every
/// shard, so its shards' growth rebuilds, splits and merges are clones of
/// an empty structure rather than fresh builds.
#[derive(Clone, Debug)]
pub struct ListBuilder {
    backend: Backend,
    seed: u64,
    initial_capacity: usize,
    metrics: bool,
    templates: Arc<TemplateStore>,
}

impl Default for ListBuilder {
    fn default() -> Self {
        Self {
            backend: Backend::Corollary11,
            seed: 0x11,
            initial_capacity: 64,
            metrics: true,
            templates: Arc::default(),
        }
    }
}

impl ListBuilder {
    /// A builder with the defaults: the Corollary 11 layered structure (the
    /// paper's reproduction, slower and larger than any one of its layers
    /// — see [`Backend::Corollary11`] for the measured trade), a fixed
    /// seed, and a small initial capacity (the structure grows on demand —
    /// `n` is never chosen up front).
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder replaying a previously captured [`ListConfig`] — the
    /// snapshot-restore path rebuilds the recorded backend through here.
    pub fn from_config(cfg: ListConfig) -> Self {
        Self {
            backend: cfg.backend,
            seed: cfg.seed,
            initial_capacity: cfg.initial_capacity.max(1),
            ..Self::default()
        }
    }

    /// The builder's current configuration (what [`ListBuilder::build`]
    /// stamps into the [`ErasedList`] and snapshots persist).
    pub fn config(&self) -> ListConfig {
        ListConfig {
            backend: self.backend,
            seed: self.seed,
            initial_capacity: self.initial_capacity,
        }
    }

    /// Select the algorithm.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Seed every random tape (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Capacity floor before the first growth rebuild. Purely a
    /// preallocation hint: the structure grows and shrinks regardless.
    pub fn initial_capacity(mut self, capacity: usize) -> Self {
        self.initial_capacity = capacity.max(1);
        self
    }

    /// Enable or disable metrics recording (default: enabled). With
    /// `false` the built backend reports into the shared
    /// [`ListMetrics::disabled`] handle, a no-op on every recording path —
    /// the knob overhead benchmarks use to pin the enabled/disabled gap.
    /// Not part of [`ListConfig`]: an operational setting, not persisted
    /// state, so snapshot headers are unaffected.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Build the configured backend as a dynamically sized, type-erased
    /// list. This is what [`OrderedList`](crate::OrderedList) and
    /// [`LabelMap`](crate::LabelMap) sit on.
    pub fn build(&self) -> ErasedList {
        let cap = self.initial_capacity;
        let m = || self.metrics_sink();
        // Each arm's unsize coercion doubles as a compile-time proof that
        // every selectable backend is `Send + Sync` — a non-thread-safe
        // regression in any algorithm crate fails right here.
        let inner: Box<dyn RawList + Send + Sync> = match self.backend {
            Backend::Classic => Box::new(Growable::with_metrics(ClassicBuilder, cap, m())),
            Backend::Deamortized => Box::new(Growable::with_metrics(DeamortizedBuilder, cap, m())),
            Backend::Randomized => Box::new(Growable::with_metrics(
                RandomizedBuilder::with_seed(derive_seed(self.seed, 0x59)),
                cap,
                m(),
            )),
            Backend::Adaptive => Box::new(Growable::with_metrics(AdaptiveBuilder, cap, m())),
            Backend::Corollary11 => Box::new(Growable::with_metrics(
                TemplatedCorollary11::new(self.seed, Arc::clone(&self.templates)),
                cap,
                m(),
            )),
        };
        ErasedList { inner, config: self.config() }
    }

    /// Every size of Corollary 11 structure that lists built by this
    /// builder or its clones have built, with how each build was served.
    /// The first build of a size is computed; the second is computed and
    /// kept as the size's template; later ones clone the template and
    /// install their own random tape, and behave move for move like a
    /// computed build. A size built once holds no template, so a lone
    /// list that only grows keeps none. [`build_fixed`](Self::build_fixed)
    /// always computes, and other backends never use the store.
    pub fn template_sizes(&self) -> Vec<TemplateSize> {
        self.templates.sizes()
    }

    /// Build the configured backend as a **fixed-capacity** structure
    /// behind the paper-shaped [`ListLabeling`] trait — for callers that
    /// know `n` and want the theory-level interface (move logs, slot
    /// arrays, cost accounting) without naming a concrete type.
    pub fn build_fixed(&self, capacity: usize) -> Box<dyn ListLabeling + Send + Sync> {
        let mut built: Box<dyn ListLabeling + Send + Sync> = match self.backend {
            Backend::Classic => Box::new(ClassicBuilder.build_default(capacity)),
            Backend::Deamortized => Box::new(DeamortizedBuilder.build_default(capacity)),
            Backend::Randomized => Box::new(
                RandomizedBuilder::with_seed(derive_seed(self.seed, 0x59)).build_default(capacity),
            ),
            Backend::Adaptive => Box::new(AdaptiveBuilder.build_default(capacity)),
            Backend::Corollary11 => {
                Box::new(corollary11_builder(self.seed).build_default(capacity))
            }
        };
        built.set_metrics(self.metrics_sink());
        built
    }

    /// A fresh enabled metrics instance, or the shared disabled one.
    fn metrics_sink(&self) -> MetricsHandle {
        if self.metrics {
            ListMetrics::handle(true)
        } else {
            ListMetrics::disabled()
        }
    }

    /// Statically dispatched escape hatch: wrap **any** algorithm builder
    /// (including compositions the [`Backend`] enum doesn't enumerate) in
    /// the same dynamic-capacity machinery, with no type erasure. The
    /// result plugs into [`OrderedList::with_backend`]
    /// [`LabelMap::with_backend`] via their [`RawList`] parameter.
    ///
    /// [`OrderedList::with_backend`]: crate::OrderedList::with_backend
    /// [`LabelMap::with_backend`]: crate::LabelMap::with_backend
    pub fn build_growable<B: LabelingBuilder>(&self, builder: B) -> Growable<B> {
        Growable::with_metrics(builder, self.initial_capacity, self.metrics_sink())
    }

    /// An [`OrderedList`](crate::OrderedList) on the configured backend.
    pub fn ordered_list<V>(&self) -> crate::OrderedList<V> {
        crate::OrderedList::with_backend(self.build())
    }

    /// A [`LabelMap`](crate::LabelMap) on the configured backend.
    pub fn label_map<K: Ord + Clone, V>(&self) -> crate::LabelMap<K, V> {
        crate::LabelMap::with_backend(self.build())
    }
}

/// A dynamically sized list-labeling backend with the algorithm erased —
/// the default backend type of [`OrderedList`](crate::OrderedList) and
/// [`LabelMap`](crate::LabelMap). Build one with [`ListBuilder::build`].
///
/// The boxed trait object is `Send + Sync`, so erased containers can move
/// across threads and sit behind locks (see the `lll-sharded` crate).
pub struct ErasedList {
    inner: Box<dyn RawList + Send + Sync>,
    config: ListConfig,
}

impl ErasedList {
    /// Insert at `rank`, returning the new element's stable handle (the
    /// move log drains through the backend's internal reusable buffer).
    pub fn insert(&mut self, rank: usize) -> Handle {
        self.inner.insert(rank)
    }

    /// Delete at `rank`, returning the removed element's handle.
    pub fn delete(&mut self, rank: usize) -> Handle {
        self.inner.delete(rank)
    }

    /// The configuration this list was built from — what a snapshot header
    /// records so restore can rebuild an equivalent backend.
    pub fn config(&self) -> ListConfig {
        self.config
    }
}

impl RawList for ErasedList {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn insert(&mut self, rank: usize) -> Handle {
        self.inner.insert(rank)
    }

    fn delete(&mut self, rank: usize) -> Handle {
        self.inner.delete(rank)
    }

    fn insert_reported_into(&mut self, rank: usize, out: &mut OpReport) -> Handle {
        self.inner.insert_reported_into(rank, out)
    }

    fn delete_reported_into(&mut self, rank: usize, out: &mut OpReport) -> Handle {
        self.inner.delete_reported_into(rank, out)
    }

    fn splice_reported(&mut self, rank: usize, count: usize) -> (Vec<Handle>, BulkReport) {
        self.inner.splice_reported(rank, count)
    }

    fn slots(&self) -> &SlotArray {
        self.inner.slots()
    }

    fn rank_at_label(&self, label: usize) -> usize {
        self.inner.rank_at_label(label)
    }

    fn load_with_handles(&mut self, handles: &[Handle]) {
        self.inner.load_with_handles(handles)
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn total_moves(&self) -> u64 {
        self.inner.total_moves()
    }

    fn grow_stats(&self) -> GrowableStats {
        self.inner.grow_stats()
    }

    fn metrics_handle(&self) -> MetricsHandle {
        self.inner.metrics_handle()
    }
}

// `ListLabeling` must stay object-safe: `build_fixed` and downstream users
// hand out `Box<dyn ListLabeling>`.
const _: fn(&dyn ListLabeling) = |_| {};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_backend_builds_and_grows() {
        for backend in Backend::ALL {
            let mut list = ListBuilder::new().backend(backend).seed(7).build();
            for i in 0..300 {
                list.insert(i / 2);
            }
            assert_eq!(list.len(), 300, "{}", backend.name());
            assert!(list.grow_stats().grows >= 1, "{} never grew", backend.name());
            for _ in 0..250 {
                list.delete(0);
            }
            assert_eq!(list.len(), 50, "{}", backend.name());
        }
    }

    #[test]
    fn build_fixed_is_paper_shaped() {
        for backend in Backend::ALL {
            let mut s = ListBuilder::new().backend(backend).build_fixed(128);
            for i in 0..64 {
                s.insert(0, lll_core::ids::ElemId(i));
            }
            assert_eq!(s.len(), 64);
            let labels: Vec<usize> = (0..s.len()).map(|r| s.label_of_rank(r)).collect();
            assert!(labels.windows(2).all(|w| w[0] < w[1]), "{}", backend.name());
        }
    }

    #[test]
    fn static_dispatch_matches_erased() {
        let b = ListBuilder::new().seed(3);
        let mut stat = b.build_growable(ClassicBuilder);
        let mut dynn = b.backend(Backend::Classic).build();
        for i in 0..200 {
            stat.insert(i % (i / 2 + 1));
            dynn.insert(i % (i / 2 + 1));
        }
        assert_eq!(stat.len(), RawList::len(&dynn));
        for r in (0..200).step_by(17) {
            assert_eq!(stat.label_of_rank(r), dynn.label_of_rank(r));
        }
    }

    #[test]
    fn backend_display_from_str_roundtrip() {
        for backend in Backend::ALL {
            assert_eq!(backend.to_string(), backend.name());
            assert_eq!(backend.name().parse::<Backend>(), Ok(backend));
        }
        let err = "btree".parse::<Backend>().unwrap_err();
        assert_eq!(err.unknown, "btree");
        let msg = err.to_string();
        assert!(msg.contains("btree") && msg.contains("corollary11"), "unhelpful: {msg}");
        // Parsing is exact: no case folding, no whitespace trimming.
        assert!("Classic".parse::<Backend>().is_err());
        assert!(" classic".parse::<Backend>().is_err());
    }

    #[test]
    fn erased_list_remembers_its_config() {
        let b = ListBuilder::new().backend(Backend::Randomized).seed(99);
        let list = b.build();
        assert_eq!(list.config(), b.config());
        assert_eq!(list.config().backend, Backend::Randomized);
        assert_eq!(list.config().seed, 99);
        // from_config rebuilds an equivalent backend: same structure layout
        // for the same operations.
        let mut a = ListBuilder::from_config(list.config()).build();
        let mut c = b.build();
        for i in 0..100 {
            a.insert(i / 3);
            c.insert(i / 3);
        }
        for r in 0..100 {
            assert_eq!(a.label_of_rank(r), c.label_of_rank(r), "layout diverged at rank {r}");
        }
    }

    #[test]
    fn epoch_signals_rebuilds() {
        let mut list = ListBuilder::new().backend(Backend::Classic).initial_capacity(16).build();
        let e0 = list.epoch();
        for i in 0..64 {
            list.insert(i);
        }
        assert!(list.epoch() > e0, "growth must bump the epoch");
    }
}
