//! Backend selection and construction: [`Backend`], [`ListBuilder`] and
//! the type-erased [`ErasedList`].
//!
//! Every algorithm in the workspace is a fixed-capacity
//! [`ListLabeling`]; production callers want dynamic capacity and a
//! runtime-selectable algorithm. [`ListBuilder`] provides both: it wraps
//! the chosen algorithm in [`Growable`] (global doubling/halving with
//! stable handles) and boxes it behind [`RawList`], the list interface
//! `Growable` implements. [`OrderedList`](crate::OrderedList) and
//! [`LabelMap`](crate::LabelMap) hold the resulting [`ErasedList`], so they
//! never name an algorithm in their types.

use lll_adaptive::AdaptiveBuilder;
use lll_classic::ClassicBuilder;
use lll_core::growable::{Growable, RawList};
use lll_core::metrics::ListMetrics;
use lll_core::rng::derive_seed;
use lll_core::traits::{LabelingBuilder, ListLabeling};
use lll_deamortized::DeamortizedBuilder;
use lll_embedding::layered::corollary11_builder;
use lll_randomized::RandomizedBuilder;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::label_map::dedup_sorted_batch;
use crate::templates::{TemplateSize, TemplateStore, TemplatedCorollary11};

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
    /// VM; medians over twelve seeds) a clustered-ingest insert costs 31×
    /// a `BTreeMap` insert (39× before a shard taking an ascending run
    /// split early) and a uniform-mix insert 2.5×. Adaptive,
    /// randomized or deamortized alone read 9.7–13.5× and 1.9–2.1×
    /// (medians over three seeds, measured before the `LabelMap` search
    /// index made every backend's uniform-mix operations cheaper). It takes
    /// 0.13–0.14 s to set up against 0.05–0.08 s, and holds 121 resident
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
}

/// Configuration entry point for every container in this crate.
///
/// ```
/// use lll_api::{Backend, ListBuilder};
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
    templates: Arc<TemplateStore>,
}

impl Default for ListBuilder {
    fn default() -> Self {
        Self {
            backend: Backend::Corollary11,
            seed: 0x11,
            initial_capacity: 64,
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

    /// A builder replaying a previously captured [`ListConfig`], at the
    /// default initial capacity — the snapshot-restore path rebuilds the
    /// recorded backend through here.
    pub fn from_config(cfg: ListConfig) -> Self {
        Self { backend: cfg.backend, seed: cfg.seed, ..Self::default() }
    }

    /// The builder's current configuration (what [`ListBuilder::build`]
    /// stamps into the [`ErasedList`] and snapshots persist).
    pub fn config(&self) -> ListConfig {
        ListConfig { backend: self.backend, seed: self.seed }
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

    /// Build the configured backend as a dynamically sized, type-erased
    /// list. This is what [`OrderedList`](crate::OrderedList) and
    /// [`LabelMap`](crate::LabelMap) sit on.
    pub fn build(&self) -> ErasedList {
        self.build_for(0)
    }

    /// [`build`](Self::build) with room for `len` elements: the list's
    /// first structure is built at the initial capacity doubled until
    /// `len` fits ([`Growable::with_room_for`]), so a bulk load of `len`
    /// lands in it in place instead of replacing it. The list still
    /// shrinks down to the initial capacity.
    fn build_for(&self, len: usize) -> ErasedList {
        let cap = self.initial_capacity;
        // Each arm's unsize coercion doubles as a compile-time proof that
        // every selectable backend is `Send + Sync` — a non-thread-safe
        // regression in any algorithm crate fails right here.
        let inner: Box<dyn RawList + Send + Sync> = match self.backend {
            Backend::Classic => Box::new(Growable::with_room_for(ClassicBuilder, cap, len)),
            Backend::Deamortized => Box::new(Growable::with_room_for(DeamortizedBuilder, cap, len)),
            Backend::Randomized => Box::new(Growable::with_room_for(
                RandomizedBuilder::with_seed(derive_seed(self.seed, 0x59)),
                cap,
                len,
            )),
            Backend::Adaptive => Box::new(Growable::with_room_for(AdaptiveBuilder, cap, len)),
            Backend::Corollary11 => Box::new(Growable::with_room_for(
                TemplatedCorollary11::new(self.seed, Arc::clone(&self.templates)),
                cap,
                len,
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
        built.set_metrics(ListMetrics::handle(true));
        built
    }

    /// An [`OrderedList`](crate::OrderedList) on the configured backend.
    pub fn ordered_list<V>(&self) -> crate::OrderedList<V> {
        crate::OrderedList::with_backend(self.build())
    }

    /// A [`LabelMap`](crate::LabelMap) on the configured backend.
    pub fn label_map<K: Ord + Clone, V>(&self) -> crate::LabelMap<K, V> {
        crate::LabelMap::with_backend(self.build())
    }

    /// A [`LabelMap`](crate::LabelMap) on the configured backend holding
    /// `entries`, **sorted ascending by key**, landed in one bulk load
    /// ([`LabelMap::extend_sorted`](crate::LabelMap::extend_sorted): equal
    /// adjacent keys collapse, last write wins; panics if the keys are not
    /// ascending). The backend is built once, with room for the entries,
    /// instead of at the initial capacity and again at theirs.
    pub fn label_map_from_sorted<K: Ord + Clone, V>(
        &self,
        mut entries: Vec<(K, V)>,
    ) -> crate::LabelMap<K, V> {
        dedup_sorted_batch(&mut entries);
        let mut map = crate::LabelMap::with_backend(self.build_for(entries.len()));
        map.extend_deduped(entries);
        map
    }
}

/// A dynamically sized list-labeling backend with the algorithm erased —
/// the backend of [`OrderedList`](crate::OrderedList) and
/// [`LabelMap`](crate::LabelMap). Build one with [`ListBuilder::build`].
///
/// It boxes a [`Growable`] behind [`RawList`] and derefs to it, so every
/// `RawList` method is called on the list directly, as one virtual call,
/// with no import of the trait. It adds only the [`config`](Self::config)
/// it was built from.
///
/// The boxed trait object is `Send + Sync`, so erased containers can move
/// across threads and sit behind locks (see the `lll-sharded` crate).
pub struct ErasedList {
    inner: Box<dyn RawList + Send + Sync>,
    config: ListConfig,
}

impl ErasedList {
    /// The configuration this list was built from — what a snapshot header
    /// records so restore can rebuild an equivalent backend.
    pub fn config(&self) -> ListConfig {
        self.config
    }
}

impl Deref for ErasedList {
    type Target = dyn RawList + Send + Sync;

    fn deref(&self) -> &Self::Target {
        &*self.inner
    }
}

impl DerefMut for ErasedList {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut *self.inner
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
    fn the_read_fields_share_the_backends_first_cache_line() {
        // A keyed read goes from the boxed backend (a `Growable`) through
        // its inner structure to the physical slot array, then to the
        // array's contents and bitmap words. Each layer puts the next one
        // first, so those fields end within 64 bytes of the allocation's
        // start on every backend.
        for backend in Backend::ALL {
            let list = ListBuilder::new().backend(backend).build();
            let start = std::ptr::from_ref(&*list.inner).cast::<u8>().addr();
            let slots = std::ptr::from_ref(list.slots()).addr();
            let end = slots - start + lll_core::slot_array::SlotArray::READ_FIELDS_END;
            assert!(end <= 64, "{backend}: the read fields end at byte {end}");
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
