//! # lll-api — the production-facing API of layered list labeling
//!
//! The algorithms in this workspace speak the paper's language: fixed
//! capacity, `insert(rank)`, raw [`OpReport`] move logs. Applications
//! speak a different one — keys, stable references, maps that grow, and
//! **batches**: real ingest arrives as sorted runs, and real scans walk
//! neighbors, not random ranks. This crate is the translation layer:
//!
//! * [`OrderedList<V>`](OrderedList) — order maintenance (Dietz '82, the
//!   paper's footnote 1): stable handles, `push_front` / `push_back` /
//!   `insert_after` / `insert_before`, O(1) `order(a, b)` via a label
//!   table maintained incrementally from the backends' move logs, and
//!   batch mutation (`extend_back` / `splice_at` / `splice_after`) that
//!   lands a whole run as one backend sweep.
//! * [`LabelMap<K, V>`](LabelMap) — a keyed sorted map (`insert` / `get` /
//!   `remove` / `range` / `iter`, with `BTreeMap`-style borrowed-key
//!   lookups) that keeps keys physically sorted in one slot array, so
//!   range scans are contiguous memory sweeps, and finds keys through a
//!   two-level fence-key index: one key per 64 slots, and a top level of
//!   every 8th of those. Sorted ingest takes the
//!   O(n) bulk path: [`LabelMap::from_sorted_iter`] and sorted
//!   [`extend`](Extend::extend) merge runs in evenly-spread sweeps instead
//!   of point insertions.
//! * [`Cursor`] / [`CursorMut`] / [`MapCursor`] — positional iteration
//!   over the slot array's occupancy structure: seek once, then step
//!   neighbor-to-neighbor with zero per-step rank→label resolution, and
//!   (mutably) edit at the cursor across rebalances and growth rebuilds.
//! * [`persist`] — durable snapshots: a versioned, little-endian binary
//!   format over `std::io` ([`LabelMap::write_snapshot`] /
//!   [`LabelMap::read_snapshot`], [`OrderedList::write_snapshot`] /
//!   [`OrderedList::read_snapshot`]). Only the sorted run is persisted —
//!   labels are ephemeral — so restore is the O(n) bulk sweep, one move
//!   per element; `OrderedList` snapshots carry the handle↔rank table, so
//!   pre-snapshot handles stay valid after restore. Decoders return
//!   [`SnapshotError`], never panic.
//! * [`ListBuilder`] — the configuration entry point:
//!   `ListBuilder::new().backend(Backend::Corollary11).seed(42).build()`.
//!   Backends are selected at runtime ([`Backend`]), wrapped in
//!   [`Growable`](lll_core::growable::Growable) for dynamic capacity (users
//!   never choose `n` up front), and erased behind [`RawList`] — or kept
//!   concrete for static dispatch by building the `Growable` directly.
//!
//! Both containers are generic over [`RawList`], so the same code runs on
//! the type-erased [`ErasedList`] or any concrete
//! `Growable<B>` — including layered compositions the [`Backend`] enum
//! doesn't enumerate.

#![forbid(unsafe_code)]

mod backend;
pub mod codec;
pub mod cursor;
pub mod label_map;
pub mod ordered_list;
pub mod persist;
mod templates;

pub use backend::{Backend, ErasedList, ListBuilder, ListConfig, ParseBackendError, RawList};
pub use cursor::{Cursor, CursorMut, MapCursor};
pub use label_map::{LabelMap, Range};
pub use ordered_list::OrderedList;
pub use persist::{Codec, SnapshotError};
pub use templates::TemplateSize;

// Re-exported so API users can hold handles and read reports without
// depending on lll-core directly.
pub use lll_core::growable::{GrowableStats, Handle};
pub use lll_core::report::{MoveRec, OpReport};

/// Compile-time thread-safety audit: every backend and both containers
/// must stay `Send + Sync` — the `lll-sharded` façade parks them behind
/// `RwLock`s and hands references across threads. A `Rc`/raw-pointer
/// regression anywhere in the stack fails this function's type-checking
/// (and the unsize coercions in [`ListBuilder::build`]) at build time,
/// not in a flaky threaded test.
#[allow(dead_code)]
fn assert_thread_safe() {
    fn assert_send_sync<T: Send + Sync>() {}
    use lll_core::growable::Growable;
    // The four directly nameable algorithm backends…
    assert_send_sync::<Growable<lll_classic::ClassicBuilder>>();
    assert_send_sync::<Growable<lll_deamortized::DeamortizedBuilder>>();
    assert_send_sync::<Growable<lll_randomized::RandomizedBuilder>>();
    assert_send_sync::<Growable<lll_adaptive::AdaptiveBuilder>>();
    // …the Corollary 11 layered composition…
    fn assert_growable_builder<B: lll_core::traits::LabelingBuilder>(_: &B)
    where
        Growable<B>: Send + Sync,
    {
    }
    let _ = |seed: u64| assert_growable_builder(&lll_embedding::layered::corollary11_builder(seed));
    // …and the erased form plus both containers on top of it.
    assert_send_sync::<ErasedList>();
    assert_send_sync::<LabelMap<String, Vec<u8>>>();
    assert_send_sync::<OrderedList<String>>();
    assert_send_sync::<label_map::IntoIter<String, Vec<u8>>>();
}
