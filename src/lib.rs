//! # layered-list-labeling
//!
//! A Rust reproduction of *Layered List Labeling* (Bender, Conway,
//! Farach-Colton, Komlós, Kuszmaul; PODS 2024) — composable list-labeling /
//! packed-memory-array algorithms where the embedding `F ⊳ R` cherry-picks
//! the best worst-case, adaptive and expected cost bounds of its layers —
//! plus a production-facing ordered-collection API on top.
//!
//! ## Quickstart: the production API
//!
//! Applications use [`api`]: pick a backend at runtime, never choose a
//! capacity, and work with keys and stable handles instead of raw ranks.
//!
//! ```
//! use layered_list_labeling::prelude::*;
//!
//! // A sorted map on the paper's Corollary 11 structure. Keys stay
//! // physically sorted in one slot array, so `range` is a contiguous
//! // memory sweep; the structure grows and shrinks on demand.
//! let mut index: LabelMap<u64, &str> =
//!     ListBuilder::new().backend(Backend::Corollary11).seed(42).label_map();
//! index.insert(30, "thirty");
//! index.insert(10, "ten");
//! index.insert(20, "twenty");
//! assert_eq!(index.get(&20), Some(&"twenty"));
//! let keys: Vec<u64> = index.range(10..30).map(|(k, _)| *k).collect();
//! assert_eq!(keys, [10, 20]);
//!
//! // Order maintenance (Dietz '82): stable handles, O(1) order queries.
//! let mut list = OrderedList::new();
//! let b = list.push_back("b");
//! let a = list.insert_before(b, "a");
//! let c = list.insert_after(b, "c");
//! assert!(list.precedes(a, b) && list.precedes(b, c));
//! ```
//!
//! ## The paper-level API
//!
//! The theory-shaped interface (fixed capacity `n`, `insert(rank, id)`,
//! move logs) remains fully available for experiments and cost accounting:
//!
//! ```
//! use layered_list_labeling::core::ids::IdGen;
//! use layered_list_labeling::core::traits::ListLabeling;
//! use layered_list_labeling::embedding::corollary11;
//!
//! let n = 1024;
//! let mut layered = corollary11(n, 42);
//! let mut ids = IdGen::new();
//! // Hammer-insert workload: repeatedly insert at the same rank.
//! for _ in 0..n / 2 {
//!     layered.insert(0, ids.fresh());
//! }
//! assert_eq!(layered.len(), n / 2);
//! // Elements stay sorted in one physical array:
//! let labels: Vec<usize> = (0..layered.len()).map(|r| layered.label_of_rank(r)).collect();
//! assert!(labels.windows(2).all(|w| w[0] < w[1]));
//! ```
//!
//! ## Crate map
//!
//! * [`api`] — the production API: [`api::OrderedList`], [`api::LabelMap`],
//!   [`api::ListBuilder`] ([`lll_api`]).
//! * [`sharded`] — the concurrent façade: [`sharded::ShardedMap`] partitions
//!   the key space across per-shard rebalance domains behind per-shard
//!   locks for multi-writer workloads ([`lll_sharded`]).
//! * [`core`] — traits, slot arrays, cost accounting ([`lll_core`]).
//! * [`classic`] — the classical Itai–Konheim–Rodeh PMA, amortized
//!   O(log² n).
//! * [`deamortized`] — a worst-case O(log² n)-style PMA (the `Z` of
//!   Corollary 11).
//! * [`randomized`] — a history-independent randomized PMA (the `Y`).
//! * [`adaptive`] — the Bender–Hu adaptive PMA, O(log n) on hammer-insert
//!   workloads (the `X`).
//! * [`predictions`] — a learning-augmented PMA with rank predictions
//!   (the `X` of Corollary 12).
//! * [`embedding`] — the paper's contribution: [`embedding::Embed`] (`F ⊳ R`,
//!   Theorem 2) and [`embedding::corollary11`] / [`embedding::corollary12`]
//!   (Theorem 3 instantiations).
//! * [`workloads`] — deterministic workload generators for every experiment.

#![forbid(unsafe_code)]

pub use lll_adaptive as adaptive;
pub use lll_api as api;
pub use lll_classic as classic;
pub use lll_core as core;
pub use lll_deamortized as deamortized;
pub use lll_embedding as embedding;
pub use lll_predictions as predictions;
pub use lll_randomized as randomized;
pub use lll_sharded as sharded;
pub use lll_wal as wal;
pub use lll_workloads as workloads;

pub mod prelude {
    //! One-stop imports for applications.
    pub use lll_api::{
        Backend, Codec, ErasedList, Handle, LabelMap, ListBuilder, OrderedList, RawList,
        SnapshotError,
    };
    pub use lll_core::prelude::*;
    pub use lll_sharded::{ShardedBuilder, ShardedMap};
}
