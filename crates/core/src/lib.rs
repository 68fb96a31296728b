//! # lll-core — foundations for list-labeling data structures
//!
//! This crate provides the shared substrate for the reproduction of
//! *Layered List Labeling* (Bender, Conway, Farach-Colton, Komlós, Kuszmaul;
//! PODS 2024):
//!
//! * [`ElemId`](ids::ElemId) — 4-byte element indices, what every slot
//!   and move record holds. List-labeling structures see elements as black
//!   boxes; only relative rank matters. A [`Stamp`](ids::Stamp) adds a
//!   generation where an id outlives its element.
//! * [`Op`](ops::Op) — the operation alphabet (`insert(rank)` /
//!   `delete(rank)`), exactly as in Definition 1 of the paper.
//! * [`ListLabeling`](traits::ListLabeling) — the trait every algorithm in
//!   this workspace implements, and [`LabelingBuilder`](traits::LabelingBuilder)
//!   which lets algorithms be composed (the embedding of the paper is itself
//!   a `ListLabeling` built out of two `LabelingBuilder`s).
//! * [`Growable`](growable::Growable) — dynamic capacity over any
//!   builder, with handles that survive its rebuilds, behind
//!   [`RawList`](growable::RawList), the one list interface `lll-api`'s
//!   containers call.
//! * [`SlotArray`](slot_array::SlotArray) — the physical array of slots. All
//!   element motion goes through it, so costs are *derived from the move
//!   log*, never self-reported, and sortedness can be asserted after every
//!   atomic move.
//! * [`OpReport`](report::OpReport) — the one report an insert, a delete
//!   or a splice hands its caller: the drained move log in time order, and
//!   the placed or removed element. Each drain adds the log's length to
//!   [`ListMetrics::moves`](metrics::ListMetrics::moves), the one running
//!   total of the paper's cost.
//! * [`Bitmap`](bitmap::Bitmap) — the one occupancy index: a bit per slot
//!   plus a set-bit count per 512-bit block, answering window scans, rank,
//!   select and free-slot searches.
//! * [`SegTree`](density::SegTree) / [`Thresholds`](density::Thresholds) —
//!   the calibrator-tree geometry and density thresholds that every
//!   packed-memory-array (PMA) variant shares.
//! * [`PmaBase`](pma::PmaBase) — a reusable PMA skeleton parameterized by a
//!   [`RebalancePolicy`](pma::RebalancePolicy); the classical, adaptive and
//!   randomized algorithms are policies plugged into this skeleton.
//! * [`CostSeries`](cost::CostSeries) — per-operation cost records in the
//!   paper's cost model (element moves).
//! * [`testkit`] — a reference oracle used by unit, integration and property
//!   tests across the workspace.

#![forbid(unsafe_code)]

pub mod bitmap;
pub mod cost;
pub mod density;
pub mod growable;
pub mod ids;
pub mod metrics;
pub mod ops;
pub mod pma;
#[cfg(test)]
mod proptests;
pub mod report;
pub mod rng;
pub mod slot_array;
pub mod testkit;
pub mod traits;

pub mod prelude {
    //! Convenient glob import: `use lll_core::prelude::*;`
    pub use crate::density::{SegTree, Thresholds};
    pub use crate::growable::{Growable, Handle, RawList};
    pub use crate::ids::{ElemId, Stamp};
    pub use crate::metrics::{ListMetrics, MetricsHandle};
    pub use crate::ops::Op;
    pub use crate::pma::{PmaBase, RebalancePolicy};
    pub use crate::report::{MoveRec, OpReport};
    pub use crate::slot_array::SlotArray;
    pub use crate::traits::{LabelingBuilder, ListLabeling};
}
