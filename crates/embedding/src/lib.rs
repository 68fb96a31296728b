//! # lll-embedding — the layered-list-labeling embedding `F ⊳ R`
//!
//! This crate is the paper's contribution (*Layered List Labeling*, Bender,
//! Conway, Farach-Colton, Komlós, Kuszmaul; PODS 2024):
//!
//! * [`Embed<F, R>`](embed::Embed) — the embedding of a *fast* list-labeling
//!   structure `F` into a *reliable* one `R` (paper §3), which by Theorem 2
//!   simultaneously achieves `O(W_R)` worst-case cost, `O(G_F(x))` good-case
//!   cost, and lightly-amortized expected cost `O(E_R)`.
//! * [`layered`] — Theorem 3's double embedding `X ⊳ (Y ⊳ Z)` and the
//!   concrete structures of Corollary 11 ([`layered::corollary11`]:
//!   adaptive + randomized + deamortized) and Corollary 12
//!   ([`layered::corollary12`]: learning-augmented + randomized +
//!   deamortized).
//! * [`tag_array`] — the slot taxonomy of Figure 1 (F-slots, buffer slots,
//!   R-empty slots) with O(log m) coordinate translations.
//! * [`views`] — ASCII renderings of the three views of Figure 1.
//!
//! The implementation follows the paper §3 closely; every structural claim
//! (Figure 2's `1 + a₁` move amplification, Lemma 5's ≤ 4 deadweight moves
//! per element, Lemma 6's o(n) rebuild spans, Lemma 7's o(n) buffer
//! occupancy) is instrumented via [`embed::EmbedStats`] and exercised in
//! this crate's tests and in the workspace's experiment harness.

#![forbid(unsafe_code)]

pub mod embed;
pub mod layered;
pub mod tag_array;
pub mod views;

pub use embed::{Embed, EmbedBuilder, EmbedConfig, EmbedStats, Loc};
pub use layered::{
    corollary11, corollary11_builder, corollary12, corollary12_builder, Corollary11, Corollary12,
    InnerYZ,
};
pub use tag_array::{SlotTag, TagArray};

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod tests;
