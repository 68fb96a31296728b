//! Theorem 3's double embedding `X ⊳ (Y ⊳ Z)` and the paper's concrete
//! instantiations (Corollaries 11 and 12).
//!
//! Because [`Embed`] is itself a [`ListLabeling`] built from two
//! [`LabelingBuilder`]s, the double embedding is literally a nested type:
//! `Embed<X, Embed<Y, Z>>`. The builders below wire up the slot budgets:
//! the outer embedding uses ε = 1/3 and the inner ε = 1/6 so that every
//! layer keeps workable density slack (the paper's footnote 4: achieving
//! overall slack ε requires ε/3 per application).

use crate::embed::{Embed, EmbedBuilder, EmbedConfig};
use lll_adaptive::{AdaptiveBuilder, AdaptivePma};
use lll_core::rng::derive_seed;
use lll_core::traits::{LabelingBuilder, ListLabeling};
use lll_deamortized::{DeamortizedBuilder, DeamortizedPma};
use lll_predictions::{PredictedBuilder, PredictedPma, VecPredictor};
use lll_randomized::{RandomizedBuilder, RandomizedPma};

/// The inner embedding `Y ⊳ Z`: randomized expected-cost structure embedded
/// in a worst-case-bounded structure.
pub type InnerYZ = Embed<RandomizedPma, DeamortizedPma>;

/// Corollary 11's structure: `X ⊳ (Y ⊳ Z)` with X = adaptive PMA,
/// Y = randomized PMA, Z = deamortized PMA.
pub type Corollary11 = Embed<AdaptivePma, InnerYZ>;

/// Corollary 12's structure: the learning-augmented PMA layered over the
/// same `Y ⊳ Z`.
pub type Corollary12<P> = Embed<PredictedPma<P>, InnerYZ>;

/// Builder type of [`Corollary11`].
pub type Corollary11Builder =
    EmbedBuilder<AdaptiveBuilder, EmbedBuilder<RandomizedBuilder, DeamortizedBuilder>>;

/// Builder type of [`Corollary12`].
pub type Corollary12Builder<P> =
    EmbedBuilder<PredictedBuilder<P>, EmbedBuilder<RandomizedBuilder, DeamortizedBuilder>>;

/// The default outer/inner embedding parameters for the double embedding.
pub fn layered_configs() -> (EmbedConfig, EmbedConfig) {
    let outer = EmbedConfig { epsilon: 1.0 / 3.0, ..EmbedConfig::default() };
    let inner = EmbedConfig { epsilon: 1.0 / 6.0, ..EmbedConfig::default() };
    (outer, inner)
}

/// The builder of `Y`, the randomized layer, whose random tape is derived
/// from `seed` (Lemma 4 requires each layer's randomness to be
/// independent). `Y` holds Corollary 11's only random tape.
fn y_builder(seed: u64) -> RandomizedBuilder {
    RandomizedBuilder::with_seed(derive_seed(seed, 0x59))
}

/// The inner `Y ⊳ Z` builder with an independent random tape derived from
/// `seed`.
pub fn inner_yz_builder(seed: u64) -> EmbedBuilder<RandomizedBuilder, DeamortizedBuilder> {
    let (_, inner_cfg) = layered_configs();
    EmbedBuilder { f: y_builder(seed), r: DeamortizedBuilder, cfg: inner_cfg }
}

/// Give a copy of an **empty** Corollary 11 structure the random tape that
/// [`corollary11_builder`]`(seed)` builds with. `X` and `Z` take no seed,
/// and the build draws nothing from `Y`'s tape, so a clone of any empty
/// build of the same capacity and slot count, after this call, behaves
/// move for move like a fresh build from `seed`, at the cost of copying
/// memory instead of computing the R-shells of both levels.
pub fn install_y_tape(empty: &mut Corollary11, seed: u64) {
    debug_assert!(empty.is_empty(), "only an empty structure takes a new tape");
    let y = empty.shell_mut().sim_mut();
    y.policy_mut().replace_tape(y_builder(seed).tape());
}

/// Builder for Corollary 11's `X ⊳ (Y ⊳ Z)`.
pub fn corollary11_builder(seed: u64) -> Corollary11Builder {
    let (outer_cfg, _) = layered_configs();
    EmbedBuilder { f: AdaptiveBuilder, r: inner_yz_builder(seed), cfg: outer_cfg }
}

/// Corollary 11's structure for `n` elements, with all random tapes derived
/// from `seed`. Uses the builder's default slot budget, `⌈3.1445·n⌉ + 2`
/// slots (6,442 at n = 2,048), as the two builders' `min_slack` set it.
/// The inner `Y ⊳ Z` asks for 1.8747 slots per element it holds (the
/// deamortized `Z`'s 1.3 slots per shell element, 1.4267 shell elements
/// per element, plus 0.02), and the outer shell hands it 1.6667·n
/// elements (its F-slots and buffer slots); 1.8747 · 1.6667 + 0.02 is the
/// outer factor.
///
/// ```
/// use lll_core::ids::ElemId;
/// use lll_core::traits::ListLabeling;
/// let mut list = lll_embedding::corollary11(2048, 42);
/// assert_eq!(list.num_slots(), 6442);
/// for i in 0..128 {
///     list.insert(0, ElemId(i)); // hammer-insert: the adaptive layer's specialty
/// }
/// assert_eq!(list.len(), 128);
/// assert!(list.stats().max_deadweight <= 4); // Lemma 5
/// ```
pub fn corollary11(n: usize, seed: u64) -> Corollary11 {
    corollary11_builder(seed).build_default(n)
}

/// Builder for Corollary 12's learning-augmented layered structure, given
/// the per-insertion predictions and the error budget η.
pub fn corollary12_builder(
    eta: usize,
    predictions: Vec<usize>,
    seed: u64,
) -> Corollary12Builder<VecPredictor> {
    let (outer_cfg, _) = layered_configs();
    EmbedBuilder {
        f: PredictedBuilder { eta, predictor: VecPredictor::new(predictions) },
        r: inner_yz_builder(seed),
        cfg: outer_cfg,
    }
}

/// Corollary 12's structure for `n` elements.
pub fn corollary12(
    n: usize,
    eta: usize,
    predictions: Vec<usize>,
    seed: u64,
) -> Corollary12<VecPredictor> {
    corollary12_builder(eta, predictions, seed).build_default(n)
}
