//! [`ShardedBuilder`]: configuration entry point for [`ShardedMap`].

use crate::map::{ShardPolicy, ShardedMap};
use lll_api::{Backend, ListBuilder};

/// Configures and builds a [`ShardedMap`].
///
/// ```
/// use lll_api::Backend;
/// use lll_sharded::ShardedBuilder;
///
/// let map = ShardedBuilder::new()
///     .backend(Backend::Corollary11)
///     .seed(42)
///     .max_shard_len(1024)
///     .build::<u64, String>();
/// map.insert(7, "seven".to_string());
/// assert_eq!(map.get(&7).as_deref(), Some("seven"));
/// ```
#[derive(Clone, Debug)]
pub struct ShardedBuilder {
    backend: Backend,
    seed: u64,
    max_shard_len: usize,
    min_shard_len: usize,
    max_shards: usize,
}

impl Default for ShardedBuilder {
    fn default() -> Self {
        Self {
            backend: Backend::Corollary11,
            seed: 0x5AD,
            max_shard_len: 4096,
            min_shard_len: 256,
            max_shards: 1024,
        }
    }
}

impl ShardedBuilder {
    /// A builder with the defaults: the Corollary 11 layered backend per
    /// shard (the paper's reproduction, slower and larger than any one of
    /// its layers — see [`Backend::Corollary11`] for the measured trade),
    /// shards kept between 256 and 4096 entries, at most 1024 shards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the per-shard list-labeling algorithm.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Seed the per-shard random tapes (each shard derives an independent
    /// stream; runs are deterministic per seed **given** a deterministic
    /// operation interleaving).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The most entries a shard holds below the shard-count ceiling:
    /// a new key for a shard this full splits the shard before it lands,
    /// and a sorted batch that overfills a shard splits it afterwards (see
    /// [`ShardPolicy::max_shard_len`]). Clamped to ≥ 2.
    pub fn max_shard_len(mut self, len: usize) -> Self {
        self.max_shard_len = len.max(2);
        self
    }

    /// Merge a shard into a neighbor once it falls below this many
    /// entries. Clamped at build time to `max_shard_len / 4` so split
    /// halves are never immediately merge-eligible (maintenance always
    /// terminates; see [`ShardPolicy`]).
    pub fn min_shard_len(mut self, len: usize) -> Self {
        self.min_shard_len = len;
        self
    }

    /// Hard ceiling on the shard count (≥ 1). Past it, shards grow beyond
    /// `max_shard_len` rather than split.
    pub fn max_shards(mut self, n: usize) -> Self {
        self.max_shards = n.max(1);
        self
    }

    fn policy(&self) -> ShardPolicy {
        ShardPolicy {
            max_shard_len: self.max_shard_len,
            min_shard_len: self.min_shard_len.min(self.max_shard_len / 4),
            max_shards: self.max_shards,
        }
    }

    fn list_builder(&self) -> ListBuilder {
        ListBuilder::new().backend(self.backend)
    }

    /// An empty [`ShardedMap`] (one shard; splitting is data-driven).
    pub fn build<K: Ord + Clone, V>(&self) -> ShardedMap<K, V> {
        ShardedMap::new(self.list_builder(), self.seed, self.policy())
    }

    /// A [`ShardedMap`] pre-sharded from entries **sorted ascending by
    /// key**: the run is cut into half-full shards, each landed in one
    /// O(shard) bulk sweep. Panics if the keys are not ascending.
    pub fn build_from_sorted<K: Ord + Clone, V>(&self, entries: Vec<(K, V)>) -> ShardedMap<K, V> {
        ShardedMap::from_sorted(self.list_builder(), self.seed, self.policy(), entries)
    }
}
