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
    /// The shards' backend and the map's seed; the backend default is
    /// [`ListBuilder`]'s.
    list: ListBuilder,
    max_shard_len: usize,
    min_shard_len: usize,
    max_shards: usize,
}

impl Default for ShardedBuilder {
    fn default() -> Self {
        Self {
            list: ListBuilder::new().seed(0x5AD),
            max_shard_len: 4096,
            min_shard_len: 256,
            max_shards: 1024,
        }
    }
}

impl ShardedBuilder {
    /// A builder with the defaults: [`ListBuilder`]'s default backend per
    /// shard, the Corollary 11 layered structure (the paper's
    /// reproduction, slower and larger than any one of its layers — see
    /// [`Backend::Corollary11`] for the measured trade), shards kept
    /// between 256 and 4096 entries, at most 1024 shards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the per-shard list-labeling algorithm.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.list = self.list.backend(backend);
        self
    }

    /// Seed the per-shard random tapes (each shard derives an independent
    /// stream; runs are deterministic per seed **given** a deterministic
    /// operation interleaving).
    pub fn seed(mut self, seed: u64) -> Self {
        self.list = self.list.seed(seed);
        self
    }

    /// The most entries a shard holds below the shard-count ceiling:
    /// a new key for a shard this full splits the shard before it lands,
    /// and a sorted batch that overfills a shard splits it afterwards (see
    /// [`ShardPolicy::max_shard_len`]). A shard taking an ascending run of
    /// point inserts splits at `max(len / 4, 4 · min_shard_len)` instead
    /// while the map has fewer than `max_shards / 2` shards (see
    /// [`ShardPolicy`]). Clamped at build time to ≥ 2.
    ///
    /// Smaller shards make Corollary 11's inserts on ascending runs
    /// cheaper and cost memory: on the ladder, 2,048 and 1,024 cut the
    /// clustered insert mean by 15% and 25% against 4,096, and raised
    /// `rss_bytes_per_entry` by 1.1% and 4.3% (see `docs/sharding.md`).
    pub fn max_shard_len(mut self, len: usize) -> Self {
        self.max_shard_len = len;
        self
    }

    /// Merge a shard into a neighbor once it falls below this many
    /// entries; also the length an ascending run must reach before its
    /// shard splits early, if at least `max_shard_len / 16`. Clamped at
    /// build time to `max_shard_len / 4` so
    /// split halves are never immediately merge-eligible (maintenance
    /// always terminates; see [`ShardPolicy`]).
    pub fn min_shard_len(mut self, len: usize) -> Self {
        self.min_shard_len = len;
        self
    }

    /// Hard ceiling on the shard count, clamped at build time to ≥ 1. Past
    /// it, shards grow beyond `max_shard_len` rather than split. Early
    /// splits of shards taking ascending runs stop at half of it.
    pub fn max_shards(mut self, n: usize) -> Self {
        self.max_shards = n;
        self
    }

    /// An empty [`ShardedMap`] (one shard; splitting is data-driven).
    pub fn build<K: Ord + Clone, V>(&self) -> ShardedMap<K, V> {
        self.build_from_sorted(Vec::new())
    }

    /// A [`ShardedMap`] pre-sharded from entries **sorted ascending by
    /// key**: the run is cut into half-full shards, each landed in one
    /// O(shard) bulk sweep. Panics if the keys are not ascending.
    pub fn build_from_sorted<K: Ord + Clone, V>(&self, entries: Vec<(K, V)>) -> ShardedMap<K, V> {
        let policy = ShardPolicy::new(self.max_shard_len, self.min_shard_len, self.max_shards);
        // A builder of the map's own: its shards share one template store,
        // and no other map's do.
        ShardedMap::from_sorted(ListBuilder::from_config(self.list.config()), policy, entries)
    }
}
