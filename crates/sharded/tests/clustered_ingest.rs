//! A long clustered ingest stays under the shard ceiling.
//!
//! A shard that is taking an ascending run of point inserts splits at a
//! quarter of `max_shard_len`, but only while the map holds fewer than
//! `max_shards / 2` shards (`ShardPolicy::split_len`). Without that gate a
//! long clustered ingest spends the whole ceiling on small shards, and the
//! shards that take runs after that grow past `max_shard_len`.
//!
//! The stream is ladderbench's `embedded_clustered_ingest`: a preload cut
//! into half-full shards, then ascending runs of fresh keys at random
//! anchors, interleaved with gets. It is scaled down so that it runs in a
//! debug build too: shard and run lengths by 16, shard counts by 8. At
//! that scale the benchmark's 10-second stream is 30 runs; this one is 90.

use lll_sharded::ShardedBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const MAX_SHARD_LEN: usize = 256;
const MIN_SHARD_LEN: usize = 16;
const MAX_SHARDS: usize = 128;
/// 16 half-full shards.
const PRELOAD: usize = 16 * MAX_SHARD_LEN / 2;
const RUN_LEN: u64 = 62;
const RUNS: usize = 90;

#[test]
fn a_long_clustered_ingest_stays_under_the_shard_ceiling() {
    let mut rng = StdRng::seed_from_u64(1701);
    let mut model = BTreeMap::new();
    while model.len() < PRELOAD {
        let k = rng.gen::<u64>() >> 1;
        model.insert(k, k);
    }
    let map = ShardedBuilder::new()
        .max_shard_len(MAX_SHARD_LEN)
        .min_shard_len(MIN_SHARD_LEN)
        .max_shards(MAX_SHARDS)
        .build_from_sorted(model.iter().map(|(&k, &v)| (k, v)).collect());
    assert_eq!(map.shard_count(), 16);
    let mut peak_shards = 0;
    for _ in 0..RUNS {
        let anchor = loop {
            let anchor = rng.gen::<u64>() >> 1;
            if model.range(anchor..=anchor + RUN_LEN).next().is_none() {
                break anchor;
            }
        };
        for k in anchor..anchor + RUN_LEN {
            assert_eq!(map.insert(k, k), model.insert(k, k), "insert({k})");
            if rng.gen_bool(0.25) {
                let probe = anchor + rng.gen_range(0..=k - anchor);
                assert_eq!(map.get(&probe), model.get(&probe).copied(), "get({probe})");
            }
        }
        let stats = map.stats();
        peak_shards = peak_shards.max(stats.shards);
        assert!(stats.shards < MAX_SHARDS, "the ingest filled all {MAX_SHARDS} shards");
        assert!(
            stats.max_shard_len() <= MAX_SHARD_LEN,
            "a shard grew to {} entries (max_shard_len {MAX_SHARD_LEN}) among {} shards",
            stats.max_shard_len(),
            stats.shards
        );
    }
    // Early splits spent half the ceiling; ordinary splits went on past it.
    assert!(peak_shards > MAX_SHARDS / 2, "only {peak_shards} shards");
    map.check_invariants();
    assert_eq!(map.to_vec(), model.into_iter().collect::<Vec<_>>());
}
