//! Concurrency coverage for `ShardedMap`.
//!
//! * `stress_*`: an N-writer differential stress test per backend — four
//!   writer threads churn disjoint key stripes while tracking a private
//!   `BTreeMap` model each; every return value is compared op-by-op (the
//!   stripes are disjoint, so each thread's view of its own keys is
//!   sequentially consistent even under concurrent foreign writes), and the
//!   final map must equal the union of the models. The policy band is tight
//!   enough that the run splits shards; if the writers' removals merged
//!   none, a single-threaded drain of the lowest keys makes sure one
//!   merges.
//! * `scans_stay_sorted_under_concurrent_writers`: readers stitch range
//!   scans while writers churn; every stitched scan must be sorted and
//!   duplicate-free even though it is not an atomic snapshot.
//! * `readers_never_take_maintenance_under_churning_writer`: the read
//!   path's acceptance test — reader threads validate stable keys exactly
//!   and churned keys for torn values while one writer forces splits,
//!   merges, and directory publishes; no reader may have touched the
//!   maintenance lock (checked through the always-on per-thread
//!   acquisition counter).
//! * `range_stitching_matches_reference`: a single-threaded property test —
//!   cross-shard `range`/`to_vec` stitching equals a `BTreeMap` reference
//!   under churn that forces splits and merges.

use lll_api::Backend;
use lll_sharded::ShardedBuilder;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;

const THREADS: u64 = 4;

/// Dumps the map's structural-event trace if the surrounding test panics —
/// the split/merge history is exactly the context a shard-count or
/// divergence failure needs.
struct TraceDump(std::sync::Arc<lll_obs::TraceRing>);

impl Drop for TraceDump {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        eprintln!("--- structural trace ({} events recorded) ---", self.0.recorded());
        for e in self.0.snapshot() {
            eprintln!("  #{} {} a={} b={} c={}", e.seq, e.kind.name(), e.a, e.b, e.c);
        }
    }
}

fn differential_stress(backend: Backend) {
    let ops_per_thread: u64 = match backend {
        // The layered compositions carry real constant factors in debug
        // builds; fewer ops still cross the split and merge thresholds.
        Backend::Corollary11 => 1200,
        _ => 2500,
    };
    let keyspace: u64 = ops_per_thread / 6;
    let map = Arc::new(
        ShardedBuilder::new()
            .backend(backend)
            .seed(0xFEED)
            .max_shard_len(64)
            .min_shard_len(16)
            .build::<u64, u64>(),
    );
    let _trace_guard = TraceDump(map.trace());
    let parts: Vec<BTreeMap<u64, u64>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    let mut model = BTreeMap::new();
                    let mut rng = StdRng::seed_from_u64(tid * 977 + 1);
                    for i in 0..ops_per_thread {
                        // Striped keys: thread `tid` owns k ≡ tid (mod THREADS).
                        let k = rng.gen_range(0..keyspace) * THREADS + tid;
                        let draining = i > ops_per_thread * 3 / 4;
                        if !draining && rng.gen_bool(0.65) {
                            assert_eq!(
                                map.insert(k, i),
                                model.insert(k, i),
                                "insert({k}) diverged on {}",
                                backend.name()
                            );
                        } else {
                            assert_eq!(
                                map.remove(&k),
                                model.remove(&k),
                                "remove({k}) diverged on {}",
                                backend.name()
                            );
                        }
                        if i % 32 == 0 {
                            assert_eq!(map.get(&k), model.get(&k).copied());
                            assert_eq!(map.contains_key(&k), model.contains_key(&k));
                        }
                    }
                    model
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("writer thread panicked")).collect()
    });
    map.check_invariants();
    let mut expected = BTreeMap::new();
    for part in parts {
        expected.extend(part);
    }
    // Only a removal that takes a shard across `min_shard_len` merges, and
    // whether the writers' removals made one depends on how they
    // interleaved. So this thread drains the lowest keys, each removal
    // checked against the merged models, until a merge: once the lowest
    // shard is empty, its neighbor's crossing merges the two.
    let mut drained = 0;
    while map.stats().merges == 0 {
        let Some((&k, _)) = expected.first_key_value() else { break };
        assert_eq!(map.remove(&k), expected.remove(&k), "drain of {k} on {}", backend.name());
        drained += 1;
    }
    map.check_invariants();
    assert_eq!(map.len(), expected.len(), "{} length diverged", backend.name());
    assert_eq!(
        map.to_vec(),
        expected.into_iter().collect::<Vec<_>>(),
        "{} contents diverged",
        backend.name()
    );
    let stats = map.stats();
    assert!(stats.splits > 0, "{} run never split a shard", backend.name());
    assert!(stats.merges > 0, "{} run never merged a shard", backend.name());
    // Maintenance keeps shards inside the policy band, so the skew between
    // the fullest and emptiest shard is bounded: no shard may exceed the
    // split threshold (feasible here — the run stays far below max_shards)
    // and, with more than one shard, none may sit below a merge-proof
    // remainder. The mean sits between the extremes by construction.
    assert!(
        stats.max_shard_len() <= 64,
        "{}: shard of {} exceeds the split threshold",
        backend.name(),
        stats.max_shard_len()
    );
    if stats.shards > 1 {
        assert!(
            stats.min_shard_len() >= 1,
            "{}: maintenance left an empty shard standing",
            backend.name()
        );
    }
    assert!(stats.min_shard_len() as f64 <= stats.mean_shard_len());
    assert!(stats.mean_shard_len() <= stats.max_shard_len() as f64);
    // Every striped writer touched every shard's key range: per-shard
    // write counts must account for all 4 × ops_per_thread mutations and
    // the drain's.
    assert_eq!(
        stats.shard_writes.iter().sum::<u64>(),
        THREADS * ops_per_thread + drained,
        "{}: write counts lost under concurrency",
        backend.name()
    );
}

#[test]
fn stress_classic() {
    differential_stress(Backend::Classic);
}

#[test]
fn stress_deamortized() {
    differential_stress(Backend::Deamortized);
}

#[test]
fn stress_randomized() {
    differential_stress(Backend::Randomized);
}

#[test]
fn stress_adaptive() {
    differential_stress(Backend::Adaptive);
}

#[test]
fn stress_corollary11() {
    differential_stress(Backend::Corollary11);
}

/// Value a stable key carries for its whole life: a fixed transform of
/// the key, so any torn read (a value from a different key, a partial
/// word, stale garbage) is detectable by recomputation.
fn stable_value(k: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5_A5A5_A5A5_A5A5
}

/// Every value a churned key may legally carry (the writer always writes
/// `churn_value(k)`), so a concurrent read must see exactly this or
/// absence — anything else is a torn read.
fn churn_value(k: u64) -> u64 {
    k.rotate_left(17) ^ 0x5A5A_5A5A_5A5A_5A5A
}

/// The read-path acceptance test. Keyspace split: even keys
/// are *stable* (inserted once, never touched again — readers assert
/// their exact values), odd keys are *churned* by a single writer whose
/// insert/remove waves force shard splits, merges, and directory
/// publishes under the readers' feet. Each read loads the directory from
/// its stripe (a shared lock held for one `Arc` clone) and may meet a
/// retired shard and reload. Readers run pure point reads and assert:
///
/// * stable keys always present with the exact expected value,
/// * churned keys either absent or carrying exactly `churn_value(k)` —
///   the torn-read detector,
/// * the reader thread never acquired the maintenance mutex:
///   [`maintenance_acquisitions`] is per-thread and always-on, so a
///   zero delta proves the hot read path stayed off it even while the
///   writer was splitting, merging and publishing.
///
/// Debug builds scale the op counts down (the layered write path carries
/// real debug-mode constants); release runs the full volume.
#[test]
fn readers_never_take_maintenance_under_churning_writer() {
    let readers: u64 = 4;
    let (reads_per_thread, writer_waves): (u64, u64) =
        if cfg!(debug_assertions) { (30_000, 6) } else { (150_000, 20) };
    let stable_keys: u64 = 600;
    // Churned odd keys reach ~3x past the stable range, so a drain wave
    // empties the high shards outright and forces merges, not just len
    // shrinkage inside the policy band.
    let churn_keys: u64 = 1800;
    let map = Arc::new(
        ShardedBuilder::new()
            .backend(Backend::Corollary11)
            .seed(0xC0FFEE)
            .max_shard_len(96)
            .min_shard_len(24)
            .build::<u64, u64>(),
    );
    let _trace_guard = TraceDump(map.trace());
    for k in (0..stable_keys * 2).step_by(2) {
        map.insert(k, stable_value(k));
    }
    let stop = std::sync::atomic::AtomicBool::new(false);
    thread::scope(|s| {
        let writer = {
            let map = Arc::clone(&map);
            let stop = &stop;
            s.spawn(move || {
                // Insert waves double the live set (splits + directory
                // growth); drain waves pull it back through the merge
                // threshold. Loop until every reader is done so churn
                // covers the whole read phase.
                let mut wave = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || wave < writer_waves {
                    for k in 0..churn_keys {
                        map.insert(k * 2 + 1, churn_value(k * 2 + 1));
                    }
                    for k in 0..churn_keys {
                        map.remove(&(k * 2 + 1));
                    }
                    wave += 1;
                }
            })
        };
        let handles: Vec<_> = (0..readers)
            .map(|tid| {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    let maint_before = lll_sharded::maintenance_acquisitions();
                    let mut rng = StdRng::seed_from_u64(tid + 7000);
                    let mut stable_hits = 0u64;
                    for _ in 0..reads_per_thread {
                        if rng.gen_bool(0.5) {
                            let k = rng.gen_range(0..stable_keys) * 2;
                            assert_eq!(
                                map.get(&k),
                                Some(stable_value(k)),
                                "stable key {k} torn or lost under churn"
                            );
                            stable_hits += 1;
                        } else {
                            let k = rng.gen_range(0..churn_keys) * 2 + 1;
                            if let Some(v) = map.get(&k) {
                                assert_eq!(
                                    v,
                                    churn_value(k),
                                    "churned key {k} returned torn value"
                                );
                            }
                            // contains_key must agree with get's modality
                            // class (absent or present are both legal
                            // mid-churn; a panic or torn value is not).
                            let _ = map.contains_key(&k);
                        }
                    }
                    assert_eq!(
                        lll_sharded::maintenance_acquisitions(),
                        maint_before,
                        "reader thread {tid} acquired the maintenance lock on the read path"
                    );
                    stable_hits
                })
            })
            .collect();
        // Stop the writer before a reader's panic propagates: the scope
        // waits for the writer, and the writer runs until `stop`.
        let readers_done: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().expect("writer thread panicked");
        let total_stable: u64 =
            readers_done.into_iter().map(|r| r.expect("reader thread panicked")).sum();
        assert!(total_stable > 0);
    });
    map.check_invariants();
    let stats = map.stats();
    assert!(stats.splits > 0, "writer churn never split a shard");
    assert!(stats.merges > 0, "writer churn never merged a shard");
}

#[test]
fn scans_stay_sorted_under_concurrent_writers() {
    let map = Arc::new(
        ShardedBuilder::new().seed(9).max_shard_len(48).min_shard_len(12).build::<u64, u64>(),
    );
    thread::scope(|s| {
        for tid in 0..2u64 {
            let map = Arc::clone(&map);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(tid + 50);
                for i in 0..3000u64 {
                    let k = rng.gen_range(0..800u64) * 2 + tid;
                    if rng.gen_bool(0.6) {
                        map.insert(k, i);
                    } else {
                        map.remove(&k);
                    }
                }
            });
        }
        for tid in 0..2u64 {
            let map = Arc::clone(&map);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(tid + 90);
                for _ in 0..300 {
                    let a = rng.gen_range(0..1600u64);
                    let b = rng.gen_range(0..1600u64);
                    let (lo, hi) = (a.min(b), a.max(b));
                    let scan = map.range(lo..=hi);
                    assert!(
                        scan.windows(2).all(|w| w[0].0 < w[1].0),
                        "stitched scan unsorted or duplicated"
                    );
                    assert!(scan.iter().all(|&(k, _)| (lo..=hi).contains(&k)));
                    map.for_each(|_, _| {});
                }
            });
        }
    });
    map.check_invariants();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn range_stitching_matches_reference(
        ops in vec((0u32..600, 0u32..4), 500),
        queries in vec((0u32..650, 0u32..650), 24),
    ) {
        let map = ShardedBuilder::new()
            .seed(3)
            .backend(Backend::Classic)
            .max_shard_len(24)
            .min_shard_len(6)
            .build::<u32, u32>();
        let mut model = BTreeMap::new();
        // Random churn, then a drain wave: together they force shard
        // splits and merges around the stitched queries below.
        for (i, &(k, action)) in ops.iter().enumerate() {
            if action == 0 {
                prop_assert_eq!(map.remove(&k), model.remove(&k));
            } else {
                prop_assert_eq!(map.insert(k, i as u32), model.insert(k, i as u32));
            }
        }
        for &(k, _) in ops.iter().skip(ops.len() / 2) {
            prop_assert_eq!(map.remove(&k), model.remove(&k));
        }
        map.check_invariants();
        prop_assert_eq!(
            map.to_vec(),
            model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        );
        for &(a, b) in &queries {
            let (lo, hi) = (a.min(b), a.max(b));
            prop_assert_eq!(
                map.range(lo..hi),
                model.range(lo..hi).map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                map.range((std::ops::Bound::Excluded(lo), std::ops::Bound::Included(hi))),
                model
                    .range((std::ops::Bound::Excluded(lo), std::ops::Bound::Included(hi)))
                    .map(|(k, v)| (*k, *v))
                    .collect::<Vec<_>>()
            );
        }
    }
}
