//! Multi-writer insert throughput: `ShardedMap` versus one mutex-guarded
//! `LabelMap` (the whole-map coarse lock a caller would otherwise reach
//! for), on a uniform-random keyed workload.
//!
//! The acceptance bar for the sharded subsystem is printed explicitly:
//! 4 writers on `ShardedMap` must beat a single `Mutex<LabelMap>` fed by
//! the same 4 writers by ≥ 2×. Two effects stack in the shards' favor:
//!
//! * **independence** — writers on different rebalance domains never
//!   contend (only visible with > 1 core), and
//! * **bounded domains** — each shard's rebalance and rank-search costs
//!   stay at O(polylog shard) while the monolithic map's grow with the
//!   total n, so the ratio *widens* as the map grows even on one core.
//!
//! Run with `cargo bench --bench sharded_throughput` (release codegen).

use lll_api::{Backend, LabelMap, ListBuilder};
use lll_bench::mix;
use lll_sharded::{ShardedBuilder, ShardedMap};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

fn keys_for(tid: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| mix((tid << 32) | i)).collect()
}

/// Ops/second for `threads` writers inserting into one `Mutex<LabelMap>`.
fn run_mutex(backend: Backend, threads: u64, n_per: usize) -> f64 {
    let map: Arc<Mutex<LabelMap<u64, u64>>> =
        Arc::new(Mutex::new(ListBuilder::new().backend(backend).seed(1).label_map()));
    let start = Instant::now();
    thread::scope(|s| {
        for tid in 0..threads {
            let map = Arc::clone(&map);
            s.spawn(move || {
                for (i, k) in keys_for(tid, n_per).into_iter().enumerate() {
                    map.lock().unwrap().insert(k, i as u64);
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (threads as usize * n_per) as f64 / secs
}

/// Ops/second for `threads` writers inserting into one `ShardedMap`.
fn run_sharded(map: &Arc<ShardedMap<u64, u64>>, threads: u64, n_per: usize) -> f64 {
    let start = Instant::now();
    thread::scope(|s| {
        for tid in 0..threads {
            let map = Arc::clone(map);
            s.spawn(move || {
                for (i, k) in keys_for(tid, n_per).into_iter().enumerate() {
                    map.insert(k, i as u64);
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let total = threads as usize * n_per;
    assert_eq!(map.len(), total, "all inserts must land (keys are distinct)");
    total as f64 / secs
}

fn bench_backend(backend: Backend, builder: &ShardedBuilder, n_per: usize, acceptance: bool) {
    println!("== {} backend, {} inserts/writer, uniform-random u64 keys ==", backend.name(), n_per);
    for threads in [1u64, 2, 4] {
        let map = Arc::new(builder.build::<u64, u64>());
        let sharded = run_sharded(&map, threads, n_per);
        let stats = map.stats();
        println!(
            "sharded_throughput/{}/sharded/{threads}w: {sharded:>9.0} ops/s \
             ({} shards, {} splits)",
            backend.name(),
            stats.shards,
            stats.splits
        );
    }
    let mutex1 = run_mutex(backend, 1, n_per);
    let mutex4 = run_mutex(backend, 4, n_per);
    println!("sharded_throughput/{}/mutex/1w:   {mutex1:>9.0} ops/s", backend.name());
    println!("sharded_throughput/{}/mutex/4w:   {mutex4:>9.0} ops/s", backend.name());
    let map = Arc::new(builder.build::<u64, u64>());
    let sharded4 = run_sharded(&map, 4, n_per);
    let vs_contended = sharded4 / mutex4;
    println!(
        "{} {}: 4-writer ShardedMap = {:.2}x the 4-writer Mutex<LabelMap>, \
         {:.2}x the 1-writer Mutex<LabelMap>{}",
        if acceptance { "ACCEPTANCE" } else { "INFO" },
        backend.name(),
        vs_contended,
        sharded4 / mutex1,
        if acceptance {
            if vs_contended >= 2.0 {
                " (bar: >= 2x) -> PASS"
            } else {
                " (bar: >= 2x) -> FAIL"
            }
        } else {
            ""
        }
    );
}

fn main() {
    let cores = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "{cores} core(s) available; with 1 core all speedups below come from bounded \
         rebalance domains alone, with >= 4 the per-shard lock independence stacks on top"
    );
    // Acceptance workload: the classic PMA has the lightest per-insert
    // constant of the five backends, making the coarse-locked baseline as
    // fast as it can be — the hardest case for the sharded map to beat.
    bench_backend(
        Backend::Classic,
        &ShardedBuilder::new().backend(Backend::Classic),
        150_000,
        true,
    );
    // The production-default layered backend: its amortized cost barely
    // grows with n (that is Corollary 11's point), so bounded domains win
    // less on one core; shards are kept larger because its per-shard
    // rebuild constants are heavier.
    bench_backend(
        Backend::Corollary11,
        &ShardedBuilder::new().backend(Backend::Corollary11).max_shard_len(16_384),
        75_000,
        false,
    );
}
