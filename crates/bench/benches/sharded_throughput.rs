//! Multi-writer insert throughput: `ShardedMap` versus one mutex-guarded
//! `LabelMap` (the whole-map coarse lock a caller would otherwise reach
//! for), on a uniform-random keyed workload; then one writer's ascending
//! runs on the default builder, the sharding layer's own figure for
//! clustered ingest.
//!
//! The acceptance bar for the sharded subsystem is printed explicitly:
//! 4 writers on `ShardedMap` must beat a single `Mutex<LabelMap>` fed by
//! the same 4 writers by ≥ 2×. The verdict is the median ratio over
//! alternating pairs of a 4-writer sharded run and a 4-writer mutex run,
//! printed with its quartiles: on a 2-vCPU host one run's 1-writer
//! sharded rate spread over 0.83M–1.71M ops/s, and a verdict from single
//! runs read both PASS and FAIL on the same build. Two effects stack in
//! the shards' favor:
//!
//! * **independence** — writers on different rebalance domains never
//!   contend (only visible with > 1 core), and
//! * **bounded domains** — each shard's rebalance and rank-search costs
//!   stay at O(polylog shard) while the monolithic map's grow with the
//!   total n, so the ratio *widens* as the map grows even on one core.
//!
//! Modes:
//!
//! * full (default): `cargo bench -p lll-bench --bench sharded_throughput`
//!   — 150k (classic) and 75k (Corollary 11) uniform inserts per writer,
//!   11 pairs per ratio, and 200 ascending runs.
//! * smoke (CI): `... -- --smoke` — 5k uniform inserts per writer, 3
//!   pairs and 20 runs; the acceptance line is printed as INFO.

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

/// Inserts/second for one writer feeding `runs` ascending runs of
/// `run_len` fresh keys, each at its own random anchor, into a map from
/// `builder`; and the map's shard and split counts at the end.
fn run_ascending(builder: &ShardedBuilder, runs: u64, run_len: u64) -> (f64, usize, u64) {
    let map = builder.build::<u64, u64>();
    let start = Instant::now();
    for run in 0..runs {
        // Anchors below 2^63 leave room for the run above them; two runs
        // overlap with negligible odds.
        let anchor = mix(run) >> 1;
        for k in anchor..anchor + run_len {
            map.insert(k, k);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = map.stats();
    assert_eq!(stats.len as u64, runs * run_len, "all inserts must land (runs are disjoint)");
    ((runs * run_len) as f64 / secs, stats.shards, stats.splits)
}

/// Quartiles of `xs`.
fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| xs[q * (xs.len() - 1) / 4])
}

fn bench_backend(
    backend: Backend,
    builder: &ShardedBuilder,
    n_per: usize,
    pairs: usize,
    acceptance: bool,
) {
    let name = backend.name();
    println!("== {name} backend, {n_per} inserts/writer, uniform-random u64 keys ==");
    for threads in [1u64, 2] {
        let map = Arc::new(builder.build::<u64, u64>());
        let sharded = run_sharded(&map, threads, n_per);
        let stats = map.stats();
        println!(
            "sharded_throughput/{name}/sharded/{threads}w: {sharded:>9.0} ops/s \
             ({} shards, {} splits)",
            stats.shards, stats.splits
        );
    }
    let mutex1 = run_mutex(backend, 1, n_per);
    println!("sharded_throughput/{name}/mutex/1w:   {mutex1:>9.0} ops/s");
    // Alternate which side of a pair runs first, so drift in the host's
    // speed hits both sides alike.
    let (mut sharded4, mut mutex4) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for pair in 0..pairs {
        let sharded = || run_sharded(&Arc::new(builder.build::<u64, u64>()), 4, n_per);
        if pair % 2 == 0 {
            sharded4.push(sharded());
            mutex4.push(run_mutex(backend, 4, n_per));
        } else {
            mutex4.push(run_mutex(backend, 4, n_per));
            sharded4.push(sharded());
        }
    }
    let ratios = sharded4.iter().zip(&mutex4).map(|(s, m)| s / m).collect();
    let [q1, ratio, q3] = quartiles(ratios);
    let [_, sharded4, _] = quartiles(sharded4);
    let [_, mutex4, _] = quartiles(mutex4);
    println!("sharded_throughput/{name}/sharded/4w: {sharded4:>9.0} ops/s (median of {pairs})");
    println!("sharded_throughput/{name}/mutex/4w:   {mutex4:>9.0} ops/s (median of {pairs})");
    let verdict = match (acceptance, ratio >= 2.0) {
        (false, _) => "",
        (true, true) => " (bar: >= 2x) -> PASS",
        (true, false) => " (bar: >= 2x) -> FAIL",
    };
    println!(
        "{} {name}: 4-writer ShardedMap = {ratio:.2}x the 4-writer Mutex<LabelMap>, median of \
         {pairs} alternating pairs (quartiles {q1:.2}x, {q3:.2}x); {:.2}x the 1-writer \
         Mutex<LabelMap>{verdict}",
        if acceptance { "ACCEPTANCE" } else { "INFO" },
        sharded4 / mutex1,
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cores = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "{cores} core(s) available; with 1 core all speedups below come from bounded \
         rebalance domains alone, with >= 4 the per-shard lock independence stacks on top"
    );
    // Acceptance workload: the classic PMA has the lightest per-insert
    // constant of the five backends, making the coarse-locked baseline as
    // fast as it can be — the hardest case for the sharded map to beat.
    let pairs = if smoke { 3 } else { 11 };
    bench_backend(
        Backend::Classic,
        &ShardedBuilder::new().backend(Backend::Classic),
        if smoke { 5_000 } else { 150_000 },
        pairs,
        !smoke,
    );
    // The default layered backend at the default policy. Its cost per
    // insert grows with the shard an ascending run lands in: on the
    // ladder's clustered ingest, `max_shard_len` 2,048 and 1,024 cut the
    // insert mean by 15% and 25%, while on uniform keys 1,024 cost 2.9% of
    // op time and every workload more memory (see docs/sharding.md). So
    // the policy keeps 4,096 and splits only a shard that takes an
    // ascending run early, at a quarter of that.
    bench_backend(
        Backend::Corollary11,
        &ShardedBuilder::new().backend(Backend::Corollary11),
        if smoke { 5_000 } else { 75_000 },
        pairs,
        false,
    );
    let runs = if smoke { 20 } else { 200 };
    println!("== default builder, one writer, {runs} ascending runs of 1,000 fresh keys ==");
    let (inserts, shards, splits) = run_ascending(&ShardedBuilder::new(), runs, 1000);
    println!(
        "sharded_throughput/default/ascending_runs/1w: {inserts:>9.0} inserts/s \
         ({shards} shards, {splits} splits)"
    );
}
