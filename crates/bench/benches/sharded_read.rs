//! `sharded_read` — machine-readable read-scaling benchmark for the
//! `ShardedMap` read path.
//!
//! Measures `ShardedMap::get` throughput for 1/2/4/8 reader threads,
//! each configuration twice: quiescent (no writer) and with one
//! *churning* writer running insert/remove waves that force shard
//! splits, merges, and directory growth under the readers. Reports
//! sustained reads/s and the per-configuration scaling factor versus the
//! single reader.
//!
//! A third phase pins the single-reader overhead story: one reader on
//! `ShardedMap` versus one reader on a plain `Mutex<LabelMap>`
//! (uncontended lock, the cheapest possible baseline on one thread) over
//! the same warm keyset. The target is that the sharded read costs < 5%
//! more than what a single-threaded map would pay. A sharded read is a
//! shared lock on the thread's directory stripe and an `Arc` clone, the
//! owning shard's shared lock, a retired-flag check and one per-shard
//! read counter; the baseline is one mutex acquisition.
//!
//! Results are printed as JSON and — in full mode — written to
//! `BENCH_sharded_read.json` at the repo root, committed so subsequent
//! PRs can diff read-path performance.
//!
//! Scaling target: 8 readers with a churning writer should sustain ≥ 4×
//! the 1-reader ops/s — a *parallelism* claim that requires ≥ 8 hardware
//! threads to observe, and is asserted in full mode only there. On fewer
//! cores the run prints the measured factor with an INFO caveat instead
//! of failing: time-sliced readers cannot scale, and pretending otherwise
//! would just pin a lie into the JSON.
//!
//! Modes:
//!
//! * full (default): `cargo bench -p lll-bench --bench sharded_read`
//!   — 200k reads/thread, 100k-key map, writes the JSON file.
//! * smoke (CI): `... -- --smoke` — 20k reads/thread, 10k-key map,
//!   JSON to stdout only, no ratio assertions (shared runners).

use lll_api::{Backend, LabelMap, ListBuilder};
use lll_bench::mix;
use lll_bench::report::Json;
use lll_sharded::{ShardedBuilder, ShardedMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

fn build_map(keyspace: u64) -> Arc<ShardedMap<u64, u64>> {
    let map =
        Arc::new(ShardedBuilder::new().backend(Backend::Classic).seed(29).build::<u64, u64>());
    for k in 0..keyspace {
        map.insert(k, k ^ 0xFF);
    }
    map
}

struct ReadResult {
    readers: u64,
    ops_per_sec: f64,
    writer_waves: u64,
}

/// `readers` threads × `reads_per` random point reads over `keyspace`
/// warm keys; when `churn` is set, one extra thread runs insert/remove
/// waves (keys above the read range, so reads stay deterministic) until
/// every reader finishes.
fn run_readers(keyspace: u64, readers: u64, reads_per: u64, churn: bool) -> ReadResult {
    let map = build_map(keyspace);
    let stop = AtomicBool::new(false);
    let mut writer_waves = 0u64;
    let start = Instant::now();
    thread::scope(|s| {
        let writer = churn.then(|| {
            let map = Arc::clone(&map);
            let stop = &stop;
            s.spawn(move || {
                let mut waves = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for k in 0..keyspace / 4 {
                        map.insert(keyspace + k, k);
                    }
                    for k in 0..keyspace / 4 {
                        map.remove(&(keyspace + k));
                    }
                    waves += 1;
                }
                waves
            })
        });
        let handles: Vec<_> = (0..readers)
            .map(|tid| {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    let mut acc = 0u64;
                    for i in 0..reads_per {
                        let k = mix((tid << 40) | i) % keyspace;
                        acc ^= map.get(&k).expect("warm key present");
                    }
                    acc
                })
            })
            .collect();
        let mut acc = 0u64;
        for h in handles {
            acc ^= h.join().expect("reader thread");
        }
        std::hint::black_box(acc);
        stop.store(true, Ordering::Relaxed);
        if let Some(w) = writer {
            writer_waves = w.join().expect("writer thread");
        }
    });
    let secs = start.elapsed().as_secs_f64();
    ReadResult { readers, ops_per_sec: (readers * reads_per) as f64 / secs, writer_waves }
}

/// Single-reader overhead: reads/s on the sharded read path versus
/// an uncontended `Mutex<LabelMap>` over the same warm keys.
fn run_overhead(keyspace: u64, reads: u64) -> (f64, f64) {
    let map = build_map(keyspace);
    let t = Instant::now();
    let mut acc = 0u64;
    for i in 0..reads {
        acc ^= map.get(&(mix(i) % keyspace)).expect("warm key");
    }
    std::hint::black_box(acc);
    let sharded = reads as f64 / t.elapsed().as_secs_f64();

    let base: Mutex<LabelMap<u64, u64>> =
        Mutex::new(ListBuilder::new().backend(Backend::Classic).seed(29).label_map());
    for k in 0..keyspace {
        base.lock().unwrap().insert(k, k ^ 0xFF);
    }
    let t = Instant::now();
    let mut acc = 0u64;
    for i in 0..reads {
        acc ^= base.lock().unwrap().get(&(mix(i) % keyspace)).copied().expect("warm key");
    }
    std::hint::black_box(acc);
    let locked = reads as f64 / t.elapsed().as_secs_f64();
    (sharded, locked)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (keyspace, reads_per) = if smoke { (10_000u64, 20_000u64) } else { (100_000, 200_000) };
    let cores = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!(
        "sharded_read: {cores} core(s); the >= 4x 8-reader scaling target needs >= 8 \
         hardware threads — fewer cores report measured factors with an INFO caveat"
    );

    let mut quiescent = Vec::new();
    let mut churned = Vec::new();
    for readers in [1u64, 2, 4, 8] {
        eprintln!("sharded_read: {readers} reader(s), quiescent ...");
        quiescent.push(run_readers(keyspace, readers, reads_per, false));
        eprintln!("sharded_read: {readers} reader(s), churning writer ...");
        churned.push(run_readers(keyspace, readers, reads_per, true));
    }
    eprintln!("sharded_read: single-reader overhead vs Mutex<LabelMap> ...");
    let (sharded_1r, locked_1r) = run_overhead(keyspace, reads_per);
    let overhead_pct = (locked_1r / sharded_1r - 1.0) * 100.0;

    let scale8 = churned[3].ops_per_sec / churned[0].ops_per_sec;
    let verdict = if cores >= 8 {
        if scale8 >= 4.0 {
            "ACCEPTANCE -> PASS"
        } else {
            "ACCEPTANCE -> FAIL"
        }
    } else {
        "INFO (insufficient cores for the parallelism claim)"
    };
    println!(
        "{verdict}: 8 readers + churning writer = {scale8:.2}x the 1-reader throughput \
         (bar: >= 4x with >= 8 cores); single-reader overhead vs uncontended \
         Mutex<LabelMap>: {overhead_pct:+.1}%"
    );
    if !smoke && cores >= 8 {
        assert!(scale8 >= 4.0, "8-reader scaling {scale8:.2}x under the 4x bar");
    }

    let run_rows = |runs: &[ReadResult]| -> Vec<Json> {
        let base = runs[0].ops_per_sec;
        runs.iter()
            .map(|r| {
                Json::new()
                    .int("readers", r.readers)
                    .num("ops_per_sec", r.ops_per_sec, 0)
                    .num("scale_vs_1", r.ops_per_sec / base, 2)
                    .int("writer_waves", r.writer_waves)
            })
            .collect()
    };
    let single_reader = Json::new()
        .num("sharded_reads_per_sec", sharded_1r, 0)
        .num("mutex_labelmap_reads_per_sec", locked_1r, 0)
        .num("overhead_vs_mutex_pct", overhead_pct, 1);
    Json::report("sharded_read", smoke)
        .int("cores", cores as u64)
        .str(
            "acceptance",
            "8 readers + churning writer >= 4x 1-reader ops/s (needs >= 8 cores; on fewer the \
             scaling factors are time-sliced and reported as-is); single-reader overhead vs \
             uncontended Mutex<LabelMap> < 5%",
        )
        .int("keyspace", keyspace)
        .int("reads_per_thread", reads_per)
        .rows("quiescent", run_rows(&quiescent))
        .rows("with_churning_writer", run_rows(&churned))
        .object("single_reader", single_reader)
        .emit("BENCH_sharded_read.json", smoke);
}
