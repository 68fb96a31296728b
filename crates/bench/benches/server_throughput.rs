//! `server_throughput` — machine-readable network-service benchmark.
//!
//! Drives an in-process `lll-server` on an ephemeral loopback port with
//! N blocking client connections running a mixed get/insert/range
//! workload, and reports sustained ops/s plus p50/p99 per-request
//! latency. A second phase measures the per-shard write-batching path:
//! `batch_insert` of a sorted 100k-key run versus the same 100k keys as
//! per-op `insert` round trips — the ratio is the point of the batching
//! verb (one network frame + O(piece) bulk sweeps per shard, against
//! 100k round trips of per-op work).
//!
//! Results are printed as JSON and — in full mode — written to
//! `BENCH_server.json` at the repo root, committed so subsequent PRs can
//! diff serving performance.
//!
//! Acceptance (ISSUE 6): the batch path must measurably beat per-op
//! round trips (full mode asserts ≥ 5×; in practice it is orders of
//! magnitude), and the mixed workload must report a finite p99.
//!
//! Modes:
//!
//! * full (default): `cargo bench -p lll-bench --bench server_throughput`
//!   — 4 connections × 25k mixed ops, 100k-key batch acceptance, writes
//!   the JSON file.
//! * smoke (CI): `... -- --smoke` — 2 connections × 2k ops, 10k-key
//!   batch, JSON to stdout only, no wall-clock assertion (shared
//!   runners).

use lll_bench::mix;
use lll_bench::report::Json;
use lll_server::{Client, Server, ServerConfig};
use lll_sharded::ShardedBuilder;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

fn key_bytes(k: u64) -> Vec<u8> {
    // Big-endian so byte-lexicographic order equals numeric order.
    k.to_be_bytes().to_vec()
}

fn start_server() -> lll_server::ServerHandle {
    let map = Arc::new(ShardedBuilder::new().backend(lll_api::Backend::Classic).seed(3).build());
    Server::start(map, ServerConfig::default()).expect("bind ephemeral port")
}

/// Mixed workload: 50% get / 40% insert / 10% range(limit 32), per-op
/// latency sampled on every request. Returns the report's `mixed` object.
fn run_mixed(conns: usize, ops_per_conn: usize) -> Json {
    let mut server = start_server();
    let addr = server.local_addr();
    let start = Instant::now();
    let mut all_lat: Vec<u64> = thread::scope(|s| {
        let handles: Vec<_> = (0..conns as u64)
            .map(|tid| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut lat = Vec::with_capacity(ops_per_conn);
                    for i in 0..ops_per_conn as u64 {
                        let k = key_bytes(mix((tid << 40) | i) % 1_000_000);
                        let t = Instant::now();
                        match i % 10 {
                            0..=4 => {
                                let _ = client.get(&k).expect("get");
                            }
                            5..=8 => {
                                let _ = client.insert(&k, &i.to_le_bytes()).expect("insert");
                            }
                            _ => {
                                let _ = client.range(Some(&k), None, 32).expect("range");
                            }
                        }
                        lat.push(t.elapsed().as_nanos() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let secs = start.elapsed().as_secs_f64();
    server.shutdown();
    all_lat.sort_unstable();
    let pct = |p: f64| all_lat[((all_lat.len() - 1) as f64 * p) as usize] as f64 / 1_000.0;
    Json::new()
        .int("connections", conns as u64)
        .int("ops_per_conn", ops_per_conn as u64)
        .num("ops_per_sec", (conns * ops_per_conn) as f64 / secs, 0)
        .num("p50_us", pct(0.50), 1)
        .num("p99_us", pct(0.99), 1)
}

struct BatchResult {
    n: usize,
    batch_ops_per_sec: f64,
    per_op_ops_per_sec: f64,
    speedup: f64,
}

/// The batching acceptance: land `n` sorted keys via one `batch_insert`
/// frame versus `n` per-op `insert` round trips, on fresh servers.
fn run_batch_vs_per_op(n: usize) -> BatchResult {
    let entries = |base: u64| -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n as u64).map(|k| (key_bytes(base + k * 2), k.to_le_bytes().to_vec())).collect()
    };

    let mut server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let batch = entries(0);
    let t = Instant::now();
    let landed = client.batch_insert(batch).expect("batch_insert");
    let batch_secs = t.elapsed().as_secs_f64();
    assert_eq!(landed as usize, n, "batch must land every unique key");
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.shard_lens.len() > 1, "a {n}-key batch must shard the map");
    assert_eq!(metrics.shard_lens.iter().sum::<u64>() as usize, n);
    server.shutdown();

    let mut server = start_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let t = Instant::now();
    for (k, v) in entries(0) {
        client.insert(&k, &v).expect("insert");
    }
    let per_op_secs = t.elapsed().as_secs_f64();
    let health = client.health().expect("health");
    assert_eq!(health.len as usize, n);
    server.shutdown();

    BatchResult {
        n,
        batch_ops_per_sec: n as f64 / batch_secs,
        per_op_ops_per_sec: n as f64 / per_op_secs,
        speedup: per_op_secs / batch_secs,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (conns, ops, batch_n) = if smoke { (2, 2_000, 10_000) } else { (4, 25_000, 100_000) };

    eprintln!("server_throughput: mixed workload, {conns} connections x {ops} ops ...");
    let mixed = run_mixed(conns, ops);
    eprintln!("server_throughput: batch_insert vs per-op, n={batch_n} ...");
    let batch = run_batch_vs_per_op(batch_n);

    if !smoke {
        assert!(
            batch.speedup >= 5.0,
            "batch_insert only {:.1}x per-op round trips (need >= 5x)",
            batch.speedup
        );
    }

    let batch_row = Json::new()
        .int("n", batch.n as u64)
        .num("batch_keys_per_sec", batch.batch_ops_per_sec, 0)
        .num("per_op_keys_per_sec", batch.per_op_ops_per_sec, 0)
        .num("batch_speedup", batch.speedup, 1);
    Json::report("server_throughput", smoke)
        .str(
            "acceptance",
            "sustained mixed ops/s + p99 over N connections; \
             100k-key batch_insert >= 5x per-op inserts",
        )
        .object("mixed", mixed)
        .object("batch", batch_row)
        .emit("BENCH_server.json", smoke);
}
