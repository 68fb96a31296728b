//! Live observability demo: spawn an `lll-server` on loopback, drive a
//! mixed workload from several client connections, then poll the
//! `metrics` and `trace` verbs and render them as a text dashboard —
//! per-verb latency quantiles, shard-occupancy skew, and the recent
//! structural-event log. This is the full dump a scrape endpoint or ops
//! tool would consume, fetched in two round trips.
//!
//! Run with: `cargo run --example metrics_dashboard`

use lll_obs::TraceKind;
use lll_server::{Client, Server, ServerConfig};
use lll_sharded::ShardedBuilder;
use std::sync::Arc;

const CONNS: usize = 4;
const OPS_PER_CONN: usize = 2_000;

fn main() {
    // Small shards so the workload visibly splits the directory.
    let map = Arc::new(ShardedBuilder::new().max_shard_len(256).min_shard_len(16).build());
    let mut server = Server::start(map, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    println!("lll-server on {addr}; driving {CONNS} connections x {OPS_PER_CONN} mixed ops\n");

    // Mixed workload: 50% insert / 30% get / 15% contains / 5% remove,
    // keys drawn from a rolling window so shards split *and* merge.
    let workers: Vec<_> = (0..CONNS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..OPS_PER_CONN {
                    let key = format!("key:{:06}", (c * OPS_PER_CONN + i * 7) % 4_096);
                    let key = key.as_bytes();
                    match i % 20 {
                        0..=9 => drop(client.insert(key, b"v").unwrap()),
                        10..=15 => drop(client.get(key).unwrap()),
                        16..=18 => drop(client.contains(key).unwrap()),
                        _ => drop(client.remove(key).unwrap()),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    let mut client = Client::connect(addr).expect("connect");
    let m = client.metrics().expect("metrics verb");
    let t = client.trace().expect("trace verb");

    println!("== per-verb latency (ns) ==");
    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "verb", "count", "p50", "p95", "p99", "max"
    );
    for v in m.verbs.iter().filter(|v| v.count > 0) {
        println!(
            "{:<14} {:>8} {:>10} {:>10} {:>10} {:>10}",
            v.verb, v.count, v.p50_ns, v.p95_ns, v.p99_ns, v.max_ns
        );
    }

    println!(
        "\n== shard occupancy ({} shards, {} splits, {} merges, {} element moves) ==",
        m.shard_lens.len(),
        m.splits,
        m.merges,
        m.total_moves
    );
    let max_len = m.shard_lens.iter().copied().max().unwrap_or(0).max(1);
    for (i, ((len, reads), writes)) in
        m.shard_lens.iter().zip(&m.shard_reads).zip(&m.shard_writes).enumerate()
    {
        let bar = "#".repeat((len * 40 / max_len) as usize);
        println!("shard {i:>3}: {len:>5} entries  {reads:>6} reads {writes:>6} writes  |{bar}");
    }

    println!("\n== recent structural events (trace ring, oldest first) ==");
    for e in t.events.iter().rev().take(10).rev() {
        let kind = TraceKind::from_u64(e.kind).map_or("?", TraceKind::name);
        println!("#{:<6} {:<10} a={:<6} b={:<6} c={}", e.seq, kind, e.a, e.b, e.c);
    }

    println!("\n== Prometheus exposition (first lines of {} bytes) ==", m.text.len());
    for line in m.text.lines().take(8) {
        println!("{line}");
    }

    client.drain(None).expect("drain");
    server.join();
    println!("\ndrained cleanly; full metric catalog in docs/observability.md");
}
