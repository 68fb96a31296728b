//! End-to-end `lll-server` session: spawn the ordered-KV service on an
//! ephemeral loopback port, drive it with the blocking client — point
//! verbs, a bulk batch through the per-shard write path, ordered range
//! pages, the ops surface — and finish with a graceful drain that writes
//! a final snapshot, which we restore and verify.
//!
//! Run with: `cargo run --example kv_server`

use lll_server::{Client, Server, ServerConfig};
use lll_sharded::{ShardedBuilder, ShardedMap};
use std::sync::Arc;

fn main() {
    // Small shards so this demo's 5k keys visibly exercise the directory.
    let map = Arc::new(ShardedBuilder::new().max_shard_len(512).min_shard_len(32).build());
    let mut server = Server::start(map, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    println!("lll-server listening on {addr}");

    let mut client = Client::connect(addr).expect("connect");

    // Point verbs: one shard lock per request.
    client.insert(b"user:ada", b"lovelace").unwrap();
    client.insert(b"user:alan", b"turing").unwrap();
    println!("get user:ada      -> {:?}", as_text(client.get(b"user:ada").unwrap()));
    println!("contains user:eve -> {}", client.contains(b"user:eve").unwrap());

    // Bulk ingest: ONE round trip; the server sorts, dedups (last write
    // wins), cuts the run at the shard directory's split keys, and lands
    // each piece with an O(piece) bulk sweep — never per-op inserts.
    let batch: Vec<(Vec<u8>, Vec<u8>)> = (0..5_000u32)
        .map(|i| (format!("event:{i:06}").into_bytes(), i.to_le_bytes().to_vec()))
        .collect();
    let landed = client.batch_insert(batch).unwrap();
    println!("batch_insert      -> landed {landed} entries in one frame");

    // Ordered pagination: lexicographic key order, truncation flagged.
    let (page, truncated) = client.range(Some(b"event:000100"), Some(b"event:004900"), 3).unwrap();
    println!("range page        -> {} entries, truncated={truncated}", page.len());
    for (k, _) in &page {
        println!("                     {}", String::from_utf8_lossy(k));
    }

    // Ops surface: health and the metrics dump's map counters.
    let health = client.health().unwrap();
    println!(
        "health            -> draining={} active_conns={} served={} len={}",
        health.draining, health.active_conns, health.served_requests, health.len
    );
    let m = client.metrics().unwrap();
    let len: u64 = m.shard_lens.iter().sum();
    println!(
        "metrics           -> {} shards, {len} keys, {} splits, {} batches ({} batched), {} moves",
        m.shard_lens.len(),
        m.splits,
        m.batches,
        m.batched_entries,
        m.total_moves
    );

    // Graceful drain with a final snapshot: stop accepting, finish
    // in-flight requests, stream one atomic picture to disk.
    let snap = std::env::temp_dir().join(format!("kv_server_demo_{}.snap", std::process::id()));
    let snap_str = snap.to_str().unwrap().to_string();
    client.drain(Some(&snap_str)).unwrap();
    server.join();
    println!("drained           -> final snapshot at {snap_str}");

    let file = std::fs::File::open(&snap).expect("snapshot written");
    let restored: ShardedMap<Vec<u8>, Vec<u8>> =
        ShardedMap::read_snapshot(&mut std::io::BufReader::new(file)).expect("snapshot decodes");
    restored.check_invariants();
    println!(
        "restored          -> {} entries in {} shards (matches: {})",
        restored.len(),
        restored.shard_count(),
        restored.len() as u64 == len
    );
    std::fs::remove_file(&snap).ok();
}

fn as_text(v: Option<Vec<u8>>) -> Option<String> {
    v.map(|b| String::from_utf8_lossy(&b).into_owned())
}
