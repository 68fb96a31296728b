//! `wal` — machine-readable durability benchmark.
//!
//! Measures, against the same 8-byte-key workload:
//!
//! * **append throughput per fsync policy** — `Never` (OS-buffered),
//!   `EveryMillis(5)` (timed batching), and `Always` under concurrent
//!   committers (group commit: every ack is fsync-durable, one fsync
//!   amortized over the whole batch) — versus the naive baseline the
//!   group-commit design exists to beat: one `fsync` per record.
//! * **recovery throughput** — replaying the whole log through
//!   [`DurableMap::open`] versus restoring from a checkpoint written at
//!   the log's tip (snapshot restore + zero records replayed).
//!
//! Results are printed as JSON and — in full mode — written to
//! `BENCH_wal.json` at the repo root, committed so subsequent PRs can
//! diff durability performance.
//!
//! Acceptance (ISSUE 10): group-committed `Always` throughput must be
//! ≥ 5× the fsync-per-record baseline. Enforced in full mode; smoke
//! runs are too small for stable wall-clock ratios on shared runners.
//!
//! Modes:
//!
//! * full (default): `cargo bench -p lll-bench --bench wal`
//!   — 20_000 records per policy, 32 committer threads, 100_000-record
//!   replay corpus; writes the JSON file and enforces the 5× bound.
//! * smoke (CI): `cargo bench -p lll-bench --bench wal -- --smoke`
//!   — 500 records, 2_000-record replay corpus, JSON to stdout only.
//!
//! Scratch directories live under `target/bench-wal/` so the benchmark
//! exercises the real filesystem (fsync on tmpfs is free and would
//! flatter every row equally).

use lll_bench::report::Json;
use lll_sharded::ShardedBuilder;
use lll_wal::{DurableMap, DurableOptions, FsyncPolicy, Wal, WalOptions};
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const PAYLOAD_LEN: usize = 64;

fn scratch(name: &str) -> PathBuf {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/bench-wal"));
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

struct Row {
    name: &'static str,
    records: u64,
    threads: usize,
    records_per_sec: f64,
    fsyncs: u64,
    records_per_fsync: f64,
}

/// The baseline group commit exists to beat: append a frame, fsync, ack.
fn bench_fsync_per_record(records: u64) -> Row {
    let dir = scratch("fsync-per-record");
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(dir.join("naive.log"))
        .expect("create naive log");
    let payload = [0x5Au8; PAYLOAD_LEN];
    let t = Instant::now();
    for _ in 0..records {
        file.write_all(&payload).expect("append");
        file.sync_data().expect("fsync");
    }
    let secs = t.elapsed().as_secs_f64();
    Row {
        name: "fsync_per_record",
        records,
        threads: 1,
        records_per_sec: records as f64 / secs,
        fsyncs: records,
        records_per_fsync: 1.0,
    }
}

fn bench_policy(name: &'static str, policy: FsyncPolicy, records: u64, threads: usize) -> Row {
    let dir = scratch(name);
    let opts = WalOptions { fsync: policy, segment_bytes: 64 << 20 };
    let (wal, _) = Wal::open(&dir, opts).expect("open wal");
    let wal = Arc::new(wal);
    let payload = [0x5Au8; PAYLOAD_LEN];
    let per_thread = records / threads as u64;

    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let wal = Arc::clone(&wal);
            s.spawn(move || {
                for _ in 0..per_thread {
                    wal.append_durable(&payload).expect("append");
                }
            });
        }
    });
    // `Never` acks from the buffer; charge the final flush so the rows
    // compare durable-on-disk to durable-on-disk.
    wal.sync().expect("final sync");
    let secs = t.elapsed().as_secs_f64();

    let done = per_thread * threads as u64;
    let fsyncs = wal.metrics().fsyncs.get();
    Row {
        name,
        records: done,
        threads,
        records_per_sec: done as f64 / secs,
        fsyncs,
        records_per_fsync: done as f64 / fsyncs.max(1) as f64,
    }
}

/// Build a `DurableMap` corpus, then time recovery twice: pure log
/// replay, and checkpoint restore with an empty log suffix. Returns the
/// two report rows.
fn bench_recovery(entries: u64) -> [Json; 2] {
    let opts = || DurableOptions {
        wal: WalOptions { fsync: FsyncPolicy::Never, segment_bytes: 64 << 20 },
        ..DurableOptions::default()
    };
    let key = |i: u64| i.to_be_bytes().to_vec();
    let value = |i: u64| vec![(i & 0xFF) as u8; PAYLOAD_LEN];

    // Replay corpus: every entry is a log record, no checkpoint.
    let dir = scratch("recover-replay");
    {
        let (map, _) = DurableMap::<Vec<u8>, Vec<u8>>::open(&dir, opts(), &ShardedBuilder::new())
            .expect("open");
        for i in 0..entries {
            map.insert(key(i), value(i)).expect("insert");
        }
    }
    let t = Instant::now();
    let (map, rec) =
        DurableMap::<Vec<u8>, Vec<u8>>::open(&dir, opts(), &ShardedBuilder::new()).expect("reopen");
    let replay_secs = t.elapsed().as_secs_f64();
    assert_eq!(rec.replayed, entries, "replay corpus must recover from the log");
    assert_eq!(map.map().len() as u64, entries);
    drop(map);

    // Checkpoint corpus: same entries, snapshot at the tip, log truncated.
    let dir = scratch("recover-checkpoint");
    {
        let (map, _) = DurableMap::<Vec<u8>, Vec<u8>>::open(&dir, opts(), &ShardedBuilder::new())
            .expect("open");
        for i in 0..entries {
            map.insert(key(i), value(i)).expect("insert");
        }
        map.checkpoint().expect("checkpoint");
    }
    let t = Instant::now();
    let (map, rec) =
        DurableMap::<Vec<u8>, Vec<u8>>::open(&dir, opts(), &ShardedBuilder::new()).expect("reopen");
    let restore_secs = t.elapsed().as_secs_f64();
    assert_eq!(rec.replayed, 0, "checkpoint corpus must not replay");
    assert_eq!(map.map().len() as u64, entries);
    drop(map);

    let row = |name: &str, replayed: u64, secs: f64| {
        let row = Json::new().str("name", name).int("entries", entries);
        row.int("replayed", replayed).num("entries_per_sec", entries as f64 / secs, 0)
    };
    [row("log_replay", entries, replay_secs), row("checkpoint_restore", 0, restore_secs)]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let records: u64 = if smoke { 500 } else { 20_000 };
    let replay_entries: u64 = if smoke { 2_000 } else { 100_000 };

    eprintln!("wal: fsync_per_record records={records} ...");
    let baseline = bench_fsync_per_record(records);
    eprintln!("wal: group_commit_always records={records} ...");
    let always = bench_policy("group_commit_always", FsyncPolicy::Always, records, 32);
    eprintln!("wal: every_millis_5 records={records} ...");
    let timed = bench_policy("every_millis_5", FsyncPolicy::EveryMillis(5), records, 1);
    eprintln!("wal: never records={records} ...");
    let never = bench_policy("never", FsyncPolicy::Never, records, 1);
    let rows = [&baseline, &always, &timed, &never];

    let speedup = always.records_per_sec / baseline.records_per_sec;
    if !smoke {
        assert!(
            speedup >= 5.0,
            "group commit only {speedup:.1}x over fsync-per-record (need >= 5x)"
        );
    }

    eprintln!("wal: recovery entries={replay_entries} ...");
    let recovery = bench_recovery(replay_entries);

    let append = rows.iter().map(|r| {
        Json::new()
            .str("name", r.name)
            .int("records", r.records)
            .int("threads", r.threads as u64)
            .num("records_per_sec", r.records_per_sec, 0)
            .int("fsyncs", r.fsyncs)
            .num("records_per_fsync", r.records_per_fsync, 1)
    });
    Json::report("wal", smoke)
        .str("acceptance", "group-committed Always >= 5x fsync-per-record")
        .num("group_commit_speedup", speedup, 1)
        .rows("append", append)
        .rows("recovery", recovery)
        .emit("BENCH_wal.json", smoke);
}
