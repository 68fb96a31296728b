//! `snapshot` — machine-readable persistence benchmark.
//!
//! Measures, per backend: snapshot write throughput, **restore throughput**
//! (`LabelMap::read_snapshot`, the O(n) bulk sweep), and the cost of the
//! alternative a snapshot exists to avoid — replaying the same keys
//! through per-op `insert`. Results are printed as JSON and — in full
//! mode — written to `BENCH_snapshot.json` at the repo root, committed so
//! subsequent PRs can diff restore performance.
//!
//! Acceptance (ISSUE 5): restoring a 1M-key `LabelMap` performs exactly
//! one element move per key (asserted against the backend's move counter)
//! and is ≥ 10× faster than the per-op replay. Both are checked here, in
//! the n = 2^20 classic row; the layered backend is additionally held to
//! the O(n) restore bound (≤ 2 moves/key across its layers).
//!
//! Modes:
//!
//! * full (default): `cargo bench -p lll-bench --bench snapshot`
//!   — n = 2^20 for classic, 2^17 for the layered default; writes the
//!   JSON file and enforces the acceptance bounds.
//! * smoke (CI): `cargo bench -p lll-bench --bench snapshot -- --smoke`
//!   — n = 2^14, JSON to stdout only; still asserts the move-count bounds
//!   (they are size-independent), skips the wall-clock ratio (noisy at
//!   small n on shared runners).

use lll_api::{Backend, LabelMap, ListBuilder};
use lll_bench::report::Json;
use std::time::Instant;

/// One backend's row of the report.
fn bench_backend(backend: Backend, n: usize, enforce_speedup: bool) -> Json {
    let mut map: LabelMap<u64, u64> = ListBuilder::new().backend(backend).seed(11).label_map();
    map.extend_sorted((0..n as u64).map(|k| (k * 2, k)).collect());

    let mut buf = Vec::new();
    let t = Instant::now();
    map.write_snapshot(&mut buf).expect("write snapshot");
    let write_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let restored: LabelMap<u64, u64> =
        LabelMap::read_snapshot(&mut buf.as_slice()).expect("read snapshot");
    let restore_secs = t.elapsed().as_secs_f64();
    assert_eq!(restored.len(), n, "restore lost entries");
    let moves_per_key = restored.total_moves() as f64 / n as f64;
    match backend {
        // The PMA-skeleton backends land the run in one merge sweep:
        // exactly one placement per element.
        Backend::Classic => {
            assert_eq!(restored.total_moves(), n as u64, "restore must be exactly 1 move/element")
        }
        // The layered embeddings mirror the splice through their shells:
        // still O(n), bounded by 2 moves per element.
        _ => assert!(
            restored.total_moves() <= 2 * n as u64,
            "restore is not O(n): {} moves for {n} keys",
            restored.total_moves()
        ),
    }

    // The road not taken: replay every key through a point insert.
    let mut replay: LabelMap<u64, u64> = ListBuilder::new().backend(backend).seed(11).label_map();
    let t = Instant::now();
    for k in 0..n as u64 {
        replay.insert(k * 2, k);
    }
    let replay_secs = t.elapsed().as_secs_f64();
    assert_eq!(replay.len(), n);

    let speedup = replay_secs / restore_secs;
    if enforce_speedup {
        assert!(
            speedup >= 10.0,
            "{}: restore only {speedup:.1}x faster than replay (need >= 10x)",
            backend.name()
        );
    }
    Json::new()
        .str("name", backend.name())
        .int("n", n as u64)
        .int("snapshot_bytes", buf.len() as u64)
        .num("write_keys_per_sec", n as f64 / write_secs, 0)
        .num("restore_keys_per_sec", n as f64 / restore_secs, 0)
        .num("replay_keys_per_sec", n as f64 / replay_secs, 0)
        .num("restore_speedup", speedup, 1)
        .num("restore_moves_per_key", moves_per_key, 3)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut rows = Vec::new();
    for backend in [Backend::Classic, Backend::Corollary11] {
        let n = if smoke {
            1 << 14
        } else {
            match backend {
                Backend::Classic => 1 << 20,
                _ => 1 << 17,
            }
        };
        eprintln!("snapshot: {} n={n} ...", backend.name());
        // The wall-clock acceptance bound applies to the full-mode 1M-key
        // row; small smoke runs only pin the move counts.
        rows.push(bench_backend(backend, n, !smoke && n >= 1 << 20));
    }

    Json::report("snapshot", smoke)
        .str("acceptance", "1M-key restore: exactly 1 move/key, >= 10x replay")
        .rows("backends", rows)
        .emit("BENCH_snapshot.json", smoke);
}
