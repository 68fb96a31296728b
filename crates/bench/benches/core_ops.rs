//! `core_ops` — machine-readable physical-layer benchmark.
//!
//! Measures, per backend: point-insert throughput (random ranks, filling a
//! fixed-capacity structure), rank→label `select` throughput, range-scan
//! throughput, moves per insert (the paper's cost model), bytes per slot
//! of the physical representation, and two build times: an empty
//! fixed-capacity build (`build_us_n4096`), and the insert that grows a
//! list bulk-loaded full at 2,048 to 4,096 (`grow_us_n2048`: a fresh
//! build, the survivors' bulk splice and the insert), each the median over
//! 101 seeds. Results are printed as JSON and — in full mode — written to
//! `BENCH_core_ops.json` at the repo root, which is committed so
//! subsequent PRs have a perf baseline to diff against.
//!
//! Modes:
//!
//! * full (default): `cargo bench -p lll-bench --bench core_ops`
//!   — n = 2^20 for the PMA-skeleton backends, 2^17 for the layered
//!   embeddings; writes the JSON file.
//! * smoke (CI): `cargo bench -p lll-bench --bench core_ops -- --smoke`
//!   — n = 2^14 everywhere, builds at 256 and growth from 128, JSON to
//!   stdout only (a liveness check, not a measurement).
//! * overhead gate (CI):
//!   `cargo bench -p lll-bench --bench core_ops -- --overhead-gate`
//!   — runs *only* the metrics-overhead check: best-of-3 classic insert
//!   runs with `ListMetrics` recording on vs off, exiting non-zero if the
//!   instrumented run is more than 5% slower. This pins the "metrics are
//!   cheap enough to leave on" claim from `docs/observability.md`.
//!
//! Reference point recorded before the bitmap slot-array landed (same
//! machine class, release, classic backend, n = 2^20 random inserts):
//! 97_457 inserts/s at 5.06 moves/op — the O(m)-scan-per-rebalance regime
//! this bench exists to keep buried.

use lll_api::{Backend, ListBuilder, RawList};
use lll_bench::report::Json;
use rand::Rng;
use std::time::Instant;

/// Timed builds per backend and row, one seed each.
const BUILD_REPS: u64 = 101;

/// Median of `BUILD_REPS` timings in microseconds; `timed(seed)` returns
/// the seconds it measured.
fn median_us(mut timed: impl FnMut(u64) -> f64) -> f64 {
    let mut us: Vec<f64> = (0..BUILD_REPS).map(|seed| timed(seed) * 1e6).collect();
    us.sort_by(f64::total_cmp);
    us[us.len() / 2]
}

/// Median time of an empty fixed-capacity build of `n` elements.
fn build_us(backend: Backend, n: usize) -> f64 {
    median_us(|seed| {
        let builder = ListBuilder::new().seed(seed).backend(backend);
        let t = Instant::now();
        let built = builder.build_fixed(n);
        let secs = t.elapsed().as_secs_f64();
        drop(std::hint::black_box(built));
        secs
    })
}

/// Median time of the insert that grows a list bulk-loaded full at `n` to
/// `2n`: it builds a fresh structure, splices the `n` survivors into it,
/// drops the old one and inserts.
fn grow_us(backend: Backend, n: usize) -> f64 {
    median_us(|seed| {
        let mut list = ListBuilder::new().seed(seed).backend(backend).build();
        list.splice_reported(0, n);
        assert_eq!(list.capacity(), n, "the bulk load lands full");
        let t = Instant::now();
        list.insert(n / 2);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(list.capacity(), 2 * n, "the insert grows the list");
        secs
    })
}

/// One backend's row of the report.
fn bench_backend(backend: Backend, n: usize, build_n: usize, seed: u64) -> Json {
    let build_us = build_us(backend, build_n);
    let grow_us = grow_us(backend, build_n / 2);

    let mut s = ListBuilder::new().seed(seed).backend(backend).build_fixed(n);
    let mut rng = lll_core::rng::rng_from_seed(seed ^ 0xC0DE);

    // Point inserts at random ranks, empty → full, through the
    // zero-allocation reporting path (one reused report buffer).
    let mut rep = lll_core::report::OpReport::default();
    let t = Instant::now();
    for len in 0..n {
        let rank = rng.gen_range(0..=len);
        s.insert_into(rank, lll_core::ids::ElemId(len as u64), &mut rep);
        std::hint::black_box(rep.cost());
    }
    let insert_secs = t.elapsed().as_secs_f64();
    let moves_per_op = s.slots().lifetime_moves() as f64 / n as f64;

    // Rank → label queries: one occupancy-bitmap select each.
    let selects = (n / 2).max(1 << 12);
    let t = Instant::now();
    let mut acc = 0usize;
    for _ in 0..selects {
        acc = acc.wrapping_add(s.label_of_rank(rng.gen_range(0..n)));
    }
    std::hint::black_box(acc);
    let select_secs = t.elapsed().as_secs_f64();

    // Full range scan (physically contiguous sweep), several passes.
    let passes = 4;
    let t = Instant::now();
    let mut seen = 0usize;
    for _ in 0..passes {
        seen += s.iter_range(0, n).count();
    }
    std::hint::black_box(seen);
    let range_secs = t.elapsed().as_secs_f64();

    Json::new()
        .str("name", backend.name())
        .int("n", n as u64)
        .num("insert_ops_per_sec", n as f64 / insert_secs, 0)
        .num("moves_per_op", moves_per_op, 3)
        .num("select_ops_per_sec", selects as f64 / select_secs, 0)
        .num("range_elems_per_sec", seen as f64 / range_secs, 0)
        .num("bytes_per_slot", s.slots().memory_bytes() as f64 / s.slots().num_slots() as f64, 3)
        .int("num_slots", s.slots().num_slots() as u64)
        .num(&format!("build_us_n{build_n}"), build_us, 1)
        .num(&format!("grow_us_n{}", build_n / 2), grow_us, 1)
}

/// Wall-clock seconds for `n` random-rank classic inserts with metrics
/// recording on or off (same seeds either way, so the work is identical).
fn classic_insert_secs(n: usize, metrics: bool, salt: u64) -> f64 {
    let mut s =
        ListBuilder::new().seed(7).backend(Backend::Classic).metrics(metrics).build_fixed(n);
    let mut rng = lll_core::rng::rng_from_seed(0xC0DE ^ salt);
    let mut rep = lll_core::report::OpReport::default();
    let t = Instant::now();
    for len in 0..n {
        let rank = rng.gen_range(0..=len);
        s.insert_into(rank, lll_core::ids::ElemId(len as u64), &mut rep);
        std::hint::black_box(rep.cost());
    }
    t.elapsed().as_secs_f64()
}

/// The metrics-overhead gate: best-of-`REPS` instrumented vs
/// uninstrumented classic insert runs, interleaved so thermal drift hits
/// both sides equally. True iff the overhead is within the budget.
fn overhead_gate() -> bool {
    const N: usize = 1 << 17;
    const REPS: usize = 3;
    const MAX_OVERHEAD: f64 = 0.05;
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for salt in 0..REPS as u64 {
        off = off.min(classic_insert_secs(N, false, salt));
        on = on.min(classic_insert_secs(N, true, salt));
    }
    let overhead = on / off - 1.0;
    eprintln!(
        "overhead-gate: classic n={N}: metrics-off {:.1}ms, metrics-on {:.1}ms, \
         overhead {:+.2}% (budget {:.0}%)",
        off * 1e3,
        on * 1e3,
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
    overhead <= MAX_OVERHEAD
}

fn main() {
    if std::env::args().any(|a| a == "--overhead-gate") {
        if !overhead_gate() {
            eprintln!("overhead-gate: FAIL — metrics recording regressed the insert hot path");
            std::process::exit(1);
        }
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let build_n = if smoke { 256 } else { 4096 };
    let mut rows = Vec::new();
    for backend in Backend::ALL {
        let n = if smoke {
            1 << 14
        } else {
            match backend {
                // The layered embedding runs every op through three
                // structures; a smaller n keeps the full run under a
                // minute without losing the asymptotic regime.
                Backend::Corollary11 => 1 << 17,
                _ => 1 << 20,
            }
        };
        eprintln!("core_ops: {} n={n} ...", backend.name());
        rows.push(bench_backend(backend, n, build_n, 7));
    }

    Json::report("core_ops", smoke)
        .int("reference_pre_bitmap_classic_insert_ops_per_sec_n1m", 97457)
        .rows("backends", rows)
        .emit("BENCH_core_ops.json", smoke);
}
