//! `core_ops` — machine-readable physical-layer benchmark.
//!
//! Measures, per backend: point-insert throughput (random ranks, filling a
//! fixed-capacity structure), rank→label `select` throughput, range-scan
//! throughput, moves per insert (the paper's cost model), bytes per slot
//! of the physical representation, and two build times: an empty
//! fixed-capacity build (`build_us_n4096`), and the insert that grows a
//! list bulk-loaded full at 2,048 to 4,096 (`grow_us_n2048`: a fresh
//! build, the survivors' bulk splice and the insert), each the median over
//! 101 seeds. `build_template_us_n4096` and `grow_template_us_n2048` time
//! the same two with one `ListBuilder` shared across the seeds, so that a
//! Corollary 11 build clones a template of the empty structure. The `kernels` rows time the occupancy bitmap's rank and
//! select kernels themselves, in ns per call, on a bitmap the size of one
//! 4,096-capacity shard's physical array at 30%, 60% and 90% density.
//! The `shard_gets` rows time keyed lookups at shard scale, per backend:
//! `LabelMap<u64, [u8; 32]>::get` of live keys, in random map order,
//! over 128 maps of 2,048 keys each grown to capacity 4,096 (a
//! `ShardedMap` shard's size, so each search runs over one shard's
//! fence-key index), in ns per get, beside a `BTreeMap` holding every
//! key, on the same queries. The gets run back to back, so the misses of
//! one overlap the next: a throughput figure, not one get's latency.
//! Results are printed as JSON and — in full mode — written to
//! `BENCH_core_ops.json` at the repo root, which is committed so
//! subsequent PRs have a perf baseline to diff against.
//!
//! Modes:
//!
//! * full (default): `cargo bench -p lll-bench --bench core_ops`
//!   — n = 2^20 for the PMA-skeleton backends, 2^17 for the layered
//!   embeddings, 2^16 calls per kernel timing, 2^20 gets per shard-scale
//!   timing; writes the JSON file.
//! * smoke (CI): `cargo bench -p lll-bench --bench core_ops -- --smoke`
//!   — n = 2^14 everywhere, builds at 256 and growth from 128, 2^10
//!   calls per kernel timing, 4 shard-sized maps and 2^10 gets, JSON to
//!   stdout only (a liveness check, not a measurement).
//! * overhead gate (CI):
//!   `cargo bench -p lll-bench --bench core_ops -- --overhead-gate`
//!   — runs *only* the metrics-overhead check: 41 pairs of classic insert
//!   runs with `ListMetrics` recording on and off, exiting non-zero if the
//!   median per-pair on/off time ratio is more than 5% above 1. On a
//!   2-vCPU VM one pair's ratio has quartiles about 1.5% below and 5%
//!   above 1, so a median of few pairs fails on noise alone. This pins
//!   the "metrics are cheap enough to leave on" claim from
//!   `docs/observability.md`. It then prints, ungated, the same median
//!   for classic inserts through `Growable`, whose per-op moves-per-op
//!   histogram record the fixed-capacity runs never make.
//!
//! Reference point recorded before the bitmap slot-array landed (same
//! machine class, release, classic backend, n = 2^20 random inserts):
//! 97_457 inserts/s at 5.06 moves/op — the O(m)-scan-per-rebalance regime
//! this bench exists to keep buried.

use lll_api::{Backend, LabelMap, ListBuilder, RawList};
use lll_bench::report::Json;
use lll_core::bitmap::Bitmap;
use lll_core::growable::Growable;
use lll_core::metrics::ListMetrics;
use rand::Rng;
use std::collections::BTreeMap;
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

/// [`build_us`] and [`grow_us`] with one `ListBuilder` shared across the
/// reps, as a `ShardedMap` shares one across its shards, so from the third
/// rep on a Corollary 11 build clones the template of its size (the single
/// layers do not use templates). The build is a list of initial capacity
/// `n` rather than a fixed-capacity structure: the same structure inside
/// `Growable`.
fn template_us(backend: Backend, n: usize) -> (f64, f64) {
    let shared = ListBuilder::new().backend(backend);
    let sized = shared.clone().initial_capacity(n);
    let build = median_us(|seed| {
        let builder = sized.clone().seed(seed);
        let t = Instant::now();
        let built = builder.build();
        let secs = t.elapsed().as_secs_f64();
        drop(std::hint::black_box(built));
        secs
    });
    let grow = median_us(|seed| {
        let mut list = shared.clone().seed(seed).build();
        list.splice_reported(0, n / 2);
        let t = Instant::now();
        list.insert(n / 4);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(list.capacity(), n, "the insert grows the list");
        secs
    });
    (build, grow)
}

/// One backend's row of the report.
fn bench_backend(backend: Backend, n: usize, build_n: usize, seed: u64) -> Json {
    let build_us = build_us(backend, build_n);
    let grow_us = grow_us(backend, build_n / 2);
    let (build_template_us, grow_template_us) = template_us(backend, build_n);

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
    let moves_per_op = s.slots().metrics().moves.get() as f64 / n as f64;

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
        .num(&format!("build_template_us_n{build_n}"), build_template_us, 1)
        .num(&format!("grow_template_us_n{}", build_n / 2), grow_template_us, 1)
}

/// Slots of one 4,096-capacity Corollary 11 shard's physical array: the
/// size of bitmap the stack's rank and select mostly run on.
const KERNEL_SLOTS: usize = 12_900;
/// Timed runs per kernel or shard-scale lookup; a row reports their
/// median.
const KERNEL_RUNS: usize = 5;

/// Median over [`KERNEL_RUNS`] runs of the ns per call of `kernel`, called
/// once on each of `inputs`.
fn ns_per_call<T: Copy>(inputs: &[T], mut kernel: impl FnMut(T) -> Option<usize>) -> f64 {
    let mut ns: Vec<f64> = (0..KERNEL_RUNS)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0usize;
            for &input in inputs {
                acc = acc.wrapping_add(kernel(input).expect("every query has an answer"));
            }
            std::hint::black_box(acc);
            t.elapsed().as_secs_f64() * 1e9 / inputs.len() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[KERNEL_RUNS / 2]
}

/// Finger queries `(k, hint, rank of hint)`: each hint is a set bit, and
/// each target the set bit `hop` ranks before or after it, at random.
fn finger_queries(bits: &Bitmap, hop: usize, calls: usize, rng: &mut impl Rng) -> Vec<[usize; 3]> {
    (0..calls)
        .map(|_| {
            let at = rng.gen_range(hop..bits.count_ones() - hop);
            let k = if rng.gen::<bool>() { at + hop } else { at - hop };
            [k, bits.select(at).expect("a set bit"), at]
        })
        .collect()
}

/// One `kernels` row: ns per call of `rank`, root `select`, `select_near`
/// one and twenty set bits from its finger, and `select_zero`, on a
/// [`KERNEL_SLOTS`]-slot bitmap with `density_pct` percent of its bits
/// set at random.
fn kernel_row(density_pct: u64, calls: usize) -> Json {
    let mut rng = lll_core::rng::rng_from_seed(0xB175 ^ density_pct);
    let mut bits = Bitmap::new(KERNEL_SLOTS);
    bits.set_ascending((0..KERNEL_SLOTS).filter(|_| rng.gen_range(0..100u64) < density_pct));
    let (ones, zeros) = (bits.count_ones(), KERNEL_SLOTS - bits.count_ones());
    let positions: Vec<usize> = (0..calls).map(|_| rng.gen_range(0..=KERNEL_SLOTS)).collect();
    let ranks: Vec<usize> = (0..calls).map(|_| rng.gen_range(0..ones)).collect();
    let zero_ranks: Vec<usize> = (0..calls).map(|_| rng.gen_range(0..zeros)).collect();
    let near_1 = finger_queries(&bits, 1, calls, &mut rng);
    let near_20 = finger_queries(&bits, 20, calls, &mut rng);
    let near = |[k, hint, hint_rank]: [usize; 3]| bits.select_near(k, hint, hint_rank);
    Json::new()
        .int("slots", KERNEL_SLOTS as u64)
        .int("density_pct", density_pct)
        .num("rank_ns", ns_per_call(&positions, |p| Some(bits.rank(p))), 1)
        .num("select_ns", ns_per_call(&ranks, |k| bits.select(k)), 1)
        .num("select_near_1_ns", ns_per_call(&near_1, near), 1)
        .num("select_near_20_ns", ns_per_call(&near_20, near), 1)
        .num("select_zero_ns", ns_per_call(&zero_ranks, |k| bits.select_zero(k)), 1)
}

/// Entries each map of the shard-scale lookup rows holds when it is timed.
const SHARD_KEYS: usize = 2048;
/// The capacity each of those maps has grown to: a shard's at the default
/// `max_shard_len`.
const SHARD_CAPACITY: usize = 4096;
/// The value type of the shard-scale maps: the ladder's 32-byte values.
type Value = [u8; 32];

/// One map of the shard-scale lookup rows and its live keys: point
/// inserts of random keys until it holds `SHARD_KEYS`, then inserts of
/// fresh keys alternating with removes of random live ones until it has
/// grown to `SHARD_CAPACITY`.
fn shard_map(builder: ListBuilder, rng: &mut impl Rng) -> (LabelMap<u64, Value>, Vec<u64>) {
    let mut map = builder.label_map();
    let mut keys = Vec::with_capacity(SHARD_KEYS + 1);
    while keys.len() < SHARD_KEYS || map.backend().capacity() < SHARD_CAPACITY {
        let k = rng.gen::<u64>();
        if map.insert(k, [k as u8; 32]).is_none() {
            keys.push(k);
        }
        if keys.len() > SHARD_KEYS {
            let gone = keys.swap_remove(rng.gen_range(0..keys.len()));
            map.remove(&gone).expect("a live key");
        }
    }
    assert_eq!((map.len(), map.backend().capacity()), (SHARD_KEYS, SHARD_CAPACITY));
    (map, keys)
}

/// One `shard_gets` row: ns per `get` of a live key of `maps` shard-sized
/// maps on `backend`, in random map order, and ns per `get` of the same
/// keys in one `BTreeMap` of every map's entries; each the median over
/// [`KERNEL_RUNS`] runs of the same `gets` queries.
fn shard_get_row(backend: Backend, maps: usize, gets: usize) -> Json {
    let mut rng = lll_core::rng::rng_from_seed(0x5EA4C4);
    let builder = ListBuilder::new().backend(backend);
    let shards: Vec<_> =
        (0..maps as u64).map(|seed| shard_map(builder.clone().seed(seed), &mut rng)).collect();
    let queries: Vec<(usize, u64)> = (0..gets)
        .map(|_| {
            let m = rng.gen_range(0..maps);
            let keys = &shards[m].1;
            (m, keys[rng.gen_range(0..keys.len())])
        })
        .collect();
    let get = |(m, k): (usize, u64)| shards[m].0.get(&k).map(|v| usize::from(v[0]));
    let get_ns = ns_per_call(&queries, get);
    let btree: BTreeMap<u64, Value> =
        shards.iter().flat_map(|(map, _)| map.iter().map(|(k, v)| (*k, *v))).collect();
    let btree_get = |(_, k): (usize, u64)| btree.get(&k).map(|v| usize::from(v[0]));
    let btree_get_ns = ns_per_call(&queries, btree_get);
    Json::new()
        .str("name", backend.name())
        .int("maps", maps as u64)
        .int("keys_per_map", SHARD_KEYS as u64)
        .int("capacity", SHARD_CAPACITY as u64)
        .int("num_slots", shards[0].0.backend().slots().num_slots() as u64)
        .num("get_ns", get_ns, 1)
        .num("btreemap_get_ns", btree_get_ns, 1)
}

/// Wall-clock seconds for `n` random-rank classic inserts with metrics
/// recording on or off (same seeds either way, so the work is identical).
fn classic_insert_secs(n: usize, metrics: bool, salt: u64) -> f64 {
    let mut s = ListBuilder::new().seed(7).backend(Backend::Classic).build_fixed(n);
    if !metrics {
        s.set_metrics(ListMetrics::disabled());
    }
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

/// Wall-clock seconds for `n` random-rank classic inserts through
/// `Growable`, sized up front so no growth rebuild runs: the fixed-capacity
/// work of [`classic_insert_secs`] plus `Growable`'s per-op
/// `note_op_moves`, the moves-per-op histogram record a fixed-capacity
/// structure never makes.
fn growable_insert_secs(n: usize, metrics: bool, salt: u64) -> f64 {
    let sink = if metrics { ListMetrics::handle(true) } else { ListMetrics::disabled() };
    let mut s = Growable::with_metrics(lll_classic::ClassicBuilder, n, sink);
    let mut rng = lll_core::rng::rng_from_seed(0xC0DE ^ salt);
    let mut rep = lll_core::report::OpReport::default();
    let t = Instant::now();
    for len in 0..n {
        let rank = rng.gen_range(0..=len);
        s.insert_reported_into(rank, &mut rep);
        std::hint::black_box(rep.cost());
    }
    assert_eq!(s.stats().grows, 0, "the timed inserts grew the structure");
    t.elapsed().as_secs_f64()
}

/// Quartiles of the metrics-on/off time ratio, in percent above 1, over
/// `pairs` pairs of `run(metrics, salt)` on the same inputs, alternating
/// which side runs first so drift hits both equally.
fn overhead_quartiles(pairs: u64, run: impl Fn(bool, u64) -> f64) -> [f64; 3] {
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|salt| {
            let on_first = salt % 2 == 0;
            let first = run(on_first, salt);
            let second = run(!on_first, salt);
            if on_first {
                first / second
            } else {
                second / first
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| (ratios[q * (ratios.len() - 1) / 4] - 1.0) * 100.0)
}

/// The metrics-overhead gate: `PAIRS` pairs of instrumented and
/// uninstrumented classic insert runs on the same inputs. It gates on the
/// median of the per-pair on/off time ratios, which one slow run cannot
/// move. True iff that median overhead is within the budget.
///
/// It also prints, without gating on it, the same figure for inserts
/// through `Growable`, which adds the per-op moves-per-op histogram
/// record: on a 2-vCPU VM that median reads close to the budget, too
/// close to gate on.
fn overhead_gate() -> bool {
    const N: usize = 1 << 17;
    const PAIRS: u64 = 41;
    const MAX_OVERHEAD: f64 = 0.05;
    let [q1, median, q3] = overhead_quartiles(PAIRS, |on, salt| classic_insert_secs(N, on, salt));
    eprintln!(
        "overhead-gate: classic n={N}, {PAIRS} on/off pairs: overhead median {median:+.2}% \
         (quartiles {q1:+.2}%, {q3:+.2}%; budget {:.0}%)",
        MAX_OVERHEAD * 100.0
    );
    let [g1, gmedian, g3] = overhead_quartiles(PAIRS, |on, salt| growable_insert_secs(N, on, salt));
    eprintln!(
        "overhead-gate: classic through Growable n={N}, {PAIRS} on/off pairs: overhead median \
         {gmedian:+.2}% (quartiles {g1:+.2}%, {g3:+.2}%; printed, not gated)"
    );
    median <= MAX_OVERHEAD * 100.0
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
    let kernel_calls = if smoke { 1 << 10 } else { 1 << 16 };
    let (shard_maps, shard_gets) = if smoke { (4, 1 << 10) } else { (128, 1 << 20) };
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
        .rows("kernels", [30, 60, 90].map(|density| kernel_row(density, kernel_calls)))
        .rows(
            "shard_gets",
            Backend::ALL.map(|backend| shard_get_row(backend, shard_maps, shard_gets)),
        )
        .emit("BENCH_core_ops.json", smoke);
}
