//! E13 wall-clock throughput of the base algorithms (Criterion), plus the
//! bulk-ingest comparison for the production API.
//!
//! Cost-model experiments live in the `experiments` binary; these benches
//! measure operations per second of each structure on two canonical
//! workloads (uniform random inserts and hammer inserts), and compare
//! `LabelMap::from_sorted_iter` (one evenly-spread sweep per batch) against
//! key-at-a-time insertion of the same pre-sorted data.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use lll_adaptive::AdaptiveBuilder;
use lll_api::{Backend, LabelMap, ListBuilder};
use lll_classic::ClassicBuilder;
use lll_core::ids::IdGen;
use lll_core::traits::{LabelingBuilder, ListLabeling};
use lll_deamortized::DeamortizedBuilder;
use lll_randomized::RandomizedBuilder;
use lll_workloads::{hammer_inserts, uniform_random_inserts, Workload};

fn run_workload_bench<B: LabelingBuilder>(b: &B, w: &Workload) {
    let mut s = b.build_default(w.peak);
    let mut ids = IdGen::new();
    for &op in &w.ops {
        criterion::black_box(s.apply(op, &mut ids).cost());
    }
}

fn bench_baselines(c: &mut Criterion) {
    let n = 1 << 12;
    let workloads = [uniform_random_inserts(n, 7), hammer_inserts(n, 0)];
    let mut g = c.benchmark_group("baselines");
    g.sample_size(10);
    for w in &workloads {
        g.bench_with_input(BenchmarkId::new("classic", &w.name), w, |bch, w| {
            bch.iter_batched(
                || (),
                |_| run_workload_bench(&ClassicBuilder, w),
                BatchSize::PerIteration,
            )
        });
        g.bench_with_input(BenchmarkId::new("adaptive", &w.name), w, |bch, w| {
            bch.iter_batched(
                || (),
                |_| run_workload_bench(&AdaptiveBuilder::default(), w),
                BatchSize::PerIteration,
            )
        });
        g.bench_with_input(BenchmarkId::new("randomized", &w.name), w, |bch, w| {
            bch.iter_batched(
                || (),
                |_| run_workload_bench(&RandomizedBuilder::with_seed(1), w),
                BatchSize::PerIteration,
            )
        });
        g.bench_with_input(BenchmarkId::new("deamortized", &w.name), w, |bch, w| {
            bch.iter_batched(
                || (),
                |_| run_workload_bench(&DeamortizedBuilder::default(), w),
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

/// Bulk vs incremental ingest of a pre-sorted key set through `LabelMap`,
/// on the default layered backend and the classical PMA.
fn bench_bulk_load(c: &mut Criterion) {
    let n: u64 = 1 << 14;
    let mut g = c.benchmark_group("bulk_load");
    g.sample_size(10);
    for backend in [Backend::Corollary11, Backend::Classic] {
        g.bench_with_input(BenchmarkId::new("bulk", backend.name()), &n, |bch, &n| {
            bch.iter_batched(
                || (),
                |_| {
                    let mut map: LabelMap<u64, u64> =
                        ListBuilder::new().backend(backend).seed(7).label_map();
                    map.extend_sorted((0..n).map(|k| (k, k)).collect());
                    criterion::black_box(map.total_moves())
                },
                BatchSize::PerIteration,
            )
        });
        g.bench_with_input(BenchmarkId::new("incremental", backend.name()), &n, |bch, &n| {
            bch.iter_batched(
                || (),
                |_| {
                    let mut map: LabelMap<u64, u64> =
                        ListBuilder::new().backend(backend).seed(7).label_map();
                    for k in 0..n {
                        map.insert(k, k);
                    }
                    criterion::black_box(map.total_moves())
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_baselines, bench_bulk_load);
criterion_main!(benches);
