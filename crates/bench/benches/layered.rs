//! E5/E13 wall-clock throughput of Corollary 11's layered structure.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use lll_core::ids::IdGen;
use lll_core::traits::{LabelingBuilder, ListLabeling};
use lll_embedding::corollary11_builder;
use lll_workloads::{hammer_inserts, uniform_random_inserts};

fn bench_layered(c: &mut Criterion) {
    let n = 1 << 11;
    let mut g = c.benchmark_group("layered");
    g.sample_size(10);
    for w in [uniform_random_inserts(n, 7), hammer_inserts(n, 0)] {
        g.bench_with_input(BenchmarkId::new("corollary11", &w.name), &w, |bch, w| {
            bch.iter_batched(
                || corollary11_builder(42).build_default(w.peak),
                |mut s| {
                    let mut ids = IdGen::new();
                    for &op in &w.ops {
                        criterion::black_box(s.apply(op, &mut ids).cost());
                    }
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_layered);
criterion_main!(benches);
