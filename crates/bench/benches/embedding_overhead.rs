//! E4/E13: the constant-factor overhead of one embedding layer — F alone
//! versus F ⊳ R on the same workload.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use lll_adaptive::AdaptiveBuilder;
use lll_classic::ClassicBuilder;
use lll_core::ids::IdGen;
use lll_core::traits::{LabelingBuilder, ListLabeling};
use lll_embedding::EmbedBuilder;
use lll_workloads::uniform_random_inserts;

fn bench_overhead(c: &mut Criterion) {
    let n = 1 << 12;
    let w = uniform_random_inserts(n, 3);
    let mut g = c.benchmark_group("embedding_overhead");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::new("adaptive_alone", n), &w, |bch, w| {
        bch.iter_batched(
            || AdaptiveBuilder::default().build_default(w.peak),
            |mut s| {
                let mut ids = IdGen::new();
                for &op in &w.ops {
                    criterion::black_box(s.apply(op, &mut ids).cost());
                }
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_with_input(BenchmarkId::new("adaptive_in_classic", n), &w, |bch, w| {
        bch.iter_batched(
            || EmbedBuilder::new(AdaptiveBuilder::default(), ClassicBuilder).build_default(w.peak),
            |mut s| {
                let mut ids = IdGen::new();
                for &op in &w.ops {
                    criterion::black_box(s.apply(op, &mut ids).cost());
                }
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
