//! E6/E13: learning-augmented PMA throughput across prediction error η.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use lll_core::ids::IdGen;
use lll_core::traits::{LabelingBuilder, ListLabeling};
use lll_predictions::{PredictedBuilder, VecPredictor};
use lll_workloads::{descending_inserts, with_predictions};

fn bench_predictions(c: &mut Criterion) {
    let n = 1 << 12;
    let mut g = c.benchmark_group("predictions");
    g.sample_size(10);
    for eta in [0usize, 16, 256] {
        let pw = with_predictions(descending_inserts(n), eta, 5);
        g.bench_with_input(BenchmarkId::new("predicted_pma", eta), &pw, |bch, pw| {
            bch.iter_batched(
                || {
                    PredictedBuilder {
                        eta: pw.eta.max(1),
                        predictor: VecPredictor::new(pw.predictions.clone()),
                    }
                    .build_default(pw.workload.peak)
                },
                |mut s| {
                    let mut ids = IdGen::new();
                    for &op in &pw.workload.ops {
                        criterion::black_box(s.apply(op, &mut ids).cost());
                    }
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_predictions);
criterion_main!(benches);
