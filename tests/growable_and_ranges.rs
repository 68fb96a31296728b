//! Integration tests for the library-facing conveniences: dynamic capacity
//! ([`Growable`]) over every algorithm, and rank-range iteration.

use layered_list_labeling::adaptive::AdaptiveBuilder;
use layered_list_labeling::classic::ClassicBuilder;
use layered_list_labeling::core::growable::{check_growable, Growable, RawList};
use layered_list_labeling::core::ids::IdGen;
use layered_list_labeling::core::ops::Op;
use layered_list_labeling::core::traits::{LabelingBuilder, ListLabeling};
use layered_list_labeling::deamortized::DeamortizedBuilder;
use layered_list_labeling::embedding::EmbedBuilder;
use layered_list_labeling::randomized::RandomizedBuilder;
use layered_list_labeling::workloads::{uniform_churn, uniform_random_inserts};
use rand::{Rng, SeedableRng};

fn churn_ops(total: usize, seed: u64) -> Vec<Op> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut len = 0usize;
    for _ in 0..total {
        if len == 0 || rng.gen_bool(0.58) {
            ops.push(Op::Insert(rng.gen_range(0..=len)));
            len += 1;
        } else {
            ops.push(Op::Delete(rng.gen_range(0..len)));
            len -= 1;
        }
    }
    ops
}

#[test]
fn growable_over_classic() {
    check_growable(ClassicBuilder, &churn_ops(2500, 1));
}

#[test]
fn growable_over_adaptive() {
    check_growable(AdaptiveBuilder, &churn_ops(2500, 2));
}

#[test]
fn growable_over_randomized() {
    check_growable(RandomizedBuilder::with_seed(7), &churn_ops(2500, 3));
}

#[test]
fn growable_over_deamortized() {
    check_growable(DeamortizedBuilder, &churn_ops(2500, 4));
}

#[test]
fn growable_over_embedding() {
    // The embedding composes with the growth wrapper too: a dynamically
    // sized structure with the layered guarantees at each size.
    let b = EmbedBuilder::new(AdaptiveBuilder, ClassicBuilder);
    let g = check_growable(b, &churn_ops(1200, 5));
    assert!(g.grow_stats().grows >= 1, "should have grown past 16");
}

#[test]
fn growable_growth_is_amortized() {
    let mut g = Growable::new(ClassicBuilder, 16);
    let n = 4096;
    for i in 0..n {
        g.insert(i); // appends
    }
    // Appending n elements with ~log2(n/16) doublings stays polylog per op
    // (a linear structure would pay ~n/2 ≈ 2000 here).
    let per_op = g.total_moves() as f64 / n as f64;
    let logsq = (n as f64).log2().powi(2);
    assert!(per_op < logsq, "append amortized {per_op} should be < log²n = {logsq:.0}");
    assert!(g.grow_stats().grows >= 8);
}

#[test]
fn iter_range_matches_rank_queries_everywhere() {
    let w = uniform_random_inserts(500, 9);
    let structures: Vec<Box<dyn ListLabeling>> = vec![
        Box::new(ClassicBuilder.build_default(w.peak)),
        Box::new(AdaptiveBuilder.build_default(w.peak)),
        Box::new(DeamortizedBuilder.build_default(w.peak)),
    ];
    for mut s in structures {
        let mut ids = IdGen::new();
        for &op in &w.ops {
            s.apply(op, &mut ids);
        }
        let items: Vec<_> = s.iter_range(100, 200).collect();
        assert_eq!(items.len(), 100);
        for (i, &(rank, label, elem)) in items.iter().enumerate() {
            assert_eq!(rank, 100 + i);
            assert_eq!(label, s.label_of_rank(rank));
            assert_eq!(elem, s.elem_at_rank(rank));
        }
        // full-range walk is the whole layout in order
        let all: Vec<_> = s.iter_range(0, s.len()).collect();
        assert_eq!(all.len(), s.len());
        assert!(all.windows(2).all(|p| p[0].1 < p[1].1), "labels must increase");
    }
}

#[test]
fn iter_range_on_embedding() {
    let b = EmbedBuilder::new(AdaptiveBuilder, ClassicBuilder);
    let mut e = b.build_default(400);
    let w = uniform_churn(300, 400, 11);
    let mut ids = IdGen::new();
    for &op in &w.ops {
        e.apply(op, &mut ids);
    }
    let n = e.len();
    let mid: Vec<_> = e.iter_range(n / 4, 3 * n / 4).collect();
    assert_eq!(mid.len(), 3 * n / 4 - n / 4);
    assert!(mid.windows(2).all(|p| p[0].1 < p[1].1));
}
