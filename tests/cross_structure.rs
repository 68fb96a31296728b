//! Cross-crate integration: every structure in the workspace, fed the same
//! workloads, must agree with the reference oracle — and therefore with
//! each other — on the element order at all times.

use layered_list_labeling::adaptive::AdaptiveBuilder;
use layered_list_labeling::classic::{ClassicBuilder, ShiftArrayBuilder};
use layered_list_labeling::core::ids::IdGen;
use layered_list_labeling::core::ops::Op;
use layered_list_labeling::core::testkit::run_against_oracle;
use layered_list_labeling::core::traits::{LabelingBuilder, ListLabeling};
use layered_list_labeling::deamortized::DeamortizedBuilder;
use layered_list_labeling::embedding::{corollary11_builder, EmbedBuilder};
use layered_list_labeling::predictions::{PredictedBuilder, VecPredictor};
use layered_list_labeling::randomized::RandomizedBuilder;
use layered_list_labeling::workloads as wl;

fn check_workload<B: LabelingBuilder>(b: &B, ops: &[Op], peak: usize) {
    let mut s = b.build_default(peak);
    run_against_oracle(&mut s, ops, 127);
}

fn suites() -> Vec<wl::Workload> {
    let n = 600;
    let mut v = wl::standard_suite(n, 99);
    v.push(wl::uniform_churn(n / 2, 2 * n, 100));
    v.push(wl::bulk_runs(12, 50, 101));
    v
}

#[test]
fn classic_agrees_on_all_workloads() {
    for w in suites() {
        check_workload(&ClassicBuilder, &w.ops, w.peak);
    }
}

#[test]
fn adaptive_agrees_on_all_workloads() {
    for w in suites() {
        check_workload(&AdaptiveBuilder, &w.ops, w.peak);
    }
}

#[test]
fn randomized_agrees_on_all_workloads() {
    for w in suites() {
        check_workload(&RandomizedBuilder::with_seed(5), &w.ops, w.peak);
    }
}

#[test]
fn deamortized_agrees_on_all_workloads() {
    for w in suites() {
        check_workload(&DeamortizedBuilder, &w.ops, w.peak);
    }
}

#[test]
fn predicted_agrees_on_all_workloads() {
    for w in suites() {
        let b = PredictedBuilder { eta: 64, predictor: VecPredictor::default() };
        check_workload(&b, &w.ops, w.peak);
    }
}

#[test]
fn naive_shift_agrees_on_all_workloads() {
    for w in suites() {
        check_workload(&ShiftArrayBuilder, &w.ops, w.peak);
    }
}

#[test]
fn single_embedding_agrees_on_all_workloads() {
    let b = EmbedBuilder::new(AdaptiveBuilder, ClassicBuilder);
    for w in suites() {
        check_workload(&b, &w.ops, w.peak);
    }
}

#[test]
fn layered_corollary11_agrees_on_all_workloads() {
    let b = corollary11_builder(77);
    for w in suites() {
        check_workload(&b, &w.ops, w.peak);
    }
}

#[test]
fn all_structures_agree_with_each_other() {
    // Run the same sequence everywhere; final element orders must be
    // identical as sequences of per-structure insertion indices.
    let w = wl::uniform_churn(300, 600, 55);
    fn order_signature<B: LabelingBuilder>(b: &B, w: &wl::Workload) -> Vec<usize> {
        // Map each element to the index of the op that inserted it.
        let mut s = b.build_default(w.peak);
        let mut birth = std::collections::HashMap::new();
        let mut ids = IdGen::new();
        for (i, &op) in w.ops.iter().enumerate() {
            let rep = s.apply(op, &mut ids);
            if let Some((id, _)) = rep.placed {
                birth.insert(id, i);
            }
        }
        (0..s.len()).map(|r| birth[&s.elem_at_rank(r)]).collect()
    }
    let sig_classic = order_signature(&ClassicBuilder, &w);
    assert_eq!(sig_classic, order_signature(&AdaptiveBuilder, &w));
    assert_eq!(sig_classic, order_signature(&RandomizedBuilder::with_seed(9), &w));
    assert_eq!(sig_classic, order_signature(&DeamortizedBuilder, &w));
    assert_eq!(
        sig_classic,
        order_signature(&EmbedBuilder::new(AdaptiveBuilder, ClassicBuilder), &w)
    );
    assert_eq!(sig_classic, order_signature(&corollary11_builder(3), &w));
}
