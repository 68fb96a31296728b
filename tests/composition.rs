//! Composition (Theorem 2/3) integration tests: nesting depth, slot-budget
//! math, lemma-level invariants of the full Corollary 11/12 structures
//! under sustained churn, and the qualitative cost guarantees.

use layered_list_labeling::adaptive::AdaptiveBuilder;
use layered_list_labeling::classic::ClassicBuilder;
use layered_list_labeling::core::ids::{ElemId, IdGen};
use layered_list_labeling::core::testkit::run_against_oracle;
use layered_list_labeling::core::traits::{LabelingBuilder, ListLabeling};
use layered_list_labeling::deamortized::DeamortizedBuilder;
use layered_list_labeling::embedding::{
    corollary11, corollary11_builder, corollary12, EmbedBuilder, EmbedConfig,
};
use layered_list_labeling::randomized::RandomizedBuilder;
use layered_list_labeling::workloads as wl;

#[test]
fn triple_nesting_compiles_and_agrees() {
    // Three embeddings deep: ((adaptive ⊳ classic) used as F!) ⊳ classic —
    // the F side of an embedding can also be an embedding.
    let inner = EmbedBuilder {
        f: AdaptiveBuilder,
        r: ClassicBuilder,
        cfg: EmbedConfig { epsilon: 1.0 / 6.0, ..Default::default() },
    };
    let outer = EmbedBuilder {
        f: inner,
        r: ClassicBuilder,
        cfg: EmbedConfig { epsilon: 1.0 / 3.0, ..Default::default() },
    };
    let w = wl::uniform_churn(150, 500, 21);
    let mut s = outer.build_default(w.peak);
    run_against_oracle(&mut s, &w.ops, 53);
}

#[test]
fn corollary11_under_churn_keeps_invariants() {
    let n = 1 << 10;
    let w = wl::uniform_churn(n / 2, 2 * n, 31);
    let mut e = corollary11(n, 13);
    run_against_oracle(&mut e, &w.ops, 509);
    e.check_invariants();
    let s = e.stats();
    assert!(s.max_deadweight <= 4, "Lemma 5: {}", s.max_deadweight);
    assert_eq!(s.forced_catchups, 0, "Lemma 7 halting condition fired");
}

#[test]
fn corollary11_worst_case_tracks_z_not_y() {
    // Theorem 3's worst-case claim, measured: the layered structure's max
    // per-op cost is within a small factor of Z's and far below Y's spikes.
    let n = 1 << 12;
    let w = wl::hammer_inserts(n, 0);
    let run_max = |mut s: Box<dyn FnMut() -> u64>| -> u64 { s() };
    let _ = run_max;

    let mut y = RandomizedBuilder::with_seed(3).build_default(n);
    let mut z = DeamortizedBuilder.build_default(n);
    let mut l = corollary11(n, 3);
    let (mut max_y, mut max_z, mut max_l) = (0u64, 0u64, 0u64);
    let mut ids = IdGen::new();
    for &op in &w.ops {
        max_y = max_y.max(y.apply(op, &mut ids).cost());
        max_z = max_z.max(z.apply(op, &mut ids).cost());
        max_l = max_l.max(l.apply(op, &mut ids).cost());
    }
    assert!(max_l < max_y / 2, "layered max {max_l} should be far below Y's spike {max_y}");
    assert!(
        max_l < 8 * max_z,
        "layered max {max_l} should be within a constant of Z's cap {max_z}"
    );
}

#[test]
fn corollary11_amortized_tracks_x_on_hammer() {
    let n = 1 << 12;
    let w = wl::hammer_inserts(n, 0);
    let mut x = AdaptiveBuilder.build_default(n);
    let mut l = corollary11(n, 5);
    let (mut tot_x, mut tot_l) = (0u64, 0u64);
    let mut ids = IdGen::new();
    for &op in &w.ops {
        tot_x += x.apply(op, &mut ids).cost();
        tot_l += l.apply(op, &mut ids).cost();
    }
    let (ax, al) = (tot_x as f64 / n as f64, tot_l as f64 / n as f64);
    assert!(
        al < 20.0 * ax.max(1.0),
        "layered amortized {al:.1} should be within a constant of X's {ax:.1}"
    );
}

#[test]
fn corollary12_layered_runs_descending_with_predictions() {
    let n = 1 << 10;
    let pw = wl::with_predictions(wl::descending_inserts(n), 8, 17);
    let mut e = corollary12(n, 8, pw.predictions.clone(), 19);
    run_against_oracle(&mut e, &pw.workload.ops, 101);
    e.check_invariants();
    assert!(e.stats().max_deadweight <= 4);
}

#[test]
fn embedding_capacity_is_exact() {
    // Fill a layered structure to its full declared capacity and empty it.
    let n = 512;
    let mut e = corollary11(n, 23);
    for i in 0..n {
        e.insert(i / 2, ElemId(i as u64));
    }
    assert_eq!(e.len(), n);
    for _ in 0..n {
        e.delete(e.len() - 1);
    }
    assert!(e.is_empty());
    e.check_invariants();
}

#[test]
fn layered_builder_reports_consistent_dimensions() {
    let b = corollary11_builder(1);
    let n = 400;
    let e = b.build_default(n);
    assert_eq!(e.capacity(), n);
    assert!(e.num_slots() >= (n as f64 * 2.0) as usize, "double embedding needs ~2.4n slots");
    // min_slack is what build_default used
    assert!(e.num_slots() as f64 >= b.min_slack() * n as f64);
}
