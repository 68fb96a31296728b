//! Corollary 12 in action: a "learned" ingest pipeline.
//!
//! A database bulk-loader often has a model of where each arriving row will
//! end up in the final sorted order (from a learned CDF model, a histogram,
//! or last week's distribution). Corollary 12 turns that model into speed:
//! the layered structure `Predicted ⊳ (Randomized ⊳ Deamortized)` pays
//! O(log² η) amortized when the model's max rank error is η — while keeping
//! the randomized fallback on arbitrary input and the deamortized
//! worst-case cap on every single operation.
//!
//! We ingest a reversed stream (worst case for classical PMAs: every insert
//! at rank 0) with predictors of increasing error and watch the cost climb
//! from near-free (perfect model) toward the classical regime (useless
//! model), with the worst op bounded throughout. Oracle predictions are
//! per-arrival, so this sweep uses the paper-level fixed-capacity API.
//! The runtime-selectable `Backend`s take no predictions: without a model
//! there is nothing for Corollary 12 to exploit.
//!
//! Run with: `cargo run --release --example learned_index`

use layered_list_labeling::core::ids::IdGen;
use layered_list_labeling::core::traits::ListLabeling;
use layered_list_labeling::embedding::corollary12;
use layered_list_labeling::workloads::{descending_inserts, with_predictions};

fn main() {
    let n = 1 << 12;
    println!("ingesting {n} rows in reverse order with learned rank predictions\n");
    println!("{:>8}  {:>10}  {:>8}  {:>9}", "η", "amortized", "worst op", "slow ops");
    println!("{}", "-".repeat(42));

    let mut ids = IdGen::new();
    for eta in [0usize, 4, 16, 64, 256, 1024] {
        let pw = with_predictions(descending_inserts(n), eta, 0xDB);
        let mut index = corollary12(n, eta.max(1), pw.predictions.clone(), 0xA1);
        let mut total = 0u64;
        let mut worst = 0u64;
        for &op in &pw.workload.ops {
            let c = index.apply(op, &mut ids).cost();
            total += c;
            worst = worst.max(c);
        }
        println!(
            "{:>8}  {:>10.2}  {:>8}  {:>9}",
            eta,
            total as f64 / n as f64,
            worst,
            index.stats().slow_ops
        );
        // the list-labeling contract holds regardless of model quality
        assert_eq!(index.len(), n);
        let l0 = index.label_of_rank(0);
        let l_last = index.label_of_rank(n - 1);
        assert!(l0 < l_last);
        assert!(index.stats().max_deadweight <= 4);
    }

    println!("\nbetter predictions -> cheaper ingest; the worst case stays capped");
    println!("(Corollary 12: O(log² η) good case + O(log^1.5 n) expected + O(log² n) worst case)");
}
