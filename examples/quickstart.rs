//! Quickstart: the production API in one screen, then the paper-level
//! instrumentation underneath it.
//!
//! Run with: `cargo run --release --example quickstart`

use layered_list_labeling::core::traits::ListLabeling;
use layered_list_labeling::embedding::corollary11;
use layered_list_labeling::prelude::*;

fn main() {
    // ── The production API ────────────────────────────────────────────
    // A sorted map on Corollary 11's layered structure. No capacity to
    // choose, no ranks to compute: keys in, sorted order out.
    let mut scores: LabelMap<u64, &str> =
        ListBuilder::new().backend(Backend::Corollary11).seed(42).label_map();
    scores.insert(700, "carol");
    scores.insert(300, "alice");
    scores.insert(500, "bob");
    assert_eq!(scores.get(&500), Some(&"bob"));
    let podium: Vec<&str> = scores.range(300..=700).map(|(_, v)| *v).collect();
    println!("sorted by score: {podium:?}");

    // Order maintenance: stable handles, O(1) order queries.
    let mut tasks = OrderedList::new();
    let deploy = tasks.push_back("deploy");
    let build = tasks.insert_before(deploy, "build");
    let test = tasks.insert_after(build, "test");
    assert!(tasks.precedes(build, test) && tasks.precedes(test, deploy));
    println!("pipeline order: {:?}", tasks.values().collect::<Vec<_>>());

    // ── The paper-level view ──────────────────────────────────────────
    // X ⊳ (Y ⊳ Z): adaptive ⊳ (randomized ⊳ deamortized), all tapes
    // seeded, fixed capacity, raw move logs.
    let n = 4096;
    let mut list = corollary11(n, 42);
    println!(
        "\nlayered list-labeling structure: capacity {} over {} slots",
        list.capacity(),
        list.num_slots()
    );

    // A hammer-insert workload: every insertion at rank 0 (new smallest).
    // This is the classical PMA's worst friend and the adaptive layer's
    // best: the layered structure keeps both the amortized cost low and
    // every single operation bounded.
    let mut total = 0u64;
    let mut worst = 0u64;
    for i in 0..n {
        let cost = list.insert(0, ElemId(i as u32)).cost();
        total += cost;
        worst = worst.max(cost);
    }
    println!("hammer-inserted {n} elements:");
    println!("  amortized cost : {:.2} moves/op", total as f64 / n as f64);
    println!("  worst operation: {worst} moves");

    // The list-labeling contract: all elements in sorted order in one
    // array; the label of rank r is its slot position.
    let labels: Vec<usize> = (0..list.len()).map(|r| list.label_of_rank(r)).collect();
    assert!(labels.windows(2).all(|w| w[0] < w[1]), "labels must increase with rank");
    println!("  labels strictly increase with rank ✓ (first 8: {:?})", &labels[..8]);

    // Layer diagnostics from the embedding (the paper's instrumentation).
    let s = list.stats();
    println!("embedding stats:");
    println!("  fast-path ops    : {}", s.fast_ops);
    println!("  slow-path ops    : {}", s.slow_ops);
    println!("  rebuilds         : {}", s.rebuilds_completed);
    println!("  max buffered     : {} (Lemma 7: o(n))", s.max_buffered);
    println!("  max deadweight   : {} (Lemma 5: ≤ 4)", s.max_deadweight);
    assert!(s.max_deadweight <= 4);
}
