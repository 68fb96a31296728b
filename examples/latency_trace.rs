//! Latency-profile comparison: per-operation cost traces rendered as ASCII
//! sparklines — the paper's §1 story in one screen. The randomized
//! structure `Y` has great *average* cost but "almost pessimal tail
//! bounds"; the deamortized `Z` is capped but pays more on average; the
//! layered `X ⊳ (Y ⊳ Z)` keeps the average low *and* the tail capped.
//!
//! (In a database, per-op element moves are response-time jitter: a single
//! 10⁴-move rebalance is a latency spike that a tail-latency SLO notices.)
//!
//! The structures are built through [`ListBuilder::build_fixed`] — the
//! type-erased fixed-capacity form — so one `run` function drives every
//! backend without naming a concrete type.
//!
//! Run with: `cargo run --release --example latency_trace`

use layered_list_labeling::core::ids::IdGen;
use layered_list_labeling::core::ops::Op;
use layered_list_labeling::core::traits::ListLabeling;
use layered_list_labeling::prelude::{Backend, ListBuilder};
use layered_list_labeling::workloads::hammer_inserts;

const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render costs as a log-scaled sparkline, bucketing ops into `width` bins
/// (each bin shows its max — the latency view).
fn sparkline(costs: &[u64], width: usize) -> String {
    let chunk = costs.len().div_ceil(width);
    let maxima: Vec<u64> =
        costs.chunks(chunk).map(|c| c.iter().copied().max().unwrap_or(0)).collect();
    let top = (*maxima.iter().max().unwrap_or(&1) as f64).ln().max(1.0);
    maxima
        .iter()
        .map(|&m| {
            let level = ((m.max(1) as f64).ln() / top * (BARS.len() - 1) as f64).round();
            BARS[level as usize]
        })
        .collect()
}

fn run(backend: Backend, n: usize, ops: &[Op]) -> Vec<u64> {
    let mut s: Box<dyn ListLabeling> = ListBuilder::new().backend(backend).seed(7).build_fixed(n);
    let mut ids = IdGen::new();
    ops.iter().map(|&op| s.apply(op, &mut ids).cost()).collect()
}

fn main() {
    let n = 1 << 13;
    let w = hammer_inserts(n, 0);
    println!("per-op move-count traces, hammer workload, n={n} (log scale, bin = max)\n");

    let y = run(Backend::Randomized, n, &w.ops);
    let z = run(Backend::Deamortized, n, &w.ops);
    let l = run(Backend::Corollary11, n, &w.ops);

    let stats = |c: &[u64]| {
        let total: u64 = c.iter().sum();
        let max = *c.iter().max().unwrap();
        (total as f64 / c.len() as f64, max)
    };
    let (ay, my) = stats(&y);
    let (az, mz) = stats(&z);
    let (al, ml) = stats(&l);

    println!("Y randomized   avg {ay:6.1}  max {my:6}  {}", sparkline(&y, 72));
    println!("Z deamortized  avg {az:6.1}  max {mz:6}  {}", sparkline(&z, 72));
    println!("X>(Y>Z) layered avg {al:5.1}  max {ml:6}  {}", sparkline(&l, 72));

    println!("\nreading the traces:");
    println!("  - Y's line is mostly low with tall spikes (heavy tail: cost k w.p. ~1/k)");
    println!("  - Z's line is uniformly mid-height (bounded, but always paying)");
    println!("  - the layered line hugs the bottom with a hard ceiling: Theorem 3.");
    assert!(ml < my, "layered max should undercut Y's spike");
}
