//! # lll-bench — the experiment harness
//!
//! Regenerates every quantitative claim of the paper (the [`experiments`]
//! module docs hold the experiment ↔ paper-claim index). That module
//! contains one function per experiment; the `experiments` binary runs them
//! and prints paper-style tables (optionally writing CSV next to the
//! binary's working directory under `results/`).
//!
//! Cost model note: all "cost" columns are **element moves** (the paper's
//! cost measure), derived from the structures' move logs. Wall-clock
//! throughput is measured separately by the benches in `benches/`, which
//! write their `BENCH_*.json` reports through [`report::Json`].

#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod report;
pub mod table;

pub use harness::{run_workload, RunResult};
pub use table::Table;

/// SplitMix64's output function: the benches' deterministic uniform keys.
/// It is a bijection, so distinct inputs (say, a thread id in the high
/// bits and a counter in the low ones) give distinct keys.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
