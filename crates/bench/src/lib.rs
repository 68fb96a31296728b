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
