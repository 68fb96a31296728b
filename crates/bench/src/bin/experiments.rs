//! Experiment driver: regenerates every table/figure-level claim of the
//! paper (see the index in the `lll_bench::experiments` module docs).
//!
//! Usage:
//!   experiments [--quick] [--csv DIR] [--seed N] [e4 e5 ...]
//!
//! With no experiment ids, runs the whole suite. `--quick` shrinks sizes
//! (CI smoke run); full mode runs the sizes the index states. Run in
//! release mode: `cargo run -p lll-bench --release --bin experiments`.

#![forbid(unsafe_code)]

use lll_bench::experiments::{all_experiments, ExpConfig};
use std::path::PathBuf;

fn main() {
    let mut cfg = ExpConfig::default();
    let mut csv_dir: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => cfg.quick = true,
            "--csv" => {
                csv_dir = Some(PathBuf::from(args.next().expect("--csv needs a directory")));
            }
            "--seed" => {
                cfg.seed = args.next().expect("--seed needs a value").parse().expect("seed u64");
            }
            "--help" | "-h" => {
                println!("usage: experiments [--quick] [--csv DIR] [--seed N] [e4 e4b e5 e6 e7 e8 e9 e10 e11 e12 ...]");
                return;
            }
            other => wanted.push(other.to_ascii_lowercase()),
        }
    }
    println!(
        "layered-list-labeling experiments (mode: {}, seed: {})\n",
        if cfg.quick { "quick" } else { "full" },
        cfg.seed
    );
    let started = std::time::Instant::now();
    for (id, tables) in all_experiments(&cfg) {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == id) {
            continue;
        }
        for t in tables {
            t.print();
            if let Some(dir) = &csv_dir {
                if let Err(e) = t.write_csv(dir) {
                    eprintln!("csv write failed: {e}");
                }
            }
        }
    }
    println!("total wall time: {:.1}s", started.elapsed().as_secs_f64());
}
