//! CLI for the workspace invariant linter.
//!
//! * `cargo run -p lll-check` — scan the whole workspace (found by walking
//!   up from the current directory to the `[workspace]` manifest); exit 0
//!   iff no rule fires.
//! * `cargo run -p lll-check -- <file>...` — scan specific files (used by
//!   the fixture self-tests); diagnostics name each path as given.

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() && fs::read_to_string(&manifest).ok()?.contains("[workspace]") {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scanned, diags) = if args.is_empty() {
        let Some(root) = find_workspace_root() else {
            eprintln!("lll-check: cannot locate a [workspace] Cargo.toml above the current dir");
            return ExitCode::FAILURE;
        };
        match lll_check::check_workspace(&root) {
            Ok(report) => (report.files, report.diagnostics),
            Err(e) => {
                eprintln!("lll-check: workspace scan failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let mut diags = Vec::new();
        for path in &args {
            match fs::read_to_string(path) {
                Ok(text) => diags.extend(lll_check::check_file(path, &text)),
                Err(e) => {
                    eprintln!("lll-check: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        (args.len(), diags)
    };
    for d in &diags {
        println!("{d}");
    }
    println!("lll-check: {scanned} file(s) scanned, {} finding(s)", diags.len());
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
