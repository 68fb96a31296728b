//! `ladderbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints one JSON result as the last line of standard output and exits 0
//! when every op agreed with the oracle; exits non-zero otherwise.

#![forbid(unsafe_code)]

use ladderbench::{e2e, run, Command};

fn fail(e: String) -> ! {
    eprintln!("ladderbench: {e}");
    std::process::exit(1);
}

fn main() {
    let args = match Command::parse(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => args,
        Ok(Command::SetupChild) => return e2e::setup_child().unwrap_or_else(|e| fail(e)),
        Err(e) => {
            eprintln!("ladderbench: {e}");
            std::process::exit(2);
        }
    };
    let report = run(&args).unwrap_or_else(|e| fail(e));
    for note in &report.notes {
        eprintln!("ladderbench: {note}");
    }
    println!("{}", report.json());
    if !report.correct() {
        fail(format!(
            "{} of {} ops failed or disagreed with the oracle; {} state checks failed",
            report.failed, report.attempted, report.bad_checks
        ));
    }
}
