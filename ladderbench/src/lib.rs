//! A host-normalized layer-ladder benchmark for the layered-list-labeling
//! stack. See `README.md` in this directory for the workloads, the
//! metrics and how to run one workload on its own.
//!
//! Every run is one process: it generates its inputs from the seed, sets
//! up (timed), then runs a fixed, seeded op stream closed-loop on one
//! thread, interleaving the program with a reference block by block and
//! checking every result against a `BTreeMap` oracle.

#![forbid(unsafe_code)]

pub mod e2e;
pub mod gen;
pub mod ladder;
pub mod served;
pub mod stats;

use gen::Workload;
use stats::Report;
use std::path::PathBuf;

/// Ops per interleaved block: the program runs a block, then the
/// reference runs the same block.
pub const BLOCK: usize = 256;
/// Timed set-up rounds per untraced run; `setup_s` comes from their
/// median.
pub const SETUP_REPEATS: usize = 5;
/// Leading ops of the stream that belong to set-up, at most half the
/// stream: the untraced run times them with the bulk load and leaves them
/// out of its measured loop (see [`e2e::split_warmup`]).
pub const WARMUP_OPS: usize = 1 << 15;

/// Measured ops per second of `--seconds`: the op budget is fixed by the
/// arguments (not by elapsed time), so every count a run reports repeats
/// exactly for a given seed. The rates make one run last about
/// `--seconds` on a 2-vCPU x86-64 VM.
pub fn op_budget(workload: Workload, traced: bool, seconds: u64) -> usize {
    let per_second = match (workload, traced) {
        (Workload::Uniform, false) => 100_000,
        (Workload::Clustered, false) => 30_000,
        (Workload::Uniform, true) => 3_300,
        (Workload::Clustered, true) => 2_500,
    };
    per_second * seconds.max(1) as usize
}

/// Seconds the `BTreeMap` set-up of `workload` (build from the start
/// contents, then the warm-up ops) takes on the reference host, a 2-vCPU
/// x86-64 VM. `setup_s` is the program's set-up time ÷ the `BTreeMap`'s,
/// both measured in the same run, times this: it reads as the program's
/// set-up seconds on the reference host, while the speed of the host the
/// run is on cancels.
pub fn reference_setup_s(workload: Workload) -> f64 {
    match workload {
        Workload::Uniform => 0.030,
        Workload::Clustered => 0.012,
    }
}

/// Where a run keeps its files, inside the current directory unless
/// `--log-dir` says otherwise.
pub struct Paths {
    /// Per-run scratch: log directories (removed when the run ends).
    pub run: PathBuf,
    /// The traced run's span dump.
    pub spans: PathBuf,
}

/// One run's arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Run length, which sets the op budget.
    pub seconds: u64,
    /// Run the traced ladder instead of the end-to-end path.
    pub trace: bool,
    /// Parent directory for log directories and span dumps.
    pub log_dir: PathBuf,
}

/// What the command line asks for.
pub enum Command {
    /// One benchmark run.
    Run(Args),
    /// The set-up child of an untraced run (see [`e2e::setup_child`]).
    SetupChild,
}

/// Default parent of run files, relative to the working directory.
pub const RUN_DIR: &str = ".ladder_run";

impl Command {
    /// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>
    /// [--log-dir <dir>]`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, false);
        let mut log_dir = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--setup-child" {
                return Ok(Command::SetupChild);
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => trace = number()? != 0,
                "--log-dir" => log_dir = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let log_dir = match log_dir {
            // A directory named on the command line (say, on tmpfs) must
            // exist: falling back to the working directory's disk would
            // silently change what the durable numbers measure.
            Some(dir) if !dir.is_dir() => {
                return Err(format!(
                    "log directory {} does not exist; create it (for example on a \
                     RAM-backed file system) or omit --log-dir to log under {RUN_DIR}",
                    dir.display()
                ))
            }
            Some(dir) => dir,
            None => PathBuf::from(RUN_DIR),
        };
        Ok(Command::Run(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
            log_dir,
        }))
    }
}

/// Run one workload and return its report.
pub fn run(args: &Args) -> Result<Report, String> {
    let ops = op_budget(args.workload, args.trace, args.seconds);
    let inputs = gen::generate(args.workload, args.seed, ops);
    if !args.trace {
        return e2e::run(args.workload, &inputs);
    }
    let name = args.workload.name();
    let paths = Paths {
        run: args.log_dir.join(format!("{name}-{}", std::process::id())),
        spans: args.log_dir.join(format!("{name}.spans.csv")),
    };
    std::fs::create_dir_all(&paths.run)
        .map_err(|e| format!("create {}: {e}", paths.run.display()))?;
    let result = ladder::run(&inputs, &paths);
    let _ = std::fs::remove_dir_all(&paths.run);
    result
}
