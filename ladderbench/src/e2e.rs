//! The untraced run. Set-up is timed in a fresh child process, round by
//! round against a `BTreeMap` doing the same set-up; then the workload
//! runs through `ShardedMap`, interleaved block by block with a `BTreeMap`
//! fed the same ops. It reports the metrics `BENCHMARK.json` bounds.

use crate::gen::SCAN_LEN;
use crate::gen::{apply, Entry, Inputs, Op, Out, Workload, GET, INSERT, KIND_NAMES, REMOVE};
use crate::stats::{heap_resident_bytes, median, ratio, Report, Samples};
use crate::{reference_setup_s, BLOCK, SETUP_REPEATS, WARMUP_OPS};
use lll_sharded::{ShardedBuilder, ShardedMap};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::process::Stdio;
use std::time::{Duration, Instant};

/// Per-kind latency samples of one side (program or reference).
#[derive(Default)]
pub struct Side {
    kinds: [Samples; 4],
    /// Time summed over every op of the side.
    pub total: Duration,
}

impl Side {
    fn record(&mut self, kind: usize, d: Duration) {
        self.kinds[kind].push(d);
        self.total += d;
    }

    /// Absolute p50s for the notes: "get 7.10 us (n=60123), ...".
    fn p50s(&mut self) -> String {
        let mut parts = Vec::new();
        for (kind, samples) in self.kinds.iter_mut().enumerate() {
            if !samples.is_empty() {
                let n = samples.len();
                parts.push(format!("{} {:.2} us (n={n})", KIND_NAMES[kind], samples.p50_us()));
            }
        }
        parts.join(", ")
    }
}

/// Apply `op` to the sharded map the workloads drive.
pub fn sharded_op(map: &ShardedMap<u64, [u8; 32]>, op: &Op) -> Out {
    match *op {
        Op::Get(k) => Out::Val(map.get(&k)),
        Op::Insert(k, v) => Out::Val(map.insert(k, v)),
        Op::Remove(k) => Out::Val(map.remove(&k)),
        Op::Scan(k) => Out::Scan(map.range_limited(k.., SCAN_LEN).0),
    }
}

/// Split `ops` into the warm-up and the measured rest. The warm-up (at
/// most half the stream) belongs to set-up: the set-up child times it
/// with the bulk load, and [`measure`] applies it untimed.
pub fn split_warmup(ops: &[Op]) -> (&[Op], &[Op]) {
    ops.split_at(WARMUP_OPS.min(ops.len() / 2))
}

/// The set-up child's input: the entry count (u64), the entries as
/// 40-byte records (key, then value), then the warm-up ops as 41-byte
/// records (kind, key, then the value or zeros). Integers are
/// little-endian.
fn encode_setup(entries: &[Entry], warmup: &[Op]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(8 + entries.len() * 40 + warmup.len() * 41);
    bytes.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (k, v) in entries {
        bytes.extend_from_slice(&k.to_le_bytes());
        bytes.extend_from_slice(v);
    }
    for op in warmup {
        bytes.push(op.kind() as u8);
        bytes.extend_from_slice(&op.key().to_le_bytes());
        bytes.extend_from_slice(match op {
            Op::Insert(_, v) => v,
            _ => &[0; 32],
        });
    }
    bytes
}

/// The inverse of [`encode_setup`].
fn decode_setup(bytes: &[u8]) -> Result<(Vec<Entry>, Vec<Op>), String> {
    let short = || "set-up input cut short".to_string();
    let count = bytes.get(..8).ok_or_else(short)?;
    let count = u64::from_le_bytes(count.try_into().expect("8 bytes")) as usize;
    let rest = &bytes[8..];
    let entry_bytes = count.checked_mul(40).filter(|&n| n <= rest.len()).ok_or_else(short)?;
    let (entries, ops) = rest.split_at(entry_bytes);
    let entry = |rec: &[u8]| -> Entry {
        let (k, v) = rec.split_at(8);
        (
            u64::from_le_bytes(k.try_into().expect("8-byte key")),
            v.try_into().expect("32-byte value"),
        )
    };
    let op = |rec: &[u8]| {
        let (k, v) = entry(&rec[1..]);
        match usize::from(rec[0]) {
            GET => Op::Get(k),
            INSERT => Op::Insert(k, v),
            REMOVE => Op::Remove(k),
            _ => Op::Scan(k),
        }
    };
    Ok((entries.chunks_exact(40).map(entry).collect(), ops.chunks_exact(41).map(op).collect()))
}

/// The set-up child: read the start entries and the warm-up ops from
/// standard input, then run [`SETUP_REPEATS`] rounds. A round is the
/// program's set-up (bulk load, then the warm-up ops) followed by the
/// same set-up on a `BTreeMap`, whose results check the program's. Prints
/// one line per round and a summary, which [`measure_setup`] parses. A
/// fresh process keeps the generator's freed memory out of the heap the
/// first bulk load grows, so the memory figure repeats exactly.
pub fn setup_child() -> Result<(), String> {
    let mut bytes = Vec::new();
    std::io::stdin().read_to_end(&mut bytes).map_err(|e| format!("read set-up input: {e}"))?;
    let (entries, warmup) = decode_setup(&bytes)?;
    drop(bytes);
    let (mut got, mut want) = (Vec::with_capacity(warmup.len()), Vec::with_capacity(warmup.len()));
    let (mut heap_growth, mut failed) = (0, 0);
    for round in 0..SETUP_REPEATS {
        let batch = entries.clone();
        let heap0 = (round == 0).then(heap_resident_bytes);
        let t = Instant::now();
        let map = ShardedBuilder::new().build_from_sorted(batch);
        let mut program = t.elapsed();
        if let Some(heap0) = heap0 {
            heap_growth = heap_resident_bytes().saturating_sub(heap0);
        }
        let t = Instant::now();
        got.extend(warmup.iter().map(|op| sharded_op(&map, op)));
        program += t.elapsed();
        drop(map);

        let t = Instant::now();
        let mut reference: BTreeMap<u64, [u8; 32]> = entries.iter().copied().collect();
        want.extend(warmup.iter().map(|op| apply(&mut reference, op)));
        let reference_time = t.elapsed();
        drop(reference);

        failed += got.iter().zip(&want).filter(|(g, w)| g != w).count();
        got.clear();
        want.clear();
        println!("round {} {}", program.as_secs_f64(), reference_time.as_secs_f64());
    }
    println!("heap {heap_growth} checked {} failed {failed}", SETUP_REPEATS * warmup.len());
    Ok(())
}

/// What the set-up child measured.
#[derive(Default)]
struct Setup {
    /// Seconds of each round's program set-up.
    program: Vec<f64>,
    /// Seconds of each round's `BTreeMap` set-up.
    reference: Vec<f64>,
    /// Heap bytes the first bulk load made resident.
    heap_growth: u64,
    /// Warm-up ops the child ran and checked, over all rounds.
    checked: u64,
    /// Of those, the ones that disagreed with the `BTreeMap`.
    failed: u64,
}

/// Run the set-up rounds in a child process (see [`setup_child`]).
fn measure_setup(inputs: &Inputs) -> Result<Setup, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = std::process::Command::new(exe)
        .arg("--setup-child")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    let input = encode_setup(&inputs.start, split_warmup(&inputs.ops).0);
    // The child reads all of its input before it writes anything, so
    // writing first and then collecting the output cannot deadlock.
    let written = child.stdin.take().expect("piped stdin").write_all(&input);
    let out = child.wait_with_output().map_err(|e| format!("wait for set-up child: {e}"))?;
    if !out.status.success() || written.is_err() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("set-up child failed ({}): {stderr}", out.status));
    }
    let mut setup = Setup::default();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let bad = || format!("set-up child printed {line:?}");
        let words: Vec<&str> = line.split(' ').collect();
        match words[..] {
            ["round", program, reference] => {
                setup.program.push(program.parse().map_err(|_| bad())?);
                setup.reference.push(reference.parse().map_err(|_| bad())?);
            }
            ["heap", heap, "checked", checked, "failed", failed] => {
                setup.heap_growth = heap.parse().map_err(|_| bad())?;
                setup.checked = checked.parse().map_err(|_| bad())?;
                setup.failed = failed.parse().map_err(|_| bad())?;
            }
            _ => return Err(bad()),
        }
    }
    if setup.program.len() != SETUP_REPEATS || setup.checked == 0 {
        return Err("set-up child printed no result".to_string());
    }
    Ok(setup)
}

/// Run the stream as the end-to-end metrics time it. `ShardedMap` and a
/// `BTreeMap` start from the same contents; the warm-up is applied and
/// checked untimed, then the rest runs in alternating blocks of [`BLOCK`]
/// ops, program first. Every result, and the final contents, are checked
/// against the `BTreeMap`.
pub fn measure(inputs: &Inputs, report: &mut Report) -> (Side, Side) {
    let map = ShardedBuilder::new().build_from_sorted(inputs.start.clone());
    let mut reference: BTreeMap<u64, [u8; 32]> = inputs.start.iter().copied().collect();
    let (warmup, measured) = split_warmup(&inputs.ops);
    for op in warmup {
        report.failed += u64::from(sharded_op(&map, op) != apply(&mut reference, op));
    }
    report.attempted += warmup.len() as u64;

    let (mut prog, mut refs) = (Side::default(), Side::default());
    let mut got = Vec::with_capacity(BLOCK);
    for block in measured.chunks(BLOCK) {
        got.clear();
        for op in block {
            let t = Instant::now();
            let out = sharded_op(&map, op);
            prog.record(op.kind(), t.elapsed());
            got.push(out);
        }
        for (op, out) in block.iter().zip(&got) {
            let t = Instant::now();
            let want = apply(&mut reference, op);
            refs.record(op.kind(), t.elapsed());
            report.failed += u64::from(*out != want);
        }
        report.attempted += block.len() as u64;
    }
    report.bad_checks += u64::from(map.to_vec() != reference.into_iter().collect::<Vec<_>>());
    (prog, refs)
}

/// The untraced run of `workload`: set-up in a child process, then
/// [`measure`].
pub fn run(workload: Workload, inputs: &Inputs) -> Result<Report, String> {
    let setup = measure_setup(inputs)?;
    let mut report = Report { attempted: setup.checked, failed: setup.failed, ..Report::default() };
    let t = Instant::now();
    let (mut prog, mut refs) = measure(inputs, &mut report);
    let elapsed = t.elapsed().as_secs_f64();

    let setup_ratios: Vec<f64> =
        setup.program.iter().zip(&setup.reference).map(|(p, r)| ratio(*p, *r)).collect();
    let warmup = split_warmup(&inputs.ops).0.len();
    let rounds: Vec<String> =
        setup.program.iter().zip(&setup.reference).map(|(p, r)| format!("{p:.3}/{r:.4}")).collect();
    report.notes = vec![
        format!(
            "set-up (bulk load, then {warmup} ops), median of {SETUP_REPEATS} rounds: \
             ShardedMap {:.3} s, BTreeMap {:.4} s, ratio {:.2}",
            median(&setup.program),
            median(&setup.reference),
            median(&setup_ratios)
        ),
        format!("set-up rounds, ShardedMap/BTreeMap seconds: {}", rounds.join(" ")),
        format!(
            "{} ops measured after the warm-up; stream run in {elapsed:.2} s",
            inputs.ops.len() - warmup
        ),
        format!("ShardedMap p50: {}", prog.p50s()),
        format!("BTreeMap p50: {}", refs.p50s()),
    ];
    let insert_mean = refs.kinds[INSERT].mean_us();
    report.metrics = vec![
        ("setup_s", median(&setup_ratios) * reference_setup_s(workload), "s"),
        ("op_time_vs_btree", ratio(prog.total.as_secs_f64(), refs.total.as_secs_f64()), "ratio"),
        ("get_p50_vs_btree", ratio(prog.kinds[GET].p50_us(), refs.kinds[GET].p50_us()), "ratio"),
        ("insert_mean_vs_btree", ratio(prog.kinds[INSERT].mean_us(), insert_mean), "ratio"),
        ("insert_p99_vs_btree", ratio(prog.kinds[INSERT].p99_us(), insert_mean), "ratio"),
        ("rss_bytes_per_entry", setup.heap_growth as f64 / inputs.start.len() as f64, "B"),
    ];
    Ok(report)
}
