//! The traced run: the workload's op stream replayed one layer lower at a
//! time, with a span around every call into each rung.
//!
//! The rungs, top to bottom: a client of a durable server, `DurableMap` in
//! process, `ShardedMap`, one `LabelMap`, and the raw backend under it. A
//! layer's self time is its rung's mean span minus the mean span one rung
//! down, for the same ops. A `BTreeMap` and an echo round trip run
//! alongside as references; the `BTreeMap` is also the oracle every rung's
//! result is checked against. Afterwards the stream runs once more,
//! untraced, as the end-to-end run times it: the difference is the
//! tracing overhead.

use crate::e2e;
use crate::gen::{apply, Entry, Inputs, Op, Out, CHECKPOINT, GET, INSERT, KIND_NAMES, REMOVE};
use crate::gen::{SCAN, SCAN_LEN};
use crate::served::{self, Echo, Reply, WireOp, CHECKPOINT_EVERY};
use crate::stats::{dir_bytes, median, quantile, ratio, thread_usage, threads_named};
use crate::stats::{Metric, Report, Samples};
use crate::{Paths, BLOCK};
use lll_api::{LabelMap, ListBuilder, RawList};
use lll_server::{Client, DurableKvMap, Server, ServerConfig};
use lll_sharded::{ShardedBuilder, ShardedMap};
use lll_wal::DurableOptions;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::ops::Bound;
use std::time::{Duration, Instant};

/// Rung and reference names, as span dumps print them.
const RUNGS: [&str; 7] = ["client", "durable", "sharded", "labelmap", "raw", "ref", "echo"];
const CLIENT: usize = 0;
const DURABLE: usize = 1;
const SHARDED: usize = 2;
const LABELMAP: usize = 3;
const RAW: usize = 4;
const REF: usize = 5;
const ECHO: usize = 6;

/// Timed repetitions of the per-layer restart steps.
const OPEN_REPEATS: usize = 3;

thread_local! {
    static COMPARES: Cell<u64> = const { Cell::new(0) };
}

fn compares() -> u64 {
    COMPARES.with(Cell::get)
}

/// A key whose `Ord` counts its calls: one call is one probe of the
/// `LabelMap` binary search (a select plus an entry lookup).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counted<K>(pub K);

impl<K: Ord> Ord for Counted<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        COMPARES.with(|c| c.set(c.get() + 1));
        self.0.cmp(&other.0)
    }
}

impl<K: Ord> PartialOrd for Counted<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One recorded span: a call into one rung for one op.
struct Span {
    rung: u8,
    kind: u8,
    op: u32,
    start: u64,
    end: u64,
}

/// Spans plus per-rung, per-kind samples.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    samples: [[Samples; 5]; 7],
}

impl Tracer {
    /// Record one call into `rung` for op `op`, from `t0` to `t1`, and
    /// return its duration.
    fn record(
        &mut self,
        rung: usize,
        kind: usize,
        op: usize,
        t0: Instant,
        t1: Instant,
    ) -> Duration {
        let d = t1 - t0;
        self.samples[rung][kind].push(d);
        self.spans.push(Span {
            rung: rung as u8,
            kind: kind as u8,
            op: op as u32,
            start: (t0 - self.epoch).as_nanos() as u64,
            end: (t1 - self.epoch).as_nanos() as u64,
        });
        d
    }

    fn mean(&self, rung: usize, kind: usize) -> f64 {
        self.samples[rung][kind].mean_us()
    }

    /// Mean at `rung` minus mean one rung down, microseconds.
    fn self_us(&self, rung: usize, kind: usize) -> f64 {
        self.mean(rung, kind) - self.mean(rung + 1, kind)
    }

    fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "rung,kind,op,start_ns,end_ns")?;
        for s in &self.spans {
            let (rung, kind) = (RUNGS[s.rung as usize], KIND_NAMES[s.kind as usize]);
            writeln!(w, "{rung},{kind},{},{},{}", s.op, s.start, s.end)?;
        }
        w.flush()
    }
}

/// Counters read at the start and the end of the measured loop.
struct Counts {
    sharded: lll_sharded::ShardedStats,
    moves: u64,
    rebalances: u64,
    scan_words: u64,
    rebuilds: u64,
}

/// The traced run of `workload`: every per-layer metric, plus the span
/// dump written to `paths.spans`.
pub fn run(inputs: &Inputs, paths: &Paths) -> Result<Report, String> {
    let mut report = Report::default();
    let prepared = paths.run.join("prepared");
    served::prepare(&prepared, inputs)?;

    // Restart steps, below the server: snapshot restore, then log open.
    let checkpoint = served::checkpoint_file(&prepared)?;
    let mut restore_s = Vec::new();
    for _ in 0..OPEN_REPEATS {
        let file = std::fs::File::open(&checkpoint).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let map = ShardedMap::<Vec<u8>, Vec<u8>>::read_snapshot(&mut BufReader::new(file))
            .map_err(|e| format!("read_snapshot: {e}"))?;
        restore_s.push(t.elapsed().as_secs_f64());
        drop(map);
    }

    // Rung 1: a durable server restarted from the prepared directory.
    let server_dir = paths.run.join("server");
    served::copy_dir(&prepared, &server_dir)?;
    let (mut handle, recovery) = Server::start_durable(
        &server_dir,
        DurableOptions::default(),
        &ShardedBuilder::new(),
        ServerConfig::default(),
    )
    .map_err(|e| format!("start_durable {}: {e}", server_dir.display()))?;
    report.bad_checks += u64::from(recovery.replayed != inputs.history.len() as u64);
    report.bad_checks += u64::from(!served::contents_match(&handle, &inputs.start));
    let workers = threads_named("lll-server-work");
    let server_flusher = threads_named("lll-wal-flusher");
    let server_wal = handle.durable().ok_or("server is not durable")?.wal().metrics().clone();

    // Rung 2: `DurableMap` in process, on its own copy.
    let mut open_s = Vec::new();
    let mut durable = None;
    let mut replayed = 0;
    for i in 0..OPEN_REPEATS {
        let dir = paths.run.join(format!("durable-{i}"));
        served::copy_dir(&prepared, &dir)?;
        let t = Instant::now();
        let (map, rec) =
            DurableKvMap::open(&dir, DurableOptions::default(), &ShardedBuilder::new())
                .map_err(|e| format!("open {}: {e}", dir.display()))?;
        open_s.push(t.elapsed().as_secs_f64());
        replayed = rec.replayed;
        if i + 1 == OPEN_REPEATS {
            durable = Some(map);
        } else {
            drop(map);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let durable = durable.expect("at least one open");

    // Rungs 3-5 and the reference, all from the same start contents.
    let n = inputs.start.len();
    let sharded = ShardedBuilder::new().build_from_sorted(inputs.start.clone());
    let setup_moves = sharded.stats().total_moves as f64 / n as f64;
    let mut label_map: LabelMap<Counted<u64>, [u8; 32]> = ListBuilder::new().label_map();
    label_map.extend_sorted(inputs.start.iter().map(|&(k, v)| (Counted(k), v)).collect());
    let mut raw = ListBuilder::new().build();
    raw.splice_reported(0, n);
    let mut reference: BTreeMap<u64, [u8; 32]> = inputs.start.iter().copied().collect();

    let mut client = Client::connect(handle.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut echo = Echo::start().map_err(|e| format!("echo: {e}"))?;
    let core = label_map.metrics();
    let counts = |sharded: &ShardedMap<u64, [u8; 32]>| Counts {
        sharded: sharded.stats(),
        moves: core.moves.get(),
        rebalances: core.rebalances.get(),
        scan_words: core.scan_words.get(),
        rebuilds: core.epoch_bumps.get(),
    };
    let before = counts(&sharded);
    let (worker0, flusher0) = (thread_usage(&workers), thread_usage(&server_flusher));
    let (requests0, appends0) = (handle.served_requests(), server_wal.appends.get());

    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::with_capacity(inputs.ops.len() * 7),
        samples: Default::default(),
    };
    let mut mutation_moves: Vec<u64> = Vec::new();
    let (mut label_compares, mut log_bytes, mut log_records) = (0u64, 0u64, 0u64);
    let mut outs: [Vec<Out>; 4] = Default::default();
    // `ShardedMap` and `BTreeMap` time over the ops the end-to-end run
    // measures (those after the warm-up), for `trace.overhead_pct`.
    let warmup = e2e::split_warmup(&inputs.ops).0.len();
    let (mut sharded_time, mut ref_time) = (Duration::ZERO, Duration::ZERO);

    for (b, block) in inputs.ops.chunks(BLOCK).enumerate() {
        let base = b * BLOCK;
        let checkpoint_at = (base..base + block.len())
            .find(|&i| i > 0 && i % CHECKPOINT_EVERY == 0)
            .map(|i| i - base);
        outs.iter_mut().for_each(Vec::clear);

        // Rung 1: the client.
        let mut wire: Vec<WireOp> = block.iter().map(WireOp::new).collect();
        for (i, (op, w)) in block.iter().zip(&wire).enumerate() {
            if checkpoint_at == Some(i) {
                let t = Instant::now();
                let ok = client.snapshot("").is_ok();
                tracer.record(CLIENT, CHECKPOINT, base + i, t, Instant::now());
                report.failed += u64::from(!ok);
            }
            let t = Instant::now();
            let reply = w.call(&mut client);
            tracer.record(CLIENT, op.kind(), base + i, t, Instant::now());
            outs[CLIENT].push(reply.map_or(Out::Failed, Reply::decode));
        }

        // Rung 2: `DurableMap` in process, on the same wire-form arguments.
        let bytes0 = durable.wal().disk_bytes();
        let records0 = durable.wal().metrics().appends.get();
        for (i, (op, w)) in block.iter().zip(&mut wire).enumerate() {
            if checkpoint_at == Some(i) {
                let t = Instant::now();
                let ok = durable.checkpoint().is_ok();
                tracer.record(DURABLE, CHECKPOINT, base + i, t, Instant::now());
                report.failed += u64::from(!ok);
            }
            let t = Instant::now();
            let reply = w.apply(&durable);
            tracer.record(DURABLE, op.kind(), base + i, t, Instant::now());
            outs[DURABLE].push(reply.map_or(Out::Failed, Reply::decode));
        }
        if checkpoint_at.is_none() {
            log_bytes += durable.wal().disk_bytes().saturating_sub(bytes0);
            log_records += durable.wal().metrics().appends.get() - records0;
        }

        // Rung 3: `ShardedMap`, called as the end-to-end run calls it.
        for (i, op) in block.iter().enumerate() {
            let t = Instant::now();
            let out = e2e::sharded_op(&sharded, op);
            let d = tracer.record(SHARDED, op.kind(), base + i, t, Instant::now());
            if base + i >= warmup {
                sharded_time += d;
            }
            outs[SHARDED].push(out);
        }

        // Rungs 4 and 5: one `LabelMap`, then the raw backend at the rank
        // the `LabelMap` resolves. The rank is resolved untimed after the
        // `LabelMap` call, so that call meets caches as cold as the other
        // rungs' calls do: after an insert it is the new key's rank, after
        // a remove the rank the key left.
        for (i, op) in block.iter().enumerate() {
            let key = Counted(op.key());
            let (c0, m0) = (compares(), core.moves.get());
            let t = Instant::now();
            let (t1, out) = match *op {
                Op::Get(_) => {
                    let v = label_map.get(&key);
                    let t1 = Instant::now();
                    (t1, Out::Val(v.copied()))
                }
                Op::Insert(_, v) => {
                    let prev = label_map.insert(key, v);
                    (Instant::now(), Out::Val(prev))
                }
                Op::Remove(_) => {
                    let prev = label_map.remove(&key);
                    (Instant::now(), Out::Val(prev))
                }
                Op::Scan(_) => {
                    let found: Vec<(&Counted<u64>, &[u8; 32])> = label_map
                        .range((Bound::Included(&key), Bound::Unbounded))
                        .take(SCAN_LEN)
                        .collect();
                    let t1 = Instant::now();
                    (t1, Out::Scan(found.iter().map(|(k, v)| (k.0, **v)).collect()))
                }
            };
            tracer.record(LABELMAP, op.kind(), base + i, t, t1);
            label_compares += compares() - c0;
            if matches!(op, Op::Insert(..) | Op::Remove(_)) {
                mutation_moves.push(core.moves.get() - m0);
            }
            outs[LABELMAP].push(out);

            let rank = label_map.lower_bound(&key);
            let t = Instant::now();
            match op {
                Op::Get(_) => {
                    std::hint::black_box(raw.label_of_rank(rank));
                }
                Op::Insert(..) => {
                    raw.insert(rank);
                }
                Op::Remove(_) => {
                    raw.delete(rank);
                }
                Op::Scan(_) => {
                    if rank < raw.len() {
                        let mut label = raw.label_of_rank(rank);
                        for _ in 1..SCAN_LEN.min(raw.len() - rank) {
                            label = raw.next_label_after(label).unwrap_or(label);
                        }
                        std::hint::black_box(label);
                    }
                }
            }
            tracer.record(RAW, op.kind(), base + i, t, Instant::now());
        }

        // The references: `BTreeMap` (also the oracle), then echo.
        for (i, op) in block.iter().enumerate() {
            let t = Instant::now();
            let want = apply(&mut reference, op);
            let d = tracer.record(REF, op.kind(), base + i, t, Instant::now());
            if base + i >= warmup {
                ref_time += d;
            }
            let agree = outs.iter().all(|o| o[i] == want);
            report.failed += u64::from(!agree);
        }
        for i in 0..block.len() {
            let t = Instant::now();
            let ok = echo.round_trip((base + i) as u64).is_ok();
            tracer.record(ECHO, GET, base + i, t, Instant::now());
            report.failed += u64::from(!ok);
        }
        report.attempted += block.len() as u64;
    }

    let measured = tracer.epoch.elapsed().as_secs_f64();
    let worker = thread_usage(&workers).since(worker0);
    let flusher = thread_usage(&server_flusher).since(flusher0);
    let requests = (handle.served_requests() - requests0) as f64;
    let appends = (server_wal.appends.get() - appends0) as f64;
    let verb = client.metrics().map_err(|e| format!("metrics verb: {e}"))?;
    let after = counts(&sharded);
    drop(client);
    drop(echo);

    let end: Vec<Entry> = reference.into_iter().collect();
    let disk_per_entry = dir_bytes(&server_dir) as f64 / end.len() as f64;
    report.bad_checks += u64::from(!served::contents_match(&handle, &end));
    let durable_end = served::unwire_entries(&durable.map().to_vec());
    report.bad_checks += u64::from(durable_end.as_deref() != Some(&end[..]));
    report.bad_checks += u64::from(sharded.to_vec() != end);
    report.bad_checks += u64::from(label_map.len() != end.len() || raw.len() != end.len());
    handle.shutdown();
    drop((durable, sharded, label_map, raw));
    tracer.dump(&paths.spans).map_err(|e| format!("span dump {}: {e}", paths.spans.display()))?;

    // Tracing overhead: the stream again on fresh structures, timed as the
    // end-to-end run times it, against the traced `sharded` rung over the
    // same ops.
    let (untraced_prog, untraced_ref) = e2e::measure(inputs, &mut report);
    let untraced = ratio(untraced_prog.total.as_secs_f64(), untraced_ref.total.as_secs_f64());
    let traced = ratio(sharded_time.as_secs_f64(), ref_time.as_secs_f64());

    let ops = inputs.ops.len() as f64;
    let kind_count = |kind: usize| tracer.samples[REF][kind].len() as f64;
    let inserts = kind_count(INSERT);
    let mut rtt = tracer.samples[ECHO][GET].clone();
    let mut refs = tracer.samples[REF].clone();
    let window_p99 = core.rebalance_window.p99() as f64;
    mutation_moves.sort_unstable();
    let t = &tracer;
    let metrics: Vec<Metric> = vec![
        ("server.get_self_us", t.self_us(CLIENT, GET), "us"),
        ("server.insert_self_us", t.self_us(CLIENT, INSERT), "us"),
        ("server.scan_self_us", t.self_us(CLIENT, SCAN), "us"),
        ("server.worker_cpu_us_per_req", ratio(worker.cpu_ns as f64 / 1e3, requests), "us"),
        ("server.worker_wakeups_per_req", ratio(worker.wakeups as f64, requests), "count"),
        ("server.rtt_us", rtt.p50_us(), "us"),
        ("wal.insert_self_us", t.self_us(DURABLE, INSERT), "us"),
        ("wal.remove_self_us", t.self_us(DURABLE, REMOVE), "us"),
        ("wal.flusher_cpu_us_per_record", ratio(flusher.cpu_ns as f64 / 1e3, appends), "us"),
        ("wal.flusher_wakeups_per_record", ratio(flusher.wakeups as f64, appends), "count"),
        ("wal.fsyncs_per_record", ratio(verb.wal_fsyncs as f64, verb.wal_appends as f64), "count"),
        ("wal.log_bytes_per_record", ratio(log_bytes as f64, log_records as f64), "B"),
        ("wal.disk_bytes_per_entry", disk_per_entry, "B"),
        ("wal.checkpoint_ms", t.mean(DURABLE, CHECKPOINT) / 1e3, "ms"),
        ("wal.open_s", median(&open_s), "s"),
        ("wal.replayed_records", replayed as f64, "count"),
        ("sharded.get_self_us", t.self_us(SHARDED, GET), "us"),
        ("sharded.insert_self_us", t.self_us(SHARDED, INSERT), "us"),
        ("sharded.remove_self_us", t.self_us(SHARDED, REMOVE), "us"),
        ("sharded.scan_self_us", t.self_us(SHARDED, SCAN), "us"),
        (
            "sharded.splits_per_kop",
            (after.sharded.splits - before.sharded.splits) as f64 * 1e3 / ops,
            "count",
        ),
        (
            "sharded.merges_per_kop",
            (after.sharded.merges - before.sharded.merges) as f64 * 1e3 / ops,
            "count",
        ),
        (
            "sharded.moves_per_insert",
            ratio((after.sharded.total_moves - before.sharded.total_moves) as f64, inserts),
            "count",
        ),
        ("sharded.shards", after.sharded.shards as f64, "count"),
        ("sharded.snapshot_restore_s", median(&restore_s), "s"),
        ("api.get_self_us", t.self_us(LABELMAP, GET), "us"),
        ("api.insert_self_us", t.self_us(LABELMAP, INSERT), "us"),
        ("api.remove_self_us", t.self_us(LABELMAP, REMOVE), "us"),
        ("api.scan_self_us", t.self_us(LABELMAP, SCAN), "us"),
        ("api.key_compares_per_op", label_compares as f64 / ops, "count"),
        ("core.insert_us", t.mean(RAW, INSERT), "us"),
        ("core.delete_us", t.mean(RAW, REMOVE), "us"),
        ("core.select_us", t.mean(RAW, GET), "us"),
        ("core.scan_us", t.mean(RAW, SCAN), "us"),
        ("core.moves_per_insert", ratio((after.moves - before.moves) as f64, inserts), "count"),
        ("core.moves_per_op_p99", quantile(&mutation_moves, 0.99) as f64, "count"),
        ("core.moves_per_op_max", quantile(&mutation_moves, 1.0) as f64, "count"),
        (
            "core.rebalances_per_kop",
            (after.rebalances - before.rebalances) as f64 * 1e3 / ops,
            "count",
        ),
        ("core.rebalance_window_p99", window_p99, "count"),
        ("core.scan_words_per_op", (after.scan_words - before.scan_words) as f64 / ops, "count"),
        ("core.rebuilds", (after.rebuilds - before.rebuilds) as f64, "count"),
        ("core.setup_moves_per_entry", setup_moves, "count"),
        ("ref.get_p50_us", refs[GET].p50_us(), "us"),
        ("ref.insert_p50_us", refs[INSERT].p50_us(), "us"),
        ("ref.remove_p50_us", refs[REMOVE].p50_us(), "us"),
        ("ref.scan_p50_us", refs[SCAN].p50_us(), "us"),
        ("trace.overhead_pct", (ratio(traced, untraced) - 1.0) * 100.0, "%"),
    ];
    report.metrics = metrics;
    report.notes.push(format!("{} ops through every rung in {measured:.2} s", inputs.ops.len()));
    report.notes.push(format!(
        "ShardedMap time / BTreeMap time after the warm-up: traced {traced:.3}, untraced \
         {untraced:.3}"
    ));
    for (rung, name) in RUNGS.iter().enumerate() {
        let means: Vec<String> = (0..KIND_NAMES.len())
            .filter(|&kind| !t.samples[rung][kind].is_empty())
            .map(|kind| format!("{} {:.2} us", KIND_NAMES[kind], t.mean(rung, kind)))
            .collect();
        report.notes.push(format!("{name} mean: {}", means.join(", ")));
    }
    Ok(report)
}
