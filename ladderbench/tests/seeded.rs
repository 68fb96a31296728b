//! Seeded inputs and exact counts. The runs here use the release binary's
//! full-size inputs, so run them with `cargo test --release`.

use ladderbench::gen::{generate, Workload};
use ladderbench::Command;
use std::path::Path;

#[test]
fn a_seed_fixes_the_inputs_and_another_seed_changes_them() {
    for w in Workload::ALL {
        let (a, b, c) = (generate(w, 7, 20_000), generate(w, 7, 20_000), generate(w, 8, 20_000));
        assert_eq!(a.preload, b.preload, "{}", w.name());
        assert_eq!(a.history, b.history, "{}", w.name());
        assert_eq!(a.start, b.start, "{}", w.name());
        assert_eq!(a.ops, b.ops, "{}", w.name());
        assert_ne!(a.preload, c.preload, "{}", w.name());
        assert_ne!(a.ops, c.ops, "{}", w.name());
    }
}

#[test]
fn a_missing_log_dir_is_an_error_not_a_fallback() {
    let args = ["--workload", "embedded_uniform_mix", "--seed", "1", "--seconds", "1"]
        .into_iter()
        .chain(["--trace", "1", "--log-dir", "/nonexistent/ladderbench-logs"])
        .map(String::from);
    let err = Command::parse(args).err().expect("a missing log directory must be refused");
    assert!(err.contains("does not exist"), "unhelpful message: {err}");
}

/// The value of `name` in a result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line.find(&key).expect(name);
    let rest = &line[at + key.len()..];
    rest[..rest.find(',').expect("value end")].parse().expect("number")
}

fn run(dir: &Path, workload: &str, trace: &str) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ladderbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
        .arg("--log-dir")
        .arg(dir)
        .output()
        .expect("run ladderbench");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    stdout.lines().last().expect("a result line").to_string()
}

/// Metric names of a result line, in print order.
fn emitted(line: &str) -> Vec<String> {
    let chunks: Vec<&str> = line.split("\": {\"value\"").collect();
    chunks[..chunks.len() - 1].iter().map(|c| c[c.rfind('"').expect("name") + 1..].into()).collect()
}

/// Metric names `BENCHMARK.json` declares in `section`, in order.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = json.find(&format!("\"{section}\": [")).expect(section);
    let body = &json[start..start + json[start..].find(']').expect("section end")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').expect("name end")].into()).collect()
}

/// Counts a traced run reports: each must repeat exactly for a seed.
const EXACT: [&str; 12] = [
    "core.moves_per_insert",
    "core.moves_per_op_p99",
    "core.moves_per_op_max",
    "core.rebalances_per_kop",
    "core.scan_words_per_op",
    "core.setup_moves_per_entry",
    "sharded.moves_per_insert",
    "sharded.splits_per_kop",
    "sharded.shards",
    "api.key_compares_per_op",
    "wal.replayed_records",
    "wal.disk_bytes_per_entry",
];

#[test]
fn exact_counts_repeat_for_a_seed_and_every_declared_metric_is_printed() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("seeded");
    std::fs::create_dir_all(&dir).expect("log dir");
    for w in Workload::ALL {
        let (a, b) = (run(&dir, w.name(), "1"), run(&dir, w.name(), "1"));
        assert_eq!(emitted(&a), declared("per_layer"), "{}", w.name());
        for name in EXACT {
            assert_eq!(metric(&a, name), metric(&b, name), "{} {name}", w.name());
        }
        let (a, b) = (run(&dir, w.name(), "0"), run(&dir, w.name(), "0"));
        assert_eq!(emitted(&a), declared("end_to_end"), "{}", w.name());
        let rss = "rss_bytes_per_entry";
        assert_eq!(metric(&a, rss), metric(&b, rss), "{} {rss}", w.name());
    }
}
