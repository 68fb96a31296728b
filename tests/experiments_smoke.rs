//! Smoke-run the whole experiment suite in quick mode: every experiment
//! must produce non-empty tables, every in-experiment assertion (Lemma
//! 5's deadweight cap, Lemma 7's halting condition) must hold, and every
//! cell must equal the committed golden rendering.

use lll_bench::experiments::{all_experiments, ExpConfig};
use lll_bench::Table;

/// The quick suite's tables at seed `0xBEEF`, rendered without their
/// `kops/s` columns. Those are the suite's only wall-clock readings; every
/// other cell is a count of element moves or derived from counts, so the
/// seed fixes it.
const GOLDEN: &str = include_str!("fixtures/experiments_quick.txt");

/// `t` without its wall-clock columns.
fn without_timings(t: &Table) -> Table {
    let keep: Vec<bool> = t.headers.iter().map(|h| h != "kops/s").collect();
    let pick = |cells: &[String]| -> Vec<String> {
        cells.iter().zip(&keep).filter(|(_, &k)| k).map(|(c, _)| c.clone()).collect()
    };
    Table {
        title: t.title.clone(),
        headers: pick(&t.headers),
        rows: t.rows.iter().map(|r| pick(r)).collect(),
    }
}

#[test]
fn all_experiments_run_quick() {
    let cfg = ExpConfig { quick: true, seed: 0xBEEF };
    let results = all_experiments(&cfg);
    assert_eq!(
        results.len(),
        10,
        "experiment suite changed size — update the index in lll_bench::experiments"
    );
    let mut rendered = String::new();
    for (id, tables) in results {
        assert!(!tables.is_empty(), "{id} produced no tables");
        for t in tables {
            assert!(!t.rows.is_empty(), "{id}: empty table '{}'", t.title);
            rendered.push_str(&without_timings(&t).render());
            rendered.push('\n');
        }
    }
    for (i, (got, want)) in rendered.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {} differs from tests/fixtures/experiments_quick.txt", i + 1);
    }
    assert_eq!(rendered.lines().count(), GOLDEN.lines().count(), "line count differs");
}

#[test]
fn experiment_tables_write_csv() {
    let cfg = ExpConfig { quick: true, seed: 0xF00D };
    let dir = std::env::temp_dir().join("lll_experiments_csv_test");
    let _ = std::fs::remove_dir_all(&dir);
    let tables = lll_bench::experiments::e9_lemma7(&cfg);
    for t in &tables {
        t.write_csv(&dir).expect("csv write");
    }
    let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(!entries.is_empty());
}
