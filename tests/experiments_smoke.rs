//! Smoke-run the whole experiment suite in quick mode: every experiment
//! must produce non-empty tables and every in-experiment assertion (Lemma
//! 5's deadweight cap, Lemma 7's halting condition) must hold.

use lll_bench::experiments::{all_experiments, ExpConfig};

#[test]
fn all_experiments_run_quick() {
    let cfg = ExpConfig { quick: true, seed: 0xBEEF };
    let results = all_experiments(&cfg);
    assert_eq!(
        results.len(),
        10,
        "experiment suite changed size — update the index in lll_bench::experiments"
    );
    for (id, tables) in results {
        assert!(!tables.is_empty(), "{id} produced no tables");
        for t in tables {
            assert!(!t.rows.is_empty(), "{id}: empty table '{}'", t.title);
            // every row renders
            let rendered = t.render();
            assert!(rendered.contains("=="), "{id}: bad render");
        }
    }
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
