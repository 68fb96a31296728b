//! The linter's own gate: every committed known-bad fixture must be
//! flagged (with the expected rules), the CLI must exit non-zero on bad
//! input and zero on the workspace, and the live workspace must scan
//! clean — so `cargo test` fails the moment a rule regresses *or* the
//! workspace picks up a violation.

use lll_check::{check_file, Diagnostic, RULE_GRAMMAR, RULE_LOCK_ORDER, RULE_NO_ALLOC};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> (String, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let text = std::fs::read_to_string(&path).unwrap();
    (path.to_string_lossy().into_owned(), text)
}

fn run(name: &str) -> Vec<Diagnostic> {
    let (path, text) = fixture(name);
    check_file(&path, &text)
}

fn count(diags: &[Diagnostic], rule: &str) -> usize {
    diags.iter().filter(|d| d.rule == rule).count()
}

#[test]
fn flags_lock_order_violations() {
    let diags = run("bad_lock_order.rs");
    // second shard lock without maintenance (`let`-bound, and inside the
    // first lock's closure), maintenance under a shard guard, maintenance
    // re-entry, publish under a live shard guard — the four `fine_` fns
    // and the `#[cfg(test)]` module must stay silent
    assert_eq!(count(&diags, RULE_LOCK_ORDER), 5, "{diags:#?}");
    assert_eq!(diags.len(), 5, "{diags:#?}");
    let (_, text) = fixture("bad_lock_order.rs");
    for d in &diags {
        let owner = text.lines().take(d.line).filter_map(|l| l.split_once("fn ")).last();
        assert!(owner.is_some_and(|(_, f)| f.starts_with("bad_")), "outside a bad_ fn: {d}");
    }
}

#[test]
fn flags_no_alloc_violations() {
    let diags = run("bad_no_alloc.rs");
    // Vec::new, to_vec, format!
    assert_eq!(count(&diags, RULE_NO_ALLOC), 3, "{diags:#?}");
    assert_eq!(diags.len(), 3, "{diags:#?}");
}

#[test]
fn flags_unknown_directives() {
    // A misspelled directive would otherwise disable its gate silently.
    let text = concat!(
        "// lll-check: no-aloc\n",
        "pub fn hot(xs: &[u64]) -> Vec<u64> {\n",
        "    xs.to_vec()\n",
        "}\n",
    );
    let diags = check_file("typo_probe.rs", text);
    assert_eq!(count(&diags, RULE_GRAMMAR), 1, "{diags:#?}");
    assert_eq!(diags.len(), 1, "the misspelled directive guards nothing: {diags:#?}");
}

#[test]
fn cli_exit_codes() {
    for name in ["bad_lock_order.rs", "bad_no_alloc.rs"] {
        let (path, _) = fixture(name);
        let out = Command::new(env!("CARGO_BIN_EXE_lll-check")).arg(&path).output().unwrap();
        assert!(!out.status.success(), "CLI must fail on {name}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_lll-check"))
        .current_dir(workspace_root())
        .output()
        .unwrap();
    assert!(out.status.success(), "CLI must pass on the workspace: {out:?}");
}

#[test]
fn workspace_scans_clean() {
    let root = workspace_root();
    let report = lll_check::check_workspace(&root).unwrap();
    assert!(report.files > 20, "expected to scan the whole workspace, saw {}", report.files);
    assert!(
        report.diagnostics.is_empty(),
        "the live workspace must be lint-clean:\n{}",
        report.diagnostics.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

fn workspace_root() -> PathBuf {
    // crates/check → two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf()
}

#[test]
fn lexer_ignores_strings_comments_and_lifetimes() {
    // Tokens inside strings, raw strings, char literals and comments must
    // not fire, and a lifetime must not open a char literal.
    let text = concat!(
        "// lll-check: no-alloc\n",
        "pub fn f<'a>(s: &'a str) -> &'a str {\n",
        "    let _msg = \"Vec::new() and format!(..) freely in here\";\n",
        "    let _raw = r#\"also here: xs.to_vec() \"quoted\"\"#;\n",
        "    let _ch = '{';\n",
        "    // a comment may say vec![0; 8] or Box::new(x)\n",
        "    s\n",
        "}\n",
        "pub fn one_shard(&self) -> usize {\n",
        "    let g = self.map.rlock();\n",
        "    let _msg = \"a second self.map.rlock() here would be a finding\";\n",
        "    g.len()\n",
        "}\n",
    );
    let diags = check_file("lexer_probe.rs", text);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn doc_prose_cannot_activate_rules() {
    // A comment that merely *mentions* the grammar mid-sentence is inert;
    // only a comment that starts with the marker is a directive.
    let text = concat!(
        "//! Grammar note: write `lll-check: no-alloc` above a fn.\n",
        "pub fn allocs_fine() -> Vec<u8> {\n",
        "    Vec::new()\n",
        "}\n",
    );
    let diags = check_file("prose_probe.rs", text);
    assert!(diags.is_empty(), "{diags:#?}");
}
