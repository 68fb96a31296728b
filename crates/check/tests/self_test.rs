//! The linter's own gate: every committed known-bad fixture must be
//! flagged (with the expected rules), the known-good fixture must be
//! silent, the CLI must exit non-zero on bad input, and the live
//! workspace must scan clean — so `cargo test` fails the moment a rule
//! regresses *or* the workspace picks up a violation.

use lll_check::{
    check_file, Diagnostic, RULE_GRAMMAR, RULE_LOCK_ORDER, RULE_NO_ALLOC, RULE_PANIC_FREE,
    RULE_UNSAFE,
};
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
fn flags_panic_free_violations() {
    let diags = run("bad_panic_free.rs");
    // indexing, unwrap, expect, truncating cast, panic!, unreachable!
    assert_eq!(count(&diags, RULE_PANIC_FREE), 6, "{diags:#?}");
    assert_eq!(diags.len(), 6, "only panic-free findings expected: {diags:#?}");
}

#[test]
fn flags_wal_decode_regressions() {
    let diags = run("bad_wal_decode.rs");
    // 7 index expressions (4 header bytes, the unwrap line's slice, the
    // expect line's slice — see the fixture), unwrap, expect, panic!,
    // unreachable!, truncating cast
    assert_eq!(count(&diags, RULE_PANIC_FREE), 11, "{diags:#?}");
    assert_eq!(diags.len(), 11, "only panic-free findings expected: {diags:#?}");
}

#[test]
fn flags_lock_order_violations() {
    let diags = run("bad_lock_order.rs");
    // second shard lock without maintenance, maintenance under a shard
    // guard, maintenance re-entry, publish under a live shard guard, and
    // six raw acquisitions (.read/.write/.lock and their try_ variants) —
    // the three `fine_` fns must stay silent
    assert_eq!(count(&diags, RULE_LOCK_ORDER), 10, "{diags:#?}");
    assert_eq!(diags.len(), 10, "{diags:#?}");
}

#[test]
fn flags_unsafe_violations() {
    let diags = run("bad_unsafe.rs");
    // missing #![forbid(unsafe_code)] + un-whitelisted unsafe block
    assert_eq!(count(&diags, RULE_UNSAFE), 2, "{diags:#?}");

    let diags = run("bad_unsafe_whitelisted.rs");
    // whitelisted file: only the SAFETY-less block fires
    assert_eq!(count(&diags, RULE_UNSAFE), 1, "{diags:#?}");
    assert_eq!(diags.len(), 1, "{diags:#?}");
}

#[test]
fn flags_no_alloc_violations() {
    let diags = run("bad_no_alloc.rs");
    // Vec::new, to_vec, format!
    assert_eq!(count(&diags, RULE_NO_ALLOC), 3, "{diags:#?}");
    assert_eq!(diags.len(), 3, "{diags:#?}");
}

#[test]
fn flags_grammar_violations() {
    let diags = run("bad_allow_missing_justification.rs");
    // naked allow + allow naming an unknown rule
    assert_eq!(count(&diags, RULE_GRAMMAR), 2, "{diags:#?}");
    // the mis-spelled allow suppresses nothing: the indexing still fires
    assert_eq!(count(&diags, RULE_PANIC_FREE), 1, "{diags:#?}");
}

#[test]
fn good_fixture_is_silent() {
    let diags = run("good_allow.rs");
    assert!(diags.is_empty(), "justified allows must suppress cleanly: {diags:#?}");
}

#[test]
fn cli_exits_nonzero_on_every_bad_fixture() {
    let bad = [
        "bad_panic_free.rs",
        "bad_wal_decode.rs",
        "bad_lock_order.rs",
        "bad_unsafe.rs",
        "bad_unsafe_whitelisted.rs",
        "bad_no_alloc.rs",
        "bad_allow_missing_justification.rs",
    ];
    for name in bad {
        let (path, _) = fixture(name);
        let out = Command::new(env!("CARGO_BIN_EXE_lll-check")).arg(&path).output().unwrap();
        assert!(!out.status.success(), "CLI must fail on {name}");
    }
    let (path, _) = fixture("good_allow.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_lll-check")).arg(&path).output().unwrap();
    assert!(out.status.success(), "CLI must pass on good_allow.rs");
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
    // Tokens inside strings, raw strings, and doc comments must not fire.
    let text = concat!(
        "// lll-check: enforce(panic-free-decode)\n",
        "pub fn f<'a>(s: &'a str) -> &'a str {\n",
        "    let _msg = \"call .unwrap() and panic! freely in here x[0]\";\n",
        "    let _raw = r#\"also here: buf[1].expect(\"no\")\"#;\n",
        "    let _ch = '[';\n",
        "    s\n",
        "}\n",
        "pub fn slices_and_patterns(buf: &mut [u8]) -> u8 {\n",
        "    let [first, rest @ ..] = buf else { return 0 };\n",
        "    let _ty: &[u8] = rest;\n",
        "    *first\n",
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
