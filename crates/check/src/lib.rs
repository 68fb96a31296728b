//! # lll-check — the lexical half of the workspace's invariants
//!
//! Two of the workspace's invariants have no compiler lint that can state
//! them: the nesting of the sharded map's locks and the allocation-free
//! hot paths. This crate checks both with a token-level static-analysis
//! pass (the offline workspace has no `syn`; neither rule needs type
//! information), run by `cargo test` through `workspace_scans_clean` and
//! by hand as `cargo run -p lll-check`, exiting non-zero on any finding.
//!
//! ## Rules
//!
//! * **lock-order** — every non-`#[cfg(test)]` line of every file is
//!   scanned for the sharded map's tracked acquisitions: `rlock(..)` and
//!   `wlock(..)` take a shard lock, `mlock(..)` the maintenance lock. A
//!   `let`-bound guard lives to the end of its block, any other
//!   acquisition to its call's closing parenthesis (so a closure passed to
//!   it runs inside the lock), and a `fn` taking a `MaintGuard` parameter
//!   holds maintenance from its first line. Findings: a second shard lock
//!   without the maintenance lock held, the maintenance lock under a shard
//!   guard, maintenance re-entry, and a directory `publish(..)` while a
//!   shard guard is live.
//! * **no-alloc** — functions annotated with a `no-alloc` directive may
//!   not call allocating constructors (`Vec::new`, `with_capacity`,
//!   `collect`, `to_vec`, `format!`, `Box::new`, …).
//!
//! An unknown directive is itself a finding, so a typo cannot silently
//! disable a gate. Which tool enforces each of the other invariants
//! (panic-free decoders, the `unsafe` ban, untracked lock acquisitions) is
//! in `docs/static-analysis.md`. The linter is pinned by committed
//! known-bad fixtures under `tests/fixtures/` that it must flag.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Rule name: the sharded map's lock nesting.
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// Rule name: allocation-free hot paths.
pub const RULE_NO_ALLOC: &str = "no-alloc";
/// Rule name: the linter's own annotation grammar (unknown directives).
pub const RULE_GRAMMAR: &str = "annotation-grammar";

/// One finding: file, 1-based line, rule, and what was seen.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Human-readable description of the finding.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// A source file split into per-line *code* and *comment* views: string
/// and char literal contents are blanked out of the code view (their
/// delimiters remain), comments are removed from the code view and
/// collected — trimmed of their `//`-style markers — in the comment view.
/// All rules read these views, so tokens inside strings or doc examples
/// can never fire and annotations can never hide in code.
pub struct SourceFile {
    /// Workspace-relative path (diagnostics use it verbatim).
    pub path: String,
    /// Per-line code with comments/literal-contents blanked.
    pub code: Vec<String>,
    /// Per-line comment text ("" where the line has none).
    pub comments: Vec<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum LexState {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    CharLit,
}

impl SourceFile {
    /// Lex `text` into the code/comment views.
    pub fn parse(path: &str, text: &str) -> Self {
        let chars: Vec<char> = text.chars().collect();
        let mut code = vec![String::new()];
        let mut comments = vec![String::new()];
        let mut st = LexState::Code;
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c == '\n' {
                if st == LexState::LineComment {
                    st = LexState::Code;
                }
                code.push(String::new());
                comments.push(String::new());
                i += 1;
                continue;
            }
            let line_code = code.last_mut().expect("line buffer");
            let line_com = comments.last_mut().expect("line buffer");
            match st {
                LexState::Code => {
                    let next = chars.get(i + 1).copied();
                    if c == '/' && next == Some('/') {
                        st = LexState::LineComment;
                        i += 2;
                        // Skip doc-comment markers so `/// ...` and
                        // `//! ...` surface their text directly.
                        if matches!(chars.get(i), Some('/' | '!')) {
                            i += 1;
                        }
                    } else if c == '/' && next == Some('*') {
                        st = LexState::BlockComment(1);
                        i += 2;
                    } else if c == '"' {
                        line_code.push('"');
                        st = LexState::Str;
                        i += 1;
                    } else if (c == 'r' || c == 'b') && !prev_is_ident_char(&chars, i) {
                        if let Some(skip) = raw_string_prefix(&chars, i) {
                            line_code.push('"');
                            st = LexState::RawStr(skip.1);
                            i += skip.0;
                        } else {
                            line_code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Lifetime (`'a`) vs char literal (`'a'`).
                        let is_lifetime = matches!(next, Some(n) if n == '_' || n.is_alphabetic())
                            && chars.get(i + 2).copied() != Some('\'');
                        line_code.push('\'');
                        if !is_lifetime {
                            st = LexState::CharLit;
                        }
                        i += 1;
                    } else {
                        line_code.push(c);
                        i += 1;
                    }
                }
                LexState::LineComment => {
                    line_com.push(c);
                    i += 1;
                }
                LexState::BlockComment(depth) => {
                    let next = chars.get(i + 1).copied();
                    if c == '*' && next == Some('/') {
                        st = if depth == 1 {
                            LexState::Code
                        } else {
                            LexState::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        st = LexState::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        line_com.push(c);
                        i += 1;
                    }
                }
                LexState::Str => {
                    if c == '\\' {
                        line_code.push(' ');
                        i += 2;
                    } else if c == '"' {
                        line_code.push('"');
                        st = LexState::Code;
                        i += 1;
                    } else {
                        line_code.push(' ');
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if c == '"' && (0..hashes as usize).all(|k| chars.get(i + 1 + k) == Some(&'#'))
                    {
                        line_code.push('"');
                        st = LexState::Code;
                        i += 1 + hashes as usize;
                    } else {
                        line_code.push(' ');
                        i += 1;
                    }
                }
                LexState::CharLit => {
                    if c == '\\' {
                        line_code.push(' ');
                        i += 2;
                    } else if c == '\'' {
                        line_code.push('\'');
                        st = LexState::Code;
                        i += 1;
                    } else {
                        line_code.push(' ');
                        i += 1;
                    }
                }
            }
        }
        Self { path: path.to_string(), code, comments }
    }
}

fn prev_is_ident_char(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1] == '_' || chars[i - 1].is_alphanumeric())
}

/// If `chars[i..]` starts a raw (or raw-byte) string literal, the prefix
/// length to skip (through the opening `"`) and the `#` count.
fn raw_string_prefix(chars: &[char], i: usize) -> Option<(usize, u32)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some((j + 1 - i, hashes))
}

/// The payload of a `lll-check:` comment, if this comment is one. Only
/// comments that *start* with the marker count, so prose that merely
/// mentions the grammar cannot activate a rule.
fn check_directive(comment: &str) -> Option<&str> {
    comment.trim().strip_prefix("lll-check:").map(str::trim)
}

/// Record a finding on 0-based line `line`.
fn emit(
    sf: &SourceFile,
    line: usize,
    rule: &'static str,
    msg: String,
    diags: &mut Vec<Diagnostic>,
) {
    diags.push(Diagnostic { file: sf.path.clone(), line: line + 1, rule, msg });
}

/// Identifier token spans of one code line.
fn idents(line: &str) -> Vec<(usize, usize)> {
    let b = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'_' || b[i].is_ascii_alphabetic() {
            let start = i;
            while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                i += 1;
            }
            out.push((start, i));
        } else if b[i].is_ascii_digit() {
            // Consume numeric literals whole so `0u8` never yields `u8`.
            while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    out
}

fn next_nonspace(line: &str, idx: usize) -> Option<char> {
    line[idx..].chars().find(|c| !c.is_whitespace())
}

/// Does `line` contain `tok` as a whole identifier?
fn has_ident(line: &str, tok: &str) -> bool {
    idents(line).iter().any(|&(s, e)| &line[s..e] == tok)
}

/// Mark every line inside a `#[cfg(test)]`-attributed block (module or
/// function) — those are exempt from the lock-order rule.
fn test_mod_lines(sf: &SourceFile) -> Vec<bool> {
    let mut out = vec![false; sf.code.len()];
    let mut i = 0;
    while i < sf.code.len() {
        if sf.code[i].replace(' ', "").contains("#[cfg(test)]") {
            if let Some((_, end)) = brace_span(sf, i) {
                out[i..=end].iter_mut().for_each(|b| *b = true);
                i = end;
            }
        }
        i += 1;
    }
    out
}

/// From `from` (inclusive), find the first `{` and the line of its
/// matching `}`. Gives up if no `{` opens within 8 lines.
fn brace_span(sf: &SourceFile, from: usize) -> Option<(usize, usize)> {
    let mut depth = 0u32;
    let mut opened = false;
    for j in from..sf.code.len() {
        for ch in sf.code[j].chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' if depth > 0 => {
                    depth -= 1;
                    if opened && depth == 0 {
                        return Some((from, j));
                    }
                }
                _ => {}
            }
        }
        if !opened && j >= from + 8 {
            return None;
        }
    }
    None
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LockLevel {
    Maintenance,
    Shard,
}

/// Where a lexically live guard ends.
#[derive(Clone, Copy)]
enum Until {
    /// When the block at this brace depth closes: a `let`-bound guard, or
    /// the maintenance a `MaintGuard` parameter brings into a fn body.
    Block(i64),
    /// When the parenthesis opened at this depth closes: an acquisition no
    /// `let` binds, so a closure passed to it runs inside the lock.
    Paren(i64),
}

/// Rule 1: the locking protocol around the sharded map, over every line
/// outside `#[cfg(test)]` blocks. Levels come from the method names: the
/// shard lock's `rlock`/`wlock` and the maintenance lock's `mlock` (the
/// lock types in `lll-sharded`'s `lock_order` module expose no other
/// acquisition, and its shards' closure-taking accessors share the names).
/// A guard bound on a line with a `let` lives to the end of its block; any
/// other acquisition holds its level until its call's closing parenthesis.
/// A `fn` with a `MaintGuard` among its parameters starts its body with
/// maintenance held. The directory's stripe locks are leaves, taken only
/// inside its `load` and `publish`, and carry no level. `drop(..)` is not
/// read: a guard that must end early ends with its block.
pub fn check_lock_order(sf: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let in_tests = test_mod_lines(sf);
    let (mut depth, mut parens): (i64, i64) = (0, 0);
    let mut guards: Vec<(LockLevel, Until)> = Vec::new();
    // A `fn` signature being read: the paren depth it starts at, and
    // whether a parameter names `MaintGuard`.
    let mut sig: Option<(i64, bool)> = None;
    for (i, line) in sf.code.iter().enumerate() {
        if in_tests[i] {
            continue;
        }
        let toks = idents(line);
        let has_let = toks.iter().any(|&(s, e)| &line[s..e] == "let");
        let mut toks = toks.into_iter().peekable();
        for (at, ch) in line.char_indices() {
            if let Some((s, e)) = toks.next_if(|&(s, _)| s == at) {
                let tok = &line[s..e];
                match (tok, &mut sig) {
                    ("fn", _) => sig = Some((parens, false)),
                    ("MaintGuard", Some((from, maint))) if parens > *from => *maint = true,
                    _ => {}
                }
                if next_nonspace(line, e) == Some('(') {
                    if let Some((level, finding)) = acquisition(tok, &guards) {
                        if let Some(msg) = finding {
                            emit(sf, i, RULE_LOCK_ORDER, msg.to_string(), diags);
                        }
                        if let Some(level) = level {
                            let until =
                                if has_let { Until::Block(depth) } else { Until::Paren(parens) };
                            guards.push((level, until));
                        }
                    }
                }
            }
            match ch {
                '{' => {
                    depth += 1;
                    if let Some((_, maint)) = sig.take() {
                        if maint {
                            guards.push((LockLevel::Maintenance, Until::Block(depth)));
                        }
                    }
                }
                '}' => {
                    depth -= 1;
                    guards.retain(|&(_, u)| !matches!(u, Until::Block(d) if d > depth));
                }
                '(' => parens += 1,
                ')' => {
                    parens -= 1;
                    guards.retain(|&(_, u)| !matches!(u, Until::Paren(p) if p >= parens));
                }
                ';' if sig.is_some_and(|(from, _)| from == parens) => sig = None,
                _ => {}
            }
        }
    }
}

/// What a call of `tok` does under the live `guards`: the level it takes
/// (if any) and the finding it makes (if any). `None` for a call the rule
/// does not read.
fn acquisition(
    tok: &str,
    guards: &[(LockLevel, Until)],
) -> Option<(Option<LockLevel>, Option<&'static str>)> {
    let shard_live = guards.iter().any(|&(l, _)| l == LockLevel::Shard);
    let maint_live = guards.iter().any(|&(l, _)| l == LockLevel::Maintenance);
    Some(match tok {
        // A publication precondition the runtime tracker enforces
        // (maintenance-held is cross-function, so only the same-scope
        // shard guard is checked lexically).
        "publish" => (
            None,
            shard_live.then_some(
                "publishes a new directory while a shard guard is live (take the shard's \
                 map and release its lock before publishing)",
            ),
        ),
        "rlock" | "wlock" => (
            Some(LockLevel::Shard),
            (shard_live && !maint_live).then_some(
                "takes a second shard lock without the maintenance lock (point ops hold at \
                 most one shard; only maintenance stacks them)",
            ),
        ),
        "mlock" => (
            Some(LockLevel::Maintenance),
            if shard_live {
                Some(
                    "takes the maintenance lock under a shard guard (order is maintenance → \
                     shard)",
                )
            } else {
                maint_live.then_some("re-enters the maintenance lock (Mutex is not re-entrant)")
            },
        ),
        _ => return None,
    })
}

const ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_string", "to_owned", "with_capacity"];
const ALLOC_MACROS: &[&str] = &["format", "vec"];
const ALLOC_PATHS: &[&str] = &[
    "Vec::new",
    "Vec::from",
    "Box::new",
    "String::new",
    "String::from",
    "HashMap::new",
    "BTreeMap::new",
    "VecDeque::new",
];

/// Rule 2: allocation-free functions. Active on every function annotated
/// with a `no-alloc` directive.
pub fn check_no_alloc(sf: &SourceFile, diags: &mut Vec<Diagnostic>) {
    for i in 0..sf.comments.len() {
        if check_directive(&sf.comments[i]) != Some("no-alloc") {
            continue;
        }
        // The annotated fn may sit under attributes/visibility lines.
        let fn_line = (i..sf.code.len().min(i + 7)).find(|&j| has_ident(&sf.code[j], "fn"));
        let Some(j) = fn_line else {
            let msg = "no-alloc annotation is not followed by a fn".to_string();
            emit(sf, i, RULE_GRAMMAR, msg, diags);
            continue;
        };
        let Some((_, end)) = brace_span(sf, j) else {
            continue;
        };
        for k in j..=end {
            let line = &sf.code[k];
            for &(s, e) in &idents(line) {
                let tok = &line[s..e];
                if ALLOC_METHODS.contains(&tok) && next_nonspace(line, e) == Some('(') {
                    emit(
                        sf,
                        k,
                        RULE_NO_ALLOC,
                        format!("allocating call `{tok}` in a no-alloc function"),
                        diags,
                    );
                } else if ALLOC_MACROS.contains(&tok) && next_nonspace(line, e) == Some('!') {
                    emit(
                        sf,
                        k,
                        RULE_NO_ALLOC,
                        format!("allocating macro `{tok}!` in a no-alloc function"),
                        diags,
                    );
                }
            }
            for path in ALLOC_PATHS {
                if let Some(pos) = line.find(path) {
                    let before_ok = pos == 0 || {
                        let c = line[..pos].chars().next_back().unwrap_or(' ');
                        !(c == '_' || c.is_alphanumeric() || c == ':')
                    };
                    if before_ok {
                        emit(
                            sf,
                            k,
                            RULE_NO_ALLOC,
                            format!("allocating constructor `{path}` in a no-alloc function"),
                            diags,
                        );
                    }
                }
            }
        }
    }
}

/// Validate the annotation grammar itself: an unknown directive is a
/// finding, so a typo cannot silently disable a gate.
pub fn check_grammar(sf: &SourceFile, diags: &mut Vec<Diagnostic>) {
    for (i, comment) in sf.comments.iter().enumerate() {
        match check_directive(comment) {
            None | Some("no-alloc") => {}
            Some(d) => {
                emit(sf, i, RULE_GRAMMAR, format!("unknown lll-check directive `{d}`"), diags)
            }
        }
    }
}

/// Run every rule over one file's text.
pub fn check_file(rel: &str, text: &str) -> Vec<Diagnostic> {
    let sf = SourceFile::parse(rel, text);
    let mut diags = Vec::new();
    check_grammar(&sf, &mut diags);
    check_lock_order(&sf, &mut diags);
    check_no_alloc(&sf, &mut diags);
    diags
}

/// A whole-workspace run: how many files were scanned and every finding.
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Every finding, in path order.
    pub diagnostics: Vec<Diagnostic>,
}

/// Scan every `.rs` file under `root` (skipping `target/`, `.git/`, and
/// fixture directories) and run all rules.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    let mut diagnostics = Vec::new();
    for rel in &files {
        let text = fs::read_to_string(root.join(rel))?;
        diagnostics.extend(check_file(rel, &text));
    }
    Ok(Report { files: files.len(), diagnostics })
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures/` holds the committed known-bad inputs the
            // self-tests feed back through the linter — deliberately dirty.
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}
