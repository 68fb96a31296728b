//! # lll-check — hand-rolled workspace invariant linter
//!
//! The workspace's load-bearing invariants — panic-free decoders, the
//! maintenance→shard lock order, the zero-alloc steady-state insert path,
//! and the no-`unsafe` baseline — exist as comments and reviewer
//! discipline. This crate turns them into a mechanical gate: a token-level
//! static-analysis pass (the offline workspace has no `syn`; the rules
//! below need no type information) run as `cargo run -p lll-check`
//! locally and in CI, exiting non-zero on any finding.
//!
//! ## Rules
//!
//! * **panic-free-decode** — in decode modules opted in with an
//!   `enforce(...)` directive, forbid `.unwrap()` / `.expect()`,
//!   `panic!` / `unreachable!` / `todo!` / `unimplemented!`, direct
//!   indexing (`x[i]`, `x[a..b]`), and possibly-truncating `as` casts.
//!   `#[cfg(test)]` modules are exempt; individual lines escape with a
//!   justified `allow(...)` directive.
//! * **lock-order** — fields annotated with a `lock-order:` comment
//!   (levels `maintenance` and `shard`) declare the locking protocol;
//!   acquisition sites — `rlock(..)` / `wlock(..)` calls carrying a
//!   `Level::` argument, and `mlock(..)` (always maintenance) — are
//!   scanned lexically with guard lifetimes simulated by brace depth.
//!   Findings: a second shard lock without the maintenance lock held, the
//!   maintenance lock under a shard guard, maintenance re-entry, a
//!   directory `publish(..)` while a shard guard is live, and any raw
//!   `.read()` / `.write()` / `.lock()` or `.try_read()` / `.try_write()`
//!   / `.try_lock()` on an annotated field (it would bypass the runtime
//!   tracker).
//! * **unsafe-discipline** — every crate root must carry
//!   `#![forbid(unsafe_code)]`; `unsafe` may appear only in the
//!   [`UNSAFE_ALLOWED`] whitelist (the counting-allocator harness), and
//!   every whitelisted site needs a `// SAFETY:` comment on or just above
//!   the line.
//! * **no-alloc** — functions annotated with a `no-alloc` directive may
//!   not call allocating constructors (`Vec::new`, `with_capacity`,
//!   `collect`, `to_vec`, `format!`, `Box::new`, …).
//!
//! The full annotation grammar and the rationale for each rule live in
//! `docs/static-analysis.md`. The linter is itself pinned by committed
//! known-bad fixtures under `tests/fixtures/` that it must flag.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Rule name: panic-free decode modules.
pub const RULE_PANIC_FREE: &str = "panic-free-decode";
/// Rule name: maintenance→shard lock order.
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// Rule name: `#![forbid(unsafe_code)]` + `// SAFETY:` discipline.
pub const RULE_UNSAFE: &str = "unsafe-discipline";
/// Rule name: allocation-free hot paths.
pub const RULE_NO_ALLOC: &str = "no-alloc";
/// Rule name: the linter's own annotation grammar (unknown directives,
/// unjustified allows).
pub const RULE_GRAMMAR: &str = "annotation-grammar";

/// Files allowed to contain `unsafe` (every site still needs a
/// `// SAFETY:` comment). Entries ending in `/` whitelist a directory.
pub const UNSAFE_ALLOWED: &[&str] = &[
    // The counting #[global_allocator] harness: GlobalAlloc is an unsafe
    // trait by definition; the impl forwards verbatim to System.
    "tests/zero_alloc.rs",
];

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
                        // Skip doc-comment markers so `/// SAFETY:` and
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

    fn has_directive(&self, directive: &str) -> bool {
        self.comments.iter().any(|c| check_directive(c) == Some(directive))
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

/// Parse `allow(<rule>, <justification>)` → `(rule, justification)`.
fn parse_allow(directive: &str) -> Option<(&str, &str)> {
    let inner = directive.strip_prefix("allow(")?.strip_suffix(')')?;
    Some(match inner.split_once(',') {
        Some((rule, just)) => (rule.trim(), just.trim()),
        None => (inner.trim(), ""),
    })
}

/// Is line `i` covered by an `allow(rule, ..)` — trailing on the same
/// line, or on a standalone comment line directly above? Returns whether
/// the allow carries a justification.
fn allow_for(sf: &SourceFile, line: usize, rule: &str) -> Option<bool> {
    let allow_on = |i: usize| -> Option<bool> {
        let (r, just) = parse_allow(check_directive(&sf.comments[i])?)?;
        (r == rule).then_some(!just.is_empty())
    };
    if let Some(v) = allow_on(line) {
        return Some(v);
    }
    let mut i = line;
    while i > 0 {
        i -= 1;
        if !sf.code[i].trim().is_empty() {
            break; // a code line above ends the comment run
        }
        if let Some(v) = allow_on(i) {
            return Some(v);
        }
        if sf.comments[i].trim().is_empty() {
            break; // a fully blank line ends the comment run
        }
    }
    None
}

/// Push a finding unless a justified allow covers the line; an
/// *unjustified* allow is itself a finding.
fn emit(
    sf: &SourceFile,
    line: usize,
    rule: &'static str,
    msg: String,
    diags: &mut Vec<Diagnostic>,
) {
    match allow_for(sf, line, rule) {
        Some(true) => {}
        Some(false) => diags.push(Diagnostic {
            file: sf.path.clone(),
            line: line + 1,
            rule: RULE_GRAMMAR,
            msg: format!("allow({rule}) needs a justification: allow(<rule>, <why>)"),
        }),
        None => diags.push(Diagnostic { file: sf.path.clone(), line: line + 1, rule, msg }),
    }
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

fn prev_nonspace(line: &str, idx: usize) -> Option<char> {
    line[..idx].chars().rev().find(|c| !c.is_whitespace())
}

fn next_nonspace(line: &str, idx: usize) -> Option<char> {
    line[idx..].chars().find(|c| !c.is_whitespace())
}

/// Does `line` contain `tok` as a whole identifier?
fn has_ident(line: &str, tok: &str) -> bool {
    idents(line).iter().any(|&(s, e)| &line[s..e] == tok)
}

/// Mark every line inside a `#[cfg(test)]`-attributed block (module or
/// function) — those are exempt from panic-free-decode.
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

const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Rule 1: panic-free decode modules. Active only in files carrying the
/// enforce directive for this rule.
pub fn check_panic_free(sf: &SourceFile, diags: &mut Vec<Diagnostic>) {
    if !sf.has_directive("enforce(panic-free-decode)") {
        return;
    }
    let in_tests = test_mod_lines(sf);
    for (i, line) in sf.code.iter().enumerate() {
        if in_tests[i] {
            continue;
        }
        let toks = idents(line);
        for (t, &(s, e)) in toks.iter().enumerate() {
            let tok = &line[s..e];
            if (tok == "unwrap" || tok == "expect")
                && prev_nonspace(line, s) == Some('.')
                && next_nonspace(line, e) == Some('(')
            {
                emit(sf, i, RULE_PANIC_FREE, format!("`.{tok}()` in a decode module"), diags);
            } else if PANIC_MACROS.contains(&tok) && next_nonspace(line, e) == Some('!') {
                emit(sf, i, RULE_PANIC_FREE, format!("`{tok}!` in a decode module"), diags);
            } else if tok == "as" {
                if let Some(&(s2, e2)) = toks.get(t + 1) {
                    let target = &line[s2..e2];
                    if NARROW_CASTS.contains(&target) {
                        emit(
                            sf,
                            i,
                            RULE_PANIC_FREE,
                            format!(
                                "possibly truncating `as {target}` cast (use `try_from` or \
                                 allow with a width argument)"
                            ),
                            diags,
                        );
                    }
                }
            }
        }
        for (j, ch) in line.char_indices() {
            if ch == '[' && is_index_bracket(line, j) {
                emit(
                    sf,
                    i,
                    RULE_PANIC_FREE,
                    "direct indexing can panic; decode paths must use checked access".to_string(),
                    diags,
                );
            }
        }
    }
}

/// Is the `[` at byte `j` an indexing/slicing bracket? It is when it
/// follows a value expression — an identifier, `)`, or `]` — but not when
/// the identifier is a keyword: `&mut [u8]` is a slice type and
/// `let [a, b] = ..` is a pattern, not indexing.
fn is_index_bracket(line: &str, j: usize) -> bool {
    let before = line[..j].trim_end();
    let Some(last) = before.chars().next_back() else { return false };
    if last == ')' || last == ']' {
        return true;
    }
    if !(last.is_alphanumeric() || last == '_') {
        return false;
    }
    let tail: Vec<char> =
        before.chars().rev().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    let word: String = tail.into_iter().rev().collect();
    !matches!(
        word.as_str(),
        "mut"
            | "let"
            | "dyn"
            | "ref"
            | "in"
            | "as"
            | "move"
            | "return"
            | "match"
            | "else"
            | "box"
            | "static"
            | "const"
            | "impl"
            | "where"
    )
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LockLevel {
    Maintenance,
    Shard,
}

/// Rule 2: the locking protocol around the sharded map. Active only in
/// files that annotate at least one lock field with a `lock-order:`
/// comment. Levels: `maintenance` (outermost mutex) and `shard` (one
/// rebalance domain's `RwLock`). The directory's stripe locks are leaves,
/// taken only inside its `load` and `publish`, and carry no level.
pub fn check_lock_order(sf: &SourceFile, diags: &mut Vec<Diagnostic>) {
    // Collect annotated field names: the annotation line's own code if it
    // has any, else the next non-blank code line, holds the field.
    let mut fields: Vec<(String, LockLevel)> = Vec::new();
    for i in 0..sf.comments.len() {
        let Some(level) = sf.comments[i].trim().strip_prefix("lock-order:").map(str::trim) else {
            continue;
        };
        let field_line = if sf.code[i].trim().is_empty() {
            (i + 1..sf.code.len()).find(|&j| !sf.code[j].trim().is_empty())
        } else {
            Some(i)
        };
        let name = field_line.and_then(|j| field_name(&sf.code[j]));
        match (level, name) {
            (_, None) => diags.push(Diagnostic {
                file: sf.path.clone(),
                line: i + 1,
                rule: RULE_GRAMMAR,
                msg: "lock-order annotation is not attached to a field".to_string(),
            }),
            ("maintenance", Some(n)) => fields.push((n, LockLevel::Maintenance)),
            ("shard", Some(n)) => fields.push((n, LockLevel::Shard)),
            (other, Some(_)) => diags.push(Diagnostic {
                file: sf.path.clone(),
                line: i + 1,
                rule: RULE_GRAMMAR,
                msg: format!("unknown lock-order level `{other}` (expected maintenance|shard)"),
            }),
        }
    }
    if fields.is_empty() {
        return;
    }

    let classify = |text: &str| -> Option<LockLevel> {
        for (token, level) in
            [("Level::Shard", LockLevel::Shard), ("Level::Maintenance", LockLevel::Maintenance)]
        {
            if text.contains(token) {
                return Some(level);
            }
        }
        // Field-name fallback: a call naming an annotated field takes that
        // field's level (shard first, the more nested one).
        [LockLevel::Shard, LockLevel::Maintenance]
            .into_iter()
            .find(|&want| fields.iter().any(|(f, l)| *l == want && has_ident(text, f)))
    };

    let mut depth: i64 = 0;
    let mut guards: Vec<(LockLevel, i64)> = Vec::new();
    for i in 0..sf.code.len() {
        let line = &sf.code[i];

        // Raw acquisitions bypass the runtime tracker entirely. Only an
        // annotated field as the *receiver* counts (`self.maint.lock()`,
        // `dir.read()`) — a call further down a chain rooted at an
        // annotated field (`dir.shards[i].write()`, where `write` is a
        // tracked helper on the element) is a different receiver.
        if ["read", "write", "lock", "try_read", "try_write", "try_lock"].iter().any(|m| {
            line.match_indices(&format!(".{m}()")).any(|(at, _)| {
                let recv = line[..at].trim_end();
                fields.iter().any(|(f, _)| {
                    recv.ends_with(f.as_str())
                        && !recv[..recv.len() - f.len()]
                            .ends_with(|c: char| c.is_alphanumeric() || c == '_')
                })
            })
        }) {
            emit(
                sf,
                i,
                RULE_LOCK_ORDER,
                "raw .read()/.write()/.lock() (or a try_ variant) on an annotated lock field \
                 bypasses the order tracker; acquire through the rlock()/wlock()/mlock() \
                 wrappers"
                    .to_string(),
                diags,
            );
        }

        let live =
            |guards: &[(LockLevel, i64)], lvl: LockLevel| guards.iter().any(|&(l, _)| l == lvl);
        let toks = idents(line);
        let has_let = toks.iter().any(|&(s, e)| &line[s..e] == "let");
        for &(s, e) in &toks {
            let tok = &line[s..e];
            if next_nonspace(line, e) != Some('(') {
                continue;
            }
            if tok == "publish" {
                // A publication precondition the runtime tracker enforces
                // (maintenance-held is cross-function, so only the
                // same-scope shard guard is checked lexically).
                if live(&guards, LockLevel::Shard) {
                    emit(
                        sf,
                        i,
                        RULE_LOCK_ORDER,
                        "publishes a new directory while a shard guard is live (retire the \
                         shard and release its lock before publishing)"
                            .to_string(),
                        diags,
                    );
                }
                continue;
            }
            let level = match tok {
                "mlock" => Some(LockLevel::Maintenance),
                // The level argument may have been wrapped to the next
                // line — but only consult the next line when this one
                // can't classify, so a *different* acquisition below
                // never bleeds in.
                "rlock" | "wlock" => {
                    let level = classify(&line[s..])
                        .or_else(|| sf.code.get(i + 1).and_then(|nxt| classify(nxt)));
                    let Some(level) = level else {
                        emit(
                            sf,
                            i,
                            RULE_LOCK_ORDER,
                            format!(
                                "cannot classify `{tok}(..)` acquisition: pass an explicit \
                                 Level::"
                            ),
                            diags,
                        );
                        continue;
                    };
                    Some(level)
                }
                _ => None,
            };
            let Some(level) = level else { continue };
            let maint_live = live(&guards, LockLevel::Maintenance);
            let shard_live = live(&guards, LockLevel::Shard);
            match level {
                LockLevel::Shard if shard_live && !maint_live => emit(
                    sf,
                    i,
                    RULE_LOCK_ORDER,
                    "takes a second shard lock without the maintenance lock (point ops hold \
                     at most one shard; only maintenance stacks them)"
                        .to_string(),
                    diags,
                ),
                LockLevel::Maintenance if shard_live => emit(
                    sf,
                    i,
                    RULE_LOCK_ORDER,
                    "takes the maintenance lock under a shard guard (order is maintenance → \
                     shard)"
                        .to_string(),
                    diags,
                ),
                LockLevel::Maintenance if maint_live => emit(
                    sf,
                    i,
                    RULE_LOCK_ORDER,
                    "re-enters the maintenance lock (Mutex is not re-entrant)".to_string(),
                    diags,
                ),
                _ => {}
            }
            if has_let {
                guards.push((level, depth));
            }
        }

        for ch in line.chars() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    guards.retain(|&(_, d)| d <= depth);
                }
                _ => {}
            }
        }
    }
}

/// `   pub dir: RwLock<..>` → `dir` (the last identifier before the
/// field's `:`, skipping visibility).
fn field_name(code_line: &str) -> Option<String> {
    let prefix = code_line.split(':').next()?;
    let toks = idents(prefix);
    let &(s, e) = toks.last()?;
    let name = &prefix[s..e];
    (name != "pub").then(|| name.to_string())
}

/// Per-file configuration the unsafe rule needs (derived from the path by
/// [`config_for`]; fixtures override via `assume(..)` directives).
pub struct FileConfig {
    /// Is this a crate root (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`)
    /// that must carry `#![forbid(unsafe_code)]`?
    pub crate_root: bool,
    /// May this file contain `unsafe` at all (see [`UNSAFE_ALLOWED`])?
    pub unsafe_allowed: bool,
}

/// Rule 3: unsafe discipline — forbid at every crate root, whitelist +
/// `// SAFETY:` comments elsewhere.
pub fn check_unsafe(sf: &SourceFile, cfg: &FileConfig, diags: &mut Vec<Diagnostic>) {
    if cfg.crate_root
        && !cfg.unsafe_allowed
        && !sf.code.iter().any(|l| l.replace(' ', "").contains("#![forbid(unsafe_code)]"))
    {
        diags.push(Diagnostic {
            file: sf.path.clone(),
            line: 1,
            rule: RULE_UNSAFE,
            msg: "crate root is missing #![forbid(unsafe_code)]".to_string(),
        });
    }
    for (i, line) in sf.code.iter().enumerate() {
        if !has_ident(line, "unsafe") {
            continue;
        }
        if !cfg.unsafe_allowed {
            emit(
                sf,
                i,
                RULE_UNSAFE,
                "`unsafe` outside the whitelist (UNSAFE_ALLOWED in lll-check)".to_string(),
                diags,
            );
        } else if !safety_comment_near(sf, i) {
            emit(
                sf,
                i,
                RULE_UNSAFE,
                "whitelisted `unsafe` without a `// SAFETY:` comment on or above the line"
                    .to_string(),
                diags,
            );
        }
    }
}

/// Does a `SAFETY:` comment cover `line` — trailing on the line itself, or
/// anywhere in the contiguous comment run directly above it? (Multi-line
/// safety arguments put the marker on their first line.)
fn safety_comment_near(sf: &SourceFile, line: usize) -> bool {
    if sf.comments[line].trim().starts_with("SAFETY:") {
        return true;
    }
    let mut i = line;
    while i > 0 {
        i -= 1;
        if !sf.code[i].trim().is_empty() {
            return false; // a code line ends the comment run
        }
        let c = sf.comments[i].trim();
        if c.is_empty() {
            return false; // a fully blank line ends the comment run
        }
        if c.starts_with("SAFETY:") {
            return true;
        }
    }
    false
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

/// Rule 4: allocation-free functions. Active on every function annotated
/// with a `no-alloc` directive.
pub fn check_no_alloc(sf: &SourceFile, diags: &mut Vec<Diagnostic>) {
    for i in 0..sf.comments.len() {
        if check_directive(&sf.comments[i]) != Some("no-alloc") {
            continue;
        }
        // The annotated fn may sit under attributes/visibility lines.
        let fn_line = (i..sf.code.len().min(i + 7)).find(|&j| has_ident(&sf.code[j], "fn"));
        let Some(j) = fn_line else {
            diags.push(Diagnostic {
                file: sf.path.clone(),
                line: i + 1,
                rule: RULE_GRAMMAR,
                msg: "no-alloc annotation is not followed by a fn".to_string(),
            });
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

/// Validate the annotation grammar itself: unknown directives and allows
/// naming unknown rules are findings, so a typo cannot silently disable a
/// gate.
pub fn check_grammar(sf: &SourceFile, diags: &mut Vec<Diagnostic>) {
    const RULES: &[&str] = &[RULE_PANIC_FREE, RULE_LOCK_ORDER, RULE_UNSAFE, RULE_NO_ALLOC];
    for (i, comment) in sf.comments.iter().enumerate() {
        let Some(d) = check_directive(comment) else { continue };
        if let Some((rule, _)) = parse_allow(d) {
            if !RULES.contains(&rule) {
                diags.push(Diagnostic {
                    file: sf.path.clone(),
                    line: i + 1,
                    rule: RULE_GRAMMAR,
                    msg: format!("allow names unknown rule `{rule}`"),
                });
            }
            continue;
        }
        let known = d == "enforce(panic-free-decode)"
            || d == "no-alloc"
            || d == "assume(crate-root)"
            || d == "assume(unsafe-allowed)";
        if !known {
            diags.push(Diagnostic {
                file: sf.path.clone(),
                line: i + 1,
                rule: RULE_GRAMMAR,
                msg: format!("unknown lll-check directive `{d}`"),
            });
        }
    }
}

/// Derive a file's config from its workspace-relative path plus any
/// `assume(..)` directives (the fixture escape hatch).
pub fn config_for(rel: &str, sf: &SourceFile) -> FileConfig {
    let unsafe_allowed = UNSAFE_ALLOWED.iter().any(|p| rel == *p || rel.starts_with(p))
        || sf.has_directive("assume(unsafe-allowed)");
    let crate_root = rel == "src/lib.rs"
        || rel.ends_with("/src/lib.rs")
        || rel.ends_with("/src/main.rs")
        || rel.contains("/src/bin/")
        || sf.has_directive("assume(crate-root)");
    FileConfig { crate_root, unsafe_allowed }
}

/// Run every rule over one file's text.
pub fn check_file(rel: &str, text: &str) -> Vec<Diagnostic> {
    let sf = SourceFile::parse(rel, text);
    let cfg = config_for(rel, &sf);
    let mut diags = Vec::new();
    check_grammar(&sf, &mut diags);
    check_panic_free(&sf, &mut diags);
    check_lock_order(&sf, &mut diags);
    check_unsafe(&sf, &cfg, &mut diags);
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
