//! The rule engine: pragma parsing, `#[cfg(test)]` region skipping, and
//! rules D1–D5 over the lexed token stream.
//!
//! ## Rules
//!
//! | rule | scope | what it flags |
//! |------|-------|---------------|
//! | D1 | deterministic crates, non-test | wall-clock reads (`Instant::now`, `SystemTime::now`) |
//! | D2 | deterministic crates, non-test | ambient randomness (`thread_rng`, `rand::random`, `RandomState`, `from_entropy`, `OsRng`, `getrandom`) |
//! | D3 | deterministic crates, non-test | iteration over hash-ordered collections (`HashMap`/`HashSet`/`FxHashMap`/`FxHashSet`, plus the `FetcherBook` wrapper) |
//! | D4 | workspace-wide | `unsafe` without a `// SAFETY:` comment |
//! | D5 | workspace-wide | `unsafe` outside the sanctioned FFI modules (`net::sys`, `net::udp`) |
//! | P0 | workspace-wide | malformed `dharma-lint:` pragma |
//!
//! "Deterministic crates" are the ones whose code runs under the `SimNet`
//! engine clock and must stay bit-reproducible and shard/thread-invariant:
//! `net`, `kademlia`, `cache`, `sim`, `core`, `types` (their `src/` trees;
//! `tests/` and `#[cfg(test)] mod` bodies are exempt from D1–D3 — test
//! code may time and randomize, it never feeds the engine trace).
//!
//! ## Pragmas
//!
//! Every suppression lives in the source it suppresses, with a reason:
//!
//! ```text
//! // dharma-lint: allow(D1): RSS probe timing is a measurement, not sim state
//! let t0 = Instant::now();
//! ```
//!
//! `allow(<RULE>): <reason>` silences one finding on its own line or the
//! next code line; `allow-file(<RULE>): <reason>` silences the rule for
//! the whole file (for files that are wall-clock by nature, e.g. the
//! real-socket runtime). A `dharma-lint:` comment that does not parse, or
//! has an empty reason, is itself a violation (P0) — typos must not turn
//! into silent non-suppression.

use crate::lexer::{lex, Comment, Lexed, Spanned, Tok};

/// Crates whose `src/` trees carry the determinism contract (D1–D3).
pub const DETERMINISTIC_CRATES: &[&str] = &["net", "kademlia", "cache", "sim", "core", "types"];

/// Files in which `unsafe` is permitted (D5): the hand-rolled libc FFI
/// layer and the real-socket worker that drives it. Everything else
/// forbids unsafe.
pub const UNSAFE_ALLOWED: &[&str] = &["crates/net/src/sys.rs", "crates/net/src/udp.rs"];

/// All rule identifiers (pragma validation + docs).
pub const RULES: &[&str] = &["D1", "D2", "D3", "D4", "D5"];

/// Hash-ordered collection type names whose iteration D3 flags. The Fx
/// variants hash deterministically (no `RandomState`), but their
/// iteration order is still an artifact of insertion/capacity history —
/// order must never escape without a total-order sort. `FetcherBook`
/// (the holder-side recent-fetcher set behind `InvalidatePush`) wraps an
/// `FxHashMap`, so iterating a binding of that type inherits the same
/// hazard.
const HASH_TYPES: &[&str] = &[
    "HashMap",
    "HashSet",
    "FxHashMap",
    "FxHashSet",
    "FetcherBook",
];

/// Iterator-producing methods on hash collections that D3 flags.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`D1`..`D5`, `P0`).
    pub rule: &'static str,
    /// Human-facing description.
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// A parsed suppression pragma.
#[derive(Clone, Debug)]
struct Pragma {
    rule: &'static str,
    whole_file: bool,
    /// Suppressed line range, inclusive: the pragma's own line when it
    /// trails code, otherwise the statement starting on the next code
    /// line (through its terminating `;`, capped). Unused for
    /// `whole_file`.
    target: (u32, u32),
}

/// Lints one file. `path` must be repo-relative with `/` separators
/// (e.g. `crates/net/src/sim.rs`) — rule scoping keys off it.
pub fn lint_source(path: &str, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let mut out = Vec::new();
    let (pragmas, mut pragma_errors) = parse_pragmas(path, &lexed);
    out.append(&mut pragma_errors);

    let test_lines = test_region_lines(&lexed);
    let deterministic = deterministic_src(path);
    let toks = &lexed.tokens;

    if deterministic {
        check_d1_d2(path, toks, &test_lines, &mut out);
        check_d3(path, toks, &test_lines, &mut out);
    }
    check_unsafe(path, &lexed, &mut out);

    // Apply suppressions last so every rule sees the full file.
    out.retain(|v| {
        !pragmas.iter().any(|p| {
            p.rule == v.rule && (p.whole_file || (p.target.0 <= v.line && v.line <= p.target.1))
        })
    });
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// True when `path` is inside a deterministic crate's `src/` tree.
fn deterministic_src(path: &str) -> bool {
    DETERMINISTIC_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// True when `unsafe` is sanctioned in `path` (D5).
fn unsafe_allowed(path: &str) -> bool {
    UNSAFE_ALLOWED
        .iter()
        .any(|p| path == *p || (p.ends_with('/') && path.starts_with(p)))
}

// --------------------------------------------------------------------
// Pragmas
// --------------------------------------------------------------------

fn parse_pragmas(path: &str, lexed: &Lexed) -> (Vec<Pragma>, Vec<Violation>) {
    let mut pragmas = Vec::new();
    let mut errors = Vec::new();
    for c in &lexed.comments {
        // A pragma starts the comment's content — `dharma-lint:` buried
        // mid-sentence is prose about the syntax, not a suppression.
        let content = c
            .text
            .trim_start_matches(|ch: char| matches!(ch, '/' | '*' | '!') || ch.is_whitespace());
        let Some(rest) = content.strip_prefix("dharma-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        match parse_pragma_body(rest) {
            Some((rule, whole_file)) => pragmas.push(Pragma {
                rule,
                whole_file,
                target: pragma_target(c, lexed),
            }),
            None => errors.push(Violation {
                path: path.to_string(),
                line: c.first_line,
                rule: "P0",
                msg: format!(
                    "malformed pragma `{}` — expected `dharma-lint: allow(<RULE>): <reason>` \
                     or `allow-file(<RULE>): <reason>` with a non-empty reason",
                    c.text.trim()
                ),
            }),
        }
    }
    (pragmas, errors)
}

/// Parses `allow(D1): reason` / `allow-file(D2): reason`; `None` = bad.
fn parse_pragma_body(body: &str) -> Option<(&'static str, bool)> {
    let (keyword, rest) = body.split_once('(')?;
    let whole_file = match keyword.trim() {
        "allow" => false,
        "allow-file" => true,
        _ => return None,
    };
    let (rule_name, rest) = rest.split_once(')')?;
    let rule = RULES.iter().find(|r| **r == rule_name.trim())?;
    let reason = rest.trim_start().strip_prefix(':')?.trim();
    if reason.is_empty() {
        return None;
    }
    Some((rule, whole_file))
}

/// Maximum lines one non-file pragma may cover: bounds over-suppression
/// when the following statement is huge (or its `;` is far away).
const PRAGMA_SPAN: u32 = 12;

/// The line range a non-file pragma suppresses: its own line when code
/// shares it (trailing comment); otherwise the statement starting at the
/// first code line after it, through that statement's terminating `;` —
/// multi-line builder chains put the flagged call well below the `let`.
fn pragma_target(c: &Comment, lexed: &Lexed) -> (u32, u32) {
    let trailing = lexed.tokens.iter().any(|s| s.line == c.first_line);
    if trailing {
        return (c.first_line, c.first_line);
    }
    let Some(first) = lexed.tokens.iter().position(|s| s.line > c.last_line) else {
        return (c.last_line, c.last_line);
    };
    let start = lexed.tokens[first].line;
    let end = lexed.tokens[first..]
        .iter()
        .find(|s| s.tok == Tok::Punct(';'))
        .map(|s| s.line)
        .unwrap_or(start);
    (start, end.min(start + PRAGMA_SPAN))
}

// --------------------------------------------------------------------
// `#[cfg(test)] mod` skipping
// --------------------------------------------------------------------

/// Returns `(start_line, end_line)` ranges covering every
/// `#[cfg(test)] mod <name> { ... }` body. D1–D3 skip findings inside.
fn test_region_lines(lexed: &Lexed) -> Vec<(u32, u32)> {
    let t = &lexed.tokens;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < t.len() {
        if !matches_seq(t, i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            i += 1;
            continue;
        }
        // Allow further attributes between `#[cfg(test)]` and `mod`.
        let mut j = i + 7;
        while j < t.len() {
            if t[j].tok == Tok::Punct('#') && t.get(j + 1).map(|s| &s.tok) == Some(&Tok::Punct('['))
            {
                // Skip one bracketed attribute.
                let mut depth = 0i32;
                while j < t.len() {
                    match t[j].tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            } else {
                break;
            }
        }
        let is_mod = matches!(t.get(j).map(|s| &s.tok), Some(Tok::Ident(w)) if w == "mod");
        if !is_mod {
            i += 1;
            continue;
        }
        // Find the opening brace, then its match.
        let mut k = j;
        while k < t.len() && t[k].tok != Tok::Punct('{') {
            k += 1;
        }
        let start_line = t[i].line;
        let mut depth = 0i32;
        while k < t.len() {
            match t[k].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let end_line = t.get(k).map(|s| s.line).unwrap_or(u32::MAX);
        regions.push((start_line, end_line));
        i = k.max(i + 1);
    }
    regions
}

fn in_test_region(line: u32, regions: &[(u32, u32)]) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

// --------------------------------------------------------------------
// D1 / D2
// --------------------------------------------------------------------

fn check_d1_d2(path: &str, t: &[Spanned], tests: &[(u32, u32)], out: &mut Vec<Violation>) {
    for (i, s) in t.iter().enumerate() {
        let Tok::Ident(w) = &s.tok else { continue };
        if in_test_region(s.line, tests) {
            continue;
        }
        match w.as_str() {
            "Instant" | "SystemTime" if matches_seq(t, i + 1, &[":", ":", "now"]) => {
                out.push(Violation {
                    path: path.to_string(),
                    line: s.line,
                    rule: "D1",
                    msg: format!(
                        "wall-clock read `{w}::now()` in a deterministic crate — simulated \
                         components must take time from the engine clock (`Ctx::now_us`)"
                    ),
                });
            }
            "thread_rng" | "RandomState" | "from_entropy" | "OsRng" | "getrandom" => {
                out.push(Violation {
                    path: path.to_string(),
                    line: s.line,
                    rule: "D2",
                    msg: format!(
                        "ambient randomness `{w}` in a deterministic crate — all draws must \
                         come from the seeded engine RNG streams"
                    ),
                });
            }
            "random" if i >= 2 && is_path_prefix(t, i, "rand") => {
                out.push(Violation {
                    path: path.to_string(),
                    line: s.line,
                    rule: "D2",
                    msg: "ambient randomness `rand::random` in a deterministic crate — all \
                          draws must come from the seeded engine RNG streams"
                        .to_string(),
                });
            }
            _ => {}
        }
    }
}

/// True when the ident at `i` is reached as `prefix::<ident>`.
fn is_path_prefix(t: &[Spanned], i: usize, prefix: &str) -> bool {
    i >= 3
        && t[i - 1].tok == Tok::Punct(':')
        && t[i - 2].tok == Tok::Punct(':')
        && matches!(&t[i - 3].tok, Tok::Ident(w) if w == prefix)
}

// --------------------------------------------------------------------
// D3
// --------------------------------------------------------------------

fn check_d3(path: &str, t: &[Spanned], tests: &[(u32, u32)], out: &mut Vec<Violation>) {
    let names = hash_bindings(t);
    if names.is_empty() {
        return;
    }
    let flag = |out: &mut Vec<Violation>, line: u32, name: &str, how: &str| {
        out.push(Violation {
            path: path.to_string(),
            line,
            rule: "D3",
            msg: format!(
                "order-dependent iteration ({how}) over hash collection `{name}` — iteration \
                 order is an artifact of insertion history; use `BTreeMap`/`BTreeSet`, or \
                 collect and sort by a total order before the order can escape"
            ),
        })
    };
    for (i, s) in t.iter().enumerate() {
        if in_test_region(s.line, tests) {
            continue;
        }
        let Tok::Ident(w) = &s.tok else { continue };
        // `name.iter()` / `name.keys()` / ... — the receiver directly
        // before the dot must be a known hash binding.
        if ITER_METHODS.contains(&w.as_str())
            && t.get(i + 1).map(|s| &s.tok) == Some(&Tok::Punct('('))
            && t.get(i.wrapping_sub(1)).map(|s| &s.tok) == Some(&Tok::Punct('.'))
        {
            if let Some(Tok::Ident(recv)) = t.get(i.wrapping_sub(2)).map(|s| &s.tok) {
                if names.contains(recv) {
                    flag(out, s.line, recv, &format!(".{w}()"));
                }
            }
        }
        // `for x in [&mut] [self.]name {` — direct loop over the map.
        if w == "for" {
            if let Some((name, line)) = for_loop_over(t, i, &names) {
                flag(out, line, name, "for-loop");
            }
        }
    }
}

/// Collects identifiers bound to hash-collection types in this file:
/// struct fields / lets with a `: HashMap<..>`-style annotation, and
/// `let name = FxHashMap::default()` / `HashMap::new()` initializers.
fn hash_bindings(t: &[Spanned]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, s) in t.iter().enumerate() {
        let Tok::Ident(w) = &s.tok else { continue };
        if !HASH_TYPES.contains(&w.as_str()) {
            continue;
        }
        // Walk back over path/type noise (`&`, `<`, path segments and
        // both kinds of `:`) toward the binding position. The greedy
        // walk consumes an annotation's `:` too, so afterwards `t[j]`
        // is that colon and `t[j - 1]` the bound name.
        let mut j = i;
        while j > 0 {
            match &t[j - 1].tok {
                Tok::Punct(':')
                | Tok::Punct('<')
                | Tok::Punct('>')
                | Tok::Punct('&')
                | Tok::Punct(',') => j -= 1,
                Tok::Ident(prev)
                    if prev == "std"
                        || prev == "collections"
                        || prev == "hash_map"
                        || prev == "hash_set"
                        || prev == "dharma_types"
                        || prev == "mut" =>
                {
                    j -= 1
                }
                _ => break,
            }
        }
        // `name: HashMap<..>` annotation (struct field, let, fn param).
        if j < i && t[j].tok == Tok::Punct(':') {
            if let Some(Tok::Ident(name)) = t.get(j.wrapping_sub(1)).map(|s| &s.tok) {
                if !names.contains(name) {
                    names.push(name.clone());
                }
            }
            continue;
        }
        // `let [mut] name = HashMap::new()` / `= FxHashMap::default()`.
        if j == i && t.get(j.wrapping_sub(1)).map(|s| &s.tok) == Some(&Tok::Punct('=')) {
            if let Some(Tok::Ident(name)) = t.get(j.wrapping_sub(2)).map(|s| &s.tok) {
                if name != "mut" && name != "let" && !names.contains(name) {
                    names.push(name.clone());
                }
            }
        }
    }
    names
}

/// For a `for` keyword at `i`, returns the hash binding the loop
/// iterates directly (allowing `&`, `mut`, and a `self.` prefix between
/// `in` and the loop body).
fn for_loop_over<'a>(t: &[Spanned], i: usize, names: &'a [String]) -> Option<(&'a str, u32)> {
    // Find `in` at paren/bracket depth 0 before the body brace.
    let mut j = i + 1;
    let mut depth = 0i32;
    while j < t.len() {
        match &t[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('{') if depth == 0 => return None,
            Tok::Ident(w) if w == "in" && depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    // Expression tokens between `in` and `{` must be exactly a
    // (borrowed) hash binding.
    let mut expr = Vec::new();
    let mut k = j + 1;
    while k < t.len() && t[k].tok != Tok::Punct('{') {
        expr.push(&t[k]);
        k += 1;
        if expr.len() > 5 {
            return None;
        }
    }
    let line = t[j].line;
    let mut idx = 0usize;
    while idx < expr.len() {
        match &expr[idx].tok {
            Tok::Punct('&') => idx += 1,
            Tok::Ident(w) if w == "mut" || w == "self" => idx += 1,
            Tok::Punct('.') => idx += 1,
            Tok::Ident(w) => {
                return (idx + 1 == expr.len())
                    .then(|| names.iter().find(|n| *n == w))
                    .flatten()
                    .map(|n| (n.as_str(), line));
            }
            _ => return None,
        }
    }
    None
}

// --------------------------------------------------------------------
// D4 / D5
// --------------------------------------------------------------------

/// Lines a `// SAFETY:` comment may sit above the `unsafe` it documents
/// (multi-line justifications measured from their last line).
const SAFETY_WINDOW: u32 = 5;

fn check_unsafe(path: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let allowed_here = unsafe_allowed(path);
    // A multi-line justification is a run of adjacent `//` comments; the
    // lexer stores each line separately, so fold consecutive comments
    // into blocks and measure the window from the block's *last* line.
    let mut blocks: Vec<(bool, u32)> = Vec::new(); // (has_safety, last_line)
    for c in &lexed.comments {
        let safety = c.text.contains("SAFETY:") || c.text.contains("# Safety");
        match blocks.last_mut() {
            Some((has, last)) if c.first_line <= *last + 1 => {
                *has |= safety;
                *last = (*last).max(c.last_line);
            }
            _ => blocks.push((safety, c.last_line)),
        }
    }
    for s in &lexed.tokens {
        if !matches!(&s.tok, Tok::Ident(w) if w == "unsafe") {
            continue;
        }
        let documented = blocks.iter().any(|&(has_safety, last_line)| {
            has_safety
                && last_line <= s.line + 1
                && s.line.saturating_sub(last_line) <= SAFETY_WINDOW
        });
        if !documented {
            out.push(Violation {
                path: path.to_string(),
                line: s.line,
                rule: "D4",
                msg: "`unsafe` without a `// SAFETY:` comment — every unsafe block, fn, and \
                      impl must state the invariant that makes it sound"
                    .to_string(),
            });
        }
        if !allowed_here {
            out.push(Violation {
                path: path.to_string(),
                line: s.line,
                rule: "D5",
                msg: format!(
                    "`unsafe` outside the sanctioned FFI surface ({:?}) — move the code \
                     there or keep the crate `#![forbid(unsafe_code)]`",
                    UNSAFE_ALLOWED
                ),
            });
        }
    }
}

// --------------------------------------------------------------------
// Token helpers
// --------------------------------------------------------------------

/// Matches a run of single-char puncts / idents starting at `i`. Pattern
/// entries of length 1 that are not identifiers match puncts.
fn matches_seq(t: &[Spanned], i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| match t.get(i + k) {
        Some(s) => match &s.tok {
            Tok::Ident(w) => w == p,
            Tok::Punct(c) => p.len() == 1 && *c == p.chars().next().unwrap(),
            Tok::Literal => false,
        },
        None => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path placing a fixture inside a deterministic crate's src tree.
    const DET: &str = "crates/kademlia/src/fixture.rs";
    /// Path outside the deterministic set (D1–D3 must not apply).
    const FREE: &str = "crates/folksonomy/src/fixture.rs";

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn d1_fires_and_is_silenceable() {
        let bad = "fn f() -> u64 { let t = Instant::now(); t.elapsed().as_micros() as u64 }";
        assert_eq!(rules_fired(DET, bad), vec!["D1"]);
        // SystemTime too.
        let bad2 = "fn f() { let _ = std::time::SystemTime::now(); }";
        assert_eq!(rules_fired(DET, bad2), vec!["D1"]);
        let ok = "// dharma-lint: allow(D1): fixture measures wall time on purpose\n\
                  fn f() { let _t = Instant::now(); }";
        assert_eq!(rules_fired(DET, ok), Vec::<&str>::new());
        // Outside the deterministic crates D1 does not apply at all.
        assert_eq!(rules_fired(FREE, bad), Vec::<&str>::new());
    }

    #[test]
    fn d2_fires_and_is_silenceable() {
        for bad in [
            "fn f() { let mut rng = thread_rng(); }",
            "fn f() -> u32 { rand::random() }",
            "fn f() { let s = RandomState::new(); }",
        ] {
            assert_eq!(rules_fired(DET, bad), vec!["D2"], "{bad}");
        }
        let ok = "fn f() -> u32 { ctx.rng.next_u32() } // dharma-lint: allow(D2): not ambient\n";
        assert_eq!(rules_fired(DET, ok), Vec::<&str>::new());
        let silenced = "// dharma-lint: allow(D2): fixture\nfn f() { let mut r = thread_rng(); }";
        assert_eq!(rules_fired(DET, silenced), Vec::<&str>::new());
    }

    #[test]
    fn d3_fires_on_iteration_and_for_loops() {
        let bad = "struct S { m: FxHashMap<u32, u32> }\n\
                   impl S { fn f(&self) -> u32 { self.m.values().sum() } }";
        assert_eq!(rules_fired(DET, bad), vec!["D3"]);
        let bad_for = "fn f(m: &HashMap<u32, u32>) { for (k, v) in m { println!(\"{k}{v}\"); } }";
        assert_eq!(rules_fired(DET, bad_for), vec!["D3"]);
        let bad_let = "fn f() { let mut seen = FxHashSet::default(); seen.insert(1);\n\
                       for x in &seen { drop(x); } }";
        assert_eq!(rules_fired(DET, bad_let), vec!["D3"]);
        // BTreeMap iteration is fine.
        let ok = "fn f(m: &std::collections::BTreeMap<u32, u32>) -> u32 { m.values().sum() }";
        assert_eq!(rules_fired(DET, ok), Vec::<&str>::new());
        // Vec methods named like map methods are fine too.
        let ok2 = "fn f(v: &Vec<u32>) -> u32 { v.iter().sum() }";
        assert_eq!(rules_fired(DET, ok2), Vec::<&str>::new());
    }

    #[test]
    fn d3_covers_fetcher_book_bindings() {
        // The recent-fetcher set wraps an FxHashMap; iterating a binding
        // of the wrapper type is just as order-dependent.
        let bad = "struct S { fetchers: FetcherBook }\n\
                   impl S { fn f(&self) -> usize { self.fetchers.iter().count() } }";
        assert_eq!(rules_fired(DET, bad), vec!["D3"]);
        // Non-iterating use of the book stays clean.
        let ok = "struct S { fetchers: FetcherBook }\n\
                  impl S { fn f(&self) -> usize { self.fetchers.tracked() } }";
        assert_eq!(rules_fired(DET, ok), Vec::<&str>::new());
    }

    #[test]
    fn d3_pragma_covers_a_multiline_statement() {
        let src = "struct S { m: FxHashMap<u32, u32> }\n\
                   impl S { fn f(&self) -> Vec<u32> {\n\
                   // dharma-lint: allow(D3): collected then fully sorted below\n\
                   let mut v: Vec<u32> = self\n\
                       .m\n\
                       .values()\n\
                       .copied()\n\
                       .collect();\n\
                   v.sort_unstable();\n\
                   v } }";
        assert_eq!(rules_fired(DET, src), Vec::<&str>::new());
    }

    #[test]
    fn d4_fires_without_safety_comment_and_accepts_block_comments() {
        let bad = "fn f() { unsafe { danger() } }";
        let fired = rules_fired("crates/net/src/sys.rs", bad);
        assert_eq!(fired, vec!["D4"]);
        let ok =
            "fn f() {\n// SAFETY: fixture — pointer is valid for the call\nunsafe { danger() } }";
        assert_eq!(rules_fired("crates/net/src/sys.rs", ok), Vec::<&str>::new());
        // Multi-line `//` justification: the window is measured from the
        // *last* line of the comment run.
        let ok_multi = "fn f() {\n\
            // SAFETY: a long argument\n\
            // line two\n\
            // line three\n\
            // line four\n\
            // line five\n\
            // line six\n\
            unsafe { danger() } }";
        assert_eq!(
            rules_fired("crates/net/src/sys.rs", ok_multi),
            Vec::<&str>::new()
        );
        let silenced = "// dharma-lint: allow(D4): fixture\nfn f() { unsafe { danger() } }";
        assert_eq!(
            rules_fired("crates/net/src/sys.rs", silenced),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn d5_fires_outside_the_sanctioned_files() {
        let src = "fn f() { // SAFETY: documented but still misplaced\n unsafe { danger() } }";
        assert_eq!(rules_fired(FREE, src), vec!["D5"]);
        // Sanctioned files: sys.rs and udp.rs only; dharma-par is not one.
        assert_eq!(
            rules_fired("crates/net/src/sys.rs", src),
            Vec::<&str>::new()
        );
        assert_eq!(rules_fired("crates/par/src/pool.rs", src), vec!["D5"]);
        let silenced = format!("// dharma-lint: allow-file(D5): fixture\n{src}");
        assert_eq!(rules_fired(FREE, &silenced), Vec::<&str>::new());
    }

    #[test]
    fn p0_fires_on_malformed_pragmas_only() {
        // Missing reason.
        let bad = "// dharma-lint: allow(D1):\nfn f() {}";
        assert_eq!(rules_fired(DET, bad), vec!["P0"]);
        // Unknown rule.
        let bad2 = "// dharma-lint: allow(D9): whatever\nfn f() {}";
        assert_eq!(rules_fired(DET, bad2), vec!["P0"]);
        // Prose *about* the syntax is not a pragma.
        let prose = "//! A `dharma-lint:` comment that does not parse is a violation.\nfn f() {}";
        assert_eq!(rules_fired(DET, prose), Vec::<&str>::new());
    }

    #[test]
    fn cfg_test_modules_are_exempt_from_d1_d3() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn timing() { let _ = Instant::now(); let mut r = thread_rng(); }\n\
                   }";
        assert_eq!(rules_fired(DET, src), Vec::<&str>::new());
        // ...but D4/D5 still apply inside test modules.
        let src_unsafe = "#[cfg(test)]\nmod tests {\n fn f() { unsafe { danger() } }\n}";
        let fired = rules_fired(FREE, src_unsafe);
        assert!(fired.contains(&"D4") && fired.contains(&"D5"), "{fired:?}");
    }

    #[test]
    fn allow_file_silences_the_whole_file_one_rule_only() {
        let src = "// dharma-lint: allow-file(D1): fixture is a wall-clock harness\n\
                   fn a() { let _ = Instant::now(); }\n\
                   fn b() { let _ = SystemTime::now(); }\n\
                   fn c() { let mut r = thread_rng(); }";
        assert_eq!(rules_fired(DET, src), vec!["D2"]);
    }
}
