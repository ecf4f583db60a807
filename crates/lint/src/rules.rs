//! The determinism/correctness rules and the workspace scanner.
//!
//! Every rule exists because the simulator's headline property — the
//! same `(config, seed)` always produces byte-identical results, serial
//! or parallel, observer on or off — is one stray `HashMap` iteration
//! or wall-clock read away from silently breaking. The rules:
//!
//! | code   | name                | what it forbids (in scope)                          |
//! |--------|---------------------|-----------------------------------------------------|
//! | MDR001 | hash-collections    | `HashMap`/`HashSet` in deterministic crates         |
//! | MDR002 | wall-clock          | `Instant`/`SystemTime`/`thread_rng`/`from_entropy`  |
//! | MDR003 | partial-cmp         | `.partial_cmp(` calls — `total_cmp` is total        |
//! | MDR004 | float-eq            | `==`/`!=` against float literals                    |
//! | MDR005 | float-ordering-cast | float→int `as` casts inside `sort_by`/`min_by`/…    |
//! | MDR006 | unsafe-code         | `unsafe` outside allowlisted, `// SAFETY:`-commented|
//! |        |                     | sites; crate roots missing `#![forbid(unsafe_code)]`|
//! | MDR007 | no-panic            | `.unwrap()`/`.expect(` in the engine event loop and |
//! |        |                     | `mdr-proto` decode paths                            |
//!
//! The scanner reads `crates/*/src` and, for MDR006's crate-root check
//! only, `tests/lib.rs`; integration-test trees are not read at all.
//! Inside what it reads, `#[cfg(test)]` modules and `#[test]` functions
//! are exempt from MDR001–005 and MDR007 (tests assert exact values and
//! may use whatever is convenient); MDR006 applies everywhere.

use crate::config::{AllowEntry, LintConfig};
use crate::diag::Diagnostic;
use crate::lexer::{tokenize, TokKind, Token};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Result of scanning a workspace.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// All findings, sorted by (path, line, col).
    pub diags: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
}

const INT_TYPES: [&str; 12] =
    ["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];
const ORDERING_SINKS: [&str; 9] = [
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "binary_search_by",
];

/// Scan one file's source. `rel` is the workspace-relative path used
/// for scoping and reporting. `allow_used` tracks which allowlist
/// entries suppressed something (stale entries are themselves errors).
pub fn scan_source(
    rel: &str,
    src: &str,
    cfg: &LintConfig,
    allow_used: &mut [bool],
) -> Vec<Diagnostic> {
    let toks = tokenize(src);
    // Comment-free view for the code rules; `code[i].1` indexes `toks`.
    let code: Vec<(usize, &Token<'_>)> =
        toks.iter().enumerate().filter(|(_, t)| t.kind != TokKind::Comment).collect();
    let excluded = test_exclusion_mask(&code);

    let in_det = cfg.deterministic_crates.iter().any(|c| path_in(rel, c));
    let in_panic_scope = cfg.no_panic_paths.iter().any(|c| path_in(rel, c));

    let mut diags = Vec::new();
    for (ci, &(_, t)) in code.iter().enumerate() {
        let test_code = excluded[ci];
        let prev = ci.checked_sub(1).map(|p| code[p].1.text);
        let next = code.get(ci + 1).map(|n| n.1.text);

        // MDR001 hash-collections.
        if in_det
            && !test_code
            && t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
        {
            diags.push(mk(
                "MDR001",
                "hash-collections",
                rel,
                t,
                format!(
                    "`{}` in a deterministic crate — iteration order varies across runs",
                    t.text
                ),
                "key ordered state with BTreeMap/BTreeSet or dense NodeId/LinkId-indexed slots",
            ));
        }

        // MDR002 wall-clock.
        if in_det
            && !test_code
            && t.kind == TokKind::Ident
            && matches!(t.text, "Instant" | "SystemTime" | "thread_rng" | "from_entropy")
        {
            diags.push(mk(
                "MDR002",
                "wall-clock",
                rel,
                t,
                format!("`{}` reads wall-clock time or OS entropy", t.text),
                "use simulated time from the event queue and a seeded SmallRng; \
                 real time/entropy makes runs unreproducible",
            ));
        }

        // MDR003 partial-cmp (calls only; `fn partial_cmp` definitions
        // inside manual PartialOrd impls are exempt by construction).
        if in_det
            && !test_code
            && t.kind == TokKind::Ident
            && t.text == "partial_cmp"
            && matches!(prev, Some(".") | Some("::"))
        {
            diags.push(mk(
                "MDR003",
                "partial-cmp",
                rel,
                t,
                "`partial_cmp` on floats is not a total order (NaN compares as None)".to_string(),
                "use f64::total_cmp — it is total, NaN-safe, and what the engine's \
                 event ordering already relies on",
            ));
        }

        // MDR004 float-eq.
        if in_det && !test_code && (t.text == "==" || t.text == "!=") && t.kind == TokKind::Punct {
            let float_adjacent =
                ci.checked_sub(1).map(|p| code[p].1.kind == TokKind::Float).unwrap_or(false)
                    || code.get(ci + 1).map(|n| n.1.kind == TokKind::Float).unwrap_or(false);
            if float_adjacent {
                diags.push(mk(
                    "MDR004",
                    "float-eq",
                    rel,
                    t,
                    format!("exact `{}` against a float literal", t.text),
                    "exact float equality is representation-sensitive; compare with \
                     total_cmp, an explicit tolerance, or restructure to avoid the test",
                ));
            }
        }

        // MDR005 float-ordering-cast: `as <int>` inside an ordering
        // closure (`sort_by(…)` et al.) truncates floats into the key.
        if in_det
            && !test_code
            && t.kind == TokKind::Ident
            && ORDERING_SINKS.contains(&t.text)
            && next == Some("(")
        {
            let mut depth = 0i64;
            for cj in ci + 1..code.len() {
                let u = code[cj].1;
                match u.text {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth <= 0 {
                            break;
                        }
                    }
                    "as" if u.kind == TokKind::Ident
                        && code.get(cj + 1).is_some_and(|n| INT_TYPES.contains(&n.1.text)) =>
                    {
                        diags.push(mk(
                            "MDR005",
                            "float-ordering-cast",
                            rel,
                            u,
                            format!(
                                "`as {}` cast inside `{}` — truncating floats into an \
                                 ordering key collapses distinct costs",
                                code[cj + 1].1.text,
                                t.text
                            ),
                            "order floats with f64::total_cmp instead of casting them \
                             to integers",
                        ));
                    }
                    _ => {}
                }
            }
        }

        // MDR006 unsafe-code — applies everywhere, including tests.
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            let allow = find_allow(cfg, "MDR006", "unsafe-code", rel)
                .filter(|_| has_safety_comment(&toks, t.line));
            match allow {
                Some(idx) => allow_used[idx] = true,
                None => {
                    let msg = if find_allow(cfg, "MDR006", "unsafe-code", rel).is_some() {
                        "`unsafe` is allowlisted for this file but lacks a `// SAFETY:` \
                         comment within the 5 preceding lines"
                    } else {
                        "`unsafe` outside the allowlist"
                    };
                    diags.push(mk(
                        "MDR006",
                        "unsafe-code",
                        rel,
                        t,
                        msg.to_string(),
                        "remove the unsafe block, or register the file in lint.toml \
                         [[allow]] with a reason and justify the site with `// SAFETY: …`",
                    ));
                }
            }
        }

        // MDR007 no-panic.
        if in_panic_scope
            && !test_code
            && t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && prev == Some(".")
            && next == Some("(")
        {
            diags.push(mk(
                "MDR007",
                "no-panic",
                rel,
                t,
                format!("`.{}()` in a no-panic path (engine event loop / decode path)", t.text),
                "propagate the error (decode paths return Result) or handle the \
                 absent case explicitly — a panic here kills the whole batch run",
            ));
        }
    }

    // MDR006 root check: crate roots must carry #![forbid(unsafe_code)].
    if is_crate_root(rel, cfg) && !has_forbid_unsafe(&code) {
        match find_allow(cfg, "MDR006", "unsafe-code", rel) {
            Some(idx) => allow_used[idx] = true,
            None => diags.push(Diagnostic {
                code: "MDR006",
                rule: "unsafe-code",
                path: rel.to_string(),
                line: 1,
                col: 1,
                len: 1,
                message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
                help: "add `#![forbid(unsafe_code)]` after the crate docs, or allowlist \
                       the crate in lint.toml with a reason"
                    .to_string(),
            }),
        }
    }

    // Apply the path allowlist to the remaining rules.
    diags.retain(|d| {
        if d.code == "MDR006" {
            return true; // handled above with the SAFETY-comment requirement
        }
        match find_allow(cfg, d.code, d.rule, rel) {
            Some(idx) => {
                allow_used[idx] = true;
                false
            }
            None => true,
        }
    });
    diags
}

/// Scan the whole workspace under `root`.
pub fn scan_workspace(root: &Path, cfg: &LintConfig) -> io::Result<ScanOutcome> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        for krate in crates {
            collect_rs(&krate.join("src"), &mut files)?;
        }
    }
    // The integration-test crate root participates in the unsafe-forbid
    // check only (its body is test code).
    let tests_root = root.join("tests/lib.rs");
    if tests_root.is_file() {
        files.push(tests_root);
    }
    files.sort();

    let mut allow_used = vec![false; cfg.allows.len()];
    let mut out = ScanOutcome::default();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f).to_string_lossy().replace('\\', "/");
        let src = fs::read_to_string(f)?;
        out.diags.extend(scan_source(&rel, &src, cfg, &mut allow_used));
        out.files_scanned += 1;
    }
    // Stale allowlist entries are errors: the allowlist must describe
    // the code as it is, not as it once was.
    for (entry, used) in cfg.allows.iter().zip(&allow_used) {
        if !used {
            out.diags.push(stale_allow(entry));
        }
    }
    out.diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.code).cmp(&(b.path.as_str(), b.line, b.col, b.code))
    });
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn mk(
    code: &'static str,
    rule: &'static str,
    rel: &str,
    t: &Token<'_>,
    message: String,
    help: &str,
) -> Diagnostic {
    Diagnostic {
        code,
        rule,
        path: rel.to_string(),
        line: t.line,
        col: t.col,
        len: t.text.len(),
        message,
        help: help.to_string(),
    }
}

fn stale_allow(entry: &AllowEntry) -> Diagnostic {
    Diagnostic {
        code: "MDR000",
        rule: "stale-allow",
        path: "lint.toml".to_string(),
        line: 1,
        col: 1,
        len: 1,
        message: format!(
            "allowlist entry (rule {}, path {}) suppressed nothing — remove it",
            entry.rule, entry.path
        ),
        help: "the allowlist must stay empty-by-default; delete entries the code no \
               longer needs"
            .to_string(),
    }
}

fn path_in(rel: &str, prefix: &str) -> bool {
    rel == prefix || rel.starts_with(&format!("{prefix}/"))
}

fn find_allow(cfg: &LintConfig, code: &str, rule: &str, rel: &str) -> Option<usize> {
    cfg.allows.iter().position(|a| (a.rule == code || a.rule == rule) && path_in(rel, &a.path))
}

fn is_crate_root(rel: &str, cfg: &LintConfig) -> bool {
    if !cfg.unsafe_forbid_roots.is_empty() {
        return cfg.unsafe_forbid_roots.iter().any(|r| r == rel);
    }
    (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs")) || rel == "tests/lib.rs"
}

fn has_forbid_unsafe(code: &[(usize, &Token<'_>)]) -> bool {
    // #![forbid(unsafe_code)] — seven tokens.
    code.windows(7).any(|w| {
        let t: Vec<&str> = w.iter().map(|(_, t)| t.text).collect();
        t == ["#", "!", "[", "forbid", "(", "unsafe_code", ")"]
    })
}

fn has_safety_comment(toks: &[Token<'_>], unsafe_line: u32) -> bool {
    toks.iter().any(|t| {
        t.kind == TokKind::Comment
            && t.text.contains("SAFETY:")
            && t.line < unsafe_line
            && unsafe_line - t.line <= 5
    })
}

/// Mark the code-token indices that sit inside `#[cfg(test)]` /
/// `#[test]`-attributed items (and everything nested in them).
fn test_exclusion_mask(code: &[(usize, &Token<'_>)]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].1.text == "#" && code.get(i + 1).map(|t| t.1.text) == Some("[") {
            // Collect the attribute's tokens.
            let mut j = i + 2;
            let mut depth = 1;
            let mut attr: Vec<&str> = Vec::new();
            while j < code.len() && depth > 0 {
                match code[j].1.text {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    t => attr.push(t),
                }
                j += 1;
            }
            let is_test_attr = (attr.contains(&"cfg") && attr.contains(&"test"))
                || attr == ["test"]
                || (attr.contains(&"cfg") && attr.contains(&"any") && attr.contains(&"test"));
            if is_test_attr {
                // Skip any further attributes, then the item itself.
                let mut k = j;
                while k < code.len()
                    && code[k].1.text == "#"
                    && code.get(k + 1).map(|t| t.1.text) == Some("[")
                {
                    let mut d = 0;
                    k += 1;
                    while k < code.len() {
                        match code[k].1.text {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                // The item ends at the first `;` seen before any brace,
                // or at the matching `}` of its first brace group.
                let end = {
                    let mut e = k;
                    let mut brace = 0i64;
                    let mut entered = false;
                    while e < code.len() {
                        match code[e].1.text {
                            ";" if !entered => break,
                            "{" => {
                                brace += 1;
                                entered = true;
                            }
                            "}" => {
                                brace -= 1;
                                if entered && brace <= 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        e += 1;
                    }
                    e.min(code.len().saturating_sub(1))
                };
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scope these tests exercise: `crates/sim` is deterministic,
    /// and the engine event loop and the proto decode paths must not
    /// panic.
    fn cfg() -> LintConfig {
        LintConfig {
            deterministic_crates: vec!["crates/sim".into()],
            no_panic_paths: vec!["crates/sim/src/engine.rs".into(), "crates/proto/src".into()],
            unsafe_forbid_roots: Vec::new(),
            allows: Vec::new(),
        }
    }

    fn scan(rel: &str, src: &str) -> Vec<String> {
        let cfg = cfg();
        let mut used = vec![false; cfg.allows.len()];
        scan_source(rel, src, &cfg, &mut used).into_iter().map(|d| d.code.to_string()).collect()
    }

    const DET: &str = "crates/sim/src/x.rs";

    #[test]
    fn hash_collections_fire_in_deterministic_crates_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(scan(DET, src), vec!["MDR001"]);
        assert!(scan("crates/bench/src/x.rs", src).is_empty());
        assert!(scan("crates/lint/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_fires() {
        assert_eq!(scan(DET, "let t = Instant::now();"), vec!["MDR002"]);
        assert_eq!(scan(DET, "let r = thread_rng();"), vec!["MDR002"]);
        assert_eq!(scan(DET, "let c = SystemTime::now();"), vec!["MDR002"]);
        assert!(scan("crates/bench/src/bin/t.rs", "Instant::now();").is_empty());
    }

    #[test]
    fn partial_cmp_calls_fire_but_definitions_do_not() {
        assert_eq!(scan(DET, "a.partial_cmp(&b);"), vec!["MDR003"]);
        assert_eq!(scan(DET, "PartialOrd::partial_cmp(&a, &b);"), vec!["MDR003"]);
        assert!(
            scan(DET, "fn partial_cmp(&self, o: &Self) -> Option<Ordering> { None }").is_empty()
        );
    }

    #[test]
    fn float_eq_fires_on_literals() {
        assert_eq!(scan(DET, "if x == 0.0 { }"), vec!["MDR004"]);
        assert_eq!(scan(DET, "if 1.5 != y { }"), vec!["MDR004"]);
        assert!(scan(DET, "if x == y { }").is_empty(), "untyped idents cannot be judged");
        assert!(scan(DET, "if n == 0 { }").is_empty(), "integer equality is exact");
    }

    #[test]
    fn ordering_cast_fires_inside_sort_closures_only() {
        assert_eq!(scan(DET, "v.sort_by(|a, b| (a.t as u64).cmp(&(b.t as u64)));").len(), 2);
        assert_eq!(scan(DET, "v.min_by(|a, b| (a.c as i64).cmp(&(b.c as i64)));").len(), 2);
        assert!(scan(DET, "let x = t as u64;").is_empty(), "casts outside ordering are fine");
        assert!(
            scan(DET, "v.sort_by(|a, b| a.t.total_cmp(&b.t));").is_empty(),
            "total_cmp is the sanctioned form"
        );
    }

    #[test]
    fn unsafe_fires_everywhere_without_allowlist() {
        let src = "pub fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        assert_eq!(scan(DET, src), vec!["MDR006"]);
        assert_eq!(scan("crates/bench/src/x.rs", src), vec!["MDR006"]);
    }

    #[test]
    fn allowlisted_unsafe_needs_safety_comment() {
        let mut cfg = cfg();
        cfg.allows.push(AllowEntry {
            rule: "unsafe-code".into(),
            path: "crates/sim/src/chaos.rs".into(),
            reason: "audited".into(),
        });
        let rel = "crates/sim/src/chaos.rs";
        let mut used = vec![false];
        let with_comment = "// SAFETY: the slot is initialized above.\nunsafe { x() }";
        assert!(scan_source(rel, with_comment, &cfg, &mut used).is_empty());
        assert!(used[0], "suppression must be recorded");
        let mut used = vec![false];
        let without = "unsafe { x() }";
        let d = scan_source(rel, without, &cfg, &mut used);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("SAFETY"));
    }

    #[test]
    fn no_panic_fires_in_scope_only() {
        let src = "fn f() { q.pop().unwrap(); r.get(0).expect(\"x\"); }";
        assert_eq!(scan("crates/sim/src/engine.rs", src), vec!["MDR007", "MDR007"]);
        assert_eq!(scan("crates/proto/src/codec.rs", src), vec!["MDR007", "MDR007"]);
        assert!(scan("crates/sim/src/events.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  fn f() { a.partial_cmp(&b); assert!(x == 1.0); }\n}\n";
        assert!(scan(DET, src).is_empty());
    }

    #[test]
    fn test_fns_are_exempt_but_surrounding_code_is_not() {
        let src =
            "#[test]\nfn t() { let x = Instant::now(); }\nfn prod() { let y = Instant::now(); }\n";
        assert_eq!(scan(DET, src), vec!["MDR002"]);
    }

    #[test]
    fn crate_root_requires_forbid_unsafe() {
        assert_eq!(scan("crates/sim/src/lib.rs", "pub mod engine;"), vec!["MDR006"]);
        assert!(
            scan("crates/sim/src/lib.rs", "#![forbid(unsafe_code)]\npub mod engine;").is_empty()
        );
        assert!(scan("crates/sim/src/engine.rs", "pub fn f() {}").is_empty());
    }

    #[test]
    fn rules_skip_strings_and_comments() {
        let src = "// HashMap Instant unsafe\nlet s = \"HashMap == 1.0 unsafe\";\n";
        assert!(scan(DET, src).is_empty());
    }

    #[test]
    fn stale_allow_reported_by_workspace_scan() {
        // Exercised end-to-end in tests/workspace_clean.rs; here just
        // check the diagnostic constructor.
        let d = super::stale_allow(&AllowEntry {
            rule: "unsafe-code".into(),
            path: "nowhere.rs".into(),
            reason: "gone".into(),
        });
        assert_eq!(d.code, "MDR000");
        assert!(d.message.contains("suppressed nothing"));
    }
}
