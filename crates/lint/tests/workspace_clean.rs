//! The determinism rules are rustc and clippy lints (DESIGN.md §6
//! layer 2); this file pins what the compiler cannot: which crates and
//! files opt in, which few places opt out, float equality against a
//! zero literal or an infinity, and functions whose name makes
//! `clippy::float_cmp` skip their bodies — the two things it exempts.

use mdr_lint::model;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Every `.rs` file under `rel`, as workspace-relative paths, sorted.
fn rust_files(rel: &str) -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path.strip_prefix(workspace_root()).unwrap().display().to_string());
            }
        }
    }
    let mut out = Vec::new();
    walk(&workspace_root().join(rel), &mut out);
    out.sort();
    out
}

/// The crates whose code must be bit-deterministic.
const DETERMINISTIC: [&str; 8] = ["core", "net", "proto", "routing", "flow", "opt", "sim", "node"];

/// Lines of `src` outside `#[cfg(test)]` items and `//` comments.
fn non_test_code(src: &str) -> Vec<(usize, &str)> {
    let (mut out, mut skipping, mut depth, mut opened) = (Vec::new(), false, 0i32, false);
    for (i, line) in src.lines().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        if line.trim_start().starts_with("#[cfg(test)]") {
            (skipping, depth, opened) = (true, 0, false);
            continue;
        }
        if skipping {
            depth += code.matches('{').count() as i32 - code.matches('}').count() as i32;
            opened |= code.contains('{');
            skipping = !(depth == 0 && (opened || code.trim_end().ends_with(';')));
            continue;
        }
        out.push((i + 1, code));
    }
    out
}

/// A float literal equal to zero: `0.0`, `0.`, `0e0`, `0f64`, `0.0_f32`…
fn is_zero_float(token: &str) -> bool {
    let digits = token.replace('_', "");
    let num = digits.strip_suffix("f64").or(digits.strip_suffix("f32"));
    let float = num.is_some() || digits.contains(['.', 'e', 'E']);
    let num = num.unwrap_or(&digits);
    float && num.starts_with(|c: char| c.is_ascii_digit()) && num.parse::<f64>() == Ok(0.0)
}

/// A float operand `clippy::float_cmp` exempts: a literal equal to
/// zero, or an `f64`/`f32` infinity, however its path is spelled.
fn is_exempt_float(token: &str) -> bool {
    let infinity = |name: &str| {
        token == name || token.strip_suffix(name).is_some_and(|path| path.ends_with("::"))
    };
    is_zero_float(token)
        || ["f64::INFINITY", "f64::NEG_INFINITY", "f32::INFINITY", "f32::NEG_INFINITY"]
            .into_iter()
            .any(infinity)
}

/// The operand tokens directly left and right of each `==` / `!=`, a
/// leading minus dropped.
fn equality_operands(code: &str) -> Vec<&str> {
    let token = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | ':');
    let ops = code.match_indices("==").chain(code.match_indices("!="));
    ops.flat_map(|(at, _)| {
        let left = code[..at].trim_end();
        let right = code[at + 2..].trim_start().trim_start_matches('-');
        let right_end = right.len() - right.trim_start_matches(token).len();
        [&left[left.trim_end_matches(token).len()..], &right[..right_end]]
    })
    .collect()
}

/// The names of the functions `code` defines that `clippy::float_cmp`
/// does not look into. It skips `eq`, `ne`, `is_nan`, `eq_*` and
/// `*_eq`; matched wider here, every name that starts or ends with `eq`.
fn float_cmp_blind_fns(code: &str) -> Vec<&str> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    code.match_indices("fn ")
        .filter(|&(at, _)| !code[..at].ends_with(ident))
        .map(|(at, _)| {
            let rest = code[at + 3..].trim_start();
            &rest[..rest.len() - rest.trim_start_matches(ident).len()]
        })
        .filter(|name| {
            name.starts_with("eq") || name.ends_with("eq") || ["ne", "is_nan"].contains(name)
        })
        .collect()
}

#[test]
fn determinism_lints_cover_their_scope() {
    // Every first-party crate inherits the workspace lints; the
    // deterministic ones also deny inexact float comparison.
    for krate in rust_files("crates").iter().filter_map(|f| f.strip_suffix("/src/lib.rs")) {
        let manifest = read(&format!("{krate}/Cargo.toml"));
        assert!(
            manifest.contains("[lints]\nworkspace = true"),
            "{krate} skips the workspace lints"
        );
    }
    assert!(read("tests/Cargo.toml").contains("[lints]\nworkspace = true"));
    for krate in DETERMINISTIC {
        let root = read(&format!("crates/{krate}/src/lib.rs"));
        assert!(root.contains("#![cfg_attr(not(test), deny(clippy::float_cmp))]"), "{krate}");
    }
    // The no-panic scope: a corrupt datagram, a stale incarnation, or a
    // dead peer must degrade the one adjacency, never panic the router
    // process. It covers the control-plane agent, the host both
    // simulators run it in, both event loops, the DAG solver every fluid
    // settle runs, every protocol decode path, and every non-shell
    // module of the live node (the I/O shell may still abort on
    // process-fatal setup errors such as a failed bind).
    for file in [
        "crates/sim/src/agent.rs",
        "crates/sim/src/host.rs",
        "crates/sim/src/engine.rs",
        "crates/sim/src/fluid.rs",
        "crates/opt/src/dag.rs",
        "crates/proto/src/lib.rs",
        "crates/node/src/core.rs",
        "crates/node/src/reliable.rs",
        "crates/node/src/hlc.rs",
        "crates/node/src/record.rs",
        "crates/node/src/trace.rs",
    ] {
        let src = read(file);
        assert!(
            src.contains("#![deny(clippy::unwrap_used, clippy::expect_used)]"),
            "{file} fell out of the no-panic scope"
        );
    }
    // The only exemptions from the banned types and methods: the live
    // node's I/O shell reads the wall clock, `mdr-bench` and
    // `mdr-verify` time their runs, and the checkers dedup in a
    // `HashSet`. Another one needs a DESIGN.md discussion first.
    let mut exemptions = Vec::new();
    for file in rust_files("crates").into_iter().chain(rust_files("tests")) {
        for line in read(&file).lines().map(str::trim) {
            let attr = line.starts_with('#') || line.starts_with("clippy::");
            for lint in ["disallowed_types", "disallowed_methods"] {
                if attr && line.contains(&format!("clippy::{lint}")) {
                    exemptions.push(format!("{file} {lint}"));
                }
            }
        }
    }
    assert_eq!(
        exemptions,
        [
            "crates/bench/src/main.rs disallowed_types",
            "crates/lint/src/lib.rs disallowed_types",
            "crates/lint/src/lib.rs disallowed_methods",
            "crates/lint/src/verify_main.rs disallowed_types",
            "crates/node/src/shell/mod.rs disallowed_types",
        ]
    );
    // `clippy::float_cmp` passes a comparison with zero, which is as
    // inexact as any other: a value that should be zero can carry
    // rounding error, so test `x.abs() < eps` (or `<= 0.0`) instead. It
    // passes one with an infinity too, where `x.is_infinite()` (with a
    // sign test if it matters) says what is meant.
    let mut exempt_cmps = Vec::new();
    for krate in DETERMINISTIC {
        for file in rust_files(&format!("crates/{krate}/src")) {
            let src = read(&file);
            for (line, code) in non_test_code(&src) {
                if equality_operands(code).into_iter().any(is_exempt_float) {
                    exempt_cmps.push(format!("{file}:{line}: {}", code.trim()));
                }
            }
        }
    }
    assert!(
        exempt_cmps.is_empty(),
        "float equality against zero or an infinity:\n{}",
        exempt_cmps.join("\n")
    );
    // `clippy::float_cmp` does not look inside a function named like
    // `eq`, so one could compare floats exactly and pass. The one such
    // function compares through `Ord`, which orders `-0.0` before `0.0`.
    let mut blind = Vec::new();
    for krate in DETERMINISTIC {
        for file in rust_files(&format!("crates/{krate}/src")) {
            let src = read(&file);
            for (_, code) in non_test_code(&src) {
                blind.extend(float_cmp_blind_fns(code).into_iter().map(|f| format!("{file} {f}")));
            }
        }
    }
    assert_eq!(blind, ["crates/sim/src/events.rs eq"], "functions clippy::float_cmp skips");
}

#[test]
fn the_blind_fn_matcher_sees_every_name_float_cmp_skips() {
    for code in [
        "fn eq(&self, other: &Self) -> bool {",
        "    fn  ne(&self, other: &Self) -> bool {",
        "pub fn is_nan(self) -> bool {",
        "pub(crate) fn eq_bits(a: f64, b: f64) -> bool {",
        "const fn approx_eq(a: f64) -> bool {",
        "fn equal<T: PartialEq>(a: T, b: T) -> bool {",
        "fn neq(a: f64) {",
        "impl X { fn eq(&self) {} }",
    ] {
        assert_eq!(float_cmp_blind_fns(code).len(), 1, "{code}");
    }
    for code in [
        "fn cmp(&self, other: &Self) -> Ordering {",
        "fn sequence(a: f64) {",
        "fn nearly(a: f64) {",
        "fn is_near(a: f64) {",
        "let eq = a == b;",
        "x.eq(&y)",
        "my_fn eq",
    ] {
        assert!(float_cmp_blind_fns(code).is_empty(), "{code}");
    }
}

#[test]
fn the_zero_float_matcher_sees_both_sides_and_every_spelling() {
    let hits = |code: &str| equality_operands(code).into_iter().any(is_exempt_float);
    for code in [
        "x == 0.0",
        "0.0 != x",
        "x == -0.0",
        "x != 0.",
        "0e0 == x",
        "x == 0f64",
        "x == 0.0_f32",
        "x == f64::INFINITY",
        "f64::NEG_INFINITY != x",
        "x == -f32::INFINITY",
        "x != std::f32::NEG_INFINITY",
        "core::f64::INFINITY == x",
    ] {
        assert!(hits(code), "{code}");
    }
    for code in [
        "x == 0",
        "x == 1.5",
        "p.0 == q",
        "pair().0 == x",
        "x <= 0.0",
        "x == y",
        "x == f64::MAX",
        "x == myf64::INFINITY",
        "x < f64::INFINITY",
    ] {
        assert!(!hits(code), "{code}");
    }
    let src =
        "fn f() { a == 0.0 }\n#[cfg(test)]\nmod tests {\n    fn g() { b == 0.0 }\n}\nfn h() {}\n";
    let lines: Vec<usize> = non_test_code(src).iter().map(|&(l, _)| l).collect();
    assert_eq!(lines, [1, 6]);
}

#[test]
fn builtin_model_suite_covers_at_least_three_topologies() {
    let suite = model::builtin_suite();
    assert!(suite.len() >= 3);
    // Distinct node counts 3..=5, and at least one cold-start and one
    // lossy scenario — the shapes the ISSUE calls for.
    assert!(suite.iter().any(|s| s.n == 3));
    assert!(suite.iter().any(|s| s.n == 4));
    assert!(suite.iter().any(|s| s.n == 5));
    assert!(suite.iter().any(|s| !s.start_converged));
    assert!(suite.iter().any(|s| s.lossy));
}

#[test]
fn transport_suite_covers_required_shapes() {
    // The ISSUE's acceptance bar for mdr-verify's transport checker:
    // several two-node scenarios, a three-node quarantine scenario,
    // and a six-node scenario kept tractable by the adjacency-component
    // reduction plus canonical-state symmetry.
    let suite = mdr_lint::transport::suite();
    assert!(suite.iter().filter(|s| s.n == 2).count() >= 3, "need >=3 two-node scenarios");
    assert!(suite.iter().any(|s| s.n == 3), "need a three-node quarantine scenario");
    assert!(suite.iter().any(|s| s.n == 6), "need a six-node POR showcase scenario");
    assert!(
        suite.iter().any(|s| !s.crashes.is_empty()),
        "need a crash-restart (incarnation bump) scenario"
    );
    assert!(
        suite.iter().any(|s| !s.dead_expiries.is_empty()),
        "need a same-incarnation session-reset scenario"
    );
    // Symmetry groups beyond the identity on both ends of the scale.
    assert!(suite.iter().any(|s| s.n == 2 && s.perms.len() == 2));
    assert!(suite.iter().any(|s| s.n == 6 && s.perms.len() == 12));
}
