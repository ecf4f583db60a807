//! End-to-end: the real workspace passes its own lint with the real
//! `lint.toml` — i.e. the tree is clean and the allowlist holds only
//! the one sanctioned entry (the `mdr-node` I/O shell's wall clock).
//!
//! This is the same check CI's `mdr-lint` job runs via the binary; the
//! test keeps `cargo test` sufficient to notice a regression locally.

use mdr_lint::config::{self, LintConfig};
use mdr_lint::model;
use mdr_lint::rules;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn real_config() -> LintConfig {
    let path = workspace_root().join("lint.toml");
    let src = std::fs::read_to_string(&path).expect("lint.toml must exist at the workspace root");
    config::parse(&src).expect("lint.toml must parse")
}

#[test]
fn workspace_scan_is_clean_with_shell_only_allowlist() {
    let cfg = real_config();
    // The allowlist is empty by policy, with one sanctioned exception
    // (see DESIGN.md): the live node's I/O shell reads wall-clock time
    // to drive its otherwise mock-clocked deterministic core. Any entry
    // beyond that — another rule, another path — needs a DESIGN.md
    // discussion and a new carve-out here.
    for allow in &cfg.allows {
        assert_eq!(
            (allow.rule.as_str(), allow.path.as_str()),
            ("MDR002", "crates/node/src/shell"),
            "unsanctioned allowlist entry; new entries need a DESIGN.md discussion"
        );
    }
    assert_eq!(cfg.allows.len(), 1, "exactly one sanctioned allowlist entry expected");
    // The chaos layer (NetProfile/NetEmu) and the adaptive RTT
    // estimator are load-bearing for reproducible fault campaigns:
    // they must stay inside the deterministic scope so MDR002 keeps
    // them clock-free (the estimator only ever sees `now` as an
    // explicit argument, never reads it).
    for must_cover in ["crates/sim", "crates/node"] {
        assert!(
            cfg.deterministic_crates.iter().any(|c| c == must_cover),
            "{must_cover} (chaos / RTT estimator home) fell out of deterministic scope"
        );
    }
    // The no-panic scope covers every non-shell module of the live
    // node: a corrupt datagram, a stale incarnation, or a dead peer
    // must degrade the one adjacency, never panic the router process.
    // (The I/O shell is the sanctioned boundary where process-fatal
    // setup errors — bind failures, bad config — may still abort.)
    // So does the control-plane agent that node hosts, with both
    // simulator hosts: the shared piece must not be the unguarded one.
    // Likewise the DAG solver in `mdr-opt` every fluid settle runs.
    for must_cover in [
        "crates/sim/src/agent.rs",
        "crates/sim/src/engine.rs",
        "crates/sim/src/fluid.rs",
        "crates/opt/src/dag.rs",
        "crates/node/src/core.rs",
        "crates/node/src/reliable.rs",
        "crates/node/src/hlc.rs",
        "crates/node/src/record.rs",
        "crates/node/src/trace.rs",
    ] {
        assert!(
            cfg.no_panic_paths.iter().any(|p| p == must_cover),
            "{must_cover} fell out of the no-panic scope"
        );
    }
    let outcome = rules::scan_workspace(workspace_root(), &cfg).expect("scan must run");
    assert!(outcome.files_scanned >= 60, "walked {} files only", outcome.files_scanned);
    let rendered: Vec<String> = outcome.diags.iter().map(|d| d.to_string()).collect();
    assert!(rendered.is_empty(), "workspace has lint findings:\n{}", rendered.join("\n"));
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
