//! `mdr-lint` CLI: the workspace determinism scan.
//!
//! ```text
//! cargo run --release -p mdr-lint                           # the CI gate
//! cargo run -p mdr-lint -- --root DIR --config FILE         # another tree or config
//! ```
//!
//! The config is `--config FILE`, or else `DIR/lint.toml`; a missing
//! config is an error.
//!
//! Model checking lives in the `mdr-verify` binary.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage/config/IO error.

#![forbid(unsafe_code)]

use mdr_lint::config::{self, LintConfig};
use mdr_lint::rules;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
}

fn usage() -> String {
    "usage: mdr-lint [--root DIR] [--config FILE]".to_string()
}

fn parse_args() -> Result<Args, String> {
    // Default root: the workspace containing this crate, so both
    // `cargo run -p mdr-lint` and a CI checkout invocation work
    // without flags.
    let mut args = Args { root: Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."), config: None };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root =
                    PathBuf::from(it.next().ok_or_else(|| "--root needs a value".to_string())?);
            }
            "--config" => {
                args.config = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--config needs a value".to_string())?,
                ));
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn load_config(args: &Args) -> Result<LintConfig, String> {
    config::load(&args.config.clone().unwrap_or_else(|| args.root.join("lint.toml")))
}

/// Run the determinism scan; returns the number of findings.
fn run_scan(root: &Path, cfg: &LintConfig) -> Result<usize, String> {
    let outcome = rules::scan_workspace(root, cfg)
        .map_err(|e| format!("scan of {} failed: {e}", root.display()))?;
    for d in &outcome.diags {
        let source = std::fs::read_to_string(root.join(&d.path)).unwrap_or_default();
        print!("{}", d.render(&source));
        println!();
    }
    println!(
        "mdr-lint scan: {} file(s), {} finding(s)",
        outcome.files_scanned,
        outcome.diags.len()
    );
    Ok(outcome.diags.len())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let cfg = match load_config(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mdr-lint: {e}");
            return ExitCode::from(2);
        }
    };
    match run_scan(&args.root, &cfg) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mdr-lint: {e}");
            ExitCode::from(2)
        }
    }
}
