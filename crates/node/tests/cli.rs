//! The `mdr-node` command line: an unusable trace path is an error
//! the sink returns and the binary reports, not a panic.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn run_reports_a_trace_path_in_a_missing_directory() {
    let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir").join("t.jsonl");
    let _ = std::fs::remove_dir_all(trace.parent().unwrap());
    let trace = trace.to_str().unwrap();
    let err = mdr_sim::telemetry::JsonlSink::create(trace, false).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);

    let out = Command::new(env!("CARGO_BIN_EXE_mdr-node"))
        .args(["run", "--topo", "ring5", "--node", "0", "--duration", "1", "--trace", trace])
        .output()
        .expect("spawn mdr-node");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with(&format!("mdr-node: run: trace {trace}: ")), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
