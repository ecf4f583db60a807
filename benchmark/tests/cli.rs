//! The command line end to end: `run --smoke`, `compare`, and the exit
//! code of a run whose check failed.

use mdr_perf::compare::RunFile;
use mdr_perf::spec::{END_TO_END, PER_LAYER};
use mdr_perf::workloads::NAMES;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

fn mdr_perf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mdr-perf"))
}

fn out(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn smoke_run(file: &str) -> RunFile {
    let path = out(file);
    let status = mdr_perf()
        .args(["run", "--smoke", "--trace", "--seed", "5", "--out"])
        .arg(&path)
        .status()
        .expect("spawn mdr-perf");
    assert!(status.success(), "run --smoke exits 0 when every check passes");
    serde_json::from_str(&std::fs::read_to_string(path).expect("result file")).expect("parses")
}

#[test]
fn smoke_run_reports_every_row_and_two_runs_agree_exactly() {
    let started = Instant::now();
    let a = smoke_run("a.json");
    assert!(started.elapsed().as_secs() < 15, "run --smoke is a smoke test");
    for w in NAMES {
        let has = |kind: &str, metric: &str| {
            a.rows.iter().any(|r| r.workload == w && r.kind == kind && r.metric == metric)
        };
        assert!(END_TO_END.iter().all(|m| has("end_to_end", m.0)), "{w}");
        assert!(PER_LAYER.iter().all(|m| has("per_layer", m.0)), "{w}");
        assert!(a.rows.iter().any(|r| r.workload == w && r.kind == "exact"), "{w}");
    }
    assert_eq!((a.host_nproc >= 1, a.threads), (true, 1));

    smoke_run("b.json");
    let cmp =
        mdr_perf().arg("compare").arg(out("a.json")).arg(out("b.json")).output().expect("spawn");
    let text = String::from_utf8_lossy(&cmp.stdout);
    assert!(text.contains(" equal"), "{text}");
    assert!(!text.contains(" differs"), "simulated results and counts repeat exactly:\n{text}");
}

#[test]
fn a_failed_check_sets_the_exit_code() {
    let run = |extra: &[&str]| {
        let args =
            ["--workload", "verify-transport", "--seed", "5", "--seconds", "0", "--trace", "0"];
        mdr_perf().args(args).arg("--smoke").args(extra).output().expect("spawn")
    };
    let ok = run(&[]);
    assert!(ok.status.success());
    let bad = run(&["--inject-failure"]);
    assert_eq!(bad.status.code(), Some(1));
    let last =
        String::from_utf8_lossy(&bad.stdout).lines().last().expect("result line").to_string();
    assert!(last.contains("\"correct\":false") && last.contains("\"failed\":1"), "{last}");
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    let o = mdr_perf().args(["--workload", "nope", "--trace", "0"]).output().expect("spawn");
    assert_eq!(o.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&o.stdout).lines().last().unwrap_or("").starts_with('{'));
}
