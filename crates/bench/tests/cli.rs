//! The `mdr-bench` command line end to end: what a run leaves on disk,
//! and the exit code + registry listing of every malformed invocation.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// `mdr-bench` in `cwd` with `CARGO_MANIFEST_DIR` removed, so
/// `results_dir()` falls back to `./results`.
fn mdr_bench(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mdr-bench"))
        .args(args)
        .current_dir(cwd)
        .env_remove("CARGO_MANIFEST_DIR")
        .output()
        .expect("spawn mdr-bench")
}

/// A fresh empty directory under the test's target tmpdir.
fn empty_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn names_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn a_filtered_all_run_writes_only_its_results() {
    let cwd = empty_dir("cli-all");
    let out = mdr_bench(&cwd, &["all", "fig8", "convergence"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[fig8] wall ") && stdout.contains("[convergence] wall "), "{stdout}");
    // fig8 only prints; convergence writes its figure. Nothing beside
    // `results/` — in particular no bench summary file.
    assert_eq!(names_in(&cwd), ["results"]);
    assert_eq!(names_in(&cwd.join("results")), ["convergence.json"]);
}

#[test]
fn malformed_invocations_exit_2_and_list_the_registry() {
    let cwd = empty_dir("cli-usage");
    for args in
        [&["nosuch"][..], &["all", "nosuch"], &["fig8", "smok"], &["fig8", "smoke", "x"], &[]]
    {
        let out = mdr_bench(&cwd, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: mdr-bench"), "{args:?}: {stderr}");
        for exp in mdr_bench::figures::all() {
            assert!(stderr.contains(exp.name), "{args:?}: registry lists {}", exp.name);
        }
        assert!(names_in(&cwd).is_empty(), "{args:?} wrote nothing");
    }
}
