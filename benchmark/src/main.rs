//! `mdr-perf` — the repository's benchmark.
//!
//! ```text
//! mdr-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's command)
//! mdr-perf run [--seed N] [--reps R] [--seconds S] [--trace] [--smoke] [--out FILE]
//! mdr-perf compare <a.json> <b.json>
//! ```
//!
//! One run measures one workload for `--seconds` and prints, as the last
//! line of its standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. It exits
//! non-zero if a check on the program's outputs failed. `run` makes one
//! such run per workload and repetition, each in a fresh process, and
//! `compare` holds two of its result files against each other. See
//! `benchmark/README.md`.

#![forbid(unsafe_code)]

use mdr_perf::compare::{self, Row, RunFile};
use mdr_perf::runner::{self, ResultLine, RunOpts};
use mdr_perf::{spec, stats, workloads};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  mdr-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out-dir DIR]
  mdr-perf run [--seed N] [--reps R] [--seconds S] [--trace] [--smoke] [--out FILE]
  mdr-perf compare <a.json> <b.json>";

/// `--flag value` pairs and bare `--switch`es after the subcommand.
struct Args {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut parsed = Args { values: BTreeMap::new(), switches: Vec::new() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if switches.contains(&a.as_str()) {
                parsed.switches.push(a.clone());
            } else if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                parsed.values.insert(a.clone(), v.clone());
            } else {
                return Err(format!("unexpected argument `{a}`\n{USAGE}"));
            }
        }
        Ok(parsed)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.values.get(flag) {
            Some(v) => v.parse().map_err(|_| format!("{flag}: bad value `{v}`")),
            None => Ok(default),
        }
    }
}

/// Standard output of `program args`, trimmed; `unknown` if it cannot
/// be run (the driver's checkout is not a git repository).
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One run of one workload; prints the result line last.
fn one(args: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(args, &["--smoke", "--inject-failure"])?;
    let opts = RunOpts {
        workload: a.get("--workload", String::new())?,
        seed: a.get("--seed", 7)?,
        seconds: a.get("--seconds", spec::RUN_SECONDS as f64)?,
        trace: a.get("--trace", 0u8)? != 0,
        smoke: a.has("--smoke"),
        out_dir: PathBuf::from(a.get("--out-dir", "benchmark/out".to_string())?),
        inject_failure: a.has("--inject-failure"),
    };
    println!(
        "mdr-perf {} seed {} seconds {} trace {} | commit {} | {} | host.nproc {} threads 1",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        tool_output("git", &["rev-parse", "HEAD"]),
        tool_output("rustc", &["-V"]),
        stats::nproc(),
    );
    let report = runner::run(&opts)?;
    let walls: Vec<String> = report.walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("untraced pass wall_s: {}", walls.join(" "));
    for (name, m) in &report.metrics {
        println!("{name:<34} {:>18.6} {}", m.value, m.unit);
    }
    for failure in &report.checks.failures {
        println!("FAILED CHECK: {failure}");
    }
    // Simulated results and work counts, for `mdr-perf run`.
    println!("exact {}", serde_json::to_string(&report.exact).map_err(|e| e.to_string())?);
    let line = report.result_line();
    println!("{}", serde_json::to_string(&line).map_err(|e| e.to_string())?);
    Ok(if line.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Run this program again as `mdr-perf <args>` and parse what it
/// printed: the `exact` line and the result line.
fn child(args: &[String]) -> Result<(BTreeMap<String, f64>, ResultLine), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe).args(args).output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parsed = lines.next().zip(lines.next()).and_then(|(result, exact)| {
        let exact = serde_json::from_str(exact.strip_prefix("exact ")?).ok()?;
        Some((exact, serde_json::from_str::<ResultLine>(result).ok()?))
    });
    parsed.ok_or_else(|| {
        format!("`mdr-perf {}` printed no result ({}):\n{stdout}", args.join(" "), out.status)
    })
}

/// Every workload, `--reps` times round-robin, each run in a fresh
/// process (so peak RSS is that run's alone, and a slow minute on the
/// host hits one repetition of every workload, not all of one).
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(args, &["--smoke", "--trace"])?;
    let smoke = a.has("--smoke");
    let seed: u64 = a.get("--seed", 7)?;
    let reps: u64 = a.get("--reps", 1)?;
    let seconds: f64 = a.get("--seconds", if smoke { 0.0 } else { spec::RUN_SECONDS as f64 })?;
    let out = PathBuf::from(a.get("--out", format!("benchmark/out/run-seed{seed}.json"))?);

    let mut rows: Vec<Row> = Vec::new();
    let mut add = |workload: &str, kind: &str, metric: &str, unit: &str, value: f64| {
        let found = rows.iter_mut().find(|r| {
            (r.workload.as_str(), r.kind.as_str(), r.metric.as_str()) == (workload, kind, metric)
        });
        match found {
            Some(row) => row.values.push(value),
            None => rows.push(Row {
                workload: workload.to_string(),
                kind: kind.to_string(),
                metric: metric.to_string(),
                unit: unit.to_string(),
                values: vec![value],
            }),
        }
    };
    let mut failed = 0;
    for rep in 0..reps {
        for workload in workloads::NAMES {
            for trace in [false, true] {
                if trace && !a.has("--trace") {
                    continue;
                }
                let mut args: Vec<String> = vec![
                    "--workload".into(),
                    workload.into(),
                    "--seed".into(),
                    (seed + rep).to_string(),
                    "--seconds".into(),
                    seconds.to_string(),
                    "--trace".into(),
                    u8::from(trace).to_string(),
                ];
                if smoke {
                    args.push("--smoke".into());
                }
                let (exact, result) = child(&args)?;
                failed += result.failed;
                eprintln!(
                    "rep {}/{reps} {workload} trace {}: {} checks, {} failed",
                    rep + 1,
                    u8::from(trace),
                    result.attempted,
                    result.failed
                );
                let kind = if trace { "per_layer" } else { "end_to_end" };
                for (name, m) in &result.metrics {
                    add(workload, kind, name, &m.unit, m.value);
                }
                if !trace {
                    for (name, value) in &exact {
                        add(workload, "exact", name, "", *value);
                    }
                }
            }
        }
    }

    println!(
        "{:<17} {:<11} {:<32} {:>16} {:<6} {:>7}",
        "workload", "kind", "metric", "median", "unit", "spread"
    );
    for r in &rows {
        println!(
            "{:<17} {:<11} {:<32} {:>16.6} {:<6} {:>6.1}%",
            r.workload,
            r.kind,
            r.metric,
            stats::median(&r.values),
            r.unit,
            stats::iqr_share(&r.values) * 100.0
        );
    }
    let file = RunFile {
        commit: tool_output("git", &["rev-parse", "HEAD"]),
        rustc: tool_output("rustc", &["-V"]),
        host_nproc: stats::nproc() as u64,
        threads: 1,
        seed,
        reps,
        seconds,
        rows,
    };
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("failed checks: {failed}; results written to {}", out.display());
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else { return Err(USAGE.to_string()) };
    let load = |path: &String| -> Result<RunFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let regressions = compare::compare(&load(a)?, &load(b)?);
    println!("regressions: {regressions}");
    Ok(if regressions == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some(flag) if flag.starts_with("--") => one(&args),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("mdr-perf: {e}");
        ExitCode::from(2)
    })
}
