//! `mdr-bench` — the one experiment binary, a dispatcher over the
//! [`mdr_bench::figures::all`] registry.
//!
//! * `mdr-bench <id> [smoke]` runs one experiment; results land under
//!   `results/`, no bench file is written.
//! * `mdr-bench all [filter…]` runs every experiment in-process, timing
//!   each one, and writes `BENCH_sim.json` beside `results/` with, per
//!   experiment: wall-clock seconds, discrete events simulated, and
//!   events/second. Filters are name substrings; a filtered run merges
//!   its rows into an existing `BENCH_sim.json` (replacing rows by name,
//!   recomputing the totals as row sums) instead of clobbering it.
//!
//! An id or filter matching nothing prints the registry and exits 2.

use serde::{Deserialize, Serialize};
use std::time::Instant;

#[derive(Serialize, Deserialize)]
struct BenchRow {
    name: String,
    wall_s: f64,
    sim_events: u64,
    events_per_s: f64,
}

#[derive(Serialize, Deserialize)]
struct BenchReport {
    /// Worker threads the batch APIs used (`RAYON_NUM_THREADS` or the
    /// machine's available parallelism).
    threads: usize,
    total_wall_s: f64,
    total_sim_events: u64,
    events_per_s: f64,
    experiments: Vec<BenchRow>,
}

/// Replace same-named rows of `old` with `new` ones (in place, keeping
/// the registry order) and append rows `old` never had.
fn merge_rows(mut old: Vec<BenchRow>, new: Vec<BenchRow>) -> Vec<BenchRow> {
    for row in new {
        match old.iter_mut().find(|r| r.name == row.name) {
            Some(slot) => *slot = row,
            None => old.push(row),
        }
    }
    old
}

/// Print the registry and exit 2 (nothing matched).
fn unknown(what: &[String]) -> ! {
    eprintln!("error: no experiment matches {what:?}");
    eprintln!("usage: mdr-bench <id> [smoke] | mdr-bench all [filter...]");
    eprintln!(
        "available: {}",
        mdr_bench::figures::all().iter().map(|e| e.name).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((id, filters)) if id == "all" => run_all(filters),
        Some((id, rest)) => match mdr_bench::figures::all().iter().find(|e| e.name == id) {
            Some(exp) => (exp.run)(rest.iter().any(|a| a == "smoke")),
            None => unknown(&args),
        },
        None => unknown(&args),
    }
}

fn run_all(filters: &[String]) {
    let threads = mdr::sim::par::num_threads();
    let mut rows = Vec::new();
    let t0 = Instant::now();
    for exp in mdr_bench::figures::all() {
        if !filters.is_empty() && !filters.iter().any(|f| exp.name.contains(f.as_str())) {
            continue;
        }
        println!("\n########## {} ##########", exp.name);
        let ev0 = mdr_bench::sim_events();
        let start = Instant::now();
        (exp.run)(false);
        let wall_s = start.elapsed().as_secs_f64();
        let sim_events = mdr_bench::sim_events() - ev0;
        let events_per_s = sim_events as f64 / wall_s.max(1e-9);
        println!(
            "[{}] wall {:.2} s, {} simulator events ({:.3} M events/s)",
            exp.name,
            wall_s,
            sim_events,
            events_per_s / 1e6
        );
        rows.push(BenchRow { name: exp.name.to_string(), wall_s, sim_events, events_per_s });
    }
    if rows.is_empty() && !filters.is_empty() {
        unknown(filters);
    }
    let ran = rows.len();
    let path = mdr_bench::results_dir().join("../BENCH_sim.json");
    // A filtered run updates only its own rows in the standing report;
    // the totals are then recomputed as sums over the merged rows so
    // they stay consistent without re-running everything.
    if !filters.is_empty() {
        if let Some(prev) = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| serde_json::from_str::<BenchReport>(&s).ok())
        {
            rows = merge_rows(prev.experiments, rows);
        }
    }
    let total_wall_s = if filters.is_empty() {
        t0.elapsed().as_secs_f64()
    } else {
        rows.iter().map(|r| r.wall_s).sum()
    };
    let total_sim_events = rows.iter().map(|r| r.sim_events).sum::<u64>();
    let report = BenchReport {
        threads,
        total_wall_s,
        total_sim_events,
        events_per_s: total_sim_events as f64 / total_wall_s.max(1e-9),
        experiments: rows,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("\nbenchmark summary written to {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize benchmark summary: {e}"),
    }
    println!(
        "{} experiment(s) completed in {:.1} s on {} thread(s); see results/*.json",
        ran,
        t0.elapsed().as_secs_f64(),
        threads,
    );
}
