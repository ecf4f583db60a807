//! `mdr-bench` — the one experiment binary, a dispatcher over the
//! [`mdr_bench::figures::all`] registry.
//!
//! * `mdr-bench <id> [smoke]` runs one experiment.
//! * `mdr-bench all [filter…]` runs every experiment in-process and
//!   prints each one's wall-clock seconds. Filters are name substrings.
//!
//! Either way the only files written are the experiments' own, under
//! `results/`. An id or filter matching nothing, or a trailing argument
//! other than `smoke`, prints the registry and exits 2.

#![expect(
    clippy::disallowed_types,
    reason = "prints each experiment's wall-clock seconds with `Instant`; no result depends on it"
)]

use std::time::Instant;

/// Print the usage and the registry and exit 2.
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
    let (id, smoke) = match args.as_slice() {
        [all, filters @ ..] if all == "all" => return run_all(filters),
        [id] => (id, false),
        [id, s] if s == "smoke" => (id, true),
        _ => unknown(&args),
    };
    match mdr_bench::figures::all().iter().find(|e| e.name == *id) {
        Some(exp) => (exp.run)(smoke),
        None => unknown(&args),
    }
}

fn run_all(filters: &[String]) {
    let mut ran = 0;
    let t0 = Instant::now();
    for exp in mdr_bench::figures::all() {
        if !filters.is_empty() && !filters.iter().any(|f| exp.name.contains(f.as_str())) {
            continue;
        }
        println!("\n########## {} ##########", exp.name);
        let start = Instant::now();
        (exp.run)(false);
        println!("[{}] wall {:.2} s", exp.name, start.elapsed().as_secs_f64());
        ran += 1;
    }
    if ran == 0 && !filters.is_empty() {
        unknown(filters);
    }
    println!(
        "{} experiment(s) completed in {:.1} s on {} thread(s); see results/*.json",
        ran,
        t0.elapsed().as_secs_f64(),
        mdr::sim::par::num_threads(),
    );
}
