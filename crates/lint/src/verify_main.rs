//! `mdr-verify` CLI — the workspace's one model-checking entry point:
//! exhaustive model checking of the transport adjacency state machine
//! and of the MPDA LFI invariant, plus checker self-validation against
//! deliberately unsound mutants.
//!
//! ```text
//! cargo run --release -p mdr-lint --bin mdr-verify            # everything (CI gate)
//! cargo run --release -p mdr-lint --bin mdr-verify -- transport
//! cargo run --release -p mdr-lint --bin mdr-verify -- lfi
//! cargo run --release -p mdr-lint --bin mdr-verify -- --no-por all
//! ```
//!
//! The transport suite runs under the adjacency-component reduction
//! unless `--no-por` is given. The LFI suite always runs unreduced.
//! `--max-states N` replaces every scenario's state cap (the LFI
//! suite's default cap is 5 000 000).
//!
//! Output is line-oriented and stable so CI can `tee` it into the job
//! summary: one `check … states … exhausted|bounded … states/s holds`
//! line per scenario (a transport line also says how many distinct
//! channel encodings its exploration interned), one `mutant … minimal
//! counterexample … replay ok` line per self-validation case, and a
//! final `total` line (with the overall states/s, the checkers'
//! throughput figure).
//!
//! The run fails (exit 1) if any sound scenario is violated or capped,
//! if fewer than three transport scenarios exhaust their reachable
//! space, if any mutant fails to produce a counterexample of its
//! expected class, or if a counterexample does not survive the
//! serialize → parse → replay round trip against fresh real channels.
//! Exit 2 is a usage error.

#![expect(
    clippy::disallowed_types,
    reason = "times each check with `Instant`; the explored state counts do not depend on it"
)]

use mdr_lint::model;
use mdr_lint::por::{Cx, Outcome};
use mdr_lint::transport::{
    self, explore, explore_interned, mutant_cases, parse_replay, suite, to_replay, violation_class,
};
use mdr_node::ChannelMutant;
use mdr_routing::mpda::UpdateRule;
use std::process::ExitCode;
use std::time::{Duration, Instant};

enum Mode {
    Transport,
    Lfi,
    All,
}

struct Args {
    mode: Mode,
    use_por: bool,
    max_states: usize,
}

fn usage() -> String {
    "usage: mdr-verify [transport|lfi|all] [--no-por] [--max-states N]".to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { mode: Mode::All, use_por: true, max_states: 0 };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "transport" => args.mode = Mode::Transport,
            "lfi" => args.mode = Mode::Lfi,
            "all" => args.mode = Mode::All,
            "--no-por" => args.use_por = false,
            "--max-states" => {
                let v = it.next().ok_or_else(|| "--max-states needs a value".to_string())?;
                args.max_states =
                    v.parse().map_err(|e| format!("--max-states: bad value `{v}`: {e}"))?;
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

/// Distinct states explored per wall-clock second (0 if no time
/// elapsed).
fn rate(states: usize, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        states as f64 / secs
    } else {
        0.0
    }
}

struct Totals {
    states: usize,
    transitions: usize,
    exhausted: usize,
    failures: usize,
}

/// Print the `check` line of one sound scenario, fold it into `tot`,
/// and say under it what went wrong; `render` prints a counterexample.
/// `interned` is the transport checker's channel-table size.
fn report<A>(
    layer: &str,
    name: &str,
    o: &Outcome<A>,
    interned: Option<usize>,
    elapsed: Duration,
    tot: &mut Totals,
    render: impl Fn(&Cx<A>) -> String,
) {
    let st = o.stats();
    tot.states += st.states;
    tot.transitions += st.transitions;
    let coverage = if st.truncated {
        "bounded"
    } else {
        tot.exhausted += 1;
        "exhausted"
    };
    let verdict = match o {
        Outcome::Holds(_) => "holds",
        Outcome::Violated(..) => "VIOLATED",
        Outcome::Capped(_) => "CAPPED",
    };
    let interned = interned.map_or(String::new(), |n| format!(" interned {n:>4}"));
    println!(
        "check {layer:<9} {name:<28} {:>8} states {:>9} transitions depth {:>3} \
         {coverage:<9} ample {:>6}{interned} {:>8}ms {:>8.0} states/s {verdict}",
        st.states,
        st.transitions,
        st.deepest,
        st.ample_states,
        elapsed.as_millis(),
        rate(st.states, elapsed),
    );
    match o {
        Outcome::Holds(_) => {}
        Outcome::Violated(cx, _) => {
            tot.failures += 1;
            print!("{}", render(cx));
        }
        Outcome::Capped(_) => {
            tot.failures += 1;
            println!("  !! state cap hit before the reachable space was drained");
        }
    }
}

/// Run the sound transport suite: every scenario must hold, and at
/// least three must exhaust their reachable space (a proof, not a
/// bounded smoke test).
fn run_transport_suite(args: &Args, tot: &mut Totals) {
    for mut s in suite() {
        if args.max_states > 0 {
            s.max_states = args.max_states;
        }
        let t = Instant::now();
        let (o, interned) = explore_interned(&s, ChannelMutant::None, args.use_por);
        report("transport", s.name, &o, Some(interned), t.elapsed(), tot, |cx| {
            let mut out = format!("  !! {}\n", cx.violation);
            for a in &cx.trace {
                out.push_str(&format!("     {a}\n"));
            }
            out
        });
    }
}

/// Checker self-validation: each unsound mutant must yield a minimal
/// counterexample of the expected class, and the counterexample must
/// survive serialize → parse → replay through fresh real channels,
/// reproducing the same class.
fn run_mutants(args: &Args, tot: &mut Totals) {
    for c in mutant_cases() {
        let t = Instant::now();
        let o = explore(&c.scenario, c.mutant, args.use_por);
        let st = o.stats();
        tot.states += st.states;
        tot.transitions += st.transitions;
        let cx = match o {
            Outcome::Violated(cx, _) => cx,
            Outcome::Holds(_) => {
                tot.failures += 1;
                println!(
                    "mutant {:<22} MISSED: the checker blessed an unsound transition relation",
                    c.name
                );
                continue;
            }
            Outcome::Capped(_) => {
                tot.failures += 1;
                println!("mutant {:<22} CAPPED before any counterexample surfaced", c.name);
                continue;
            }
        };
        let class = violation_class(&cx.violation);
        if class != c.expected_class {
            tot.failures += 1;
            println!(
                "mutant {:<22} WRONG CLASS: expected {}, got {}",
                c.name, c.expected_class, class
            );
            continue;
        }
        let text = to_replay(c.scenario.name, c.mutant, &cx.trace);
        let replayed =
            parse_replay(&text).and_then(|r| transport::replay(&c.scenario, r.mutant, &r.actions));
        match replayed {
            Ok(v) if violation_class(&v) == class => {
                println!(
                    "mutant {:<22} minimal counterexample len {:>2} class {:<26} \
                     {:>7} states {:>6}ms replay ok",
                    c.name,
                    cx.trace.len(),
                    class,
                    st.states,
                    t.elapsed().as_millis()
                );
            }
            Ok(v) => {
                tot.failures += 1;
                println!(
                    "mutant {:<22} REPLAY DIVERGED: search found {}, replay found {}",
                    c.name,
                    class,
                    violation_class(&v)
                );
            }
            Err(e) => {
                tot.failures += 1;
                println!("mutant {:<22} REPLAY FAILED: {e}", c.name);
            }
        }
    }
}

/// Run the LFI trap suite ([`model`]), unreduced: every scenario
/// must hold.
fn run_lfi_suite(args: &Args, tot: &mut Totals) {
    let max = if args.max_states > 0 { args.max_states } else { 5_000_000 };
    for s in model::builtin_suite() {
        let t = Instant::now();
        let o = model::explore(&s, UpdateRule::Lfi, max);
        report("lfi", s.name, &o, None, t.elapsed(), tot, |cx| model::render_trace(&s, cx));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let t = Instant::now();
    let mut tot = Totals { states: 0, transitions: 0, exhausted: 0, failures: 0 };
    let mut transport_exhausted = 0usize;
    if matches!(args.mode, Mode::Transport | Mode::All) {
        let before = tot.exhausted;
        run_transport_suite(&args, &mut tot);
        run_mutants(&args, &mut tot);
        transport_exhausted = tot.exhausted - before;
        if transport_exhausted < 3 {
            tot.failures += 1;
            println!(
                "FAIL: only {transport_exhausted} transport scenario(s) exhausted their \
                 reachable space; at least 3 must (bounded runs are smoke tests, not proofs)"
            );
        }
    }
    if matches!(args.mode, Mode::Lfi | Mode::All) {
        run_lfi_suite(&args, &mut tot);
    }
    let elapsed = t.elapsed();
    println!(
        "total {} states {} transitions, {} scenario(s) exhausted ({} transport), \
         {} failure(s), {}ms, {:.0} states/s",
        tot.states,
        tot.transitions,
        tot.exhausted,
        transport_exhausted,
        tot.failures,
        elapsed.as_millis(),
        rate(tot.states, elapsed)
    );
    if tot.failures > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
