//! One run of one workload: set-up, passes for the requested time,
//! checks, metrics. This is what the driver's command executes.

use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{cpu_seconds, median, median_low, nproc, peak_rss_mb};
use crate::tracer::Tracer;
use crate::workloads::{prepare, Checks, LayerCtx, Outcome, Workload};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to keep starting passes for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the gated untraced one.
    pub trace: bool,
    /// Shrunken sizes, for the self-tests.
    pub smoke: bool,
    /// Where a traced run writes its span file.
    pub out_dir: PathBuf,
    /// Add one deliberately failing check (self-test of the failure path).
    pub inject_failure: bool,
}

/// One metric value with its unit, as the result line carries it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The last line of a run's standard output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultLine {
    /// Every check passed.
    pub correct: bool,
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Every end-to-end metric (untraced run) or every per-layer metric
    /// (traced run).
    pub metrics: BTreeMap<String, Metric>,
}

/// Everything one run found.
pub struct Report {
    /// All checks of all passes.
    pub checks: Checks,
    /// The result line's metrics.
    pub metrics: BTreeMap<String, Metric>,
    /// Simulated results and work counts of the (identical) passes.
    pub exact: BTreeMap<String, f64>,
    /// Wall time of every untraced pass, seconds.
    pub walls: Vec<f64>,
}

impl Report {
    /// The result line.
    pub fn result_line(&self) -> ResultLine {
        ResultLine {
            correct: self.checks.failures.is_empty(),
            attempted: self.checks.attempted,
            failed: self.checks.failures.len() as u64,
            metrics: self.metrics.clone(),
        }
    }
}

/// Set-up is repeated at least this often, and for at least
/// [`SETUP_MIN_S`], and its median reported: inputs are small, so one
/// reading would be mostly timer noise.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.25;
const SETUP_MAX_REPS: usize = 400;

/// State of the passes made so far.
struct Passes {
    checks: Checks,
    first_exact: Option<Vec<(&'static str, f64)>>,
    last: Outcome,
}

impl Passes {
    /// Time one pass, then fold in its checks (deferred ones included)
    /// and hold its exact outputs against the first pass's.
    fn timed(&mut self, w: &dyn Workload, tr: &mut Tracer) -> f64 {
        let root = tr.begin("workload.pass");
        let t = Instant::now();
        let mut outcome = w.pass(tr);
        let wall = t.elapsed().as_secs_f64();
        tr.end(root);
        self.checks.absorb(std::mem::take(&mut outcome.checks));
        if let Some(deferred) = outcome.deferred.take() {
            self.checks.absorb(deferred());
        }
        match &self.first_exact {
            None => self.first_exact = Some(outcome.exact.clone()),
            Some(first) => {
                let same = first.len() == outcome.exact.len()
                    && first
                        .iter()
                        .zip(&outcome.exact)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
                self.checks.check(same, || {
                    format!("a pass did not repeat exactly: {first:?} then {:?}", outcome.exact)
                });
            }
        }
        self.last = outcome;
        wall
    }
}

/// Run `opts.workload` once: repeated set-up, then passes until
/// `opts.seconds` have gone by (two at least, so that exact repetition
/// is always checked). `wall_s` is the low median of the pass times.
pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let mut setups = Vec::new();
    let setup_started = Instant::now();
    let workload = loop {
        let t = Instant::now();
        let w = prepare(&opts.workload, opts.seed, opts.smoke)
            .ok_or_else(|| format!("unknown workload `{}`", opts.workload))?;
        setups.push(t.elapsed().as_secs_f64());
        let enough = setups.len() >= SETUP_MIN_REPS
            && setup_started.elapsed().as_secs_f64() >= SETUP_MIN_S.min(opts.seconds);
        if enough || setups.len() >= SETUP_MAX_REPS {
            break w;
        }
    };

    let mut off = Tracer::off();
    let mut on = Tracer::on();
    let mut passes =
        Passes { checks: Checks::default(), first_exact: None, last: Outcome::default() };
    let (mut walls, mut traced_walls, mut cpu_s) = (Vec::new(), Vec::new(), 0.0);
    // A traced run spends half its time on passes and leaves the rest
    // for the layer probes, so that both kinds of run take about as long.
    let budget_s = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let started = Instant::now();
    loop {
        let cpu0 = cpu_seconds();
        walls.push(passes.timed(workload.as_ref(), &mut off));
        cpu_s += cpu_seconds() - cpu0;
        if opts.trace {
            // Only the last traced pass's spans are kept and written.
            on.clear();
            traced_walls.push(passes.timed(workload.as_ref(), &mut on));
        }
        // Stop when the time is up, to the nearest whole round: the
        // passes then end within half a round of the budget.
        let (elapsed, done) = (started.elapsed().as_secs_f64(), walls.len() + traced_walls.len());
        if done >= 2 && elapsed + elapsed / walls.len() as f64 / 2.0 >= budget_s {
            break;
        }
    }
    if opts.inject_failure {
        passes.checks.check(false, || "injected failure (--inject-failure)".to_string());
    }

    let wall_s = median_low(&walls);
    let mut measured: BTreeMap<&'static str, f64> = BTreeMap::new();
    let tables: Vec<(&str, &str)> = if opts.trace {
        let spread = (walls.iter().cloned().fold(0.0, f64::max)
            - walls.iter().cloned().fold(f64::INFINITY, f64::min))
            / wall_s;
        measured.extend([
            ("result.sim_s_per_host_s", passes.last.sim_seconds / wall_s),
            ("host.cpu_s", cpu_s / walls.len() as f64),
            ("host.wall_spread", spread),
            ("host.nproc", nproc() as f64),
            ("host.threads", 1.0),
            ("host.passes", walls.len() as f64),
            ("bench.trace_overhead_ratio", median_low(&traced_walls) / wall_s),
        ]);
        let ctx = LayerCtx { outcome: &passes.last, wall_s, seed: opts.seed };
        let root = on.begin("workload.probes");
        measured.extend(workload.layers(&ctx, &mut on));
        on.end(root);
        write_trace(opts, &on)?;
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        measured.extend([
            ("wall_s", wall_s),
            ("peak_rss_mb", peak_rss_mb()),
            ("setup_s", median(&setups)),
        ]);
        END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
    };
    if let Some(stray) = measured.keys().find(|k| spec::unit_of(k).is_none()) {
        return Err(format!("metric `{stray}` is not in the benchmark's tables"));
    }
    let metrics = tables
        .into_iter()
        .map(|(name, unit)| {
            let value = measured.get(name).copied().unwrap_or(0.0);
            (name.to_string(), Metric { value, unit: unit.to_string() })
        })
        .collect();
    let exact = passes.first_exact.unwrap_or_default().into_iter().map(|(k, v)| (k.to_string(), v));
    Ok(Report { checks: passes.checks, metrics, exact: exact.collect(), walls })
}

/// Write the traced run's spans to `<out_dir>/trace-<workload>.json`.
fn write_trace(opts: &RunOpts, tr: &Tracer) -> Result<(), String> {
    let path = opts.out_dir.join(format!("trace-{}.json", opts.workload));
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(&opts.out_dir).map_err(io)?;
    let text = serde_json::to_string(&tr.to_file(&opts.workload, opts.seed))
        .map_err(|e| format!("span file: {e}"))?;
    std::fs::write(&path, text).map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn smoke(workload: &str, seed: u64, trace: bool) -> RunOpts {
        RunOpts {
            workload: workload.to_string(),
            seed,
            seconds: 0.0,
            trace,
            smoke: true,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out/self-test")),
            inject_failure: false,
        }
    }

    #[test]
    fn untraced_runs_emit_every_end_to_end_metric() {
        for w in NAMES {
            let r = run(&smoke(w, 3, false)).expect("run");
            assert!(r.checks.failures.is_empty(), "{w}: {:?}", r.checks.failures);
            assert!(r.checks.attempted >= 1);
            let names: Vec<&str> = r.metrics.keys().map(String::as_str).collect();
            let mut want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
            want.sort_unstable();
            assert_eq!(names, want, "{w}");
            for (name, m) in &r.metrics {
                assert_eq!(Some(m.unit.as_str()), spec::unit_of(name));
                assert!(m.value > 0.0, "{w}: {name} must never read 0");
            }
        }
    }

    #[test]
    fn traced_runs_emit_every_per_layer_metric_and_a_span_file() {
        for w in NAMES {
            let opts = smoke(w, 3, true);
            let r = run(&opts).expect("run");
            assert!(r.checks.failures.is_empty(), "{w}: {:?}", r.checks.failures);
            let names: Vec<&str> = r.metrics.keys().map(String::as_str).collect();
            let mut want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
            want.sort_unstable();
            assert_eq!(names, want, "{w}");
            assert!(r.metrics["bench.trace_overhead_ratio"].value > 0.0);
            assert!(r.metrics.values().all(|m| m.value.is_finite() && m.value >= 0.0), "{w}");
            let file = opts.out_dir.join(format!("trace-{w}.json"));
            let text = std::fs::read_to_string(file).expect("span file");
            assert!(text.contains("\"workload.pass\"") && text.contains("\"workload.probes\""));
        }
        // The prediction a routing-layer change is held to: its probes
        // run where routing carries the work, and nowhere else.
        let routing =
            |w: &str| run(&smoke(w, 3, true)).expect("run").metrics["routing.mpda.lsu_count"].value;
        assert!(routing("fluid-boot") > 0.0);
        assert_eq!(routing("fluid-isp1k"), 0.0);
        assert_eq!(routing("packet-figs"), 0.0);
    }

    #[test]
    fn same_seed_repeats_exactly_and_another_seed_does_not() {
        for w in NAMES {
            let (a, b) =
                (run(&smoke(w, 3, false)).expect("run"), run(&smoke(w, 3, false)).expect("run"));
            assert_eq!(a.exact, b.exact, "{w}: same seed, same simulated results and counts");
            assert!(!a.exact.is_empty());
        }
        for w in ["packet-figs", "node-fleet"] {
            let (a, b) =
                (run(&smoke(w, 3, false)).expect("run"), run(&smoke(w, 4, false)).expect("run"));
            assert_ne!(
                a.exact["ctrl_bytes"], b.exact["ctrl_bytes"],
                "{w}: the seed reaches the program"
            );
        }
    }

    #[test]
    fn a_failed_check_fails_the_run() {
        let ok = run(&smoke("verify-transport", 3, false)).expect("run").result_line();
        assert!(ok.correct && ok.failed == 0);
        let opts = RunOpts { inject_failure: true, ..smoke("verify-transport", 3, false) };
        let bad = run(&opts).expect("run").result_line();
        assert!(!bad.correct);
        assert_eq!(bad.failed, 1);
        assert_eq!(bad.attempted, ok.attempted + 1);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(run(&smoke("no-such-workload", 3, false)).is_err());
    }
}
