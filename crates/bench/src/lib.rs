//! Shared harness for the figure-reproduction experiments.
//!
//! Every entry of the [`figures::all`] registry regenerates one figure
//! (or prose claim) of the paper; this library holds the common setup,
//! the table printer, and JSON persistence so `EXPERIMENTS.md` can be
//! assembled from machine-readable results under `results/`.

use mdr::prelude::*;
use serde::Serialize;
use std::fs;
use std::path::PathBuf;

pub mod figures;

/// `scheme`'s run over `topo` carrying `flows` — figure inputs are
/// static, so an error is a bug.
fn job(scheme: Scheme, topo: &Topology, flows: &[Flow], base: SimConfig) -> SimJob {
    let traffic = TrafficMatrix::from_flows(topo, flows).expect("figure traffic");
    scheme.job(topo, &traffic, base).expect("scheme job")
}

/// Standard simulated durations for figure runs: warm-up long enough to
/// cover boot convergence and initial balancing, measurement window long
/// enough for tight per-flow means at the evaluation rates.
pub fn figure_run_config() -> SimConfig {
    SimConfig { warmup: 30.0, duration: 60.0, seed: 7, ..Default::default() }
}

/// The CAIRN evaluation setup: topology plus the 11 paper flows at
/// `rate` bits/s each.
pub fn cairn_setup(rate: f64) -> (Topology, Vec<Flow>, Vec<String>) {
    let t = topo::cairn();
    let flows = topo::cairn_flows(&t, rate);
    let labels = flows.iter().map(|f| format!("{}->{}", t.name(f.src), t.name(f.dst))).collect();
    (t, flows, labels)
}

/// The NET1 evaluation setup: topology plus the 10 paper flows at
/// `rate` bits/s each.
pub fn net1_setup(rate: f64) -> (Topology, Vec<Flow>, Vec<String>) {
    let t = topo::net1();
    let flows = topo::net1_flows(rate);
    let labels = flows.iter().map(|f| format!("{}->{}", f.src, f.dst)).collect();
    (t, flows, labels)
}

/// One figure's data: per-flow series per scheme.
#[derive(Debug, Serialize)]
pub struct Figure {
    /// Figure id, e.g. `fig9`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Per-flow row labels.
    pub flow_labels: Vec<String>,
    /// `(scheme label, per-flow values in ms)`.
    pub series: Vec<(String, Vec<f64>)>,
    /// Free-form notes recorded with the results.
    pub notes: Vec<String>,
}

impl Figure {
    /// New empty figure.
    pub fn new(id: &str, title: &str, flow_labels: Vec<String>) -> Self {
        Figure {
            id: id.to_string(),
            title: title.to_string(),
            flow_labels,
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add one scheme's per-flow delays (ms).
    pub fn add_series(&mut self, label: &str, values: Vec<f64>) {
        self.series.push((label.to_string(), values));
    }

    /// Add a note line.
    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let w = self.flow_labels.iter().map(|l| l.len()).max().unwrap_or(4).max(7);
        out.push_str(&format!("{:<w$}", "flow", w = w + 2));
        for (label, _) in &self.series {
            out.push_str(&format!("{:>16}", label));
        }
        out.push('\n');
        for (i, fl) in self.flow_labels.iter().enumerate() {
            out.push_str(&format!("{:<w$}", fl, w = w + 2));
            for (_, vals) in &self.series {
                match vals.get(i) {
                    Some(v) => out.push_str(&format!("{:>16.3}", v)),
                    None => out.push_str(&format!("{:>16}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<w$}", "mean", w = w + 2));
        for (_, vals) in &self.series {
            let m = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
            out.push_str(&format!("{:>16.3}", m));
        }
        out.push('\n');
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Write JSON under `results/<id>.json` (repo-relative) and print
    /// the table to stdout.
    pub fn finish(&self) {
        println!("{}", self.render());
        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("{}.json", self.id));
        match serde_json::to_string_pretty(self) {
            Ok(s) => {
                if let Err(e) = fs::write(&path, s) {
                    eprintln!("warning: could not write {}: {e}", path.display());
                } else {
                    println!("results written to {}", path.display());
                }
            }
            Err(e) => eprintln!("warning: could not serialize figure: {e}"),
        }
    }
}

/// `results/` directory beside the workspace root (falls back to cwd).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => PathBuf::from(m).join("../../results"),
        Err(_) => PathBuf::from("results"),
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Per-flow ratio statistics `a[i] / b[i]` — (min, mean, max).
pub fn ratio_stats(a: &[f64], b: &[f64]) -> (f64, f64, f64) {
    let ratios: Vec<f64> =
        a.iter().zip(b).filter(|&(_, &bb)| bb > 0.0).map(|(&aa, &bb)| aa / bb).collect();
    if ratios.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().cloned().fold(0.0, f64::max);
    (min, mean(&ratios), max)
}

/// Run a set of schemes over one setup and assemble the per-flow delay
/// figure. If `envelope_pct` is given, an `OPT+x%` series is inserted
/// right after OPT, mirroring the paper's envelope plots (Figs. 9–10).
#[allow(clippy::too_many_arguments)]
pub fn comparison_figure(
    id: &str,
    title: &str,
    topo: &Topology,
    flows: &[Flow],
    flow_labels: Vec<String>,
    schemes: &[Scheme],
    envelope_pct: Option<f64>,
    cfg: SimConfig,
) -> Figure {
    let mut fig = Figure::new(id, title, flow_labels);
    let jobs = schemes.iter().map(|&s| job(s, topo, flows, cfg.clone())).collect();
    let mut opt_delays: Option<Vec<f64>> = None;
    for (scheme, r) in schemes.iter().zip(run_many(jobs)) {
        let label = scheme.label();
        if *scheme == Scheme::Opt {
            opt_delays = Some(r.mean_delays_ms.clone());
            fig.add_series(&label, r.mean_delays_ms.clone());
            if let Some(pct) = envelope_pct {
                let env: Vec<f64> =
                    r.mean_delays_ms.iter().map(|d| d * (1.0 + pct / 100.0)).collect();
                fig.add_series(&format!("OPT+{pct:.0}%"), env);
            }
        } else {
            if let Some(opt) = &opt_delays {
                let (min, mean_r, max) = ratio_stats(&r.mean_delays_ms, opt);
                fig.note(format!(
                    "{label} vs OPT per-flow ratio: min {min:.2} mean {mean_r:.2} max {max:.2}"
                ));
            }
            fig.add_series(&label, r.mean_delays_ms);
        }
    }
    fig
}

/// Per-flow rate used for the CAIRN figures (bits/s): loads the
/// reconstruction to the regime where the paper's claims are visible
/// (queueing-dominated but feasible; see `load_sweep`).
pub const CAIRN_RATE: f64 = 4_000_000.0;

/// Per-flow rate used for the NET1 figures (bits/s).
pub const NET1_RATE: f64 = 2_500_000.0;

/// Like [`comparison_figure`], but each scheme's per-flow series is the
/// average over several seeds. SP's delay under a long `T_l` depends
/// heavily on the phase of its route flapping, so single-seed runs are
/// noisy; the `T_l`-sensitivity figures (13–14) average them out.
#[allow(clippy::too_many_arguments)]
pub fn comparison_figure_seeds(
    id: &str,
    title: &str,
    topo: &Topology,
    flows: &[Flow],
    flow_labels: Vec<String>,
    schemes: &[Scheme],
    cfg: SimConfig,
    seeds: &[u64],
) -> Figure {
    let mut fig = Figure::new(id, title, flow_labels);
    // One batch over the whole (scheme × seed) grid; results come back
    // in job order, so chunking by seeds recovers each scheme's runs.
    let jobs = schemes
        .iter()
        .flat_map(|&scheme| seeds.iter().map(move |&seed| (scheme, seed)))
        .map(|(scheme, seed)| job(scheme, topo, flows, SimConfig { seed, ..cfg.clone() }))
        .collect();
    let results = run_many(jobs);
    for (scheme, chunk) in schemes.iter().zip(results.chunks(seeds.len())) {
        let mut acc: Vec<f64> = vec![0.0; flows.len()];
        for r in chunk {
            for (a, v) in acc.iter_mut().zip(&r.mean_delays_ms) {
                *a += v / seeds.len() as f64;
            }
        }
        fig.add_series(&scheme.label(), acc);
    }
    fig.note(format!("averaged over {} seeds, {} s measured per run", seeds.len(), cfg.duration));
    fig
}
