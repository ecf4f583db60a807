//! The three routing schemes of the paper's evaluation, behind one
//! entry point: [`run`].
//!
//! * **OPT** — Gallager's minimum-delay routing, solved analytically on
//!   the stationary flow model (§2.2; the lower bound);
//! * **MP** — the paper's scheme: MPDA loop-free multipath + IH/AH load
//!   balancing, measured in the packet simulator;
//! * **SP** — single-path: the same machinery restricted to the best
//!   successor (the stand-in for OSPF/RIP-style routing, §5).

use mdr_net::{Flow, Mm1, NetError, Topology, TrafficMatrix};
use mdr_opt::{EvalError, Evaluation, GallagerConfig};
use mdr_sim::{EstimatorKind, Scenario, SimConfig, SimJob, SimMode, SimReport};
use std::fmt;

/// A routing scheme to evaluate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// Gallager's OPT with step size `eta`.
    Opt {
        /// Global step size η.
        eta: f64,
        /// Iteration cap.
        max_iters: usize,
    },
    /// The paper's MP scheme.
    Mp {
        /// Long-term routing update period `T_l` (s).
        t_long: f64,
        /// Short-term load-balancing period `T_s` (s).
        t_short: f64,
        /// Marginal-delay estimator.
        estimator: EstimatorKind,
    },
    /// Single-path baseline with update period `T_l`.
    Sp {
        /// Long-term routing update period `T_l` (s).
        t_long: f64,
    },
}

impl Scheme {
    /// OPT with sensible solver defaults.
    pub fn opt() -> Self {
        Scheme::Opt { eta: 0.0, max_iters: 5000 }
    }

    /// MP with the given `T_l`/`T_s` and the M/M/1 estimator.
    pub fn mp(t_long: f64, t_short: f64) -> Self {
        Scheme::Mp { t_long, t_short, estimator: EstimatorKind::Mm1 }
    }

    /// SP with the given `T_l`.
    pub fn sp(t_long: f64) -> Self {
        Scheme::Sp { t_long }
    }

    /// Label used in figures, mirroring the paper's (`OPT`,
    /// `MP-TL-xx-TS-yy`, `SP-TL-xx`).
    pub fn label(&self) -> String {
        match self {
            Scheme::Opt { .. } => "OPT".to_string(),
            Scheme::Mp { t_long, t_short, .. } => {
                format!("MP-TL-{:.0}-TS-{:.0}", t_long, t_short)
            }
            Scheme::Sp { t_long } => format!("SP-TL-{:.0}", t_long),
        }
    }
}

/// Common run parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Simulator warm-up (s). Ignored by OPT.
    pub warmup: f64,
    /// Measured duration (s). Ignored by OPT.
    pub duration: f64,
    /// RNG seed. Ignored by OPT.
    pub seed: u64,
    /// Mean packet length in bits.
    pub mean_packet_bits: f64,
    /// Data-plane granularity: per-packet DES (the default, the paper's
    /// engine) or one of the fluid flow-level modes — every scheme runs
    /// unchanged in either, which is what the packet-vs-fluid
    /// cross-validation suite leans on.
    pub sim_mode: SimMode,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup: 15.0,
            duration: 60.0,
            seed: 1,
            mean_packet_bits: 1000.0,
            sim_mode: SimMode::Packet,
        }
    }
}

/// Unified result of running a scheme.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheme label (figure legend entry).
    pub label: String,
    /// Mean end-to-end delay per flow, milliseconds, in flow order.
    pub per_flow_delay_ms: Vec<f64>,
    /// Mean of the per-flow delays (ms).
    pub mean_delay_ms: f64,
    /// Simulator report (MP/SP only).
    pub report: Option<SimReport>,
    /// Analytic evaluation (OPT only).
    pub analytic: Option<Evaluation>,
}

/// Facade error.
#[derive(Debug, Clone, PartialEq)]
pub enum MdrError {
    /// Invalid network or traffic input.
    Net(NetError),
    /// Analytic model failure.
    Eval(EvalError),
}

impl fmt::Display for MdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdrError::Net(e) => write!(f, "network error: {e}"),
            MdrError::Eval(e) => write!(f, "evaluation error: {e}"),
        }
    }
}

impl std::error::Error for MdrError {}

impl From<NetError> for MdrError {
    fn from(e: NetError) -> Self {
        MdrError::Net(e)
    }
}

impl From<EvalError> for MdrError {
    fn from(e: EvalError) -> Self {
        MdrError::Eval(e)
    }
}

/// Unit-packet delay models for OPT (relative costs only).
fn models_for(topo: &Topology, mean_packet_bits: f64) -> Vec<Mm1> {
    topo.links().iter().map(|l| Mm1::new(l.capacity, l.prop_delay, mean_packet_bits)).collect()
}

/// A default η for Gallager's solver scaled to the traffic: the update
/// `Δφ = η·a/t^j_i` must stay O(1) when `a` is in seconds-per-bit and
/// `t` in bits/s, so η must carry units of (bits/s)²·(bit/s)⁻¹… in
/// practice η ≈ (total offered rate)² / 50 converges reliably on the
/// paper's topologies; exposed so callers can override.
fn default_eta(traffic: &TrafficMatrix) -> f64 {
    let r = traffic.total_rate().max(1.0);
    r * r * 2e-7
}

/// Run one scheme over `topo` with the given `flows`.
pub fn run(
    topo: &Topology,
    flows: &[Flow],
    scheme: Scheme,
    cfg: RunConfig,
) -> Result<RunResult, MdrError> {
    run_with_scenario(topo, flows, scheme, cfg, &Scenario::new())
}

/// Like [`run`], with scripted perturbations (dynamic traffic, link
/// failures). OPT ignores the scenario — it is only valid for
/// stationary traffic, which is exactly the paper's point.
pub fn run_with_scenario(
    topo: &Topology,
    flows: &[Flow],
    scheme: Scheme,
    cfg: RunConfig,
    scenario: &Scenario,
) -> Result<RunResult, MdrError> {
    let traffic = TrafficMatrix::from_flows(topo, flows)?;
    match scheme {
        Scheme::Opt { eta, max_iters } => {
            let models = models_for(topo, cfg.mean_packet_bits);
            let eta = if eta > 0.0 { eta } else { default_eta(&traffic) };
            let sol = mdr_opt::solve(
                topo,
                &models,
                &traffic,
                GallagerConfig { eta, max_iters, tol: 1e-10 },
            )?;
            // Measure the optimal allocation in the packet simulator
            // under the same stationary traffic — the paper's OPT series
            // is likewise a quasi-static simulation, so this keeps the
            // envelope comparisons apples-to-apples with MP/SP.
            let sim_cfg = SimConfig {
                warmup: cfg.warmup,
                duration: cfg.duration,
                seed: cfg.seed,
                mean_packet_bits: cfg.mean_packet_bits,
                sim_mode: cfg.sim_mode,
                fixed_routing: Some(sol.vars),
                ..Default::default()
            };
            let report = SimJob::new(topo, &traffic, sim_cfg).run();
            let per_flow = report.mean_delays_ms.clone();
            let mean = report.mean_delay_ms();
            Ok(RunResult {
                label: scheme.label(),
                per_flow_delay_ms: per_flow,
                mean_delay_ms: mean,
                report: Some(report),
                analytic: Some(sol.eval),
            })
        }
        Scheme::Mp { t_long, t_short, estimator } => {
            let sim_cfg = SimConfig {
                mode: mdr_flow::Mode::Multipath,
                t_long,
                t_short,
                estimator,
                warmup: cfg.warmup,
                duration: cfg.duration,
                seed: cfg.seed,
                mean_packet_bits: cfg.mean_packet_bits,
                sim_mode: cfg.sim_mode,
                ..Default::default()
            };
            let report = SimJob::new(topo, &traffic, sim_cfg).with_scenario(scenario).run();
            finish(scheme, report)
        }
        Scheme::Sp { t_long } => {
            let sim_cfg = SimConfig {
                mode: mdr_flow::Mode::SinglePath,
                t_long,
                // SP has no load balancing, but costs are still measured
                // on the same short-term cadence as MP's default.
                t_short: 2.0,
                estimator: EstimatorKind::Mm1,
                warmup: cfg.warmup,
                duration: cfg.duration,
                seed: cfg.seed,
                mean_packet_bits: cfg.mean_packet_bits,
                sim_mode: cfg.sim_mode,
                ..Default::default()
            };
            let report = SimJob::new(topo, &traffic, sim_cfg).with_scenario(scenario).run();
            finish(scheme, report)
        }
    }
}

/// One scheme evaluation in a batch — everything [`run_with_scenario`]
/// needs, owned, so batches can move across worker threads.
#[derive(Debug, Clone)]
pub struct RunJob {
    /// The network.
    pub topo: Topology,
    /// Offered flows.
    pub flows: Vec<Flow>,
    /// Scheme under test.
    pub scheme: Scheme,
    /// Run parameters.
    pub cfg: RunConfig,
    /// Scripted perturbations (empty for steady state).
    pub scenario: Scenario,
}

impl RunJob {
    /// A steady-state job.
    pub fn new(topo: &Topology, flows: &[Flow], scheme: Scheme, cfg: RunConfig) -> Self {
        RunJob { topo: topo.clone(), flows: flows.to_vec(), scheme, cfg, scenario: Scenario::new() }
    }

    /// Attach a scenario.
    pub fn with_scenario(mut self, scenario: &Scenario) -> Self {
        self.scenario = scenario.clone();
        self
    }

    /// Run this job alone.
    pub fn run(&self) -> Result<RunResult, MdrError> {
        run_with_scenario(&self.topo, &self.flows, self.scheme, self.cfg, &self.scenario)
    }
}

/// Run a batch of independent scheme evaluations across CPU cores
/// (worker count: `RAYON_NUM_THREADS` or the machine's parallelism).
///
/// Results come back in job order and are bit-identical to calling
/// [`RunJob::run`] on each job serially — every job is a pure function
/// of its inputs, so parallelism is unobservable except in wall-clock
/// time.
pub fn run_jobs(jobs: Vec<RunJob>) -> Vec<Result<RunResult, MdrError>> {
    mdr_sim::par::parallel_map(jobs, |j| j.run())
}

/// [`run_jobs`] with an explicit worker count.
pub fn run_jobs_with(threads: usize, jobs: Vec<RunJob>) -> Vec<Result<RunResult, MdrError>> {
    mdr_sim::par::parallel_map_with(threads, jobs, |j| j.run())
}

fn finish(scheme: Scheme, report: SimReport) -> Result<RunResult, MdrError> {
    let per_flow = report.mean_delays_ms.clone();
    let mean = report.mean_delay_ms();
    Ok(RunResult {
        label: scheme.label(),
        per_flow_delay_ms: per_flow,
        mean_delay_ms: mean,
        report: Some(report),
        analytic: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_net::topo;

    #[test]
    fn labels_match_paper_convention() {
        assert_eq!(Scheme::opt().label(), "OPT");
        assert_eq!(Scheme::mp(10.0, 2.0).label(), "MP-TL-10-TS-2");
        assert_eq!(Scheme::sp(10.0).label(), "SP-TL-10");
    }

    #[test]
    fn opt_runs_on_net1() {
        let t = topo::net1();
        let flows = topo::net1_flows(1_000_000.0);
        let r = run(&t, &flows, Scheme::opt(), RunConfig::default()).unwrap();
        assert_eq!(r.per_flow_delay_ms.len(), 10);
        assert!(r.per_flow_delay_ms.iter().all(|&d| d > 0.0 && d < 1000.0));
        assert!(r.analytic.is_some());
        // OPT is solved analytically, then *measured* in the simulator
        // (quasi-static), so a report is present too.
        assert!(r.report.is_some());
        let ana = r.analytic.as_ref().unwrap();
        // Analytic and measured delays agree within M/M/1-vs-DES noise.
        for (m, a) in r.per_flow_delay_ms.iter().zip(&ana.flow_delays) {
            let a_ms = a * 1000.0;
            assert!((m - a_ms).abs() / a_ms < 0.25, "measured {m} vs analytic {a_ms}");
        }
    }

    #[test]
    fn mp_runs_on_net1_quickly() {
        let t = topo::net1();
        let flows = topo::net1_flows(500_000.0);
        let cfg = RunConfig { warmup: 5.0, duration: 5.0, ..Default::default() };
        let r = run(&t, &flows, Scheme::mp(10.0, 2.0), cfg).unwrap();
        assert_eq!(r.per_flow_delay_ms.len(), 10);
        assert!(r.report.is_some());
        assert!(r.mean_delay_ms > 0.0);
    }

    #[test]
    fn sp_runs_on_net1_quickly() {
        let t = topo::net1();
        let flows = topo::net1_flows(500_000.0);
        let cfg = RunConfig { warmup: 5.0, duration: 5.0, ..Default::default() };
        let r = run(&t, &flows, Scheme::sp(10.0), cfg).unwrap();
        assert!(r.mean_delay_ms > 0.0);
    }

    #[test]
    fn bad_traffic_is_reported() {
        let t = topo::net1();
        let flows = vec![Flow::new(mdr_net::NodeId(0), mdr_net::NodeId(0), 1.0)];
        let e = run(&t, &flows, Scheme::opt(), RunConfig::default()).unwrap_err();
        assert!(matches!(e, MdrError::Net(_)));
    }
}
