//! The three routing schemes of the paper's evaluation, and the one
//! place where a scheme becomes a simulation run: [`Scheme::job`].
//!
//! * **OPT** — Gallager's minimum-delay routing, solved analytically on
//!   the stationary flow model (§2.2; the lower bound), then measured in
//!   the packet simulator with its routing pinned;
//! * **MP** — the paper's scheme: MPDA loop-free multipath + IH/AH load
//!   balancing, measured in the packet simulator;
//! * **SP** — single-path: the same machinery restricted to the best
//!   successor (the stand-in for OSPF/RIP-style routing, §5).
//!
//! A job runs alone with [`SimJob::run`] or in a batch with
//! [`mdr_sim::run_many`]; either way the result is a
//! [`mdr_sim::SimReport`], labelled by [`Scheme::label`].

use mdr_net::{Mm1, Topology, TrafficMatrix};
use mdr_opt::{EvalError, GallagerConfig, GallagerResult};
use mdr_sim::{EstimatorKind, SimConfig, SimJob};

/// Gallager's iteration cap for OPT.
const OPT_MAX_ITERS: usize = 5000;

/// A routing scheme to evaluate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// Gallager's OPT, with its step size scaled to the traffic.
    Opt,
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
            Scheme::Opt => "OPT".to_string(),
            Scheme::Mp { t_long, t_short, .. } => {
                format!("MP-TL-{:.0}-TS-{:.0}", t_long, t_short)
            }
            Scheme::Sp { t_long } => format!("SP-TL-{:.0}", t_long),
        }
    }

    /// This scheme's run over `topo` carrying `traffic`: `base` with the
    /// scheme's forwarding mode, update periods and estimator set. OPT
    /// solves Gallager's problem first and pins the run's forwarding to
    /// the solution ([`SimConfig::fixed_routing`]) — the paper's OPT
    /// series is likewise a quasi-static simulation, so the comparisons
    /// with MP/SP stay apples-to-apples. Attach scripted perturbations
    /// with [`SimJob::with_scenario`].
    pub fn job(
        self,
        topo: &Topology,
        traffic: &TrafficMatrix,
        base: SimConfig,
    ) -> Result<SimJob, EvalError> {
        let cfg = match self {
            Scheme::Opt => {
                let sol = solve_opt(topo, traffic, base.mean_packet_bits)?;
                SimConfig { fixed_routing: Some(sol.vars), ..base }
            }
            Scheme::Mp { t_long, t_short, estimator } => {
                SimConfig { mode: mdr_flow::Mode::Multipath, t_long, t_short, estimator, ..base }
            }
            Scheme::Sp { t_long } => SimConfig {
                mode: mdr_flow::Mode::SinglePath,
                t_long,
                // SP has no load balancing, but costs are still measured
                // on the same short-term cadence as MP's default.
                t_short: 2.0,
                estimator: EstimatorKind::Mm1,
                ..base
            },
        };
        Ok(SimJob::new(topo, traffic, cfg))
    }
}

/// Gallager's OPT over M/M/1 links with `mean_packet_bits` packets.
///
/// Its step size η is scaled to the traffic: the update `Δφ = η·a/t^j_i`
/// must stay O(1) when `a` is in seconds-per-bit and `t` in bits/s, and
/// in practice η ≈ (total offered rate)² · 2e-7 converges reliably on
/// the paper's topologies.
fn solve_opt(
    topo: &Topology,
    traffic: &TrafficMatrix,
    mean_packet_bits: f64,
) -> Result<GallagerResult, EvalError> {
    let models: Vec<Mm1> =
        topo.links().iter().map(|l| Mm1::new(l.capacity, l.prop_delay, mean_packet_bits)).collect();
    let r = traffic.total_rate().max(1.0);
    let cfg = GallagerConfig { eta: r * r * 2e-7, max_iters: OPT_MAX_ITERS, tol: 1e-10 };
    mdr_opt::solve(topo, &models, traffic, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_net::{topo, Flow, NodeId, TopologyBuilder};

    fn net1(rate: f64) -> (Topology, TrafficMatrix) {
        let t = topo::net1();
        let traffic = TrafficMatrix::from_flows(&t, &topo::net1_flows(rate)).unwrap();
        (t, traffic)
    }

    fn quick() -> SimConfig {
        SimConfig { warmup: 5.0, duration: 5.0, ..Default::default() }
    }

    #[test]
    fn labels_match_paper_convention() {
        assert_eq!(Scheme::Opt.label(), "OPT");
        assert_eq!(Scheme::mp(10.0, 2.0).label(), "MP-TL-10-TS-2");
        assert_eq!(Scheme::sp(10.0).label(), "SP-TL-10");
    }

    #[test]
    fn opt_runs_on_net1() {
        let (t, traffic) = net1(1_000_000.0);
        let job = Scheme::Opt.job(&t, &traffic, SimConfig::default()).unwrap();
        assert!(job.cfg.fixed_routing.is_some());
        let r = job.run();
        assert_eq!(r.mean_delays_ms.len(), 10);
        assert!(r.mean_delays_ms.iter().all(|&d| d > 0.0 && d < 1000.0));
        // OPT is solved analytically, then *measured* in the simulator
        // (quasi-static): analytic and measured delays agree within
        // M/M/1-vs-DES noise.
        let ana = solve_opt(&t, &traffic, 1000.0).unwrap().eval;
        for (m, a) in r.mean_delays_ms.iter().zip(&ana.flow_delays) {
            let a_ms = a * 1000.0;
            assert!((m - a_ms).abs() / a_ms < 0.25, "measured {m} vs analytic {a_ms}");
        }
    }

    #[test]
    fn mp_runs_on_net1_quickly() {
        let (t, traffic) = net1(500_000.0);
        let job = Scheme::mp(10.0, 1.0).job(&t, &traffic, quick()).unwrap();
        assert_eq!(
            (job.cfg.mode, job.cfg.t_long, job.cfg.t_short),
            (mdr_flow::Mode::Multipath, 10.0, 1.0)
        );
        let r = job.run();
        assert_eq!(r.mean_delays_ms.len(), 10);
        assert!(r.mean_delay_ms() > 0.0);
    }

    #[test]
    fn sp_runs_on_net1_quickly() {
        let (t, traffic) = net1(500_000.0);
        let job = Scheme::sp(20.0).job(&t, &traffic, quick()).unwrap();
        assert_eq!(
            (job.cfg.mode, job.cfg.t_long, job.cfg.t_short),
            (mdr_flow::Mode::SinglePath, 20.0, 2.0)
        );
        assert!(job.run().mean_delay_ms() > 0.0);
    }

    #[test]
    fn bad_traffic_is_reported() {
        // Node 2 has no links: OPT finds no route toward it.
        let t = TopologyBuilder::new()
            .nodes(3)
            .bidi(NodeId(0), NodeId(1), 1_000_000.0, 0.001)
            .build()
            .unwrap();
        let flows = [Flow::new(NodeId(0), NodeId(2), 1.0)];
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let e = Scheme::Opt.job(&t, &traffic, SimConfig::default()).unwrap_err();
        assert!(matches!(e, EvalError::NoRoute { .. }), "{e}");
    }
}
