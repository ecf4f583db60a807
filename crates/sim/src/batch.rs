//! Batch execution of independent simulation runs across CPU cores.
//!
//! A figure in the paper is never one simulation: it is a grid of runs
//! (schemes × loads × seeds). Each run is a pure function of its
//! [`SimJob`], so [`run_many`] executes them with [`crate::par`] and
//! returns the reports **in job order, bit-identical to running the
//! same jobs serially** — the determinism tests assert exactly that.

use crate::engine::{SimConfig, SimMode, SimReport, Simulator};
use crate::fluid::FluidSimulator;
use crate::par;
use crate::scenario::Scenario;
use mdr_net::{Topology, TrafficMatrix};

/// One self-contained simulation run.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// The network.
    pub topo: Topology,
    /// Offered traffic.
    pub traffic: TrafficMatrix,
    /// Scripted perturbations (empty for steady state).
    pub scenario: Scenario,
    /// Engine parameters.
    pub cfg: SimConfig,
}

impl SimJob {
    /// A steady-state job.
    pub fn new(topo: &Topology, traffic: &TrafficMatrix, cfg: SimConfig) -> Self {
        SimJob { topo: topo.clone(), traffic: traffic.clone(), scenario: Scenario::new(), cfg }
    }

    /// Attach a scenario.
    pub fn with_scenario(mut self, scenario: &Scenario) -> Self {
        self.scenario = scenario.clone();
        self
    }

    /// Run this job alone (what each worker does). Dispatches on
    /// [`SimConfig::sim_mode`]: per-packet DES or the fluid flow-level
    /// engine ([`crate::fluid`]).
    pub fn run(&self) -> SimReport {
        match self.cfg.sim_mode {
            SimMode::Packet => {
                Simulator::new(&self.topo, &self.traffic, &self.scenario, self.cfg.clone()).run()
            }
            SimMode::Fluid | SimMode::FluidQuiescent => {
                FluidSimulator::new(&self.topo, &self.traffic, &self.scenario, self.cfg.clone())
                    .run()
            }
        }
    }
}

/// Execute `jobs` across up to [`par::num_threads`] cores, returning
/// reports in job order. Results are bit-identical to calling
/// [`SimJob::run`] on each job in a serial loop.
pub fn run_many(jobs: Vec<SimJob>) -> Vec<SimReport> {
    par::parallel_map(jobs, |j| j.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_net::{Flow, NodeId, TopologyBuilder};

    fn setup() -> (Topology, TrafficMatrix) {
        let t = TopologyBuilder::new()
            .nodes(3)
            .bidi(NodeId(0), NodeId(1), 1_000_000.0, 0.001)
            .bidi(NodeId(1), NodeId(2), 1_000_000.0, 0.001)
            .build()
            .unwrap();
        let traffic =
            TrafficMatrix::from_flows(&t, &[Flow::new(NodeId(0), NodeId(2), 300_000.0)]).unwrap();
        (t, traffic)
    }

    fn quick(seed: u64) -> SimConfig {
        SimConfig { warmup: 2.0, duration: 4.0, seed, ..Default::default() }
    }

    #[test]
    fn run_many_matches_serial_bit_for_bit() {
        let (t, traffic) = setup();
        let jobs: Vec<SimJob> = (1..=6).map(|s| SimJob::new(&t, &traffic, quick(s))).collect();
        let serial: Vec<SimReport> = jobs.iter().map(|j| j.run()).collect();
        let parallel = par::parallel_map_with(4, jobs, |j| j.run());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_many_preserves_job_order() {
        let (t, traffic) = setup();
        let reports = run_many(vec![
            SimJob::new(&t, &traffic, quick(1)),
            SimJob::new(&t, &traffic, quick(2)),
        ]);
        assert_eq!(reports.len(), 2);
        // Different seeds: the slots must hold *their* run, not each other's.
        assert_ne!(reports[0], reports[1]);
        assert_eq!(reports[0], SimJob::new(&t, &traffic, quick(1)).run());
        assert_eq!(reports[1], SimJob::new(&t, &traffic, quick(2)).run());
    }
}
