//! Verification of Gallager's optimality conditions (Eqs. 10–12):
//! *perfect load balancing*.
//!
//! At the minimum of `D_T`, for every router `i` and destination `j`:
//!
//! * the marginal distances `D'_ik + δ^j_k` through every *used*
//!   successor (`φ_ijk > 0`) are equal (Eq. 11), and
//! * strictly smaller than through every unused neighbor (Eq. 12), and
//! * `δ^j_i` equals that common value (Eqs. 8/10).
//!
//! [`check_optimality`] measures how far a routing-variable set is from
//! satisfying these — the quantitative notion of "approximation" in the
//! paper's title. OPT solutions should score near zero; MP's score
//! quantifies the delay gap's source.

use crate::evaluator::{deltas, evaluate, EvalError};
use crate::vars::RoutingVars;
use mdr_net::{LinkDelayModel, Mm1, NodeId, Topology, TrafficMatrix};

/// Result of checking Eqs. 10–12 on a routing-variable set.
#[derive(Debug, Clone)]
pub struct OptimalityReport {
    /// Worst relative spread of marginal distances across *used*
    /// successors: `max_(i,j) (max_used − min_used) / min_used`
    /// (Eq. 11 violation; 0 = perfectly balanced).
    pub worst_used_spread: f64,
    /// Worst relative amount by which an *unused* neighbor undercuts the
    /// best used successor (Eq. 12 violation; 0 = no unused neighbor is
    /// strictly better).
    pub worst_unused_undercut: f64,
    /// The `(i, j)` pair attaining `worst_used_spread`.
    pub worst_pair: Option<(NodeId, NodeId)>,
    /// Number of `(i, j)` pairs with more than one used successor.
    pub split_pairs: usize,
}

impl OptimalityReport {
    /// True if both violations are below `tol`.
    pub fn is_optimal(&self, tol: f64) -> bool {
        self.worst_used_spread <= tol && self.worst_unused_undercut <= tol
    }
}

/// Check Eqs. 10–12 for `vars` under `traffic`. Only `(i, j)` pairs that
/// actually carry traffic (`t^j_i > 0`) are scored — balancing unused
/// pairs is irrelevant to `D_T`.
pub fn check_optimality(
    topo: &Topology,
    models: &[Mm1],
    traffic: &TrafficMatrix,
    vars: &RoutingVars,
) -> Result<OptimalityReport, EvalError> {
    let eval = evaluate(topo, models, traffic, vars)?;
    let link_marginal: Vec<f64> =
        (0..topo.link_count()).map(|id| models[id].marginal_delay(eval.link_flow[id])).collect();
    let dests = traffic.active_destinations();
    let deltas = deltas(topo, vars, &link_marginal, &dests)?;

    let mut worst_used_spread = 0.0f64;
    let mut worst_unused_undercut = 0.0f64;
    let mut worst_pair = None;
    let mut split_pairs = 0usize;
    for (&j, delta) in dests.iter().zip(&deltas) {
        for i in topo.nodes() {
            if i == j || eval.node_flow[j.index()][i.index()] <= 0.0 {
                continue;
            }
            let used = vars.get(i, j);
            if used.is_empty() {
                continue;
            }
            if used.len() > 1 {
                split_pairs += 1;
            }
            let md = |k: NodeId| -> Option<f64> {
                let lid = topo.link_between(i, k)?;
                let dk = delta[k.index()];
                dk.is_finite().then(|| link_marginal[lid.index()] + dk)
            };
            let used_mds: Vec<f64> = used.iter().filter_map(|&(k, _)| md(k)).collect();
            if used_mds.is_empty() {
                continue;
            }
            let min_used = used_mds.iter().cloned().fold(f64::INFINITY, f64::min);
            let max_used = used_mds.iter().cloned().fold(0.0, f64::max);
            let spread = (max_used - min_used) / min_used.max(1e-30);
            if spread > worst_used_spread {
                worst_used_spread = spread;
                worst_pair = Some((i, j));
            }
            // Eq. 12: unused neighbors must not be strictly cheaper.
            for k in topo.neighbors(i) {
                if used.iter().any(|&(u, _)| u == k) {
                    continue;
                }
                if let Some(m) = md(k) {
                    let undercut = (min_used - m) / min_used.max(1e-30);
                    if undercut > worst_unused_undercut {
                        worst_unused_undercut = undercut;
                    }
                }
            }
        }
    }
    Ok(OptimalityReport { worst_used_spread, worst_unused_undercut, worst_pair, split_pairs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallager::{solve, GallagerConfig};
    use crate::vars::shortest_path_vars;
    use mdr_net::{topo, Flow, TopologyBuilder};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn opt_solution_satisfies_conditions() {
        let t = topo::net1();
        let models: Vec<Mm1> =
            t.links().iter().map(|l| Mm1::new(l.capacity, l.prop_delay, 1000.0)).collect();
        let flows = topo::net1_flows(2_000_000.0);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let r =
            solve(&t, &models, &traffic, GallagerConfig { eta: 1e7, max_iters: 3000, tol: 1e-12 })
                .unwrap();
        let rep = check_optimality(&t, &models, &traffic, &r.vars).unwrap();
        assert!(rep.worst_used_spread < 0.05, "used-successor spread {}", rep.worst_used_spread);
        assert!(
            rep.worst_unused_undercut < 0.05,
            "unused undercut {} at {:?}",
            rep.worst_unused_undercut,
            rep.worst_pair
        );
        assert!(rep.split_pairs > 0, "OPT should split somewhere on loaded NET1");
    }

    #[test]
    fn unbalanced_split_detected() {
        // Diamond with a deliberately skewed 90/10 split under load:
        // Eq. 11 must be violated.
        let t = TopologyBuilder::new()
            .nodes(4)
            .bidi(n(0), n(1), 10.0, 0.0)
            .bidi(n(0), n(2), 10.0, 0.0)
            .bidi(n(1), n(3), 10.0, 0.0)
            .bidi(n(2), n(3), 10.0, 0.0)
            .build()
            .unwrap();
        let models: Vec<Mm1> =
            t.links().iter().map(|l| Mm1::unit_packets(l.capacity, l.prop_delay)).collect();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(3), 8.0)]).unwrap();
        let mut v = RoutingVars::new(4);
        v.set(n(0), n(3), vec![(n(1), 0.9), (n(2), 0.1)]);
        v.set(n(1), n(3), vec![(n(3), 1.0)]);
        v.set(n(2), n(3), vec![(n(3), 1.0)]);
        let rep = check_optimality(&t, &models, &traffic, &v).unwrap();
        assert!(rep.worst_used_spread > 0.5, "spread {}", rep.worst_used_spread);
        assert!(!rep.is_optimal(0.05));
    }

    #[test]
    fn single_path_on_congested_diamond_violates_eq12() {
        // All traffic on one path while a parallel idle path exists: the
        // unused neighbor undercuts the used one.
        let t = TopologyBuilder::new()
            .nodes(4)
            .bidi(n(0), n(1), 10.0, 0.0)
            .bidi(n(0), n(2), 10.0, 0.0)
            .bidi(n(1), n(3), 10.0, 0.0)
            .bidi(n(2), n(3), 10.0, 0.0)
            .build()
            .unwrap();
        let models: Vec<Mm1> =
            t.links().iter().map(|l| Mm1::unit_packets(l.capacity, l.prop_delay)).collect();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(3), 8.0)]).unwrap();
        let sp = shortest_path_vars(&t, &models);
        let rep = check_optimality(&t, &models, &traffic, &sp).unwrap();
        assert!(rep.worst_unused_undercut > 0.5, "undercut {}", rep.worst_unused_undercut);
    }

    #[test]
    fn balanced_split_is_optimal() {
        let t = TopologyBuilder::new()
            .nodes(4)
            .bidi(n(0), n(1), 10.0, 0.0)
            .bidi(n(0), n(2), 10.0, 0.0)
            .bidi(n(1), n(3), 10.0, 0.0)
            .bidi(n(2), n(3), 10.0, 0.0)
            .build()
            .unwrap();
        let models: Vec<Mm1> =
            t.links().iter().map(|l| Mm1::unit_packets(l.capacity, l.prop_delay)).collect();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(3), 8.0)]).unwrap();
        let mut v = RoutingVars::new(4);
        v.set(n(0), n(3), vec![(n(1), 0.5), (n(2), 0.5)]);
        v.set(n(1), n(3), vec![(n(3), 1.0)]);
        v.set(n(2), n(3), vec![(n(3), 1.0)]);
        let rep = check_optimality(&t, &models, &traffic, &v).unwrap();
        assert!(rep.is_optimal(1e-9), "{rep:?}");
        assert_eq!(rep.split_pairs, 1);
    }
}
