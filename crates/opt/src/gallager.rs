//! OPT — Gallager's minimum-delay routing algorithm (§2.2), run as a
//! centralized fixed-point iteration to produce the lower bound the
//! paper compares against.
//!
//! Each iteration:
//!
//! 1. Solve the flow model for the current `φ` and compute the link
//!    marginal delays `D'_ik(f_ik)`.
//! 2. Compute the marginal distances `δ^j_i = ∂D_T/∂r_ij` via Eq. 5's
//!    recursion `δ^j_i = Σ_k φ_ijk (D'_ik + δ^j_k)` — the backward pass
//!    over the routing DAG ([`crate::dag`]), once per iteration.
//! 3. For every `(i, j)`, move routing fraction from neighbors with
//!    large `D'_ik + δ^j_k` toward the minimizing neighbor, at most
//!    `η · a_ijk / t^j_i` each (Gallager's update with global step size
//!    η). Loop-freedom is preserved by a blocking rule: only neighbors
//!    with `δ^j_k < δ^j_i` (strict, w.r.t. the iteration-start snapshot)
//!    may receive traffic, so each new routing graph is a DAG by the
//!    decreasing-potential argument.
//!
//! Convergence is declared when the relative improvement of `D_T` stays
//! below `tol` — at that point Eqs. 10–12 (perfect load balancing) hold
//! to within the step size. As the paper stresses, the required global
//! step size and stationary traffic make this a *bound generator*, not a
//! practical protocol; quantifying exactly that gap is what the MP
//! scheme is for.

use crate::evaluator::{deltas, evaluate, EvalError, Evaluation};
use crate::vars::{shortest_path_vars, RoutingVars};
use mdr_net::{LinkDelayModel, Mm1, NodeId, Topology, TrafficMatrix};

/// Solver parameters.
#[derive(Debug, Clone, Copy)]
pub struct GallagerConfig {
    /// Global step size η. Too large diverges, too small converges
    /// slowly — the paper's central criticism (§2.2).
    pub eta: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Relative `D_T` improvement below which we stop.
    pub tol: f64,
}

impl Default for GallagerConfig {
    fn default() -> Self {
        GallagerConfig { eta: 0.1, max_iters: 2000, tol: 1e-9 }
    }
}

/// Solver output.
#[derive(Debug, Clone)]
pub struct GallagerResult {
    /// The optimized routing variables.
    pub vars: RoutingVars,
    /// Evaluation of the final variables.
    pub eval: Evaluation,
    /// Iterations actually run.
    pub iterations: usize,
    /// True if the tolerance was met before `max_iters`.
    pub converged: bool,
    /// `D_T` trajectory (one entry per iteration, including the start).
    pub history: Vec<f64>,
}

/// Run OPT from single-shortest-path initial routing.
///
/// Because Gallager's convergence constant is instance-dependent (the
/// paper's central criticism of OPT), the solver multi-starts over an η
/// ladder — `cfg.eta`, ×10², ×10⁴, ×10⁶ — and keeps the lowest-`D_T`
/// result. Each start backtracks internally, so oversized rungs are
/// harmless; undersized rungs can stall on near-saturated plateaus,
/// which the larger rungs escape. This is exactly the kind of offline
/// tuning a real network cannot do, and a centralized bound generator
/// can.
pub fn solve(
    topo: &Topology,
    models: &[Mm1],
    traffic: &TrafficMatrix,
    cfg: GallagerConfig,
) -> Result<GallagerResult, EvalError> {
    let mut best: Option<GallagerResult> = None;
    let mut total_iters = 0usize;
    for mult in [1.0, 1e2, 1e4, 1e6] {
        let rung = GallagerConfig { eta: cfg.eta * mult, ..cfg };
        let r = iterate(topo, models, traffic, rung, shortest_path_vars(topo, models))?;
        total_iters += r.iterations;
        let better = match &best {
            Some(b) => r.eval.total_delay < b.eval.total_delay,
            None => true,
        };
        if better {
            best = Some(r);
        }
    }
    let mut r = best.expect("ladder is non-empty");
    r.iterations = total_iters;
    Ok(r)
}

/// One Gallager update of every `(i, j)` with step size `eta`,
/// producing a fresh variable set (the input is not modified).
/// `delta[slot]` holds `vars`' marginal distances toward
/// `destinations[slot]`.
fn step(
    topo: &Topology,
    vars: &RoutingVars,
    eval: &Evaluation,
    link_marginal: &[f64],
    delta: &[Vec<f64>],
    destinations: &[NodeId],
    eta: f64,
) -> RoutingVars {
    let mut next = vars.clone();
    for (&j, delta) in destinations.iter().zip(delta) {
        for i in topo.nodes() {
            if i == j {
                continue;
            }
            let tij = eval.node_flow[j.index()][i.index()];
            // Candidate neighbors under the blocking rule: δ^j_k < δ^j_i
            // strictly (snapshot), so the updated graph is a DAG.
            let di = delta[i.index()];
            let mut candidates: Vec<(NodeId, f64)> = Vec::new(); // (k, D'_ik + δ_k)
            for (lid, l) in topo.out_links(i) {
                let k = l.to;
                let dk = delta[k.index()];
                if dk.is_finite() && (dk < di || !di.is_finite()) {
                    candidates.push((k, link_marginal[lid.index()] + dk));
                }
            }
            if candidates.is_empty() {
                continue;
            }
            let (kmin, amin) =
                candidates.iter().fold((candidates[0].0, candidates[0].1), |(bk, bc), &(k, c)| {
                    if c < bc {
                        (k, c)
                    } else {
                        (bk, bc)
                    }
                });
            // Build the new fraction vector. Every movement is η-scaled
            // so the line search in `iterate` is sound: as η → 0 the
            // candidate tends to the current point.
            let mut new_pairs: Vec<(NodeId, f64)> = Vec::new();
            let mut moved = 0.0;
            for &(k, frac) in vars.get(i, j) {
                if k == kmin {
                    new_pairs.push((k, frac));
                    continue;
                }
                let cost = candidates.iter().find(|&&(c, _)| c == k).map(|&(_, c)| c);
                // For neighbors outside the candidate set (δ_k ≥ δ_i or
                // no path), use their actual marginal distance if it is
                // finite; a truly pathless neighbor drains fully.
                let excess = match cost {
                    Some(c) => Some((c - amin).max(0.0)),
                    None => {
                        let dk = delta[k.index()];
                        match topo.link_between(i, k) {
                            Some(lid) if dk.is_finite() => {
                                Some((link_marginal[lid.index()] + dk - amin).max(0.0))
                            }
                            _ => None,
                        }
                    }
                };
                let drop = match excess {
                    Some(a) if tij > 0.0 => frac.min(eta * a / tij),
                    Some(_) => frac, // no traffic: jump straight to best
                    None => frac,    // pathless: drain fully
                };
                moved += drop;
                if frac - drop > 0.0 {
                    new_pairs.push((k, frac - drop));
                }
            }
            if vars.get(i, j).is_empty() {
                // No routing yet (can happen after topology edits):
                // route everything to the best candidate.
                new_pairs.push((kmin, 1.0));
            } else if moved > 0.0 {
                match new_pairs.iter_mut().find(|p| p.0 == kmin) {
                    Some(p) => p.1 += moved,
                    None => new_pairs.push((kmin, moved)),
                }
            }
            if !new_pairs.is_empty() {
                next.set(i, j, new_pairs);
            }
        }
    }
    next
}

/// One rung of [`solve`]'s ladder: iterate from the starting point
/// `vars`.
///
/// The step size starts at `cfg.eta` but adapts by backtracking: a step
/// that fails to reduce `D_T` is retried at half the size, and accepted
/// steps let the size creep back up. Gallager's convergence theorem
/// requires an η "sufficiently small" for the instance — backtracking
/// finds that η automatically, which keeps this solver a trustworthy
/// *bound generator* across load levels without hand-tuning (the paper's
/// point that no single global η works for all inputs stands; we just
/// search for it, something only an offline centralized solver can do).
fn iterate(
    topo: &Topology,
    models: &[Mm1],
    traffic: &TrafficMatrix,
    cfg: GallagerConfig,
    mut vars: RoutingVars,
) -> Result<GallagerResult, EvalError> {
    let destinations: Vec<NodeId> = traffic.active_destinations();
    let mut history = Vec::with_capacity(cfg.max_iters + 1);
    let mut eta = cfg.eta;
    let eta_cap = cfg.eta * 1e8;
    let mut eval = evaluate(topo, models, traffic, &vars)?;
    history.push(eval.total_delay);
    let mut small_improvements = 0u32;
    let (mut iterations, mut converged) = (0, false);
    while !converged && iterations < cfg.max_iters {
        iterations += 1;
        let link_marginal: Vec<f64> = (0..topo.link_count())
            .map(|id| models[id].marginal_delay(eval.link_flow[id]))
            .collect();
        let delta = deltas(topo, &vars, &link_marginal, &destinations)?;
        // Backtracking line search on the step size.
        let mut accepted = false;
        for _ in 0..60 {
            let candidate = step(topo, &vars, &eval, &link_marginal, &delta, &destinations, eta);
            // A candidate that forms a transient cycle (possible when a
            // retained uphill edge meets a fresh downhill one) is simply
            // rejected like a non-improving step; η-scaling guarantees
            // small enough steps are always cycle-free.
            let cand_eval = match evaluate(topo, models, traffic, &candidate) {
                Ok(e) => e,
                Err(EvalError::CyclicRouting(_)) => {
                    eta *= 0.5;
                    continue;
                }
                Err(e) => return Err(e),
            };
            if cand_eval.total_delay <= eval.total_delay {
                let impr = (eval.total_delay - cand_eval.total_delay) / eval.total_delay.max(1e-30);
                vars = candidate;
                eval = cand_eval;
                history.push(eval.total_delay);
                eta = (eta * 2.0).min(eta_cap);
                accepted = true;
                if impr < cfg.tol {
                    small_improvements += 1;
                    converged = small_improvements >= 3;
                } else {
                    small_improvements = 0;
                }
                break;
            }
            eta *= 0.5;
        }
        // No step of any size improves: stationary point reached.
        converged |= !accepted;
    }
    Ok(GallagerResult { vars, eval, iterations, converged, history })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_net::{Flow, TopologyBuilder};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn models_of(t: &Topology) -> Vec<Mm1> {
        t.links().iter().map(|l| Mm1::unit_packets(l.capacity, l.prop_delay)).collect()
    }

    /// Two parallel 2-hop paths with different capacities: the optimum
    /// equalizes marginal delays, solvable by hand.
    #[test]
    fn parallel_paths_equalize_marginal_delays() {
        // 0 -> 1 -> 3 (capacity 10), 0 -> 2 -> 3 (capacity 10), no
        // propagation delay. Symmetric: optimal split is 50/50.
        let t = TopologyBuilder::new()
            .nodes(4)
            .bidi(n(0), n(1), 10.0, 0.0)
            .bidi(n(0), n(2), 10.0, 0.0)
            .bidi(n(1), n(3), 10.0, 0.0)
            .bidi(n(2), n(3), 10.0, 0.0)
            .build()
            .unwrap();
        let m = models_of(&t);
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(3), 8.0)]).unwrap();
        let r = solve(&t, &m, &traffic, GallagerConfig { eta: 0.5, ..Default::default() }).unwrap();
        let f1 = r.vars.fraction(n(0), n(3), n(1));
        let f2 = r.vars.fraction(n(0), n(3), n(2));
        assert!((f1 - 0.5).abs() < 0.02, "f1 = {f1}");
        assert!((f2 - 0.5).abs() < 0.02);
        // Optimal D_T: both paths carry 4.0 on two links each:
        // 4 * (4/(10-4)) = 8/3 * ... per link D = f/(C-f) = 4/6; four
        // loaded links → D_T = 4 * 2/3.
        assert!((r.eval.total_delay - 4.0 * (4.0 / 6.0)).abs() < 0.01, "{}", r.eval.total_delay);
    }

    #[test]
    fn asymmetric_capacities_split_toward_bigger_pipe() {
        // Direct link (cap 6) vs 2-hop detour (cap 20 each hop).
        let t = TopologyBuilder::new()
            .nodes(3)
            .bidi(n(0), n(2), 6.0, 0.0)
            .bidi(n(0), n(1), 20.0, 0.0)
            .bidi(n(1), n(2), 20.0, 0.0)
            .build()
            .unwrap();
        let m = models_of(&t);
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(2), 8.0)]).unwrap();
        let r = solve(&t, &m, &traffic, GallagerConfig { eta: 0.3, ..Default::default() }).unwrap();
        // The single direct path (cap 6) cannot even carry 8; OPT must
        // shift most onto the detour.
        let via1 = r.vars.fraction(n(0), n(2), n(1));
        assert!(via1 > 0.4, "via detour {via1}");
        assert!(r.eval.max_utilization < 1.0);
        // Optimality condition (Eq. 7): marginal distances through both
        // used successors are equal within tolerance.
        let eval = &r.eval;
        let lm: Vec<f64> =
            (0..t.link_count()).map(|id| m[id].marginal_delay(eval.link_flow[id])).collect();
        let delta = &deltas(&t, &r.vars, &lm, &[n(2)]).unwrap()[0];
        let l02 = t.link_between(n(0), n(2)).unwrap();
        let l01 = t.link_between(n(0), n(1)).unwrap();
        let md_direct = lm[l02.index()]; // δ_2 = 0
        let md_detour = lm[l01.index()] + delta[1];
        assert!(
            (md_direct - md_detour).abs() / md_direct < 0.05,
            "marginal distances {md_direct} vs {md_detour}"
        );
    }

    #[test]
    fn dt_monotonically_nonincreasing() {
        let t = mdr_net::topo::net1();
        let m = models_of(&t);
        let flows = mdr_net::topo::net1_flows(1_500_000.0);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let r = solve(&t, &m, &traffic, GallagerConfig { eta: 1e-7, max_iters: 300, tol: 1e-12 })
            .unwrap();
        for w in r.history.windows(2) {
            assert!(
                w[1] <= w[0] * 1.0001,
                "D_T increased: {} -> {} (history {:?})",
                w[0],
                w[1],
                &r.history[..8.min(r.history.len())]
            );
        }
    }

    #[test]
    fn beats_or_matches_shortest_path() {
        let t = mdr_net::topo::net1();
        let m = models_of(&t);
        let flows = mdr_net::topo::net1_flows(1_000_000.0);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let sp = shortest_path_vars(&t, &m);
        let sp_eval = evaluate(&t, &m, &traffic, &sp).unwrap();
        let r =
            solve(&t, &m, &traffic, GallagerConfig { eta: 1e-6, ..Default::default() }).unwrap();
        assert!(
            r.eval.total_delay <= sp_eval.total_delay + 1e-9,
            "OPT {} vs SP {}",
            r.eval.total_delay,
            sp_eval.total_delay
        );
    }

    #[test]
    fn routing_stays_acyclic_every_iteration() {
        // If any iteration produced a cycle, evaluate() inside solve()
        // would return CyclicRouting. Run a high-load case to stress it.
        let t = mdr_net::topo::net1();
        let m = models_of(&t);
        let flows = mdr_net::topo::net1_flows(2_000_000.0);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let r = solve(&t, &m, &traffic, GallagerConfig { eta: 1e-6, max_iters: 500, tol: 1e-10 });
        assert!(r.is_ok(), "{:?}", r.err());
    }
}
