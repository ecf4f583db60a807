//! The analytic network model: Eqs. (1)–(3) of the paper.
//!
//! Given a topology, per-link M/M/1 delay models, offered traffic `r`,
//! and routing variables `φ`, solve:
//!
//! * `t^j_i = r_ij + Σ_k t^j_k φ_kji` — node flows (Eq. 1), by the
//!   forward pass over each destination's routing DAG ([`crate::dag`]);
//! * `f_ik = Σ_j t^j_i φ_ijk` — link flows (Eq. 2);
//! * `D_T = Σ_(i,k) D_ik(f_ik)` — total expected delay (Eq. 3);
//! * `d^j_i = Σ_k φ_ijk (T_ik(f_ik) + d^j_k)` — expected per-packet
//!   delay from `i` to `j`, the quantity the paper's figures plot per
//!   flow: the backward pass with `σ ≡ 1` and `w_l = T_l(f_l)`.

use crate::dag::{row_starts, Dag, Reach};
use crate::vars::RoutingVars;
use mdr_net::{LinkDelayModel, Mm1, NodeId, Topology, TrafficMatrix};
use std::fmt;

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// The routing graph for a destination contains a cycle — Eq. 1 has
    /// no finite solution by forward substitution and, per the paper,
    /// "even temporary loops cause traffic to recirculate".
    CyclicRouting(NodeId),
    /// A commodity has offered traffic but no route at some node.
    NoRoute { at: NodeId, dst: NodeId },
    /// Model count does not match the topology's link count.
    ModelCountMismatch,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::CyclicRouting(j) => write!(f, "routing graph for {j} is cyclic"),
            EvalError::NoRoute { at, dst } => write!(f, "no route at {at} toward {dst}"),
            EvalError::ModelCountMismatch => write!(f, "one delay model per link required"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Results of evaluating routing variables against traffic.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// `f_ik` per directed link id.
    pub link_flow: Vec<f64>,
    /// `t^j_i`: `node_flow[j][i]`. At the destination, `node_flow[j][j]`
    /// is the rate delivered to `j`; a destination without traffic has
    /// a row of zeros.
    pub node_flow: Vec<Vec<f64>>,
    /// `D_T` (Eq. 3), in (packets/s)·s summed over links.
    pub total_delay: f64,
    /// Expected per-packet delay of each flow in the traffic matrix, in
    /// the matrix's insertion order (the paper's per-flow series), in
    /// seconds; `f64::INFINITY` for a flow with no route.
    pub flow_delays: Vec<f64>,
    /// Highest link utilization `f_ik / C_ik`.
    pub max_utilization: f64,
}

impl Evaluation {
    /// Mean of the per-flow delays (the network-wide summary used when a
    /// single number is needed).
    pub fn mean_flow_delay(&self) -> f64 {
        if self.flow_delays.is_empty() {
            return 0.0;
        }
        self.flow_delays.iter().sum::<f64>() / self.flow_delays.len() as f64
    }
}

/// Write `dag` from `vars` toward `j` and order it: router `i`'s row is
/// its φ entries toward `j`, less any toward a non-neighbour (which
/// [`evaluate`] reports as [`EvalError::NoRoute`] where it carries
/// traffic).
fn opt_dag(
    topo: &Topology,
    row: &[u32],
    vars: &RoutingVars,
    j: NodeId,
    dag: &mut Dag,
    indeg: &mut Vec<u32>,
) -> Result<(), EvalError> {
    for i in topo.nodes() {
        let pairs = if i == j { &[] } else { vars.get(i, j) };
        let edges =
            pairs.iter().filter_map(|&(k, share)| Some((k.0, topo.link_between(i, k)?.0, share)));
        dag.set_row(row, i.index(), edges);
    }
    dag.reorder(row, indeg);
    if dag.is_acyclic() {
        Ok(())
    } else {
        Err(EvalError::CyclicRouting(j))
    }
}

/// Marginal distances `δ^j_i = ∂D_T/∂r_ij` (Eq. 5) toward each of
/// `dests`, as `[slot][i]`: the backward pass with `σ ≡ 1` and
/// `w_l = D'_l(f_l)` (`link_marginal`), `δ = m/p`, and `f64::INFINITY`
/// where `p = 0`. A node that reaches `j` only in part gets the
/// conditional mean; only a hand-built φ makes one — its dead end then
/// carries no traffic, since [`evaluate`] rejects one that does, and
/// Gallager's solver starts fully routed and moves traffic only toward
/// finite δ.
pub(crate) fn deltas(
    topo: &Topology,
    vars: &RoutingVars,
    link_marginal: &[f64],
    dests: &[NodeId],
) -> Result<Vec<Vec<f64>>, EvalError> {
    let n = topo.node_count();
    let row = row_starts(topo);
    let (mut dag, mut indeg) = (Dag::new(n, topo.link_count()), Vec::new());
    let ones = vec![1.0; topo.link_count()];
    let mut reach = Reach::new(n);
    let mut out = Vec::with_capacity(dests.len());
    for &j in dests {
        opt_dag(topo, &row, vars, j, &mut dag, &mut indeg)?;
        dag.backward(&row, j.index(), &ones, link_marginal, &mut reach);
        out.push((0..n).map(|i| reach.mean(i)).collect());
    }
    Ok(out)
}

/// Evaluate routing variables (see module docs). `models[id]` is the
/// delay model of `topo.links()[id]`.
pub fn evaluate(
    topo: &Topology,
    models: &[Mm1],
    traffic: &TrafficMatrix,
    vars: &RoutingVars,
) -> Result<Evaluation, EvalError> {
    let (n, links) = (topo.node_count(), topo.link_count());
    if models.len() != links {
        return Err(EvalError::ModelCountMismatch);
    }
    let row = row_starts(topo);
    let mut indeg = Vec::new();
    // Every destination of a flow, zero-rate flows included: each needs
    // its DAG again for the flow delays.
    let mut dests: Vec<NodeId> = traffic.flows().iter().map(|f| f.dst).collect();
    dests.sort_unstable();
    dests.dedup();
    let mut dags = vec![Dag::new(n, links); dests.len()];

    // Forward passes (Eqs. 1-2), for destinations with traffic.
    let mut link_flow = vec![0.0; links];
    let mut node_flow = vec![vec![0.0; n]; n];
    for (&j, dag) in dests.iter().zip(&mut dags) {
        let ordered = opt_dag(topo, &row, vars, j, dag, &mut indeg);
        let t = &mut node_flow[j.index()];
        for i in topo.nodes() {
            t[i.index()] = traffic.rate(i, j);
        }
        if t.iter().all(|&r| r <= 0.0) {
            continue;
        }
        ordered?;
        dag.forward(&row, t, |l, push| link_flow[l] += push);
        let dead_end = topo.nodes().find(|&i| {
            let routed = dag.row(&row, i.index()).len();
            i != j && t[i.index()] > 0.0 && (routed == 0 || routed < vars.get(i, j).len())
        });
        if let Some(at) = dead_end {
            return Err(EvalError::NoRoute { at, dst: j });
        }
    }

    // Total delay and per-packet link delays.
    let mut total_delay = 0.0;
    let mut max_utilization: f64 = 0.0;
    let mut link_pkt_delay = vec![0.0; links];
    for (id, l) in topo.links().iter().enumerate() {
        let f = link_flow[id];
        total_delay += models[id].rate_delay(f);
        link_pkt_delay[id] = models[id].packet_delay(f);
        max_utilization = max_utilization.max(f / l.capacity);
    }

    // Per-flow delays: one backward pass per destination. A cyclic DAG
    // that carries no traffic leaves its flows at INFINITY.
    let ones = vec![1.0; links];
    let mut reach = Reach::new(n);
    let mut flow_delays = vec![f64::INFINITY; traffic.flows().len()];
    for (&j, dag) in dests.iter().zip(&dags) {
        if !dag.is_acyclic() {
            continue;
        }
        dag.backward(&row, j.index(), &ones, &link_pkt_delay, &mut reach);
        for (d, f) in flow_delays.iter_mut().zip(traffic.flows()) {
            if f.dst == j {
                *d = reach.mean(f.src.index());
            }
        }
    }

    Ok(Evaluation { link_flow, node_flow, total_delay, flow_delays, max_utilization })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_net::{Flow, NodeId, TopologyBuilder};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Two-node network, one link.
    fn simple() -> (Topology, Vec<Mm1>) {
        let t = TopologyBuilder::new().nodes(2).bidi(n(0), n(1), 10.0, 0.5).build().unwrap();
        let m = t.links().iter().map(|l| Mm1::unit_packets(l.capacity, l.prop_delay)).collect();
        (t, m)
    }

    #[test]
    fn single_link_flow_and_delay() {
        let (t, m) = simple();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(1), 4.0)]).unwrap();
        let mut v = RoutingVars::new(2);
        v.set(n(0), n(1), vec![(n(1), 1.0)]);
        let e = evaluate(&t, &m, &traffic, &v).unwrap();
        let lid = t.link_between(n(0), n(1)).unwrap();
        assert!((e.link_flow[lid.index()] - 4.0).abs() < 1e-12);
        // Packet delay = 1/(C-f) + tau = 1/6 + 0.5.
        let expect = 1.0 / 6.0 + 0.5;
        assert!((e.flow_delays[0] - expect).abs() < 1e-12);
        // D_T = f/(C-f) + tau*f = 4/6 + 2.
        assert!((e.total_delay - (4.0 / 6.0 + 2.0)).abs() < 1e-12);
        assert!((e.max_utilization - 0.4).abs() < 1e-12);
    }

    /// Diamond: 0 → {1,2} → 3 with a 50/50 split.
    fn diamond() -> (Topology, Vec<Mm1>) {
        let t = TopologyBuilder::new()
            .nodes(4)
            .bidi(n(0), n(1), 10.0, 0.1)
            .bidi(n(0), n(2), 10.0, 0.1)
            .bidi(n(1), n(3), 10.0, 0.1)
            .bidi(n(2), n(3), 10.0, 0.1)
            .build()
            .unwrap();
        let m = t.links().iter().map(|l| Mm1::unit_packets(l.capacity, l.prop_delay)).collect();
        (t, m)
    }

    #[test]
    fn multipath_split_halves_link_flows() {
        let (t, m) = diamond();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(3), 6.0)]).unwrap();
        let mut v = RoutingVars::new(4);
        v.set(n(0), n(3), vec![(n(1), 0.5), (n(2), 0.5)]);
        v.set(n(1), n(3), vec![(n(3), 1.0)]);
        v.set(n(2), n(3), vec![(n(3), 1.0)]);
        let e = evaluate(&t, &m, &traffic, &v).unwrap();
        let l01 = t.link_between(n(0), n(1)).unwrap();
        let l13 = t.link_between(n(1), n(3)).unwrap();
        assert!((e.link_flow[l01.index()] - 3.0).abs() < 1e-12);
        assert!((e.link_flow[l13.index()] - 3.0).abs() < 1e-12);
        // Delay identical on both 2-hop paths: 2*(1/7 + 0.1).
        let expect = 2.0 * (1.0 / 7.0 + 0.1);
        assert!((e.flow_delays[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn splitting_beats_single_path_under_load() {
        let (t, m) = diamond();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(3), 8.0)]).unwrap();
        let mut sp = RoutingVars::new(4);
        sp.set(n(0), n(3), vec![(n(1), 1.0)]);
        sp.set(n(1), n(3), vec![(n(3), 1.0)]);
        let mut mp = sp.clone();
        mp.set(n(0), n(3), vec![(n(1), 0.5), (n(2), 0.5)]);
        mp.set(n(2), n(3), vec![(n(3), 1.0)]);
        let esp = evaluate(&t, &m, &traffic, &sp).unwrap();
        let emp = evaluate(&t, &m, &traffic, &mp).unwrap();
        assert!(
            emp.flow_delays[0] < esp.flow_delays[0] / 2.0,
            "mp {} vs sp {}",
            emp.flow_delays[0],
            esp.flow_delays[0]
        );
        assert!(emp.total_delay < esp.total_delay);
    }

    #[test]
    fn cyclic_routing_detected() {
        let t = TopologyBuilder::new()
            .nodes(3)
            .bidi(n(0), n(1), 10.0, 0.1)
            .bidi(n(1), n(2), 10.0, 0.1)
            .bidi(n(2), n(0), 10.0, 0.1)
            .build()
            .unwrap();
        let m: Vec<Mm1> =
            t.links().iter().map(|l| Mm1::unit_packets(l.capacity, l.prop_delay)).collect();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(2), 1.0)]).unwrap();
        let mut v = RoutingVars::new(3);
        v.set(n(0), n(2), vec![(n(1), 1.0)]);
        v.set(n(1), n(2), vec![(n(0), 1.0)]); // loop 0 <-> 1
        assert_eq!(evaluate(&t, &m, &traffic, &v).unwrap_err(), EvalError::CyclicRouting(n(2)));
    }

    #[test]
    fn missing_route_detected() {
        let (t, m) = simple();
        let traffic = TrafficMatrix::from_flows(&t, &[Flow::new(n(0), n(1), 1.0)]).unwrap();
        let v = RoutingVars::new(2); // no routes at all
        assert_eq!(
            evaluate(&t, &m, &traffic, &v).unwrap_err(),
            EvalError::NoRoute { at: n(0), dst: n(1) }
        );
    }

    #[test]
    fn model_count_checked() {
        let (t, _) = simple();
        let traffic = TrafficMatrix::empty(2);
        let v = RoutingVars::new(2);
        assert_eq!(evaluate(&t, &[], &traffic, &v).unwrap_err(), EvalError::ModelCountMismatch);
    }

    #[test]
    fn zero_traffic_zero_delay() {
        let (t, m) = simple();
        let traffic = TrafficMatrix::empty(2);
        let v = RoutingVars::new(2);
        let e = evaluate(&t, &m, &traffic, &v).unwrap();
        assert_eq!(e.total_delay, 0.0);
        assert_eq!(e.max_utilization, 0.0);
        assert!(e.flow_delays.is_empty());
    }

    #[test]
    fn relayed_traffic_accumulates() {
        // Line 0-1-2: two flows 0→2 and 1→2 share link 1→2.
        let t = TopologyBuilder::new()
            .nodes(3)
            .bidi(n(0), n(1), 10.0, 0.1)
            .bidi(n(1), n(2), 10.0, 0.1)
            .build()
            .unwrap();
        let m: Vec<Mm1> =
            t.links().iter().map(|l| Mm1::unit_packets(l.capacity, l.prop_delay)).collect();
        let traffic = TrafficMatrix::from_flows(
            &t,
            &[Flow::new(n(0), n(2), 2.0), Flow::new(n(1), n(2), 3.0)],
        )
        .unwrap();
        let mut v = RoutingVars::new(3);
        v.set(n(0), n(2), vec![(n(1), 1.0)]);
        v.set(n(1), n(2), vec![(n(2), 1.0)]);
        let e = evaluate(&t, &m, &traffic, &v).unwrap();
        let l12 = t.link_between(n(1), n(2)).unwrap();
        assert!((e.link_flow[l12.index()] - 5.0).abs() < 1e-12);
        // t^2_1 = r_12 + t from 0 = 3 + 2.
        assert!((e.node_flow[2][1] - 5.0).abs() < 1e-12);
        // At the destination: the rate delivered to it. Elsewhere a
        // destination without traffic has a row of zeros.
        assert!((e.node_flow[2][2] - 5.0).abs() < 1e-12);
        assert!(e.node_flow[0].iter().chain(&e.node_flow[1]).all(|&t| t == 0.0));
    }
}
