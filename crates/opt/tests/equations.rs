//! The solver checked against the paper's equations themselves, not
//! against another implementation of them: on seeded random loop-free
//! φ over NET1, CAIRN and BA-60, [`evaluate`] must satisfy flow
//! conservation (Eqs. 1–2), `D_T = Σ D_ik(f_ik)` (Eq. 3) and the
//! per-pair delay recursion, and the backward pass with `w = D'` must
//! satisfy Eq. 5's recursion for `δ`. A cyclic φ and a dead end that
//! carries traffic must be refused.

use mdr_net::{topo, Flow, LinkDelayModel, Mm1, NodeId, Topology, TrafficMatrix};
use mdr_opt::dag::{row_starts, Dag, Reach};
use mdr_opt::{evaluate, shortest_path_vars, EvalError, RoutingVars};
use mdr_routing::{dijkstra, TopoTable};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn models_of(t: &Topology) -> Vec<Mm1> {
    t.links().iter().map(|l| Mm1::new(l.capacity, l.prop_delay, 1000.0)).collect()
}

fn network(which: usize) -> Topology {
    match which {
        0 => topo::net1(),
        1 => topo::cairn(),
        _ => mdr_net::gen::barabasi_albert(60, 2, 11),
    }
}

/// Shortest-path φ at idle marginal costs, then at random `(i, j)` a
/// random split over the neighbours strictly closer to `j` on those
/// costs. Every edge descends the distance to `j`, so every
/// destination's routing graph is a DAG.
fn random_vars(t: &Topology, models: &[Mm1], rng: &mut SmallRng) -> RoutingVars {
    let mut vars = shortest_path_vars(t, models);
    let reversed: TopoTable =
        t.links().iter().zip(models).map(|(l, m)| (l.to, l.from, m.marginal_delay(0.0))).collect();
    for j in t.nodes() {
        let to_j = dijkstra(t.node_count(), &reversed, j).dist;
        for i in t.nodes() {
            if i == j || rng.gen_bool(0.5) {
                continue;
            }
            let closer: Vec<(NodeId, f64)> = t
                .neighbors(i)
                .filter(|k| to_j[k.index()] < to_j[i.index()])
                .map(|k| (k, rng.gen_range(0.05..1.0)))
                .collect();
            vars.set(i, j, closer);
        }
    }
    vars
}

/// A few loaded flows, then a zero-rate flow for every ordered pair, so
/// `flow_delays` reads `d^j_i` for all of them.
fn flows_of(t: &Topology, rng: &mut SmallRng) -> (Vec<Flow>, usize) {
    let n = t.node_count() as u32;
    let mut flows = Vec::new();
    while flows.len() < 8 {
        let (s, d) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
        if s != d {
            flows.push(Flow::new(s, d, rng.gen_range(1.0e5..1.5e6)));
        }
    }
    let loaded = flows.len();
    for j in t.nodes() {
        flows.extend(t.nodes().filter(|&i| i != j).map(|i| Flow::new(i, j, 0.0)));
    }
    (flows, loaded)
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1e-300)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn evaluate_satisfies_eqs_1_to_3_and_the_delay_recursion(
        which in 0usize..3,
        seed in any::<u64>(),
    ) {
        let t = network(which);
        let models = models_of(&t);
        let mut rng = SmallRng::seed_from_u64(seed);
        let vars = random_vars(&t, &models, &mut rng);
        let (flows, loaded) = flows_of(&t, &mut rng);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let e = evaluate(&t, &models, &traffic, &vars).unwrap();

        // Eq. 1 at every node, and Eq. 2 on every link.
        let mut f = vec![0.0; t.link_count()];
        for j in t.nodes() {
            let tj = &e.node_flow[j.index()];
            let mut inflow = vec![0.0; t.node_count()];
            for i in t.nodes().filter(|&i| i != j) {
                for &(k, phi) in vars.get(i, j) {
                    inflow[k.index()] += tj[i.index()] * phi;
                    f[t.link_between(i, k).unwrap().index()] += tj[i.index()] * phi;
                }
            }
            for i in t.nodes() {
                let (got, want) = (tj[i.index()], traffic.rate(i, j) + inflow[i.index()]);
                prop_assert!(close(got, want, 1e-9), "t^{j}_{i} = {got} vs {want}");
            }
            // Everything offered toward j is delivered there.
            let offered: f64 = t.nodes().map(|i| traffic.rate(i, j)).sum();
            prop_assert!(close(tj[j.index()], offered, 1e-9));
        }
        for (l, (&got, &want)) in e.link_flow.iter().zip(&f).enumerate() {
            prop_assert!(close(got, want, 1e-9), "f_{l} = {got} vs {want}");
        }

        // Eq. 3 on the link flows of Eq. 2.
        let dt: f64 = f.iter().zip(&models).map(|(&f, m)| m.rate_delay(f)).sum();
        prop_assert!(close(e.total_delay, dt, 1e-9), "D_T {} vs {dt}", e.total_delay);

        // d^j_i = Σ_k φ_ijk (T_ik + d^j_k), from the zero-rate flows.
        let mut d = vec![vec![0.0; t.node_count()]; t.node_count()];
        for (fl, &delay) in flows.iter().zip(&e.flow_delays).skip(loaded) {
            d[fl.dst.index()][fl.src.index()] = delay;
        }
        for fl in &flows[loaded..] {
            let (i, j) = (fl.src, fl.dst);
            let rhs: f64 = vars
                .get(i, j)
                .iter()
                .map(|&(k, phi)| {
                    let l = t.link_between(i, k).unwrap().index();
                    phi * (models[l].packet_delay(e.link_flow[l]) + d[j.index()][k.index()])
                })
                .sum();
            prop_assert!(close(d[j.index()][i.index()], rhs, 1e-12), "d^{j}_{i} residual");
        }
        // The loaded flows read the same d as the zero-rate ones.
        for (fl, &delay) in flows.iter().zip(&e.flow_delays).take(loaded) {
            prop_assert_eq!(delay, d[fl.dst.index()][fl.src.index()]);
        }
    }

    #[test]
    fn backward_pass_satisfies_eq_5(which in 0usize..3, seed in any::<u64>()) {
        let t = network(which);
        let models = models_of(&t);
        let mut rng = SmallRng::seed_from_u64(seed);
        let vars = random_vars(&t, &models, &mut rng);
        let (flows, _) = flows_of(&t, &mut rng);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let e = evaluate(&t, &models, &traffic, &vars).unwrap();
        let marginal: Vec<f64> =
            e.link_flow.iter().zip(&models).map(|(&f, m)| m.marginal_delay(f)).collect();

        let (n, row) = (t.node_count(), row_starts(&t));
        let (mut dag, mut reach) = (Dag::new(n, t.link_count()), Reach::new(n));
        let mut indeg = Vec::new();
        let ones = vec![1.0; t.link_count()];
        for j in t.nodes() {
            for i in t.nodes() {
                let pairs = if i == j { &[][..] } else { vars.get(i, j) };
                let edge = |&(k, phi): &(NodeId, f64)| (k.0, t.link_between(i, k).unwrap().0, phi);
                dag.set_row(&row, i.index(), pairs.iter().map(edge));
            }
            dag.reorder(&row, &mut indeg);
            prop_assert!(dag.is_acyclic());
            dag.backward(&row, j.index(), &ones, &marginal, &mut reach);
            let delta: Vec<f64> = (0..n).map(|i| reach.mean(i)).collect();
            prop_assert_eq!(delta[j.index()], 0.0);
            for i in t.nodes().filter(|&i| i != j) {
                let rhs: f64 = vars
                    .get(i, j)
                    .iter()
                    .map(|&(k, phi)| {
                        let l = t.link_between(i, k).unwrap().index();
                        phi * (marginal[l] + delta[k.index()])
                    })
                    .sum();
                prop_assert!(close(delta[i.index()], rhs, 1e-12), "δ^{j}_{i} residual");
            }
        }
    }

    #[test]
    fn cycles_and_loaded_dead_ends_are_refused(which in 0usize..3, seed in any::<u64>()) {
        let t = network(which);
        let models = models_of(&t);
        let mut rng = SmallRng::seed_from_u64(seed);
        let vars = random_vars(&t, &models, &mut rng);
        let (flows, loaded) = flows_of(&t, &mut rng);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let Flow { src, dst, .. } = flows[rng.gen_range(0..loaded)];

        // Turn the flow's first hop k back toward its source: src ⇄ k.
        let k = vars.get(src, dst)[0].0;
        if k != dst {
            let mut cyclic = vars.clone();
            let mut back = cyclic.get(k, dst).to_vec();
            back.push((src, 0.5));
            cyclic.set(k, dst, back);
            prop_assert_eq!(
                evaluate(&t, &models, &traffic, &cyclic).unwrap_err(),
                EvalError::CyclicRouting(dst)
            );
        }

        let mut dead = vars.clone();
        dead.set(src, dst, Vec::new());
        prop_assert_eq!(
            evaluate(&t, &models, &traffic, &dead).unwrap_err(),
            EvalError::NoRoute { at: src, dst }
        );
    }
}
