//! `Dag::build_reached` against the whole build: on seeded random
//! loop-free DAGs over BA graphs, with garbage left in every row the
//! roots do not reach, the backward pass must give the whole build's
//! `p`, `proute` and `m` bit for bit at every reached node, and the order
//! must hold exactly the reached nodes, each before its successors. A
//! cycle planted where a root reaches it must be reported, and the whole
//! build the caller then falls back to must equal a fresh one.
//! `Dag::backward_from` on the whole build is held to the same: the
//! whole pass's values at every reached node, each reached row summed
//! once, nothing else written, and a reached cycle reported.

use mdr_net::{gen, NodeId, Topology};
use mdr_opt::dag::{row_starts, Dag, Edge, Reach};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random DAG toward `j`: each node ranks randomly, and a row holds a
/// random subset of the links to lower-ranked neighbours (some rows
/// empty: dead ends) with random shares; `j`'s row is empty.
fn random_rows(t: &Topology, j: usize, rng: &mut SmallRng) -> Vec<Vec<Edge>> {
    let rank: Vec<u32> = (0..t.node_count()).map(|_| rng.gen()).collect();
    (0..t.node_count())
        .map(|i| {
            if i == j {
                return Vec::new();
            }
            let mut edges = Vec::new();
            for (lid, l) in t.out_links(NodeId(i as u32)) {
                if rank[l.to.index()] < rank[i] && rng.gen_bool(0.7) {
                    edges.push((l.to.0, lid.0, rng.gen_range(0.05..1.0)));
                }
            }
            edges
        })
        .collect()
}

/// `rows` built whole into a fresh DAG.
fn whole(t: &Topology, row: &[u32], rows: &[Vec<Edge>]) -> Dag {
    let mut dag = Dag::new(t.node_count(), t.link_count());
    for (i, r) in rows.iter().enumerate() {
        dag.set_row(row, i, r.iter().copied());
    }
    dag.reorder(row, &mut Vec::new());
    dag
}

/// A DAG whose rows (and order) are leftovers: random edges over the
/// right links, cycles and all.
fn garbage(t: &Topology, row: &[u32], rng: &mut SmallRng) -> Dag {
    let mut dag = Dag::new(t.node_count(), t.link_count());
    for i in 0..t.node_count() {
        let mut edges = Vec::new();
        for (lid, l) in t.out_links(NodeId(i as u32)) {
            if rng.gen_bool(0.6) {
                edges.push((l.to.0, lid.0, rng.gen_range(-1.0..2.0)));
            }
        }
        dag.set_row(row, i, edges);
    }
    dag.reorder(row, &mut Vec::new());
    dag
}

/// Nodes reachable from `roots` along `rows`.
fn reachable(rows: &[Vec<Edge>], roots: &[usize]) -> Vec<bool> {
    let mut seen = vec![false; rows.len()];
    let mut stack: Vec<usize> = roots.to_vec();
    while let Some(i) = stack.pop() {
        if !std::mem::replace(&mut seen[i], true) {
            stack.extend(rows[i].iter().map(|e| e.0 as usize));
        }
    }
    seen
}

struct Case {
    t: Topology,
    row: Vec<u32>,
    j: usize,
    rows: Vec<Vec<Edge>>,
    roots: Vec<usize>,
    sigma: Vec<f64>,
    w: Vec<f64>,
}

fn case(seed: u64) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = gen::barabasi_albert(rng.gen_range(5..40), rng.gen_range(1..4), seed);
    let n = t.node_count();
    let row = row_starts(&t);
    let j = rng.gen_range(0..n);
    let rows = random_rows(&t, j, &mut rng);
    // A few roots, repeats and the destination among them at times.
    let roots = (0..rng.gen_range(1..6)).map(|_| rng.gen_range(0..n)).collect();
    let sigma =
        (0..t.link_count()).map(|_| if rng.gen_bool(0.3) { 1.0 } else { rng.gen() }).collect();
    let w = (0..t.link_count()).map(|_| rng.gen_range(1e-4..1e-1)).collect();
    Case { t, row, j, rows, roots, sigma, w }
}

fn bits(r: &Reach, i: usize) -> [u64; 3] {
    [r.p[i].to_bits(), r.proute[i].to_bits(), r.m[i].to_bits()]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

    #[test]
    fn reached_build_equals_the_whole_build(seed in any::<u64>()) {
        let c = case(seed);
        let n = c.t.node_count();
        let mut rng = SmallRng::seed_from_u64(!seed);
        let want_dag = whole(&c.t, &c.row, &c.rows);
        prop_assert!(want_dag.is_acyclic());
        let mut want = Reach::new(n);
        want_dag.backward(&c.row, c.j, &c.sigma, &c.w, &mut want);

        let mut dag = garbage(&c.t, &c.row, &mut rng);
        let mut written = vec![0; n];
        let ok = dag.build_reached(&c.row, c.roots.iter().copied(), |d, i| {
            written[i] += 1;
            d.set_row(&c.row, i, c.rows[i].iter().copied());
        });
        prop_assert!(ok && dag.order_ok());
        let reached = reachable(&c.rows, &c.roots);
        for i in 0..n {
            prop_assert_eq!(written[i], usize::from(reached[i]), "row {} written", i);
        }
        let mut pos = vec![usize::MAX; n];
        for (at, &i) in dag.order().iter().enumerate() {
            prop_assert_eq!(pos[i as usize], usize::MAX, "{} twice in the order", i);
            pos[i as usize] = at;
        }
        for i in (0..n).filter(|&i| reached[i]) {
            for &(k, _, _) in dag.row(&c.row, i) {
                prop_assert!(pos[i] < pos[k as usize], "{} → {} out of order", i, k);
            }
        }
        prop_assert_eq!(dag.order().len(), reached.iter().filter(|&&r| r).count());

        let mut got = Reach::new(n);
        dag.backward(&c.row, c.j, &c.sigma, &c.w, &mut got);
        for i in (0..n).filter(|&i| reached[i]) {
            prop_assert_eq!(bits(&got, i), bits(&want, i), "node {}", i);
        }
    }

    #[test]
    fn a_walk_from_the_roots_equals_the_whole_backward_pass(seed in any::<u64>()) {
        let c = case(seed);
        let n = c.t.node_count();
        let mut dag = whole(&c.t, &c.row, &c.rows);
        prop_assert!(dag.is_acyclic());
        let mut want = Reach::new(n);
        prop_assert_eq!(dag.backward(&c.row, c.j, &c.sigma, &c.w, &mut want), n as u64 - 1);
        let stale = Reach { p: vec![f64::NAN; n], proute: vec![-1.0; n], m: vec![7.0; n] };
        let mut got = stale.clone();
        let roots = c.roots.iter().copied();
        let rows = dag.backward_from(&c.row, c.j, roots, &c.sigma, &c.w, &mut got);
        let reached = reachable(&c.rows, &c.roots);
        let met = (0..n).filter(|&i| reached[i] && i != c.j).count() as u64;
        prop_assert_eq!(rows, Some(met));
        for (i, &r) in reached.iter().enumerate() {
            let want = if r || i == c.j { &want } else { &stale };
            prop_assert_eq!(bits(&got, i), bits(want, i), "node {}", i);
        }
    }

    #[test]
    fn a_reached_cycle_is_reported_and_the_whole_build_stands(seed in any::<u64>()) {
        let mut c = case(seed);
        let n = c.t.node_count();
        let mut rng = SmallRng::seed_from_u64(!seed);
        // Plant `k → r` below a root `r` with `r → k`: the link back is
        // free in `k`'s row, since `k` ranks below `r`.
        let Some(&r) = c.roots.iter().find(|&&r| !c.rows[r].is_empty()) else {
            return Ok(());
        };
        let k = c.rows[r][0].0 as usize;
        let back = c.t.link_between(NodeId(k as u32), NodeId(r as u32)).unwrap();
        c.rows[k].push((r as u32, back.0, 0.5));

        let mut dag = garbage(&c.t, &c.row, &mut rng);
        let ok = dag.build_reached(&c.row, c.roots.iter().copied(), |d, i| {
            d.set_row(&c.row, i, c.rows[i].iter().copied());
        });
        prop_assert!(!ok && !dag.order_ok());
        // The fallback: every row, then the Kahn order.
        for i in 0..n {
            dag.set_row(&c.row, i, c.rows[i].iter().copied());
        }
        dag.reorder(&c.row, &mut Vec::new());
        let fresh = whole(&c.t, &c.row, &c.rows);
        prop_assert!(!fresh.is_acyclic());
        // The walk never reads `j`'s row, so it misses a cycle through `j`.
        let mut walked = Reach::new(n);
        let roots = c.roots.iter().copied();
        let rows = fresh.clone().backward_from(&c.row, c.j, roots, &c.sigma, &c.w, &mut walked);
        prop_assert!(rows.is_none() || k == c.j);
        prop_assert_eq!(dag.order(), fresh.order());
        let (mut got, mut want) = (Reach::new(n), Reach::new(n));
        dag.backward(&c.row, c.j, &c.sigma, &c.w, &mut got);
        fresh.backward(&c.row, c.j, &c.sigma, &c.w, &mut want);
        for i in 0..n {
            prop_assert_eq!(bits(&got, i), bits(&want, i), "node {}", i);
        }
    }
}

/// `set_row` reports a change exactly when the row's length, a next
/// hop, a link or a share's bits moved, and keeps the order current
/// only while the next hops stand.
#[test]
fn set_row_reports_exactly_a_changed_row() {
    let t = gen::barabasi_albert(6, 2, 3);
    let row = row_starts(&t);
    let i = (0..t.node_count()).find(|&i| t.degree(NodeId(i as u32)) >= 2).unwrap();
    let out: Vec<Edge> =
        t.out_links(NodeId(i as u32)).map(|(lid, l)| (l.to.0, lid.0, 0.5)).take(2).collect();
    let mut dag = Dag::new(t.node_count(), t.link_count());
    assert!(!dag.set_row(&row, i, []), "an empty row stays empty");
    assert!(dag.set_row(&row, i, out.clone()));
    dag.reorder(&row, &mut Vec::new());
    assert!(!dag.set_row(&row, i, out.clone()) && dag.order_ok(), "the same edges");
    let (k, l, w) = out[1];
    let second = |e: Edge| vec![out[0], e];
    let nudged = f64::from_bits(w.to_bits() + 1);
    assert!(dag.set_row(&row, i, second((k, l, nudged))) && dag.order_ok(), "a share's bits");
    assert!(dag.set_row(&row, i, second((k, out[0].1, w))) && dag.order_ok(), "a link");
    assert!(dag.set_row(&row, i, out.clone()) && dag.order_ok());
    assert!(dag.set_row(&row, i, out[..1].iter().copied()) && !dag.order_ok(), "shorter");
    dag.reorder(&row, &mut Vec::new());
    assert!(dag.set_row(&row, i, [out[1], out[0]]) && !dag.order_ok(), "the next hops");
}

/// The cases above are not vacuous: most leave rows unreached, and most
/// can plant a cycle.
#[test]
fn the_generator_leaves_rows_unreached() {
    let (mut partial, mut plantable) = (0, 0);
    for seed in 0..2000 {
        let c = case(seed);
        let reached = reachable(&c.rows, &c.roots);
        partial += usize::from(reached.iter().any(|&r| !r));
        plantable += usize::from(c.roots.iter().any(|&r| !c.rows[r].is_empty()));
    }
    assert!(partial > 1500 && plantable > 1000, "{partial} partial, {plantable} plantable");
}
