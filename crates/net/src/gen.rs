//! Seeded internet-scale topology and traffic generators.
//!
//! The paper evaluates MPDA on CAIRN (8 routers) and NET1 (~20); this
//! module generates the topologies needed to test the scaling story —
//! fat-trees (k = 4..32, up to ~9.5k routers), Barabási–Albert
//! scale-free graphs, and two-tier ISP backbone+access networks — plus
//! traffic-matrix generators (gravity model, elephant/mice mixes,
//! flash-crowd schedules). Everything is seeded and deterministic: the
//! same `(parameters, seed)` pair always yields a byte-identical
//! topology and flow list (pinned by `tests/gen_proptest.rs`).
//!
//! Link capacities stay at the paper's evaluation capacity
//! ([`EVAL_CAPACITY`], 10 Mb/s) and propagation delays at the CAIRN
//! millisecond scale, so generated networks are "the paper's network,
//! scaled up" rather than a new parameter regime.

use crate::graph::{Topology, TopologyBuilder};
use crate::ids::NodeId;
use crate::topo::EVAL_CAPACITY;
use crate::traffic::Flow;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Propagation delay of host/access links (matches CAIRN's LOCAL links).
pub const DELAY_ACCESS: f64 = 0.0005;
/// Propagation delay of intra-pod / metro links.
pub const DELAY_METRO: f64 = 0.002;
/// Propagation delay of core / wide-area links (matches CAIRN's
/// transatlantic scale).
pub const DELAY_CORE: f64 = 0.003;

/// Closed-form node count of a `k`-ary fat-tree: `k³/4` hosts plus
/// `5k²/4` switches (`(k/2)²` core + `k²/2` aggregation + `k²/2` edge).
pub fn fat_tree_nodes(k: usize) -> usize {
    k * k * k / 4 + 5 * k * k / 4
}

/// Closed-form count of physical (bidirectional) links in a `k`-ary
/// fat-tree: `3k³/4` — `k³/4` each for core↔agg, agg↔edge, edge↔host.
pub fn fat_tree_physical_links(k: usize) -> usize {
    3 * k * k * k / 4
}

/// `k`-ary fat-tree (Al-Fares et al. wiring): `k` pods of `k/2` edge and
/// `k/2` aggregation switches, `(k/2)²` core switches, `k/2` hosts per
/// edge switch. `k` must be even and in `4..=32` (k = 32 ≈ 9.5k nodes).
///
/// Node order (stable, index-computable): core `(k/2)²`, then per pod
/// its aggregation switches, then its edge switches, then all hosts.
/// The wiring is fully determined by `k` — no randomness.
pub fn fat_tree(k: usize) -> Topology {
    assert!(
        (4..=32).contains(&k) && k.is_multiple_of(2),
        "fat-tree arity must be even and in 4..=32"
    );
    let half = k / 2;
    let n_core = half * half;
    let n_agg = k * half;
    let n_edge = k * half;
    let core = |i: usize, j: usize| NodeId((i * half + j) as u32);
    let agg = |pod: usize, a: usize| NodeId((n_core + pod * half + a) as u32);
    let edge = |pod: usize, e: usize| NodeId((n_core + n_agg + pod * half + e) as u32);
    let host = |pod: usize, e: usize, h: usize| {
        NodeId((n_core + n_agg + n_edge + (pod * half + e) * half + h) as u32)
    };

    let mut b = TopologyBuilder::new();
    for i in 0..half {
        for j in 0..half {
            b.add_node(format!("core{i}_{j}"));
        }
    }
    for pod in 0..k {
        for a in 0..half {
            b.add_node(format!("agg{pod}_{a}"));
        }
    }
    for pod in 0..k {
        for e in 0..half {
            b.add_node(format!("edge{pod}_{e}"));
        }
    }
    for pod in 0..k {
        for e in 0..half {
            for h in 0..half {
                b.add_node(format!("host{pod}_{e}_{h}"));
            }
        }
    }
    for pod in 0..k {
        for a in 0..half {
            // Aggregation switch `a` uplinks to core row `a` (one core
            // switch per column), giving every core switch one link per
            // pod and overall core degree exactly `k`.
            for j in 0..half {
                b = b.bidi(agg(pod, a), core(a, j), EVAL_CAPACITY, DELAY_CORE);
            }
            for e in 0..half {
                b = b.bidi(agg(pod, a), edge(pod, e), EVAL_CAPACITY, DELAY_METRO);
            }
        }
        for e in 0..half {
            for h in 0..half {
                b = b.bidi(edge(pod, e), host(pod, e, h), EVAL_CAPACITY, DELAY_ACCESS);
            }
        }
    }
    b.build().expect("fat-tree wiring is valid by construction")
}

/// Hosts of a fat-tree built by [`fat_tree`], ascending — the natural
/// sources/destinations for traffic matrices.
pub fn fat_tree_hosts(k: usize) -> Vec<NodeId> {
    let switches = 5 * k * k / 4;
    (switches..fat_tree_nodes(k)).map(|i| NodeId(i as u32)).collect()
}

/// Barabási–Albert scale-free graph: start from a complete graph on
/// `m + 1` nodes, then attach each new node to `m` distinct existing
/// nodes chosen with probability proportional to their degree. Minimum
/// degree is `m`; a few hubs collect much higher degree, mimicking
/// AS-level internet topologies.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Topology {
    assert!(m >= 1 && n > m + 1, "barabasi_albert needs n > m + 1 and m >= 1");
    let mut rng = SmallRng::seed_from_u64(seed);
    // `targets` holds each node id once per incident edge, so a uniform
    // draw from it is exactly degree-proportional sampling.
    let mut targets: Vec<u32> = Vec::with_capacity(2 * n * m);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let m0 = m + 1;
    for a in 0..m0 as u32 {
        for bb in (a + 1)..m0 as u32 {
            edges.push((a, bb));
            targets.push(a);
            targets.push(bb);
        }
    }
    let mut picked: Vec<u32> = Vec::with_capacity(m);
    for i in m0 as u32..n as u32 {
        picked.clear();
        let mut guard = 0usize;
        while picked.len() < m && guard < 10_000 {
            guard += 1;
            let t = targets[rng.gen_range(0..targets.len())];
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        // The guard only trips in degenerate parameterizations; fall
        // back to the lowest-id nodes not yet picked so the graph stays
        // connected and min-degree holds.
        let mut fill = 0u32;
        while picked.len() < m {
            if !picked.contains(&fill) {
                picked.push(fill);
            }
            fill += 1;
        }
        for &t in &picked {
            edges.push((t, i));
            targets.push(t);
            targets.push(i);
        }
    }
    let mut b = TopologyBuilder::new().nodes(n);
    for (x, y) in edges {
        b = b.bidi(NodeId(x), NodeId(y), EVAL_CAPACITY, DELAY_METRO);
    }
    b.build().expect("BA graph is valid by construction")
}

/// Two-tier ISP topology: a `backbone`-node wide-area core (ring plus
/// seeded random chords, average backbone degree ≈ 4) with `access_per`
/// access routers per backbone node, each dual-homed to its own
/// backbone router and the next one around the ring (so access traffic
/// always has two loop-free exits — the multipath case MPDA targets).
///
/// Node order: backbone `0..backbone`, then access routers grouped by
/// their primary backbone node.
pub fn two_tier_isp(backbone: usize, access_per: usize, seed: u64) -> Topology {
    assert!(backbone >= 3, "two_tier_isp needs at least 3 backbone nodes");
    let mut rng = SmallRng::seed_from_u64(seed);
    let bb = backbone as u32;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..bb {
        edges.push((i.min((i + 1) % bb), i.max((i + 1) % bb)));
    }
    // Chords up to average backbone degree ~4 (ring contributes 2).
    let target = backbone * 2;
    let mut guard = 0usize;
    while edges.len() < target && guard < 100 * target {
        guard += 1;
        let a = rng.gen_range(0..bb);
        let c = rng.gen_range(0..bb);
        if a == c {
            continue;
        }
        let (a, c) = (a.min(c), a.max(c));
        if edges.contains(&(a, c)) {
            continue;
        }
        edges.push((a, c));
    }
    let mut b = TopologyBuilder::new();
    for i in 0..backbone {
        b.add_node(format!("bb{i}"));
    }
    for i in 0..backbone {
        for a in 0..access_per {
            b.add_node(format!("acc{i}_{a}"));
        }
    }
    for (x, y) in edges {
        b = b.bidi(NodeId(x), NodeId(y), EVAL_CAPACITY, DELAY_CORE);
    }
    for i in 0..backbone {
        for a in 0..access_per {
            let acc = NodeId((backbone + i * access_per + a) as u32);
            b = b.bidi(acc, NodeId(i as u32), EVAL_CAPACITY, DELAY_ACCESS);
            b = b.bidi(acc, NodeId(((i + 1) % backbone) as u32), EVAL_CAPACITY, DELAY_METRO);
        }
    }
    b.build().expect("two-tier ISP wiring is valid by construction")
}

/// Gravity-model traffic: each node gets a Pareto-distributed mass and
/// every source originates `flows_per_src` flows whose destinations are
/// drawn mass-proportionally, with rate `∝ mass(src) · mass(dst)`,
/// rescaled so the whole matrix offers exactly `total_rate` bits/s.
/// With `nodes` restricted (e.g. [`fat_tree_hosts`]) only those nodes
/// send or receive. `flows_per_src · |nodes|` can reach millions.
pub fn gravity_flows(
    nodes: &[NodeId],
    flows_per_src: usize,
    total_rate: f64,
    seed: u64,
) -> Vec<Flow> {
    assert!(nodes.len() >= 2, "gravity model needs at least two nodes");
    assert!(total_rate.is_finite() && total_rate > 0.0);
    let mut rng = SmallRng::seed_from_u64(seed);
    // Pareto(α = 1.5) masses: heavy-tailed like real PoP fan-in.
    let masses: Vec<f64> =
        (0..nodes.len()).map(|_| (1.0 - rng.gen::<f64>() * 0.999_999).powf(-1.0 / 1.5)).collect();
    let mut cum: Vec<f64> = Vec::with_capacity(masses.len());
    let mut acc = 0.0;
    for &m in &masses {
        acc += m;
        cum.push(acc);
    }
    let total_mass = acc;
    let mut flows: Vec<Flow> = Vec::with_capacity(nodes.len() * flows_per_src);
    let mut raw_total = 0.0;
    for (si, &src) in nodes.iter().enumerate() {
        for _ in 0..flows_per_src {
            // Mass-weighted destination draw; re-draw self-pairs.
            let mut di = si;
            let mut guard = 0usize;
            while di == si && guard < 1_000 {
                guard += 1;
                let x = rng.gen::<f64>() * total_mass;
                di = cum.partition_point(|&c| c <= x).min(nodes.len() - 1);
            }
            if di == si {
                di = (si + 1) % nodes.len();
            }
            let rate = masses[si] * masses[di];
            raw_total += rate;
            flows.push(Flow::new(src, nodes[di], rate));
        }
    }
    let scale = total_rate / raw_total;
    for f in &mut flows {
        f.rate *= scale;
    }
    flows
}

/// Elephant/mice mix: `num_flows` flows over uniformly random distinct
/// `(src, dst)` pairs where the first ~10% ("elephants") share
/// `elephant_share` of `total_rate` and the remaining mice split the
/// rest — the canonical heavy-tail flow-size mix.
pub fn elephant_mice_flows(
    nodes: &[NodeId],
    num_flows: usize,
    total_rate: f64,
    elephant_share: f64,
    seed: u64,
) -> Vec<Flow> {
    assert!(nodes.len() >= 2 && num_flows >= 1);
    assert!((0.0..=1.0).contains(&elephant_share));
    assert!(total_rate.is_finite() && total_rate > 0.0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_elephant = (num_flows / 10).max(1).min(num_flows);
    let n_mice = num_flows - n_elephant;
    let elephant_rate = total_rate * elephant_share / n_elephant as f64;
    let mice_rate =
        if n_mice == 0 { 0.0 } else { total_rate * (1.0 - elephant_share) / n_mice as f64 };
    let mut flows = Vec::with_capacity(num_flows);
    for i in 0..num_flows {
        let si = rng.gen_range(0..nodes.len());
        let mut di = rng.gen_range(0..nodes.len());
        if di == si {
            di = (di + 1) % nodes.len();
        }
        let rate = if i < n_elephant { elephant_rate } else { mice_rate };
        flows.push(Flow::new(nodes[si], nodes[di], rate));
    }
    flows
}

/// Flash-crowd schedule: every flow destined to `hot_dst` jumps to
/// `multiplier ×` its base rate at `t_start` and reverts at `t_end`.
/// Returns `(time, flow_index, new_rate)` triples sorted by time —
/// `mdr-sim`'s `Scenario::from_rate_schedule` converts them into
/// scenario events (kept as plain tuples here so `mdr-net` stays
/// independent of the simulator).
pub fn flash_crowd_schedule(
    flows: &[Flow],
    hot_dst: NodeId,
    t_start: f64,
    t_end: f64,
    multiplier: f64,
) -> Vec<(f64, usize, f64)> {
    assert!(t_start >= 0.0 && t_end > t_start, "flash crowd needs 0 <= t_start < t_end");
    assert!(multiplier.is_finite() && multiplier >= 0.0);
    let mut sched = Vec::new();
    for (i, f) in flows.iter().enumerate() {
        if f.dst == hot_dst {
            sched.push((t_start, i, f.rate * multiplier));
        }
    }
    for (i, f) in flows.iter().enumerate() {
        if f.dst == hot_dst {
            sched.push((t_end, i, f.rate));
        }
    }
    sched
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_k4_counts_match_closed_form() {
        let t = fat_tree(4);
        assert_eq!(t.node_count(), fat_tree_nodes(4));
        assert_eq!(t.node_count(), 36); // 16 hosts + 20 switches
        assert_eq!(t.link_count(), 2 * fat_tree_physical_links(4));
        assert!(t.is_connected());
        assert_eq!(fat_tree_hosts(4).len(), 16);
    }

    #[test]
    fn fat_tree_degrees() {
        let t = fat_tree(4);
        let hosts = fat_tree_hosts(4);
        for n in t.nodes() {
            let d = t.degree(n);
            if hosts.contains(&n) {
                assert_eq!(d, 1, "host {n:?}");
            } else {
                assert_eq!(d, 4, "switch {n:?} must have degree k");
            }
        }
    }

    #[test]
    fn ba_is_connected_with_min_degree() {
        let t = barabasi_albert(200, 2, 42);
        assert_eq!(t.node_count(), 200);
        assert!(t.is_connected());
        for n in t.nodes() {
            assert!(t.degree(n) >= 2);
        }
    }

    #[test]
    fn two_tier_dual_homing() {
        let t = two_tier_isp(10, 4, 7);
        assert_eq!(t.node_count(), 50);
        assert!(t.is_connected());
        for i in 10..50 {
            assert_eq!(t.degree(NodeId(i)), 2, "access routers are dual-homed");
        }
    }

    #[test]
    fn gravity_total_rate_exact() {
        let t = barabasi_albert(50, 2, 1);
        let nodes: Vec<NodeId> = t.nodes().collect();
        let flows = gravity_flows(&nodes, 3, 5e6, 9);
        assert_eq!(flows.len(), 150);
        let total: f64 = flows.iter().map(|f| f.rate).sum();
        assert!((total - 5e6).abs() < 1e-3);
        assert!(flows.iter().all(|f| f.src != f.dst && f.rate > 0.0));
    }

    #[test]
    fn elephants_carry_their_share() {
        let nodes: Vec<NodeId> = (0..20).map(NodeId).collect();
        let flows = elephant_mice_flows(&nodes, 100, 1e6, 0.9, 3);
        assert_eq!(flows.len(), 100);
        let elephants: f64 = flows[..10].iter().map(|f| f.rate).sum();
        assert!((elephants - 9e5).abs() < 1e-6);
        let total: f64 = flows.iter().map(|f| f.rate).sum();
        assert!((total - 1e6).abs() < 1e-6);
    }

    #[test]
    fn flash_crowd_targets_only_hot_destination() {
        let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
        let flows = elephant_mice_flows(&nodes, 40, 1e6, 0.8, 5);
        let hot = flows[0].dst;
        let sched = flash_crowd_schedule(&flows, hot, 10.0, 20.0, 4.0);
        assert!(!sched.is_empty());
        assert_eq!(sched.len() % 2, 0);
        for &(at, idx, rate) in &sched {
            assert_eq!(flows[idx].dst, hot);
            if at < 15.0 {
                assert!((rate - flows[idx].rate * 4.0).abs() < 1e-9);
            } else {
                assert!((rate - flows[idx].rate).abs() < 1e-9);
            }
        }
    }
}
