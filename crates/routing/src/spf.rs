//! Shortest-path computations over link-state tables.
//!
//! Both PDA procedures need shortest paths: NTU on each neighbor
//! topology `T^i_k` (rooted at the neighbor), MTU on the merged main
//! table `T^i` (rooted at the router). `T^i_k` is normally a tree, which
//! [`tree_distances`] walks; anything else goes through [`dijkstra`].
//! "Because there are potentially
//! many shortest-path trees, ties should be broken consistently during
//! the run of Dijkstra's algorithm" (§4.1.1) — we break ties first on
//! distance, then in favor of the lower-address parent, then the
//! lower-address node, which makes the produced tree a pure function of
//! the link set. [`Spf`] is the one relaxation loop; [`dijkstra`] runs it
//! over a table.

use crate::table::TopoTable;
use mdr_net::{LinkCost, NodeId, INFINITE_COST};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Result of a shortest-path run over `n` nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpfResult {
    /// `dist[j]` — cost of the shortest path root → `j`
    /// ([`INFINITE_COST`] if unreachable).
    pub dist: Vec<LinkCost>,
    /// `parent[j]` — predecessor of `j` on its shortest path
    /// (`None` for the root and unreachable nodes).
    pub parent: Vec<Option<NodeId>>,
    /// Nodes settled: popped from the heap for the first time, the root
    /// included.
    pub settled: usize,
}

impl SpfResult {
    /// True if `j` is reachable from the root.
    pub fn reachable(&self, j: NodeId) -> bool {
        self.dist[j.index()] < INFINITE_COST
    }

    /// Extract the links of the shortest-path tree, with their costs from
    /// `links` (MTU step 6: "remove those links in `T^i` that are not
    /// part of the shortest path tree").
    pub fn tree_links(&self, links: &TopoTable) -> TopoTable {
        // `h → t` is a tree link iff `h` is `t`'s parent; filtering keeps
        // the table's key order.
        let is_tree = |h: NodeId, t: NodeId| self.parent.get(t.index()) == Some(&Some(h));
        TopoTable::from_sorted(links.iter().filter(|&(h, t, _)| is_tree(h, t)).collect())
    }

    /// The path root → `j` as a node list, if reachable.
    pub fn path_to(&self, root: NodeId, j: NodeId) -> Option<Vec<NodeId>> {
        if !self.reachable(j) {
            return None;
        }
        let mut path = vec![j];
        let mut cur = j;
        while cur != root {
            cur = self.parent[cur.index()]?;
            path.push(cur);
            if path.len() > self.dist.len() {
                return None; // defensive: corrupt parent pointers
            }
        }
        path.reverse();
        Some(path)
    }
}

/// A heap entry: `node` reached at `dist` through `parent`, held as
/// two integers that order as the triple `(dist, parent, node)` does —
/// the deterministic tie-break order, `dist` as `total_cmp` orders it
/// (NaN last instead of silently tying) — so comparing two entries is
/// comparing two integer pairs. The heap pops the smallest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HeapEntry {
    /// `dist`'s bits, negative values' magnitude bits flipped: the
    /// `total_cmp` order as `i64` order, and its own inverse.
    dist: i64,
    /// `parent << 32 | node`.
    tie: u64,
}

// Written out rather than derived: a derived `PartialOrd` calls
// `partial_cmp`, a method the workspace lints deny.
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist.cmp(&other.dist).then_with(|| self.tie.cmp(&other.tie))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `parent` of the root and of every node not settled.
pub(crate) const NO_PARENT: u32 = u32::MAX;

impl HeapEntry {
    pub(crate) fn new(dist: LinkCost, parent: u32, node: u32) -> Self {
        HeapEntry {
            dist: Self::flip(dist.to_bits() as i64),
            tie: (parent as u64) << 32 | node as u64,
        }
    }

    fn flip(bits: i64) -> i64 {
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    }

    pub(crate) fn dist(&self) -> LinkCost {
        f64::from_bits(Self::flip(self.dist) as u64)
    }

    pub(crate) fn parent(&self) -> u32 {
        (self.tie >> 32) as u32
    }

    pub(crate) fn node(&self) -> usize {
        self.tie as u32 as usize
    }
}

/// The one relaxation loop of Dijkstra's algorithm, over any adjacency,
/// with its buffers kept across runs: a caller that runs many SPFs over
/// one graph allocates once. [`dijkstra`] is this loop over a
/// [`TopoTable`]; the fluid engine's quiescent control plane runs it
/// over a topology's in-links.
///
/// With non-negative costs, `dist` does not depend on the tie-breaking
/// (the `(dist, parent, node)` heap order, or the order `adj` lists a
/// node's links in): `dist[v]` is the least, over the paths from the
/// root, of the path's costs added up left to right. Rounded addition
/// of a cost `c ≥ 0` never decreases a distance and is monotone in it,
/// which is all Dijkstra's correctness argument needs; so each `dist[v]`
/// is fixed by the graph alone, and every order of settling equal
/// distances arrives at it. Only `parent` records which of the equal
/// paths won.
#[derive(Debug, Default)]
pub struct Spf {
    dist: Vec<LinkCost>,
    parent: Vec<u32>,
    done: Vec<bool>,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    settled: usize,
}

impl Spf {
    /// Shortest paths from `root` over nodes `0..n`, where `adj(u)` lists
    /// `u`'s out-links as `(v, cost)`; links to `v ≥ n` are ignored.
    /// Costs must be non-negative.
    pub fn run<I>(&mut self, n: usize, root: NodeId, mut adj: impl FnMut(usize) -> I)
    where
        I: IntoIterator<Item = (usize, LinkCost)>,
    {
        let Spf { dist, parent, done, heap, settled } = self;
        dist.clear();
        dist.resize(n, INFINITE_COST);
        parent.clear();
        parent.resize(n, NO_PARENT);
        done.clear();
        done.resize(n, false);
        heap.clear();
        *settled = 0;
        if root.index() >= n {
            return;
        }
        dist[root.index()] = 0.0;
        heap.push(Reverse(HeapEntry::new(0.0, NO_PARENT, root.0)));
        while let Some(Reverse(top)) = heap.pop() {
            let (d, u) = (top.dist(), top.node());
            if std::mem::replace(&mut done[u], true) {
                continue;
            }
            *settled += 1;
            parent[u] = top.parent();
            for (v, c) in adj(u) {
                if v >= n || done[v] {
                    continue;
                }
                let nd = d + c;
                // Strict improvement, or equal cost through a lower-address
                // parent: push; the heap ordering resolves remaining ties.
                #[expect(clippy::float_cmp, reason = "Dijkstra's equal-cost tie is exact")]
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse(HeapEntry::new(nd, u as u32, v as u32)));
                } else if nd == dist[v] {
                    heap.push(Reverse(HeapEntry::new(nd, u as u32, v as u32)));
                }
            }
        }
    }

    /// `dist[v]` of the last run: the cost of the shortest path
    /// root → `v`, [`INFINITE_COST`] if unreachable.
    pub fn dist(&self) -> &[LinkCost] {
        &self.dist
    }

    /// The last run as an [`SpfResult`].
    fn into_result(self) -> SpfResult {
        let parent = self.parent.iter().map(|&p| (p != NO_PARENT).then_some(NodeId(p))).collect();
        SpfResult { dist: self.dist, parent, settled: self.settled }
    }
}

/// Dijkstra's algorithm over a [`TopoTable`], for a network of `n`
/// routers: [`Spf::run`] over the table's links in `(head, tail)`
/// order. Costs must be non-negative (link costs are marginal delays,
/// which are strictly positive).
pub fn dijkstra(n: usize, links: &TopoTable, root: NodeId) -> SpfResult {
    // The table is sorted by (head, tail), so head `h`'s out-links are
    // the slice `starts[h]..starts[h + 1]`; heads outside `0..n` sort
    // last and are cut off.
    let links = links.as_slice();
    let mut starts = vec![0usize; n + 1];
    let mut at = 0;
    for (h, start) in starts.iter_mut().enumerate() {
        *start = at;
        while links.get(at).is_some_and(|l| l.0.index() == h) {
            at += 1;
        }
    }
    let mut spf = Spf::default();
    spf.run(n, root, |u| links[starts[u]..starts[u + 1]].iter().map(|&(_, v, c)| (v.index(), c)));
    spf.into_result()
}

/// `dijkstra(n, links, root).dist` for a table that is a tree below
/// `n`, by one walk down from the root; `None` when some node `t < n`
/// other than the root is the tail of two links whose heads are `< n`,
/// and the caller must run [`dijkstra`].
///
/// NTU's `T^i_k` is a delayed copy of `k`'s shortest-path tree (MTU step
/// 6 keeps tree links only), so this is the common case. With one
/// in-link per node there is one candidate distance per node, so the
/// result is Dijkstra's bit for bit: `v` is reached iff its parent is
/// and `dist[parent] + c ≤ INFINITE_COST` (a NaN sum is never reached),
/// and ids `≥ n` and links into the root are ignored, as Dijkstra does.
pub fn tree_distances(n: usize, links: &TopoTable, root: NodeId) -> Option<Vec<LinkCost>> {
    let links = links.as_slice();
    // The table ascends by head, so head `h < n`'s out-links are
    // `links[starts[h]..starts[h + 1]]`.
    let mut starts = vec![0; n + 1];
    let mut has_parent = vec![false; n];
    for &(h, t, _) in links.iter().take_while(|l| l.0.index() < n) {
        starts[h.index() + 1] += 1;
        if t.index() < n && t != root && std::mem::replace(&mut has_parent[t.index()], true) {
            return None;
        }
    }
    for h in 0..n {
        starts[h + 1] += starts[h];
    }
    let mut dist = vec![INFINITE_COST; n];
    if root.index() >= n {
        return Some(dist);
    }
    dist[root.index()] = 0.0;
    // One in-link per node: each node is pushed at most once, by its
    // parent, so no visited set is needed.
    let mut stack = vec![root.index()];
    while let Some(u) = stack.pop() {
        for &(_, v, c) in &links[starts[u]..starts[u + 1]] {
            let nd = dist[u] + c;
            if v.index() < n && v != root && nd <= INFINITE_COST {
                dist[v.index()] = nd;
                stack.push(v.index());
            }
        }
    }
    Some(dist)
}

/// Bellman-Ford over the same table — used by tests to cross-validate
/// Dijkstra (Eq. 13 is the Bellman-Ford equation, as the paper notes).
pub fn bellman_ford(n: usize, links: &TopoTable, root: NodeId) -> Vec<LinkCost> {
    let mut dist = vec![INFINITE_COST; n];
    if root.index() >= n {
        return dist;
    }
    dist[root.index()] = 0.0;
    for _ in 0..n.saturating_sub(1) {
        let mut changed = false;
        for (h, t, c) in links.iter() {
            if h.index() >= n || t.index() >= n {
                continue;
            }
            if dist[h.index()] < INFINITE_COST {
                let nd = dist[h.index()] + c;
                if nd < dist[t.index()] {
                    dist[t.index()] = nd;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TopoTable {
        // 0 -> 1 (1), 0 -> 2 (1), 1 -> 3 (1), 2 -> 3 (1): two equal paths.
        let mut t = TopoTable::new();
        t.insert(NodeId(0), NodeId(1), 1.0);
        t.insert(NodeId(0), NodeId(2), 1.0);
        t.insert(NodeId(1), NodeId(3), 1.0);
        t.insert(NodeId(2), NodeId(3), 1.0);
        t
    }

    #[test]
    fn shortest_distances() {
        let r = dijkstra(4, &diamond(), NodeId(0));
        assert_eq!(r.dist, vec![0.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn tie_break_prefers_lower_address_parent() {
        let r = dijkstra(4, &diamond(), NodeId(0));
        // Node 3 reachable equally via 1 and 2; must pick 1.
        assert_eq!(r.parent[3], Some(NodeId(1)));
    }

    #[test]
    fn deterministic_regardless_of_insert_order() {
        let mut t = TopoTable::new();
        // Insert in reversed order.
        t.insert(NodeId(2), NodeId(3), 1.0);
        t.insert(NodeId(1), NodeId(3), 1.0);
        t.insert(NodeId(0), NodeId(2), 1.0);
        t.insert(NodeId(0), NodeId(1), 1.0);
        let a = dijkstra(4, &t, NodeId(0));
        let b = dijkstra(4, &diamond(), NodeId(0));
        assert_eq!(a, b);
    }

    #[test]
    fn unreachable_nodes() {
        let mut t = TopoTable::new();
        t.insert(NodeId(0), NodeId(1), 1.0);
        let r = dijkstra(3, &t, NodeId(0));
        assert!(!r.reachable(NodeId(2)));
        assert_eq!(r.parent[2], None);
        assert_eq!(r.path_to(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn respects_asymmetric_costs() {
        let mut t = TopoTable::new();
        t.insert(NodeId(0), NodeId(1), 5.0);
        t.insert(NodeId(1), NodeId(0), 1.0);
        let a = dijkstra(2, &t, NodeId(0));
        let b = dijkstra(2, &t, NodeId(1));
        assert_eq!(a.dist[1], 5.0);
        assert_eq!(b.dist[0], 1.0);
    }

    #[test]
    fn tree_links_form_tree() {
        let t = diamond();
        let r = dijkstra(4, &t, NodeId(0));
        let tree = r.tree_links(&t);
        assert_eq!(tree.len(), 3); // n-1 links for 4 reachable nodes
        assert_eq!(tree.cost(NodeId(0), NodeId(1)), Some(1.0));
        assert_eq!(tree.cost(NodeId(1), NodeId(3)), Some(1.0));
        assert_eq!(tree.cost(NodeId(2), NodeId(3)), None); // pruned
    }

    #[test]
    fn path_reconstruction() {
        let r = dijkstra(4, &diamond(), NodeId(0));
        assert_eq!(r.path_to(NodeId(0), NodeId(3)), Some(vec![NodeId(0), NodeId(1), NodeId(3)]));
        assert_eq!(r.path_to(NodeId(0), NodeId(0)), Some(vec![NodeId(0)]));
    }

    #[test]
    fn agrees_with_bellman_ford() {
        let t = diamond();
        let d = dijkstra(4, &t, NodeId(0));
        let bf = bellman_ford(4, &t, NodeId(0));
        assert_eq!(d.dist, bf);
    }

    #[test]
    fn agrees_with_bellman_ford_on_random_graphs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        for _ in 0..50 {
            let n = rng.gen_range(2..20);
            let mut t = TopoTable::new();
            for h in 0..n {
                for tl in 0..n {
                    if h != tl && rng.gen_bool(0.3) {
                        t.insert(
                            NodeId(h as u32),
                            NodeId(tl as u32),
                            (rng.gen_range(1..100) as f64) / 10.0,
                        );
                    }
                }
            }
            let root = NodeId(rng.gen_range(0..n) as u32);
            let d = dijkstra(n, &t, root);
            let bf = bellman_ford(n, &t, root);
            for (j, (dd, bb)) in d.dist.iter().zip(&bf).enumerate() {
                assert!((dd - bb).abs() < 1e-9, "mismatch at {j}: {dd} vs {bb}");
            }
        }
    }

    #[test]
    fn root_out_of_range_is_all_unreachable() {
        let r = dijkstra(2, &diamond(), NodeId(9));
        assert!(!r.reachable(NodeId(0)));
    }
}
