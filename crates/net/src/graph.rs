//! The network graph `G = (N, L)`.
//!
//! A [`Topology`] is an immutable directed multigraph-free graph of
//! routers and directed links, with sorted adjacency for deterministic
//! iteration. Use [`TopologyBuilder`] to construct one;
//! `TopologyBuilder::bidi` adds the two directed links of a physical
//! (bidirectional) link in one call, matching §2.1 of the paper.

use crate::error::NetError;
use crate::ids::{LinkId, NodeId};
use crate::link::Link;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// An immutable network topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    /// Human-readable node names (CAIRN uses site names; synthetic
    /// topologies use the numeric id).
    names: Vec<String>,
    /// All directed links sorted by `(from, to)`, index = `LinkId`.
    links: Vec<Link>,
    /// The outgoing links of `n` are the ids `out_start[n]..out_start[n + 1]`
    /// (a run of `links`, so ascending neighbor).
    out_start: Vec<u32>,
    /// The incoming links of `n` are `in_adj[in_start[n]..in_start[n + 1]]`,
    /// ascending neighbor (the link's `from`).
    in_start: Vec<u32>,
    in_adj: Vec<LinkId>,
}

impl Topology {
    /// Number of routers `|N|`.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of *directed* links `|L|` (twice the physical link count
    /// for fully bidirectional topologies).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterator over all node ids in ascending address order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// All directed links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Look up a link by id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Name of a node.
    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n.index()]
    }

    /// Node id by name, if present.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.iter().position(|n| n == name).map(NodeId::from)
    }

    /// Outgoing links of `n`, sorted by neighbor address.
    pub fn out_links(&self, n: NodeId) -> impl Iterator<Item = (LinkId, &Link)> + '_ {
        let run = self.out_run(n);
        (run.start as u32..).map(LinkId).zip(&self.links[run])
    }

    /// Incoming links of `n`, sorted by neighbor address.
    pub fn in_links(&self, n: NodeId) -> impl Iterator<Item = (LinkId, &Link)> + '_ {
        let run = self.in_start[n.index()] as usize..self.in_start[n.index() + 1] as usize;
        self.in_adj[run].iter().map(move |&id| (id, &self.links[id.index()]))
    }

    /// Neighbors reachable over an outgoing link, ascending address order.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_links(n).map(|(_, l)| l.to)
    }

    /// Out-degree of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.out_run(n).len()
    }

    /// The ids of `n`'s outgoing links, as a range into `links`.
    fn out_run(&self, n: NodeId) -> std::ops::Range<usize> {
        self.out_start[n.index()] as usize..self.out_start[n.index() + 1] as usize
    }

    /// Directed link id from `a` to `b`, if one exists.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        let run = self.out_run(a);
        let at = self.links[run.clone()].binary_search_by_key(&b, |l| l.to).ok()?;
        Some(LinkId((run.start + at) as u32))
    }

    /// The reverse direction of a directed link, if present (always
    /// present for topologies built with [`TopologyBuilder::bidi`]).
    pub fn reverse(&self, id: LinkId) -> Option<LinkId> {
        let l = self.link(id);
        self.link_between(l.to, l.from)
    }

    /// Hop-count distances from `src` to every node (BFS); `usize::MAX`
    /// for unreachable nodes.
    pub fn hop_distances(&self, src: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.node_count()];
        dist[src.index()] = 0;
        let mut q = VecDeque::new();
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            let du = dist[u.index()];
            for v in self.neighbors(u) {
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = du + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// True if every node reaches every other node.
    pub fn is_connected(&self) -> bool {
        if self.node_count() == 0 {
            return false;
        }
        self.nodes().all(|n| self.hop_distances(n).iter().all(|&d| d != usize::MAX))
    }

    /// Hop-count diameter; `None` if disconnected or empty.
    pub fn diameter(&self) -> Option<usize> {
        if self.node_count() == 0 {
            return None;
        }
        let mut best = 0usize;
        for n in self.nodes() {
            let d = self.hop_distances(n);
            for &x in &d {
                if x == usize::MAX {
                    return None;
                }
                best = best.max(x);
            }
        }
        Some(best)
    }
}

/// Builder for [`Topology`]. Nodes are added first (implicitly via
/// [`TopologyBuilder::nodes`] or by name), then links.
#[derive(Debug, Default, Clone)]
pub struct TopologyBuilder {
    names: Vec<String>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` anonymous nodes named by their numeric ids.
    pub fn nodes(mut self, n: usize) -> Self {
        for _ in 0..n {
            let id = self.names.len();
            self.names.push(id.to_string());
        }
        self
    }

    /// Add one named node, returning its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.names.len() as u32);
        self.names.push(name.into());
        id
    }

    /// Add a single directed link.
    pub fn link(mut self, from: NodeId, to: NodeId, capacity: f64, prop_delay: f64) -> Self {
        self.links.push(Link::new(from, to, capacity, prop_delay));
        self
    }

    /// Add both directions of a physical link with symmetric
    /// characteristics.
    pub fn bidi(self, a: NodeId, b: NodeId, capacity: f64, prop_delay: f64) -> Self {
        self.link(a, b, capacity, prop_delay).link(b, a, capacity, prop_delay)
    }

    /// Validate and freeze into a [`Topology`].
    pub fn build(mut self) -> Result<Topology, NetError> {
        if self.names.is_empty() {
            return Err(NetError::Empty);
        }
        // Normalize anonymous names.
        for (i, name) in self.names.iter_mut().enumerate() {
            if name.is_empty() {
                *name = i.to_string();
            }
        }
        let n = self.names.len() as u32;
        for l in &self.links {
            if l.from.0 >= n {
                return Err(NetError::UnknownNode(l.from));
            }
            if l.to.0 >= n {
                return Err(NetError::UnknownNode(l.to));
            }
            if l.from == l.to {
                return Err(NetError::SelfLoop(l.from));
            }
            if !(l.capacity.is_finite() && l.capacity > 0.0) {
                return Err(NetError::BadLinkParameter {
                    from: l.from,
                    to: l.to,
                    what: "capacity must be positive and finite",
                });
            }
            if !(l.prop_delay.is_finite() && l.prop_delay >= 0.0) {
                return Err(NetError::BadLinkParameter {
                    from: l.from,
                    to: l.to,
                    what: "propagation delay must be non-negative and finite",
                });
            }
        }
        // Sort links deterministically by (from, to) so LinkIds are stable
        // regardless of insertion order; two copies of one link end up
        // adjacent.
        self.links.sort_by_key(|l| (l.from, l.to));
        if let Some(w) =
            self.links.windows(2).find(|w| (w[0].from, w[0].to) == (w[1].from, w[1].to))
        {
            return Err(NetError::DuplicateLink(w[0].from, w[0].to));
        }
        // Degree counts shifted by one, then prefix sums: `start[n]` is
        // where node `n`'s run begins.
        let mut out_start = vec![0u32; self.names.len() + 1];
        let mut in_start = vec![0u32; self.names.len() + 1];
        for l in &self.links {
            out_start[l.from.index() + 1] += 1;
            in_start[l.to.index() + 1] += 1;
        }
        for i in 0..self.names.len() {
            out_start[i + 1] += out_start[i];
            in_start[i + 1] += in_start[i];
        }
        // Counting sort by `to`, stable over the `(from, to)` link order,
        // so each node's incoming run is ascending by neighbor.
        let mut next = in_start.clone();
        let mut in_adj = vec![LinkId(0); self.links.len()];
        for (i, l) in self.links.iter().enumerate() {
            let at = &mut next[l.to.index()];
            in_adj[*at as usize] = LinkId(i as u32);
            *at += 1;
        }
        Ok(Topology { names: self.names, links: self.links, out_start, in_start, in_adj })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_line(n: usize) -> Topology {
        let mut b = TopologyBuilder::new();
        let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(i.to_string())).collect();
        let mut b2 = b;
        for w in ids.windows(2) {
            b2 = b2.bidi(w[0], w[1], 1e7, 0.001);
        }
        b2.build().unwrap()
    }

    #[test]
    fn line_topology_basics() {
        let t = mk_line(4);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.link_count(), 6);
        assert!(t.is_connected());
        assert_eq!(t.diameter(), Some(3));
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.degree(NodeId(1)), 2);
    }

    #[test]
    fn link_between_and_reverse() {
        let t = mk_line(3);
        let ab = t.link_between(NodeId(0), NodeId(1)).unwrap();
        let ba = t.reverse(ab).unwrap();
        assert_eq!(t.link(ba).from, NodeId(1));
        assert_eq!(t.link(ba).to, NodeId(0));
        assert!(t.link_between(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn neighbors_sorted_by_address() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("c");
        let d = b.add_node("d");
        // Insert links in shuffled order; adjacency must come out sorted.
        let t = b.bidi(a, d, 1e7, 0.001).bidi(a, c, 1e7, 0.001).build().unwrap();
        let nbrs: Vec<NodeId> = t.neighbors(a).collect();
        assert_eq!(nbrs, vec![c, d]);
    }

    /// The flat adjacency against the obvious per-node scan, on seeded
    /// random digraphs with one-way links, isolated nodes and a hub.
    #[test]
    fn flat_adjacency_equals_a_naive_scan() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(5..40u32);
            let hub = NodeId(rng.gen_range(0..n - 2));
            // The last two nodes stay isolated.
            let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
            for i in (0..n - 2).map(NodeId).filter(|&i| i != hub) {
                pairs.extend([(i, hub), (hub, i)]);
            }
            let one_way = (NodeId((hub.0 + 1) % (n - 2)), NodeId((hub.0 + 2) % (n - 2)));
            pairs.push(one_way);
            for _ in 0..3 * n {
                let (a, b) = (NodeId(rng.gen_range(0..n - 2)), NodeId(rng.gen_range(0..n - 2)));
                if a != b && (b, a) != one_way && !pairs.contains(&(a, b)) {
                    pairs.push((a, b));
                }
            }
            // Shuffled insertion order.
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.gen_range(0..i + 1));
            }
            let mut b = TopologyBuilder::new().nodes(n as usize);
            for &(x, y) in &pairs {
                b = b.link(x, y, 1e7, 0.001);
            }
            let t = b.build().unwrap();
            assert_eq!(t.link_count(), pairs.len());
            assert!(t.links().windows(2).all(|w| (w[0].from, w[0].to) < (w[1].from, w[1].to)));

            let id_of = |x: NodeId, y: NodeId| {
                t.links().iter().position(|l| (l.from, l.to) == (x, y)).map(|i| LinkId(i as u32))
            };
            for x in t.nodes() {
                let mut outs: Vec<NodeId> =
                    pairs.iter().filter(|p| p.0 == x).map(|p| p.1).collect();
                let mut ins: Vec<NodeId> = pairs.iter().filter(|p| p.1 == x).map(|p| p.0).collect();
                outs.sort_unstable();
                ins.sort_unstable();
                let got: Vec<_> = t.out_links(x).map(|(id, l)| (Some(id), l.from, l.to)).collect();
                let want: Vec<_> = outs.iter().map(|&y| (id_of(x, y), x, y)).collect();
                assert_eq!(got, want, "seed {seed}: out_links({x})");
                let got: Vec<_> = t.in_links(x).map(|(id, l)| (Some(id), l.from, l.to)).collect();
                let want: Vec<_> = ins.iter().map(|&y| (id_of(y, x), y, x)).collect();
                assert_eq!(got, want, "seed {seed}: in_links({x})");
                assert_eq!(t.degree(x), outs.len());
                assert_eq!(t.neighbors(x).collect::<Vec<_>>(), outs);
                for y in t.nodes() {
                    assert_eq!(t.link_between(x, y), id_of(x, y), "seed {seed}: {x} -> {y}");
                }
            }
            for n in [n - 2, n - 1].map(NodeId) {
                assert_eq!((t.degree(n), t.in_links(n).count()), (0, 0));
            }
            let lone = t.link_between(one_way.0, one_way.1).unwrap();
            assert_eq!(t.reverse(lone), None);
            let back = t.link_between(hub, one_way.0).unwrap();
            assert_eq!(t.reverse(back), t.link_between(one_way.0, hub));
        }
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let err = b.link(a, a, 1e7, 0.001).build().unwrap_err();
        assert_eq!(err, NetError::SelfLoop(a));
    }

    #[test]
    fn rejects_duplicate_link() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("b");
        let err = b.link(a, c, 1e7, 0.0).link(a, c, 2e7, 0.0).build().unwrap_err();
        assert_eq!(err, NetError::DuplicateLink(a, c));
    }

    #[test]
    fn rejects_duplicate_link_far_apart_in_insertion_order() {
        // The two copies of 7 → 3 are the first and the last of 200 links
        // inserted, with 198 others (in descending order) between them.
        let n = 101;
        let hub = NodeId(100);
        let mut b = TopologyBuilder::new().nodes(n).link(NodeId(7), NodeId(3), 1e7, 0.0);
        for i in (0..99).rev() {
            b = b.bidi(NodeId(i), hub, 1e7, 0.0);
        }
        let err = b.clone().link(NodeId(7), NodeId(3), 2e7, 0.001).build().unwrap_err();
        assert_eq!(err, NetError::DuplicateLink(NodeId(7), NodeId(3)));
        assert_eq!(b.build().unwrap().link_count(), 199);
    }

    #[test]
    fn per_link_errors_come_first_in_insertion_order() {
        let b = TopologyBuilder::new().nodes(3);
        let (x, y, z) = (NodeId(0), NodeId(1), NodeId(2));
        let dup = b.link(x, y, 1e7, 0.0).link(x, y, 1e7, 0.0);
        let err = dup.link(z, z, 1e7, 0.0).link(y, NodeId(9), 1e7, 0.0).build().unwrap_err();
        assert_eq!(err, NetError::SelfLoop(z));
    }

    #[test]
    fn rejects_bad_capacity() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("b");
        let err = b.link(a, c, 0.0, 0.0).build().unwrap_err();
        assert!(matches!(err, NetError::BadLinkParameter { .. }));
    }

    #[test]
    fn rejects_unknown_node() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let err = b.link(a, NodeId(5), 1e7, 0.0).build().unwrap_err();
        assert_eq!(err, NetError::UnknownNode(NodeId(5)));
    }

    #[test]
    fn empty_topology_rejected() {
        assert_eq!(TopologyBuilder::new().build().unwrap_err(), NetError::Empty);
    }

    #[test]
    fn disconnected_detected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("b");
        let _d = b.add_node("c");
        let t = b.bidi(a, c, 1e7, 0.0).build().unwrap();
        assert!(!t.is_connected());
        assert_eq!(t.diameter(), None);
    }

    #[test]
    fn node_lookup_by_name() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node("alpha");
        let t = b.clone().build();
        // builder consumed above via clone; original still usable
        let t = t.unwrap();
        assert_eq!(t.node_by_name("alpha"), Some(a));
        assert_eq!(t.node_by_name("beta"), None);
        assert_eq!(t.name(a), "alpha");
    }
}
