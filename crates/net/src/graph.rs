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
    /// All directed links, index = `LinkId`.
    links: Vec<Link>,
    /// `out_adj[n]` = sorted-by-neighbor list of outgoing `LinkId`s of `n`.
    out_adj: Vec<Vec<LinkId>>,
    /// `in_adj[n]` = sorted-by-neighbor list of incoming `LinkId`s of `n`.
    in_adj: Vec<Vec<LinkId>>,
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
        self.out_adj[n.index()].iter().map(move |&id| (id, &self.links[id.index()]))
    }

    /// Incoming links of `n`, sorted by neighbor address.
    pub fn in_links(&self, n: NodeId) -> impl Iterator<Item = (LinkId, &Link)> + '_ {
        self.in_adj[n.index()].iter().map(move |&id| (id, &self.links[id.index()]))
    }

    /// Neighbors reachable over an outgoing link, ascending address order.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_links(n).map(|(_, l)| l.to)
    }

    /// Out-degree of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.out_adj[n.index()].len()
    }

    /// Directed link id from `a` to `b`, if one exists.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.out_adj[a.index()].iter().copied().find(|&id| self.links[id.index()].to == b)
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
        let mut out_adj = vec![Vec::new(); self.names.len()];
        let mut in_adj = vec![Vec::new(); self.names.len()];
        for (i, l) in self.links.iter().enumerate() {
            out_adj[l.from.index()].push(LinkId(i as u32));
            in_adj[l.to.index()].push(LinkId(i as u32));
        }
        // in_adj entries sorted by the *neighbor* (the link head).
        for (node, adj) in in_adj.iter_mut().enumerate() {
            let _ = node;
            adj.sort_by_key(|id| self.links[id.index()].from);
        }
        Ok(Topology { names: self.names, links: self.links, out_adj, in_adj })
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
