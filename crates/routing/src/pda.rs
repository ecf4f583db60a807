//! PDA — the Partial-topology Dissemination Algorithm (Figs. 1–3),
//! without MPDA's inter-neighbor synchronization.
//!
//! PDA converges to correct shortest paths (Theorem 2) but gives no
//! instantaneous loop-freedom guarantee: its successor sets are the
//! unsynchronized Eq. 14 (`S^i_j = {k | D^k_j < D^i_j}` computed from
//! possibly-stale neighbor distances). It exists in this workspace for
//! two reasons: as the convergence baseline the paper builds MPDA from,
//! and as the "LFI off" arm of the `ablation_lfi` experiment, which
//! counts the transient routing loops PDA forms under churn and MPDA
//! provably never forms.

use crate::core::LsCore;
use crate::mpda::{RouterEvent, RouterOutput, RouterStats, SendTo};
use crate::table::TopoTable;
use mdr_net::{LinkCost, NodeId};
use mdr_proto::LsuMessage;
use std::collections::BTreeSet;

/// The PDA router: sends topology diffs immediately on every change, no
/// ACK synchronization, no feasible distances.
#[derive(Debug, Clone)]
pub struct PdaRouter {
    core: LsCore,
    needs_full: BTreeSet<NodeId>,
    stats: RouterStats,
}

impl PdaRouter {
    /// A router with address `id` in a network of `n` routers.
    pub fn new(id: NodeId, n: usize) -> Self {
        PdaRouter {
            core: LsCore::new(id, n),
            needs_full: BTreeSet::new(),
            stats: RouterStats::default(),
        }
    }

    /// Router address.
    pub fn id(&self) -> NodeId {
        self.core.id
    }

    /// Current distance `D^i_j`.
    pub fn distance(&self, j: NodeId) -> LinkCost {
        self.core.dist[j.index()]
    }

    /// `D^i_jk` — neighbor `k`'s distance to `j` as known here.
    pub fn neighbor_distance(&self, k: NodeId, j: NodeId) -> LinkCost {
        self.core.neighbor_distance(k, j)
    }

    /// Cost of the adjacent link to `k` (None if down).
    pub fn link_cost(&self, k: NodeId) -> Option<LinkCost> {
        self.core.link_cost(k)
    }

    /// Operational neighbors, ascending.
    pub fn neighbors(&self) -> Vec<NodeId> {
        self.core.nbrs.iter().map(|nb| nb.id).collect()
    }

    /// Successor set by the *unsynchronized* rule of Eq. 14:
    /// `{k | D^i_jk < D^i_j}`. Not loop-free during transients — that is
    /// the point of the ablation.
    pub fn successors(&self, j: NodeId) -> Vec<NodeId> {
        let dj = self.core.dist[j.index()];
        let nbrs = self.core.nbrs.iter().enumerate();
        nbrs.filter(|&(s, _)| self.core.dist_row(s)[j.index()] < dj).map(|(_, nb)| nb.id).collect()
    }

    /// Protocol counters.
    pub fn stats(&self) -> RouterStats {
        let mut s = self.stats;
        self.core.count_into(&mut s);
        s
    }

    /// The main topology table `T^i`.
    pub fn main_topology(&self) -> &TopoTable {
        &self.core.main_topo
    }

    /// Handle one event (procedure PDA, Fig. 1): NTU, MTU, and report
    /// differences to all neighbors immediately.
    pub fn handle(&mut self, event: RouterEvent) -> RouterOutput {
        self.stats.events += 1;
        match &event {
            RouterEvent::Lsu { from, msg } => {
                if !self.core.is_neighbor(*from) {
                    self.stats.dropped += 1;
                    return RouterOutput::default();
                }
                self.stats.lsu_received += 1;
                self.core.process_lsu(*from, msg);
            }
            RouterEvent::LinkUp { to, cost } => {
                self.core.link_up(*to, *cost);
                self.needs_full.insert(*to);
            }
            RouterEvent::LinkDown { to } => {
                self.core.link_down(*to);
                self.needs_full.remove(to);
            }
            RouterEvent::LinkCost { to, cost } => {
                self.core.link_cost_change(*to, *cost);
            }
        }
        let (diff, replaced) = self.core.mtu();
        let mut sends = Vec::new();
        for s in 0..self.core.nbrs.len() {
            let k = self.core.nbrs[s].id;
            let entries = if self.needs_full.contains(&k) {
                self.core.main_topo.full_entries()
            } else if !diff.is_empty() {
                diff.clone()
            } else {
                continue;
            };
            if entries.is_empty() {
                continue;
            }
            self.needs_full.remove(&k);
            self.stats.entries_sent += entries.len() as u64;
            self.stats.lsu_sent += 1;
            sends.push(SendTo { to: k, msg: LsuMessage::update(self.core.id, entries) });
        }
        RouterOutput { sends, routes_changed: !replaced.is_empty(), changed: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn converge(nn: usize, edges: &[(u32, u32, f64)]) -> Vec<PdaRouter> {
        let mut routers: Vec<PdaRouter> =
            (0..nn).map(|i| PdaRouter::new(n(i as u32), nn)).collect();
        let mut queues: Vec<(NodeId, NodeId, LsuMessage)> = Vec::new();
        for &(a, b, c) in edges {
            for (x, y) in [(a, b), (b, a)] {
                let out = routers[x as usize].handle(RouterEvent::LinkUp { to: n(y), cost: c });
                for s in out.sends {
                    queues.push((n(x), s.to, s.msg));
                }
            }
        }
        let mut steps = 0;
        while !queues.is_empty() {
            let (from, to, msg) = queues.remove(0);
            let out = routers[to.index()].handle(RouterEvent::Lsu { from, msg });
            for s in out.sends {
                queues.push((to, s.to, s.msg));
            }
            steps += 1;
            assert!(steps < 100_000, "PDA did not quiesce");
        }
        routers
    }

    #[test]
    fn pda_converges_to_shortest_paths() {
        let r = converge(5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (0, 4, 10.0)]);
        assert_eq!(r[0].distance(n(4)), 4.0);
        assert_eq!(r[4].distance(n(0)), 4.0);
        assert_eq!(r[0].distance(n(2)), 2.0);
    }

    #[test]
    fn pda_successors_eq14_at_convergence() {
        let r = converge(4, &[(0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 1.0)]);
        assert_eq!(r[0].successors(n(3)), vec![n(1), n(2)]);
    }

    #[test]
    fn pda_failure_reconvergence() {
        let mut r = converge(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]);
        let mut queues: Vec<(NodeId, NodeId, LsuMessage)> = Vec::new();
        for (x, y) in [(1u32, 2u32), (2, 1)] {
            let out = r[x as usize].handle(RouterEvent::LinkDown { to: n(y) });
            for s in out.sends {
                queues.push((n(x), s.to, s.msg));
            }
        }
        while !queues.is_empty() {
            let (from, to, msg) = queues.remove(0);
            let out = r[to.index()].handle(RouterEvent::Lsu { from, msg });
            for s in out.sends {
                queues.push((to, s.to, s.msg));
            }
        }
        assert_eq!(r[0].distance(n(2)), 5.0);
        assert_eq!(r[1].distance(n(2)), 6.0);
    }
}
