//! The one solver for Eqs. 1–3 and 5: a routing DAG toward one
//! destination `j`, stored by row, and the forward and backward passes
//! over it.
//!
//! * [`Dag::forward`] — Eqs. 1–2: injected rates pushed along the
//!   topological order, `t_k += t_i φ_ijk`, each push also handed to
//!   the caller as a per-link flow.
//! * [`Dag::backward`] — in reverse order, from per-link survival
//!   fractions `σ_l` and weights `w_l`: the delivery probability
//!   `p_i = Σ_k φ_ijk σ_ik p_k`, the route-only probability `proute`
//!   (the same with `σ ≡ 1`) and the delay mass
//!   `m_i = Σ_k φ_ijk σ_ik (w_ik p_k + m_k)`, so that `m_i / p_i` is
//!   the mean of `w` summed along the paths that deliver. With `σ ≡ 1`
//!   and `w_l = T_l(f_l)` that is the per-packet delay `d^j_i`; with
//!   `w_l = D'_l(f_l)` it is Gallager's marginal distance `δ^j_i`
//!   (Eq. 5).
//!
//! The caller owns the policy that turns routing variables into edges
//! ([`Dag::set_row`]); the fluid engine adds `σ_l = min(1, C_l / f_l)`
//! so a saturated link drops instead of queueing without bound. Where
//! every node with traffic is fully routed, `p = 1` up to rounding. A
//! node that reaches `j` only in part (a successor that is a dead end)
//! gets the conditional mean `m / p`; only a node with `p = 0` reads
//! "no route".

#![deny(clippy::unwrap_used, clippy::expect_used)]

use mdr_net::{NodeId, Topology};

/// A `(next_hop, link, share)` edge of a routing DAG.
pub type Edge = (u32, u32, f64);

/// Out-degree prefix sums of `topo`: router `i`'s row in every [`Dag`]
/// over `topo` is `row[i]..row[i + 1]`.
pub fn row_starts(topo: &Topology) -> Vec<u32> {
    let mut row = vec![0u32; topo.node_count() + 1];
    for i in 0..topo.node_count() {
        row[i + 1] = row[i] + topo.degree(NodeId(i as u32)) as u32;
    }
    row
}

/// One destination's routing DAG, stored by row: router `i`'s edges are
/// `edges[row[i]..row[i] + len[i]]`, where `row` ([`row_starts`],
/// shared by every DAG over one topology) is the out-degree prefix
/// sums — every router has room for its whole out-degree, so one
/// router's row is rewritten in place without moving another's.
#[derive(Clone, Default)]
pub struct Dag {
    edges: Vec<Edge>,
    len: Vec<u32>,
    /// Topological order (`i` before its successors), current only
    /// while `order_ok`: a row write that changes the row's next-hop
    /// list clears the bit, one that moves only shares leaves it. After
    /// [`Self::reorder`] the Kahn order over every node (sources
    /// ascending, then first reached first out); after
    /// [`Self::build_reached`] a depth-first order over the reached
    /// nodes only.
    order: Vec<u32>,
    order_ok: bool,
    /// Scratch for [`Self::build_reached`] and [`Self::backward_from`]:
    /// per node [`UNSEEN`], [`DONE`], or the next edge of its row to
    /// follow while it is on the depth-first path `stack`.
    mark: Vec<u32>,
    stack: Vec<u32>,
}

/// [`Dag::build_reached`]'s mark of a node no search has met.
const UNSEEN: u32 = u32::MAX;
/// ... and of one whose successors are all done.
const DONE: u32 = u32::MAX - 1;

impl Dag {
    /// An edgeless DAG over `nodes` routers and `links` directed links.
    pub fn new(nodes: usize, links: usize) -> Self {
        Dag {
            edges: vec![(0, 0, 0.0); links],
            len: vec![0; nodes],
            order: Vec::with_capacity(nodes),
            order_ok: false,
            mark: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Router `i`'s edges.
    pub fn row(&self, row: &[u32], i: usize) -> &[Edge] {
        let at = row[i] as usize;
        &self.edges[at..at + self.len[i] as usize]
    }

    /// The topological order (see [`Self::order_ok`]).
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Is [`Self::order`] current with the rows?
    pub fn order_ok(&self) -> bool {
        self.order_ok
    }

    /// Does the order reach every node? False when a cycle (or a node
    /// downstream of one) kept some out.
    pub fn is_acyclic(&self) -> bool {
        self.order.len() == self.len.len()
    }

    /// Rewrite router `i`'s row with `edges`, in order, each next hop at
    /// most once; edges past the router's out-degree are dropped. True
    /// when the row changed: another length, or an edge with another
    /// next hop, link or share bit pattern. The order stays current only
    /// if the next-hop list is unchanged.
    ///
    /// `#[inline]`, like [`Self::forward`]: a generic method of this
    /// crate's type is otherwise instantiated in a codegen unit of its
    /// own in the calling crate, and that reshuffles how the caller's
    /// units are merged — in `mdr-sim` it cost the packet engine's event
    /// loop its inlined heap pop.
    #[inline]
    pub fn set_row(
        &mut self,
        row: &[u32],
        i: usize,
        edges: impl IntoIterator<Item = Edge>,
    ) -> bool {
        let slots = &mut self.edges[row[i] as usize..row[i + 1] as usize];
        let old = self.len[i] as usize;
        let mut len = 0;
        let (mut same_hops, mut same_rest) = (true, true);
        for (slot, e) in slots.iter_mut().zip(edges) {
            same_hops &= len < old && slot.0 == e.0;
            same_rest &= slot.1 == e.1 && slot.2.to_bits() == e.2.to_bits();
            *slot = e;
            len += 1;
        }
        self.len[i] = len as u32;
        let same_hops = same_hops && len == old;
        self.order_ok &= same_hops;
        !(same_hops && same_rest)
    }

    /// Recompute `order` from the rows. Nodes caught in a cycle stay out
    /// ([`Self::is_acyclic`]), and so does everything downstream of one.
    pub fn reorder(&mut self, row: &[u32], indeg: &mut Vec<u32>) {
        let n = self.len.len();
        indeg.clear();
        indeg.resize(n, 0);
        for i in 0..n {
            for &(k, _, _) in self.row(row, i) {
                indeg[k as usize] += 1;
            }
        }
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend((0..n as u32).filter(|&i| indeg[i as usize] == 0));
        let mut head = 0;
        while head < order.len() {
            let i = order[head] as usize;
            head += 1;
            for &(k, _, _) in self.row(row, i) {
                indeg[k as usize] -= 1;
                if indeg[k as usize] == 0 {
                    order.push(k);
                }
            }
        }
        self.order = order;
        self.order_ok = true;
    }

    /// Write only the rows a depth-first search from `roots` meets, each
    /// by `write_row(self, i)` the first time it is met, and set the
    /// order to the reverse post-order of that search: every reached node
    /// before its successors, no other node in it. False, with the order
    /// not current, when the search meets a cycle — the caller then
    /// builds whole.
    ///
    /// What [`Self::backward`] gives at a reached node is then bit for
    /// bit what it gives after a whole build, if the whole DAG is
    /// loop-free: it sums each row in row order from its successors'
    /// final values, so no topological order changes a value, and it
    /// never reads a row outside the order. (A cycle no root reaches is
    /// not seen here, while the whole build's Kahn order would leave the
    /// nodes below it out.) [`Self::forward`] needs the whole build: the
    /// order of its `arrive` sums is part of its result.
    pub fn build_reached(
        &mut self,
        row: &[u32],
        roots: impl IntoIterator<Item = usize>,
        mut write_row: impl FnMut(&mut Self, usize),
    ) -> bool {
        self.order_ok = false;
        let mut mark = std::mem::take(&mut self.mark);
        let mut stack = std::mem::take(&mut self.stack);
        mark.clear();
        mark.resize(self.len.len(), UNSEEN);
        stack.clear();
        self.order.clear();
        let mut acyclic = true;
        'roots: for r in roots {
            if mark[r] != UNSEEN {
                continue;
            }
            write_row(self, r);
            mark[r] = 0;
            stack.push(r as u32);
            while let Some(&top) = stack.last() {
                let i = top as usize;
                let Some(&(k, _, _)) = self.row(row, i).get(mark[i] as usize) else {
                    mark[i] = DONE;
                    self.order.push(top);
                    stack.pop();
                    continue;
                };
                mark[i] += 1;
                match mark[k as usize] {
                    UNSEEN => {
                        write_row(self, k as usize);
                        mark[k as usize] = 0;
                        stack.push(k);
                    }
                    DONE => {}
                    _ => {
                        acyclic = false;
                        break 'roots;
                    }
                }
            }
        }
        self.mark = mark;
        self.stack = stack;
        self.order.reverse();
        self.order_ok = acyclic;
        acyclic
    }

    /// The forward pass (Eqs. 1–2). `arrive` holds each node's injected
    /// rate on entry and its total arrival rate `t_i` on return — at `j`,
    /// the rate delivered. Every push `t_i · share` down link `l` is
    /// also given to `on_link(l, push)`; a link gets at most one push
    /// per pass. Rate at a node with an empty row goes nowhere.
    #[inline]
    pub fn forward(&self, row: &[u32], arrive: &mut [f64], mut on_link: impl FnMut(usize, f64)) {
        for &iu in &self.order {
            let i = iu as usize;
            if arrive[i] <= 0.0 {
                continue;
            }
            for &(k, l, share) in self.row(row, i) {
                let push = arrive[i] * share;
                on_link(l as usize, push);
                arrive[k as usize] += push;
            }
        }
    }

    /// The backward pass toward `j` with per-link survival `sigma` and
    /// weight `w` (see the module docs), into `out`. Returns the rows
    /// summed.
    pub fn backward(
        &self,
        row: &[u32],
        j: usize,
        sigma: &[f64],
        w: &[f64],
        out: &mut Reach,
    ) -> u64 {
        out.p.fill(0.0);
        out.proute.fill(0.0);
        out.m.fill(0.0);
        out.p[j] = 1.0;
        out.proute[j] = 1.0;
        let mut rows = 0;
        for &i in self.order.iter().rev().filter(|&&i| i as usize != j) {
            self.sum_row(row, i as usize, sigma, w, out);
            rows += 1;
        }
        rows
    }

    /// [`Self::backward`] read only where `roots` reach: each row a
    /// depth-first search from `roots` meets is summed once, when the
    /// search leaves it, so after every successor. Returns the rows
    /// summed, or `None` when the search meets a cycle (`out` is then
    /// unspecified; like [`Self::backward`] it never reads `j`'s row, so
    /// a cycle through `j` goes unmet). `out` is not touched outside the
    /// rows met and `j`.
    ///
    /// At a node met, `out` is bit for bit what [`Self::backward`] gives
    /// if the whole DAG is loop-free ([`Self::is_acyclic`] after
    /// [`Self::reorder`]), by [`Self::build_reached`]'s argument: each
    /// row is summed in row order from its successors' final values.
    pub fn backward_from(
        &mut self,
        row: &[u32],
        j: usize,
        roots: impl IntoIterator<Item = usize>,
        sigma: &[f64],
        w: &[f64],
        out: &mut Reach,
    ) -> Option<u64> {
        let mut mark = std::mem::take(&mut self.mark);
        let mut stack = std::mem::take(&mut self.stack);
        mark.clear();
        mark.resize(self.len.len(), UNSEEN);
        stack.clear();
        mark[j] = DONE;
        (out.p[j], out.proute[j], out.m[j]) = (1.0, 1.0, 0.0);
        let (mut rows, mut acyclic) = (0, true);
        'roots: for r in roots {
            if mark[r] != UNSEEN {
                continue;
            }
            mark[r] = 0;
            stack.push(r as u32);
            while let Some(&top) = stack.last() {
                let i = top as usize;
                let Some(&(k, _, _)) = self.row(row, i).get(mark[i] as usize) else {
                    (out.p[i], out.proute[i], out.m[i]) = (0.0, 0.0, 0.0);
                    self.sum_row(row, i, sigma, w, out);
                    rows += 1;
                    mark[i] = DONE;
                    stack.pop();
                    continue;
                };
                mark[i] += 1;
                match mark[k as usize] {
                    UNSEEN => {
                        mark[k as usize] = 0;
                        stack.push(k);
                    }
                    DONE => {}
                    _ => {
                        acyclic = false;
                        break 'roots;
                    }
                }
            }
        }
        self.mark = mark;
        self.stack = stack;
        acyclic.then_some(rows)
    }

    /// Add router `i`'s row into `out` at `i` (see the module docs).
    #[inline]
    fn sum_row(&self, row: &[u32], i: usize, sigma: &[f64], w: &[f64], out: &mut Reach) {
        let Reach { p, proute, m } = out;
        for &(k, l, share) in self.row(row, i) {
            let (k, l) = (k as usize, l as usize);
            p[i] += share * sigma[l] * p[k];
            proute[i] += share * proute[k];
            m[i] += share * sigma[l] * (w[l] * p[k] + m[k]);
        }
    }
}

/// What [`Dag::backward`] leaves, one value per node.
#[derive(Clone, Debug, Default)]
pub struct Reach {
    /// Delivery probability `p_i`, with survival.
    pub p: Vec<f64>,
    /// Delivery probability over routes alone (`σ ≡ 1`).
    pub proute: Vec<f64>,
    /// Delay mass `m_i`.
    pub m: Vec<f64>,
}

impl Reach {
    /// Room for `n` nodes.
    pub fn new(n: usize) -> Self {
        Reach { p: vec![0.0; n], proute: vec![0.0; n], m: vec![0.0; n] }
    }

    /// `m_i / p_i`, the mean weight along the paths from `i` that
    /// deliver; `f64::INFINITY` where none does.
    pub fn mean(&self, i: usize) -> f64 {
        if self.p[i] > 0.0 {
            self.m[i] / self.p[i]
        } else {
            f64::INFINITY
        }
    }
}
