//! The Loop-Free Invariant (LFI) of Eqs. 16–17: one full check and one
//! incremental auditor.
//!
//! Theorem 1 shows that along any successor edge `i → k` for
//! destination `j`, `FD^k_j < FD^i_j` — a strictly decreasing potential,
//! so the routing graph `SG_j(t)` can never contain a cycle. Both forms
//! verify the *conclusion* (acyclicity) and the *potential argument*
//! (FD ordering) over a raw view of the global state: `succ(i, j)`
//! yields `S^i_j`, `fd(i, j)` yields `FD^i_j`, and `live(i, k)` says
//! whether the edge `i → k` is FD-comparable. An edge over a down link,
//! or into a neighbor that has since restarted, is not: it points at a
//! dead wire or a dead incarnation — a blackhole being withdrawn, not a
//! potential-function violation. Cycle detection exempts nothing.
//!
//! [`check`] scans the whole view: the oracle, run by the in-memory
//! harness and the model checker. [`Auditor`] re-checks only what moved:
//! the simulators and the merged-trace replay run it.

use crate::mpda::MpdaRouter;
use mdr_net::NodeId;
use std::cmp::Ordering;
use std::fmt;

/// Search the successor graph for destination `j` for a cycle. Returns
/// the cycle's node sequence (first = last) if one exists, `None` when
/// the graph is a DAG.
///
/// `succ(i)` must yield the successor set `S^i_j` of router `i`.
pub fn find_cycle<F, R>(n: usize, succ: F) -> Option<Vec<NodeId>>
where
    F: Fn(NodeId) -> R,
    R: AsRef<[NodeId]>,
{
    // Iterative DFS: `path` holds the gray nodes, each with the index
    // of its next successor to visit; `done` marks the black ones.
    let (mut on_path, mut done) = (vec![false; n], vec![false; n]);
    let mut path: Vec<(NodeId, usize)> = Vec::new();
    for start in (0..n as u32).map(NodeId) {
        if done[start.index()] {
            continue;
        }
        on_path[start.index()] = true;
        path.push((start, 0));
        while let Some(&(u, at)) = path.last() {
            let Some(&v) = succ(u).as_ref().get(at) else {
                (on_path[u.index()], done[u.index()]) = (false, true);
                path.pop();
                continue;
            };
            path.last_mut().unwrap().1 += 1;
            if on_path[v.index()] {
                let pos = path.iter().position(|&(x, _)| x == v).unwrap();
                return Some(path[pos..].iter().map(|&(x, _)| x).chain([v]).collect());
            }
            if !done[v.index()] {
                on_path[v.index()] = true;
                path.push((v, 0));
            }
        }
    }
    None
}

/// A breach of the LFI, as [`check`] finds it.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The successor graph toward `dest` holds `cycle` (first = last).
    Cycle { dest: NodeId, cycle: Vec<NodeId> },
    /// Router `i` uses `k` as a successor toward `j` over a live edge,
    /// but `fd_k = FD^k_j` is not below `fd_i = FD^i_j`.
    FdOrder { i: NodeId, k: NodeId, j: NodeId, fd_i: f64, fd_k: f64 },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Cycle { dest, cycle } => {
                write!(f, "successor graph for destination {dest} has a cycle: {cycle:?}")
            }
            Violation::FdOrder { i, k, j, fd_i, fd_k } => write!(
                f,
                "FD ordering violated: router {i} uses successor {k} for {j} \
                 but FD^k = {fd_k} >= FD^i = {fd_i}"
            ),
        }
    }
}

/// Check both halves of the LFI over the whole view: every
/// destination's successor graph, then every live successor edge's FD
/// ordering. Returns the first breach found.
pub fn check<S, R, D, L>(n: usize, succ: S, fd: D, live: L) -> Result<(), Violation>
where
    S: Fn(NodeId, NodeId) -> R,
    R: AsRef<[NodeId]>,
    D: Fn(NodeId, NodeId) -> f64,
    L: Fn(NodeId, NodeId) -> bool,
{
    let cycle =
        |dest| find_cycle(n, |i| succ(i, dest)).map(|cycle| Violation::Cycle { dest, cycle });
    if let Some(v) = (0..n as u32).map(NodeId).find_map(cycle) {
        return Err(v);
    }
    match first_breach(n, &succ, &fd, &live) {
        Some((i, k, j)) => Err(Violation::FdOrder { i, k, j, fd_i: fd(i, j), fd_k: fd(k, j) }),
        None => Ok(()),
    }
}

/// The cycle half of [`check`] over live routers: `Err((dest, cycle))`.
pub fn check_loop_freedom_with<'a, F>(n: usize, router: F) -> Result<(), (NodeId, Vec<NodeId>)>
where
    F: Fn(NodeId) -> &'a MpdaRouter,
{
    let cycle = |j| find_cycle(n, |i| router(i).successors(j)).map(|c| (j, c));
    (0..n as u32).map(NodeId).find_map(cycle).map_or(Ok(()), Err)
}

/// The FD half of [`check`] over live routers, every edge live:
/// `Err((i, k, j))`.
pub fn check_fd_ordering_with<'a, F>(n: usize, router: F) -> Result<(), (NodeId, NodeId, NodeId)>
where
    F: Fn(NodeId) -> &'a MpdaRouter,
{
    let succ = |i: NodeId, j| router(i).successors(j);
    first_breach(n, succ, |i, j| router(i).feasible_distance(j), |_, _| true).map_or(Ok(()), Err)
}

fn first_breach<S, R, D, L>(n: usize, succ: S, fd: D, live: L) -> Option<(NodeId, NodeId, NodeId)>
where
    S: Fn(NodeId, NodeId) -> R,
    R: AsRef<[NodeId]>,
    D: Fn(NodeId, NodeId) -> f64,
    L: Fn(NodeId, NodeId) -> bool,
{
    let nodes = || (0..n as u32).map(NodeId);
    nodes().find_map(|j| {
        nodes()
            .find_map(|i| breach(i, j, succ(i, j).as_ref(), |x| fd(x, j), &live).map(|k| (i, k, j)))
    })
}

/// The first successor `k` in router `i`'s row `succ` toward `j` whose
/// live edge breaks the ordering, `fd(x)` being `FD^x_j`; the edge to
/// `j` itself is exempt. `total_cmp`, so that a NaN feasible distance
/// *fails* the ordering loudly.
fn breach(
    i: NodeId,
    j: NodeId,
    succ: &[NodeId],
    fd: impl Fn(NodeId) -> f64,
    live: impl Fn(NodeId, NodeId) -> bool,
) -> Option<NodeId> {
    let fd_i = fd(i);
    succ.iter().copied().find(|&k| k != j && live(i, k) && fd(k).total_cmp(&fd_i) != Ordering::Less)
}

/// What an [`Auditor`] has found so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Audits performed.
    pub checks: u64,
    /// Audits that found a cycle or an FD-ordering breach.
    pub violations: u64,
    /// The first breach, stamped with its audit's time.
    pub first_violation: Option<String>,
}

/// The incremental LFI audit: Theorem 1's local certificate, re-checked
/// only where a row moved (DESIGN.md §6, layer 3, argues it exact).
///
/// The host says which routers it touched: their rows, or the liveness
/// of their out-edges, may have moved. Each audit diffs the touched
/// routers' rows against the last-audited ones, re-checks the FD
/// ordering of those rows and of the rows pointing at a moved FD, and
/// searches for a cycle from each added successor edge (and through the
/// whole of each destination known to be cyclic). The dev and test
/// profiles compare every audit against [`check`]. Successors must name
/// routers below `n`.
#[derive(Debug, Clone, Default)]
pub struct Auditor {
    /// What the audits found.
    pub tally: Tally,
    n: usize,
    /// At `i * n + j`: the last-audited `S^i_j` and `FD^i_j`, and
    /// whether the row has a live FD breach; per destination, is it
    /// cyclic? And the counts.
    succ: Vec<Vec<NodeId>>,
    fd: Vec<f64>,
    breached: Vec<bool>,
    cyclic: Vec<bool>,
    breaches: usize,
    cycles: usize,
    /// Routers touched since the last audit.
    touched: Vec<NodeId>,
}

impl Auditor {
    /// An auditor for `n` routers that has seen nothing yet: its first
    /// audit reads every row.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            succ: vec![Vec::new(); n * n],
            fd: vec![0.0; n * n],
            breached: vec![false; n * n],
            cyclic: vec![false; n],
            touched: (0..n as u32).map(NodeId).collect(),
            ..Self::default()
        }
    }

    /// Router `i`'s rows, or the liveness of its out-edges, may have
    /// moved since the last audit.
    pub fn touch(&mut self, i: NodeId) {
        self.touched.push(i);
    }

    /// Audit the view at time `now` (`succ`, `fd` and `live` as in
    /// [`check`]) and tally the verdict. Returns whether the LFI holds.
    pub fn audit<S, R, D, L>(&mut self, now: f64, succ: S, fd: D, live: L) -> bool
    where
        S: Fn(NodeId, NodeId) -> R,
        R: AsRef<[NodeId]>,
        D: Fn(NodeId, NodeId) -> f64,
        L: Fn(NodeId, NodeId) -> bool,
    {
        let n = self.n;
        // Rows to re-check, and added edges `(j, i, k)`.
        let (mut rows, mut added) = (Vec::new(), Vec::new());
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        for i in touched {
            for j in 0..n {
                let (r, jn) = (i.index() * n + j, NodeId(j as u32));
                rows.push(r);
                if fd(i, jn).to_bits() != self.fd[r].to_bits() {
                    self.fd[r] = fd(i, jn);
                    rows.extend((0..n).map(|x| x * n + j).filter(|&x| self.succ[x].contains(&i)));
                }
                let s = succ(i, jn);
                if s.as_ref() == self.succ[r].as_slice() {
                    continue;
                }
                let old = std::mem::replace(&mut self.succ[r], s.as_ref().to_vec());
                added.extend(s.as_ref().iter().filter(|k| !old.contains(k)).map(|&k| (j, i, k)));
            }
        }
        for r in rows {
            let (i, j) = (NodeId((r / n) as u32), NodeId((r % n) as u32));
            let fd_j = |x: NodeId| self.fd[x.index() * n + j.index()];
            let bad = breach(i, j, &self.succ[r], fd_j, &live).is_some();
            if bad != std::mem::replace(&mut self.breached[r], bad) {
                self.breaches = if bad { self.breaches + 1 } else { self.breaches - 1 };
            }
        }
        for j in 0..n {
            if self.cyclic[j] && find_cycle(n, |i| &self.succ[i.index() * n + j]).is_none() {
                self.cyclic[j] = false;
                self.cycles -= 1;
            }
        }
        for (j, i, k) in added {
            if !self.cyclic[j] && self.reaches(j, k, i) {
                self.cyclic[j] = true;
                self.cycles += 1;
            }
        }

        self.tally.checks += 1;
        let holds = self.cycles == 0 && self.breaches == 0;
        if cfg!(debug_assertions) {
            let full = check(n, &succ, &fd, &live);
            assert_eq!(holds, full.is_ok(), "t={now}: the auditor disagrees with {full:?}");
        }
        if !holds {
            self.tally.violations += 1;
            if self.tally.first_violation.is_none() {
                let v = check(n, &succ, &fd, &live).err();
                self.tally.first_violation = v.map(|v| format!("t={now:.6}: {v}"));
            }
        }
        holds
    }

    /// Does `from` reach `to` in destination `j`'s successor graph?
    fn reaches(&self, j: usize, from: NodeId, to: NodeId) -> bool {
        let (mut seen, mut stack) = (vec![false; self.n], vec![from]);
        while let Some(u) = stack.pop() {
            if u == to {
                return true;
            }
            for &v in &self.succ[u.index() * self.n + j] {
                if !std::mem::replace(&mut seen[v.index()], true) {
                    stack.push(v);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_no_cycle_in_dag() {
        // 0 -> 1 -> 2, 0 -> 2.
        let succ: Vec<Vec<NodeId>> = vec![vec![NodeId(1), NodeId(2)], vec![NodeId(2)], vec![]];
        assert!(find_cycle(3, |i| succ[i.index()].as_slice()).is_none());
    }

    #[test]
    fn finds_two_cycle() {
        let succ: Vec<Vec<NodeId>> = vec![vec![NodeId(1)], vec![NodeId(0)], vec![]];
        let c = find_cycle(3, |i| succ[i.index()].as_slice()).unwrap();
        assert!(c.len() >= 3); // e.g. [0, 1, 0]
        assert_eq!(c.first(), c.last());
    }

    #[test]
    fn finds_long_cycle_behind_tail() {
        // 0 -> 1 -> 2 -> 3 -> 1.
        let succ: Vec<Vec<NodeId>> =
            vec![vec![NodeId(1)], vec![NodeId(2)], vec![NodeId(3)], vec![NodeId(1)]];
        let c = find_cycle(4, |i| succ[i.index()].as_slice()).unwrap();
        assert_eq!(c.first(), c.last());
        assert!(c.contains(&NodeId(2)));
        assert!(!c.contains(&NodeId(0)));
    }

    #[test]
    fn self_loop_detected() {
        let succ: Vec<Vec<NodeId>> = vec![vec![NodeId(0)]];
        assert!(find_cycle(1, |i| succ[i.index()].as_slice()).is_some());
    }

    #[test]
    fn empty_graph_is_loop_free() {
        let succ: Vec<Vec<NodeId>> = vec![vec![], vec![]];
        assert!(find_cycle(2, |i| succ[i.index()].as_slice()).is_none());
    }

    /// A 3-node view toward destination 2 (no routers anywhere): row
    /// `i` is `succ[i]`, FD 1 everywhere except 0 at the destination.
    fn view(succ: [&'static [NodeId]; 3]) -> impl Fn(NodeId, NodeId) -> &'static [NodeId] {
        move |i, j| if j == NodeId(2) { succ[i.index()] } else { &[] }
    }

    fn fd(i: NodeId, j: NodeId) -> f64 {
        if i == j {
            0.0
        } else {
            1.0
        }
    }

    const TWO: &[NodeId] = &[NodeId(2)];
    const ZERO: &[NodeId] = &[NodeId(0)];
    const ONE: &[NodeId] = &[NodeId(1)];

    #[test]
    fn view_checkers_work_on_raw_snapshots() {
        // 0 and 1 both reach 2; clean FD ordering.
        assert_eq!(check(3, view([TWO, TWO, &[]]), fd, |_, _| true), Ok(()));
        // A mutual-successor pair is a cycle, found before the FD half.
        let looped = view([ONE, ZERO, &[]]);
        let Err(Violation::Cycle { dest, cycle }) = check(3, &looped, fd, |_, _| true) else {
            panic!("a 0 <-> 1 loop must be reported as a cycle");
        };
        assert_eq!(dest, NodeId(2));
        assert!(cycle.len() >= 3);
        // Equal FDs across a successor edge violate the strict ordering.
        assert_eq!(
            first_breach(3, &looped, fd, |_, _| true),
            Some((NodeId(0), NodeId(1), NodeId(2)))
        );
        // An edge that is not live is exempt from the FD half only.
        assert_eq!(first_breach(3, &looped, fd, |_, _| false), None);
        assert!(check(3, &looped, fd, |_, _| false).is_err());
    }

    #[test]
    fn fd_ordering_view_rejects_nan() {
        let v = check(3, view([ONE, &[], &[]]), |_, _| f64::NAN, |_, _| true).unwrap_err();
        assert!(matches!(v, Violation::FdOrder { i: NodeId(0), k: NodeId(1), .. }), "{v}");
        assert!(v.to_string().starts_with("FD ordering violated"), "{v}");
    }

    #[test]
    fn audit_view_catches_cycles_in_reconstructed_state() {
        // Rows toward destination 2, edited in place; no edge is live,
        // so only the cycle half can see anything.
        let mut rows: Vec<Vec<NodeId>> = vec![vec![], vec![], vec![]];
        let mut a = Auditor::new(3);
        let step = |a: &mut Auditor, rows: &[Vec<NodeId>], at: f64| {
            let succ =
                |i: NodeId, j: NodeId| if j == NodeId(2) { &rows[i.index()][..] } else { &[] };
            a.audit(at, succ, fd, |_, _| false)
        };
        assert!(step(&mut a, &rows, 0.0));
        rows[0] = vec![NodeId(1)];
        a.touch(NodeId(0));
        assert!(step(&mut a, &rows, 1.0));
        rows[1] = vec![NodeId(2), NodeId(0)];
        a.touch(NodeId(1));
        assert!(!step(&mut a, &rows, 2.0));
        // Still cyclic while an unrelated edge moves; clean once cut.
        rows[2] = vec![NodeId(0)];
        a.touch(NodeId(2));
        assert!(!step(&mut a, &rows, 3.0));
        rows[0].clear();
        a.touch(NodeId(0));
        assert!(step(&mut a, &rows, 4.0));
        assert_eq!((a.tally.checks, a.tally.violations), (5, 2));
        let msg = a.tally.first_violation.as_deref().unwrap();
        assert!(msg.starts_with("t=2.000000: successor graph for destination 2"), "{msg}");
    }

    #[test]
    fn clean_routers_pass() {
        // Two routers with an up link between them: converged, no loops.
        use crate::RouterEvent;
        let mut a = MpdaRouter::new(NodeId(0), 2);
        let mut b = MpdaRouter::new(NodeId(1), 2);
        let _ = a.handle(RouterEvent::LinkUp { to: NodeId(1), cost: 1.0 });
        let _ = b.handle(RouterEvent::LinkUp { to: NodeId(0), cost: 1.0 });
        let routers = [a, b];
        let mut m = Auditor::new(2);
        let succ = |i: NodeId, j| routers[i.index()].successors(j);
        assert!(m.audit(0.0, succ, |i, j| routers[i.index()].feasible_distance(j), |_, _| true));
        assert_eq!(m.tally, Tally { checks: 1, violations: 0, first_violation: None });
    }

    #[test]
    fn the_auditor_rechecks_rows_pointing_at_a_moved_fd_and_a_dead_edge() {
        // 0 -> 1 toward 2 with FD^0 = 2 > FD^1 = 1: ordered.
        let mut fds = [2.0, 1.0, 0.0];
        let mut live = true;
        let mut a = Auditor::new(3);
        let step = |a: &mut Auditor, fds: &[f64; 3], live: bool| {
            let fd = |i: NodeId, j: NodeId| if j == NodeId(2) { fds[i.index()] } else { 0.0 };
            a.audit(0.0, view([ONE, TWO, &[]]), fd, |_, _| live)
        };
        assert!(step(&mut a, &fds, live));
        // FD^1 rises past FD^0: router 0's unmoved row now breaches.
        fds[1] = 3.0;
        a.touch(NodeId(1));
        assert!(!step(&mut a, &fds, live));
        // The edge dies (its tail is touched): the breach no longer counts.
        live = false;
        a.touch(NodeId(0));
        assert!(step(&mut a, &fds, live));
        assert_eq!(a.tally.violations, 1);
    }
}
