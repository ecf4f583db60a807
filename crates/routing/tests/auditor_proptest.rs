//! The incremental LFI auditor (`lfi::Auditor`) against the full check
//! (`lfi::check`): after every audit the verdict, and the running count
//! of failed audits, must be the full check's.
//!
//! * Arm 1 edits random successor/FD tables row by row: successors may
//!   name any router (the router itself and the destination included),
//!   FDs include NaN, ±∞ and ties, edge liveness flips at random, and
//!   cycles are planted through edges that are not live — exempt from
//!   the FD half, never from the cycle half.
//! * Arm 2 runs the in-memory harness under the sound rule and under
//!   the deliberately broken `NonStrictSuccessors` rule: the first
//!   violation must land on the same delivery for both.

use mdr_net::{gen, NodeId, Topology};
use mdr_routing::lfi::{self, Auditor};
use mdr_routing::{Harness, MpdaRouter, UpdateRule};
use proptest::prelude::*;

/// A global view edited in place: `S^i_j`, `FD^i_j` at `i * n + j`,
/// and liveness of `i → k` at `i * n + k`.
struct Tables {
    n: usize,
    succ: Vec<Vec<NodeId>>,
    fd: Vec<f64>,
    live: Vec<bool>,
}

impl Tables {
    fn audit(&self, a: &mut Auditor) -> (bool, bool) {
        let n = self.n;
        let succ = |i: NodeId, j: NodeId| &self.succ[i.index() * n + j.index()];
        let fd = |i: NodeId, j: NodeId| self.fd[i.index() * n + j.index()];
        let live = |i: NodeId, k: NodeId| self.live[i.index() * n + k.index()];
        (a.audit(0.0, succ, fd, live), lfi::check(n, succ, fd, live).is_ok())
    }
}

const FDS: [f64; 7] = [0.0, 1.0, 1.0, 2.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// One edit: `((kind, a, b, c), (fd index, successor draw, audit
/// after unless ≥ 7))`.
type Edit = ((u8, usize, usize, usize), (usize, Vec<usize>, u8));

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    let what = (0u8..5, 0usize..64, 0usize..64, 0usize..64);
    let with = (0..FDS.len(), prop::collection::vec(0usize..64, 0..4), 0u8..10);
    prop::collection::vec((what, with), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3000, .. ProptestConfig::default() })]

    #[test]
    fn random_row_edits_match_the_full_check(n in 1usize..8, edits in edits()) {
        let mut t = Tables {
            n,
            succ: vec![Vec::new(); n * n],
            fd: vec![0.0; n * n],
            live: vec![true; n * n],
        };
        let mut a = Auditor::new(n);
        let mut failed = 0u64;
        for ((kind, x, y, z), (f, draw, audit)) in edits {
            let (i, j, k) = (x % n, y % n, z % n);
            match kind {
                // A whole row: any successors, any FD.
                0 => {
                    t.succ[i * n + j] = draw.iter().map(|&s| NodeId((s % n) as u32)).collect();
                    t.fd[i * n + j] = FDS[f];
                    a.touch(NodeId(i as u32));
                }
                // Only the FD moves (or stays: a touch with no change).
                1 => {
                    t.fd[i * n + j] = FDS[f];
                    a.touch(NodeId(i as u32));
                }
                // An edge's liveness flips; its tail router is touched.
                2 => {
                    t.live[i * n + k] = !t.live[i * n + k];
                    a.touch(NodeId(i as u32));
                }
                // A cycle toward j through edges that are not live:
                // i → k → … → i along the drawn routers.
                3 => {
                    let mut ring: Vec<usize> = vec![i];
                    ring.extend(draw.iter().map(|&s| s % n));
                    for w in 0..ring.len() {
                        let (from, to) = (ring[w], ring[(w + 1) % ring.len()]);
                        if !t.succ[from * n + j].contains(&NodeId(to as u32)) {
                            t.succ[from * n + j].push(NodeId(to as u32));
                        }
                        if t.live[from * n + to] {
                            t.live[from * n + to] = false;
                            a.touch(NodeId(from as u32));
                        }
                        a.touch(NodeId(from as u32));
                    }
                }
                // Router i forgets everything toward every destination.
                _ => {
                    for r in i * n..(i + 1) * n {
                        t.succ[r].clear();
                        t.fd[r] = FDS[f];
                    }
                    a.touch(NodeId(i as u32));
                }
            }
            if audit < 7 {
                let (incremental, full) = t.audit(&mut a);
                prop_assert_eq!(incremental, full);
                failed += u64::from(!full);
                prop_assert_eq!(a.tally.violations, failed);
            }
        }
        let (incremental, full) = t.audit(&mut a);
        prop_assert_eq!(incremental, full);
        prop_assert_eq!(a.tally.violations, failed + u64::from(!full));
    }
}

/// Run the harness to quiescence after `churn` cost changes, auditing
/// after every delivery. Returns the first delivery at which the
/// auditor and the full check each saw a violation, and the audits.
fn first_violations(
    t: &Topology,
    rule: UpdateRule,
    seed: u64,
    churn: &[(usize, u32)],
) -> (Option<u64>, Option<u64>, u64) {
    let n = t.node_count();
    let routers = (0..n).map(|i| MpdaRouter::with_rule(NodeId(i as u32), n, rule)).collect();
    // Unit costs tie many paths: the broken rule's failure mode.
    let mut h = Harness::new(routers, t, |_, _| 1.0, seed);
    let links = t.links().to_vec();
    for &(l, c) in churn {
        let l = &links[l % links.len()];
        h.change_cost(l.from, l.to, c as f64);
    }
    let mut a = Auditor::new(n);
    let (mut first_audit, mut first_full) = (None, None);
    let mut delivery = 0u64;
    loop {
        let r = &h.routers;
        let succ = |i: NodeId, j| r[i.index()].successors(j);
        let fd = |i: NodeId, j| r[i.index()].feasible_distance(j);
        // The harness does not say which router a delivery reached.
        for i in 0..n {
            a.touch(NodeId(i as u32));
        }
        if !a.audit(delivery as f64, succ, fd, |_, _| true) {
            first_audit.get_or_insert(delivery);
        }
        if lfi::check(n, succ, fd, |_, _| true).is_err() {
            first_full.get_or_insert(delivery);
        }
        if !h.step() || delivery > 20_000 {
            return (first_audit, first_full, a.tally.checks);
        }
        delivery += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    #[test]
    fn harness_runs_catch_the_first_violation_on_the_same_delivery(
        broken in any::<bool>(),
        n in 4usize..12,
        seed in 0u64..1000,
        churn in prop::collection::vec((0usize..64, 1u32..4), 0..6),
    ) {
        let t = gen::barabasi_albert(n, 2, seed);
        let rule = if broken { UpdateRule::NonStrictSuccessors } else { UpdateRule::Lfi };
        let (first_audit, first_full, checks) = first_violations(&t, rule, seed, &churn);
        prop_assert_eq!(first_audit, first_full);
        prop_assert!(checks > 0);
        if !broken {
            prop_assert_eq!(first_full, None);
        }
    }
}

#[test]
fn the_broken_rule_is_caught() {
    // The harness arm is not vacuous: some run of the broken rule fails.
    let caught = (0..20u64).any(|seed| {
        let t = gen::barabasi_albert(8, 2, seed);
        let (first_audit, first_full, _) =
            first_violations(&t, UpdateRule::NonStrictSuccessors, seed, &[]);
        assert_eq!(first_audit, first_full);
        first_audit.is_some()
    });
    assert!(caught);
}
