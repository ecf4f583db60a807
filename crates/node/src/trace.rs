//! Merged-trace auditing: replay the per-process JSONL traces of a
//! deployment through the *same* LFI auditor the simulators run live.
//!
//! Each process wrote records stamped by its [hybrid logical
//! clock](crate::hlc). Sorting all records by `(hlc_l, hlc_c, node)`
//! produces a single linearization consistent with causality, and every
//! prefix of it is a consistent cut of the distributed computation —
//! so replaying `snapshot` records in merge order and running
//! [`lfi::Auditor::audit`] after each state change checks the
//! Loop-Free Invariant over the reachable global states of the *real*
//! multi-process control plane, kill/restart cycles and packet loss
//! included. This is the deployment-grade counterpart of the chaos
//! harness's always-on auditing.
//!
//! The module is deterministic-core code: it consumes strings and
//! returns a report; file handling lives in the shell.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::record::{NodeRecord, PeerSync, RecordBody};
use mdr_net::NodeId;
use mdr_routing::lfi;

/// One kill/restart recovery measured from the merged trace: the span
/// from a process's `start` record to its next `converged` record, in
/// HLC physical time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recovery {
    /// The node that (re)started.
    pub node: NodeId,
    /// The incarnation that booted.
    pub incarnation: u32,
    /// Seconds from `start` to local convergence.
    pub recovery_s: f64,
}

/// What the merged-trace audit found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAudit {
    /// Records replayed.
    pub records: u64,
    /// Snapshot rows (destinations, peers) naming a router outside the
    /// network: skipped, so a garbled record never panics the audit.
    pub skipped_rows: u64,
    /// The LFI audit counters (one audit per global-state change).
    pub monitor: lfi::Tally,
    /// Per-(re)start recovery spans, in merge order.
    pub recoveries: Vec<Recovery>,
    /// `(node, incarnation)` lives cut short by a kill before reaching
    /// convergence (expected under a kill schedule).
    pub interrupted: Vec<(NodeId, u32)>,
    /// `(node, incarnation)` *final* lives that never converged before
    /// the trace ended — with a settle window after the last kill, a
    /// nonempty list is a soak failure.
    pub unconverged: Vec<(NodeId, u32)>,
}

impl TraceAudit {
    /// Largest recovery span, if any completed.
    pub fn max_recovery_s(&self) -> Option<f64> {
        self.recoveries.iter().map(|r| r.recovery_s).reduce(f64::max)
    }
}

/// Parse and merge JSONL trace file contents into one causally
/// consistent record sequence. Returns the merged records and the
/// number of malformed lines skipped (a trace cut mid-line by a kill
/// must not abort the audit).
pub fn merge_lines<S: AsRef<str>>(files: &[S]) -> (Vec<NodeRecord>, u64) {
    let mut records = Vec::new();
    let mut malformed = 0u64;
    for f in files {
        for line in f.as_ref().lines() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<NodeRecord>(line) {
                Ok(r) => records.push(r),
                Err(_) => malformed += 1,
            }
        }
    }
    records.sort_by_key(NodeRecord::merge_key);
    (records, malformed)
}

/// Replay a merged record sequence (from [`merge_lines`]) for an
/// `n`-router network: rebuild each node's safety state from its
/// `snapshot` records, audit the global view after every state change,
/// and measure `start → converged` recovery spans.
pub fn audit_trace(n: usize, records: &[NodeRecord]) -> TraceAudit {
    let mut audit = TraceAudit::default();
    let mut auditor = lfi::Auditor::new(n);
    // Each node's last snapshot: `S^i_j` and `FD^i_j` at `i * n + j`,
    // and its live adjacencies. A node whose snapshot for `j` has not
    // yet appeared in merge order has *unknown* feasible distance, not
    // infinite: its real state may be causally concurrent with this
    // cut. Unknown FD cannot witness an ordering violation, so it reads
    // -inf (always passes `FD^k < FD^i`). A node that *does* route
    // through it will still be caught once that snapshot lands.
    let mut succ: Vec<Vec<NodeId>> = vec![Vec::new(); n * n];
    let mut fd = vec![f64::NEG_INFINITY; n * n];
    let mut peers: Vec<Vec<PeerSync>> = vec![Vec::new(); n];
    // The live incarnation per node, with its start stamp while the
    // recovery clock is still running.
    let mut pending: Vec<Option<(u32, u64)>> = vec![None; n];
    // Current incarnation per node at this point of the merged order.
    // HLC causality guarantees a node's `start` record sorts before any
    // snapshot built against that incarnation, so this is exact at
    // every cut.
    let mut cur_inc: Vec<u32> = vec![1; n];

    for rec in records {
        audit.records += 1;
        let i = rec.node.index();
        if i >= n {
            continue;
        }
        let (dests, new_peers) = match &rec.body {
            RecordBody::Start { .. } => {
                // A (re)started process lost all routing state; a life
                // it replaced that never converged was cut short. Edges
                // into it now point at a dead incarnation: touch their
                // tails.
                if let Some((inc, _)) = pending[i].take() {
                    audit.interrupted.push((rec.node, inc));
                }
                pending[i] = Some((rec.incarnation, rec.hlc.l));
                cur_inc[i] = rec.incarnation;
                for x in (0..n).filter(|&x| peers[x].iter().any(|p| p.peer == rec.node)) {
                    auditor.touch(NodeId(x as u32));
                }
                (&[][..], &[][..])
            }
            RecordBody::Snapshot { dests, peers } => (&dests[..], &peers[..]),
            RecordBody::Converged => {
                if let Some((inc, start_l)) = pending[i] {
                    if inc == rec.incarnation {
                        pending[i] = None;
                        audit.recoveries.push(Recovery {
                            node: rec.node,
                            incarnation: inc,
                            recovery_s: rec.hlc.l.saturating_sub(start_l) as f64 / 1e6,
                        });
                    }
                }
                continue;
            }
            _ => continue,
        };
        // The record replaces node i's state; per destination, the
        // first row wins.
        for j in 0..n {
            succ[i * n + j].clear();
            fd[i * n + j] = f64::NEG_INFINITY;
        }
        for d in dests.iter().rev() {
            if d.dest.index() >= n || d.successors.iter().any(|k| k.index() >= n) {
                audit.skipped_rows += 1;
                continue;
            }
            succ[i * n + d.dest.index()].clone_from(&d.successors);
            fd[i * n + d.dest.index()] = d.fd;
        }
        peers[i] = new_peers.iter().filter(|p| p.peer.index() < n).copied().collect();
        audit.skipped_rows += (new_peers.len() - peers[i].len()) as u64;
        auditor.touch(rec.node);
        auditor.audit(
            rec.hlc.l as f64 / 1e6,
            |i, j| &succ[i.index() * n + j.index()],
            |i, j| fd[i.index() * n + j.index()],
            // A successor edge i → k is FD-comparable only if i's
            // snapshot was built against k's *current* incarnation;
            // across a restart the edge points at a dead life — a
            // blackhole being withdrawn, not an ordering breach.
            |i, k| peers[i.index()].iter().any(|p| p.peer == k && p.inc == cur_inc[k.index()]),
        );
    }
    audit.monitor = auditor.tally;
    for (i, p) in pending.iter().enumerate() {
        if let Some((inc, _)) = p {
            audit.unconverged.push((NodeId(i as u32), *inc));
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SnapDest;
    use mdr_proto::HlcStamp;

    fn rec(l: u64, node: u32, inc: u32, body: RecordBody) -> NodeRecord {
        NodeRecord { hlc: HlcStamp { l, c: 0 }, node: NodeId(node), incarnation: inc, body }
    }

    /// Snapshot with explicit per-adjacency incarnations.
    fn snap_at(dest: u32, fd: f64, succ: &[u32], peers: &[(u32, u32)]) -> RecordBody {
        RecordBody::Snapshot {
            dests: vec![SnapDest {
                dest: NodeId(dest),
                fd,
                dist: fd,
                successors: succ.iter().map(|&s| NodeId(s)).collect(),
            }],
            peers: peers.iter().map(|&(p, inc)| PeerSync { peer: NodeId(p), inc }).collect(),
        }
    }

    /// Snapshot whose successors are all first-incarnation adjacencies.
    fn snap(dest: u32, fd: f64, succ: &[u32]) -> RecordBody {
        let peers: Vec<(u32, u32)> = succ.iter().map(|&s| (s, 1)).collect();
        snap_at(dest, fd, succ, &peers)
    }

    #[test]
    fn merge_sorts_across_files_and_skips_garbage() {
        let a = format!(
            "{}\n{}\n",
            serde_json::to_string(&rec(200, 0, 1, RecordBody::Converged)).unwrap(),
            serde_json::to_string(&rec(300, 0, 1, RecordBody::Converged)).unwrap(),
        );
        let b = format!(
            "{}\nnot-json-tail-cut-by-kill\n",
            serde_json::to_string(&rec(100, 1, 1, RecordBody::Converged)).unwrap(),
        );
        let (merged, malformed) = merge_lines(&[a, b]);
        assert_eq!(malformed, 1);
        let key: Vec<u64> = merged.iter().map(|r| r.hlc.l).collect();
        assert_eq!(key, vec![100, 200, 300]);
    }

    #[test]
    fn clean_history_audits_clean_and_measures_recovery() {
        let records = vec![
            rec(0, 0, 1, RecordBody::Start { n: 3, neighbors: vec![NodeId(1)] }),
            rec(1, 1, 1, RecordBody::Start { n: 3, neighbors: vec![NodeId(0)] }),
            rec(100, 0, 1, snap(2, 2.0, &[1])),
            rec(150, 1, 1, snap(2, 1.0, &[2])),
            rec(200, 0, 1, RecordBody::Converged),
            rec(250, 1, 1, RecordBody::Converged),
        ];
        let audit = audit_trace(3, &records);
        assert_eq!(audit.records, 6);
        assert_eq!(audit.monitor.violations, 0);
        assert!(audit.monitor.checks >= 4);
        assert_eq!(audit.recoveries.len(), 2);
        assert!((audit.recoveries[0].recovery_s - 200e-6).abs() < 1e-12);
        assert!((audit.max_recovery_s().unwrap() - 249e-6).abs() < 1e-12);
        assert!(audit.unconverged.is_empty());
    }

    #[test]
    fn a_successor_cycle_in_the_merged_view_is_caught() {
        let records = vec![
            rec(100, 0, 1, snap(2, 1.0, &[1])),
            rec(200, 1, 1, snap(2, 1.0, &[0])), // cycle 0 <-> 1 toward 2
        ];
        let audit = audit_trace(3, &records);
        assert_eq!(audit.monitor.violations, 1);
        let msg = audit.monitor.first_violation.as_deref().unwrap();
        assert!(msg.contains("cycle"), "{msg}");
    }

    #[test]
    fn restart_resets_state_and_tracks_the_cut_short_life() {
        let records = vec![
            rec(0, 0, 1, RecordBody::Start { n: 2, neighbors: vec![NodeId(1)] }),
            rec(100, 0, 1, snap(1, 1.0, &[1])),
            // Killed before converging; incarnation 2 boots and makes it.
            rec(500, 0, 2, RecordBody::Start { n: 2, neighbors: vec![NodeId(1)] }),
            rec(900, 0, 2, RecordBody::Converged),
        ];
        let audit = audit_trace(2, &records);
        assert_eq!(audit.interrupted, vec![(NodeId(0), 1)]);
        assert!(audit.unconverged.is_empty());
        assert_eq!(audit.recoveries.len(), 1);
        assert_eq!(audit.recoveries[0].incarnation, 2);
        assert!((audit.recoveries[0].recovery_s - 400e-6).abs() < 1e-12);
        // A stale converged record from the dead life is ignored.
        let mut with_stale = records.clone();
        with_stale.push(rec(950, 0, 1, RecordBody::Converged));
        let audit = audit_trace(2, &with_stale);
        assert_eq!(audit.recoveries.len(), 1);
    }

    #[test]
    fn a_stale_epoch_edge_is_exempt_from_fd_ordering() {
        // Node 0 routes to 2 via node 1 (adjacency at incarnation 1);
        // node 1 then dies, reboots as incarnation 2, and snapshots an
        // unreachable FD. Comparing 0's pre-crash edge against the
        // reborn FD would flag a "violation" that is really a blackhole
        // transient mid-withdrawal — it must be skipped.
        let records = vec![
            rec(10, 1, 1, RecordBody::Start { n: 3, neighbors: vec![NodeId(0)] }),
            rec(50, 0, 1, snap_at(2, 2.0, &[1], &[(1, 1)])),
            rec(100, 1, 2, RecordBody::Start { n: 3, neighbors: vec![NodeId(0)] }),
            rec(150, 1, 2, snap_at(2, 1e12, &[], &[])),
        ];
        let audit = audit_trace(3, &records);
        assert_eq!(audit.monitor.violations, 0, "{:?}", audit.monitor.first_violation);
    }

    #[test]
    fn a_snapshot_naming_routers_outside_the_network_is_skipped_not_fatal() {
        // n = 3, but the snapshot names successor 7, destination 9 and
        // peer 5: those rows are counted and skipped, the rest audited.
        let garbled = RecordBody::Snapshot {
            dests: vec![
                SnapDest { dest: NodeId(2), fd: 2.0, dist: 2.0, successors: vec![NodeId(7)] },
                SnapDest { dest: NodeId(9), fd: 1.0, dist: 1.0, successors: vec![] },
                SnapDest { dest: NodeId(1), fd: 1.0, dist: 1.0, successors: vec![NodeId(1)] },
            ],
            peers: vec![PeerSync { peer: NodeId(5), inc: 1 }, PeerSync { peer: NodeId(1), inc: 1 }],
        };
        let records = vec![rec(100, 0, 1, garbled), rec(200, 0, 1, RecordBody::Converged)];
        let audit = audit_trace(3, &records);
        assert_eq!(audit.skipped_rows, 3);
        assert_eq!(audit.monitor.checks, 1);
        assert_eq!(audit.monitor.violations, 0, "{:?}", audit.monitor.first_violation);
        // A cycle among the rows that survive is still caught.
        let records = vec![
            rec(100, 0, 1, snap(2, 1.0, &[1])),
            rec(200, 1, 1, snap_at(2, 1.0, &[0], &[(0, 1), (7, 1)])),
        ];
        let audit = audit_trace(3, &records);
        assert_eq!((audit.skipped_rows, audit.monitor.violations), (1, 1));
    }

    #[test]
    fn a_fresh_epoch_edge_still_enforces_fd_ordering() {
        // Same shape, but node 0 re-snapshots the edge AGAINST the new
        // incarnation while node 1's FD is still worse: that is a live
        // ordering breach and must be caught.
        let records = vec![
            rec(10, 1, 1, RecordBody::Start { n: 3, neighbors: vec![NodeId(0)] }),
            rec(100, 1, 2, RecordBody::Start { n: 3, neighbors: vec![NodeId(0)] }),
            rec(150, 1, 2, snap_at(2, 1e12, &[], &[])),
            rec(200, 0, 1, snap_at(2, 2.0, &[1], &[(1, 2)])),
        ];
        let audit = audit_trace(3, &records);
        assert_eq!(audit.monitor.violations, 1);
        let msg = audit.monitor.first_violation.as_deref().unwrap();
        assert!(msg.contains("FD ordering"), "{msg}");
    }
}
