//! Chaos property test: random *legal* fault schedules on the paper's
//! two benchmark topologies (CAIRN and NET1) keep every MPDA successor
//! graph loop-free at every instant.
//!
//! "Legal" means the schedule respects link state — only operational
//! links fail, only failed links are repaired — which the generator
//! guarantees by tracking up/down per physical link. Safety is audited
//! after **every** message delivery (acyclicity via `find_cycle` plus
//! the FD-ordering potential of Theorem 1, both inside
//! `Harness::assert_loop_free`), not just at quiescence.
//!
//! The schedules also plant LSU entries whose head and/or tail lie
//! outside `0..n` (up to `u32::MAX`) into in-flight messages, so the
//! audit runs with such entries sitting in the neighbor tables.

use mdr_net::{topo, NodeId};
use mdr_proto::LsuEntry;
use mdr_routing::Harness;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Random-ish but deterministic cost in [1, 10] from the link endpoints
/// and a salt.
fn cost(a: NodeId, b: NodeId, salt: u32) -> f64 {
    1.0 + ((a.0.wrapping_mul(2654435761) ^ b.0.wrapping_mul(40503) ^ salt) % 90) as f64 / 10.0
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Interleave link failures, repairs, and cost churn with partial
    /// message delivery; the successor graphs must stay loop-free after
    /// every single delivery, and the network must quiesce afterwards.
    #[test]
    fn random_fault_schedules_stay_loop_free(
        use_cairn in any::<bool>(),
        sched_seed in 0u64..1000,
        salt in 0u32..100,
        // (entity selector, action: fail/restore/cost-change/out-of-range
        // entry, deliveries to interleave, new cost in decisecond units)
        ops in prop::collection::vec((0u32..10_000, 0u32..4, 1u32..12, 10u32..80), 2..10),
    ) {
        let t = if use_cairn { topo::cairn() } else { topo::net1() };
        let mut h = Harness::mpda(&t, |a, b| cost(a, b, salt), sched_seed);
        prop_assert!(h.run_to_quiescence(5_000_000));
        h.assert_loop_free();

        // Physical links (each once, from < to), with up/down tracking.
        let phys: Vec<_> = t.links().iter().filter(|l| l.from < l.to).cloned().collect();
        let mut down: BTreeSet<usize> = BTreeSet::new();
        for (sel, action, steps, c) in &ops {
            match action {
                0 => {
                    let up: Vec<usize> = (0..phys.len()).filter(|i| !down.contains(i)).collect();
                    if let Some(&i) = up.get((*sel as usize) % up.len().max(1)) {
                        down.insert(i);
                        h.fail_link(phys[i].from, phys[i].to);
                    }
                }
                1 => {
                    let dn: Vec<usize> = down.iter().copied().collect();
                    if !dn.is_empty() {
                        let i = dn[(*sel as usize) % dn.len()];
                        down.remove(&i);
                        h.restore_link(phys[i].from, phys[i].to, *c as f64 / 10.0);
                    }
                }
                2 => {
                    let up: Vec<usize> = (0..phys.len()).filter(|i| !down.contains(i)).collect();
                    if !up.is_empty() {
                        let i = up[(*sel as usize) % up.len()];
                        h.change_cost(phys[i].from, phys[i].to, *c as f64 / 10.0);
                    }
                }
                _ => {
                    // An entry naming routers that do not exist, riding
                    // on an LSU already in flight (none in flight: start
                    // one with a cost change).
                    let n = t.node_count() as u32;
                    let inside = NodeId(*sel % n);
                    let outside = NodeId(if *c % 2 == 0 { u32::MAX } else { n + *c });
                    let (head, tail) = match *sel % 3 {
                        0 => (outside, outside),
                        1 => (inside, outside),
                        _ => (outside, inside),
                    };
                    let up: Vec<usize> = (0..phys.len()).filter(|i| !down.contains(i)).collect();
                    if h.in_flight() == 0 && !up.is_empty() {
                        let i = up[(*sel as usize) % up.len()];
                        h.change_cost(phys[i].from, phys[i].to, *c as f64 / 10.0);
                    }
                    h.append_in_flight(*sel as usize, LsuEntry::add(head, tail, *c as f64 / 10.0));
                }
            }
            // Loop-free at every instant: deliver a few messages with
            // the full safety audit after each one.
            for _ in 0..*steps {
                if !h.step() {
                    break;
                }
                h.assert_loop_free();
            }
        }
        prop_assert!(h.run_to_quiescence(5_000_000));
        h.assert_loop_free();
        // Whatever was planted, nothing outside `0..n` was ever adopted
        // into a main table (and so never advertised onward).
        let n = t.node_count();
        for r in &h.routers {
            prop_assert!(r.main_topology().iter().all(|(a, b, _)| a.index() < n && b.index() < n));
        }
    }
}
