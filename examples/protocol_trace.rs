//! Protocol trace: drive MPDA routers directly (no packet simulator)
//! and print every LSU exchanged while a small network converges, fails
//! a link, and reconverges — the ACTIVE/PASSIVE synchronization of
//! Fig. 4/5 made visible.
//!
//! ```sh
//! cargo run --release --example protocol_trace
//! ```

use mdr::prelude::*;
use mdr_routing::{lfi, MpdaRouter, RouterEvent, SendTo};
use std::collections::VecDeque;

struct Net {
    routers: Vec<MpdaRouter>,
    wire: VecDeque<(NodeId, NodeId, LsuMessage)>,
    delivered: usize,
}

impl Net {
    fn inject(&mut self, at: NodeId, ev: RouterEvent, why: &str) {
        println!("event at {at}: {why}");
        let out = self.routers[at.index()].handle(ev);
        self.enqueue(at, out.sends);
    }

    fn enqueue(&mut self, from: NodeId, sends: Vec<SendTo>) {
        for s in sends {
            let kind = match (s.msg.entries.is_empty(), s.msg.ack) {
                (true, true) => "ACK".to_string(),
                (false, ack) => {
                    format!("{} entries{}", s.msg.entries.len(), if ack { " +ACK" } else { "" })
                }
                (true, false) => "empty".to_string(),
            };
            println!("    {from} -> {}: LSU [{kind}]", s.to);
            self.wire.push_back((from, s.to, s.msg));
        }
    }

    fn drain(&mut self) {
        while let Some((from, to, msg)) = self.wire.pop_front() {
            self.delivered += 1;
            let out = self.routers[to.index()].handle(RouterEvent::Lsu { from, msg });
            self.enqueue(to, out.sends);
            // Safety property, checked after *every* delivery.
            let r = &self.routers;
            let succ = |i: NodeId, j| r[i.index()].successors(j);
            let v =
                lfi::check(r.len(), succ, |i, j| r[i.index()].feasible_distance(j), |_, _| true);
            assert!(v.is_ok(), "Theorem 3 violated: {v:?}");
        }
        let states: Vec<String> = self
            .routers
            .iter()
            .map(|r| format!("{}={}", r.id(), if r.is_active() { "ACTIVE" } else { "PASSIVE" }))
            .collect();
        println!("  quiescent; states: {}\n", states.join(" "));
    }
}

fn main() {
    // A 4-node square with one diagonal.
    //   0 -- 1
    //   |  / |
    //   2 -- 3
    let n = |i: u32| NodeId(i);
    let edges = [(0u32, 1u32, 1.0f64), (0, 2, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 2.0)];
    let mut net = Net {
        routers: (0..4).map(|i| MpdaRouter::new(n(i), 4)).collect(),
        wire: VecDeque::new(),
        delivered: 0,
    };

    println!("== boot: all links come up ==");
    for &(a, b, c) in &edges {
        net.inject(n(a), RouterEvent::LinkUp { to: n(b), cost: c }, &format!("link {a}-{b} up"));
        net.inject(n(b), RouterEvent::LinkUp { to: n(a), cost: c }, &format!("link {b}-{a} up"));
    }
    net.drain();

    println!("== converged routing state ==");
    for r in &net.routers {
        for j in 0..4u32 {
            let j = n(j);
            if j == r.id() {
                continue;
            }
            println!(
                "  {}: D({})={:.0} FD={:.0} successors {:?}",
                r.id(),
                j,
                r.distance(j),
                r.feasible_distance(j),
                r.successors(j)
            );
        }
    }

    println!("\n== cost change: link 0-1 becomes expensive ==");
    net.inject(n(0), RouterEvent::LinkCost { to: n(1), cost: 10.0 }, "cost(0->1) = 10");
    net.drain();

    println!("== failure: link 1-3 goes down ==");
    net.inject(n(1), RouterEvent::LinkDown { to: n(3) }, "link 1-3 down at 1");
    net.inject(n(3), RouterEvent::LinkDown { to: n(1) }, "link 3-1 down at 3");
    net.drain();

    println!("== final routes to node 3 ==");
    for r in &net.routers {
        if r.id() == n(3) {
            continue;
        }
        println!(
            "  {}: D(3)={:.0} via {:?} (best {:?})",
            r.id(),
            r.distance(n(3)),
            r.successors(n(3)),
            r.best_successor(n(3))
        );
    }
    println!("\ntotal LSUs delivered: {}; loop-free after every single one", net.delivered);
}
