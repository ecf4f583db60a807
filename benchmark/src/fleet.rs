//! `node-fleet`: a fleet of in-process [`NodeCore`]s on a mock clock.
//!
//! No sockets and no wall clock reach the nodes: this harness owns a
//! `(deliver_time, seq)` heap of datagrams in flight (1 ms per link) and
//! a 10 ms tick grid, and calls `on_tick` only on nodes whose
//! `next_deadline()` has passed — the discipline of the live UDP shell,
//! made deterministic. The run is a cold boot of the whole fleet, then a
//! seeded schedule of crash/restart cycles.

use crate::probes;
use crate::stats::{median, quantile};
use crate::tracer::Tracer;
use crate::workloads::{sub_seed, Checks, LayerCtx, Outcome, Workload, GEN_SEED};
use mdr_net::{gen, NodeId};
use mdr_node::{audit_trace, NodeConfig, NodeCore, NodeOutput, NodeRecord};
use mdr_routing::lfi;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One-way delay of every link.
const LINK_DELAY_US: u64 = 1_000;
/// Timer granularity of the harness.
const TICK_US: u64 = 10_000;
/// How long a crashed node stays down: longer than the dead interval,
/// so its neighbors withdraw it before it returns.
const DOWN_US: u64 = 1_500_000;
/// Time from a restart to the next crash.
const SETTLE_US: u64 = 2_500_000;
/// Give up waiting for convergence after this long.
const CONVERGE_TIMEOUT_US: u64 = 30_000_000;
/// Largest fleet whose merged trace is replayed through `audit_trace`.
/// The replay audits the global view after every snapshot record, about
/// records · n² work: instant at a dozen nodes, minutes at 160 (measured:
/// 220 s for one pass's 169 k records), where the live-state checks
/// after boot and after every cycle stand in for it.
const AUDIT_MAX_NODES: usize = 16;

/// The fleet's input: who neighbors whom, and who crashes when.
pub struct NodeFleet {
    neighbors: Vec<Vec<(NodeId, f64)>>,
    victims: Vec<NodeId>,
}

impl NodeFleet {
    /// A Barabási–Albert adjacency of 160 nodes and 8 crash victims.
    pub fn new(seed: u64, smoke: bool) -> Self {
        let (n, cycles) = if smoke { (12, 2) } else { (160, 8) };
        let topo = gen::barabasi_albert(n, 2, GEN_SEED);
        let mut neighbors = vec![Vec::new(); n];
        for l in topo.links() {
            neighbors[l.from.index()].push((l.to, l.prop_delay));
        }
        for row in &mut neighbors {
            row.sort_by_key(|&(peer, _)| peer);
        }
        // The seed picks the victims, among the nodes of degree 2: a
        // crashed hub resyncs many times the state a leaf does, and the
        // work of a run must not depend on the draw.
        let leaves: Vec<NodeId> = topo.nodes().filter(|&i| topo.degree(i) == 2).collect();
        let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 5));
        let victims = (0..cycles).map(|_| leaves[rng.gen_range(0..leaves.len())]).collect();
        NodeFleet { neighbors, victims }
    }
}

/// A datagram in flight, ordered by `(deliver time, send order)`.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Flight {
    at_us: u64,
    seq: u64,
    to: NodeId,
    bytes: Vec<u8>,
}

/// One run of the fleet.
struct Run<'a> {
    fleet: &'a NodeFleet,
    tr: &'a mut Tracer,
    /// `None` while a node is crashed.
    cores: Vec<Option<NodeCore>>,
    incarnation: Vec<u32>,
    wire: BinaryHeap<Reverse<Flight>>,
    sent: u64,
    now_us: u64,
    next_tick_us: u64,
    /// Telemetry records emitted; kept only when they will be audited.
    records: u64,
    kept: Option<Vec<NodeRecord>>,
    datagrams: u64,
    bytes: u64,
    ticks: u64,
}

impl Run<'_> {
    fn n(&self) -> usize {
        self.fleet.neighbors.len()
    }

    fn now(&self) -> f64 {
        self.now_us as f64 / 1e6
    }

    /// Put a node's output on the wire and in the trace.
    fn emit(&mut self, out: NodeOutput) {
        for (to, bytes) in out.datagrams {
            let at_us = self.now_us + LINK_DELAY_US;
            self.wire.push(Reverse(Flight { at_us, seq: self.sent, to, bytes }));
            self.sent += 1;
        }
        self.records += out.records.len() as u64;
        if let Some(kept) = &mut self.kept {
            kept.extend(out.records);
        }
    }

    /// Start node `i` at its current incarnation. All protocol state is
    /// fresh; datagrams addressed to its previous life are still in
    /// flight and are its problem.
    fn boot(&mut self, i: NodeId) {
        let cfg = NodeConfig::new(
            i,
            self.n(),
            self.incarnation[i.index()],
            self.fleet.neighbors[i.index()].clone(),
        );
        let s = self.tr.begin("node.core.new");
        let (core, out) = NodeCore::new(cfg, self.now());
        self.tr.end(s);
        self.cores[i.index()] = Some(core);
        self.emit(out);
    }

    /// Process the next event — the earliest delivery, or the tick grid
    /// if that comes first — unless it lies beyond `until_us`. Returns
    /// whether an event was processed, and whether it was a tick.
    fn step(&mut self, until_us: u64) -> Option<bool> {
        let delivery = self.wire.peek().map_or(u64::MAX, |f| f.0.at_us);
        if delivery.min(self.next_tick_us) > until_us {
            return None;
        }
        if delivery <= self.next_tick_us {
            let Reverse(flight) = self.wire.pop()?;
            self.now_us = flight.at_us;
            let now = self.now();
            // A datagram for a crashed node is lost with it.
            if let Some(core) = self.cores[flight.to.index()].as_mut() {
                self.datagrams += 1;
                self.bytes += flight.bytes.len() as u64;
                let s = self.tr.begin("node.core.on_datagram");
                let out = core.on_datagram(&flight.bytes, now);
                self.tr.end(s);
                self.emit(out);
            }
            return Some(false);
        }
        self.now_us = self.next_tick_us;
        self.next_tick_us += TICK_US;
        let now = self.now();
        for i in 0..self.n() {
            let Some(core) = self.cores[i].as_mut() else { continue };
            if core.next_deadline() <= now {
                self.ticks += 1;
                let s = self.tr.begin("node.core.on_tick");
                let out = core.on_tick(now);
                self.tr.end(s);
                self.emit(out);
            }
        }
        Some(true)
    }

    /// Run to simulated time `t_us`.
    fn run_until(&mut self, t_us: u64) {
        while self.step(t_us).is_some() {}
        self.now_us = t_us;
    }

    /// Every node is up and locally converged, and has a successor
    /// toward every destination. `is_converged()` alone is vacuously
    /// true before any adjacency exists, and stays true on a node that
    /// has not yet heard of a restarted peer.
    fn converged(&self) -> bool {
        let n = self.n() as u32;
        self.cores.iter().all(|c| c.as_ref().is_some_and(NodeCore::is_converged))
            && self.cores.iter().flatten().all(|c| {
                let router = c.driver().router();
                (0..n).map(NodeId).all(|j| j == c.id() || !router.successors(j).is_empty())
            })
    }

    /// Run until the first tick at which the fleet is converged; `None`
    /// if that does not happen within the timeout.
    fn run_until_converged(&mut self) -> Option<u64> {
        let deadline = self.now_us + CONVERGE_TIMEOUT_US;
        while let Some(was_tick) = self.step(deadline) {
            if was_tick && self.converged() {
                return Some(self.now_us);
            }
        }
        None
    }

    /// Both LFI safety properties over the whole fleet's live state:
    /// every destination's successor graph is acyclic, and feasible
    /// distances strictly decrease along it (all nodes must be up).
    fn loop_free(&self) -> bool {
        let routers: Option<Vec<_>> =
            self.cores.iter().map(|c| c.as_ref().map(|c| c.driver().router())).collect();
        routers.is_some_and(|r| {
            lfi::check_loop_freedom_with(r.len(), |i| r[i.index()]).is_ok()
                && lfi::check_fd_ordering_with(r.len(), |i| r[i.index()]).is_ok()
        })
    }
}

impl Workload for NodeFleet {
    fn pass(&self, tr: &mut Tracer) -> Outcome {
        let n = self.neighbors.len();
        let mut run = Run {
            fleet: self,
            tr,
            cores: (0..n).map(|_| None).collect(),
            incarnation: vec![1; n],
            wire: BinaryHeap::new(),
            sent: 0,
            now_us: 0,
            next_tick_us: 0,
            records: 0,
            kept: (n <= AUDIT_MAX_NODES).then(Vec::new),
            datagrams: 0,
            bytes: 0,
            ticks: 0,
        };
        let mut checks = Checks::default();

        for i in 0..n as u32 {
            run.boot(NodeId(i));
        }
        let booted = run.run_until_converged();
        checks.check(booted.is_some(), || "cold boot did not converge".to_string());
        checks.check(run.loop_free(), || "LFI violated after boot".to_string());

        let mut recoveries = Vec::new();
        for &victim in &self.victims {
            run.cores[victim.index()] = None;
            run.run_until(run.now_us + DOWN_US);
            run.incarnation[victim.index()] += 1;
            let restarted = run.now_us;
            run.boot(victim);
            let recovered = run.run_until_converged();
            checks
                .check(recovered.is_some(), || format!("no convergence after {victim} restarted"));
            checks.check(run.loop_free(), || format!("LFI violated after {victim} restarted"));
            recoveries.push((recovered.unwrap_or(run.now_us) - restarted) as f64 / 1e6);
            run.run_until(run.now_us.max(restarted + SETTLE_US));
        }

        let exact = vec![
            ("ctrl_bytes", run.bytes as f64),
            ("datagrams", run.datagrams as f64),
            ("records", run.records as f64),
            ("ticks", run.ticks as f64),
            ("recovery_sim_s", median(&recoveries)),
            ("boot_sim_s", booted.unwrap_or(run.now_us) as f64 / 1e6),
        ];
        // The merged-trace LFI audit replays every emitted record; it is
        // a check on the outputs, so it runs after the pass is timed.
        let deferred = run.kept.take().map(|mut records| -> Box<dyn FnOnce() -> Checks> {
            Box::new(move || {
                let mut checks = Checks::default();
                records.sort_by_key(NodeRecord::merge_key);
                let audit = audit_trace(n, &records);
                checks.check(audit.monitor.checks > 0 && audit.monitor.violations == 0, || {
                    format!("trace audit: {:?}", audit.monitor.first_violation)
                });
                checks.check(audit.unconverged.is_empty(), || {
                    format!("lives that never converged: {:?}", audit.unconverged)
                });
                checks
            })
        });
        Outcome { checks, exact, sim_seconds: run.now(), deferred }
    }

    fn layers(&self, ctx: &LayerCtx, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
        let on_datagram = tr.durations_us("node.core.on_datagram");
        let on_tick = tr.durations_us("node.core.on_tick");
        let datagrams = ctx.outcome.get("datagrams");
        let mut m = vec![
            ("result.ctrl_bytes", ctx.outcome.get("ctrl_bytes")),
            ("result.recovery_sim_s", ctx.outcome.get("recovery_sim_s")),
            ("node.core.datagrams", datagrams),
            ("node.core.datagrams_per_s", datagrams / ctx.wall_s),
            ("node.core.bytes", ctx.outcome.get("ctrl_bytes")),
            ("node.core.records", ctx.outcome.get("records")),
            ("node.core.ticks", ctx.outcome.get("ticks")),
            ("node.core.on_datagram_us_p50", median(&on_datagram)),
            ("node.core.on_datagram_us_p99", quantile(&on_datagram, 0.99)),
            ("node.core.on_tick_us_p50", median(&on_tick)),
            ("node.reliable.lsu_roundtrip_us", probes::channel_roundtrip_us(tr)),
        ];
        m.extend(probes::proto(tr));
        m
    }
}
