//! The node event-loop body: deterministic, sans-I/O, no panic paths.
//!
//! [`NodeCore`] owns one control-plane [`Agent`] — the same object both
//! simulators host: the pure MPDA transition relation, the IH/AH
//! allocator and the reported-cost hysteresis — and one [`PeerChannel`]
//! per configured neighbor. The I/O shell is a thin pump: it feeds
//! datagrams and timer ticks in, carries datagrams and telemetry
//! records out, and sleeps until [`NodeCore::next_deadline`]. Because
//! every method takes an explicit `now`, the entire control plane —
//! reliability layer included — runs identically under a mock clock in
//! unit tests and under wall clock in deployment.
//!
//! Failure handling is uniform by construction: a neighbor declared
//! dead (dead interval or retry exhaustion) and a simulated link cut
//! both funnel into a [`RouterEvent::LinkDown`], i.e. the same
//! `Delete`-LSU withdrawal path, so the safety argument (Theorem 3)
//! covers process crashes for free. A peer restart (higher incarnation)
//! is a down/up pair — the `LinkUp` re-floods full state at the new
//! incarnation, which is the re-sync.
//!
//! **Ack substitution.** MPDA's ACTIVE phase may raise `FD` only once
//! "every neighbor has acknowledged the reported values" (Fig. 4 step
//! 3) — but the protocol-level ack is an unlabeled flag, and under
//! retransmission delays and adjacency churn an ack from an *earlier*
//! exchange can reach the router during a *later* phase, ending it
//! before some neighbor processed the raised distances (an FD-ordering
//! breach the merged-trace audit catches). The reliable layer already
//! numbers every segment, so the node substitutes transport acks for
//! protocol acks: incoming LSUs are delivered with their ack flag
//! cleared, outgoing pure-ack LSUs are suppressed, and a synthetic
//! [`LsuMessage::ack_only`] is fed to the router exactly when a
//! neighbor's channel reports [`PeerChannel::flushed`] — the peer has
//! provably processed *everything* sent, which is the paper's premise
//! made literal.
//!
//! **Graceful degradation:** this module is in `mdr-lint`'s
//! `no_panic_paths` set. Corrupt datagrams count and drop; unknown
//! senders drop; stale incarnations drop; there is no code path that
//! panics on network input.

use crate::hlc::HybridClock;
use crate::record::{NodeRecord, PeerSync, RecordBody};
use crate::reliable::{ChannelEvent, PeerChannel, ReliableConfig};
use mdr_flow::Mode;
use mdr_net::NodeId;
use mdr_proto::{frame_node, unframe_node, LsuMessage, NodeBody, NodeMsg};
use mdr_routing::{RouterEvent, RouterOutput};
use mdr_sim::agent::{Agent, Allocs};

/// EWMA smoothing for ack-derived RTT samples.
const RTT_ALPHA: f64 = 0.125;

/// Relative change in effective link cost required before
/// re-advertising it to the routing layer (damps LSU churn from RTT
/// jitter).
const COST_DEADBAND: f64 = 0.25;

/// An exponentially weighted moving average of RTT samples:
/// `y ← α·x + (1−α)·y` with `α` = [`RTT_ALPHA`], seeded by the first
/// sample.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Ewma(Option<f64>);

impl Ewma {
    /// Fold in one sample.
    fn update(&mut self, x: f64) {
        self.0 = Some(match self.0 {
            None => x,
            Some(y) => RTT_ALPHA * x + (1.0 - RTT_ALPHA) * y,
        });
    }

    /// The current average (`None` before the first sample).
    fn value(&self) -> Option<f64> {
        self.0
    }
}

/// Static configuration of one node process.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// This node's address.
    pub id: NodeId,
    /// Network size (router addresses are `0..n`).
    pub n: usize,
    /// This process's incarnation (≥ 1; restarts increment it).
    pub incarnation: u32,
    /// Configured neighbors with their base link costs (seconds).
    pub neighbors: Vec<(NodeId, f64)>,
    /// Reliability-layer knobs, shared by every adjacency.
    pub reliable: ReliableConfig,
}

impl NodeConfig {
    /// A config with default reliability knobs.
    pub fn new(id: NodeId, n: usize, incarnation: u32, neighbors: Vec<(NodeId, f64)>) -> Self {
        NodeConfig {
            id,
            n,
            incarnation: incarnation.max(1),
            neighbors,
            reliable: ReliableConfig::default(),
        }
    }
}

/// When may a restart quarantine lift ahead of its timeout fallback?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleasePolicy {
    /// Sound: every configured neighbor has delivered at least one
    /// in-order segment on its fresh channel — proof it processed our
    /// new incarnation and purged any routes through the previous
    /// life first (see [`PeerChannel::delivered`]).
    AllNeighborsProven,
    /// Deliberately unsound, checker-validation only: lift as soon as
    /// *any* neighbor proves itself. The remaining neighbors may still
    /// route through our dead incarnation — exactly the transient
    /// forwarding loop the quarantine exists to prevent, and the
    /// counterexample the `mdr-verify` transport checker must produce
    /// against this policy.
    FirstProof,
}

/// The quarantine-release predicate, factored out of [`NodeCore`] so
/// the live node, its unit tests, and the `mdr-verify` transport
/// checker all drive one decision procedure. `proven` yields one flag
/// per configured neighbor (has its channel delivered in-order data
/// this life?); `timed_out` is the dead-interval-since-boot fallback,
/// by which every neighbor has either re-synced or declared the old
/// life dead — both purge.
pub fn quarantine_release_due(
    proven: impl Iterator<Item = bool>,
    timed_out: bool,
    policy: ReleasePolicy,
) -> bool {
    let mut any = false;
    let mut all = true;
    for p in proven {
        any |= p;
        all &= p;
    }
    let sufficient = match policy {
        ReleasePolicy::AllNeighborsProven => all,
        ReleasePolicy::FirstProof => any,
    };
    sufficient || timed_out
}

/// What one entry point produced: datagrams to transmit (framed, ready
/// for the socket) and telemetry records to append to the trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeOutput {
    /// `(neighbor, framed bytes)` pairs, in emission order.
    pub datagrams: Vec<(NodeId, Vec<u8>)>,
    /// Telemetry records, in emission order.
    pub records: Vec<NodeRecord>,
}

#[derive(Debug, Clone)]
struct Neighbor {
    peer: NodeId,
    base_cost: f64,
    chan: PeerChannel,
    rtt: Ewma,
    /// Adjacency came up while quarantined; the router has not been
    /// told yet.
    up_pending: bool,
    /// In-order LSUs delivered while quarantined, awaiting the router.
    held: Vec<LsuMessage>,
    /// An entries-bearing LSU is on the wire and not yet known to be
    /// processed by the peer; the router's ACTIVE phase toward this
    /// neighbor is still open (see the ack substitution note in the
    /// module docs).
    awaiting_ack: bool,
}

impl Neighbor {
    fn effective_cost(&self) -> f64 {
        // Base propagation cost plus the smoothed one-way queueing
        // estimate from ack RTTs — the deployment's stand-in for the
        // simulator's marginal-delay estimator.
        match self.rtt.value() {
            Some(r) => self.base_cost + r / 2.0,
            None => self.base_cost,
        }
    }
}

/// One router process's deterministic core.
#[derive(Debug, Clone)]
pub struct NodeCore {
    cfg: NodeConfig,
    clock: HybridClock,
    /// The control plane; neighbor slot = index into `neighbors`.
    agent: Agent,
    neighbors: Vec<Neighbor>,
    corrupt: u64,
    was_converged: bool,
    snapshot_pending: bool,
    /// Feasible distances as of the last snapshot record, indexed by
    /// destination. A phase ending raises FD without necessarily
    /// changing any successor set (`step_mtu_and_fd`'s last-ack
    /// branch emits no route change), and the merged-trace audit
    /// compares FDs *across* nodes — so an unsnapshotted raise makes
    /// a peer's fresh FD look infeasible against this node's stale
    /// one. [`NodeCore::finish`] snapshots on any FD movement.
    last_fds: Vec<f64>,
    boot: f64,
    /// Restart quarantine (see [`NodeCore::quarantined`]).
    quarantined: bool,
}

impl NodeCore {
    /// Boot the node at `now`. The returned output carries the `start`
    /// record; the opening hellos come from the first
    /// [`NodeCore::on_tick`].
    pub fn new(cfg: NodeConfig, now: f64) -> (Self, NodeOutput) {
        let neighbors = cfg
            .neighbors
            .iter()
            .map(|&(peer, base_cost)| Neighbor {
                peer,
                base_cost,
                chan: PeerChannel::new(cfg.reliable, cfg.incarnation, now),
                rtt: Ewma::default(),
                up_pending: false,
                held: Vec::new(),
                awaiting_ack: false,
            })
            .collect();
        let peers = cfg.neighbors.iter().map(|&(p, _)| p).collect();
        let agent = Agent::new(cfg.id, cfg.n, Mode::Multipath, 1.0, peers, COST_DEADBAND);
        let last_fds =
            (0..cfg.n as u32).map(|j| agent.router().feasible_distance(NodeId(j))).collect();
        let mut node = NodeCore {
            agent,
            clock: HybridClock::new(),
            neighbors,
            corrupt: 0,
            was_converged: false,
            snapshot_pending: false,
            last_fds,
            boot: now,
            // A first boot (incarnation 1) is the paper's initialization
            // — provably loop-free, no quarantine needed. A restart is
            // not: see `quarantined`.
            quarantined: cfg.incarnation > 1,
            cfg,
        };
        let mut out = NodeOutput::default();
        let start = RecordBody::Start {
            n: node.cfg.n as u64,
            neighbors: node.cfg.neighbors.iter().map(|&(p, _)| p).collect(),
        };
        node.record(start, now, &mut out);
        (node, out)
    }

    /// This node's address.
    pub fn id(&self) -> NodeId {
        self.cfg.id
    }

    /// This process's incarnation.
    pub fn incarnation(&self) -> u32 {
        self.cfg.incarnation
    }

    /// Undecodable datagrams dropped so far.
    pub fn corrupt_datagrams(&self) -> u64 {
        self.corrupt
    }

    /// The hosted control-plane agent (read-only).
    pub fn driver(&self) -> &Agent {
        &self.agent
    }

    /// Fraction of `dest`-bound traffic the allocator forwards via
    /// neighbor `k`.
    pub fn fraction(&self, dest: NodeId, k: NodeId) -> f64 {
        self.agent.fraction(dest, k)
    }

    /// Local convergence: router PASSIVE, every channel idle, at least
    /// one adjacency up (a fully isolated node is not "converged", it
    /// is partitioned), and not in restart quarantine.
    pub fn is_converged(&self) -> bool {
        !self.quarantined
            && self.agent.is_passive()
            && self.neighbors.iter().all(|nb| nb.chan.is_idle())
            && self.neighbors.iter().any(|nb| nb.chan.is_up())
    }

    /// Still holding routing back after a restart (see
    /// [`NodeCore::new`]'s quarantine comment)?
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// Earliest future instant at which [`NodeCore::on_tick`] has work.
    pub fn next_deadline(&self) -> f64 {
        let chans =
            self.neighbors.iter().map(|nb| nb.chan.next_deadline()).fold(f64::INFINITY, f64::min);
        if self.quarantined {
            // The quarantine's timeout fallback must be able to fire
            // even with every channel silent.
            chans.min(self.boot + self.cfg.reliable.dead_interval)
        } else {
            chans
        }
    }

    /// Feed one received datagram (raw socket bytes) at `now`.
    pub fn on_datagram(&mut self, buf: &[u8], now: f64) -> NodeOutput {
        let mut out = NodeOutput::default();
        let Ok(msg) = unframe_node(buf) else {
            // Corrupt or truncated: the CRC already rejected it; count
            // and continue. The sender's retransmission timer recovers.
            self.corrupt = self.corrupt.saturating_add(1);
            return out;
        };
        self.clock.observe(msg.hlc, now);
        let Some(idx) = self.agent.slot(msg.from) else {
            // Not a configured neighbor — a misdirected or forged
            // datagram. Dropping it is the graceful path.
            return out;
        };
        let (bodies, events) = self.neighbors[idx].chan.on_message(
            msg.incarnation,
            msg.for_inc,
            msg.for_session,
            msg.session,
            msg.body,
            now,
        );
        for b in bodies {
            self.envelope(msg.from, b, now, &mut out);
        }
        for ev in events {
            self.apply_event(idx, ev, now, &mut out);
        }
        self.observe_rtt(idx, now, &mut out);
        self.finish(now, &mut out);
        out
    }

    /// Drive timers at `now`: keepalives, retransmissions, failure
    /// detection.
    pub fn on_tick(&mut self, now: f64) -> NodeOutput {
        let mut out = NodeOutput::default();
        for idx in 0..self.neighbors.len() {
            let peer = self.neighbors[idx].peer;
            let (bodies, events) = self.neighbors[idx].chan.poll(now);
            for b in bodies {
                self.envelope(peer, b, now, &mut out);
            }
            for ev in events {
                self.apply_event(idx, ev, now, &mut out);
            }
        }
        self.finish(now, &mut out);
        out
    }

    /// Clean shutdown: emit the terminal `stop` record.
    pub fn stop(&mut self, now: f64) -> NodeOutput {
        let mut out = NodeOutput::default();
        self.record(RecordBody::Stop { corrupt: self.corrupt }, now, &mut out);
        out
    }

    // -- internals ----------------------------------------------------

    fn record(&mut self, body: RecordBody, now: f64, out: &mut NodeOutput) {
        out.records.push(NodeRecord {
            hlc: self.clock.tick(now),
            node: self.cfg.id,
            incarnation: self.cfg.incarnation,
            body,
        });
    }

    fn envelope(&mut self, to: NodeId, body: NodeBody, now: f64, out: &mut NodeOutput) {
        let (for_inc, for_session, session) = match self.agent.slot(to) {
            Some(idx) => self.neighbors[idx].chan.address(),
            None => (0, 0, 1),
        };
        let msg = NodeMsg {
            from: self.cfg.id,
            incarnation: self.cfg.incarnation,
            for_inc,
            for_session,
            session,
            hlc: self.clock.tick(now),
            body,
        };
        out.datagrams.push((to, frame_node(&msg).to_vec()));
    }

    fn apply_event(&mut self, idx: usize, ev: ChannelEvent, now: f64, out: &mut NodeOutput) {
        let peer = self.neighbors[idx].peer;
        if self.quarantined {
            // Restart quarantine: a reborn node has FD = ∞, so the LFI
            // feasibility test would accept ANY neighbor as successor —
            // including one whose own route still points back at our
            // previous life, i.e. a real transient forwarding loop. The
            // paper's safety argument assumes initialization from empty
            // *mutual* state; crash-amnesia violates that. So until
            // every configured neighbor has provably purged its routes
            // through our old incarnation (or a dead interval passes),
            // nothing reaches the router: adjacencies are remembered as
            // pending and in-order LSUs are held for replay at lift.
            match ev {
                ChannelEvent::PeerUp { incarnation } => {
                    self.record(RecordBody::PeerUp { peer, peer_inc: incarnation }, now, out);
                    self.neighbors[idx].up_pending = true;
                }
                ChannelEvent::PeerRestart { old, new } => {
                    // The peer lost its state too; whatever it sent from
                    // the dead incarnation is void.
                    self.record(RecordBody::PeerRestart { peer, old, new }, now, out);
                    self.neighbors[idx].held.clear();
                    self.neighbors[idx].up_pending = true;
                }
                ChannelEvent::PeerDown { reason } => {
                    self.record(RecordBody::PeerDown { peer, reason }, now, out);
                    self.neighbors[idx].held.clear();
                    self.neighbors[idx].up_pending = false;
                }
                ChannelEvent::Deliver(mut lsu) => {
                    lsu.ack = false; // ack substitution: transport acks only
                    self.neighbors[idx].held.push(lsu);
                }
                ChannelEvent::Discarded { in_flight, backlog, reorder } => {
                    self.record(
                        RecordBody::ChannelLoss { peer, in_flight, backlog, reorder },
                        now,
                        out,
                    );
                }
            }
            return;
        }
        match ev {
            ChannelEvent::PeerUp { incarnation } => {
                self.record(RecordBody::PeerUp { peer, peer_inc: incarnation }, now, out);
                self.neighbor_up(idx, now, out);
            }
            ChannelEvent::PeerRestart { old, new } => {
                // The peer lost all protocol state: tear the adjacency
                // down and bring it back up, which re-floods our full
                // topology at the new incarnation — the re-sync.
                self.record(RecordBody::PeerRestart { peer, old, new }, now, out);
                self.neighbors[idx].awaiting_ack = false;
                self.route_event(RouterEvent::LinkDown { to: peer }, now, out);
                self.neighbor_up(idx, now, out);
            }
            ChannelEvent::PeerDown { reason } => {
                // Same withdrawal path as a simulated link cut. The
                // channel purged whatever was unacked, and the router's
                // `LinkDown` treats the peer's pending ack as received.
                self.record(RecordBody::PeerDown { peer, reason }, now, out);
                self.neighbors[idx].awaiting_ack = false;
                self.route_event(RouterEvent::LinkDown { to: peer }, now, out);
            }
            ChannelEvent::Deliver(mut lsu) => {
                // Ack substitution (module docs): the unlabeled protocol
                // ack flag is ignored; phase completion is derived from
                // the seq-numbered transport acks instead.
                lsu.ack = false;
                self.route_event(RouterEvent::Lsu { from: peer, msg: lsu }, now, out);
            }
            ChannelEvent::Discarded { in_flight, backlog, reorder } => {
                // Flush-or-report: the reset already purged this data;
                // recording the loss (instead of the old silent discard)
                // is what lets the soak trace audit reconcile "LSUs
                // queued" against "LSUs delivered". Routing-wise nothing
                // to do — the accompanying down/restart re-floods full
                // state, superseding whatever was dropped.
                self.record(
                    RecordBody::ChannelLoss { peer, in_flight, backlog, reorder },
                    now,
                    out,
                );
            }
        }
    }

    /// The adjacency to neighbor `idx` is up: tell the router, at the
    /// current effective cost.
    fn neighbor_up(&mut self, idx: usize, now: f64, out: &mut NodeOutput) {
        let nb = &self.neighbors[idx];
        let ev = RouterEvent::LinkUp { to: nb.peer, cost: nb.effective_cost() };
        self.route_event(ev, now, out);
    }

    /// True while the router holds an adjacency to `peer`.
    fn adjacent(&self, peer: NodeId) -> bool {
        self.agent.router().link_cost(peer).is_some()
    }

    /// Feed `ev` to the agent and carry out what it returns. The node
    /// allocates at the link costs the router holds (no fresher
    /// estimate than what it advertised).
    fn route_event(&mut self, ev: RouterEvent, now: f64, out: &mut NodeOutput) {
        let (r, allocs) = self.agent.handle(ev, |_| None);
        self.apply_agent_output(r, allocs, now, out);
    }

    fn apply_agent_output(
        &mut self,
        r: RouterOutput,
        allocs: Allocs,
        now: f64,
        out: &mut NodeOutput,
    ) {
        for ch in r.changed {
            self.record(
                RecordBody::RouteChange { dest: ch.dest, old: ch.old, new: ch.new },
                now,
                out,
            );
        }
        // §4.2: IH ran for every changed destination.
        for (dest, outcome) in allocs {
            if outcome.heuristic.is_some() {
                self.record(RecordBody::Alloc { dest, shift: outcome.shift }, now, out);
            }
        }
        for s in r.sends {
            let Some(idx) = self.agent.slot(s.to) else { continue };
            if !self.neighbors[idx].chan.is_up() {
                // Adjacency raced down since the router queued this;
                // the LinkUp re-flood will supersede it.
                continue;
            }
            if s.msg.entries.is_empty() && s.msg.ack {
                // Pure protocol ack: subsumed by the transport acks the
                // reliable layer sends anyway (ack substitution).
                continue;
            }
            self.neighbors[idx].awaiting_ack = true;
            let bodies = self.neighbors[idx].chan.send(s.msg, now);
            for b in bodies {
                self.envelope(s.to, b, now, out);
            }
        }
        if r.routes_changed {
            self.snapshot_pending = true;
        }
    }

    fn observe_rtt(&mut self, idx: usize, now: f64, out: &mut NodeOutput) {
        let Some(sample) = self.neighbors[idx].chan.take_rtt_sample() else { return };
        self.neighbors[idx].rtt.update(sample);
        let nb = &self.neighbors[idx];
        if !(self.adjacent(nb.peer) && nb.chan.is_up()) {
            return;
        }
        let (peer, cost) = (nb.peer, nb.effective_cost());
        // Re-advertised only on a meaningful relative change, so RTT
        // jitter doesn't turn into LSU churn.
        if let Some((r, allocs)) = self.agent.report_cost(idx, cost, |_| None) {
            self.record(RecordBody::LinkCost { peer, cost }, now, out);
            self.apply_agent_output(r, allocs, now, out);
        }
    }

    /// Lift the restart quarantine once safe: every configured neighbor
    /// has explicitly addressed our *new* incarnation — which it only
    /// does after processing it (purging any routes through our
    /// previous life first, via its `PeerRestart` or `PeerDown` path;
    /// see [`PeerChannel::peer_proven`]). Delivery counts are NOT that
    /// proof: wildcard-addressed traffic queued before the neighbor
    /// heard of the restart can deliver on the fresh channel while the
    /// neighbor still routes through our old life (counterexample found
    /// by the `mdr-verify` transport checker). Fallback: a full dead
    /// interval since boot, by which every neighbor has either
    /// re-synced or declared our old life dead — both purge.
    fn maybe_lift_quarantine(&mut self, now: f64, out: &mut NodeOutput) {
        if !self.quarantined {
            return;
        }
        if !quarantine_release_due(
            self.neighbors.iter().map(|nb| nb.chan.peer_proven()),
            now >= self.boot + self.cfg.reliable.dead_interval,
            ReleasePolicy::AllNeighborsProven,
        ) {
            return;
        }
        self.quarantined = false;
        self.record(RecordBody::Resynced { waited: now - self.boot }, now, out);
        // Replay what the quarantine held, in arrival order per
        // neighbor: adjacency first, then its buffered LSUs.
        for idx in 0..self.neighbors.len() {
            let nb = &mut self.neighbors[idx];
            let up = std::mem::take(&mut nb.up_pending) && nb.chan.is_up();
            let held = std::mem::take(&mut nb.held);
            if !up {
                continue;
            }
            let peer = nb.peer;
            self.neighbor_up(idx, now, out);
            for lsu in held {
                self.route_event(RouterEvent::Lsu { from: peer, msg: lsu }, now, out);
            }
        }
    }

    /// Entry-point postlude: quarantine lift check, at most one safety
    /// snapshot per call, then the convergence edge detector.
    fn finish(&mut self, now: f64, out: &mut NodeOutput) {
        self.maybe_lift_quarantine(now, out);
        // Ack substitution (module docs): a flushed channel proves the
        // peer processed every LSU we sent, so complete the router's
        // open phase toward it with a synthetic protocol ack.
        for idx in 0..self.neighbors.len() {
            let nb = &self.neighbors[idx];
            if !(nb.awaiting_ack && nb.chan.is_up() && nb.chan.flushed()) {
                continue;
            }
            self.neighbors[idx].awaiting_ack = false;
            let peer = self.neighbors[idx].peer;
            let ack = LsuMessage::ack_only(peer);
            self.route_event(RouterEvent::Lsu { from: peer, msg: ack }, now, out);
        }
        // FD can move with every successor set intact (see `last_fds`);
        // the cross-node audit needs those raises on the record too.
        for j in 0..self.cfg.n {
            let fd = self.agent.router().feasible_distance(NodeId(j as u32));
            if fd != self.last_fds[j] {
                self.last_fds[j] = fd;
                self.snapshot_pending = true;
            }
        }
        if self.snapshot_pending {
            self.snapshot_pending = false;
            let dests = self.agent.snapshot().dests;
            // Which incarnation of each neighbor this routing state was
            // built against — lets the trace audit distinguish a stale
            // cross-epoch edge (blackhole transient) from a live one.
            let peers = self
                .neighbors
                .iter()
                .filter(|nb| self.adjacent(nb.peer))
                .map(|nb| PeerSync { peer: nb.peer, inc: nb.chan.incarnation().unwrap_or(0) })
                .collect();
            self.record(RecordBody::Snapshot { dests, peers }, now, out);
        }
        let converged = self.is_converged();
        if converged && !self.was_converged {
            self.record(RecordBody::Converged, now, out);
        }
        self.was_converged = converged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordBody as RB;
    use mdr_net::INFINITE_COST;

    #[test]
    fn ewma_seeds_and_smooths() {
        let mut e = Ewma::default();
        assert_eq!(e.value(), None);
        e.update(4.0);
        assert_eq!(e.value(), Some(4.0));
        e.update(0.0);
        assert_eq!(e.value(), Some(3.5));
    }

    fn pair() -> (NodeCore, NodeCore) {
        let (a, _) = NodeCore::new(NodeConfig::new(NodeId(0), 2, 1, vec![(NodeId(1), 0.01)]), 0.0);
        let (b, _) = NodeCore::new(NodeConfig::new(NodeId(1), 2, 1, vec![(NodeId(0), 0.01)]), 0.0);
        (a, b)
    }

    /// Pump every queued datagram between two nodes until quiescence.
    fn pump(a: &mut NodeCore, b: &mut NodeCore, mut now: f64) -> (f64, Vec<NodeRecord>) {
        let mut records = Vec::new();
        let mut wire: Vec<(NodeId, Vec<u8>)> = Vec::new();
        let drain =
            |o: NodeOutput, wire: &mut Vec<(NodeId, Vec<u8>)>, recs: &mut Vec<NodeRecord>| {
                wire.extend(o.datagrams);
                recs.extend(o.records);
            };
        drain(a.on_tick(now), &mut wire, &mut records);
        drain(b.on_tick(now), &mut wire, &mut records);
        let mut steps = 0;
        while let Some((to, bytes)) = wire.first().cloned() {
            wire.remove(0);
            now += 1e-4;
            let o = if to == NodeId(0) {
                a.on_datagram(&bytes, now)
            } else {
                b.on_datagram(&bytes, now)
            };
            drain(o, &mut wire, &mut records);
            steps += 1;
            assert!(steps < 10_000, "no quiescence");
        }
        (now, records)
    }

    #[test]
    fn two_nodes_discover_and_converge() {
        let (mut a, mut b) = pair();
        let (_, records) = pump(&mut a, &mut b, 0.0);
        assert_eq!(a.driver().router().distance(NodeId(1)), 0.01);
        assert_eq!(b.driver().router().distance(NodeId(0)), 0.01);
        assert!(a.is_converged() && b.is_converged());
        let has = |f: fn(&RB) -> bool| records.iter().any(|r| f(&r.body));
        assert!(has(|b| matches!(b, RB::PeerUp { .. })));
        assert!(has(|b| matches!(b, RB::RouteChange { .. })));
        assert!(has(|b| matches!(b, RB::Snapshot { .. })));
        assert!(has(|b| matches!(b, RB::Converged)));
        assert_eq!(a.corrupt_datagrams(), 0);
    }

    #[test]
    fn dead_interval_withdraws_the_route() {
        let (mut a, mut b) = pair();
        let (now, _) = pump(&mut a, &mut b, 0.0);
        // Silence from b: step a's clock past the dead interval.
        let out = a.on_tick(now + a.next_deadline().max(now) + 2.0);
        let bodies: Vec<&RB> = out.records.iter().map(|r| &r.body).collect();
        assert!(bodies.iter().any(|b| matches!(b, RB::PeerDown { .. })), "{bodies:?}");
        assert_eq!(a.driver().router().distance(NodeId(1)), INFINITE_COST);
        assert!(a.driver().router().successors(NodeId(1)).is_empty());
        assert!(!a.is_converged(), "an isolated node is partitioned, not converged");
    }

    #[test]
    fn restart_triggers_incarnation_resync() {
        let (mut a, mut b) = pair();
        let (now, _) = pump(&mut a, &mut b, 0.0);
        // b dies and comes back as incarnation 2 with empty state. Its
        // FD = ∞ would accept ANY successor, so it boots quarantined
        // and routes nothing until a provably purged the old life.
        let (mut b2, _) =
            NodeCore::new(NodeConfig::new(NodeId(1), 2, 2, vec![(NodeId(0), 0.01)]), now);
        assert!(b2.is_quarantined());
        let (_, records) = pump(&mut a, &mut b2, now);
        let restarts: Vec<&NodeRecord> =
            records.iter().filter(|r| matches!(r.body, RB::PeerRestart { .. })).collect();
        assert_eq!(restarts.len(), 1, "a saw exactly one restart");
        assert!(matches!(restarts[0].body, RB::PeerRestart { old: 1, new: 2, .. }));
        // The quarantine lifted on proof-of-purge (no dead-interval
        // passed inside pump's sub-millisecond steps) and emitted its
        // record; only then did b2 resume routing and converge.
        assert!(!b2.is_quarantined());
        let resynced: Vec<&NodeRecord> =
            records.iter().filter(|r| matches!(r.body, RB::Resynced { .. })).collect();
        assert_eq!(resynced.len(), 1, "exactly one quarantine lift");
        assert!(matches!(resynced[0].body, RB::Resynced { waited } if waited < 0.5));
        // Fully re-synced at the new incarnation.
        assert_eq!(b2.driver().router().distance(NodeId(0)), 0.01);
        assert!(a.is_converged() && b2.is_converged());
    }

    #[test]
    fn first_boot_never_quarantines() {
        let (a, _) = NodeCore::new(NodeConfig::new(NodeId(0), 2, 1, vec![(NodeId(1), 0.01)]), 0.0);
        assert!(!a.is_quarantined(), "incarnation 1 is the paper's safe initialization");
    }

    #[test]
    fn corrupt_datagrams_count_and_never_panic() {
        let (mut a, _) = pair();
        for garbage in [&b""[..], &b"\x00"[..], &[0xff; 64][..]] {
            let out = a.on_datagram(garbage, 1.0);
            assert!(out.datagrams.is_empty());
        }
        // A valid frame from a node that is not a configured neighbor
        // drops without counting as corrupt.
        let msg = NodeMsg {
            from: NodeId(7),
            incarnation: 1,
            for_inc: 0,
            for_session: 0,
            session: 1,
            hlc: Default::default(),
            body: NodeBody::Hello { ts_us: 0, echo_ts_us: 0, hold_us: 0 },
        };
        let out = a.on_datagram(&frame_node(&msg), 1.1);
        assert!(out.datagrams.is_empty());
        assert_eq!(a.corrupt_datagrams(), 3);
        let stop = a.stop(1.2);
        assert!(matches!(stop.records[0].body, RB::Stop { corrupt: 3 }));
    }

    #[test]
    fn allocator_tracks_successor_changes() {
        let (mut a, mut b) = pair();
        pump(&mut a, &mut b, 0.0);
        assert_eq!(a.fraction(NodeId(1), NodeId(1)), 1.0, "single successor gets all traffic");
    }

    #[test]
    fn records_carry_monotone_hlc_stamps() {
        let (mut a, mut b) = pair();
        let (_, records) = pump(&mut a, &mut b, 0.0);
        for pair in records.windows(2) {
            if pair[0].node == pair[1].node {
                assert!(pair[0].hlc < pair[1].hlc, "per-node stamps strictly increase");
            }
        }
    }
}
