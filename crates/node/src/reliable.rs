//! Per-neighbor reliable transport over lossy UDP.
//!
//! MPDA's correctness argument (Theorem 3) assumes the control channel
//! delivers LSUs to each neighbor **reliably and in order** — the
//! simulator models that with a link-layer ARQ abstraction; a real
//! deployment has to earn it. [`PeerChannel`] provides exactly that
//! contract on top of a datagram socket:
//!
//! * **Hello/keepalive** — a `Hello` every [`ReliableConfig::hello_interval`];
//!   silence for [`ReliableConfig::dead_interval`] declares the peer
//!   dead ([`ChannelEvent::PeerDown`]), which the node maps onto the
//!   same `Delete`-LSU withdrawal path as a simulated link cut.
//! * **Sliding-window data transfer** — LSUs get consecutive sequence
//!   numbers; at most [`ReliableConfig::window`] are in flight; the
//!   receiver buffers out-of-order arrivals and releases a strictly
//!   in-order, gap-free, duplicate-free stream to the router.
//! * **Ack-driven retransmission with an adaptive RTO** — cumulative
//!   acks; the oldest unacked segment retransmits on a timeout derived
//!   from a Jacobson/Karels estimator ([`RttEstimator`]: SRTT/RTTVAR
//!   with α=1/8, β=1/4, `RTO = SRTT + 4·RTTVAR` clamped to
//!   [[`ReliableConfig::rto_min`], [`ReliableConfig::rto_max`]]),
//!   doubled per retry of the same segment. Karn's rule: retransmitted
//!   segments contribute no samples; hello RTT echoes keep the
//!   estimator fed even on an idle adjacency. Exhausting
//!   [`ReliableConfig::retry_budget`] attempts declares the peer dead.
//!   Duplicate acks (cumulative sequence not advancing) are tolerated
//!   silently — UDP duplicates a reordered ack at will. Setting
//!   [`ReliableConfig::adaptive`] to `false` restores the fixed
//!   `rto_initial · 2^k` ladder (kept for A/B comparison in the soak
//!   harness).
//! * **Graceful degradation instead of wedging** — a retry-budget
//!   exhaustion or a reorder-buffer overflow reports what it discarded
//!   ([`ChannelEvent::Discarded`]), tears the adjacency down (the node
//!   withdraws routes through the suspect neighbor rather than
//!   blackholing into it), and enters a **probing** state: hellos
//!   continue at an exponentially relaxing cadence (up to the dead
//!   interval) so the adjacency re-establishes as soon as the path
//!   heals, without hammering a grey link.
//! * **Bounded reorder buffer** — out-of-order segments are buffered
//!   up to [`ReliableConfig::max_reorder`]; past that the stream is
//!   declared unsynchronizable ([`DownReason::ReorderOverflow`]) and
//!   the channel forces a full re-sync instead of growing without
//!   bound under sustained one-direction loss.
//! * **Incarnation-tagged re-sync** — every datagram carries the
//!   sender's incarnation (the chaos harness's scheme: restarts
//!   increment it, it is never 0). A higher incarnation than the
//!   current adjacency means the peer restarted and lost all protocol
//!   state: the channel resets and reports
//!   [`ChannelEvent::PeerRestart`] so the node can tear the adjacency
//!   down and re-synchronize from scratch. Lower incarnations are stale
//!   datagrams from a previous life and are dropped.
//! * **Addressed datagrams** — every datagram also carries the
//!   incarnation of the *receiver* the sender believes it is talking
//!   to (`for_inc`; 0 while unknown). A channel accepts only datagrams
//!   addressed to its node's current life: after a restart, a
//!   neighbor's retransmissions to the previous incarnation would
//!   otherwise establish the fresh channel and pollute its reorder
//!   buffer with old-session sequence numbers. The same defense
//!   applies one level down via `for_session` (the receiver's stream
//!   epoch being addressed): after a same-incarnation reset, a
//!   neighbor's cumulative ack — computed against the pre-reset
//!   stream — would otherwise acknowledge fresh segments it never
//!   delivered, stranding them if the wire lost them (a permanent
//!   silent blackhole the `mdr-verify` transport checker traps as a
//!   claims-vs-delivered violation).
//! * **Session-tagged streams** — each datagram carries the sender's
//!   per-adjacency stream epoch (`session`, bumped on every channel
//!   reset). Without it, a one-sided reset (this side declared dead
//!   during an asymmetric loss burst, then re-upped at the same
//!   incarnation) restarts the sequence space invisibly: fresh
//!   segments numbered below the receiver's cumulative position are
//!   acked as duplicates but never delivered — a silent blackhole —
//!   while high-numbered in-flight segments park in the peer's reorder
//!   buffer forever. A session newer than the one the adjacency was
//!   established with forces a full re-sync
//!   ([`ChannelEvent::PeerDown`] with [`DownReason::SessionReset`],
//!   then [`ChannelEvent::PeerUp`]); an older one is a stale straggler
//!   and is dropped.
//!
//! Everything here is deterministic-core code: time arrives as explicit
//! `now` seconds, outputs are [`NodeBody`] values for the node to
//! envelope and frame. No sockets, no clocks, no randomness — the
//! backoff schedule and failure decisions are pure functions of the
//! event history, which is what makes them unit-testable with a mock
//! clock and seed-stable under the soak harness. The transition
//! relation itself is decomposed into `step_*` functions (admission,
//! body dispatch, and one per timer) the same way PR 4 decomposed
//! `MpdaRouter`: [`PeerChannel::on_message`] and [`PeerChannel::poll`]
//! are thin compositions, and the `mdr-verify` transport model checker
//! drives the very same steps — there is exactly one state machine.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use mdr_proto::{LsuMessage, NodeBody};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Timer and budget knobs for one adjacency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliableConfig {
    /// Seconds between keepalive `Hello`s.
    pub hello_interval: f64,
    /// Seconds of silence after which a peer is declared dead.
    pub dead_interval: f64,
    /// Base retransmission timeout (seconds) before any RTT sample has
    /// been taken; with `adaptive` off, attempt `k` waits
    /// `rto_initial · 2^k`, capped at [`ReliableConfig::rto_max`].
    pub rto_initial: f64,
    /// Floor on the adaptive retransmission timeout (seconds) — keeps a
    /// jitter-free mock clock (SRTT → 0) from retransmitting insanely
    /// fast.
    pub rto_min: f64,
    /// Ceiling on the per-attempt retransmission timeout (seconds).
    pub rto_max: f64,
    /// Retransmissions of one segment before the peer is declared dead.
    pub retry_budget: u32,
    /// Maximum unacked segments in flight.
    pub window: usize,
    /// Use the Jacobson/Karels estimator for the base timeout (`true`,
    /// the default) instead of the fixed `rto_initial` ladder.
    pub adaptive: bool,
    /// Out-of-order segments buffered before the stream is declared
    /// unsynchronizable and force-resynced
    /// ([`DownReason::ReorderOverflow`]).
    pub max_reorder: usize,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            hello_interval: 0.2,
            dead_interval: 1.0,
            rto_initial: 0.1,
            rto_min: 0.05,
            rto_max: 1.6,
            retry_budget: 6,
            window: 16,
            adaptive: true,
            max_reorder: 64,
        }
    }
}

impl ReliableConfig {
    /// The fixed-ladder timeout before retransmission attempt number
    /// `retries + 1` of a segment already sent `retries + 1` times:
    /// `rto_initial · 2^retries`, capped at `rto_max`. Used verbatim
    /// when `adaptive` is off; the adaptive path applies the same
    /// doubling to the estimator's base instead.
    pub fn rto(&self, retries: u32) -> f64 {
        let factor = 2.0f64.powi(retries.min(30) as i32);
        (self.rto_initial * factor).min(self.rto_max)
    }
}

/// Jacobson/Karels round-trip estimator (the RFC 6298 recurrences):
/// on the first sample `SRTT = s`, `RTTVAR = s/2`; afterwards
/// `RTTVAR ← 3/4·RTTVAR + 1/4·|SRTT − s|` then
/// `SRTT ← 7/8·SRTT + 1/8·s`; always `RTO = SRTT + 4·RTTVAR`, clamped
/// to the configured `[rto_min, rto_max]` band. Pure arithmetic over
/// explicit samples — no clocks — so it stays inside the
/// deterministic-core lint discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttEstimator {
    srtt: f64,
    rttvar: f64,
    rto: f64,
    initialized: bool,
}

impl RttEstimator {
    /// An estimator that answers `initial_rto` until the first sample.
    pub fn new(initial_rto: f64) -> Self {
        RttEstimator { srtt: 0.0, rttvar: 0.0, rto: initial_rto, initialized: false }
    }

    /// Fold in one RTT sample (seconds), clamping the resulting RTO to
    /// `[floor, ceil]`.
    pub fn observe(&mut self, sample: f64, floor: f64, ceil: f64) {
        let s = sample.max(0.0);
        if self.initialized {
            self.rttvar = 0.75 * self.rttvar + 0.25 * (self.srtt - s).abs();
            self.srtt = 0.875 * self.srtt + 0.125 * s;
        } else {
            self.srtt = s;
            self.rttvar = s / 2.0;
            self.initialized = true;
        }
        self.rto = (self.srtt + 4.0 * self.rttvar).clamp(floor, ceil);
    }

    /// Current base timeout (before per-retry doubling).
    pub fn rto(&self) -> f64 {
        self.rto
    }

    /// Smoothed RTT, once at least one sample has arrived.
    pub fn srtt(&self) -> Option<f64> {
        self.initialized.then_some(self.srtt)
    }
}

/// Why an adjacency went down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DownReason {
    /// Nothing heard for the dead interval.
    DeadInterval,
    /// A segment exhausted its retransmission budget.
    RetryExhausted,
    /// The peer came back with a higher incarnation (reported via
    /// [`ChannelEvent::PeerRestart`], which implies a down/up pair).
    Restarted,
    /// The peer's transport reset without a restart (its stream session
    /// advanced at an unchanged incarnation): its sequence space is
    /// gone, so the adjacency re-synchronizes from scratch.
    SessionReset,
    /// The reorder buffer exceeded [`ReliableConfig::max_reorder`]: the
    /// gap at the head of the stream is not healing, so the channel
    /// forces a full re-sync instead of buffering without bound.
    ReorderOverflow,
}

/// What the channel tells the node.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelEvent {
    /// First contact: the adjacency is up at this peer incarnation.
    PeerUp {
        /// The peer's incarnation.
        incarnation: u32,
    },
    /// The peer restarted (higher incarnation seen). The channel has
    /// already reset; the node must tear down and re-establish the
    /// adjacency.
    PeerRestart {
        /// Incarnation of the previous life.
        old: u32,
        /// Incarnation of the new life.
        new: u32,
    },
    /// The adjacency failed.
    PeerDown {
        /// Why.
        reason: DownReason,
    },
    /// One in-order LSU for the router.
    Deliver(LsuMessage),
    /// A reset threw away transport state holding undelivered data.
    /// Emitted right after the `PeerDown`/`PeerRestart` that caused the
    /// reset, and only when something was actually lost — the
    /// flush-or-report accounting the soak trace audits instead of the
    /// old silent discard.
    Discarded {
        /// Segments that were in flight (sent, never acked).
        in_flight: u64,
        /// Segments queued behind the window, never transmitted.
        backlog: u64,
        /// Out-of-order segments buffered but never released in order.
        reorder: u64,
    },
}

#[derive(Debug, Clone, PartialEq)]
struct InFlight {
    seq: u64,
    msg: LsuMessage,
    last_sent: f64,
    retries: u32,
    /// Karn's rule: a retransmitted segment yields no RTT sample.
    retransmitted: bool,
}

/// Deliberately unsound transition variants, for checker
/// self-validation only. The `mdr-verify` transport model checker must
/// produce a minimal counterexample against each of these — a checker
/// that blesses a broken protocol is worse than no checker. `None` is
/// the shipping behavior; nothing outside tests and the checker ever
/// constructs the others (see [`PeerChannel::with_mutant`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelMutant {
    /// The sound protocol.
    #[default]
    None,
    /// `reset` keeps the old session number: a one-sided reset restarts
    /// the sequence space invisibly — the silent-blackhole bug the
    /// session tag exists to prevent.
    SkipSessionBump,
    /// Accept datagrams regardless of `for_inc`/`for_session`: a
    /// neighbor's stale stream can establish or pollute a fresh
    /// channel — the ghost-channel bug the addressing fields prevent.
    IgnoreAddressing,
    /// Ack the highest buffered sequence instead of the in-order
    /// cumulative position: claims delivery of segments still parked
    /// behind a gap, so the sender drops them from flight unheard.
    AckBeyondDelivered,
}

/// Reliable, ordered LSU transfer plus failure detection toward one
/// neighbor.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerChannel {
    cfg: ReliableConfig,
    /// Incarnation of the node hosting this channel: the only
    /// destination incarnation (besides the 0 wildcard) whose datagrams
    /// this channel accepts.
    local_inc: u32,
    /// Incarnation of the live adjacency; `None` while down.
    peer_inc: Option<u32>,
    /// The peer's stream session the adjacency was established with.
    peer_session: u32,
    /// This side's own stream epoch (≥ 1; bumped on every reset).
    session: u32,
    // --- send side ---
    next_seq: u64,
    backlog: VecDeque<LsuMessage>,
    inflight: VecDeque<InFlight>,
    acked: u64,
    // --- receive side ---
    delivered: u64,
    reorder: BTreeMap<u64, LsuMessage>,
    // --- timers / stats ---
    last_heard: f64,
    next_hello: f64,
    rtt_sample: Option<f64>,
    /// Adaptive RTO state. Deliberately *not* cleared by `reset`: the
    /// path's RTT survives an adjacency flap, so a re-established
    /// channel starts from a calibrated timeout instead of re-learning
    /// from `rto_initial`.
    rtt: RttEstimator,
    /// Most recent peer hello timestamp and the local time it arrived —
    /// echoed back (with the hold time) so the peer can compute RTT
    /// without clock synchronization, BFD-style.
    peer_hello: Option<(u64, f64)>,
    /// Instant of the most recent retransmission. Karn's rule extended
    /// to cumulative acks: a segment sent at or before this instant may
    /// have had its ack head-of-line blocked behind the retransmitted
    /// head, so its `now − last_sent` overstates the RTT — no sample.
    retx_epoch: f64,
    /// Graceful-degradation mode after a retry-budget exhaustion:
    /// instead of wedging, hellos continue at `probe_interval`, which
    /// doubles per probe up to the dead interval. Any accepted contact
    /// clears it.
    probing: bool,
    probe_interval: f64,
    /// The peer has explicitly addressed *this* incarnation of this
    /// node (`for_inc == local_inc` on a received datagram) since the
    /// channel last reset. This — not delivery counts — is what proves
    /// the peer processed our current incarnation and purged any state
    /// from our previous life: wildcard-addressed (`for_inc == 0`)
    /// traffic queued before the peer ever heard of us can establish
    /// and deliver on a fresh channel without the peer knowing we
    /// restarted. The restart quarantine's release predicate rests on
    /// this flag.
    peer_proven: bool,
    /// Checker-validation sabotage knob — [`ChannelMutant::None`] in
    /// every shipping channel. A parameter of the transition relation,
    /// not part of the state (excluded from `encode_state`).
    mutant: ChannelMutant,
}

impl PeerChannel {
    /// A fresh (down) channel for a node at incarnation `local_inc`;
    /// the first [`PeerChannel::poll`] at or after `now` emits the
    /// opening `Hello`.
    pub fn new(cfg: ReliableConfig, local_inc: u32, now: f64) -> Self {
        PeerChannel {
            cfg,
            local_inc,
            peer_inc: None,
            peer_session: 0,
            session: 1,
            next_seq: 1,
            backlog: VecDeque::new(),
            inflight: VecDeque::new(),
            acked: 0,
            delivered: 0,
            reorder: BTreeMap::new(),
            last_heard: now,
            next_hello: now,
            rtt_sample: None,
            rtt: RttEstimator::new(cfg.rto_initial),
            peer_hello: None,
            retx_epoch: f64::NEG_INFINITY,
            probing: false,
            probe_interval: cfg.hello_interval,
            peer_proven: false,
            mutant: ChannelMutant::None,
        }
    }

    /// A channel running a deliberately broken transition relation —
    /// checker self-validation only (see [`ChannelMutant`]).
    pub fn with_mutant(
        cfg: ReliableConfig,
        local_inc: u32,
        now: f64,
        mutant: ChannelMutant,
    ) -> Self {
        PeerChannel { mutant, ..PeerChannel::new(cfg, local_inc, now) }
    }

    /// The adjacency is established.
    pub fn is_up(&self) -> bool {
        self.peer_inc.is_some()
    }

    /// Incarnation of the live adjacency.
    pub fn incarnation(&self) -> Option<u32> {
        self.peer_inc
    }

    /// This side's current stream epoch — stamped on every outgoing
    /// datagram of this adjacency.
    pub fn session(&self) -> u32 {
        self.session
    }

    /// The peer's stream session this adjacency was established with
    /// (0 while down).
    pub fn peer_session(&self) -> u32 {
        self.peer_session
    }

    /// The addressing triple for every outgoing datagram of this
    /// adjacency: `(for_inc, for_session, session)` — the peer life
    /// and stream epoch we believe we are talking to (0 while
    /// unknown), plus our own stream epoch.
    pub fn address(&self) -> (u32, u32, u32) {
        (self.peer_inc.unwrap_or(0), self.peer_session, self.session)
    }

    /// Out-of-order segments currently parked in the reorder buffer.
    pub fn reorder_len(&self) -> usize {
        self.reorder.len()
    }

    /// Unacked segments in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Highest cumulative sequence the peer has acknowledged for our
    /// outgoing stream this session. The transport model checker's
    /// no-silent-blackhole invariant pins this against what the peer
    /// actually delivered.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Segments queued behind the window.
    pub fn backlog(&self) -> usize {
        self.backlog.len()
    }

    /// In-order segments delivered since the adjacency (re)established.
    ///
    /// NOT proof that the peer knows this incarnation: the channel also
    /// accepts wildcard-addressed (`for_inc == 0`) datagrams — queued
    /// by a peer that has never heard of us — so delivery can happen
    /// while the peer still holds state from our previous life. The
    /// `mdr-verify` transport checker produced the counterexample; use
    /// [`PeerChannel::peer_proven`] for the quarantine decision.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The peer has explicitly addressed this node's *current*
    /// incarnation since the channel last reset — the proof of
    /// restart-processing the quarantine release in [`crate::core`]
    /// keys on (see the field's comment for why delivery counts are
    /// not enough).
    pub fn peer_proven(&self) -> bool {
        self.peer_proven
    }

    /// True when nothing is queued, in flight, or buffered — the
    /// channel's half of the convergence predicate.
    pub fn is_idle(&self) -> bool {
        self.backlog.is_empty() && self.inflight.is_empty() && self.reorder.is_empty()
    }

    /// Every LSU ever queued on this adjacency has been transport-acked
    /// by the peer. Because the peer's pump hands each in-order segment
    /// to its router *before* its cumulative ack reaches the wire, a
    /// flushed channel proves the peer has **processed** everything we
    /// sent — the exact premise MPDA's ACTIVE phase needs before
    /// raising FD (see the ack substitution in [`crate::core`]).
    pub fn flushed(&self) -> bool {
        self.backlog.is_empty() && self.inflight.is_empty()
    }

    /// Take the RTT sample produced by the most recent ack or hello
    /// echo, if any (cleared on read; retransmitted segments never
    /// produce one — Karn's rule).
    pub fn take_rtt_sample(&mut self) -> Option<f64> {
        self.rtt_sample.take()
    }

    /// In the probing state: the adjacency failed its retry budget and
    /// hellos continue at an exponentially relaxing cadence until the
    /// peer answers.
    pub fn is_probing(&self) -> bool {
        self.probing
    }

    /// Current base retransmission timeout — the estimator's RTO when
    /// adaptive, `rto_initial` otherwise. Per-retry doubling applies on
    /// top of this.
    pub fn base_rto(&self) -> f64 {
        if self.cfg.adaptive {
            self.rtt.rto()
        } else {
            self.cfg.rto_initial
        }
    }

    /// Smoothed RTT toward this peer, once a sample has arrived.
    pub fn srtt(&self) -> Option<f64> {
        self.rtt.srtt()
    }

    /// The timeout ahead of retransmission `retries + 1` of a segment:
    /// the adaptive (or fixed) base doubled per retry, capped at
    /// `rto_max`. `poll` and `next_deadline` both go through here so
    /// their deadline arithmetic agrees bit-for-bit.
    fn seg_rto(&self, retries: u32) -> f64 {
        if self.cfg.adaptive {
            let factor = 2.0f64.powi(retries.min(30) as i32);
            (self.rtt.rto() * factor).min(self.cfg.rto_max)
        } else {
            self.cfg.rto(retries)
        }
    }

    /// Build the outgoing keepalive: our send timestamp plus an echo of
    /// the peer's latest hello (and how long we held it), which is all
    /// the peer needs to compute RTT = now − echo − hold locally.
    fn make_hello(&self, now: f64) -> NodeBody {
        let (echo_ts_us, hold_us) = match self.peer_hello {
            Some((ts, rx)) => (ts, ((now - rx).max(0.0) * 1e6).round() as u64),
            None => (0, 0),
        };
        NodeBody::Hello { ts_us: (now.max(0.0) * 1e6).round() as u64, echo_ts_us, hold_us }
    }

    /// [`ChannelEvent::Discarded`] for a reset's casualty counts, or
    /// `None` when the reset lost nothing.
    fn discard_event(counts: (u64, u64, u64)) -> Option<ChannelEvent> {
        let (in_flight, backlog, reorder) = counts;
        (in_flight + backlog + reorder > 0).then_some(ChannelEvent::Discarded {
            in_flight,
            backlog,
            reorder,
        })
    }

    /// Append a canonical byte encoding of the full transport state:
    /// every field that participates in the transition relation (the
    /// config and mutant knobs are parameters of the relation, not
    /// state). The `mdr-verify` transport checker dedupes and
    /// canonicalizes world states on exactly these bytes, so any field
    /// influencing a future transition must appear here.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        fn f(out: &mut Vec<u8>, v: f64) {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        // Written field by field rather than through the wire codec,
        // which would allocate a buffer per message. The entry count
        // prefix and fixed-width entries keep it self-delimiting.
        fn lsu(out: &mut Vec<u8>, m: &LsuMessage) {
            out.extend_from_slice(&m.from.0.to_le_bytes());
            out.push(m.ack as u8);
            out.extend_from_slice(&(m.entries.len() as u32).to_le_bytes());
            for e in &m.entries {
                out.push(e.op as u8);
                out.extend_from_slice(&e.head.0.to_le_bytes());
                out.extend_from_slice(&e.tail.0.to_le_bytes());
                f(out, e.cost);
            }
        }
        out.extend_from_slice(&self.local_inc.to_le_bytes());
        out.push(self.peer_inc.is_some() as u8);
        out.extend_from_slice(&self.peer_inc.unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&self.peer_session.to_le_bytes());
        out.extend_from_slice(&self.session.to_le_bytes());
        out.extend_from_slice(&self.next_seq.to_le_bytes());
        out.extend_from_slice(&(self.backlog.len() as u32).to_le_bytes());
        for m in &self.backlog {
            lsu(out, m);
        }
        out.extend_from_slice(&(self.inflight.len() as u32).to_le_bytes());
        for s in &self.inflight {
            out.extend_from_slice(&s.seq.to_le_bytes());
            lsu(out, &s.msg);
            f(out, s.last_sent);
            out.extend_from_slice(&s.retries.to_le_bytes());
            out.push(s.retransmitted as u8);
        }
        out.extend_from_slice(&self.acked.to_le_bytes());
        out.extend_from_slice(&self.delivered.to_le_bytes());
        out.extend_from_slice(&(self.reorder.len() as u32).to_le_bytes());
        for (seq, m) in &self.reorder {
            out.extend_from_slice(&seq.to_le_bytes());
            lsu(out, m);
        }
        f(out, self.last_heard);
        f(out, self.next_hello);
        f(out, self.rtt_sample.unwrap_or(f64::NEG_INFINITY));
        f(out, self.rtt.srtt);
        f(out, self.rtt.rttvar);
        f(out, self.rtt.rto);
        out.push(self.rtt.initialized as u8);
        match self.peer_hello {
            Some((ts, rx)) => {
                out.push(1);
                out.extend_from_slice(&ts.to_le_bytes());
                f(out, rx);
            }
            None => out.push(0),
        }
        f(out, self.retx_epoch);
        out.push(self.probing as u8);
        f(out, self.probe_interval);
        out.push(self.peer_proven as u8);
    }

    /// Queue one LSU for reliable in-order delivery and return any
    /// segments that fit the window right now.
    pub fn send(&mut self, msg: LsuMessage, now: f64) -> Vec<NodeBody> {
        self.backlog.push_back(msg);
        self.fill_window(now)
    }

    fn fill_window(&mut self, now: f64) -> Vec<NodeBody> {
        let mut out = Vec::new();
        while self.inflight.len() < self.cfg.window {
            let Some(msg) = self.backlog.pop_front() else { break };
            let seq = self.next_seq;
            self.next_seq += 1;
            self.inflight.push_back(InFlight {
                seq,
                msg: msg.clone(),
                last_sent: now,
                retries: 0,
                retransmitted: false,
            });
            out.push(NodeBody::Data { seq, lsu: msg });
        }
        out
    }

    /// Handle one decoded body from this peer, stamped with the
    /// sender's `incarnation`, the incarnation and stream epoch it
    /// addressed (`for_inc`/`for_session`), and its own stream
    /// `session`. Returns bodies to transmit back and events for the
    /// node. A thin composition of the `step_*` transition functions —
    /// the live node, the mock-clock tests, and the `mdr-verify`
    /// transport checker all drive exactly this relation.
    pub fn on_message(
        &mut self,
        incarnation: u32,
        for_inc: u32,
        for_session: u32,
        session: u32,
        body: NodeBody,
        now: f64,
    ) -> (Vec<NodeBody>, Vec<ChannelEvent>) {
        let (accepted, mut events) =
            self.step_admit(incarnation, for_inc, for_session, session, now);
        if !accepted {
            return (Vec::new(), events);
        }
        let mut out = Vec::new();
        match body {
            NodeBody::Hello { ts_us, echo_ts_us, hold_us } => {
                self.step_hello(ts_us, echo_ts_us, hold_us, now);
            }
            NodeBody::Data { seq, lsu } => {
                let (o, ev) = self.step_data(seq, lsu, now);
                out.extend(o);
                events.extend(ev);
            }
            NodeBody::Ack { cum_seq } => out.extend(self.step_ack(cum_seq, now)),
        }
        (out, events)
    }

    /// Admission control plus adjacency lifecycle: the addressing
    /// gates (`for_inc`/`for_session`), the incarnation comparison,
    /// and the session comparison. Returns whether the datagram's body
    /// should be processed at all, plus any lifecycle events the
    /// decision produced (up/restart/reset).
    pub fn step_admit(
        &mut self,
        incarnation: u32,
        for_inc: u32,
        for_session: u32,
        session: u32,
        now: f64,
    ) -> (bool, Vec<ChannelEvent>) {
        let mut events = Vec::new();
        if self.mutant != ChannelMutant::IgnoreAddressing {
            if for_inc != 0 && for_inc != self.local_inc {
                // Addressed to a different life of this node — traffic
                // (or retransmissions) from a session built against an
                // incarnation we no longer are. Accepting it would let
                // a neighbor's stale stream establish or pollute a
                // fresh channel.
                return (false, events);
            }
            if for_session != 0 && for_session != self.session {
                // Addressed to a different stream epoch of this node:
                // the sender is still talking to the adjacency we had
                // before our last reset. Its cumulative acks were
                // computed against that stream's sequence space —
                // accepting one would acknowledge fresh segments the
                // sender never delivered, stranding them for good if
                // the wire lost them.
                return (false, events);
            }
        }
        if for_inc != 0 && for_inc == self.local_inc {
            // The peer named this exact life: whatever else the
            // datagram carries, the peer has processed our current
            // incarnation (see the `peer_proven` field).
            self.peer_proven = true;
        }
        match self.peer_inc {
            None => {
                self.peer_inc = Some(incarnation);
                self.peer_session = session;
                self.last_heard = now;
                if self.probing {
                    // Contact: leave the probing backoff and return to
                    // the keepalive cadence promptly so the peer's own
                    // dead-interval timer stays fed.
                    self.probing = false;
                    self.probe_interval = self.cfg.hello_interval;
                    self.next_hello = self.next_hello.min(now + self.cfg.hello_interval);
                }
                events.push(ChannelEvent::PeerUp { incarnation });
            }
            Some(cur) if incarnation > cur => {
                // The peer restarted: everything it knew — our
                // adjacency, every sequence number — is gone. Reset and
                // re-establish at the new incarnation.
                let discarded = self.reset(now);
                self.peer_inc = Some(incarnation);
                self.peer_session = session;
                self.last_heard = now;
                events.push(ChannelEvent::PeerRestart { old: cur, new: incarnation });
                events.extend(Self::discard_event(discarded));
            }
            Some(cur) if incarnation < cur => {
                // A stale datagram from a previous life, still floating
                // around the network. Dropping it is the whole point of
                // incarnation tags.
                return (false, events);
            }
            Some(_) if session > self.peer_session => {
                // Same process, new stream: the peer's channel reset
                // underneath us (it declared us dead during an
                // asymmetric loss burst, say) and its sequence space
                // restarted. Re-synchronize from scratch — continuing
                // with our cumulative position would silently blackhole
                // its fresh low-numbered segments as "duplicates". The
                // reset-then-adopt below cannot ping-pong: the peer
                // meets our own session bump with its adjacency already
                // cleared, and a fresh adoption triggers nothing.
                let discarded = self.reset(now);
                self.peer_inc = Some(incarnation);
                self.peer_session = session;
                self.last_heard = now;
                events.push(ChannelEvent::PeerDown { reason: DownReason::SessionReset });
                events.extend(Self::discard_event(discarded));
                events.push(ChannelEvent::PeerUp { incarnation });
            }
            Some(_) if session < self.peer_session => {
                // Straggler from the peer's previous stream.
                return (false, events);
            }
            Some(_) => {
                self.last_heard = now;
            }
        }
        if self.mutant != ChannelMutant::IgnoreAddressing
            && for_session != 0
            && for_session != self.session
        {
            // A reset-then-adopt above bumped our own session, so the
            // datagram — admitted against the session we had on entry —
            // is now addressed to a stream that no longer exists. The
            // lifecycle news (restart/reset) was real and stands, but
            // the body must not touch the fresh stream: its cumulative
            // ack was computed against the abandoned sequence space,
            // and applying it here would pre-acknowledge segments of
            // the new stream the peer has never seen.
            return (false, events);
        }
        (true, events)
    }

    /// Body transition for a keepalive: remember the peer's timestamp
    /// for our next echo, and fold an echoed RTT sample into the
    /// estimator.
    pub fn step_hello(&mut self, ts_us: u64, echo_ts_us: u64, hold_us: u64, now: f64) {
        if ts_us != 0 {
            // Remember the peer's timestamp (and when we got it) so
            // our next hello can echo it back.
            self.peer_hello = Some((ts_us, now));
        }
        if echo_ts_us != 0 {
            // Our own timestamp coming back: RTT is our elapsed time
            // minus how long the peer sat on it — no clock
            // synchronization involved. Reject samples outside
            // [0, dead_interval] (skewed holds, ancient stragglers
            // that survived a filter above).
            let sample = now - echo_ts_us as f64 / 1e6 - hold_us as f64 / 1e6;
            if sample >= 0.0 && sample <= self.cfg.dead_interval {
                self.rtt.observe(sample, self.cfg.rto_min, self.cfg.rto_max);
                self.rtt_sample = Some(sample);
            }
        }
    }

    /// Body transition for one data segment: reorder-buffer admission,
    /// in-order release, the bounded-buffer overflow teardown, and the
    /// cumulative ack.
    pub fn step_data(
        &mut self,
        seq: u64,
        lsu: LsuMessage,
        now: f64,
    ) -> (Vec<NodeBody>, Vec<ChannelEvent>) {
        let mut out = Vec::new();
        let mut events = Vec::new();
        if seq > self.delivered {
            self.reorder.insert(seq, lsu);
            // Release the contiguous prefix in order.
            while let Some(msg) = self.reorder.remove(&(self.delivered + 1)) {
                self.delivered += 1;
                events.push(ChannelEvent::Deliver(msg));
            }
            if self.reorder.len() > self.cfg.max_reorder {
                // The head-of-line gap is not healing while segments
                // keep arriving past it: force a full re-sync (session
                // bump) rather than buffer without bound. No ack goes
                // out — the peer must meet our new session, not our
                // stale cumulative position.
                let discarded = self.reset(now);
                events.push(ChannelEvent::PeerDown { reason: DownReason::ReorderOverflow });
                events.extend(Self::discard_event(discarded));
                return (out, events);
            }
        }
        // Always ack with the cumulative position: a duplicate or
        // out-of-order segment means our previous ack was lost or is
        // still in flight, so repeat it.
        let claim = if self.mutant == ChannelMutant::AckBeyondDelivered {
            self.reorder.keys().next_back().copied().unwrap_or(self.delivered).max(self.delivered)
        } else {
            self.delivered
        };
        out.push(NodeBody::Ack { cum_seq: claim });
        (out, events)
    }

    /// Body transition for one cumulative ack: pop acknowledged
    /// segments off the flight queue (feeding the RTT estimator under
    /// Karn's rule) and slide the window.
    pub fn step_ack(&mut self, cum_seq: u64, now: f64) -> Vec<NodeBody> {
        let mut out = Vec::new();
        // Duplicate/reordered acks (cum_seq <= acked) fall through
        // both loops untouched: tolerated, not fatal.
        if cum_seq > self.acked {
            self.acked = cum_seq;
            while self.inflight.front().is_some_and(|f| f.seq <= cum_seq) {
                if let Some(f) = self.inflight.pop_front() {
                    // Karn's rule, extended: no sample from a
                    // retransmitted segment (which transmission does
                    // the ack answer?), and none from a segment whose
                    // flight overlapped someone else's retransmission —
                    // its cumulative ack was head-of-line blocked
                    // behind the loss, so the elapsed time measures the
                    // stall, not the path.
                    if !f.retransmitted && f.last_sent > self.retx_epoch {
                        let sample = (now - f.last_sent).max(0.0);
                        self.rtt.observe(sample, self.cfg.rto_min, self.cfg.rto_max);
                        self.rtt_sample = Some(sample);
                    }
                }
            }
            out.extend(self.fill_window(now));
        }
        out
    }

    /// Drive timers at `now`: keepalives, retransmissions, failure
    /// detection. Call at least once per [`PeerChannel::next_deadline`].
    /// A thin composition of the timer guards and `step_*` firing
    /// functions below, which the `mdr-verify` transport checker also
    /// drives directly (firing a step without its guard is a sound
    /// over-approximation of timing).
    pub fn poll(&mut self, now: f64) -> (Vec<NodeBody>, Vec<ChannelEvent>) {
        // Failure detection first: a dead peer gets no retransmissions
        // and no hello this round.
        if self.dead_expiry_due(now) {
            return (Vec::new(), self.step_dead_expiry(now));
        }
        let mut out = Vec::new();
        if self.retx_due(now) {
            let (retx, events) = self.step_retx(now);
            if !events.is_empty() {
                // Retry exhaustion tore the adjacency down; the next
                // poll's hello opens the probing cadence.
                return (retx, events);
            }
            out.extend(retx);
        }
        if self.hello_due(now) {
            out.push(self.step_hello_timer(now));
        }
        (out, Vec::new())
    }

    /// The dead-interval timer is due: the adjacency is up but nothing
    /// has been heard for a full dead interval. Deadline comparisons
    /// use the exact `base + interval` sums that `next_deadline`
    /// returns — `now - base >= interval` is NOT equivalent under
    /// floating point, and the mismatch would make polling at the
    /// reported deadline a no-op (a livelock for any caller that
    /// sleeps until `next_deadline`).
    pub fn dead_expiry_due(&self, now: f64) -> bool {
        self.is_up() && now >= self.last_heard + self.cfg.dead_interval
    }

    /// Fire the dead-interval expiry: tear the adjacency down and
    /// report what the reset discarded.
    pub fn step_dead_expiry(&mut self, now: f64) -> Vec<ChannelEvent> {
        let discarded = self.reset(now);
        let mut events = vec![ChannelEvent::PeerDown { reason: DownReason::DeadInterval }];
        events.extend(Self::discard_event(discarded));
        events
    }

    /// The retransmission timer is due: the oldest unacked segment has
    /// waited out its (doubled-per-retry) timeout.
    pub fn retx_due(&self, now: f64) -> bool {
        self.inflight.front().is_some_and(|h| now >= h.last_sent + self.seg_rto(h.retries))
    }

    /// Fire the retransmission timer: re-send the oldest unacked
    /// segment, or — past the retry budget — tear the adjacency down
    /// into the probing state. Callers check [`PeerChannel::retx_due`]
    /// first; events are nonempty exactly on exhaustion.
    pub fn step_retx(&mut self, now: f64) -> (Vec<NodeBody>, Vec<ChannelEvent>) {
        let mut out = Vec::new();
        let mut events = Vec::new();
        let Some(retries) = self.inflight.front().map(|h| h.retries) else {
            return (out, events);
        };
        if retries >= self.cfg.retry_budget {
            // Graceful degradation: report what was lost, let the node
            // withdraw routes through this adjacency, and keep probing
            // at a relaxing cadence instead of wedging against a grey
            // link.
            let discarded = self.reset(now);
            self.probing = true;
            events.push(ChannelEvent::PeerDown { reason: DownReason::RetryExhausted });
            events.extend(Self::discard_event(discarded));
            return (out, events);
        }
        if let Some(head) = self.inflight.front_mut() {
            head.retries += 1;
            head.retransmitted = true;
            head.last_sent = now;
            out.push(NodeBody::Data { seq: head.seq, lsu: head.msg.clone() });
            self.retx_epoch = now;
        }
        (out, events)
    }

    /// The keepalive timer is due.
    pub fn hello_due(&self, now: f64) -> bool {
        now >= self.next_hello
    }

    /// Fire the keepalive timer: emit one hello and re-arm, at the
    /// exponentially relaxing probe cadence when degraded.
    pub fn step_hello_timer(&mut self, now: f64) -> NodeBody {
        let interval = if self.probing {
            let i = self.probe_interval;
            self.probe_interval = (self.probe_interval * 2.0)
                .min(self.cfg.dead_interval.max(self.cfg.hello_interval));
            i
        } else {
            self.cfg.hello_interval
        };
        self.next_hello = now + interval;
        self.make_hello(now)
    }

    /// The earliest future instant at which [`PeerChannel::poll`] has
    /// work to do.
    pub fn next_deadline(&self) -> f64 {
        let mut t = self.next_hello;
        if self.is_up() {
            t = t.min(self.last_heard + self.cfg.dead_interval);
        }
        if let Some(head) = self.inflight.front() {
            t = t.min(head.last_sent + self.seg_rto(head.retries));
        }
        t
    }

    /// Drop all transport state: the adjacency is gone and sequence
    /// numbers restart from 1 for the next life. Undelivered backlog is
    /// discarded — after re-sync the router re-floods current state,
    /// which supersedes anything queued here. Bumping the session tells
    /// the peer our sequence space restarted, so it re-syncs too
    /// instead of blackholing the new stream against its old cumulative
    /// position. Returns how much undelivered data was discarded
    /// (in-flight, backlog, reorder segment counts) so callers can
    /// report the loss instead of swallowing it; the RTT estimator
    /// deliberately survives.
    fn reset(&mut self, now: f64) -> (u64, u64, u64) {
        let counts =
            (self.inflight.len() as u64, self.backlog.len() as u64, self.reorder.len() as u64);
        if self.mutant != ChannelMutant::SkipSessionBump {
            self.session = self.session.saturating_add(1);
        }
        self.peer_inc = None;
        self.peer_session = 0;
        self.next_seq = 1;
        self.backlog.clear();
        self.inflight.clear();
        self.acked = 0;
        self.delivered = 0;
        self.reorder.clear();
        self.last_heard = now;
        self.rtt_sample = None;
        self.peer_hello = None;
        self.retx_epoch = f64::NEG_INFINITY;
        self.probing = false;
        self.probe_interval = self.cfg.hello_interval;
        self.peer_proven = false;
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_net::NodeId;
    use mdr_proto::{LsuEntry, LsuOp};

    fn lsu(from: u32) -> LsuMessage {
        LsuMessage::ack_only(NodeId(from))
    }

    fn cfg() -> ReliableConfig {
        ReliableConfig::default()
    }

    /// A bare hello carrying no timestamps (as from a peer that has
    /// nothing to echo yet).
    fn hello0() -> NodeBody {
        NodeBody::Hello { ts_us: 0, echo_ts_us: 0, hold_us: 0 }
    }

    fn up(ch: &mut PeerChannel, inc: u32, now: f64) {
        let (_, ev) = ch.on_message(inc, 0, 0, 1, hello0(), now);
        assert_eq!(ev, vec![ChannelEvent::PeerUp { incarnation: inc }]);
    }

    #[test]
    fn backoff_schedule_doubles_to_the_cap() {
        // rto_initial 0.1, rto_max 1.6: expected waits 0.1, 0.2, 0.4,
        // 0.8, 1.6, 1.6, ...
        let c = cfg();
        assert_eq!(c.rto(0), 0.1);
        assert_eq!(c.rto(1), 0.2);
        assert_eq!(c.rto(3), 0.8);
        assert_eq!(c.rto(4), 1.6);
        assert_eq!(c.rto(5), 1.6);
        assert_eq!(c.rto(30), 1.6);

        // And the channel follows it exactly under a mock clock. Use a
        // long dead interval so only hello and retransmission timers
        // fire, and step time by next_deadline() — the mock-clock
        // discipline the node event loop itself uses.
        let mut ch = PeerChannel::new(ReliableConfig { dead_interval: 1e9, ..c }, 1, 0.0);
        up(&mut ch, 1, 0.0);
        let sent = ch.send(lsu(0), 0.0);
        assert_eq!(sent.len(), 1);
        let mut expected = Vec::new();
        let mut t = 0.0;
        for k in 0..5u32 {
            t += c.rto(k);
            expected.push(t);
        }
        let mut retx_times = Vec::new();
        let mut now = 0.0;
        let mut iters = 0;
        while retx_times.len() < 5 {
            iters += 1;
            // Livelock guard: polling at next_deadline() must always
            // make progress (the deadline arithmetic in poll() and
            // next_deadline() has to agree bit-for-bit).
            assert!(iters < 200, "livelocked at now={now}, retx so far {retx_times:?}");
            let next = ch.next_deadline();
            assert!(next >= now, "deadlines never move backwards");
            now = next;
            let (out, ev) = ch.poll(now);
            assert!(ev.is_empty(), "no failure inside the budget");
            for b in out {
                if let NodeBody::Data { seq, .. } = b {
                    assert_eq!(seq, 1);
                    retx_times.push(now);
                }
            }
        }
        for (got, want) in retx_times.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-9, "retx at {got}, expected {want}");
        }
    }

    #[test]
    fn retry_exhaustion_declares_the_peer_dead() {
        let c = ReliableConfig { retry_budget: 3, dead_interval: 1e9, ..cfg() };
        let mut ch = PeerChannel::new(c, 1, 0.0);
        up(&mut ch, 1, 0.0);
        ch.send(lsu(0), 0.0);
        let mut down = None;
        let mut retx = 0;
        let mut t = 0.0;
        while down.is_none() && t < 100.0 {
            t = ch.next_deadline().max(t + 1e-3);
            let (out, ev) = ch.poll(t);
            retx += out.iter().filter(|b| matches!(b, NodeBody::Data { .. })).count();
            for e in ev {
                if let ChannelEvent::PeerDown { reason } = e {
                    down = Some(reason);
                }
            }
        }
        assert_eq!(down, Some(DownReason::RetryExhausted));
        assert_eq!(retx, 3, "exactly the budget's worth of retransmissions");
        assert!(!ch.is_up());
        assert!(ch.is_idle(), "transport state cleared on failure");
    }

    #[test]
    fn duplicate_and_reordered_acks_are_tolerated() {
        let mut ch = PeerChannel::new(cfg(), 1, 0.0);
        up(&mut ch, 1, 0.0);
        ch.send(lsu(0), 0.0);
        ch.send(lsu(0), 0.0);
        assert_eq!(ch.in_flight(), 2);
        let (_, ev) = ch.on_message(1, 1, 0, 1, NodeBody::Ack { cum_seq: 2 }, 0.05);
        assert!(ev.is_empty());
        assert_eq!(ch.in_flight(), 0);
        // The same ack again, then a stale one from before: no-ops.
        for cum in [2, 1, 0] {
            let (out, ev) = ch.on_message(1, 1, 0, 1, NodeBody::Ack { cum_seq: cum }, 0.06);
            assert!(out.is_empty() && ev.is_empty(), "duplicate ack must be silent");
        }
        assert_eq!(ch.in_flight(), 0);
    }

    #[test]
    fn receiver_reorders_into_a_gap_free_stream() {
        let mut ch = PeerChannel::new(cfg(), 1, 0.0);
        let mk = |i: u32| NodeBody::Data { seq: i as u64, lsu: lsu(i) };
        // Arrival order 2, 3, 1 — delivery must be 1, 2, 3.
        let (out, ev) = ch.on_message(1, 1, 0, 1, mk(2), 0.0);
        assert_eq!(out, vec![NodeBody::Ack { cum_seq: 0 }], "gap: repeat the cumulative ack");
        assert!(matches!(ev[0], ChannelEvent::PeerUp { .. }));
        let (out, ev) = ch.on_message(1, 1, 0, 1, mk(3), 0.1);
        assert_eq!(out, vec![NodeBody::Ack { cum_seq: 0 }]);
        assert!(ev.is_empty());
        let (out, ev) = ch.on_message(1, 1, 0, 1, mk(1), 0.2);
        assert_eq!(out, vec![NodeBody::Ack { cum_seq: 3 }]);
        let delivered: Vec<u32> = ev
            .iter()
            .map(|e| match e {
                ChannelEvent::Deliver(m) => m.from.0,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(delivered, vec![1, 2, 3]);
        // A duplicate of an old segment re-acks without re-delivering.
        let (out, ev) = ch.on_message(1, 1, 0, 1, mk(2), 0.3);
        assert_eq!(out, vec![NodeBody::Ack { cum_seq: 3 }]);
        assert!(ev.is_empty());
    }

    #[test]
    fn window_limits_flight_and_acks_slide_it() {
        let c = ReliableConfig { window: 2, ..cfg() };
        let mut ch = PeerChannel::new(c, 1, 0.0);
        up(&mut ch, 1, 0.0);
        let mut wire = Vec::new();
        for _ in 0..5 {
            wire.extend(ch.send(lsu(0), 0.0));
        }
        assert_eq!(wire.len(), 2, "window caps initial transmissions");
        assert_eq!(ch.backlog(), 3);
        let (out, _) = ch.on_message(1, 1, 0, 1, NodeBody::Ack { cum_seq: 2 }, 0.1);
        let seqs: Vec<u64> = out
            .iter()
            .map(|b| match b {
                NodeBody::Data { seq, .. } => *seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(seqs, vec![3, 4], "ack slides the window");
        assert_eq!(ch.backlog(), 1);
    }

    #[test]
    fn dead_interval_fires_without_traffic() {
        let mut ch = PeerChannel::new(cfg(), 1, 0.0);
        up(&mut ch, 7, 0.0);
        let (_, ev) = ch.poll(0.99);
        assert!(ev.is_empty());
        let (_, ev) = ch.poll(1.0);
        assert_eq!(ev, vec![ChannelEvent::PeerDown { reason: DownReason::DeadInterval }]);
        assert!(!ch.is_up());
    }

    #[test]
    fn restart_resets_and_reports_incarnations() {
        let mut ch = PeerChannel::new(cfg(), 1, 0.0);
        up(&mut ch, 1, 0.0);
        ch.send(lsu(0), 0.0);
        assert_eq!(ch.in_flight(), 1);
        // Data from incarnation 2: the peer restarted.
        let (out, ev) = ch.on_message(2, 1, 0, 1, NodeBody::Data { seq: 1, lsu: lsu(9) }, 0.5);
        assert_eq!(
            ev[0],
            ChannelEvent::PeerRestart { old: 1, new: 2 },
            "restart detected before the body is processed"
        );
        assert_eq!(
            ev[1],
            ChannelEvent::Discarded { in_flight: 1, backlog: 0, reorder: 0 },
            "the reset reports the in-flight segment it threw away"
        );
        assert!(matches!(ev[2], ChannelEvent::Deliver(_)), "new-life data still delivers");
        assert_eq!(out, vec![NodeBody::Ack { cum_seq: 1 }]);
        assert_eq!(ch.incarnation(), Some(2));
        assert_eq!(ch.in_flight(), 0, "old-life flight state discarded");
        // A straggler from incarnation 1 is dropped outright.
        let (out, ev) = ch.on_message(1, 1, 0, 1, NodeBody::Data { seq: 5, lsu: lsu(9) }, 0.6);
        assert!(out.is_empty() && ev.is_empty());
    }

    #[test]
    fn hello_cadence_and_deadline_accounting() {
        let mut ch = PeerChannel::new(cfg(), 1, 0.0);
        let (out, _) = ch.poll(0.0);
        assert!(matches!(out[0], NodeBody::Hello { .. }), "opening hello fires immediately");
        assert_eq!(ch.next_deadline(), 0.2, "down peer: only the hello timer is armed");
        let (out, _) = ch.poll(0.1);
        assert!(out.is_empty());
        let (out, _) = ch.poll(0.2);
        assert_eq!(out.len(), 1);
        up(&mut ch, 1, 0.25);
        // Now the dead interval is armed too.
        assert_eq!(ch.next_deadline(), 0.4f64.min(0.25 + 1.0));
    }

    #[test]
    fn datagrams_addressed_to_another_life_are_ignored() {
        // This node is at incarnation 3; a neighbor still retransmitting
        // into a session built against incarnation 2 must not establish
        // the channel or park anything in the reorder buffer.
        let mut ch = PeerChannel::new(cfg(), 3, 0.0);
        let (out, ev) = ch.on_message(1, 2, 0, 1, NodeBody::Data { seq: 47, lsu: lsu(9) }, 0.0);
        assert!(out.is_empty() && ev.is_empty(), "stale-addressed data must be silent");
        assert!(!ch.is_up());
        assert!(ch.is_idle(), "no reorder pollution from the old session");
        // Hellos with the unknown-receiver wildcard still make contact…
        let (_, ev) = ch.on_message(1, 0, 0, 1, hello0(), 0.1);
        assert_eq!(ev, vec![ChannelEvent::PeerUp { incarnation: 1 }]);
        // …and correctly addressed traffic flows.
        let (out, ev) = ch.on_message(1, 3, 0, 1, NodeBody::Data { seq: 1, lsu: lsu(9) }, 0.2);
        assert_eq!(out, vec![NodeBody::Ack { cum_seq: 1 }]);
        assert!(matches!(ev[0], ChannelEvent::Deliver(_)));
    }

    #[test]
    fn peer_session_bump_forces_a_full_resync() {
        let mut ch = PeerChannel::new(cfg(), 1, 0.0);
        up(&mut ch, 1, 0.0);
        let own = ch.session();
        // Session 1 delivers seq 1; then the peer's channel resets
        // underneath us (same incarnation, session 2) and its sequence
        // space restarts at 1. Without the session tag this would be
        // "a duplicate": acked, never delivered.
        let (_, ev) = ch.on_message(1, 1, 0, 1, NodeBody::Data { seq: 1, lsu: lsu(8) }, 0.1);
        assert!(matches!(ev.last(), Some(ChannelEvent::Deliver(_))));
        let (out, ev) = ch.on_message(1, 1, 0, 2, NodeBody::Data { seq: 1, lsu: lsu(9) }, 0.2);
        assert_eq!(
            ev[0],
            ChannelEvent::PeerDown { reason: DownReason::SessionReset },
            "the node must tear the adjacency down before re-syncing"
        );
        assert_eq!(ev[1], ChannelEvent::PeerUp { incarnation: 1 });
        assert!(matches!(ev[2], ChannelEvent::Deliver(_)), "the new stream's seq 1 delivers");
        assert_eq!(out, vec![NodeBody::Ack { cum_seq: 1 }]);
        assert_eq!(ch.session(), own + 1, "our own stream epoch advanced with the reset");
        // A straggler from the peer's previous stream is dropped.
        let (out, ev) = ch.on_message(1, 1, 0, 1, NodeBody::Data { seq: 2, lsu: lsu(8) }, 0.3);
        assert!(out.is_empty() && ev.is_empty());
    }

    #[test]
    fn own_reset_bumps_the_advertised_session() {
        let mut ch = PeerChannel::new(cfg(), 1, 0.0);
        assert_eq!(ch.session(), 1);
        up(&mut ch, 1, 0.0);
        let (_, ev) = ch.poll(1.0); // dead interval fires
        assert_eq!(ev, vec![ChannelEvent::PeerDown { reason: DownReason::DeadInterval }]);
        assert_eq!(ch.session(), 2, "the next life of this stream is distinguishable");
    }

    #[test]
    fn rtt_estimator_follows_the_rfc6298_recurrences() {
        let mut e = RttEstimator::new(0.1);
        assert_eq!(e.rto(), 0.1, "pre-sample RTO answers the initial value");
        assert_eq!(e.srtt(), None);
        // First sample: SRTT = s, RTTVAR = s/2, RTO = s + 4·(s/2) = 3s.
        e.observe(0.04, 0.05, 1.6);
        assert_eq!(e.srtt(), Some(0.04));
        assert!((e.rto() - 0.12).abs() < 1e-12);
        // Second sample, same value: RTTVAR = 3/4·0.02 + 1/4·0 = 0.015,
        // SRTT stays 0.04, RTO = 0.04 + 0.06 = 0.1.
        e.observe(0.04, 0.05, 1.6);
        assert!((e.rto() - 0.1).abs() < 1e-12);
        // Steady samples converge the variance out and the floor kicks
        // in: SRTT → 0.04 but RTO clamps at 0.05.
        for _ in 0..200 {
            e.observe(0.04, 0.05, 1.6);
        }
        assert_eq!(e.rto(), 0.05, "floor clamps a jitter-free path");
        // Ceiling clamps a pathological sample.
        e.observe(10.0, 0.05, 1.6);
        assert_eq!(e.rto(), 1.6);
    }

    #[test]
    fn acks_feed_the_adaptive_rto() {
        // Park the hello and dead timers far away so next_deadline is
        // the retransmission deadline alone.
        let quiet = ReliableConfig { hello_interval: 1e9, dead_interval: 1e9, ..cfg() };
        let mut ch = PeerChannel::new(quiet, 1, 0.0);
        let _ = ch.poll(0.0);
        up(&mut ch, 1, 0.0);
        assert_eq!(ch.base_rto(), 0.1, "pre-sample base is rto_initial");
        ch.send(lsu(0), 0.0);
        let (_, _) = ch.on_message(1, 1, 0, 1, NodeBody::Ack { cum_seq: 1 }, 0.04);
        assert_eq!(ch.take_rtt_sample(), Some(0.04));
        assert!((ch.base_rto() - 0.12).abs() < 1e-12, "first sample: RTO = 3·RTT");
        // The retransmission deadline uses the adapted base.
        ch.send(lsu(0), 1.0);
        assert!((ch.next_deadline() - (1.0 + 0.12)).abs() < 1e-12);
        // With `adaptive` off the same history leaves the ladder alone.
        let mut fixed = PeerChannel::new(ReliableConfig { adaptive: false, ..quiet }, 1, 0.0);
        let _ = fixed.poll(0.0);
        up(&mut fixed, 1, 0.0);
        fixed.send(lsu(0), 0.0);
        let _ = fixed.on_message(1, 1, 0, 1, NodeBody::Ack { cum_seq: 1 }, 0.04);
        fixed.send(lsu(0), 1.0);
        assert_eq!(fixed.base_rto(), 0.1);
        assert!((fixed.next_deadline() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn karns_rule_skips_retransmitted_segments() {
        let mut ch = PeerChannel::new(ReliableConfig { dead_interval: 1e9, ..cfg() }, 1, 0.0);
        up(&mut ch, 1, 0.0);
        ch.send(lsu(0), 0.0);
        // Let the segment retransmit once, then ack it: the sample is
        // ambiguous (which transmission does the ack answer?), so the
        // estimator must ignore it.
        let (out, _) = ch.poll(0.1);
        assert!(out.iter().any(|b| matches!(b, NodeBody::Data { .. })), "retransmit fired");
        let (_, _) = ch.on_message(1, 1, 0, 1, NodeBody::Ack { cum_seq: 1 }, 0.15);
        assert_eq!(ch.take_rtt_sample(), None, "no sample from a retransmitted segment");
        assert_eq!(ch.base_rto(), 0.1, "estimator untouched");
    }

    #[test]
    fn hello_echo_yields_an_rtt_sample_without_clock_sync() {
        let mut ch = PeerChannel::new(cfg(), 1, 0.0);
        // Our hello at t=1.0 carries ts_us = 1_000_000.
        let (out, _) = ch.poll(1.0);
        let sent_ts = match out.last() {
            Some(NodeBody::Hello { ts_us, .. }) => *ts_us,
            other => panic!("expected a hello, got {other:?}"),
        };
        assert_eq!(sent_ts, 1_000_000);
        // The peer echoes it back 50 ms later having held it for 30 ms:
        // RTT = 1.05 − 1.0 − 0.03 = 0.02.
        let echo = NodeBody::Hello { ts_us: 2_000_000, echo_ts_us: sent_ts, hold_us: 30_000 };
        let (_, ev) = ch.on_message(1, 0, 0, 1, echo, 1.05);
        assert!(matches!(ev[0], ChannelEvent::PeerUp { .. }));
        let sample = ch.take_rtt_sample().expect("echo produced a sample");
        assert!((sample - 0.02).abs() < 1e-9);
        assert!((ch.base_rto() - 0.06f64.max(0.05)).abs() < 1e-9, "estimator fed: RTO = 3·RTT");
        // And our next hello echoes the peer's timestamp with the hold.
        let (out, _) = ch.poll(1.25);
        match out.last() {
            Some(NodeBody::Hello { echo_ts_us, hold_us, .. }) => {
                assert_eq!(*echo_ts_us, 2_000_000);
                assert_eq!(*hold_us, 200_000, "held the peer's timestamp 0.2 s");
            }
            other => panic!("expected a hello, got {other:?}"),
        }
        // A sample outside [0, dead_interval] is rejected.
        let bogus = NodeBody::Hello { ts_us: 0, echo_ts_us: 1, hold_us: 0 };
        let before = ch.base_rto();
        let (_, _) = ch.on_message(1, 0, 0, 1, bogus, 100.0);
        assert_eq!(ch.take_rtt_sample(), None);
        assert_eq!(ch.base_rto(), before);
    }

    #[test]
    fn retry_exhaustion_reports_discards_and_probes() {
        let c = ReliableConfig { retry_budget: 1, ..cfg() };
        let mut ch = PeerChannel::new(c, 1, 0.0);
        up(&mut ch, 1, 0.0);
        ch.send(lsu(0), 0.0);
        ch.send(lsu(0), 0.0);
        // Ladder with no samples: retransmit at 0.1, exhaust one
        // doubled timeout later (step by next_deadline — 0.1 + 0.2 is
        // not exactly 0.3 in floating point).
        let (_, ev) = ch.poll(0.1);
        assert!(ev.is_empty());
        let mut now = 0.1;
        let mut failure = Vec::new();
        while failure.is_empty() {
            now = ch.next_deadline().max(now);
            assert!(now < 2.0, "exhaustion never fired");
            let (_, ev) = ch.poll(now);
            failure = ev;
        }
        assert_eq!(
            failure,
            vec![
                ChannelEvent::PeerDown { reason: DownReason::RetryExhausted },
                ChannelEvent::Discarded { in_flight: 2, backlog: 0, reorder: 0 },
            ],
            "the failure reports both stranded segments, not just the head"
        );
        assert!(ch.is_probing(), "degraded to probing instead of wedging");
        // Probe cadence: each hello doubles the next interval, capped
        // at the dead interval.
        let mut hello_times = Vec::new();
        while hello_times.len() < 5 {
            now = ch.next_deadline().max(now);
            let (out, _) = ch.poll(now);
            if out.iter().any(|b| matches!(b, NodeBody::Hello { .. })) {
                hello_times.push(now);
            }
        }
        let gaps: Vec<f64> =
            hello_times.windows(2).map(|w| ((w[1] - w[0]) * 1e6).round() / 1e6).collect();
        assert_eq!(gaps, vec![0.2, 0.4, 0.8, 1.0], "exponential probe backoff, dead-interval cap");
        // Contact clears probing and restores the keepalive cadence.
        let (_, ev) = ch.on_message(1, 0, 0, 7, hello0(), now + 0.01);
        assert!(matches!(ev[0], ChannelEvent::PeerUp { .. }));
        assert!(!ch.is_probing());
        assert!(ch.next_deadline() <= now + 0.01 + ch.cfg.hello_interval + 1e-9);
    }

    #[test]
    fn reorder_overflow_forces_a_resync() {
        let c = ReliableConfig { max_reorder: 4, ..cfg() };
        let mut ch = PeerChannel::new(c, 1, 0.0);
        up(&mut ch, 1, 0.0);
        let own = ch.session();
        let mk = |i: u64| NodeBody::Data { seq: i, lsu: lsu(9) };
        // Seq 1 never arrives; 3..=6 park in the reorder buffer (at the
        // cap), and the 5th gap segment trips the overflow.
        for seq in 3..=6 {
            let (out, ev) = ch.on_message(1, 1, 0, 1, mk(seq), 0.1);
            assert_eq!(out, vec![NodeBody::Ack { cum_seq: 0 }]);
            assert!(ev.is_empty());
        }
        let (out, ev) = ch.on_message(1, 1, 0, 1, mk(7), 0.2);
        assert!(out.is_empty(), "no ack: the peer must re-sync, not trust our stale position");
        assert_eq!(
            ev,
            vec![
                ChannelEvent::PeerDown { reason: DownReason::ReorderOverflow },
                ChannelEvent::Discarded { in_flight: 0, backlog: 0, reorder: 5 },
            ]
        );
        assert!(!ch.is_up());
        assert!(ch.is_idle(), "buffer bounded: overflow clears it");
        assert_eq!(ch.session(), own + 1, "session bump forces the peer through a full re-sync");
        // In-order traffic never trips the cap no matter how much.
        let mut ok = PeerChannel::new(c, 1, 0.0);
        for seq in 1..=100u64 {
            let (_, ev) = ok.on_message(1, 1, 0, 1, mk(seq), 0.0);
            assert!(ev.iter().all(|e| !matches!(e, ChannelEvent::PeerDown { .. })));
        }
        assert_eq!(ok.delivered(), 100);
    }

    /// Deterministic two-endpoint harness over a 5% i.i.d.-lossy wire:
    /// the adaptive RTO must complete a bulk LSU transfer no slower
    /// than the fixed ladder (the path RTT of 20 ms is well under
    /// `rto_initial`, so the estimator retransmits sooner once
    /// calibrated). This is the PR's A/B acceptance criterion in
    /// miniature; the soak harness repeats it over real sockets.
    #[test]
    fn adaptive_rto_matches_or_beats_the_fixed_ladder_under_loss() {
        const N: u64 = 40;
        const DELAY: f64 = 0.01;
        const LOSS: f64 = 0.05;

        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn unit(state: &mut u64) -> f64 {
            (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
        }

        fn run_transfer(adaptive: bool, seed: u64) -> f64 {
            let c = ReliableConfig { adaptive, dead_interval: 1e9, ..ReliableConfig::default() };
            let mut a = PeerChannel::new(c, 1, 0.0);
            let mut b = PeerChannel::new(c, 1, 0.0);
            let mut rng = seed;
            // (deliver_at, enqueue_order, to_b, sender_session, body)
            let mut wire: Vec<(f64, u64, bool, u32, NodeBody)> = Vec::new();
            let mut order = 0u64;
            let enqueue = |wire: &mut Vec<(f64, u64, bool, u32, NodeBody)>,
                           rng: &mut u64,
                           order: &mut u64,
                           now: f64,
                           to_b: bool,
                           session: u32,
                           body: NodeBody| {
                if unit(rng) >= LOSS {
                    wire.push((now + DELAY, *order, to_b, session, body));
                    *order += 1;
                }
            };
            let mut initial = Vec::new();
            for _ in 0..N {
                initial.extend(a.send(lsu(0), 0.0));
            }
            for body in initial {
                enqueue(&mut wire, &mut rng, &mut order, 0.0, true, a.session(), body);
            }
            let mut now = 0.0;
            while b.delivered() < N {
                let wire_next = wire.iter().map(|e| e.0).fold(f64::INFINITY, f64::min);
                now = wire_next.min(a.next_deadline()).min(b.next_deadline()).max(now);
                assert!(now < 120.0, "transfer wedged (adaptive={adaptive}, seed={seed})");
                // Deliver everything due, in (time, enqueue order).
                let mut due: Vec<_> = Vec::new();
                wire.retain(|e| {
                    if e.0 <= now {
                        due.push(e.clone());
                        false
                    } else {
                        true
                    }
                });
                due.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
                for (_, _, to_b, session, body) in due {
                    let rcv = if to_b { &mut b } else { &mut a };
                    let (replies, _) = rcv.on_message(1, 0, 0, session, body, now);
                    for r in replies {
                        enqueue(&mut wire, &mut rng, &mut order, now, !to_b, rcv.session(), r);
                    }
                }
                let (out, _) = a.poll(now);
                for bdy in out {
                    enqueue(&mut wire, &mut rng, &mut order, now, true, a.session(), bdy);
                }
                let (out, _) = b.poll(now);
                for bdy in out {
                    enqueue(&mut wire, &mut rng, &mut order, now, false, b.session(), bdy);
                }
            }
            now
        }

        let mut adaptive_total = 0.0;
        let mut fixed_total = 0.0;
        for seed in [7u64, 19, 41] {
            adaptive_total += run_transfer(true, seed);
            fixed_total += run_transfer(false, seed);
        }
        assert!(
            adaptive_total <= fixed_total + 1e-9,
            "adaptive RTO must not lose to the fixed ladder: {adaptive_total:.3}s vs {fixed_total:.3}s"
        );
    }

    #[test]
    fn stale_session_acks_cannot_pop_fresh_inflight() {
        // Our channel resets (session 1 → 2) while the peer still holds
        // the old adjacency. Its cumulative ack — computed against our
        // pre-reset stream — arrives addressed to for_session 1. It
        // must not acknowledge segments of the fresh stream: if frame 1
        // of the new stream were lost, "ack 2" would strand it
        // permanently while flushed() fed a false protocol ack to the
        // router (FD raised on a false premise).
        let mut ch = PeerChannel::new(cfg(), 1, 0.0);
        up(&mut ch, 1, 0.0);
        ch.send(lsu(0), 0.0);
        ch.send(lsu(0), 0.0);
        let (_, ev) = ch.poll(1.0); // dead interval: reset, session 1 → 2
        assert!(matches!(ev[0], ChannelEvent::PeerDown { .. }));
        assert_eq!(ch.session(), 2);
        up(&mut ch, 1, 2.0);
        ch.send(lsu(1), 2.0);
        ch.send(lsu(2), 2.0);
        assert_eq!(ch.in_flight(), 2);
        // The peer's stale ack, addressed to the pre-reset stream epoch.
        let (out, ev) = ch.on_message(1, 1, 1, 1, NodeBody::Ack { cum_seq: 2 }, 2.1);
        assert!(out.is_empty() && ev.is_empty(), "stale-session ack must be silent");
        assert_eq!(ch.in_flight(), 2, "fresh segments stay in flight");
        assert!(!ch.flushed());
        // The same ack addressed to the current epoch does count.
        let _ = ch.on_message(1, 1, 2, 1, NodeBody::Ack { cum_seq: 2 }, 2.2);
        assert_eq!(ch.in_flight(), 0);
    }

    #[test]
    fn reorder_buffer_at_exactly_the_bound_survives_and_heals() {
        // max_reorder = 4: four parked segments is legal (the overflow
        // check is strictly greater), and the gap filling in releases
        // everything without a teardown.
        let c = ReliableConfig { max_reorder: 4, ..cfg() };
        let mut ch = PeerChannel::new(c, 1, 0.0);
        up(&mut ch, 1, 0.0);
        let mk = |i: u64| NodeBody::Data { seq: i, lsu: lsu(9) };
        for seq in 2..=5 {
            let (out, ev) = ch.on_message(1, 1, 0, 1, mk(seq), 0.1);
            assert_eq!(out, vec![NodeBody::Ack { cum_seq: 0 }]);
            assert!(ev.is_empty());
        }
        assert_eq!(ch.reorder_len(), 4, "exactly at the bound");
        let (out, ev) = ch.on_message(1, 1, 0, 1, mk(1), 0.2);
        assert_eq!(out, vec![NodeBody::Ack { cum_seq: 5 }]);
        assert_eq!(ev.len(), 5, "the whole run releases in order");
        assert!(ch.is_up(), "no teardown at the exact bound");
        assert_eq!(ch.reorder_len(), 0);
    }

    #[test]
    fn retry_exhaustion_during_a_partition_reports_backlog_then_heals() {
        // A partition strikes with a full window in flight AND a
        // backlog queued behind it: the exhaustion must account for
        // both, and the first contact after the heal re-establishes at
        // a fresh session.
        let c = ReliableConfig { retry_budget: 1, window: 2, dead_interval: 1e9, ..cfg() };
        let mut ch = PeerChannel::new(c, 1, 0.0);
        up(&mut ch, 1, 0.0);
        for i in 0..5 {
            ch.send(lsu(i), 0.0);
        }
        assert_eq!((ch.in_flight(), ch.backlog()), (2, 3));
        let before = ch.session();
        let mut now = 0.0;
        let mut failure = Vec::new();
        while failure.is_empty() {
            now = ch.next_deadline().max(now);
            assert!(now < 10.0, "exhaustion never fired");
            let (_, ev) = ch.poll(now);
            failure = ev;
        }
        assert_eq!(
            failure,
            vec![
                ChannelEvent::PeerDown { reason: DownReason::RetryExhausted },
                ChannelEvent::Discarded { in_flight: 2, backlog: 3, reorder: 0 },
            ],
            "every stranded segment is accounted for, windowed or queued"
        );
        assert_eq!(ch.session(), before + 1);
        assert!(ch.is_probing());
        // The partition heals: the peer's next hello re-establishes.
        let (_, ev) = ch.on_message(1, 0, 0, 3, hello0(), now + 0.5);
        assert_eq!(ev, vec![ChannelEvent::PeerUp { incarnation: 1 }]);
        assert!(!ch.is_probing());
    }

    #[test]
    fn adaptive_backoff_clamps_at_the_ladder_ceiling() {
        // Calibrate the estimator to a fast path, then lose everything:
        // per-retry doubling walks the adaptive base up the ladder and
        // must clamp at rto_max, exactly like the fixed schedule.
        let c =
            ReliableConfig { retry_budget: 12, dead_interval: 1e9, hello_interval: 1e9, ..cfg() };
        let mut ch = PeerChannel::new(c, 1, 0.0);
        let _ = ch.poll(0.0); // park the opening hello a hello_interval away
        up(&mut ch, 1, 0.0);
        ch.send(lsu(0), 0.0);
        let _ = ch.on_message(1, 1, 0, 1, NodeBody::Ack { cum_seq: 1 }, 0.04);
        assert!((ch.base_rto() - 0.12).abs() < 1e-12, "calibrated base: 3·RTT");
        ch.send(lsu(0), 1.0);
        let mut gaps = Vec::new();
        let mut last = 1.0;
        for _ in 0..8 {
            let now = ch.next_deadline();
            let (out, ev) = ch.poll(now);
            assert!(ev.is_empty());
            assert!(out.iter().any(|b| matches!(b, NodeBody::Data { .. })));
            gaps.push(now - last);
            last = now;
        }
        // 0.12, 0.24, 0.48, 0.96, then the 1.6 ceiling forever.
        let want = [0.12, 0.24, 0.48, 0.96, 1.6, 1.6, 1.6, 1.6];
        for (g, w) in gaps.iter().zip(want) {
            assert!((g - w).abs() < 1e-9, "gaps {gaps:?} expected {want:?}");
        }
        // The fixed ladder clamps identically, far past any budget (the
        // doubling shift saturates instead of overflowing).
        assert_eq!(cfg().rto(31), cfg().rto_max);
    }

    #[test]
    fn encode_state_distinguishes_and_matches() {
        // A channel with every queue populated: a backlog behind a full
        // window, an in-flight segment, a parked out-of-order segment
        // and a remembered peer hello.
        let c = ReliableConfig { window: 1, ..cfg() };
        let mut base = PeerChannel::new(c, 1, 0.0);
        let hello = NodeBody::Hello { ts_us: 7, echo_ts_us: 0, hold_us: 0 };
        let _ = base.on_message(1, 0, 0, 1, hello, 0.0);
        let two = LsuMessage {
            from: NodeId(4),
            ack: false,
            entries: vec![
                LsuEntry::change(NodeId(1), NodeId(2), 3.0),
                LsuEntry::delete(NodeId(5), NodeId(6)),
            ],
        };
        base.send(two.clone(), 0.0);
        base.send(two, 0.0);
        base.send(lsu(8), 0.0);
        let _ = base.on_message(1, 1, 0, 1, NodeBody::Data { seq: 3, lsu: lsu(9) }, 0.0);
        assert_eq!((base.in_flight(), base.backlog(), base.reorder.len()), (1, 2, 1));
        assert!(base.peer_hello.is_some());

        let enc = |ch: &PeerChannel| {
            let mut v = Vec::new();
            ch.encode_state(&mut v);
            v
        };
        let key = enc(&base);
        assert_eq!(enc(&base.clone()), key, "a clone must encode equal");

        type Edit = fn(&mut PeerChannel);
        let variants: Vec<(&str, Edit)> = vec![
            ("backlog entry head", |ch| ch.backlog[0].entries[1].head = NodeId(7)),
            ("backlog entry tail", |ch| ch.backlog[0].entries[0].tail = NodeId(9)),
            ("backlog entry cost", |ch| ch.backlog[0].entries[0].cost = 3.5),
            ("backlog entry op", |ch| ch.backlog[0].entries[0].op = LsuOp::Add),
            ("backlog message origin", |ch| ch.backlog[1].from = NodeId(3)),
            ("backlog ack flag", |ch| ch.backlog[1].ack = false),
            ("backlog message boundary", |ch| {
                let e = ch.backlog[0].entries.pop().expect("two entries");
                ch.backlog[1].entries.insert(0, e);
            }),
            ("in-flight retries", |ch| ch.inflight[0].retries += 1),
            ("in-flight payload", |ch| ch.inflight[0].msg.entries[0].cost = 4.0),
            ("reorder key", |ch| {
                let m = ch.reorder.remove(&3).expect("parked segment");
                ch.reorder.insert(4, m);
            }),
            ("reorder payload", |ch| ch.reorder.get_mut(&3).expect("parked").from = NodeId(1)),
            ("peer hello timestamp", |ch| ch.peer_hello = Some((8, 0.0))),
            ("peer hello arrival", |ch| ch.peer_hello = Some((7, 0.5))),
            ("peer hello forgotten", |ch| ch.peer_hello = None),
        ];
        for (what, mutate) in variants {
            let mut ch = base.clone();
            mutate(&mut ch);
            assert_ne!(enc(&ch), key, "{what} must change the encoding");
        }
    }

    #[test]
    fn mutants_are_observably_broken() {
        // Sanity for the checker's sabotage knobs: each mutant differs
        // from the shipping protocol in exactly the way the transport
        // model checker's counterexamples rely on.
        // SkipSessionBump: a reset leaves the advertised session alone.
        let mut m = PeerChannel::with_mutant(cfg(), 1, 0.0, ChannelMutant::SkipSessionBump);
        up(&mut m, 1, 0.0);
        let _ = m.poll(1.0);
        assert_eq!(m.session(), 1, "the reset is invisible on the wire");
        // IgnoreAddressing: traffic for another life establishes us.
        let mut m = PeerChannel::with_mutant(cfg(), 3, 0.0, ChannelMutant::IgnoreAddressing);
        let (_, ev) = m.on_message(1, 2, 0, 1, hello0(), 0.0);
        assert!(matches!(ev[0], ChannelEvent::PeerUp { .. }));
        // AckBeyondDelivered: a parked segment is claimed as delivered.
        let mut m = PeerChannel::with_mutant(cfg(), 1, 0.0, ChannelMutant::AckBeyondDelivered);
        up(&mut m, 1, 0.0);
        let (out, _) = m.on_message(1, 1, 0, 1, NodeBody::Data { seq: 3, lsu: lsu(9) }, 0.1);
        assert_eq!(out, vec![NodeBody::Ack { cum_seq: 3 }], "claims what it never delivered");
    }
}
