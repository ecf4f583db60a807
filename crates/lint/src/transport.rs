//! Bounded-exhaustive model checking of the **real** transport
//! adjacency state machine ([`mdr_node::PeerChannel`]), run by the
//! `mdr-verify` binary.
//!
//! There is no separate model: the world below embeds one live
//! `PeerChannel` per directed adjacency and drives the same `step_*`
//! transition functions the UDP shell and the mock-clock unit tests
//! call. What the checker adds is an adversarial *environment* — the
//! wire is a monotone **set** of frames, so every datagram ever sent
//! can be lost (never scheduled), duplicated (scheduled again), or
//! reordered (scheduled in any order) for free — plus explicit fault
//! actions: guard-free timer firings (a sound over-approximation of
//! timing: any timer may fire "now"), crash-restart with incarnation
//! bump, and the same-incarnation dead-interval session reset.
//!
//! Four invariants, each with a stable machine-readable class prefix:
//!
//! * **`ghost-channel:`** — a channel must never mutate on a frame
//!   addressed to a different life (`for_inc`) or stream epoch
//!   (`for_session`) of its node. Checked transition-side: the checker
//!   knows every frame's addressing and snapshots
//!   [`PeerChannel::encode_state`] around stale-addressed deliveries.
//! * **`quarantine-release:`** — a restarted node may lift its
//!   quarantine ([`mdr_node::quarantine_release_due`]) only once no
//!   neighbor still holds an adjacency to its previous incarnation.
//! * **`claims-beyond-delivered:`** — a sender's cumulative
//!   [`PeerChannel::acked`] may never exceed what the peer actually
//!   delivered in order from that stream *generation* (a checker-side
//!   counter bumped on every observed reset, so it identifies streams
//!   even when a broken protocol reuses session numbers). A violation
//!   is exactly the silent blackhole: segments dropped from flight
//!   unheard.
//! * **`out-of-order-delivery:`** — the payloads a receiver hands its
//!   router must be a duplicate-free, gap-free prefix of the payloads
//!   the sender queued for that stream generation, in queue order.
//!
//! Finiteness: every fault is budgeted (sends, crashes, dead-interval
//! expiries per scenario), time is frozen at 0.0, and the wire is a
//! set, so sessions, retries, and probe cadences are all bounded and
//! the reachable space is finite. [`CheckWorld::expand`] tries each
//! candidate action on its own copy of the world, drops self-loops and
//! hands the engine the kept copies as successors, so every action is
//! applied once and "exhausted" (Holds without
//! [`crate::por::Stats::truncated`]) is a proof over the entire
//! reachable space of the scenario. An adjacency action — a delivery,
//! a send, a timer firing — is first tried on the one channel it
//! drives; only one that changes something is committed to a copy of
//! the world. That copy is cheap: a world holds each channel and each
//! bookkeeping map behind an `Rc` and copies a map only when it writes
//! it, so the copy shares everything the action did not touch.
//!
//! Each exploration keeps one table of the distinct
//! [`PeerChannel::encode_state`] byte strings its channels reach,
//! numbered in first-seen order, with one channel for each (`ChanTable`);
//! a search of 10⁵ states meets only tens to hundreds of them. A world
//! holds the table's channel (`Chan`), which carries its index, and the
//! state key holds the index, not the bytes. Index and bytes map one to
//! one within an exploration, so two worlds get equal keys exactly when
//! they got equal keys with the bytes spelled out. The index and the
//! checker's own integers go into the key as LEB128 varints; every field
//! stays self-delimiting, so the key is exact (no hashing, no compaction
//! that could merge two states).
//!
//! # Partial-order reduction: adjacency-component independence
//!
//! The transport reduction rests on an *exact* structural
//! independence. Every non-global action (delivery, send,
//! timer firing) of the undirected adjacency `{a, b}` reads and writes
//! only: the two endpoint channels `a→b` and `b→a`, the pair's wire
//! frames, and the pair's bookkeeping (budgets, stream generations,
//! sent/delivered logs). Actions of different adjacencies therefore
//! commute, and neither can enable or disable the other. The two
//! global actions — crash-restart (touches every channel of a node)
//! and quarantine release (reads every channel of a node) — break
//! that partition, so [`CheckWorld::expand`] expands everything while
//! any crash budget remains or any node is quarantined; once neither
//! can ever recur, it expands only the least adjacency with enabled
//! (non-self-loop) actions. The ignoring problem (a reduced run
//! deferring another component's violation forever) cannot arise:
//! within one component every non-self-loop action strictly grows a
//! monotone measure (wire size, sessions, retries, delivered/acked
//! positions, consumed budgets), so each component's action set drains
//! in finitely many steps along every path and the engine — which
//! imposes no cycle proviso — eventually schedules the rest.
//!
//! # Self-validation and replay
//!
//! A checker that blesses a broken protocol is worse than no checker,
//! so [`mutant_cases`] runs the same scenarios against deliberately
//! unsound [`ChannelMutant`] transition relations (and one unsound
//! [`ReleasePolicy`]); each must produce a *minimal* counterexample of
//! the expected class. Counterexamples serialize to a line-oriented
//! replay format ([`to_replay`] / [`parse_replay`]) and [`replay`]
//! runs them back through a fresh world of real `PeerChannel`s,
//! asserting the same violation class fires — checker↔implementation
//! conformance, gated in `tests/transport_conformance.rs`.

use crate::por::{self, CheckWorld, Outcome, Successor};
use mdr_net::NodeId;
use mdr_node::{
    quarantine_release_due, ChannelEvent, ChannelMutant, PeerChannel, ReleasePolicy, ReliableConfig,
};
use mdr_proto::{LsuEntry, LsuMessage, NodeBody};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

/// One transport scenario: a topology of adjacencies plus fault
/// budgets. All knobs are budgets, not schedules — the checker
/// interleaves every enabled action at every state.
#[derive(Debug, Clone)]
pub struct TScenario {
    /// Stable name (used by the replay format and CI output).
    pub name: &'static str,
    /// The bug class this scenario traps.
    pub what_it_traps: &'static str,
    /// Node count.
    pub n: u8,
    /// Undirected adjacencies (each becomes two `PeerChannel`s).
    pub adjacencies: &'static [(u8, u8)],
    /// `(src, dst, count)`: payload LSUs `src` may queue toward `dst`.
    pub sends: &'static [(u8, u8, u32)],
    /// `(node, count)`: crash-restart budget (incarnation bumps).
    pub crashes: &'static [(u8, u32)],
    /// `(node, peer, count)`: dead-interval expiries `node`'s channel
    /// toward `peer` may fire (the same-incarnation session reset).
    pub dead_expiries: &'static [(u8, u8, u32)],
    /// Cap on *observed resets per directed channel* (crash-induced,
    /// timer-induced, and peer-induced alike). Resets must be budgeted
    /// like every other fault: the wire keeps stale frames forever, so
    /// without a cap a down channel can re-establish from an ancient
    /// hello and be force-reset by a newer one ad infinitum —
    /// unbounded session escalation that no bounded-exhaustive search
    /// can drain. Candidates that would push any channel past the
    /// budget are pruned in `expand`, so "exhausted" means "every
    /// behavior within the declared fault budgets".
    pub reset_budget: u32,
    /// Model the restart quarantine under this release policy.
    pub policy: Option<ReleasePolicy>,
    /// Transport knobs (uniform across channels).
    pub cfg: ReliableConfig,
    /// Maximum trace length explored.
    pub depth: usize,
    /// Distinct-state cap.
    pub max_states: usize,
    /// Symmetry group: node relabelings that map the scenario onto
    /// itself (identity included). The canonical state key is the
    /// minimum encoding over these; `declared_perms_are_scenario_
    /// automorphisms` in this module's tests keeps them honest.
    pub perms: &'static [&'static [u8]],
}

/// The shared small configuration: window 2, reorder bound 2, one
/// retransmission before exhaustion, fixed (non-adaptive) RTO — small
/// enough to exhaust, large enough that every protocol branch
/// (window-limited backlog, reorder parking, retry teardown, probe
/// cadence) is reachable.
pub fn small_cfg() -> ReliableConfig {
    ReliableConfig {
        hello_interval: 0.2,
        dead_interval: 1.0,
        rto_initial: 0.1,
        rto_min: 0.05,
        rto_max: 1.6,
        retry_budget: 1,
        window: 2,
        adaptive: false,
        max_reorder: 2,
    }
}

/// A datagram on the wire. The wire is a monotone *set* of these:
/// delivery never removes a frame, so duplication and reordering are
/// structural, and loss is simply "never delivered". `gen` is
/// checker-side bookkeeping (the sender's stream generation at
/// emission), invisible to the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Frame {
    /// Sending node.
    pub src: u8,
    /// Receiving node.
    pub dst: u8,
    /// Sender's incarnation at emission.
    pub inc: u32,
    /// Receiver incarnation the sender addressed (0 = unknown).
    pub for_inc: u32,
    /// Receiver stream epoch the sender addressed (0 = unknown).
    pub for_session: u32,
    /// Sender's stream epoch at emission.
    pub session: u32,
    /// Checker-side stream generation of the sender (see above).
    pub gen: u32,
    /// The body.
    pub body: FBody,
}

/// Frame body. Time is frozen at 0.0, so hellos carry no payload (the
/// timestamp triplet is all-zero) and a body is fully described by
/// these fields — which is what makes the replay format textual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FBody {
    /// Keepalive (all-zero timestamp triplet at frozen time).
    Hello,
    /// One payload LSU under a sequence number.
    Data {
        /// Transport sequence number.
        seq: u64,
        /// Checker payload id (unique per directed pair).
        payload: u32,
    },
    /// Cumulative acknowledgment.
    Ack {
        /// Highest in-order sequence delivered.
        cum: u64,
    },
}

/// The synthetic payload LSU for checker payload id `p`. Node ids
/// inside are pinned so payloads stay invariant under the scenario's
/// symmetry relabelings — a payload is identified by its directed pair
/// plus `p`, never by embedded node ids.
fn payload_lsu(p: u32) -> LsuMessage {
    LsuMessage {
        from: NodeId(0),
        ack: false,
        entries: vec![LsuEntry::change(NodeId(p), NodeId(0), 1.0)],
    }
}

/// Recover the checker payload id from a delivered LSU.
fn payload_of(m: &LsuMessage) -> Result<u32, String> {
    m.entries
        .first()
        .map(|e| e.head.0)
        .ok_or_else(|| "checker-bug: delivered LSU without a payload entry".into())
}

impl Frame {
    fn node_body(&self) -> NodeBody {
        match self.body {
            FBody::Hello => NodeBody::Hello { ts_us: 0, echo_ts_us: 0, hold_us: 0 },
            FBody::Data { seq, payload } => NodeBody::Data { seq, lsu: payload_lsu(payload) },
            FBody::Ack { cum } => NodeBody::Ack { cum_seq: cum },
        }
    }

    fn relabel(&self, p: &[u8]) -> Frame {
        Frame { src: p[self.src as usize], dst: p[self.dst as usize], ..*self }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.src);
        out.push(self.dst);
        for v in [self.inc, self.for_inc, self.for_session, self.session, self.gen] {
            put_varint(out, v.into());
        }
        match self.body {
            FBody::Hello => out.push(0),
            FBody::Data { seq, payload } => {
                out.push(1);
                put_varint(out, seq);
                put_varint(out, payload.into());
            }
            FBody::Ack { cum } => {
                out.push(2);
                put_varint(out, cum);
            }
        }
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let body = match self.body {
            FBody::Hello => "hello".to_string(),
            FBody::Data { seq, payload } => format!("data seq={seq} payload={payload}"),
            FBody::Ack { cum } => format!("ack cum={cum}"),
        };
        write!(
            f,
            "{}->{} [inc {} for ({},{}) session {} gen {}] {}",
            self.src,
            self.dst,
            self.inc,
            self.for_inc,
            self.for_session,
            self.session,
            self.gen,
            body
        )
    }
}

/// One atomic transition of the transport world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TAction {
    /// Schedule one wire frame at its receiver (the frame stays on the
    /// wire — duplication and reordering come for free).
    Deliver(Frame),
    /// `.0` queues its next payload LSU toward `.1`.
    SendLsu(u8, u8),
    /// `.0`'s hello timer toward `.1` fires.
    HelloFire(u8, u8),
    /// `.0`'s retransmission timer toward `.1` fires.
    RetxFire(u8, u8),
    /// `.0`'s dead-interval timer toward `.1` expires.
    DeadExpiry(u8, u8),
    /// `.0` crashes and restarts with a bumped incarnation.
    CrashRestart(u8),
    /// `.0` lifts its restart quarantine (release predicate holds).
    ReleaseQuarantine(u8),
}

impl TAction {
    /// The one channel this action drives, as `(node, peer)`, or `None`
    /// for the node-global actions (crash, quarantine release).
    fn channel(&self) -> Option<(u8, u8)> {
        match *self {
            TAction::Deliver(f) => Some((f.dst, f.src)),
            TAction::SendLsu(a, b)
            | TAction::HelloFire(a, b)
            | TAction::RetxFire(a, b)
            | TAction::DeadExpiry(a, b) => Some((a, b)),
            TAction::CrashRestart(_) | TAction::ReleaseQuarantine(_) => None,
        }
    }

    /// The undirected adjacency this action belongs to, or `None` for
    /// the node-global actions.
    fn adjacency(&self) -> Option<(u8, u8)> {
        self.channel().map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
    }
}

impl fmt::Display for TAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TAction::Deliver(fr) => write!(f, "deliver {fr}"),
            TAction::SendLsu(a, b) => write!(f, "send {a}->{b}"),
            TAction::HelloFire(a, b) => write!(f, "hello-timer {a}->{b}"),
            TAction::RetxFire(a, b) => write!(f, "retx-timer {a}->{b}"),
            TAction::DeadExpiry(a, b) => write!(f, "dead-expiry {a}->{b}"),
            TAction::CrashRestart(x) => write!(f, "crash-restart {x}"),
            TAction::ReleaseQuarantine(x) => write!(f, "release-quarantine {x}"),
        }
    }
}

/// A channel together with the index of its
/// [`PeerChannel::encode_state`] bytes in the exploration's
/// [`ChanTable`]. The table makes one per index and worlds share it
/// behind an `Rc`, so [`TWorld::encode_under_into`] writes `idx`
/// instead of encoding the channel again. The index is valid under
/// every node relabeling because payload LSUs pin their node ids
/// ([`payload_lsu`]).
struct Chan {
    ch: PeerChannel,
    idx: u32,
}

/// `ch`'s [`PeerChannel::encode_state`] bytes.
fn encoding(ch: &PeerChannel) -> Box<[u8]> {
    let mut enc = Vec::new();
    ch.encode_state(&mut enc);
    enc.into()
}

/// The distinct channel encodings one exploration has met, each under
/// the index it was first given, with the first channel met under it.
/// Indices are handed out in first-seen order, which is deterministic
/// because expansion is. One table serves one `explore` or `replay`
/// call and the worlds it builds.
///
/// Every world holds the table's channel for its index, so a search of
/// 10⁵ worlds keeps only as many channels as it meets encodings. That
/// is sound because `encode_state` writes every field that takes part
/// in a transition: two channels with equal bytes step alike, which the
/// state key already relies on.
#[derive(Default)]
struct ChanTable {
    index: BTreeMap<Box<[u8]>, u32>,
    chans: Vec<(Box<[u8]>, Rc<Chan>)>,
}

impl ChanTable {
    /// The table's channel for `ch`, whose encoding is `enc`: `ch`
    /// itself under the next free index if `enc` is new.
    fn intern(&mut self, enc: &[u8], ch: PeerChannel) -> Rc<Chan> {
        if let Some(&i) = self.index.get(enc) {
            return Rc::clone(&self.chans[i as usize].1);
        }
        let idx = self.chans.len() as u32;
        let chan = Rc::new(Chan { ch, idx });
        self.index.insert(enc.into(), idx);
        self.chans.push((enc.into(), Rc::clone(&chan)));
        chan
    }

    /// The encoding interned under `i`.
    fn bytes(&self, i: u32) -> &[u8] {
        &self.chans[i as usize].0
    }

    /// How many distinct encodings are interned.
    fn len(&self) -> usize {
        self.chans.len()
    }
}

impl Chan {
    /// A fresh channel of node incarnation `inc`: the initial world's
    /// and a crash-restart's.
    fn fresh(
        s: &TScenario,
        table: &RefCell<ChanTable>,
        inc: u32,
        mutant: ChannelMutant,
    ) -> Rc<Chan> {
        let ch = PeerChannel::with_mutant(s.cfg, inc, 0.0, mutant);
        table.borrow_mut().intern(&encoding(&ch), ch)
    }
}

/// Append `v` as an unsigned LEB128 varint: seven bits a byte, low
/// group first, the high bit set on every byte but the last. Only the
/// last byte is below `0x80`, so the encoding is prefix-free and a run
/// of varints needs no lengths.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[derive(Clone)]
struct TNode {
    inc: u32,
    quarantined: bool,
    /// Lifted its quarantine via the release predicate at least once
    /// in its current life.
    released: bool,
    crash_left: u32,
    chans: BTreeMap<u8, Rc<Chan>>,
    /// Neighbors that still held an adjacency to this node's previous
    /// incarnation when it last crashed and have not observably torn
    /// it down since (any `PeerDown` / `PeerRestart` on their side
    /// removes them).
    stale_holders: BTreeSet<u8>,
}

/// The transport checker world: real channels plus an omniscient
/// environment. The bookkeeping maps sit behind `Rc`s and are written
/// through `Rc::make_mut`, so a successor copies only the maps its
/// action changes.
#[derive(Clone)]
pub struct TWorld<'a> {
    s: &'a TScenario,
    /// The exploration's channel table, which `Chan::idx` indexes.
    table: &'a RefCell<ChanTable>,
    mutant: ChannelMutant,
    nodes: Vec<TNode>,
    wire: BTreeSet<Frame>,
    /// Remaining payload budget per directed pair.
    sends_left: Rc<BTreeMap<(u8, u8), u32>>,
    /// Remaining dead-expiry budget per directed pair.
    dead_left: Rc<BTreeMap<(u8, u8), u32>>,
    /// Next payload id per directed pair.
    payload_next: Rc<BTreeMap<(u8, u8), u32>>,
    /// Checker-side stream generation per directed pair: bumped on
    /// every observed reset of the sender's channel, independent of
    /// whether the protocol honestly bumped its session number.
    stream_gen: Rc<BTreeMap<(u8, u8), u32>>,
    /// Payload id → the stream generation it was queued under.
    payload_gen: Rc<BTreeMap<(u8, u8, u32), u32>>,
    /// `(src, dst, gen)` → payload ids queued, in order.
    sent: Rc<BTreeMap<(u8, u8, u32), Vec<u32>>>,
    /// `(src, dst, gen)` → payload ids delivered at `dst` *in the
    /// receiver's current acceptance epoch*, in order. Cleared when the
    /// receiver's channel resets: its dedup state (`delivered`) is
    /// gone, so a wildcard-addressed duplicate may legitimately
    /// re-deliver — exactly-once across receiver resets is impossible
    /// without persistent state, and the LSU layer is idempotent. The
    /// in-order/no-gap contract is per epoch.
    delivered_log: Rc<BTreeMap<(u8, u8, u32), Vec<u32>>>,
    /// `(src, dst, gen)` → high-water in-order delivery count at `dst`.
    delivered_hi: Rc<BTreeMap<(u8, u8, u32), u64>>,
}

/// Build the initial world for a scenario under a channel mutant
/// (`ChannelMutant::None` for the sound protocol), interning its
/// channels in `table`.
fn initial_world<'a>(
    s: &'a TScenario,
    table: &'a RefCell<ChanTable>,
    mutant: ChannelMutant,
) -> TWorld<'a> {
    let mut nodes: Vec<TNode> = (0..s.n)
        .map(|_| TNode {
            inc: 1,
            quarantined: false,
            released: false,
            crash_left: 0,
            chans: BTreeMap::new(),
            stale_holders: BTreeSet::new(),
        })
        .collect();
    let mut sends_left = BTreeMap::new();
    let mut dead_left = BTreeMap::new();
    let mut payload_next = BTreeMap::new();
    let mut stream_gen = BTreeMap::new();
    for &(a, b) in s.adjacencies {
        for (x, y) in [(a, b), (b, a)] {
            nodes[x as usize].chans.insert(y, Chan::fresh(s, table, 1, mutant));
            sends_left.insert((x, y), 0);
            dead_left.insert((x, y), 0);
            payload_next.insert((x, y), 1);
            stream_gen.insert((x, y), 1);
        }
    }
    for &(a, b, k) in s.sends {
        sends_left.insert((a, b), k);
    }
    for &(a, b, k) in s.dead_expiries {
        dead_left.insert((a, b), k);
    }
    for &(x, k) in s.crashes {
        nodes[x as usize].crash_left = k;
    }
    TWorld {
        s,
        table,
        mutant,
        nodes,
        wire: BTreeSet::new(),
        sends_left: Rc::new(sends_left),
        dead_left: Rc::new(dead_left),
        payload_next: Rc::new(payload_next),
        stream_gen: Rc::new(stream_gen),
        payload_gen: Rc::default(),
        sent: Rc::default(),
        delivered_log: Rc::default(),
        delivered_hi: Rc::default(),
    }
}

/// `IDENTITY[..n]` is the identity relabeling of `n` nodes.
const IDENTITY: [u8; 256] = {
    let mut p = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        p[i] = i as u8;
        i += 1;
    }
    p
};

fn is_identity(p: &[u8]) -> bool {
    p == &IDENTITY[..p.len()]
}

/// Call `f` on `items` in ascending key order. `items` come from an
/// ordered collection, so under the identity relabeling (`sorted`) they
/// already are in that order; only a proper relabeling pays for
/// collecting and sorting.
fn in_key_order<K: Ord, V>(
    items: impl Iterator<Item = (K, V)>,
    sorted: bool,
    mut f: impl FnMut(K, V),
) {
    if sorted {
        items.for_each(|(k, v)| f(k, v));
    } else {
        let mut items: Vec<(K, V)> = items.collect();
        items.sort_unstable_by(|x, y| x.0.cmp(&y.0));
        items.into_iter().for_each(|(k, v)| f(k, v));
    }
}

fn encode_pair_map<V>(
    out: &mut Vec<u8>,
    p: &[u8],
    m: &BTreeMap<(u8, u8), V>,
    enc: impl Fn(&mut Vec<u8>, &V),
) {
    let items = m.iter().map(|(&(a, b), v)| ((p[a as usize], p[b as usize]), v));
    in_key_order(items, is_identity(p), |(a, b), v| {
        out.push(a);
        out.push(b);
        enc(out, v);
    });
    out.push(0xfd);
}

fn encode_triple_map<V>(
    out: &mut Vec<u8>,
    p: &[u8],
    m: &BTreeMap<(u8, u8, u32), V>,
    enc: impl Fn(&mut Vec<u8>, &V),
) {
    let items = m.iter().map(|(&(a, b, g), v)| ((p[a as usize], p[b as usize], g), v));
    in_key_order(items, is_identity(p), |(a, b, g), v| {
        out.push(a);
        out.push(b);
        put_varint(out, g.into());
        enc(out, v);
    });
    out.push(0xfc);
}

/// The budget an adjacency action spends.
enum Spend {
    /// A send queues the payload with this id.
    Send(u32),
    /// A dead-interval expiry.
    DeadExpiry,
}

/// The channel-local half of an adjacency action
/// ([`TWorld::channel_step`]).
struct ChannelStep {
    /// The acting node.
    x: u8,
    /// The peer its channel faces.
    y: u8,
    /// The table's channel for the step's result.
    chan: Rc<Chan>,
    /// What the channel reported.
    events: Vec<ChannelEvent>,
    /// The emitted bodies, stamped as they go on the wire once the
    /// events are folded in.
    frames: Vec<Frame>,
    /// The budget the action spends, if any.
    spend: Option<Spend>,
    /// The channel's encoding did not change.
    unchanged: bool,
}

impl ChannelStep {
    /// Would committing this step leave the world as it is?
    /// [`TWorld::commit`] spends the budget, writes back the channel,
    /// folds in the events (a no-op for `Discarded`) and adds the frames
    /// to the wire set; it touches nothing else. A send or a dead-interval
    /// expiry always spends a budget, so only a delivery or a timer
    /// firing can be a self-loop.
    fn is_self_loop(&self, wire: &BTreeSet<Frame>) -> bool {
        self.spend.is_none()
            && self.unchanged
            && self.events.iter().all(|e| matches!(e, ChannelEvent::Discarded { .. }))
            && self.frames.iter().all(|f| wire.contains(f))
    }
}

impl TWorld<'_> {
    /// Append the full world state under the node relabeling `p`
    /// (`p[i]` = new label of node `i`) to `out`.
    fn encode_under_into(&self, p: &[u8], out: &mut Vec<u8>) {
        let sorted = is_identity(p);
        let nodes = self.nodes.iter().enumerate().map(|(i, n)| (p[i], n));
        in_key_order(nodes, sorted, |_, n| {
            put_varint(out, n.inc.into());
            out.push(n.quarantined as u8);
            out.push(n.released as u8);
            put_varint(out, n.crash_left.into());
            let chans = n.chans.iter().map(|(&nb, c)| (p[nb as usize], c));
            in_key_order(chans, sorted, |nb, c| {
                out.push(nb);
                put_varint(out, c.idx.into());
            });
            let holders = n.stale_holders.iter().map(|&h| (p[h as usize], ()));
            in_key_order(holders, sorted, |h, ()| out.push(h));
            out.push(0xfe);
        });
        put_varint(out, self.wire.len() as u64);
        in_key_order(self.wire.iter().map(|f| (f.relabel(p), ())), sorted, |f, ()| f.encode(out));
        let enc_u32 = |out: &mut Vec<u8>, v: &u32| put_varint(out, (*v).into());
        let enc_u64 = |out: &mut Vec<u8>, v: &u64| put_varint(out, *v);
        let enc_vec = |out: &mut Vec<u8>, v: &Vec<u32>| {
            put_varint(out, v.len() as u64);
            for &x in v {
                put_varint(out, x.into());
            }
        };
        encode_pair_map(out, p, &self.sends_left, enc_u32);
        encode_pair_map(out, p, &self.dead_left, enc_u32);
        encode_pair_map(out, p, &self.payload_next, enc_u32);
        encode_pair_map(out, p, &self.stream_gen, enc_u32);
        encode_triple_map(out, p, &self.payload_gen, enc_u32);
        encode_triple_map(out, p, &self.sent, enc_vec);
        encode_triple_map(out, p, &self.delivered_log, enc_vec);
        encode_triple_map(out, p, &self.delivered_hi, enc_u64);
    }

    fn identity(&self) -> &'static [u8] {
        &IDENTITY[..self.nodes.len()]
    }

    /// The canonical key: the least encoding over the scenario's
    /// symmetry group. `identity` is the encoding under the identity,
    /// which every group contains (`declared_perms_are_scenario_
    /// automorphisms`), so only the other relabelings are encoded here,
    /// into `scratch`.
    fn canonical_key(&self, identity: Box<[u8]>, scratch: &mut Vec<u8>) -> Box<[u8]> {
        let mut best = identity;
        for &p in self.s.perms.iter().filter(|p| !is_identity(p)) {
            scratch.clear();
            self.encode_under_into(p, scratch);
            if scratch[..] < best[..] {
                best = scratch.as_slice().into();
            }
        }
        best
    }

    /// Stamp `bodies`, just produced by node `x`'s channel `ch` toward
    /// `y`, as wire frames: `x`'s incarnation, the channel's addressing
    /// triple and the sender's stream generation `gen`.
    fn stamp(
        &self,
        x: u8,
        y: u8,
        ch: &PeerChannel,
        gen: u32,
        bodies: Vec<NodeBody>,
    ) -> Result<Vec<Frame>, String> {
        let inc = self.nodes[x as usize].inc;
        let (for_inc, for_session, session) = ch.address();
        bodies
            .into_iter()
            .map(|b| {
                let body = match b {
                    NodeBody::Hello { .. } => FBody::Hello,
                    NodeBody::Data { seq, lsu } => FBody::Data { seq, payload: payload_of(&lsu)? },
                    NodeBody::Ack { cum_seq } => FBody::Ack { cum: cum_seq },
                };
                Ok(Frame { src: x, dst: y, inc, for_inc, for_session, session, gen, body })
            })
            .collect()
    }

    /// Fold channel events observed by node `x` on its channel toward
    /// `y` into the checker bookkeeping, checking the in-order
    /// invariant on every delivery.
    fn process_events(&mut self, x: u8, y: u8, events: Vec<ChannelEvent>) -> Result<(), String> {
        for ev in events {
            match ev {
                ChannelEvent::PeerDown { .. } | ChannelEvent::PeerRestart { .. } => {
                    // x's channel toward y reset: x's outgoing sequence
                    // space restarted (new stream generation), x's
                    // receive-side dedup state is gone (new acceptance
                    // epoch — restart the per-epoch delivery log), and
                    // x no longer holds whatever adjacency it had to an
                    // earlier life of y.
                    if let Some(g) = Rc::make_mut(&mut self.stream_gen).get_mut(&(x, y)) {
                        *g += 1;
                    }
                    Rc::make_mut(&mut self.delivered_log)
                        .retain(|&(s, d, _), _| !(s == y && d == x));
                    self.nodes[y as usize].stale_holders.remove(&x);
                }
                ChannelEvent::Deliver(msg) => {
                    let payload = payload_of(&msg)?;
                    let Some(&gen) = self.payload_gen.get(&(y, x, payload)) else {
                        return Err(format!(
                            "checker-bug: node {x} delivered unknown payload {payload} from {y}"
                        ));
                    };
                    let key = (y, x, gen);
                    let log = Rc::make_mut(&mut self.delivered_log).entry(key).or_default();
                    log.push(payload);
                    let sent = self.sent.get(&key).map(|v| v.as_slice()).unwrap_or(&[]);
                    if log.len() > sent.len() || log[..] != sent[..log.len()] {
                        return Err(format!(
                            "out-of-order-delivery: node {x} released {log:?} to its router \
                             from node {y}'s stream generation {gen}, but the queue order \
                             was {sent:?} (duplicate, gap, or inversion)"
                        ));
                    }
                    let Some(ch) = self.nodes[x as usize].chans.get(&y) else {
                        return Err(format!("checker-bug: node {x} has no channel toward {y}"));
                    };
                    let hi = Rc::make_mut(&mut self.delivered_hi).entry(key).or_default();
                    *hi = (*hi).max(ch.ch.delivered());
                }
                ChannelEvent::PeerUp { .. } | ChannelEvent::Discarded { .. } => {}
            }
        }
        Ok(())
    }

    /// The channel-local half of adjacency action `a`: run it on a
    /// clone of the one channel it drives, encode and intern the result
    /// and stamp what it emits. The world is not touched; [`Self::commit`]
    /// writes the result back. `scratch` holds the new channel's encoding.
    fn channel_step(&self, a: &TAction, scratch: &mut Vec<u8>) -> Result<ChannelStep, String> {
        let (x, y) = a.channel().ok_or_else(|| format!("checker-bug: `{a}` drives no channel"))?;
        let Some(old) = self.nodes[x as usize].chans.get(&y) else {
            return Err(format!("checker-bug: node {x} has no channel toward {y}"));
        };
        let mut ch = old.ch.clone();
        let (out, events, spend) = match *a {
            TAction::Deliver(f) => {
                let (out, events) =
                    ch.on_message(f.inc, f.for_inc, f.for_session, f.session, f.node_body(), 0.0);
                (out, events, None)
            }
            TAction::SendLsu(..) => {
                let p = self.payload_next.get(&(x, y)).copied().unwrap_or(1);
                (ch.send(payload_lsu(p), 0.0), Vec::new(), Some(Spend::Send(p)))
            }
            TAction::HelloFire(..) => (vec![ch.step_hello_timer(0.0)], Vec::new(), None),
            TAction::RetxFire(..) => {
                let (out, events) = ch.step_retx(0.0);
                (out, events, None)
            }
            TAction::DeadExpiry(..) => {
                (Vec::new(), ch.step_dead_expiry(0.0), Some(Spend::DeadExpiry))
            }
            TAction::CrashRestart(_) | TAction::ReleaseQuarantine(_) => {
                return Err(format!("checker-bug: `{a}` drives no channel"));
            }
        };
        scratch.clear();
        ch.encode_state(scratch);
        // Most trial steps are self-loops: one comparison with the old
        // encoding spares them the table lookup.
        let mut table = self.table.borrow_mut();
        let unchanged = scratch[..] == *table.bytes(old.idx);
        let chan = if unchanged { Rc::clone(old) } else { table.intern(scratch, ch) };
        drop(table);
        // Ghost-channel check: a frame addressed to a different life or
        // stream epoch of the receiver must bounce off with zero state
        // change. The checker knows both sides, so it compares the
        // channel before and after the delivery.
        if let TAction::Deliver(f) = a {
            let (node_inc, session) = (self.nodes[x as usize].inc, old.ch.session());
            let stale = (f.for_inc != 0 && f.for_inc != node_inc)
                || (f.for_session != 0 && f.for_session != session);
            if stale && !unchanged {
                return Err(format!(
                    "ghost-channel: node {x} (inc {node_inc}, session {session}) mutated on a \
                     frame addressed to inc {} / session {}: {f}",
                    f.for_inc, f.for_session,
                ));
            }
        }
        // Frames are stamped after the events are folded in, which bumps
        // the stream generation once per observed reset.
        let resets = events
            .iter()
            .filter(|e| {
                matches!(e, ChannelEvent::PeerDown { .. } | ChannelEvent::PeerRestart { .. })
            })
            .count() as u32;
        let gen = self.stream_gen.get(&(x, y)).map_or(1, |g| g + resets);
        let frames = self.stamp(x, y, &chan.ch, gen, out)?;
        Ok(ChannelStep { x, y, chan, events, frames, spend, unchanged })
    }

    /// Write the result of [`Self::channel_step`] back into the world:
    /// spend the budget, write back the channel the step interned, fold
    /// in the events and extend the wire.
    fn commit(&mut self, st: ChannelStep) -> Result<(), String> {
        let (x, y) = (st.x, st.y);
        debug_assert!(
            *self.table.borrow().bytes(st.chan.idx) == *encoding(&st.chan.ch),
            "stale encoding of {x}->{y}"
        );
        match st.spend {
            Some(Spend::Send(p)) => {
                if let Some(left) = Rc::make_mut(&mut self.sends_left).get_mut(&(x, y)) {
                    *left = left.saturating_sub(1);
                }
                Rc::make_mut(&mut self.payload_next).insert((x, y), p + 1);
                let gen = self.stream_gen.get(&(x, y)).copied().unwrap_or(1);
                Rc::make_mut(&mut self.payload_gen).insert((x, y, p), gen);
                Rc::make_mut(&mut self.sent).entry((x, y, gen)).or_default().push(p);
            }
            Some(Spend::DeadExpiry) => {
                if let Some(left) = Rc::make_mut(&mut self.dead_left).get_mut(&(x, y)) {
                    *left = left.saturating_sub(1);
                }
            }
            None => {}
        }
        self.nodes[x as usize].chans.insert(y, st.chan);
        self.process_events(x, y, st.events)?;
        self.wire.extend(st.frames);
        Ok(())
    }

    fn release_due(&self, x: usize) -> bool {
        let Some(policy) = self.s.policy else { return false };
        self.nodes[x].quarantined
            && quarantine_release_due(
                self.nodes[x].chans.values().map(|c| c.ch.peer_proven()),
                false,
                policy,
            )
    }

    /// Raw action candidates, before self-loop pruning.
    fn candidates(&self, out: &mut Vec<TAction>) {
        for f in &self.wire {
            out.push(TAction::Deliver(*f));
        }
        for (&(a, b), &left) in self.sends_left.iter() {
            if left > 0 {
                out.push(TAction::SendLsu(a, b));
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let x = i as u8;
            for (&nb, ch) in &n.chans {
                out.push(TAction::HelloFire(x, nb));
                if ch.ch.in_flight() > 0 {
                    out.push(TAction::RetxFire(x, nb));
                }
                if ch.ch.is_up() && self.dead_left.get(&(x, nb)).copied().unwrap_or(0) > 0 {
                    out.push(TAction::DeadExpiry(x, nb));
                }
            }
            if n.crash_left > 0 {
                out.push(TAction::CrashRestart(x));
            }
            if self.release_due(i) {
                out.push(TAction::ReleaseQuarantine(x));
            }
        }
    }

    /// Execute `a`. An `Err` is an invariant violation observed
    /// *during* the transition.
    fn apply(&mut self, a: &TAction) -> Result<(), String> {
        match a {
            TAction::CrashRestart(x) => {
                let x = *x;
                let old_inc = self.nodes[x as usize].inc;
                let neighbors: Vec<u8> = self.nodes[x as usize].chans.keys().copied().collect();
                // Who still holds an adjacency to the life that just
                // died? (A neighbor whose channel is down, probing, or
                // already at a different incarnation holds nothing.)
                let holders: BTreeSet<u8> = neighbors
                    .iter()
                    .copied()
                    .filter(|&y| {
                        self.nodes[y as usize]
                            .chans
                            .get(&x)
                            .is_some_and(|c| c.ch.is_up() && c.ch.incarnation() == Some(old_inc))
                    })
                    .collect();
                let node = &mut self.nodes[x as usize];
                node.crash_left = node.crash_left.saturating_sub(1);
                node.inc = old_inc + 1;
                node.quarantined = self.s.policy.is_some();
                node.released = false;
                node.stale_holders = holders;
                let inc = node.inc;
                for y in neighbors {
                    node.chans.insert(y, Chan::fresh(self.s, self.table, inc, self.mutant));
                    // The crash dropped all of x's transport state: its
                    // outgoing streams restart and its receive-side
                    // acceptance epochs do too.
                    if let Some(g) = Rc::make_mut(&mut self.stream_gen).get_mut(&(x, y)) {
                        *g += 1;
                    }
                }
                Rc::make_mut(&mut self.delivered_log).retain(|&(_, d, _), _| d != x);
                Ok(())
            }
            TAction::ReleaseQuarantine(x) => {
                let node = &mut self.nodes[*x as usize];
                node.quarantined = false;
                node.released = true;
                Ok(())
            }
            _ => {
                let st = self.channel_step(a, &mut Vec::new())?;
                self.commit(st)
            }
        }
    }

    /// The adjacency-component ample rule (module doc): the least
    /// adjacency among the `enabled` actions, or `None` (expand them
    /// all) while a node-global action can still fire — component
    /// independence is exact only once neither crash nor quarantine
    /// release ever can.
    fn ample_adjacency<'b>(&self, enabled: impl Iterator<Item = &'b TAction>) -> Option<(u8, u8)> {
        if self.nodes.iter().any(|n| n.crash_left > 0 || n.quarantined) {
            return None;
        }
        let mut least = None;
        for a in enabled {
            let pair = a.adjacency()?;
            least = Some(least.map_or(pair, |l: (u8, u8)| l.min(pair)));
        }
        least
    }
}

impl CheckWorld for TWorld<'_> {
    type Action = TAction;

    fn key(&self) -> Box<[u8]> {
        let mut identity = Vec::new();
        self.encode_under_into(self.identity(), &mut identity);
        self.canonical_key(identity.into_boxed_slice(), &mut Vec::new())
    }

    /// Every candidate is tried and kept only if it changes the state
    /// without pushing a channel past the reset budget (or errs — the
    /// engine must see the violation). With a monotone wire set, most
    /// duplicate deliveries and re-fired timers are no-ops; pruning them
    /// is what makes "exhausted" (no truncation) reachable. The kept
    /// trial worlds are the successors.
    ///
    /// An adjacency action is tried on the one channel it drives
    /// ([`Self::channel_step`]), which decides whether it is a
    /// self-loop; only one that changes something clones the world.
    /// Crash-restart and quarantine release always change node state and
    /// are applied to a clone directly. Debug builds check every
    /// action's self-loop verdict against the whole-world encodings.
    fn expand(&self, por: bool, out: &mut Vec<Successor<Self>>) -> bool {
        let mut cand = Vec::new();
        self.candidates(&mut cand);
        let id = self.identity();
        let (mut base, mut buf) = (Vec::new(), Vec::new());
        if cfg!(debug_assertions) {
            self.encode_under_into(id, &mut base);
        }
        let cap = 1 + self.s.reset_budget;
        // Kept actions, each with its trial world keyed by its identity
        // encoding for now.
        let mut kept: Vec<Successor<Self>> = Vec::new();
        for a in cand {
            let (next, self_loop) = if a.channel().is_some() {
                let st = match self.channel_step(&a, &mut buf) {
                    Ok(st) => st,
                    Err(v) => {
                        kept.push((a, Err(v)));
                        continue;
                    }
                };
                let self_loop = st.is_self_loop(&self.wire);
                if self_loop && !cfg!(debug_assertions) {
                    continue;
                }
                let mut next = self.clone();
                (next.commit(st).map(|()| next), self_loop)
            } else {
                let mut next = self.clone();
                (next.apply(&a).map(|()| next), false)
            };
            let next = match next {
                Ok(next) => next,
                Err(v) => {
                    debug_assert!(!self_loop, "a self-loop failed to commit: {a}");
                    kept.push((a, Err(v)));
                    continue;
                }
            };
            buf.clear();
            next.encode_under_into(id, &mut buf);
            debug_assert_eq!(self_loop, buf == base, "self-loop verdict on {a}");
            if !self_loop && next.stream_gen.values().all(|&g| g <= cap) {
                kept.push((a, Ok((next, buf.as_slice().into()))));
            }
        }
        let enabled = kept.len();
        if let Some(pair) = por.then(|| self.ample_adjacency(kept.iter().map(|k| &k.0))).flatten() {
            kept.retain(|(a, _)| a.adjacency() == Some(pair));
        }
        for (_, next) in kept.iter_mut() {
            if let Ok((w, key)) = next {
                *key = w.canonical_key(std::mem::take(key), &mut buf);
            }
        }
        let pruned = kept.len() < enabled;
        out.append(&mut kept);
        pruned
    }

    fn check(&self) -> Result<(), String> {
        // Quarantine-release soundness: a node that lifted its
        // quarantine while a neighbor still held an adjacency to its
        // previous life has re-entered the routing fabric with that
        // neighbor potentially forwarding through its dead incarnation.
        for (i, n) in self.nodes.iter().enumerate() {
            if n.released {
                if let Some(&y) = n.stale_holders.iter().next() {
                    return Err(format!(
                        "quarantine-release: node {i} lifted its restart quarantine while \
                         node {y} still holds an adjacency to its previous incarnation"
                    ));
                }
            }
        }
        // No silent blackhole: what a sender believes was acknowledged
        // must be covered by what the receiver actually delivered in
        // order from that stream generation.
        for (i, n) in self.nodes.iter().enumerate() {
            for (&nb, ch) in &n.chans {
                let claim = ch.ch.acked();
                if claim == 0 {
                    continue;
                }
                let gen = self.stream_gen.get(&(i as u8, nb)).copied().unwrap_or(1);
                let actual = self.delivered_hi.get(&(i as u8, nb, gen)).copied().unwrap_or(0);
                if claim > actual {
                    return Err(format!(
                        "claims-beyond-delivered: node {i} holds acks through seq {claim} of \
                         its stream generation {gen} toward node {nb}, but node {nb} \
                         delivered only {actual} segments in order — the gap is dropped \
                         from flight unheard (silent blackhole)"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The machine-readable class of a violation message (its prefix up to
/// the first `:`).
pub fn violation_class(msg: &str) -> &str {
    msg.split(':').next().unwrap_or(msg)
}

/// Explore one scenario under a mutant.
pub fn explore(s: &TScenario, mutant: ChannelMutant, use_por: bool) -> Outcome<TAction> {
    explore_interned(s, mutant, use_por).0
}

/// [`explore`], also returning how many distinct channel encodings the
/// exploration interned: a work counter, pinned beside the state counts.
pub fn explore_interned(
    s: &TScenario,
    mutant: ChannelMutant,
    use_por: bool,
) -> (Outcome<TAction>, usize) {
    let table = RefCell::default();
    let outcome = por::explore(initial_world(s, &table, mutant), s.depth, s.max_states, use_por);
    let interned = table.borrow().len();
    (outcome, interned)
}

/// The tier-1 transport scenario suite (sound protocol: every run must
/// hold, and at least three must exhaust their reachable space).
pub fn suite() -> Vec<TScenario> {
    vec![
        TScenario {
            name: "pair-bringup-transfer",
            what_it_traps: "window/ack bookkeeping under lost, duplicated, and reordered \
                            hello/data/ack frames over a cold two-node bring-up",
            n: 2,
            adjacencies: &[(0, 1)],
            sends: &[(0, 1, 2), (1, 0, 2)],
            crashes: &[],
            dead_expiries: &[],
            reset_budget: 0,
            policy: None,
            cfg: small_cfg(),
            depth: 64,
            max_states: 3_000_000,
            perms: &[&[0, 1], &[1, 0]],
        },
        TScenario {
            name: "pair-crash-restart",
            what_it_traps: "ghost channels and quarantine release: frames addressed to \
                            the previous incarnation arriving at the fresh channel after \
                            a crash-restart, and wildcard-addressed pre-crash traffic \
                            masquerading as proof of re-sync",
            n: 2,
            adjacencies: &[(0, 1)],
            sends: &[],
            crashes: &[(1, 1)],
            dead_expiries: &[],
            reset_budget: 2,
            policy: Some(ReleasePolicy::AllNeighborsProven),
            cfg: small_cfg(),
            depth: 64,
            max_states: 3_000_000,
            perms: &[&[0, 1]],
        },
        TScenario {
            name: "pair-session-reset",
            what_it_traps: "the silent blackhole: a same-incarnation dead-interval reset \
                            restarting the sender's sequence space while the peer's stale \
                            acks and segments are still on the wire",
            n: 2,
            adjacencies: &[(0, 1)],
            sends: &[(0, 1, 2)],
            crashes: &[],
            dead_expiries: &[(0, 1, 1)],
            reset_budget: 1,
            policy: None,
            cfg: small_cfg(),
            depth: 64,
            max_states: 3_000_000,
            perms: &[&[0, 1]],
        },
        TScenario {
            name: "triangle-restart-quarantine",
            what_it_traps: "quarantine-release soundness: a restarted hub may rejoin only \
                            after BOTH spokes prove they re-synced to its new incarnation",
            n: 3,
            adjacencies: &[(0, 1), (0, 2)],
            sends: &[],
            crashes: &[(0, 1)],
            dead_expiries: &[],
            reset_budget: 2,
            policy: Some(ReleasePolicy::AllNeighborsProven),
            cfg: small_cfg(),
            depth: 48,
            max_states: 3_000_000,
            perms: &[&[0, 1, 2], &[0, 2, 1]],
        },
        TScenario {
            name: "reorder-at-bound",
            what_it_traps: "the bounded reorder buffer at exactly its bound: parking \
                            max_reorder out-of-order segments is legal, one more must tear \
                            down — never deliver out of order",
            n: 2,
            adjacencies: &[(0, 1)],
            sends: &[(0, 1, 3)],
            crashes: &[],
            dead_expiries: &[],
            reset_budget: 1,
            policy: None,
            cfg: ReliableConfig { window: 3, max_reorder: 1, ..small_cfg() },
            depth: 64,
            max_states: 3_000_000,
            perms: &[&[0, 1]],
        },
        TScenario {
            name: "ring6-hello-mesh",
            what_it_traps: "six-node adjacency bring-up: every interleaving of hello \
                            establishment around a ring, tractable only under the \
                            adjacency-component reduction plus D6 symmetry",
            n: 6,
            adjacencies: &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
            sends: &[],
            crashes: &[],
            dead_expiries: &[],
            reset_budget: 0,
            policy: None,
            cfg: small_cfg(),
            depth: 72,
            max_states: 3_000_000,
            perms: D6,
        },
    ]
}

/// The dihedral group of the 6-ring: 6 rotations and 6 reflections
/// (rotation by `r`, then the reflection `i -> r - i`, for `r` in 0..6).
const D6: &[&[u8]] = &[
    &[0, 1, 2, 3, 4, 5],
    &[0, 5, 4, 3, 2, 1],
    &[1, 2, 3, 4, 5, 0],
    &[1, 0, 5, 4, 3, 2],
    &[2, 3, 4, 5, 0, 1],
    &[2, 1, 0, 5, 4, 3],
    &[3, 4, 5, 0, 1, 2],
    &[3, 2, 1, 0, 5, 4],
    &[4, 5, 0, 1, 2, 3],
    &[4, 3, 2, 1, 0, 5],
    &[5, 0, 1, 2, 3, 4],
    &[5, 4, 3, 2, 1, 0],
];

/// One checker self-validation case: a deliberately unsound transition
/// relation that must produce a minimal counterexample of the expected
/// class.
pub struct MutantCase {
    /// Stable case name (used by the replay format).
    pub name: &'static str,
    /// The scenario to explore.
    pub scenario: TScenario,
    /// The unsound channel transition relation.
    pub mutant: ChannelMutant,
    /// The violation class the counterexample must carry.
    pub expected_class: &'static str,
}

/// The self-validation suite: every case must yield a minimal
/// counterexample whose replay through fresh real channels reproduces
/// the same violation class.
pub fn mutant_cases() -> Vec<MutantCase> {
    let base = suite();
    let find = |name: &str| -> TScenario {
        base.iter()
            .find(|s| s.name == name)
            .cloned()
            .unwrap_or_else(|| panic!("unknown scenario {name}"))
    };
    vec![
        MutantCase {
            name: "ignore-addressing",
            scenario: find("pair-crash-restart"),
            mutant: ChannelMutant::IgnoreAddressing,
            expected_class: "ghost-channel",
        },
        MutantCase {
            name: "skip-session-bump",
            scenario: find("pair-session-reset"),
            mutant: ChannelMutant::SkipSessionBump,
            expected_class: "claims-beyond-delivered",
        },
        MutantCase {
            name: "ack-beyond-delivered",
            scenario: find("pair-bringup-transfer"),
            mutant: ChannelMutant::AckBeyondDelivered,
            expected_class: "claims-beyond-delivered",
        },
        MutantCase {
            name: "first-proof-release",
            scenario: TScenario {
                name: "triangle-first-proof",
                policy: Some(ReleasePolicy::FirstProof),
                ..find("triangle-restart-quarantine")
            },
            mutant: ChannelMutant::None,
            expected_class: "quarantine-release",
        },
    ]
}

fn mutant_name(m: ChannelMutant) -> &'static str {
    match m {
        ChannelMutant::None => "none",
        ChannelMutant::SkipSessionBump => "skip-session-bump",
        ChannelMutant::IgnoreAddressing => "ignore-addressing",
        ChannelMutant::AckBeyondDelivered => "ack-beyond-delivered",
    }
}

fn mutant_by_name(s: &str) -> Option<ChannelMutant> {
    Some(match s {
        "none" => ChannelMutant::None,
        "skip-session-bump" => ChannelMutant::SkipSessionBump,
        "ignore-addressing" => ChannelMutant::IgnoreAddressing,
        "ack-beyond-delivered" => ChannelMutant::AckBeyondDelivered,
        _ => return None,
    })
}

/// A parsed replay file.
pub struct Replay {
    /// Scenario name (resolved against [`suite`] / [`mutant_cases`]).
    pub scenario: String,
    /// Channel mutant to replay under.
    pub mutant: ChannelMutant,
    /// The action trace.
    pub actions: Vec<TAction>,
}

/// Serialize a counterexample trace to the line-oriented replay format.
pub fn to_replay(scenario: &str, mutant: ChannelMutant, trace: &[TAction]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("mdr-verify-replay v1\n");
    let _ = writeln!(out, "scenario {scenario}");
    let _ = writeln!(out, "mutant {}", mutant_name(mutant));
    for a in trace {
        let _ = match a {
            TAction::Deliver(f) => {
                let body = match f.body {
                    FBody::Hello => "hello".to_string(),
                    FBody::Data { seq, payload } => format!("data {seq} {payload}"),
                    FBody::Ack { cum } => format!("ack {cum}"),
                };
                writeln!(
                    out,
                    "deliver {} {} {} {} {} {} {} {body}",
                    f.src, f.dst, f.inc, f.for_inc, f.for_session, f.session, f.gen
                )
            }
            TAction::SendLsu(a, b) => writeln!(out, "send {a} {b}"),
            TAction::HelloFire(a, b) => writeln!(out, "hello-timer {a} {b}"),
            TAction::RetxFire(a, b) => writeln!(out, "retx-timer {a} {b}"),
            TAction::DeadExpiry(a, b) => writeln!(out, "dead-expiry {a} {b}"),
            TAction::CrashRestart(x) => writeln!(out, "crash-restart {x}"),
            TAction::ReleaseQuarantine(x) => writeln!(out, "release-quarantine {x}"),
        };
    }
    out
}

/// Parse the replay format back into a trace.
pub fn parse_replay(text: &str) -> Result<Replay, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    match lines.next() {
        Some("mdr-verify-replay v1") => {}
        other => return Err(format!("bad replay header: {other:?}")),
    }
    let mut scenario = None;
    let mut mutant = None;
    let mut actions = Vec::new();
    /// The next token as a `T`; out-of-range values are errors, never
    /// wrapped.
    fn num<T: std::str::FromStr>(
        toks: &[&str],
        at: &mut usize,
        line: &str,
        what: &str,
    ) -> Result<T, String>
    where
        T::Err: fmt::Display,
    {
        let tok = toks.get(*at).ok_or_else(|| format!("`{line}`: missing {what}"))?;
        *at += 1;
        tok.parse::<T>().map_err(|e| format!("`{line}`: bad {what}: {e}"))
    }
    for line in lines {
        let toks: Vec<&str> = line.split_whitespace().collect();
        let Some(&word) = toks.first() else { continue };
        let at = &mut 1usize;
        match word {
            "scenario" => scenario = toks.get(1).map(|s| s.to_string()),
            "mutant" => {
                let name = *toks.get(1).ok_or_else(|| format!("`{line}`: missing mutant"))?;
                mutant =
                    Some(mutant_by_name(name).ok_or_else(|| format!("unknown mutant {name}"))?);
            }
            "deliver" => {
                let src = num(&toks, at, line, "src")?;
                let dst = num(&toks, at, line, "dst")?;
                let inc = num(&toks, at, line, "inc")?;
                let for_inc = num(&toks, at, line, "for_inc")?;
                let for_session = num(&toks, at, line, "for_session")?;
                let session = num(&toks, at, line, "session")?;
                let gen = num(&toks, at, line, "gen")?;
                let kind = toks.get(*at).copied();
                *at += 1;
                let body = match kind {
                    Some("hello") => FBody::Hello,
                    Some("data") => {
                        let seq = num(&toks, at, line, "seq")?;
                        FBody::Data { seq, payload: num(&toks, at, line, "payload")? }
                    }
                    Some("ack") => FBody::Ack { cum: num(&toks, at, line, "cum")? },
                    other => return Err(format!("`{line}`: bad body {other:?}")),
                };
                actions.push(TAction::Deliver(Frame {
                    src,
                    dst,
                    inc,
                    for_inc,
                    for_session,
                    session,
                    gen,
                    body,
                }));
            }
            "send" => actions
                .push(TAction::SendLsu(num(&toks, at, line, "src")?, num(&toks, at, line, "dst")?)),
            "hello-timer" => actions.push(TAction::HelloFire(
                num(&toks, at, line, "src")?,
                num(&toks, at, line, "dst")?,
            )),
            "retx-timer" => actions.push(TAction::RetxFire(
                num(&toks, at, line, "src")?,
                num(&toks, at, line, "dst")?,
            )),
            "dead-expiry" => actions.push(TAction::DeadExpiry(
                num(&toks, at, line, "src")?,
                num(&toks, at, line, "dst")?,
            )),
            "crash-restart" => {
                actions.push(TAction::CrashRestart(num(&toks, at, line, "node")?));
            }
            "release-quarantine" => {
                actions.push(TAction::ReleaseQuarantine(num(&toks, at, line, "node")?));
            }
            other => return Err(format!("unknown replay verb `{other}`")),
        }
    }
    Ok(Replay {
        scenario: scenario.ok_or("replay missing `scenario` line")?,
        mutant: mutant.ok_or("replay missing `mutant` line")?,
        actions,
    })
}

/// Replay a trace through a *fresh* world of real `PeerChannel`s and
/// return the violation it reproduces. `Err` means the replay broke
/// down (an action the checker could not have taken at that step — a
/// frame not on the wire, a node or channel that does not exist, a
/// spent budget — a violation at the wrong step, or no violation at
/// all) — a checker↔implementation conformance failure.
pub fn replay(s: &TScenario, mutant: ChannelMutant, actions: &[TAction]) -> Result<String, String> {
    let table = RefCell::default();
    let mut w = initial_world(s, &table, mutant);
    if let Err(v) = w.check() {
        return Ok(v);
    }
    let mut cand = Vec::new();
    for (i, a) in actions.iter().enumerate() {
        cand.clear();
        w.candidates(&mut cand);
        if !cand.contains(a) {
            return Err(format!("replay-error: step {} (`{a}`) is not a candidate there", i + 1));
        }
        let outcome = w.apply(a).and_then(|()| w.check());
        if let Err(v) = outcome {
            if v.starts_with("replay-error") || v.starts_with("checker-bug") {
                return Err(v);
            }
            if i + 1 != actions.len() {
                return Err(format!("violation fired {} steps early: {v}", actions.len() - 1 - i));
            }
            return Ok(v);
        }
    }
    Err("replay reproduced no violation".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scenario's symmetry group must actually map the scenario
    /// onto itself — otherwise canonicalization would merge states that
    /// are NOT equivalent and the checker would silently under-explore.
    #[test]
    fn declared_perms_are_scenario_automorphisms() {
        for s in suite() {
            for &p in s.perms {
                assert_eq!(p.len(), s.n as usize, "{}: perm arity", s.name);
                let mut seen = vec![false; s.n as usize];
                for &v in p {
                    assert!(!seen[v as usize], "{}: not a permutation", s.name);
                    seen[v as usize] = true;
                }
                let norm = |a: u8, b: u8| if a <= b { (a, b) } else { (b, a) };
                let adj: BTreeSet<(u8, u8)> =
                    s.adjacencies.iter().map(|&(a, b)| norm(a, b)).collect();
                let mapped: BTreeSet<(u8, u8)> = s
                    .adjacencies
                    .iter()
                    .map(|&(a, b)| norm(p[a as usize], p[b as usize]))
                    .collect();
                assert_eq!(adj, mapped, "{}: perm breaks the adjacency set", s.name);
                let set3 = |v: &[(u8, u8, u32)]| -> BTreeSet<(u8, u8, u32)> {
                    v.iter().copied().collect()
                };
                let map3 = |v: &[(u8, u8, u32)]| -> BTreeSet<(u8, u8, u32)> {
                    v.iter().map(|&(a, b, k)| (p[a as usize], p[b as usize], k)).collect()
                };
                assert_eq!(set3(s.sends), map3(s.sends), "{}: perm breaks sends", s.name);
                assert_eq!(
                    set3(s.dead_expiries),
                    map3(s.dead_expiries),
                    "{}: perm breaks dead-expiry budgets",
                    s.name
                );
                let crashes: BTreeSet<(u8, u32)> = s.crashes.iter().copied().collect();
                let mapped_crashes: BTreeSet<(u8, u32)> =
                    s.crashes.iter().map(|&(x, k)| (p[x as usize], k)).collect();
                assert_eq!(crashes, mapped_crashes, "{}: perm breaks crash budgets", s.name);
            }
            // The groups are written out, not generated, so the table
            // proves itself: 12 distinct automorphisms of C6 are all of
            // D6, and the minimum over any group must cover the
            // unpermuted encoding.
            let distinct: BTreeSet<&[u8]> = s.perms.iter().copied().collect();
            assert_eq!(distinct.len(), s.perms.len(), "{}: repeated perm", s.name);
            if s.name == "ring6-hello-mesh" {
                assert_eq!(s.perms.len(), 12, "{}: D6 has 12 elements", s.name);
            }
            let id: Vec<u8> = (0..s.n).collect();
            assert!(s.perms.contains(&&id[..]), "{}: identity missing", s.name);
        }
    }

    #[test]
    fn replay_format_round_trips() {
        let trace = vec![
            TAction::HelloFire(0, 1),
            TAction::Deliver(Frame {
                src: 0,
                dst: 1,
                inc: 1,
                for_inc: 0,
                for_session: 0,
                session: 1,
                gen: 1,
                body: FBody::Hello,
            }),
            TAction::SendLsu(1, 0),
            TAction::Deliver(Frame {
                src: 1,
                dst: 0,
                inc: 1,
                for_inc: 1,
                for_session: 1,
                session: 1,
                gen: 1,
                body: FBody::Data { seq: 1, payload: 1 },
            }),
            TAction::RetxFire(1, 0),
            TAction::DeadExpiry(0, 1),
            TAction::CrashRestart(1),
            TAction::ReleaseQuarantine(1),
        ];
        let text = to_replay("pair-bringup-transfer", ChannelMutant::SkipSessionBump, &trace);
        let parsed = parse_replay(&text).expect("round trip");
        assert_eq!(parsed.scenario, "pair-bringup-transfer");
        assert_eq!(parsed.mutant, ChannelMutant::SkipSessionBump);
        assert_eq!(parsed.actions, trace);
    }

    #[test]
    fn parse_replay_rejects_garbage() {
        assert!(parse_replay("not a replay").is_err());
        assert!(parse_replay("mdr-verify-replay v1\nscenario x\nmutant nope\n").is_err());
        assert!(parse_replay("mdr-verify-replay v1\nscenario x\nmutant none\nwarp 0 1\n").is_err());
        // Out-of-range numbers are rejected, not wrapped (`256` used to
        // parse as node 0).
        let head = "mdr-verify-replay v1\nscenario x\nmutant none\n";
        for line in [
            "send 256 1",
            "hello-timer 0 300",
            "crash-restart 256",
            "release-quarantine 1000",
            "deliver 0 1 4294967296 0 0 1 1 hello",
            "deliver 0 1 1 0 0 1 1 data 1 4294967297",
            "deliver 0 1 1 0 0 1 1 ack 18446744073709551616",
            "send -1 0",
        ] {
            let err = parse_replay(&format!("{head}{line}\n"))
                .err()
                .unwrap_or_else(|| panic!("`{line}` must not parse"));
            assert!(err.contains("bad"), "`{line}`: {err}");
        }
    }

    fn scenario(name: &str) -> TScenario {
        suite().into_iter().find(|s| s.name == name).expect("scenario in the suite")
    }

    /// Fail unless every channel's index resolves to the exact bytes of
    /// a fresh `encode_state` of the channel, and the table maps those
    /// bytes back to that index.
    fn assert_indices_honest(w: &TWorld<'_>, name: &str) {
        let table = w.table.borrow();
        for (x, n) in w.nodes.iter().enumerate() {
            for (y, c) in &n.chans {
                let enc = encoding(&c.ch);
                assert_eq!(table.bytes(c.idx), &enc[..], "{name}: stale index of {x}->{y}");
                let back = table.index.get(&enc);
                assert_eq!(back, Some(&c.idx), "{name}: bytes of {x}->{y} map to another index");
            }
        }
    }

    /// The interned channel indices stay honest on every reachable world
    /// of the two crash scenarios. The walk takes every candidate
    /// through `apply` — no self-loop pruning, no reduction — and
    /// bounds resets as `expand` does.
    #[test]
    fn interned_channel_indices_resolve_to_fresh_encodings_on_every_reachable_world() {
        for name in ["pair-crash-restart", "triangle-restart-quarantine"] {
            let s = scenario(name);
            let cap = 1 + s.reset_budget;
            let table = RefCell::default();
            let w0 = initial_world(&s, &table, ChannelMutant::None);
            let mut seen = std::collections::HashSet::from([w0.key()]);
            let (mut frontier, mut cand) = (vec![w0], Vec::new());
            while let Some(w) = frontier.pop() {
                assert_indices_honest(&w, name);
                cand.clear();
                w.candidates(&mut cand);
                for a in &cand {
                    let mut next = w.clone();
                    next.apply(a).unwrap_or_else(|v| panic!("{name}: `{a}` failed: {v}"));
                    if next.stream_gen.values().all(|&g| g <= cap) && seen.insert(next.key()) {
                        frontier.push(next);
                    }
                }
            }
            // The unreduced walk covers at least the states the reduced
            // search visits (`tests/transport_counts.rs`).
            let floor = if name == "pair-crash-restart" { 443 } else { 68_499 };
            assert!(seen.len() >= floor, "{name}: walked only {} worlds", seen.len());
        }
    }

    /// Each exploration interns into a table of its own: a scenario
    /// explored again after another one explores the same space and
    /// interns as many encodings as the first time.
    #[test]
    fn each_exploration_interns_into_its_own_table() {
        let (ring, pair) = (scenario("ring6-hello-mesh"), scenario("pair-crash-restart"));
        let run = |s: &TScenario| {
            let (o, interned) = explore_interned(s, ChannelMutant::None, true);
            let st = o.stats();
            (st.states, st.transitions, st.ample_states, st.deepest, st.truncated, interned)
        };
        let first = run(&ring);
        run(&pair);
        assert_eq!(run(&ring), first, "(states, transitions, ample, deepest, truncated, interned)");
        // The check bites: one table shared by both scenarios ends up
        // larger than the ring's own.
        let table = RefCell::default();
        for s in [&pair, &ring] {
            let w = initial_world(s, &table, ChannelMutant::None);
            por::explore(w, s.depth, s.max_states, true);
        }
        assert!(table.borrow().len() > first.5, "the pair meets encodings the ring never does");
    }

    /// Two worlds that differ only in one channel get different keys.
    #[test]
    fn keys_differ_when_one_channel_differs() {
        let s = scenario("pair-bringup-transfer");
        let table = RefCell::default();
        let w = initial_world(&s, &table, ChannelMutant::None);
        let mut other = w.clone();
        let st = other.channel_step(&TAction::SendLsu(0, 1), &mut Vec::new()).expect("send steps");
        assert!(!st.unchanged, "a send changes the sender's channel");
        other.nodes[0].chans.insert(1, st.chan);
        assert_ne!(w.key(), other.key());
    }

    #[test]
    fn varints_are_distinct_and_prefix_free() {
        let encs: Vec<Vec<u8>> = [0, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX]
            .into_iter()
            .map(|v| {
                let mut out = Vec::new();
                put_varint(&mut out, v);
                out
            })
            .collect();
        let lens: Vec<usize> = encs.iter().map(Vec::len).collect();
        assert_eq!(lens, [1, 1, 2, 2, 3, 5, 10]);
        for (i, a) in encs.iter().enumerate() {
            for (j, b) in encs.iter().enumerate() {
                if i != j {
                    assert!(!b.starts_with(a), "{a:02x?} is a prefix of {b:02x?}");
                }
            }
        }
    }

    /// Two worlds that differ only in one frame's `seq`, 0 against 128
    /// (one varint byte against two), get different keys.
    #[test]
    fn keys_differ_across_a_varint_byte_boundary() {
        let s = scenario("pair-bringup-transfer");
        let table = RefCell::default();
        let key = |seq| {
            let mut w = initial_world(&s, &table, ChannelMutant::None);
            let body = FBody::Data { seq, payload: 1 };
            let (inc, for_inc, for_session, session, gen) = (1, 1, 1, 1, 1);
            w.wire.insert(Frame { src: 0, dst: 1, inc, for_inc, for_session, session, gen, body });
            w.key()
        };
        assert_ne!(key(0), key(128));
    }

    /// A cheap exhaustive smoke for debug builds: a pair bring-up with
    /// tiny budgets holds and exhausts. The full-size suite runs in the
    /// release-profile `mdr-verify` CI job.
    #[test]
    fn tiny_pair_bringup_holds_and_exhausts() {
        let s = TScenario {
            name: "tiny-pair",
            what_it_traps: "",
            n: 2,
            adjacencies: &[(0, 1)],
            sends: &[(0, 1, 1)],
            crashes: &[],
            dead_expiries: &[],
            reset_budget: 2,
            policy: None,
            cfg: small_cfg(),
            depth: 40,
            max_states: 500_000,
            perms: &[&[0, 1]],
        };
        match explore(&s, ChannelMutant::None, true) {
            Outcome::Holds(st) => {
                assert!(!st.truncated, "tiny pair must exhaust, reached depth {}", st.deepest);
                assert!(st.states > 10, "nontrivial space expected, got {}", st.states);
            }
            other => panic!("expected Holds, got {:?}", other.stats()),
        }
    }
}
