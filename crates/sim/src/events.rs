//! The event queue: a total order over simulation events.
//!
//! Events are ordered by `(time, seq)` where `seq` is the insertion
//! sequence number — ties in simulated time resolve in scheduling order,
//! making every run a pure function of the configuration (the smoltcp
//! "no surprises" rule applied to simulation).
//!
//! Performance: [`Ev`] is a small `Copy` type so heap sift operations
//! are plain memcpys of fixed-size entries. Control messages — the one
//! variable-size payload — are parked in a [`MsgSlab`] and referenced by
//! [`MsgId`]; the slab recycles slots through a free list, so
//! steady-state control traffic allocates nothing.

use mdr_net::{LinkId, NodeId};
use mdr_proto::LsuMessage;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulation event. Kept small and `Copy` — the event heap moves
/// entries on every push/pop, so this is the hottest struct in the
/// simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ev {
    /// A source generates the next packet of flow `flow`.
    Generate {
        /// Index into the traffic matrix's flow list.
        flow: usize,
    },
    /// The head-of-line packet on `link` finishes serialization.
    LinkDeparture {
        /// The transmitting link.
        link: LinkId,
    },
    /// A data packet reaches router `node` (after propagation).
    NodeArrival {
        /// Receiving router.
        node: NodeId,
        /// The packet.
        packet: Packet,
    },
    /// A control (LSU) message reaches router `node` from neighbor
    /// `from`. The message body lives in the simulator's [`MsgSlab`].
    Control {
        /// Receiving router.
        node: NodeId,
        /// Transmitting neighbor.
        from: NodeId,
        /// Slab handle of the message.
        msg: MsgId,
    },
    /// Router `node` closes a `T_s` measurement window: refresh local
    /// link costs and run AH.
    ShortTermTick {
        /// The router.
        node: NodeId,
    },
    /// Router `node` performs a `T_l` long-term routing update.
    LongTermTick {
        /// The router.
        node: NodeId,
    },
    /// A scripted scenario event fires.
    Scenario {
        /// Index into the scenario's event list.
        index: usize,
    },
    /// A scheduled chaos perturbation fires (see [`crate::FaultPlan`]).
    Fault {
        /// Index into the fault plan's pre-generated schedule.
        index: usize,
    },
    /// Statistics sampling tick (time-series buckets).
    Sample,
}

/// A data packet in flight. Plain old data: copied, never cloned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Flow index (for per-flow statistics).
    pub flow: u32,
    /// Final destination router.
    pub dst: NodeId,
    /// Creation time at the source.
    pub created: f64,
    /// Length in bits.
    pub bits: f64,
    /// Remaining hop budget, a defensive guard. MPDA keeps the routing
    /// graph loop-free at every instant, but a packet can still revisit
    /// a router when successor sets change between its hops; tests
    /// assert the budget never runs out in their scenarios.
    pub ttl: u16,
}

/// Handle of a control message parked in a [`MsgSlab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgId(u32);

/// Side storage for in-flight control messages, so [`Ev`] stays `Copy`.
///
/// Slots freed by [`MsgSlab::take`] are recycled LIFO; the slab grows
/// only when more messages are simultaneously in flight than ever
/// before in the run.
///
/// Each message carries an opaque `u64` tag (0 unless set through
/// [`MsgSlab::insert_tagged`]); the chaos harness stamps sender/receiver
/// incarnation numbers there so a message from a router's previous life
/// is recognizably stale at delivery.
#[derive(Debug, Default)]
pub struct MsgSlab {
    slots: Vec<Option<(LsuMessage, u64)>>,
    free: Vec<u32>,
}

impl MsgSlab {
    /// Empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park `msg` with tag 0, returning its handle.
    pub fn insert(&mut self, msg: LsuMessage) -> MsgId {
        self.insert_tagged(msg, 0)
    }

    /// Park `msg` with an arbitrary tag.
    pub fn insert_tagged(&mut self, msg: LsuMessage, tag: u64) -> MsgId {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some((msg, tag));
                MsgId(i)
            }
            None => {
                self.slots.push(Some((msg, tag)));
                MsgId((self.slots.len() - 1) as u32)
            }
        }
    }

    /// Remove and return the message behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was already taken — handles are single-use.
    pub fn take(&mut self, id: MsgId) -> LsuMessage {
        self.take_tagged(id).0
    }

    /// Remove and return the message behind `id` together with its tag.
    ///
    /// # Panics
    /// Panics if `id` was already taken — handles are single-use.
    pub fn take_tagged(&mut self, id: MsgId) -> (LsuMessage, u64) {
        let entry = self.slots[id.0 as usize].take().expect("MsgId taken twice");
        self.free.push(id.0);
        entry
    }

    /// Messages currently parked.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: f64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Entry {
    /// Equal exactly when [`Ord::cmp`] says so, so `0.0` and `-0.0`
    /// (both accepted by `push`) differ here as they do in the order.
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        // `total_cmp` is exact here: push() rejects non-finite times.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic future-event list.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty queue with room for `cap` events before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue { heap: BinaryHeap::with_capacity(cap), seq: 0 }
    }

    /// Schedule `ev` at absolute time `time`.
    ///
    /// # Panics
    /// Panics when `time` is NaN, infinite, or negative — a non-finite
    /// time would silently corrupt the heap order, so the guard is
    /// unconditional, not debug-only.
    pub fn push(&mut self, time: f64, ev: Ev) {
        assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        self.heap.push(Entry { time, seq: self.seq, ev });
        self.seq += 1;
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(f64, Ev)> {
        self.heap.pop().map(|e| (e.time, e.ev))
    }

    /// Events still queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(2.0, Ev::Sample);
        q.push(1.0, Ev::Generate { flow: 0 });
        q.push(3.0, Ev::Generate { flow: 1 });
        assert_eq!(q.pop().unwrap().0, 1.0);
        assert_eq!(q.pop().unwrap().0, 2.0);
        assert_eq!(q.pop().unwrap().0, 3.0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_resolve_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, Ev::Generate { flow: 0 });
        q.push(1.0, Ev::Generate { flow: 1 });
        q.push(1.0, Ev::Generate { flow: 2 });
        for expect in 0..3 {
            match q.pop().unwrap().1 {
                Ev::Generate { flow } => assert_eq!(flow, expect),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// `push` accepts both zeros; `eq` agrees with `cmp` on them, which
    /// orders `-0.0` before `0.0`.
    #[test]
    fn signed_zero_times_are_equal_exactly_when_ordered_equal() {
        let at = |time: f64| Entry { time, seq: 0, ev: Ev::Sample };
        let (pos, neg) = (at(0.0), at(-0.0));
        assert!(pos.cmp(&neg).is_lt(), "reversed order: -0.0 pops first");
        assert_ne!(pos, neg);
        assert_eq!(neg, at(-0.0));
        let mut q = EventQueue::new();
        q.push(0.0, Ev::Sample);
        q.push(-0.0, Ev::Sample);
        assert_eq!(q.pop().map(|(t, _)| t.is_sign_negative()), Some(true));
    }

    #[test]
    fn len_tracks() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1.0, Ev::Sample);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(128);
        q.push(1.0, Ev::Sample);
        q.push(0.5, Ev::Sample);
        assert_eq!(q.pop().unwrap().0, 0.5);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn rejects_nan_time() {
        EventQueue::new().push(f64::NAN, Ev::Sample);
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn rejects_infinite_time() {
        EventQueue::new().push(f64::INFINITY, Ev::Sample);
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn rejects_negative_time() {
        EventQueue::new().push(-1.0, Ev::Sample);
    }

    #[test]
    fn msg_slab_recycles_slots() {
        let mut slab = MsgSlab::new();
        let m = LsuMessage::ack_only(NodeId(1));
        let a = slab.insert(m.clone());
        let b = slab.insert(m.clone());
        assert_eq!(slab.len(), 2);
        let got = slab.take(a);
        assert_eq!(got, m);
        assert_eq!(slab.len(), 1);
        // The freed slot is reused: no growth.
        let c = slab.insert(m);
        assert_eq!(slab.len(), 2);
        assert_eq!(c, a);
        let _ = slab.take(b);
        let _ = slab.take(c);
        assert!(slab.is_empty());
    }
}
