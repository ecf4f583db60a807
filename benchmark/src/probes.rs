//! Layer probes: each times calls into one layer's public functions, at
//! the sizes of the workload whose wall time that layer should explain.
//! Probes run only in a traced run, each under a span of its own.

use crate::stats::{median, quantile};
use crate::tracer::Tracer;
use crate::workloads::sub_seed;
use mdr_flow::{Allocator, Mode, SuccessorCost, Update};
use mdr_net::{LinkCost, LinkDelayModel, Mm1, NodeId, Topology};
use mdr_node::{PeerChannel, ReliableConfig};
use mdr_proto::{
    codec, frame_node, unframe_node, HlcStamp, LsuEntry, LsuMessage, NodeBody, NodeMsg,
};
use mdr_routing::{dijkstra, Harness, MpdaRouter, TopoTable};
use mdr_sim::events::{Ev, EventQueue};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Median over `batches` batches of the mean time of one call of `f`,
/// in nanoseconds.
fn ns_per_call(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_batch)
}

/// The cost MPDA sees on an idle link: the M/M/1 marginal delay at zero
/// flow, as both simulator engines boot with.
fn idle_cost(topo: &Topology, a: NodeId, b: NodeId) -> LinkCost {
    let l = topo.link(topo.link_between(a, b).expect("cost asked for an existing link"));
    Mm1::new(l.capacity, l.prop_delay, 1000.0).marginal_delay(0.0)
}

/// Deliver until nothing is in flight, one span per delivery.
fn drain(h: &mut Harness<MpdaRouter>, tr: &mut Tracer, span: &'static str) {
    loop {
        let s = tr.begin(span);
        let more = h.step();
        tr.end(s);
        if !more {
            break;
        }
    }
}

/// Result of [`mpda`].
pub struct MpdaProbe {
    /// The `routing.mpda.*` metrics.
    pub metrics: Vec<(&'static str, f64)>,
    /// Mean microseconds per delivered LSU over the whole probe.
    pub mean_us: f64,
}

/// The bare routing layer on `topo`: a cold-start flood through
/// `Harness::mpda` (one span per `Harness::step`), then `changes`
/// seeded `change_cost` calls, each run to quiescence.
pub fn mpda(topo: &Topology, changes: usize, seed: u64, tr: &mut Tracer) -> MpdaProbe {
    let root = tr.begin("routing.probe");
    let mut h = Harness::mpda(topo, |a, b| idle_cost(topo, a, b), sub_seed(seed, 10));
    drain(&mut h, tr, "routing.mpda.step");
    let flood_us = tr.durations_us("routing.mpda.step");
    let flooded = h.delivered();
    let (mtu_runs, entries_sent) = h.routers.iter().fold((0u64, 0u64), |(mtu, sent), r| {
        let s = r.stats();
        (mtu + s.mtu_runs, sent + s.entries_sent)
    });

    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 11));
    for _ in 0..changes {
        let l = &topo.links()[rng.gen_range(0..topo.link_count())];
        let cost = idle_cost(topo, l.from, l.to) * rng.gen_range(1.5..4.0);
        h.change_cost(l.from, l.to, cost);
        drain(&mut h, tr, "routing.mpda.delta_step");
    }
    tr.end(root);
    let delta_us = tr.durations_us("routing.mpda.delta_step");
    let total_us: f64 = flood_us.iter().chain(&delta_us).sum();
    let metrics = vec![
        ("routing.mpda.lsu_us_p50", median(&flood_us)),
        ("routing.mpda.lsu_us_p99", quantile(&flood_us, 0.99)),
        ("routing.mpda.lsu_count", flooded as f64),
        ("routing.mpda.mtu_runs", mtu_runs as f64),
        ("routing.mpda.entries_sent", entries_sent as f64),
        ("routing.mpda.delta_us_p50", median(&delta_us)),
        ("routing.mpda.delta_lsu_count", (h.delivered() - flooded) as f64),
    ];
    MpdaProbe { metrics, mean_us: total_us / h.delivered().max(1) as f64 }
}

/// One full `dijkstra` over `topo`'s link table, microseconds (median
/// over roots).
pub fn dijkstra_us(topo: &Topology, tr: &mut Tracer) -> f64 {
    let table: TopoTable =
        topo.links().iter().map(|l| (l.from, l.to, idle_cost(topo, l.from, l.to))).collect();
    let n = topo.node_count();
    let mut root = 0u32;
    let s = tr.begin("routing.spf.probe");
    let ns = ns_per_call(15, 8, || {
        root = (root + 7) % n as u32;
        black_box(dijkstra(n, black_box(&table), NodeId(root)));
    });
    tr.end(s);
    ns / 1e3
}

/// `(IH, AH)` microseconds per destination: `Allocator::refresh` on a
/// changed successor set and `Allocator::update` on an unchanged one,
/// averaged over 2- and 4-successor destinations.
pub fn allocator_us(n: usize, tr: &mut Tracer) -> (f64, f64) {
    let succ = |k: u32, salt: f64| -> Vec<SuccessorCost> {
        (0..k).map(|i| SuccessorCost::new(NodeId(i), 0.01 + 0.003 * f64::from(i) + salt)).collect()
    };
    let s = tr.begin("flow.probe");
    let (mut ih, mut ah) = (0.0, 0.0);
    for k in [2, 4] {
        let mut alloc = Allocator::new(n, Mode::Multipath).with_ah_gain(0.4);
        let (first, other, moved) = (succ(k, 0.0), succ(k + 1, 0.0), succ(k, 0.002));
        // Alternating between two successor sets makes every refresh a
        // real IH run; AH then rebalances over the unchanged set.
        let mut flip = false;
        ih += ns_per_call(9, 1, || {
            flip = !flip;
            let set = if flip { &first } else { &other };
            for j in 0..n as u32 {
                black_box(alloc.refresh(NodeId(j), set));
            }
        });
        for j in 0..n as u32 {
            alloc.refresh(NodeId(j), &first);
        }
        ah += ns_per_call(9, 1, || {
            for j in 0..n as u32 {
                black_box(alloc.update(NodeId(j), &moved, Update::ShortTerm));
            }
        });
    }
    tr.end(s);
    let per_dest_us = |ns: f64| ns / 2.0 / n as f64 / 1e3;
    (per_dest_us(ih), per_dest_us(ah))
}

/// Hold model on the simulator's event queue at depth 1000: pop the
/// earliest event, push one a random interval later. Nanoseconds per
/// pop + push.
pub fn event_queue_ns(tr: &mut Tracer, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 12));
    let mut q = EventQueue::with_capacity(1024);
    for _ in 0..1000 {
        q.push(rng.gen::<f64>(), Ev::Sample);
    }
    let s = tr.begin("sim.events.probe");
    let ns = ns_per_call(15, 20_000, || {
        let (t, ev) = q.pop().expect("the hold model keeps the queue full");
        q.push(t + rng.gen::<f64>(), black_box(ev));
    });
    tr.end(s);
    ns
}

/// A 64-entry LSU, the size of a mid-flood update.
fn lsu64() -> LsuMessage {
    let entries = (0..64u32)
        .map(|i| LsuEntry::add(NodeId(i), NodeId(i + 1), 0.001 + f64::from(i) * 1e-5))
        .collect();
    LsuMessage::update(NodeId(0), entries)
}

/// The `proto.*` metrics: LSU codec cost per entry and node-frame cost
/// per datagram, on a `Data` body carrying a 64-entry LSU.
pub fn proto(tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    let lsu = lsu64();
    let entries = lsu.entries.len() as f64;
    let msg = NodeMsg {
        from: NodeId(0),
        incarnation: 1,
        for_inc: 1,
        for_session: 1,
        session: 1,
        hlc: HlcStamp { l: 1_000_000, c: 0 },
        body: NodeBody::Data { seq: 1, lsu: lsu.clone() },
    };
    let s = tr.begin("proto.probe");
    let encoded = codec::encode(&lsu);
    let framed = frame_node(&msg);
    let m = vec![
        (
            "proto.lsu.encode_ns_per_entry",
            ns_per_call(15, 2000, || drop(black_box(codec::encode(black_box(&lsu))))) / entries,
        ),
        (
            "proto.lsu.decode_ns_per_entry",
            ns_per_call(15, 2000, || drop(black_box(codec::decode(black_box(&encoded))))) / entries,
        ),
        (
            "proto.wire.frame_us",
            ns_per_call(15, 2000, || drop(black_box(frame_node(black_box(&msg))))) / 1e3,
        ),
        (
            "proto.wire.unframe_us",
            ns_per_call(15, 2000, || drop(black_box(unframe_node(black_box(&framed))))) / 1e3,
        ),
    ];
    tr.end(s);
    m
}

/// Two established `PeerChannel`s facing each other.
fn channel_pair() -> (PeerChannel, PeerChannel) {
    let hello = || NodeBody::Hello { ts_us: 0, echo_ts_us: 0, hold_us: 0 };
    let mut a = PeerChannel::new(ReliableConfig::default(), 1, 0.0);
    let mut b = PeerChannel::new(ReliableConfig::default(), 1, 0.0);
    // A first hello addresses nobody in particular (incarnation and
    // session 0), which is how a cold adjacency comes up.
    a.on_message(1, 0, 0, 1, hello(), 0.0);
    b.on_message(1, 0, 0, 1, hello(), 0.0);
    (a, b)
}

/// One reliable LSU round trip between two `PeerChannel`s: `send`, the
/// peer's `on_message` (delivery + ack), and the sender's `on_message`
/// on the ack. Microseconds.
pub fn channel_roundtrip_us(tr: &mut Tracer) -> f64 {
    let (mut a, mut b) = channel_pair();
    let lsu = lsu64();
    let mut now = 0.0;
    let s = tr.begin("node.reliable.probe");
    let ns = ns_per_call(15, 2000, || {
        now += 1e-3;
        let (for_inc, for_session, session) = a.address();
        for body in a.send(lsu.clone(), now) {
            let (acks, _) = b.on_message(1, for_inc, for_session, session, body, now);
            let (for_inc, for_session, session) = b.address();
            for ack in acks {
                black_box(a.on_message(1, for_inc, for_session, session, ack, now));
            }
        }
    });
    tr.end(s);
    assert!(a.is_up() && a.in_flight() == 0 && a.acked() > 0, "the probe's round trips complete");
    ns / 1e3
}

/// `PeerChannel::encode_state` on a channel with a full window in
/// flight — what the transport checker pays per channel per state.
/// Nanoseconds.
pub fn encode_state_ns(tr: &mut Tracer) -> f64 {
    let (mut a, _) = channel_pair();
    for _ in 0..ReliableConfig::default().window {
        a.send(LsuMessage::ack_only(NodeId(0)), 0.0);
    }
    let mut buf = Vec::with_capacity(4096);
    let s = tr.begin("node.reliable.probe");
    let ns = ns_per_call(15, 5000, || {
        buf.clear();
        a.encode_state(black_box(&mut buf));
    });
    tr.end(s);
    ns
}
