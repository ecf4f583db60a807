//! One node process's socket pump: UDP in, UDP out, mock-free time.

use crate::core::{NodeConfig, NodeCore};
use mdr_net::NodeId;
use mdr_sim::chaos::{IngressFate, NetEmu, NetProfile};
use mdr_sim::telemetry::JsonlSink;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::net::UdpSocket;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Maps node addresses onto loopback UDP ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortMap {
    /// Port of node 0; node `i` listens on `base + i`.
    pub base: u16,
}

impl PortMap {
    /// The socket address of `node`.
    pub fn addr(&self, node: NodeId) -> String {
        format!("127.0.0.1:{}", self.base as u32 + node.0)
    }

    /// The node behind a source port, if it is one of ours.
    pub fn node_of(&self, port: u16) -> Option<NodeId> {
        (port >= self.base).then(|| NodeId((port - self.base) as u32))
    }
}

/// Network impairment applied by one node process — the live-shell
/// counterpart of the simulator's `FaultPlan` network knobs. All
/// decisions are drawn from seeded RNGs so a soak failure replays
/// exactly from its seeds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetOptions {
    /// Legacy i.i.d. receive-side datagram loss probability.
    pub loss: f64,
    /// Seed of the i.i.d. loss stream (per process).
    pub loss_seed: u64,
    /// Structured impairment: bursty/asymmetric loss, grey failures,
    /// scripted partitions — shared with the simulator's chaos layer.
    pub profile: Option<NetProfile>,
    /// Epoch instant (Unix seconds) that partition schedules in
    /// `profile` are relative to. Every process of a deployment must be
    /// handed the *same* `t0` so cuts and heals are atomic across the
    /// fleet; defaults to this process's start time.
    pub t0: Option<f64>,
}

impl NetOptions {
    /// Plain i.i.d. loss, the pre-profile behavior.
    pub fn lossy(loss: f64, loss_seed: u64) -> NetOptions {
        NetOptions { loss, loss_seed, profile: None, t0: None }
    }
}

/// Run one node process until `deadline_s` seconds of wall time elapse
/// (or forever when `deadline_s` is `None`). Returns the number of
/// telemetry lines written, or the first I/O error on the trace file
/// or the socket; the trace file is opened before the socket is bound.
///
/// `net.loss` drops each *received* datagram with the given probability
/// using a seeded RNG; `net.profile` layers the structured adversary on
/// top: egress datagrams into an active partition are dropped at the
/// socket boundary, and ingress datagrams run the same
/// loss/grey/corrupt classifier the simulator applies in
/// `send_control` — deterministic decisions per process, which keeps
/// soak failures reproducible from their seeds.
pub fn run_node(
    cfg: NodeConfig,
    ports: PortMap,
    trace_path: &str,
    deadline_s: Option<f64>,
    net: NetOptions,
) -> std::io::Result<u64> {
    let mut sink = JsonlSink::create(trace_path, false)
        .map_err(|e| std::io::Error::new(e.kind(), format!("trace {trace_path}: {e}")))?;
    let socket = UdpSocket::bind(ports.addr(cfg.id))?;
    let mut rng = SmallRng::seed_from_u64(net.loss_seed);
    let loss = net.loss;
    // All processes share the Unix epoch, NOT a per-process
    // `Instant::now()` origin: the hybrid logical clocks seed their
    // physical component from `now`, and merging traces by HLC only
    // linearizes causally if every process's clock measures the same
    // timeline. (f64 keeps sub-µs precision at 2^31-second magnitudes —
    // finer than the HLC's microsecond tick.)
    let now_s =
        || SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs_f64()).unwrap_or(0.0);
    let start = now_s();
    let deadline = deadline_s.map(|d| start + d);
    // Partition schedules are expressed in elapsed time since `t0`;
    // every process of a deployment shares it so the cut is atomic.
    let t0 = net.t0.unwrap_or(start);
    let mut emu: Option<NetEmu> = net.profile.map(|p| NetEmu::new(p, cfg.id, cfg.n));

    let (mut node, out) = NodeCore::new(cfg, start);
    let write_out = |out: crate::core::NodeOutput,
                     sink: &mut JsonlSink,
                     socket: &UdpSocket,
                     emu: Option<&NetEmu>|
     -> std::io::Result<()> {
        for r in &out.records {
            sink.write_record(r)?;
        }
        if !out.records.is_empty() {
            // The soak harness kills with SIGKILL; flushing per batch
            // bounds trace loss to the line in flight.
            sink.flush()?;
        }
        for (to, bytes) in &out.datagrams {
            // An active partition severs the link at the egress socket
            // boundary — the cut is physical, not a receive decision.
            if let Some(e) = emu {
                if !e.egress_ok(*to, now_s() - t0) {
                    continue;
                }
            }
            // Transient send errors (e.g. the peer's socket does not
            // exist yet, surfacing as ECONNREFUSED on loopback) are the
            // reliability layer's problem, not ours: drop and let the
            // retransmission timers recover.
            let _ = socket.send_to(bytes, ports.addr(*to));
        }
        Ok(())
    };
    write_out(out, &mut sink, &socket, emu.as_ref())?;

    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let now = now_s();
        if let Some(d) = deadline {
            if now >= d {
                break;
            }
        }
        // Sleep until the core's next deadline (capped so the loop
        // stays responsive to the run deadline).
        let wait = (node.next_deadline() - now).clamp(0.0, 0.05);
        socket.set_read_timeout(Some(Duration::from_secs_f64(wait.max(1e-4))))?;
        match socket.recv_from(&mut buf) {
            Ok((len, from_addr)) => {
                let deliver = if loss > 0.0 && rng.gen_bool(loss.clamp(0.0, 1.0)) {
                    false // injected i.i.d. receive-side loss
                } else if let (Some(e), Some(from)) =
                    (emu.as_mut(), ports.node_of(from_addr.port()))
                {
                    // The profile adversary: same classifier the
                    // simulator runs, peeking the frame type byte to
                    // tell LSU data from hello/ack traffic (the grey
                    // mode impairs only data).
                    let is_data = mdr_proto::node_frame_is_data(&buf[..len]).unwrap_or(false);
                    match e.classify(from, is_data, now_s() - t0) {
                        IngressFate::Deliver => true,
                        IngressFate::Drop => false,
                        IngressFate::Corrupt => {
                            if len > 0 {
                                let (i, mask) = e.corrupt_at(from, len);
                                buf[i] ^= mask;
                            }
                            true // the CRC layer judges the damage
                        }
                    }
                } else {
                    true
                };
                if deliver {
                    let out = node.on_datagram(&buf[..len], now_s());
                    write_out(out, &mut sink, &socket, emu.as_ref())?;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::ConnectionRefused => {}
            Err(e) => return Err(e),
        }
        let out = node.on_tick(now_s());
        write_out(out, &mut sink, &socket, emu.as_ref())?;
    }
    let out = node.stop(now_s());
    write_out(out, &mut sink, &socket, emu.as_ref())?;
    Ok(sink.close()?.lines)
}
