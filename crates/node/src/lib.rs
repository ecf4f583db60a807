//! # mdr-node — a fault-tolerant multi-process MPDA control plane
//!
//! One OS process per router. Each process hosts the *same*
//! control-plane [`mdr_sim::agent::Agent`] both simulators host — the
//! pure MPDA transition relation plus the IH/AH flow allocator — and
//! speaks CRC32-framed [`mdr_proto`] datagrams to its neighbors over
//! UDP.
//!
//! The crate splits along the sans-I/O line:
//!
//! * **Deterministic core** — everything below takes explicit `now`
//!   values and returns datagrams + telemetry records; no sockets, no
//!   wall clock, no threads. The unit tests drive it with a mock clock
//!   and in-memory "wires", so the reliability layer's behavior
//!   (backoff schedules, retry exhaustion, duplicate-ack tolerance,
//!   incarnation re-sync) is seed-stable and exactly reproducible:
//!   - [`hlc`] — hybrid logical clocks stamping every datagram and
//!     telemetry record, so multi-process traces merge causally;
//!   - [`reliable`] — per-neighbor reliable transport over lossy UDP:
//!     hello/keepalive with a configurable dead interval, sliding-window
//!     data transfer with cumulative acks, exponential-backoff
//!     retransmission under a bounded retry budget, and
//!     incarnation-tagged restart detection;
//!   - [`core`] — [`core::NodeCore`], the event loop body: wires the
//!     channels to the control-plane agent, turns neighbor
//!     death into the same `Delete`-LSU withdrawal path as a simulated
//!     link cut, and emits a telemetry record stream;
//!   - [`record`] — the JSONL telemetry schema
//!     ([`record::NodeRecord`]), written through
//!     [`mdr_sim::telemetry::JsonlSink`];
//!   - [`trace`] — merging per-process JSONL traces by hybrid logical
//!     clock and replaying the merged history through
//!     [`mdr_routing::lfi::Auditor`]: the LFI audits run against state
//!     reconstructed from *real processes*, not simulated routers.
//! * **I/O shell** — [`shell`]: UDP sockets, process spawning, the
//!   kill/restart soak harness. This is the only place wall-clock time
//!   exists: its `#![expect(clippy::disallowed_types)]` is the
//!   workspace's one exemption from the wall-clock ban.
//!
//! Graceful degradation is a hard rule: the event-loop core has no
//! panic paths (`clippy::unwrap_used` and `expect_used` are denied in
//! its modules); corrupt datagrams, stale
//! incarnations, and dead peers are all recorded and survived.

// Bit-deterministic crate: an exact float comparison must say why it
// is exact. `unsafe`, hash-ordered collections, wall-clock reads and
// `partial_cmp` are denied in every crate by the workspace lints.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod core;
pub mod hlc;
pub mod record;
pub mod reliable;
pub mod shell;
pub mod trace;

pub use crate::core::{quarantine_release_due, NodeConfig, NodeCore, NodeOutput, ReleasePolicy};
pub use hlc::HybridClock;
pub use record::{NodeRecord, RecordBody, SnapDest};
pub use reliable::{
    ChannelEvent, ChannelMutant, DownReason, PeerChannel, ReliableConfig, RttEstimator,
};
pub use trace::{audit_trace, merge_lines, TraceAudit};
