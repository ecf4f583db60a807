//! # mdr-sim — deterministic packet-level network simulator
//!
//! The evaluation vehicle for the reproduction (§5 of the paper): a
//! discrete-event simulator in which
//!
//! * packet sources are Poisson with exponentially distributed packet
//!   lengths (the M/M/1 regime the delay model of §4.3 assumes);
//! * every directed link is a FIFO queue with finite capacity in bits/s
//!   and a propagation delay;
//! * each router runs a real [`mdr_routing::MpdaRouter`] instance —
//!   control traffic (LSUs) travels over the same links with
//!   serialization + propagation delay, so convergence takes simulated
//!   time and transients are real;
//! * every router measures the marginal delay of its adjacent links over
//!   `T_s` windows ([`estimator`]), rebalances traffic with AH every
//!   `T_s`, and feeds quantized long-term costs into MPDA every `T_l`
//!   (phased randomly per router, per §4.2);
//! * forwarding obeys the routing parameters `φ` from
//!   [`mdr_flow::Allocator`] — multipath (MP) or best-successor (SP).
//!
//! Determinism: one seeded RNG, a total event order `(time, seq)`, and
//! sorted iteration everywhere. The same [`SimConfig`] always produces
//! byte-identical results.

// Bit-deterministic crate: an exact float comparison must say why it
// is exact. `unsafe`, hash-ordered collections, wall-clock reads and
// `partial_cmp` are denied in every crate by the workspace lints.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod agent;
pub mod batch;
pub mod chaos;
pub mod engine;
pub mod estimator;
pub mod events;
pub mod fluid;
mod host;
pub mod par;
pub mod scenario;
pub mod stats;
pub mod telemetry;

pub use agent::Agent;
pub use batch::{run_many, SimJob};
pub use chaos::{
    ControlChaos, DirProfile, DirState, FaultEvent, FaultPlan, FaultProcess, FaultRecord,
    GreyFailure, IngressFate, LossModel, NetEmu, NetProfile, PartitionSpec, RobustnessCounters,
    RobustnessReport,
};
pub use engine::{PacketDist, SimConfig, SimMode, SimReport, Simulator};
pub use estimator::{EstimatorKind, LinkEstimator};
pub use fluid::{FluidSimulator, FluidWork};
pub use scenario::{Scenario, ScenarioEvent};
pub use stats::{FlowStats, LinkStats};
pub use telemetry::{
    DropReason, ObserverMode, RecordingObserver, SimEvent, SimObserver, TelemetryReport,
};
