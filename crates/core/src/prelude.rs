//! Convenience re-exports for applications.

pub use crate::scheme::Scheme;
pub use mdr_flow::{AllocHeuristic, AllocOutcome, Allocator, Mode, SuccessorCost, Update};
pub use mdr_net::{
    topo, Flow, Link, LinkDelayModel, LinkId, Mm1, NodeId, Topology, TopologyBuilder, TrafficMatrix,
};
pub use mdr_opt::{evaluate, GallagerConfig, RoutingVars};
pub use mdr_proto::{LsuEntry, LsuMessage, LsuOp};
pub use mdr_routing::{
    DvEvent, DvMessage, DvRouter, Harness, MpdaRouter, PdaRouter, RouteChange, RouterEvent,
};
pub use mdr_sim::{
    run_many, ControlChaos, DirProfile, EstimatorKind, FaultClass, FaultEvent, FaultPlan,
    FaultProcess, FaultRecord, FluidSimulator, FluidWork, GreyFailure, LossModel, MetricsHub,
    MetricsReport, NetEmu, NetProfile, NullObserver, ObserverMode, PacketDist, PartitionSpec,
    RecordingObserver, RobustnessCounters, RobustnessReport, Scenario, ScenarioEvent, SimConfig,
    SimEvent, SimJob, SimMode, SimObserver, SimReport, Simulator, TelemetryReport,
};
