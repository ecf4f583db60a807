//! Convenience re-exports for applications.

pub use crate::scheme::{
    run, run_jobs, run_jobs_with, run_with_scenario, MdrError, RunConfig, RunJob, RunResult, Scheme,
};
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
    run_many, run_many_with, ControlChaos, DirProfile, EstimatorKind, FaultClass, FaultEvent,
    FaultPlan, FaultProcess, FaultRecord, FluidSimulator, FluidWork, GreyFailure, InvariantMonitor,
    LossModel, MetricsHub, MetricsReport, NetEmu, NetProfile, NullObserver, ObserverMode,
    PacketDist, PartitionSpec, RecordingObserver, RobustnessCounters, RobustnessReport, RunSet,
    Scenario, ScenarioEvent, SimConfig, SimEvent, SimJob, SimMode, SimObserver, SimReport,
    Simulator, TelemetryReport,
};
