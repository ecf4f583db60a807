//! # mdr-net — network model substrate
//!
//! This crate provides the network model underlying the reproduction of
//! *"A Simple Approximation to Minimum-Delay Routing"* (Vutukury &
//! Garcia-Luna-Aceves, SIGCOMM 1999):
//!
//! * [`Topology`] — a computer network `G = (N, L)` of routers and
//!   bidirectional links (modelled as pairs of directed links, possibly
//!   with different costs per direction, exactly as in §2.1 of the paper);
//! * [`delay`] — the M/M/1 link delay model of Eq. (24) and its marginal
//!   (incremental) delay, which the paper uses as the link cost;
//! * [`TrafficMatrix`] — the expected input traffic `r_ij` entering the
//!   network at router `i` destined for router `j`;
//! * [`topo`] — the two evaluation topologies from Fig. 8 (CAIRN and
//!   NET1) plus synthetic generators used by tests and ablations.
//!
//! Everything here is deterministic and allocation-conscious: topologies
//! are immutable once built, adjacency is stored in sorted vectors so all
//! iteration orders are reproducible across runs.

// Bit-deterministic crate: an exact float comparison must say why it
// is exact. `unsafe`, hash-ordered collections, wall-clock reads and
// `partial_cmp` are denied in every crate by the workspace lints.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod delay;
pub mod error;
pub mod gen;
pub mod graph;
pub mod ids;
pub mod io;
pub mod link;
pub mod topo;
pub mod traffic;

pub use delay::{LinkDelayModel, Mm1};
pub use error::NetError;
pub use graph::{Topology, TopologyBuilder};
pub use ids::{LinkId, NodeId};
pub use io::{FlowSpec, LinkSpec, NetworkSpec, SpecError};
pub use link::{Link, LinkCost, INFINITE_COST};
pub use traffic::{Flow, TrafficMatrix};
