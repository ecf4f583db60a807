//! # mdr-flow — traffic distribution over loop-free multipaths
//!
//! Implements §4.2 of *"A Simple Approximation to Minimum-Delay
//! Routing"*: the allocation of routing parameters `φ^i_jk` (the
//! fraction of traffic for destination `j` that router `i` forwards to
//! neighbor `k`) over a successor set computed by MPDA.
//!
//! Two heuristics:
//!
//! * [`initial_assignment`] (**IH**, Fig. 6) — fresh distribution when a
//!   successor set first appears or changes due to long-term route
//!   updates: fractions inversely related to marginal distance, so "the
//!   greater the marginal delay through a particular neighbor, the
//!   smaller the fraction of traffic forwarded to that neighbor";
//! * [`incremental_adjustment`] (**AH**, Fig. 7) — every `T_s` seconds,
//!   traffic is moved from links with large marginal delay toward the
//!   best successor, in proportion to how far each link's marginal
//!   distance exceeds the best.
//!
//! Both preserve **Property 1** (`φ ≥ 0`, `Σ_k φ_jk = 1`, `φ_jk = 0` for
//! non-successors) at every instant — validated by unit and property
//! tests, and re-checked at runtime in debug builds.
//!
//! [`Allocator`] is the stateful per-router wrapper the simulator uses:
//! it remembers the current successor set per destination, re-runs IH
//! when the set changes and AH otherwise, and serves forwarding
//! fractions to the data plane. Its [`Mode`] selects multipath (MP) or
//! single-path (SP) behaviour — SP is "our multipath routing algorithm
//! restricted to use only the best successor for packet forwarding"
//! (§5).

// Bit-deterministic crate: an exact float comparison must say why it
// is exact. `unsafe`, hash-ordered collections, wall-clock reads and
// `partial_cmp` are denied in every crate by the workspace lints.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod allocator;
pub mod heuristics;
pub mod params;

pub use allocator::{AllocHeuristic, AllocOutcome, Allocator, Mode, Update};
pub use heuristics::{
    incremental_adjustment, incremental_adjustment_gained, initial_assignment, SuccessorCost,
};
pub use params::{DestParams, PropertyViolation};
