//! # mdr-routing — loop-free multipath link-state routing
//!
//! Implements §4.1 of *"A Simple Approximation to Minimum-Delay
//! Routing"*:
//!
//! * [`spf`] — deterministic Dijkstra (ties broken "in favor of the
//!   lower address neighbor", Fig. 3) and Bellman-Ford used for
//!   cross-validation;
//! * [`table`] — the per-router tables: main topology table `T^i`,
//!   neighbor topology tables `T^i_k`, distance / routing / link tables;
//! * [`pda`] — **PDA**, the Partial-topology Dissemination Algorithm
//!   (Figs. 1–3): NTU + MTU, converges to shortest paths (Theorem 2);
//! * [`mpda`] — **MPDA** (Fig. 4): PDA plus single-hop inter-neighbor
//!   synchronization (ACTIVE/PASSIVE phases), feasible distances `FD^i_j`
//!   and LFI successor sets — multiple loop-free paths of unequal cost
//!   *at every instant* (Theorem 3) that converge to
//!   `S^i_j = {k | D^k_j < D^i_j}` (Theorem 4);
//! * [`lfi`] — the Loop-Free Invariant conditions (Eqs. 16–17) and a
//!   global checker that verifies the per-destination routing graph
//!   `SG_j(t)` is acyclic — used by tests to validate Theorem 3 under
//!   adversarial event schedules;
//! * [`harness`] — an in-memory message-passing harness that drives a
//!   set of routers to convergence under configurable (including
//!   adversarial) delivery schedules, checking the LFI safety property
//!   after every single event.
//!
//! Routers are poll-style state machines: feed a [`RouterEvent`], get
//! back messages to transmit. No clocks, threads, or I/O — the in-memory
//! convergence harness and the packet simulator drive the same code.

// Bit-deterministic crate: an exact float comparison must say why it
// is exact. `unsafe`, hash-ordered collections, wall-clock reads and
// `partial_cmp` are denied in every crate by the workspace lints.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub(crate) mod core;
pub mod dv;
pub mod harness;
pub mod lfi;
pub mod mpda;
pub mod pda;
pub mod spf;
pub mod table;

pub use dv::{DvEvent, DvMessage, DvOutput, DvRouter};
pub use harness::Harness;
pub use mpda::{
    DestState, MpdaRouter, RouteChange, RouterEvent, RouterOutput, RouterSnapshot, SendTo,
    UpdateRule,
};
pub use pda::PdaRouter;
pub use spf::{bellman_ford, dijkstra, Spf, SpfResult};
pub use table::TopoTable;
