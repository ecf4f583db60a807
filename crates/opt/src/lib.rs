//! # mdr-opt — Gallager's minimum-delay routing and the analytic model
//!
//! Three pieces:
//!
//! * [`dag`] — the one solver for Eqs. 1–3 and 5: a routing DAG toward
//!   one destination, stored by row, with a forward pass (node and link
//!   flows) and a backward pass (delivery probability and delay mass
//!   from per-link survival fractions and weights). The fluid engine of
//!   `mdr-sim`, [`evaluator`], Gallager's marginal distances and
//!   [`optimality`] all call it.
//! * [`evaluator`] — the analytic network model of §2.1: given routing
//!   variables `φ` it solves the conservation equations (Eqs. 1–2) for
//!   node flows `t^j_i` and link flows `f_ik`, computes the total
//!   expected delay `D_T` (Eq. 3) and per-commodity expected packet
//!   delays. Requires the per-destination routing graph to be a DAG
//!   (which every scheme in this workspace guarantees).
//! * [`gallager`] — **OPT**: Gallager's distributed minimum-delay
//!   routing algorithm run to convergence as a centralized fixed-point
//!   iteration, exactly the role it plays in the paper's evaluation:
//!   "Gallager's algorithm can be viewed only as a method for obtaining
//!   lower bounds under stationary traffic, rather than as an algorithm
//!   to be used in practice" (§2.2). It depends on a global step size η
//!   and stationary traffic — both provided in this setting.
//!
//! The OPT solver maintains instantaneous loop-freedom through a
//! blocking rule equivalent in effect to Gallager's blocking technique:
//! traffic may only shift toward neighbors whose marginal distance
//! (Eq. 5 snapshot) is strictly smaller, so every iteration's routing
//! graph is a DAG by a decreasing-potential argument — the same shape of
//! argument as the paper's Theorem 1.

// Bit-deterministic crate: an exact float comparison must say why it
// is exact. `unsafe`, hash-ordered collections, wall-clock reads and
// `partial_cmp` are denied in every crate by the workspace lints.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod dag;
pub mod evaluator;
pub mod gallager;
pub mod optimality;
pub mod vars;

pub use evaluator::{evaluate, EvalError, Evaluation};
pub use gallager::{solve, GallagerConfig, GallagerResult};
pub use optimality::{check_optimality, OptimalityReport};
pub use vars::{shortest_path_vars, RoutingVars};
