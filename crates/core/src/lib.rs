//! # mdr — near-optimal minimum-delay routing
//!
//! A full reproduction of **"A Simple Approximation to Minimum-Delay
//! Routing"** (Srinivas Vutukury & J.J. Garcia-Luna-Aceves, SIGCOMM
//! 1999) as a Rust workspace. This crate is the public facade; the
//! implementation lives in focused sub-crates re-exported below:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`net`] | topology graph, M/M/1 delay models, traffic matrices, the CAIRN & NET1 evaluation topologies |
//! | [`proto`] | LSU messages and their wire codec |
//! | [`routing`] | PDA and **MPDA** — the first link-state routing algorithm with instantaneously loop-free unequal-cost multipath (LFI conditions, Theorems 1–4) |
//! | [`flow`] | the **IH**/**AH** traffic-distribution heuristics over successor sets |
//! | [`opt`] | Gallager's minimum-delay routing (**OPT**) and the analytic flow evaluator |
//! | [`sim`] | deterministic packet-level discrete-event simulator with the routing protocol in-band |
//!
//! ## Quick start
//!
//! A [`Scheme`] turns into one simulation job ([`Scheme::job`]); a batch
//! of jobs runs across cores with [`sim::run_many`], its reports in job
//! order.
//!
//! ```
//! use mdr::prelude::*;
//!
//! // The paper's NET1 topology with its ten flows at 1 Mb/s each.
//! let topo = mdr::net::topo::net1();
//! let flows = mdr::net::topo::net1_flows(1_000_000.0);
//! let traffic = TrafficMatrix::from_flows(&topo, &flows)?;
//!
//! // OPT, the paper's MP scheme (MPDA + IH/AH, T_l = 10 s, T_s = 2 s)
//! // and single-path routing, over the same packet simulator.
//! let base = SimConfig { warmup: 3.0, duration: 3.0, ..Default::default() };
//! let schemes = [Scheme::Opt, Scheme::mp(10.0, 2.0), Scheme::sp(10.0)];
//! let mut jobs = Vec::new();
//! for s in schemes {
//!     jobs.push(s.job(&topo, &traffic, base.clone())?);
//! }
//! for (s, report) in schemes.iter().zip(run_many(jobs)) {
//!     assert!(report.mean_delay_ms() > 0.0, "{}", s.label());
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Bit-deterministic crate: an exact float comparison must say why it
// is exact. `unsafe`, hash-ordered collections, wall-clock reads and
// `partial_cmp` are denied in every crate by the workspace lints.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub use mdr_flow as flow;
pub use mdr_net as net;
pub use mdr_opt as opt;
pub use mdr_proto as proto;
pub use mdr_routing as routing;
pub use mdr_sim as sim;

pub mod prelude;
pub mod scheme;

pub use scheme::Scheme;
