//! `mdr-perf` — the repository's benchmark: six workloads, three gated
//! end-to-end metrics, and a traced run that reports per-layer metrics.
//! Every layer of the program is measured from outside, by timing calls
//! into its public functions. See `benchmark/README.md`.

#![forbid(unsafe_code)]

pub mod compare;
pub mod fleet;
pub mod probes;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod tracer;
pub mod workloads;
