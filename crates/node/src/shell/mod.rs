//! The I/O shell: everything that touches sockets, processes, files,
//! or the wall clock.
//!
//! This directory is the *only* part of `mdr-node` allowed to read real
//! time — the `expect` below is the workspace's one exemption from the
//! wall-clock ban — and it contains no protocol logic at all: every
//! decision is made by the deterministic core
//! ([`crate::core::NodeCore`]), which the shell merely pumps.

#![expect(
    clippy::disallowed_types,
    reason = "the socket pump, launcher and soak harness read wall-clock time by design; \
              the deterministic core only sees it as an explicit `now` parameter"
)]

pub mod launch;
pub mod soak;
pub mod udp;
