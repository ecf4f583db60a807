//! `mdr-lint` — the workspace's model checkers, run by the
//! `mdr-verify` binary and gated in CI. (The determinism rules are
//! enforced by rustc and clippy through the workspace lints; see
//! DESIGN.md §6.)
//!
//! 1. **Exhaustive LFI model checking** ([`model`]): a breadth-first
//!    enumeration of *all* interleavings of MPDA message deliveries,
//!    losses, and link events on small topologies, asserting the
//!    Loop-Free Invariant in every reachable state and printing a
//!    minimal counterexample trace on violation. No reduction: every
//!    enabled action is expanded at every state.
//!
//! 2. **Transport protocol model checking** ([`transport`]):
//!    bounded-exhaustive exploration of the
//!    *real* `mdr_node::PeerChannel` state machine — hello exchange,
//!    sliding-window transfer, loss/duplication/reordering,
//!    crash-restart with incarnation bump, same-incarnation session
//!    reset — asserting no ghost channel, quarantine-release
//!    soundness, no silent blackhole, and in-order delivery. The
//!    checker validates *itself* against deliberately unsound channel
//!    mutants, and replays every counterexample through a fresh
//!    mock-clock channel to prove the model and the implementation are
//!    the same transition relation.
//!
//! Both model checkers run on one shared engine ([`por`]) providing
//! breadth-first dedup and minimal counterexamples. Its partial-order
//! reduction hook has one user, the transport checker's
//! adjacency-component rule.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the checkers are outside the bit-deterministic scope: `por` dedups \
              in a `HashSet` that is never iterated, and `transport` derives \
              `PartialOrd` on its integer-only frame types"
)]

pub mod model;
pub mod por;
pub mod transport;
