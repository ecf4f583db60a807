//! `mdr-lint` — the workspace's static verification layer.
//!
//! Three engines, all gated in CI. The `mdr-lint` binary runs the
//! determinism scan; the `mdr-verify` binary runs both model checkers.
//!
//! 1. **Determinism scan** ([`rules`]): a token-level pass over every
//!    workspace source file enforcing the bit-determinism and
//!    robustness rules the simulator's reproducibility contract rests
//!    on (no hash-ordered iteration, no wall-clock reads, no
//!    `partial_cmp` on costs, no panicking calls in the event loop or
//!    decode paths, `unsafe` only at allowlisted `// SAFETY:` sites).
//!    The environment is offline and the vendored dependency set has no
//!    `syn`, so the scanner runs on a small hand-rolled lexer
//!    ([`lexer`]) rather than a full parse — rules are deliberately
//!    shaped so token-level matching is exact for this codebase's
//!    idioms.
//!
//! 2. **Exhaustive LFI model checking** ([`model`]): a breadth-first
//!    enumeration of *all* interleavings of MPDA message deliveries,
//!    losses, and link events on small topologies, asserting the
//!    Loop-Free Invariant in every reachable state and printing a
//!    minimal counterexample trace on violation. No reduction: every
//!    enabled action is expanded at every state.
//!
//! 3. **Transport protocol model checking** ([`transport`]):
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
//!
//! Configuration lives in `lint.toml` at the workspace root
//! ([`config`]); the allowlist is empty by default and stale entries
//! are themselves errors.

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod model;
pub mod por;
pub mod rules;
pub mod transport;
