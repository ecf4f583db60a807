//! Generic bounded-exhaustive exploration engine with optional
//! partial-order reduction, shared by the LFI model checker
//! ([`crate::model`]) and the transport protocol checker
//! ([`crate::transport`]).
//!
//! The engine is a plain breadth-first search over a transition system
//! described by the [`CheckWorld`] trait: states are deduplicated by a
//! canonical byte key, every visited state is checked against the
//! world's safety invariants, and violations are reported as *minimal*
//! counterexamples (BFS visits states in nondecreasing trace length, so
//! the first violation found is at minimum depth) reconstructed through
//! parent pointers.
//!
//! Partial-order reduction is delegated to the world: when `por` is on,
//! [`CheckWorld::expand`] may return successors for an ample subset of
//! the enabled actions only. The engine itself imposes **no** cycle
//! proviso — each world's ample rule must be sound on its own terms.
//! The one rule in this crate, the transport checker's
//! ([`crate::transport`]), argues soundness structurally: the selected
//! actions commute with every deferred one *and* cannot be disabled by
//! them, so any violating interleaving has an equivalent representative
//! inside the reduced graph, and where that argument fails for a state
//! it expands everything there. The LFI checker ([`crate::model`])
//! takes no reduction at all.
//!
//! "Exhausted" means the frontier drained without ever skipping a
//! successor: [`Stats::truncated`] stays `false` only if no state was
//! cut off by the depth bound, so `Holds` + `!truncated` is a proof
//! over the *entire* bounded-budget state space, not just the explored
//! prefix of a larger one.

use std::collections::{HashSet, VecDeque};

/// One successor produced by [`CheckWorld::expand`]: the action taken
/// and either the resulting world with its canonical key, or the
/// invariant violation observed *during* the transition (the resulting
/// counterexample ends with the action).
pub type Successor<W> = (<W as CheckWorld>::Action, Result<(W, Box<[u8]>), String>);

/// A transition system the engine can explore.
///
/// The engine never applies an action itself: the world hands back its
/// successors ready-made, so a world that must execute an action to
/// learn whether it is enabled (the transport checker prunes
/// self-loops that way) returns the world it already built instead of
/// building it twice.
pub trait CheckWorld: Sized {
    /// One atomic transition (a delivery, a timer firing, a crash…).
    type Action: Clone;

    /// Canonical byte encoding of the state, used for deduplication.
    /// Two states with equal keys must be indistinguishable to both
    /// `expand` and `check` — symmetry reduction lives here (return
    /// the minimum encoding over an automorphism group).
    fn key(&self) -> Box<[u8]>;

    /// Append the successors to visit to `out`, in a deterministic
    /// order, each keyed as [`CheckWorld::key`] would key it. Returns
    /// `true` when partial-order reduction pruned the enabled set to a
    /// strict subset ([`Stats::ample_states`]).
    ///
    /// With `por` off, `out` gets one successor per enabled action.
    /// With `por` on, a world may return successors for an ample subset
    /// only. Soundness contract (argued per implementation, not
    /// enforced here): from this state, every run through a deferred
    /// action can be reordered into an equivalent run that takes an
    /// ample action first, without masking any invariant violation.
    /// The ample subset of a state with enabled actions is never empty.
    fn expand(&self, por: bool, out: &mut Vec<Successor<Self>>) -> bool;

    /// Check state invariants. `Err` carries the violation message.
    fn check(&self) -> Result<(), String>;
}

/// Exploration statistics, reported even on violation or cap.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Distinct canonical states visited.
    pub states: usize,
    /// Transitions executed (including ones leading to known states).
    pub transitions: usize,
    /// Deepest trace length reached.
    pub deepest: usize,
    /// States where an ample subset (strictly smaller than the enabled
    /// set) was taken instead of full expansion.
    pub ample_states: usize,
    /// `true` if any state's successors were skipped because of the
    /// depth bound — i.e. the run is a bounded prefix, not a proof over
    /// the whole budgeted space.
    pub truncated: bool,
}

/// A minimal violating run.
#[derive(Debug, Clone)]
pub struct Cx<A> {
    /// Actions from the initial state to the violating state.
    pub trace: Vec<A>,
    /// The invariant-violation message.
    pub violation: String,
}

/// Result of one exploration.
#[derive(Debug)]
pub enum Outcome<A> {
    /// Every reachable state within the bounds satisfies the invariants.
    Holds(Stats),
    /// A violation was found; the trace is minimal in action count.
    Violated(Box<Cx<A>>, Stats),
    /// The state cap was hit before the frontier drained.
    Capped(Stats),
}

impl<A> Outcome<A> {
    /// The stats regardless of verdict.
    pub fn stats(&self) -> Stats {
        match self {
            Outcome::Holds(s) | Outcome::Violated(_, s) | Outcome::Capped(s) => *s,
        }
    }
}

/// Parent-pointer node for counterexample reconstruction.
struct Node<A> {
    parent: Option<(usize, A)>,
    depth: usize,
}

fn rebuild<A: Clone>(nodes: &[Node<A>], mut at: usize, last: Option<A>) -> Vec<A> {
    let mut trace = Vec::new();
    if let Some(a) = last {
        trace.push(a);
    }
    while let Some((p, a)) = &nodes[at].parent {
        trace.push(a.clone());
        at = *p;
    }
    trace.reverse();
    trace
}

/// Breadth-first bounded exploration of `w0`.
///
/// * `depth` — maximum trace length; successors of states at this depth
///   are skipped and [`Stats::truncated`] is set.
/// * `max_states` — cap on distinct states; hitting it yields
///   [`Outcome::Capped`].
/// * `por` — let [`CheckWorld::expand`] prune to an ample subset.
pub fn explore<W: CheckWorld>(
    w0: W,
    depth: usize,
    max_states: usize,
    por: bool,
) -> Outcome<W::Action> {
    let mut stats = Stats::default();

    if let Err(violation) = w0.check() {
        stats.states = 1;
        return Outcome::Violated(Box::new(Cx { trace: Vec::new(), violation }), stats);
    }

    let mut visited: HashSet<Box<[u8]>> = HashSet::new();
    visited.insert(w0.key());
    let mut nodes: Vec<Node<W::Action>> = vec![Node { parent: None, depth: 0 }];
    let mut frontier: VecDeque<(W, usize)> = VecDeque::new();
    frontier.push_back((w0, 0));
    stats.states = 1;

    let mut successors: Vec<Successor<W>> = Vec::new();
    while let Some((world, id)) = frontier.pop_front() {
        let d = nodes[id].depth;
        successors.clear();
        let pruned = world.expand(por, &mut successors);
        if d >= depth {
            // Before declaring the space truncated, confirm something
            // was actually cut off: a state with no enabled actions is
            // terminal, not a truncation point.
            if !successors.is_empty() {
                stats.truncated = true;
            }
            continue;
        }
        if pruned {
            stats.ample_states += 1;
        }

        for (action, next) in successors.drain(..) {
            stats.transitions += 1;
            let (next, key) = match next {
                Ok(next) => next,
                Err(violation) => {
                    let trace = rebuild(&nodes, id, Some(action));
                    return Outcome::Violated(Box::new(Cx { trace, violation }), stats);
                }
            };
            if !visited.insert(key) {
                continue;
            }
            if let Err(violation) = next.check() {
                let trace = rebuild(&nodes, id, Some(action));
                return Outcome::Violated(Box::new(Cx { trace, violation }), stats);
            }
            stats.states += 1;
            stats.deepest = stats.deepest.max(d + 1);
            if stats.states > max_states {
                return Outcome::Capped(stats);
            }
            nodes.push(Node { parent: Some((id, action)), depth: d + 1 });
            frontier.push_back((next, nodes.len() - 1));
        }
    }

    Outcome::Holds(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two independent counters, each incremented up to `cap`; invariant
    /// is `a + b <= bound`. With `por`, only the first enabled counter
    /// is expanded — sound here because increments commute.
    #[derive(Clone)]
    struct Counters {
        a: u8,
        b: u8,
        cap: u8,
        bound: u16,
        por_ok: bool,
    }

    impl CheckWorld for Counters {
        type Action = u8; // 0 = bump a, 1 = bump b

        fn key(&self) -> Box<[u8]> {
            Box::new([self.a, self.b])
        }

        fn expand(&self, por: bool, out: &mut Vec<Successor<Self>>) -> bool {
            let enabled: Vec<u8> = [(self.a < self.cap, 0), (self.b < self.cap, 1)]
                .into_iter()
                .filter_map(|(on, a)| on.then_some(a))
                .collect();
            let pruned = por && self.por_ok && enabled.len() > 1;
            for &a in enabled.iter().take(if pruned { 1 } else { enabled.len() }) {
                let mut next = self.clone();
                match a {
                    0 => next.a += 1,
                    _ => next.b += 1,
                }
                let key = next.key();
                out.push((a, Ok((next, key))));
            }
            pruned
        }

        fn check(&self) -> Result<(), String> {
            if u16::from(self.a) + u16::from(self.b) > self.bound {
                return Err(format!("sum {} exceeds bound {}", self.a + self.b, self.bound));
            }
            Ok(())
        }
    }

    #[test]
    fn holds_and_exhausts_within_budget() {
        let w = Counters { a: 0, b: 0, cap: 3, bound: 10, por_ok: false };
        match explore(w, 10, 1000, false) {
            Outcome::Holds(s) => {
                assert!(!s.truncated, "space should drain before the depth bound");
                assert_eq!(s.states, 16, "4x4 grid of counter values");
            }
            other => panic!("expected Holds, got {other:?}"),
        }
    }

    #[test]
    fn depth_bound_sets_truncated() {
        let w = Counters { a: 0, b: 0, cap: 3, bound: 10, por_ok: false };
        match explore(w, 2, 1000, false) {
            Outcome::Holds(s) => assert!(s.truncated),
            other => panic!("expected Holds, got {other:?}"),
        }
    }

    #[test]
    fn violations_are_minimal_and_reconstructed() {
        let w = Counters { a: 0, b: 0, cap: 5, bound: 2, por_ok: false };
        match explore(w, 10, 1000, false) {
            Outcome::Violated(cx, _) => {
                assert_eq!(cx.trace.len(), 3, "shortest run to sum 3 has 3 increments");
                assert!(cx.violation.contains("exceeds bound"));
            }
            other => panic!("expected Violated, got {other:?}"),
        }
    }

    #[test]
    fn por_prunes_but_preserves_the_verdict() {
        let full =
            explore(Counters { a: 0, b: 0, cap: 4, bound: 3, por_ok: false }, 12, 10_000, false);
        let reduced =
            explore(Counters { a: 0, b: 0, cap: 4, bound: 3, por_ok: true }, 12, 10_000, true);
        let (Outcome::Violated(c1, s1), Outcome::Violated(c2, s2)) = (full, reduced) else {
            panic!("both runs must find the violation");
        };
        assert_eq!(c1.trace.len(), c2.trace.len(), "minimal length is interleaving-invariant");
        assert!(s2.states <= s1.states);
        assert!(s2.ample_states > 0);
    }

    #[test]
    fn state_cap_yields_capped() {
        let w = Counters { a: 0, b: 0, cap: 10, bound: 100, por_ok: false };
        match explore(w, 30, 5, false) {
            Outcome::Capped(s) => assert!(s.states > 5),
            other => panic!("expected Capped, got {other:?}"),
        }
    }
}
