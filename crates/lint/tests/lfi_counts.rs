//! Exact exploration counts of the LFI checker.
//!
//! The search is deterministic, so the number of distinct states, the
//! number of transitions executed, the deepest trace and the truncation
//! flag are a pure function of the checker and MPDA's transition
//! relation. Every scenario of the built-in suite must hold under the
//! sound update rule with exactly the counts pinned here, and a broken
//! rule must be refuted by exactly the pinned minimal counterexample.
//! A change to the checker that means to explore the same space must
//! leave every number as it is.

use mdr_lint::model::{builtin_suite, explore, EnvAction, Scenario};
use mdr_lint::por::Outcome;
use mdr_routing::mpda::UpdateRule;

const MAX_STATES: usize = 5_000_000;

/// `(states, transitions, deepest, truncated)`.
type Counts = (usize, usize, usize, bool);

#[test]
fn builtin_suite_holds_with_the_pinned_counts() {
    let want: [(&str, Counts); 5] = [
        ("triangle-bringup", (27_936, 109_107, 22, false)),
        ("line3-cost-surge", (204, 476, 9, false)),
        ("square-detour-trap", (1_468, 4_609, 13, false)),
        ("diamond-flap", (45_386, 156_584, 13, true)),
        ("pentagon-surge", (31, 60, 8, false)),
    ];
    let suite = builtin_suite();
    assert_eq!(suite.len(), want.len(), "one pin per scenario");
    for (s, (name, counts)) in suite.iter().zip(want) {
        assert_eq!(s.name, name, "scenario order");
        let Outcome::Holds(st) = explore(s, UpdateRule::Lfi, MAX_STATES) else {
            panic!("{name}: LFI must hold");
        };
        assert_eq!(
            (st.states, st.transitions, st.deepest, st.truncated),
            counts,
            "{name}: (states, transitions, deepest, truncated)"
        );
    }
}

#[test]
fn broken_rule_is_refuted_by_the_pinned_counterexample() {
    // Non-strict successor selection loops on an equal-cost triangle;
    // a cold bring-up makes the minimal trace nonempty.
    let s = Scenario {
        name: "broken-bringup",
        what_it_traps: "",
        n: 3,
        edges: vec![],
        start_converged: false,
        env: vec![
            EnvAction::WireUp(0, 1, 1.0),
            EnvAction::WireUp(0, 2, 1.0),
            EnvAction::WireUp(1, 2, 1.0),
        ],
        depth: 12,
        lossy: false,
    };
    let Outcome::Violated(cx, st) = explore(&s, UpdateRule::NonStrictSuccessors, MAX_STATES) else {
        panic!("the non-strict rule must be refuted");
    };
    assert_eq!(cx.trace.len(), 6, "minimal counterexample length");
    assert_eq!((st.states, st.transitions), (40, 78), "(states, transitions)");
    assert!(cx.violation.contains("FD ordering"), "violation: {}", cx.violation);
}
