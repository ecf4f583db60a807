//! Exact exploration counts of the transport checker.
//!
//! The search is deterministic, so the number of distinct states, the
//! number of transitions executed, the POR-pruned state count, the
//! deepest trace and the truncation flag are a pure function of the
//! checker and the `PeerChannel` transition relation. A change meant
//! to make the checker faster must leave every one of them — and every
//! minimal counterexample, byte for byte — exactly as pinned here. So
//! is the number of distinct channel encodings each sound exploration
//! interns, a work counter pinned beside the state counts.
//!
//! The small scenarios and the four mutant searches run under plain
//! `cargo test`. The four large sound scenarios take tens of seconds
//! even in release, so their pin is `#[ignore]`d and run by CI as
//! `cargo test --release -p mdr-lint --test transport_counts -- --ignored`.

use mdr_lint::por::{Outcome, Stats};
use mdr_lint::transport::{explore, explore_interned, mutant_cases, suite, to_replay};
use mdr_node::ChannelMutant;

/// `(states, transitions, ample_states, deepest, truncated)`.
type Counts = (usize, usize, usize, usize, bool);

fn counts(st: Stats) -> Counts {
    (st.states, st.transitions, st.ample_states, st.deepest, st.truncated)
}

/// Distinct channel encodings each sound scenario's exploration
/// interns, checked wherever [`assert_sound_counts`] explores it.
const INTERNED: [(&str, usize); 6] = [
    ("pair-crash-restart", 20),
    ("ring6-hello-mesh", 5),
    ("pair-bringup-transfer", 165),
    ("pair-session-reset", 217),
    ("triangle-restart-quarantine", 20),
    ("reorder-at-bound", 361),
];

/// Explore the named sound scenario with POR on and compare its stats
/// and its pinned [`INTERNED`] count.
fn assert_sound_counts(name: &str, want: Counts) {
    let s = suite().into_iter().find(|s| s.name == name).expect("scenario in the suite");
    let (o, interned) = explore_interned(&s, ChannelMutant::None, true);
    assert!(matches!(o, Outcome::Holds(_)), "{name}: must hold, got {:?}", o.stats());
    assert_eq!(counts(o.stats()), want, "{name}: (states, transitions, ample, deepest, truncated)");
    let pinned = INTERNED.iter().find(|&&(n, _)| n == name).map(|&(_, k)| k);
    assert_eq!(Some(interned), pinned, "{name}: channel encodings interned");
}

#[test]
fn small_sound_scenarios_explore_exactly_the_pinned_space() {
    assert_sound_counts("pair-crash-restart", (443, 738, 0, 16, false));
    assert_sound_counts("ring6-hello-mesh", (3_264, 4_790, 1_310, 42, false));
}

#[test]
fn mutant_searches_and_counterexamples_are_pinned() {
    let want: [(&str, usize, usize, &str); 4] = [
        (
            "ignore-addressing",
            64,
            82,
            "mdr-verify-replay v1\n\
             scenario pair-crash-restart\n\
             mutant ignore-addressing\n\
             hello-timer 1 0\n\
             deliver 1 0 1 0 0 1 1 hello\n\
             hello-timer 0 1\n\
             crash-restart 1\n\
             deliver 0 1 1 1 1 1 1 hello\n",
        ),
        (
            "skip-session-bump",
            106,
            154,
            "mdr-verify-replay v1\n\
             scenario pair-session-reset\n\
             mutant skip-session-bump\n\
             send 0 1\n\
             deliver 0 1 1 0 0 1 1 data 1 1\n\
             deliver 1 0 1 1 1 1 1 ack 1\n\
             dead-expiry 0 1\n\
             deliver 1 0 1 1 1 1 1 ack 1\n",
        ),
        (
            "ack-beyond-delivered",
            57,
            94,
            "mdr-verify-replay v1\n\
             scenario pair-bringup-transfer\n\
             mutant ack-beyond-delivered\n\
             send 0 1\n\
             send 0 1\n\
             deliver 0 1 1 0 0 1 1 data 2 2\n\
             deliver 1 0 1 1 1 1 1 ack 2\n",
        ),
        (
            "first-proof-release",
            1_070,
            2_167,
            "mdr-verify-replay v1\n\
             scenario triangle-first-proof\n\
             mutant none\n\
             hello-timer 0 1\n\
             deliver 0 1 1 0 0 1 1 hello\n\
             crash-restart 0\n\
             hello-timer 0 2\n\
             deliver 0 2 2 0 0 1 2 hello\n\
             hello-timer 2 0\n\
             deliver 2 0 1 2 1 1 1 hello\n\
             release-quarantine 0\n",
        ),
    ];
    let cases = mutant_cases();
    assert_eq!(cases.len(), want.len(), "one pin per mutant case");
    for (c, (name, states, transitions, replay)) in cases.iter().zip(want) {
        assert_eq!(c.name, name, "mutant case order");
        let o = explore(&c.scenario, c.mutant, true);
        let st = o.stats();
        let Outcome::Violated(cx, _) = o else {
            panic!("{name}: the mutant must be refuted, got {st:?}");
        };
        assert_eq!((st.states, st.transitions), (states, transitions), "{name}: counts");
        assert_eq!(to_replay(c.scenario.name, c.mutant, &cx.trace), replay, "{name}: trace");
    }
}

#[test]
#[ignore = "tens of seconds in release; run by the mdr-verify CI job"]
fn large_sound_scenarios_explore_exactly_the_pinned_space() {
    assert_sound_counts("pair-bringup-transfer", (125_306, 574_979, 0, 20, false));
    assert_sound_counts("pair-session-reset", (72_419, 197_577, 0, 19, false));
    assert_sound_counts("triangle-restart-quarantine", (68_499, 219_176, 528, 31, false));
    assert_sound_counts("reorder-at-bound", (358_780, 1_133_228, 0, 25, false));
}
