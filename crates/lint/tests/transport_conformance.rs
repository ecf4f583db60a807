//! Checker self-validation and checker↔implementation conformance.
//!
//! A model checker that blesses a broken protocol is worse than no
//! checker, so every deliberately unsound transition relation
//! ([`mdr_node::ChannelMutant`], plus one unsound release policy) must
//! (a) produce a counterexample, (b) of the *expected* violation
//! class, (c) that is minimal enough to read (BFS guarantees
//! length-minimality; we pin a small absolute bound so regressions
//! that bloat traces fail loudly), and (d) that survives the
//! serialize → parse → replay round trip: the textual counterexample,
//! run back through a *fresh* world of real `PeerChannel`s, must
//! reproduce the same violation at its final step.
//!
//! The mutant searches are tiny (tens to ~1000 states), so this runs
//! under plain `cargo test` (debug); the full sound-suite exhaustion
//! is the release-mode `mdr-verify` CI job's business.

use mdr_lint::por::Outcome;
use mdr_lint::transport::{
    explore, mutant_cases, parse_replay, replay, suite, to_replay, violation_class,
};
use mdr_node::ChannelMutant;

#[test]
fn every_mutant_yields_a_minimal_replayable_counterexample() {
    let cases = mutant_cases();
    assert!(cases.len() >= 4, "self-validation needs all four unsound relations");
    for c in cases {
        let cx = match explore(&c.scenario, c.mutant, true) {
            Outcome::Violated(cx, _) => cx,
            other => panic!(
                "mutant `{}`: the checker must refute the unsound relation, got {:?}",
                c.name,
                other.stats()
            ),
        };
        assert_eq!(
            violation_class(&cx.violation),
            c.expected_class,
            "mutant `{}`: wrong violation class: {}",
            c.name,
            cx.violation
        );
        // BFS makes the trace length-minimal; the absolute bound keeps
        // counterexamples human-readable and catches search regressions.
        assert!(
            cx.trace.len() <= 12,
            "mutant `{}`: counterexample ballooned to {} steps",
            c.name,
            cx.trace.len()
        );
        let text = to_replay(c.scenario.name, c.mutant, &cx.trace);
        let parsed = parse_replay(&text)
            .unwrap_or_else(|e| panic!("mutant `{}`: replay did not round-trip: {e}", c.name));
        assert_eq!(parsed.scenario, c.scenario.name);
        assert_eq!(parsed.mutant, c.mutant);
        assert_eq!(parsed.actions.len(), cx.trace.len());
        let reproduced = replay(&c.scenario, parsed.mutant, &parsed.actions)
            .unwrap_or_else(|e| panic!("mutant `{}`: replay diverged: {e}", c.name));
        assert_eq!(
            violation_class(&reproduced),
            c.expected_class,
            "mutant `{}`: replay reproduced a different class: {}",
            c.name,
            reproduced
        );
    }
}

#[test]
fn sound_channels_pass_every_mutant_scenario() {
    // The exact scenarios that refute the mutants must hold for the
    // real transition relation — otherwise the "counterexamples" above
    // would prove nothing about the mutants. The first-proof case's
    // unsoundness lives in the scenario's release policy rather than
    // the channel relation, so the sound counterpart restores the
    // sound policy. Debug-budgeted: shallow depth, enough to cross
    // each scenario's fault window.
    use mdr_node::ReleasePolicy;
    for c in mutant_cases() {
        let mut s = c.scenario;
        if s.policy == Some(ReleasePolicy::FirstProof) {
            s.policy = Some(ReleasePolicy::AllNeighborsProven);
        }
        s.depth = s.depth.min(10);
        match explore(&s, ChannelMutant::None, true) {
            Outcome::Holds(st) => assert!(st.states > 0),
            Outcome::Violated(cx, _) => {
                panic!("sound relation violated `{}`: {}", s.name, cx.violation)
            }
            Outcome::Capped(_) => panic!("`{}` hit the state cap at depth 10", s.name),
        }
    }
}

#[test]
fn replay_rejects_traces_that_do_not_reach_a_violation() {
    // A prefix of a real counterexample must be rejected: the replay
    // contract is "the violation fires exactly at the last step".
    let c = mutant_cases()
        .into_iter()
        .find(|c| c.name == "ignore-addressing")
        .expect("ignore-addressing case present");
    let cx = match explore(&c.scenario, c.mutant, true) {
        Outcome::Violated(cx, _) => cx,
        _ => panic!("search must refute ignore-addressing"),
    };
    let prefix = &cx.trace[..cx.trace.len() - 1];
    let err = replay(&c.scenario, c.mutant, prefix)
        .expect_err("a violation-free prefix must not count as a reproduction");
    assert!(err.contains("no violation"), "unexpected error: {err}");
}

#[test]
fn suite_scenarios_resolve_for_replay_headers() {
    // Every replay header written by `to_replay` must name a scenario
    // that `suite`/`mutant_cases` can resolve again — the off-line
    // debugging loop (save counterexample, replay later) depends on it.
    let known: Vec<&str> = suite()
        .iter()
        .map(|s| s.name)
        .chain(mutant_cases().iter().map(|c| c.scenario.name))
        .collect();
    for c in mutant_cases() {
        assert!(
            known.contains(&c.scenario.name),
            "mutant `{}` references unknown scenario `{}`",
            c.name,
            c.scenario.name
        );
    }
}

#[test]
fn replay_rejects_actions_the_checker_never_takes() {
    // A hand-edited trace must not "conform" by running actions that no
    // exploration could take: a node that does not exist, a spent send
    // budget, a frame that was never sent. Each is a replay error at its
    // own step, never a panic and never a silent run.
    use mdr_lint::transport::{FBody, Frame, TAction};
    let find = |name: &str| suite().into_iter().find(|s| s.name == name).expect("scenario");
    let expect_error = |scenario: &str, actions: &[TAction], step: usize| {
        let err = replay(&find(scenario), ChannelMutant::None, actions)
            .expect_err("an action outside the candidates must not replay");
        assert!(err.starts_with("replay-error:"), "{scenario}: {err}");
        assert!(err.contains(&format!("step {step} ")), "{scenario}: wrong step: {err}");
    };
    expect_error("pair-crash-restart", &[TAction::CrashRestart(7)], 1);
    expect_error("pair-crash-restart", &[TAction::HelloFire(0, 5)], 1);
    // pair-session-reset lets node 0 queue two payloads toward node 1.
    let send = TAction::SendLsu(0, 1);
    expect_error("pair-session-reset", &[send.clone(), send.clone(), send], 3);
    let ghost = Frame {
        src: 0,
        dst: 1,
        inc: 1,
        for_inc: 0,
        for_session: 0,
        session: 1,
        gen: 1,
        body: FBody::Hello,
    };
    expect_error("pair-session-reset", &[TAction::Deliver(ghost)], 1);
}
