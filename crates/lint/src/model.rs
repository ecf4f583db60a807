//! Exhaustive bounded model checking of MPDA's Loop-Free Invariant.
//!
//! The dynamic layers (the chaos harness, the invariant monitor, the
//! proptests) check LFI on *sampled* executions. This module checks it
//! on **all** of them, up to a depth bound: a breadth-first enumeration
//! of every interleaving of
//!
//! * message deliveries (per-directed-edge reliable FIFO channels — the
//!   paper's §4.1 link model),
//! * message losses (an optional lossy mode: the head of any channel
//!   may vanish, modelling frames destroyed beyond what the ARQ layer
//!   recovers — MPDA's *safety* must survive even where its liveness
//!   cannot), and
//! * environment actions (link-cost changes, wire cuts that also
//!   destroy in-flight messages, repairs) applied in program order but
//!   at any point relative to deliveries,
//!
//! asserting the full LFI check [`mdr_routing::lfi::check`] — both
//! acyclicity and FD ordering — in **every reachable state**. States
//! are deduplicated on the routers' canonical
//! [`MpdaRouter::encode_state`] encoding plus channel contents, so the
//! exploration is exhaustive over distinct protocol states, not merely
//! over action sequences. Because the search is breadth-first, a
//! reported counterexample trace is minimal in length.
//!
//! Every enabled action is expanded at every state: the checker takes
//! no partial-order reduction. A scenario that holds without
//! [`por::Stats::truncated`] is therefore a proof over its whole
//! bounded state space with no unproven step; one that holds truncated
//! (`diamond-flap`) is a proof over every run up to its depth bound.

use crate::por::{self, CheckWorld, Cx, Outcome, Successor};
use mdr_net::NodeId;
use mdr_proto::LsuMessage;
use mdr_routing::lfi;
use mdr_routing::mpda::{MpdaRouter, RouterEvent, UpdateRule};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// An environment perturbation. The schedule is a fixed sequence, but
/// the checker interleaves *when* each step lands freely against
/// deliveries and losses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EnvAction {
    /// Cut the physical wire `a — b`: in-flight messages in both
    /// directions are destroyed and both endpoints see `LinkDown`.
    WireDown(u32, u32),
    /// Repair the wire at the given cost; both endpoints see `LinkUp`.
    WireUp(u32, u32, f64),
    /// Router `at` measures a new cost on its directed link to `to`.
    CostChange {
        /// Observing router.
        at: u32,
        /// Far end of the adjacent link.
        to: u32,
        /// New marginal-delay cost.
        cost: f64,
    },
}

impl fmt::Display for EnvAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvAction::WireDown(a, b) => write!(f, "wire-down {a}–{b}"),
            EnvAction::WireUp(a, b, c) => write!(f, "wire-up {a}–{b} cost {c}"),
            EnvAction::CostChange { at, to, cost } => {
                write!(f, "cost-change at {at}: link to {to} := {cost}")
            }
        }
    }
}

/// One step of a counterexample trace.
#[derive(Debug, Clone)]
pub enum Action {
    /// Deliver the head-of-queue LSU on channel `from → to`.
    Deliver {
        /// Sender.
        from: u32,
        /// Receiver.
        to: u32,
        /// The message delivered (for trace printing).
        msg: LsuMessage,
    },
    /// Lose the head-of-queue LSU on channel `from → to`.
    Lose {
        /// Sender.
        from: u32,
        /// Receiver whose copy vanished.
        to: u32,
    },
    /// Apply environment step `index` of the schedule.
    Env(usize),
}

/// A model-checking scenario: topology + perturbation schedule + bounds.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Name, shown in reports.
    pub name: &'static str,
    /// Why this scenario is in the suite.
    pub what_it_traps: &'static str,
    /// Node count.
    pub n: usize,
    /// Undirected edges `(a, b, cost)` present at start.
    pub edges: Vec<(u32, u32, f64)>,
    /// Start from a converged network (`true`) or from cold with the
    /// bring-up itself interleaved (`false`; `edges` must then be empty
    /// and the bring-up expressed as [`EnvAction::WireUp`] steps).
    pub start_converged: bool,
    /// The perturbation schedule.
    pub env: Vec<EnvAction>,
    /// Depth bound (transitions along any path).
    pub depth: usize,
    /// Explore message-loss transitions too.
    pub lossy: bool,
}

/// The LFI transition system, fed to the shared [`por`] engine.
///
/// Holds a borrow of its scenario so clones (the engine branches by
/// cloning) copy only live protocol state.
#[derive(Clone)]
struct LfiWorld<'a> {
    s: &'a Scenario,
    routers: Vec<MpdaRouter>,
    /// Reliable FIFO channel per directed adjacent pair.
    chans: BTreeMap<(u32, u32), VecDeque<LsuMessage>>,
    /// Next unapplied env step.
    env_idx: usize,
}

impl LfiWorld<'_> {
    fn encode(&self) -> Vec<u8> {
        let mut k = Vec::with_capacity(256);
        for r in &self.routers {
            r.encode_state(&mut k);
        }
        k.extend_from_slice(&(self.env_idx as u32).to_le_bytes());
        k.extend_from_slice(&(self.chans.len() as u32).to_le_bytes());
        for (&(a, b), q) in &self.chans {
            k.extend_from_slice(&a.to_le_bytes());
            k.extend_from_slice(&b.to_le_bytes());
            k.extend_from_slice(&(q.len() as u32).to_le_bytes());
            for m in q {
                k.extend_from_slice(&m.from.0.to_le_bytes());
                k.push(m.ack as u8);
                k.extend_from_slice(&(m.entries.len() as u32).to_le_bytes());
                for e in &m.entries {
                    k.push(e.op as u8);
                    k.extend_from_slice(&e.head.0.to_le_bytes());
                    k.extend_from_slice(&e.tail.0.to_le_bytes());
                    k.extend_from_slice(&e.cost.to_bits().to_le_bytes());
                }
            }
        }
        k
    }

    /// Feed `ev` to router `at` and enqueue its sends.
    fn dispatch(&mut self, at: u32, ev: RouterEvent) {
        let out = self.routers[at as usize].handle(ev);
        for s in out.sends {
            self.chans.entry((at, s.to.0)).or_default().push_back(s.msg);
        }
    }

    fn apply_env(&mut self, a: &EnvAction) {
        match *a {
            EnvAction::WireDown(x, y) => {
                // The wire dies with its in-flight frames; then both
                // ends detect the failure.
                self.chans.remove(&(x, y));
                self.chans.remove(&(y, x));
                self.dispatch(x, RouterEvent::LinkDown { to: NodeId(y) });
                self.dispatch(y, RouterEvent::LinkDown { to: NodeId(x) });
            }
            EnvAction::WireUp(x, y, c) => {
                self.dispatch(x, RouterEvent::LinkUp { to: NodeId(y), cost: c });
                self.dispatch(y, RouterEvent::LinkUp { to: NodeId(x), cost: c });
            }
            EnvAction::CostChange { at, to, cost } => {
                self.dispatch(at, RouterEvent::LinkCost { to: NodeId(to), cost });
            }
        }
    }

    /// Append every enabled action to `out`.
    fn enabled(&self, out: &mut Vec<Action>) {
        for (&(a, b), q) in &self.chans {
            if let Some(m) = q.front() {
                out.push(Action::Deliver { from: a, to: b, msg: m.clone() });
                if self.s.lossy {
                    out.push(Action::Lose { from: a, to: b });
                }
            }
        }
        if self.env_idx < self.s.env.len() {
            out.push(Action::Env(self.env_idx));
        }
    }

    /// Execute `act` (never fails: the LFI invariant is checked on
    /// states, not transitions).
    fn apply(&mut self, act: &Action) {
        match act {
            Action::Deliver { from, to, .. } => {
                let msg = match self.chans.get_mut(&(*from, *to)).and_then(|q| q.pop_front()) {
                    Some(m) => m,
                    None => return,
                };
                if self.chans.get(&(*from, *to)).is_some_and(|q| q.is_empty()) {
                    self.chans.remove(&(*from, *to));
                }
                let from = NodeId(*from);
                self.dispatch(to.to_owned(), RouterEvent::Lsu { from, msg });
            }
            Action::Lose { from, to } => {
                self.chans.get_mut(&(*from, *to)).and_then(|q| q.pop_front());
                if self.chans.get(&(*from, *to)).is_some_and(|q| q.is_empty()) {
                    self.chans.remove(&(*from, *to));
                }
            }
            Action::Env(i) => {
                let a = self.s.env[*i];
                self.apply_env(&a);
                self.env_idx = i + 1;
            }
        }
    }
}

impl CheckWorld for LfiWorld<'_> {
    type Action = Action;

    fn key(&self) -> Box<[u8]> {
        self.encode().into_boxed_slice()
    }

    /// Every enabled action, each applied to its own clone. The LFI
    /// checker takes no reduction, so `por` is ignored and nothing is
    /// ever pruned.
    fn expand(&self, _por: bool, out: &mut Vec<Successor<Self>>) -> bool {
        let mut enabled = Vec::new();
        self.enabled(&mut enabled);
        for action in enabled {
            let mut next = self.clone();
            next.apply(&action);
            let key = next.key();
            out.push((action, Ok((next, key))));
        }
        false
    }

    fn check(&self) -> Result<(), String> {
        let r = &self.routers;
        let succ = |i: NodeId, j| r[i.index()].successors(j);
        lfi::check(r.len(), succ, |i, j| r[i.index()].feasible_distance(j), |_, _| true)
            .map_err(|v| v.to_string())
    }
}

/// Build the initial world: routers (under `rule`), with `edges`
/// brought up and drained to quiescence when `start_converged`.
fn initial_world(s: &Scenario, rule: UpdateRule) -> LfiWorld<'_> {
    let mut w = LfiWorld {
        s,
        routers: (0..s.n).map(|i| MpdaRouter::with_rule(NodeId(i as u32), s.n, rule)).collect(),
        chans: BTreeMap::new(),
        env_idx: 0,
    };
    if s.start_converged {
        for &(a, b, c) in &s.edges {
            w.apply_env(&EnvAction::WireUp(a, b, c));
        }
        // Deterministic drain: always deliver the lowest nonempty
        // channel. Which interleaving is used here does not matter —
        // MPDA converges to the same tables — the model checking of
        // bring-up interleavings is its own scenario.
        let mut steps = 0u32;
        while let Some((&(a, b), _)) = w.chans.iter().find(|(_, q)| !q.is_empty()) {
            let msg = match w.chans.get_mut(&(a, b)).and_then(|q| q.pop_front()) {
                Some(m) => m,
                None => break,
            };
            w.dispatch(b, RouterEvent::Lsu { from: NodeId(a), msg });
            steps += 1;
            assert!(steps < 1_000_000, "bring-up failed to quiesce for {}", s.name);
        }
        w.chans.retain(|_, q| !q.is_empty());
    } else {
        assert!(s.edges.is_empty(), "cold-start scenarios bring links up via env actions");
    }
    w
}

/// Exhaustively explore `s` with routers running `rule`: every
/// interleaving is expanded.
pub fn explore(s: &Scenario, rule: UpdateRule, max_states: usize) -> Outcome<Action> {
    por::explore(initial_world(s, rule), s.depth, max_states, false)
}

/// Render a counterexample trace for humans.
pub fn render_trace(s: &Scenario, cx: &Cx<Action>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "counterexample for scenario `{}` ({} steps):\n",
        s.name,
        cx.trace.len()
    ));
    for (i, a) in cx.trace.iter().enumerate() {
        match a {
            Action::Deliver { from, to, msg } => {
                let entries: Vec<String> = msg
                    .entries
                    .iter()
                    .map(|e| format!("{:?} {}→{} cost {}", e.op, e.head.0, e.tail.0, e.cost))
                    .collect();
                out.push_str(&format!(
                    "  {:>3}. deliver LSU {from} → {to} (ack={}, entries=[{}])\n",
                    i + 1,
                    msg.ack,
                    entries.join(", ")
                ));
            }
            Action::Lose { from, to } => {
                out.push_str(&format!("  {:>3}. LOSE head-of-queue LSU {from} → {to}\n", i + 1));
            }
            Action::Env(idx) => {
                out.push_str(&format!("  {:>3}. env: {}\n", i + 1, s.env[*idx]));
            }
        }
    }
    out.push_str(&format!("  => {}\n", cx.violation));
    out
}

/// The built-in scenario suite: small topologies chosen to trap the
/// classic loop-forming situations (the paper's Fig. 2 bring-up race,
/// cost surges, the high-cost-detour failure trap, flapping links).
pub fn builtin_suite() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "triangle-bringup",
            what_it_traps: "every interleaving of a 3-node equal-cost bring-up, with losses — \
                            the Fig. 2 join race where neighbor tables lag the truth",
            n: 3,
            edges: vec![],
            start_converged: false,
            env: vec![
                EnvAction::WireUp(0, 1, 1.0),
                EnvAction::WireUp(0, 2, 1.0),
                EnvAction::WireUp(1, 2, 1.0),
            ],
            // The reachable space exhausts at depth 22 (27 936 states
            // unreduced) — this bound makes the exploration provably
            // complete, not merely bounded.
            depth: 24,
            lossy: true,
        },
        Scenario {
            name: "line3-cost-surge",
            what_it_traps: "a converged 3-node line whose middle link cost surges 1 → 10 on \
                            both ends at independent times — the long-term cost-change path \
                            (T_l quantized updates) that raises feasible distances",
            n: 3,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0)],
            start_converged: true,
            env: vec![
                EnvAction::CostChange { at: 1, to: 2, cost: 10.0 },
                EnvAction::CostChange { at: 2, to: 1, cost: 10.0 },
            ],
            // The reachable space exhausts at depth 9 — this bound makes
            // the exploration provably complete, not merely bounded.
            depth: 10,
            lossy: true,
        },
        Scenario {
            name: "square-detour-trap",
            what_it_traps: "the classic count-to-infinity trap: 1 loses its direct link to 3 \
                            and its only remaining path is a high-cost detour through 0 and 2 \
                            — a DV protocol loops here; MPDA's FD must not",
            n: 4,
            edges: vec![(0, 1, 1.0), (1, 3, 1.0), (0, 2, 10.0), (2, 3, 1.0)],
            start_converged: true,
            env: vec![EnvAction::WireDown(1, 3)],
            // The reachable space exhausts at depth 13 — this bound makes
            // the exploration provably complete, not merely bounded.
            depth: 14,
            lossy: true,
        },
        Scenario {
            name: "diamond-flap",
            what_it_traps: "an equal-cost diamond whose left edge flaps down and back up while \
                            the reconvergence from the cut is still in flight",
            n: 4,
            edges: vec![(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
            start_converged: true,
            env: vec![EnvAction::WireDown(0, 1), EnvAction::WireUp(0, 1, 1.0)],
            // Does not exhaust at feasible depths (the flap keeps
            // regenerating traffic); 13 is the deepest bound the
            // unreduced run affords (45 386 states).
            depth: 13,
            lossy: true,
        },
        Scenario {
            name: "pentagon-surge",
            what_it_traps: "a 5-node ring where one link's cost surges to just below the cost \
                            of the entire detour — successor sets flip network-wide with ties",
            n: 5,
            edges: vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 0, 1.0)],
            start_converged: true,
            env: vec![EnvAction::CostChange { at: 0, to: 1, cost: 4.0 }],
            // The reachable space exhausts at depth 8 — this bound makes
            // the exploration provably complete, not merely bounded.
            depth: 9,
            lossy: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle(depth: usize, lossy: bool) -> Scenario {
        Scenario {
            name: "test-triangle",
            what_it_traps: "",
            n: 3,
            edges: vec![(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)],
            start_converged: true,
            env: vec![EnvAction::CostChange { at: 0, to: 1, cost: 3.0 }],
            depth,
            lossy,
        }
    }

    #[test]
    fn sound_rule_holds_on_triangle() {
        match explore(&triangle(8, true), UpdateRule::Lfi, 1_000_000) {
            Outcome::Holds(st) => {
                assert!(st.states > 1, "must actually explore");
            }
            v => panic!("expected Holds, got {v:?}"),
        }
    }

    #[test]
    fn broken_rule_yields_counterexample_with_trace() {
        // The non-strict successor rule loops on an equal-cost triangle;
        // starting converged it is already violated at depth 0, so use a
        // cold bring-up to force a real, nonempty minimal trace.
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
        match explore(&s, UpdateRule::NonStrictSuccessors, 2_000_000) {
            Outcome::Violated(cx, _) => {
                assert!(!cx.trace.is_empty(), "cold start cannot be violated at depth 0");
                assert!(
                    cx.violation.contains("cycle") || cx.violation.contains("FD ordering"),
                    "violation must name the broken condition: {}",
                    cx.violation
                );
                let rendered = render_trace(&s, &cx);
                assert!(rendered.contains("env: wire-up"), "trace must show env actions");
            }
            v => panic!("expected Violated, got {v:?}"),
        }
    }

    #[test]
    fn state_cap_reports_capped() {
        match explore(&triangle(64, true), UpdateRule::Lfi, 10) {
            Outcome::Capped(st) => assert!(st.states > 10),
            v => panic!("expected Capped, got {v:?}"),
        }
    }

    #[test]
    fn bfs_traces_are_minimal() {
        // With the broken rule on a *converged* equal-cost triangle the
        // initial state itself violates LFI — the minimal trace is empty.
        match explore(&triangle(8, false), UpdateRule::NonStrictSuccessors, 1_000_000) {
            Outcome::Violated(cx, _) => assert!(cx.trace.is_empty()),
            v => panic!("expected Violated, got {v:?}"),
        }
    }

    #[test]
    fn losses_do_not_break_safety_only_liveness() {
        // Deliveries may vanish; the invariant must still hold in every
        // reachable state (stalled ACTIVE phases are a liveness loss
        // only). Small depth keeps this test fast; the full suite in CI
        // goes deeper.
        let mut s = triangle(6, true);
        s.env = vec![EnvAction::CostChange { at: 0, to: 1, cost: 5.0 }];
        match explore(&s, UpdateRule::Lfi, 2_000_000) {
            Outcome::Holds(_) => {}
            v => panic!("losses must not break safety: {v:?}"),
        }
    }
}
