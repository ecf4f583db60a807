//! Stateful per-router flow allocator: chooses between IH and AH and
//! implements the single-path (SP) restriction used as the baseline in
//! the paper's evaluation.

use crate::heuristics::{incremental_adjustment_gained, initial_assignment, SuccessorCost};
use crate::params::DestParams;
use mdr_net::NodeId;
use serde::Serialize;

/// Forwarding discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// MP: distribute over the whole successor set with IH/AH.
    Multipath,
    /// SP: all traffic to the best successor (the paper's stand-in for
    /// single shortest-path routing, benefiting from MPDA's
    /// instantaneous loop-freedom).
    SinglePath,
}

/// Why the allocator is being updated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// Long-term (`T_l`) routing-path change: always redistribute
    /// freshly with IH.
    LongTerm,
    /// Short-term (`T_s`) link-cost refresh: adjust incrementally with
    /// AH — unless the successor set changed, in which case IH runs
    /// (the paper's heuristics "assume a constant successor set").
    ShortTerm,
}

/// Which heuristic an [`Allocator::update`] actually ran — published by
/// the telemetry layer as `AllocShift` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum AllocHeuristic {
    /// SP mode: all traffic to the best successor.
    BestPath,
    /// IH — fresh initial assignment (Fig. 6).
    Initial,
    /// AH — incremental adjustment (Fig. 7).
    Incremental,
}

/// What an [`Allocator::update`] (or [`Allocator::refresh`]) did: which
/// heuristic ran (`None` when nothing ran at all) and how much traffic
/// mass it moved — half the L1 distance between the old and new
/// parameters, so `shift ∈ [0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AllocOutcome {
    /// The heuristic that ran, if any.
    pub heuristic: Option<AllocHeuristic>,
    /// Traffic fraction moved.
    pub shift: f64,
}

/// Half the L1 distance between two parameter vectors: the total traffic
/// fraction that changed hands.
fn mass_shift(old: &DestParams, new: &DestParams) -> f64 {
    let mut l1 = 0.0;
    for &(k, f) in new.pairs() {
        l1 += (f - old.fraction(k)).abs();
    }
    for &(k, f) in old.pairs() {
        if new.pairs().iter().all(|&(m, _)| m != k) {
            l1 += f;
        }
    }
    l1 / 2.0
}

/// Per-router allocator state across all destinations.
#[derive(Debug, Clone)]
pub struct Allocator {
    mode: Mode,
    params: Vec<DestParams>,
    /// The successor set each `params[j]` was computed over.
    basis: Vec<Vec<NodeId>>,
    /// AH step gain γ (see
    /// [`crate::heuristics::incremental_adjustment_gained`]).
    ah_gain: f64,
}

impl Allocator {
    /// Allocator for a network of `n` routers, with the paper-literal AH
    /// step (γ = 1).
    pub fn new(n: usize, mode: Mode) -> Self {
        Allocator {
            mode,
            params: vec![DestParams::new(); n],
            basis: vec![Vec::new(); n],
            ah_gain: 1.0,
        }
    }

    /// Set the AH gain γ (clamped to [0, 1]; 0 disables AH entirely,
    /// leaving the IH distribution in place — the `ablation_ah` arm).
    pub fn with_ah_gain(mut self, gain: f64) -> Self {
        self.ah_gain = gain.clamp(0.0, 1.0);
        self
    }

    /// The configured AH gain.
    pub fn ah_gain(&self) -> f64 {
        self.ah_gain
    }

    /// Forwarding discipline.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Update the parameters for destination `j` given the current
    /// successor set and marginal distances through each successor.
    /// Returns which heuristic ran and how much traffic mass it moved.
    pub fn update(
        &mut self,
        j: NodeId,
        successors: &[SuccessorCost],
        kind: Update,
    ) -> AllocOutcome {
        let changed = self.basis_differs(j, successors);
        let outcome = match self.mode {
            Mode::SinglePath => {
                // Best successor only; ties to the lower address (the
                // successor list from MPDA is address-sorted, and strict
                // `<` keeps the first minimum).
                let best = successors.iter().fold(None::<SuccessorCost>, |acc, s| match acc {
                    Some(b) if b.cost <= s.cost => Some(b),
                    _ => Some(*s),
                });
                let fresh = match best {
                    Some(b) => DestParams::from_pairs(vec![(b.neighbor, 1.0)]),
                    None => DestParams::new(),
                };
                let shift = mass_shift(&self.params[j.index()], &fresh);
                self.params[j.index()] = fresh;
                AllocOutcome { heuristic: Some(AllocHeuristic::BestPath), shift }
            }
            Mode::Multipath => {
                if kind == Update::LongTerm || changed {
                    // IH: long-term change, or the successor set moved
                    // under a short-term refresh.
                    let fresh = initial_assignment(successors);
                    let shift = mass_shift(&self.params[j.index()], &fresh);
                    self.params[j.index()] = fresh;
                    AllocOutcome { heuristic: Some(AllocHeuristic::Initial), shift }
                } else {
                    let shift = incremental_adjustment_gained(
                        &mut self.params[j.index()],
                        successors,
                        self.ah_gain,
                    );
                    AllocOutcome { heuristic: Some(AllocHeuristic::Incremental), shift }
                }
            }
        };
        if changed {
            let basis = &mut self.basis[j.index()];
            basis.clear();
            basis.extend(successors.iter().map(|s| s.neighbor));
        }
        debug_assert!(self.params[j.index()].validate().is_ok());
        outcome
    }

    /// Refresh after a routing-table change: redistribute with IH *only
    /// if* the successor set actually changed, otherwise leave the
    /// current parameters alone (the paper's heuristics "assume a
    /// constant successor set and successor graph" between changes).
    /// Returns what ran (nothing, when the set was unchanged).
    pub fn refresh(&mut self, j: NodeId, successors: &[SuccessorCost]) -> AllocOutcome {
        if self.basis_differs(j, successors) {
            self.update(j, successors, Update::LongTerm)
        } else {
            AllocOutcome::default()
        }
    }

    /// Is the offered successor set another than the one `params[j]`
    /// was computed over?
    fn basis_differs(&self, j: NodeId, successors: &[SuccessorCost]) -> bool {
        !self.basis[j.index()].iter().eq(successors.iter().map(|s| &s.neighbor))
    }

    /// Current parameters toward `j`.
    pub fn params(&self, j: NodeId) -> &DestParams {
        &self.params[j.index()]
    }

    /// Fraction of `j`-bound traffic forwarded to neighbor `k`.
    pub fn fraction(&self, j: NodeId, k: NodeId) -> f64 {
        self.params[j.index()].fraction(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn sc(k: u32, c: f64) -> SuccessorCost {
        SuccessorCost::new(n(k), c)
    }

    #[test]
    fn multipath_long_term_runs_ih() {
        let mut a = Allocator::new(4, Mode::Multipath);
        a.update(n(3), &[sc(1, 1.0), sc(2, 3.0)], Update::LongTerm);
        assert!((a.fraction(n(3), n(1)) - 0.75).abs() < 1e-12);
        assert!((a.fraction(n(3), n(2)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn multipath_short_term_same_set_runs_ah() {
        let mut a = Allocator::new(4, Mode::Multipath);
        a.update(n(3), &[sc(1, 1.0), sc(2, 3.0)], Update::LongTerm);
        a.update(n(3), &[sc(1, 1.0), sc(2, 3.0)], Update::ShortTerm);
        // AH drains the worse of two successors.
        assert!(a.fraction(n(3), n(2)) < 1e-12);
    }

    #[test]
    fn multipath_short_term_new_set_runs_ih() {
        let mut a = Allocator::new(4, Mode::Multipath);
        a.update(n(3), &[sc(1, 1.0)], Update::LongTerm);
        // Set changes (successor 2 appears): must re-run IH, not AH.
        a.update(n(3), &[sc(1, 1.0), sc(2, 3.0)], Update::ShortTerm);
        assert!((a.fraction(n(3), n(1)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn single_path_takes_best_only() {
        let mut a = Allocator::new(4, Mode::SinglePath);
        a.update(n(3), &[sc(1, 2.0), sc(2, 1.0)], Update::LongTerm);
        assert_eq!(a.fraction(n(3), n(2)), 1.0);
        assert_eq!(a.fraction(n(3), n(1)), 0.0);
    }

    #[test]
    fn single_path_tie_prefers_lower_address() {
        let mut a = Allocator::new(4, Mode::SinglePath);
        a.update(n(3), &[sc(1, 1.0), sc(2, 1.0)], Update::LongTerm);
        assert_eq!(a.fraction(n(3), n(1)), 1.0);
    }

    #[test]
    fn empty_successors_yield_empty_params() {
        let mut a = Allocator::new(4, Mode::Multipath);
        a.update(n(3), &[], Update::LongTerm);
        assert!(a.params(n(3)).is_empty());
        let mut a = Allocator::new(4, Mode::SinglePath);
        a.update(n(3), &[], Update::ShortTerm);
        assert!(a.params(n(3)).is_empty());
    }

    #[test]
    fn update_reports_heuristic_and_shift() {
        let mut a = Allocator::new(4, Mode::Multipath);
        let o = a.update(n(3), &[sc(1, 1.0), sc(2, 3.0)], Update::LongTerm);
        assert_eq!(o.heuristic, Some(AllocHeuristic::Initial));
        // From empty {} to {1: .75, 2: .25}: half the L1 distance is 0.5
        // (the empty side contributes nothing).
        assert!((o.shift - 0.5).abs() < 1e-12, "{o:?}");
        let o = a.update(n(3), &[sc(1, 1.0), sc(2, 3.0)], Update::ShortTerm);
        assert_eq!(o.heuristic, Some(AllocHeuristic::Incremental));
        // AH drains successor 2 (φ = 0.25 moved).
        assert!((o.shift - 0.25).abs() < 1e-12, "{o:?}");
    }

    #[test]
    fn refresh_reports_nothing_when_set_unchanged() {
        let mut a = Allocator::new(4, Mode::Multipath);
        a.update(n(3), &[sc(1, 1.0), sc(2, 3.0)], Update::LongTerm);
        let o = a.refresh(n(3), &[sc(1, 2.0), sc(2, 1.0)]);
        assert_eq!(o, AllocOutcome::default());
        let o = a.refresh(n(3), &[sc(1, 2.0)]);
        assert_eq!(o.heuristic, Some(AllocHeuristic::Initial));
        assert!(o.shift > 0.0);
    }

    #[test]
    fn single_path_shift_counts_rerouted_mass() {
        let mut a = Allocator::new(4, Mode::SinglePath);
        let o = a.update(n(3), &[sc(1, 2.0), sc(2, 1.0)], Update::LongTerm);
        assert_eq!(o.heuristic, Some(AllocHeuristic::BestPath));
        assert!((o.shift - 0.5).abs() < 1e-12);
        // Same best successor: no mass moves.
        let o = a.update(n(3), &[sc(1, 3.0), sc(2, 1.0)], Update::ShortTerm);
        assert!(o.shift.abs() < 1e-12);
    }

    #[test]
    fn set_shrink_on_short_term_triggers_ih() {
        let mut a = Allocator::new(4, Mode::Multipath);
        a.update(n(3), &[sc(1, 1.0), sc(2, 3.0)], Update::LongTerm);
        a.update(n(3), &[sc(2, 3.0)], Update::ShortTerm);
        assert_eq!(a.fraction(n(3), n(2)), 1.0);
        assert_eq!(a.fraction(n(3), n(1)), 0.0);
    }
}
