//! `mdr-perf run` result files and `mdr-perf compare`: two sets of runs,
//! row by row (one row per metric and workload), under the bounds of
//! the benchmark's tables.

use crate::spec;
use crate::stats::{iqr_share, median};
use serde::{Deserialize, Serialize};

/// What `mdr-perf run` writes: where and how the runs were made, and
/// one row per (workload, metric).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunFile {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Cores the host offered.
    pub host_nproc: u64,
    /// Worker threads in every timed section.
    pub threads: u64,
    /// Seed of the first repetition; repetition `r` used `seed + r`.
    pub seed: u64,
    /// Repetitions of every workload, interleaved round-robin.
    pub reps: u64,
    /// Seconds each run measured for.
    pub seconds: f64,
    /// The values.
    pub rows: Vec<Row>,
}

/// The values of one metric on one workload, one per repetition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// `end_to_end`, `per_layer`, or `exact` (simulated results and work
    /// counts, which are functions of the seed alone).
    pub kind: String,
    /// Metric name.
    pub metric: String,
    /// Unit (empty for `exact` rows).
    pub unit: String,
    /// One value per repetition, in repetition order.
    pub values: Vec<f64>,
}

/// How a row of the second file stands against the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians differ by no more than the bound.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound: a regression.
    Worse,
    /// The run-to-run spread is wider than the bound and the two sets
    /// overlap, so the bound cannot be applied.
    Unresolved,
    /// An ungated row: the change is reported, not judged.
    Info,
    /// An `exact` row whose values agree bit for bit.
    Equal,
    /// An `exact` row whose values differ.
    Differs,
}

/// Judge `b` against `a` for a metric where `better` is `lower` or
/// `higher` and may worsen by the share `bound` of `a`'s median.
pub fn judge(a: &[f64], b: &[f64], better: &str, bound: f64) -> Verdict {
    // Fold "higher is better" onto "lower is better".
    let sign = if better == "higher" { -1.0 } else { 1.0 };
    let (ma, mb) = (median(a), median(b));
    let worse_by = sign * (mb - ma) / ma.abs();
    if iqr_share(a).max(iqr_share(b)) > bound {
        let (a, b): (Vec<f64>, Vec<f64>) =
            (a.iter().map(|v| v * sign).collect(), b.iter().map(|v| v * sign).collect());
        let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
        // Every run of one side beats every run of the other: the
        // spread does not hide the direction.
        return if max(&b) < min(&a) && worse_by < -bound {
            Verdict::Better
        } else if min(&b) > max(&a) && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Compare two result files; prints one line per row of `a` that `b`
/// also has. Returns the number of regressions (`worse` rows plus
/// `exact` rows that differ).
pub fn compare(a: &RunFile, b: &RunFile) -> usize {
    println!("a: commit {} seed {} reps {} seconds {}", a.commit, a.seed, a.reps, a.seconds);
    println!("b: commit {} seed {} reps {} seconds {}", b.commit, b.seed, b.reps, b.seconds);
    let same_inputs = a.seed == b.seed && a.reps == b.reps;
    if !same_inputs {
        println!("seeds differ: exact rows are functions of the seed and are not compared");
    }
    println!(
        "{:<17} {:<32} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "change", "spread", "bound"
    );
    let mut regressions = 0;
    for ra in &a.rows {
        let found = b
            .rows
            .iter()
            .find(|r| (&r.workload, &r.kind, &r.metric) == (&ra.workload, &ra.kind, &ra.metric));
        let Some(rb) = found else { continue };
        let (ma, mb) = (median(&ra.values), median(&rb.values));
        let spread = iqr_share(&ra.values).max(iqr_share(&rb.values));
        let (verdict, bound) = match (ra.kind.as_str(), spec::gate_of(&ra.metric)) {
            ("exact", _) if !same_inputs => continue,
            ("exact", _) => {
                let equal = ra.values.len() == rb.values.len()
                    && ra.values.iter().zip(&rb.values).all(|(x, y)| x.to_bits() == y.to_bits());
                (if equal { Verdict::Equal } else { Verdict::Differs }, None)
            }
            ("end_to_end", Some((better, bound))) => {
                (judge(&ra.values, &rb.values, better, bound), Some(bound))
            }
            _ => (Verdict::Info, None),
        };
        regressions += usize::from(matches!(verdict, Verdict::Worse | Verdict::Differs));
        let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() * 100.0 };
        println!(
            "{:<17} {:<32} {:>14.6} {:>14.6} {:>+7.1}% {:>6.1}% {:>6}  {}",
            ra.workload,
            ra.metric,
            ma,
            mb,
            change,
            spread * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            format!("{verdict:?}").to_lowercase(),
        );
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_bound_to_medians() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(judge(&a, &[10.5, 10.4, 10.6], "lower", 0.10), Verdict::Same);
        assert_eq!(judge(&a, &[11.5, 11.4, 11.6], "lower", 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &[8.5, 8.4, 8.6], "lower", 0.10), Verdict::Better);
        assert_eq!(judge(&a, &[8.5, 8.4, 8.6], "higher", 0.10), Verdict::Worse);
    }

    #[test]
    fn judge_reports_wide_spread_as_unresolved() {
        let noisy = [10.0, 14.0, 8.0, 12.0];
        assert_eq!(judge(&noisy, &[11.0, 15.0, 9.0, 13.0], "lower", 0.10), Verdict::Unresolved);
        // Unless every run of one side beats every run of the other.
        assert_eq!(judge(&noisy, &[20.0, 28.0, 16.0, 24.0], "lower", 0.10), Verdict::Worse);
        assert_eq!(judge(&noisy, &[5.0, 7.0, 4.0, 6.0], "lower", 0.10), Verdict::Better);
    }
}
