//! Order statistics and host readings (`/proc`), shared by the runner,
//! the probes and `compare`.

/// Sorted copy of `xs` (total order, so NaN cannot panic the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `xs` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    let Some(&last) = v.last() else { return 0.0 };
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    match v.get(lo + 1) {
        Some(&hi) => v[lo] + (hi - v[lo]) * frac,
        None => last,
    }
}

/// Median of `xs`; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The low median of `xs`: the middle element, or the lower of the two
/// middle ones. Used for wall times of a handful of passes, where a
/// single slow pass must not move the result even when there are only
/// two of them.
pub fn median_low(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        0.0
    } else {
        v[(v.len() - 1) / 2]
    }
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the acceptance procedure uses. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method),
/// so the number printed here is the number the driver computes.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        // Exclusive method: position k·(n+1)/4, 1-based, clamped.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / med.abs()
    }
}

/// One field of `/proc/self/status`, in kB.
fn status_kb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has consumed (user + system), seconds: the
/// first field of `/proc/self/schedstat`, which counts nanoseconds where
/// `utime + stime` of `/proc/self/stat` count 10 ms ticks.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Cores the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_low(&xs), 2.0);
        assert_eq!(median_low(&[5.0, 1.0, 9.0]), 5.0);
        assert_eq!(median_low(&[]), 0.0);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }

    #[test]
    fn host_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        assert!(cpu_seconds() >= 0.0);
    }
}
