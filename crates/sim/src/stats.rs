//! Measurement: per-flow delay statistics, per-link utilization, and
//! time-series sampling for dynamic experiments.

use serde::{Deserialize, Serialize};

/// Geometric-bucket delay histogram: 10 µs to ~1000 s in 10%-wide
/// buckets, enough resolution for meaningful tail percentiles without
/// storing samples.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelayHistogram {
    buckets: Vec<u64>,
}

/// Smallest bucket edge (seconds).
const HIST_MIN: f64 = 1e-5;
/// Geometric bucket growth.
const HIST_RATIO: f64 = 1.1;
/// Bucket count (covers up to HIST_MIN * 1.1^194 ≈ 1.1e3 s).
const HIST_BUCKETS: usize = 195;

impl Default for DelayHistogram {
    fn default() -> Self {
        DelayHistogram { buckets: vec![0; HIST_BUCKETS] }
    }
}

impl DelayHistogram {
    fn index(delay: f64) -> usize {
        if delay <= HIST_MIN {
            return 0;
        }
        let idx = (delay / HIST_MIN).ln() / HIST_RATIO.ln();
        (idx as usize).min(HIST_BUCKETS - 1)
    }

    /// Record one sample.
    pub fn record(&mut self, delay: f64) {
        self.buckets[Self::index(delay)] += 1;
    }

    /// Record `n` samples at the same delay (fluid mode converts a
    /// packet *rate* held over an interval into a packet count).
    pub fn record_n(&mut self, delay: f64, n: u64) {
        self.buckets[Self::index(delay)] += n;
    }

    /// Approximate quantile `q ∈ [0, 1]` (upper edge of the bucket
    /// containing the q-th sample); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return HIST_MIN * HIST_RATIO.powi(i as i32 + 1);
            }
        }
        HIST_MIN * HIST_RATIO.powi(HIST_BUCKETS as i32)
    }
}

/// End-to-end delay statistics of one flow (packets created after
/// warm-up only).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlowStats {
    /// Delivered packets.
    pub delivered: u64,
    /// Sum of end-to-end delays (s).
    pub delay_sum: f64,
    /// Sum of squared delays (for variance).
    pub delay_sq_sum: f64,
    /// Maximum observed delay (s).
    pub max_delay: f64,
    /// Packets dropped for lack of a route at some hop.
    pub dropped_no_route: u64,
    /// Packets dropped by the defensive TTL (must stay 0 under MPDA).
    pub dropped_ttl: u64,
    /// Packet-equivalents lost to saturated (ρ ≥ 1) links. Only fluid
    /// mode sets this: the packet engine queues rather than drops, while
    /// the fluid solver caps each link's carried rate at capacity and
    /// accounts the excess here.
    #[serde(default)]
    pub dropped_congestion: u64,
    /// Delay distribution for percentile queries.
    pub histogram: DelayHistogram,
}

impl FlowStats {
    /// Record one delivery.
    pub fn deliver(&mut self, delay: f64) {
        self.delivered += 1;
        self.delay_sum += delay;
        self.delay_sq_sum += delay * delay;
        self.histogram.record(delay);
        if delay > self.max_delay {
            self.max_delay = delay;
        }
    }

    /// Approximate delay percentile in seconds (e.g. `percentile(0.99)`).
    pub fn percentile(&self, q: f64) -> f64 {
        self.histogram.quantile(q)
    }

    /// Mean end-to-end delay in seconds (0 if nothing delivered).
    pub fn mean_delay(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.delay_sum / self.delivered as f64
        }
    }

    /// Delay standard deviation in seconds.
    pub fn std_delay(&self) -> f64 {
        if self.delivered < 2 {
            return 0.0;
        }
        let n = self.delivered as f64;
        let mean = self.delay_sum / n;
        ((self.delay_sq_sum / n - mean * mean).max(0.0)).sqrt()
    }
}

/// Utilization bookkeeping of one directed link.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Bits serialized (after warm-up).
    pub bits: f64,
    /// Packets serialized (after warm-up).
    pub packets: u64,
    /// Sum of (queueing + transmission) delays at this link (s).
    pub delay_sum: f64,
    /// Maximum queue length observed (packets).
    pub max_queue: usize,
}

impl LinkStats {
    /// Mean utilization over a measurement span of `duration` seconds
    /// given the link capacity.
    pub fn utilization(&self, capacity: f64, duration: f64) -> f64 {
        if duration <= 0.0 {
            0.0
        } else {
            self.bits / (capacity * duration)
        }
    }
}

/// Bucket width of both engines' per-flow delay series (seconds).
pub(crate) const SERIES_BUCKET: f64 = 1.0;

/// A per-flow time series of windowed mean delays, for the dynamic
/// experiments (delay vs. time plots).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelaySeries {
    /// Bucket width in seconds.
    pub bucket: f64,
    /// Per-flow, per-bucket `(sum, count)` accumulators.
    acc: Vec<Vec<(f64, u64)>>,
}

/// An empty zero-flow series (what `mem::take` leaves behind when the
/// simulator hands its series to the report).
impl Default for DelaySeries {
    fn default() -> Self {
        DelaySeries { bucket: SERIES_BUCKET, acc: Vec::new() }
    }
}

impl DelaySeries {
    /// Series for `flows` flows with the given bucket width.
    pub fn new(flows: usize, bucket: f64) -> Self {
        DelaySeries { bucket, acc: vec![Vec::new(); flows] }
    }

    /// Record a delivery of flow `flow` at time `now` with delay `d`.
    pub fn record(&mut self, flow: usize, now: f64, d: f64) {
        let idx = (now / self.bucket) as usize;
        let row = &mut self.acc[flow];
        if row.len() <= idx {
            row.resize(idx + 1, (0.0, 0));
        }
        row[idx].0 += d;
        row[idx].1 += 1;
    }

    /// Record a fluid delivery: `pkts_per_s` packet-equivalents per
    /// second of flow `flow`, all at delay `d`, held over `[from, to)`.
    /// The mass is split across bucket boundaries by overlap so the
    /// series stays comparable with packet mode's per-delivery records.
    pub fn record_mass(&mut self, flow: usize, from: f64, to: f64, pkts_per_s: f64, d: f64) {
        if to <= from || pkts_per_s <= 0.0 {
            return;
        }
        let first = (from / self.bucket) as usize;
        let last = (to / self.bucket) as usize;
        let row = &mut self.acc[flow];
        if row.len() <= last {
            row.resize(last + 1, (0.0, 0));
        }
        for (idx, slot) in row.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = (idx as f64 * self.bucket).max(from);
            let hi = ((idx + 1) as f64 * self.bucket).min(to);
            let pkts = (pkts_per_s * (hi - lo).max(0.0)).round() as u64;
            if pkts > 0 {
                slot.0 += d * pkts as f64;
                slot.1 += pkts;
            }
        }
    }

    /// Mean delay of `flow` per bucket (`None` buckets had no
    /// deliveries).
    pub fn series(&self, flow: usize) -> Vec<Option<f64>> {
        self.acc[flow].iter().map(|&(s, c)| if c > 0 { Some(s / c as f64) } else { None }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_stats_mean_and_std() {
        let mut s = FlowStats::default();
        s.deliver(1.0);
        s.deliver(3.0);
        assert_eq!(s.mean_delay(), 2.0);
        assert_eq!(s.max_delay, 3.0);
        assert!((s.std_delay() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_flow_stats() {
        let s = FlowStats::default();
        assert_eq!(s.mean_delay(), 0.0);
        assert_eq!(s.std_delay(), 0.0);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = DelayHistogram::default();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3); // 1 ms .. 1 s uniform
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Bucketing is 10% wide: generous brackets.
        assert!((0.4..0.62).contains(&p50), "p50 {p50}");
        assert!((0.85..1.25).contains(&p99), "p99 {p99}");
        assert!(h.quantile(0.0) > 0.0);
        assert!(h.quantile(1.0) >= p99);
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let h = DelayHistogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        let mut h = DelayHistogram::default();
        h.record(0.0); // below the smallest edge
        h.record(1e9); // beyond the largest edge
        assert!(h.quantile(0.1) > 0.0);
        assert!(h.quantile(0.9).is_finite());
    }

    #[test]
    fn flow_stats_percentiles() {
        let mut s = FlowStats::default();
        for _ in 0..90 {
            s.deliver(0.001);
        }
        for _ in 0..10 {
            s.deliver(0.1);
        }
        assert!(s.percentile(0.5) < 0.002);
        assert!(s.percentile(0.95) > 0.05);
    }

    #[test]
    fn utilization() {
        let s = LinkStats { bits: 5e6, packets: 5000, delay_sum: 1.0, max_queue: 3 };
        assert!((s.utilization(1e7, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(s.utilization(1e7, 0.0), 0.0);
    }

    #[test]
    fn delay_series_buckets() {
        let mut ds = DelaySeries::new(2, 1.0);
        ds.record(0, 0.5, 2.0);
        ds.record(0, 0.9, 4.0);
        ds.record(0, 2.1, 10.0);
        let s = ds.series(0);
        assert_eq!(s[0], Some(3.0));
        assert_eq!(s[1], None);
        assert_eq!(s[2], Some(10.0));
        assert!(ds.series(1).is_empty());
    }
}
