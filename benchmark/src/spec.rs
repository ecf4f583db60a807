//! The benchmark's contract: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. These tables are what the program emits
//! and what `compare` applies; a self-test holds `BENCHMARK.json` at the
//! repository root equal to them.

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 20;

/// `(name, unit, better, bound)` per gated metric. Every workload
/// reports every one of them.
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)` per per-layer metric. A traced run reports all
/// of them; a layer the workload does not exercise reads 0. Simulated
/// time has its own units (`sim_ms`, `sim_s`): it is a result of the
/// modelled network, the same on every run, not a time the host took.
pub const PER_LAYER: [(&str, &str, &str); 54] = [
    ("result.mean_delay_ms", "sim_ms", "lower"),
    ("result.mp_over_opt", "ratio", "lower"),
    ("result.ctrl_bytes", "bytes", "lower"),
    ("result.recovery_sim_s", "sim_s", "lower"),
    ("result.sim_s_per_host_s", "1/s", "higher"),
    ("routing.mpda.lsu_us_p50", "us", "lower"),
    ("routing.mpda.lsu_us_p99", "us", "lower"),
    ("routing.mpda.lsu_count", "count", "lower"),
    ("routing.mpda.mtu_runs", "count", "lower"),
    ("routing.mpda.entries_sent", "count", "lower"),
    ("routing.mpda.delta_us_p50", "us", "lower"),
    ("routing.mpda.delta_lsu_count", "count", "lower"),
    ("routing.spf.dijkstra_us", "us", "lower"),
    ("routing.share_est", "ratio", "lower"),
    ("flow.ih_us", "us", "lower"),
    ("flow.ah_us", "us", "lower"),
    ("opt.solve_s", "s", "lower"),
    ("opt.iters", "count", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.events_per_s", "1/s", "higher"),
    ("sim.engine.ns_per_event", "ns", "lower"),
    ("sim.events.push_pop_ns", "ns", "lower"),
    ("sim.fluid.ctrl_msgs", "count", "lower"),
    ("sim.fluid.lsu_per_s", "1/s", "higher"),
    ("sim.fluid.us_per_lsu", "us", "lower"),
    ("sim.fluid.epoch_ms", "ms", "lower"),
    ("sim.fluid.glue_share_est", "ratio", "lower"),
    ("sim.telemetry.overhead_ratio", "ratio", "lower"),
    ("sim.telemetry.events", "count", "lower"),
    ("sim.telemetry.route_changes", "count", "lower"),
    ("sim.telemetry.alloc_shifts", "count", "lower"),
    ("proto.lsu.encode_ns_per_entry", "ns", "lower"),
    ("proto.lsu.decode_ns_per_entry", "ns", "lower"),
    ("proto.wire.frame_us", "us", "lower"),
    ("proto.wire.unframe_us", "us", "lower"),
    ("node.core.datagrams", "count", "lower"),
    ("node.core.datagrams_per_s", "1/s", "higher"),
    ("node.core.bytes", "bytes", "lower"),
    ("node.core.records", "count", "lower"),
    ("node.core.ticks", "count", "lower"),
    ("node.core.on_datagram_us_p50", "us", "lower"),
    ("node.core.on_datagram_us_p99", "us", "lower"),
    ("node.core.on_tick_us_p50", "us", "lower"),
    ("node.reliable.lsu_roundtrip_us", "us", "lower"),
    ("node.reliable.encode_state_ns", "ns", "lower"),
    ("lint.transport.states", "count", "lower"),
    ("lint.transport.transitions", "count", "lower"),
    ("lint.transport.states_per_s", "1/s", "higher"),
    ("host.cpu_s", "s", "lower"),
    ("host.wall_spread", "ratio", "lower"),
    ("host.nproc", "count", "higher"),
    ("host.threads", "count", "lower"),
    ("host.passes", "count", "higher"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
];

/// The unit of metric `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

/// `(better, bound)` of end-to-end metric `name`; `None` for a
/// per-layer metric, which has no bound.
pub fn gate_of(name: &str) -> Option<(&'static str, f64)> {
    END_TO_END.iter().find(|&&(n, ..)| n == name).map(|&(_, _, better, bound)| (better, bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    /// `BENCHMARK.json`, with exactly the keys the contract names.
    #[derive(Debug, Deserialize)]
    struct Spec {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<WorkloadSpec>,
        end_to_end: Vec<MetricSpec>,
        per_layer: Vec<MetricSpec>,
    }

    #[derive(Debug, Deserialize)]
    struct WorkloadSpec {
        name: String,
        why: String,
    }

    #[derive(Debug, Deserialize)]
    struct MetricSpec {
        name: String,
        unit: String,
        better: String,
        #[serde(default)]
        bound: Option<f64>,
    }

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    fn benchmark_json() -> Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_states_these_tables() {
        let file = benchmark_json();
        assert_eq!(file.command, ["bash", "benchmark/run.sh"]);
        assert_eq!(file.paths, ["benchmark"]);
        assert_eq!(file.run_seconds, RUN_SECONDS);
        let names: Vec<&str> = file.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, crate::workloads::NAMES);
        let gated: Vec<_> = file
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str(), m.bound.expect("bound")))
            .collect();
        assert_eq!(gated, END_TO_END);
        let layers: Vec<_> = file
            .per_layer
            .iter()
            .map(|m| {
                assert!(m.bound.is_none(), "per-layer metrics have no bound: {m:?}");
                (m.name.as_str(), m.unit.as_str(), m.better.as_str())
            })
            .collect();
        assert_eq!(layers, PER_LAYER);
    }

    #[test]
    fn benchmark_json_meets_the_contract() {
        let s = benchmark_json();
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1..=60).contains(&s.run_seconds));
        assert!((1..=16).contains(&s.end_to_end.len()) && (1..=128).contains(&s.per_layer.len()));
        let mut names: Vec<&str> = Vec::new();
        for w in &s.workloads {
            assert!(is_name(&w.name), "{w:?}");
            assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'), "{w:?}");
            names.push(&w.name);
        }
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(is_name(&m.name) && is_unit(&m.unit), "{m:?}");
            assert!(m.better == "lower" || m.better == "higher", "{m:?}");
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{m:?}");
            names.push(&m.name);
        }
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s is gated");
        assert!(setup.unit == "s" && setup.better == "lower");
        assert!(
            s.end_to_end.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the widest bound"
        );
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "every name is used once");
    }
}
