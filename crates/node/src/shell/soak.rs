//! The soak harness: N live processes under random kill/restart and
//! receive-side UDP loss, audited from their merged telemetry traces.
//!
//! The schedule is drawn from a seeded RNG, so a failing soak replays
//! exactly from its seed. After the run the harness merges every
//! per-incarnation trace by hybrid logical clock and replays it through
//! [`crate::trace::audit_trace`] — the LFI safety checks run against
//! the *real* multi-process control plane. The report lands in
//! `soak.json` next to the traces.

use crate::record::{NodeRecord, RecordBody};
use crate::shell::launch::{spawn_node, topology, SpawnNet};
use crate::trace::{audit_trace, merge_lines, TraceAudit};
use mdr_net::NodeId;
use mdr_sim::chaos::{NetProfile, PartitionSpec};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::process::Child;
use std::time::{Duration, Instant};

/// Soak-run parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Topology name or spec path (see [`crate::shell::launch::topology`]).
    pub topo: String,
    /// Total run length (seconds), including the settle window.
    pub duration_s: f64,
    /// Kill/restart cycles to inject.
    pub kills: u32,
    /// Receive-side datagram loss probability per process.
    pub loss: f64,
    /// Master seed for the kill schedule and per-process loss streams.
    pub seed: u64,
    /// UDP port of node 0 (node `i` uses `base_port + i`).
    pub base_port: u16,
    /// Directory for traces and the report.
    pub out_dir: PathBuf,
    /// Structured impairment spec (see [`NetProfile::parse`]), layered
    /// on top of the i.i.d. `loss`.
    pub profile: Option<String>,
    /// `;`-separated scripted partition schedule, relative to soak
    /// start (see [`PartitionSpec::parse`]).
    pub partition: Option<String>,
    /// Adaptive (RFC 6298) retransmission timers; `false` pins the
    /// fixed backoff ladder for A/B comparisons.
    pub adaptive: bool,
}

impl SoakConfig {
    fn base(
        topo: &str,
        duration_s: f64,
        kills: u32,
        loss: f64,
        base_port: u16,
        out_dir: PathBuf,
    ) -> Self {
        SoakConfig {
            topo: topo.into(),
            duration_s,
            kills,
            loss,
            seed: 7,
            base_port,
            out_dir,
            profile: None,
            partition: None,
            adaptive: true,
        }
    }

    /// The CI smoke preset: 5 nodes, ~20 s, 2 kills, mild loss.
    pub fn smoke(out_dir: PathBuf) -> Self {
        Self::base("ring5", 20.0, 2, 0.02, 47000, out_dir)
    }

    /// The full acceptance soak: the CAIRN-derived 8-node subgraph,
    /// 10 kill/restart cycles, 5% receive loss.
    pub fn full(out_dir: PathBuf) -> Self {
        Self::base("cairn8", 45.0, 10, 0.05, 47100, out_dir)
    }

    /// Bursty-adversary preset: Gilbert–Elliott loss (60% inside
    /// bursts) plus a grey-failing data path, one kill on top.
    pub fn bursty(out_dir: PathBuf) -> Self {
        let mut cfg = Self::base("ring5", 25.0, 1, 0.0, 47200, out_dir);
        cfg.profile = Some("ge:0.05,0.4,0.01,0.6;grey:0.1,0.05".into());
        cfg
    }

    /// Partition/heal preset: nodes {0,1} cut off mid-run, healed with
    /// a settle window; recovery after the heal is measured and gated.
    pub fn partition(out_dir: PathBuf) -> Self {
        let mut cfg = Self::base("ring5", 25.0, 0, 0.01, 47300, out_dir);
        cfg.partition = Some("8:13:0|1".into());
        cfg
    }
}

/// What a soak run measured; serialized to `soak.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Routers.
    pub n: usize,
    /// Kill/restart cycles actually injected.
    pub kills: u32,
    /// Configured receive-loss probability.
    pub loss: f64,
    /// Schedule seed.
    pub seed: u64,
    /// Wall-clock run length (s).
    pub duration_s: f64,
    /// Malformed trace lines skipped by the merge (tails cut by kills).
    pub malformed_lines: u64,
    /// The merged-trace audit.
    pub audit: TraceAudit,
    /// Every child exited cleanly (the final generation; killed
    /// generations are expected casualties).
    pub clean_shutdown: bool,
    /// The impairment profile in force, if any.
    pub profile: Option<String>,
    /// The partition schedule in force, if any.
    pub partition: Option<String>,
    /// Whether the adaptive RTO was on (vs. the fixed backoff ladder).
    pub adaptive: bool,
    /// Number of partition heals scheduled inside the run.
    pub heals: u32,
    /// Nodes that re-converged after the *last* heal.
    pub heal_converged: u32,
    /// Worst-case span from the last heal to a node's re-convergence
    /// (s) — the partition-recovery figure of merit.
    pub heal_recovery_s: Option<f64>,
}

impl SoakReport {
    /// The pass criterion: zero LFI violations, every final life
    /// converged, clean shutdown — and, under a partition schedule,
    /// every router re-converging after the last heal.
    pub fn passed(&self) -> bool {
        self.audit.monitor.violations == 0
            && self.audit.unconverged.is_empty()
            && self.clean_shutdown
            && (self.heals == 0 || self.heal_converged as usize == self.n)
    }
}

/// Post-heal recovery from the merged trace: for every node, the span
/// from the heal instant (Unix seconds) to its first `converged` record
/// after it. Returns the number of nodes that re-converged and the
/// worst span among them. The audit's `start → converged` recoveries
/// only time process (re)starts; a partition perturbs routing *without*
/// restarting anyone, so the heal clock has to be read separately.
fn heal_recovery(n: usize, records: &[NodeRecord], heal_wall: f64) -> (u32, Option<f64>) {
    let heal_l = (heal_wall * 1e6) as u64;
    let mut seen = vec![false; n];
    let mut worst: Option<f64> = None;
    let mut converged = 0u32;
    for rec in records {
        if rec.hlc.l < heal_l || !matches!(rec.body, RecordBody::Converged) {
            continue;
        }
        let i = rec.node.index();
        if i < n && !seen[i] {
            seen[i] = true;
            converged += 1;
            let s = rec.hlc.l.saturating_sub(heal_l) as f64 / 1e6;
            worst = Some(worst.map_or(s, |w: f64| w.max(s)));
        }
    }
    (converged, worst)
}

impl Serialize for SoakReport {
    fn serialize_value(&self) -> Value {
        let recoveries = self
            .audit
            .recoveries
            .iter()
            .map(|r| {
                Value::Map(vec![
                    ("node".into(), Value::U64(r.node.0 as u64)),
                    ("inc".into(), Value::U64(r.incarnation as u64)),
                    ("recovery_s".into(), Value::F64(r.recovery_s)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("n".into(), Value::U64(self.n as u64)),
            ("kills".into(), Value::U64(self.kills as u64)),
            ("loss".into(), Value::F64(self.loss)),
            ("seed".into(), Value::U64(self.seed)),
            ("duration_s".into(), Value::F64(self.duration_s)),
            ("records".into(), Value::U64(self.audit.records)),
            ("malformed_lines".into(), Value::U64(self.malformed_lines)),
            ("lfi_checks".into(), Value::U64(self.audit.monitor.checks)),
            ("lfi_violations".into(), Value::U64(self.audit.monitor.violations)),
            (
                "first_violation".into(),
                match &self.audit.monitor.first_violation {
                    Some(s) => Value::Str(s.clone()),
                    None => Value::Null,
                },
            ),
            ("recoveries".into(), Value::Seq(recoveries)),
            (
                "max_recovery_s".into(),
                match self.audit.max_recovery_s() {
                    Some(x) => Value::F64(x),
                    None => Value::Null,
                },
            ),
            ("interrupted_lives".into(), Value::U64(self.audit.interrupted.len() as u64)),
            ("unconverged_final".into(), Value::U64(self.audit.unconverged.len() as u64)),
            ("clean_shutdown".into(), Value::Bool(self.clean_shutdown)),
            (
                "profile".into(),
                match &self.profile {
                    Some(s) => Value::Str(s.clone()),
                    None => Value::Null,
                },
            ),
            (
                "partition".into(),
                match &self.partition {
                    Some(s) => Value::Str(s.clone()),
                    None => Value::Null,
                },
            ),
            ("adaptive".into(), Value::Bool(self.adaptive)),
            ("heals".into(), Value::U64(self.heals as u64)),
            ("heal_converged".into(), Value::U64(self.heal_converged as u64)),
            (
                "heal_recovery_s".into(),
                match self.heal_recovery_s {
                    Some(x) => Value::F64(x),
                    None => Value::Null,
                },
            ),
            ("passed".into(), Value::Bool(self.passed())),
        ])
    }
}

/// Run the soak: spawn one process per router, inject the kill/restart
/// schedule, wait for clean exits, merge and audit the traces, and
/// write `soak.json` into the output directory.
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, String> {
    let topo = topology(&cfg.topo)?;
    let n = topo.node_count();
    if cfg.duration_s <= 2.0 {
        return Err("soak duration must exceed the 2 s settle window".into());
    }
    // Validate the adversary spec up front (the children would only
    // fail one by one) and extract the partition schedule so the heal
    // clock below knows when to start.
    if let Some(p) = &cfg.profile {
        NetProfile::parse(p, cfg.seed).map_err(|e| format!("profile: {e}"))?;
    }
    let partitions: Vec<PartitionSpec> = match &cfg.partition {
        None => Vec::new(),
        Some(spec) => {
            PartitionSpec::parse_schedule(spec, n).map_err(|e| format!("partition: {e}"))?
        }
    };
    for p in &partitions {
        if p.heal_at >= cfg.duration_s - 2.0 {
            return Err(format!(
                "partition heals at {:.1}s but the soak ends at {:.1}s — no settle window",
                p.heal_at, cfg.duration_s
            ));
        }
    }
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("create out dir: {e}"))?;

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    // Kill instants in the first ~70% of the run, sorted, leaving a
    // settle window for the final generation to reconverge.
    let mut kill_times: Vec<f64> =
        (0..cfg.kills).map(|_| rng.gen_range(0.15..0.7) * cfg.duration_s).collect();
    kill_times.sort_by(f64::total_cmp);
    let victims: Vec<u32> = (0..cfg.kills).map(|_| rng.gen_range(0..n as u32)).collect();

    let start = Instant::now();
    // The shared schedule epoch: every child — including respawns —
    // gets the same `t0`, so partition cuts and heals stay atomic
    // across the fleet and across restarts.
    let t0 = super::launch::unix_now();
    let elapsed = |start: Instant| start.elapsed().as_secs_f64();
    let mut incarnation: Vec<u32> = vec![1; n];
    let mut children: Vec<Child> = Vec::with_capacity(n);
    let mut trace_files: Vec<PathBuf> = Vec::new();
    let spawn = |node: NodeId,
                 inc: u32,
                 remaining: f64,
                 trace_files: &mut Vec<PathBuf>|
     -> Result<Child, String> {
        trace_files.push(cfg.out_dir.join(format!("node{}.inc{}.jsonl", node.0, inc)));
        let net = SpawnNet {
            loss: cfg.loss,
            seed: cfg.seed ^ ((node.0 as u64) << 32) ^ (inc as u64),
            profile: cfg.profile.clone(),
            partition: cfg.partition.clone(),
            profile_seed: cfg.seed,
            t0: Some(t0),
            adaptive: cfg.adaptive,
        };
        spawn_node(&cfg.topo, node, inc, cfg.base_port, &cfg.out_dir, remaining, &net)
            .map_err(|e| format!("spawn node {}: {e}", node.0))
    };

    for i in 0..n {
        let child = spawn(NodeId(i as u32), 1, cfg.duration_s, &mut trace_files)?;
        children.push(child);
    }

    let mut injected = 0u32;
    for (t, victim) in kill_times.iter().zip(&victims) {
        let wait = t - elapsed(start);
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        let v = *victim as usize;
        // SIGKILL: no cleanup, no flush — the hard-crash case.
        let _ = children[v].kill();
        let _ = children[v].wait();
        // A brief down time so the death is observable, then restart
        // with the incremented incarnation.
        std::thread::sleep(Duration::from_millis(200));
        incarnation[v] += 1;
        let remaining = (cfg.duration_s - elapsed(start)).max(3.0);
        children[v] = spawn(NodeId(*victim), incarnation[v], remaining, &mut trace_files)?;
        injected += 1;
    }

    // Children exit on their own deadlines; a generous grace period
    // guards against a hung child wedging CI forever.
    let mut clean = true;
    let grace = cfg.duration_s + 30.0;
    for (i, child) in children.iter_mut().enumerate() {
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    if !status.success() {
                        eprintln!("soak: node {i} exited with {status}");
                        clean = false;
                    }
                    break;
                }
                Ok(None) if elapsed(start) > grace => {
                    eprintln!("soak: node {i} hung; killing");
                    let _ = child.kill();
                    let _ = child.wait();
                    clean = false;
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                Err(e) => {
                    eprintln!("soak: wait node {i}: {e}");
                    clean = false;
                    break;
                }
            }
        }
    }

    let contents: Vec<String> =
        trace_files.iter().map(|p| std::fs::read_to_string(p).unwrap_or_default()).collect();
    let (records, malformed) = merge_lines(&contents);
    let audit = audit_trace(n, &records);
    // Time recovery from the *last* heal: by then every scripted cut is
    // over, so the reconvergence it measures is the true steady-state
    // repair (earlier heals may overlap later cuts).
    let last_heal = partitions.iter().map(|p| p.heal_at).fold(f64::NEG_INFINITY, f64::max);
    let (heal_converged, heal_recovery_s) =
        if partitions.is_empty() { (0, None) } else { heal_recovery(n, &records, t0 + last_heal) };

    let report = SoakReport {
        n,
        kills: injected,
        loss: cfg.loss,
        seed: cfg.seed,
        duration_s: elapsed(start),
        malformed_lines: malformed,
        audit,
        clean_shutdown: clean,
        profile: cfg.profile.clone(),
        partition: cfg.partition.clone(),
        adaptive: cfg.adaptive,
        heals: partitions.len() as u32,
        heal_converged,
        heal_recovery_s,
    };
    let json = serde_json::to_string_pretty(&report).map_err(|e| format!("serialize: {e}"))?;
    let path = cfg.out_dir.join("soak.json");
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_proto::HlcStamp;

    fn conv(l: u64, node: u32) -> NodeRecord {
        NodeRecord {
            hlc: HlcStamp { l, c: 0 },
            node: NodeId(node),
            incarnation: 1,
            body: RecordBody::Converged,
        }
    }

    #[test]
    fn heal_recovery_times_first_reconvergence_per_node() {
        let records = vec![
            conv(1_000_000, 0), // pre-heal: ignored
            conv(3_000_000, 0), // node 0 reconverges 1 s after the heal
            conv(3_500_000, 1), // node 1: 1.5 s
            conv(4_000_000, 0), // later churn is not double counted
        ];
        let (n_conv, worst) = heal_recovery(3, &records, 2.0);
        assert_eq!(n_conv, 2);
        assert!((worst.unwrap() - 1.5).abs() < 1e-9);
        assert_eq!(heal_recovery(3, &records, 10.0), (0, None));
    }

    /// A schedule the children would panic on is refused before any
    /// process starts or any file is written.
    #[test]
    fn soak_refuses_unrunnable_partitions_up_front() {
        let dir = std::env::temp_dir().join("mdr-soak-refused-partition");
        for bad in ["12:8:0", "8:12:0|5"] {
            let cfg =
                SoakConfig { partition: Some(bad.into()), ..SoakConfig::partition(dir.clone()) };
            let err = run_soak(&cfg).unwrap_err();
            assert!(err.starts_with("partition: "), "{bad}: {err}");
        }
        assert!(!dir.exists());
    }

    #[test]
    fn adversarial_presets_carry_parseable_specs() {
        let b = SoakConfig::bursty(PathBuf::from("x"));
        NetProfile::parse(b.profile.as_deref().unwrap(), b.seed).unwrap();
        let p = SoakConfig::partition(PathBuf::from("x"));
        let spec = PartitionSpec::parse(p.partition.as_deref().unwrap()).unwrap();
        // The schedule heals inside the run with a settle window.
        assert!(spec.heal_at < p.duration_s - 2.0);
        // A partition-scheduled report without full reconvergence fails.
        assert!(spec.at < spec.heal_at);
    }
}
