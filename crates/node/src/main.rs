//! `mdr-node` — one MPDA router per OS process, plus the launcher and
//! soak harness that drive fleets of them.
//!
//! Subcommands:
//!
//! - `run`    — run a single router process (what the launcher spawns)
//! - `launch` — spawn one `run` process per router of a topology
//! - `soak`   — `launch` + random kill/restart + merged-trace LFI audit
//! - `spec`   — print a built-in topology as NetworkSpec JSON

use mdr_net::{NetworkSpec, NodeId};
use mdr_node::shell::launch::{neighbor_table, spawn_node, topology, SpawnNet};
use mdr_node::shell::soak::{run_soak, SoakConfig};
use mdr_node::shell::udp::{run_node, PortMap};
use mdr_node::NodeConfig;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
mdr-node — multi-process MPDA control plane

USAGE:
  mdr-node run --topo <name|spec.json> --node <i> [--inc <k>] [--base-port <p>]
               [--trace <file.jsonl>] [--duration <s>] [--loss <p>] [--seed <s>]
               [--profile <spec>] [--profile-seed <s>] [--partition <specs>]
               [--t0 <unix-s>] [--adaptive true|false]
  mdr-node launch --topo <name|spec.json> [--base-port <p>] [--trace-dir <dir>]
               [--duration <s>] [--loss <p>] [--seed <s>] [--profile <spec>]
               [--profile-seed <s>] [--partition <specs>] [--adaptive true|false]
  mdr-node soak [--preset smoke|full|bursty|partition] [--topo <name|spec.json>]
               [--duration <s>] [--kills <k>] [--loss <p>] [--seed <s>]
               [--base-port <p>] [--out <dir>] [--profile <spec>]
               [--partition <specs>] [--adaptive true|false]
  mdr-node spec --topo <name>

Built-in topologies: ring5, cairn8, cairn, net1.

Impairment profiles (`;`-separated clauses, shared with the simulator):
  iid:P | ge:PGB,PBG,LGOOD,LBAD | rev-iid:... | rev-ge:... |
  delay:MAX | rev-delay:MAX | grey:DROP,CORRUPT
Partitions: `AT:HEAL:N0|N1|...` — multiple schedules `;`-separated.";

/// `--key value` flag bag; every flag takes exactly one value.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let Some(key) = k.strip_prefix("--") else {
                return Err(format!("unexpected argument `{k}`"));
            };
            let Some(v) = it.next() else {
                return Err(format!("flag --{key} needs a value"));
            };
            flags.push((key.to_string(), v.clone()));
        }
        Ok(Flags(flags))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }
}

/// Assemble the structured impairment profile from `--profile`,
/// `--partition` and `--profile-seed`, when any were given, for a
/// network of `n` routers.
fn parse_profile(flags: &Flags, n: usize) -> Result<Option<mdr_sim::chaos::NetProfile>, String> {
    use mdr_sim::chaos::{NetProfile, PartitionSpec};
    let spec = flags.get("profile");
    let parts = flags.get("partition");
    if spec.is_none() && parts.is_none() {
        return Ok(None);
    }
    let seed: u64 = flags.num("profile-seed", 1)?;
    let mut profile = match spec {
        Some(s) => NetProfile::parse(s, seed).map_err(|e| format!("--profile: {e}"))?,
        None => NetProfile { seed, ..NetProfile::default() },
    };
    if let Some(p) = parts {
        let specs = PartitionSpec::parse_schedule(p, n).map_err(|e| format!("--partition: {e}"))?;
        profile.partitions.extend(specs);
    }
    Ok(Some(profile))
}

fn cmd_run(flags: &Flags) -> Result<(), String> {
    let topo_arg = flags.get("topo").ok_or("run: --topo is required")?;
    let node: u32 = flags.num("node", u32::MAX)?;
    if node == u32::MAX {
        return Err("run: --node is required".into());
    }
    let topo = topology(topo_arg)?;
    if node as usize >= topo.node_count() {
        return Err(format!("run: node {node} out of range (n={})", topo.node_count()));
    }
    let inc: u32 = flags.num("inc", 1)?;
    let base_port: u16 = flags.num("base-port", 47000)?;
    let duration: f64 = flags.num("duration", f64::INFINITY)?;
    let loss: f64 = flags.num("loss", 0.0)?;
    let seed: u64 = flags.num("seed", 0)?;
    let adaptive: bool = flags.num("adaptive", true)?;
    let trace = flags
        .get("trace")
        .map(str::to_string)
        .unwrap_or_else(|| format!("node{node}.inc{inc}.jsonl"));

    let mut net = mdr_node::shell::udp::NetOptions::lossy(loss, seed);
    net.profile = parse_profile(flags, topo.node_count())?;
    let t0: f64 = flags.num("t0", f64::NAN)?;
    net.t0 = t0.is_finite().then_some(t0);

    let neighbors = neighbor_table(&topo).into_iter().nth(node as usize).unwrap_or_default();
    let mut cfg = NodeConfig::new(NodeId(node), topo.node_count(), inc, neighbors);
    cfg.reliable.adaptive = adaptive;
    let deadline = duration.is_finite().then_some(duration);
    let lines = run_node(cfg, PortMap { base: base_port }, &trace, deadline, net)
        .map_err(|e| format!("run: {e}"))?;
    eprintln!("mdr-node: node {node} inc {inc} wrote {lines} trace lines to {trace}");
    Ok(())
}

fn cmd_launch(flags: &Flags) -> Result<(), String> {
    let topo_arg = flags.get("topo").ok_or("launch: --topo is required")?;
    let topo = topology(topo_arg)?;
    let base_port: u16 = flags.num("base-port", 47000)?;
    let duration: f64 = flags.num("duration", 30.0)?;
    let loss: f64 = flags.num("loss", 0.0)?;
    let seed: u64 = flags.num("seed", 0)?;
    let dir = PathBuf::from(flags.get("trace-dir").unwrap_or("mdr-node-traces"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("launch: create {}: {e}", dir.display()))?;

    // Validate the profile spec here, before the children choke on it.
    parse_profile(flags, topo.node_count())?;
    let net = SpawnNet {
        loss,
        seed: 0,
        profile: flags.get("profile").map(str::to_string),
        partition: flags.get("partition").map(str::to_string),
        profile_seed: flags.num("profile-seed", 1)?,
        // The launcher's start instant anchors every child's partition
        // schedule — the cut is atomic across the fleet.
        t0: Some(mdr_node::shell::launch::unix_now()),
        adaptive: flags.num("adaptive", true)?,
    };

    let n = topo.node_count();
    eprintln!("mdr-node: launching {n} routers ({topo_arg}), traces in {}", dir.display());
    let mut children = Vec::with_capacity(n);
    for i in 0..n {
        let child = spawn_node(
            topo_arg,
            NodeId(i as u32),
            1,
            base_port,
            &dir,
            duration,
            &SpawnNet { seed: seed ^ ((i as u64) << 32), ..net.clone() },
        )
        .map_err(|e| format!("launch: spawn node {i}: {e}"))?;
        children.push(child);
    }
    let mut failed = 0;
    for (i, mut child) in children.into_iter().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("launch: node {i} exited with {status}");
                failed += 1;
            }
            Err(e) => {
                eprintln!("launch: wait node {i}: {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        return Err(format!("launch: {failed} nodes exited uncleanly"));
    }
    eprintln!("mdr-node: all {n} routers exited cleanly");
    Ok(())
}

fn cmd_soak(flags: &Flags) -> Result<(), String> {
    let out = PathBuf::from(flags.get("out").unwrap_or("mdr-soak"));
    let mut cfg = match flags.get("preset") {
        None | Some("smoke") => SoakConfig::smoke(out),
        Some("full") => SoakConfig::full(out),
        Some("bursty") => SoakConfig::bursty(out),
        Some("partition") => SoakConfig::partition(out),
        Some(other) => return Err(format!("soak: unknown preset `{other}`")),
    };
    if let Some(t) = flags.get("topo") {
        cfg.topo = t.to_string();
    }
    cfg.duration_s = flags.num("duration", cfg.duration_s)?;
    cfg.kills = flags.num("kills", cfg.kills)?;
    cfg.loss = flags.num("loss", cfg.loss)?;
    cfg.seed = flags.num("seed", cfg.seed)?;
    cfg.base_port = flags.num("base-port", cfg.base_port)?;
    if let Some(p) = flags.get("profile") {
        cfg.profile = Some(p.to_string());
    }
    if let Some(p) = flags.get("partition") {
        cfg.partition = Some(p.to_string());
    }
    cfg.adaptive = flags.num("adaptive", cfg.adaptive)?;

    eprintln!(
        "mdr-node: soaking {} for {:.0}s with {} kills at {:.0}% loss (seed {}{}{})",
        cfg.topo,
        cfg.duration_s,
        cfg.kills,
        cfg.loss * 100.0,
        cfg.seed,
        cfg.profile.as_deref().map(|p| format!(", profile `{p}`")).unwrap_or_default(),
        cfg.partition.as_deref().map(|p| format!(", partition `{p}`")).unwrap_or_default(),
    );
    let report = run_soak(&cfg)?;
    eprintln!(
        "mdr-node: soak done — {} records, {} LFI checks, {} violations, \
         {} recoveries (max {:.3}s), clean_shutdown={}",
        report.audit.records,
        report.audit.monitor.checks,
        report.audit.monitor.violations,
        report.audit.recoveries.len(),
        report.audit.max_recovery_s().unwrap_or(0.0),
        report.clean_shutdown,
    );
    if report.heals > 0 {
        eprintln!(
            "mdr-node: partition heal — {}/{} routers reconverged, worst {:.3}s",
            report.heal_converged,
            report.n,
            report.heal_recovery_s.unwrap_or(f64::NAN),
        );
    }
    if report.passed() {
        eprintln!("mdr-node: soak PASSED (report: {}/soak.json)", cfg.out_dir.display());
        Ok(())
    } else {
        Err(format!(
            "soak FAILED: violations={} unconverged={:?} clean_shutdown={} \
             (report: {}/soak.json)",
            report.audit.monitor.violations,
            report.audit.unconverged,
            report.clean_shutdown,
            cfg.out_dir.display(),
        ))
    }
}

fn cmd_spec(flags: &Flags) -> Result<(), String> {
    let topo_arg = flags.get("topo").ok_or("spec: --topo is required")?;
    let topo = topology(topo_arg)?;
    println!("{}", NetworkSpec::describe(&topo, &[]).to_json());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = Flags::parse(&args[1..]).and_then(|flags| match cmd.as_str() {
        "run" => cmd_run(&flags),
        "launch" => cmd_launch(&flags),
        "soak" => cmd_soak(&flags),
        "spec" => cmd_spec(&flags),
        "help" | "--help" | "-h" => {
            eprintln!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mdr-node: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn run_refuses_partitions_its_router_would_panic_on() {
        assert!(parse_profile(&flags(&["--partition", "8:12:0|1"]), 5).unwrap().is_some());
        for bad in ["12:8:0", "8:12:0|5", "8:12:0;12:8:1"] {
            let err = parse_profile(&flags(&["--partition", bad]), 5).unwrap_err();
            assert!(err.starts_with("--partition: "), "{bad}: {err}");
        }
    }
}
