//! `mdr-cli` — run minimum-delay-routing experiments from the command
//! line, without writing Rust.
//!
//! ```text
//! mdr-cli topology cairn                 # print a topology as JSON
//! mdr-cli run --network net1 --rate 2.5e6 --scheme mp --tl 10 --ts 2
//! mdr-cli run --network mynet.json --scheme sp
//! mdr-cli compare --network net1 --rate 2.5e6
//! ```
//!
//! `--network` accepts the built-ins `cairn` / `net1` (with `--rate`
//! setting the per-flow offered rate) or a JSON file in the
//! [`mdr::net::NetworkSpec`] format, which carries its own flows.
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy
//! keeps the tree small); see [`Args::parse`].

use mdr::prelude::*;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    command: Command,
    network: String,
    rate: f64,
    scheme: String,
    t_long: f64,
    t_short: f64,
    warmup: f64,
    duration: f64,
    seed: u64,
}

#[derive(Debug, Clone, PartialEq)]
enum Command {
    Topology,
    Run,
    Compare,
}

impl Args {
    fn defaults(command: Command) -> Self {
        Args {
            command,
            network: "net1".into(),
            rate: 2_000_000.0,
            scheme: "mp".into(),
            t_long: 10.0,
            t_short: 2.0,
            warmup: 20.0,
            duration: 40.0,
            seed: 1,
        }
    }

    /// Parse `argv[1..]`.
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut it = argv.iter();
        let cmd = match it.next().map(|s| s.as_str()) {
            Some("topology") => Command::Topology,
            Some("run") => Command::Run,
            Some("compare") => Command::Compare,
            Some(other) => return Err(format!("unknown command {other:?}")),
            None => return Err(USAGE.to_string()),
        };
        let mut args = Args::defaults(cmd.clone());
        if cmd == Command::Topology {
            // `topology <name>` positional form.
            if let Some(name) = it.next() {
                args.network = name.clone();
            }
        }
        let rest: Vec<&String> = it.collect();
        let mut i = 0;
        while i < rest.len() {
            let key = rest[i].as_str();
            let val = rest.get(i + 1).ok_or_else(|| format!("missing value for {key}"))?;
            let fval = || -> Result<f64, String> {
                val.parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite())
                    .ok_or_else(|| format!("bad number for {key}: {val:?}"))
            };
            match key {
                "--network" => args.network = val.to_string(),
                "--rate" => args.rate = fval()?,
                "--scheme" => args.scheme = val.to_lowercase(),
                "--tl" => args.t_long = fval()?,
                "--ts" => args.t_short = fval()?,
                "--warmup" => args.warmup = fval()?,
                "--duration" => args.duration = fval()?,
                "--seed" => {
                    args.seed = val.parse::<u64>().map_err(|_| format!("bad seed {val:?}"))?
                }
                other => return Err(format!("unknown option {other:?}")),
            }
            i += 2;
        }
        if !(args.t_long > 0.0 && args.t_short > 0.0 && args.duration > 0.0) {
            return Err("--tl, --ts and --duration must be positive".to_string());
        }
        if args.warmup < 0.0 {
            return Err("--warmup must not be negative".to_string());
        }
        Ok(args)
    }

    fn scheme(&self) -> Result<Scheme, String> {
        match self.scheme.as_str() {
            "mp" => Ok(Scheme::mp(self.t_long, self.t_short)),
            "sp" => Ok(Scheme::sp(self.t_long)),
            "opt" => Ok(Scheme::Opt),
            other => Err(format!("unknown scheme {other:?} (expected mp|sp|opt)")),
        }
    }

    fn load(&self) -> Result<(Topology, Vec<Flow>), String> {
        match self.network.as_str() {
            "cairn" => {
                let t = topo::cairn();
                let flows = topo::cairn_flows(&t, self.rate);
                Ok((t, flows))
            }
            "net1" => Ok((topo::net1(), topo::net1_flows(self.rate))),
            path => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let spec =
                    mdr::net::NetworkSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
                spec.build().map_err(|e| format!("{path}: {e}"))
            }
        }
    }
}

const USAGE: &str = "usage:
  mdr-cli topology <cairn|net1>
  mdr-cli run     --network <cairn|net1|file.json> [--rate BPS] --scheme <mp|sp|opt>
                  [--tl S] [--ts S] [--warmup S] [--duration S] [--seed N]
  mdr-cli compare --network <cairn|net1|file.json> [--rate BPS] [--tl S] [--ts S]
                  [--warmup S] [--duration S] [--seed N]";

fn print_result(t: &Topology, flows: &[Flow], scheme: Scheme, rep: &SimReport) {
    println!("{}: mean delay {:.3} ms", scheme.label(), rep.mean_delay_ms());
    for (f, d) in flows.iter().zip(&rep.mean_delays_ms) {
        println!("  {:>10} -> {:<10} {:>9.3} ms", t.name(f.src), t.name(f.dst), d);
    }
    println!(
        "  delivered {}  dropped {}  LSUs {} ({} bytes)",
        rep.delivered, rep.dropped, rep.control_messages, rep.control_bytes
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Execute a parsed command line, printing its results.
fn run(args: &Args) -> Result<(), String> {
    let (t, flows) = args.load()?;
    let schemes = match args.command {
        Command::Topology => {
            println!("{}", mdr::net::NetworkSpec::describe(&t, &flows).to_json());
            return Ok(());
        }
        Command::Run => vec![args.scheme()?],
        Command::Compare => {
            vec![Scheme::Opt, Scheme::mp(args.t_long, args.t_short), Scheme::sp(args.t_long)]
        }
    };
    let traffic = TrafficMatrix::from_flows(&t, &flows).map_err(|e| format!("run failed: {e}"))?;
    let base = SimConfig {
        warmup: args.warmup,
        duration: args.duration,
        seed: args.seed,
        ..Default::default()
    };
    let mut jobs = Vec::new();
    for &scheme in &schemes {
        let job = scheme.job(&t, &traffic, base.clone());
        jobs.push(job.map_err(|e| format!("{} failed: {e}", scheme.label()))?);
    }
    for (&scheme, rep) in schemes.iter().zip(run_many(jobs)) {
        print_result(&t, &flows, scheme, &rep);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_run_command() {
        let a = Args::parse(&sv(&[
            "run",
            "--network",
            "cairn",
            "--rate",
            "4e6",
            "--scheme",
            "sp",
            "--tl",
            "20",
        ]))
        .unwrap();
        assert_eq!(a.command, Command::Run);
        assert_eq!(a.network, "cairn");
        assert_eq!(a.rate, 4e6);
        assert_eq!(a.scheme, "sp");
        assert_eq!(a.t_long, 20.0);
        assert!(matches!(a.scheme().unwrap(), Scheme::Sp { t_long } if t_long == 20.0));
    }

    #[test]
    fn parse_topology_positional() {
        let a = Args::parse(&sv(&["topology", "net1"])).unwrap();
        assert_eq!(a.command, Command::Topology);
        assert_eq!(a.network, "net1");
    }

    #[test]
    fn rejects_unknown_command_and_flags() {
        assert!(Args::parse(&sv(&["frobnicate"])).is_err());
        assert!(Args::parse(&sv(&["run", "--bogus", "1"])).is_err());
        assert!(Args::parse(&sv(&["run", "--rate"])).is_err());
        assert!(Args::parse(&sv(&["run", "--rate", "abc"])).is_err());
        // Non-finite and out-of-range numbers: NaN or infinite run
        // lengths never end, and a non-positive period panics the engine.
        for bad in [
            &["--duration", "nan"][..],
            &["--duration", "inf"],
            &["--warmup", "nan"],
            &["--rate", "inf"],
            &["--tl", "0"],
            &["--ts", "-1"],
            &["--duration", "0"],
            &["--warmup", "-3"],
        ] {
            let argv = sv(&[&["run", "--network", "net1"][..], bad].concat());
            assert!(Args::parse(&argv).is_err(), "{bad:?} accepted");
        }
        assert!(Args::parse(&sv(&["run", "--warmup", "0"])).is_ok());
    }

    #[test]
    fn builtin_networks_load() {
        let mut a = Args::defaults(Command::Run);
        a.network = "cairn".into();
        a.rate = 1e6;
        let (t, flows) = a.load().unwrap();
        assert_eq!(t.node_count(), 26);
        assert_eq!(flows.len(), 11);
        a.network = "net1".into();
        let (t, flows) = a.load().unwrap();
        assert_eq!(t.node_count(), 10);
        assert_eq!(flows.len(), 10);
    }

    #[test]
    fn bad_scheme_rejected() {
        let mut a = Args::defaults(Command::Run);
        a.scheme = "ospf".into();
        assert!(a.scheme().is_err());
    }
}
