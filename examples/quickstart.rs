//! Quickstart: build a small network, run the paper's MP scheme, and
//! compare it against single-path routing and the optimal lower bound.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mdr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A diamond: two parallel two-hop paths from a to z, 1 Mb/s links.
    let mut b = TopologyBuilder::new();
    let a = b.add_node("a");
    let x = b.add_node("x");
    let y = b.add_node("y");
    let z = b.add_node("z");
    let topo = b
        .bidi(a, x, 1_000_000.0, 0.001)
        .bidi(a, y, 1_000_000.0, 0.001)
        .bidi(x, z, 1_000_000.0, 0.001)
        .bidi(y, z, 1_000_000.0, 0.001)
        .build()?;

    // One flow that exceeds a single path's capacity: 1.2 Mb/s a -> z.
    let traffic = TrafficMatrix::from_flows(&topo, &[Flow::new(a, z, 1_200_000.0)])?;
    let cfg = SimConfig { warmup: 15.0, duration: 30.0, ..Default::default() };

    // Each scheme becomes one simulation job; `run_many` runs the batch
    // across cores and returns the reports in job order.
    let schemes = [Scheme::Opt, Scheme::mp(10.0, 2.0), Scheme::sp(10.0)];
    let mut jobs = Vec::new();
    for scheme in schemes {
        jobs.push(scheme.job(&topo, &traffic, cfg.clone())?);
    }
    println!("offered: 1.2 Mb/s over two 1 Mb/s paths\n");
    for (scheme, r) in schemes.iter().zip(run_many(jobs)) {
        println!(
            "{:<16} mean delay {:>9.3} ms   (dropped {} packets)",
            scheme.label(),
            r.mean_delay_ms(),
            r.dropped
        );
    }
    println!(
        "\nSingle-path routing cannot carry this flow at all (one path\n\
         saturates); the multipath scheme splits it across both paths and\n\
         tracks the optimum."
    );
    Ok(())
}
