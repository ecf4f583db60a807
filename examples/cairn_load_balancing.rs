//! CAIRN load balancing: reproduce the paper's headline comparison on
//! the CAIRN topology and inspect *how* MP spreads traffic — per-link
//! utilizations and the routing parameters at the cross-country
//! decision points.
//!
//! ```sh
//! cargo run --release --example cairn_load_balancing
//! ```

use mdr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = topo::cairn();
    let flows = topo::cairn_flows(&topo, 4_000_000.0);
    let traffic = TrafficMatrix::from_flows(&topo, &flows)?;
    println!(
        "CAIRN: {} routers, {} links, {} flows x 4 Mb/s\n",
        topo.node_count(),
        topo.link_count(),
        flows.len()
    );

    // Run MP and keep the simulator to inspect its state afterwards.
    let cfg = SimConfig { warmup: 30.0, duration: 60.0, seed: 7, ..Default::default() };
    let mut sim = Simulator::new(&topo, &traffic, &Scenario::new(), cfg);
    let report = sim.run();

    println!("MP per-flow delays (ms):");
    for (f, d) in flows.iter().zip(&report.mean_delays_ms) {
        println!("  {:>8} -> {:<8} {:>8.3}", topo.name(f.src), topo.name(f.dst), d);
    }

    println!("\nbusiest links (utilization > 0.5):");
    let mut rows: Vec<(f64, String)> = Vec::new();
    for (id, l) in topo.links().iter().enumerate() {
        let u = report.links[id].utilization(l.capacity, 60.0);
        if u > 0.5 {
            rows.push((u, format!("{} -> {}", topo.name(l.from), topo.name(l.to))));
        }
    }
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (u, name) in rows {
        println!("  {name:<22} {u:>5.2}");
    }

    // Where the multipath spreading actually happens: routers with a
    // genuinely split allocation toward some destination.
    println!("\nactive traffic splits (phi with >1 successor):");
    let vars = sim.routing_vars();
    for i in topo.nodes() {
        for j in topo.nodes() {
            let pairs = vars.get(i, j);
            if pairs.len() > 1 {
                let parts: Vec<String> =
                    pairs.iter().map(|(k, f)| format!("{}:{:.2}", topo.name(*k), f)).collect();
                println!(
                    "  at {:>8} toward {:<8} {}",
                    topo.name(i),
                    topo.name(j),
                    parts.join("  ")
                );
            }
        }
    }
    println!(
        "\ncontrol plane: {} LSU messages / {} bytes over {} s",
        report.control_messages,
        report.control_bytes,
        cfg_total(&sim)
    );
    Ok(())
}

fn cfg_total(sim: &Simulator) -> f64 {
    sim.now()
}
