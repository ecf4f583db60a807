//! Every figure/experiment of the reproduction as a library function.
//!
//! The one `mdr-bench` binary dispatches over [`all`]: `mdr-bench <id>`
//! runs one experiment, `mdr-bench all` drives the whole registry
//! in-process and prints each experiment's wall-clock seconds.
//! All simulator runs go through the one parallel batch function,
//! `run_many`, which spreads jobs across cores while keeping results
//! bit-identical to serial runs; a paper scheme becomes a job through
//! `Scheme::job`.

use crate::{
    cairn_setup, comparison_figure, comparison_figure_seeds, figure_run_config, job, mean,
    net1_setup, Figure, CAIRN_RATE, NET1_RATE,
};
use mdr::prelude::*;
use mdr_net::gen;
use mdr_routing::harness::RouterSm;
use mdr_routing::{dv, lfi, Harness};
use std::collections::BTreeMap;

/// One registered experiment: a name (the `mdr-bench <id>` argument)
/// and the function that runs it to completion (prints its table and
/// writes `results/<name>.json`).
pub struct Experiment {
    /// Registry name, e.g. `fig9`.
    pub name: &'static str,
    /// Runs the whole experiment — or, with `smoke`, its short CI subset
    /// where it has one (`chaos`, `trace`, `scale`).
    pub run: fn(smoke: bool),
}

/// The full registry, in reproduction order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment { name: "fig8", run: |_| fig8() },
        Experiment { name: "fig9", run: |_| fig9() },
        Experiment { name: "fig10", run: |_| fig10() },
        Experiment { name: "fig11", run: |_| fig11() },
        Experiment { name: "fig12", run: |_| fig12() },
        Experiment { name: "fig13", run: |_| fig13() },
        Experiment { name: "fig14", run: |_| fig14() },
        Experiment { name: "dynamic_traffic", run: |_| dynamic_traffic() },
        Experiment { name: "link_failure", run: |_| link_failure() },
        Experiment { name: "convergence", run: |_| convergence() },
        Experiment { name: "load_sweep", run: |_| load_sweep() },
        Experiment { name: "ablation_lfi", run: |_| ablation_lfi() },
        Experiment { name: "ablation_ah", run: |_| ablation_ah() },
        Experiment { name: "ablation_estimator", run: |_| ablation_estimator() },
        Experiment { name: "ablation_traffic", run: |_| ablation_traffic() },
        Experiment { name: "extension_dv", run: |_| extension_dv() },
        Experiment { name: "chaos", run: chaos },
        Experiment { name: "trace", run: trace },
        Experiment { name: "scale", run: scale },
    ]
}

fn dump(name: &str, t: &Topology) {
    println!("== {name}: {} nodes, {} directed links ==", t.node_count(), t.link_count());
    for n in t.nodes() {
        let nbrs: Vec<String> = t.neighbors(n).map(|k| t.name(k).to_string()).collect();
        println!("  {:<8} deg {}: {}", t.name(n), t.degree(n), nbrs.join(", "));
    }
    println!("  hop diameter: {:?}", t.diameter());
    println!();
}

/// Fig. 8 — the evaluation topologies: prints the CAIRN and NET1
/// adjacency and verifies the published structural constraints (NET1:
/// hop diameter 4, degrees 3–5; CAIRN: 10 Mb/s capacity cap, all §5
/// flow endpoints present).
pub fn fig8() {
    let cairn = topo::cairn();
    dump("CAIRN (reconstruction)", &cairn);
    assert!(cairn.is_connected());
    assert!(cairn.links().iter().all(|l| l.capacity <= topo::EVAL_CAPACITY));
    for (s, d) in topo::cairn_flow_pairs(&cairn) {
        assert_ne!(s, d);
    }
    println!(
        "CAIRN flows: {}",
        topo::cairn_flow_pairs(&cairn)
            .iter()
            .map(|(s, d)| format!("({},{})", cairn.name(*s), cairn.name(*d)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!();

    let net1 = topo::net1();
    dump("NET1 (reconstruction)", &net1);
    assert_eq!(net1.diameter(), Some(4), "paper: diameter four");
    for n in net1.nodes() {
        assert!((3..=5).contains(&net1.degree(n)), "paper: degrees 3-5");
    }
    println!(
        "NET1 flows: {}",
        topo::net1_flow_pairs()
            .iter()
            .map(|(s, d)| format!("({s},{d})"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("\nall Fig. 8 structural constraints verified");
}

/// Fig. 9 — "Delays of OPT and MP in CAIRN": MP-TL-10-TS-2 stays
/// within a 5% envelope of OPT under stationary traffic.
pub fn fig9() {
    let (t, flows, labels) = cairn_setup(CAIRN_RATE);
    let mut fig = comparison_figure(
        "fig9",
        "Delays of OPT and MP in CAIRN (stationary traffic)",
        &t,
        &flows,
        labels,
        &[Scheme::Opt, Scheme::mp(10.0, 2.0)],
        Some(5.0),
        figure_run_config(),
    );
    fig.note(format!(
        "per-flow rate {} Mb/s; paper claim: MP within the OPT+5% envelope",
        CAIRN_RATE / 1e6
    ));
    fig.finish();
}

/// Fig. 10 — "Delays of OPT and MP in NET1": MP-TL-10-TS-2 within an
/// 8% envelope of OPT.
pub fn fig10() {
    let (t, flows, labels) = net1_setup(NET1_RATE);
    let mut fig = comparison_figure(
        "fig10",
        "Delays of OPT and MP in NET1 (stationary traffic)",
        &t,
        &flows,
        labels,
        &[Scheme::Opt, Scheme::mp(10.0, 2.0)],
        Some(8.0),
        figure_run_config(),
    );
    fig.note(format!(
        "per-flow rate {} Mb/s; paper claim: MP within the OPT+8% envelope",
        NET1_RATE / 1e6
    ));
    fig.finish();
}

/// Fig. 11 — "Delays of MP and SP in CAIRN": SP delays for some flows
/// are two to four times those of MP, and even MP-TL-10-TS-10 is much
/// closer to OPT than SP-TL-10.
pub fn fig11() {
    let (t, flows, labels) = cairn_setup(CAIRN_RATE);
    let mut fig = comparison_figure(
        "fig11",
        "Delays of MP and SP in CAIRN",
        &t,
        &flows,
        labels,
        &[Scheme::Opt, Scheme::mp(10.0, 10.0), Scheme::mp(10.0, 2.0), Scheme::sp(10.0)],
        None,
        figure_run_config(),
    );
    fig.note("paper claim: SP delays for some flows are 2-4x those of MP".to_string());
    fig.finish();
}

/// Fig. 12 — "Delays of MP and SP in NET1": with NET1's higher
/// connectivity, SP delays reach five to six times those of MP.
pub fn fig12() {
    let (t, flows, labels) = net1_setup(NET1_RATE);
    let mut fig = comparison_figure(
        "fig12",
        "Delays of MP and SP in NET1",
        &t,
        &flows,
        labels,
        &[Scheme::Opt, Scheme::mp(10.0, 10.0), Scheme::mp(10.0, 2.0), Scheme::sp(10.0)],
        None,
        figure_run_config(),
    );
    fig.note(
        "paper claim: SP delays for some flows are 5-6x those of MP (higher connectivity than CAIRN)"
            .to_string(),
    );
    fig.finish();
}

/// Fig. 13 — effect of the tuning parameter `T_l` in CAIRN (§5.2): the
/// paper reports that raising `T_l` from 10 to 20 s more than doubles
/// SP delays while MP remains nearly unchanged.
pub fn fig13() {
    let (t, flows, labels) = cairn_setup(CAIRN_RATE);
    let cfg = SimConfig { duration: 120.0, ..figure_run_config() };
    let mut fig = comparison_figure_seeds(
        "fig13",
        "Effect of T_l on MP and SP in CAIRN",
        &t,
        &flows,
        labels,
        &[Scheme::mp(10.0, 2.0), Scheme::mp(20.0, 2.0), Scheme::sp(10.0), Scheme::sp(20.0)],
        cfg,
        &[1, 7, 13, 21],
    );
    fig.note(
        "paper claim: T_l 10->20 s more than doubles SP delays; MP nearly unchanged".to_string(),
    );
    fig.note(
        "reproduction note: MP's insensitivity reproduces; SP's degradation is directionally \
present but mild — at this load SP already oscillates at T_l = 10 s, and at lower loads it \
tolerates stale routes outright, so no operating point shows the paper's doubling (load \
sweep in EXPERIMENTS.md)"
            .to_string(),
    );
    fig.finish();
}

/// Fig. 14 — effect of `T_l` in NET1 (same claim as Fig. 13, on the
/// higher-connectivity topology).
pub fn fig14() {
    let (t, flows, labels) = net1_setup(NET1_RATE);
    let cfg = SimConfig { duration: 120.0, ..figure_run_config() };
    let mut fig = comparison_figure_seeds(
        "fig14",
        "Effect of T_l on MP and SP in NET1",
        &t,
        &flows,
        labels,
        &[Scheme::mp(10.0, 2.0), Scheme::mp(20.0, 2.0), Scheme::sp(10.0), Scheme::sp(20.0)],
        cfg,
        &[1, 7, 13, 21],
    );
    fig.note(
        "paper claim: SP delays grow significantly with T_l; MP delays change negligibly"
            .to_string(),
    );
    fig.note(
        "reproduction note: MP's insensitivity reproduces; SP's T_l sensitivity does NOT on \
our NET1 reconstruction — its waist makes SP's delay a function of waist utilization \
alone, so route staleness is inconsequential. The published constraints (degrees 3-5, \
diameter 4) do not pin down the asymmetric-alternative structure the SP effect needs; \
see fig13 (CAIRN), where the effect reproduces cleanly."
            .to_string(),
    );
    fig.finish();
}

/// Mean delay (s) inside the scripted window `[60, 90)` s plus the
/// worst per-flow p99 (s) — the analysis both scenario experiments
/// (traffic burst, link failure) share.
fn window_stats(rep: &SimReport, nflows: usize) -> (f64, f64) {
    let mut sum = 0.0;
    let mut cnt = 0u32;
    for fi in 0..nflows {
        for (b, v) in rep.series.series(fi).iter().enumerate() {
            if (60..90).contains(&b) {
                if let Some(x) = v {
                    sum += x;
                    cnt += 1;
                }
            }
        }
    }
    let worst_p99 = rep.flows.iter().map(|f| f.percentile(0.99)).fold(0.0f64, f64::max);
    (sum / cnt.max(1) as f64, worst_p99)
}

/// §5 prose — "the average delays achieved via our approximation scheme
/// … are significantly better than single-path routing in a dynamic
/// environment": one flow (sri → mit) doubles its offered rate for a
/// 30-second burst; MP absorbs it over its loop-free multipaths, SP
/// cannot react before its next long-term update. A single seed is very
/// noisy here — the burst pushes CAIRN close to saturation, where the
/// delay depends on the phase of the route oscillation when the burst
/// lands — so the experiment averages over seeds (one batch over the
/// whole scheme × seed grid).
pub fn dynamic_traffic() {
    let base = 2_500_000.0;
    let (t, flows, labels) = cairn_setup(base);
    let scen = Scenario::new()
        .at(60.0, ScenarioEvent::SetFlowRate { flow: 4, rate: base * 2.0 })
        .at(90.0, ScenarioEvent::SetFlowRate { flow: 4, rate: base });
    let seeds = [1u64, 7, 13, 21];
    let schemes = [Scheme::mp(10.0, 2.0), Scheme::sp(10.0)];

    let mut fig = Figure::new(
        "dynamic_traffic",
        "MP vs SP under a traffic burst in CAIRN (sri->mit doubles during t in [60, 90) s; \
mean over 4 seeds)",
        labels,
    );
    let (t, flows, scen) = (&t, &flows, &scen);
    let jobs = schemes
        .iter()
        .flat_map(|&s| {
            seeds.iter().map(move |&seed| {
                let cfg = SimConfig { warmup: 30.0, duration: 90.0, seed, ..Default::default() };
                job(s, t, flows, cfg).with_scenario(scen)
            })
        })
        .collect();
    let results = run_many(jobs);
    let mut burst_means = Vec::new();
    for (scheme, runs) in schemes.iter().zip(results.chunks(seeds.len())) {
        let mut burst = Vec::new();
        let mut worst_p99 = 0.0f64;
        let mut per_flow = vec![0.0; flows.len()];
        for r in runs {
            let (burst_mean, p99) = window_stats(r, flows.len());
            burst.push(burst_mean * 1000.0);
            worst_p99 = worst_p99.max(p99 * 1000.0);
            for (acc, d) in per_flow.iter_mut().zip(&r.mean_delays_ms) {
                *acc += d / seeds.len() as f64;
            }
        }
        let label = scheme.label();
        let overall = mean(&runs.iter().map(|r| r.mean_delay_ms()).collect::<Vec<_>>());
        fig.note(format!(
            "{}: during-burst mean {:.2} ms over {} seeds (per-seed {}; overall {:.2} ms, \
worst-flow p99 {:.1} ms)",
            label,
            mean(&burst),
            seeds.len(),
            burst.iter().map(|b| format!("{b:.0}")).collect::<Vec<_>>().join("/"),
            overall,
            worst_p99
        ));
        burst_means.push(mean(&burst));
        fig.add_series(&label, per_flow);
    }
    fig.note(format!(
        "paper claim: MP significantly better than SP in dynamic environments — here the \
seed-averaged during-burst mean is {:.0} ms (MP) vs {:.0} ms (SP), a {:.0}% reduction; the \
margin is smaller than the paper's because both schemes share MPDA's instantaneous loop-free \
reroute, and it varies strongly with seed (the burst drives CAIRN near saturation)",
        burst_means[0],
        burst_means[1],
        (1.0 - burst_means[0] / burst_means[1]) * 100.0
    ));
    fig.finish();
}

/// §5 prose — "In the presence of link failures, MP can only perform
/// better than SP": fails one of CAIRN's cross-country trunks mid-run,
/// restores it later, and compares MP and SP delays plus packet losses.
pub fn link_failure() {
    // Slightly lighter than the figure load so the surviving trunk can
    // carry the detoured traffic at all — the failure halves the
    // cross-country capacity.
    let (t, flows, labels) = cairn_setup(CAIRN_RATE * 0.8);
    let sri = t.node_by_name("sri").unwrap();
    let mci = t.node_by_name("mci-r").unwrap();
    let scen = Scenario::new()
        .at(60.0, ScenarioEvent::FailLink { a: sri, b: mci })
        .at(90.0, ScenarioEvent::RestoreLink { a: sri, b: mci });
    let cfg = SimConfig { warmup: 30.0, duration: 90.0, seed: 7, ..Default::default() };

    let mut fig = Figure::new(
        "link_failure",
        "MP vs SP across a trunk failure (sri--mci-r down for t in [60, 90) s)",
        labels,
    );
    let schemes = [Scheme::mp(10.0, 2.0), Scheme::sp(10.0)];
    let jobs =
        schemes.iter().map(|&s| job(s, &t, &flows, cfg.clone()).with_scenario(&scen)).collect();
    for (scheme, rep) in schemes.iter().zip(run_many(jobs)) {
        let (fail_mean, worst_p99) = window_stats(&rep, flows.len());
        fig.note(format!(
            "{}: during-failure mean {:.2} ms (worst-flow p99 {:.1} ms); delivered {} dropped {} (ttl drops {})",
            scheme.label(),
            fail_mean * 1000.0,
            worst_p99 * 1000.0,
            rep.delivered,
            rep.dropped,
            rep.flows.iter().map(|f| f.dropped_ttl).sum::<u64>()
        ));
        fig.add_series(&scheme.label(), rep.mean_delays_ms);
    }
    fig.note(
        "reproduction note: the paper's claim is qualitative (MP 'can only perform better'). \
In our setup both schemes ride on MPDA's instantaneous loop-free reroute, and failing one \
of CAIRN's two trunks leaves no alternate cross-country paths to split over, so MP and SP \
recover equally well (a few hundred in-flight packets lost out of millions); MP is never \
worse, which is the claim."
            .to_string(),
    );
    fig.finish();
}

/// Theorems 2–4 — MPDA convergence behaviour and the complexity claim:
/// messages to converge from cold boot, after a link-cost change, and
/// after a link failure, across random topologies of growing size.
pub fn convergence() {
    let mut fig = Figure::new(
        "convergence",
        "MPDA convergence cost vs network size (random topologies, avg degree 3.5)",
        vec![
            "boot msgs/node".into(),
            "boot msgs/link".into(),
            "cost-change msgs/node".into(),
            "failure msgs/node".into(),
        ],
    );
    let sizes = [8usize, 16, 32, 64];
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for &n in &sizes {
        let mut boot_n = 0.0;
        let mut boot_l = 0.0;
        let mut chg = 0.0;
        let mut fail = 0.0;
        let trials = 5;
        for trial in 0..trials {
            let t = topo::random_connected(n, 3.5, 1e7, 0.001, 1000 + trial);
            let mut h = Harness::mpda(&t, |a, b| 1.0 + ((a.0 * 13 + b.0 * 7) % 10) as f64, trial);
            assert!(h.run_to_quiescence(10_000_000));
            h.assert_converged();
            h.assert_loop_free();
            let boot = h.delivered();
            boot_n += boot as f64 / n as f64 / trials as f64;
            boot_l += boot as f64 / t.link_count() as f64 / trials as f64;

            let l = t.links()[0];
            h.change_cost(l.from, l.to, 25.0);
            let before = h.delivered();
            assert!(h.run_to_quiescence(10_000_000));
            h.assert_converged();
            chg += (h.delivered() - before) as f64 / n as f64 / trials as f64;

            // Fail a link whose removal keeps the graph connected (the
            // random generator starts from a spanning tree built over
            // links 0..n-1, so later extra links are safe to cut).
            if t.link_count() / 2 > n {
                let extra = t.links().last().copied().unwrap();
                let before = h.delivered();
                h.fail_link(extra.from, extra.to);
                assert!(h.run_to_quiescence(10_000_000));
                h.assert_converged();
                h.assert_loop_free();
                fail += (h.delivered() - before) as f64 / n as f64 / trials as f64;
            }
        }
        println!(
            "n={n:>3}: boot {boot_n:8.1} msgs/node ({boot_l:6.2} msgs/link)   cost-change {chg:7.2} msgs/node   failure {fail:7.2} msgs/node"
        );
        rows[0].push(boot_n);
        rows[1].push(boot_l);
        rows[2].push(chg);
        rows[3].push(fail);
    }
    // Transpose into the figure (series = sizes).
    for (i, &n) in sizes.iter().enumerate() {
        fig.add_series(&format!("n={n}"), rows.iter().map(|r| r[i]).collect());
    }
    fig.note(
        "messages counted per router; single perturbations settle in O(1) messages/node".into(),
    );
    fig.finish();
}

fn sweep(name: &str, topo: &Topology, base_flows: &[Flow], rates: &[f64]) {
    let mut fig = Figure::new(
        &format!("load_sweep_{name}"),
        &format!("Mean delay (ms) vs per-flow rate on {name}"),
        rates.iter().map(|r| format!("{:.1} Mb/s", r / 1e6)).collect(),
    );
    let cfg = SimConfig { warmup: 20.0, duration: 30.0, seed: 7, ..Default::default() };
    let schemes = [Scheme::Opt, Scheme::mp(10.0, 2.0), Scheme::sp(10.0)];
    // The whole (rate × scheme) grid as one parallel batch.
    let jobs = rates
        .iter()
        .flat_map(|&rate| {
            let flows: Vec<Flow> =
                base_flows.iter().map(|f| Flow::new(f.src, f.dst, rate)).collect();
            schemes.iter().map(|&s| job(s, topo, &flows, cfg.clone())).collect::<Vec<_>>()
        })
        .collect();
    let results: Vec<f64> = run_many(jobs).iter().map(SimReport::mean_delay_ms).collect();
    let mut opt_v = Vec::new();
    let mut mp_v = Vec::new();
    let mut sp_v = Vec::new();
    for (&rate, chunk) in rates.iter().zip(results.chunks(schemes.len())) {
        let (opt, mp, sp) = (chunk[0], chunk[1], chunk[2]);
        println!(
            "{name} rate {:>5.2} Mb/s: OPT {:>8.3} ms   MP {:>8.3} ms   SP {:>8.3} ms   (MP/OPT {:.2}, SP/MP {:.2})",
            rate / 1e6,
            opt,
            mp,
            sp,
            mp / opt,
            sp / mp
        );
        opt_v.push(opt);
        mp_v.push(mp);
        sp_v.push(sp);
    }
    fig.add_series("OPT", opt_v);
    fig.add_series("MP-TL-10-TS-2", mp_v);
    fig.add_series("SP-TL-10", sp_v);
    fig.finish();
}

/// Load sweep: mean delays of OPT / MP / SP on both topologies across
/// per-flow offered rates — locates the operating points the figures
/// use and verifies the crossover claim of §5.1.
pub fn load_sweep() {
    let (ct, cf, _) = cairn_setup(1.0);
    sweep(
        "cairn",
        &ct,
        &cf,
        &[1_000_000.0, 2_000_000.0, 3_000_000.0, 4_000_000.0, 5_000_000.0, 6_000_000.0],
    );
    let (nt, nf, _) = net1_setup(1.0);
    sweep(
        "net1",
        &nt,
        &nf,
        &[
            1_000_000.0,
            1_500_000.0,
            2_000_000.0,
            2_200_000.0,
            2_400_000.0,
            2_600_000.0,
            2_800_000.0,
            3_000_000.0,
        ],
    );
}

/// Ablation: the LFI conditions (Theorem 1 / Theorem 3). Identical
/// link-cost churn over the same topology: MPDA (Eq. 17) must show zero
/// transient loops; PDA (Eq. 14, no synchronization) forms them.
pub fn ablation_lfi() {
    let mut fig = Figure::new(
        "ablation_lfi",
        "Transient routing loops with and without the LFI conditions",
        vec!["deliveries".into(), "loop observations".into(), "loop rate %".into()],
    );
    let t = topo::random_connected(16, 3.5, 1e7, 0.001, 99);
    let cost = |a: NodeId, b: NodeId, salt: u32| {
        1.0 + ((a.0.wrapping_mul(2654435761) ^ b.0.wrapping_mul(40503) ^ salt) % 90) as f64 / 10.0
    };
    let links: Vec<_> = t.links().to_vec();
    let n = t.node_count();
    // Converge, run the churn, then drain it one delivery at a time,
    // counting the instants at which `looped` holds.
    fn churn<R: RouterSm>(
        mut h: Harness<R>,
        links: &[Link],
        cost: impl Fn(NodeId, NodeId, u32) -> f64,
        looped: impl Fn(&Harness<R>) -> bool,
    ) -> (Harness<R>, u64, u64) {
        assert!(h.run_to_quiescence(2_000_000));
        for (round, l) in links.iter().cycle().take(120).enumerate() {
            h.change_cost(l.from, l.to, cost(l.from, l.to, round as u32 + 1));
        }
        let (mut steps, mut loops) = (0u64, 0u64);
        loop {
            loops += looped(&h) as u64;
            if !h.step() {
                return (h, steps, loops);
            }
            steps += 1;
        }
    }

    // --- MPDA arm ---
    let mpda_lfi = |h: &Harness<MpdaRouter>| {
        let r = &h.routers;
        let succ = |i: NodeId, j| r[i.index()].successors(j);
        lfi::check(n, succ, |i, j| r[i.index()].feasible_distance(j), |_, _| true)
    };
    let h = Harness::mpda(&t, |a, b| cost(a, b, 0), 5);
    let (_, steps, loops) = churn(h, &links, cost, |h| mpda_lfi(h).is_err());
    println!("MPDA (LFI on):  {steps} deliveries, {loops} loop observations");
    fig.add_series(
        "MPDA (LFI on)",
        vec![steps as f64, loops as f64, 100.0 * loops as f64 / steps.max(1) as f64],
    );
    assert_eq!(loops, 0, "Theorem 3 violated");

    // --- PDA arm: identical churn, Eq. 14 successors. PDA keeps no
    // feasible distances, so no edge is FD-comparable: only the cycle
    // half of the check applies. ---
    let pda_loop = |h: &Harness<PdaRouter>| {
        lfi::check(n, |i, j| h.routers[i.index()].successors(j), |_, _| 0.0, |_, _| false)
    };
    let h = Harness::pda(&t, |a, b| cost(a, b, 0), 5);
    let (h, steps, loops) = churn(h, &links, cost, |h| pda_loop(h).is_err());
    println!("PDA (LFI off):  {steps} deliveries, {loops} loop observations");
    // Sanity: at quiescence Eq. 14 gives a DAG again (Theorem 2), so the
    // loop observations above are genuinely *transient*.
    h.assert_converged();
    if let Err(v) = pda_loop(&h) {
        panic!("PDA still looping at quiescence: {v}");
    }
    fig.add_series(
        "PDA (LFI off)",
        vec![steps as f64, loops as f64, 100.0 * loops as f64 / steps.max(1) as f64],
    );
    fig.note("identical topology, costs, churn script and delivery schedule for both arms".into());
    fig.finish();
}

/// Ablation: the AH heuristic and its step gain (§4.2) — AH disabled
/// (γ = 0), damped (γ = 0.25, 0.4, 0.5), and the paper-literal largest
/// Property-1-preserving step (γ = 1), on both evaluation topologies.
pub fn ablation_ah() {
    let gains = [0.0, 0.25, 0.4, 0.5, 1.0];
    let mut fig = Figure::new(
        "ablation_ah",
        "Mean delay (ms) vs AH gain (0 = AH off, 1 = Fig. 7 literal)",
        gains.iter().map(|g| format!("gain {g}")).collect(),
    );
    let setups = [("CAIRN", cairn_setup(CAIRN_RATE)), ("NET1", net1_setup(NET1_RATE))];
    for (name, (t, flows, _)) in &setups {
        // The OPT reference, then the gain sweep, as one parallel batch.
        let gain_jobs = gains.iter().map(|&ah_gain| {
            job(Scheme::mp(10.0, 2.0), t, flows, SimConfig { ah_gain, ..figure_run_config() })
        });
        let jobs = std::iter::once(job(Scheme::Opt, t, flows, SimConfig::default()))
            .chain(gain_jobs)
            .collect();
        let reports = run_many(jobs);
        let opt = reports[0].mean_delay_ms();
        let mut vals = Vec::new();
        for (&gain, r) in gains.iter().zip(&reports[1..]) {
            println!(
                "{name} gain {gain}: MP {:.3} ms (OPT {:.3} ms, ratio {:.2})",
                r.mean_delay_ms(),
                opt,
                r.mean_delay_ms() / opt
            );
            vals.push(r.mean_delay_ms());
        }
        fig.add_series(name, vals);
        fig.note(format!("{name} OPT reference: {opt:.3} ms"));
    }
    fig.finish();
}

/// Ablation: marginal-delay estimation technique (§4.3) — MP with the
/// closed-form M/M/1 estimator (capacity known) vs the
/// capacity-oblivious online estimator, on both topologies.
pub fn ablation_estimator() {
    let mut fig = Figure::new(
        "ablation_estimator",
        "Mean delay (ms): closed-form M/M/1 vs capacity-oblivious online estimator",
        vec!["M/M/1 (capacity known)".into(), "PA-style (capacity unknown)".into()],
    );
    let setups = [("CAIRN", cairn_setup(CAIRN_RATE)), ("NET1", net1_setup(NET1_RATE))];
    let ests = [EstimatorKind::Mm1, EstimatorKind::Pa];
    let jobs = setups
        .iter()
        .flat_map(|(_, (t, flows, _))| {
            ests.iter().map(move |&estimator| {
                let scheme = Scheme::Mp { t_long: 10.0, t_short: 2.0, estimator };
                job(scheme, t, flows, figure_run_config())
            })
        })
        .collect();
    let results = run_many(jobs);
    for ((name, _), chunk) in setups.iter().zip(results.chunks(ests.len())) {
        let mut vals = Vec::new();
        for (est, r) in ests.iter().zip(chunk) {
            println!("{name} {est:?}: MP {:.3} ms", r.mean_delay_ms());
            vals.push(r.mean_delay_ms());
        }
        fig.add_series(name, vals);
    }
    fig.note(
        "CAIRN: estimator-agnostic (within a few percent). NET1 sits at a knife-edge load where the \
PA-style estimator's noisier costs lose a few ms versus the closed form — consistent \
with the paper's caveat that 'some methods may be better than others'."
            .into(),
    );
    fig.finish();
}

/// Ablation: traffic burstiness vs the M/M/1 design assumption (§4.3)
/// — MP vs SP under deterministic, exponential, and bimodal packet
/// lengths; the relative ordering MP < SP must survive model mismatch.
pub fn ablation_traffic() {
    let (t, flows, _) = net1_setup(NET1_RATE * 0.96); // just off the knife edge
    let traffic = TrafficMatrix::from_flows(&t, &flows).expect("traffic");
    let dists = [PacketDist::Deterministic, PacketDist::Exponential, PacketDist::Bimodal];
    let mut fig = Figure::new(
        "ablation_traffic",
        "Mean delay (ms) under packet-length model mismatch (NET1)",
        dists.iter().map(|d| format!("{d:?}")).collect(),
    );
    let modes = [("MP-TL-10-TS-2", Mode::Multipath), ("SP-TL-10", Mode::SinglePath)];
    // One batch over the (mode × distribution) grid.
    let (t, traffic) = (&t, &traffic);
    let jobs: Vec<SimJob> = modes
        .iter()
        .flat_map(|&(_, mode)| {
            dists.iter().map(move |&dist| {
                let cfg = SimConfig {
                    mode,
                    packet_dist: dist,
                    warmup: 30.0,
                    duration: 60.0,
                    seed: 7,
                    ..Default::default()
                };
                SimJob::new(t, traffic, cfg)
            })
        })
        .collect();
    let reports = run_many(jobs);
    for (&(label, _), chunk) in modes.iter().zip(reports.chunks(dists.len())) {
        let mut vals = Vec::new();
        for (dist, r) in dists.iter().zip(chunk) {
            println!("{label} {dist:?}: {:.3} ms", r.mean_delay_ms());
            vals.push(r.mean_delay_ms());
        }
        fig.add_series(label, vals);
    }
    fig.note("MP's advantage must survive the M/M/1 model mismatch in both directions".into());
    fig.finish();
}

/// Integer costs: path sums are exact in f64, so the two protocols'
/// strict `<` successor comparisons cannot be split by 1-ulp summation
/// differences (they sum path costs in different orders).
fn dv_cost(a: NodeId, b: NodeId, salt: u32) -> f64 {
    1.0 + ((a.0.wrapping_mul(97) ^ b.0.wrapping_mul(31) ^ salt) % 9) as f64
}

/// Converge a DV network FIFO round-robin; returns (routers, messages).
fn run_dv(t: &Topology, salt: u32) -> (Vec<DvRouter>, u64) {
    let n = t.node_count();
    let mut routers: Vec<DvRouter> = (0..n).map(|i| DvRouter::new(NodeId(i as u32), n)).collect();
    let mut queue: Vec<(NodeId, NodeId, DvMessage)> = Vec::new();
    for l in t.links() {
        let out = routers[l.from.index()]
            .handle(DvEvent::LinkUp { to: l.to, cost: dv_cost(l.from, l.to, salt) });
        for (to, m) in out.sends {
            queue.push((l.from, to, m));
        }
    }
    let mut msgs = 0u64;
    while !queue.is_empty() {
        let (from, to, msg) = queue.remove(0);
        msgs += 1;
        assert!(msgs < 10_000_000);
        let out = routers[to.index()].handle(DvEvent::Message { from, msg });
        for (t2, m2) in out.sends {
            queue.push((to, t2, m2));
        }
        assert!(dv::dv_loop_free(&routers));
    }
    (routers, msgs)
}

/// Feed one cost change into a converged DV network; count messages.
fn dv_change(routers: &mut [DvRouter], from: NodeId, to: NodeId, c: f64) -> u64 {
    let mut queue: Vec<(NodeId, NodeId, DvMessage)> = Vec::new();
    let out = routers[from.index()].handle(DvEvent::LinkCost { to, cost: c });
    for (t2, m2) in out.sends {
        queue.push((from, t2, m2));
    }
    let mut msgs = 0u64;
    while !queue.is_empty() {
        let (f2, t2, msg) = queue.remove(0);
        msgs += 1;
        assert!(msgs < 10_000_000);
        let out = routers[t2.index()].handle(DvEvent::Message { from: f2, msg });
        for (t3, m3) in out.sends {
            queue.push((t2, t3, m3));
        }
    }
    msgs
}

/// Extension experiment: MPDA (link-state) vs MDVP (distance-vector) —
/// messages to converge from cold boot and to absorb one link-cost
/// change, with state equality verified at convergence.
pub fn extension_dv() {
    let mut fig = Figure::new(
        "extension_dv",
        "LFI over link state (MPDA) vs distance vectors (MDVP): messages to converge",
        vec![
            "boot msgs/node (MPDA)".into(),
            "boot msgs/node (MDVP)".into(),
            "cost-change msgs/node (MPDA)".into(),
            "cost-change msgs/node (MDVP)".into(),
        ],
    );
    let sizes = [8usize, 16, 32];
    let mut per_size: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &n in &sizes {
        let trials = 5u64;
        let mut acc = [0.0f64; 4];
        for trial in 0..trials {
            let t = topo::random_connected(n, 3.5, 1e7, 0.001, 2000 + trial);
            // MPDA arm via the routing harness.
            let mut h = Harness::mpda(&t, |a, b| dv_cost(a, b, trial as u32), trial);
            assert!(h.run_to_quiescence(10_000_000));
            h.assert_converged();
            acc[0] += h.delivered() as f64 / n as f64 / trials as f64;
            // MDVP arm.
            let (mut dvs, boot) = run_dv(&t, trial as u32);
            acc[1] += boot as f64 / n as f64 / trials as f64;
            // State equality at convergence.
            for (i, dvi) in dvs.iter().enumerate() {
                for j in 0..n as u32 {
                    let j = NodeId(j);
                    let a = dvi.distance(j);
                    let b = h.routers[i].distance(j);
                    assert!(
                        (a - b).abs() < 1e-9 || (a > 1e15 && b > 1e15),
                        "distance mismatch ({i},{j})"
                    );
                    assert_eq!(dvi.successors(j), h.routers[i].successors(j));
                }
            }
            // One cost change on each.
            let l = t.links()[0];
            let before = h.delivered();
            h.change_cost(l.from, l.to, 42.0);
            assert!(h.run_to_quiescence(10_000_000));
            acc[2] += (h.delivered() - before) as f64 / n as f64 / trials as f64;
            acc[3] += dv_change(&mut dvs, l.from, l.to, 42.0) as f64 / n as f64 / trials as f64;
        }
        println!(
            "n={n:>3}: boot MPDA {:.1} vs MDVP {:.1} msgs/node; cost-change MPDA {:.2} vs MDVP {:.2}",
            acc[0], acc[1], acc[2], acc[3]
        );
        per_size.insert(n, acc.to_vec());
    }
    for (&n, acc) in &per_size {
        fig.add_series(&format!("n={n}"), acc.clone());
    }
    fig.note("identical distances and successor sets verified at every convergence".into());
    fig.finish();
}

/// One cell of the chaos grid: a (topology, intensity, seed) run with
/// its measured damage and recovery.
#[derive(serde::Serialize)]
struct ChaosCell {
    topology: String,
    intensity: String,
    seed: u64,
    rate_mbps: f64,
    delivered: u64,
    dropped: u64,
    control_messages: u64,
    /// The structured network adversary in force, if any (profile spec
    /// plus partition schedule, the same grammar `mdr-node` takes).
    adversary: Option<String>,
    /// Recovery distribution split by fault class.
    by_class: Vec<ClassStats>,
    robustness: RobustnessReport,
}

/// Per-fault-class recovery statistics inside one cell.
#[derive(serde::Serialize)]
struct ClassStats {
    class: String,
    injected: u64,
    recovered: u64,
    mean_recovery_s: f64,
    max_recovery_s: f64,
}

/// Split fault records by class and aggregate each class's recovery
/// distribution, summing recoveries in record order.
fn class_stats(faults: &[FaultRecord]) -> Vec<ClassStats> {
    let mut acc: BTreeMap<&'static str, (u64, u64, f64, f64)> = BTreeMap::new();
    for f in faults {
        let e = acc.entry(f.event.class()).or_default();
        e.0 += 1;
        if let Some(r) = f.recovery_s {
            e.1 += 1;
            e.2 += r;
            e.3 = e.3.max(r);
        }
    }
    acc.into_iter()
        .map(|(class, (injected, recovered, sum, max))| ClassStats {
            class: class.to_string(),
            injected,
            recovered,
            mean_recovery_s: if recovered > 0 { sum / recovered as f64 } else { 0.0 },
            max_recovery_s: max,
        })
        .collect()
}

/// The whole `results/chaos.json` document.
#[derive(serde::Serialize)]
struct ChaosResults {
    id: String,
    title: String,
    cells: Vec<ChaosCell>,
    notes: Vec<String>,
}

/// The three chaos intensities: a label plus a [`FaultPlan`] template
/// whose `seed` is re-derived per cell.
fn chaos_intensities() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "light",
            FaultPlan {
                seed: 0xC4A0_0001,
                start: 5.0,
                link_faults: Some(FaultProcess { mtbf: 20.0, mttr: 2.0 }),
                router_faults: None,
                control: None,
                profile: None,
            },
        ),
        (
            "medium",
            FaultPlan {
                seed: 0xC4A0_0002,
                start: 5.0,
                link_faults: Some(FaultProcess { mtbf: 15.0, mttr: 2.0 }),
                router_faults: None,
                control: Some(ControlChaos::default()),
                profile: None,
            },
        ),
        (
            "heavy",
            FaultPlan {
                seed: 0xC4A0_0003,
                start: 5.0,
                link_faults: Some(FaultProcess { mtbf: 10.0, mttr: 2.0 }),
                router_faults: Some(FaultProcess { mtbf: 40.0, mttr: 3.0 }),
                control: Some(ControlChaos {
                    drop_prob: 0.15,
                    dup_prob: 0.05,
                    corrupt_prob: 0.05,
                    jitter_max: 0.01,
                    rto: 0.02,
                }),
                profile: None,
            },
        ),
    ]
}

/// The adversarial campaign: structured [`NetProfile`] adversaries
/// (bursty Gilbert–Elliott, asymmetric, grey failure, scripted
/// partition/heal) at two intensities each. Loss and grey adversaries
/// run *under* the light link-fault process so every cell still has
/// fault recoveries to time; partition cells script their own atomic
/// cut/heal events (times are absolute sim seconds and must fit the
/// smoke horizon too).
fn chaos_adversaries() -> Vec<(&'static str, &'static str, Option<&'static str>, Vec<PartitionSpec>)>
{
    let cut = |at: f64, heal_at: f64, side: &[u32]| PartitionSpec {
        at,
        heal_at,
        side: side.iter().map(|&i| NodeId(i)).collect(),
    };
    vec![
        ("bursty", "light", Some("ge:0.03,0.5,0.005,0.5"), vec![]),
        ("bursty", "heavy", Some("ge:0.1,0.3,0.02,0.8"), vec![]),
        ("asym", "light", Some("iid:0.01;rev-ge:0.05,0.5,0.0,0.6"), vec![]),
        ("asym", "heavy", Some("iid:0.03;rev-ge:0.12,0.3,0.01,0.8"), vec![]),
        ("grey", "light", Some("grey:0.2,0.05"), vec![]),
        ("grey", "heavy", Some("iid:0.01;grey:0.5,0.15"), vec![]),
        ("partition", "light", None, vec![cut(8.0, 12.0, &[0, 1])]),
        ("partition", "heavy", None, vec![cut(8.0, 12.0, &[0, 1, 2, 3, 4]), cut(14.0, 17.0, &[5])]),
    ]
}

/// Tentpole robustness experiment — CAIRN and NET1 under three seeded
/// fault intensities (link failures, router crash/restarts, lossy and
/// corrupting control channel), plus the adversarial profile campaign
/// (bursty, asymmetric, grey, partition/heal), with invariant auditing
/// on for every routing-table change. Writes `results/chaos.json` and
/// asserts the paper's core safety claim: zero LFI violations under any
/// schedule.
///
/// `smoke` runs the CI subset (NET1, medium intensity,
/// one seed, short horizon) with the same assertions.
pub fn chaos(smoke: bool) {
    // Half the figure loads: chaos removes capacity, and the question
    // here is recovery and safety, not queueing at the feasibility edge.
    let grid: Vec<(&'static str, Topology, Vec<Flow>, f64)> = if smoke {
        let (t, flows, _) = net1_setup(NET1_RATE * 0.5);
        vec![("NET1", t, flows, NET1_RATE * 0.5)]
    } else {
        let (tc, fc, _) = cairn_setup(CAIRN_RATE * 0.5);
        let (tn, fn_, _) = net1_setup(NET1_RATE * 0.5);
        vec![("CAIRN", tc, fc, CAIRN_RATE * 0.5), ("NET1", tn, fn_, NET1_RATE * 0.5)]
    };
    let (warmup, duration) = if smoke { (5.0, 15.0) } else { (10.0, 40.0) };
    let seeds: &[u64] = if smoke { &[7] } else { &[7, 19] };
    let intensities = chaos_intensities();
    let intensities: Vec<_> = if smoke {
        intensities.into_iter().filter(|(l, _)| *l == "medium").collect()
    } else {
        intensities
    };

    // One flat batch over the whole grid; results come back in order.
    struct CellMeta {
        topo: &'static str,
        intensity: String,
        seed: u64,
        rate: f64,
        adversary: Option<String>,
        has_partition: bool,
    }
    let mut meta: Vec<CellMeta> = Vec::new();
    let mut jobs: Vec<SimJob> = Vec::new();
    for (name, t, flows, rate) in &grid {
        let traffic = TrafficMatrix::from_flows(t, flows).expect("chaos traffic");
        for (label, template) in &intensities {
            for &seed in seeds {
                let plan = FaultPlan { seed: template.seed ^ seed, ..template.clone() };
                let cfg = SimConfig {
                    warmup,
                    duration,
                    seed,
                    fault_plan: Some(plan),
                    audit_invariants: true,
                    ..Default::default()
                };
                meta.push(CellMeta {
                    topo: name,
                    intensity: label.to_string(),
                    seed,
                    rate: *rate,
                    adversary: None,
                    has_partition: false,
                });
                jobs.push(SimJob::new(t, &traffic, cfg));
            }
        }
    }

    // The adversarial campaign rides on NET1 (present in both the full
    // grid and the smoke subset).
    let adversaries = chaos_adversaries();
    let adversaries: Vec<_> = if smoke {
        adversaries
            .into_iter()
            .filter(|(class, level, _, _)| {
                *level == "light" && (*class == "bursty" || *class == "partition")
            })
            .collect()
    } else {
        adversaries
    };
    let (net1_name, net1_t, net1_flows, net1_rate) =
        grid.iter().find(|(name, ..)| *name == "NET1").expect("NET1 is in every grid");
    let net1_traffic = TrafficMatrix::from_flows(net1_t, net1_flows).expect("chaos traffic");
    for (class, level, spec, parts) in &adversaries {
        for &seed in seeds {
            let mut profile = match spec {
                Some(s) => NetProfile::parse(s, 0xADB0 ^ seed).expect("adversary spec parses"),
                None => NetProfile { seed: 0xADB0 ^ seed, ..NetProfile::default() },
            };
            profile.partitions = parts.clone();
            let plan = FaultPlan {
                seed: 0xC4A0_00AD ^ seed,
                start: 5.0,
                // Loss/grey adversaries need faults to time recovery
                // against; partition cells script their own events.
                link_faults: parts.is_empty().then_some(FaultProcess { mtbf: 20.0, mttr: 2.0 }),
                router_faults: None,
                control: None,
                profile: Some(profile),
            };
            let cfg = SimConfig {
                warmup,
                duration,
                seed,
                fault_plan: Some(plan),
                audit_invariants: true,
                ..Default::default()
            };
            let mut adversary = spec.unwrap_or("").to_string();
            for p in parts {
                if !adversary.is_empty() {
                    adversary.push(';');
                }
                let side: Vec<String> = p.side.iter().map(|n| n.0.to_string()).collect();
                adversary.push_str(&format!("{}:{}:{}", p.at, p.heal_at, side.join("|")));
            }
            meta.push(CellMeta {
                topo: net1_name,
                intensity: format!("{class}/{level}"),
                seed,
                rate: *net1_rate,
                adversary: Some(adversary),
                has_partition: !parts.is_empty(),
            });
            jobs.push(SimJob::new(net1_t, &net1_traffic, cfg));
        }
    }
    let reports = run_many(jobs);

    let mut doc = ChaosResults {
        // The smoke subset writes beside the full results, not over
        // them.
        id: if smoke { "chaos_smoke".into() } else { "chaos".into() },
        title: "Seeded chaos: recovery and safety under link, router, and control-plane faults"
            .into(),
        cells: Vec::new(),
        notes: Vec::new(),
    };
    println!("== chaos — {} ==", doc.title);
    println!(
        "{:<7}{:<17}{:>5}{:>8}{:>10}{:>10}{:>10}{:>11}{:>9}{:>10}{:>11}",
        "topo",
        "level",
        "seed",
        "faults",
        "recov",
        "mean_s",
        "max_s",
        "blackhole",
        "looped",
        "lsu_drop",
        "violations"
    );
    let mut total_recovered = 0u64;
    for (m, rep) in meta.into_iter().zip(reports) {
        let (name, label, seed) = (m.topo, m.intensity, m.seed);
        let rob = rep.robustness.clone().expect("chaos run must carry a robustness report");
        assert!(!rob.faults.is_empty(), "{name}/{label}/{seed}: fault plan injected nothing");
        assert_eq!(
            rob.invariant_violations, 0,
            "{name}/{label}/{seed}: LFI violated — {:?}",
            rob.first_violation
        );
        if m.has_partition {
            // A partition cell must record its scripted cut AND heal,
            // and the routing must reconverge after the heal.
            let heal = rob
                .faults
                .iter()
                .filter(|f| matches!(f.event, FaultEvent::PartitionHeal { .. }))
                .collect::<Vec<_>>();
            assert!(!heal.is_empty(), "{name}/{label}/{seed}: no heal recorded");
            assert!(
                heal.iter().any(|f| f.recovery_s.is_some()),
                "{name}/{label}/{seed}: routing never reconverged after a heal"
            );
        }
        total_recovered += rob.recovered;
        println!(
            "{:<7}{:<17}{:>5}{:>8}{:>10}{:>10.3}{:>10.3}{:>11}{:>9}{:>10}{:>11}",
            name,
            label,
            seed,
            rob.faults.len(),
            rob.recovered,
            rob.mean_recovery_s,
            rob.max_recovery_s,
            rob.counters.packets_blackholed,
            rob.counters.packets_looped,
            rob.counters.lsus_dropped,
            rob.invariant_violations,
        );
        doc.cells.push(ChaosCell {
            topology: name.to_string(),
            intensity: label,
            seed,
            rate_mbps: m.rate / 1e6,
            delivered: rep.delivered,
            dropped: rep.dropped,
            control_messages: rep.control_messages,
            adversary: m.adversary,
            by_class: class_stats(&rob.faults),
            robustness: rob,
        });
    }
    assert!(total_recovered > 0, "no fault ever recovered — harness broken");
    doc.notes.push(format!(
        "per-flow load at half the figure rates; warmup {warmup} s, measured {duration} s; \
every cell audited after every routing-table change — {} LFI checks total, zero violations",
        doc.cells.iter().map(|c| c.robustness.invariant_checks).sum::<u64>()
    ));
    doc.notes.push(
        "recovery = first instant after a fault with no LSU in flight and every router PASSIVE"
            .into(),
    );
    doc.notes.push(
        "adversarial cells (bursty/asym/grey/partition) run the structured NetProfile \
channel — the same seeded adversary the live shell injects at its sockets"
            .into(),
    );
    for n in &doc.notes {
        println!("note: {n}");
    }

    let dir = crate::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{}.json", doc.id));
    match serde_json::to_string_pretty(&doc) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("results written to {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize chaos results: {e}"),
    }
}

/// One scenario's trace file summary in `results/trace.json`.
#[derive(serde::Serialize)]
struct TraceScenario {
    scenario: String,
    path: String,
    events: u64,
    route_changes: u64,
    faults: u64,
    quiescent: u64,
    delivered: u64,
    dropped: u64,
}

/// Per-fault-class convergence statistics in `results/trace.json`.
#[derive(serde::Serialize)]
struct TraceConvergence {
    class: String,
    samples: u64,
    mean_recovery_s: f64,
    max_recovery_s: f64,
}

/// The whole `results/trace.json` document.
#[derive(serde::Serialize)]
struct TraceResults {
    id: String,
    title: String,
    scenarios: Vec<TraceScenario>,
    convergence: Vec<TraceConvergence>,
    notes: Vec<String>,
}

/// Telemetry tentpole — replays the §5 dynamic scenarios (the traffic
/// burst behind the Fig. 9/12 discussion and the trunk failure) with the
/// JSONL observer attached, writing deterministic control-plane
/// timelines to `results/trace_burst.jsonl` / `results/trace_failure.jsonl`,
/// then measures MPDA convergence per fault class over seeded chaos runs
/// from their fault records (`results/trace.json`).
///
/// `smoke` runs the CI subset (short horizons, one chaos
/// cell) with the same determinism and observer-neutrality assertions.
pub fn trace(smoke: bool) {
    let dir = crate::results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let id = if smoke { "trace_smoke" } else { "trace" };
    let mut doc = TraceResults {
        id: id.into(),
        title: "Structured event timelines and per-fault-class MPDA convergence".into(),
        scenarios: Vec::new(),
        convergence: Vec::new(),
        notes: Vec::new(),
    };
    println!("== {id} — {} ==", doc.title);

    // --- deterministic JSONL timelines of the §5 scenarios -----------
    let base = 2_500_000.0;
    let (t, flows, _) = cairn_setup(base);
    let traffic = TrafficMatrix::from_flows(&t, &flows).expect("trace traffic");
    let (warmup, duration, t0, t1) =
        if smoke { (5.0, 15.0, 8.0, 12.0) } else { (30.0, 90.0, 60.0, 90.0) };
    let sri = t.node_by_name("sri").unwrap();
    let mci = t.node_by_name("mci-r").unwrap();
    let burst = Scenario::new()
        .at(t0, ScenarioEvent::SetFlowRate { flow: 4, rate: base * 2.0 })
        .at(t1, ScenarioEvent::SetFlowRate { flow: 4, rate: base });
    let failure = Scenario::new()
        .at(t0, ScenarioEvent::FailLink { a: sri, b: mci })
        .at(t1, ScenarioEvent::RestoreLink { a: sri, b: mci });
    let scenarios = [("burst", burst), ("failure", failure)];

    let path = |name: &str| dir.join(format!("{id}_{name}.jsonl")).to_string_lossy().into_owned();
    let cfg = |observer: ObserverMode| SimConfig {
        warmup,
        duration,
        seed: 7,
        observer,
        ..Default::default()
    };
    let job = |scen: &Scenario, observer: ObserverMode| {
        SimJob::new(&t, &traffic, cfg(observer)).with_scenario(scen)
    };

    // The canonical traces come out of one parallel batch; the reruns
    // below are serial, so byte-equality covers both repeat-run
    // determinism and serial-vs-parallel identity at once.
    let jobs = scenarios
        .iter()
        .map(|(name, scen)| job(scen, ObserverMode::Jsonl { path: path(name), data_plane: false }))
        .collect();
    let reports = run_many(jobs);

    for ((name, scen), rep) in scenarios.iter().zip(&reports) {
        let sink = rep
            .telemetry
            .as_ref()
            .and_then(|tel| tel.sink.clone())
            .expect("jsonl observer must report its sink");
        let bytes = std::fs::read(&sink.path).expect("read trace");
        assert!(sink.lines > 0 && !bytes.is_empty(), "{name}: trace is empty");

        // Serial rerun to a scratch path: the bytes must match exactly.
        let check = path(&format!("{name}_check"));
        let rep2 = job(scen, ObserverMode::Jsonl { path: check.clone(), data_plane: false }).run();
        let bytes2 = std::fs::read(&check).expect("read check trace");
        assert_eq!(bytes, bytes2, "{name}: serial rerun produced a different trace");
        let _ = std::fs::remove_file(&check);

        // Observer neutrality: with the observer off, the report is
        // bit-identical apart from the telemetry field itself.
        let off = job(scen, ObserverMode::Off).run();
        assert!(off.telemetry.is_none(), "observer off must report no telemetry");
        let mut stripped = rep.clone();
        stripped.telemetry = None;
        let mut stripped2 = rep2;
        stripped2.telemetry = None;
        assert_eq!(stripped, stripped2, "{name}: serial vs parallel reports differ");
        assert_eq!(stripped, off, "{name}: observer perturbed the simulation");

        let text = String::from_utf8(bytes).expect("utf8 trace");
        let count = |k: &str| {
            text.lines().filter(|l| l.starts_with(&format!("{{\"kind\":\"{k}\""))).count() as u64
        };
        let row = TraceScenario {
            scenario: name.to_string(),
            path: format!("results/{id}_{name}.jsonl"),
            events: sink.lines,
            route_changes: count("route_change"),
            faults: count("fault"),
            quiescent: count("control_quiescent"),
            delivered: rep.delivered,
            dropped: rep.dropped,
        };
        println!(
            "{:<8} {:>8} events  {:>6} route changes  {:>3} faults  {:>3} quiescent  -> {}",
            row.scenario, row.events, row.route_changes, row.faults, row.quiescent, row.path
        );
        doc.scenarios.push(row);
    }
    doc.notes.push(format!(
        "timelines are control-plane only (data-plane events filtered at the sink); \
warmup {warmup} s, horizon {duration} s, scenario events at {t0} s and {t1} s; \
byte-identity asserted between parallel and serial runs, and observer-off reports \
asserted bit-identical to observer-on"
    ));

    // --- per-fault-class convergence from the fault records ----------
    let (tn, fln, _) = net1_setup(NET1_RATE * 0.5);
    let ntraffic = TrafficMatrix::from_flows(&tn, &fln).expect("trace net1 traffic");
    let (cw, cd) = if smoke { (4.0, 10.0) } else { (10.0, 40.0) };
    let seeds: &[u64] = if smoke { &[7] } else { &[7, 19, 31] };
    let wanted: &[&str] = if smoke { &["medium"] } else { &["medium", "heavy"] };
    let mut jobs: Vec<SimJob> = Vec::new();
    for (_, template) in chaos_intensities().iter().filter(|(l, _)| wanted.contains(l)) {
        for &seed in seeds {
            let plan = FaultPlan { seed: template.seed ^ seed, ..template.clone() };
            let cfg = SimConfig {
                warmup: cw,
                duration: cd,
                seed,
                fault_plan: Some(plan),
                ..Default::default()
            };
            jobs.push(SimJob::new(&tn, &ntraffic, cfg));
        }
    }
    // Pooled in job order, then record order: the order in which the
    // runs close their recovery clocks.
    let faults: Vec<FaultRecord> = run_many(jobs)
        .into_iter()
        .flat_map(|rep| rep.robustness.expect("a fault plan reports robustness").faults)
        .collect();
    let stats = class_stats(&faults);
    assert!(stats.iter().any(|c| c.recovered > 0), "chaos cells produced no convergence samples");
    println!("{:<16}{:>9}{:>12}{:>12}", "fault class", "samples", "mean_s", "max_s");
    for class in ["link_fail", "link_restore", "router_crash", "router_restart"] {
        let (n, mean_s, max_s) = stats
            .iter()
            .find(|c| c.class == class)
            .map_or((0, 0.0, 0.0), |c| (c.recovered, c.mean_recovery_s, c.max_recovery_s));
        println!("{class:<16}{n:>9}{mean_s:>12.3}{max_s:>12.3}");
        doc.convergence.push(TraceConvergence {
            class: class.into(),
            samples: n,
            mean_recovery_s: mean_s,
            max_recovery_s: max_s,
        });
    }
    doc.notes.push(format!(
        "convergence = fault injection to the next control-plane quiescence (no LSU in \
flight, every router PASSIVE), from the cells' `RobustnessReport::faults`; \
NET1 at half the figure load, {} chaos cells over seeds {seeds:?}",
        wanted.len() * seeds.len()
    ));
    for n in &doc.notes {
        println!("note: {n}");
    }

    let out = dir.join(format!("{id}.json"));
    match serde_json::to_string_pretty(&doc) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&out, s) {
                eprintln!("warning: could not write {}: {e}", out.display());
            } else {
                println!("results written to {}", out.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize trace results: {e}"),
    }
}

/// One `scale` setup: a generated topology, its gravity traffic, and
/// the fluid control plane that drives it.
struct ScaleSetup {
    label: &'static str,
    topo: Topology,
    flows: Vec<Flow>,
    sim_mode: SimMode,
}

/// The `scale` setups. Rates are picked so hub links run hot enough
/// that single-path routing visibly congests them while MPDA's
/// multipath split stays comfortable — the same regime the paper's
/// CAIRN/NET1 operating points sit in, on topologies three orders of
/// magnitude larger.
fn scale_setups(smoke: bool) -> Vec<ScaleSetup> {
    // BA-500: scale-free hubs, the distributed control plane (real LSU
    // exchange over every link, all 500 routers flooding). Traffic
    // between 40 sampled endpoints: after a control event the
    // per-event engine re-runs the forward pass of each destination
    // whose rows or rates it moved, and the backward pass of every
    // destination over the rows its sources reach, so the *active
    // destination* count — not the router count — is what it can
    // afford, and a sparse matrix is the realistic shape anyway.
    let ba = gen::barabasi_albert(500, 2, 11);
    let ba_endpoints: Vec<NodeId> = ba.nodes().step_by(12).take(40).collect();
    let ba_flows = gen::gravity_flows(&ba_endpoints, 2, 4.5e7, 11);
    let ba =
        ScaleSetup { label: "ba500-fluid", topo: ba, flows: ba_flows, sim_mode: SimMode::Fluid };
    if smoke {
        return vec![ba];
    }

    // ISP-1k: 50-router backbone, 19 access routers per PoP (1000
    // routers total), every access router dual-homed — the multipath
    // structure MPDA exploits. Quiescent control plane (converged
    // tables per epoch), which is what makes 1k+ tractable.
    // Traffic is the elephant/mice mix rather than gravity: gravity's
    // Pareto(1.5) masses draw destinations ∝ mass and weight rates
    // ∝ mass², whose tail index < 1 makes a single sink attract ~90%
    // of the whole matrix at ISP scale — undeliverable through one
    // PoP's dual-home no matter the routing. Uniform pairs keep every
    // endpoint's aggregate inside its access capacity, so contention
    // happens where it should: elephants overlapping on backbone hub
    // links, which SP stacks on one shortest path and MPDA splits.
    //
    // Load budget: total × mean-backbone-path-length must sit below
    // the directed backbone capacity (~2 Gb/s here), and a single
    // elephant (70% of total over num_flows/10) below one 10 Mb/s
    // link.
    let isp1k = gen::two_tier_isp(50, 19, 11);
    let eps1k: Vec<NodeId> = isp1k.nodes().collect();
    let flows1k = gen::elephant_mice_flows(&eps1k, 1000, 3.0e8, 0.7, 11);

    // ISP-10k: 500-router backbone, 19 access per PoP = 10,000 routers.
    // Same budget logic against the ~20 Gb/s backbone and longer
    // paths; 2000 flows over 400 sampled access routers keeps the
    // active-destination count (which the per-epoch work scales with)
    // at a realistic sparse-matrix level.
    let isp10k = gen::two_tier_isp(500, 19, 11);
    let eps10k: Vec<NodeId> = isp10k.nodes().skip(500).step_by(24).take(400).collect();
    let flows10k = gen::elephant_mice_flows(&eps10k, 2000, 1.2e9, 0.7, 11);

    vec![
        ba,
        ScaleSetup {
            label: "isp-1k",
            topo: isp1k,
            flows: flows1k,
            sim_mode: SimMode::FluidQuiescent,
        },
        ScaleSetup {
            label: "isp-10k",
            topo: isp10k,
            flows: flows10k,
            sim_mode: SimMode::FluidQuiescent,
        },
    ]
}

/// Scale tentpole — MPDA vs single-path routing beyond the paper's
/// 8/20-router evaluation: generated topologies at 500 (distributed
/// fluid control plane), 1k, and 10k routers (quiescent control
/// plane), gravity-model traffic, fluid flow-level simulation. The
/// packet-vs-fluid cross-validation suite (`tests/fluid_crossval.rs`)
/// anchors the fluid engine's fidelity on the paper's own scenarios.
///
/// `smoke` runs the CI subset (BA-500, distributed
/// fluid control plane, short horizon) with the same assertions.
pub fn scale(smoke: bool) {
    let setups = scale_setups(smoke);
    let (warmup, duration) = if smoke { (8.0, 12.0) } else { (20.0, 30.0) };
    let modes = [("MP-TL-10-TS-2", Mode::Multipath), ("SP-TL-10", Mode::SinglePath)];

    let mut meta: Vec<(&'static str, &'static str, usize, usize, usize)> = Vec::new();
    let mut jobs: Vec<SimJob> = Vec::new();
    for s in &setups {
        let traffic = TrafficMatrix::from_flows(&s.topo, &s.flows).expect("generated flows");
        for &(mlabel, mode) in &modes {
            let cfg = SimConfig {
                mode,
                t_long: 10.0,
                t_short: 2.0,
                warmup,
                duration,
                seed: 7,
                sim_mode: s.sim_mode,
                ..Default::default()
            };
            meta.push((s.label, mlabel, s.topo.node_count(), s.topo.link_count(), s.flows.len()));
            jobs.push(SimJob::new(&s.topo, &traffic, cfg));
        }
    }
    let reports = run_many(jobs);

    let id = if smoke { "scale_smoke" } else { "scale" };
    let mut fig = Figure::new(
        id,
        "MPDA vs SP mean delay (ms) on generated topologies (fluid simulation)",
        setups.iter().map(|s| s.label.to_string()).collect(),
    );
    let mut by_mode: Vec<Vec<f64>> = vec![Vec::new(); modes.len()];
    for (chunk_meta, chunk) in meta.chunks(modes.len()).zip(reports.chunks(modes.len())) {
        let (label, _, nodes, links, nflows) = chunk_meta[0];
        for (mi, rep) in chunk.iter().enumerate() {
            // Sanity that holds at every scale: finite delays, traffic
            // actually delivered, bounded drops.
            assert!(rep.mean_delay_ms().is_finite() && rep.mean_delay_ms() > 0.0);
            assert!(rep.delivered > 0, "{label}: nothing delivered");
            by_mode[mi].push(rep.mean_delay_ms());
        }
        let (mp, sp) = (chunk[0].mean_delay_ms(), chunk[1].mean_delay_ms());
        println!(
            "{label:>10} ({nodes} routers, {links} directed links, {nflows} flows): \
MP {mp:>8.3} ms   SP {sp:>8.3} ms   SP/MP {:.2}   (MP drops {}, SP drops {})",
            sp / mp,
            chunk[0].dropped,
            chunk[1].dropped
        );
        fig.note(format!(
            "{label}: {nodes} routers, {links} directed links, {nflows} flows; \
MP {mp:.3} ms vs SP {sp:.3} ms (SP/MP {:.2}); drops MP {} / SP {}",
            sp / mp,
            chunk[0].dropped,
            chunk[1].dropped
        ));
    }
    for (&(mlabel, _), vals) in modes.iter().zip(by_mode) {
        fig.add_series(mlabel, vals);
    }
    fig.note(format!(
        "fluid flow-level simulation; warmup {warmup} s, measured {duration} s, seed 7; \
ba500 runs the distributed MPDA control plane (LSU exchange) under gravity traffic, \
isp-* the quiescent per-epoch control plane under the elephant/mice mix; \
engine fidelity anchored by tests/fluid_crossval.rs"
    ));
    fig.finish();
}
