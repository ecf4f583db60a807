//! Miniature versions of the paper's evaluation claims, fast enough for
//! every test run. The full figures live in `crates/bench`; these
//! guard the *direction* of each result so a regression anywhere in the
//! stack (routing, allocation, estimation, simulation) trips a test.

use mdr::prelude::*;

fn cfg(seed: u64) -> SimConfig {
    SimConfig { warmup: 15.0, duration: 25.0, seed, ..Default::default() }
}

/// Mean delay (ms) of `scheme` over `t` carrying `flows`.
fn run(t: &Topology, flows: &[Flow], scheme: Scheme, cfg: SimConfig) -> f64 {
    let traffic = TrafficMatrix::from_flows(t, flows).unwrap();
    scheme.job(t, &traffic, cfg).unwrap().run().mean_delay_ms()
}

/// Fig. 10 direction: MP within a modest envelope of OPT on NET1.
#[test]
fn net1_mp_close_to_opt() {
    let t = topo::net1();
    let flows = topo::net1_flows(2_200_000.0);
    let opt = run(&t, &flows, Scheme::Opt, cfg(7));
    let mp = run(&t, &flows, Scheme::mp(10.0, 2.0), cfg(7));
    let ratio = mp / opt;
    assert!((0.95..1.25).contains(&ratio), "MP/OPT = {ratio} (MP {mp} ms, OPT {opt} ms)");
}

/// Fig. 12 direction: SP substantially worse than MP on loaded NET1.
#[test]
fn net1_sp_much_worse_than_mp() {
    let t = topo::net1();
    let flows = topo::net1_flows(2_500_000.0);
    let mp = run(&t, &flows, Scheme::mp(10.0, 2.0), cfg(7));
    let sp = run(&t, &flows, Scheme::sp(10.0), cfg(7));
    assert!(sp > 1.8 * mp, "SP {sp} ms vs MP {mp} ms");
}

/// Fig. 9 direction: MP tracks OPT on CAIRN.
#[test]
fn cairn_mp_close_to_opt() {
    let t = topo::cairn();
    let flows = topo::cairn_flows(&t, 3_500_000.0);
    let opt = run(&t, &flows, Scheme::Opt, cfg(7));
    let mp = run(&t, &flows, Scheme::mp(10.0, 2.0), cfg(7));
    let ratio = mp / opt;
    assert!((0.9..1.3).contains(&ratio), "MP/OPT = {ratio}");
}

/// §5.2 direction: MP with T_s = T_l still close to OPT (the cheapest
/// possible MP deployment beats SP).
#[test]
fn mp_with_coarse_ts_still_good() {
    let t = topo::net1();
    let flows = topo::net1_flows(2_400_000.0);
    let mp_coarse = run(&t, &flows, Scheme::mp(10.0, 10.0), cfg(7));
    let sp = run(&t, &flows, Scheme::sp(10.0), cfg(7));
    assert!(mp_coarse < sp, "MP-TL-10-TS-10 {mp_coarse} ms vs SP {sp} ms");
}

/// The OPT solver is a valid lower bound: no scheme's *analytic*
/// evaluation beats it on the same instance.
#[test]
fn opt_is_lower_bound_analytically() {
    let t = topo::net1();
    let flows = topo::net1_flows(2_000_000.0);
    let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
    let models: Vec<Mm1> =
        t.links().iter().map(|l| Mm1::new(l.capacity, l.prop_delay, 1000.0)).collect();
    let opt = mdr::opt::solve(&t, &models, &traffic, GallagerConfig::default()).unwrap();
    // Run MP, extract its converged routing variables, evaluate them on
    // the same analytic model: must not undercut OPT.
    let sim_cfg = SimConfig { warmup: 15.0, duration: 20.0, seed: 7, ..Default::default() };
    let mut sim = Simulator::new(&t, &traffic, &Scenario::new(), sim_cfg);
    let _ = sim.run();
    let mp_eval = evaluate(&t, &models, &traffic, &sim.routing_vars()).unwrap();
    assert!(
        opt.eval.total_delay <= mp_eval.total_delay * 1.0001,
        "OPT D_T {} vs MP D_T {}",
        opt.eval.total_delay,
        mp_eval.total_delay
    );
}

/// OPT's objective is monotone in offered load (regression guard for
/// the solver's step-size robustness).
#[test]
fn opt_monotone_in_load() {
    let t = topo::net1();
    let models: Vec<Mm1> =
        t.links().iter().map(|l| Mm1::new(l.capacity, l.prop_delay, 1000.0)).collect();
    let mut prev = 0.0;
    for &rate in &[1_000_000.0, 1_500_000.0, 2_000_000.0, 2_500_000.0, 3_000_000.0] {
        let flows = topo::net1_flows(rate);
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let r = mdr::opt::solve(
            &t,
            &models,
            &traffic,
            GallagerConfig { eta: rate * rate * 2e-7, ..Default::default() },
        )
        .unwrap();
        assert!(
            r.eval.total_delay > prev,
            "D_T not monotone at {rate}: {} after {prev}",
            r.eval.total_delay
        );
        prev = r.eval.total_delay;
    }
}
