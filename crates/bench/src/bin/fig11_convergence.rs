//! Fig. 11: convergence of the node-level imbalance over time for the
//! synthetic benchmark.
//!
//! Usage: `fig11_convergence [--quick]`
//!
//! (a) two nodes, imbalance 2.0; (b) four nodes, imbalance 4.0. Series:
//! {local, global} × {LeWI on/off} plus LeWI-only. The paper's findings:
//! DROM (either policy) drives the node imbalance to ~1.0; LeWI alone
//! hovers around 1.2; local converges faster than global; LeWI speeds up
//! local's convergence.

use tlb_apps::synthetic::{synthetic_workload, SyntheticConfig};
use tlb_bench::{run_traced, Effort, Experiment, Point};
use tlb_core::{BalanceConfig, Platform, PolicySpec};
use tlb_des::SimTime;

fn main() {
    let effort = Effort::from_args();
    let iterations = effort.pick(12, 6);

    for &(nodes, imb) in &[(2usize, 2.0f64), (4, 4.0)] {
        let mut exp = Experiment::new(
            &format!("fig11_{nodes}n"),
            &format!("node imbalance convergence, {nodes} nodes, imbalance {imb}"),
            "time (s)",
            "max/avg node busy",
        );
        let platform = Platform::mn4(nodes);
        let mut cfg = SyntheticConfig::new(nodes, imb);
        cfg.iterations = iterations;
        let wl = synthetic_workload(&cfg, &platform);

        let degree = nodes.min(4);
        let variants = [
            ("local+lewi", "lewi+drom-local"),
            ("local", "drom-local"),
            ("global+lewi", "lewi+drom-global"),
            ("global", "drom-global"),
            ("lewi only", "lewi"),
        ];
        for (name, policy) in variants {
            let spec = PolicySpec::named(policy).expect("paper policies are registered");
            let bc = BalanceConfig::default()
                .with_degree(degree)
                .with_policy(spec);
            let report = run_traced(&platform, &bc, wl.clone());
            let end = report.makespan;
            let series = report.trace.node_imbalance_series(
                end,
                SimTime::from_millis(500),
                effort.pick(100, 40),
            );
            let points: Vec<Point> = series.into_iter().map(|(x, y)| Point { x, y }).collect();
            // Steady-state imbalance: mean over the final third.
            let tail: Vec<f64> = points
                .iter()
                .filter(|p| p.x > 2.0 * end.as_secs_f64() / 3.0)
                .map(|p| p.y)
                .collect();
            let steady = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
            eprintln!("{nodes}n {name}: steady-state node imbalance {steady:.3}");
            exp.note(format!("{name}: steady-state imbalance {steady:.3}"));
            exp.push_series(name, points);
        }
        exp.note("paper: DROM variants converge to ~1.0; LeWI-only fluctuates around 1.2");
        exp.finish();
    }
}
