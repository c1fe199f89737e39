//! Fig. 9: the roles of LeWI and DROM, via MicroPP traces on four nodes
//! with offloading degree two.
//!
//! Usage: `fig09_lewi_drom [--quick]`
//!
//! Four configurations: baseline (no LeWI, no DROM), LeWI only, DROM
//! only (global policy), and LeWI+DROM. The paper reports execution times
//! of 100% / 83% / 65% / ≤65% of baseline, with LeWI reacting instantly
//! inside an iteration and DROM converging the core ownership across
//! iterations.

use tlb_apps::micropp::{micropp_workload, MicroPpConfig};
use tlb_bench::{run_traced, Effort, Experiment, Point};
use tlb_core::{BalanceConfig, Platform, PolicySpec};
use tlb_des::SimTime;

fn main() {
    let effort = Effort::from_args();
    let mut mcfg = MicroPpConfig::new(4);
    mcfg.iterations = effort.pick(12, 6);
    // A controlled profile: apprank 0 clearly heavier, as in the trace.
    mcfg.fractions_override = Some(vec![0.85, 0.25, 0.2, 0.15]);
    let wl = micropp_workload(&mcfg);
    let platform = Platform::mn4(4);

    // The four series are four registry policies at degree 2.
    let configs: Vec<(&str, BalanceConfig)> = [
        ("baseline", "baseline"),
        ("lewi", "lewi"),
        ("drom", "drom-global"),
        ("lewi+drom", "lewi+drom-global"),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let spec = PolicySpec::named(policy).expect("paper policies are registered");
        (
            name,
            BalanceConfig::default().with_degree(2).with_policy(spec),
        )
    })
    .collect();

    let mut summary = Experiment::new(
        "fig09_summary",
        "MicroPP on 4 nodes, degree 2: execution time relative to baseline",
        "config (0=base,1=lewi,2=drom,3=both)",
        "relative time",
    );
    let mut baseline_time = None;
    let mut rel_points = Vec::new();

    for (i, (name, cfg)) in configs.iter().enumerate() {
        let report = run_traced(&platform, cfg, wl.clone());
        let secs = report.makespan.as_secs_f64();
        let base = *baseline_time.get_or_insert(secs);
        rel_points.push(Point {
            x: i as f64,
            y: secs / base,
        });
        eprintln!(
            "{name}: {secs:.3}s ({:.0}% of baseline)",
            100.0 * secs / base
        );

        // Per-config trace: busy and owned cores per apprank per node.
        let mut exp = Experiment::new(
            &format!("fig09_{name}"),
            &format!("MicroPP trace, {name}: busy/owned cores per (node, apprank)"),
            "time (s)",
            "cores",
        );
        let end = report.makespan;
        let points = effort.pick(120, 50);
        for node in 0..4 {
            for (proc, &apprank) in report.trace.worker_apprank[node].iter().enumerate() {
                let sample = |tl: &tlb_des::Timeline| -> Vec<Point> {
                    (0..points)
                        .map(|k| {
                            let t = SimTime::from_nanos(
                                end.as_nanos() * k as u64 / (points as u64 - 1),
                            );
                            Point {
                                x: t.as_secs_f64(),
                                y: tl.value_at(t).unwrap_or(0.0),
                            }
                        })
                        .collect()
                };
                exp.push_series(
                    format!("busy n{node}/a{apprank}"),
                    sample(&report.trace.busy[node][proc]),
                );
                exp.push_series(
                    format!("owned n{node}/a{apprank}"),
                    sample(&report.trace.owned[node][proc]),
                );
            }
        }
        exp.note(format!("makespan {secs:.3}s"));
        if let Err(e) = exp.save() {
            eprintln!("warning: {e}");
        }
        // Terminal rendition of the paper's Paraver rows.
        println!("--- {name} (busy cores per worker; '█' = node saturated) ---");
        print!("{}", tlb_bench::render_trace(&report.trace, end, 72));
    }
    summary.push_series("relative time", rel_points);
    summary.note("paper: baseline 100%, LeWI 83%, DROM 65%, LeWI+DROM best");
    summary.finish();
}
