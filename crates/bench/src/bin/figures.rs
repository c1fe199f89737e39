//! `figures [--quick] [ID ...]`: regenerate the paper's evaluation (§7)
//! and check every reproduced claim beside the series that measures it.
//!
//! With no id every figure runs; an id is a figure name (`fig08`) or one
//! of the result files it writes (`fig08_8n`); `headline` runs the three
//! figures it is gathered from. Tables print to stdout and JSON goes to
//! `results/` (full effort) or `results/quick/` (`--quick`). Each claim
//! prints `ok`, `FAIL` or `skipped(<why>)`; the run ends with
//! `checked N, failed M, skipped K` and exits 1 when M > 0.

#![forbid(unsafe_code)]

use std::sync::Arc;

use tlb_apps::micropp::{micropp_workload, MicroPpConfig};
use tlb_apps::synthetic::{synthetic_workload, SyntheticConfig};
use tlb_bench::{
    config, micropp_mn4, nbody_slow_node, render_trace, results_dir, run, sweep, tally, Effort,
    Experiment, Point, Status,
};
use tlb_cluster::{
    away_fraction, work_matrix, ClusterSim, FaultPlan, RunSpec, SpecWorkload, TaskSpec,
};
use tlb_core::{
    BalanceConfig, GlobalPolicy, GlobalSolverKind, Platform, PortfolioConfig, PortfolioEngine,
    Strategy,
};
use tlb_des::{SimTime, Timeline};
use tlb_expander::{BipartiteGraph, ExpanderConfig};

/// One regenerable figure: the name that selects it, the result ids it
/// writes at full effort, and the function that measures it.
type Figure = (
    &'static str,
    &'static [&'static str],
    fn(Effort) -> Vec<Experiment>,
);

const FIG09: &[&str] = &[
    "fig09_baseline",
    "fig09_lewi",
    "fig09_drom",
    "fig09_lewi+drom",
    "fig09_summary",
];
const FIGURES: &[Figure] = &[
    ("fig05", &["fig05_local", "fig05_global"], fig05),
    ("fig06a", &["fig06a"], fig06a),
    ("fig06b", &["fig06b"], fig06b),
    ("fig06c", &["fig06c"], fig06c),
    ("fig07", &["fig07", "fig07c"], fig07),
    ("fig08", &["fig08_4n", "fig08_8n", "fig08_64n"], fig08),
    ("fig09", FIG09, fig09),
    ("fig10", &["fig10_2n", "fig10_8n"], fig10),
    ("fig11", &["fig11_2n", "fig11_4n"], fig11),
    ("ablations", &["ablations"], ablations),
    ("ext_throttle", &["ext_throttle"], ext_throttle),
    (SOLVER_TABLE, &[SOLVER_TABLE], solver_table),
];

/// The table gathered from the headline-tagged claims of these figures.
const HEADLINE: &str = "headline";
const HEADLINE_SOURCES: [&str; 3] = ["fig06b", "fig06c", "fig08"];
/// Wall-clock columns: written at full effort only, so `results/quick/`
/// stays a pure function of the source.
const SOLVER_TABLE: &str = "solver_table";

fn main() {
    let effort = Effort::from_args();
    let args = std::env::args().skip(1).filter(|a| a != "--quick");
    let wanted: Vec<String> = args.collect();
    // An id selects the figure of that name or the one that writes it.
    let selects = |id: &str, (name, ids, _): &Figure| *name == id || ids.contains(&id);
    let known = |id: &str| id == HEADLINE || FIGURES.iter().any(|f| selects(id, f));
    if let Some(unknown) = wanted.iter().find(|id| !known(id)) {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
        eprintln!("figures: unknown id `{unknown}`");
        let names = names.join(" ");
        eprintln!("usage: figures [--quick] [ID ...]   ids: {HEADLINE} {names}");
        std::process::exit(2);
    }
    let headline = wanted.is_empty() || wanted.iter().any(|w| w == HEADLINE);
    let dir = results_dir(effort, std::env::var_os("CARGO_MANIFEST_DIR").as_deref());
    let save = |exp: &Experiment| match exp.save(&dir) {
        Ok(path) => println!("saved: {}\n", path.display()),
        Err(e) => {
            eprintln!("figures: cannot write {} in {}: {e}", exp.id, dir.display());
            std::process::exit(1);
        }
    };

    let mut done: Vec<Experiment> = Vec::new();
    for figure @ (name, _, run) in FIGURES {
        let selected = wanted.is_empty()
            || wanted.iter().any(|id| selects(id, figure))
            || (headline && HEADLINE_SOURCES.contains(name));
        if !selected {
            continue;
        }
        for exp in run(effort) {
            print!("{}", exp.render_table());
            if *name == SOLVER_TABLE && effort == Effort::Quick {
                println!("not saved: wall-clock, full effort only\n");
            } else {
                save(&exp);
            }
            done.push(exp);
        }
    }
    if headline {
        let exp = headline_table(&done);
        print!("{}", exp.render_table());
        save(&exp);
    }

    let (checked, failed, skipped) = tally(&done);
    println!("checked {checked}, failed {failed}, skipped {skipped}");
    for exp in &done {
        for claim in exp.claims.iter().filter(|c| c.status == Status::Fail) {
            eprintln!("{}: {claim}", exp.id);
        }
    }
    if failed > 0 {
        std::process::exit(1);
    }
    println!("all evaluated claims hold");
}

/// §1/§8: the headline-tagged claims of the figures just measured, as
/// one measured-vs-paper table (no simulation of its own).
fn headline_table(done: &[Experiment]) -> Experiment {
    let mut exp = Experiment::new(
        HEADLINE,
        "headline claims: measured vs paper",
        "claim",
        "value",
    );
    let (mut measured, mut paper) = (Vec::new(), Vec::new());
    let claims = done
        .iter()
        .flat_map(|e| e.claims.iter().filter(|c| c.headline).map(move |c| (e, c)));
    for (i, (source, claim)) in claims.enumerate() {
        let x = i as f64;
        measured.extend(claim.measured.map(|y| Point { x, y }));
        paper.push(Point { x, y: claim.paper });
        exp.note(format!("[{i}] {}: {claim}", source.id));
    }
    exp.push_series("measured", measured);
    exp.push_series("paper", paper);
    exp
}

// The paper's configurations, as registry policy + offloading degree.
const GLOBAL: &str = "lewi+drom-global";
const LOCAL: &str = "lewi+drom-local";

/// No balancing at all (the paper's "baseline" series).
fn baseline() -> BalanceConfig {
    config("baseline", 1)
}

/// DLB confined to each node (the paper's "DLB" series).
fn dlb() -> BalanceConfig {
    config(LOCAL, 1)
}

/// The lines of Figs. 8 and 10: single-node DLB as degree 1, then
/// offloading under the global policy at each larger degree.
fn degree_lines(degrees: &[usize]) -> Vec<(String, BalanceConfig)> {
    let line = |&d: &usize| {
        let cfg = if d == 1 { dlb() } else { config(GLOBAL, d) };
        (format!("degree {d}"), cfg)
    };
    degrees.iter().map(line).collect()
}

/// Percent by which a `ratio` of two series falls short of 1.
fn pct_below(ratio: Option<f64>) -> Option<f64> {
    ratio.map(|r| 100.0 * (1.0 - r))
}

/// Percent by which a `ratio` of two series exceeds 1.
fn pct_above(ratio: Option<f64>) -> Option<f64> {
    ratio.map(|r| 100.0 * (r - 1.0))
}

/// `points` samples of `value` at evenly spaced times over `[0, end]`.
fn sampled(end: SimTime, points: u64, value: impl Fn(SimTime) -> f64) -> Vec<Point> {
    (0..points)
        .map(|i| {
            let t = SimTime::from_nanos(end.as_nanos() * i / (points - 1));
            Point {
                x: t.as_secs_f64(),
                y: value(t),
            }
        })
        .collect()
}

/// The MicroPP weak-scaling sweep of Figs. 6(a)/(b) and 7: 2–64
/// MareNostrum-4 nodes against the perfect-balance bound.
fn micropp_sweep(
    exp: &mut Experiment,
    effort: Effort,
    per_node: usize,
    lines: &[(&str, BalanceConfig)],
) {
    let nodes = effort.pick(&[2.0, 4.0, 8.0, 16.0, 32.0, 64.0][..], &[2.0, 4.0, 8.0][..]);
    sweep(exp, lines, Some("perfect"), effort.pick(3, 1), nodes, |n| {
        let (platform, wl) = micropp_mn4(n as usize, per_node, effort.pick(10, 5));
        (platform, move || wl.clone())
    });
}

/// The slow-node n-body sweep of Figs. 6(c) and 7: 2–16 Nord3 nodes.
fn nbody_sweep(
    exp: &mut Experiment,
    effort: Effort,
    lines: &[(&str, BalanceConfig)],
    bound: Option<&str>,
    skip: usize,
) {
    let nodes = effort.pick(&[2.0, 4.0, 8.0, 16.0][..], &[2.0, 4.0][..]);
    sweep(exp, lines, bound, skip, nodes, |n| {
        nbody_slow_node(n as usize, effort)
    });
}

/// Fig. 5: coarse-grained balancing — local convergence vs global solver.
///
/// Two appranks on two nodes. The first half of the execution is heavily
/// imbalanced (almost all work on apprank 0); the second half is
/// perfectly balanced. The local policy balances the load but keeps
/// offloading tasks in the balanced phase (both appranks execute on both
/// nodes); the global policy stops offloading once the load is balanced.
fn fig05(effort: Effort) -> Vec<Experiment> {
    // Each phase must span several 2-second global solver periods, as in
    // the paper's trace.
    let phase_iters = effort.pick(12, 7);
    let cores = 32;
    // Phase 1: apprank 0 has ~7x the work. Phase 2: balanced.
    // Iterations of ~0.8 s: a phase lasts 5.6–9.6 s.
    let tasks = |per_core: usize| -> Arc<[TaskSpec]> {
        (0..cores * per_core)
            .map(|_| TaskSpec::compute(0.1))
            .collect()
    };
    let mut iters = vec![vec![tasks(14), tasks(2)]; phase_iters];
    iters.extend(vec![vec![tasks(8), tasks(8)]; phase_iters]);
    let wl = SpecWorkload::shared(iters);
    let platform = Platform::homogeneous(2, cores);

    let trace_of = |(name, policy): (&str, &str)| {
        let report = run(&platform, &config(policy, 2), wl.clone(), true);
        let end = report.makespan;
        let mut exp = Experiment::new(
            &format!("fig05_{name}"),
            &format!(
                "coarse-grained balancing trace, {name} policy (busy cores per apprank per node)"
            ),
            "time (s)",
            "busy cores",
        );
        for node in 0..2 {
            for apprank in 0..2 {
                let busy = |t| report.trace.apprank_busy_at(node, apprank, t).max(0.0);
                exp.push_series(
                    format!("node{node}/apprank{apprank}"),
                    sampled(end, effort.pick(160, 60), busy),
                );
            }
        }
        // Quantify unnecessary offloading in the balanced phase: work run
        // by each apprank away from home in the last quarter (the solver
        // has converged by then). Apprank i homes on node i here.
        let from = SimTime::from_nanos(end.as_nanos() * 3 / 4);
        let away = away_fraction(&work_matrix(&report.trace, from, end, 2), &[0, 1]);
        exp.note(format!(
            "balanced phase: {:.1}% of work executed away from home (paper Fig. 5: local ~50%, global ~0%; \
our global floor is the helpers' mandatory one owned core each)",
            100.0 * away
        ));
        exp.note(format!("makespan: {:.3}s", end.as_secs_f64()));
        println!("--- {name} policy trace (busy cores per worker) ---");
        print!("{}", render_trace(&report.trace, end, 72));
        exp
    };
    [("local", LOCAL), ("global", GLOBAL)]
        .into_iter()
        .map(trace_of)
        .collect()
}

/// Fig. 6(a)/(b): MicroPP weak scaling with the global allocation
/// policy: baseline (no DLB, no offloading), single-node DLB and
/// offloading degrees 2/3/4/8 against the perfect-balance bound.
fn fig06_micropp(effort: Effort, id: &str, per_node: usize) -> Experiment {
    let mut exp = Experiment::new(
        id,
        &format!("MicroPP weak scaling, {per_node} apprank(s)/node, global policy (MareNostrum 4)"),
        "nodes",
        "s/iteration",
    );
    let lines = [
        ("baseline", baseline()),
        ("dlb", dlb()),
        ("degree 2", config(GLOBAL, 2)),
        ("degree 3", config(GLOBAL, 3)),
        ("degree 4", config(GLOBAL, 4)),
        ("degree 8", config(GLOBAL, 8)),
    ];
    micropp_sweep(&mut exp, effort, per_node, &lines);
    exp
}

/// "When there is just one apprank per node, single-node DLB makes no
/// difference."
fn fig06a(effort: Effort) -> Vec<Experiment> {
    let mut exp = fig06_micropp(effort, "fig06a", 1);
    for nodes in [8.0, 32.0] {
        let same = exp.ratio("dlb", "baseline", nodes);
        let label = format!("{nodes} nodes: DLB over baseline (equal)");
        exp.claim(label, same, 1.0, 1.0 - 1e-6..1.0 + 1e-6);
    }
    vec![exp]
}

fn fig06b(effort: Effort) -> Vec<Experiment> {
    let mut exp = fig06_micropp(effort, "fig06b", 2);
    let less = pct_below(exp.ratio("degree 4", "dlb", 32.0));
    let label = "32 nodes: degree 4 below DLB (%)";
    exp.claim(label, less, 46.0, 40.0..55.0).headline();
    // Known deviation 1 in EXPERIMENTS.md: the direction holds, the gap
    // is wider than the paper's, and the band says so.
    let above = pct_above(exp.ratio("degree 4", "perfect", 32.0));
    let label = "32 nodes: degree 4 above perfect (%)";
    exp.claim(label, above, 7.0, 0.0..25.0).headline();
    for nodes in [8.0, 32.0] {
        let beats = exp.ratio("degree 4", "baseline", nodes);
        let label = format!("{nodes} nodes: degree 4 over baseline (below 1)");
        exp.claim(label, beats, 1.0, ..1.0);
    }
    vec![exp]
}

/// Fig. 6(c): n-body (Barnes–Hut + ORB) on Nord3 with one slow node.
/// ORB equalises body counts, so the slow node lags; single-node DLB
/// recovers the within-node imbalance and degree-3 offloading more.
fn fig06c(effort: Effort) -> Vec<Experiment> {
    let mut exp = Experiment::new(
        "fig06c",
        "n-body on Nord3 with one slow node (1.8 vs 3.0 GHz), 2 appranks/node",
        "nodes",
        "s/iteration",
    );
    let lines = [
        ("baseline", baseline()),
        ("dlb", dlb()),
        ("degree 2", config(GLOBAL, 2)),
        ("degree 3", config(GLOBAL, 3)),
    ];
    nbody_sweep(&mut exp, effort, &lines, Some("perfect"), effort.pick(2, 1));
    let dlb = pct_below(exp.ratio("dlb", "baseline", 16.0));
    let label = "16 nodes: DLB below baseline (%)";
    exp.claim(label, dlb, 16.0, 8.0..30.0).headline();
    let at = |label| exp.at(label, 16.0);
    let further = at("baseline").zip(at("dlb")).zip(at("degree 3"));
    let further = further.map(|((base, dlb), d3)| 100.0 * (dlb - d3) / base);
    let label = "16 nodes: degree 3, further % of baseline";
    exp.claim(label, further, 20.0, 10.0..40.0).headline();
    vec![exp]
}

/// Fig. 7: MicroPP and n-body with the **local** allocation policy,
/// which balances per node only; the paper finds it ~10% worse than the
/// global policy at 32 nodes and more sensitive to the degree.
fn fig07(effort: Effort) -> Vec<Experiment> {
    let mut exp = Experiment::new(
        "fig07",
        "MicroPP weak scaling, 2 appranks/node, LOCAL policy (MareNostrum 4)",
        "nodes",
        "s/iteration",
    );
    let lines = [
        ("dlb", dlb()),
        ("degree 2", config(LOCAL, 2)),
        ("degree 4", config(LOCAL, 4)),
        ("degree 8", config(LOCAL, 8)),
        ("global d4", config(GLOBAL, 4)),
    ];
    micropp_sweep(&mut exp, effort, 2, &lines);
    if let (Some(dlb), Some(l4), Some(g4)) = (
        exp.at("dlb", 32.0),
        exp.at("degree 4", 32.0),
        exp.at("global d4", 32.0),
    ) {
        exp.note(format!(
            "32 nodes: local d4 reduces {:.1}% vs DLB (paper: 38%); global d4 {:.1}% (Fig. 6(b)'s claim)",
            100.0 * (1.0 - l4 / dlb),
            100.0 * (1.0 - g4 / dlb)
        ));
    }

    let mut nbody = Experiment::new(
        "fig07c",
        "n-body on Nord3 with one slow node, LOCAL policy",
        "nodes",
        "s/iteration",
    );
    let lines = [
        ("dlb", dlb()),
        ("local d3", config(LOCAL, 3)),
        ("global d3", config(GLOBAL, 3)),
    ];
    nbody_sweep(&mut nbody, effort, &lines, None, effort.pick(3, 1));
    vec![exp, nbody]
}

/// Fig. 8: synthetic benchmark — time per iteration as a function of the
/// application imbalance (Eq. 2), one apprank per node, on 4, 8 and 64
/// nodes. Degree 1 tracks the imbalance linearly; a degree ≥ the
/// imbalance suffices on few nodes; degree 4 is consistently good.
fn fig08(effort: Effort) -> Vec<Experiment> {
    let imbalances = effort.pick(
        &[1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0][..],
        &[1.0, 2.0, 3.0][..],
    );
    let at_nodes = |&nodes: &usize| {
        let mut exp = Experiment::new(
            &format!("fig08_{nodes}n"),
            &format!("synthetic sweep, {nodes} nodes, 1 apprank/node, LeWI+DROM global"),
            "imbalance",
            "s/iteration",
        );
        let lines = degree_lines(&[1, 2, 3, 4, 8]);
        let skip = effort.pick(2, 1);
        sweep(&mut exp, &lines, Some("perfect"), skip, imbalances, |imb| {
            let platform = Platform::mn4(nodes);
            let mut cfg = SyntheticConfig::new(nodes, imb.min(nodes as f64));
            cfg.iterations = effort.pick(5, 3);
            let wl = synthetic_workload(&cfg, &platform);
            (platform, move || wl.clone())
        });
        let gap = |imb| pct_above(exp.ratio("degree 4", "perfect", imb));
        let small = imbalances.iter().filter(|&&imb| imb <= 2.0);
        let worst = small.filter_map(|&imb| gap(imb)).fold(0.0f64, f64::max);
        if nodes != 8 {
            let paper = if nodes == 64 { " (paper: 20%)" } else { "" };
            exp.note(format!(
                "degree 4 within {worst:.1}% of perfect for imbalance <= 2.0{paper}"
            ));
            return exp;
        }
        let gaps = [1.0, 1.5, 2.0].map(|imb| (imb, gap(imb)));
        let linear = exp.at("degree 1", 3.0).zip(exp.at("degree 1", 1.0));
        let linear = linear.map(|(at3, at1)| at3 / at1);
        exp.claim(
            "degree 1: imbalance 3 over imbalance 1",
            linear,
            3.0,
            2.8..3.2,
        );
        let (paper, accept) = (10.0, ..=10.0);
        for (imb, gap) in gaps {
            let label = format!("imbalance {imb}: degree 4 above perfect (%)");
            exp.claim(label, gap, paper, accept);
        }
        let label = "imbalance <= 2: worst degree 4 above perfect (%)";
        exp.claim(label, Some(worst), paper, accept).headline();
        exp
    };
    let nodes = effort.pick(&[4usize, 8, 64][..], &[4, 8][..]);
    nodes.iter().map(at_nodes).collect()
}

/// MicroPP on four appranks with a controlled profile: apprank 0 clearly
/// heavier, as in the paper's Fig. 9 trace.
fn skewed_micropp(iterations: usize) -> SpecWorkload {
    let mut mcfg = MicroPpConfig::new(4);
    mcfg.iterations = iterations;
    mcfg.fractions_override = Some(vec![0.85, 0.25, 0.2, 0.15]);
    micropp_workload(&mcfg)
}

/// Fig. 9: the roles of LeWI and DROM, via MicroPP traces on four nodes
/// with offloading degree two: baseline, LeWI only, DROM only (global
/// policy) and both. LeWI reacts instantly inside an iteration; DROM
/// converges the core ownership across iterations.
fn fig09(effort: Effort) -> Vec<Experiment> {
    let wl = skewed_micropp(effort.pick(12, 6));
    let platform = Platform::mn4(4);

    let mut out = Vec::new();
    let mut makespans = Vec::new();
    for (name, policy) in [
        ("baseline", "baseline"),
        ("lewi", "lewi"),
        ("drom", "drom-global"),
        ("lewi+drom", GLOBAL),
    ] {
        let report = run(&platform, &config(policy, 2), wl.clone(), true);
        let end = report.makespan;
        makespans.push(end.as_secs_f64());
        // Busy and owned cores per apprank per node.
        let mut exp = Experiment::new(
            &format!("fig09_{name}"),
            &format!("MicroPP trace, {name}: busy/owned cores per (node, apprank)"),
            "time (s)",
            "cores",
        );
        let sample =
            |tl: &Timeline| sampled(end, effort.pick(120, 50), |t| tl.value_at(t).unwrap_or(0.0));
        for node in 0..4 {
            for (proc, &apprank) in report.trace.worker_apprank[node].iter().enumerate() {
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
        exp.note(format!("makespan {:.3}s", end.as_secs_f64()));
        // Terminal rendition of the paper's Paraver rows.
        println!("--- {name} (busy cores per worker; '█' = node saturated) ---");
        print!("{}", render_trace(&report.trace, end, 72));
        out.push(exp);
    }

    let mut summary = Experiment::new(
        "fig09_summary",
        "MicroPP on 4 nodes, degree 2: execution time relative to baseline",
        "config (0=base,1=lewi,2=drom,3=both)",
        "relative time",
    );
    let rel: Vec<f64> = makespans.iter().map(|secs| secs / makespans[0]).collect();
    let points = rel
        .iter()
        .enumerate()
        .map(|(i, &y)| Point { x: i as f64, y });
    summary.push_series("relative time", points.collect());
    // Six quick iterations end before DROM's 2 s period has converged
    // the ownership, so the DROM claims need the full-effort run.
    let full = |v: f64| effort.pick(Some(v), None);
    summary.claim("LeWI only, relative time", Some(rel[1]), 0.83, ..0.95);
    summary.claim("DROM only, relative time", full(rel[2]), 0.65, ..0.85);
    let both = full(rel[3] - rel[2]);
    summary.claim(
        "LeWI+DROM minus DROM only (both is best)",
        both,
        0.0,
        ..=0.02,
    );
    out.push(summary);
    out
}

/// Fig. 10: synthetic benchmark with node 0 three times slower, sweeping
/// the application imbalance in both directions. The x-axis is signed:
/// positive puts the *most* work on the slow node's rank, negative the
/// *least*. With a degree a little above the imbalance, execution time
/// is nearly flat across the whole range, close to the optimal line.
fn fig10(effort: Effort) -> Vec<Experiment> {
    let at_nodes = |&nodes: &usize| {
        // Imbalance 1.0 is the same point from both sides: once, at +1.
        let mut xs = vec![1.0];
        let mut imb = 1.5;
        while imb <= (nodes as f64).min(4.0) {
            xs.extend([imb, -imb]);
            imb += 0.5;
        }
        xs.sort_by(f64::total_cmp);
        let degrees: &[usize] = if nodes == 2 {
            &[1, 2]
        } else {
            &[1, 2, 3, 4, 8]
        };
        let mut exp = Experiment::new(
            &format!("fig10_{nodes}n"),
            &format!("synthetic, {nodes} nodes, node 0 is 3x slower; signed imbalance sweep"),
            "imbalance",
            "s/iteration",
        );
        let lines = degree_lines(degrees);
        let skip = effort.pick(2, 1);
        sweep(&mut exp, &lines, Some("optimal"), skip, &xs, |signed| {
            let platform = Platform::mn4(nodes).with_slowdown(0, 3.0);
            let mut cfg = SyntheticConfig::new(nodes, signed.abs());
            cfg.iterations = effort.pick(5, 3);
            if signed >= 0.0 {
                cfg.max_rank = 0; // the rank on the slow node
            } else {
                cfg.max_rank = 1;
                cfg.min_rank = Some(0);
            }
            let wl = synthetic_workload(&cfg, &platform);
            (platform, move || wl.clone())
        });
        exp.note("positive x: slow node has the most work; negative: the least");
        exp
    };
    let nodes = effort.pick(&[2usize, 8][..], &[2][..]);
    nodes.iter().map(at_nodes).collect()
}

/// Fig. 11: convergence of the node-level imbalance over time for the
/// synthetic benchmark: (a) two nodes, imbalance 2.0; (b) four nodes,
/// imbalance 4.0. DROM (either policy) drives the node imbalance to
/// ~1.0; LeWI alone hovers well above it.
fn fig11(effort: Effort) -> Vec<Experiment> {
    let at_nodes = |(nodes, imb): (usize, f64)| {
        let mut exp = Experiment::new(
            &format!("fig11_{nodes}n"),
            &format!("node imbalance convergence, {nodes} nodes, imbalance {imb}"),
            "time (s)",
            "max/avg node busy",
        );
        let platform = Platform::mn4(nodes);
        let mut cfg = SyntheticConfig::new(nodes, imb);
        cfg.iterations = effort.pick(12, 6);
        let wl = synthetic_workload(&cfg, &platform);
        let mut steady_of = Vec::new();
        for (name, policy) in [
            ("local+lewi", LOCAL),
            ("local", "drom-local"),
            ("global+lewi", GLOBAL),
            ("global", "drom-global"),
            ("lewi only", "lewi"),
        ] {
            let report = run(&platform, &config(policy, nodes.min(4)), wl.clone(), true);
            let end = report.makespan;
            let window = SimTime::from_millis(500);
            let series = report
                .trace
                .node_imbalance_series(end, window, effort.pick(100, 40));
            let points: Vec<Point> = series.into_iter().map(|(x, y)| Point { x, y }).collect();
            // Steady-state imbalance: mean over the final third.
            let tail: Vec<f64> = points
                .iter()
                .filter(|p| p.x > 2.0 * end.as_secs_f64() / 3.0)
                .map(|p| p.y)
                .collect();
            let steady = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
            exp.note(format!("{name}: steady-state imbalance {steady:.3}"));
            exp.push_series(name, points);
            steady_of.push((name, steady));
        }
        if nodes == 4 {
            let steady = |name| steady_of.iter().find(|s| s.0 == name).map(|s| s.1);
            let (lewi, global) = (steady("lewi only"), steady("global+lewi"));
            exp.claim("LeWI only: steady-state imbalance", lewi, 1.2, 1.15..);
            exp.claim("global+LeWI: steady-state imbalance", global, 1.0, ..1.1);
        }
        exp
    };
    [(2, 2.0), (4, 4.0)].into_iter().map(at_nodes).collect()
}

/// Ablations of the design choices DESIGN.md calls out, on MicroPP under
/// degree-4 global offloading: the reference configuration and the
/// expander seed spread around it.
fn ablations(effort: Effort) -> Vec<Experiment> {
    let nodes = effort.pick(16, 8);
    let (platform, wl) = micropp_mn4(nodes, 2, effort.pick(10, 5));
    let skip = effort.pick(3, 1);
    let time_of =
        |cfg: &BalanceConfig| run(&platform, cfg, wl.clone(), false).mean_iteration_secs(skip);
    let reference = config(GLOBAL, 4);
    let mut variants = vec![("reference (depth 2)", time_of(&reference))];
    // Seed sensitivity of the random expander.
    let seeds = 1..=effort.pick(8u64, 3u64);
    let seeds: Vec<f64> = seeds
        .map(|s| time_of(&reference.clone().with_seed(s)))
        .collect();
    let best = seeds.iter().copied().fold(f64::INFINITY, f64::min);
    let worst = seeds.iter().copied().fold(0.0, f64::max);
    variants.extend([("expander best seed", best), ("expander worst seed", worst)]);

    let mut exp = Experiment::new(
        "ablations",
        &format!("design ablations on MicroPP, {nodes} nodes, degree 4, global policy"),
        "variant",
        "s/iteration",
    );
    let reference = variants[0].1;
    for (i, (label, y)) in variants.into_iter().enumerate() {
        exp.note(format!(
            "{label}: {:+.1}% vs reference",
            100.0 * (y / reference - 1.0)
        ));
        exp.push_series(label, vec![Point { x: i as f64, y }]);
    }
    exp.note("a small expander seed spread supports the static-graph design (§7.3)");
    vec![exp]
}

/// Extension: reaction to a mid-run DVFS/thermal throttle — the
/// system-level imbalance the paper's introduction motivates beyond its
/// static slow node. A balanced synthetic workload runs on 8 nodes; one
/// third of the way in, node 0 throttles to half speed.
fn ext_throttle(effort: Effort) -> Vec<Experiment> {
    let nodes = 8;
    let iterations = effort.pick(12, 6);
    let mut scfg = SyntheticConfig::new(nodes, 1.0); // balanced application
    scfg.iterations = iterations;
    let calm = Platform::mn4(nodes);
    let wl = synthetic_workload(&scfg, &calm);
    let per_iter = wl.rank_work(0).iter().sum::<f64>();
    // Throttle node 0 to half speed from a third of the nominal runtime on.
    let nominal_iter = per_iter / calm.effective_capacity();
    let throttle_at = nominal_iter * iterations as f64 / 3.0;
    // `{}` prints the shortest decimal that parses back to the same f64.
    let spec = format!("straggler@{throttle_at},node=0,slow=2,for=1e6");
    let throttle = FaultPlan::parse(&spec, 0).expect("the throttle spec parses");

    let mut exp = Experiment::new(
        "ext_throttle",
        "mid-run thermal throttle (node 0 to half speed), balanced synthetic workload",
        "iteration",
        "s/iteration",
    );
    for (name, cfg) in [
        ("baseline", baseline()),
        ("dlb", dlb()),
        ("degree 4 global", config(GLOBAL, 4)),
    ] {
        let spec = RunSpec::new(&calm, &cfg, wl.clone()).faults(&throttle);
        let report = ClusterSim::execute(spec).expect("the throttle run is valid");
        let times = report.iteration_times.iter().enumerate();
        let points = times.map(|(i, t)| Point {
            x: i as f64,
            y: t.as_secs_f64(),
        });
        exp.push_series(name, points.collect());
    }
    // Reference lines.
    let point = |x, y| vec![Point { x, y }];
    let capacity_after = calm.effective_capacity() - 0.5 * calm.cores_per_node as f64;
    let (last, after) = ((iterations - 1) as f64, per_iter / capacity_after);
    exp.push_series("perfect pre-throttle", point(0.0, nominal_iter));
    exp.push_series("perfect post-throttle", point(last, after));
    exp.note(
        "after the throttle, degree-1 configurations settle at ~2x the pre-throttle iteration \
time (the slow node bounds every iteration); degree-4 converges to the post-throttle perfect \
line within one 2 s solver period",
    );
    vec![exp]
}

/// §5.4.2 solver cost: the paper measures ≈57 ms per global solve at 32
/// nodes (CVXOPT) with roughly quadratic growth in the graph size. This
/// times our simplex, parametric max-flow and the four-strategy
/// portfolio race on the same allocation problems (wall-clock).
fn solver_table(effort: Effort) -> Vec<Experiment> {
    let reps = effort.pick(20, 5);
    let time_ms = |solve: &mut dyn FnMut() -> f64| {
        let start = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(solve());
        }
        start.elapsed().as_secs_f64() * 1e3 / reps as f64
    };
    let mut series: [Vec<Point>; 3] = Default::default();
    let mut wins = [0usize; Strategy::COUNT];
    let mut rng = tlb_rng::Rng::seed_from_u64(7);
    for &nodes in effort.pick(&[4usize, 8, 16, 32, 64][..], &[4, 8, 16][..]) {
        let appranks = nodes * 2;
        let graph = ExpanderConfig::new(appranks, nodes, 4.min(nodes)).with_seed(1);
        let graph = BipartiteGraph::generate(&graph).expect("graph");
        let mut policy = GlobalPolicy::new(&graph, &Platform::mn4(nodes));
        let work: Vec<f64> = (0..appranks).map(|_| rng.range_f64(1.0, 50.0)).collect();
        let mut single =
            |kind| time_ms(&mut || policy.allocate(&work, kind).expect("solve").objective);
        let simplex = single(GlobalSolverKind::Simplex);
        let flow = single(GlobalSolverKind::Flow);
        // The full four-strategy race (inline, deterministic): wall-clock
        // pays for every strategy, so this bounds the portfolio's real
        // per-solve cost against the single solvers above.
        let mut engine =
            PortfolioEngine::new(PortfolioConfig::default()).expect("default portfolio");
        let mut problem = policy.problem().clone();
        problem.work.copy_from_slice(&work);
        let portfolio = time_ms(&mut || engine.solve(&problem).expect("portfolio solve").objective);
        for (total, won) in wins.iter_mut().zip(engine.wins()) {
            *total += won;
        }
        for (points, y) in series.iter_mut().zip([simplex, flow, portfolio]) {
            points.push(Point { x: nodes as f64, y });
        }
    }

    let mut exp = Experiment::new(
        SOLVER_TABLE,
        "global allocation solve time (2 appranks/node, degree 4, 48-core nodes)",
        "nodes",
        "ms/solve",
    );
    for (label, points) in ["simplex", "maxflow", "portfolio"].into_iter().zip(series) {
        exp.push_series(label, points);
    }
    let wins = Strategy::ALL.iter().zip(wins);
    let wins: Vec<String> = wins.map(|(s, w)| format!("{} {w}", s.name())).collect();
    exp.note(format!("portfolio wins across sizes: {}", wins.join(", ")));
    if let Some(ms) = exp.at("simplex", 32.0) {
        exp.note(format!(
            "simplex at 32 nodes: {ms:.1} ms (paper, CVXOPT: ~57 ms)"
        ));
    }
    let simplex = &exp.series[0].points;
    let (first, last) = (&simplex[0], &simplex[simplex.len() - 1]);
    let growth = (last.y / first.y).log2() / (last.x / first.x).log2();
    exp.note(format!(
        "empirical growth exponent: {growth:.2} (paper: ~2, quadratic)"
    ));
    vec![exp]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ids_are_unique_and_cover_every_checked_in_result() {
        let ids = FIGURES.iter().flat_map(|(_, ids, _)| ids.iter().copied());
        let known: BTreeSet<&str> = ids.chain([HEADLINE]).collect();
        let written = FIGURES.iter().map(|(_, ids, _)| ids.len()).sum::<usize>() + 1;
        assert_eq!(known.len(), written, "an id is written twice");
        let names: BTreeSet<_> = FIGURES.iter().map(|f| f.0).collect();
        assert_eq!(names.len(), FIGURES.len(), "a figure name repeats");

        for effort in [Effort::Full, Effort::Quick] {
            let dir = results_dir(effort, std::env::var_os("CARGO_MANIFEST_DIR").as_deref());
            let entries = std::fs::read_dir(&dir).expect("results are checked in");
            let files = entries.map(|e| e.unwrap().path());
            let json: Vec<_> = files
                .filter(|p| p.extension().is_some_and(|e| e == "json"))
                .collect();
            assert!(!json.is_empty(), "{} holds no results", dir.display());
            for path in json {
                let stem = path.file_stem().unwrap().to_str().unwrap();
                assert!(known.contains(stem), "{} has no figure", path.display());
            }
        }
    }

    #[test]
    fn quick_trace_figures_yield_series_and_explicit_claim_statuses() {
        let mut claims = 0;
        for &(name, ids, run) in FIGURES {
            if name != "fig05" && name != "fig09" {
                continue;
            }
            let experiments = run(Effort::Quick);
            let written: Vec<&str> = experiments.iter().map(|e| e.id.as_str()).collect();
            assert_eq!(written, ids, "{name} writes what it declares");
            for exp in &experiments {
                assert!(!exp.series.is_empty(), "{}: no series", exp.id);
                let empty = exp.series.iter().find(|s| s.points.is_empty());
                assert!(empty.is_none(), "{}: empty series", exp.id);
                let json = exp.to_json();
                let saved = json.get("claims").as_array().unwrap();
                assert_eq!(saved.len(), exp.claims.len());
                for (claim, saved) in exp.claims.iter().zip(saved) {
                    let status = saved.get("status").as_str().unwrap();
                    assert_eq!(status, claim.status.to_string());
                    let explicit = ["ok", "skipped(full effort only)"].contains(&status);
                    assert!(explicit, "{}: {claim}", exp.id);
                    assert_eq!(claim.measured.is_none(), status != "ok");
                    claims += 1;
                }
            }
        }
        assert_eq!(claims, 3, "Fig. 9's summary states three claims");
    }
}
