//! Smoke test for the racing solver portfolio (`tlb-portfolio`): runs
//! fig. 5- and fig. 8-style experiments with all four strategies racing
//! on every global tick, and writes per-strategy win/cost statistics to
//! `BENCH_portfolio_smoke.json` at the repository root.
//!
//! Usage: `portfolio_smoke [--quick]`
//!
//! Checks:
//!
//! 1. on every tick the winner's post-solve score is no worse than any
//!    individual strategy's score on the same problem (the portfolio
//!    never loses to the best single enabled solver);
//! 2. every race is accounted for: one `portfolio_solve`/`portfolio_pick`
//!    event pair per solver run, stats sum up;
//! 3. the Chrome export and the per-strategy statistics are *bitwise
//!    identical* whether the race runs inline or on a 2/4/8-thread smprt
//!    pool (virtual time only, no wall-clock in any decision).

use std::path::PathBuf;
use tlb_apps::micropp::{micropp_workload, MicroPpConfig};
use tlb_apps::synthetic::{synthetic_workload, SyntheticConfig};
use tlb_bench::Effort;
use tlb_cluster::{trace_to_chrome, ClusterSim, FaultPlan, RunSpec, SimReport};
use tlb_core::{BalanceConfig, Platform, PortfolioConfig, Strategy};
use tlb_json::Value;
use tlb_trace::EventKind;

fn config(pool_threads: usize) -> BalanceConfig {
    let mut config = tlb_bench::config("lewi+drom-global", 2);
    // Tick fast enough that even the quick run races several times.
    config.global_period = tlb_des::SimTime::from_millis(500);
    config.portfolio = Some(PortfolioConfig::default().with_pool_threads(pool_threads));
    config
}

/// Fig. 5-style scenario: skewed MicroPP on four MN4 nodes.
fn run_micropp(effort: Effort, pool_threads: usize) -> SimReport {
    let mut mcfg = MicroPpConfig::new(4);
    mcfg.iterations = effort.pick(6, 3);
    mcfg.fractions_override = Some(vec![0.85, 0.25, 0.2, 0.15]);
    let platform = Platform::mn4(4);
    ClusterSim::execute(
        RunSpec::new(&platform, &config(pool_threads), micropp_workload(&mcfg))
            .trace(true)
            .faults(&FaultPlan::none()),
    )
    .expect("portfolio_smoke micropp experiment must be valid")
}

/// Fig. 8-style scenario: synthetic workload at imbalance 2.5.
fn run_synthetic(effort: Effort, pool_threads: usize) -> SimReport {
    let platform = Platform::mn4(4);
    let mut scfg = SyntheticConfig::new(4, 2.5);
    scfg.iterations = effort.pick(6, 3);
    scfg.seed = 1;
    let wl = synthetic_workload(&scfg, &platform);
    ClusterSim::execute(
        RunSpec::new(&platform, &config(pool_threads), wl)
            .trace(true)
            .faults(&FaultPlan::none()),
    )
    .expect("portfolio_smoke synthetic experiment must be valid")
}

/// Check the per-tick winner gate on one report and return the number of
/// ticks inspected.
fn gate_winner_scores(name: &str, report: &SimReport) -> usize {
    let merged = report.trace.log.merged();
    let solves: Vec<_> = merged
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::PortfolioSolve(rec) => Some(rec.as_ref()),
            _ => None,
        })
        .collect();
    let picks: Vec<_> = merged
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::PortfolioPick {
                strategy, score, ..
            } => Some((*strategy, *score)),
            _ => None,
        })
        .collect();
    assert_eq!(
        solves.len(),
        picks.len(),
        "{name}: one pick per race record"
    );
    assert!(!solves.is_empty(), "{name}: the portfolio never raced");
    for (tick, (rec, &(winner, score))) in solves.iter().zip(&picks).enumerate() {
        for c in &rec.candidates {
            if c.score >= 0.0 {
                assert!(
                    score <= c.score + 1e-12,
                    "{name} tick {tick}: winner {winner} score {score} worse than \
                     candidate {} score {}",
                    c.name,
                    c.score
                );
            }
        }
    }
    solves.len()
}

fn repo_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() {
    let effort = Effort::from_args();
    println!("portfolio_smoke ({effort:?})");

    type Runner = fn(Effort, usize) -> SimReport;
    let scenarios: [(&str, Runner); 2] = [
        ("micropp_fig05", run_micropp),
        ("synthetic_fig08", run_synthetic),
    ];

    let mut scenario_docs = Vec::new();
    for (name, runner) in scenarios {
        let reference = runner(effort, 1);
        let stats = reference
            .portfolio
            .clone()
            .expect("portfolio stats must be reported");
        assert!(stats.solves > 0, "{name}: no races ran");
        assert_eq!(stats.no_winner, 0, "{name}: a race found no winner");
        assert_eq!(
            stats.solves, reference.solver_runs,
            "{name}: one race per solver run"
        );
        let ticks = gate_winner_scores(name, &reference);
        assert_eq!(ticks, stats.solves, "{name}: every race left a record");
        let wins: usize = Strategy::ALL.iter().map(|&s| stats.of(s).wins).sum();
        assert_eq!(wins, stats.solves, "{name}: wins must sum to races");
        println!(
            "  {name}: {} races, winner never worse than any candidate",
            stats.solves
        );

        // Bitwise determinism across engine pool sizes.
        let chrome_ref = trace_to_chrome(&reference.trace);
        for threads in [2usize, 4, 8] {
            let got = runner(effort, threads);
            assert_eq!(
                got.portfolio.as_ref(),
                Some(&stats),
                "{name}: stats differ with {threads} pool threads"
            );
            assert_eq!(
                trace_to_chrome(&got.trace),
                chrome_ref,
                "{name}: chrome trace differs with {threads} pool threads"
            );
        }
        println!("  {name}: chrome + stats bitwise identical at 1/2/4/8 pool threads");

        let per_strategy: Vec<(&str, Value)> = Strategy::ALL
            .iter()
            .map(|&s| {
                let st = stats.of(s);
                (
                    s.name(),
                    Value::object(vec![
                        ("attempts", st.attempts.into()),
                        ("wins", st.wins.into()),
                        ("infeasible", st.infeasible.into()),
                        ("errors", st.errors.into()),
                        ("timeouts", st.timeouts.into()),
                        ("virtual_cost_s", st.virtual_cost.as_secs_f64().into()),
                    ]),
                )
            })
            .collect();
        scenario_docs.push((
            name,
            Value::object(vec![
                ("solves", stats.solves.into()),
                ("no_winner", stats.no_winner.into()),
                ("ticks_gated", ticks.into()),
                ("per_strategy", Value::object(per_strategy)),
            ]),
        ));
    }

    let doc = Value::object(vec![
        ("bench", "portfolio_smoke".into()),
        ("effort", format!("{effort:?}").into()),
        (
            "pool_threads_checked",
            Value::Array(vec![1u32.into(), 2u32.into(), 4u32.into(), 8u32.into()]),
        ),
        ("scenarios", Value::object(scenario_docs)),
    ]);
    let path = repo_root().join("BENCH_portfolio_smoke.json");
    std::fs::write(&path, doc.to_string_pretty()).expect("write BENCH_portfolio_smoke.json");
    println!("saved: {}", path.display());
    println!("portfolio_smoke OK");
}
