//! Smoke test for the fault-injection subsystem and graceful degradation
//! (`tlb_cluster::FaultPlan`): runs a fig. 5-sized MicroPP experiment
//! under a plan that exercises *every* fault kind at once and checks the
//! invariants the robustness layer promises.
//!
//! Usage: `robustness_smoke [--quick]`
//!
//! Checks:
//!
//! 1. every injected fault is accounted for: `injected == recovered +
//!    absorbed` (nothing is silently lost);
//! 2. exact-once execution survives worker death, message loss, and
//!    failover: one `task_started`/`task_completed` pair per task, with
//!    unique keys;
//! 3. each fault kind demonstrably fired: a worker was killed (and its
//!    tasks requeued), messages were dropped, the solver outage forced at
//!    least one degradation-ladder fallback, the straggler burst started
//!    and ended;
//! 4. the faulty run's Chrome export is *bitwise identical* no matter how
//!    many smprt worker threads are alive in the process (the fault RNG
//!    is seeded from the plan, never from wall clock or thread state);
//! 5. an empty [`FaultPlan`] leaves the run bitwise identical to the
//!    pre-fault-machinery entry point: fault injection off means zero
//!    behavioural drift.

use std::collections::HashSet;
use tlb_apps::micropp::{micropp_workload, MicroPpConfig};
use tlb_bench::Effort;
use tlb_cluster::{trace_to_chrome, ClusterSim, FaultPlan, RunSpec, SimReport};
use tlb_core::{BalanceConfig, Platform};
use tlb_linprog::LpError;
use tlb_smprt::Pool;
use tlb_trace::EventKind;

fn experiment(effort: Effort) -> (Platform, BalanceConfig, MicroPpConfig) {
    let mut mcfg = MicroPpConfig::new(4);
    mcfg.iterations = effort.pick(6, 3);
    // Skewed load so offloading has in-flight messages to lose and
    // helpers worth killing.
    mcfg.fractions_override = Some(vec![0.85, 0.25, 0.2, 0.15]);
    let platform = Platform::mn4(4);
    let mut config = tlb_bench::config("lewi+drom-global", 2);
    // Tick the global solver fast enough that the outage window catches
    // at least one tick even in the quick run.
    config.global_period = tlb_des::SimTime::from_millis(500);
    (platform, config, mcfg)
}

/// One of everything: straggler burst, two kills (one seeded, one
/// explicit), a solver outage long enough to span global ticks, message
/// loss with retries, and a degraded link.
fn plan() -> FaultPlan {
    FaultPlan::new(42)
        .with_straggler(0.4, 1, 3.0, 1.0)
        .with_kill(0.6)
        .with_kill_of(1.2, 0, 1)
        .with_outage(0.5, 1.5, LpError::IterationLimit)
        .with_loss(0.0, 3.0, 0.4, 3, 0.002)
        .with_delay(0.0, 3.0, 0.001)
}

fn run(effort: Effort, plan: &FaultPlan) -> SimReport {
    let (platform, config, mcfg) = experiment(effort);
    ClusterSim::execute(
        RunSpec::new(&platform, &config, micropp_workload(&mcfg))
            .trace(true)
            .faults(plan),
    )
    .expect("robustness_smoke experiment must be valid")
}

/// Exercise the smprt pool with `threads` live workers, then run the
/// faulty experiment while those workers exist. Any wall-clock or
/// thread-count leak into the fault schedule or event stream would show
/// up as a byte difference in the Chrome export.
fn chrome_with_pool(effort: Effort, threads: usize) -> String {
    let pool = Pool::new(threads);
    let n = 50_000;
    let sums: Vec<std::sync::atomic::AtomicU64> = (0..threads)
        .map(|_| std::sync::atomic::AtomicU64::new(0))
        .collect();
    pool.parallel_for_named("robustness_smoke_warmup", n, 1024, |i| {
        let v = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        sums[i % sums.len()].fetch_add(v, std::sync::atomic::Ordering::Relaxed);
    });
    let report = run(effort, &plan());
    trace_to_chrome(&report.trace)
}

fn count(report: &SimReport, pred: impl Fn(&EventKind) -> bool) -> usize {
    report.trace.log.count(pred)
}

fn main() {
    let effort = Effort::from_args();
    println!("robustness_smoke ({effort:?})");

    // --- fault accounting and exact-once execution ----------------------
    let report = run(effort, &plan());
    let f = report.faults;
    assert!(f.injected > 0, "the plan must inject something: {f:?}");
    assert_eq!(
        f.injected,
        f.recovered + f.absorbed,
        "every fault recovered or absorbed: {f:?}"
    );
    let total = report.total_tasks;
    let started = count(&report, |k| matches!(k, EventKind::TaskStarted { .. }));
    let completed = count(&report, |k| matches!(k, EventKind::TaskCompleted { .. }));
    assert_eq!(started, total, "one task_started per task despite faults");
    assert_eq!(
        completed, total,
        "one task_completed per task despite faults"
    );
    let unique: HashSet<_> = report
        .trace
        .log
        .merged()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::TaskCompleted { key, .. } => Some(key),
            _ => None,
        })
        .collect();
    assert_eq!(unique.len(), total, "no task completed twice");
    println!(
        "  {total} tasks exact-once; {} injected = {} recovered + {} absorbed",
        f.injected, f.recovered, f.absorbed
    );

    // --- every fault kind demonstrably fired ----------------------------
    assert!(f.workers_killed >= 1, "a worker must die: {f:?}");
    assert!(
        f.tasks_requeued >= 1,
        "killed workers hand their queue back: {f:?}"
    );
    assert!(f.messages_dropped >= 1, "the loss window must bite: {f:?}");
    assert!(
        f.solver_fallbacks >= 1,
        "the outage must force a fallback: {f:?}"
    );
    let straggler_started = count(&report, |k| matches!(k, EventKind::StragglerStart { .. }));
    let straggler_ended = count(&report, |k| matches!(k, EventKind::StragglerEnd { .. }));
    assert_eq!(straggler_started, 1, "one straggler burst");
    assert_eq!(straggler_ended, 1, "the burst ends");
    let killed = count(&report, |k| matches!(k, EventKind::WorkerKilled { .. }));
    assert_eq!(killed, f.workers_killed, "kill events match the stats");
    let fallbacks = count(&report, |k| matches!(k, EventKind::SolverFallback { .. }));
    assert_eq!(fallbacks, f.solver_fallbacks, "fallback events match");
    println!(
        "  {} kills ({} tasks requeued), {} drops ({} failovers), \
         {} solver fallbacks, straggler burst bracketed",
        f.workers_killed, f.tasks_requeued, f.messages_dropped, f.message_failovers, fallbacks
    );

    // --- bitwise determinism across smprt thread counts -----------------
    let reference = chrome_with_pool(effort, 1);
    for threads in [2, 4, 8] {
        let got = chrome_with_pool(effort, threads);
        assert_eq!(
            got, reference,
            "faulty chrome trace differs with {threads} pool threads"
        );
    }
    println!("  faulty chrome export bitwise identical at 1/2/4/8 pool threads");

    // --- empty plan means zero drift ------------------------------------
    let (platform, config, mcfg) = experiment(effort);
    let baseline =
        ClusterSim::execute(RunSpec::new(&platform, &config, micropp_workload(&mcfg)).trace(true))
            .expect("baseline run");
    let none = run(effort, &FaultPlan::none());
    assert_eq!(none.makespan, baseline.makespan, "makespan drifted");
    assert_eq!(
        none.iteration_times, baseline.iteration_times,
        "iteration times drifted"
    );
    assert_eq!(none.events, baseline.events, "event count drifted");
    assert_eq!(
        none.faults,
        Default::default(),
        "empty plan reports no faults"
    );
    assert_eq!(
        trace_to_chrome(&none.trace),
        trace_to_chrome(&baseline.trace),
        "empty fault plan must leave the trace bitwise identical"
    );
    println!("  empty fault plan: bitwise identical to the fault-free entry point");
    println!("robustness_smoke OK");
}
