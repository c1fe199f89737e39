//! Smoke test for the structured event-tracing subsystem (`tlb-trace`):
//! runs a fig. 5-sized MicroPP experiment with tracing on and checks the
//! invariants the observability layer promises.
//!
//! Usage: `trace_smoke [--quick]`
//!
//! Checks:
//!
//! 1. every task gets exactly one `task_started` and one `task_completed`
//!    event, and the started keys are unique;
//! 2. the run records at least one scheduler decision, LeWI borrow, DROM
//!    ownership transaction and global-solver invocation;
//! 3. the Chrome trace-event export round-trips through the in-tree JSON
//!    parser and pairs every task into a complete ("X") slice;
//! 4. the exported event stream is *bitwise identical* no matter how many
//!    smprt worker threads are alive in the process (virtual timestamps
//!    only — no wall-clock leaks into the stream);
//! 5. with tracing disabled the log and counters stay empty and the
//!    exports carry headers/metadata only.

use std::collections::HashSet;
use tlb_apps::micropp::{micropp_workload, MicroPpConfig};
use tlb_bench::Effort;
use tlb_cluster::{trace_to_chrome, trace_to_csv, ClusterSim, RunSpec, SimReport};
use tlb_core::{BalanceConfig, Platform};
use tlb_smprt::Pool;
use tlb_trace::EventKind;

fn experiment(effort: Effort) -> (Platform, BalanceConfig, MicroPpConfig) {
    let mut mcfg = MicroPpConfig::new(4);
    mcfg.iterations = effort.pick(6, 3);
    // Skewed load so offloading, LeWI and DROM all have work to do.
    mcfg.fractions_override = Some(vec![0.85, 0.25, 0.2, 0.15]);
    let platform = Platform::mn4(4);
    let mut config = tlb_bench::config("lewi+drom-global", 2);
    // Tick the global solver fast enough that even the quick run records
    // solver invocations and DROM ownership transactions.
    config.global_period = tlb_des::SimTime::from_millis(500);
    (platform, config, mcfg)
}

fn run(effort: Effort, trace: bool) -> SimReport {
    let (platform, config, mcfg) = experiment(effort);
    ClusterSim::execute(RunSpec::new(&platform, &config, micropp_workload(&mcfg)).trace(trace))
        .expect("trace_smoke experiment must be valid")
}

/// Exercise the smprt pool with `threads` live workers, then run the
/// traced experiment while those workers exist. The pool work is real
/// (parallel stencil-ish arithmetic) so any wall-clock or thread-count
/// leak into the event stream would show up as a byte difference.
fn chrome_with_pool(effort: Effort, threads: usize) -> String {
    let pool = Pool::new(threads);
    let n = 50_000;
    let sums: Vec<std::sync::atomic::AtomicU64> = (0..threads)
        .map(|_| std::sync::atomic::AtomicU64::new(0))
        .collect();
    pool.parallel_for_named("trace_smoke_warmup", n, 1024, |i| {
        let v = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        sums[i % sums.len()].fetch_add(v, std::sync::atomic::Ordering::Relaxed);
    });
    let report = run(effort, true);
    trace_to_chrome(&report.trace)
}

fn count(report: &SimReport, pred: impl Fn(&EventKind) -> bool) -> usize {
    report.trace.log.count(pred)
}

fn main() {
    let effort = Effort::from_args();
    println!("trace_smoke ({effort:?})");

    // --- invariants on one traced run -----------------------------------
    let report = run(effort, true);
    let total = report.total_tasks;
    let started = count(&report, |k| matches!(k, EventKind::TaskStarted { .. }));
    let completed = count(&report, |k| matches!(k, EventKind::TaskCompleted { .. }));
    assert_eq!(started, total, "one task_started per task");
    assert_eq!(completed, total, "one task_completed per task");
    let unique: HashSet<_> = report
        .trace
        .log
        .merged()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::TaskStarted { key, .. } => Some(key),
            _ => None,
        })
        .collect();
    assert_eq!(unique.len(), total, "started task keys are unique");

    let decisions = count(&report, |k| matches!(k, EventKind::SchedDecision { .. }));
    let borrows = count(&report, |k| matches!(k, EventKind::LewiBorrow { .. }));
    let drom = count(&report, |k| {
        matches!(
            k,
            EventKind::DromOwnership { .. } | EventKind::DromTransfer { .. }
        )
    });
    let solver = count(&report, |k| matches!(k, EventKind::SolverInvoked { .. }));
    assert!(decisions >= total, "a scheduler decision per task at least");
    assert!(borrows >= 1, "LeWI borrowed at least once");
    assert!(drom >= 1, "DROM changed ownership at least once");
    assert!(solver >= 1, "global solver invoked at least once");
    println!(
        "  {total} tasks: started/completed 1:1, {decisions} decisions, \
         {borrows} lewi borrows, {drom} drom transactions, {solver} solver runs"
    );

    // --- Chrome export round-trips the in-tree parser -------------------
    let chrome = trace_to_chrome(&report.trace);
    let doc = tlb_json::parse(&chrome).expect("chrome export parses");
    let events = doc.get("traceEvents").as_array().expect("traceEvents");
    let slices = events
        .iter()
        .filter(|e| e.get("ph").as_str() == Some("X"))
        .count();
    assert_eq!(slices, total, "one complete slice per task");
    println!(
        "  chrome export: {} records, {slices} task slices",
        events.len()
    );

    // --- bitwise determinism across smprt thread counts -----------------
    let reference = chrome_with_pool(effort, 1);
    for threads in [2, 4, 8] {
        let got = chrome_with_pool(effort, threads);
        assert_eq!(
            got, reference,
            "chrome trace differs with {threads} pool threads"
        );
    }
    assert_eq!(reference, chrome, "pool activity perturbed the trace");
    println!("  chrome export bitwise identical at 1/2/4/8 pool threads");

    // --- disabled tracing records nothing -------------------------------
    let off = run(effort, false);
    assert!(off.trace.log.is_empty(), "disabled trace logs no events");
    assert!(
        off.trace.counters.is_empty(),
        "disabled trace counts nothing"
    );
    let off_csv = trace_to_csv(&off.trace);
    assert_eq!(off_csv.lines().count(), 1, "disabled CSV is header-only");
    let off_doc = tlb_json::parse(&trace_to_chrome(&off.trace)).unwrap();
    assert!(
        off_doc
            .get("traceEvents")
            .as_array()
            .unwrap()
            .iter()
            .all(|e| e.get("ph").as_str() == Some("M")),
        "disabled chrome export is metadata-only"
    );
    println!("  disabled tracing: no events, no counters, header-only exports");
    println!("trace_smoke OK");
}
