//! `sim_synth_32n` and `trace_synth_4n`: one simulated run per
//! operation, through `ClusterSim::execute`.
//!
//! Both run the paper's synthetic benchmark (imbalance 2.0, two
//! appranks per node, four iterations) under `Preset::Offload {degree 4,
//! Global}` on MareNostrum-4 nodes, with 25 tasks per core instead of
//! the paper's 100 so that an operation lasts about a third of a
//! second: the host this was sized on changes speed every few seconds,
//! and only operations shorter than that can be told apart from it.
//! Task count and solver ticks shrink together (153,600 tasks, 2 solves
//! at 32 nodes), so the solver keeps its ≈4 % share of a run.
//!
//! * `sim_synth_32n` — untraced, 32 nodes: the simulation kernel
//!   (event queue, handlers, scheduler, DLB, task graphs) does all the
//!   work; tracing, JSON, cache and wire do none.
//! * `trace_synth_4n` — 4 nodes with every trace family on, then the
//!   Chrome export: the same kernel, but `TraceLog::push`,
//!   `Counters::inc`, the timelines and the exporter dominate.

use std::hint::black_box;
use std::time::Instant;

use tlb_apps::{synthetic_workload, SyntheticConfig};
use tlb_cluster::{
    trace_to_chrome, trace_to_csv, ClusterSim, RunSpec, SimReport, SpecWorkload, Workload,
};
use tlb_core::{BalanceConfig, DromPolicy, GlobalSolverKind, Platform, Preset};
use tlb_trace::TraceConfig;

use super::{Ctx, Outcome};
use crate::digest::report_digest;
use crate::measure::{self, run_for, Setups};
use crate::replay;

const APPRANKS_PER_NODE: usize = 2;
const TASKS_PER_CORE: usize = 25;
const ITERATIONS: usize = 4;
const IMBALANCE: f64 = 2.0;
const DEGREE: usize = 4;
/// Least set-ups timed before the measured phase; one more follows
/// every operation.
const SETUP_REPEATS: usize = 15;

/// The two shapes of the simulated run.
pub struct Shape {
    name: &'static str,
    nodes: usize,
    traced: bool,
}

/// 32 nodes, untraced.
pub const SIM_SYNTH_32N: Shape = Shape {
    name: "sim_synth_32n",
    nodes: 32,
    traced: false,
};

/// 4 nodes, all trace families, plus the Chrome export.
pub const TRACE_SYNTH_4N: Shape = Shape {
    name: "trace_synth_4n",
    nodes: 4,
    traced: true,
};

struct Input {
    platform: Platform,
    balance: BalanceConfig,
    workload: SpecWorkload,
}

fn build(nodes: usize, seed: u64) -> Input {
    let platform = Platform::mn4(nodes);
    let mut cfg = SyntheticConfig::new(nodes * APPRANKS_PER_NODE, IMBALANCE);
    cfg.tasks_per_core = TASKS_PER_CORE;
    cfg.iterations = ITERATIONS;
    cfg.seed = seed;
    let workload = synthetic_workload(&cfg, &platform);
    let balance = BalanceConfig::preset(Preset::Offload {
        degree: DEGREE,
        drom: DromPolicy::Global,
    })
    .with_seed(seed);
    Input {
        platform,
        balance,
        workload,
    }
}

fn generated_tasks(workload: &SpecWorkload) -> usize {
    let mut wl = workload.clone();
    let (iterations, appranks) = (wl.iterations(), wl.appranks());
    let mut total = 0;
    for it in 0..iterations {
        for rank in 0..appranks {
            total += wl.tasks(rank, it).len();
        }
    }
    total
}

fn execute(
    input: &Input,
    workload: SpecWorkload,
    families: Option<TraceConfig>,
) -> Result<SimReport, String> {
    let mut spec = RunSpec::new(&input.platform, &input.balance, workload);
    if let Some(f) = families {
        spec = spec.trace_families(f);
    }
    ClusterSim::execute(spec).map_err(|e| format!("execute failed: {e}"))
}

/// One operation: execute (and, traced, export), timed without the
/// input clone. Returns the report, the Chrome text length, and the
/// seconds of each part.
fn one_op(
    ctx: &Ctx,
    input: &Input,
    traced: bool,
    record: bool,
) -> Result<(SimReport, usize, f64, f64), String> {
    let workload = input.workload.clone();
    let rec = &ctx.rec;
    let start = rec.now_s();
    let report = execute(input, workload, traced.then(TraceConfig::all))?;
    let mid = rec.now_s();
    let chrome_len = if traced {
        black_box(trace_to_chrome(&report.trace)).len()
    } else {
        0
    };
    let end = rec.now_s();
    if record {
        let op = rec.record("harness.op", start, end, None);
        rec.record("cluster.execute", start, mid, op);
        if traced {
            rec.record("trace.export", mid, end, op);
        }
    }
    Ok((report, chrome_len, mid - start, end - mid))
}

/// Run one of the two simulated-run workloads.
pub fn run(ctx: &Ctx, shape: &Shape) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::new();
    let input = setups.repeat(SETUP_REPEATS, || build(shape.nodes, ctx.seed));
    let generated = generated_tasks(&input.workload);

    // The first operation of the process: untimed as a sample, but it
    // fixes the reference every later repetition must reproduce.
    let first = Instant::now();
    let (reference, chrome_len) = match one_op(ctx, &input, shape.traced, false) {
        Ok((report, len, _, _)) => (report, len),
        Err(e) => {
            out.check(false, || e);
            return out.finish(setups.quiet_s());
        }
    };
    let first_op_s = first.elapsed().as_secs_f64();
    let digest = report_digest(&reference);
    out.digest = digest;
    out.check(reference.total_tasks == generated, || {
        format!(
            "total_tasks {} != tasks generated {generated}",
            reference.total_tasks
        )
    });
    if shape.traced {
        // Tracing must not change what is simulated.
        match execute(&input, input.workload.clone(), None) {
            Ok(untraced) => out.check(report_digest(&untraced) == digest, || {
                "traced and untraced runs of one config differ in digest".into()
            }),
            Err(e) => out.check(false, || e),
        }
        let completed = reference.trace.counters.count("tasks_completed");
        out.check(completed == generated as u64, || {
            format!("tasks_completed counter {completed} != tasks generated {generated}")
        });
        out.check(chrome_len > 0, || "empty Chrome export".into());
    }

    let cpu_before = crate::host::cpu_seconds();
    let samples = run_for(&ctx.rec, Instant::now(), ctx.seconds, 6, |record| {
        let (report, len, run_s, export_s) = one_op(ctx, &input, shape.traced, record)?;
        if report_digest(&report) != digest {
            return Err("repetition digest differs from the first run".into());
        }
        if report.total_tasks != generated || len != chrome_len {
            return Err("repetition changed task count or export size".into());
        }
        drop(setups.time(|| build(shape.nodes, ctx.seed)));
        Ok(run_s + export_s)
    });
    let cpu_s = crate::host::cpu_seconds() - cpu_before;
    // Few, long operations: no percentile above the median has ten
    // samples beyond it, so the tail is the median.
    out.fold_loop(ctx, &samples, 1, 1.0, 0.5, cpu_s);
    out.notes.push(format!(
        "{}: {} nodes, {generated} tasks, {} events, {} solver runs, digest {digest:016x}",
        shape.name, shape.nodes, reference.events, reference.solver_runs
    ));

    if ctx.trace() {
        out.layer.set("harness.first_op_ms", first_op_s * 1e3);
        layers(ctx, shape, &input, &reference, chrome_len, &mut out);
    }
    out.finish(setups.quiet_s())
}

/// The per-layer pass: counts from a traced run, spans from the
/// measured loop, and the replays at those counts.
fn layers(
    ctx: &Ctx,
    shape: &Shape,
    input: &Input,
    reference: &SimReport,
    chrome_len: usize,
    out: &mut Outcome,
) {
    let spans = ctx.rec.snapshot();
    let execute_s = measure::span_median_s(&spans, "cluster.execute");
    let l = &mut out.layer;
    l.set("cluster.execute_s", execute_s);
    l.set("cluster.cpu_s", l.get("harness.cpu_s_per_op"));
    l.set("cluster.events", reference.events as f64);
    let ns_per_event = execute_s * 1e9 / reference.events.max(1) as f64;
    l.set("cluster.ns_per_event", ns_per_event);
    l.set("cluster.offload_fraction", reference.offload_fraction());
    l.set("cluster.solver_runs", reference.solver_runs as f64);

    // Counters only exist on a traced run; for the untraced workload
    // make one, and hold it to the same digest.
    let traced_run;
    let counted = if shape.traced {
        reference
    } else {
        match execute(input, input.workload.clone(), Some(TraceConfig::all())) {
            Ok(r) => {
                traced_run = r;
                &traced_run
            }
            Err(e) => {
                out.check(false, || e);
                return;
            }
        }
    };
    let same = report_digest(counted) == report_digest(reference);
    out.check(same, || {
        "traced and untraced runs of one config differ in digest".into()
    });
    let c = |name: &str| counted.trace.counters.count(name) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let l = &mut out.layer;
    l.set("cluster.sched_decisions", c("sched_decisions"));
    l.set("cluster.steal_attempts", c("steal_attempts"));
    l.set(
        "cluster.steal_success_ratio",
        ratio(c("tasks_stolen"), c("steal_attempts")),
    );
    l.set(
        "cluster.held_fraction",
        ratio(c("tasks_held"), c("tasks_created")),
    );
    l.set("cluster.lewi_lends", c("lewi_lends"));
    l.set("cluster.lewi_reclaims", c("lewi_reclaims"));

    // How per-event cost grows with node count: the same app on 8 nodes.
    if shape.nodes != 8 {
        let small = build(8, ctx.seed);
        let mut events = 1u64;
        let secs = replay::time_batches(5, || {
            if let Ok(r) = execute(&small, small.workload.clone(), None) {
                events = r.events.max(1);
            }
        });
        let ns_8n = secs * 1e9 / events as f64;
        l.set("cluster.ns_per_event_8n", ns_8n);
        if shape.nodes == 32 {
            l.set("cluster.scale_ratio_32n_8n", ratio(ns_per_event, ns_8n));
        }
    }

    // Replays at this run's counts; shares are of one untraced execute.
    let appranks = shape.nodes * APPRANKS_PER_NODE;
    let cores = input.platform.cores_per_node;
    let run_ns = execute_s * 1e9;
    let share = |ns_per_op: f64, ops: f64| ratio(ns_per_op * ops, run_ns);
    let queue_ns = replay::des_queue_ns_per_op(shape.nodes * cores, ctx.seed);
    l.set("des.queue_ns_per_op", queue_ns);
    l.set(
        "des.queue_est_share",
        share(queue_ns, reference.events as f64),
    );
    let batch = generated_tasks(&input.workload) / (appranks * ITERATIONS).max(1);
    let task_ns = replay::tasking_ns_per_task(batch);
    l.set("tasking.ns_per_task", task_ns);
    l.set(
        "tasking.est_share",
        share(task_ns, reference.total_tasks as f64),
    );
    let procs = APPRANKS_PER_NODE * DEGREE.min(shape.nodes);
    let dlb_ns = replay::dlb_acquire_release_ns(cores, procs);
    let own_us = replay::dlb_set_ownership_us(cores, procs);
    l.set("dlb.acquire_release_ns", dlb_ns);
    l.set("dlb.set_ownership_us", own_us);
    l.set(
        "dlb.est_share",
        share(
            dlb_ns,
            c("tasks_started") + c("lewi_lends") + c("lewi_reclaims"),
        ) + share(own_us * 1e3, c("drom_ownership_sets")),
    );
    let choose_ns = replay::choose_node_ns(DEGREE.min(shape.nodes), ctx.seed);
    l.set("core.choose_node_ns", choose_ns);
    l.set(
        "core.sched_est_share",
        share(choose_ns, c("sched_decisions")),
    );
    let solver = replay::solver_times(shape.nodes, appranks, DEGREE.min(shape.nodes), ctx.seed);
    l.set("linprog.simplex_solve_ms", solver.simplex_ms);
    l.set("linprog.flow_solve_ms", solver.flow_ms);
    l.set("portfolio.race_ms", solver.race_ms);
    let solve_ms = match input.balance.solver {
        GlobalSolverKind::Simplex => solver.simplex_ms,
        GlobalSolverKind::Flow => solver.flow_ms,
    };
    l.set(
        "solver.est_share",
        share(solve_ms * 1e6, reference.solver_runs as f64),
    );
    let attributed = l.get("des.queue_est_share")
        + l.get("tasking.est_share")
        + l.get("dlb.est_share")
        + l.get("core.sched_est_share")
        + l.get("solver.est_share");
    l.set("cluster.unattributed_share", 1.0 - attributed);

    // What the set-up is made of.
    l.set(
        "expander.generate_ms",
        replay::expander_generate_ms(shape.nodes, appranks, DEGREE.min(shape.nodes), ctx.seed),
    );
    l.set(
        "apps.synthetic_build_ms",
        1e3 * replay::time_batches(5, || {
            black_box(build(shape.nodes, ctx.seed));
        }),
    );

    if shape.traced {
        trace_layers(ctx, input, counted, chrome_len, out);
    }
}

/// `tlb-trace` metrics of the traced workload.
fn trace_layers(
    ctx: &Ctx,
    input: &Input,
    traced: &SimReport,
    chrome_len: usize,
    out: &mut Outcome,
) {
    let spans = ctx.rec.snapshot();
    let l = &mut out.layer;
    l.set(
        "trace.run_s",
        measure::span_median_s(&spans, "cluster.execute"),
    );
    l.set(
        "trace.export_s",
        measure::span_median_s(&spans, "trace.export"),
    );
    let events = traced.trace.log.len();
    l.set("trace.events_recorded", events as f64);
    l.set("trace.chrome_bytes", chrome_len as f64);
    l.set(
        "trace.chrome_bytes_per_event",
        chrome_len as f64 / events.max(1) as f64,
    );
    l.set(
        "trace.push_ns",
        replay::trace_push_ns(events, input.platform.nodes),
    );
    l.set(
        "trace.counters_inc_ns",
        replay::counters_inc_ns(&traced.trace.counters.sorted_counts()),
    );
    l.set(
        "trace.merged_ms",
        1e3 * replay::time_batches(3, || {
            black_box(traced.trace.log.merged());
        }),
    );
    l.set(
        "trace.csv_export_s",
        replay::time_batches(3, || {
            black_box(trace_to_csv(&traced.trace));
        }),
    );

    // Three levels of the same config, interleaved so they share host
    // conditions: untraced, timelines only, every family.
    let levels = [None, Some(TraceConfig::off()), Some(TraceConfig::all())];
    let mut times = [Vec::new(), Vec::new(), Vec::new()];
    let origin = Instant::now();
    for _ in 0..7 {
        for (level, families) in levels.iter().enumerate() {
            let workload = input.workload.clone();
            let start_s = origin.elapsed().as_secs_f64();
            if execute(input, workload, *families).is_ok() {
                times[level].push(crate::stats::Op {
                    start_s,
                    dur_s: origin.elapsed().as_secs_f64() - start_s,
                });
            }
        }
    }
    let med = |level: usize| crate::stats::quiet_median(&times[level], 1e-9);
    if med(0) > 0.0 && med(1) > 0.0 {
        l.set("trace.overhead_pct", 100.0 * (med(2) / med(0) - 1.0));
        l.set(
            "trace.timelines_overhead_pct",
            100.0 * (med(1) / med(0) - 1.0),
        );
    }
}
