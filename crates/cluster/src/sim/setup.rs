//! Setting a run up and reporting it: [`RunSpec`], the one entry point
//! [`ClusterSim::execute`], and the assembly of the [`SimReport`].

use super::faults::Faults;
use super::flow::ApprankState;
use super::{Ev, SimError, State};
use crate::{FaultPlan, SimReport, Trace, Workload};
use std::collections::HashMap;
use tlb_core::{allocation_problem, BalanceConfig, Platform, ProcessLayout};
use tlb_des::{SimTime, Simulator};
use tlb_dlb::{NodeDlb, Talp};
use tlb_expander::{BipartiteGraph, ExpanderConfig};
use tlb_portfolio::Strategy;
use tlb_trace::TraceConfig;

/// Declarative description of one simulation run — the single argument
/// of [`ClusterSim::execute`], replacing the four legacy entry points
/// (`run`, `run_opts`, `run_trace_cfg`, `run_with_faults`) that had
/// accreted one positional parameter per feature.
///
/// Build one with [`RunSpec::new`] and refine it builder-style:
///
/// ```
/// use tlb_cluster::{ClusterSim, FaultPlan, RunSpec, SpecWorkload, TaskSpec};
/// use tlb_core::{BalanceConfig, Platform, Preset};
///
/// let wl = SpecWorkload::iterated(vec![vec![TaskSpec::compute(0.05); 8]], 2);
/// let platform = Platform::homogeneous(1, 4);
/// let config = BalanceConfig::preset(Preset::Baseline);
/// let report = ClusterSim::execute(
///     RunSpec::new(&platform, &config, wl)
///         .trace(true)
///         .faults(&FaultPlan::none()),
/// )
/// .unwrap();
/// assert_eq!(report.total_tasks, 16);
/// ```
///
/// Tracing defaults to **off** (the batch-sweep default); `.trace(true)`
/// records the Paraver-style timelines, the structured event log and
/// the counters, and `.trace_families(TraceConfig::off())` the timelines
/// alone.
pub struct RunSpec<'a, W> {
    platform: &'a Platform,
    config: &'a BalanceConfig,
    workload: W,
    trace: Option<TraceConfig>,
    faults: FaultPlan,
}

impl<'a, W: Workload> RunSpec<'a, W> {
    /// A run of `workload` on `platform` under `config`, with tracing
    /// off and no faults.
    pub fn new(platform: &'a Platform, config: &'a BalanceConfig, workload: W) -> Self {
        RunSpec {
            platform,
            config,
            workload,
            trace: None,
            faults: FaultPlan::none(),
        }
    }

    /// Builder: record everything ([`TraceConfig::all`]: timelines,
    /// event log, counters) or nothing.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on.then(TraceConfig::all);
        self
    }

    /// Builder: trace at an explicit level. The name is from when the
    /// level was a set of event families; there are two levels now.
    /// `TraceConfig::off()` keeps the timelines but leaves the event log
    /// and the counters empty, which is how the ledger isolates the event
    /// subsystem's cost (`trace.timelines_overhead_pct`).
    pub fn trace_families(mut self, level: TraceConfig) -> Self {
        self.trace = Some(level);
        self
    }

    /// Builder: inject a [`FaultPlan`]. An empty plan is byte-for-byte
    /// identical to not calling this at all: the fault machinery
    /// schedules no events and perturbs no decision. With faults active
    /// the runtime degrades instead of dying — stragglers slow nodes,
    /// killed workers hand their cores and queued tasks back, dropped
    /// offload messages retry with backoff and ultimately fail over to
    /// the home rank, and solver outages fall back to the local
    /// convergence policy. [`SimReport::faults`] accounts for every
    /// injection. The plan is checked by [`FaultPlan::validate`] when the
    /// run is set up.
    pub fn faults(mut self, plan: &FaultPlan) -> Self {
        self.faults = plan.clone();
        self
    }
}

/// The public simulation driver.
pub struct ClusterSim;

impl ClusterSim {
    /// Execute a [`RunSpec`] and return the report — the single
    /// simulation entry point every other API reduces to.
    pub fn execute<W: Workload>(spec: RunSpec<'_, W>) -> Result<SimReport, SimError> {
        let (state, events) = simulate(spec)?;

        // TALP end-of-run report: useful busy time over machine time.
        let end = state.completion_time;
        let useful: f64 = state
            .talps
            .iter()
            .map(|talp| (0..talp.procs()).map(|p| talp.total(p, end)).sum::<f64>())
            .sum();
        let machine = end.as_secs_f64() * state.platform.total_cores() as f64;
        let parallel_efficiency = if machine > 0.0 { useful / machine } else { 0.0 };

        Ok(SimReport {
            makespan: state.completion_time,
            parallel_efficiency,
            iteration_times: state.iteration_times,
            offloaded_tasks: state.offloaded_tasks,
            total_tasks: state.total_tasks,
            events,
            solver_runs: state.solver_runs,
            solver_time: state.solver_time,
            spawned_helpers: state.spawned_helpers,
            faults: state.faults.stats,
            trace: state.trace,
        })
    }
}

/// Set the world up from `spec`, run it to completion, and hand back its
/// final state with the number of events processed.
pub(super) fn simulate<W: Workload>(spec: RunSpec<'_, W>) -> Result<(State<W>, u64), SimError> {
    let RunSpec {
        platform,
        config,
        workload,
        trace,
        faults: plan,
    } = spec;
    let appranks = workload.appranks();
    if appranks == 0 {
        return Err(SimError::Shape("workload has no appranks".into()));
    }
    if platform.nodes == 0 || !appranks.is_multiple_of(platform.nodes) {
        return Err(SimError::Shape(format!(
            "{appranks} appranks do not divide over {} nodes",
            platform.nodes
        )));
    }
    let per_node = appranks / platform.nodes;
    let max_degree = config
        .dynamic
        .map_or(config.degree, |d| d.max_degree.max(config.degree));
    let balance_policy = config.policy.instantiate();
    let uses_solver = config.policy.uses_solver();
    if config.dynamic.is_some() && !uses_solver {
        return Err(SimError::Shape(
            "dynamic spreading requires the global DROM policy".into(),
        ));
    }
    let workers_per_node = max_degree * per_node;
    if workers_per_node > platform.cores_per_node {
        return Err(SimError::Shape(format!(
            "degree {max_degree} with {per_node} appranks/node needs {workers_per_node} cores, node has {}",
            platform.cores_per_node
        )));
    }
    if platform.node_speed.len() != platform.nodes {
        return Err(SimError::Shape("node_speed length mismatch".into()));
    }

    let ecfg = ExpanderConfig::new(appranks, platform.nodes, config.degree).with_seed(config.seed);
    let graph = BipartiteGraph::generate(&ecfg)?;
    let layout = ProcessLayout::new(&graph, platform.cores_per_node);

    // Runtime noise: every worker process steals a sliver of CPU for
    // polling and dependency state. Modelled as a uniform slowdown of
    // the node proportional to its worker count.
    let mut platform = platform.clone();
    let noise_scale: Vec<f64> = (0..platform.nodes)
        .map(|n| {
            let workers = layout.workers_on(n).len() as f64;
            1.0 - (platform.worker_noise * workers / platform.cores_per_node as f64).min(0.5)
        })
        .collect();
    for (speed, scale) in platform.node_speed.iter_mut().zip(&noise_scale) {
        *speed *= scale;
    }

    let mut dlbs: Vec<NodeDlb> = (0..platform.nodes)
        .map(|n| NodeDlb::with_counts(layout.initial_ownership(n), config.policy.lewi()))
        .collect();
    let trace = Trace::new(&layout, trace);
    if trace.events() {
        for d in dlbs.iter_mut() {
            d.set_recording(true);
        }
    }
    let talps: Vec<Talp> = (0..platform.nodes)
        .map(|n| Talp::new(layout.workers_on(n).len()))
        .collect();
    let last_total = (0..platform.nodes)
        .map(|n| vec![0.0; layout.workers_on(n).len()])
        .collect();

    // Setup-time feasibility: a program that cannot be solved for zero
    // demand can never be solved mid-run. Fail hard here, so the only
    // solver errors left at run time are transient ones the fallback
    // ladder absorbs.
    if uses_solver {
        let probe = allocation_problem(&layout, &platform, &vec![0.0; appranks]);
        Strategy::from(config.solver)
            .solve(&probe)
            .map_err(SimError::Solver)?;
    }
    plan.validate(platform.nodes, appranks)
        .map_err(|e| SimError::Shape(format!("fault plan: {e}")))?;

    let mut sim = Simulator::new();
    sim.schedule_at(SimTime::ZERO, Ev::StartIteration);
    for ev in &platform.speed_events {
        if ev.node >= platform.nodes {
            return Err(SimError::Shape(format!(
                "speed event node {} out of range",
                ev.node
            )));
        }
        sim.schedule_at(
            ev.at,
            Ev::SpeedChange {
                node: ev.node,
                speed: ev.speed * noise_scale[ev.node],
            },
        );
    }
    if config.policy.wants_local_tick() {
        sim.schedule_at(config.local_period, Ev::LocalTick);
    }
    if config.policy.wants_global_tick() {
        sim.schedule_at(config.global_period, Ev::GlobalTick);
    }
    let faults = Faults::new(plan, platform.node_speed.clone());
    faults.schedule(&mut sim);

    let mut state = State {
        config: config.clone(),
        dlbs,
        talps,
        trace,
        error: None,
        workload,
        appranks: (0..appranks)
            .map(|a| ApprankState::new(layout.placement()[a].len()))
            .collect(),
        messages: HashMap::new(),
        waiting_recvs: HashMap::new(),
        rr_offset: vec![0; platform.nodes],
        sched_slots: Vec::new(),
        sched_candidates: Vec::new(),
        iteration: 0,
        iteration_start: SimTime::ZERO,
        remaining_appranks: 0,
        rank_finish: vec![SimTime::ZERO; appranks],
        finished: false,
        completion_time: SimTime::ZERO,
        iteration_times: Vec::new(),
        offloaded_tasks: 0,
        total_tasks: 0,
        created_work: vec![0.0; appranks],
        balance_policy,
        last_total,
        last_created: vec![0.0; appranks],
        solver_runs: 0,
        solver_time: SimTime::ZERO,
        spawned_helpers: 0,
        faults,
        layout,
        platform,
    };
    // Record the initial ownership.
    for n in 0..state.platform.nodes {
        state.record_node(SimTime::ZERO, n);
    }
    sim.run(&mut state);
    if let Some(err) = state.error.take() {
        return Err(err);
    }
    if !state.finished {
        return Err(SimError::Shape(
            "simulation deadlocked: unmatched MPI send/recv pairs or an unsatisfiable dependency"
                .into(),
        ));
    }
    Ok((state, sim.events_processed()))
}
