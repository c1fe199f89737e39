//! The discrete-event OmpSs-2@Cluster runtime.
#![allow(clippy::needless_range_loop)] // index loops touch several arrays at once
#![allow(clippy::while_let_loop)]

use crate::collective::barrier_cost;
use crate::{FaultPlan, FaultStats, SimReport, TaskSpec, Trace, Workload};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use tlb_core::{
    choose_node_explained, BalanceConfig, BalancePolicy, CandidateState, ChoiceReason,
    GlobalAction, GlobalPolicy, LocalAction, LocalPolicy, Placement, Platform, ProcessLayout,
    SignalView, StealGate, WorkSignal,
};
use tlb_des::{Ctx, SimTime, Simulator, World};
use tlb_dlb::{DlbEvent, NodeDlb, ProcId, Talp};
use tlb_expander::{BipartiteGraph, ExpanderConfig, ExpanderError};
use tlb_linprog::{AllocationSolution, LpError};
use tlb_portfolio::{PortfolioEngine, Strategy};
use tlb_rng::Rng;
use tlb_tasking::{TaskDef, TaskGraph, TaskId};
use tlb_trace::{
    DecisionReason, EventKind, FallbackReason, TaskKey, TraceConfig, TraceLog, GLOBAL_STREAM,
};

/// Errors from setting up or running a simulation.
#[derive(Debug)]
pub enum SimError {
    /// Invalid machine/workload shape.
    Shape(String),
    /// Expander graph generation failed.
    Expander(ExpanderError),
    /// The global allocation program is infeasible at setup time (a
    /// zero-demand probe solve fails). Mid-run solver errors do not
    /// surface here: they degrade to the local-convergence policy.
    Solver(LpError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Shape(s) => write!(f, "invalid configuration: {s}"),
            SimError::Expander(e) => write!(f, "expander generation: {e}"),
            SimError::Solver(e) => write!(f, "global solver: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ExpanderError> for SimError {
    fn from(e: ExpanderError) -> Self {
        SimError::Expander(e)
    }
}

/// Progress of a point-to-point message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MsgState {
    /// Send completed; payload on the wire.
    InFlight,
    /// Payload arrived; a matching recv may run.
    Arrived,
}

/// A task instance in flight through the runtime.
#[derive(Clone, Debug)]
struct Inst {
    tid: TaskId,
    duration: f64,
    bytes: usize,
}

/// One worker process (an apprank's presence on one node).
#[derive(Debug, Default)]
struct WorkerState {
    /// Tasks whose data has arrived, waiting for a core.
    queued: VecDeque<Inst>,
    /// Tasks executing right now.
    running: usize,
    /// Tasks dispatched to this worker whose transfer is still in flight.
    in_flight: usize,
}

impl WorkerState {
    fn load(&self) -> usize {
        self.queued.len() + self.running + self.in_flight
    }
}

/// Per-apprank runtime state for the current iteration.
struct ApprankState {
    graph: TaskGraph,
    specs: Vec<TaskSpec>,
    /// Ready tasks held back by the scheduler, awaiting stealing.
    hold: VecDeque<Inst>,
    done: usize,
    total: usize,
    iteration_done: bool,
    workers: Vec<WorkerState>,
}

enum Ev {
    StartIteration,
    /// A point-to-point message has crossed the wire.
    MsgDeliver {
        from: usize,
        to: usize,
        tag: u64,
    },
    /// DVFS/thermal event: node speed changes (already noise-scaled).
    SpeedChange {
        node: usize,
        speed: f64,
    },
    Arrive {
        apprank: usize,
        slot: usize,
        inst: Inst,
    },
    End {
        apprank: usize,
        slot: usize,
        core: usize,
        tid: TaskId,
    },
    LocalTick,
    GlobalTick,
    ApplyOwnership {
        per_node: Vec<Vec<usize>>,
    },
    /// Injected fault: a node slows down by `slowdown` for `duration`.
    FaultStraggler {
        node: usize,
        slowdown: f64,
        duration: SimTime,
    },
    /// A straggler burst ends (scheduled by its start event).
    FaultStragglerEnd {
        node: usize,
        slowdown: f64,
    },
    /// Injected fault: a helper worker process dies (fail-stop after its
    /// currently running tasks). `idx` seeds the victim pick when none is
    /// given explicitly.
    FaultKill {
        idx: u64,
        victim: Option<(usize, usize)>,
    },
    /// Injected fault: the global solver starts failing with `error`, or
    /// (with `strategy` set) one portfolio strategy stops being raced.
    FaultOutage {
        error: LpError,
        duration: SimTime,
        strategy: Option<Strategy>,
    },
    /// A solver outage window closes.
    FaultOutageEnd {
        strategy: Option<Strategy>,
    },
}

struct State<W: Workload> {
    platform: Platform,
    config: BalanceConfig,
    /// `adjacency[a]` = nodes where apprank `a` has a worker (slot order,
    /// home first). Grows when dynamic spreading spawns helpers.
    adjacency: Vec<Vec<usize>>,
    layout: ProcessLayout,
    dlbs: Vec<NodeDlb>,
    talps: Vec<Talp>,
    /// TALP totals at the last global tick, per (node, proc).
    last_total: Vec<Vec<f64>>,
    /// Cumulative created work (task cost hints) per apprank, and its
    /// value at the last global tick — the `CreatedWork` demand signal.
    created_work: Vec<f64>,
    last_created: Vec<f64>,
    /// Per-node round-robin start offset for core handout fairness.
    rr_offset: Vec<usize>,
    /// Scratch of [`State::decide`], kept to spare an allocation per
    /// decision: the living slots and their candidate states.
    sched_slots: Vec<usize>,
    sched_candidates: Vec<CandidateState>,
    /// In-flight / arrived point-to-point messages of the current
    /// iteration, keyed by (from, to, tag).
    messages: HashMap<(usize, usize, u64), MsgState>,
    /// Receive tasks whose message has not arrived yet.
    waiting_recvs: HashMap<(usize, usize, u64), Inst>,
    appranks: Vec<ApprankState>,
    workload: W,
    /// The balancing policy object driving the tick hooks (see
    /// `tlb_core::BalancePolicy`), instantiated from `config.policy`.
    balance_policy: Box<dyn BalancePolicy>,
    global_policy: Option<GlobalPolicy>,
    /// The racing solver portfolio (`BalanceConfig::portfolio`); its
    /// per-strategy stats end up in [`SimReport::portfolio`].
    portfolio: Option<PortfolioEngine>,
    iteration: usize,
    iteration_start: SimTime,
    remaining_appranks: usize,
    rank_finish: Vec<SimTime>,
    finished: bool,
    /// Virtual time at which the application completed (the makespan; the
    /// DES may process residual policy-tick events after this).
    completion_time: SimTime,
    // Accounting.
    trace: Trace,
    iteration_times: Vec<SimTime>,
    offloaded_tasks: usize,
    total_tasks: usize,
    solver_runs: usize,
    solver_time: SimTime,
    spawned_helpers: usize,
    // Fault injection.
    fault_plan: FaultPlan,
    /// Node speed excluding straggler effects (noise- and DVFS-scaled);
    /// `platform.node_speed` is this times the active straggler factors.
    base_speed: Vec<f64>,
    /// Speed multipliers (< 1) of the straggler bursts currently active
    /// on each node. Empty ⇒ the node runs at `base_speed` exactly.
    straggler_factors: Vec<Vec<f64>>,
    /// `dead[a][k]`: the worker at slot `k` of apprank `a` was killed.
    dead: Vec<Vec<bool>>,
    /// Nesting count of active solver-outage windows and the error the
    /// solver reports while any is open.
    outage_active: usize,
    outage_error: Option<LpError>,
    faults: FaultStats,
    /// First unrecoverable error; set instead of panicking. The DES keeps
    /// draining its queue (handlers early-return) and the run reports it.
    error: Option<SimError>,
}

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
    /// injection.
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
        let RunSpec {
            platform,
            config,
            workload,
            trace,
            faults,
        } = spec;
        let plan = &faults;
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

        let ecfg =
            ExpanderConfig::new(appranks, platform.nodes, config.degree).with_seed(config.seed);
        let graph = BipartiteGraph::generate(&ecfg)?;
        let layout = ProcessLayout::new(&graph, platform.cores_per_node);

        // Runtime noise: every worker process steals a sliver of CPU for
        // polling and dependency state. Modelled as a uniform slowdown of
        // the node proportional to its worker count.
        let mut platform = platform.clone();
        let mut noise_scale = vec![1.0f64; platform.nodes];
        for n in 0..platform.nodes {
            let workers = layout.workers_on(n).len() as f64;
            let noise = (platform.worker_noise * workers / platform.cores_per_node as f64).min(0.5);
            noise_scale[n] = 1.0 - noise;
            platform.node_speed[n] *= noise_scale[n];
        }
        let platform = &platform;

        let mut dlbs: Vec<NodeDlb> = (0..platform.nodes)
            .map(|n| {
                let counts = layout.initial_ownership(n);
                NodeDlb::with_counts(counts, config.policy.lewi())
            })
            .collect();
        let trace_rec = Trace::new(&layout, trace);
        if trace_rec.events() {
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

        let mut global_policy = uses_solver.then(|| GlobalPolicy::new(&graph, platform));
        // Setup-time feasibility: a program that cannot be solved for zero
        // demand can never be solved mid-run. Fail hard here, so the only
        // solver errors left at run time are transient ones the fallback
        // ladder absorbs.
        if let Some(policy) = global_policy.as_mut() {
            policy
                .allocate(&vec![0.0; appranks], config.solver)
                .map_err(SimError::Solver)?;
        }
        // Racing solver portfolio: only meaningful where the global solver
        // runs, so anything else is a configuration error, not a silent
        // no-op.
        let portfolio = match &config.portfolio {
            Some(pc) if !uses_solver => {
                return Err(SimError::Shape(format!(
                    "portfolio ({} strategies) requires the global DROM policy",
                    pc.strategies.len()
                )));
            }
            Some(pc) => Some(PortfolioEngine::new(pc.clone()).map_err(SimError::Shape)?),
            None => None,
        };
        for o in &plan.outages {
            if let Some(s) = o.strategy {
                let Some(pc) = &config.portfolio else {
                    return Err(SimError::Shape(format!(
                        "fault plan: strategy-scoped outage ('{}') requires a solver portfolio",
                        s.name()
                    )));
                };
                if !pc.enabled(s) {
                    return Err(SimError::Shape(format!(
                        "fault plan: outage strategy '{}' is not raced by the portfolio",
                        s.name()
                    )));
                }
            }
        }
        for s in &plan.stragglers {
            if s.node >= platform.nodes {
                return Err(SimError::Shape(format!(
                    "fault plan: straggler node {} out of range ({} nodes)",
                    s.node, platform.nodes
                )));
            }
            if s.slowdown.is_nan() || s.slowdown < 1.0 {
                return Err(SimError::Shape(format!(
                    "fault plan: straggler slowdown {} must be >= 1",
                    s.slowdown
                )));
            }
        }
        for k in &plan.kills {
            if let Some((a, slot)) = k.victim {
                if a >= appranks || slot == 0 {
                    return Err(SimError::Shape(format!(
                        "fault plan: kill victim (apprank {a}, slot {slot}) is not a helper worker"
                    )));
                }
            }
        }
        if let Some(l) = &plan.loss {
            if !(0.0..1.0).contains(&l.rate) {
                return Err(SimError::Shape(format!(
                    "fault plan: loss rate {} must be in [0, 1)",
                    l.rate
                )));
            }
        }

        let apprank_states = (0..appranks)
            .map(|a| ApprankState {
                graph: TaskGraph::new(),
                specs: Vec::new(),
                hold: VecDeque::new(),
                done: 0,
                total: 0,
                iteration_done: false,
                workers: (0..graph.nodes_of(a).len())
                    .map(|_| WorkerState::default())
                    .collect(),
            })
            .collect();
        let adjacency: Vec<Vec<usize>> =
            (0..appranks).map(|a| graph.nodes_of(a).to_vec()).collect();

        let mut state = State {
            platform: platform.clone(),
            config: config.clone(),
            adjacency,
            layout,
            dlbs,
            talps,
            last_total,
            created_work: vec![0.0; appranks],
            last_created: vec![0.0; appranks],
            rr_offset: vec![0; platform.nodes],
            sched_slots: Vec::new(),
            sched_candidates: Vec::new(),
            messages: HashMap::new(),
            waiting_recvs: HashMap::new(),
            appranks: apprank_states,
            workload,
            balance_policy,
            global_policy,
            portfolio,
            iteration: 0,
            iteration_start: SimTime::ZERO,
            remaining_appranks: 0,
            rank_finish: vec![SimTime::ZERO; appranks],
            finished: false,
            completion_time: SimTime::ZERO,
            trace: trace_rec,
            iteration_times: Vec::new(),
            offloaded_tasks: 0,
            total_tasks: 0,
            solver_runs: 0,
            solver_time: SimTime::ZERO,
            spawned_helpers: 0,
            fault_plan: plan.clone(),
            base_speed: platform.node_speed.clone(),
            straggler_factors: vec![Vec::new(); platform.nodes],
            dead: (0..appranks)
                .map(|a| vec![false; graph.nodes_of(a).len()])
                .collect(),
            outage_active: 0,
            outage_error: None,
            faults: FaultStats::default(),
            error: None,
        };
        // Record the initial ownership.
        for n in 0..state.platform.nodes {
            state.record_node(SimTime::ZERO, n);
        }

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
        if state.config.policy.wants_local_tick() {
            sim.schedule_at(state.config.local_period, Ev::LocalTick);
        }
        if state.config.policy.wants_global_tick() {
            sim.schedule_at(state.config.global_period, Ev::GlobalTick);
        }
        for s in &plan.stragglers {
            sim.schedule_at(
                s.at,
                Ev::FaultStraggler {
                    node: s.node,
                    slowdown: s.slowdown,
                    duration: s.duration,
                },
            );
        }
        for (idx, k) in plan.kills.iter().enumerate() {
            sim.schedule_at(
                k.at,
                Ev::FaultKill {
                    idx: idx as u64,
                    victim: k.victim,
                },
            );
        }
        for o in &plan.outages {
            sim.schedule_at(
                o.at,
                Ev::FaultOutage {
                    error: o.error.clone(),
                    duration: o.duration,
                    strategy: o.strategy,
                },
            );
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

        // TALP end-of-run report: useful busy time over machine time.
        let end = state.completion_time;
        let useful: f64 = (0..state.platform.nodes)
            .map(|n| {
                (0..state.talps[n].procs())
                    .map(|p| state.talps[n].total(p, end))
                    .sum::<f64>()
            })
            .sum();
        let machine = end.as_secs_f64() * state.platform.total_cores() as f64;
        let parallel_efficiency = if machine > 0.0 { useful / machine } else { 0.0 };

        Ok(SimReport {
            makespan: state.completion_time,
            parallel_efficiency,
            iteration_times: state.iteration_times,
            offloaded_tasks: state.offloaded_tasks,
            total_tasks: state.total_tasks,
            events: sim.events_processed(),
            solver_runs: state.solver_runs,
            solver_time: state.solver_time,
            spawned_helpers: state.spawned_helpers,
            faults: state.faults,
            portfolio: state.portfolio.as_ref().map(|e| e.stats().clone()),
            trace: state.trace,
        })
    }
}

impl<W: Workload> State<W> {
    fn node_of(&self, apprank: usize, slot: usize) -> usize {
        self.adjacency[apprank][slot]
    }

    /// Control-message latency plus payload transfer time for sending a
    /// task's inputs to a remote worker.
    fn transfer_time(&self, bytes: usize) -> SimTime {
        self.platform.net_latency
            + SimTime::from_secs_f64(bytes as f64 / self.platform.net_bandwidth.max(1.0))
    }

    /// Record busy/owned/node-busy timelines for every worker of `node`.
    fn record_node(&mut self, now: SimTime, node: usize) {
        if !self.trace.timelines() {
            return;
        }
        let procs = self.layout.workers_on(node).len();
        for p in 0..procs {
            let used = self.dlbs[node].used_count(ProcId(p));
            let owned = self.dlbs[node].owned_count(ProcId(p));
            self.trace.record_busy(now, node, p, used);
            self.trace.record_owned(now, node, p, owned);
        }
        let busy = self.dlbs[node].busy_count();
        self.trace.record_node_busy(now, node, busy);
    }

    /// Record an unrecoverable error instead of panicking. The first error
    /// wins; subsequent handlers early-return and the run reports it.
    fn fail(&mut self, err: SimError) {
        if self.error.is_none() {
            self.error = Some(err);
        }
    }

    /// Recompute a node's effective speed from its base speed and any
    /// active straggler bursts, and tell the global solver.
    fn refresh_speed(&mut self, node: usize) {
        let factor: f64 = self.straggler_factors[node].iter().product();
        let speed = self.base_speed[node] * factor;
        self.platform.node_speed[node] = speed;
        if let Some(policy) = self.global_policy.as_mut() {
            policy.set_node_speed(node, speed);
        }
    }

    /// Send a task back to its home worker after its remote destination
    /// became unreachable (worker death or offload-message failover). The
    /// payload pays the return transfer.
    fn requeue_home(&mut self, ctx: &mut Ctx<Ev>, apprank: usize, inst: Inst) {
        self.faults.tasks_requeued += 1;
        self.trace.count("fault_tasks_requeued", 1);
        let delay = self.transfer_time(inst.bytes);
        self.appranks[apprank].workers[0].in_flight += 1;
        ctx.schedule_in(
            delay,
            Ev::Arrive {
                apprank,
                slot: 0,
                inst,
            },
        );
    }

    /// Ship a dispatched task to its chosen worker, modelling transfer
    /// time plus any active message-delay/loss faults on the offload
    /// control path. Drop draws come from a per-task RNG substream keyed
    /// on `(iteration, apprank, task)`, so the schedule is reproducible
    /// regardless of what else the simulation does.
    fn send_task(&mut self, ctx: &mut Ctx<Ev>, apprank: usize, slot: usize, inst: Inst) {
        self.appranks[apprank].workers[slot].in_flight += 1;
        if slot == 0 {
            ctx.schedule_in(
                SimTime::ZERO,
                Ev::Arrive {
                    apprank,
                    slot,
                    inst,
                },
            );
            return;
        }
        let now = ctx.now();
        let mut delay = self.transfer_time(inst.bytes);
        if let Some(d) = &self.fault_plan.delay {
            if now >= d.from && now < d.until {
                delay += d.extra;
            }
        }
        let mut dropped = 0u32;
        let mut failover = false;
        if let Some(l) = self.fault_plan.loss.clone() {
            if now >= l.from && now < l.until && l.rate > 0.0 {
                let key = self.task_key(apprank, inst.tid);
                let label = ((key.iteration as u64) << 40)
                    ^ ((key.apprank as u64) << 20)
                    ^ (key.task as u64);
                let mut stream = Rng::seed_from_u64(self.fault_plan.seed)
                    .split("loss")
                    .split_u64(label);
                let to_node = self.node_of(apprank, slot) as u32;
                let home = self.adjacency[apprank][0];
                loop {
                    if !stream.chance(l.rate) {
                        break; // this attempt crosses the wire
                    }
                    self.faults.injected += 1;
                    self.faults.messages_dropped += 1;
                    if self.trace.events() {
                        let ev = EventKind::MessageDropped {
                            key,
                            to_node,
                            attempt: dropped,
                        };
                        self.trace.emit(TraceLog::node_stream(home), now, ev);
                    }
                    dropped += 1;
                    if dropped > l.max_retries {
                        failover = true;
                        break;
                    }
                    // The retry is the recovery: backoff grows linearly.
                    self.faults.recovered += 1;
                    delay += l.backoff.scale(dropped as f64);
                }
                if failover {
                    // Retries exhausted: consciously absorb the fault by
                    // running the task at home.
                    self.faults.absorbed += 1;
                    self.faults.message_failovers += 1;
                    if self.trace.events() {
                        let ev = EventKind::MessageFailover {
                            key,
                            to_node,
                            attempts: dropped,
                        };
                        self.trace.emit(TraceLog::node_stream(home), now, ev);
                    }
                }
            }
        }
        if failover {
            self.appranks[apprank].workers[slot].in_flight -= 1;
            self.faults.tasks_requeued += 1;
            self.trace.count("fault_tasks_requeued", 1);
            self.appranks[apprank].workers[0].in_flight += 1;
            ctx.schedule_in(
                delay,
                Ev::Arrive {
                    apprank,
                    slot: 0,
                    inst,
                },
            );
            return;
        }
        if self.trace.events() {
            self.note_offload(now, apprank, &inst, slot, false);
        }
        ctx.schedule_in(
            delay,
            Ev::Arrive {
                apprank,
                slot,
                inst,
            },
        );
    }

    /// A straggler burst begins: the node's speed drops by `slowdown`.
    fn handle_straggler(
        &mut self,
        ctx: &mut Ctx<Ev>,
        node: usize,
        slowdown: f64,
        duration: SimTime,
    ) {
        self.faults.injected += 1;
        self.trace.count("fault_stragglers", 1);
        if self.finished {
            // Burst past the end of the run: trivially recovered.
            self.faults.recovered += 1;
            return;
        }
        self.straggler_factors[node].push(1.0 / slowdown);
        self.refresh_speed(node);
        if self.trace.events() {
            let ev = EventKind::StragglerStart {
                node: node as u32,
                factor: slowdown,
            };
            self.trace.emit(TraceLog::node_stream(node), ctx.now(), ev);
        }
        ctx.schedule_in(duration, Ev::FaultStragglerEnd { node, slowdown });
        self.drain_holds(ctx);
        self.try_start_node(ctx, node);
    }

    /// A straggler burst ends: restore the node's speed.
    fn handle_straggler_end(&mut self, ctx: &mut Ctx<Ev>, node: usize, slowdown: f64) {
        let factor = 1.0 / slowdown;
        if let Some(pos) = self.straggler_factors[node]
            .iter()
            .position(|f| f.to_bits() == factor.to_bits())
        {
            self.straggler_factors[node].remove(pos);
        }
        self.refresh_speed(node);
        self.faults.recovered += 1;
        if self.trace.events() {
            let ev = EventKind::StragglerEnd { node: node as u32 };
            self.trace.emit(TraceLog::node_stream(node), ctx.now(), ev);
        }
        if !self.finished {
            self.drain_holds(ctx);
            self.try_start_node(ctx, node);
        }
    }

    /// A worker-kill fault fires. Picks a victim (explicit or seeded) and
    /// retires it; with no living helper left the fault is absorbed.
    fn handle_kill(&mut self, ctx: &mut Ctx<Ev>, idx: u64, victim: Option<(usize, usize)>) {
        self.faults.injected += 1;
        self.trace.count("fault_kills", 1);
        if self.finished {
            self.faults.absorbed += 1;
            return;
        }
        let victim = match victim {
            Some((a, k)) => (a < self.appranks.len()
                && k >= 1
                && k < self.adjacency[a].len()
                && !self.dead[a][k])
                .then_some((a, k)),
            None => {
                let alive: Vec<(usize, usize)> = (0..self.appranks.len())
                    .flat_map(|a| (1..self.adjacency[a].len()).map(move |k| (a, k)))
                    .filter(|&(a, k)| !self.dead[a][k])
                    .collect();
                if alive.is_empty() {
                    None
                } else {
                    let mut stream = Rng::seed_from_u64(self.fault_plan.seed)
                        .split("kill")
                        .split_u64(idx);
                    Some(alive[stream.u64_below(alive.len() as u64) as usize])
                }
            }
        };
        let Some((apprank, slot)) = victim else {
            // Nothing left to kill (or the named victim is already dead):
            // consciously absorbed.
            self.faults.absorbed += 1;
            return;
        };
        self.kill_worker(ctx, apprank, slot);
    }

    /// Retire one helper worker: re-enqueue its queued tasks at home, mark
    /// in-flight arrivals for redirection, return its DROM-owned cores to
    /// the node's survivors, and mask it out of the global allocation.
    /// Tasks already running finish on their held cores (fail-stop after
    /// the current task), which preserves exact-once execution.
    fn kill_worker(&mut self, ctx: &mut Ctx<Ev>, apprank: usize, slot: usize) {
        let now = ctx.now();
        let node = self.node_of(apprank, slot);
        let proc = ProcId(self.layout.proc_of(apprank, slot));
        self.dead[apprank][slot] = true;
        let queued: Vec<Inst> = self.appranks[apprank].workers[slot]
            .queued
            .drain(..)
            .collect();
        // The trace event reports everything the death displaces: the
        // queue drained here plus in-flight payloads the Arrive handler
        // will bounce home when they land.
        let requeued = queued.len() + self.appranks[apprank].workers[slot].in_flight;
        for inst in queued {
            self.requeue_home(ctx, apprank, inst);
        }
        if let Err(e) = self.dlbs[node].retire_process(proc) {
            self.fail(SimError::Shape(format!(
                "killing worker (apprank {apprank}, slot {slot}) on node {node}: {e}"
            )));
            return;
        }
        if let Some(policy) = self.global_policy.as_mut() {
            policy.retire_worker(apprank, slot);
        }
        self.faults.workers_killed += 1;
        self.faults.recovered += 1;
        if self.trace.events() {
            let ev = EventKind::WorkerKilled {
                apprank: apprank as u32,
                node: node as u32,
                proc: proc.0 as u32,
                requeued: requeued as u32,
            };
            self.trace.emit(TraceLog::node_stream(node), now, ev);
        }
        self.pump_dlb(now, node);
        // Freed cores may serve the survivors immediately.
        self.drain_holds(ctx);
        self.try_start_node(ctx, node);
    }

    /// A solver outage window opens. A whole-solver outage (`strategy`
    /// `None`) makes every global tick inside it see the injected error
    /// and take the fallback ladder; a strategy-scoped outage merely
    /// pulls that strategy out of the portfolio race for the window.
    fn handle_outage(
        &mut self,
        ctx: &mut Ctx<Ev>,
        error: LpError,
        duration: SimTime,
        strategy: Option<Strategy>,
    ) {
        self.faults.injected += 1;
        self.trace.count("fault_outages", 1);
        if self.finished {
            self.faults.recovered += 1;
            return;
        }
        match strategy {
            None => {
                self.outage_active += 1;
                self.outage_error = Some(error);
            }
            Some(s) => {
                if let Some(engine) = self.portfolio.as_mut() {
                    engine.disable_strategy(s);
                }
            }
        }
        if self.trace.events() {
            let ev = EventKind::SolverOutage { active: true };
            self.trace.emit(GLOBAL_STREAM, ctx.now(), ev);
        }
        ctx.schedule_in(duration, Ev::FaultOutageEnd { strategy });
    }

    /// A solver outage window closes.
    fn handle_outage_end(&mut self, ctx: &mut Ctx<Ev>, strategy: Option<Strategy>) {
        match strategy {
            None => {
                self.outage_active = self.outage_active.saturating_sub(1);
                if self.outage_active == 0 {
                    self.outage_error = None;
                }
            }
            Some(s) => {
                if let Some(engine) = self.portfolio.as_mut() {
                    engine.enable_strategy(s);
                }
            }
        }
        self.faults.recovered += 1;
        if self.trace.events() {
            let ev = EventKind::SolverOutage { active: false };
            self.trace.emit(GLOBAL_STREAM, ctx.now(), ev);
        }
    }

    /// Trace identity of a task in the current iteration.
    fn task_key(&self, apprank: usize, tid: TaskId) -> TaskKey {
        TaskKey {
            iteration: self.iteration as u32,
            apprank: apprank as u32,
            task: tid.raw() as u32,
        }
    }

    /// Drain `node`'s DLB event buffer into its trace stream, stamping
    /// each record with `now` (the DLB layer itself is time-free).
    fn pump_dlb(&mut self, now: SimTime, node: usize) {
        if !self.trace.events() {
            return;
        }
        for ev in self.dlbs[node].drain_events() {
            let kind = match ev {
                DlbEvent::Borrowed { proc, core, owner } => EventKind::LewiBorrow {
                    node: node as u32,
                    proc: proc.0 as u32,
                    core: core as u32,
                    owner: owner.0 as u32,
                },
                DlbEvent::ReclaimPosted {
                    core,
                    owner,
                    borrower,
                } => EventKind::LewiReclaim {
                    node: node as u32,
                    core: core as u32,
                    owner: owner.0 as u32,
                    borrower: borrower.0 as u32,
                },
                DlbEvent::TransferApplied { core, from, to } => EventKind::DromTransfer {
                    node: node as u32,
                    core: core as u32,
                    from: from.0 as u32,
                    to: to.0 as u32,
                },
                DlbEvent::OwnershipSet { counts } => EventKind::DromOwnership {
                    node: node as u32,
                    counts,
                },
            };
            self.trace.emit(TraceLog::node_stream(node), now, kind);
        }
    }

    /// Record a task becoming ready (at submission or when its last
    /// predecessor completed). Like the other `note_*`, called only when
    /// events record.
    fn note_ready(&mut self, now: SimTime, apprank: usize, tid: TaskId) {
        let key = self.task_key(apprank, tid);
        let home = self.adjacency[apprank][0];
        let ev = EventKind::TaskReady { key };
        self.trace.emit(TraceLog::node_stream(home), now, ev);
    }

    /// Record a task leaving its home node (eagerly or via stealing).
    fn note_offload(
        &mut self,
        now: SimTime,
        apprank: usize,
        inst: &Inst,
        slot: usize,
        stolen: bool,
    ) {
        let key = self.task_key(apprank, inst.tid);
        let from_node = self.adjacency[apprank][0];
        let to_node = self.node_of(apprank, slot);
        let ev = EventKind::TaskOffloaded {
            key,
            from_node: from_node as u32,
            to_node: to_node as u32,
            stolen,
        };
        self.trace.emit(TraceLog::node_stream(from_node), now, ev);
    }

    /// Record a successful steal of a held task by `(node, proc)`.
    fn note_steal(
        &mut self,
        now: SimTime,
        apprank: usize,
        inst: &Inst,
        slot: usize,
        node: usize,
        proc: usize,
    ) {
        let key = self.task_key(apprank, inst.tid);
        let home = self.adjacency[apprank][0];
        let home_proc = ProcId(self.layout.proc_of(apprank, 0));
        let chosen_queued = self.appranks[apprank].workers[slot].load();
        let chosen_owned = self.dlbs[node].owned_count(ProcId(proc));
        let ev = EventKind::SchedDecision {
            key,
            reason: DecisionReason::Stolen,
            chosen_node: node as i32,
            home_node: home as u32,
            home_queued: self.appranks[apprank].workers[0].load() as u32,
            home_owned: self.dlbs[home].owned_count(home_proc) as u32,
            chosen_queued: chosen_queued as i32,
            chosen_owned: chosen_owned as i32,
        };
        self.trace.emit(TraceLog::node_stream(node), now, ev);
    }

    /// The tentative scheduling decision for a ready task (§5.5).
    /// Returns the chosen slot, or `None` to hold the task.
    fn decide(&mut self, now: SimTime, apprank: usize, inst: &Inst) -> Option<usize> {
        let offloadable = self.appranks[apprank].specs[inst.tid.raw() as usize].offloadable;
        if !offloadable || self.adjacency[apprank].len() == 1 {
            // Degenerate decision: the home worker is the only candidate.
            if self.trace.events() {
                let key = self.task_key(apprank, inst.tid);
                let home = self.adjacency[apprank][0];
                let queued = self.appranks[apprank].workers[0].load();
                let owned = self.dlbs[home].owned_count(ProcId(self.layout.proc_of(apprank, 0)));
                let ev = EventKind::SchedDecision {
                    key,
                    reason: DecisionReason::LocalityHit,
                    chosen_node: home as i32,
                    home_node: home as u32,
                    home_queued: queued as u32,
                    home_owned: owned as u32,
                    chosen_queued: queued as i32,
                    chosen_owned: owned as i32,
                };
                self.trace.emit(TraceLog::node_stream(home), now, ev);
            }
            return Some(0);
        }
        let ranks = &self.appranks[apprank];
        let mut slots = std::mem::take(&mut self.sched_slots);
        let mut candidates = std::mem::take(&mut self.sched_candidates);
        slots.clear();
        candidates.clear();
        // Dead workers are not candidates; the home worker (slot 0) never
        // dies, so it stays at candidate index 0.
        for (k, &node) in self.adjacency[apprank].iter().enumerate() {
            if self.dead[apprank][k] {
                continue;
            }
            let proc = ProcId(self.layout.proc_of(apprank, k));
            let owned = self.dlbs[node].owned_count(proc);
            let used = self.dlbs[node].used_count(proc);
            slots.push(k);
            candidates.push(CandidateState {
                node,
                queued_tasks: ranks.workers[k].load(),
                owned_cores: owned,
                usable_cores: used.max(owned),
            });
        }
        let (placement, reason) = choose_node_explained(
            &candidates,
            0,
            self.config.queue_depth_per_core,
            self.config.count_borrowed_cores,
        );
        let chosen = match placement {
            Placement::Worker(k) => Some(k),
            Placement::Hold => None,
        };
        let slot = chosen.map(|k| slots[k]);
        if self.trace.events() {
            let key = self.task_key(apprank, inst.tid);
            let home = candidates[0];
            let (chosen_node, chosen_queued, chosen_owned) = match chosen {
                Some(k) => (
                    candidates[k].node as i32,
                    candidates[k].queued_tasks as i32,
                    candidates[k].owned_cores as i32,
                ),
                None => (-1, -1, -1),
            };
            let ev = EventKind::SchedDecision {
                key,
                reason: match reason {
                    ChoiceReason::LocalityHit => DecisionReason::LocalityHit,
                    ChoiceReason::AdjacentSpill => DecisionReason::AdjacentSpill,
                    ChoiceReason::Saturated => DecisionReason::Queued,
                },
                chosen_node,
                home_node: home.node as u32,
                home_queued: home.queued_tasks as u32,
                home_owned: home.owned_cores as u32,
                chosen_queued,
                chosen_owned,
            };
            self.trace.emit(TraceLog::node_stream(home.node), now, ev);
        }
        self.sched_slots = slots;
        self.sched_candidates = candidates;
        slot
    }

    /// Dispatch a ready task: either send it (scheduling its arrival after
    /// the transfer) or push it onto the apprank's hold queue. MPI receive
    /// tasks whose message has not arrived park in `waiting_recvs` first.
    fn dispatch(&mut self, ctx: &mut Ctx<Ev>, apprank: usize, inst: Inst) {
        let spec = &self.appranks[apprank].specs[inst.tid.raw() as usize];
        if let Some(crate::MpiOp::Recv { from, tag }) = spec.mpi {
            let key = (from, apprank, tag);
            match self.messages.get(&key) {
                Some(MsgState::Arrived) => {
                    self.messages.remove(&key);
                }
                _ => {
                    let prev = self.waiting_recvs.insert(key, inst);
                    if prev.is_some() {
                        self.fail(SimError::Shape(format!(
                            "duplicate recv for message {key:?}"
                        )));
                    }
                    return;
                }
            }
        }
        match self.decide(ctx.now(), apprank, &inst) {
            Some(slot) => self.send_task(ctx, apprank, slot, inst),
            None => self.appranks[apprank].hold.push_back(inst),
        }
    }

    /// Re-run the scheduling decision for held tasks (after capacity
    /// changes from a DROM update).
    fn drain_holds(&mut self, ctx: &mut Ctx<Ev>) {
        for a in 0..self.appranks.len() {
            loop {
                let Some(inst) = self.appranks[a].hold.pop_front() else {
                    break;
                };
                match self.decide(ctx.now(), a, &inst) {
                    Some(slot) => self.send_task(ctx, a, slot, inst),
                    None => {
                        self.appranks[a].hold.push_front(inst);
                        break;
                    }
                }
            }
        }
    }

    /// Start as many tasks as the worker can obtain cores for: first its
    /// queued (already transferred) tasks, then steal from the apprank's
    /// hold queue (paying the transfer inline for remote workers).
    fn try_start_worker(&mut self, ctx: &mut Ctx<Ev>, apprank: usize, slot: usize) {
        if self.dead[apprank][slot] {
            return;
        }
        let node = self.node_of(apprank, slot);
        let proc = ProcId(self.layout.proc_of(apprank, slot));
        let speed = self.platform.node_speed[node];
        loop {
            let has_queued = !self.appranks[apprank].workers[slot].queued.is_empty();
            // Stealing from the apprank's hold queue is gated (§5.5): a
            // worker's appetite for held tasks depends on the configured
            // rule, never on a task-less acquire.
            let may_steal = !self.appranks[apprank].hold.is_empty() && {
                let w = &self.appranks[apprank].workers[slot];
                let owned = self.dlbs[node].owned_count(proc);
                let depth = self.config.queue_depth_per_core;
                match self.config.steal_gate {
                    StealGate::Owned => w.load() < depth * owned,
                    StealGate::Usable => {
                        let idle = self.dlbs[node].num_cores() - self.dlbs[node].busy_count();
                        w.load() < depth * owned + idle
                    }
                    StealGate::Unbounded => true,
                }
            };
            if !has_queued && !may_steal {
                break;
            }
            if !has_queued {
                self.trace.count("steal_attempts", 1);
            }
            let Some(core) = self.dlbs[node].acquire(proc) else {
                break;
            };
            let (inst, stolen) = if has_queued {
                (
                    self.appranks[apprank].workers[slot]
                        .queued
                        .pop_front()
                        .expect("queued checked"),
                    false,
                )
            } else {
                (
                    self.appranks[apprank]
                        .hold
                        .pop_front()
                        .expect("held checked"),
                    true,
                )
            };
            // Execution time: compute scaled by node speed, plus the data
            // transfer for stolen tasks landing on a remote worker (eagerly
            // dispatched tasks already paid it on arrival).
            let mut dur = SimTime::from_secs_f64(inst.duration / speed);
            if slot != 0 {
                // Runtime cost of executing away from home: distributed
                // dependency bookkeeping plus (for stolen tasks) the data
                // transfer that eager dispatch would have overlapped.
                dur += self.platform.offload_cpu_overhead;
                if stolen {
                    dur += self.transfer_time(inst.bytes);
                }
            }
            self.appranks[apprank].workers[slot].running += 1;
            if let Err(e) = self.appranks[apprank].graph.start(inst.tid) {
                self.fail(SimError::Shape(format!(
                    "apprank {apprank}: dispatched task {} was not ready: {e}",
                    inst.tid.raw()
                )));
                return;
            }
            if slot != 0 {
                self.offloaded_tasks += 1;
            }
            let now = ctx.now();
            if self.trace.events() {
                if stolen {
                    self.note_steal(now, apprank, &inst, slot, node, proc.0);
                    if slot != 0 {
                        self.note_offload(now, apprank, &inst, slot, true);
                    }
                }
                let key = self.task_key(apprank, inst.tid);
                let ev = EventKind::TaskStarted {
                    key,
                    node: node as u32,
                    proc: proc.0 as u32,
                    stolen,
                };
                self.trace.emit(TraceLog::node_stream(node), now, ev);
            }
            self.talps[node].set_busy(proc.0, now, self.dlbs[node].used_count(proc));
            ctx.schedule_in(
                dur,
                Ev::End {
                    apprank,
                    slot,
                    core,
                    tid: inst.tid,
                },
            );
        }
        self.pump_dlb(ctx.now(), node);
    }

    /// Give every worker on `node` a chance to start tasks (a core was
    /// released or ownership changed). The scan starts at a rotating
    /// offset: a fixed order would hand every freed core to the
    /// lowest-indexed hungry worker, systematically starving later
    /// appranks of borrowed capacity.
    fn try_start_node(&mut self, ctx: &mut Ctx<Ev>, node: usize) {
        let n = self.layout.workers_on(node).len();
        let offset = self.rr_offset[node];
        self.rr_offset[node] = (offset + 1) % n.max(1);
        for i in 0..n {
            let w = &self.layout.workers_on(node)[(offset + i) % n];
            let (a, k) = (w.apprank, w.slot);
            self.try_start_worker(ctx, a, k);
        }
        self.record_node(ctx.now(), node);
    }

    fn start_iteration(&mut self, ctx: &mut Ctx<Ev>) {
        self.iteration_start = ctx.now();
        self.remaining_appranks = self.appranks.len();
        let iteration = self.iteration;
        for a in 0..self.appranks.len() {
            let specs = self.workload.tasks(a, iteration);
            let st = &mut self.appranks[a];
            st.graph = TaskGraph::new();
            st.hold.clear();
            st.done = 0;
            st.total = specs.len();
            st.iteration_done = false;
            st.specs = specs;
            self.created_work[a] += self.appranks[a]
                .specs
                .iter()
                .map(|t| t.duration)
                .sum::<f64>();
            self.total_tasks += self.appranks[a].total;
            let mut ready = Vec::new();
            for ti in 0..self.appranks[a].total {
                let spec = &self.appranks[a].specs[ti];
                let (duration, bytes, offloadable) = (spec.duration, spec.bytes, spec.offloadable);
                if spec.mpi.is_some() && offloadable {
                    self.fail(SimError::Shape(format!(
                        "apprank {a}: iteration {iteration} task {ti} is an MPI task \
                         marked offloadable; MPI tasks must be non-offloadable (paper §4)"
                    )));
                    return;
                }
                let mut def = TaskDef::new("task").cost(duration);
                if !offloadable {
                    def = def.not_offloadable();
                }
                def.accesses.extend(spec.accesses.iter().copied());
                let was_ready = self.appranks[a].graph.ready_count();
                let tid = match self.appranks[a].graph.submit(def) {
                    Ok(tid) => tid,
                    Err(e) => {
                        self.fail(SimError::Shape(format!(
                            "apprank {a}: iteration {iteration} task {ti} rejected \
                             by the task graph: {e}"
                        )));
                        return;
                    }
                };
                if self.trace.events() {
                    let key = self.task_key(a, tid);
                    let home = self.adjacency[a][0];
                    let ev = EventKind::TaskCreated {
                        key,
                        cost: duration,
                    };
                    self.trace.emit(TraceLog::node_stream(home), ctx.now(), ev);
                }
                let now_ready = self.appranks[a].graph.ready_count();
                if now_ready == was_ready {
                    // Blocked on an earlier task's accesses: dispatched
                    // when its predecessors complete.
                    continue;
                }
                if self.trace.events() {
                    self.note_ready(ctx.now(), a, tid);
                }
                ready.push(Inst {
                    tid,
                    duration,
                    bytes,
                });
            }
            if self.appranks[a].total == 0 {
                self.appranks[a].iteration_done = true;
                self.rank_finish[a] = ctx.now();
                self.remaining_appranks -= 1;
            }
            for inst in ready {
                self.dispatch(ctx, a, inst);
            }
        }
        if self.remaining_appranks == 0 {
            // Degenerate all-empty iteration.
            self.finish_iteration(ctx);
        }
    }

    fn finish_iteration(&mut self, ctx: &mut Ctx<Ev>) {
        if !self.waiting_recvs.is_empty() {
            self.fail(SimError::Shape(format!(
                "iteration ended with unmatched MPI receives: {:?}",
                self.waiting_recvs.keys().collect::<Vec<_>>()
            )));
            return;
        }
        // Unconsumed arrived messages would leak across iterations.
        self.messages.retain(|_, st| *st == MsgState::InFlight);
        let barrier = barrier_cost(self.appranks.len(), self.platform.net_latency);
        let end = ctx.now() + barrier;
        self.iteration_times
            .push(end.saturating_sub(self.iteration_start));
        self.trace.mark_iteration_end(end);
        if self.trace.events() {
            let ev = EventKind::IterationEnd {
                iteration: self.iteration as u32,
            };
            self.trace.emit(GLOBAL_STREAM, end, ev);
        }
        let rank_seconds: Vec<f64> = self
            .rank_finish
            .iter()
            .map(|t| t.saturating_sub(self.iteration_start).as_secs_f64())
            .collect();
        self.workload.end_iteration(self.iteration, &rank_seconds);
        self.iteration += 1;
        if self.iteration < self.workload.iterations() {
            ctx.schedule_at(end, Ev::StartIteration);
        } else {
            self.finished = true;
            self.completion_time = end;
        }
    }

    fn handle_end(
        &mut self,
        ctx: &mut Ctx<Ev>,
        apprank: usize,
        slot: usize,
        core: usize,
        tid: TaskId,
    ) {
        let node = self.node_of(apprank, slot);
        let proc = ProcId(self.layout.proc_of(apprank, slot));
        self.appranks[apprank].workers[slot].running -= 1;
        if let Err(e) = self.dlbs[node].release(proc, core) {
            self.fail(SimError::Shape(format!(
                "releasing core {core} of proc {} on node {node}: {e}",
                proc.0
            )));
            return;
        }
        let now = ctx.now();
        self.talps[node].set_busy(proc.0, now, self.dlbs[node].used_count(proc));
        if self.trace.events() {
            let key = self.task_key(apprank, tid);
            let ev = EventKind::TaskCompleted {
                key,
                node: node as u32,
                proc: proc.0 as u32,
            };
            self.trace.emit(TraceLog::node_stream(node), now, ev);
            self.pump_dlb(now, node);
        }
        if let Some(crate::MpiOp::Send { to, tag, bytes }) =
            self.appranks[apprank].specs[tid.raw() as usize].mpi
        {
            let key = (apprank, to, tag);
            let prev = self.messages.insert(key, MsgState::InFlight);
            if prev.is_some() {
                self.fail(SimError::Shape(format!(
                    "duplicate send for message {key:?}"
                )));
                return;
            }
            let delay = self.transfer_time(bytes);
            ctx.schedule_in(
                delay,
                Ev::MsgDeliver {
                    from: apprank,
                    to,
                    tag,
                },
            );
        }
        let newly_ready = match self.appranks[apprank].graph.complete(tid) {
            Ok(succ) => succ,
            Err(e) => {
                self.fail(SimError::Shape(format!(
                    "apprank {apprank}: completing task {}: {e}",
                    tid.raw()
                )));
                return;
            }
        };
        for succ in newly_ready {
            if self.trace.events() {
                self.note_ready(now, apprank, succ);
            }
            let spec = &self.appranks[apprank].specs[succ.raw() as usize];
            let inst = Inst {
                tid: succ,
                duration: spec.duration,
                bytes: spec.bytes,
            };
            self.dispatch(ctx, apprank, inst);
        }
        self.appranks[apprank].done += 1;
        if self.appranks[apprank].done == self.appranks[apprank].total
            && !self.appranks[apprank].iteration_done
        {
            self.appranks[apprank].iteration_done = true;
            self.rank_finish[apprank] = now;
            self.remaining_appranks -= 1;
            if self.remaining_appranks == 0 {
                self.finish_iteration(ctx);
            }
        }
        // The freed core may serve this worker's next task, another
        // worker (LeWI), or a reclaiming owner.
        self.try_start_node(ctx, node);
    }

    fn local_tick(&mut self, ctx: &mut Ctx<Ev>) {
        if self.finished {
            return;
        }
        match self.balance_policy.on_local_tick() {
            LocalAction::Converge => {}
            LocalAction::Keep => {
                ctx.schedule_in(self.config.local_period, Ev::LocalTick);
                return;
            }
        }
        let now = ctx.now();
        for node in 0..self.platform.nodes {
            let busy = self.talps[node].take_all_windows(now);
            if self.trace.events() {
                let ev = EventKind::TalpWindow {
                    node: node as u32,
                    busy: busy.clone(),
                };
                self.trace.emit(TraceLog::node_stream(node), now, ev);
            }
            let any_retired = (0..busy.len()).any(|p| self.dlbs[node].is_retired(ProcId(p)));
            let counts = if any_retired {
                self.ownership_among_living(node, &busy)
            } else {
                let current: Vec<usize> = (0..busy.len())
                    .map(|p| self.dlbs[node].owned_count(ProcId(p)))
                    .collect();
                LocalPolicy::ownership(self.platform.cores_per_node, &busy, &current)
            };
            if let Err(e) = self.dlbs[node].set_ownership(&counts) {
                self.fail(SimError::Shape(format!(
                    "local policy produced invalid counts for node {node}: {e}"
                )));
                return;
            }
            self.pump_dlb(now, node);
        }
        self.drain_holds(ctx);
        for node in 0..self.platform.nodes {
            self.try_start_node(ctx, node);
        }
        ctx.schedule_in(self.config.local_period, Ev::LocalTick);
    }

    /// Local-convergence ownership of `node` with its retired workers
    /// masked out: the living split the whole node, the dead get zero.
    /// Targets (not raw owned counts) seed the policy, so cores still in
    /// deferred transfer from a dead worker count for their receiver.
    /// `busy[p]` is the window's demand of proc `p`; a helper spawned
    /// after `busy` was captured has no measured history and reads as 0.
    fn ownership_among_living(&self, node: usize, busy: &[f64]) -> Vec<usize> {
        let procs = self.layout.workers_on(node).len();
        let alive: Vec<usize> = (0..procs)
            .filter(|&p| !self.dlbs[node].is_retired(ProcId(p)))
            .collect();
        let target = self.dlbs[node].target_ownership();
        let sub_busy: Vec<f64> = alive
            .iter()
            .map(|&p| busy.get(p).copied().unwrap_or(0.0))
            .collect();
        let sub_cur: Vec<usize> = alive.iter().map(|&p| target[p]).collect();
        let sub = LocalPolicy::ownership(self.platform.cores_per_node, &sub_busy, &sub_cur);
        let mut counts = vec![0usize; procs];
        for (i, &p) in alive.iter().enumerate() {
            counts[p] = sub[i];
        }
        counts
    }

    /// Deterministic model of the global solve cost: the paper measures
    /// ≈57 ms at 32 nodes and quadratic growth with graph size.
    fn solver_cost(&self) -> SimTime {
        let scale = self.platform.nodes as f64 / 32.0;
        SimTime::from_secs_f64((0.057 * scale * scale).max(0.001))
    }

    fn global_tick(&mut self, ctx: &mut Ctx<Ev>) {
        if self.finished {
            return;
        }
        let now = ctx.now();
        // Real (wall-clock) solve time is a gauge, never an event payload:
        // the event stream must stay bit-identical across runs. Taken
        // exactly when events and counters record, so `Some` is also this
        // tick's one trace-level test.
        let wall_start = self.trace.events().then(std::time::Instant::now);
        // Demand per apprank since the last tick. The paper's signal is the
        // TALP busy-core integral; we add still-pending work so the solver
        // sees demand, not just history. The `CreatedWork` signal instead
        // uses the cost hints of tasks created since the last tick, which
        // is free of window-phase error (all appranks share iteration
        // boundaries); it falls back to the busy signal in windows where
        // nothing was created.
        // Per-proc TALP deltas are kept for the solver-fallback path, which
        // feeds them to the local convergence policy when the LP fails.
        let mut deltas: Vec<Vec<f64>> = Vec::with_capacity(self.platform.nodes);
        for node in 0..self.platform.nodes {
            let row: Vec<f64> = (0..self.last_total[node].len())
                .map(|p| self.talps[node].total(p, now) - self.last_total[node][p])
                .collect();
            deltas.push(row);
        }
        let mut work = vec![0.0f64; self.appranks.len()];
        for (a, w) in work.iter_mut().enumerate() {
            for (k, &node) in self.adjacency[a].iter().enumerate() {
                let p = self.layout.proc_of(a, k);
                *w += deltas[node][p];
            }
        }
        for node in 0..self.platform.nodes {
            for p in 0..self.last_total[node].len() {
                self.last_total[node][p] = self.talps[node].total(p, now);
            }
        }
        for (a, w) in work.iter_mut().enumerate() {
            let held: f64 = self.appranks[a].hold.iter().map(|i| i.duration).sum();
            let queued: f64 = self.appranks[a]
                .workers
                .iter()
                .flat_map(|ws| ws.queued.iter())
                .map(|i| i.duration)
                .sum();
            *w += held + queued;
        }
        if self.config.work_signal == WorkSignal::CreatedWork {
            let created: Vec<f64> = self
                .created_work
                .iter()
                .zip(&self.last_created)
                .map(|(c, l)| c - l)
                .collect();
            self.last_created.copy_from_slice(&self.created_work);
            if created.iter().sum::<f64>() > 1e-9 {
                work = created;
            }
        }
        // Assemble the signal view the policy hook sees: everything here
        // is already measured (TALP deltas, demand, placement, current
        // ownership targets) — the view adds no new instrumentation.
        let placement: Vec<Vec<(usize, usize)>> = (0..self.appranks.len())
            .map(|a| {
                self.adjacency[a]
                    .iter()
                    .enumerate()
                    .map(|(k, &node)| (node, self.layout.proc_of(a, k)))
                    .collect()
            })
            .collect();
        let ownership: Vec<Vec<usize>> = (0..self.platform.nodes)
            .map(|n| self.dlbs[n].target_ownership())
            .collect();
        let alive: Vec<Vec<bool>> = (0..self.platform.nodes)
            .map(|n| {
                (0..self.layout.workers_on(n).len())
                    .map(|p| !self.dlbs[n].is_retired(ProcId(p)))
                    .collect()
            })
            .collect();
        let view = SignalView {
            window_secs: self.config.global_period.as_secs_f64(),
            cores_per_node: self.platform.cores_per_node,
            node_speed: &self.platform.node_speed,
            work: &work,
            busy: &deltas,
            placement: &placement,
            ownership: &ownership,
            alive: &alive,
        };
        match self.balance_policy.on_global_tick(&view) {
            GlobalAction::Solve => {}
            GlobalAction::SetOwnership {
                per_node,
                comm_rounds,
            } => {
                // Solver-free reallocation: the only cost is shipping the
                // new ownership map, charged through the interconnect
                // latency model (one latency per communication round).
                let cost = SimTime::from_secs_f64(
                    self.platform.net_latency.as_secs_f64() * comm_rounds.max(1) as f64,
                );
                self.trace.count("policy_reallocations", 1);
                ctx.schedule_in(cost, Ev::ApplyOwnership { per_node });
                ctx.schedule_in(self.config.global_period, Ev::GlobalTick);
                return;
            }
            GlobalAction::Keep => {
                ctx.schedule_in(self.config.global_period, Ev::GlobalTick);
                return;
            }
        }
        // During an injected outage the solver "runs" but reports the
        // planned error; otherwise solve for real. Either kind of failure
        // takes the degradation ladder instead of aborting the run.
        let injected = (self.outage_active > 0)
            .then(|| self.outage_error.clone())
            .flatten();
        if self.global_policy.is_none() {
            return;
        }
        let result = match injected {
            Some(err) => Err(err),
            None => self.solve_global(now, &work),
        };
        let mut solution = match result {
            Ok(s) => s,
            Err(err) => {
                self.solver_fallback(ctx, now, err, &deltas, wall_start);
                return;
            }
        };
        // Dynamic work spreading (paper §5.2 future work): the solved bound
        // identifies capacity-constrained appranks; spawn helpers for them
        // and re-solve so the new capacity is used immediately.
        if let Some(dynamic) = self.config.dynamic {
            if self.maybe_spawn_helpers(ctx, &work, &solution, dynamic) {
                match self.solve_global(now, &work) {
                    Ok(s) => solution = s,
                    Err(err) => {
                        self.solver_fallback(ctx, now, err, &deltas, wall_start);
                        return;
                    }
                }
            }
        }
        let policy = self
            .global_policy
            .as_mut()
            .expect("global tick without policy");
        let per_node = policy.ownership_by_node(&self.layout, &solution);
        let cost = self.solver_cost();
        self.solver_runs += 1;
        self.solver_time += cost;
        if let Some(t0) = wall_start {
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            self.trace.gauge("solver_wall_ms", wall_ms);
            self.trace
                .count("solver_simplex_iterations", solution.iterations as u64);
            self.trace
                .gauge("solver_modelled_ms", cost.as_secs_f64() * 1e3);
            let ev = EventKind::SolverInvoked(Box::new(tlb_trace::SolverRecord {
                demand: work.clone(),
                cores: solution.cores.iter().map(|row| row.iter().sum()).collect(),
                simplex_iterations: solution.iterations,
                objective: solution.objective,
                modelled_cost: cost,
            }));
            self.trace.emit(GLOBAL_STREAM, now, ev);
        }
        ctx.schedule_in(cost, Ev::ApplyOwnership { per_node });
        ctx.schedule_in(self.config.global_period, Ev::GlobalTick);
    }

    /// One global allocation solve: the portfolio race when configured
    /// (recording its trace events and counters), else the single
    /// configured solver. Errors from either path feed the same
    /// degradation ladder in the caller.
    fn solve_global(&mut self, now: SimTime, work: &[f64]) -> Result<AllocationSolution, LpError> {
        let solver = self.config.solver;
        let policy = self
            .global_policy
            .as_mut()
            .expect("global solve without policy");
        let Some(engine) = self.portfolio.as_mut() else {
            return policy.allocate(work, solver);
        };
        let budget_s = engine.config().budget.as_secs_f64();
        let mut picked = None;
        let result = policy.allocate_with(work, |p| {
            let out = engine.solve(p)?;
            picked = Some((out.winner, out.score, out.candidates, out.race_cost));
            Ok(out.solution)
        });
        if let Some((winner, score, candidates, race_cost)) = picked {
            if self.trace.events() {
                let wins = match winner {
                    Strategy::Simplex => "portfolio_wins_simplex",
                    Strategy::Flow => "portfolio_wins_flow",
                    Strategy::Greedy => "portfolio_wins_greedy",
                    Strategy::Local => "portfolio_wins_local",
                };
                self.trace.count(wins, 1);
                let race_ms = race_cost.as_secs_f64() * 1e3;
                self.trace.gauge("portfolio_race_modelled_ms", race_ms);
                let rec = tlb_trace::PortfolioRecord {
                    candidates: candidates
                        .iter()
                        .map(|c| tlb_trace::PortfolioCandidate {
                            strategy: c.strategy.code(),
                            name: c.strategy.name(),
                            score: c.score.unwrap_or(-1.0),
                            cost_s: c.cost.as_secs_f64(),
                            timed_out: c.timed_out,
                        })
                        .collect(),
                    budget_s,
                };
                let solve = EventKind::PortfolioSolve(Box::new(rec));
                self.trace.emit(GLOBAL_STREAM, now, solve);
                let pick = EventKind::PortfolioPick {
                    strategy: winner.code(),
                    name: winner.name(),
                    score,
                    raced: candidates.len() as u32,
                };
                self.trace.emit(GLOBAL_STREAM, now, pick);
            }
        }
        result
    }

    /// The global solver failed mid-run (injected outage or a real LP
    /// error). Degradation ladder instead of aborting: LeWI keeps lending
    /// idle cores; each node falls back to the local convergence policy on
    /// this tick's TALP deltas; a node with no measured work keeps its
    /// last-good allocation (the local policy returns `current` when the
    /// window is idle). The failed solve still charges its modelled cost —
    /// a timeout burns the full budget before the runtime gives up on it.
    fn solver_fallback(
        &mut self,
        ctx: &mut Ctx<Ev>,
        now: SimTime,
        err: LpError,
        deltas: &[Vec<f64>],
        wall_start: Option<std::time::Instant>,
    ) {
        self.faults.solver_fallbacks += 1;
        let cost = self.solver_cost();
        self.solver_time += cost;
        if let Some(t0) = wall_start {
            let reason = match err {
                LpError::IterationLimit => FallbackReason::IterationLimit,
                LpError::Infeasible => FallbackReason::Infeasible,
                LpError::Unbounded => FallbackReason::Unbounded,
                _ => FallbackReason::Other,
            };
            let ev = EventKind::SolverFallback { reason };
            self.trace.emit(GLOBAL_STREAM, now, ev);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            self.trace.gauge("solver_wall_ms", wall_ms);
            self.trace
                .gauge("solver_modelled_ms", cost.as_secs_f64() * 1e3);
        }
        let per_node: Vec<Vec<usize>> = (0..self.platform.nodes)
            .map(|node| self.ownership_among_living(node, &deltas[node]))
            .collect();
        ctx.schedule_in(cost, Ev::ApplyOwnership { per_node });
        ctx.schedule_in(self.config.global_period, Ev::GlobalTick);
    }

    /// Spawn helper ranks for capacity-constrained appranks (the paper's
    /// dynamic work spreading, §5.2). The LP solution tells exactly which
    /// appranks the bound binds on: those executing at ≈ the objective
    /// ratio while the machine mean is lower. At most one new helper per
    /// apprank per solver period; bounded by the configured maximum
    /// degree and the nodes' worker headroom. Returns whether anything
    /// was spawned.
    fn maybe_spawn_helpers(
        &mut self,
        ctx: &mut Ctx<Ev>,
        work: &[f64],
        solution: &tlb_linprog::AllocationSolution,
        dynamic: tlb_core::DynamicSpreading,
    ) -> bool {
        let total_work: f64 = work.iter().sum();
        if total_work <= 1e-12 {
            return false;
        }
        let mean_load = total_work / self.platform.effective_capacity();
        if solution.objective <= dynamic.overload_threshold * mean_load {
            return false; // the static graph already balances well enough
        }
        // Node load under the solved split (pressure to avoid).
        let mut node_pressure = vec![0.0f64; self.platform.nodes];
        for (a, shares) in solution.work_share.iter().enumerate() {
            for (k, &w) in shares.iter().enumerate() {
                node_pressure[self.adjacency[a][k]] += w;
            }
        }
        let mut spawned = false;
        for (a, w) in work.iter().enumerate() {
            if self.adjacency[a].len() >= dynamic.max_degree {
                continue;
            }
            let cores: usize = solution.cores[a].iter().sum();
            // Binding apprank: its solved ratio sits at the objective.
            if *w / (cores as f64) < 0.98 * solution.objective {
                continue;
            }
            // Least-pressured node this apprank cannot reach yet, with
            // worker headroom.
            let candidate = (0..self.platform.nodes)
                .filter(|&n| !self.adjacency[a].contains(&n))
                .filter(|&n| self.layout.workers_on(n).len() < self.platform.cores_per_node)
                .min_by(|&x, &y| {
                    let px = node_pressure[x] / self.platform.node_speed[x];
                    let py = node_pressure[y] / self.platform.node_speed[y];
                    px.partial_cmp(&py).unwrap().then(x.cmp(&y))
                });
            if let Some(n) = candidate {
                node_pressure[n] += *w / self.adjacency[a].len() as f64;
                self.spawn_helper(ctx, a, n);
                spawned = true;
            }
        }
        spawned
    }

    /// Materialise one helper rank: extend the layout, DLB, TALP, trace,
    /// worker queues, and the solver's adjacency.
    fn spawn_helper(&mut self, ctx: &mut Ctx<Ev>, apprank: usize, node: usize) {
        let (slot, proc) = self.layout.push_worker(apprank, node);
        let dlb_proc = self.dlbs[node].add_process();
        debug_assert_eq!(dlb_proc.0, proc, "layout and DLB proc ids must agree");
        let talp_proc = self.talps[node].add_proc(ctx.now());
        debug_assert_eq!(talp_proc, proc);
        self.last_total[node].push(self.talps[node].total(proc, ctx.now()));
        self.trace.add_worker(node, apprank);
        self.adjacency[apprank].push(node);
        debug_assert_eq!(self.adjacency[apprank].len() - 1, slot);
        self.appranks[apprank].workers.push(WorkerState::default());
        self.dead[apprank].push(false);
        if let Some(policy) = self.global_policy.as_mut() {
            policy.add_edge(apprank, node);
        }
        self.spawned_helpers += 1;
        if self.trace.events() {
            let ev = EventKind::HelperSpawned {
                apprank: apprank as u32,
                node: node as u32,
            };
            self.trace.emit(TraceLog::node_stream(node), ctx.now(), ev);
        }
        self.record_node(ctx.now(), node);
    }

    fn apply_ownership(&mut self, ctx: &mut Ctx<Ev>, per_node: Vec<Vec<usize>>) {
        if self.finished {
            return;
        }
        for (node, counts) in per_node.iter().enumerate() {
            // An allocation computed before a worker on this node died may
            // still assign it cores; drop the stale update (the next tick
            // sees the post-kill state).
            let stale = counts
                .iter()
                .enumerate()
                .any(|(p, &c)| c > 0 && self.dlbs[node].is_retired(ProcId(p)));
            if stale {
                continue;
            }
            if let Err(e) = self.dlbs[node].set_ownership(counts) {
                self.fail(SimError::Shape(format!(
                    "solver produced invalid counts for node {node}: {e}"
                )));
                return;
            }
            self.pump_dlb(ctx.now(), node);
        }
        self.drain_holds(ctx);
        for node in 0..self.platform.nodes {
            self.try_start_node(ctx, node);
        }
    }
}

impl<W: Workload> World for State<W> {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
        if self.error.is_some() {
            // An unrecoverable error was recorded: drain the queue without
            // touching state so the run can report it.
            return;
        }
        match ev {
            Ev::StartIteration => self.start_iteration(ctx),
            Ev::Arrive {
                apprank,
                slot,
                inst,
            } => {
                self.appranks[apprank].workers[slot].in_flight -= 1;
                if slot != 0 && self.dead[apprank][slot] {
                    // The destination died while the payload was on the
                    // wire: bounce it back to the home rank.
                    self.requeue_home(ctx, apprank, inst);
                    return;
                }
                self.appranks[apprank].workers[slot].queued.push_back(inst);
                self.try_start_worker(ctx, apprank, slot);
                let node = self.node_of(apprank, slot);
                self.record_node(ctx.now(), node);
            }
            Ev::End {
                apprank,
                slot,
                core,
                tid,
            } => self.handle_end(ctx, apprank, slot, core, tid),
            Ev::MsgDeliver { from, to, tag } => {
                let key = (from, to, tag);
                let prev = self.messages.insert(key, MsgState::Arrived);
                if !(prev.is_none() || prev == Some(MsgState::InFlight)) {
                    self.fail(SimError::Shape(format!("message {key:?} delivered twice")));
                    return;
                }
                if let Some(inst) = self.waiting_recvs.remove(&key) {
                    // The receiver had already posted the recv: run it
                    // (dispatch consumes the Arrived entry).
                    self.dispatch(ctx, to, inst);
                }
            }
            Ev::SpeedChange { node, speed } => {
                // Tasks already running keep their start-time duration;
                // everything dispatched afterwards sees the new speed, and
                // the global solver reasons with it from the next tick.
                // Straggler factors stack on top of the new base speed.
                self.base_speed[node] = speed;
                self.refresh_speed(node);
                self.drain_holds(ctx);
                self.try_start_node(ctx, node);
            }
            Ev::LocalTick => self.local_tick(ctx),
            Ev::GlobalTick => self.global_tick(ctx),
            Ev::ApplyOwnership { per_node } => self.apply_ownership(ctx, per_node),
            Ev::FaultStraggler {
                node,
                slowdown,
                duration,
            } => self.handle_straggler(ctx, node, slowdown, duration),
            Ev::FaultStragglerEnd { node, slowdown } => {
                self.handle_straggler_end(ctx, node, slowdown)
            }
            Ev::FaultKill { idx, victim } => self.handle_kill(ctx, idx, victim),
            Ev::FaultOutage {
                error,
                duration,
                strategy,
            } => self.handle_outage(ctx, error, duration, strategy),
            Ev::FaultOutageEnd { strategy } => self.handle_outage_end(ctx, strategy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpecWorkload;
    use tlb_core::{DromPolicy, PolicySpec, Preset};

    fn uniform(ranks: usize, tasks: usize, dur: f64, iters: usize) -> SpecWorkload {
        SpecWorkload::iterated(
            (0..ranks)
                .map(|_| (0..tasks).map(|_| TaskSpec::compute(dur)).collect())
                .collect(),
            iters,
        )
    }

    #[test]
    fn single_node_packs_cores() {
        // 1 apprank, 1 node, 4 cores, 40 tasks of 0.1 s: 10 waves = 1 s.
        let wl = uniform(1, 40, 0.1, 1);
        let p = Platform::homogeneous(1, 4);
        let r = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
        )
        .unwrap();
        let secs = r.makespan.as_secs_f64();
        assert!((secs - 1.0).abs() < 1e-6, "makespan {secs}");
        assert_eq!(r.total_tasks, 40);
        assert_eq!(r.offloaded_tasks, 0);
    }

    #[test]
    fn baseline_never_offloads() {
        let wl = uniform(2, 30, 0.05, 2);
        let p = Platform::homogeneous(2, 4);
        let r = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
        )
        .unwrap();
        assert_eq!(r.offloaded_tasks, 0);
        assert_eq!(r.iteration_times.len(), 2);
    }

    #[test]
    fn imbalance_is_confined_without_offloading() {
        // Apprank 0 has 4x the work; without offloading its node is the
        // bottleneck: makespan ~= 4*20*0.05/4 = 1.0 s per iteration.
        let heavy: Vec<TaskSpec> = (0..80).map(|_| TaskSpec::compute(0.05)).collect();
        let light: Vec<TaskSpec> = (0..20).map(|_| TaskSpec::compute(0.05)).collect();
        let wl = SpecWorkload::iterated(vec![heavy, light], 1);
        let p = Platform::homogeneous(2, 4);
        let r = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
        )
        .unwrap();
        let secs = r.makespan.as_secs_f64();
        assert!((secs - 1.0).abs() < 0.01, "makespan {secs}");
    }

    #[test]
    fn offloading_spreads_imbalance() {
        let heavy: Vec<TaskSpec> = (0..80).map(|_| TaskSpec::compute(0.05)).collect();
        let light: Vec<TaskSpec> = (0..20).map(|_| TaskSpec::compute(0.05)).collect();
        let wl = SpecWorkload::iterated(vec![heavy, light], 4);
        let p = Platform::homogeneous(2, 4);
        let base = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl.clone()).trace(true),
        )
        .unwrap();
        let cfg = BalanceConfig::preset(Preset::Offload {
            degree: 2,
            drom: DromPolicy::Global,
        });
        let bal = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).unwrap();
        assert!(
            bal.makespan.as_secs_f64() < 0.8 * base.makespan.as_secs_f64(),
            "balanced {} vs baseline {}",
            bal.makespan,
            base.makespan
        );
        assert!(bal.offloaded_tasks > 0);
    }

    #[test]
    fn lewi_only_helps_but_less_than_drom() {
        let heavy: Vec<TaskSpec> = (0..120).map(|_| TaskSpec::compute(0.05)).collect();
        let light: Vec<TaskSpec> = (0..40).map(|_| TaskSpec::compute(0.05)).collect();
        let wl = SpecWorkload::iterated(vec![heavy, light], 4);
        let p = Platform::homogeneous(2, 4);
        let base = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl.clone()).trace(true),
        )
        .unwrap();
        let lewi_cfg = BalanceConfig::preset(Preset::Offload {
            degree: 2,
            drom: DromPolicy::Off,
        });
        let lewi =
            ClusterSim::execute(RunSpec::new(&p, &lewi_cfg, wl.clone()).trace(true)).unwrap();
        let drom = ClusterSim::execute(
            RunSpec::new(
                &p,
                &BalanceConfig::preset(Preset::Offload {
                    degree: 2,
                    drom: DromPolicy::Global,
                }),
                wl,
            )
            .trace(true),
        )
        .unwrap();
        assert!(
            lewi.makespan < base.makespan,
            "LeWI {} vs baseline {}",
            lewi.makespan,
            base.makespan
        );
        assert!(
            drom.makespan <= lewi.makespan,
            "DROM {} vs LeWI {}",
            drom.makespan,
            lewi.makespan
        );
    }

    #[test]
    fn pinned_tasks_never_offload() {
        let tasks: Vec<TaskSpec> = (0..40).map(|_| TaskSpec::pinned(0.05)).collect();
        let wl = SpecWorkload::iterated(vec![tasks.clone(), tasks], 2);
        let p = Platform::homogeneous(2, 4);
        let cfg = BalanceConfig::preset(Preset::Offload {
            degree: 2,
            drom: DromPolicy::Global,
        });
        let r = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).unwrap();
        assert_eq!(r.offloaded_tasks, 0);
    }

    #[test]
    fn slow_node_stretches_baseline() {
        let wl = uniform(2, 40, 0.05, 1);
        let fast = Platform::homogeneous(2, 4);
        let slow = Platform::homogeneous(2, 4).with_slowdown(1, 2.0);
        let rf = ClusterSim::execute(
            RunSpec::new(&fast, &BalanceConfig::preset(Preset::Baseline), wl.clone()).trace(true),
        )
        .unwrap();
        let rs = ClusterSim::execute(
            RunSpec::new(&slow, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
        )
        .unwrap();
        let ratio = rs.makespan.as_secs_f64() / rf.makespan.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.05, "slowdown ratio {ratio}");
    }

    #[test]
    fn offloading_rescues_slow_node() {
        let wl = uniform(2, 80, 0.05, 4);
        let p = Platform::homogeneous(2, 4).with_slowdown(1, 3.0);
        let base = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl.clone()).trace(true),
        )
        .unwrap();
        let bal = ClusterSim::execute(
            RunSpec::new(
                &p,
                &BalanceConfig::preset(Preset::Offload {
                    degree: 2,
                    drom: DromPolicy::Global,
                }),
                wl,
            )
            .trace(true),
        )
        .unwrap();
        assert!(
            bal.makespan.as_secs_f64() < 0.85 * base.makespan.as_secs_f64(),
            "balanced {} vs baseline {}",
            bal.makespan,
            base.makespan
        );
    }

    #[test]
    fn deterministic_replay() {
        let heavy: Vec<TaskSpec> = (0..60).map(|_| TaskSpec::compute(0.02)).collect();
        let light: Vec<TaskSpec> = (0..10).map(|_| TaskSpec::compute(0.02)).collect();
        let wl = SpecWorkload::iterated(vec![heavy, light], 3);
        let p = Platform::homogeneous(2, 4);
        let cfg = BalanceConfig::preset(Preset::Offload {
            degree: 2,
            drom: DromPolicy::Global,
        });
        let a = ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).trace(true)).unwrap();
        let b = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.offloaded_tasks, b.offloaded_tasks);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn local_policy_runs_and_balances() {
        let heavy: Vec<TaskSpec> = (0..120).map(|_| TaskSpec::compute(0.05)).collect();
        let light: Vec<TaskSpec> = (0..20).map(|_| TaskSpec::compute(0.05)).collect();
        let wl = SpecWorkload::iterated(vec![heavy, light], 4);
        let p = Platform::homogeneous(2, 4);
        let base = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl.clone()).trace(true),
        )
        .unwrap();
        let local = ClusterSim::execute(
            RunSpec::new(
                &p,
                &BalanceConfig::preset(Preset::Offload {
                    degree: 2,
                    drom: DromPolicy::Local,
                }),
                wl,
            )
            .trace(true),
        )
        .unwrap();
        assert!(
            local.makespan.as_secs_f64() < 0.85 * base.makespan.as_secs_f64(),
            "local {} vs baseline {}",
            local.makespan,
            base.makespan
        );
    }

    #[test]
    fn report_bookkeeping() {
        let wl = uniform(2, 10, 0.01, 3);
        let p = Platform::homogeneous(2, 4);
        let cfg = BalanceConfig::preset(Preset::Offload {
            degree: 2,
            drom: DromPolicy::Global,
        });
        let r = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).unwrap();
        assert_eq!(r.total_tasks, 60);
        assert_eq!(r.iteration_times.len(), 3);
        assert_eq!(r.trace.iteration_ends.len(), 3);
        assert!(r.events > 0);
        assert!(r.mean_iteration_secs(0) > 0.0);
    }

    #[test]
    fn region_dependencies_serialize_within_iteration() {
        use tlb_tasking::DataRegion;
        // 10 tasks chained through one region: even with 4 cores they
        // must run one after another → iteration = sum of durations.
        let r = DataRegion::new(0x1000, 64);
        let chain: Vec<TaskSpec> = (0..10)
            .map(|_| TaskSpec::compute(0.05).reads_writes(r))
            .collect();
        let wl = SpecWorkload::iterated(vec![chain], 1);
        let p = Platform::homogeneous(1, 4);
        let rep = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
        )
        .unwrap();
        let secs = rep.makespan.as_secs_f64();
        assert!((secs - 0.5).abs() < 1e-6, "chained makespan {secs}");
    }

    #[test]
    fn producer_consumer_dependencies_respected() {
        use tlb_tasking::DataRegion;
        // One producer writes a buffer; 8 consumers read chunks. The
        // consumers can only start after the producer: makespan =
        // producer + ceil(8/4)*consumer.
        let buf = DataRegion::new(0x2000, 800);
        let mut tasks = vec![TaskSpec::compute(0.1).writes(buf)];
        for c in buf.chunks(8) {
            tasks.push(TaskSpec::compute(0.05).reads(c));
        }
        let wl = SpecWorkload::iterated(vec![tasks], 1);
        let p = Platform::homogeneous(1, 4);
        let rep = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
        )
        .unwrap();
        let secs = rep.makespan.as_secs_f64();
        assert!((secs - 0.2).abs() < 1e-6, "fan-out makespan {secs}");
    }

    #[test]
    fn dependent_tasks_offload_too() {
        use tlb_tasking::DataRegion;
        // Independent chains (one per region) can spread across nodes
        // even though each chain is serial.
        let chains: Vec<TaskSpec> = (0..8)
            .flat_map(|k| {
                let r = DataRegion::new(0x1000 * (k + 1), 64);
                (0..6).map(move |_| TaskSpec::compute(0.05).reads_writes(r))
            })
            .collect();
        let wl = SpecWorkload::iterated(vec![chains, Vec::new()], 2);
        let p = Platform::homogeneous(2, 4);
        let base = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl.clone()).trace(true),
        )
        .unwrap();
        let bal = ClusterSim::execute(
            RunSpec::new(
                &p,
                &BalanceConfig::preset(Preset::Offload {
                    degree: 2,
                    drom: DromPolicy::Global,
                }),
                wl,
            )
            .trace(true),
        )
        .unwrap();
        assert!(
            bal.makespan < base.makespan,
            "offloading chains: {} vs {}",
            bal.makespan,
            base.makespan
        );
        assert!(bal.offloaded_tasks > 0);
    }

    #[test]
    fn mpi_recv_waits_for_send_and_transfer() {
        use tlb_tasking::DataRegion;
        // Rank 0: compute 100 ms, then send 10 MB. Rank 1: recv, then a
        // compute that reads the received buffer.
        let buf = DataRegion::new(0x9000, 64);
        let r0 = vec![
            TaskSpec::compute(0.1).writes(DataRegion::new(0x100, 8)),
            TaskSpec::mpi_send(0.001, 1, 7, 10_000_000).reads(DataRegion::new(0x100, 8)),
        ];
        let r1 = vec![
            TaskSpec::mpi_recv(0.001, 0, 7).writes(buf),
            TaskSpec::compute(0.05).reads(buf),
        ];
        let wl = SpecWorkload::iterated(vec![r0, r1], 1);
        let mut p = Platform::homogeneous(2, 2);
        p.net_bandwidth = 1e9; // 10 MB at 1 GB/s = 10 ms on the wire
        let rep = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
        )
        .unwrap();
        // Critical path: 0.1 (compute) + 0.001 (pack) + 0.010 (wire)
        // + 0.001 (unpack) + 0.05 (consume) ≈ 0.162.
        let secs = rep.makespan.as_secs_f64();
        assert!((secs - 0.162).abs() < 0.002, "makespan {secs}");
    }

    #[test]
    fn mpi_ping_pong_round_trip() {
        // Rank 0 sends to 1; rank 1 receives and replies; rank 0 receives.
        let r0 = vec![
            TaskSpec::mpi_send(0.001, 1, 1, 0),
            TaskSpec::mpi_recv(0.001, 1, 2),
        ];
        let r1 = vec![
            TaskSpec::mpi_recv(0.001, 0, 1).writes(tlb_tasking::DataRegion::new(0x10, 8)),
            TaskSpec::mpi_send(0.001, 0, 2, 0).reads(tlb_tasking::DataRegion::new(0x10, 8)),
        ];
        let wl = SpecWorkload::iterated(vec![r0, r1], 2);
        let p = Platform::homogeneous(2, 2);
        let rep = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
        )
        .unwrap();
        assert_eq!(rep.total_tasks, 8);
        // Two latencies + four task bodies per iteration, two iterations.
        assert!(rep.makespan.as_secs_f64() > 2.0 * 0.004);
    }

    #[test]
    fn unmatched_recv_is_reported_not_hung() {
        let r0 = vec![TaskSpec::compute(0.01)];
        let r1 = vec![TaskSpec::mpi_recv(0.001, 0, 99)];
        let wl = SpecWorkload::iterated(vec![r0, r1], 1);
        let p = Platform::homogeneous(2, 2);
        match ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
        ) {
            Err(SimError::Shape(msg)) => assert!(msg.contains("deadlock"), "{msg}"),
            other => panic!("expected deadlock error, got {other:?}"),
        }
    }

    #[test]
    fn offloadable_mpi_task_rejected() {
        let mut bad = TaskSpec::mpi_send(0.001, 1, 1, 0);
        bad.offloadable = true;
        let wl = SpecWorkload::iterated(vec![vec![bad], vec![TaskSpec::mpi_recv(0.001, 0, 1)]], 1);
        let p = Platform::homogeneous(2, 2);
        let err = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
        )
        .unwrap_err();
        match err {
            SimError::Shape(msg) => assert!(msg.contains("non-offloadable"), "{msg}"),
            other => panic!("expected Shape error, got {other}"),
        }
    }

    #[test]
    fn speed_event_throttles_and_offloading_recovers() {
        use tlb_des::SimTime;
        // Balanced workload; node 1 throttles to one third speed midway.
        let wl = uniform(2, 120, 0.05, 8);
        let p = Platform::homogeneous(2, 4).with_speed_event(SimTime::from_secs(3), 1, 1.0 / 3.0);
        let base = ClusterSim::execute(RunSpec::new(
            &p,
            &BalanceConfig::preset(Preset::Baseline),
            wl.clone(),
        ))
        .unwrap();
        let mut cfg = BalanceConfig::preset(Preset::Offload {
            degree: 2,
            drom: DromPolicy::Global,
        });
        cfg.global_period = SimTime::from_millis(500);
        let bal = ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone())).unwrap();
        // Without throttling both would take ~6s; with it the baseline's
        // later iterations stretch ~3x on node 1 while the balanced run
        // re-spreads the work.
        assert!(
            bal.makespan.as_secs_f64() < 0.8 * base.makespan.as_secs_f64(),
            "throttled: balanced {} vs baseline {}",
            bal.makespan,
            base.makespan
        );
        // And a no-event control shows the event really was the cause.
        let calm = Platform::homogeneous(2, 4);
        let calm_base = ClusterSim::execute(RunSpec::new(
            &calm,
            &BalanceConfig::preset(Preset::Baseline),
            wl,
        ))
        .unwrap();
        assert!(base.makespan.as_secs_f64() > 1.5 * calm_base.makespan.as_secs_f64());
    }

    #[test]
    fn speed_events_are_deterministic() {
        use tlb_des::SimTime;
        let wl = uniform(2, 40, 0.02, 3);
        let p = Platform::homogeneous(2, 4)
            .with_speed_event(SimTime::from_millis(200), 0, 0.5)
            .with_speed_event(SimTime::from_millis(500), 0, 1.0);
        let cfg = BalanceConfig::preset(Preset::Offload {
            degree: 2,
            drom: DromPolicy::Global,
        });
        let a = ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone())).unwrap();
        let b = ClusterSim::execute(RunSpec::new(&p, &cfg, wl)).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn dynamic_spreading_spawns_helpers_and_balances() {
        // Start at degree 1 (no helpers). One hot apprank must trigger
        // helper spawning and approach the static degree-3 result.
        let heavy: Vec<TaskSpec> = (0..160).map(|_| TaskSpec::compute(0.05)).collect();
        let light: Vec<TaskSpec> = (0..20).map(|_| TaskSpec::compute(0.05)).collect();
        let wl = SpecWorkload::iterated(vec![heavy, light.clone(), light.clone(), light], 8);
        let p = Platform::homogeneous(4, 4);
        let mut dyn_cfg = BalanceConfig::preset(Preset::DynamicSpread { max_degree: 3 });
        dyn_cfg.global_period = SimTime::from_millis(300);
        let mut static_cfg = BalanceConfig::preset(Preset::Offload {
            degree: 3,
            drom: DromPolicy::Global,
        });
        static_cfg.global_period = SimTime::from_millis(300);

        let base = ClusterSim::execute(RunSpec::new(
            &p,
            &BalanceConfig::preset(Preset::Baseline),
            wl.clone(),
        ))
        .unwrap();
        let dynamic = ClusterSim::execute(RunSpec::new(&p, &dyn_cfg, wl.clone())).unwrap();
        let statically = ClusterSim::execute(RunSpec::new(&p, &static_cfg, wl)).unwrap();

        assert!(dynamic.spawned_helpers >= 1, "no helpers spawned");
        assert!(
            dynamic.spawned_helpers <= 4 * 2,
            "spawning unbounded: {}",
            dynamic.spawned_helpers
        );
        assert_eq!(statically.spawned_helpers, 0);
        assert!(
            dynamic.makespan.as_secs_f64() < 0.75 * base.makespan.as_secs_f64(),
            "dynamic {} vs baseline {}",
            dynamic.makespan,
            base.makespan
        );
        // Within 30% of the static pre-provisioned configuration.
        assert!(
            dynamic.makespan.as_secs_f64() <= 1.3 * statically.makespan.as_secs_f64(),
            "dynamic {} vs static {}",
            dynamic.makespan,
            statically.makespan
        );
    }

    #[test]
    fn dynamic_spreading_spawns_nothing_when_balanced() {
        let wl = uniform(4, 40, 0.05, 4);
        let p = Platform::homogeneous(4, 4);
        let cfg = BalanceConfig::preset(Preset::DynamicSpread { max_degree: 3 });
        let r = ClusterSim::execute(RunSpec::new(&p, &cfg, wl)).unwrap();
        assert_eq!(r.spawned_helpers, 0, "balanced load spawned helpers");
        assert_eq!(r.offloaded_tasks, 0);
    }

    #[test]
    fn dynamic_requires_global_policy() {
        let wl = uniform(2, 10, 0.01, 1);
        let p = Platform::homogeneous(2, 4);
        let mut cfg = BalanceConfig::preset(Preset::DynamicSpread { max_degree: 2 });
        cfg.policy = PolicySpec::named("lewi+drom-local").unwrap();
        assert!(matches!(
            ClusterSim::execute(RunSpec::new(&p, &cfg, wl)),
            Err(SimError::Shape(_))
        ));
    }

    #[test]
    fn parallel_efficiency_reported() {
        // Perfectly parallel single-rank fill: efficiency near 1.
        let wl = uniform(1, 40, 0.1, 2);
        let p = Platform::homogeneous(1, 4);
        let r = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
        )
        .unwrap();
        assert!(
            r.parallel_efficiency > 0.95,
            "efficiency {}",
            r.parallel_efficiency
        );
        // Imbalanced baseline wastes the light node: efficiency well
        // below 1 and roughly total-work / (makespan * cores).
        let heavy: Vec<TaskSpec> = (0..80).map(|_| TaskSpec::compute(0.05)).collect();
        let light: Vec<TaskSpec> = (0..20).map(|_| TaskSpec::compute(0.05)).collect();
        let wl = SpecWorkload::iterated(vec![heavy, light], 1);
        let p = Platform::homogeneous(2, 4);
        let r = ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
        )
        .unwrap();
        let expected = 5.0 / (r.makespan.as_secs_f64() * 8.0);
        assert!(
            (r.parallel_efficiency - expected).abs() < 0.02,
            "efficiency {} vs expected {expected}",
            r.parallel_efficiency
        );
    }

    #[test]
    fn shape_errors_rejected() {
        let wl = uniform(3, 5, 0.01, 1);
        let p = Platform::homogeneous(2, 4);
        assert!(matches!(
            ClusterSim::execute(
                RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true)
            ),
            Err(SimError::Shape(_))
        ));
        // Degree too large for the cores.
        let wl = uniform(4, 5, 0.01, 1);
        let p = Platform::homogeneous(2, 4);
        let mut cfg = BalanceConfig::preset(Preset::Offload {
            degree: 2,
            drom: DromPolicy::Off,
        });
        cfg.degree = 2; // 2 appranks/node * degree 2 = 4 workers on 4 cores: ok
        assert!(ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).trace(true)).is_ok());
        cfg.degree = 3; // would need 6 workers > 4 cores... but degree 3 > nodes(2) anyway
        assert!(ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).is_err());
    }

    #[test]
    fn perfect_balance_bound_respected() {
        // Makespan can never beat total_work / capacity.
        let heavy: Vec<TaskSpec> = (0..64).map(|_| TaskSpec::compute(0.05)).collect();
        let light: Vec<TaskSpec> = (0..16).map(|_| TaskSpec::compute(0.05)).collect();
        let wl = SpecWorkload::iterated(vec![heavy, light], 2);
        let total = wl.total_work();
        let p = Platform::homogeneous(2, 4);
        let cfg = BalanceConfig::preset(Preset::Offload {
            degree: 2,
            drom: DromPolicy::Global,
        });
        let r = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).unwrap();
        let bound = total / 8.0;
        assert!(
            r.makespan.as_secs_f64() >= bound - 1e-9,
            "makespan {} below physical bound {bound}",
            r.makespan
        );
    }

    /// Holds a traced run's exports to the bytes recorded before the
    /// exporters streamed and the counters were derived from events: the
    /// counters dump (gauge values are wall-clock, so their names only),
    /// then length and FNV-1a digest of the Chrome and CSV texts. The
    /// Chrome text must also be canonical JSON: parsing and
    /// re-serialising it changes no byte.
    fn assert_exports(trace: &Trace, counters: &str, digests: [(usize, u64); 2]) {
        let chrome = crate::trace_to_chrome(trace);
        let reparsed = tlb_json::parse(&chrome).unwrap().to_string_compact();
        assert!(reparsed == chrome, "Chrome export is not canonical JSON");
        let gauges = trace.counters.sorted_gauges();
        let gauges: Vec<&str> = gauges.iter().map(|(name, _)| name.as_str()).collect();
        let counts = trace.counters.to_json().get("counters").to_string_compact();
        assert_eq!(format!("{counts} {}", gauges.join(",")), counters);
        let digest = |text: String| {
            let fnv = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            (text.len(), fnv)
        };
        let texts = [chrome, crate::trace_to_csv(trace)];
        assert_eq!(texts.map(digest), digests);
    }

    #[test]
    fn trace_events_cover_task_lifecycle() {
        use std::collections::HashSet;
        use tlb_trace::EventKind as K;
        let heavy: Vec<TaskSpec> = (0..60).map(|_| TaskSpec::compute(0.05)).collect();
        let light: Vec<TaskSpec> = (0..10).map(|_| TaskSpec::compute(0.05)).collect();
        let wl = SpecWorkload::iterated(vec![heavy, light], 2);
        let p = Platform::homogeneous(2, 4);
        let mut cfg = BalanceConfig::preset(Preset::Offload {
            degree: 2,
            drom: DromPolicy::Global,
        });
        cfg.global_period = SimTime::from_millis(500);
        let r = ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).trace(true)).unwrap();
        let log = &r.trace.log;
        // Exactly one created/ready/started/completed per task.
        for pred in [
            (&|k: &K| matches!(k, K::TaskCreated { .. })) as &dyn Fn(&K) -> bool,
            &|k: &K| matches!(k, K::TaskReady { .. }),
            &|k: &K| matches!(k, K::TaskStarted { .. }),
            &|k: &K| matches!(k, K::TaskCompleted { .. }),
        ] {
            assert_eq!(log.count(pred), r.total_tasks);
        }
        let started: HashSet<_> = log
            .merged()
            .iter()
            .filter_map(|e| match &e.kind {
                K::TaskStarted { key, .. } => Some(*key),
                _ => None,
            })
            .collect();
        assert_eq!(started.len(), r.total_tasks, "duplicate start keys");
        // Every task got at least one scheduling decision; offloads and
        // iteration boundaries are recorded; the solver left a record.
        assert!(log.count(|k| matches!(k, K::SchedDecision { .. })) >= r.total_tasks);
        assert_eq!(
            log.count(|k| matches!(k, K::TaskOffloaded { .. })),
            r.offloaded_tasks
        );
        assert_eq!(log.count(|k| matches!(k, K::IterationEnd { .. })), 2);
        assert!(log.count(|k| matches!(k, K::SolverInvoked { .. })) >= 1);
        // Both DLB mechanisms left a record too.
        assert!(log.count(|k| matches!(k, K::LewiBorrow { .. })) >= 1);
        let drom = |k: &K| matches!(k, K::DromOwnership { .. } | K::DromTransfer { .. });
        assert!(log.count(drom) >= 1);
        // The Chrome export pairs every task into one complete slice.
        let phases = |trace: &Trace, ph: &str| {
            let doc = tlb_json::parse(&crate::trace_to_chrome(trace)).unwrap();
            let events = doc.get("traceEvents").as_array().unwrap();
            let with_ph = events.iter().filter(|e| e.get("ph").as_str() == Some(ph));
            (with_ph.count(), events.len())
        };
        assert_eq!(phases(&r.trace, "X").0, r.total_tasks);
        // Counters agree with the report's own bookkeeping.
        let c = &r.trace.counters;
        assert_eq!(c.count("tasks_started"), r.total_tasks as u64);
        assert_eq!(c.count("tasks_completed"), r.total_tasks as u64);
        assert_eq!(c.count("tasks_offloaded"), r.offloaded_tasks as u64);
        assert_eq!(c.count("solver_invocations"), r.solver_runs as u64);
        assert_eq!(c.count("iterations_completed"), 2);
        // And the exports are the bytes the parent of this exporter wrote.
        assert_exports(
            &r.trace,
            r#"{"drom_ownership_sets":2,"drom_transfers":2,"iterations_completed":2,"lewi_lends":48,"lewi_reclaims":15,"sched_decisions":141,"solver_invocations":1,"solver_simplex_iterations":5,"steal_attempts":192,"tasks_completed":140,"tasks_created":140,"tasks_held":109,"tasks_offloaded":52,"tasks_ready":140,"tasks_started":140,"tasks_stolen":108} solver_modelled_ms,solver_wall_ms"#,
            [
                (122_814, 0x623c_efd9_e5eb_781b),
                (34_533, 0x35cc_60b8_a778_a181),
            ],
        );
        // Disabled tracing records nothing at all.
        let off = ClusterSim::execute(RunSpec::new(&p, &cfg, wl)).unwrap();
        assert!(off.trace.log.is_empty());
        assert!(off.trace.counters.is_empty());
        assert_eq!(crate::trace_to_csv(&off.trace).lines().count(), 1);
        let (metadata, all) = phases(&off.trace, "M");
        assert_eq!(metadata, all, "a disabled trace exports metadata only");
    }

    #[test]
    fn trace_event_stream_is_deterministic() {
        let heavy: Vec<TaskSpec> = (0..40).map(|_| TaskSpec::compute(0.02)).collect();
        let light: Vec<TaskSpec> = (0..10).map(|_| TaskSpec::compute(0.02)).collect();
        let wl = SpecWorkload::iterated(vec![heavy, light], 2);
        let p = Platform::homogeneous(2, 4);
        let cfg = BalanceConfig::preset(Preset::Offload {
            degree: 2,
            drom: DromPolicy::Global,
        });
        let a = ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).trace(true)).unwrap();
        let b = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).unwrap();
        assert_eq!(a.trace.log.merged(), b.trace.log.merged());
        assert_eq!(
            a.trace.counters.sorted_counts(),
            b.trace.counters.sorted_counts()
        );
    }

    #[test]
    fn transfer_costs_are_charged() {
        // Huge payloads make offloading unattractive in time even though
        // the scheduler still sends tasks: makespan grows vs zero-byte.
        let mk = |bytes: usize| -> SpecWorkload {
            let heavy: Vec<TaskSpec> = (0..60).map(|_| TaskSpec::with_bytes(0.02, bytes)).collect();
            let light: Vec<TaskSpec> = (0..10).map(|_| TaskSpec::compute(0.02)).collect();
            SpecWorkload::iterated(vec![heavy, light], 2)
        };
        let mut p = Platform::homogeneous(2, 4);
        p.net_bandwidth = 1e8; // slow network to make the effect visible
        let cfg = BalanceConfig::preset(Preset::Offload {
            degree: 2,
            drom: DromPolicy::Global,
        });
        let small = ClusterSim::execute(RunSpec::new(&p, &cfg, mk(0)).trace(true)).unwrap();
        let big = ClusterSim::execute(RunSpec::new(&p, &cfg, mk(4_000_000)).trace(true)).unwrap();
        assert!(
            big.makespan > small.makespan,
            "transfer cost not charged: {} vs {}",
            big.makespan,
            small.makespan
        );
    }

    /// An imbalanced two-node workload under the global DROM policy; the
    /// shape every fault test drives.
    fn faulty_setup() -> (Platform, BalanceConfig, SpecWorkload) {
        let heavy: Vec<TaskSpec> = (0..80).map(|_| TaskSpec::compute(0.05)).collect();
        let light: Vec<TaskSpec> = (0..20).map(|_| TaskSpec::compute(0.05)).collect();
        let wl = SpecWorkload::iterated(vec![heavy, light], 4);
        let p = Platform::homogeneous(2, 4);
        let mut cfg = BalanceConfig::preset(Preset::Offload {
            degree: 2,
            drom: DromPolicy::Global,
        });
        // Tick fast enough that mid-run fault windows cover solver runs.
        cfg.global_period = SimTime::from_millis(500);
        (p, cfg, wl)
    }

    /// Every fault kind at once: a straggler burst, two kills, an outage
    /// spanning global ticks, lossy sends with retries, a degraded link.
    fn every_fault_kind() -> FaultPlan {
        FaultPlan::new(42)
            .with_straggler(0.4, 1, 3.0, 1.0)
            .with_kill(0.6)
            .with_kill_of(1.2, 0, 1)
            .with_outage(0.5, 1.5, LpError::IterationLimit)
            .with_loss(0.0, 3.0, 0.4, 3, 0.002)
            .with_delay(0.0, 3.0, 0.001)
    }

    fn run_plan(plan: &FaultPlan) -> SimReport {
        let (p, cfg, wl) = faulty_setup();
        ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true).faults(plan)).unwrap()
    }

    #[test]
    fn empty_fault_plan_is_bitwise_identical() {
        let (p, cfg, wl) = faulty_setup();
        let a = ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).trace(true)).unwrap();
        let b = ClusterSim::execute(
            RunSpec::new(&p, &cfg, wl)
                .trace(true)
                .faults(&FaultPlan::none()),
        )
        .unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.iteration_times, b.iteration_times);
        assert_eq!(a.events, b.events);
        assert_eq!(a.offloaded_tasks, b.offloaded_tasks);
        assert_eq!(a.solver_runs, b.solver_runs);
        assert_eq!(b.faults, FaultStats::default());
        assert_eq!(a.trace.log.merged(), b.trace.log.merged());
        assert_eq!(
            a.trace.counters.sorted_counts(),
            b.trace.counters.sorted_counts()
        );
    }

    #[test]
    fn solver_outage_falls_back_for_every_error_kind() {
        let (_, _, wl) = faulty_setup();
        let baseline = {
            let (p, cfg, _) = faulty_setup();
            ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).trace(true)).unwrap()
        };
        for error in [
            LpError::IterationLimit,
            LpError::Infeasible,
            LpError::Unbounded,
        ] {
            // The outage covers several global ticks in the middle of the
            // run; every covered tick must fall back, none may abort.
            let plan = FaultPlan::new(7).with_outage(0.3, 1.0, error.clone());
            let r = run_plan(&plan);
            assert!(
                r.faults.solver_fallbacks >= 1,
                "{error:?}: no fallback recorded"
            );
            assert_eq!(r.total_tasks, baseline.total_tasks, "{error:?}");
            assert_eq!(
                r.faults.injected,
                r.faults.recovered + r.faults.absorbed,
                "{error:?}: unaccounted faults"
            );
            // Degraded, never dead: the run completes in bounded time.
            assert!(
                r.makespan.as_secs_f64() < 10.0 * baseline.makespan.as_secs_f64(),
                "{error:?}: degradation unbounded"
            );
        }
    }

    #[test]
    fn killed_worker_hands_back_tasks_and_cores() {
        // Kill apprank 0's helper mid-run: its queued/in-flight tasks must
        // re-run at home and the run still completes every task.
        let plan = FaultPlan::new(11).with_kill_of(0.35, 0, 1);
        completes_exactly_once(&plan, 1);
        // The same with every other fault kind firing around two kills;
        // each kind demonstrably fired, and the trace agrees with the stats.
        let r = completes_exactly_once(&every_fault_kind(), 2);
        let f = r.faults;
        assert!(f.tasks_requeued >= 1 && f.messages_dropped >= 1, "{f:?}");
        assert!(f.solver_fallbacks >= 1, "{f:?}");
        let count = |pred: fn(&EventKind) -> bool| r.trace.log.count(pred);
        assert_eq!(count(|k| matches!(k, EventKind::StragglerStart { .. })), 1);
        assert_eq!(count(|k| matches!(k, EventKind::StragglerEnd { .. })), 1);
        let killed = count(|k| matches!(k, EventKind::WorkerKilled { .. }));
        assert_eq!(killed, f.workers_killed);
        let fallbacks = count(|k| matches!(k, EventKind::SolverFallback { .. }));
        assert_eq!(fallbacks, f.solver_fallbacks);
    }

    fn completes_exactly_once(plan: &FaultPlan, kills: usize) -> SimReport {
        let r = run_plan(plan);
        assert_eq!(r.faults.workers_killed, kills);
        assert_eq!(r.total_tasks, 4 * 100);
        assert_eq!(r.iteration_times.len(), 4);
        assert_eq!(r.faults.injected, r.faults.recovered + r.faults.absorbed);
        // Exact-once: every created task completed exactly once.
        use std::collections::HashMap as Map;
        let mut completed: Map<(u32, u32, u32), usize> = Map::new();
        for ev in r.trace.log.merged() {
            if let EventKind::TaskCompleted { key, .. } = ev.kind {
                *completed
                    .entry((key.iteration, key.apprank, key.task))
                    .or_default() += 1;
            }
        }
        assert_eq!(completed.len(), r.total_tasks, "tasks lost");
        assert!(
            completed.values().all(|&c| c == 1),
            "a task ran more than once"
        );
        r
    }

    #[test]
    fn seeded_kill_picks_deterministic_victim() {
        let plan = FaultPlan::new(5).with_kill(0.4);
        let a = run_plan(&plan);
        let b = run_plan(&plan);
        assert_eq!(a.faults.workers_killed, 1);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.trace.log.merged(), b.trace.log.merged());
    }

    #[test]
    fn straggler_burst_slows_run_then_recovers() {
        let clean = run_plan(&FaultPlan::none());
        let plan = FaultPlan::new(3).with_straggler(0.2, 0, 4.0, 1.0);
        let r = run_plan(&plan);
        assert!(
            r.makespan > clean.makespan,
            "straggler had no effect: {} vs {}",
            r.makespan,
            clean.makespan
        );
        assert_eq!(r.faults.injected, 1);
        assert_eq!(r.faults.recovered, 1);
        assert_eq!(r.total_tasks, clean.total_tasks);
    }

    #[test]
    fn message_loss_retries_and_fails_over() {
        // Aggressive loss: most offload sends drop; with 2 retries many
        // fail over to the home rank. The run must still complete.
        let plan = FaultPlan::new(17).with_loss(0.0, 1e9, 0.9, 2, 0.002);
        let r = run_plan(&plan);
        assert!(r.faults.messages_dropped > 0, "no drops with rate 0.9");
        assert!(r.faults.message_failovers > 0, "no failovers with rate 0.9");
        assert_eq!(r.total_tasks, 4 * 100);
        assert_eq!(r.faults.injected, r.faults.recovered + r.faults.absorbed);
    }

    #[test]
    fn fault_plan_validation_is_a_setup_error() {
        let (p, cfg, wl) = faulty_setup();
        let bad_node = FaultPlan::new(1).with_straggler(0.1, 99, 2.0, 0.5);
        match ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).faults(&bad_node)) {
            Err(SimError::Shape(msg)) => assert!(msg.contains("out of range"), "{msg}"),
            other => panic!("expected shape error, got {other:?}"),
        }
        let bad_victim = FaultPlan::new(1).with_kill_of(0.1, 0, 0);
        match ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).faults(&bad_victim)) {
            Err(SimError::Shape(msg)) => assert!(msg.contains("helper"), "{msg}"),
            other => panic!("expected shape error, got {other:?}"),
        }
        let bad_rate = FaultPlan::new(1).with_loss(0.0, 1.0, 1.5, 3, 0.001);
        match ClusterSim::execute(RunSpec::new(&p, &cfg, wl).faults(&bad_rate)) {
            Err(SimError::Shape(msg)) => assert!(msg.contains("loss rate"), "{msg}"),
            other => panic!("expected shape error, got {other:?}"),
        }
    }

    /// The fault setup with a full four-strategy portfolio racing on the
    /// global ticks.
    fn portfolio_setup(pool_threads: usize) -> (Platform, BalanceConfig, SpecWorkload) {
        let (p, mut cfg, wl) = faulty_setup();
        cfg.portfolio =
            Some(tlb_portfolio::PortfolioConfig::default().with_pool_threads(pool_threads));
        (p, cfg, wl)
    }

    #[test]
    fn portfolio_run_completes_and_accounts_every_solve() {
        let (p, cfg, wl) = portfolio_setup(1);
        let r = ClusterSim::execute(
            RunSpec::new(&p, &cfg, wl)
                .trace(true)
                .faults(&FaultPlan::none()),
        )
        .unwrap();
        assert_eq!(r.total_tasks, 4 * 100);
        let stats = r.portfolio.expect("portfolio stats missing");
        assert_eq!(stats.solves, r.solver_runs, "one race per solver run");
        assert_eq!(stats.no_winner, 0);
        let wins: usize = Strategy::ALL.iter().map(|&s| stats.of(s).wins).sum();
        assert_eq!(wins, stats.solves, "every race crowned a winner");
        // Every enabled strategy raced every time (nothing demoted in the
        // non-adaptive default).
        for &s in &Strategy::ALL {
            assert_eq!(stats.of(s).attempts, stats.solves, "{}", s.name());
        }
        // Portfolio events landed on the global stream, a pick per race,
        // and no pick scores worse than a candidate of its race.
        let merged = r.trace.log.merged();
        let solves = merged.iter().filter_map(|e| match &e.kind {
            EventKind::PortfolioSolve(rec) => Some(rec),
            _ => None,
        });
        let picks = merged.iter().filter_map(|e| match e.kind {
            EventKind::PortfolioPick { score, .. } => Some(score),
            _ => None,
        });
        assert_eq!(solves.clone().count(), stats.solves);
        assert_eq!(picks.clone().count(), stats.solves);
        for (rec, pick) in solves.zip(picks) {
            let mut scored = rec.candidates.iter().filter(|c| c.score >= 0.0);
            assert!(scored.all(|c| pick <= c.score + 1e-12), "{rec:?}");
        }
    }

    #[test]
    fn portfolio_run_is_bitwise_identical_across_pool_threads() {
        // The race is the one place a run touches the smprt pool, so this
        // is where a thread count could leak into the event stream or,
        // under the second plan, into the fault schedule.
        identical_across_pool_threads(&FaultPlan::none());
        let faulty = identical_across_pool_threads(&every_fault_kind());
        // The same byte identity as in `trace_events_cover_task_lifecycle`,
        // on a run that fires the fault and portfolio kinds too.
        assert_exports(
            &faulty.trace,
            r#"{"drom_ownership_sets":16,"drom_transfers":2,"fault_kills":2,"fault_messages_dropped":9,"fault_outages":1,"fault_stragglers":1,"fault_tasks_requeued":1,"fault_workers_killed":2,"iterations_completed":4,"lewi_lends":34,"lewi_reclaims":17,"portfolio_solves":5,"portfolio_wins_simplex":5,"sched_decisions":468,"solver_fallbacks":2,"solver_invocations":5,"solver_simplex_iterations":25,"steal_attempts":548,"tasks_completed":400,"tasks_created":400,"tasks_held":350,"tasks_offloaded":42,"tasks_ready":400,"tasks_started":400,"tasks_stolen":282} portfolio_race_modelled_ms,solver_modelled_ms,solver_wall_ms"#,
            [
                (338_170, 0x3bc8_b447_ca86_d278),
                (92_246, 0x3a3e_26f7_7f43_70cc),
            ],
        );
    }

    fn identical_across_pool_threads(plan: &FaultPlan) -> SimReport {
        let runs: Vec<SimReport> = [1usize, 2, 4, 8]
            .iter()
            .map(|&threads| {
                let (p, cfg, wl) = portfolio_setup(threads);
                ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true).faults(plan)).unwrap()
            })
            .collect();
        let chrome = crate::trace_to_chrome(&runs[0].trace);
        for r in &runs[1..] {
            assert_eq!(runs[0].makespan, r.makespan);
            assert_eq!(runs[0].iteration_times, r.iteration_times);
            assert_eq!(runs[0].events, r.events);
            assert_eq!(runs[0].faults, r.faults);
            assert_eq!(runs[0].portfolio, r.portfolio);
            assert_eq!(runs[0].trace.log.merged(), r.trace.log.merged());
            assert_eq!(
                runs[0].trace.counters.sorted_counts(),
                r.trace.counters.sorted_counts()
            );
            assert_eq!(chrome, crate::trace_to_chrome(&r.trace));
        }
        runs.into_iter().next().expect("four runs")
    }

    #[test]
    fn portfolio_requires_global_drom() {
        let (p, mut cfg, wl) = portfolio_setup(1);
        cfg.policy = PolicySpec::named("lewi+drom-local").unwrap();
        cfg.dynamic = None;
        match ClusterSim::execute(RunSpec::new(&p, &cfg, wl).faults(&FaultPlan::none())) {
            Err(SimError::Shape(msg)) => assert!(msg.contains("global DROM"), "{msg}"),
            other => panic!("expected shape error, got {other:?}"),
        }
    }

    #[test]
    fn strategy_outage_requires_matching_portfolio() {
        // Strategy-scoped outage without any portfolio: setup error.
        let (p, cfg, wl) = faulty_setup();
        let plan = FaultPlan::new(1).with_strategy_outage(
            0.3,
            1.0,
            LpError::IterationLimit,
            Strategy::Flow,
        );
        match ClusterSim::execute(RunSpec::new(&p, &cfg, wl).faults(&plan)) {
            Err(SimError::Shape(msg)) => assert!(msg.contains("portfolio"), "{msg}"),
            other => panic!("expected shape error, got {other:?}"),
        }
        // Outage of a strategy the portfolio does not race: setup error.
        let (p, mut cfg, wl) = portfolio_setup(1);
        cfg.portfolio = Some(tlb_portfolio::PortfolioConfig::parse("simplex,flow").unwrap());
        let plan = FaultPlan::new(1).with_strategy_outage(
            0.3,
            1.0,
            LpError::IterationLimit,
            Strategy::Greedy,
        );
        match ClusterSim::execute(RunSpec::new(&p, &cfg, wl).faults(&plan)) {
            Err(SimError::Shape(msg)) => assert!(msg.contains("not raced"), "{msg}"),
            other => panic!("expected shape error, got {other:?}"),
        }
    }

    #[test]
    fn strategy_outage_degrades_the_race_then_recovers() {
        let (p, cfg, wl) = portfolio_setup(1);
        // Knock the simplex strategy out over the middle of the run; the
        // remaining three keep the global policy solving (no fallback).
        let plan = FaultPlan::new(1).with_strategy_outage(
            0.3,
            1.0,
            LpError::IterationLimit,
            Strategy::Simplex,
        );
        let r = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true).faults(&plan)).unwrap();
        assert_eq!(r.total_tasks, 4 * 100);
        assert_eq!(r.faults.injected, 1);
        assert_eq!(r.faults.recovered, 1);
        assert_eq!(r.faults.solver_fallbacks, 0, "three strategies remained");
        let stats = r.portfolio.expect("portfolio stats missing");
        assert!(
            stats.of(Strategy::Simplex).attempts < stats.solves,
            "simplex sat out some races: {} of {}",
            stats.of(Strategy::Simplex).attempts,
            stats.solves
        );
        assert_eq!(stats.of(Strategy::Flow).attempts, stats.solves);
    }

    /// Satellite: with *every* strategy fault-disabled over a window, the
    /// portfolio path degrades exactly like a whole-solver outage of the
    /// same window — the PR 3 fallback ladder, bit for bit. The outage
    /// events themselves necessarily differ (four injections vs one, and
    /// with them the sequence numbers on the global stream), so the
    /// comparison is of every other event, by time, stream and payload.
    #[test]
    fn all_strategies_down_matches_whole_solver_outage_bitwise() {
        let mut all_down = FaultPlan::new(1);
        for &s in &Strategy::ALL {
            all_down = all_down.with_strategy_outage(0.3, 1.0, LpError::Infeasible, s);
        }
        let whole = FaultPlan::new(1).with_outage(0.3, 1.0, LpError::Infeasible);
        let run = |plan: &FaultPlan| {
            let (p, cfg, wl) = portfolio_setup(1);
            ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true).faults(plan)).unwrap()
        };
        let a = run(&all_down);
        let b = run(&whole);
        assert!(a.faults.solver_fallbacks >= 1, "outage covered no tick");
        assert_eq!(a.faults.solver_fallbacks, b.faults.solver_fallbacks);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.iteration_times, b.iteration_times);
        assert_eq!(a.total_tasks, b.total_tasks);
        let beside_outages = |r: &SimReport| {
            let events = r.trace.log.merged().into_iter();
            events
                .filter(|e| !matches!(e.kind, EventKind::SolverOutage { .. }))
                .map(|e| (e.at, e.stream, e.kind))
                .collect::<Vec<_>>()
        };
        assert_eq!(beside_outages(&a), beside_outages(&b));
    }
}
