//! Balance ticks: the local convergence policy, the global tick (signal
//! view → policy hook → solver or fallback ladder → dynamic spreading)
//! and the application of a new core ownership.

use super::{Ev, State};
use crate::Workload;
use tlb_core::{
    allocate_living, DynamicSpreading, GlobalAction, LocalPolicy, SignalView, WorkSignal,
};
use tlb_des::{Ctx, SimTime};
use tlb_dlb::ProcId;
use tlb_linprog::{AllocationSolution, LpError};
use tlb_portfolio::Strategy;
use tlb_trace::{EventKind, FallbackReason, TraceLog, GLOBAL_STREAM};

/// Dynamic spreading spawns helpers only when the solved bound exceeds
/// the machine-wide mean load by this factor (10 % above perfect balance).
const OVERLOAD_THRESHOLD: f64 = 1.1;

impl<W: Workload> State<W> {
    pub(super) fn local_tick(&mut self, ctx: &mut Ctx<Ev>) {
        if self.finished {
            return;
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
            let counts = if self.layout.alive()[node].contains(&false) {
                self.ownership_among_living(node, &busy)
            } else {
                let current: Vec<usize> = (0..busy.len())
                    .map(|p| self.dlbs[node].owned_count(ProcId(p)))
                    .collect();
                LocalPolicy::ownership(self.platform.cores_per_node, &busy, &current)
            };
            if let Err(e) = self.dlbs[node].set_ownership(&counts) {
                self.fail(format!(
                    "local policy produced invalid counts for node {node}: {e}"
                ));
                return;
            }
            if self.trace.events() {
                self.pump_dlb(now, node);
            }
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
        let alive = &self.layout.alive()[node];
        let living = || (0..alive.len()).filter(|&p| alive[p]);
        let target = self.dlbs[node].target_ownership();
        let sub_busy: Vec<f64> = living()
            .map(|p| busy.get(p).copied().unwrap_or(0.0))
            .collect();
        let sub_cur: Vec<usize> = living().map(|p| target[p]).collect();
        let sub = LocalPolicy::ownership(self.platform.cores_per_node, &sub_busy, &sub_cur);
        let mut counts = vec![0usize; alive.len()];
        for (p, c) in living().zip(sub) {
            counts[p] = c;
        }
        counts
    }

    /// Deterministic model of the global solve cost: the paper measures
    /// ≈57 ms at 32 nodes and quadratic growth with graph size.
    fn solver_cost(&self) -> SimTime {
        let scale = self.platform.nodes as f64 / 32.0;
        SimTime::from_secs_f64((0.057 * scale * scale).max(0.001))
    }

    pub(super) fn global_tick(&mut self, ctx: &mut Ctx<Ev>) {
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
        let totals: Vec<Vec<f64>> = self
            .talps
            .iter()
            .map(|talp| (0..talp.procs()).map(|p| talp.total(p, now)).collect())
            .collect();
        let deltas: Vec<Vec<f64>> = std::iter::zip(&totals, &self.last_total)
            .map(|(total, last)| std::iter::zip(total, last).map(|(t, l)| t - l).collect())
            .collect();
        self.last_total = totals;
        let mut work = vec![0.0f64; self.appranks.len()];
        for (w, placed) in work.iter_mut().zip(self.layout.placement()) {
            for &(node, proc) in placed {
                *w += deltas[node][proc];
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
        // is already measured (TALP deltas, demand, current ownership
        // targets) or read straight off the worker table (placement,
        // liveness) — the view adds no new instrumentation.
        let ownership: Vec<Vec<usize>> = (0..self.platform.nodes)
            .map(|n| self.dlbs[n].target_ownership())
            .collect();
        let view = SignalView {
            window_secs: self.config.global_period.as_secs_f64(),
            cores_per_node: self.platform.cores_per_node,
            node_speed: &self.platform.node_speed,
            work: &work,
            busy: &deltas,
            placement: self.layout.placement(),
            ownership: &ownership,
            alive: self.layout.alive(),
        };
        match self.balance_policy.on_global_tick(&view) {
            GlobalAction::Keep => ctx.schedule_in(self.config.global_period, Ev::GlobalTick),
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
                self.finish_global_tick(ctx, cost, per_node);
            }
            GlobalAction::Solve => self.solver_tick(ctx, now, wall_start, work, &deltas),
        }
    }

    /// The solver's share of a global tick: solve for `work`, let dynamic
    /// spreading react to the solution, and turn the outcome — an
    /// allocation, or the degradation ladder over this tick's `deltas` —
    /// into the next ownership.
    fn solver_tick(
        &mut self,
        ctx: &mut Ctx<Ev>,
        now: SimTime,
        wall_start: Option<std::time::Instant>,
        work: Vec<f64>,
        deltas: &[Vec<f64>],
    ) {
        let mut solved = self.solve_global(&work);
        // Dynamic work spreading (paper §5.2 future work): the solved bound
        // identifies capacity-constrained appranks; spawn helpers for them
        // and re-solve so the new capacity is used immediately.
        if let (Ok(solution), Some(dynamic)) = (&solved, self.config.dynamic) {
            if self.maybe_spawn_helpers(now, &work, solution, dynamic) {
                solved = self.solve_global(&work);
            }
        }
        // A failed solve still charges its modelled cost — a timeout burns
        // the full budget before the runtime gives up on it.
        let cost = self.solver_cost();
        self.solver_time += cost;
        let per_node = match solved {
            Ok(solution) => {
                self.solver_runs += 1;
                if wall_start.is_some() {
                    let iterations = solution.iterations as u64;
                    self.trace.count("solver_simplex_iterations", iterations);
                    let ev = EventKind::SolverInvoked(Box::new(tlb_trace::SolverRecord {
                        demand: work,
                        cores: solution.cores.iter().map(|row| row.iter().sum()).collect(),
                        simplex_iterations: solution.iterations,
                        objective: solution.objective,
                        modelled_cost: cost,
                    }));
                    self.trace.emit(GLOBAL_STREAM, now, ev);
                }
                self.layout.counts_by_node(&solution.cores)
            }
            // The solver failed mid-run (injected outage or a real LP
            // error). Degradation ladder instead of aborting: LeWI keeps
            // lending idle cores; each node falls back to the local
            // convergence policy on this tick's TALP deltas; a node with
            // no measured work keeps its last-good allocation (the local
            // policy returns `current` when the window is idle).
            Err(reason) => {
                self.faults.stats.solver_fallbacks += 1;
                if wall_start.is_some() {
                    let ev = EventKind::SolverFallback { reason };
                    self.trace.emit(GLOBAL_STREAM, now, ev);
                }
                (0..self.platform.nodes)
                    .map(|node| self.ownership_among_living(node, &deltas[node]))
                    .collect()
            }
        };
        if let Some(t0) = wall_start {
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            self.trace.gauge("solver_wall_ms", wall_ms);
            self.trace
                .gauge("solver_modelled_ms", cost.as_secs_f64() * 1e3);
        }
        self.finish_global_tick(ctx, cost, per_node);
    }

    /// The epilogue of every global tick that changes ownership: the new
    /// map takes effect after the `cost` of deciding or shipping it, and
    /// the next tick is one period away.
    fn finish_global_tick(&mut self, ctx: &mut Ctx<Ev>, cost: SimTime, per_node: Vec<Vec<usize>>) {
        ctx.schedule_in(cost, Ev::ApplyOwnership { per_node });
        ctx.schedule_in(self.config.global_period, Ev::GlobalTick);
    }

    /// One global allocation solve over the worker table's living
    /// workers: the injected error while a solver outage is open, else
    /// the configured solver. Failures of any kind come back as the
    /// reason the caller's degradation ladder records.
    fn solve_global(&self, work: &[f64]) -> Result<AllocationSolution, FallbackReason> {
        if let Some(err) = &self.faults.outage_error {
            return Err(fallback_reason(err));
        }
        let strategy = Strategy::from(self.config.solver);
        allocate_living(&self.layout, &self.platform, work, strategy)
            .map_err(|e| fallback_reason(&e))
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
        now: SimTime,
        work: &[f64],
        solution: &AllocationSolution,
        dynamic: DynamicSpreading,
    ) -> bool {
        let total_work: f64 = work.iter().sum();
        if total_work <= 1e-12 {
            return false;
        }
        let mean_load = total_work / self.platform.effective_capacity();
        if solution.objective <= OVERLOAD_THRESHOLD * mean_load {
            return false; // the static graph already balances well enough
        }
        // Node load under the solved split (pressure to avoid).
        let mut node_pressure = vec![0.0f64; self.platform.nodes];
        for (shares, placed) in solution.work_share.iter().zip(self.layout.placement()) {
            for (&w, &(node, _)) in shares.iter().zip(placed) {
                node_pressure[node] += w;
            }
        }
        let mut spawned = false;
        for (a, w) in work.iter().enumerate() {
            let placed = &self.layout.placement()[a];
            if placed.len() >= dynamic.max_degree {
                continue;
            }
            let cores: usize = solution.cores[a].iter().sum();
            // Binding apprank: its solved ratio sits at the objective.
            if *w / (cores as f64) < 0.98 * solution.objective {
                continue;
            }
            // Least-pressured node this apprank cannot reach yet, with
            // worker headroom.
            let pressure = |n: usize| node_pressure[n] / self.platform.node_speed[n];
            let candidate = (0..self.platform.nodes)
                .filter(|&n| placed.iter().all(|&(node, _)| node != n))
                .filter(|&n| self.layout.workers_on(n).len() < self.platform.cores_per_node)
                .min_by(|&x, &y| pressure(x).total_cmp(&pressure(y)).then(x.cmp(&y)));
            if let Some(n) = candidate {
                node_pressure[n] += *w / placed.len() as f64;
                self.spawn_worker(now, a, n);
                spawned = true;
            }
        }
        spawned
    }

    pub(super) fn apply_ownership(&mut self, ctx: &mut Ctx<Ev>, per_node: Vec<Vec<usize>>) {
        if self.finished {
            return;
        }
        for (node, counts) in per_node.iter().enumerate() {
            // An allocation computed before a worker on this node died may
            // still assign it cores; drop the stale update (the next tick
            // sees the post-kill state).
            let alive = &self.layout.alive()[node];
            if counts.iter().zip(alive).any(|(&c, &alive)| c > 0 && !alive) {
                continue;
            }
            if let Err(e) = self.dlbs[node].set_ownership(counts) {
                self.fail(format!(
                    "solver produced invalid counts for node {node}: {e}"
                ));
                return;
            }
            if self.trace.events() {
                self.pump_dlb(ctx.now(), node);
            }
        }
        self.drain_holds(ctx);
        for node in 0..self.platform.nodes {
            self.try_start_node(ctx, node);
        }
    }
}

/// The trace's name for a solver failure.
fn fallback_reason(err: &LpError) -> FallbackReason {
    match err {
        LpError::IterationLimit => FallbackReason::IterationLimit,
        LpError::Infeasible => FallbackReason::Infeasible,
        LpError::Unbounded => FallbackReason::Unbounded,
        _ => FallbackReason::Other,
    }
}
