//! Fault injection: the plan's run-time state, its seeded draws, and the
//! handlers of its events. With faults active the runtime degrades
//! instead of dying (see `RunSpec::faults`).

use super::{Ev, Inst, State};
use crate::fault::MIN_SPEED_FACTOR;
use crate::{FaultKind, FaultPlan, FaultStats, Trace, Workload};
use tlb_des::{Ctx, SimTime, Simulator};
use tlb_linprog::LpError;
use tlb_rng::Rng;
use tlb_trace::{EventKind, TaskKey, TraceLog, GLOBAL_STREAM};

/// Everything the fault machinery keeps between events.
pub(super) struct Faults {
    plan: FaultPlan,
    /// Node speed excluding straggler effects (noise-scaled, fixed at
    /// setup); `platform.node_speed` is this times the active straggler
    /// factors.
    base_speed: Vec<f64>,
    /// Speed multipliers (< 1) of the straggler bursts currently active
    /// on each node. Empty ⇒ the node runs at `base_speed` exactly.
    straggler_factors: Vec<Vec<f64>>,
    /// Plan indices of the solver outage windows currently open, in the
    /// order they opened.
    open_outages: Vec<usize>,
    pub(super) stats: FaultStats,
}

impl Faults {
    pub(super) fn new(plan: FaultPlan, base_speed: Vec<f64>) -> Self {
        Faults {
            plan,
            straggler_factors: vec![Vec::new(); base_speed.len()],
            base_speed,
            open_outages: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Put the plan's start events on the queue, in plan order, so faults
    /// that start at the same instant fire in the order the spec gives
    /// them. Loss and delay windows are read at send time instead
    /// ([`Faults::draw_send`]).
    pub(super) fn schedule(&self, sim: &mut Simulator<Ev>) {
        for (i, f) in self.plan.faults.iter().enumerate() {
            if !matches!(f.kind, FaultKind::Loss { .. } | FaultKind::Delay { .. }) {
                sim.schedule_at(f.start, Ev::FaultStart(i));
            }
        }
    }

    /// The error the solver reports now: that of the most recently
    /// opened outage window still open, if any.
    pub(super) fn outage_error(&self) -> Option<&LpError> {
        let &i = self.open_outages.last()?;
        match &self.plan.faults[i].kind {
            FaultKind::Outage { error } => Some(error),
            _ => None,
        }
    }

    /// What the offload control path does to one send at `now`: the
    /// delay added to the transfer (degraded link plus retry backoff) and
    /// whether the retries ran out, in which case the task runs at home.
    /// Drop draws come from a per-task RNG substream keyed on
    /// `(iteration, apprank, task)`, so the schedule is reproducible
    /// regardless of what else the simulation does.
    pub(super) fn draw_send(
        &mut self,
        trace: &mut Trace,
        now: SimTime,
        key: TaskKey,
        home: usize,
        to_node: usize,
    ) -> (SimTime, bool) {
        let mut penalty = SimTime::ZERO;
        let mut loss = None;
        let faults = self.plan.faults.iter();
        for f in faults.filter(|f| f.start <= now && now < f.end) {
            match f.kind {
                FaultKind::Delay { extra } => penalty += extra,
                FaultKind::Loss {
                    rate,
                    max_retries,
                    backoff,
                } if rate > 0.0 => loss = Some((rate, max_retries, backoff)),
                _ => {}
            }
        }
        let Some((rate, max_retries, backoff)) = loss else {
            return (penalty, false);
        };
        let to_node = to_node as u32;
        let label =
            ((key.iteration as u64) << 40) ^ ((key.apprank as u64) << 20) ^ (key.task as u64);
        let mut stream = Rng::seed_from_u64(self.plan.seed)
            .split("loss")
            .split_u64(label);
        let mut dropped = 0u32;
        // Each pass is one attempt; leaving the loop means it crossed the wire.
        while stream.chance(rate) {
            self.stats.injected += 1;
            self.stats.messages_dropped += 1;
            if trace.events() {
                let ev = EventKind::MessageDropped {
                    key,
                    to_node,
                    attempt: dropped,
                };
                trace.emit(TraceLog::node_stream(home), now, ev);
            }
            dropped += 1;
            if dropped > max_retries {
                // Retries exhausted: consciously absorb the fault by
                // running the task at home.
                self.stats.absorbed += 1;
                self.stats.message_failovers += 1;
                if trace.events() {
                    let ev = EventKind::MessageFailover {
                        key,
                        to_node,
                        attempts: dropped,
                    };
                    trace.emit(TraceLog::node_stream(home), now, ev);
                }
                return (penalty, true);
            }
            // The retry is the recovery: backoff grows linearly.
            self.stats.recovered += 1;
            penalty += backoff.scale(dropped as f64);
        }
        (penalty, false)
    }
}

impl<W: Workload> State<W> {
    /// Recompute a node's effective speed from its base speed and any
    /// active straggler bursts; the next global solve reads it off the
    /// platform. The stacked factors are floored, so no plan can stop a
    /// node.
    fn refresh_speed(&mut self, node: usize) {
        let stacked: f64 = self.faults.straggler_factors[node].iter().product();
        let speed = self.faults.base_speed[node] * stacked.max(MIN_SPEED_FACTOR);
        self.platform.node_speed[node] = speed;
    }

    /// Fault `i` of the plan starts.
    pub(super) fn fault_start(&mut self, ctx: &mut Ctx<Ev>, i: usize) {
        match self.faults.plan.faults[i].kind {
            FaultKind::Straggler { node, slowdown } => self.straggler_start(ctx, i, node, slowdown),
            FaultKind::Kill { victim } => self.handle_kill(ctx, i, victim),
            FaultKind::Outage { .. } => self.outage_start(ctx, i),
            FaultKind::Loss { .. } | FaultKind::Delay { .. } => {}
        }
    }

    /// Fault `i` of the plan ends; only windows whose start scheduled an
    /// end get here.
    pub(super) fn fault_end(&mut self, ctx: &mut Ctx<Ev>, i: usize) {
        match self.faults.plan.faults[i].kind {
            FaultKind::Straggler { node, slowdown } => self.straggler_end(ctx, node, slowdown),
            FaultKind::Outage { .. } => self.outage_end(ctx, i),
            _ => {}
        }
    }

    /// Straggler burst `i` begins: its node's speed drops by `slowdown`.
    fn straggler_start(&mut self, ctx: &mut Ctx<Ev>, i: usize, node: usize, slowdown: f64) {
        self.faults.stats.injected += 1;
        self.trace.count("fault_stragglers", 1);
        if self.finished {
            // Burst past the end of the run: trivially recovered.
            self.faults.stats.recovered += 1;
            return;
        }
        self.faults.straggler_factors[node].push(1.0 / slowdown);
        self.refresh_speed(node);
        if self.trace.events() {
            let ev = EventKind::StragglerStart {
                node: node as u32,
                factor: slowdown,
            };
            self.trace.emit(TraceLog::node_stream(node), ctx.now(), ev);
        }
        ctx.schedule_at(self.faults.plan.faults[i].end, Ev::FaultEnd(i));
        self.drain_holds(ctx);
        self.try_start_node(ctx, node);
    }

    /// A straggler burst on `node` ends: restore its node's speed.
    fn straggler_end(&mut self, ctx: &mut Ctx<Ev>, node: usize, slowdown: f64) {
        let factor = 1.0 / slowdown;
        let factors = &mut self.faults.straggler_factors[node];
        if let Some(pos) = factors.iter().position(|f| f.to_bits() == factor.to_bits()) {
            factors.remove(pos);
        }
        self.refresh_speed(node);
        self.faults.stats.recovered += 1;
        if self.trace.events() {
            let ev = EventKind::StragglerEnd { node: node as u32 };
            self.trace.emit(TraceLog::node_stream(node), ctx.now(), ev);
        }
        if !self.finished {
            self.drain_holds(ctx);
            self.try_start_node(ctx, node);
        }
    }

    /// Kill `i` of the plan fires. Picks a victim (explicit, or seeded by
    /// the kill's ordinal among the plan's kills) and retires it; with no
    /// living helper left the fault is absorbed.
    fn handle_kill(&mut self, ctx: &mut Ctx<Ev>, i: usize, victim: Option<(usize, usize)>) {
        self.faults.stats.injected += 1;
        self.trace.count("fault_kills", 1);
        if self.finished {
            self.faults.stats.absorbed += 1;
            return;
        }
        let placement = self.layout.placement();
        let alive = self.layout.alive();
        let living_helper = |a: usize, k: usize| {
            k >= 1
                && placement
                    .get(a)
                    .and_then(|placed| placed.get(k))
                    .is_some_and(|&(node, proc)| alive[node][proc])
        };
        let victim = match victim {
            Some((a, k)) => living_helper(a, k).then_some((a, k)),
            None => {
                let living: Vec<(usize, usize)> = (0..placement.len())
                    .flat_map(|a| (1..placement[a].len()).map(move |k| (a, k)))
                    .filter(|&(a, k)| living_helper(a, k))
                    .collect();
                let faults = &self.faults.plan.faults[..i];
                let ordinal = faults
                    .iter()
                    .filter(|f| matches!(f.kind, FaultKind::Kill { .. }))
                    .count();
                let mut stream = Rng::seed_from_u64(self.faults.plan.seed)
                    .split("kill")
                    .split_u64(ordinal as u64);
                stream.pick(&living).copied()
            }
        };
        let Some((apprank, slot)) = victim else {
            // Nothing left to kill (or the named victim is already dead):
            // consciously absorbed.
            self.faults.stats.absorbed += 1;
            return;
        };
        self.kill_worker(ctx, apprank, slot);
    }

    /// Retire one helper worker: take it out of the table, DLB and the
    /// global allocation, and re-enqueue its queued tasks at home; the
    /// `Arrive` handler bounces the in-flight ones when they land. Tasks
    /// already running finish on their held cores (fail-stop after the
    /// current task), which preserves exact-once execution.
    fn kill_worker(&mut self, ctx: &mut Ctx<Ev>, apprank: usize, slot: usize) {
        let now = ctx.now();
        let w = self.worker(apprank, slot);
        if !self.retire_worker(w) {
            return;
        }
        let worker = &mut self.appranks[apprank].workers[slot];
        let queued: Vec<Inst> = worker.queued.drain(..).collect();
        // The trace event reports everything the death displaces: the
        // queue drained here plus the in-flight payloads.
        let requeued = queued.len() + worker.in_flight;
        for inst in queued {
            let delay = self.transfer_time(inst.bytes);
            self.requeue_home(ctx, apprank, inst, delay);
        }
        self.faults.stats.workers_killed += 1;
        self.faults.stats.recovered += 1;
        if self.trace.events() {
            let ev = EventKind::WorkerKilled {
                apprank: apprank as u32,
                node: w.node as u32,
                proc: w.proc.0 as u32,
                requeued: requeued as u32,
            };
            self.trace.emit(TraceLog::node_stream(w.node), now, ev);
            self.pump_dlb(now, w.node);
        }
        // Freed cores may serve the survivors immediately.
        self.drain_holds(ctx);
        self.try_start_node(ctx, w.node);
    }

    /// Outage window `i` opens: every global tick inside it sees the
    /// injected error and takes the fallback ladder.
    fn outage_start(&mut self, ctx: &mut Ctx<Ev>, i: usize) {
        self.faults.stats.injected += 1;
        self.trace.count("fault_outages", 1);
        if self.finished {
            self.faults.stats.recovered += 1;
            return;
        }
        self.faults.open_outages.push(i);
        if self.trace.events() {
            let ev = EventKind::SolverOutage { active: true };
            self.trace.emit(GLOBAL_STREAM, ctx.now(), ev);
        }
        ctx.schedule_at(self.faults.plan.faults[i].end, Ev::FaultEnd(i));
    }

    /// Outage window `i` closes; the solver is back once every open
    /// window has closed, and until then reports the error of the latest
    /// one still open.
    fn outage_end(&mut self, ctx: &mut Ctx<Ev>, i: usize) {
        self.faults.open_outages.retain(|&open| open != i);
        self.faults.stats.recovered += 1;
        if self.trace.events() {
            let ev = EventKind::SolverOutage { active: false };
            self.trace.emit(GLOBAL_STREAM, ctx.now(), ev);
        }
    }
}
