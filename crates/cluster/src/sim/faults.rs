//! Fault injection: the plan's run-time state, its seeded draws, and the
//! handlers of its events. With faults active the runtime degrades
//! instead of dying (see `RunSpec::faults`).

use super::{Ev, Inst, State};
use crate::fault::MIN_SPEED_FACTOR;
use crate::{FaultPlan, FaultStats, Trace, Workload};
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

    /// Put the plan's events on the queue.
    pub(super) fn schedule(&self, sim: &mut Simulator<Ev>) {
        for (i, s) in self.plan.stragglers.iter().enumerate() {
            sim.schedule_at(s.at, Ev::FaultStraggler(i));
        }
        for (i, k) in self.plan.kills.iter().enumerate() {
            sim.schedule_at(k.at, Ev::FaultKill(i));
        }
        for (i, o) in self.plan.outages.iter().enumerate() {
            sim.schedule_at(o.at, Ev::FaultOutage(i));
        }
    }

    /// The error the solver reports now: that of the most recently
    /// opened outage window still open, if any.
    pub(super) fn outage_error(&self) -> Option<&LpError> {
        let &i = self.open_outages.last()?;
        Some(&self.plan.outages[i].error)
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
        if let Some(d) = &self.plan.delay {
            if now >= d.from && now < d.until {
                penalty += d.extra;
            }
        }
        let Some(l) = &self.plan.loss else {
            return (penalty, false);
        };
        if !(now >= l.from && now < l.until && l.rate > 0.0) {
            return (penalty, false);
        }
        let to_node = to_node as u32;
        let label =
            ((key.iteration as u64) << 40) ^ ((key.apprank as u64) << 20) ^ (key.task as u64);
        let mut stream = Rng::seed_from_u64(self.plan.seed)
            .split("loss")
            .split_u64(label);
        let mut dropped = 0u32;
        // Each pass is one attempt; leaving the loop means it crossed the wire.
        while stream.chance(l.rate) {
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
            if dropped > l.max_retries {
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
            penalty += l.backoff.scale(dropped as f64);
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

    /// Straggler burst `i` begins: its node's speed drops by `slowdown`.
    pub(super) fn handle_straggler(&mut self, ctx: &mut Ctx<Ev>, i: usize) {
        let burst = &self.faults.plan.stragglers[i];
        let (node, slowdown, duration) = (burst.node, burst.slowdown, burst.duration);
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
        ctx.schedule_in(duration, Ev::FaultStragglerEnd(i));
        self.drain_holds(ctx);
        self.try_start_node(ctx, node);
    }

    /// Straggler burst `i` ends: restore its node's speed.
    pub(super) fn handle_straggler_end(&mut self, ctx: &mut Ctx<Ev>, i: usize) {
        let burst = &self.faults.plan.stragglers[i];
        let (node, slowdown) = (burst.node, burst.slowdown);
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

    /// Kill `i` of the plan fires. Picks a victim (explicit or seeded by
    /// `i`) and retires it; with no living helper left the fault is
    /// absorbed.
    pub(super) fn handle_kill(&mut self, ctx: &mut Ctx<Ev>, i: usize) {
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
        let victim = match self.faults.plan.kills[i].victim {
            Some((a, k)) => living_helper(a, k).then_some((a, k)),
            None => {
                let living: Vec<(usize, usize)> = (0..placement.len())
                    .flat_map(|a| (1..placement[a].len()).map(move |k| (a, k)))
                    .filter(|&(a, k)| living_helper(a, k))
                    .collect();
                let mut stream = Rng::seed_from_u64(self.faults.plan.seed)
                    .split("kill")
                    .split_u64(i as u64);
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
    pub(super) fn handle_outage(&mut self, ctx: &mut Ctx<Ev>, i: usize) {
        let outage = &self.faults.plan.outages[i];
        let duration = outage.duration;
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
        ctx.schedule_in(duration, Ev::FaultOutageEnd(i));
    }

    /// Outage window `i` closes; the solver is back once every open
    /// window has closed, and until then reports the error of the latest
    /// one still open.
    pub(super) fn handle_outage_end(&mut self, ctx: &mut Ctx<Ev>, i: usize) {
        self.faults.open_outages.retain(|&open| open != i);
        self.faults.stats.recovered += 1;
        if self.trace.events() {
            let ev = EventKind::SolverOutage { active: false };
            self.trace.emit(GLOBAL_STREAM, ctx.now(), ev);
        }
    }
}
