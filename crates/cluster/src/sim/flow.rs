//! Task flow: a task's way from creation at its home apprank, through
//! the scheduling decision (§5.5) and the send, onto a core and to its
//! end — plus the iteration boundaries and the MPI messages between.
//!
//! Ready tasks reach the scheduler in batches: an iteration's initially
//! ready tasks, or the successors one completion releases. A batch is
//! decided task by task until its first Hold; every later offloadable
//! task goes straight onto the hold queue with the same Queued record,
//! because the scheduler would hold it again: inside a batch no core
//! changes hands and no worker dies, so capacities stand still while
//! loads only grow, and a saturated candidate stays saturated. (On the
//! 32-node benchmark run that skips 141,056 of 155,459 decisions.)
//! Pinned and MPI tasks are still decided; they go home regardless.
//! Deciding, dispatching and ending a task read its [`TaskKind`] byte;
//! the `TaskSpec` is read to build its instance and for an MPI message.

use super::{Ev, State, Worker};
use crate::collective::barrier_cost;
use crate::{MpiOp, TaskSpec, Workload};
use std::collections::VecDeque;
use std::sync::Arc;
use tlb_core::{
    choose_node_explained, steal_allowed, CandidateState, ChoiceReason, Placement,
    QUEUE_DEPTH_PER_CORE,
};
use tlb_des::{Ctx, SimTime};
use tlb_dlb::ProcId;
use tlb_tasking::{TaskDef, TaskGraph, TaskId};
use tlb_trace::{DecisionReason, EventKind, TaskKey, TraceLog, GLOBAL_STREAM};

/// Progress of a point-to-point message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum MsgState {
    /// Send completed; payload on the wire.
    InFlight,
    /// Payload arrived; a matching recv may run.
    Arrived,
}

/// What deciding, dispatching and ending a task need of its spec: may it
/// leave home, and is it pinned for an MPI send or receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum TaskKind {
    Offloadable,
    Pinned,
    Send,
    Recv,
}

impl TaskKind {
    fn of(spec: &TaskSpec) -> Self {
        match spec.mpi() {
            Some(MpiOp::Send { .. }) => TaskKind::Send,
            Some(MpiOp::Recv { .. }) => TaskKind::Recv,
            None if spec.offloadable => TaskKind::Offloadable,
            None => TaskKind::Pinned,
        }
    }
}

/// A task instance in flight through the runtime.
#[derive(Clone, Debug)]
pub(super) struct Inst {
    pub(super) tid: TaskId,
    pub(super) duration: f64,
    pub(super) bytes: usize,
}

/// The task-side state of one worker process.
#[derive(Debug, Default)]
pub(super) struct WorkerState {
    /// Tasks whose data has arrived, waiting for a core.
    pub(super) queued: VecDeque<Inst>,
    /// Tasks executing right now.
    running: usize,
    /// Tasks dispatched to this worker whose transfer is still in flight.
    pub(super) in_flight: usize,
}

impl WorkerState {
    fn load(&self) -> usize {
        self.queued.len() + self.running + self.in_flight
    }
}

/// Per-apprank runtime state for the current iteration.
pub(super) struct ApprankState {
    /// Reused from iteration to iteration through `TaskGraph::clear`.
    graph: TaskGraph,
    /// The workload's list for this iteration, shared with it.
    specs: Arc<[TaskSpec]>,
    /// `kinds[t]` = `TaskKind::of(&specs[t])`.
    kinds: Vec<TaskKind>,
    /// Ready tasks held back by the scheduler, awaiting stealing.
    pub(super) hold: VecDeque<Inst>,
    done: usize,
    total: usize,
    iteration_done: bool,
    pub(super) workers: Vec<WorkerState>,
}

impl ApprankState {
    /// An apprank between iterations, with `workers` worker processes.
    pub(super) fn new(workers: usize) -> Self {
        ApprankState {
            graph: TaskGraph::new(),
            specs: Arc::default(),
            kinds: Vec::new(),
            hold: VecDeque::new(),
            done: 0,
            total: 0,
            iteration_done: false,
            workers: (0..workers).map(|_| WorkerState::default()).collect(),
        }
    }
}

impl<W: Workload> State<W> {
    /// Send a task back to its home worker after its remote destination
    /// became unreachable (worker death or offload-message failover). The
    /// payload arrives after `delay`.
    pub(super) fn requeue_home(
        &mut self,
        ctx: &mut Ctx<Ev>,
        apprank: usize,
        inst: Inst,
        delay: SimTime,
    ) {
        self.faults.stats.tasks_requeued += 1;
        self.trace.count("fault_tasks_requeued", 1);
        self.ship(ctx, apprank, 0, inst, delay);
    }

    /// Put `inst` on the wire to its apprank's slot-`slot` worker, where
    /// it lands after `delay`.
    fn ship(&mut self, ctx: &mut Ctx<Ev>, apprank: usize, slot: usize, inst: Inst, delay: SimTime) {
        self.appranks[apprank].workers[slot].in_flight += 1;
        ctx.schedule_in(
            delay,
            Ev::Arrive {
                apprank,
                slot,
                inst,
            },
        );
    }

    /// Ship a dispatched task to its chosen worker, modelling transfer
    /// time plus any active message-delay/loss faults on the offload
    /// control path.
    fn send_task(&mut self, ctx: &mut Ctx<Ev>, apprank: usize, slot: usize, inst: Inst) {
        let mut delay = SimTime::ZERO;
        if slot != 0 {
            let now = ctx.now();
            let key = self.task_key(apprank, inst.tid);
            let home = self.layout.node_of(apprank, 0);
            let to_node = self.layout.node_of(apprank, slot);
            let (penalty, failover) =
                self.faults
                    .draw_send(&mut self.trace, now, key, home, to_node);
            delay = self.transfer_time(inst.bytes) + penalty;
            if failover {
                self.requeue_home(ctx, apprank, inst, delay);
                return;
            }
            if self.trace.events() {
                self.note_offload(now, key, home, to_node, false);
            }
        }
        self.ship(ctx, apprank, slot, inst, delay);
    }

    /// A dispatched task lands at its worker.
    pub(super) fn handle_arrive(
        &mut self,
        ctx: &mut Ctx<Ev>,
        apprank: usize,
        slot: usize,
        inst: Inst,
    ) {
        let w = self.worker(apprank, slot);
        self.appranks[apprank].workers[slot].in_flight -= 1;
        if !self.is_alive(w) {
            // The destination died while the payload was on the wire:
            // bounce it back to the home rank, paying the return transfer.
            let delay = self.transfer_time(inst.bytes);
            self.requeue_home(ctx, apprank, inst, delay);
            return;
        }
        self.appranks[apprank].workers[slot].queued.push_back(inst);
        self.try_start_worker(ctx, w);
        self.record_node(ctx.now(), w.node);
    }

    /// A point-to-point message has crossed the wire.
    pub(super) fn handle_msg_deliver(
        &mut self,
        ctx: &mut Ctx<Ev>,
        from: usize,
        to: usize,
        tag: u64,
    ) {
        let key = (from, to, tag);
        let prev = self.messages.insert(key, MsgState::Arrived);
        if !(prev.is_none() || prev == Some(MsgState::InFlight)) {
            self.fail(format!("message {key:?} delivered twice"));
            return;
        }
        if let Some(inst) = self.waiting_recvs.remove(&key) {
            // The receiver had already posted the recv: run it
            // (dispatch consumes the Arrived entry).
            self.dispatch(ctx, to, inst);
        }
    }

    /// Record a task becoming ready (at submission or when its last
    /// predecessor completed). Like the other `note_*`, called only when
    /// events record.
    fn note_ready(&mut self, now: SimTime, apprank: usize, tid: TaskId) {
        let key = self.task_key(apprank, tid);
        let home = self.layout.node_of(apprank, 0);
        let ev = EventKind::TaskReady { key };
        self.trace.emit(TraceLog::node_stream(home), now, ev);
    }

    /// Record a task leaving its home node (eagerly or via stealing).
    fn note_offload(
        &mut self,
        now: SimTime,
        key: TaskKey,
        from_node: usize,
        to_node: usize,
        stolen: bool,
    ) {
        let ev = EventKind::TaskOffloaded {
            key,
            from_node: from_node as u32,
            to_node: to_node as u32,
            stolen,
        };
        self.trace.emit(TraceLog::node_stream(from_node), now, ev);
    }

    /// What the scheduler sees of worker `w` right now.
    fn candidate(&self, w: Worker) -> CandidateState {
        let owned = self.dlbs[w.node].owned_count(w.proc);
        let used = self.dlbs[w.node].used_count(w.proc);
        CandidateState {
            node: w.node,
            queued_tasks: self.appranks[w.apprank].workers[w.slot].load(),
            owned_cores: owned,
            usable_cores: used.max(owned),
        }
    }

    /// The one record of a scheduling decision: the home worker's state,
    /// the chosen candidate's (`None` = the task is held) and why, on
    /// `stream_node`'s stream.
    fn note_decision(
        &mut self,
        now: SimTime,
        stream_node: usize,
        key: TaskKey,
        reason: DecisionReason,
        home: CandidateState,
        chosen: Option<CandidateState>,
    ) {
        let (chosen_node, chosen_queued, chosen_owned) = match chosen {
            Some(c) => (c.node as i32, c.queued_tasks as i32, c.owned_cores as i32),
            None => (-1, -1, -1),
        };
        let ev = EventKind::SchedDecision {
            key,
            reason,
            chosen_node,
            home_node: home.node as u32,
            home_queued: home.queued_tasks as u32,
            home_owned: home.owned_cores as u32,
            chosen_queued,
            chosen_owned,
        };
        self.trace.emit(TraceLog::node_stream(stream_node), now, ev);
    }

    /// The tentative scheduling decision for a ready task (§5.5).
    /// Returns the chosen slot, or `None` to hold the task.
    fn decide(&mut self, now: SimTime, apprank: usize, inst: &Inst) -> Option<usize> {
        let offloadable =
            self.appranks[apprank].kinds[inst.tid.raw() as usize] == TaskKind::Offloadable;
        let placed = &self.layout.placement()[apprank];
        if !offloadable || placed.len() == 1 {
            // Degenerate decision: the home worker is the only candidate.
            if self.trace.events() {
                let key = self.task_key(apprank, inst.tid);
                let home = self.candidate(self.worker(apprank, 0));
                let reason = DecisionReason::LocalityHit;
                self.note_decision(now, home.node, key, reason, home, Some(home));
            }
            return Some(0);
        }
        self.sched_slots.clear();
        self.sched_candidates.clear();
        // Dead workers are not candidates; the home worker (slot 0) never
        // dies, so it stays at candidate index 0.
        for (k, &(node, proc)) in placed.iter().enumerate() {
            if !self.layout.alive()[node][proc] {
                continue;
            }
            let proc = ProcId(proc);
            let w = Worker {
                apprank,
                slot: k,
                node,
                proc,
            };
            self.sched_slots.push(k);
            self.sched_candidates.push(self.candidate(w));
        }
        // The paper's rule (§5.5): two tasks per owned core, borrowed
        // cores never count.
        let (placement, reason) =
            choose_node_explained(&self.sched_candidates, 0, QUEUE_DEPTH_PER_CORE, false);
        let chosen = match placement {
            Placement::Worker(k) => Some(k),
            Placement::Hold => None,
        };
        if self.trace.events() {
            let key = self.task_key(apprank, inst.tid);
            let home = self.sched_candidates[0];
            let reason = match reason {
                ChoiceReason::LocalityHit => DecisionReason::LocalityHit,
                ChoiceReason::AdjacentSpill => DecisionReason::AdjacentSpill,
                ChoiceReason::Saturated => DecisionReason::Queued,
            };
            let chosen = chosen.map(|k| self.sched_candidates[k]);
            self.note_decision(now, home.node, key, reason, home, chosen);
        }
        chosen.map(|k| self.sched_slots[k])
    }

    /// Dispatch a ready task: either send it (scheduling its arrival after
    /// the transfer) or push it onto the apprank's hold queue, and say
    /// whether it was held. MPI receive tasks whose message has not
    /// arrived park in `waiting_recvs` first.
    fn dispatch(&mut self, ctx: &mut Ctx<Ev>, apprank: usize, inst: Inst) -> bool {
        let t = inst.tid.raw() as usize;
        let recv = match self.appranks[apprank].kinds[t] {
            TaskKind::Recv => self.appranks[apprank].specs[t].mpi(),
            _ => None,
        };
        if let Some(MpiOp::Recv { from, tag }) = recv {
            let key = (from, apprank, tag);
            match self.messages.get(&key) {
                Some(MsgState::Arrived) => {
                    self.messages.remove(&key);
                }
                _ => {
                    let prev = self.waiting_recvs.insert(key, inst);
                    if prev.is_some() {
                        self.fail(format!("duplicate recv for message {key:?}"));
                    }
                    return false;
                }
            }
        }
        let Some(slot) = self.decide(ctx.now(), apprank, &inst) else {
            self.appranks[apprank].hold.push_back(inst);
            return true;
        };
        self.send_task(ctx, apprank, slot, inst);
        false
    }

    /// Dispatch `batch`, ready tasks of `apprank` in the order they became
    /// ready, holding every offloadable one after the first Hold without
    /// deciding it again (see the module doc). `released`: the batch is a
    /// completion's successors, each recording its `TaskReady` first.
    fn dispatch_batch(
        &mut self,
        ctx: &mut Ctx<Ev>,
        apprank: usize,
        batch: Vec<TaskId>,
        released: bool,
    ) {
        let now = ctx.now();
        let mut holding = false;
        for tid in batch {
            if released && self.trace.events() {
                self.note_ready(now, apprank, tid);
            }
            let t = tid.raw() as usize;
            let spec = &self.appranks[apprank].specs[t];
            let inst = Inst {
                tid,
                duration: spec.duration,
                bytes: spec.bytes,
            };
            if !(holding && self.appranks[apprank].kinds[t] == TaskKind::Offloadable) {
                holding |= self.dispatch(ctx, apprank, inst);
                continue;
            }
            if self.trace.events() {
                let key = self.task_key(apprank, inst.tid);
                let home = self.candidate(self.worker(apprank, 0));
                let reason = DecisionReason::Queued;
                self.note_decision(now, home.node, key, reason, home, None);
            }
            self.appranks[apprank].hold.push_back(inst);
        }
    }

    /// Re-run the scheduling decision for held tasks (after capacity
    /// changes from a DROM update).
    pub(super) fn drain_holds(&mut self, ctx: &mut Ctx<Ev>) {
        for a in 0..self.appranks.len() {
            while let Some(inst) = self.appranks[a].hold.pop_front() {
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

    /// Start as many tasks as worker `w` can obtain cores for: first its
    /// queued (already transferred) tasks, then steal from the apprank's
    /// hold queue (paying the transfer inline for remote workers).
    fn try_start_worker(&mut self, ctx: &mut Ctx<Ev>, w: Worker) {
        if !self.is_alive(w) {
            return;
        }
        let Worker {
            apprank,
            slot,
            node,
            proc,
        } = w;
        let speed = self.platform.node_speed[node];
        loop {
            let has_queued = !self.appranks[apprank].workers[slot].queued.is_empty();
            // Stealing from the apprank's hold queue is gated (§5.5,
            // `steal_allowed`), never decided by a task-less acquire.
            let may_steal = !self.appranks[apprank].hold.is_empty() && {
                let dlb = &self.dlbs[node];
                steal_allowed(
                    self.appranks[apprank].workers[slot].load(),
                    dlb.owned_count(proc),
                    dlb.num_cores() - dlb.busy_count(),
                )
            };
            if !has_queued && !may_steal {
                break;
            }
            if !has_queued && self.trace.events() {
                self.trace.counters.steal_attempt();
            }
            let Some(core) = self.dlbs[node].acquire(proc) else {
                break;
            };
            // `has_queued` / `may_steal` checked the queue popped here.
            let rank = &mut self.appranks[apprank];
            let (popped, stolen) = match rank.workers[slot].queued.pop_front() {
                Some(inst) => (Some(inst), false),
                None => (rank.hold.pop_front(), true),
            };
            let Some(inst) = popped else {
                self.fail(format!(
                    "apprank {apprank} slot {slot}: acquired core {core} with no task to start"
                ));
                return;
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
                self.fail(format!(
                    "apprank {apprank}: dispatched task {} was not ready: {e}",
                    inst.tid.raw()
                ));
                return;
            }
            if slot != 0 {
                self.offloaded_tasks += 1;
            }
            let now = ctx.now();
            if self.trace.events() {
                let key = self.task_key(apprank, inst.tid);
                if stolen {
                    let home = self.candidate(self.worker(apprank, 0));
                    let reason = DecisionReason::Stolen;
                    self.note_decision(now, node, key, reason, home, Some(self.candidate(w)));
                    if slot != 0 {
                        self.note_offload(now, key, home.node, node, true);
                    }
                }
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
        if self.trace.events() {
            self.pump_dlb(ctx.now(), node);
        }
    }

    /// Give every worker on `node` a chance to start tasks (a core was
    /// released or ownership changed). The scan starts at a rotating
    /// offset: a fixed order would hand every freed core to the
    /// lowest-indexed hungry worker, systematically starving later
    /// appranks of borrowed capacity.
    pub(super) fn try_start_node(&mut self, ctx: &mut Ctx<Ev>, node: usize) {
        let n = self.layout.workers_on(node).len();
        let offset = self.rr_offset[node];
        self.rr_offset[node] = (offset + 1) % n.max(1);
        for i in 0..n {
            let proc = (offset + i) % n;
            let w = self.layout.workers_on(node)[proc];
            let w = Worker {
                apprank: w.apprank,
                slot: w.slot,
                node,
                proc: ProcId(proc),
            };
            self.try_start_worker(ctx, w);
        }
        self.record_node(ctx.now(), node);
    }

    pub(super) fn start_iteration(&mut self, ctx: &mut Ctx<Ev>) {
        self.iteration_start = ctx.now();
        self.remaining_appranks = self.appranks.len();
        let iteration = self.iteration;
        for a in 0..self.appranks.len() {
            let specs = self.workload.tasks(a, iteration);
            let st = &mut self.appranks[a];
            st.graph.clear();
            st.hold.clear();
            st.done = 0;
            st.total = specs.len();
            st.iteration_done = false;
            st.kinds.clear();
            st.kinds.extend(specs.iter().map(TaskKind::of));
            st.specs = specs;
            self.total_tasks += self.appranks[a].total;
            let mut ready = Vec::new();
            for ti in 0..self.appranks[a].total {
                let spec = &self.appranks[a].specs[ti];
                let duration = spec.duration;
                if spec.mpi().is_some() && spec.offloadable {
                    self.fail(format!(
                        "apprank {a}: iteration {iteration} task {ti} is an MPI task \
                         marked offloadable; MPI tasks must be non-offloadable (paper §4)"
                    ));
                    return;
                }
                let mut def = TaskDef::new("task");
                def.accesses.extend_from_slice(spec.accesses());
                let was_ready = self.appranks[a].graph.ready_count();
                let tid = match self.appranks[a].graph.submit(def) {
                    Ok(tid) => tid,
                    Err(e) => {
                        self.fail(format!(
                            "apprank {a}: iteration {iteration} task {ti} rejected \
                             by the task graph: {e}"
                        ));
                        return;
                    }
                };
                if self.trace.events() {
                    let key = self.task_key(a, tid);
                    let home = self.layout.node_of(a, 0);
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
                ready.push(tid);
            }
            if self.appranks[a].total == 0 {
                self.appranks[a].iteration_done = true;
                self.rank_finish[a] = ctx.now();
                self.remaining_appranks -= 1;
            }
            self.dispatch_batch(ctx, a, ready, false);
        }
        if self.remaining_appranks == 0 {
            // Degenerate all-empty iteration.
            self.finish_iteration(ctx);
        }
    }

    fn finish_iteration(&mut self, ctx: &mut Ctx<Ev>) {
        if !self.waiting_recvs.is_empty() {
            self.fail(format!(
                "iteration ended with unmatched MPI receives: {:?}",
                self.waiting_recvs.keys().collect::<Vec<_>>()
            ));
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

    pub(super) fn handle_end(
        &mut self,
        ctx: &mut Ctx<Ev>,
        apprank: usize,
        slot: usize,
        core: usize,
        tid: TaskId,
    ) {
        let Worker { node, proc, .. } = self.worker(apprank, slot);
        self.appranks[apprank].workers[slot].running -= 1;
        if let Err(e) = self.dlbs[node].release(proc, core) {
            self.fail(format!(
                "releasing core {core} of proc {} on node {node}: {e}",
                proc.0
            ));
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
        let t = tid.raw() as usize;
        let send = match self.appranks[apprank].kinds[t] {
            TaskKind::Send => self.appranks[apprank].specs[t].mpi(),
            _ => None,
        };
        if let Some(MpiOp::Send { to, tag, bytes }) = send {
            let key = (apprank, to, tag);
            let prev = self.messages.insert(key, MsgState::InFlight);
            if prev.is_some() {
                self.fail(format!("duplicate send for message {key:?}"));
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
                self.fail(format!(
                    "apprank {apprank}: completing task {}: {e}",
                    tid.raw()
                ));
                return;
            }
        };
        self.dispatch_batch(ctx, apprank, newly_ready, true);
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
}
