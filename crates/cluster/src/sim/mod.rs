//! The discrete-event OmpSs-2@Cluster runtime.
//!
//! One [`State`] is the simulated world the DES drives. It keeps each
//! run-time fact once — who lives where and is alive is the worker table
//! ([`ProcessLayout`]), and only [`State::spawn_worker`] /
//! [`State::retire_worker`] change it — and its handlers are split along
//! the runtime's seams:
//!
//! * `flow` — a task's way through the runtime: iteration start, the
//!   scheduling decision, the send, the start on a core, the end.
//! * `balance` — the local and global policy ticks, the solver, dynamic
//!   spreading, and applying a new ownership.
//! * `faults` — the fault plan's state, its draws and its handlers.
//! * `setup` — [`RunSpec`], [`ClusterSim::execute`] and the report.

mod balance;
mod faults;
mod flow;
mod setup;

pub use setup::{ClusterSim, RunSpec};

use crate::{Trace, Workload};
use faults::Faults;
use flow::{ApprankState, Inst, MsgState, WorkerState};
use std::collections::HashMap;
use std::fmt;
use tlb_core::{BalanceConfig, BalancePolicy, CandidateState, Platform, ProcessLayout};
use tlb_des::{Ctx, SimTime, World};
use tlb_dlb::{DlbEvent, NodeDlb, ProcId, Talp};
use tlb_expander::ExpanderError;
use tlb_linprog::LpError;
use tlb_tasking::TaskId;
use tlb_trace::{EventKind, TaskKey, TraceLog};

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
    /// Injected faults, each by its index in the plan's list of its kind:
    /// a straggler burst begins and (scheduled by its start) ends, a
    /// helper worker dies, a solver outage window opens and closes.
    FaultStraggler(usize),
    FaultStragglerEnd(usize),
    FaultKill(usize),
    FaultOutage(usize),
    FaultOutageEnd,
}

/// One worker process (an apprank's presence on one node), resolved from
/// the table once per handler: whom it works for and where it lives.
#[derive(Clone, Copy)]
struct Worker {
    apprank: usize,
    /// Index among the apprank's workers (0 = the home worker).
    slot: usize,
    node: usize,
    /// Its DLB process id on `node`.
    proc: ProcId,
}

struct State<W: Workload> {
    // The machine and who lives on it (this module).
    platform: Platform,
    config: BalanceConfig,
    /// The worker table: node → workers, `(apprank, slot)` → `(node,
    /// proc)`, and liveness. Grows when dynamic spreading spawns helpers.
    layout: ProcessLayout,
    dlbs: Vec<NodeDlb>,
    talps: Vec<Talp>,
    trace: Trace,
    /// First unrecoverable error; set instead of panicking. The DES keeps
    /// draining its queue (handlers early-return) and the run reports it.
    error: Option<SimError>,

    // Task flow (`flow`).
    workload: W,
    appranks: Vec<ApprankState>,
    /// In-flight / arrived point-to-point messages of the current
    /// iteration, keyed by (from, to, tag).
    messages: HashMap<(usize, usize, u64), MsgState>,
    /// Receive tasks whose message has not arrived yet.
    waiting_recvs: HashMap<(usize, usize, u64), Inst>,
    /// Per-node round-robin start offset for core handout fairness.
    rr_offset: Vec<usize>,
    /// Scratch of `State::decide`, kept to spare an allocation per
    /// decision: the living slots and their candidate states.
    sched_slots: Vec<usize>,
    sched_candidates: Vec<CandidateState>,
    iteration: usize,
    iteration_start: SimTime,
    remaining_appranks: usize,
    rank_finish: Vec<SimTime>,
    finished: bool,
    /// Virtual time at which the application completed (the makespan; the
    /// DES may process residual policy-tick events after this).
    completion_time: SimTime,
    iteration_times: Vec<SimTime>,
    offloaded_tasks: usize,
    total_tasks: usize,
    /// Cumulative created work (task cost hints) per apprank — the
    /// `CreatedWork` demand signal the global tick reads.
    created_work: Vec<f64>,

    // Balance ticks (`balance`).
    /// The balancing policy object driving the tick hooks (see
    /// `tlb_core::BalancePolicy`), instantiated from `config.policy`.
    balance_policy: Box<dyn BalancePolicy>,
    /// TALP totals at the last global tick, per (node, proc).
    last_total: Vec<Vec<f64>>,
    /// `created_work` at the last global tick.
    last_created: Vec<f64>,
    solver_runs: usize,
    solver_time: SimTime,
    spawned_helpers: usize,

    // Fault injection (`faults`).
    faults: Faults,
}

impl<W: Workload> State<W> {
    /// Resolve apprank `apprank`'s slot-`slot` worker: two array reads.
    fn worker(&self, apprank: usize, slot: usize) -> Worker {
        let (node, proc) = self.layout.placement()[apprank][slot];
        Worker {
            apprank,
            slot,
            node,
            proc: ProcId(proc),
        }
    }

    fn is_alive(&self, w: Worker) -> bool {
        self.layout.alive()[w.node][w.proc.0]
    }

    /// Add a helper of `apprank` on `node` (dynamic work spreading): one
    /// more row in the table and in everything indexed like it. The next
    /// global solve reads the new edge off the table.
    fn spawn_worker(&mut self, now: SimTime, apprank: usize, node: usize) {
        let (slot, proc) = self.layout.push_worker(apprank, node);
        let dlb_proc = self.dlbs[node].add_process();
        debug_assert_eq!(dlb_proc.0, proc, "layout and DLB proc ids must agree");
        let talp_proc = self.talps[node].add_proc(now);
        debug_assert_eq!(talp_proc, proc);
        self.last_total[node].push(self.talps[node].total(proc, now));
        self.trace.add_worker(node, apprank);
        self.appranks[apprank].workers.push(WorkerState::default());
        debug_assert_eq!(self.appranks[apprank].workers.len() - 1, slot);
        self.spawned_helpers += 1;
        if self.trace.events() {
            let ev = EventKind::HelperSpawned {
                apprank: apprank as u32,
                node: node as u32,
            };
            self.trace.emit(TraceLog::node_stream(node), now, ev);
        }
        self.record_node(now, node);
    }

    /// Retire helper `w` (fail-stop): dead in the table, which masks it
    /// out of the global allocation, and its DROM-owned cores handed to
    /// the node's survivors. Returns `false` after recording the error if
    /// DLB refuses.
    fn retire_worker(&mut self, w: Worker) -> bool {
        if let Err(e) = self.dlbs[w.node].retire_process(w.proc) {
            self.fail(format!(
                "killing worker (apprank {}, slot {}) on node {}: {e}",
                w.apprank, w.slot, w.node
            ));
            return false;
        }
        self.layout.retire(w.apprank, w.slot);
        true
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

    /// Record a broken invariant or unusable input instead of panicking.
    /// The first error wins; subsequent handlers early-return and the run
    /// reports it.
    fn fail(&mut self, what: String) {
        self.error.get_or_insert(SimError::Shape(what));
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
    /// each record with `now` (the DLB layer itself is time-free). Called
    /// only when events record (a `NodeDlb` buffers nothing otherwise).
    fn pump_dlb(&mut self, now: SimTime, node: usize) {
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
            } => self.handle_arrive(ctx, apprank, slot, inst),
            Ev::End {
                apprank,
                slot,
                core,
                tid,
            } => self.handle_end(ctx, apprank, slot, core, tid),
            Ev::MsgDeliver { from, to, tag } => self.handle_msg_deliver(ctx, from, to, tag),
            Ev::SpeedChange { node, speed } => self.handle_speed_change(ctx, node, speed),
            Ev::LocalTick => self.local_tick(ctx),
            Ev::GlobalTick => self.global_tick(ctx),
            Ev::ApplyOwnership { per_node } => self.apply_ownership(ctx, per_node),
            Ev::FaultStraggler(i) => self.handle_straggler(ctx, i),
            Ev::FaultStragglerEnd(i) => self.handle_straggler_end(ctx, i),
            Ev::FaultKill(i) => self.handle_kill(ctx, i),
            Ev::FaultOutage(i) => self.handle_outage(ctx, i),
            Ev::FaultOutageEnd => self.handle_outage_end(ctx),
        }
    }
}

#[cfg(test)]
mod tests;
